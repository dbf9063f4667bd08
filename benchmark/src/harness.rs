//! What every workload shares: the run context, the shape of a measured
//! window, and the reduction of a window to the end-to-end metrics.

use crate::procfs::{self, CpuTime};
use crate::stats::Sliced;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A workload's world is built at least this many times per run, and
/// again until [`SETUP_BUDGET`] has been spent (at most
/// [`SETUP_REPEATS_MAX`] times); `setup_s` is the median, so neither one
/// build that lost its core to another tenant nor a 50 ms set-up that
/// happened to run in a fast moment of the box becomes the figure.
pub const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`].
pub const SETUP_REPEATS_MAX: usize = 25;
/// See [`SETUP_REPEATS`].
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Slices a window is cut into (see [`Sliced`]); fewer when the window
/// holds too few samples. A rate needs many samples per slice (a sample
/// lands whole in the slice it completes in, so few large samples would
/// quantize the rate); a percentile needs a dozen.
const MAX_SLICES: usize = 16;
const MIN_SAMPLES_PER_RATE_SLICE: usize = 200;
const MIN_SAMPLES_PER_LATENCY_SLICE: usize = 12;

/// Everything a workload is told about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name (also the stem of its files under `out/`).
    pub workload: &'static str,
    /// Input seed: the only source of input variation.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced pass (per-layer metrics) or untraced pass (end-to-end).
    pub trace: bool,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Directory holding the built `apna-border` / `apna-gateway`.
    pub bin_dir: PathBuf,
}

impl Ctx {
    /// The same run with another window length (reference and traced
    /// windows of the traced pass).
    pub fn with_window(&self, window: Duration) -> Ctx {
        Ctx {
            window,
            ..self.clone()
        }
    }
}

/// One latency sample of a window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds into the window's timeline at which the sample completed.
    pub at: f64,
    /// The latency, microseconds.
    pub lat_us: f64,
    /// Operations the sample accounts for (packets in a burst, requests
    /// in a batch, events in a simulator instance).
    pub ops: u32,
}

/// What one measured window produced, before reduction.
#[derive(Default)]
pub struct Window {
    /// Latency samples (one per op, burst, batch or instance).
    pub samples: Vec<Sample>,
    /// Length of the timeline `Sample::at` runs along: wall seconds, or
    /// summed timed sections where generation is excluded.
    pub timeline_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, late or incorrect.
    pub failed: u64,
    /// CPU the system under test used over the window.
    pub cpu: CpuTime,
    /// Useful payload bytes delivered.
    pub payload_bytes: u64,
    /// First-datagram-to-delivery times of fresh flows, microseconds.
    pub flow_setups_us: Vec<f64>,
    /// Peak resident set of the processes under test, MB.
    pub peak_rss_mb: f64,
    /// Correctness violations beyond per-op failures (each is fatal).
    pub violations: Vec<String>,
    /// Layer counters observed at the boundaries (`layer.counter` → value).
    pub counters: BTreeMap<&'static str, f64>,
    /// Spans recorded around the workload's own calls (traced pass).
    pub tracer: Option<Tracer>,
    /// How late the open-loop generator ran, microseconds per send.
    pub gen_late_us: Vec<f64>,
}

/// The end-to-end figures of one window.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Completed operations per second (median over slices).
    pub ops_per_s: f64,
    /// Median latency, microseconds (median over slices).
    pub lat_p50_us: f64,
    /// 99th-percentile latency, microseconds (lower quartile over slices).
    pub lat_p99_us: f64,
    /// Latency samples behind the two percentiles.
    pub lat_samples: usize,
    /// CPU microseconds of the system under test per completed op.
    pub cpu_us_per_op: f64,
    /// Delivered payload, Mbit/s.
    pub goodput_mbps: f64,
    /// Median fresh-flow set-up, microseconds (0 when the workload has none).
    pub flow_setup_p50_us: f64,
    /// Fresh flows behind that median.
    pub flow_setups: usize,
    /// Failed / attempted.
    pub fail_ratio: f64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

impl Window {
    /// Reduces the window to its end-to-end figures.
    pub fn reduce(&self) -> EndToEnd {
        let cut = |min_per_slice: usize| {
            let slices = (self.samples.len() / min_per_slice).clamp(1, MAX_SLICES);
            let mut sliced = Sliced::new(self.timeline_s.max(1e-9), slices);
            for s in &self.samples {
                sliced.record(s.at, s.lat_us, u64::from(s.ops));
            }
            sliced
        };
        let rates = cut(MIN_SAMPLES_PER_RATE_SLICE);
        let mut latencies = cut(MIN_SAMPLES_PER_LATENCY_SLICE);
        let ops = rates.total_ops();
        EndToEnd {
            ops_per_s: rates.ops_per_sec(),
            lat_p50_us: latencies.percentile(50.0),
            lat_p99_us: latencies.tail_percentile(99.0),
            lat_samples: latencies.samples(),
            cpu_us_per_op: if ops == 0 {
                0.0
            } else {
                self.cpu.total() * 1e6 / ops as f64
            },
            goodput_mbps: self.payload_bytes as f64 * 8.0 / self.timeline_s.max(1e-9) / 1e6,
            flow_setup_p50_us: crate::stats::median(&self.flow_setups_us),
            flow_setups: self.flow_setups_us.len(),
            fail_ratio: if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    /// Adds one counter observation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }
}

/// Builds a world several times (see [`SETUP_REPEATS`]), keeps the
/// last, and returns it with the median build time in seconds. Earlier
/// worlds are dropped (daemons stopped, files closed) before the next is
/// built, so a build never competes with its predecessor.
pub fn setup_median<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && started.elapsed() < SETUP_BUDGET)
    {
        drop(kept.take());
        let t0 = Instant::now();
        let world = build(times.len())?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(world);
    }
    let world = kept.ok_or_else(|| "no set-up round ran".to_string())?;
    Ok((world, crate::stats::median(&times)))
}

/// CPU and wall bracket around an in-process window. Exact CPU time is
/// the calling thread's; a workload that runs worker threads adds what
/// each worker measured of itself ([`worker_exec`]).
pub struct SelfMeter {
    start: Instant,
    cpu0: CpuTime,
}

/// Runs `work` on the calling (worker) thread and returns its result
/// with the exact CPU seconds the thread spent in it, where the kernel
/// tells.
pub fn worker_exec<T>(work: impl FnOnce() -> T) -> (T, Option<f64>) {
    let before = procfs::thread_exec_s();
    let out = work();
    (out, before.zip(procfs::thread_exec_s()).map(|(a, b)| b - a))
}

impl SelfMeter {
    /// Starts metering this process. The kernel's peak-RSS mark is reset
    /// first (where `/proc/self/clear_refs` allows it), so the peak read
    /// at the end is the world plus the window, not set-up's transients
    /// or an earlier workload of the same process.
    pub fn start() -> Result<SelfMeter, String> {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Ok(SelfMeter {
            cpu0: CpuTime {
                exec: procfs::thread_exec_s(),
                ..procfs::cpu_of_self()?
            },
            start: Instant::now(),
        })
    }

    /// The instant the meter started (the window's time zero).
    pub fn t0(&self) -> Instant {
        self.start
    }

    /// Seconds since the meter started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops: `(wall seconds, CPU used, peak RSS MB)` of this process.
    pub fn stop(self) -> Result<(f64, CpuTime, f64), String> {
        let wall = self.start.elapsed().as_secs_f64();
        let now = CpuTime {
            exec: procfs::thread_exec_s(),
            ..procfs::cpu_of_self()?
        };
        Ok((wall, now.since(self.cpu0), procfs::peak_rss_mb_of_self()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_counts_and_ratios() {
        let mut w = Window {
            timeline_s: 2.0,
            attempted: 1000,
            failed: 10,
            cpu: CpuTime {
                user: 0.5,
                sys: 0.5,
                exec: None,
            },
            payload_bytes: 250_000,
            flow_setups_us: vec![300.0, 100.0, 200.0],
            peak_rss_mb: 12.5,
            ..Window::default()
        };
        for i in 0..990 {
            w.samples.push(Sample {
                at: 2.0 * f64::from(i) / 990.0,
                lat_us: 10.0 + f64::from(i % 10),
                ops: 1,
            });
        }
        let e = w.reduce();
        assert_eq!(e.lat_samples, 990);
        assert!((e.ops_per_s - 495.0).abs() < 5.0, "{}", e.ops_per_s);
        assert!((10.0..=19.0).contains(&e.lat_p50_us) && e.lat_p99_us == 19.0);
        assert!((e.cpu_us_per_op - 1e6 / 990.0).abs() < 1e-9);
        assert_eq!(e.goodput_mbps, 1.0);
        assert_eq!(e.flow_setup_p50_us, 200.0);
        assert_eq!(e.fail_ratio, 0.01);
        assert_eq!(Window::default().reduce().fail_ratio, 1.0);
    }

    #[test]
    fn setup_median_keeps_last_world_and_drops_earlier_first() {
        use std::cell::Cell;
        let live = Cell::new(0u32);
        struct World<'a>(&'a Cell<u32>, usize);
        impl Drop for World<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let (world, secs) = setup_median(|round| {
            assert_eq!(live.get(), 0, "previous world still alive");
            live.set(live.get() + 1);
            Ok(World(&live, round))
        })
        .unwrap();
        // Instant builds never exhaust the time budget: the cap ends it.
        assert_eq!(world.1, SETUP_REPEATS_MAX - 1);
        assert!(secs >= 0.0);
        assert!(setup_median::<()>(|_| Err("boom".into())).is_err());
    }
}
