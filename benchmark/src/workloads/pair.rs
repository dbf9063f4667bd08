//! `pair_udp_paced`: the only workload that crosses real sockets and
//! both daemon run loops — the real `apna-gateway` and `apna-border`
//! processes, UDP-encapsulated, on 127.0.0.1 (the loopback interface,
//! not a link).
//!
//! Open loop: one generator thread sends 1 000 legacy datagrams a
//! second on a fixed schedule, whatever the daemons do; latency is
//! timed from the instant each datagram was *due*, so a stall is paid
//! by everything queued behind it, and how late the generator itself
//! ran is reported. The rate is a twentieth of the knee measured on
//! two cores: latency there is set by the run loops' poll quanta, not
//! by queueing, and repeats; saturation throughput over sockets did not
//! repeat and is not measured here.
//!
//! An op is a datagram handed back to the legacy receiver with exactly
//! the tuple and payload sent, within 250 ms of its due time.

use crate::daemons::{stat, DaemonPair, PairSpec, SERVICE_PORT, SYNTH_IP};
use crate::harness::{setup_median, Ctx, Sample, Window};
use crate::json::Value;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use apna::gateway::LegacyPacket;
use apna::wire::ipv4::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered load, datagrams per second: a twentieth of the closed-loop
/// knee on two cores (~20 000/s). The daemons' sockets keep their
/// default receive buffers (about 118 datagrams of this size), so the
/// rate also sets how long any one process may lose its core before
/// the kernel drops datagrams: 118 ms here. Every workload must run
/// without a single failure; at 5 000/s the rotation wave alone
/// overflowed the gateway's legacy socket on every run, and at 2 500/s
/// one run in twenty still lost a handful to a ~50 ms scheduling gap
/// on the shared box.
pub const RATE_PPS: u64 = 1_000;
/// Legacy payload bytes per datagram.
pub const PAYLOAD: usize = 512;
/// Flows established before the window opens. Their pooled EphIDs all
/// rotate in one wave, which stalls the gateway's single-threaded run
/// loop for about 0.55 ms each: 24 flows stall it 14 ms, an eighth of
/// what the legacy socket's receive buffer absorbs at [`RATE_PPS`]
/// (64 flows at 5 000/s overflowed it on every run).
pub const WARM_FLOWS: usize = 24;
/// Fresh 5-tuples per second (each pays issuance + handshake).
pub const FRESH_PER_SEC: u64 = 4;
/// A datagram delivered later than this after its due time failed.
pub const DEADLINE: Duration = Duration::from_millis(250);
/// With 900 s EphIDs, pooled EphIDs rotate every ~5 s while traffic flows.
pub const REFRESH_MARGIN_SECS: u32 = 895;

const FRESH_EVERY: u64 = RATE_PPS / FRESH_PER_SEC;
const POOL: usize = 32;

fn warm_endpoint(i: usize) -> (Ipv4Addr, u16) {
    (
        Ipv4Addr::new(192, 168, 7, (i % 250) as u8 + 1),
        30_000 + i as u16,
    )
}

fn fresh_endpoint(k: u64) -> (Ipv4Addr, u16) {
    let [.., b, c] = (k as u32).to_be_bytes();
    (Ipv4Addr::new(10, 9, b, c), 50_000 + (k % 10_000) as u16)
}

/// Deterministic content of datagram `seq`: which flow carries it and
/// what it carries. Sender and receiver both derive it from `seq`, so
/// the receiver checks tuple and payload without shared state.
#[derive(Clone)]
pub struct Schedule {
    pool: Vec<Vec<u8>>,
    tag: u64,
    /// First fresh-flow number of this window (fresh flows must not
    /// repeat across the reference and traced windows of one run).
    fresh_base: u64,
}

impl Schedule {
    fn new(seed: u64, payload_len: usize) -> Schedule {
        let mut rng = SplitMix64::fork(seed, "pair.payloads");
        Schedule {
            pool: (0..POOL).map(|_| rng.bytes(payload_len)).collect(),
            tag: rng.next_u64(),
            fresh_base: 0,
        }
    }

    fn is_fresh(seq: u64) -> bool {
        seq % FRESH_EVERY == FRESH_EVERY - 1
    }

    fn packet(&self, seq: u64) -> LegacyPacket {
        let (src, port) = if Self::is_fresh(seq) {
            fresh_endpoint(self.fresh_base + seq / FRESH_EVERY)
        } else {
            warm_endpoint(seq as usize % WARM_FLOWS)
        };
        let mut payload = self.pool[seq as usize % POOL].clone();
        payload[..8].copy_from_slice(&seq.to_le_bytes());
        payload[8..16].copy_from_slice(&self.tag.to_le_bytes());
        LegacyPacket::udp(src, port, SYNTH_IP, SERVICE_PORT, &payload)
    }
}

/// The running pair with its flows warm.
pub struct PairWorld {
    /// The daemons and the driver socket.
    pub pair: DaemonPair,
    schedule: Schedule,
    /// Fresh flows used up by earlier windows of this run.
    fresh_used: AtomicU64,
}

impl PairWorld {
    /// Starts the daemons and establishes the warm flows.
    pub fn build(ctx: &Ctx, relay: bool) -> Result<PairWorld, String> {
        let mut rng = SplitMix64::fork(ctx.seed, "pair.world");
        let spec = PairSpec {
            dir: ctx
                .out_dir
                .join(if relay { "daemon_probe" } else { ctx.workload }),
            bin_dir: ctx.bin_dir.clone(),
            as_seed: rng.seed32(),
            host_seeds: [rng.next_u64(), rng.next_u64()],
            refresh_margin_secs: REFRESH_MARGIN_SECS,
            relay,
        };
        let pair = DaemonPair::start(&spec)?;
        let schedule = Schedule::new(ctx.seed, PAYLOAD);
        let flows: Vec<(Ipv4Addr, u16)> = (0..WARM_FLOWS).map(warm_endpoint).collect();
        pair.warm(&flows, &schedule.pool[0])?;
        Ok(PairWorld {
            pair,
            schedule,
            fresh_used: AtomicU64::new(0),
        })
    }

    /// Runs the open loop for `ctx.window`.
    pub fn run(&self, ctx: &Ctx, mut tracer: Tracer) -> Result<Window, String> {
        let pair = &self.pair;
        let mut schedule = self.schedule.clone();
        let period = Duration::from_nanos(1_000_000_000 / RATE_PPS);
        let total = (ctx.window.as_secs_f64() * RATE_PPS as f64) as u64;
        schedule.fresh_base = self
            .fresh_used
            .fetch_add(total / FRESH_EVERY + 1, Ordering::SeqCst);

        let stats0 = (pair.gateway.stats()?, pair.border.stats()?);
        let cpu0 = pair.cpu()?;
        let stop = AtomicBool::new(false);
        let rx_socket = pair
            .legacy
            .try_clone()
            .map_err(|e| format!("driver socket clone: {e}"))?;
        rx_socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("driver socket: {e}"))?;

        let t0 = Instant::now() + Duration::from_millis(2);
        let mut late_us = Vec::with_capacity(total as usize);
        let received: Vec<Arrival> = std::thread::scope(|scope| -> Result<Vec<Arrival>, String> {
            let receiver = scope.spawn(|| receive(&rx_socket, &schedule, &stop, total));
            let sent = (|| -> Result<(), String> {
                for seq in 0..total {
                    let due = t0 + period.mul_f64(seq as f64);
                    wait_until(due);
                    let span = tracer.begin("gen.send", seq);
                    late_us.push(due.elapsed().as_secs_f64() * 1e6);
                    let sent = pair.send_legacy(&schedule.packet(seq));
                    tracer.end(span, 1);
                    sent?;
                }
                Ok(())
            })();
            // Whatever is still in flight gets its full deadline.
            std::thread::sleep(DEADLINE + Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
            let received = receiver
                .join()
                .map_err(|_| "receiver thread panicked".to_string())?;
            sent.map(|()| received)
        })?;
        let cpu1 = pair.cpu()?;
        let stats1 = (pair.gateway.stats()?, pair.border.stats()?);

        let mut w = Window {
            timeline_s: ctx.window.as_secs_f64(),
            attempted: total,
            cpu: cpu1.0.since(cpu0.0).plus(cpu1.1.since(cpu0.1)),
            peak_rss_mb: pair.peak_rss_mb()?,
            gen_late_us: late_us,
            ..Window::default()
        };
        let mut seen = vec![false; total as usize];
        let mut ok_total = 0u64;
        for a in &received {
            let Some(slot) = seen.get_mut(a.seq as usize) else {
                w.violations
                    .push(format!("delivery of unknown datagram {}", a.seq));
                continue;
            };
            if std::mem::replace(slot, true) {
                w.violations
                    .push(format!("datagram {} delivered twice", a.seq));
                continue;
            }
            let due = t0 + period.mul_f64(a.seq as f64);
            let latency = a.at.saturating_duration_since(due);
            let ok = a.intact && latency <= DEADLINE;
            if !a.intact {
                w.violations.push(format!(
                    "datagram {} delivered with a changed tuple or payload",
                    a.seq
                ));
            }
            ok_total += u64::from(ok);
            w.samples.push(Sample {
                at: a.at.saturating_duration_since(t0).as_secs_f64(),
                lat_us: latency.as_secs_f64() * 1e6,
                ops: u32::from(ok),
            });
            if ok && Schedule::is_fresh(a.seq) {
                w.flow_setups_us.push(latency.as_secs_f64() * 1e6);
            }
            if tracer.enabled() {
                tracer.record("pair.one_way", due, a.at, a.seq, 1);
            }
        }
        w.failed = total - ok_total;
        if let Some(first) = seen.iter().position(|s| !s) {
            let lost = seen.iter().filter(|s| !**s).count();
            w.violations.push(format!(
                "{lost} datagrams were never delivered (first: {first})"
            ));
        }
        w.payload_bytes = ok_total * PAYLOAD as u64;
        w.violations.truncate(8);

        let (g0, b0) = &stats0;
        let (g1, b1) = &stats1;
        let delta = |a: &Value, b: &Value, path: &str| stat(b, path) - stat(a, path);
        let pkts = ok_total.max(1) as f64;
        let (gw_cpu, br_cpu) = (cpu1.0.since(cpu0.0), cpu1.1.since(cpu0.1));
        w.count(
            "bin.apna-gateway.cpu_us_per_pkt",
            gw_cpu.total() * 1e6 / pkts,
        );
        w.count(
            "bin.apna-border.cpu_us_per_pkt",
            br_cpu.total() * 1e6 / pkts,
        );
        let sys_share = |c: crate::procfs::CpuTime| c.sys / (c.user + c.sys).max(1e-9);
        w.count("bin.apna-gateway.sys_share", sys_share(gw_cpu));
        w.count("bin.apna-border.sys_share", sys_share(br_cpu));
        w.count("bin.apna-gateway.rotated", delta(g0, g1, "rotated"));
        w.count(
            "bin.apna-gateway.translate_errors",
            delta(g0, g1, "translate_errors"),
        );
        w.count("bin.apna-border.drops_total", delta(b0, b1, "drops.total"));
        w.count(
            "bin.apna-border.mean_burst",
            delta(b0, b1, "io.rx_frames") / delta(b0, b1, "bursts").max(1.0),
        );
        w.count(
            "io.udp.rx_rejected",
            delta(b0, b1, "io.rx_rejected")
                + delta(g0, g1, "io_apna.rx_rejected")
                + delta(g0, g1, "io_legacy.rx_rejected"),
        );
        w.count("gateway.ephids_owned", stat(g1, "ephids"));
        w.count("gateway.flows", stat(g1, "flows"));
        w.count(
            "core.ctrl_log.io_errors",
            stat(g1, "ctrl_log.io_errors") + stat(b1, "ctrl_log.io_errors"),
        );
        for (what, n) in [
            (
                "gateway translate errors",
                delta(g0, g1, "translate_errors"),
            ),
            ("gateway unroutable datagrams", delta(g0, g1, "unroutable")),
            ("gateway refresh errors", delta(g0, g1, "refresh_errors")),
            ("border drops", delta(b0, b1, "drops.total")),
            (
                "border rejected control frames",
                delta(b0, b1, "control.rejected"),
            ),
        ] {
            if n != 0.0 {
                w.violations.push(format!("{n} {what} during the window"));
            }
        }
        w.tracer = tracer.enabled().then_some(tracer);
        Ok(w)
    }

    /// A datagram on an established flow whose payload no window uses
    /// (ping-pong and closed-loop probes).
    pub fn ping_packet(&self, n: u64) -> LegacyPacket {
        let (src, port) = warm_endpoint(n as usize % WARM_FLOWS);
        let mut payload = self.schedule.pool[n as usize % POOL].clone();
        payload[..8].copy_from_slice(&(n | 1 << 48).to_le_bytes());
        LegacyPacket::udp(src, port, SYNTH_IP, SERVICE_PORT, &payload)
    }

    /// Closed loop with `outstanding` datagrams in flight for `window`:
    /// deliveries per second. A datagram lost to a full socket buffer
    /// would shrink the window for good, so a silent 20 ms restarts it.
    pub fn window_throughput(&self, outstanding: usize, window: Duration) -> Result<f64, String> {
        let socket = &self.pair.legacy;
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("driver socket: {e}"))?;
        let mut buf = vec![0u8; 16 * 1024];
        let (mut next, mut in_flight, mut delivered) = (0u64, 0usize, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < window {
            // Ramp: two sends per delivery (32 to start) until the window
            // is full, so the first burst fits the socket buffers.
            let burst = if in_flight == 0 { 32 } else { 2 };
            for _ in 0..burst.min(outstanding - in_flight.min(outstanding)) {
                self.pair.send_legacy(&self.ping_packet(next))?;
                next += 1;
                in_flight += 1;
            }
            match socket.recv(&mut buf) {
                Ok(_) => {
                    delivered += 1;
                    in_flight = in_flight.saturating_sub(1);
                }
                Err(_) => in_flight = 0,
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        // Let the tail drain so it is not taken for the next phase's.
        while socket.recv(&mut buf).is_ok() {}
        Ok(delivered as f64 / secs)
    }

    /// Stops the daemons; their exit codes and final counters are part
    /// of the correctness check.
    pub fn finish(self) -> Result<(), String> {
        let (gateway, border) = self.pair.stop()?;
        if stat(&gateway, "translate_errors") != 0.0 {
            return Err(format!(
                "gateway finished with {} translate errors",
                stat(&gateway, "translate_errors")
            ));
        }
        if stat(&border, "drops.total") != 0.0 {
            return Err(format!(
                "border finished with {} drops",
                stat(&border, "drops.total")
            ));
        }
        Ok(())
    }

    /// The configs the daemons were started with (for the result's meta).
    pub fn configs(&self) -> Value {
        Value::obj()
            .with("apna-gateway", self.pair.gateway.config.as_str())
            .with("apna-border", self.pair.border.config.as_str())
    }
}

/// One delivery as the receiver thread saw it.
struct Arrival {
    seq: u64,
    at: Instant,
    intact: bool,
}

/// Sleeps most of the way to `due`, then spins the rest: the scheduler's
/// wake-up is tens of microseconds late, a period is two hundred.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn receive(
    socket: &std::net::UdpSocket,
    schedule: &Schedule,
    stop: &AtomicBool,
    total: u64,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(total as usize);
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        match socket.recv(&mut buf) {
            Ok(n) => {
                let at = Instant::now();
                let Ok(pkt) = LegacyPacket::parse(&buf[..n]) else {
                    out.push(Arrival {
                        seq: u64::MAX,
                        at,
                        intact: false,
                    });
                    continue;
                };
                let seq = pkt
                    .payload
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map_or(u64::MAX, u64::from_le_bytes);
                let intact = seq < total && pkt == schedule.packet(seq);
                out.push(Arrival { seq, at, intact });
            }
            Err(_) if stop.load(Ordering::SeqCst) => return out,
            Err(_) => {}
        }
    }
}

/// Set-up (median of the repeats): spawn both daemons, wait for their
/// endpoints, establish the warm flows. Earlier pairs are stopped
/// before the next starts.
pub fn setup(ctx: &Ctx) -> Result<(PairWorld, f64), String> {
    setup_median(|_| PairWorld::build(ctx, false))
}
