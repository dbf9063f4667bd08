//! One pass of one workload, reduced to named metrics: the untraced
//! pass gives the end-to-end metrics, the traced pass the per-layer
//! ones. Also the result file's `meta` block and the printed table.

use crate::harness::{Ctx, EndToEnd, Window};
use crate::json::Value;
use crate::layers::{self, Observed};
use crate::probes;
use crate::procfs;
use crate::spec::Spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, World};
use std::collections::BTreeMap;
use std::time::Instant;

/// The gated end-to-end metrics, in `BENCHMARK.json` order. Four more
/// are measured and printed by `run` where they apply, and reported
/// ungated under `e2e.*` by the traced pass (see README: demotions).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "lat_p50_us",
    "lat_p99_us",
    "cpu_us_per_op",
    "peak_rss_mb",
];

/// Shares of `--seconds` the traced pass gives its traced window and
/// each of the two untraced reference windows around it.
pub const TRACED_SHARE: f64 = 0.5;
/// See [`TRACED_SHARE`].
pub const REFERENCE_SHARE: f64 = 0.125;

/// Spans written to a trace file at most (the rest stay in memory and
/// still feed the metrics).
const TRACE_FILE_SPANS: usize = 200_000;

/// What one pass produced.
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations failed in the measured window.
    pub failed: u64,
    /// `(name, value)` of every metric of the pass.
    pub metrics: Vec<(String, f64)>,
    /// Measured but ungated end-to-end figures (untraced pass).
    pub extras: Vec<(&'static str, f64)>,
    /// Latency samples behind the percentiles.
    pub lat_samples: usize,
    /// What failed, if anything did.
    pub violations: Vec<String>,
    /// Workload-specific facts for the result's `meta`.
    pub info: Value,
}

fn check(window: &Window, violations: &mut Vec<String>) {
    violations.extend(window.violations.iter().cloned());
    if window.failed > 0 {
        violations.push(format!(
            "{} of {} operations failed",
            window.failed, window.attempted
        ));
    }
    if window.attempted == 0 {
        violations.push("no operation was attempted".to_string());
    }
}

fn extras(e: &EndToEnd, window: &Window, workload: &str) -> Vec<(&'static str, f64)> {
    let mut out = vec![("fail_ratio", e.fail_ratio)];
    if matches!(
        workload,
        "pair_udp_paced" | "trip_ring_small" | "trip_ring_large"
    ) {
        out.push(("goodput_mbps", e.goodput_mbps));
    }
    if e.flow_setups > 0 {
        out.push(("flow_setup_p50_us", e.flow_setup_p50_us));
    }
    if let Some(ms) = window.counters.get("e2e.recover_ms") {
        out.push(("recover_ms", *ms));
    }
    out
}

/// The untraced pass: every end-to-end metric.
pub fn untraced(ctx: &Ctx) -> Result<Record, String> {
    let (mut world, setup_s) = World::setup(ctx)?;
    let window = world.run(ctx, Tracer::off())?;
    let info = world.finish()?;
    let e = window.reduce();
    let mut violations = Vec::new();
    check(&window, &mut violations);
    Ok(Record {
        workload: ctx.workload,
        seed: ctx.seed,
        traced: false,
        correct: violations.is_empty(),
        attempted: window.attempted,
        failed: window.failed,
        metrics: END_TO_END
            .iter()
            .map(|name| name.to_string())
            .zip([
                setup_s,
                e.ops_per_s,
                e.lat_p50_us,
                e.lat_p99_us,
                e.cpu_us_per_op,
                e.peak_rss_mb,
            ])
            .collect(),
        extras: extras(&e, &window, ctx.workload),
        lat_samples: e.lat_samples,
        violations,
        info,
    })
}

/// The traced pass: a discarded warm-up window, then the traced window
/// bracketed by two short untraced reference windows (some worlds slow down as their state grows, so
/// the mean of before and after is the fair reference for the tracing
/// overhead), then the probe suite; every per-layer metric. Traced
/// windows never feed an end-to-end metric.
pub fn traced(ctx: &Ctx) -> Result<Record, String> {
    let (mut world, _setup_s) = World::setup(ctx)?;
    let reference = ctx.with_window(ctx.window.mul_f64(REFERENCE_SHARE));
    // Set-up runs on one thread; on this VM a core that sat idle through
    // it ran the two-thread workloads at half speed for their first
    // second (3 of 6 starts). A discarded window absorbs that, so the
    // first reference window is not the slow one and the overhead ratio
    // does not read negative.
    let warm_up = world.run(&reference, Tracer::off())?;
    let before = world.run(&reference, Tracer::off())?;
    let epoch = Instant::now();
    let mut window = world.run(
        &ctx.with_window(ctx.window.mul_f64(TRACED_SHARE)),
        Tracer::on(epoch),
    )?;
    let after = world.run(&reference, Tracer::off())?;
    let info = world.finish()?;
    let probed = probes::run_all(ctx, workloads::profile(ctx.workload), epoch)?;

    let mut violations = Vec::new();
    for w in [&warm_up, &before, &window, &after] {
        check(w, &mut violations);
    }
    let e = window.reduce();
    let untraced_rate = (before.reduce().ops_per_s + after.reduce().ops_per_s) / 2.0;
    let tracer = window.tracer.take().unwrap_or_else(Tracer::off);

    let mut counters = std::mem::take(&mut window.counters);
    counters.insert(
        "trace.overhead_ratio",
        untraced_rate / e.ops_per_s.max(1e-9) - 1.0,
    );
    counters.insert(
        "trace.spans",
        (tracer.spans().len() + probed.tracer.spans().len()) as f64,
    );
    counters.insert("e2e.goodput_mbps", e.goodput_mbps);
    counters.insert("e2e.fail_ratio", e.fail_ratio);
    if e.flow_setups > 0 {
        counters.insert("e2e.flow_setup_p50_us", e.flow_setup_p50_us);
    }
    if !window.gen_late_us.is_empty() {
        let mut late = window.gen_late_us.clone();
        stats::sort(&mut late);
        counters.insert("gen.late_p99_us", stats::percentile_sorted(&late, 99.0));
    }

    let resolved = layers::resolve(
        &Observed {
            tracer: &tracer,
            counters: &counters,
        },
        &Observed {
            tracer: &probed.tracer,
            counters: &probed.counters,
        },
    );
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let mut all = tracer;
    all.absorb(probed.tracer);
    all.write_jsonl(
        &ctx.out_dir.join(format!("{}.trace.jsonl", ctx.workload)),
        TRACE_FILE_SPANS,
    )?;

    Ok(Record {
        workload: ctx.workload,
        seed: ctx.seed,
        traced: true,
        correct: violations.is_empty(),
        attempted: window.attempted,
        failed: window.failed,
        metrics: resolved
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        extras: Vec::new(),
        lat_samples: e.lat_samples,
        violations,
        info,
    })
}

impl Record {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_json(&self, spec: &Spec) -> Value {
        let mut metrics = Value::obj();
        for (name, value) in &self.metrics {
            let unit = spec.find(name).map_or("", |m| m.unit.as_str());
            metrics.set(name, Value::obj().with("value", *value).with("unit", unit));
        }
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The result-file form: the driver's object plus seed, the ungated
    /// figures and what failed.
    pub fn file_json(&self, spec: &Spec) -> Value {
        let mut v = self
            .driver_json(spec)
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("lat_samples", self.lat_samples);
        let mut ungated = Value::obj();
        for (name, value) in &self.extras {
            ungated.set(name, *value);
        }
        v.set("ungated", ungated);
        v.set(
            "violations",
            self.violations
                .iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>(),
        );
        v
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self, spec: &Spec) {
        println!(
            "{} (seed {}, {}): {} — {} attempted, {} failed, {} latency samples",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass"
            } else {
                "untraced pass"
            },
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed,
            self.lat_samples,
        );
        for (name, value) in &self.metrics {
            let unit = spec.find(name).map_or("", |m| m.unit.as_str());
            println!("  {name:<40} {value:>16.4} {unit}");
        }
        for (name, value) in &self.extras {
            // Declared (ungated) under `e2e.<name>` in BENCHMARK.json.
            let unit = spec
                .find(&format!("e2e.{name}"))
                .map_or("", |m| m.unit.as_str());
            println!("  {name:<40} {value:>16.4} {unit} (ungated)");
        }
        for v in &self.violations {
            println!("  ! {v}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The substrate every number of a result file was measured on.
pub fn meta(
    ctx: &Ctx,
    repo_root: &std::path::Path,
    seeds: &[u64],
    infos: &BTreeMap<&'static str, Value>,
) -> Value {
    let _ = std::fs::create_dir_all(&ctx.out_dir);
    let git = command_line(
        "git",
        &["-C", &repo_root.to_string_lossy(), "rev-parse", "HEAD"],
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let mut per_workload = Value::obj();
    for (name, info) in infos {
        per_workload.set(name, info.clone());
    }
    Value::obj()
        .with("harness", "apna-benchmark")
        .with("crypto_backend", apna::crypto::aes::active_backend())
        .with("software_aes_forced", apna::crypto::aes::software_forced())
        .with(
            "APNA_SOFT_AES",
            std::env::var("APNA_SOFT_AES").unwrap_or_else(|_| "unset".to_string()),
        )
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("git_revision", git)
        .with("kernel", kernel)
        .with("out_dir_filesystem", procfs::filesystem_of(&ctx.out_dir))
        .with("clock_ticks_per_sec", procfs::clock_ticks_per_sec())
        .with(
            "network",
            "daemon traffic crosses 127.0.0.1, the host's loopback interface, not a link",
        )
        .with(
            "seeds",
            seeds.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
        )
        .with("window_seconds", ctx.window.as_secs_f64())
        .with(
            "traced_window_seconds",
            ctx.window.as_secs_f64() * TRACED_SHARE,
        )
        .with(
            "reference_window_seconds",
            ctx.window.as_secs_f64() * REFERENCE_SHARE,
        )
        .with(
            "setup_repeats",
            format!(
                "at least {}, until {} ms are spent, at most {}",
                crate::harness::SETUP_REPEATS,
                crate::harness::SETUP_BUDGET.as_millis(),
                crate::harness::SETUP_REPEATS_MAX
            ),
        )
        .with("workloads", per_workload)
}
