//! `simnet_isp`: the event-driven simulator at ISP shape (4 cores, 8
//! regionals, 40 stub ASes), run as back-to-back scenario instances
//! until the window closes.
//!
//! The acceptance driver fixes the run length, so the fixed-work
//! 3 000-host scenario of the issue is scaled to an instance that takes
//! about a quarter of a second (80 hosts, 800 flows, Pareto flow sizes,
//! two shut-off strikes) and repeated with seeds drawn from `--seed`.
//! The shape of the work is the same: host materialization (attach +
//! two EphID acquisitions over the simulated wire) dominates.
//!
//! An op is an executed event; latency is one instance, build included;
//! a failure is an invariant violation, counted against injected flows.

use crate::harness::{setup_median, Ctx, Sample, SelfMeter, Window};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use apna::simnet::{FlowSizes, ScaleConfig, ScaleReport, ScaleScenario, TopologySpec};

/// Hosts per stub AS (40 stubs).
pub const HOSTS_PER_STUB: u32 = 2;
/// Flows per instance.
pub const FLOWS: u64 = 800;

/// The instance configuration for one simulator seed.
pub fn config(sim_seed: u64, hosts_per_stub: u32, flows: u64) -> ScaleConfig {
    ScaleConfig {
        seed: sim_seed,
        topology: TopologySpec::Isp {
            cores: 4,
            regionals: 8,
            stubs: 40,
        },
        hosts_per_as: hosts_per_stub,
        flows,
        // Long enough that short-lived EphIDs cross their refresh
        // margin mid-run (the committed scale bench uses the same).
        duration_secs: 1_020,
        tick_secs: 60,
        refresh_margin_secs: 120,
        sizes: FlowSizes::Pareto {
            alpha: 1.2,
            min_pkts: 1,
            max_pkts: 16,
        },
        shutoffs: 2,
        ..ScaleConfig::default()
    }
}

/// Invariant violations of one report (0 on a correct simulator).
pub fn violations(r: &ScaleReport) -> u64 {
    r.unaccountable
        + r.linkability_violations
        + r.shutoff_violations
        + r.misrouted
        + r.expired_egress
        + r.incomplete_flows
        + r.issuance_failures
}

/// The seeds and size of a run's instances.
pub struct SimnetWorld {
    seeds: SplitMix64,
    hosts_per_stub: u32,
    flows: u64,
}

impl SimnetWorld {
    /// A world of instances of the given size (the probe suite runs one
    /// smaller instance).
    pub fn new(seed: u64, hosts_per_stub: u32, flows: u64) -> SimnetWorld {
        SimnetWorld {
            seeds: SplitMix64::fork(seed, "simnet.instances"),
            hosts_per_stub,
            flows,
        }
    }

    /// Runs instances until `ctx.window` has passed.
    pub fn run(&mut self, ctx: &Ctx, mut tracer: Tracer) -> Result<Window, String> {
        let mut w = Window::default();
        let meter = SelfMeter::start()?;
        let window_s = ctx.window.as_secs_f64();
        let (mut high_water, mut materialized, mut sent, mut delivered) = (0u64, 0u64, 0u64, 0u64);
        let mut instance = 0u64;
        loop {
            let started = meter.elapsed_s();
            if started >= window_s {
                break;
            }
            let cfg = config(self.seeds.next_u64(), self.hosts_per_stub, self.flows);
            let span = tracer.begin("simnet.scale.build", instance);
            let scenario = ScaleScenario::build(cfg).map_err(|e| format!("scenario build: {e}"))?;
            tracer.end(span, 1);
            let span = tracer.begin("simnet.scale.run", instance);
            let report = scenario.run();
            tracer.end(span, report.events_executed as usize);
            let done = meter.elapsed_s();

            let bad = violations(&report);
            w.attempted += report.flows_injected;
            w.failed += bad;
            if !report.invariants_hold() || bad != 0 || report.flows_injected != self.flows {
                w.violations.push(format!(
                    "instance {instance}: invariants_hold={} violations={bad} flows={}",
                    report.invariants_hold(),
                    report.flows_injected
                ));
            }
            w.payload_bytes += report.packets_delivered * 16;
            w.samples.push(Sample {
                at: done,
                lat_us: (done - started) * 1e6,
                ops: report.events_executed as u32,
            });
            high_water = high_water.max(report.queue_high_water);
            materialized += report.materialized_hosts;
            sent += report.packets_sent;
            delivered += report.packets_delivered;
            instance += 1;
        }
        let (wall, cpu, rss) = meter.stop()?;
        w.timeline_s = wall;
        w.cpu = cpu;
        w.peak_rss_mb = rss;
        w.violations.truncate(8);
        let n = instance.max(1) as f64;
        let events: u64 = w.samples.iter().map(|s| u64::from(s.ops)).sum();
        w.count("simnet.scale.events", events as f64 / n);
        w.count("simnet.scale.queue_high_water", high_water as f64);
        w.count("simnet.scale.materialized_hosts", materialized as f64 / n);
        w.count(
            "simnet.scale.delivered_ratio",
            delivered as f64 / sent.max(1) as f64,
        );
        w.count("simnet.scale.instances", n);
        w.tracer = tracer.enabled().then_some(tracer);
        Ok(w)
    }
}

/// Set-up: the AS fabric of one instance (52 ASes' keys and service
/// certificates; hosts materialize lazily inside the run), median of
/// the repeats.
pub fn setup(ctx: &Ctx) -> Result<(SimnetWorld, f64), String> {
    let fabric_seed = SplitMix64::fork(ctx.seed, "simnet.fabric").next_u64();
    let ((), secs) = setup_median(|_| {
        ScaleScenario::build(config(fabric_seed, HOSTS_PER_STUB, FLOWS))
            .map(drop)
            .map_err(|e| format!("scenario build: {e}"))
    })?;
    Ok((SimnetWorld::new(ctx.seed, HOSTS_PER_STUB, FLOWS), secs))
}
