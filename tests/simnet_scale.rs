//! Integration tests for the event-driven simulator core at scale:
//! ordering properties of the event queue and byte-identical reruns of
//! the [`apna_simnet::ScaleScenario`] driver.
//!
//! The big reruns (10k and 100k hosts) are `#[ignore]`d so plain debug
//! `cargo test` stays fast; the release CI `simnet-scale` job runs them
//! with `--ignored`.

use apna_simnet::link::FaultProfile;
use apna_simnet::{
    Arrivals, EventQueue, FlowSizes, ScaleConfig, ScaleScenario, SimTime, Simulator, TopologySpec,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ∀ schedules: pops come out sorted by time, and *insertion order*
    /// breaks ties — the determinism contract of the `(time, seq)` key.
    #[test]
    fn event_queue_pops_in_time_then_seq_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, payload)) = q.pop() {
            popped.push((at.micros(), payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t0, i0), (t1, i1)) = (w[0], w[1]);
            prop_assert!(t0 < t1 || (t0 == t1 && i0 < i1),
                "out of order: ({t0}, {i0}) then ({t1}, {i1})");
        }
    }

    /// ∀ schedules: the `Simulator` clock is monotone and every event
    /// observes `sim.now() == its own timestamp`.
    #[test]
    fn simulator_clock_is_monotone(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        for &t in &times {
            sim.schedule(
                SimTime::from_micros(t),
                move |at: SimTime, sim: &mut Simulator<Vec<u64>>, seen: &mut Vec<u64>| {
                    assert_eq!(at, sim.now());
                    seen.push(at.micros());
                },
            );
        }
        let mut seen = Vec::new();
        sim.run(&mut seen);
        prop_assert_eq!(seen.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen, sorted);
    }
}

fn scale_cfg(hosts_per_as: u32, flows: u64) -> ScaleConfig {
    ScaleConfig {
        seed: 42,
        topology: TopologySpec::Isp {
            cores: 2,
            regionals: 4,
            stubs: 8,
        },
        hosts_per_as,
        flows,
        duration_secs: 600,
        tick_secs: 60,
        refresh_margin_secs: 120,
        sizes: FlowSizes::Pareto {
            alpha: 1.2,
            min_pkts: 1,
            max_pkts: 16,
        },
        arrivals: Some(Arrivals::Poisson {
            per_sec: flows as f64 / 600.0,
        }),
        shutoffs: 2,
        ..ScaleConfig::default()
    }
}

/// Debug-friendly: a few hundred flows across an ISP hierarchy rerun
/// byte-for-byte and hold every invariant.
#[test]
fn small_scale_run_is_deterministic_and_clean() {
    let run = || ScaleScenario::build(scale_cfg(4, 200)).unwrap().run();
    let a = run();
    assert!(a.invariants_hold(), "{a:#?}");
    assert_eq!(a.incomplete_flows, 0, "{a:#?}");
    assert_eq!(a.issuance_failures, 0);
    assert_eq!(a.flows_injected, 200);
    let b = run();
    assert_eq!(a.digest(), b.digest(), "rerun diverged");
}

/// The same fabric over lossy, duplicating inter-AS links, long enough
/// for refresh waves: attach bursts, rotation bursts and strikes all run
/// through the control transport, with its retries and per-slot fallback.
/// Faults may cost deliveries, never an invariant no fault can excuse,
/// and two runs still agree byte for byte.
#[test]
fn lossy_scale_run_keeps_invariants_and_reruns_identically() {
    let run = || {
        let cfg = ScaleConfig {
            faults: FaultProfile::lossy(0.05, 0.0).with_duplication(0.05),
            duration_secs: 1_020,
            arrivals: None,
            ..scale_cfg(4, 200)
        };
        ScaleScenario::build(cfg).unwrap().run()
    };
    let a = run();
    assert!(a.packets_delivered < a.packets_sent, "no loss: {a:#?}");
    assert!(a.duplicates > 0, "no duplication: {a:#?}");
    assert!(a.refreshes > 0 && a.strikes_acked > 0, "{a:#?}");
    assert!(a.control_retries > 0, "the retry path never ran: {a:#?}");
    assert_eq!(a.unaccountable, 0, "{a:#?}");
    assert_eq!(a.linkability_violations, 0, "{a:#?}");
    assert_eq!(a.shutoff_violations, 0, "{a:#?}");
    assert_eq!(a.misrouted, 0, "{a:#?}");
    let b = run();
    assert_eq!(a.digest(), b.digest(), "lossy rerun diverged");
}

/// The 10k-host rerun the issue calls out: two full runs of the same
/// config must produce byte-identical reports. Release CI runs this
/// (`cargo test --release -- --ignored scale_10k`); debug would take
/// minutes.
#[test]
#[ignore = "release-CI scale check (minutes in debug)"]
fn scale_10k_hosts_rerun_is_byte_identical() {
    // 8 stub ASes × 1250 hosts = 10 000 addressable hosts, 20k flows.
    let run = || ScaleScenario::build(scale_cfg(1250, 20_000)).unwrap().run();
    let a = run();
    assert!(a.invariants_hold(), "{a:#?}");
    assert_eq!(a.incomplete_flows, 0, "{a:#?}");
    assert_eq!(a.flows_injected, 20_000);
    let b = run();
    assert_eq!(a.digest(), b.digest(), "10k-host rerun diverged");
}

/// The headline scale point — 100k hosts / 1M flows over the 52-AS ISP
/// hierarchy (4 cores / 8 regionals / 40 stubs, 2 500 hosts per stub),
/// seed 42 — run twice: lossless, fully injected, every invariant
/// exactly clean, and byte-identical across the reruns. Release CI only
/// (`--ignored`): minutes per run.
#[test]
#[ignore = "release-CI scale check (minutes per run in release)"]
fn scale_100k_hosts_1m_flows_rerun_is_byte_identical() {
    let run = || {
        ScaleScenario::build(ScaleConfig {
            seed: 42,
            topology: TopologySpec::Isp {
                cores: 4,
                regionals: 8,
                stubs: 40,
            },
            hosts_per_as: 2_500,
            flows: 1_000_000,
            // Long enough that DATA_SHORT EphIDs cross their refresh
            // margin mid-run.
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
        })
        .unwrap()
        .run()
    };
    let a = run();
    assert!(a.invariants_hold(), "{a:#?}");
    assert_eq!(a.hosts, 100_000);
    assert_eq!(a.flows_injected, 1_000_000);
    assert_eq!(a.incomplete_flows, 0, "{a:#?}");
    assert_eq!(a.corrupt_discards, 0);
    assert_eq!(a.issuance_failures, 0);
    assert_eq!(a.strikes_acked, 2);
    let b = run();
    assert_eq!(a.digest(), b.digest(), "100k-host rerun diverged");
}
