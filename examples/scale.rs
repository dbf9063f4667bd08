//! Scale digest: one seeded run of the event-driven simulator over the
//! ISP hierarchy, printed as its deterministic report digest.
//!
//! ```text
//! cargo run --example scale [hosts_per_as flows]
//! ```
//!
//! The config is `tests/simnet_scale.rs::scale_cfg` (seed 42, 2 cores /
//! 4 regionals / 8 stubs, 600 simulated seconds, two shut-offs). The
//! default size, 80 hosts per stub and 2 000 flows, runs in seconds as a
//! debug build, so CI can diff its output across revisions: any change to
//! the simulator's behaviour shows as a diff. `1250 20000` is the
//! 10k-host point the release scale test reruns.

use apna_simnet::{Arrivals, FlowSizes, ScaleConfig, ScaleScenario, TopologySpec};

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: scale [hosts_per_as flows]"))
        .collect();
    let (hosts_per_as, flows) = match args[..] {
        [] => (80, 2_000),
        [hosts, flows] => (u32::try_from(hosts).expect("hosts_per_as fits u32"), flows),
        _ => panic!("usage: scale [hosts_per_as flows]"),
    };
    let cfg = ScaleConfig {
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
    };
    let report = ScaleScenario::build(cfg)
        .expect("scale config is valid")
        .run();
    assert!(report.invariants_hold(), "{report:#?}");
    print!("{}", report.digest());
}
