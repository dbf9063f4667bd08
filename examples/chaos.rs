//! Chaos demo: the loss-tolerant control plane under a fault sweep, and a
//! deterministic adversarial scenario run.
//!
//! ```text
//! cargo run --example chaos [seed]
//! ```
//!
//! Part 1 sweeps the inter-AS link drop rate over {0%, 1%, 5%, 15%} and
//! reports the control-RPC success/retry curve (the EXPERIMENTS.md
//! fault-sweep table). Part 2 runs the scenario driver on a three-AS
//! chain under a combined drop + duplicate + reorder + jitter profile,
//! with long per-flow flows, sender and receiver rotation and one
//! shut-off, and prints its report digest — run it twice with the same
//! seed and the output is byte-identical (the CI chaos job diffs exactly
//! that, and diffs it against the base revision).

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_simnet::link::FaultProfile;
use apna_simnet::{
    Arrivals, FlowSizes, Network, RetryPolicies, RetryPolicy, ScaleConfig, ScaleScenario,
    TopologySpec,
};
use apna_wire::{Aid, ReplayMode};

fn sweep_point(seed: u64, drop: f64, rpcs: u32) -> (u32, u64, u64) {
    let mut net = Network::new(ReplayMode::Disabled);
    net.link_seed_salt = seed;
    net.add_as(Aid(1), [1; 32]);
    net.add_as(Aid(2), [2; 32]);
    net.connect(
        Aid(1),
        Aid(2),
        1_000,
        10_000_000_000,
        FaultProfile::lossy(drop, 0.0),
    );
    net.retry_policy = RetryPolicies::uniform(RetryPolicy {
        max_attempts: 6,
        base_backoff_us: 200_000,
        max_backoff_us: 1_600_000,
        deadline_us: 30_000_000,
    });
    net.attach_dns(Aid(2), DnsServer::new(SigningKey::from_seed(&[0xD7; 32])));
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        seed,
    )
    .unwrap();
    let mut ok = 0u32;
    for i in 0..rpcs {
        // Each round: a fresh receive-only EphID (intra-AS, clean) is
        // published to the cross-AS zone over the lossy link.
        let now = net.now().as_protocol_time();
        let ri = alice
            .acquire(&mut net, EphIdUsage::RECEIVE_ONLY, now)
            .expect("issuance is intra-AS and lossless here");
        let name = format!("svc-{i}.example");
        if alice.dns_register(&mut net, Aid(2), &name, ri, now).is_ok() {
            ok += 1;
        }
    }
    (
        ok,
        net.stats.control_retries.total(),
        net.stats.control_rpc_failures,
    )
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    println!("=== chaos demo (seed {seed}) ===");
    println!();
    println!("-- fault sweep: cross-AS DNS-publication RPCs, 6 attempts, 200 ms backoff --");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "drop", "ok/40", "retries", "failures"
    );
    for drop in [0.0, 0.01, 0.05, 0.15] {
        let (ok, retries, failures) = sweep_point(seed, drop, 40);
        println!(
            "{:>5.0}% {:>10} {:>10} {:>10}",
            drop * 100.0,
            ok,
            retries,
            failures
        );
    }

    println!();
    println!(
        "-- adversarial scenario: 3 ASes x 4 hosts, 21 min (>1 rotation horizon), chaos profile --"
    );
    // As many flows as hosts (random peers, all arriving at once), each
    // a packet every 30 s tick for the whole 1 260 s; the shut-off lands
    // half way through.
    let cfg = ScaleConfig {
        seed,
        topology: TopologySpec::Chain { ases: 3 },
        hosts_per_as: 4,
        flows: 12,
        duration_secs: 1_260,
        tick_secs: 30,
        refresh_margin_secs: 90,
        sizes: FlowSizes::Fixed(42),
        arrivals: Some(Arrivals::Uniform { gap_us: 1 }),
        packet_gap_us: 30_000_000,
        granularity: Granularity::PerFlow,
        replay_mode: ReplayMode::NonceExtension,
        faults: FaultProfile::lossy(0.05, 0.01)
            .with_duplication(0.1)
            .with_reordering(0.1, 2_000)
            .with_jitter(300),
        shutoffs: 1,
        receiver_rotation_ticks: Some(2),
    };
    let report = ScaleScenario::build(cfg)
        .expect("chaos config is valid")
        .run();
    print!("{}", report.digest());
    assert_eq!(report.unaccountable, 0);
    assert_eq!(report.linkability_violations, 0);
    assert_eq!(report.shutoff_violations, 0);
    assert_eq!(report.expired_egress, 0);
    assert!(report.refreshes > 0, "no sender EphID rotated");
    assert!(
        report.receiver_rotations > 0,
        "no receiver identity rotated"
    );
    println!();
    println!("invariants held: accountability, unlinkability, shutoff stickiness");
}
