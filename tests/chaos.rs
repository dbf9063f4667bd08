//! The adversarial scenario suite: active on-path attacks on the control
//! plane (delayed / replayed / bit-flipped `EphIdReply` and `ShutoffAck`
//! frames), loss-tolerant control RPC under chaos fault profiles, and
//! clock-driven sender and receiver rotation on the scenario driver
//! ([`ScaleScenario`] with long per-flow flows on a chain) — all
//! deterministic, all asserting the paper's invariants:
//!
//! * no unaccountable packet is ever delivered,
//! * the wiretap can never link two EphIDs of one host,
//! * a shut-off eventually sticks despite faults,
//! * a dropped control reply is recovered by retry, never surfaced as an
//!   unrecoverable error,
//! * adversarial timing/content never produces a wrong pool state — only
//!   typed errors or retries.

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::DropReason;
use apna_core::control::ControlKind;
use apna_core::granularity::Granularity;
use apna_core::Error;
use apna_simnet::adversary::{AdversaryAction, FrameKind, TargetedAdversary};
use apna_simnet::link::FaultProfile;
use apna_simnet::{
    Arrivals, FlowSizes, Network, PacketFate, RetryPolicies, RetryPolicy, ScaleConfig, ScaleReport,
    ScaleScenario, SimTime, TopologySpec, Workload,
};
use apna_wire::{Aid, ReplayMode};

const SEEDS: [u64; 5] = [1, 7, 42, 1337, 0xC0FFEE];

fn two_as_net(replay: ReplayMode) -> Network {
    let mut net = Network::new(replay);
    net.add_as(Aid(1), [1; 32]);
    net.add_as(Aid(2), [2; 32]);
    net.connect(
        Aid(1),
        Aid(2),
        1_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    net
}

// ---------------------------------------------------------------------
// Attacks on EphID issuance (Fig. 3) — the reply travels the AS-internal
// segment, where the active adversary now sits.
// ---------------------------------------------------------------------

#[test]
fn dropped_ephid_reply_recovered_by_retry() {
    for seed in SEEDS {
        let mut net = two_as_net(ReplayMode::Disabled);
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            net.now().as_protocol_time(),
            seed,
        )
        .unwrap();
        net.set_adversary(TargetedAdversary::new(
            FrameKind::Control(ControlKind::EphIdReply),
            AdversaryAction::Drop,
            1,
        ));
        // Before retries existed, a dropped EphIdReply was unrecoverable.
        let now = net.now().as_protocol_time();
        let idx = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
        assert_eq!(alice.ephid_count(), 1, "seed {seed}");
        alice
            .owned_ephid(idx)
            .cert
            .verify(
                &net.node(Aid(1)).infra.keys.verifying_key(),
                net.now().as_protocol_time(),
            )
            .unwrap();
        assert_eq!(
            net.stats.control_retries.count(ControlKind::EphIdRequest),
            1,
            "exactly one resend, seed {seed}"
        );
        assert_eq!(net.stats.adversary.dropped, 1);
        assert_eq!(net.stats.control_rpc_failures, 0);
    }
}

#[test]
fn dropped_ephid_request_also_recovered() {
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        3,
    )
    .unwrap();
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::EphIdRequest),
        AdversaryAction::Drop,
        2,
    ));
    let now = net.now().as_protocol_time();
    alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    assert_eq!(alice.ephid_count(), 1);
    assert_eq!(
        net.stats.control_retries.count(ControlKind::EphIdRequest),
        2
    );
}

#[test]
fn adversary_outlasting_retry_budget_is_a_typed_timeout() {
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        4,
    )
    .unwrap();
    // The adversary drops every issuance reply, forever.
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::EphIdReply),
        AdversaryAction::Drop,
        u32::MAX,
    ));
    let now = net.now().as_protocol_time();
    let err = alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap_err();
    assert_eq!(err, Error::ControlTimeout { attempts: 4 });
    assert_eq!(alice.ephid_count(), 0, "no half-applied pool state");
    assert_eq!(net.stats.control_rpc_failures, 1);
    // The adversary relents; the next attempt succeeds cleanly.
    net.clear_adversary();
    let now = net.now().as_protocol_time();
    alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    assert_eq!(alice.ephid_count(), 1);
}

#[test]
fn delayed_ephid_reply_succeeds_without_retry() {
    for seed in SEEDS {
        let mut net = two_as_net(ReplayMode::Disabled);
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            net.now().as_protocol_time(),
            seed,
        )
        .unwrap();
        net.set_adversary(TargetedAdversary::new(
            FrameKind::Control(ControlKind::EphIdReply),
            AdversaryAction::Delay {
                extra_us: 2_000_000,
            },
            1,
        ));
        let now = net.now().as_protocol_time();
        alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
        assert_eq!(alice.ephid_count(), 1);
        // Delay is absorbed by simulated time, not by resending.
        assert_eq!(net.stats.control_retries.total(), 0, "seed {seed}");
        assert!(net.now().micros() >= 2_000_000, "the delay really elapsed");
        assert_eq!(net.stats.adversary.delayed, 1);
    }
}

#[test]
fn replayed_ephid_reply_never_corrupts_the_pool() {
    for mode in [ReplayMode::Disabled, ReplayMode::NonceExtension] {
        let mut net = two_as_net(mode);
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            mode,
            net.now().as_protocol_time(),
            9,
        )
        .unwrap();
        net.set_adversary(TargetedAdversary::new(
            FrameKind::Control(ControlKind::EphIdReply),
            AdversaryAction::Replay {
                copies: 2,
                gap_us: 50,
            },
            u32::MAX,
        ));
        let now = net.now().as_protocol_time();
        let i1 = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let now = net.now().as_protocol_time();
        let i2 = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
        assert_eq!(alice.ephid_count(), 2, "mode {mode:?}");
        assert_ne!(
            alice.owned_ephid(i1).ephid(),
            alice.owned_ephid(i2).ephid(),
            "replayed replies must not be accepted as fresh issuances"
        );
        assert!(net.stats.adversary.replayed >= 2);
        // The pool policy still maps flows one-to-one.
        let now = net.now().as_protocol_time();
        let j1 = alice.ephid_for(&mut net, 100, 0, now).unwrap();
        let now = net.now().as_protocol_time();
        let j2 = alice.ephid_for(&mut net, 100, 0, now).unwrap();
        assert_eq!(j1, j2);
    }
}

#[test]
fn bit_flipped_ephid_reply_is_typed_error_then_clean_retry() {
    // Flip a bit inside the sealed certificate body: the envelope still
    // parses, the AEAD refuses, the caller gets a typed crypto error and
    // an intact (empty) pool; a clean retry succeeds.
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        11,
    )
    .unwrap();
    // Bit 8 bytes into the control frame body (past the 48-byte packet
    // header and the 10-byte envelope header): inside EphIdReply.sealed.
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::EphIdReply),
        AdversaryAction::TamperBit {
            bit: (48 + 10 + 20) * 8,
        },
        1,
    ));
    let now = net.now().as_protocol_time();
    let err = alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Crypto(_) | Error::Management(_) | Error::Wire(_)
        ),
        "typed error, got {err:?}"
    );
    assert_eq!(alice.ephid_count(), 0, "no wrong pool state");
    assert_eq!(net.stats.adversary.tampered, 1);
    // Budget spent: the next acquisition is untouched and succeeds.
    let now = net.now().as_protocol_time();
    alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    assert_eq!(alice.ephid_count(), 1);
}

#[test]
fn truncating_rewrite_of_reply_is_recovered_by_retry() {
    // The adversary replaces the reply with garbage: the destination BR
    // refuses it (malformed), no reply arrives, the retry wins.
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        13,
    )
    .unwrap();
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::EphIdReply),
        AdversaryAction::Rewrite(vec![0xEE; 7]),
        1,
    ));
    let now = net.now().as_protocol_time();
    alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    assert_eq!(alice.ephid_count(), 1);
    assert_eq!(
        net.stats.control_retries.count(ControlKind::EphIdRequest),
        1
    );
    assert_eq!(net.stats.adversary.tampered, 1);
}

// ---------------------------------------------------------------------
// Attacks on the shut-off protocol (§IV-E) — cross-AS, on the real link.
// ---------------------------------------------------------------------

/// Sets up sender/victim in different ASes with one unwanted packet
/// delivered as evidence. Returns (net, sender, victim, sender_idx,
/// victim_idx, evidence).
fn shutoff_world(seed: u64) -> (Network, HostAgent, HostAgent, usize, usize, Vec<u8>) {
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut sender = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        seed,
    )
    .unwrap();
    let mut victim = HostAgent::attach(
        net.node(Aid(2)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        seed + 1000,
    )
    .unwrap();
    let now = net.now().as_protocol_time();
    let si = sender
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let now = net.now().as_protocol_time();
    let vi = victim
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let dst = victim.owned_ephid(vi).addr(Aid(2));
    let wire = sender.build_raw_packet(si, dst, b"unwanted flood");
    let id = net.send(Aid(1), wire);
    net.run();
    assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
    let evidence = net.take_delivered().pop().unwrap().bytes;
    (net, sender, victim, si, vi, evidence)
}

#[test]
fn dropped_shutoff_ack_recovered_and_shutoff_sticks() {
    for seed in SEEDS {
        let (mut net, mut sender, mut victim, si, vi, evidence) = shutoff_world(seed);
        net.set_adversary(TargetedAdversary::new(
            FrameKind::Control(ControlKind::ShutoffAck),
            AdversaryAction::Drop,
            1,
        ));
        let now = net.now().as_protocol_time();
        let ack = victim
            .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
            .unwrap();
        assert_eq!(ack.ephid, sender.owned_ephid(si).ephid(), "seed {seed}");
        assert_eq!(
            net.stats.control_retries.count(ControlKind::ShutoffRequest),
            1
        );
        // The resend hit the idempotent re-ack path: one strike, not two.
        let hid = apna_core::ephid::open(
            &net.node(Aid(1)).infra.keys,
            &sender.owned_ephid(si).ephid(),
        )
        .unwrap()
        .hid;
        assert_eq!(net.node(Aid(1)).infra.host_db.revocation_count(hid), 1);
        // And it STICKS: follow-up traffic from that EphID dies at the
        // sender's own border, every time.
        for _ in 0..3 {
            let wire = sender.build_raw_packet(si, victim.owned_ephid(vi).addr(Aid(2)), b"again");
            let id = net.send(Aid(1), wire);
            net.run();
            assert_eq!(
                net.fate(id),
                Some(&PacketFate::EgressDropped(DropReason::Revoked))
            );
        }
    }
}

#[test]
fn delayed_and_replayed_shutoff_ack_converge() {
    let (mut net, sender, mut victim, si, vi, evidence) = shutoff_world(99);
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::ShutoffAck),
        AdversaryAction::Replay {
            copies: 3,
            gap_us: 200,
        },
        u32::MAX,
    ));
    let now = net.now().as_protocol_time();
    let ack = victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap();
    assert_eq!(ack.ephid, sender.owned_ephid(si).ephid());
    assert!(net.node(Aid(1)).infra.revoked.contains(&ack.ephid));
    // The extra ack copies sit in the inbox; the next RPC from the victim
    // purges them as stale rather than mistaking one for its reply.
    let before = victim.ephid_count();
    let now = net.now().as_protocol_time();
    victim
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    assert_eq!(victim.ephid_count(), before + 1);
    // Replays never double-counted the strike.
    let hid = apna_core::ephid::open(
        &net.node(Aid(1)).infra.keys,
        &sender.owned_ephid(si).ephid(),
    )
    .unwrap()
    .hid;
    assert_eq!(net.node(Aid(1)).infra.host_db.revocation_count(hid), 1);
}

#[test]
fn bit_flipped_shutoff_ack_is_typed_error_and_revocation_holds() {
    let (mut net, sender, mut victim, si, vi, evidence) = shutoff_world(5);
    // Flip a bit in the ack's trailing flag byte: the parse rejects the
    // frame as malformed rather than handing the caller a wrong ack.
    let ack_frame_len = 48 + 10 + 16 + 4 + 1; // header ‖ envelope ‖ ack body
    net.set_adversary(TargetedAdversary::new(
        FrameKind::Control(ControlKind::ShutoffAck),
        AdversaryAction::TamperBit {
            bit: (ack_frame_len - 1) * 8 + 1,
        },
        u32::MAX,
    ));
    let now = net.now().as_protocol_time();
    let err = victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap_err();
    assert!(
        matches!(err, Error::Wire(_) | Error::ControlTimeout { .. }),
        "typed error, got {err:?}"
    );
    // The revocation itself landed at the source AS on the first attempt —
    // the shut-off stuck even though the victim never saw a clean ack.
    assert!(net
        .node(Aid(1))
        .infra
        .revoked
        .contains(&sender.owned_ephid(si).ephid()));
    // Once the adversary is gone the victim's retry converges.
    net.clear_adversary();
    let now = net.now().as_protocol_time();
    let ack = victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap();
    assert_eq!(ack.ephid, sender.owned_ephid(si).ephid());
}

// ---------------------------------------------------------------------
// Loss-tolerant control RPC under pure fault chaos (no adversary).
// ---------------------------------------------------------------------

#[test]
fn control_plane_survives_chaotic_links() {
    // Drop + duplicate + reorder + jitter on the inter-AS link, nonce
    // extension on: twenty DNS registrations + shut-offs' worth of control
    // traffic all converge, with retries doing the recovery.
    for seed in SEEDS {
        let mut net = Network::new(ReplayMode::NonceExtension);
        net.link_seed_salt = seed;
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(2), [2; 32]);
        let chaos = FaultProfile::lossy(0.10, 0.0)
            .with_duplication(0.15)
            .with_reordering(0.2, 3_000)
            .with_jitter(500);
        net.connect(Aid(1), Aid(2), 1_000, 10_000_000_000, chaos);
        net.retry_policy = RetryPolicies::uniform(RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 100_000,
            max_backoff_us: 1_600_000,
            deadline_us: 60_000_000,
        });
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::NonceExtension,
            net.now().as_protocol_time(),
            seed,
        )
        .unwrap();
        let mut bob = HostAgent::attach(
            net.node(Aid(2)),
            Granularity::PerFlow,
            ReplayMode::NonceExtension,
            net.now().as_protocol_time(),
            seed + 7,
        )
        .unwrap();
        // Issuance is intra-AS (clean here); the cross-AS chaos hits the
        // shut-off exchange.
        let now = net.now().as_protocol_time();
        let si = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let now = net.now().as_protocol_time();
        let bi = bob.acquire(&mut net, EphIdUsage::DATA_SHORT, now).unwrap();
        let dst = bob.owned_ephid(bi).addr(Aid(2));
        // Keep sending until one crosses the chaotic link.
        let evidence = loop {
            let wire = alice.build_raw_packet(si, dst, b"spam");
            let id = net.send(Aid(1), wire);
            net.run();
            if matches!(net.fate(id), Some(PacketFate::Delivered { .. })) {
                let delivered = net.take_delivered();
                if let Some(p) = delivered.into_iter().find(|p| p.aid == Aid(2)) {
                    break p.bytes;
                }
            }
        };
        let now = net.now().as_protocol_time();
        let ack = bob
            .request_shutoff(&mut net, Aid(1), &evidence, bi, now)
            .unwrap();
        assert!(
            net.node(Aid(1)).infra.revoked.contains(&ack.ephid),
            "seed {seed}: shut-off eventually sticks despite chaos"
        );
    }
}

// ---------------------------------------------------------------------
// The chaos profile on the scenario driver: a chain of ASes, per-flow
// EphIDs, and as many long flows as hosts, packets one tick apart.
// ---------------------------------------------------------------------

/// `hosts_per_as` hosts on each of three chained ASes and as many flows
/// as hosts (random peers, all arriving in the first microseconds), each
/// flow one packet per `tick_secs` tick for `duration_secs`; receivers
/// rotate every other tick; lossless, no shut-off.
fn chaos_cfg(seed: u64, hosts_per_as: u32, duration_secs: u64, tick_secs: u64) -> ScaleConfig {
    ScaleConfig {
        seed,
        topology: TopologySpec::Chain { ases: 3 },
        hosts_per_as,
        flows: 3 * u64::from(hosts_per_as),
        duration_secs,
        tick_secs,
        refresh_margin_secs: 90,
        sizes: FlowSizes::Fixed((duration_secs / tick_secs) as u32),
        arrivals: Some(Arrivals::Uniform { gap_us: 1 }),
        packet_gap_us: tick_secs * 1_000_000,
        granularity: Granularity::PerFlow,
        replay_mode: ReplayMode::Disabled,
        faults: FaultProfile::lossless(),
        shutoffs: 0,
        receiver_rotation_ticks: Some(2),
    }
}

fn run(cfg: ScaleConfig) -> ScaleReport {
    ScaleScenario::build(cfg).unwrap().run()
}

// ---------------------------------------------------------------------
// Rotation at scale: ≥100 hosts, ≥3 rotation horizons.
// ---------------------------------------------------------------------

/// 3 ASes × 34 hosts = 102 hosts and 102 flows; 2820 s ≥ 3 × 900 s EphID
/// horizons, one packet a minute.
fn rotation_at_scale_cfg() -> ScaleConfig {
    ScaleConfig {
        refresh_margin_secs: 120,
        ..chaos_cfg(1, 34, 2_820, 60)
    }
}

#[test]
fn rotation_at_scale_under_loss() {
    // 1% drop on every inter-AS link. Rotation must never cost a
    // packet's EphID, and the invariants must hold to the last packet.
    let report = run(ScaleConfig {
        faults: FaultProfile::lossy(0.01, 0.0),
        ..rotation_at_scale_cfg()
    });
    assert_eq!(report.unaccountable, 0, "accountability");
    assert_eq!(report.linkability_violations, 0, "unlinkability");
    assert_eq!(report.shutoff_violations, 0);
    assert_eq!(report.misrouted, 0);
    assert_eq!(report.expired_egress, 0, "rotation beat every expiry");
    assert_eq!(report.issuance_failures, 0, "{report:#?}");
    // Every flow rotated its EphID at least twice (3 horizons).
    assert!(
        report.refreshes >= 2 * 102,
        "rotations happened at scale: {}",
        report.refreshes
    );
    // 102 flows × 47 packets (2820 s / 60 s), minus ~1% link loss — the
    // vast majority lands.
    assert_eq!(report.packets_sent, 102 * 47);
    assert!(
        report.packets_delivered as f64 >= report.packets_sent as f64 * 0.95,
        "delivered {}/{}",
        report.packets_delivered,
        report.packets_sent
    );
    // Rotation means the wiretap saw ≥ 3 distinct EphIDs per sender it
    // can see — every flow whose peers sit in different ASes — all
    // unlinkable (asserted via linkability_violations above).
    let cross = cross_as_flows(&rotation_at_scale_cfg());
    assert!(cross > 0);
    assert!(
        report.distinct_wire_ephids >= 3 * cross,
        "{} wire EphIDs, {cross} cross-AS flows",
        report.distinct_wire_ephids
    );
}

/// Flows of `cfg` whose sender and receiver sit in different ASes: the
/// ones whose EphIDs cross the inter-AS links the wire tally watches.
/// Redrawn from the workload generator with the driver's seed and sizes.
fn cross_as_flows(cfg: &ScaleConfig) -> u64 {
    let hosts = 3 * cfg.hosts_per_as;
    let arrivals = cfg.arrivals.expect("chaos configs fix their arrivals");
    let mut w = Workload::new(cfg.seed, hosts, cfg.sizes, arrivals, SimTime::ZERO);
    (0..cfg.flows)
        .map(|_| w.next_flow())
        .filter(|f| f.src / cfg.hosts_per_as != f.dst / cfg.hosts_per_as)
        .count() as u64
}

#[test]
fn rotation_at_scale_lossless_delivers_every_packet() {
    // The same run without loss: every packet of every flow arrives,
    // across three sender-EphID horizons and a receiver rotation every
    // other minute — continuity checked packet by packet.
    let report = run(rotation_at_scale_cfg());
    assert!(report.invariants_hold(), "{report:#?}");
    assert_eq!(report.incomplete_flows, 0, "no flow interruptions");
    assert_eq!(report.packets_sent, 102 * 47);
    assert_eq!(report.packets_delivered, report.packets_sent);
    assert_eq!(report.issuance_failures, 0);
    assert!(report.refreshes >= 2 * 102, "{}", report.refreshes);
    assert!(report.receiver_rotations > 0);
}

#[test]
fn scenario_shutoff_sticks_under_faults() {
    for seed in [2u64, 3, 4] {
        let report = run(ScaleConfig {
            faults: FaultProfile::lossy(0.05, 0.0).with_duplication(0.05),
            shutoffs: 1,
            ..chaos_cfg(seed, 4, 600, 30)
        });
        assert_eq!(report.strikes_acked, 1, "seed {seed}: {report:#?}");
        assert_eq!(report.shutoff_violations, 0, "seed {seed}: shutoff sticks");
        assert_eq!(report.unaccountable, 0);
        assert_eq!(report.linkability_violations, 0);
        assert_eq!(report.issuance_failures, 0, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed ⇒ byte-identical report digest.
// ---------------------------------------------------------------------

#[test]
fn chaos_scenario_is_deterministic_across_seeds() {
    for seed in SEEDS {
        let cfg = ScaleConfig {
            faults: FaultProfile::lossy(0.08, 0.02)
                .with_duplication(0.1)
                .with_reordering(0.1, 2_000)
                .with_jitter(300),
            replay_mode: ReplayMode::NonceExtension,
            ..chaos_cfg(seed, 3, 300, 30)
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.digest(), b.digest(), "seed {seed}: report differs");
        // And the invariants held under full chaos.
        assert_eq!(a.unaccountable, 0, "seed {seed}");
        assert_eq!(a.linkability_violations, 0, "seed {seed}");
        assert_eq!(a.issuance_failures, 0, "seed {seed}");
    }
}

#[test]
fn different_seeds_change_the_weather() {
    let report = |seed: u64| {
        let r = run(ScaleConfig {
            faults: FaultProfile::lossy(0.10, 0.0),
            ..chaos_cfg(seed, 4, 240, 30)
        });
        assert_eq!(r.issuance_failures, 0, "seed {seed}");
        r
    };
    assert_ne!(report(10).digest(), report(11).digest());
}

// ---------------------------------------------------------------------
// Receiver-identity rotation: the §VII-A lifecycle under chaos.
// ---------------------------------------------------------------------

#[test]
fn receivers_rotate_identities_over_the_wire_under_chaos() {
    // Every host re-publishes its DNS name with a fresh receive EphID
    // every other tick, over lossy + duplicating links. Flows must follow
    // the rotations (senders address the zone's current answer), and all
    // invariants must hold.
    for seed in [5u64, 6] {
        let report = run(ScaleConfig {
            faults: FaultProfile::lossy(0.05, 0.0).with_duplication(0.05),
            ..chaos_cfg(seed, 3, 300, 30)
        });
        // A host materializes in the run's first second and ticks every
        // 30 s up to the 330 s tick horizon: ticks 1..=10, rotating at
        // ticks 2, 4, 6, 8 and 10.
        assert!(report.materialized_hosts > 0 && report.materialized_hosts <= 9);
        assert_eq!(
            report.receiver_rotations,
            5 * report.materialized_hosts,
            "seed {seed}"
        );
        assert_eq!(report.unaccountable, 0, "seed {seed}");
        assert_eq!(report.linkability_violations, 0, "seed {seed}");
        assert_eq!(report.misrouted, 0, "seed {seed}: flows follow rotation");
        assert_eq!(report.shutoff_violations, 0, "seed {seed}");
        assert_eq!(report.issuance_failures, 0, "seed {seed}");
        // 9 flows × 10 packets (300 s / 30 s).
        assert_eq!(report.packets_sent, 9 * 10, "seed {seed}");
        assert!(
            report.packets_delivered >= report.packets_sent * 8 / 10,
            "seed {seed}: retry-less data plane loses at most the link rate"
        );
    }
}

#[test]
fn rotation_off_keeps_single_receiver_identity() {
    let report = run(ScaleConfig {
        receiver_rotation_ticks: None,
        ..chaos_cfg(1, 4, 120, 30)
    });
    assert_eq!(report.receiver_rotations, 0);
    assert_eq!(report.unaccountable, 0);
    assert_eq!(report.issuance_failures, 0);
    assert_eq!(report.packets_delivered, report.packets_sent);
}

#[test]
fn shutoff_with_stale_evidence_survives_receiver_rotation() {
    // Packets leave every 45 s (0, 45, 90, 135, …) while receivers
    // rotate at 60 s and 120 s, and the shut-off fires at 125 s (half of
    // 250 s): the latest evidence, sent at 90 s, is addressed to the
    // receiver's *previous* identity. The victim must sign with the
    // identity the attack actually targeted (§IV-E), not its newest one
    // — and the revocation must stick for the sends at 135 s and later.
    let report = run(ScaleConfig {
        shutoffs: 1,
        packet_gap_us: 45_000_000,
        sizes: FlowSizes::Fixed(6),
        ..chaos_cfg(9, 4, 250, 30)
    });
    assert_eq!(
        report.strikes_acked, 1,
        "shut-off went through: {report:#?}"
    );
    assert!(report.revoked_egress > 0, "the revoked sender kept sending");
    assert_eq!(report.shutoff_violations, 0, "revocation sticks");
    assert_eq!(report.unaccountable, 0);
    assert_eq!(report.issuance_failures, 0);
    assert!(report.receiver_rotations > 0);
}
