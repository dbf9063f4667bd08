//! The adversarial scenario suite: active on-path attacks on the control
//! plane (delayed / replayed / bit-flipped `EphIdReply` and `ShutoffAck`
//! frames), loss-tolerant control RPC under chaos fault profiles, and
//! clock-driven EphID rotation at scale — all deterministic, all asserting
//! the paper's invariants:
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
use apna_simnet::scenario::{Scenario, ScenarioConfig};
use apna_simnet::{Network, PacketFate, RetryPolicies, RetryPolicy};
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
// Rotation at scale: ≥100 hosts, ≥3 rotation horizons, lossy links.
// ---------------------------------------------------------------------

#[test]
fn rotation_at_scale_under_loss() {
    // 3 ASes × 34 hosts = 102 hosts; 2820 s ≥ 3 × 900 s EphID horizons;
    // 1% drop on every inter-AS link. Flows must never be interrupted by
    // rotation, and the invariants must hold to the last packet.
    let cfg = ScenarioConfig {
        seed: 1,
        num_ases: 3,
        hosts_per_as: 34,
        flows_per_host: 1,
        duration_secs: 2_820,
        tick_secs: 60,
        refresh_margin_secs: 120,
        faults: FaultProfile::lossy(0.01, 0.0),
        replay_mode: ReplayMode::Disabled,
        retry_policy: RetryPolicies::uniform(RetryPolicy {
            max_attempts: 6,
            base_backoff_us: 200_000,
            max_backoff_us: 1_600_000,
            deadline_us: 30_000_000,
        }),
        shutoff_at_tick: None,
        receiver_rotation_ticks: Some(2),
    };
    let report = Scenario::build(cfg).unwrap().run().unwrap();
    assert_eq!(report.unaccountable_deliveries, 0, "accountability");
    assert_eq!(report.linkability_violations, 0, "unlinkability");
    assert_eq!(report.interrupted_flows, 0, "no flow interruptions");
    assert_eq!(report.shutoff_violations, 0);
    assert_eq!(report.expired_egress, 0, "rotation beat every expiry");
    // Every host rotated its flow EphID at least twice (3 horizons).
    assert!(
        report.refreshes >= 2 * 102,
        "rotations happened at scale: {}",
        report.refreshes
    );
    // 102 flows × 47 ticks, minus ~1% link loss — the vast majority lands.
    assert!(report.data_sent >= 102 * 47);
    assert!(
        report.data_delivered as f64 >= report.data_sent as f64 * 0.95,
        "delivered {}/{}",
        report.data_delivered,
        report.data_sent
    );
    // Rotation means the wiretap saw ≥ 3 distinct EphIDs per sender, all
    // unlinkable (asserted via linkability_violations above).
    assert!(report.wire_ephids >= 3 * 102, "{}", report.wire_ephids);
}

#[test]
fn scenario_shutoff_sticks_under_faults() {
    for seed in [2u64, 3, 4] {
        let cfg = ScenarioConfig {
            seed,
            num_ases: 3,
            hosts_per_as: 4,
            flows_per_host: 1,
            duration_secs: 600,
            tick_secs: 30,
            refresh_margin_secs: 90,
            faults: FaultProfile::lossy(0.05, 0.0).with_duplication(0.05),
            replay_mode: ReplayMode::Disabled,
            retry_policy: RetryPolicies::uniform(RetryPolicy {
                max_attempts: 8,
                base_backoff_us: 100_000,
                max_backoff_us: 1_600_000,
                deadline_us: 60_000_000,
            }),
            shutoff_at_tick: Some(3),
            receiver_rotation_ticks: Some(2),
        };
        let report = Scenario::build(cfg).unwrap().run().unwrap();
        assert!(report.shutoff_ephid.is_some(), "seed {seed}");
        assert_eq!(report.shutoff_violations, 0, "seed {seed}: shutoff sticks");
        assert_eq!(report.unaccountable_deliveries, 0);
        assert_eq!(report.linkability_violations, 0);
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed ⇒ byte-identical event log and NetStats.
// ---------------------------------------------------------------------

#[test]
fn chaos_scenario_is_deterministic_across_seeds() {
    for seed in SEEDS {
        let cfg = ScenarioConfig {
            seed,
            num_ases: 3,
            hosts_per_as: 3,
            flows_per_host: 1,
            duration_secs: 300,
            tick_secs: 30,
            refresh_margin_secs: 90,
            faults: FaultProfile::lossy(0.08, 0.02)
                .with_duplication(0.1)
                .with_reordering(0.1, 2_000)
                .with_jitter(300),
            replay_mode: ReplayMode::NonceExtension,
            retry_policy: RetryPolicies::uniform(RetryPolicy {
                max_attempts: 8,
                base_backoff_us: 100_000,
                max_backoff_us: 1_600_000,
                deadline_us: 60_000_000,
            }),
            shutoff_at_tick: None,
            receiver_rotation_ticks: Some(2),
        };
        let a = Scenario::build(cfg.clone()).unwrap().run().unwrap();
        let b = Scenario::build(cfg).unwrap().run().unwrap();
        assert_eq!(a.event_log, b.event_log, "seed {seed}: event log differs");
        assert_eq!(a.stats_debug, b.stats_debug, "seed {seed}: stats differ");
        // And the invariants held under full chaos.
        assert_eq!(a.unaccountable_deliveries, 0, "seed {seed}");
        assert_eq!(a.linkability_violations, 0, "seed {seed}");
    }
}

#[test]
fn different_seeds_change_the_weather() {
    let report = |seed: u64| {
        Scenario::build(ScenarioConfig {
            seed,
            faults: FaultProfile::lossy(0.10, 0.0),
            duration_secs: 240,
            tick_secs: 30,
            ..ScenarioConfig::default()
        })
        .unwrap()
        .run()
        .unwrap()
    };
    assert_ne!(report(10).stats_debug, report(11).stats_debug);
}

// ---------------------------------------------------------------------
// Receiver-identity rotation: the §VII-A lifecycle under chaos.
// ---------------------------------------------------------------------

#[test]
fn receivers_rotate_identities_over_the_wire_under_chaos() {
    // Every host re-publishes its DNS name with a fresh receive EphID
    // every other tick, over lossy + duplicating links. Flows must follow
    // the rotations (senders resolve the current address from the zone),
    // the wiretap must see several receiver identities per host, and all
    // invariants must hold.
    for seed in [5u64, 6] {
        let cfg = ScenarioConfig {
            seed,
            num_ases: 3,
            hosts_per_as: 3,
            flows_per_host: 1,
            duration_secs: 300,
            tick_secs: 30,
            refresh_margin_secs: 90,
            faults: FaultProfile::lossy(0.05, 0.0).with_duplication(0.05),
            replay_mode: ReplayMode::Disabled,
            retry_policy: RetryPolicies::uniform(RetryPolicy {
                max_attempts: 8,
                base_backoff_us: 100_000,
                max_backoff_us: 1_600_000,
                deadline_us: 60_000_000,
            }),
            shutoff_at_tick: None,
            receiver_rotation_ticks: Some(2),
        };
        let report = Scenario::build(cfg).unwrap().run().unwrap();
        // 10 ticks, rotation at ticks 2,4,6,8 → 4 sweeps × 9 hosts.
        assert_eq!(report.receiver_rotations, 4 * 9, "seed {seed}");
        assert_eq!(report.unaccountable_deliveries, 0, "seed {seed}");
        assert_eq!(report.linkability_violations, 0, "seed {seed}");
        assert_eq!(
            report.interrupted_flows, 0,
            "seed {seed}: flows follow rotation"
        );
        assert_eq!(report.shutoff_violations, 0, "seed {seed}");
        assert_eq!(report.data_sent, 9 * 10, "seed {seed}");
        assert!(
            report.data_delivered >= report.data_sent * 8 / 10,
            "seed {seed}: retry-less data plane loses at most the link rate"
        );
    }
}

#[test]
fn rotation_off_keeps_single_receiver_identity() {
    let cfg = ScenarioConfig {
        receiver_rotation_ticks: None,
        ..ScenarioConfig::default()
    };
    let report = Scenario::build(cfg).unwrap().run().unwrap();
    assert_eq!(report.receiver_rotations, 0);
    assert_eq!(report.unaccountable_deliveries, 0);
    assert_eq!(report.data_delivered, report.data_sent);
}

#[test]
fn shutoff_with_stale_evidence_survives_receiver_rotation() {
    // The shut-off fires right after a rotation sweep, so the evidence
    // packet may be addressed to the receiver's *previous* identity. The
    // victim must sign with the identity the attack actually targeted
    // (§IV-E), not its newest one — and the revocation must stick.
    let cfg = ScenarioConfig {
        seed: 9,
        duration_secs: 300,
        tick_secs: 30,
        refresh_margin_secs: 90,
        shutoff_at_tick: Some(2),
        receiver_rotation_ticks: Some(2),
        ..ScenarioConfig::default()
    };
    let report = Scenario::build(cfg).unwrap().run().unwrap();
    assert!(report.shutoff_ephid.is_some(), "shut-off went through");
    assert_eq!(report.shutoff_violations, 0, "revocation sticks");
    assert_eq!(report.unaccountable_deliveries, 0);
    assert!(report.receiver_rotations > 0);
}
