//! `BorderCore`, the border daemon's burst logic with the sockets taken
//! out: sharding must not show in its output, the simulator's ASes (which
//! run the same core) decide a burst as the daemon does, and the daemon's
//! stats JSON rendered from it keeps every key path the loopback demo and
//! the benchmark harness read.

use apna::daemon::{ctrl_log_json, DaemonCore};
use apna_bench::BenchWorld;
use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::DropReason;
use apna_core::control::ControlKind;
use apna_core::deploy::BorderCore;
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::time::Timestamp;
use apna_core::AsNode;
use apna_io::IoCounters;
use apna_simnet::{Network, SimTime};
use apna_wire::{Aid, EphIdBytes, HostAddr, ReplayMode};

const NOW: Timestamp = Timestamp(1);

/// A burst mixing every outcome, built by `world`'s host: ten packets
/// forwardable to AS 2, one malformed, one empty, one with a bad packet
/// MAC, one with a forged source EphID, one same-AS packet that hairpins
/// back out, and one EphID request that the MS answers. Returns the burst
/// and the hairpin packet.
fn mixed_burst(world: &mut BenchWorld) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut frames = world.burst_of(13, 128);
    frames[2] = vec![0xEE; 7]; // shorter than a header
    frames[5][100] ^= 1; // payload bit: packet MAC fails
    frames[9][10] ^= 1; // source EphID bit: EphID MAC fails
    frames.insert(7, Vec::new());
    let own = world
        .host
        .owned_ephid(world.ephid_idx)
        .addr(world.node.aid());
    let hairpin = world
        .host
        .build_raw_packet(world.ephid_idx, own, b"same-AS payload");
    frames.insert(3, hairpin.clone());
    let ms = HostAddr::new(world.node.aid(), world.host.ms_cert.ephid);
    let (_pending, request) = world.host.begin_acquire(EphIdUsage::DATA_SHORT);
    frames.push(world.host.build_ctrl_packet(ms, &request.serialize()));
    (frames, hairpin)
}

/// The daemon's stats JSON for `core` once its shell has received one
/// 128-byte datagram and sent `sent` 64-byte frames back.
fn stats(core: &BorderCore, sent: usize) -> String {
    let mut io = IoCounters::default();
    io.record_rx(128);
    for _ in 0..sent {
        io.record_tx(64);
    }
    let ctrl_log = ctrl_log_json(&core.node.infra, None, 0, 0);
    core.stats_json(7, &[io], ctrl_log)
}

/// Sharding must be invisible in the result: the same frames back out in
/// the same order and the same counters from 1 and 4 shards, over a burst
/// mixing forwardable, malformed, forged, tampered, hairpin and control
/// frames. Each run gets its own (identically seeded) world, because the
/// issuance changes AS state.
#[test]
fn one_and_four_shards_agree_on_a_mixed_burst() {
    let run = |shards| {
        let mut world = BenchWorld::new();
        let (frames, hairpin) = mixed_burst(&mut world);
        let router = world.node.br.clone();
        let mut core = BorderCore::new(world.node, router, ReplayMode::Disabled, shards, 0);
        let out = core.step(NOW, frames);
        let json = stats(&core, out.len());
        (
            out,
            json,
            hairpin,
            core.forwarded_foreign,
            core.drops.total(),
        )
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.0, four.0);
    assert_eq!(one.1, four.1);
    let (out, _, hairpin, forwarded_foreign, drops) = one;
    assert_eq!(out.len(), 2, "the hairpin packet and the issuance reply");
    assert_eq!(out[0], hairpin);
    assert_eq!(forwarded_foreign, 10);
    assert_eq!(drops, 4);
}

/// `apna-border`'s stats JSON: top-level keys in order, and the `drops` and
/// `control` objects, after a mixed burst. The harness reads `bursts`,
/// `io.*`, `drops.total` and `control.rejected`; `tests/ctrl_restart.rs`
/// pins the `ctrl_log` object.
#[test]
fn border_stats_json_keeps_its_keys_and_order() {
    let mut world = BenchWorld::new();
    let (frames, _) = mixed_burst(&mut world);
    let router = world.node.br.clone();
    let mut core = BorderCore::new(world.node, router, ReplayMode::Disabled, 1, 0);
    let out = core.step(NOW, frames);
    let json = stats(&core, out.len());
    let ctrl_log = ctrl_log_json(&core.node.infra, None, 0, 0);
    assert_eq!(
        json,
        format!(
            "{{\"daemon\": \"apna-border\", \"aid\": 1, \"uptime_secs\": 7, \"bursts\": 2, \
             \"egress_passed\": 3, \"delivered\": 2, \"forwarded_foreign\": 10, \
             \"replay_filter_entries\": 0, \
             \"io\": {{\"rx_frames\": 1, \"rx_bytes\": 128, \"rx_rejected\": 0, \
             \"tx_frames\": 2, \"tx_bytes\": 128, \"tx_rejected\": 0}}, \
             \"drops\": {{\"total\": 4, \"malformed\": 2, \"bad_ephid\": 1, \"bad_packet_mac\": 1}}, \
             \"control\": {{\"total\": 2, \"rejected\": 0, \"ephid-request\": 1, \"ephid-reply\": 1}}, \
             \"ctrl_log\": {ctrl_log}}}"
        )
    );
}

/// A mixed burst from one host to another in the same AS, built on `node`
/// from fixed seeds (so two nodes from one seed give the same bytes):
/// data from a live EphID, from an expired one and from a revoked one, one
/// with a bad packet MAC, one with a forged source EphID, one to an EphID
/// the AS never issued, more live data, and two EphID requests to the MS.
fn decision_burst(node: &AsNode) -> Vec<Vec<u8>> {
    let t0 = Timestamp::EPOCH;
    let attach = |seed| {
        HostAgent::attach(node, Granularity::PerFlow, ReplayMode::Disabled, t0, seed).unwrap()
    };
    let (mut alice, mut bob) = (attach(1), attach(2));
    let stale = alice.acquire(node, EphIdUsage::DATA_SHORT, t0).unwrap();
    let live = alice.acquire(node, EphIdUsage::DATA_LONG, t0).unwrap();
    let revoked = alice.acquire(node, EphIdUsage::DATA_LONG, t0).unwrap();
    let cert = &alice.owned_ephid(revoked).cert;
    node.infra.revoked.insert(cert.ephid, cert.exp_time);
    let to = bob.acquire(node, EphIdUsage::DATA_LONG, t0).unwrap();
    let bob = bob.owned_ephid(to).addr(node.aid());
    let nobody = HostAddr::new(node.aid(), EphIdBytes([0x5a; 16]));
    let mut frames = vec![
        alice.build_raw_packet(live, bob, b"first"),
        alice.build_raw_packet(stale, bob, b"expired"),
        alice.build_raw_packet(revoked, bob, b"revoked"),
        alice.build_raw_packet(live, bob, b"bad packet mac"),
        alice.build_raw_packet(live, bob, b"forged ephid"),
        alice.build_raw_packet(live, nobody, b"no such host"),
        alice.build_raw_packet(live, bob, b"second"),
    ];
    *frames[3].last_mut().unwrap() ^= 1; // payload bit: packet MAC fails
    frames[4][10] ^= 1; // source EphID bit: EphID MAC fails
    let ms = HostAddr::new(node.aid(), alice.ms_cert.ephid);
    for usage in [EphIdUsage::DATA_SHORT, EphIdUsage::RECEIVE_ONLY] {
        let (_pending, request) = alice.begin_acquire(usage);
        frames.push(alice.build_ctrl_packet(ms, &request.serialize()));
    }
    frames
}

/// The simulator and the daemon run one border core, so a burst must meet
/// the same fate in both: `BorderCore::step` against a one-AS `Network`
/// (`send_batch` + `run`), which carries the same-AS hop and the service
/// replies through its event queue instead.
#[test]
fn simulator_and_daemon_decide_alike() {
    let now = Timestamp(16 * 60); // the DATA_SHORT EphID expired at 15 min
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(1), [1; 32]);
    let node = AsNode::from_seed(Aid(1), [1; 32], &AsDirectory::new(), Timestamp::EPOCH);
    let burst = decision_burst(net.node(Aid(1)));
    assert_eq!(burst, decision_burst(&node), "one seed, one burst");

    let router = node.br.clone();
    let mut core = BorderCore::new(node, router, ReplayMode::Disabled, 1, 0);
    let out = core.step(now, burst.clone());

    net.advance_to(SimTime::from_micros(u64::from(now.0) * 1_000_000));
    net.send_batch(Aid(1), burst);
    net.run();
    let delivered: Vec<Vec<u8>> = net.take_delivered().into_iter().map(|d| d.bytes).collect();
    assert_eq!(delivered, out, "host deliveries, in order");
    assert_eq!(out.len(), 4, "two data packets and two issuance replies");

    let mut drops = net.stats.egress_drop_reasons;
    drops.merge(&net.stats.ingress_drop_reasons);
    assert_eq!(drops, core.drops);
    assert_eq!(
        core.drops.iter_nonzero().collect::<Vec<_>>(),
        [
            (DropReason::BadEphId, 2),
            (DropReason::Expired, 1),
            (DropReason::Revoked, 1),
            (DropReason::BadPacketMac, 1),
        ]
    );
    let mut control = net.stats.control_delivered;
    control.merge(&net.stats.control_replies);
    assert_eq!(control, core.control);
    assert_eq!(
        core.control.iter_nonzero().collect::<Vec<_>>(),
        [(ControlKind::EphIdRequest, 2), (ControlKind::EphIdReply, 2)]
    );
    assert_eq!((net.stats.control_rejected, core.control_rejected), (0, 0));
}
