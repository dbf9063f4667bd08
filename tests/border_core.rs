//! `BorderCore`, the border daemon's burst logic with the sockets taken
//! out: sharding must not show in its output, and the daemon's stats JSON
//! rendered from it keeps every key path the loopback demo and the
//! benchmark harness read.

use apna::daemon::{ctrl_log_json, DaemonCore};
use apna_bench::BenchWorld;
use apna_core::agent::EphIdUsage;
use apna_core::deploy::BorderCore;
use apna_core::time::Timestamp;
use apna_io::IoCounters;
use apna_wire::{HostAddr, ReplayMode};

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
    frames.push(world.host.build_control_packet(ms, &request));
    (frames, hairpin)
}

/// The daemon's stats JSON for `core` once its shell has received one
/// 128-byte datagram and sent `sent` 64-byte frames back.
fn stats(core: &BorderCore<'_>, sent: usize) -> String {
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
        let node = &world.node;
        let mut core = BorderCore::new(node, node.br.clone(), ReplayMode::Disabled, shards, 0);
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
    let node = &world.node;
    let mut core = BorderCore::new(node, node.br.clone(), ReplayMode::Disabled, 1, 0);
    let out = core.step(NOW, frames);
    let json = stats(&core, out.len());
    let ctrl_log = ctrl_log_json(&node.infra, None, 0, 0);
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
