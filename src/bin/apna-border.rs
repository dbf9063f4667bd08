//! `apna-border` — the APNA border router as a long-lived daemon.
//!
//! Receives UDP-encapsulated APNA frames (Fig. 9 IPv4+GRE framing inside
//! each datagram) from a translator gateway, runs them through the full
//! Fig. 4 egress pipeline, hairpins same-AS survivors through ingress,
//! and returns locally deliverable packets to the gateway. The AS is
//! constructed deterministically from a seed file, so the gateway daemon
//! (same seed, same `host =` bootstrap lines) produces traffic this
//! router validates with no bootstrap protocol between the processes.
//!
//! Usage: `apna-border <config-file>`. Config keys (`key = value`, `#`
//! comments; errors are reported with line numbers):
//!
//! | key             | meaning                                            |
//! |-----------------|----------------------------------------------------|
//! | `aid`           | AS identifier (u32), required                      |
//! | `seed_file`     | path to the 64-hex-digit AS master seed, required  |
//! | `listen`        | UDP address for APNA traffic, required             |
//! | `gateway`       | UDP address of the translator daemon, required     |
//! | `tunnel_local`  | our Fig. 9 tunnel IPv4 (GRE outer dst), required   |
//! | `tunnel_peer`   | gateway's tunnel IPv4 (GRE outer src), required    |
//! | `stats_listen`  | TCP stats/shutdown endpoint, required              |
//! | `host`          | repeatable: mirrored host-bootstrap seeds (u64)    |
//! | `granularity`   | §VIII-A regime (default `per-flow`)                |
//! | `replay_mode`   | `disabled` (default) or `nonce`                    |
//! | `replay_filter` | `on` enables the §VIII-D in-network filter         |
//! | `shards`        | worker shards per burst (default 1, max 64)        |
//! | `burst`         | max frames per burst (default 32, max 1024)        |
//! | `run_secs`      | optional auto-shutdown deadline                    |
//! | `ctrl_log`      | durable control-plane log path (optional)          |
//! | `snapshot_every`| log appends between snapshots (default 1024)       |
//! | `issuance_burst`| per-host issuance token-bucket size (optional)     |
//! | `issuance_per_sec` | per-host issuance refill rate (with burst)      |
//!
//! With `ctrl_log = <path>` the daemon replays `<path>.snap` + `<path>`
//! on start (restoring host registrations, revocations, and the IV
//! watermark — restart ≠ mass re-issuance) and appends every subsequent
//! control-plane mutation; snapshots rewrite the state to `<path>.snap`
//! and truncate the log every `snapshot_every` appends. The log stores
//! raw host-AS key material — protect both files like the seed file.
//!
//! Control-plane packets that survive ingress (frames addressed to the
//! MS/AA/DNS service EphIDs) are dispatched per burst through the node's
//! **batched** control plane — pipelined EphID issuance — and the replies
//! re-enter the pipeline as ordinary accountable traffic.
//!
//! Stats protocol: connect to `stats_listen`, send `stats\n` (JSON
//! snapshot) or `shutdown\n` (final JSON, then the daemon drains its
//! socket and exits 0). The final stats JSON is always printed to stdout
//! on exit, polled or not.

use apna::daemon::{
    arm_control_plane, build_as, ctrl_log_json, json_object, json_string, load_config,
    loop_settings, parse_wire_ipv4, run_main, snapshot_tick, DaemonClock,
};
use apna_core::asnode::AsNode;
use apna_core::border::{BorderRouter, Direction, DropCounters, Verdict};
use apna_core::control::{ControlCounters, ControlMsg, ControlPlane};
use apna_core::ctrl_log::ReplaySummary;
use apna_core::hid::Hid;
use apna_core::host::Host;
use apna_core::time::Timestamp;
use apna_io::stats::{StatsCommand, StatsServer};
use apna_io::udp::{UdpBackend, UdpFraming};
use apna_io::PacketIo;
use apna_wire::{Aid, ApnaHeader, EncapTunnel, HostAddr, PacketBatch, ReplayMode};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Duration;

const ALLOWED_KEYS: [&str; 18] = [
    "aid",
    "seed_file",
    "granularity",
    "replay_mode",
    "host",
    "listen",
    "gateway",
    "tunnel_local",
    "tunnel_peer",
    "stats_listen",
    "replay_filter",
    "shards",
    "burst",
    "run_secs",
    "ctrl_log",
    "snapshot_every",
    "issuance_burst",
    "issuance_per_sec",
];

fn main() {
    std::process::exit(run_main("apna-border", run_daemon));
}

/// Everything the run loop accumulates beyond the backend's own counters.
#[derive(Default)]
struct Totals {
    bursts: u64,
    egress_passed: u64,
    delivered: u64,
    forwarded_foreign: u64,
    control_rejected: u64,
    snapshots: u64,
    snapshot_errors: u64,
}

struct BorderDaemon {
    node: AsNode,
    router: BorderRouter,
    aid: Aid,
    mode: ReplayMode,
    shards: usize,
    burst: usize,
    io: UdpBackend,
    stats: StatsServer,
    clock: DaemonClock,
    run_secs: Option<u32>,
    drops: DropCounters,
    totals: Totals,
    /// Per-kind tallies of control requests delivered and replies sent.
    control: ControlCounters,
    /// Per-service-endpoint reply nonce counters (NonceExtension mode).
    service_nonces: HashMap<Hid, u64>,
    snapshot_every: u64,
    replay: Option<ReplaySummary>,
}

fn run_daemon(config_path: &str) -> Result<String, String> {
    let cfg = load_config(config_path)?;
    let cerr = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    cfg.check_keys(&ALLOWED_KEYS).map_err(cerr)?;

    let setup = build_as(&cfg, config_path)?;
    // Mirror the gateway daemon's host bootstraps (same seeds, same
    // order) so this AS instance registers the same HIDs and host keys.
    for seed in &setup.host_seeds {
        Host::attach(&setup.node, setup.replay_mode, Timestamp::EPOCH, *seed)
            .map_err(|e| format!("host bootstrap (seed {seed}) failed: {e:?}"))?;
    }

    let mut router = setup.node.br.clone();
    match cfg.get("replay_filter").map_err(cerr)? {
        Some("on") => router.enable_replay_filter(),
        Some("off") | None => {}
        Some(other) => {
            return Err(format!(
                "{config_path}: replay_filter must be `on` or `off`, got {other:?}"
            ))
        }
    }

    let listen: SocketAddr = cfg.require_parsed("listen").map_err(cerr)?;
    let gateway: SocketAddr = cfg.require_parsed("gateway").map_err(cerr)?;
    let stats_listen: SocketAddr = cfg.require_parsed("stats_listen").map_err(cerr)?;
    let tunnel_local = parse_wire_ipv4(cfg.require("tunnel_local").map_err(cerr)?)
        .map_err(|e| format!("{config_path}: tunnel_local: {e}"))?;
    let tunnel_peer = parse_wire_ipv4(cfg.require("tunnel_peer").map_err(cerr)?)
        .map_err(|e| format!("{config_path}: tunnel_peer: {e}"))?;
    let shards = cfg.parsed::<usize>("shards").map_err(cerr)?.unwrap_or(1);
    if !(1..=64).contains(&shards) {
        return Err(format!(
            "{config_path}: shards must be 1..=64, got {shards}"
        ));
    }
    let (burst, run_secs, snapshot_every) = loop_settings(&cfg, config_path)?;
    // After the deterministic mirror bootstraps above, as it requires.
    let replay = arm_control_plane(&cfg, config_path, &setup.node.infra)?;

    let tunnel = EncapTunnel::new(tunnel_local, tunnel_peer);
    let io = UdpBackend::bind(listen, gateway, UdpFraming::Tunnel(tunnel))
        .map_err(|e| format!("APNA socket: {e}"))?;
    let stats = StatsServer::bind(stats_listen).map_err(|e| format!("stats endpoint: {e}"))?;

    let mut daemon = BorderDaemon {
        aid: setup.node.aid(),
        node: setup.node,
        router,
        mode: setup.replay_mode,
        shards,
        burst,
        io,
        stats,
        clock: DaemonClock::start(),
        run_secs,
        drops: DropCounters::default(),
        totals: Totals::default(),
        control: ControlCounters::default(),
        service_nonces: HashMap::new(),
        snapshot_every,
        replay,
    };
    daemon.run_loop()?;
    Ok(daemon.stats_json())
}

impl BorderDaemon {
    fn run_loop(&mut self) -> Result<(), String> {
        loop {
            let snapshot = self.stats_json();
            match self.stats.poll_once(&snapshot) {
                Ok(Some(StatsCommand::Shutdown)) => break,
                Ok(_) => {}
                Err(e) => eprintln!("apna-border: stats endpoint: {e}"),
            }
            if let Some(limit) = self.run_secs {
                if self.clock.uptime_secs() >= limit {
                    break;
                }
            }
            snapshot_tick(
                "apna-border",
                &self.node.infra,
                self.snapshot_every,
                &mut self.totals.snapshots,
                &mut self.totals.snapshot_errors,
            );
            let ready = self
                .io
                .poll(Duration::from_millis(20))
                .map_err(|e| format!("poll: {e}"))?;
            if !ready {
                continue;
            }
            let frames = self
                .io
                .recv_burst(self.burst)
                .map_err(|e| format!("recv: {e}"))?;
            self.handle_burst(frames)?;
        }
        self.drain()
    }

    /// Shutdown drain: process whatever is still queued on the socket so
    /// in-flight packets are accounted before the final counter dump.
    fn drain(&mut self) -> Result<(), String> {
        for _ in 0..64 {
            let frames = self
                .io
                .recv_burst(self.burst)
                .map_err(|e| format!("drain recv: {e}"))?;
            if frames.is_empty() {
                return Ok(());
            }
            self.handle_burst(frames)?;
        }
        Ok(())
    }

    /// One burst through the pipeline: egress over everything, then the
    /// same-AS survivors hairpin through ingress and head back out.
    fn handle_burst(&mut self, frames: Vec<Vec<u8>>) -> Result<(), String> {
        if frames.is_empty() {
            return Ok(());
        }
        self.totals.bursts += 1;
        let now = self.clock.now();

        let (egress, d1) = process_direction(
            &self.router,
            Direction::Egress,
            frames,
            self.mode,
            now,
            self.shards,
        );
        self.drops.merge(&d1);
        let mut local = Vec::new();
        for (frame, verdict) in egress {
            if let Verdict::ForwardInter { dst_aid } = verdict {
                if dst_aid == self.aid {
                    local.push(frame);
                } else {
                    // No inter-AS peer in this deployment; counted, not
                    // silently lost.
                    self.totals.forwarded_foreign += 1;
                }
            }
        }
        self.totals.egress_passed += local.len() as u64;

        let (ingress, d2) = process_direction(
            &self.router,
            Direction::Ingress,
            local,
            self.mode,
            now,
            self.shards,
        );
        self.drops.merge(&d2);
        // Split local deliveries: frames addressed to a service endpoint
        // (MS/AA/DNS) are control traffic and dispatch through the
        // batched control plane, grouped per endpoint and ordered by HID;
        // everything else returns to the gateway.
        let mut deliver: Vec<Vec<u8>> = Vec::new();
        let mut ctrl_groups: BTreeMap<Hid, Vec<Vec<u8>>> = BTreeMap::new();
        for (frame, verdict) in ingress {
            if let Verdict::DeliverLocal { hid } = verdict {
                if self.node.service_by_hid(hid).is_some() {
                    ctrl_groups.entry(hid).or_default().push(frame);
                } else {
                    deliver.push(frame);
                }
            }
        }
        let sent = self
            .io
            .send_burst(&deliver)
            .map_err(|e| format!("send: {e}"))?;
        self.totals.delivered += sent as u64;
        for (hid, frames) in ctrl_groups {
            self.handle_control_burst(hid, frames, now)?;
        }
        Ok(())
    }

    /// One burst of control packets for ONE service endpoint: parse the
    /// envelopes, dispatch the whole burst through the node's batched
    /// control plane (EphID issuances run the pipelined
    /// `handle_request_batch` path — and are durably logged before any
    /// reply leaves), then re-inject the authenticated replies into the
    /// pipeline as ordinary accountable traffic.
    fn handle_control_burst(
        &mut self,
        hid: Hid,
        wires: Vec<Vec<u8>>,
        now: Timestamp,
    ) -> Result<(), String> {
        // Parse phase: keep (header, wire bytes, payload offset) per
        // accepted frame; malformed control follows the paper's
        // silent-drop discipline (counted, no response).
        let mut pending: Vec<(ApnaHeader, Vec<u8>, usize)> = Vec::new();
        for bytes in wires {
            let Ok((header, payload)) = ApnaHeader::parse(&bytes, self.mode) else {
                self.totals.control_rejected += 1;
                continue;
            };
            let Ok(msg) = ControlMsg::parse(payload) else {
                self.totals.control_rejected += 1;
                continue;
            };
            self.control.record(msg.kind());
            let payload_off = bytes.len() - payload.len();
            pending.push((header, bytes, payload_off));
        }
        if pending.is_empty() {
            return Ok(());
        }

        let frames: Vec<&[u8]> = pending
            .iter()
            .map(|(_, bytes, off)| bytes.get(*off..).unwrap_or(&[]))
            .collect();
        let results = self.node.handle_control_batch(&frames, now);

        let Some(endpoint) = self.node.service_by_hid(hid) else {
            return Ok(());
        };
        let (src_ephid, kha) = (endpoint.ephid, endpoint.kha.clone());
        let mut reply_wires = Vec::new();
        for ((header, _, _), result) in pending.iter().zip(results) {
            match result {
                Err(_) => self.totals.control_rejected += 1,
                Ok(None) => {}
                Ok(Some(reply_frame)) => {
                    let Ok(reply_msg) = ControlMsg::parse(&reply_frame) else {
                        self.totals.control_rejected += 1;
                        continue;
                    };
                    self.control.record(reply_msg.kind());
                    let mut reply_header =
                        ApnaHeader::new(HostAddr::new(self.aid, src_ephid), header.src);
                    if self.mode == ReplayMode::NonceExtension {
                        let counter = self.service_nonces.entry(hid).or_insert(0);
                        reply_header = reply_header.with_nonce(*counter);
                        *counter += 1;
                    }
                    let mac: [u8; 8] = kha
                        .packet_cmac()
                        .mac_truncated(&reply_header.mac_input(&reply_frame));
                    reply_header.set_mac(mac);
                    let mut wire = reply_header.serialize();
                    wire.extend_from_slice(&reply_frame);
                    reply_wires.push(wire);
                }
            }
        }
        if !reply_wires.is_empty() {
            // Replies run the full egress → ingress pipeline like any
            // host's traffic and reach the gateway via the local path.
            self.handle_burst(reply_wires)?;
        }
        Ok(())
    }

    fn stats_json(&self) -> String {
        let mut drop_fields: Vec<(&str, String)> = vec![("total", self.drops.total().to_string())];
        for (reason, count) in self.drops.iter_nonzero() {
            drop_fields.push((reason.name(), count.to_string()));
        }
        let mut control_fields: Vec<(&str, String)> = vec![
            ("total", self.control.total().to_string()),
            ("rejected", self.totals.control_rejected.to_string()),
        ];
        for (kind, count) in self.control.iter_nonzero() {
            control_fields.push((kind.name(), count.to_string()));
        }
        let (infra, t) = (&self.node.infra, &self.totals);
        let ctrl_log = ctrl_log_json(infra, self.replay, t.snapshots, t.snapshot_errors);
        json_object(&[
            ("daemon", json_string("apna-border")),
            ("aid", self.aid.0.to_string()),
            ("uptime_secs", self.clock.uptime_secs().to_string()),
            ("bursts", self.totals.bursts.to_string()),
            ("egress_passed", self.totals.egress_passed.to_string()),
            ("delivered", self.totals.delivered.to_string()),
            (
                "forwarded_foreign",
                self.totals.forwarded_foreign.to_string(),
            ),
            (
                "replay_filter_entries",
                self.router.replay_filter_entries().to_string(),
            ),
            ("io", self.io.counters().to_json()),
            ("drops", json_object(&drop_fields)),
            ("control", json_object(&control_fields)),
            ("ctrl_log", ctrl_log),
        ])
    }
}

/// Runs `frames` through one pipeline direction, split across `shards`
/// worker threads (each with its own router clone, sharing the AS state
/// behind `Arc`s). Returns each frame paired with its verdict, in input
/// order, plus the direction's drop tallies.
fn process_direction(
    router: &BorderRouter,
    direction: Direction,
    frames: Vec<Vec<u8>>,
    mode: ReplayMode,
    now: Timestamp,
    shards: usize,
) -> (Vec<(Vec<u8>, Verdict)>, DropCounters) {
    if frames.is_empty() {
        return (Vec::new(), DropCounters::default());
    }
    if shards <= 1 || frames.len() == 1 {
        return process_chunk(router, direction, frames, mode, now);
    }
    let chunk_size = frames.len().div_ceil(shards);
    let mut rest = frames.into_iter();
    let mut paired = Vec::new();
    let mut drops = DropCounters::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|_| rest.by_ref().take(chunk_size).collect::<Vec<_>>())
            .filter(|chunk| !chunk.is_empty())
            .map(|chunk| {
                let worker = router.clone();
                scope.spawn(move || process_chunk(&worker, direction, chunk, mode, now))
            })
            .collect();
        for handle in handles {
            if let Ok((p, d)) = handle.join() {
                paired.extend(p);
                drops.merge(&d);
            }
        }
    });
    (paired, drops)
}

fn process_chunk(
    router: &BorderRouter,
    direction: Direction,
    frames: Vec<Vec<u8>>,
    mode: ReplayMode,
    now: Timestamp,
) -> (Vec<(Vec<u8>, Verdict)>, DropCounters) {
    let mut batch = PacketBatch::from_packets(mode, frames);
    let verdicts = router.process_batch(direction, &mut batch, now);
    let drops = *verdicts.counters();
    let frames = batch.into_packets().into_iter();
    (frames.zip(verdicts.into_verdicts()).collect(), drops)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sharding must be invisible in the result: the same `(frame, verdict)`
    /// pairs in input order and the same drop tallies from 1 and 4 shards,
    /// over a burst mixing forwardable, malformed, forged and tampered frames.
    #[test]
    fn one_and_four_shards_agree_on_a_mixed_burst() {
        let mut world = apna_bench::BenchWorld::new();
        let mut frames = world.burst_of(13, 128);
        frames[2] = vec![0xEE; 7]; // shorter than a header
        frames[5][100] ^= 1; // payload bit: packet MAC fails
        frames[9][10] ^= 1; // source EphID bit: EphID MAC fails
        frames.insert(7, Vec::new());
        let (br, mode, now) = (&world.node.br, ReplayMode::Disabled, Timestamp(1));
        let run = |n| process_direction(br, Direction::Egress, frames.clone(), mode, now, n);
        let (one, four) = (run(1), run(4));
        assert_eq!(one, four);
        assert!(one.0.iter().map(|(frame, _)| frame).eq(&frames));
        let forwarded = |(_, v): &&(Vec<u8>, Verdict)| matches!(v, Verdict::ForwardInter { .. });
        assert_eq!(one.0.iter().filter(forwarded).count(), 10);
        assert_eq!(one.1.total(), 4);
    }
}
