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
//! This binary is config + a socket around
//! [`apna_core::deploy::BorderCore`], which runs each burst, MS/AA/DNS
//! control dispatch included, and [`serve`] runs the loop: each pass waits
//! up to 20 ms on the socket, then takes a burst from it. Under
//! `replay_mode = nonce` service replies are numbered from
//! [`first_reply_nonce`], so hosts keep accepting them across a restart.
//!
//! Stats protocol: connect to `stats_listen`, send `stats\n` (JSON
//! snapshot) or `shutdown\n` (final JSON, then the daemon drains its
//! socket and exits 0). The final stats JSON is always printed to stdout
//! on exit, polled or not.

use apna::daemon::{
    arm_control_plane, build_as, first_reply_nonce, load_config, loop_settings, parse_wire_ipv4,
    run_main, serve, AS_KEYS, SHELL_KEYS,
};
use apna_core::deploy::BorderCore;
use apna_core::host::Host;
use apna_core::time::Timestamp;
use apna_io::stats::StatsServer;
use apna_io::udp::{UdpBackend, UdpFraming};
use apna_wire::EncapTunnel;
use std::net::SocketAddr;
use std::time::Duration;

/// The config keys besides [`AS_KEYS`] and [`SHELL_KEYS`].
const BORDER_KEYS: [&str; 7] = [
    "listen",
    "gateway",
    "tunnel_local",
    "tunnel_peer",
    "stats_listen",
    "replay_filter",
    "shards",
];

fn main() {
    std::process::exit(run_main("apna-border", run_daemon));
}

fn run_daemon(config_path: &str) -> Result<String, String> {
    let cfg = load_config(config_path)?;
    let cerr = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    cfg.check_keys(&[&AS_KEYS[..], &BORDER_KEYS, &SHELL_KEYS].concat())
        .map_err(cerr)?;

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
    let settings = loop_settings(&cfg, config_path)?;
    // After the deterministic mirror bootstraps above, as it requires.
    let replay = arm_control_plane(&cfg, config_path, &setup.node.infra)?;

    let tunnel = EncapTunnel::new(tunnel_local, tunnel_peer);
    let io = UdpBackend::bind(listen, gateway, UdpFraming::Tunnel(tunnel))
        .map_err(|e| format!("APNA socket: {e}"))?;
    let stats = StatsServer::bind(stats_listen).map_err(|e| format!("stats endpoint: {e}"))?;

    let mut core = BorderCore::new(
        setup.node,
        router,
        setup.replay_mode,
        shards,
        first_reply_nonce(),
    );
    serve(
        "apna-border",
        &mut core,
        &mut [("APNA", io)],
        Duration::from_millis(20),
        stats,
        settings,
        replay,
    )
}
