//! `apna-gateway` — the §VII-D translator pair as a long-lived daemon.
//!
//! Bridges unmodified IPv4 endpoints onto APNA: legacy datagrams arrive
//! on a UDP socket, the client-side gateway translates them into APNA
//! packets (handshake + 0-RTT early data per new flow), and the frames
//! travel UDP-encapsulated to the `apna-border` daemon. Frames coming
//! back are demultiplexed to the owning gateway; reconstructed legacy
//! datagrams are forwarded to the configured delivery address.
//!
//! Usage: `apna-gateway <config-file>`. Config keys (`key = value`, `#`
//! comments; errors carry line numbers):
//!
//! | key                   | meaning                                       |
//! |-----------------------|-----------------------------------------------|
//! | `aid`                 | AS identifier (u32), required                 |
//! | `seed_file`           | path to the AS master seed, required          |
//! | `apna_listen`         | UDP address for APNA-side traffic, required   |
//! | `border`              | UDP address of the border daemon, required    |
//! | `legacy_listen`       | UDP address for legacy datagrams, required    |
//! | `legacy_deliver`      | where reconstructed datagrams go, required    |
//! | `stats_listen`        | TCP stats/shutdown endpoint, required         |
//! | `gateway_ip`          | Fig. 9 tunnel IPv4 of this daemon, required   |
//! | `router_ip`           | Fig. 9 tunnel IPv4 of the border, required    |
//! | `host`                | exactly two seeds: client-side, server-side   |
//! | `granularity`         | §VIII-A regime (default `per-flow`)           |
//! | `replay_mode`         | `disabled` (default) or `nonce`               |
//! | `refresh_margin_secs` | EphID rotation margin (default agent's 60)    |
//! | `service_name`        | DNS name published (default legacy-app.example)|
//! | `burst`               | max frames per burst (default 32, max 1024)   |
//! | `run_secs`            | optional auto-shutdown deadline               |
//! | `ctrl_log`            | path to the durable issuance/revocation log   |
//! | `snapshot_every`      | appends between snapshots (default 1024)      |
//! | `issuance_burst`      | per-host issuance token-bucket depth          |
//! | `issuance_per_sec`    | per-host issuance refill rate (tokens/sec)    |
//!
//! `burst`, `run_secs`, `ctrl_log`, `snapshot_every` and the `issuance_*`
//! pair go through the code `apna-border` parses them with (`apna::daemon`)
//! and behave as documented there. **The log and its snapshot store raw
//! host–AS key material (`k_HA`)** — protect both files like the seed file.
//!
//! Legacy datagrams are `apna_gateway::LegacyPacket` serializations; the
//! loopback demo plays both the legacy client and the legacy server.
//! Stats protocol matches `apna-border` (`stats\n` / `shutdown\n`); the
//! final JSON always reaches stdout on exit.
//!
//! This binary is config + sockets around [`GatewayCore`], the
//! [`TranslatorPair`] with no socket and no clock, and [`serve`] runs the
//! loop: each pass waits up to 5 ms on the APNA socket, then takes a burst
//! from the APNA socket and then one from the legacy socket, and rotates
//! EphIDs near expiry.

use apna::daemon::{
    arm_control_plane, build_as, load_config, loop_settings, parse_wire_ipv4, run_main, serve,
    GatewayCore, AS_KEYS, SHELL_KEYS,
};
use apna_core::time::Timestamp;
use apna_gateway::daemon::{PairConfig, TranslatorPair};
use apna_io::stats::StatsServer;
use apna_io::udp::{UdpBackend, UdpFraming};
use std::net::SocketAddr;
use std::time::Duration;

/// The config keys besides [`AS_KEYS`] and [`SHELL_KEYS`].
const GATEWAY_KEYS: [&str; 9] = [
    "apna_listen",
    "border",
    "legacy_listen",
    "legacy_deliver",
    "stats_listen",
    "gateway_ip",
    "router_ip",
    "refresh_margin_secs",
    "service_name",
];

fn main() {
    std::process::exit(run_main("apna-gateway", run_daemon));
}

fn run_daemon(config_path: &str) -> Result<String, String> {
    let cfg = load_config(config_path)?;
    let cerr = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    cfg.check_keys(&[&AS_KEYS[..], &GATEWAY_KEYS, &SHELL_KEYS].concat())
        .map_err(cerr)?;

    let setup = build_as(&cfg, config_path)?;
    let [client_seed, server_seed] = setup.host_seeds.as_slice() else {
        return Err(format!(
            "{config_path}: need exactly two `host =` lines (client seed, server seed), got {}",
            setup.host_seeds.len()
        ));
    };

    let gateway_ip = parse_wire_ipv4(cfg.require("gateway_ip").map_err(cerr)?)
        .map_err(|e| format!("{config_path}: gateway_ip: {e}"))?;
    let router_ip = parse_wire_ipv4(cfg.require("router_ip").map_err(cerr)?)
        .map_err(|e| format!("{config_path}: router_ip: {e}"))?;
    let mut pair_cfg = PairConfig::new(*client_seed, *server_seed);
    pair_cfg.gateway_ip = gateway_ip;
    pair_cfg.router_ip = router_ip;
    pair_cfg.granularity = setup.granularity;
    pair_cfg.replay_mode = setup.replay_mode;
    pair_cfg.refresh_margin_secs = cfg.parsed::<u32>("refresh_margin_secs").map_err(cerr)?;
    if let Some(name) = cfg.get("service_name").map_err(cerr)? {
        pair_cfg.service_name = name.to_string();
    }

    let apna_listen: SocketAddr = cfg.require_parsed("apna_listen").map_err(cerr)?;
    let border: SocketAddr = cfg.require_parsed("border").map_err(cerr)?;
    let legacy_listen: SocketAddr = cfg.require_parsed("legacy_listen").map_err(cerr)?;
    let legacy_deliver: SocketAddr = cfg.require_parsed("legacy_deliver").map_err(cerr)?;
    let stats_listen: SocketAddr = cfg.require_parsed("stats_listen").map_err(cerr)?;
    let settings = loop_settings(&cfg, config_path)?;

    let node = setup.node;
    let pair =
        TranslatorPair::bootstrap(&node, &node, &setup.directory, &pair_cfg, Timestamp::EPOCH)
            .map_err(|e| format!("translator bootstrap failed: {e:?}"))?;

    // After the deterministic bootstrap above, as it requires.
    let replay = arm_control_plane(&cfg, config_path, &node.infra)?;

    // The translator emits and consumes full GRE frames itself, so the
    // APNA-side backend runs Raw framing (the border daemon's side owns
    // the encap/decap for its direction).
    let apna_io = UdpBackend::bind(apna_listen, border, UdpFraming::Raw)
        .map_err(|e| format!("APNA socket: {e}"))?;
    let legacy_io = UdpBackend::bind(legacy_listen, legacy_deliver, UdpFraming::Raw)
        .map_err(|e| format!("legacy socket: {e}"))?;
    let stats = StatsServer::bind(stats_listen).map_err(|e| format!("stats endpoint: {e}"))?;

    // The wait watches the APNA socket only, and its 5 ms is an
    // SO_RCVTIMEO that the kernel rounds up to whole ticks (~12 ms at
    // CONFIG_HZ=250; `UdpBackend::poll`), so a legacy datagram that
    // arrives meanwhile waits that long.
    serve(
        "apna-gateway",
        &mut GatewayCore { pair, node: &node },
        &mut [("APNA", apna_io), ("legacy", legacy_io)],
        Duration::from_millis(5),
        stats,
        settings,
        replay,
    )
}
