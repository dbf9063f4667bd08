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

use apna::daemon::{
    arm_control_plane, build_as, ctrl_log_json, json_object, json_string, load_config,
    loop_settings, parse_wire_ipv4, run_main, snapshot_tick, DaemonClock,
};
use apna_core::asnode::AsNode;
use apna_core::ctrl_log::ReplaySummary;
use apna_core::deploy::CountingControlPlane;
use apna_gateway::daemon::{PairConfig, TranslatorPair};
use apna_gateway::legacy::LegacyPacket;
use apna_gateway::translator::GatewayOutput;
use apna_io::stats::{StatsCommand, StatsServer};
use apna_io::udp::{UdpBackend, UdpFraming};
use apna_io::PacketIo;
use apna_wire::Aid;
use std::net::SocketAddr;
use std::time::Duration;

const ALLOWED_KEYS: [&str; 20] = [
    "aid",
    "seed_file",
    "granularity",
    "replay_mode",
    "host",
    "apna_listen",
    "border",
    "legacy_listen",
    "legacy_deliver",
    "stats_listen",
    "gateway_ip",
    "router_ip",
    "refresh_margin_secs",
    "service_name",
    "burst",
    "run_secs",
    "ctrl_log",
    "snapshot_every",
    "issuance_burst",
    "issuance_per_sec",
];

fn main() {
    std::process::exit(run_main("apna-gateway", run_daemon));
}

#[derive(Default)]
struct Totals {
    rotated: u64,
    legacy_parse_errors: u64,
    translate_errors: u64,
    refresh_errors: u64,
    snapshots: u64,
    snapshot_errors: u64,
}

struct GatewayDaemon<'a> {
    pair: TranslatorPair,
    cp: &'a CountingControlPlane<'a>,
    node: &'a AsNode,
    snapshot_every: u64,
    replay: Option<ReplaySummary>,
    aid: Aid,
    burst: usize,
    apna_io: UdpBackend,
    legacy_io: UdpBackend,
    stats: StatsServer,
    clock: DaemonClock,
    run_secs: Option<u32>,
    totals: Totals,
}

fn run_daemon(config_path: &str) -> Result<String, String> {
    let cfg = load_config(config_path)?;
    let cerr = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    cfg.check_keys(&ALLOWED_KEYS).map_err(cerr)?;

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
    let (burst, run_secs, snapshot_every) = loop_settings(&cfg, config_path)?;

    let node = setup.node;
    let cp = CountingControlPlane::new(&node);
    let pair = TranslatorPair::bootstrap(
        &node,
        &cp,
        &setup.directory,
        &pair_cfg,
        apna_core::time::Timestamp::EPOCH,
    )
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

    let mut daemon = GatewayDaemon {
        pair,
        cp: &cp,
        node: &node,
        snapshot_every,
        replay,
        aid: node.aid(),
        burst,
        apna_io,
        legacy_io,
        stats,
        clock: DaemonClock::start(),
        run_secs,
        totals: Totals::default(),
    };
    daemon.run_loop()?;
    Ok(daemon.stats_json())
}

impl GatewayDaemon<'_> {
    fn run_loop(&mut self) -> Result<(), String> {
        loop {
            let snapshot = self.stats_json();
            match self.stats.poll_once(&snapshot) {
                Ok(Some(StatsCommand::Shutdown)) => break,
                Ok(_) => {}
                Err(e) => eprintln!("apna-gateway: stats endpoint: {e}"),
            }
            if let Some(limit) = self.run_secs {
                if self.clock.uptime_secs() >= limit {
                    break;
                }
            }
            // One poll bounds the loop's idle spin; both sockets are then
            // read non-blockingly. The poll watches the APNA socket only,
            // and its 5 ms is an SO_RCVTIMEO that the kernel rounds up to
            // whole ticks (~12 ms at CONFIG_HZ=250; `UdpBackend::poll`), so
            // a legacy datagram that arrives meanwhile waits that long.
            let _ = self
                .apna_io
                .poll(Duration::from_millis(5))
                .map_err(|e| format!("poll: {e}"))?;
            self.pump()?;

            let now = self.clock.now();
            match self.pair.refresh_expiring(self.cp, now) {
                Ok(n) => self.totals.rotated += n as u64,
                Err(_) => self.totals.refresh_errors += 1,
            }
            snapshot_tick(
                "apna-gateway",
                &self.node.infra,
                self.snapshot_every,
                &mut self.totals.snapshots,
                &mut self.totals.snapshot_errors,
            );
        }
        // Shutdown drain: service both sockets until quiet so in-flight
        // packets are translated and counted before the final dump.
        for _ in 0..64 {
            if !self.pump()? {
                break;
            }
        }
        Ok(())
    }

    /// Services both sockets once; returns whether anything was handled.
    fn pump(&mut self) -> Result<bool, String> {
        let now = self.clock.now();
        let mut busy = false;

        let apna_frames = self
            .apna_io
            .recv_burst(self.burst)
            .map_err(|e| format!("APNA recv: {e}"))?;
        for frame in apna_frames {
            busy = true;
            match self.pair.handle_apna(&frame, self.cp, now) {
                Ok(out) => self.dispatch(out)?,
                Err(_) => self.totals.translate_errors += 1,
            }
        }

        let legacy_frames = self
            .legacy_io
            .recv_burst(self.burst)
            .map_err(|e| format!("legacy recv: {e}"))?;
        for datagram in legacy_frames {
            busy = true;
            let Ok(pkt) = LegacyPacket::parse(&datagram) else {
                self.totals.legacy_parse_errors += 1;
                continue;
            };
            match self.pair.handle_legacy(&pkt, self.cp, now) {
                Ok(out) => self.dispatch(out)?,
                Err(_) => self.totals.translate_errors += 1,
            }
        }
        Ok(busy)
    }

    /// Sends a translation's outputs: GRE frames toward the border,
    /// reconstructed legacy datagrams toward the delivery address.
    fn dispatch(&mut self, out: GatewayOutput) -> Result<(), String> {
        if !out.frames.is_empty() {
            self.apna_io
                .send_burst(&out.frames)
                .map_err(|e| format!("APNA send: {e}"))?;
        }
        if !out.legacy.is_empty() {
            let datagrams: Vec<Vec<u8>> = out.legacy.iter().map(LegacyPacket::serialize).collect();
            self.legacy_io
                .send_burst(&datagrams)
                .map_err(|e| format!("legacy send: {e}"))?;
        }
        Ok(())
    }

    fn stats_json(&self) -> String {
        let control = self.cp.counters();
        let mut control_fields: Vec<(&str, String)> = vec![("total", control.total().to_string())];
        for (kind, count) in control.iter_nonzero() {
            control_fields.push((kind.name(), count.to_string()));
        }
        let (infra, t) = (&self.node.infra, &self.totals);
        let ctrl_log = ctrl_log_json(infra, self.replay, t.snapshots, t.snapshot_errors);
        json_object(&[
            ("daemon", json_string("apna-gateway")),
            ("aid", self.aid.0.to_string()),
            ("uptime_secs", self.clock.uptime_secs().to_string()),
            ("flows", self.pair.flow_count().to_string()),
            ("ephids", self.pair.ephid_count().to_string()),
            ("synth_ip", json_string(&self.pair.synth_ip.to_string())),
            ("rotated", self.totals.rotated.to_string()),
            ("unroutable", self.pair.unroutable.to_string()),
            (
                "legacy_parse_errors",
                self.totals.legacy_parse_errors.to_string(),
            ),
            ("translate_errors", self.totals.translate_errors.to_string()),
            ("refresh_errors", self.totals.refresh_errors.to_string()),
            ("io_apna", self.apna_io.counters().to_json()),
            ("io_legacy", self.legacy_io.counters().to_json()),
            ("control", json_object(&control_fields)),
            ("ctrl_log", ctrl_log),
        ])
    }
}
