//! The shell both daemons share. `apna-border` and `apna-gateway` are each
//! config + sockets + a core ([`DaemonCore`]: `BorderCore`, [`GatewayCore`]),
//! and [`serve`] is the one run loop that drives either: the stats
//! endpoint, the `run_secs` deadline, the wait, the burst pump over every
//! socket, the core's tick, the `ctrl_log` snapshot cadence, the shutdown
//! drain and the final stats JSON. Around it: the exit-code shell, config
//! loading, deterministic AS construction from seed files, the run-loop
//! and control-plane settings both daemons accept, the border's
//! reply-nonce seed, and hand-rolled JSON assembly for the stats endpoints.
//!
//! Everything here returns `Result<_, String>` with operator-readable
//! messages — the binaries print the error and exit non-zero; nothing on
//! a daemon path may panic (enforced by `apna-lint` PANIC-1, whose scope
//! includes this module and both binaries).

use apna_core::asnode::{AsInfra, AsNode};
use apna_core::ctrl_log::{self, ReplaySummary};
use apna_core::deploy::{self, BorderCore};
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::hostinfo::IssuancePolicy;
use apna_core::time::Timestamp;
use apna_gateway::daemon::{Port, TranslatorPair};
use apna_io::config::Config;
use apna_io::stats::{StatsCommand, StatsServer};
use apna_io::udp::UdpBackend;
use apna_io::{IoCounters, PacketIo};
use apna_wire::{Aid, ReplayMode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The first reply nonce of each service endpoint of a starting border:
/// wall-clock µs since the Unix epoch. Hosts' replay windows (§VIII-D)
/// outlive a border restart, so its nonces must not restart at 0. This
/// assumes fewer than 10⁶ replies/s per endpoint, sustained, and no
/// backward clock step across the restart.
#[must_use]
pub fn first_reply_nonce() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// The process shell both daemons share: exactly one argument, the config
/// path (else usage, exit 2), then `run_daemon`. Its final stats JSON always
/// reaches stdout, polled or not (exit 0); its error goes to stderr (exit 1).
pub fn run_main(name: &str, run_daemon: fn(&str) -> Result<String, String>) -> i32 {
    let mut args = std::env::args().skip(1);
    let (Some(config_path), None) = (args.next(), args.next()) else {
        eprintln!("usage: {name} <config-file>");
        return 2;
    };
    match run_daemon(&config_path) {
        Ok(final_stats) => {
            println!("{final_stats}");
            0
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            1
        }
    }
}

/// Loads and parses a daemon config file, prefixing errors with `path`.
pub fn load_config(path: &str) -> Result<Config, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read config: {e}"))?;
    Config::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Reads a 32-byte AS seed file (see `apna_core::deploy` for the format).
pub fn read_seed_file(path: &str) -> Result<[u8; 32], String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read seed file: {e}"))?;
    deploy::parse_seed_file(&text).map_err(|e| format!("{path}: {e}"))
}

/// The config keys both daemons share for AS identity.
pub const AS_KEYS: [&str; 5] = ["aid", "seed_file", "granularity", "replay_mode", "host"];

/// The config keys both daemons share for their loop ([`loop_settings`])
/// and control plane ([`arm_control_plane`]).
pub const SHELL_KEYS: [&str; 6] = [
    "burst",
    "run_secs",
    "ctrl_log",
    "snapshot_every",
    "issuance_burst",
    "issuance_per_sec",
];

/// AS identity parsed from the shared config keys.
pub struct AsSetup {
    /// The deterministic AS node (control plane + border router).
    pub node: AsNode,
    /// The directory the node published its keys into.
    pub directory: AsDirectory,
    /// Parsed `replay_mode` (default `disabled`).
    pub replay_mode: ReplayMode,
    /// Parsed `granularity` (default `per-flow`).
    pub granularity: Granularity,
    /// The `host =` bootstrap seeds, in file order. Both daemons must
    /// list the same seeds in the same order — host registration is the
    /// only stateful part of AS identity.
    pub host_seeds: Vec<u64>,
}

/// Builds the AS from a config: `aid`, `seed_file`, optional
/// `granularity` / `replay_mode`, and the ordered `host =` seed lines.
/// Host bootstraps themselves are left to the caller (the gateway daemon
/// attaches agents; the border daemon only mirrors registrations).
pub fn build_as(cfg: &Config, config_path: &str) -> Result<AsSetup, String> {
    let err = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    let aid = Aid(cfg.require_parsed::<u32>("aid").map_err(err)?);
    let seed_path = cfg.require("seed_file").map_err(err)?;
    let seed = read_seed_file(seed_path)?;
    let replay_mode = match cfg.get("replay_mode").map_err(err)? {
        Some(v) => deploy::parse_replay_mode(v).map_err(|e| format!("{config_path}: {e}"))?,
        None => ReplayMode::Disabled,
    };
    let granularity = match cfg.get("granularity").map_err(err)? {
        Some(v) => deploy::parse_granularity(v).map_err(|e| format!("{config_path}: {e}"))?,
        None => Granularity::PerFlow,
    };
    let mut host_seeds = Vec::new();
    for (line, value) in cfg.get_all("host") {
        let parsed: u64 = value
            .parse()
            .map_err(|e| format!("{config_path}: line {line}: invalid host seed {value:?}: {e}"))?;
        host_seeds.push(parsed);
    }
    let directory = AsDirectory::new();
    let node = AsNode::from_seed(aid, seed, &directory, Timestamp::EPOCH);
    Ok(AsSetup {
        node,
        directory,
        replay_mode,
        granularity,
        host_seeds,
    })
}

/// The run-loop keys both daemons accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSettings {
    /// `burst`: max frames received per socket per pass (1..=1024,
    /// default 32).
    pub burst: usize,
    /// `run_secs`: optional auto-shutdown deadline.
    pub run_secs: Option<u32>,
    /// `snapshot_every`: log appends between snapshots (at least 1,
    /// default 1024).
    pub snapshot_every: u64,
}

/// Parses the [`LoopSettings`] keys.
pub fn loop_settings(cfg: &Config, config_path: &str) -> Result<LoopSettings, String> {
    let err = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    let burst = cfg.parsed::<usize>("burst").map_err(err)?.unwrap_or(32);
    if !(1..=1024).contains(&burst) {
        return Err(format!(
            "{config_path}: burst must be 1..=1024, got {burst}"
        ));
    }
    let run_secs = cfg.parsed::<u32>("run_secs").map_err(err)?;
    let snapshot_every = cfg.parsed::<u64>("snapshot_every").map_err(err)?;
    // 0 would make every loop pass rewrite and sync the snapshot.
    if snapshot_every == Some(0) {
        return Err(format!("{config_path}: snapshot_every must be at least 1"));
    }
    Ok(LoopSettings {
        burst,
        run_secs,
        snapshot_every: snapshot_every.unwrap_or(1024),
    })
}

/// Attaches the durable control log (`ctrl_log`, optional) and arms the
/// per-host issuance bucket (`issuance_burst` + `issuance_per_sec`, set
/// together or not at all). Call AFTER the deterministic bootstraps:
/// replay's `restore` overwrites the fresh entries with their logged state
/// (same seeds ⇒ same keys, plus preserved strikes/revocations) and moves
/// the IV watermark past everything the pre-crash process may have issued,
/// and the bootstrap registrations are never rate-limited.
pub fn arm_control_plane(
    cfg: &Config,
    config_path: &str,
    infra: &AsInfra,
) -> Result<Option<ReplaySummary>, String> {
    let err = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    let replay = match cfg.get("ctrl_log").map_err(err)? {
        Some(path) => Some(
            ctrl_log::attach_file(infra, std::path::Path::new(path))
                .map_err(|e| format!("{config_path}: ctrl_log: {e}"))?,
        ),
        None => None,
    };
    let issuance_burst = cfg.parsed::<u32>("issuance_burst").map_err(err)?;
    let issuance_per_sec = cfg.parsed::<u32>("issuance_per_sec").map_err(err)?;
    match (issuance_burst, issuance_per_sec) {
        (Some(burst), Some(per_sec)) => infra
            .host_db
            .set_issuance_policy(Some(IssuancePolicy { burst, per_sec })),
        (None, None) => {}
        _ => {
            return Err(format!(
                "{config_path}: issuance_burst and issuance_per_sec must be set together"
            ))
        }
    }
    Ok(replay)
}

/// A daemon's burst logic with the sockets and the clock taken out: what
/// [`serve`] drives. A `port` is an index into the sockets `serve` holds.
pub trait DaemonCore {
    /// Runs one burst received on `port` at `now`; returns the frames to
    /// send on each port, by index, in sending order.
    fn step(&mut self, now: Timestamp, port: usize, frames: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>>;

    /// Once-per-pass upkeep after the sockets are pumped.
    fn tick(&mut self, _now: Timestamp) {}

    /// The AS whose control log `serve` snapshots.
    fn infra(&self) -> &AsInfra;

    /// The daemon's stats JSON from the core's counters, the uptime, each
    /// port's socket counters and the [`ctrl_log_json`] object. Key paths
    /// and order are a contract: the loopback demo, the tests and the
    /// benchmark harness read them.
    fn stats_json(&self, uptime_secs: u32, io: &[IoCounters], ctrl_log: String) -> String;
}

/// The run loop of both daemons, driving `core` over `sockets` (each with
/// a label for error messages) until a `shutdown` on `stats` or the
/// `run_secs` deadline. Each pass answers a pending stats client, waits
/// up to `wait` on the first socket whatever it reports, receives one
/// burst from every socket in order and sends what the core returns,
/// ticks the core, and takes a `ctrl_log` snapshot when one is due (on
/// this thread, which mutates control state: `ctrl_log`'s module contract,
/// so the image is a consistent cut). Then it drains the sockets until
/// quiet, at most 64 passes, so in-flight packets are counted, and returns
/// the final stats JSON.
pub fn serve<C: DaemonCore>(
    name: &str,
    core: &mut C,
    sockets: &mut [(&str, UdpBackend)],
    wait: Duration,
    mut stats: StatsServer,
    settings: LoopSettings,
    replay: Option<ReplaySummary>,
) -> Result<String, String> {
    let start = Instant::now();
    let uptime_secs = || u32::try_from(start.elapsed().as_secs()).unwrap_or(u32::MAX);
    // Protocol time is seconds since start: both daemons bootstrap at
    // `Timestamp::EPOCH`, so mirrored constructions agree without clock sync.
    let now = || Timestamp::EPOCH.add_secs(uptime_secs());
    let (mut snapshots, mut snapshot_errors) = (0, 0);
    let stats_json = |core: &C, sockets: &[(&str, UdpBackend)], snapshots, snapshot_errors| {
        let io: Vec<IoCounters> = sockets.iter().map(|(_, s)| s.counters()).collect();
        let ctrl_log = ctrl_log_json(core.infra(), replay, snapshots, snapshot_errors);
        core.stats_json(uptime_secs(), &io, ctrl_log)
    };
    loop {
        match stats.poll_once(&stats_json(core, sockets, snapshots, snapshot_errors)) {
            Ok(Some(StatsCommand::Shutdown)) => break,
            Ok(_) => {}
            Err(e) => eprintln!("{name}: stats endpoint: {e}"),
        }
        if settings
            .run_secs
            .is_some_and(|limit| uptime_secs() >= limit)
        {
            break;
        }
        if let Some((_, socket)) = sockets.first_mut() {
            socket.poll(wait).map_err(|e| format!("poll: {e}"))?;
        }
        pump(core, sockets, settings.burst, now())?;
        core.tick(now());
        match ctrl_log::maybe_snapshot(core.infra(), settings.snapshot_every) {
            Ok(true) => snapshots += 1,
            Ok(false) => {}
            Err(e) => {
                snapshot_errors += 1;
                eprintln!("{name}: snapshot: {e}");
            }
        }
    }
    for _ in 0..64 {
        if !pump(core, sockets, settings.burst, now())? {
            break;
        }
    }
    Ok(stats_json(core, sockets, snapshots, snapshot_errors))
}

/// Receives up to `burst` frames from each socket in order, each burst
/// through the core at once and what it returns sent; returns whether
/// anything arrived.
fn pump(
    core: &mut impl DaemonCore,
    sockets: &mut [(&str, UdpBackend)],
    burst: usize,
    now: Timestamp,
) -> Result<bool, String> {
    let mut busy = false;
    for port in 0..sockets.len() {
        let Some((label, socket)) = sockets.get_mut(port) else {
            break;
        };
        let frames = socket
            .recv_burst(burst)
            .map_err(|e| format!("{label} recv: {e}"))?;
        if frames.is_empty() {
            continue;
        }
        busy = true;
        for ((label, socket), out) in sockets.iter_mut().zip(core.step(now, port, frames)) {
            if !out.is_empty() {
                socket
                    .send_burst(&out)
                    .map_err(|e| format!("{label} send: {e}"))?;
            }
        }
    }
    Ok(busy)
}

/// The `ctrl_log` object of both daemons' stats JSON. Keys and their order
/// are a contract: the loopback demo, `tests/ctrl_restart.rs` and the
/// benchmark harness read them.
#[must_use]
pub fn ctrl_log_json(
    infra: &AsInfra,
    replay: Option<ReplaySummary>,
    snapshots: u64,
    snapshot_errors: u64,
) -> String {
    let log = infra.ctrl_log.stats().unwrap_or_default();
    let replay = replay.unwrap_or_default();
    json_object(&[
        ("active", infra.ctrl_log.is_active().to_string()),
        ("appended_records", log.appended_records.to_string()),
        (
            "appends_since_snapshot",
            log.appends_since_snapshot.to_string(),
        ),
        ("io_errors", log.io_errors.to_string()),
        ("snapshots", snapshots.to_string()),
        ("snapshot_errors", snapshot_errors.to_string()),
        ("replayed_records", replay.records.to_string()),
        ("replayed_hosts", replay.hosts.to_string()),
        ("replayed_revocations", replay.revocations.to_string()),
        ("replayed_watermark", replay.watermark.to_string()),
        ("torn_tail", replay.torn_tail.to_string()),
    ])
}

/// `apna-border`'s core: one socket, toward the gateway.
impl DaemonCore for BorderCore {
    fn step(&mut self, now: Timestamp, _port: usize, frames: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>> {
        vec![BorderCore::step(self, now, frames)]
    }

    fn infra(&self) -> &AsInfra {
        &self.node.infra
    }

    /// `delivered` is the socket's `tx_frames`: the border sends nothing
    /// else.
    fn stats_json(&self, uptime_secs: u32, io: &[IoCounters], ctrl_log: String) -> String {
        let io = io.first().copied().unwrap_or_default();
        let mut drop_fields = vec![("total", self.drops.total().to_string())];
        for (reason, count) in self.drops.iter_nonzero() {
            drop_fields.push((reason.name(), count.to_string()));
        }
        let mut control_fields = vec![
            ("total", self.control.total().to_string()),
            ("rejected", self.control_rejected.to_string()),
        ];
        for (kind, count) in self.control.iter_nonzero() {
            control_fields.push((kind.name(), count.to_string()));
        }
        json_object(&[
            ("daemon", json_string("apna-border")),
            ("aid", self.node.aid().0.to_string()),
            ("uptime_secs", uptime_secs.to_string()),
            ("bursts", self.bursts.to_string()),
            ("egress_passed", self.egress_passed.to_string()),
            ("delivered", io.tx_frames.to_string()),
            ("forwarded_foreign", self.forwarded_foreign.to_string()),
            (
                "replay_filter_entries",
                self.router.replay_filter_entries().to_string(),
            ),
            ("io", io.to_json()),
            ("drops", json_object(&drop_fields)),
            ("control", json_object(&control_fields)),
            ("ctrl_log", ctrl_log),
        ])
    }
}

/// `apna-gateway`'s core: the translator pair over the node it was
/// bootstrapped against, which is also its control plane. Its ports are
/// [`Port`]'s: the APNA socket, then the legacy one.
pub struct GatewayCore<'a> {
    /// The client-side and server-side gateways.
    pub pair: TranslatorPair,
    /// The AS the pair belongs to.
    pub node: &'a AsNode,
}

impl DaemonCore for GatewayCore<'_> {
    fn step(&mut self, now: Timestamp, port: usize, frames: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>> {
        let port = if port == Port::Apna as usize {
            Port::Apna
        } else {
            Port::Legacy
        };
        self.pair.step(now, self.node, port, frames).into()
    }

    fn tick(&mut self, now: Timestamp) {
        self.pair.tick(now, self.node);
    }

    fn infra(&self) -> &AsInfra {
        &self.node.infra
    }

    fn stats_json(&self, uptime_secs: u32, io: &[IoCounters], ctrl_log: String) -> String {
        let pair = &self.pair;
        let io = |port: Port| io.get(port as usize).copied().unwrap_or_default();
        let mut control_fields = vec![("total", pair.control.total().to_string())];
        for (kind, count) in pair.control.iter_nonzero() {
            control_fields.push((kind.name(), count.to_string()));
        }
        json_object(&[
            ("daemon", json_string("apna-gateway")),
            ("aid", self.node.aid().0.to_string()),
            ("uptime_secs", uptime_secs.to_string()),
            ("flows", pair.flow_count().to_string()),
            ("ephids", pair.ephid_count().to_string()),
            ("synth_ip", json_string(&pair.synth_ip.to_string())),
            ("rotated", pair.rotated.to_string()),
            ("unroutable", pair.unroutable.to_string()),
            ("legacy_parse_errors", pair.legacy_parse_errors.to_string()),
            ("translate_errors", pair.translate_errors.to_string()),
            ("refresh_errors", pair.refresh_errors.to_string()),
            ("io_apna", io(Port::Apna).to_json()),
            ("io_legacy", io(Port::Legacy).to_json()),
            ("control", json_object(&control_fields)),
            ("ctrl_log", ctrl_log),
        ])
    }
}

/// Parses a dotted-quad into the wire crate's IPv4 address type.
pub fn parse_wire_ipv4(s: &str) -> Result<apna_wire::ipv4::Ipv4Addr, String> {
    let std_addr: std::net::Ipv4Addr = s
        .trim()
        .parse()
        .map_err(|e| format!("invalid IPv4 address {s:?}: {e}"))?;
    let [a, b, c, d] = std_addr.octets();
    Ok(apna_wire::ipv4::Ipv4Addr::new(a, b, c, d))
}

/// Renders `{"k": v, ...}` from pre-rendered value strings (numbers and
/// nested objects go in verbatim; strings via [`json_string`]).
#[must_use]
fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders a JSON string literal (escaping quotes and backslashes; the
/// daemons never emit control characters).
#[must_use]
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        assert_eq!(
            json_object(&[("a", "1".to_string()), ("b", json_string("x\"y"))]),
            "{\"a\": 1, \"b\": \"x\\\"y\"}"
        );
    }

    #[test]
    fn build_as_parses_shared_keys() {
        let dir = std::env::temp_dir().join("apna-daemon-test");
        std::fs::create_dir_all(&dir).unwrap();
        let seed_path = dir.join("as.seed");
        std::fs::write(&seed_path, deploy::encode_seed_file(&[0x44; 32])).unwrap();
        let cfg = Config::parse(&format!(
            "aid = 12\nseed_file = {}\nreplay_mode = nonce\nhost = 7\nhost = 8\n",
            seed_path.display()
        ))
        .unwrap();
        let setup = build_as(&cfg, "test.conf").unwrap();
        assert_eq!(setup.node.aid(), Aid(12));
        assert_eq!(setup.replay_mode, ReplayMode::NonceExtension);
        assert_eq!(setup.host_seeds, vec![7, 8]);
    }

    #[test]
    fn loop_settings_range_checks() {
        let parse = |text: &str| loop_settings(&Config::parse(text).unwrap(), "l.conf");
        assert_eq!(
            parse("run_secs = 5\n").unwrap(),
            LoopSettings {
                burst: 32,
                run_secs: Some(5),
                snapshot_every: 1024,
            }
        );
        assert_eq!(
            parse("snapshot_every = 0\n").unwrap_err(),
            "l.conf: snapshot_every must be at least 1"
        );
        assert!(parse("burst = 0\n").unwrap_err().contains("burst must be"));
        assert_eq!(parse("snapshot_every = 1\n").unwrap().snapshot_every, 1);
    }

    #[test]
    fn build_as_reports_bad_host_seed_line() {
        let cfg = Config::parse("aid = 1\nseed_file = /nonexistent\nhost = abc\n").unwrap();
        let Err(err) = build_as(&cfg, "x.conf") else {
            panic!("expected an error");
        };
        assert!(err.contains("/nonexistent"), "{err}");
    }

    #[test]
    fn wire_ipv4_parsing() {
        assert_eq!(
            parse_wire_ipv4("10.1.2.3").unwrap(),
            apna_wire::ipv4::Ipv4Addr::new(10, 1, 2, 3)
        );
        assert!(parse_wire_ipv4("10.1.2").is_err());
    }
}
