//! Shared plumbing for the `apna-border` and `apna-gateway` daemons: the
//! exit-code shell, config loading, deterministic AS construction from
//! seed files, the run-loop and control-plane settings both daemons
//! accept, the daemon clock and the border's reply-nonce seed, and
//! hand-rolled JSON assembly for the stats endpoints.
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
use apna_io::config::Config;
use apna_io::IoCounters;
use apna_wire::{Aid, ReplayMode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock → protocol-time mapping: protocol timestamps are seconds
/// since daemon start (both daemons bootstrap at [`Timestamp::EPOCH`], so
/// mirrored constructions agree without clock sync).
pub struct DaemonClock {
    start: Instant,
}

impl DaemonClock {
    /// Starts the clock at protocol time zero.
    #[must_use]
    pub fn start() -> DaemonClock {
        DaemonClock {
            start: Instant::now(),
        }
    }

    /// Current protocol time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        Timestamp::EPOCH.add_secs(self.uptime_secs())
    }

    /// Whole seconds since start.
    #[must_use]
    pub fn uptime_secs(&self) -> u32 {
        u32::try_from(self.start.elapsed().as_secs()).unwrap_or(u32::MAX)
    }
}

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

/// The run-loop keys both daemons accept, in order: `burst` (max frames
/// per burst, 1..=1024, default 32), `run_secs` (optional auto-shutdown
/// deadline), `snapshot_every` (log appends between snapshots, default 1024).
pub fn loop_settings(cfg: &Config, config_path: &str) -> Result<(usize, Option<u32>, u64), String> {
    let err = |e: apna_io::config::ConfigError| format!("{config_path}: {e}");
    let burst = cfg.parsed::<usize>("burst").map_err(err)?.unwrap_or(32);
    if !(1..=1024).contains(&burst) {
        return Err(format!(
            "{config_path}: burst must be 1..=1024, got {burst}"
        ));
    }
    let run_secs = cfg.parsed::<u32>("run_secs").map_err(err)?;
    let snapshot_every = cfg.parsed::<u64>("snapshot_every").map_err(err)?;
    Ok((burst, run_secs, snapshot_every.unwrap_or(1024)))
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

/// One run-loop tick of the snapshot cadence, tallied into the daemon's
/// `snapshots` / `snapshot_errors` counters; a no-op while the log is
/// inactive or young. Call on the thread that mutates control state
/// (`ctrl_log`'s module contract: the image is then a consistent cut).
pub fn snapshot_tick(name: &str, infra: &AsInfra, every: u64, taken: &mut u64, failed: &mut u64) {
    match ctrl_log::maybe_snapshot(infra, every) {
        Ok(true) => *taken += 1,
        Ok(false) => {}
        Err(e) => {
            *failed += 1;
            eprintln!("{name}: snapshot: {e}");
        }
    }
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

/// The `apna-border` stats JSON; `delivered` is the socket's `tx_frames`
/// (the border sends nothing else), `ctrl_log` [`ctrl_log_json`]'s object.
/// Key paths and order are a contract: the loopback demo, the tests and
/// the benchmark harness read them.
#[must_use]
pub fn border_stats_json(
    core: &BorderCore<'_>,
    uptime_secs: u32,
    io: &IoCounters,
    ctrl_log: String,
) -> String {
    let mut drop_fields = vec![("total", core.drops.total().to_string())];
    for (reason, count) in core.drops.iter_nonzero() {
        drop_fields.push((reason.name(), count.to_string()));
    }
    let mut control_fields = vec![
        ("total", core.control.total().to_string()),
        ("rejected", core.control_rejected.to_string()),
    ];
    for (kind, count) in core.control.iter_nonzero() {
        control_fields.push((kind.name(), count.to_string()));
    }
    json_object(&[
        ("daemon", json_string("apna-border")),
        ("aid", core.node.aid().0.to_string()),
        ("uptime_secs", uptime_secs.to_string()),
        ("bursts", core.bursts.to_string()),
        ("egress_passed", core.egress_passed.to_string()),
        ("delivered", io.tx_frames.to_string()),
        ("forwarded_foreign", core.forwarded_foreign.to_string()),
        (
            "replay_filter_entries",
            core.router.replay_filter_entries().to_string(),
        ),
        ("io", io.to_json()),
        ("drops", json_object(&drop_fields)),
        ("control", json_object(&control_fields)),
        ("ctrl_log", ctrl_log),
    ])
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
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders a JSON string literal (escaping quotes and backslashes; the
/// daemons never emit control characters).
#[must_use]
pub fn json_string(s: &str) -> String {
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
