//! The real `apna-gateway` + `apna-border` pair as child processes on
//! 127.0.0.1 (the loopback interface, not a link), observed only from
//! outside: their stats endpoints, `/proc/<pid>/stat`, and — when the
//! relay is on — a UDP relay placed between them.
//!
//! ```text
//! driver ──legacy UDP──▶ apna-gateway ──GRE-in-UDP──▶ [relay a] ──▶ apna-border
//!        ◀─legacy UDP──       ▲                                        │
//!                             └──────────── [relay b] ◀────────────────┘
//! ```
//!
//! The driver socket is both the legacy client and the legacy server:
//! the gateway is configured to deliver reconstructed datagrams back to
//! it, so one socket sends and receives.

use crate::json::{self, Value};
use crate::procfs::{self, CpuTime};
use apna::core::deploy;
use apna::gateway::LegacyPacket;
use apna::io::stats::stats_request;
use apna::wire::ipv4::Ipv4Addr;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The placeholder address the client-side gateway synthesizes for the
/// DNS-published service (deterministic; pinned by the gateway's tests).
pub const SYNTH_IP: Ipv4Addr = Ipv4Addr([198, 18, 0, 1]);
/// Port of the legacy service behind the server-side gateway.
pub const SERVICE_PORT: u16 = 7777;
/// How long the daemons may take to answer their first stats request.
const START_DEADLINE: Duration = Duration::from_secs(20);

/// What to start.
#[derive(Debug, Clone)]
pub struct PairSpec {
    /// Directory (inside `benchmark/out`) for seed, configs and logs.
    pub dir: PathBuf,
    /// Directory holding the daemon executables.
    pub bin_dir: PathBuf,
    /// AS master seed.
    pub as_seed: [u8; 32],
    /// Host-bootstrap seeds: client-side gateway, server-side gateway.
    pub host_seeds: [u64; 2],
    /// `refresh_margin_secs` of the gateway.
    pub refresh_margin_secs: u32,
    /// Put the benchmark's UDP relay between the daemons.
    pub relay: bool,
}

/// The two sockets of the relay: `a` stands in for the border towards
/// the gateway, `b` stands in for the gateway towards the border.
pub struct Relay {
    /// Receives what the gateway sends to "the border".
    pub a: UdpSocket,
    /// Receives what the border sends to "the gateway".
    pub b: UdpSocket,
    border: SocketAddr,
    gateway: SocketAddr,
}

impl Relay {
    /// Forwards one datagram that arrived on `a` to the border.
    pub fn forward_to_border(&self, datagram: &[u8]) -> Result<(), String> {
        self.a
            .send_to(datagram, self.border)
            .map(drop)
            .map_err(|e| format!("relay → border: {e}"))
    }

    /// Forwards one datagram that arrived on `b` to the gateway.
    pub fn forward_to_gateway(&self, datagram: &[u8]) -> Result<(), String> {
        self.b
            .send_to(datagram, self.gateway)
            .map(drop)
            .map_err(|e| format!("relay → gateway: {e}"))
    }
}

/// One running daemon.
pub struct Daemon {
    name: &'static str,
    child: Child,
    /// Its stats / shutdown endpoint.
    pub stats_addr: SocketAddr,
    /// Milliseconds from spawn to its first stats reply.
    pub start_ms: f64,
    /// The config file it was started with, verbatim.
    pub config: String,
}

impl Daemon {
    /// Operating-system process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time used so far.
    pub fn cpu(&self) -> Result<CpuTime, String> {
        procfs::cpu_of(self.pid())
    }

    /// Current stats JSON, parsed.
    pub fn stats(&self) -> Result<Value, String> {
        let text = stats_request(self.stats_addr, "stats")
            .map_err(|e| format!("{}: stats: {e}", self.name))?;
        json::parse(&text).map_err(|e| format!("{}: stats JSON: {e}", self.name))
    }

    /// Asks the daemon to drain and exit, waits for it, and returns its
    /// final counters. Falls back to killing it if it does not go.
    fn shutdown(&mut self) -> Result<Value, String> {
        let reply = stats_request(self.stats_addr, "shutdown");
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break Err(format!("{} did not exit after shutdown; killed", self.name));
                }
                Err(e) => break Err(format!("{}: wait: {e}", self.name)),
            }
        }?;
        if !status.success() {
            return Err(format!("{} exited with {status}", self.name));
        }
        let text = reply.map_err(|e| format!("{}: shutdown: {e}", self.name))?;
        json::parse(&text).map_err(|e| format!("{}: final stats JSON: {e}", self.name))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Whatever path led here, no child outlives the benchmark.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The running pair plus the driver's legacy socket.
pub struct DaemonPair {
    /// `apna-gateway`.
    pub gateway: Daemon,
    /// `apna-border`.
    pub border: Daemon,
    /// Legacy client *and* legacy server (see module docs).
    pub legacy: UdpSocket,
    /// Where legacy datagrams go: the gateway's `legacy_listen`.
    pub legacy_gw: SocketAddr,
    /// The relay, when the spec asked for one.
    pub relay: Option<Relay>,
}

fn free_udp_port() -> Result<u16, String> {
    UdpSocket::bind("127.0.0.1:0")
        .and_then(|s| s.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("allocate UDP port: {e}"))
}

fn free_tcp_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("allocate TCP port: {e}"))
}

fn local(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

fn spawn(
    name: &'static str,
    bin_dir: &Path,
    config_path: &Path,
    config: String,
    stats_port: u16,
) -> Result<Daemon, String> {
    let bin = bin_dir.join(name);
    std::fs::write(config_path, &config).map_err(|e| format!("{}: {e}", config_path.display()))?;
    let child = Command::new(&bin)
        .arg(config_path)
        .stdin(Stdio::null())
        // The final-stats dump is fetched over the endpoint instead.
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok(Daemon {
        name,
        child,
        stats_addr: local(stats_port),
        start_ms: 0.0,
        config,
    })
}

impl DaemonPair {
    /// Writes the seed and config files, starts both daemons and waits
    /// until both answer a stats request.
    pub fn start(spec: &PairSpec) -> Result<DaemonPair, String> {
        std::fs::create_dir_all(&spec.dir).map_err(|e| format!("{}: {e}", spec.dir.display()))?;
        // A previous run's logs would be replayed as this run's state.
        for stale in [
            "gateway.ctrl.log",
            "gateway.ctrl.log.snap",
            "border.ctrl.log",
            "border.ctrl.log.snap",
        ] {
            let _ = std::fs::remove_file(spec.dir.join(stale));
        }
        let dir = spec
            .dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", spec.dir.display()))?;
        let seed_path = dir.join("as.seed");
        std::fs::write(&seed_path, deploy::encode_seed_file(&spec.as_seed))
            .map_err(|e| format!("{}: {e}", seed_path.display()))?;

        let legacy = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("driver socket: {e}"))?;
        let driver_addr = legacy
            .local_addr()
            .map_err(|e| format!("driver socket: {e}"))?;
        let (border_udp, gateway_udp, legacy_udp) =
            (free_udp_port()?, free_udp_port()?, free_udp_port()?);
        let (border_stats, gateway_stats) = (free_tcp_port()?, free_tcp_port()?);

        let relay = if spec.relay {
            let bind = || UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("relay socket: {e}"));
            Some(Relay {
                a: bind()?,
                b: bind()?,
                border: local(border_udp),
                gateway: local(gateway_udp),
            })
        } else {
            None
        };
        let addr_of = |s: &UdpSocket| s.local_addr().map_err(|e| format!("relay socket: {e}"));
        let (gateways_border, borders_gateway) = match &relay {
            Some(r) => (addr_of(&r.a)?, addr_of(&r.b)?),
            None => (local(border_udp), local(gateway_udp)),
        };

        let [client_seed, server_seed] = spec.host_seeds;
        let border_conf = format!(
            "# apna-benchmark: border daemon\n\
             aid = 42\n\
             seed_file = {seed}\n\
             listen = 127.0.0.1:{border_udp}\n\
             gateway = {borders_gateway}\n\
             tunnel_local = 10.77.0.254\n\
             tunnel_peer = 10.77.0.1\n\
             stats_listen = 127.0.0.1:{border_stats}\n\
             ctrl_log = {log}\n\
             host = {client_seed}\n\
             host = {server_seed}\n\
             run_secs = 300\n",
            seed = seed_path.display(),
            log = dir.join("border.ctrl.log").display(),
        );
        let gateway_conf = format!(
            "# apna-benchmark: gateway daemon\n\
             aid = 42\n\
             seed_file = {seed}\n\
             apna_listen = 127.0.0.1:{gateway_udp}\n\
             border = {gateways_border}\n\
             legacy_listen = 127.0.0.1:{legacy_udp}\n\
             legacy_deliver = {driver_addr}\n\
             stats_listen = 127.0.0.1:{gateway_stats}\n\
             gateway_ip = 10.77.0.1\n\
             router_ip = 10.77.0.254\n\
             refresh_margin_secs = {margin}\n\
             ctrl_log = {log}\n\
             host = {client_seed}\n\
             host = {server_seed}\n\
             run_secs = 300\n",
            seed = seed_path.display(),
            margin = spec.refresh_margin_secs,
            log = dir.join("gateway.ctrl.log").display(),
        );

        let spawned = Instant::now();
        let mut border = spawn(
            "apna-border",
            &spec.bin_dir,
            &dir.join("border.conf"),
            border_conf,
            border_stats,
        )?;
        let mut gateway = spawn(
            "apna-gateway",
            &spec.bin_dir,
            &dir.join("gateway.conf"),
            gateway_conf,
            gateway_stats,
        )?;
        let (mut border_up, mut gateway_up) = (false, false);
        while !(border_up && gateway_up) {
            for (daemon, up) in [
                (&mut border, &mut border_up),
                (&mut gateway, &mut gateway_up),
            ] {
                if *up {
                    continue;
                }
                if let Ok(Some(status)) = daemon.child.try_wait() {
                    return Err(format!(
                        "{} exited during start-up with {status}",
                        daemon.name
                    ));
                }
                if matches!(stats_request(daemon.stats_addr, "stats"), Ok(reply) if reply.starts_with('{'))
                {
                    daemon.start_ms = spawned.elapsed().as_secs_f64() * 1e3;
                    *up = true;
                }
            }
            if spawned.elapsed() > START_DEADLINE {
                return Err("daemon stats endpoints never came up".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(DaemonPair {
            gateway,
            border,
            legacy,
            legacy_gw: local(legacy_udp),
            relay,
        })
    }

    /// Combined CPU of both daemons so far.
    pub fn cpu(&self) -> Result<(CpuTime, CpuTime), String> {
        Ok((self.gateway.cpu()?, self.border.cpu()?))
    }

    /// Largest peak resident set of the two daemons, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(procfs::peak_rss_mb_of(self.gateway.pid())?
            .max(procfs::peak_rss_mb_of(self.border.pid())?))
    }

    /// Sends one legacy datagram towards the gateway.
    pub fn send_legacy(&self, pkt: &LegacyPacket) -> Result<(), String> {
        self.legacy
            .send_to(&pkt.serialize(), self.legacy_gw)
            .map(drop)
            .map_err(|e| format!("legacy send: {e}"))
    }

    /// Establishes `flows` by sending each one's first datagram and
    /// waiting until every payload has been delivered back, pumping the
    /// relay meanwhile when there is one.
    pub fn warm(&self, flows: &[(Ipv4Addr, u16)], payload: &[u8]) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        self.legacy
            .set_nonblocking(true)
            .map_err(|e| format!("driver socket: {e}"))?;
        let mut buf = vec![0u8; 16 * 1024];
        let mut delivered = 0usize;
        for (i, &(src, port)) in flows.iter().enumerate() {
            let mut body = payload.to_vec();
            let n = body.len().min(8);
            body[..n].copy_from_slice(&(i as u64).to_le_bytes()[..n]);
            self.send_legacy(&LegacyPacket::udp(src, port, SYNTH_IP, SERVICE_PORT, &body))?;
            // A short gap keeps the first burst inside the daemons'
            // default socket buffers.
            let gap = Instant::now() + Duration::from_micros(300);
            while Instant::now() < gap {
                delivered += self.pump(&mut buf)?;
            }
        }
        while delivered < flows.len() {
            delivered += self.pump(&mut buf)?;
            if Instant::now() > deadline {
                return Err(format!(
                    "only {delivered} of {} warm-up datagrams were delivered",
                    flows.len()
                ));
            }
        }
        // The accepts are still on their way back to the client side.
        let settle = Instant::now() + Duration::from_millis(60);
        while Instant::now() < settle {
            self.pump(&mut buf)?;
        }
        self.legacy
            .set_nonblocking(false)
            .map_err(|e| format!("driver socket: {e}"))
    }

    /// One non-blocking service round: forwards whatever waits on the
    /// relay and counts legacy deliveries. The legacy socket must be
    /// non-blocking.
    fn pump(&self, buf: &mut [u8]) -> Result<usize, String> {
        if let Some(relay) = &self.relay {
            relay
                .a
                .set_nonblocking(true)
                .map_err(|e| format!("relay: {e}"))?;
            relay
                .b
                .set_nonblocking(true)
                .map_err(|e| format!("relay: {e}"))?;
            while let Ok(n) = relay.a.recv(buf) {
                relay.forward_to_border(&buf[..n])?;
            }
            while let Ok(n) = relay.b.recv(buf) {
                relay.forward_to_gateway(&buf[..n])?;
            }
        }
        let mut delivered = 0;
        while self.legacy.recv(buf).is_ok() {
            delivered += 1;
        }
        if delivered == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(delivered)
    }

    /// Stops both daemons and returns their final counters
    /// `(gateway, border)`.
    pub fn stop(mut self) -> Result<(Value, Value), String> {
        let gateway = self.gateway.shutdown();
        let border = self.border.shutdown();
        Ok((gateway?, border?))
    }
}

/// Reads `a.b.c` out of nested stats JSON as a number (0 when absent:
/// the daemons omit zero drop and control counters).
pub fn stat(json: &Value, path: &str) -> f64 {
    let mut v = json;
    for key in path.split('.') {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// The daemon executables this benchmark drives.
pub const DAEMON_BINS: [&str; 2] = ["apna-border", "apna-gateway"];

/// Builds the daemons from the repository's own manifest into
/// `target_dir` (a no-op when they are fresh). Compilation is not part
/// of any metric.
pub fn build_daemons(repo_root: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let manifest = repo_root.join("Cargo.toml");
    if !manifest.is_file() || !repo_root.join("src/bin/apna-border.rs").is_file() {
        return Err(format!(
            "{} is not the apna repository root (no Cargo.toml / src/bin/apna-border.rs)",
            repo_root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo_root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "apna",
            "--bins",
            "--target-dir",
        ])
        .arg(target_dir)
        .stdin(Stdio::null())
        // Cargo's own output goes to stderr; stdout stays the benchmark's.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemons failed with {status}"));
    }
    let bin_dir = target_dir.join("release");
    for bin in DAEMON_BINS {
        if !bin_dir.join(bin).is_file() {
            return Err(format!("{} was not built", bin_dir.join(bin).display()));
        }
    }
    Ok(bin_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_walks_nested_objects_and_defaults_to_zero() {
        let v = json::parse(
            "{\"io\": {\"rx_frames\": 12, \"name\": \"x\"}, \"drops\": {\"total\": 0}}",
        )
        .unwrap();
        assert_eq!(stat(&v, "io.rx_frames"), 12.0);
        assert_eq!(stat(&v, "drops.total"), 0.0);
        assert_eq!(stat(&v, "drops.revoked"), 0.0);
        assert_eq!(stat(&v, "io.name"), 0.0);
        assert_eq!(stat(&v, "nothing.here"), 0.0);
    }

    #[test]
    fn build_refuses_a_directory_that_is_not_the_repository() {
        let dir = std::env::temp_dir();
        assert!(build_daemons(&dir, &dir.join("t")).is_err());
    }
}
