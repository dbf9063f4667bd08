//! `issue_durable` / `issue_volatile`: the control plane the way the
//! daemons drive it — pre-sealed `EphIdRequest` frames in batches of 16
//! through `AsNode::handle_control_batch`.
//!
//! *Durable* runs one thread (the `ctrl_log` contract) with a file sink
//! attached, so `core.ctrl_log` append + sync is on the path, and ends
//! by replaying snapshot + log into a fresh mirrored AS. *Volatile* runs
//! the same requests with no log on two threads, each owning half the
//! hosts: asymmetric crypto and the shard locks dominate and the log
//! does nothing.
//!
//! An op is a verified issuance: the reply opens under the host's key,
//! parses as a certificate, and carries an EphID no other reply of the
//! run carried. Every 16th reply is also finished the way a host
//! finishes an acquisition (`management::client::accept_reply`, which
//! is what `HostAgent::complete_acquire` runs), signature check
//! included. Latency is batch submit → replies.

use crate::harness::{setup_median, worker_exec, Ctx, Sample, SelfMeter, Window};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use apna::core::asnode::AsNode;
use apna::core::cert::{CertKind, EphIdCert};
use apna::core::control::{ControlMsg, ControlPlane};
use apna::core::ctrl_log;
use apna::core::directory::AsDirectory;
use apna::core::host::Host;
use apna::core::keys::{EphIdKeyPair, HostAsKey};
use apna::core::management::client as ms_client;
use apna::core::time::{ExpiryClass, Timestamp};
use apna::crypto::ed25519::VerifyingKey;
use apna::crypto::gcm::AesGcm128;
use apna::wire::{Aid, EphIdBytes, ReplayMode};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Attached hosts.
pub const HOSTS: usize = 1024;
/// Requests per `handle_control_batch` call.
pub const BATCH: usize = 16;
/// HID shards of the AS.
pub const SHARDS: usize = 16;
/// Log appends between snapshots (the daemons default to 1024; 256
/// makes several snapshots fall inside a ten-second window).
pub const SNAPSHOT_EVERY: u64 = 256;
/// One reply in this many is finished with the full host-side check.
pub const FULL_CHECK_EVERY: u64 = 16;
/// Restarts timed for `recover_ms`.
pub const RECOVERIES: usize = 5;

const NOW: Timestamp = Timestamp(1_000);
const OWN_AID: Aid = Aid(3300);

/// One attached host and its pre-sealed request.
struct Client {
    frame: Vec<u8>,
    ctrl: EphIdBytes,
    kha: HostAsKey,
    aead: AesGcm128,
    keypair: EphIdKeyPair,
}

/// The AS, its hosts and (durable variant) its log.
pub struct IssueWorld {
    node: AsNode,
    as_seed: [u8; 32],
    clients: Vec<Client>,
    vk: VerifyingKey,
    log_path: Option<PathBuf>,
}

impl IssueWorld {
    /// Builds the AS, attaches `hosts` hosts ([`HOSTS`] for the
    /// workloads), seals one request per host and — when `log_dir` is
    /// given — attaches a file-backed control log and takes the initial
    /// snapshot, the order the daemons use.
    pub fn build(seed: u64, hosts: usize, log_dir: Option<&Path>) -> Result<IssueWorld, String> {
        let mut rng = SplitMix64::fork(seed, "issue.world");
        let as_seed = rng.seed32();
        let node =
            AsNode::from_seed_with_shards(OWN_AID, as_seed, &AsDirectory::new(), NOW, SHARDS);
        let mut clients = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            let host = Host::attach(&node, ReplayMode::Disabled, NOW, rng.next_u64())
                .map_err(|e| format!("host attach: {e}"))?;
            let keypair = EphIdKeyPair::from_seed(rng.seed32());
            let (ctrl, _) = host.control_ephid();
            let request = ms_client::build_request(
                host.kha(),
                ctrl,
                &keypair,
                CertKind::Data,
                ExpiryClass::Short,
                rng.array(),
            );
            clients.push(Client {
                frame: ControlMsg::EphIdRequest(request).serialize(),
                ctrl,
                kha: host.kha().clone(),
                aead: host.kha().request_aead(),
                keypair,
            });
        }
        let log_path = match log_dir {
            None => None,
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = dir.join("ctrl.log");
                ctrl_log::attach_file(&node.infra, &path)?;
                // Hosts attached before the log did (as in the daemons),
                // so the first snapshot is what makes them durable.
                if !ctrl_log::maybe_snapshot(&node.infra, 0)? {
                    return Err("initial snapshot was not taken".to_string());
                }
                Some(path)
            }
        };
        Ok(IssueWorld {
            vk: node.infra.keys.verifying_key(),
            node,
            as_seed,
            clients,
            log_path,
        })
    }

    /// Runs the issuance loop for `ctx.window` on `threads` threads,
    /// each owning an equal share of the hosts.
    pub fn run(&mut self, ctx: &Ctx, tracer: Tracer, threads: usize) -> Result<Window, String> {
        let durable = self.log_path.is_some();
        if durable && threads != 1 {
            return Err("the durable control log is single-writer".to_string());
        }
        let io_errors_before = self.log_stats().io_errors;
        let records_before = self.log_stats().appended_records;
        let issued_before = self.node.infra.iv_alloc.issued();

        let meter = SelfMeter::start()?;
        let t0 = meter.t0();
        let per_thread = self.clients.len() / threads;
        let (node, vk, window) = (&self.node, &self.vk, ctx.window);
        let outs: Vec<(WorkerOut, Option<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .chunks(per_thread)
                .take(threads)
                .map(|clients| {
                    let tracer = tracer.sibling();
                    scope.spawn(move || {
                        worker_exec(|| worker(node, vk, clients, tracer, t0, window, durable))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "issuance worker panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let (wall, mut cpu, rss) = meter.stop()?;
        // This thread only waited: the workers' own exact CPU counts.
        cpu.exec = outs.iter().map(|(_, exec)| *exec).sum();

        let mut w = Window {
            timeline_s: wall,
            cpu,
            peak_rss_mb: rss,
            ..Window::default()
        };
        let mut merged = tracer;
        let mut all: HashSet<[u8; 16]> = HashSet::new();
        let (mut verified, mut refused, mut snapshots) = (0u64, 0u64, 0u64);
        for (out, _) in outs {
            w.attempted += out.attempted;
            w.failed += out.failed;
            w.payload_bytes += out.reply_bytes;
            w.samples.extend(out.samples);
            w.violations.extend(out.violations);
            verified += out.seen.len() as u64;
            refused += out.refused;
            snapshots += out.snapshots;
            all.extend(out.seen);
            merged.absorb(out.tracer);
        }
        if all.len() as u64 != verified {
            w.violations.push(format!(
                "{} verified replies carried only {} distinct EphIDs",
                verified,
                all.len()
            ));
        }
        w.count("core.management.refused", refused as f64);
        let stats = self.log_stats();
        let issued = f64::from(self.node.infra.iv_alloc.issued() - issued_before).max(1.0);
        w.count(
            "core.ctrl_log.records",
            (stats.appended_records - records_before) as f64,
        );
        w.count(
            "core.ctrl_log.io_errors",
            (stats.io_errors - io_errors_before) as f64,
        );
        w.count("core.ctrl_log.snapshots", snapshots as f64);
        // Inside the window the log takes IV reservations only (hosts
        // registered during set-up), so appended bytes are records × the
        // encoded size of one reservation.
        let record_len = ctrl_log::encode_record(&ctrl_log::Record::IvWatermark(0)).len();
        w.count(
            "core.ctrl_log.bytes_per_issue",
            (stats.appended_records - records_before) as f64 * record_len as f64 / issued,
        );
        if stats.io_errors != io_errors_before {
            w.violations.push(format!(
                "{} control-log I/O errors",
                stats.io_errors - io_errors_before
            ));
        }
        if durable {
            self.recover(&mut w, &mut merged)?;
        }
        w.violations.truncate(8);
        w.tracer = merged.enabled().then_some(merged);
        Ok(w)
    }

    /// Stages `handle_control_batch` hides, called stand-alone on this
    /// world's own frames: envelope parse, the Management Service's
    /// batched issuance, and one log append (sync included) on the same
    /// sink.
    pub fn stage_probes(&self, tracer: &mut Tracer, rounds: usize) {
        let frames: Vec<&[u8]> = self
            .clients
            .iter()
            .take(BATCH)
            .map(|c| c.frame.as_slice())
            .collect();
        for round in 0..rounds as u64 {
            let span = tracer.begin("core.control.parse", round);
            let parsed: Vec<ControlMsg> = frames
                .iter()
                .filter_map(|f| ControlMsg::parse(f).ok())
                .collect();
            tracer.end(span, parsed.len());
            let requests: Vec<&apna::core::management::EphIdRequest> = parsed
                .iter()
                .filter_map(|m| match m {
                    ControlMsg::EphIdRequest(r) => Some(r),
                    ControlMsg::EphIdReply(_)
                    | ControlMsg::RevocationAnnounce(_)
                    | ControlMsg::ShutoffRequest(_)
                    | ControlMsg::ShutoffAck(_)
                    | ControlMsg::DnsRegister(_)
                    | ControlMsg::DnsUpdate(_)
                    | ControlMsg::DnsAck { .. }
                    | ControlMsg::EphIdBusy(_) => None,
                })
                .collect();
            let span = tracer.begin("core.management.issue", round);
            let replies = self.node.ms.handle_request_batch(&requests, NOW);
            tracer.end(span, replies.iter().filter(|r| r.is_ok()).count());
            if self.log_path.is_some() {
                let span = tracer.begin("core.ctrl_log.append", round);
                self.node
                    .infra
                    .ctrl_log
                    .append(&ctrl_log::Record::IvWatermark(
                        self.node.infra.iv_alloc.issued(),
                    ));
                tracer.end(span, 1);
            }
        }
    }

    /// Takes a snapshot now, whatever the append count.
    pub fn force_snapshot(&self) -> Result<(), String> {
        ctrl_log::maybe_snapshot(&self.node.infra, 0).map(drop)
    }

    fn log_stats(&self) -> ctrl_log::LogStats {
        self.node.infra.ctrl_log.stats().unwrap_or_default()
    }

    /// Restart: replay this run's snapshot + log into a fresh AS built
    /// from the same seed, [`RECOVERIES`] times; the median is
    /// `recover_ms`. The replayed IV watermark must cover every IV the
    /// live AS handed out, and every host must be back.
    fn recover(&self, w: &mut Window, tracer: &mut Tracer) -> Result<(), String> {
        let Some(live) = self.log_path.as_deref() else {
            return Ok(());
        };
        let issued = self.node.infra.iv_alloc.issued();
        let hosts = self.node.infra.host_db.valid_count();
        let mut times = Vec::with_capacity(RECOVERIES);
        let mut records = 0u64;
        for round in 0..RECOVERIES {
            let copy = live.with_file_name(format!("restart-{round}.log"));
            std::fs::copy(live, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
            std::fs::copy(
                ctrl_log::snapshot_path(live),
                ctrl_log::snapshot_path(&copy),
            )
            .map_err(|e| format!("{}.snap: {e}", copy.display()))?;
            let fresh = AsNode::from_seed_with_shards(
                OWN_AID,
                self.as_seed,
                &AsDirectory::new(),
                NOW,
                SHARDS,
            );
            let span = tracer.begin("core.ctrl_log.replay", round as u64);
            let t = Instant::now();
            let summary = ctrl_log::attach_file(&fresh.infra, &copy)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span, summary.records as usize);
            records = summary.records;
            if summary.torn_tail {
                w.violations
                    .push("replay found a torn tail in an intact log".to_string());
            }
            if summary.watermark < issued || fresh.infra.iv_alloc.issued() < issued {
                w.violations.push(format!(
                    "replayed IV watermark {} does not cover the {issued} IVs handed out",
                    summary.watermark
                ));
            }
            if fresh.infra.host_db.valid_count() != hosts {
                w.violations.push(format!(
                    "{} hosts valid after replay, {hosts} before",
                    fresh.infra.host_db.valid_count()
                ));
            }
        }
        let recover_ms = crate::stats::median(&times);
        w.count("e2e.recover_ms", recover_ms);
        w.count("core.ctrl_log.replayed_records", records as f64);
        Ok(())
    }
}

#[derive(Default)]
struct WorkerOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    refused: u64,
    reply_bytes: u64,
    snapshots: u64,
    seen: HashSet<[u8; 16]>,
    violations: Vec<String>,
    tracer: Tracer,
}

/// Opens one reply frame the cheap way: AEAD open under the host's key,
/// certificate parse. Returns the issued EphID.
fn open_reply(client: &Client, frame: &[u8]) -> Result<(EphIdCert, ControlMsg), String> {
    let msg = ControlMsg::parse(frame).map_err(|e| format!("reply does not parse: {e}"))?;
    let ControlMsg::EphIdReply(reply) = &msg else {
        return Err(format!("reply is a {}", msg.kind().name()));
    };
    let plain = client
        .aead
        .open(&reply.nonce, client.ctrl.as_bytes(), &reply.sealed)
        .map_err(|e| format!("reply does not open under the host key: {e}"))?;
    let cert = EphIdCert::parse(&plain).map_err(|e| format!("certificate does not parse: {e}"))?;
    Ok((cert, msg))
}

fn worker(
    node: &AsNode,
    vk: &VerifyingKey,
    clients: &[Client],
    mut tracer: Tracer,
    t0: Instant,
    window: std::time::Duration,
    durable: bool,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut offset = 0usize;
    let mut batch_no = 0u64;
    let window_s = window.as_secs_f64();
    loop {
        let started = t0.elapsed().as_secs_f64();
        if started >= window_s {
            break;
        }
        let picked: Vec<&Client> = (0..BATCH)
            .map(|i| &clients[(offset + i) % clients.len()])
            .collect();
        offset = (offset + BATCH) % clients.len();
        let frames: Vec<&[u8]> = picked.iter().map(|c| c.frame.as_slice()).collect();

        let span = tracer.begin("core.control.dispatch", batch_no);
        let results = node.handle_control_batch(&frames, NOW);
        tracer.end(span, frames.len());
        let done = t0.elapsed().as_secs_f64();

        let mut ok = 0u32;
        for (client, result) in picked.iter().zip(&results) {
            out.attempted += 1;
            let verdict = match result {
                Ok(Some(frame)) => open_reply(client, frame).and_then(|(cert, msg)| {
                    out.reply_bytes += frame.len() as u64;
                    if !out.seen.insert(cert.ephid.0) {
                        return Err("an EphID was issued twice".to_string());
                    }
                    if out.attempted % FULL_CHECK_EVERY == 0 {
                        if let ControlMsg::EphIdReply(reply) = &msg {
                            ms_client::accept_reply(
                                &client.kha,
                                client.ctrl,
                                &client.keypair,
                                vk,
                                reply,
                                NOW,
                            )
                            .map_err(|e| format!("host-side acceptance failed: {e}"))?;
                        }
                    }
                    Ok(())
                }),
                Ok(None) => Err("request produced no reply".to_string()),
                Err(e) => {
                    out.refused += 1;
                    Err(format!("request refused: {e}"))
                }
            };
            match verdict {
                Ok(()) => ok += 1,
                Err(why) => {
                    out.failed += 1;
                    if out.violations.len() < 8 {
                        out.violations.push(format!("batch {batch_no}: {why}"));
                    }
                }
            }
        }
        if results.len() != frames.len() && out.violations.len() < 8 {
            out.violations.push(format!(
                "batch {batch_no}: {} results for {BATCH} frames",
                results.len()
            ));
        }
        out.samples.push(Sample {
            at: done,
            lat_us: (done - started) * 1e6,
            ops: ok,
        });

        // Same thread as every control mutation, between batches: the
        // run loops' snapshot cadence.
        if durable && node.infra.ctrl_log.snapshot_due(SNAPSHOT_EVERY).is_some() {
            let span = tracer.begin("core.ctrl_log.snapshot", batch_no);
            let taken = ctrl_log::maybe_snapshot(&node.infra, SNAPSHOT_EVERY);
            tracer.end(span, 1);
            match taken {
                Ok(_) => out.snapshots += 1,
                Err(e) if out.violations.len() < 8 => {
                    out.violations.push(format!("snapshot failed: {e}"));
                }
                Err(_) => {}
            }
        }
        batch_no += 1;
    }
    out.tracer = tracer;
    out
}

/// Set-up (median of the repeats) of the issuance world.
pub fn setup(ctx: &Ctx, durable: bool) -> Result<(IssueWorld, f64), String> {
    let dir = ctx.out_dir.join(ctx.workload);
    setup_median(|_| IssueWorld::build(ctx.seed, HOSTS, durable.then_some(dir.as_path())))
}
