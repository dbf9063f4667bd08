//! `border_hostile`: `BorderRouter::process_batch` alone, two threads on
//! router clones sharing one replay filter, revocation list and host
//! table, fed bursts that mix many hosts and 30 % packets that must be
//! dropped — the use of the border the trips never make (two hosts, no
//! filter, empty revocation list, everything valid).
//!
//! The generator knows the verdict every packet must get; an op is a
//! packet whose verdict matches, any mismatch is a failure. Burst
//! generation (fresh nonces need fresh MACs) happens outside the timed
//! sections; throughput and latency are over the timed sections only.

use crate::harness::{setup_median, worker_exec, Ctx, Sample, SelfMeter, Window};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use apna::core::asnode::AsNode;
use apna::core::border::{BorderRouter, Direction, DropReason, Verdict};
use apna::core::directory::AsDirectory;
use apna::core::ephid::{self, EphIdPlain};
use apna::core::hid::Hid;
use apna::core::host::Host;
use apna::core::shutoff::RevocationOrder;
use apna::core::time::Timestamp;
use apna::crypto::cmac::CmacAes128;
use apna::wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, PacketBatch, ReplayMode};
use std::time::Instant;

/// Attached hosts (split evenly between the workers).
pub const HOSTS: usize = 512;
/// Revoked EphIDs in the list before the window opens.
pub const PRELOADED_REVOCATIONS: usize = 20_000;
/// Packets per burst.
pub const BURST: usize = 32;
/// Bytes per well-formed packet (56-byte nonce-extended header + payload).
pub const PACKET_LEN: usize = 128;
/// Worker threads.
pub const WORKERS: usize = 2;
/// Worker 0 pushes one revocation into the shared list every this many bursts.
pub const REVOKE_EVERY: u64 = 64;
/// Bursts generated per untimed generation phase.
const ROUND: usize = 32;

const MODE: ReplayMode = ReplayMode::NonceExtension;
const OWN_AID: Aid = Aid(6500);
const FOREIGN_AID: Aid = Aid(7700);
const NOW: Timestamp = Timestamp(100_000);
const PAYLOAD_LEN: usize = PACKET_LEN - 56;

/// What the generator makes of one packet slot. Shares out of 100:
/// 70 valid, 8 revoked, 6 expired, 6 forged (bad packet MAC on egress,
/// forged EphID tag on ingress), 6 replayed (egress; ingress has no
/// replay check, so these are forged there too), 4 truncated or garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Valid,
    Revoked,
    Expired,
    Forged,
    Replayed,
    Truncated,
    Garbage,
}

fn draw_kind(rng: &mut SplitMix64) -> Kind {
    match rng.below(100) {
        0..=69 => Kind::Valid,
        70..=77 => Kind::Revoked,
        78..=83 => Kind::Expired,
        84..=89 => Kind::Forged,
        90..=95 => Kind::Replayed,
        96..=97 => Kind::Truncated,
        _ => Kind::Garbage,
    }
}

struct HostileHost {
    hid: Hid,
    cmac: CmacAes128,
    valid: EphIdBytes,
    expired: EphIdBytes,
    revoked: EphIdBytes,
    /// Next fresh nonce per source EphID of this host.
    nonce: u64,
}

/// The shared AS and its hosts.
pub struct HostileWorld {
    node: AsNode,
    router: BorderRouter,
    hosts: Vec<HostileHost>,
    seed: u64,
}

/// A generated burst with the verdict each packet must receive.
struct Burst {
    direction: Direction,
    batch: PacketBatch,
    expected: Vec<Verdict>,
    distinct_hosts: usize,
}

impl HostileWorld {
    /// Attaches the hosts, issues their EphIDs, preloads the revocation
    /// list and turns the replay filter on.
    pub fn build(seed: u64) -> Result<HostileWorld, String> {
        let mut rng = SplitMix64::fork(seed, "border.world");
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(OWN_AID, rng.seed32(), &dir, NOW);
        let keys = &node.infra.keys;
        let seal = |hid: Hid, exp_time: Timestamp| {
            ephid::seal(
                keys,
                EphIdPlain { hid, exp_time },
                node.infra.iv_alloc.next_iv(),
            )
        };
        let mut router = node.br.clone();
        router.enable_replay_filter();

        let mut hosts = Vec::with_capacity(HOSTS);
        for _ in 0..HOSTS {
            let host = Host::attach(&node, MODE, NOW, rng.next_u64())
                .map_err(|e| format!("host attach: {e}"))?;
            let hid = ephid::open(keys, &host.control_ephid().0)
                .map_err(|e| format!("control EphID does not open: {e:?}"))?
                .hid;
            let revoked = seal(hid, NOW.add_secs(900));
            router
                .apply_revocation(&RevocationOrder::issue(keys, revoked, NOW.add_secs(900)))
                .map_err(|e| format!("apply_revocation: {e}"))?;
            hosts.push(HostileHost {
                hid,
                cmac: host.kha().packet_cmac(),
                valid: seal(hid, NOW.add_secs(900)),
                expired: seal(hid, NOW.sub_secs(100)),
                revoked,
                nonce: 1,
            });
        }
        for _ in 0..PRELOADED_REVOCATIONS {
            let unused = EphIdBytes(rng.array());
            router
                .apply_revocation(&RevocationOrder::issue(keys, unused, NOW.add_secs(900)))
                .map_err(|e| format!("apply_revocation: {e}"))?;
        }
        Ok(HostileWorld {
            node,
            router,
            hosts,
            seed,
        })
    }

    /// Runs both workers for `ctx.window`.
    pub fn run(&mut self, ctx: &Ctx, tracer: Tracer) -> Result<Window, String> {
        let per_worker = self.hosts.len() / WORKERS;
        let meter = SelfMeter::start()?;
        let t0 = meter.t0();
        let window = ctx.window;
        let node = &self.node;
        let router = &self.router;
        let seed = self.seed;
        let outcomes: Vec<(Result<WorkerOut, String>, Option<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .hosts
                .chunks_mut(per_worker)
                .take(WORKERS)
                .enumerate()
                .map(|(id, hosts)| {
                    let tracer = tracer.sibling();
                    let router = router.clone();
                    scope.spawn(move || {
                        let worker = Worker {
                            id,
                            hosts,
                            router,
                            node,
                            rng: SplitMix64::fork(
                                seed,
                                if id == 0 { "border.w0" } else { "border.w1" },
                            ),
                            tracer,
                            out: WorkerOut::default(),
                            burst_no: 0,
                        };
                        worker_exec(|| worker.run(t0, window))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| (Err("border worker panicked".to_string()), None))
                })
                .collect()
        });
        let (_wall, mut cpu, rss) = meter.stop()?;
        // This thread only waited; the workers' own exact CPU is the
        // window's (burst generation included: it runs on the same cores).
        cpu.exec = outcomes.iter().map(|(_, exec)| *exec).sum();

        let mut w = Window {
            cpu,
            peak_rss_mb: rss,
            ..Window::default()
        };
        let mut merged = tracer;
        let (mut passed, mut hosts_seen, mut bursts) = (0u64, 0u64, 0u64);
        for (out, _) in outcomes {
            let out = out?;
            w.timeline_s = w.timeline_s.max(out.timed_s);
            w.attempted += out.attempted;
            w.failed += out.failed;
            w.payload_bytes += out.bytes_ok;
            w.samples.extend(out.samples);
            w.violations.extend(out.violations);
            passed += out.passed;
            hosts_seen += out.distinct_hosts;
            bursts += out.bursts;
            merged.absorb(out.tracer);
        }
        w.violations.truncate(8);
        let packets = w.attempted.max(1) as f64;
        w.count("core.border.fast_path_ratio", passed as f64 / packets);
        w.count("core.border.mean_burst", packets / bursts.max(1) as f64);
        w.count(
            "core.hostinfo.hosts_per_burst",
            hosts_seen as f64 / bursts.max(1) as f64,
        );
        w.count(
            "core.revocation.entries",
            self.node.infra.revoked.len() as f64,
        );
        w.count(
            "core.replay.entries",
            self.router.replay_filter_entries() as f64,
        );
        w.tracer = merged.enabled().then_some(merged);
        Ok(w)
    }
}

#[derive(Default)]
struct WorkerOut {
    samples: Vec<Sample>,
    timed_s: f64,
    attempted: u64,
    failed: u64,
    passed: u64,
    bytes_ok: u64,
    bursts: u64,
    distinct_hosts: u64,
    violations: Vec<String>,
    tracer: Tracer,
}

struct Worker<'a> {
    id: usize,
    hosts: &'a mut [HostileHost],
    router: BorderRouter,
    node: &'a AsNode,
    rng: SplitMix64,
    tracer: Tracer,
    out: WorkerOut,
    burst_no: u64,
}

impl Worker<'_> {
    fn run(mut self, t0: Instant, window: std::time::Duration) -> Result<WorkerOut, String> {
        while t0.elapsed() < window {
            let round: Vec<Burst> = (0..ROUND).map(|_| self.generate()).collect();
            for burst in round {
                self.timed(burst);
                if self.id == 0 && self.out.bursts % REVOKE_EVERY == 0 {
                    self.revoke_one()?;
                }
            }
        }
        self.out.tracer = self.tracer;
        Ok(self.out)
    }

    fn packet(
        cmac: &CmacAes128,
        src: HostAddr,
        dst: HostAddr,
        nonce: u64,
        payload: &[u8],
        break_mac: bool,
    ) -> Vec<u8> {
        let mut header = ApnaHeader::new(src, dst).with_nonce(nonce);
        let mut mac: [u8; 8] = cmac.mac_truncated(&header.mac_input(payload));
        if break_mac {
            mac[3] ^= 0x40;
        }
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    /// Builds the next burst: every third is ingress, the rest egress.
    fn generate(&mut self) -> Burst {
        let direction = if self.burst_no % 3 == 2 {
            Direction::Ingress
        } else {
            Direction::Egress
        };
        self.burst_no += 1;
        let mut packets: Vec<Vec<u8>> = Vec::with_capacity(BURST);
        let mut expected = Vec::with_capacity(BURST);
        let mut touched: Vec<usize> = Vec::with_capacity(BURST);
        // Index of the latest valid egress packet of this burst: what a
        // replay slot duplicates.
        let mut last_valid: Option<usize> = None;
        let payload = self.rng.bytes(PAYLOAD_LEN);
        let foreign = HostAddr::new(FOREIGN_AID, EphIdBytes(self.rng.array()));
        for slot in 0..BURST {
            let mut kind = draw_kind(&mut self.rng);
            if kind == Kind::Replayed && (direction == Direction::Ingress || last_valid.is_none()) {
                kind = if direction == Direction::Ingress {
                    Kind::Forged
                } else {
                    Kind::Valid
                };
            }
            let h = self.rng.below(self.hosts.len() as u64) as usize;
            touched.push(h);
            let host = &mut self.hosts[h];
            let (wire, verdict) = match (kind, direction) {
                (Kind::Truncated, _) => {
                    let len = 8 + self.rng.below(40) as usize;
                    (self.rng.bytes(len), Verdict::Drop(DropReason::Malformed))
                }
                (Kind::Garbage, _) => {
                    // Full-length noise addressed into this AS: the EphID
                    // tag cannot verify (2⁻³² to pass by chance).
                    let noise = EphIdBytes(self.rng.array());
                    let (src, dst) = match direction {
                        Direction::Egress => (HostAddr::new(OWN_AID, noise), foreign),
                        Direction::Ingress => (foreign, HostAddr::new(OWN_AID, noise)),
                    };
                    (
                        Self::packet(&host.cmac, src, dst, 1, &payload, false),
                        Verdict::Drop(DropReason::BadEphId),
                    )
                }
                (Kind::Replayed, _) => {
                    let original = last_valid.unwrap_or(0);
                    (
                        packets[original].clone(),
                        Verdict::Drop(DropReason::Replayed),
                    )
                }
                (_, Direction::Egress) => {
                    let (ephid, verdict) = match kind {
                        Kind::Revoked => (host.revoked, Verdict::Drop(DropReason::Revoked)),
                        Kind::Expired => (host.expired, Verdict::Drop(DropReason::Expired)),
                        Kind::Forged => (host.valid, Verdict::Drop(DropReason::BadPacketMac)),
                        Kind::Valid | Kind::Replayed | Kind::Truncated | Kind::Garbage => (
                            host.valid,
                            Verdict::ForwardInter {
                                dst_aid: FOREIGN_AID,
                            },
                        ),
                    };
                    let nonce = host.nonce;
                    // Only packets that reach the filter advance the
                    // window; keeping one counter per host is enough for
                    // every kind to be fresh.
                    host.nonce += 1;
                    if kind == Kind::Valid {
                        last_valid = Some(slot);
                    }
                    (
                        Self::packet(
                            &host.cmac,
                            HostAddr::new(OWN_AID, ephid),
                            foreign,
                            nonce,
                            &payload,
                            kind == Kind::Forged,
                        ),
                        verdict,
                    )
                }
                (_, Direction::Ingress) => {
                    let (ephid, verdict) = match kind {
                        Kind::Revoked => (host.revoked, Verdict::Drop(DropReason::Revoked)),
                        Kind::Expired => (host.expired, Verdict::Drop(DropReason::Expired)),
                        Kind::Forged => {
                            let mut forged = host.valid;
                            forged.0[15] ^= 0x01;
                            (forged, Verdict::Drop(DropReason::BadEphId))
                        }
                        Kind::Valid | Kind::Replayed | Kind::Truncated | Kind::Garbage => {
                            (host.valid, Verdict::DeliverLocal { hid: host.hid })
                        }
                    };
                    (
                        Self::packet(
                            &host.cmac,
                            foreign,
                            HostAddr::new(OWN_AID, ephid),
                            slot as u64,
                            &payload,
                            false,
                        ),
                        verdict,
                    )
                }
            };
            packets.push(wire);
            expected.push(verdict);
        }
        touched.sort_unstable();
        touched.dedup();
        Burst {
            direction,
            batch: PacketBatch::from_packets(MODE, packets),
            expected,
            distinct_hosts: touched.len(),
        }
    }

    /// The timed section: one `process_batch`, then (untimed) the check
    /// of every verdict against the generator's.
    fn timed(&mut self, mut burst: Burst) {
        let name = match burst.direction {
            Direction::Egress => "core.border.egress",
            Direction::Ingress => "core.border.ingress",
        };
        let span = self.tracer.begin(name, self.out.bursts);
        let t = Instant::now();
        let verdicts = self
            .router
            .process_batch(burst.direction, &mut burst.batch, NOW);
        let secs = t.elapsed().as_secs_f64();
        self.tracer.end(span, burst.expected.len());

        let out = &mut self.out;
        out.timed_s += secs;
        out.bursts += 1;
        out.distinct_hosts += burst.distinct_hosts as u64;
        out.passed += verdicts.passed();
        let mut ok = 0u32;
        for (i, (got, want)) in verdicts.verdicts().iter().zip(&burst.expected).enumerate() {
            if got == want {
                ok += 1;
                out.bytes_ok += burst.batch.bytes(i).len() as u64;
            } else if out.violations.len() < 8 {
                out.violations.push(format!(
                    "worker {} burst {} slot {i}: verdict {got:?}, generator expected {want:?}",
                    self.id, out.bursts
                ));
            }
        }
        let n = burst.expected.len() as u64;
        out.attempted += n;
        out.failed += n - u64::from(ok);
        if verdicts.len() != burst.expected.len() && out.violations.len() < 8 {
            out.violations.push(format!(
                "burst {}: {} verdicts for {n} packets",
                out.bursts,
                verdicts.len()
            ));
        }
        out.samples.push(Sample {
            at: out.timed_s,
            lat_us: secs * 1e6,
            ops: ok,
        });
    }

    /// The concurrent writer: one more entry in the shared list. The
    /// EphID is never used by traffic, so no expectation changes.
    fn revoke_one(&mut self) -> Result<(), String> {
        let unused = EphIdBytes(self.rng.array());
        let order = RevocationOrder::issue(&self.node.infra.keys, unused, NOW.add_secs(900));
        let span = self.tracer.begin("core.revocation.apply", self.out.bursts);
        let applied = self.router.apply_revocation(&order);
        self.tracer.end(span, 1);
        applied.map_err(|e| format!("apply_revocation: {e}"))
    }
}

/// Set-up (median of the repeats) of the hostile world.
pub fn setup(ctx: &Ctx) -> Result<(HostileWorld, f64), String> {
    setup_median(|_| HostileWorld::build(ctx.seed))
}
