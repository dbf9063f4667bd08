//! The scenario driver: chaos runs of a few hosts and the paper's
//! metro-ISP scale (100k+ hosts, 1M+ flows) on one event-driven engine.
//!
//! [`ScaleScenario`] runs the host lifecycle — attach, EphID issuance,
//! clock-driven rotation (§IV-B), shut-off (§IV-E) and, with
//! [`ScaleConfig::receiver_rotation_ticks`], receiver publication and
//! rotation through the AS's DNS zone (§VII-A) — and checks the paper's
//! invariants as it goes. It reaches scale with three choices, none of
//! which weakens what is being checked:
//!
//! * **Event-driven everything** — flow injections, per-flow packet
//!   emissions, and per-host clock ticks are events on a
//!   [`Simulator`] heap; an idle host costs zero cycles. The network's
//!   own arrival queue is interleaved with the driver's queue by
//!   timestamp, so packet deliveries happen *between* driver events
//!   exactly when they would on the wire.
//! * **Lazy host materialization** — a host agent (key generation,
//!   registration, receive-EphID acquisition over the wire) is built the
//!   first time a flow touches the host. With heavy-tailed workloads
//!   most addressable hosts are never touched.
//! * **Streaming invariant tallies** — accountability, shut-off
//!   stickiness, and flow continuity are checked per delivery against
//!   O(hosts-touched) state (an EphID→verdict cache, a revocation map
//!   with revocation *times*, a 64-bit per-flow delivery bitmap that
//!   checks every packet) instead of a full wiretap; unlinkability is
//!   checked at the end against the network's streaming wire-EphID tally
//!   with a deterministic sample of foreign-AS decrypt attempts per
//!   EphID (on chains of up to four ASes the sample is every foreign AS).
//!
//! A chaos run is a short `Chain` with `PerFlow` granularity, long flows
//! (`Fixed(n)` packets one tick apart, all arriving at once), a fault
//! profile, a shut-off and receiver rotation: `examples/chaos.rs` and
//! `tests/chaos.rs` run it.
//!
//! Determinism: the same [`ScaleConfig`] yields a byte-identical
//! [`ScaleReport::digest`] — the property CI diffs across two runs of the
//! same binary and across revisions.

use crate::clock::SimTime;
use crate::event::{Event, SimStats, Simulator};
use crate::link::FaultProfile;
use crate::network::Network;
use crate::topology::TopologySpec;
use crate::workload::{Arrivals, FlowSizes, Workload};
use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::DropReason;
use apna_core::control::ControlMsg;
use apna_core::ephid;
use apna_core::granularity::Granularity;
use apna_core::Error;
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use std::collections::{HashMap, HashSet};

/// Data-plane payloads carry this marker so the drain loop can tell a
/// scale-driver packet from control-plane leftovers.
const MAGIC: u16 = 0x5CA1;

/// Hard cap on packets per flow: flow continuity is tracked in a 64-bit
/// per-flow bitmap, the trick that keeps 1M flows in 24 MB.
pub const MAX_FLOW_PKTS: u32 = 64;

/// Foreign ASes sampled per wire EphID for the unlinkability check
/// (decrypt-must-fail). Full cross-product is O(EphIDs × ASes).
const FOREIGN_OPEN_SAMPLE: usize = 3;

/// Everything that parameterizes one scale run. Two runs with equal
/// configs produce byte-identical [`ScaleReport::digest`]s.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Master seed: AS keys, host keys, workload, and fault streams.
    pub seed: u64,
    /// AS-level topology (chain, fat-tree, ISP-like hierarchy).
    pub topology: TopologySpec,
    /// Addressable hosts per leaf AS. Only touched hosts materialize.
    pub hosts_per_as: u32,
    /// Total flows to inject over the run.
    pub flows: u64,
    /// Injection window, seconds: flows arrive across `[0, duration)`.
    pub duration_secs: u64,
    /// Per-host clock-tick cadence, seconds (drives EphID rotation).
    pub tick_secs: u64,
    /// How far ahead of expiry agents rotate; should exceed `tick_secs`.
    pub refresh_margin_secs: u32,
    /// Flow-size distribution (packets per flow, at most
    /// [`MAX_FLOW_PKTS`]).
    pub sizes: FlowSizes,
    /// Flow arrival process. `None` spreads `flows` across
    /// `duration_secs` as a Poisson process at the matching mean rate.
    pub arrivals: Option<Arrivals>,
    /// Gap between a flow's consecutive packets, microseconds.
    pub packet_gap_us: u64,
    /// Sender-side EphID granularity. `PerHost` is the scale default:
    /// per-flow EphIDs at 1M flows would mean 1M control round-trips.
    pub granularity: Granularity,
    /// Header format (base 48 B or nonce-extended 56 B).
    pub replay_mode: ReplayMode,
    /// Fault profile applied to every inter-AS link.
    pub faults: FaultProfile,
    /// Shut-off strikes to file, evenly spaced across the run.
    pub shutoffs: u32,
    /// Receiver-identity rotation cadence, in host ticks. `Some(k)`
    /// publishes every host's receive identity in its own AS's DNS zone
    /// and, on every k-th tick, has the host acquire a fresh receive
    /// EphID and re-publish it with a `DnsUpdate` signed by the currently
    /// published identity (§VII-A). Senders address the zone's current
    /// answer, so long flows hop receiver identities mid-stream.
    pub receiver_rotation_ticks: Option<u64>,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            seed: 1,
            topology: TopologySpec::Chain { ases: 4 },
            hosts_per_as: 8,
            flows: 64,
            duration_secs: 300,
            tick_secs: 60,
            refresh_margin_secs: 120,
            sizes: FlowSizes::Pareto {
                alpha: 1.2,
                min_pkts: 1,
                max_pkts: 16,
            },
            arrivals: None,
            packet_gap_us: 1_000,
            granularity: Granularity::PerHost,
            replay_mode: ReplayMode::Disabled,
            faults: FaultProfile::lossless(),
            shutoffs: 1,
            receiver_rotation_ticks: None,
        }
    }
}

/// Per-flow bookkeeping: 24 bytes, flat in a `Vec` — 1M flows fit in
/// 24 MB. `seen` is a bitmap over packet sequence numbers (hence
/// [`MAX_FLOW_PKTS`]); duplicated link deliveries are absorbed by the
/// bitmap exactly as a host's replay window would absorb them.
#[derive(Debug, Clone, Copy)]
struct FlowRec {
    src: u32,
    dst: u32,
    pkts: u16,
    sent: u16,
    seen: u64,
}

/// Streaming counters the drain loop and end-of-run sweep fill in.
#[derive(Debug, Default, Clone, Copy)]
struct Tallies {
    materialized: u64,
    packets_sent: u64,
    packets_delivered: u64,
    duplicates: u64,
    refreshes: u64,
    receiver_rotations: u64,
    strikes_acked: u32,
    unaccountable: u64,
    shutoff_violations: u64,
    corrupt_discards: u64,
    misrouted: u64,
    issuance_failures: u64,
    control_noise: u64,
}

/// The driver's events. Everything the old per-tick sweeps did is one of
/// these, scheduled only when there is actual work at that instant.
enum ScaleEvent {
    /// Draw the next flow from the workload; schedule its first packet
    /// and the next injection (injection rides the arrival clock, so the
    /// heap never holds more than one pending injection).
    Inject,
    /// Emit flow `flow`'s next packet and self-reschedule until the flow
    /// is fully sent.
    FlowPacket {
        /// Dense flow index.
        flow: u32,
    },
    /// A materialized host's clock tick: rotate expiring EphIDs (and, on
    /// the configured cadence, the receive identity) over the wire, then
    /// self-reschedule until the tick horizon.
    HostTick {
        /// Dense host index.
        host: u32,
        /// Tick ordinal for this host, from 1.
        n: u64,
    },
    /// File the `n`-th shut-off strike using the latest delivered
    /// evidence packet.
    Strike {
        /// Strike ordinal (for the log).
        n: u32,
    },
}

impl Event<ScaleWorld> for ScaleEvent {
    fn execute(
        self: Box<Self>,
        at: SimTime,
        sim: &mut Simulator<ScaleWorld>,
        world: &mut ScaleWorld,
    ) {
        match *self {
            ScaleEvent::Inject => world.inject(sim),
            ScaleEvent::FlowPacket { flow } => world.flow_packet(flow, sim),
            ScaleEvent::HostTick { host, n } => world.host_tick(host, n, sim),
            ScaleEvent::Strike { n } => world.strike(n, at),
        }
    }
}

/// All mutable state the events operate on.
struct ScaleWorld {
    cfg: ScaleConfig,
    net: Network,
    /// Dense host index → home AS.
    host_as: Vec<Aid>,
    /// All ASes, sorted (foreign-open sampling walks this ring).
    all_ases: Vec<Aid>,
    /// Lazily materialized agents, indexed by dense host index.
    agents: Vec<Option<HostAgent>>,
    /// Current receive address of each materialized host.
    recv_addr: Vec<Option<HostAddr>>,
    /// Owned-list index of each materialized host's current receive
    /// EphID (the one that signs its next `DnsUpdate`).
    recv_idx: Vec<usize>,
    /// Receive EphID → host index (destination check on delivery). A
    /// rotated-away identity stays: packets in flight to it are still
    /// its host's.
    recv_owner: HashMap<EphIdBytes, u32>,
    workload: Workload,
    injected: u64,
    flows: Vec<FlowRec>,
    /// Revoked EphID → revocation time (µs of simulated time). Payloads
    /// embed their send time, so a pre-revocation packet still in flight
    /// is distinguishable from a genuine stickiness violation.
    revoked: HashMap<EphIdBytes, u64>,
    revoked_hosts: HashSet<u32>,
    /// Source-EphID → accountability verdict cache: with `PerHost`
    /// granularity one decrypt covers millions of deliveries.
    open_cache: HashMap<EphIdBytes, bool>,
    /// Latest delivered packet usable as shut-off evidence.
    last_evidence: Option<(u32, Vec<u8>)>,
    strikes_pending: u32,
    tick_horizon: SimTime,
    tallies: Tallies,
    log: Vec<String>,
}

impl ScaleWorld {
    fn inject(&mut self, sim: &mut Simulator<ScaleWorld>) {
        if self.injected >= self.cfg.flows {
            return;
        }
        let spec = self.workload.next_flow();
        let fi = self.flows.len() as u32;
        self.flows.push(FlowRec {
            src: spec.src,
            dst: spec.dst,
            // `build` bounds every flow size by MAX_FLOW_PKTS.
            pkts: spec.pkts as u16,
            sent: 0,
            seen: 0,
        });
        self.injected += 1;
        sim.schedule(spec.at, ScaleEvent::FlowPacket { flow: fi });
        if self.injected < self.cfg.flows {
            sim.schedule(spec.at, ScaleEvent::Inject);
        }
    }

    /// Builds the agent for host `h` on first touch: key generation,
    /// registration with its AS, a long-lived receive-EphID acquisition
    /// over the simulated wire and, under receiver rotation, publication
    /// of that identity in the AS's zone.
    fn ensure_host(&mut self, h: u32, sim: &mut Simulator<ScaleWorld>) -> Result<(), Error> {
        if self.agents[h as usize].is_some() {
            return Ok(());
        }
        let aid = self.host_as[h as usize];
        let now = self.net.now().as_protocol_time();
        let mut agent = HostAgent::attach(
            self.net.node(aid),
            self.cfg.granularity,
            self.cfg.replay_mode,
            now,
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(u64::from(h)),
        )?;
        agent.set_refresh_margin(self.cfg.refresh_margin_secs);
        // Batched attach: the receive EphID and (under per-host
        // granularity, where the first flow would otherwise trigger a
        // second sequential round-trip) the host's data EphID are acquired
        // in ONE request burst — one egress batch on the wire, one
        // service-side issuance batch at the MS.
        let prewarm = self.cfg.granularity == Granularity::PerHost;
        let usages: &[EphIdUsage] = if prewarm {
            &[EphIdUsage::DATA_LONG, EphIdUsage::DATA_SHORT]
        } else {
            &[EphIdUsage::DATA_LONG]
        };
        let idxs = agent.acquire_many(&mut self.net, usages, now)?;
        let ri = idxs[0];
        if prewarm {
            agent.prefill(0, 0, idxs[1]);
        }
        if self.cfg.receiver_rotation_ticks.is_some() {
            let now = self.net.now().as_protocol_time();
            agent.dns_register(&mut self.net, aid, &dns_name(h, aid), ri, now)?;
        }
        let addr = agent.owned_ephid(ri).addr(aid);
        self.recv_owner.insert(addr.ephid, h);
        self.recv_addr[h as usize] = Some(addr);
        self.recv_idx[h as usize] = ri;
        self.agents[h as usize] = Some(agent);
        self.tallies.materialized += 1;
        self.schedule_tick(h, 1, sim);
        Ok(())
    }

    /// Schedules host `h`'s `n`-th clock tick one cadence from now, if it
    /// falls within the tick horizon.
    fn schedule_tick(&self, h: u32, n: u64, sim: &mut Simulator<ScaleWorld>) {
        let tick_us = self.cfg.tick_secs.max(1) * 1_000_000;
        if sim.now().add_micros(tick_us) <= self.tick_horizon {
            sim.schedule_in(tick_us, ScaleEvent::HostTick { host: h, n });
        }
    }

    fn flow_packet(&mut self, fi: u32, sim: &mut Simulator<ScaleWorld>) {
        let (src, dst, pkts, sent) = {
            let f = &self.flows[fi as usize];
            (f.src, f.dst, f.pkts, f.sent)
        };
        if sent >= pkts {
            return;
        }
        if self.ensure_host(src, sim).is_err() || self.ensure_host(dst, sim).is_err() {
            self.tallies.issuance_failures += 1;
            return;
        }
        let dst_addr = self.recv_addr[dst as usize].expect("dst materialized");
        let agent = self.agents[src as usize]
            .as_mut()
            .expect("src materialized");
        let now = self.net.now().as_protocol_time();
        let idx = match agent.ephid_for(&mut self.net, u64::from(fi), 0, now) {
            Ok(idx) => idx,
            Err(_) => {
                self.tallies.issuance_failures += 1;
                return;
            }
        };
        // Stamp the send time *after* any issuance RPC advanced the
        // clock: the stickiness check compares this against the
        // revocation instant.
        let mut payload = [0u8; 16];
        payload[..4].copy_from_slice(&fi.to_be_bytes());
        payload[4..6].copy_from_slice(&sent.to_be_bytes());
        payload[6..8].copy_from_slice(&MAGIC.to_be_bytes());
        payload[8..].copy_from_slice(&self.net.now().micros().to_be_bytes());
        let wire = agent.build_raw_packet(idx, dst_addr, &payload);
        self.net.send(self.host_as[src as usize], wire);
        self.flows[fi as usize].sent = sent + 1;
        self.tallies.packets_sent += 1;
        if sent + 1 < pkts {
            sim.schedule_in(
                self.cfg.packet_gap_us.max(1),
                ScaleEvent::FlowPacket { flow: fi },
            );
        }
    }

    fn host_tick(&mut self, h: u32, n: u64, sim: &mut Simulator<ScaleWorld>) {
        if let Some(agent) = self.agents[h as usize].as_mut() {
            let now = self.net.now().as_protocol_time();
            match agent.refresh_expiring(&mut self.net, now) {
                Ok(n) => self.tallies.refreshes += n as u64,
                Err(_) => self.tallies.issuance_failures += 1,
            }
        }
        if self.cfg.receiver_rotation_ticks.is_some_and(|k| n % k == 0)
            && self.rotate_receiver(h).is_err()
        {
            self.tallies.issuance_failures += 1;
        }
        self.schedule_tick(h, n + 1, sim);
    }

    /// §VII-A receiver rotation: a fresh receive EphID, published with a
    /// `DnsUpdate` signed by the currently published identity (the zone's
    /// continuity check), then read back from the zone, so the address
    /// senders use next is the one the wire exchange installed.
    fn rotate_receiver(&mut self, h: u32) -> Result<(), Error> {
        let aid = self.host_as[h as usize];
        let name = dns_name(h, aid);
        let agent = self.agents[h as usize]
            .as_mut()
            .expect("ticking host materialized");
        let now = self.net.now().as_protocol_time();
        let new_idx = agent.acquire(&mut self.net, EphIdUsage::DATA_LONG, now)?;
        let now = self.net.now().as_protocol_time();
        let current = self.recv_idx[h as usize];
        agent.dns_update(&mut self.net, aid, &name, new_idx, current, now)?;
        let served = self
            .net
            .dns(aid)
            .and_then(|z| z.resolve(&name))
            .ok_or(Error::ControlRejected("rotated name vanished from zone"))?;
        let addr = HostAddr::new(aid, served.cert.ephid);
        self.recv_owner.insert(addr.ephid, h);
        self.recv_addr[h as usize] = Some(addr);
        self.recv_idx[h as usize] = new_idx;
        self.tallies.receiver_rotations += 1;
        Ok(())
    }

    /// §IV-E shut-off as the receiver files it: evidence is the latest
    /// delivered packet; the victim proves ownership of the EphID the
    /// evidence was addressed to; the ack registers the revocation at
    /// the source AS's border.
    fn strike(&mut self, n: u32, at: SimTime) {
        self.strikes_pending = self.strikes_pending.saturating_sub(1);
        let Some((fi, evidence)) = self.last_evidence.take() else {
            self.log
                .push(format!("strike {n}: no evidence yet, skipped"));
            return;
        };
        let f = self.flows[fi as usize];
        let src_aid = self.host_as[f.src as usize];
        let owned_idx = ApnaHeader::parse(&evidence, self.cfg.replay_mode)
            .ok()
            .and_then(|(eh, _)| {
                self.agents[f.dst as usize]
                    .as_ref()?
                    .owned_index_of(eh.dst.ephid)
            })
            .unwrap_or(self.recv_idx[f.dst as usize]);
        let victim = self.agents[f.dst as usize]
            .as_mut()
            .expect("receiver materialized");
        let now = self.net.now().as_protocol_time();
        match victim.request_shutoff(&mut self.net, src_aid, &evidence, owned_idx, now) {
            Ok(ack) => {
                self.revoked.insert(ack.ephid, self.net.now().micros());
                self.revoked_hosts.insert(f.src);
                self.tallies.strikes_acked += 1;
                self.log
                    .push(format!("strike {n} at t={at:?}: host {} revoked", f.src));
            }
            Err(e) => self.log.push(format!("strike {n}: rpc failed: {e:?}")),
        }
    }

    /// Classifies everything the network delivered since the last call,
    /// updating the streaming tallies. Runs between driver events, so
    /// evidence for strikes is always the freshest delivery.
    fn drain(&mut self) {
        let delivered = self.net.take_delivered();
        if delivered.is_empty() {
            return;
        }
        let mutation_possible =
            self.cfg.faults.corrupt_chance > 0.0 || self.net.stats.adversary.tampered > 0;
        for pkt in delivered {
            let Ok((header, payload)) = ApnaHeader::parse(&pkt.bytes, self.cfg.replay_mode) else {
                if mutation_possible {
                    self.tallies.corrupt_discards += 1;
                } else {
                    self.tallies.unaccountable += 1;
                }
                continue;
            };
            // Control leftovers (duplicated replies an RPC already
            // satisfied) are not flow traffic.
            if ControlMsg::parse(payload).is_ok() {
                self.tallies.control_noise += 1;
                continue;
            }
            // Accountability: the claimed source AS must open the EphID
            // to a valid, registered customer. Cached per EphID — with
            // per-host granularity one decrypt covers the whole run.
            let accountable = match self.open_cache.get(&header.src.ephid) {
                Some(&v) => v,
                None => {
                    let v = self.net.try_node(header.src.aid).is_some_and(|n| {
                        ephid::open(&n.infra.keys, &header.src.ephid)
                            .map(|plain| n.infra.host_db.is_valid(plain.hid))
                            .unwrap_or(false)
                    });
                    self.open_cache.insert(header.src.ephid, v);
                    v
                }
            };
            if !accountable {
                if mutation_possible {
                    self.tallies.corrupt_discards += 1;
                } else {
                    self.tallies.unaccountable += 1;
                }
                continue;
            }
            if payload.len() != 16 || payload[6..8] != MAGIC.to_be_bytes() {
                self.tallies.corrupt_discards += 1;
                continue;
            }
            // Shut-off stickiness, exact in the presence of in-flight
            // packets: only a packet *sent after* the revocation instant
            // counts as a violation.
            let send_us = u64::from_be_bytes(payload[8..16].try_into().unwrap());
            if let Some(&rev_us) = self.revoked.get(&header.src.ephid) {
                if send_us > rev_us {
                    self.tallies.shutoff_violations += 1;
                    continue;
                }
            }
            let fi = u32::from_be_bytes(payload[..4].try_into().unwrap());
            let seq = u16::from_be_bytes(payload[4..6].try_into().unwrap());
            let Some(f) = self.flows.get_mut(fi as usize) else {
                self.tallies.corrupt_discards += 1;
                continue;
            };
            if seq >= f.pkts || self.recv_owner.get(&header.dst.ephid) != Some(&f.dst) {
                self.tallies.misrouted += 1;
                continue;
            }
            let bit = 1u64 << seq;
            if f.seen & bit != 0 {
                self.tallies.duplicates += 1;
            } else {
                f.seen |= bit;
                self.tallies.packets_delivered += 1;
                if self.strikes_pending > 0 && !self.revoked_hosts.contains(&f.src) {
                    self.last_evidence = Some((fi, pkt.bytes.clone()));
                }
            }
        }
    }

    /// End-of-run sweep: flow completion, EphID uniqueness, and the
    /// sampled foreign-decrypt unlinkability check over the network's
    /// streaming wire tally.
    fn finish(self, sim_stats: SimStats) -> ScaleReport {
        let mut incomplete_flows = 0u64;
        for f in &self.flows {
            if self.revoked_hosts.contains(&f.src) {
                continue; // post-revocation drops are the *correct* outcome
            }
            if f.seen.count_ones() != u32::from(f.pkts) {
                incomplete_flows += 1;
            }
        }

        let mut owners: HashMap<EphIdBytes, u32> = HashMap::new();
        let mut linkability_violations = 0u64;
        for (h, agent) in self.agents.iter().enumerate() {
            let Some(agent) = agent else { continue };
            for idx in 0..agent.ephid_count() {
                if owners
                    .insert(agent.owned_ephid(idx).ephid(), h as u32)
                    .is_some()
                {
                    linkability_violations += 1; // EphID collision across hosts
                }
            }
        }
        let mut wire: Vec<EphIdBytes> = self
            .net
            .wire_src_ephids()
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        wire.sort_unstable();
        for e in &wire {
            // Service-endpoint EphIDs (AA/MS replies) have no host owner;
            // uniqueness is theirs by construction, and foreign-open
            // sampling needs a home AS to exclude.
            let Some(&owner) = owners.get(e) else {
                continue;
            };
            let home = self.host_as[owner as usize];
            let ring = &self.all_ases;
            let want = FOREIGN_OPEN_SAMPLE.min(ring.len().saturating_sub(1));
            let start = u64::from_be_bytes(e.0[..8].try_into().unwrap()) as usize;
            let mut tried = 0usize;
            let mut step = 0usize;
            while tried < want && step < ring.len() {
                let a = ring[(start + step) % ring.len()];
                step += 1;
                if a == home {
                    continue;
                }
                tried += 1;
                if ephid::open(&self.net.node(a).infra.keys, e).is_ok() {
                    linkability_violations += 1;
                }
            }
        }

        let net_stats = self.net.queue_stats();
        ScaleReport {
            hosts: self.host_as.len() as u64,
            materialized_hosts: self.tallies.materialized,
            ases: self.all_ases.len() as u64,
            flows_injected: self.injected,
            packets_sent: self.tallies.packets_sent,
            packets_delivered: self.tallies.packets_delivered,
            duplicates: self.tallies.duplicates,
            refreshes: self.tallies.refreshes,
            receiver_rotations: self.tallies.receiver_rotations,
            strikes_acked: self.tallies.strikes_acked,
            control_noise: self.tallies.control_noise,
            unaccountable: self.tallies.unaccountable,
            linkability_violations,
            shutoff_violations: self.tallies.shutoff_violations,
            incomplete_flows,
            corrupt_discards: self.tallies.corrupt_discards,
            misrouted: self.tallies.misrouted,
            issuance_failures: self.tallies.issuance_failures,
            control_retries: self.net.stats.control_retries.total(),
            control_rpc_failures: self.net.stats.control_rpc_failures,
            control_busy: self.net.stats.control_busy,
            expired_egress: self
                .net
                .stats
                .egress_drop_reasons
                .count(DropReason::Expired),
            revoked_egress: self
                .net
                .stats
                .egress_drop_reasons
                .count(DropReason::Revoked),
            distinct_wire_ephids: wire.len() as u64,
            events_executed: sim_stats.executed + net_stats.executed,
            queue_high_water: sim_stats.high_water.max(net_stats.high_water) as u64,
            log: self.log,
        }
    }
}

/// The DNS name host `h` publishes its receive identity under.
fn dns_name(h: u32, aid: Aid) -> String {
    format!("h{h}.as{}.apna", aid.0)
}

/// A built, ready-to-run scale scenario.
pub struct ScaleScenario {
    sim: Simulator<ScaleWorld>,
    world: ScaleWorld,
}

impl ScaleScenario {
    /// Stands up the AS fabric (no hosts — they materialize lazily) and
    /// schedules the initial events.
    ///
    /// # Errors
    /// [`Error::InvalidState`] if the fabric has fewer than two
    /// addressable hosts, a flow can exceed [`MAX_FLOW_PKTS`] packets, or
    /// the receiver-rotation cadence is zero.
    pub fn build(cfg: ScaleConfig) -> Result<ScaleScenario, Error> {
        let _ = cfg.faults.assert_valid();
        if cfg.sizes.max_pkts() > MAX_FLOW_PKTS {
            return Err(Error::InvalidState("flow sizes exceed MAX_FLOW_PKTS"));
        }
        if cfg.receiver_rotation_ticks == Some(0) {
            return Err(Error::InvalidState("receiver rotation cadence is zero"));
        }
        let bp = cfg.topology.build();
        let hosts = bp.host_ases.len() as u64 * u64::from(cfg.hosts_per_as.max(1));
        let hosts = u32::try_from(hosts).map_err(|_| Error::InvalidState("too many hosts"))?;
        if hosts < 2 {
            return Err(Error::InvalidState("fewer than two addressable hosts"));
        }

        let mut net = Network::new(cfg.replay_mode);
        net.link_seed_salt = cfg.seed;
        // Scale posture: streaming EphID tally instead of a full wiretap,
        // no control-delivery log, bounded fate map.
        net.enable_ephid_tally();
        net.disable_control_log();
        net.set_fate_capacity(1 << 16);
        for &aid in &bp.ases {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(cfg.seed ^ u64::from(aid.0).rotate_left(17)).to_le_bytes());
            seed[8] = aid.0 as u8;
            seed[9] = (aid.0 >> 8) as u8;
            net.add_as(aid, seed);
        }
        for &(a, b) in &bp.edges {
            net.connect(a, b, 1_000, 10_000_000_000, cfg.faults);
        }
        if cfg.receiver_rotation_ticks.is_some() {
            // One zone per AS: each host publishes (and rotates) its
            // receive identity in its own AS's zone.
            for &aid in &bp.ases {
                let mut zone_seed = [0u8; 32];
                zone_seed[..8]
                    .copy_from_slice(&(cfg.seed ^ u64::from(aid.0).rotate_left(29)).to_le_bytes());
                zone_seed[8] = 0xD5;
                zone_seed[9] = aid.0 as u8;
                net.attach_dns(aid, DnsServer::new(SigningKey::from_seed(&zone_seed)));
            }
        }

        let host_as: Vec<Aid> = (0..hosts)
            .map(|h| bp.host_ases[(h / cfg.hosts_per_as.max(1)) as usize])
            .collect();
        let mut all_ases = bp.ases.clone();
        all_ases.sort_unstable_by_key(|a| a.0);

        let arrivals = cfg.arrivals.unwrap_or(Arrivals::Poisson {
            per_sec: cfg.flows as f64 / cfg.duration_secs.max(1) as f64,
        });
        let workload = Workload::new(cfg.seed, hosts, cfg.sizes, arrivals, SimTime::ZERO);

        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, ScaleEvent::Inject);
        for n in 0..cfg.shutoffs {
            let t = cfg.duration_secs * u64::from(n + 1) / u64::from(cfg.shutoffs + 1);
            sim.schedule(SimTime::from_secs(t.max(1)), ScaleEvent::Strike { n });
        }

        let tick_horizon = SimTime::from_secs(cfg.duration_secs + cfg.tick_secs);
        let flows = Vec::with_capacity(usize::try_from(cfg.flows).unwrap_or(0));
        let strikes_pending = cfg.shutoffs;
        Ok(ScaleScenario {
            sim,
            world: ScaleWorld {
                cfg,
                net,
                host_as,
                all_ases,
                agents: (0..hosts).map(|_| None).collect(),
                recv_addr: vec![None; hosts as usize],
                recv_idx: vec![0; hosts as usize],
                recv_owner: HashMap::new(),
                workload,
                injected: 0,
                flows,
                revoked: HashMap::new(),
                revoked_hosts: HashSet::new(),
                open_cache: HashMap::new(),
                last_evidence: None,
                strikes_pending,
                tick_horizon,
                tallies: Tallies::default(),
                log: Vec::new(),
            },
        })
    }

    /// Runs to completion: driver events and network arrivals interleave
    /// by timestamp until both queues are empty.
    pub fn run(self) -> ScaleReport {
        let ScaleScenario { mut sim, mut world } = self;
        while let Some(t) = sim.peek_time() {
            // Deliver everything the wire owes us up to the next driver
            // event, then let the event run at a synchronized clock.
            world.net.pump_until(t);
            world.drain();
            if t > world.net.now() {
                world.net.advance_to(t);
            }
            sim.step(&mut world);
        }
        while let Some(t) = world.net.next_event_time() {
            world.net.pump_until(t);
        }
        world.drain();
        world.finish(sim.stats())
    }
}

/// What a scale run produced. Every field is deterministic in the
/// config; [`ScaleReport::digest`] is the byte string CI diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleReport {
    /// Addressable hosts (leaf ASes × hosts per AS).
    pub hosts: u64,
    /// Hosts actually touched by a flow (attached + registered).
    pub materialized_hosts: u64,
    /// ASes in the fabric.
    pub ases: u64,
    /// Flows injected.
    pub flows_injected: u64,
    /// Data packets sent by hosts.
    pub packets_sent: u64,
    /// Distinct data packets delivered to the right receiver.
    pub packets_delivered: u64,
    /// Duplicate deliveries absorbed by the per-flow bitmap.
    pub duplicates: u64,
    /// EphIDs rotated by host clock ticks.
    pub refreshes: u64,
    /// Receive identities rotated and re-published through the zone.
    pub receiver_rotations: u64,
    /// Shut-off strikes acknowledged by the source AS.
    pub strikes_acked: u32,
    /// Stray control frames seen in host inboxes (duplicated replies).
    pub control_noise: u64,
    /// **Invariant**: deliveries whose source EphID failed to open to a
    /// valid customer with no mutation to blame. Must be 0.
    pub unaccountable: u64,
    /// **Invariant**: EphID collisions or foreign-AS decrypt successes.
    /// Must be 0.
    pub linkability_violations: u64,
    /// **Invariant**: deliveries of a revoked EphID sent after its
    /// revocation instant. Must be 0.
    pub shutoff_violations: u64,
    /// **Invariant**: non-revoked flows that did not deliver every
    /// packet. Must be 0 on lossless runs.
    pub incomplete_flows: u64,
    /// Deliveries discarded as in-transit mutations (0 when lossless).
    pub corrupt_discards: u64,
    /// Deliveries addressed to an EphID the flow's receiver does not
    /// own. Must be 0.
    pub misrouted: u64,
    /// EphID issuances / rotations that failed (0 when lossless).
    pub issuance_failures: u64,
    /// Control-RPC resends, summed over request kinds.
    pub control_retries: u64,
    /// Control RPCs that exhausted their retry budget or deadline.
    pub control_rpc_failures: u64,
    /// `EphIdBusy` pushbacks from issuance admission control.
    pub control_busy: u64,
    /// Egress drops due to EphID expiry — rotation keeping up means 0.
    pub expired_egress: u64,
    /// Egress drops due to revocation (expected > 0 once a strike
    /// lands and the revoked sender keeps transmitting).
    pub revoked_egress: u64,
    /// Distinct source EphIDs observed crossing inter-AS links.
    pub distinct_wire_ephids: u64,
    /// Total events executed (driver heap + network arrival heap).
    pub events_executed: u64,
    /// Larger of the two heaps' high-water marks.
    pub queue_high_water: u64,
    /// Human-readable event log (strikes, skips).
    pub log: Vec<String>,
}

impl ScaleReport {
    /// `true` iff every paper invariant held (completion is only an
    /// invariant on lossless runs; callers with faults should check the
    /// individual fields).
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.unaccountable == 0
            && self.linkability_violations == 0
            && self.shutoff_violations == 0
            && self.misrouted == 0
            && self.expired_egress == 0
    }

    /// The deterministic byte string two runs of the same binary must
    /// reproduce exactly — what the CI scale job diffs.
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{self:#?}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScaleConfig {
        ScaleConfig {
            seed: 7,
            topology: TopologySpec::Chain { ases: 3 },
            hosts_per_as: 4,
            flows: 40,
            duration_secs: 120,
            tick_secs: 30,
            refresh_margin_secs: 60,
            sizes: FlowSizes::Fixed(3),
            packet_gap_us: 500,
            shutoffs: 1,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn small_run_holds_all_invariants() {
        let report = ScaleScenario::build(small_cfg()).unwrap().run();
        assert!(report.invariants_hold(), "{report:#?}");
        assert_eq!(report.flows_injected, 40);
        assert_eq!(report.packets_sent, 120, "{report:#?}");
        assert_eq!(report.strikes_acked, 1, "{report:#?}");
        assert_eq!(report.incomplete_flows, 0, "{report:#?}");
        assert_eq!(report.corrupt_discards, 0);
        assert_eq!(report.issuance_failures, 0);
        assert!(report.packets_delivered > 0);
        assert!(report.materialized_hosts <= report.hosts);
        assert!(report.distinct_wire_ephids >= report.materialized_hosts);
    }

    #[test]
    fn reruns_are_byte_identical() {
        let cfg = ScaleConfig {
            flows: 20,
            sizes: FlowSizes::Fixed(2),
            ..small_cfg()
        };
        let a = ScaleScenario::build(cfg.clone()).unwrap().run();
        let b = ScaleScenario::build(cfg).unwrap().run();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn fat_tree_and_isp_topologies_run_clean() {
        for topology in [
            TopologySpec::FatTree { k: 2 },
            TopologySpec::Isp {
                cores: 2,
                regionals: 2,
                stubs: 3,
            },
        ] {
            let cfg = ScaleConfig {
                topology,
                flows: 16,
                sizes: FlowSizes::Fixed(2),
                shutoffs: 0,
                ..small_cfg()
            };
            let report = ScaleScenario::build(cfg).unwrap().run();
            assert!(report.invariants_hold(), "{topology:?}: {report:#?}");
            assert_eq!(report.incomplete_flows, 0, "{topology:?}");
            assert_eq!(report.flows_injected, 16);
        }
    }

    #[test]
    fn revoked_sender_is_cut_off_but_exempt_from_completion() {
        // Long flows guarantee the struck sender still has packets to
        // send after the revocation lands.
        let cfg = ScaleConfig {
            flows: 12,
            sizes: FlowSizes::Fixed(40),
            packet_gap_us: 2_000_000, // 2 s between packets: flows span the run
            duration_secs: 120,
            ..small_cfg()
        };
        let report = ScaleScenario::build(cfg).unwrap().run();
        assert!(report.invariants_hold(), "{report:#?}");
        assert_eq!(report.strikes_acked, 1, "{report:#?}");
        assert!(report.revoked_egress > 0, "{report:#?}");
        assert_eq!(report.shutoff_violations, 0);
    }

    /// The chaos profile: 3 chained ASes × 4 hosts and 12 per-flow-EphID
    /// flows, each sending a packet every 30 s tick for 120 s, receivers
    /// rotating every other tick.
    fn chaos_cfg() -> ScaleConfig {
        ScaleConfig {
            seed: 1,
            topology: TopologySpec::Chain { ases: 3 },
            hosts_per_as: 4,
            flows: 12,
            duration_secs: 120,
            tick_secs: 30,
            refresh_margin_secs: 90,
            sizes: FlowSizes::Fixed(4),
            arrivals: Some(Arrivals::Uniform { gap_us: 1 }),
            packet_gap_us: 30_000_000,
            granularity: Granularity::PerFlow,
            shutoffs: 0,
            receiver_rotation_ticks: Some(2),
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn default_scenario_is_clean_and_deterministic() {
        let run = || ScaleScenario::build(chaos_cfg()).unwrap().run();
        let a = run();
        // 12 flows × 4 packets (120 s / 30 s).
        assert_eq!(a.packets_sent, 12 * 4);
        assert_eq!(
            a.packets_delivered, a.packets_sent,
            "lossless world delivers all"
        );
        assert_eq!(a.unaccountable, 0);
        assert_eq!(a.linkability_violations, 0);
        assert_eq!(a.incomplete_flows, 0);
        assert_eq!(a.expired_egress, 0);
        assert_eq!(a.issuance_failures, 0);
        assert!(a.receiver_rotations > 0);
        let b = run();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        let report = |seed: u64| {
            let r = ScaleScenario::build(ScaleConfig {
                seed,
                faults: FaultProfile::lossy(0.05, 0.0),
                ..chaos_cfg()
            })
            .unwrap()
            .run();
            assert_eq!(r.issuance_failures, 0, "seed {seed}");
            r
        };
        // Different seeds see different fault streams (the reports diverge).
        assert_ne!(report(1).digest(), report(2).digest());
    }

    #[test]
    fn fewer_than_two_hosts_is_a_typed_error() {
        let one_host = ScaleConfig {
            topology: TopologySpec::Chain { ases: 1 },
            hosts_per_as: 1,
            ..small_cfg()
        };
        assert!(matches!(
            ScaleScenario::build(one_host),
            Err(Error::InvalidState(_))
        ));
    }

    #[test]
    fn flow_sizes_beyond_the_bitmap_are_a_typed_error() {
        let too_long = [
            FlowSizes::Fixed(MAX_FLOW_PKTS + 1),
            FlowSizes::Pareto {
                alpha: 1.2,
                min_pkts: 1,
                max_pkts: MAX_FLOW_PKTS + 1,
            },
        ];
        for sizes in too_long {
            let cfg = ScaleConfig {
                sizes,
                ..small_cfg()
            };
            assert!(
                matches!(ScaleScenario::build(cfg), Err(Error::InvalidState(_))),
                "{sizes:?}"
            );
        }
        let cfg = ScaleConfig {
            sizes: FlowSizes::Fixed(MAX_FLOW_PKTS),
            ..small_cfg()
        };
        assert!(ScaleScenario::build(cfg).is_ok(), "the cap itself fits");
    }

    #[test]
    fn zero_rotation_cadence_is_a_typed_error() {
        let cfg = ScaleConfig {
            receiver_rotation_ticks: Some(0),
            ..chaos_cfg()
        };
        assert!(matches!(
            ScaleScenario::build(cfg),
            Err(Error::InvalidState(_))
        ));
    }
}
