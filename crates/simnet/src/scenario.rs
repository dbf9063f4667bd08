//! The deterministic adversarial scenario engine.
//!
//! A [`Scenario`] stands up many ASes and hosts, runs long-lived flows on
//! the simulation clock — driving [`HostAgent`] EphID rotation
//! (`refresh_expiring`) from periodic ticks, over the loss-tolerant
//! control RPC — and *continuously* asserts the paper's invariants while
//! faults and an on-path adversary do their worst:
//!
//! 1. **Accountability** — no unaccountable packet is ever delivered: every
//!    packet reaching a host inbox either decrypts (under the claimed
//!    source AS's keys) to a valid, registered HID, or is an in-transit
//!    mutation that no host-side check would accept.
//! 2. **Unlinkability** — the wiretap can never link two EphIDs of one
//!    host: every EphID observed on the wire is globally unique, and none
//!    decrypts under any non-issuing AS's keys.
//! 3. **Shut-off stickiness** — once a shut-off is acknowledged, the
//!    revoked EphID never delivers again, no matter what the links lose or
//!    duplicate.
//!
//! Determinism: the same [`ScenarioConfig`] (including seed) yields a
//! byte-identical event log and identical [`crate::network::NetStats`] —
//! the property the CI chaos job diffs.

use crate::clock::SimTime;
use crate::event::{Event, Simulator};
use crate::link::FaultProfile;
use crate::network::{Network, RetryPolicies};
use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::DropReason;
use apna_core::control::ControlMsg;
use apna_core::ephid;
use apna_core::granularity::Granularity;
use apna_core::time::ExpiryClass;
use apna_core::Error;
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use std::collections::{HashMap, HashSet};

/// Everything that parameterizes one scenario run. Two runs with equal
/// configs produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed: AS keys, host keys, and fault streams derive from it.
    pub seed: u64,
    /// Number of ASes, connected in a chain (AS 1 — AS 2 — … — AS n).
    pub num_ases: usize,
    /// Hosts attached to each AS.
    pub hosts_per_as: usize,
    /// Long-running flows originated by each host.
    pub flows_per_host: usize,
    /// Simulated duration, seconds.
    pub duration_secs: u64,
    /// Tick cadence, seconds: each tick refreshes expiring EphIDs and
    /// sends one packet per flow.
    pub tick_secs: u64,
    /// How far ahead of expiry the agents rotate (should exceed
    /// `tick_secs` so no EphID expires between ticks).
    pub refresh_margin_secs: u32,
    /// Fault profile applied to every inter-AS link.
    pub faults: FaultProfile,
    /// Replay-protection mode for the whole deployment.
    pub replay_mode: ReplayMode,
    /// Per-kind deadline/retry policies for all control RPCs.
    pub retry_policy: RetryPolicies,
    /// If set, at this tick the receiver of flow 0 files a shut-off
    /// against its sender's current EphID (using the latest delivered
    /// packet as evidence) — the stickiness invariant is asserted from
    /// then on.
    pub shutoff_at_tick: Option<u64>,
    /// Receiver-identity rotation cadence, in ticks (`Some(k)` ⇒ every k
    /// ticks each host acquires a fresh receive EphID and re-publishes its
    /// DNS name over the wire with a `DnsUpdate` authorized by the
    /// currently published certificate — the §VII-A lifecycle). Senders
    /// resolve the receiver's *current* address from the zone before each
    /// send, so a long-lived flow hops identities mid-stream.
    pub receiver_rotation_ticks: Option<u64>,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig {
            seed: 1,
            num_ases: 3,
            hosts_per_as: 4,
            flows_per_host: 1,
            duration_secs: 120,
            tick_secs: 30,
            refresh_margin_secs: 90,
            faults: FaultProfile::lossless(),
            replay_mode: ReplayMode::Disabled,
            retry_policy: RetryPolicies::default(),
            shutoff_at_tick: None,
            receiver_rotation_ticks: Some(2),
        }
    }
}

/// One long-running flow: a fixed sender/receiver pair.
#[derive(Debug)]
struct Flow {
    /// Sender's index into the agent vector.
    src: usize,
    /// Receiver's index into the agent vector.
    dst: usize,
    /// Pool key the sender maps this flow to.
    flow_key: u64,
    /// Deliveries per rotation epoch (continuity accounting).
    delivered_by_epoch: Vec<u64>,
    /// Packets this flow injected — including ones its own border refused
    /// (e.g. post-shut-off sends, which are the stickiness test working).
    sent: u64,
    /// Total authenticated deliveries.
    delivered: u64,
}

/// What one scenario run produced: counters, the deterministic event log,
/// and the invariant tallies (all `*_violations` fields must be zero for
/// the paper's guarantees to hold).
#[derive(Debug)]
pub struct ScenarioReport {
    /// One line per tick plus a final summary — byte-identical across runs
    /// with the same config.
    pub event_log: Vec<String>,
    /// `format!("{:?}")` of the final [`crate::network::NetStats`].
    pub stats_debug: String,
    /// Data packets injected across all flows (a post-shut-off flow keeps
    /// injecting — its egress drops are the stickiness proof, so the
    /// delivered/sent ratio understates clean-flow delivery in shut-off
    /// scenarios).
    pub data_sent: u64,
    /// Authenticated data deliveries across all flows.
    pub data_delivered: u64,
    /// EphID rotations performed by ticking `refresh_expiring`.
    pub refreshes: u64,
    /// Receiver-identity rotations published over the wire (`DnsUpdate`
    /// RPCs that the zone acknowledged).
    pub receiver_rotations: u64,
    /// Control-RPC retries (sum over kinds).
    pub rpc_retries: u64,
    /// Delivered packets that failed the accountability check — must be 0.
    pub unaccountable_deliveries: u64,
    /// Wiretap linkability findings (duplicate or foreign-decryptable
    /// EphIDs on the wire) — must be 0.
    pub linkability_violations: u64,
    /// Packets delivered from a shut-off EphID after its ack — must be 0.
    pub shutoff_violations: u64,
    /// Flows with a rotation epoch that saw zero deliveries — must be 0
    /// under profiles the retry budget can absorb.
    pub interrupted_flows: u64,
    /// Egress drops with reason `Expired` — must be 0 when clock-driven
    /// refresh is doing its job (a nonzero value is a rotation-timing
    /// bug, not an accountability break).
    pub expired_egress: u64,
    /// Distinct source EphIDs the wiretap observed.
    pub wire_ephids: usize,
    /// Deliveries discarded as in-transit mutations (corruption/tamper).
    pub corrupt_discards: u64,
    /// The shut-off ack'd EphID, if the scenario filed one.
    pub shutoff_ephid: Option<EphIdBytes>,
}

/// The scenario engine: owns the network and all host agents.
pub struct Scenario {
    cfg: ScenarioConfig,
    net: Network,
    agents: Vec<HostAgent>,
    /// Receiver address of each agent (its *currently published* receive
    /// EphID; updated on every wire-driven rotation).
    recv_addrs: Vec<HostAddr>,
    /// Owned-EphID index of each agent's current receive identity (the
    /// one whose key signs the next `DnsUpdate` — the zone's continuity
    /// check — and the next shut-off request).
    recv_idx: Vec<usize>,
    /// The DNS name each host publishes its receive identity under.
    dns_names: Vec<String>,
    flows: Vec<Flow>,
    /// Maps a receive EphID to the owning agent index.
    recv_index: HashMap<EphIdBytes, usize>,
    /// EphIDs shut off so far (stickiness tracking).
    revoked: HashSet<EphIdBytes>,
    /// Last delivered packet per flow (shut-off evidence).
    last_delivery: HashMap<usize, Vec<u8>>,
    /// (flow, tick) tags already counted: the §VIII-D host-side replay
    /// window, emulated at the accounting layer so link duplication can
    /// never double-count a delivery (in either replay mode).
    counted: HashSet<(usize, u64)>,
}

/// Counters and log threaded through the tick events and into the report.
#[derive(Default)]
struct TickAcc {
    log: Vec<String>,
    refreshes: u64,
    receiver_rotations: u64,
    unaccountable: u64,
    shutoff_violations: u64,
    corrupt_discards: u64,
    shutoff_ephid: Option<EphIdBytes>,
    /// First tick error, if any — aborts the remaining schedule.
    error: Option<Error>,
}

/// The world the scenario's tick events execute against.
struct ScenarioWorld {
    sc: Scenario,
    acc: TickAcc,
}

/// One scenario tick on the [`Simulator`] engine, self-rescheduling at
/// the configured cadence until `ticks` have run.
struct TickEvent {
    tick: u64,
    ticks: u64,
}

impl Event<ScenarioWorld> for TickEvent {
    fn execute(
        self: Box<Self>,
        _at: SimTime,
        sim: &mut Simulator<ScenarioWorld>,
        world: &mut ScenarioWorld,
    ) {
        if world.acc.error.is_some() {
            return;
        }
        if let Err(e) = world.sc.run_tick(self.tick, &mut world.acc) {
            world.acc.error = Some(e);
            return;
        }
        if self.tick + 1 < self.ticks {
            sim.schedule_in(
                world.sc.cfg.tick_secs * 1_000_000,
                TickEvent {
                    tick: self.tick + 1,
                    ticks: self.ticks,
                },
            );
        }
    }
}

impl Scenario {
    /// Builds the world: ASes in a chain, hosts attached, one long-lived
    /// receive EphID per host (acquired over the network, with retries),
    /// flows wired sender → receiver in the next AS over.
    ///
    /// # Panics
    /// On invalid configuration (zero sizes, probabilities out of range).
    pub fn build(cfg: ScenarioConfig) -> Result<Scenario, Error> {
        assert!(cfg.num_ases >= 2, "need at least two ASes");
        assert!(cfg.hosts_per_as >= 1 && cfg.flows_per_host >= 1);
        assert!(cfg.tick_secs >= 1 && cfg.duration_secs >= cfg.tick_secs);
        let _ = cfg.faults.assert_valid();

        let mut net = Network::new(cfg.replay_mode);
        net.retry_policy = cfg.retry_policy;
        net.link_seed_salt = cfg.seed;
        net.enable_wiretap();
        for a in 1..=cfg.num_ases as u32 {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(cfg.seed ^ u64::from(a).rotate_left(17)).to_le_bytes());
            seed[8] = a as u8;
            net.add_as(Aid(a), seed);
        }
        for a in 1..cfg.num_ases as u32 {
            net.connect(Aid(a), Aid(a + 1), 1_000, 10_000_000_000, cfg.faults);
        }
        // One DNS zone per AS: receiver identities are published (and
        // rotated) through it over the wire, per §VII-A.
        for a in 1..=cfg.num_ases as u32 {
            let mut zone_seed = [0u8; 32];
            zone_seed[..8]
                .copy_from_slice(&(cfg.seed ^ u64::from(a).rotate_left(29)).to_le_bytes());
            zone_seed[8] = 0xD5;
            zone_seed[9] = a as u8;
            net.attach_dns(Aid(a), DnsServer::new(SigningKey::from_seed(&zone_seed)));
        }

        let total_hosts = cfg.num_ases * cfg.hosts_per_as;
        let mut agents = Vec::with_capacity(total_hosts);
        let mut recv_addrs = Vec::with_capacity(total_hosts);
        let mut recv_idx = Vec::with_capacity(total_hosts);
        let mut dns_names = Vec::with_capacity(total_hosts);
        let mut recv_index = HashMap::new();
        let now = net.now().as_protocol_time();
        for h in 0..total_hosts {
            let aid = Aid((h / cfg.hosts_per_as) as u32 + 1);
            let mut agent = HostAgent::attach(
                net.node(aid),
                Granularity::PerFlow,
                cfg.replay_mode,
                now,
                cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(h as u64),
            )?;
            agent.set_refresh_margin(cfg.refresh_margin_secs);
            // The receive EphID is long-lived (24 h): receiver identity is
            // published out of band; what rotates at scale here is the
            // sender side, which is what the pool + refresh machinery owns.
            let ri = agent.acquire(&mut net, EphIdUsage::DATA_LONG, now)?;
            let addr = agent.owned_ephid(ri).addr(aid);
            // Task 2 of §VII-A: publish the receive identity in the AS's
            // zone, over the wire, with proof of possession.
            let name = format!("h{h}.as{}.apna", aid.0);
            agent.dns_register(&mut net, aid, &name, ri, now)?;
            recv_index.insert(addr.ephid, h);
            recv_addrs.push(addr);
            recv_idx.push(ri);
            dns_names.push(name);
            agents.push(agent);
        }

        let mut flows = Vec::new();
        let epochs = Scenario::epoch_count(&cfg);
        for h in 0..total_hosts {
            for f in 0..cfg.flows_per_host {
                // Receiver: same slot in the next AS over, shifted by the
                // flow number so multi-flow hosts fan out.
                let dst = (h + cfg.hosts_per_as + f) % total_hosts;
                flows.push(Flow {
                    src: h,
                    dst,
                    flow_key: (h * cfg.flows_per_host + f) as u64,
                    delivered_by_epoch: vec![0; epochs],
                    sent: 0,
                    delivered: 0,
                });
            }
        }

        Ok(Scenario {
            cfg,
            net,
            agents,
            recv_addrs,
            recv_idx,
            dns_names,
            flows,
            recv_index,
            revoked: HashSet::new(),
            last_delivery: HashMap::new(),
            counted: HashSet::new(),
        })
    }

    fn epoch_count(cfg: &ScenarioConfig) -> usize {
        let horizon = u64::from(ExpiryClass::Short.lifetime_secs());
        (cfg.duration_secs / horizon + 1) as usize
    }

    /// Read access to the network (post-run inspection).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Runs the scenario to completion and returns the report. All
    /// invariants are *tallied*, not asserted — callers decide which must
    /// be zero (tests assert all of them).
    ///
    /// Ticks are self-rescheduling `TickEvent`s on the shared
    /// [`Simulator`] engine; the per-tick phase order (and thus every byte
    /// of the log) is identical to the old sweep loop.
    pub fn run(self) -> Result<ScenarioReport, Error> {
        let ticks = self.cfg.duration_secs / self.cfg.tick_secs;
        let mut sim = Simulator::new();
        if ticks > 0 {
            sim.schedule(SimTime::ZERO, TickEvent { tick: 0, ticks });
        }
        let mut world = ScenarioWorld {
            sc: self,
            acc: TickAcc::default(),
        };
        sim.run(&mut world);
        let ScenarioWorld { sc, acc } = world;
        if let Some(e) = acc.error {
            return Err(e);
        }
        sc.finish(acc)
    }

    /// One tick of the chaos engine: refresh sweep → receiver rotation →
    /// scheduled shut-off → one packet per flow → drain and classify.
    fn run_tick(&mut self, tick: u64, acc: &mut TickAcc) -> Result<(), Error> {
        let horizon = u64::from(ExpiryClass::Short.lifetime_secs());
        {
            let t = SimTime::from_secs(tick * self.cfg.tick_secs);
            if t > self.net.now() {
                self.net.advance_to(t);
            }

            // Clock-driven rotation: every agent replaces EphIDs expiring
            // within the margin, over the wire, with retries.
            let mut tick_refreshes = 0usize;
            for agent in &mut self.agents {
                let now = self.net.now().as_protocol_time();
                tick_refreshes += agent.refresh_expiring(&mut self.net, now)?;
            }
            acc.refreshes += tick_refreshes as u64;

            // Receiver-identity rotation (§VII-A lifecycle): on the
            // configured cadence every host acquires a fresh receive
            // EphID over the wire and re-publishes its DNS name with a
            // `DnsUpdate` signed by the *currently published* identity
            // (the zone's continuity check). Senders pick the new address
            // up from the zone below, so flows hop identities mid-stream.
            let mut tick_rotations = 0u64;
            if let Some(k) = self.cfg.receiver_rotation_ticks {
                if tick > 0 && tick % k == 0 {
                    for h in 0..self.agents.len() {
                        let aid = self.recv_addrs[h].aid;
                        let agent = &mut self.agents[h];
                        let now = self.net.now().as_protocol_time();
                        let new_idx = agent.acquire(&mut self.net, EphIdUsage::DATA_LONG, now)?;
                        agent.dns_update(
                            &mut self.net,
                            aid,
                            &self.dns_names[h],
                            new_idx,
                            self.recv_idx[h],
                            now,
                        )?;
                        // The new address is what the *zone* now serves —
                        // resolve it back out rather than trusting local
                        // state, so the rotation is wire-driven end to end.
                        let served = self
                            .net
                            .dns(aid)
                            .and_then(|z| z.resolve(&self.dns_names[h]))
                            .ok_or(Error::ControlRejected("rotated name vanished from zone"))?;
                        let addr = HostAddr::new(aid, served.cert.ephid);
                        debug_assert_eq!(addr.ephid, self.agents[h].owned_ephid(new_idx).ephid());
                        self.recv_index.insert(addr.ephid, h);
                        self.recv_addrs[h] = addr;
                        self.recv_idx[h] = new_idx;
                        tick_rotations += 1;
                    }
                }
            }
            acc.receiver_rotations += tick_rotations;

            // Scheduled shut-off: the receiver of flow 0 files against its
            // sender's current EphID using the latest delivered evidence.
            if self.cfg.shutoff_at_tick == Some(tick) {
                if let Some(evidence) = self.last_delivery.get(&0).cloned() {
                    let flow = &self.flows[0];
                    let src_aid = self.recv_addrs[flow.src].aid;
                    // The receiver signs with its receive EphID (index 0 in
                    // its owned list — the first acquisition in build()).
                    // §IV-E: the victim proves it owns the EphID the
                    // evidence packet was addressed to. Under receiver
                    // rotation that is not necessarily the *current*
                    // receive identity — pick the owned EphID matching
                    // the evidence's destination.
                    let owned_idx = ApnaHeader::parse(&evidence, self.cfg.replay_mode)
                        .ok()
                        .and_then(|(eh, _)| self.agents[flow.dst].owned_index_of(eh.dst.ephid))
                        .unwrap_or(self.recv_idx[flow.dst]);
                    let victim = &mut self.agents[flow.dst];
                    let now = self.net.now().as_protocol_time();
                    let ack = victim.request_shutoff(
                        &mut self.net,
                        src_aid,
                        &evidence,
                        owned_idx,
                        now,
                    )?;
                    self.revoked.insert(ack.ephid);
                    acc.shutoff_ephid = Some(ack.ephid);
                    acc.log.push(format!("tick {tick}: shutoff acked"));
                }
            }

            // One packet per flow. The pool decides which EphID carries it;
            // acquisitions (first use, or post-refresh) cross the network.
            let mut sent = 0u64;
            for fi in 0..self.flows.len() {
                let (src, dst, flow_key) = {
                    let fl = &self.flows[fi];
                    (fl.src, fl.dst, fl.flow_key)
                };
                let dst_addr = self.recv_addrs[dst];
                let now = self.net.now().as_protocol_time();
                let idx = self.agents[src].ephid_for(&mut self.net, flow_key, 0, now)?;
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&(fi as u64).to_be_bytes());
                payload.extend_from_slice(&tick.to_be_bytes());
                let wire = self.agents[src].build_raw_packet(idx, dst_addr, &payload);
                let src_aid = self.recv_addrs[src].aid;
                self.net.send(src_aid, wire);
                self.flows[fi].sent += 1;
                sent += 1;
            }
            self.net.run();

            // Drain deliveries; classify and tally invariants.
            let epoch = ((tick * self.cfg.tick_secs) / horizon) as usize;
            let mut delivered = 0u64;
            for pkt in self.net.take_delivered() {
                let Ok((header, payload)) = ApnaHeader::parse(&pkt.bytes, self.cfg.replay_mode)
                else {
                    acc.corrupt_discards += 1;
                    continue;
                };
                // Control leftovers (duplicated replies an RPC already
                // satisfied) are not flow traffic.
                if ControlMsg::parse(payload).is_ok() {
                    continue;
                }
                // Accountability: the claimed source AS must be able to
                // open the EphID to a valid, registered customer. Only
                // in-transit mutation can garble the AID or EphID; if
                // nothing in this run mutates packets, any failure here is
                // a real violation.
                let mutation_possible =
                    self.cfg.faults.corrupt_chance > 0.0 || self.net.stats.adversary.tampered > 0;
                let opened = self
                    .net
                    .try_node(header.src.aid)
                    .map(|n| (ephid::open(&n.infra.keys, &header.src.ephid), n));
                match opened {
                    Some((Ok(plain), src_node)) => {
                        if !src_node.infra.host_db.is_valid(plain.hid) {
                            acc.unaccountable += 1;
                            continue;
                        }
                    }
                    Some((Err(_), _)) | None => {
                        if mutation_possible {
                            acc.corrupt_discards += 1;
                        } else {
                            acc.unaccountable += 1;
                        }
                        continue;
                    }
                }
                // Shut-off stickiness: an acked EphID must never deliver
                // again.
                if self.revoked.contains(&header.src.ephid) {
                    acc.shutoff_violations += 1;
                    continue;
                }
                // Flow continuity accounting (tag: flow index ‖ tick). A
                // link-duplicated copy carries the same tag and is
                // absorbed, exactly as the host's §VIII-D replay window
                // would absorb its nonce.
                if payload.len() == 16 {
                    let fi = u64::from_be_bytes(payload[..8].try_into().unwrap()) as usize;
                    let tag = u64::from_be_bytes(payload[8..16].try_into().unwrap());
                    if let Some(flow) = self.flows.get_mut(fi) {
                        if self.recv_index.get(&header.dst.ephid) == Some(&flow.dst)
                            && self.counted.insert((fi, tag))
                        {
                            flow.delivered += 1;
                            flow.delivered_by_epoch[epoch] += 1;
                            delivered += 1;
                            self.last_delivery.insert(fi, pkt.bytes.clone());
                        }
                    }
                } else {
                    acc.corrupt_discards += 1;
                }
            }

            acc.log.push(format!(
                "tick {tick} t={} refreshes={tick_refreshes} rotations={tick_rotations} \
                 sent={sent} delivered={delivered}",
                self.net.now()
            ));
        }
        Ok(())
    }

    /// End-of-run sweep and report assembly: wiretap unlinkability,
    /// continuity epochs, expired-egress tally.
    fn finish(self, acc: TickAcc) -> Result<ScenarioReport, Error> {
        let TickAcc {
            mut log,
            refreshes,
            receiver_rotations,
            unaccountable,
            shutoff_violations,
            corrupt_discards,
            shutoff_ephid,
            error: _,
        } = acc;
        let horizon = u64::from(ExpiryClass::Short.lifetime_secs());

        // Unlinkability over the whole capture: every source EphID on the
        // wire is globally unique (HashSet of all owned EphIDs per agent
        // is the ground truth), and none decrypts under a non-issuing AS.
        let mut linkability_violations = 0u64;
        let mut wire_srcs: HashSet<EphIdBytes> = HashSet::new();
        let mut owners: HashMap<EphIdBytes, usize> = HashMap::new();
        for (i, agent) in self.agents.iter().enumerate() {
            for idx in 0..agent.ephid_count() {
                let e = agent.owned_ephid(idx).ephid();
                if owners.insert(e, i).is_some() {
                    linkability_violations += 1; // EphID collision across hosts
                }
            }
        }
        for frame in self.net.wiretap_frames() {
            let Ok((header, _)) = ApnaHeader::parse(&frame.bytes, self.cfg.replay_mode) else {
                continue;
            };
            wire_srcs.insert(header.src.ephid);
            if let Some(&owner) = owners.get(&header.src.ephid) {
                let home = self.recv_addrs[owner].aid;
                for a in 1..=self.cfg.num_ases as u32 {
                    if Aid(a) != home
                        && ephid::open(&self.net.node(Aid(a)).infra.keys, &header.src.ephid).is_ok()
                    {
                        linkability_violations += 1;
                    }
                }
            }
        }

        // Continuity: every flow must make progress in every full rotation
        // epoch (the shut-off flow is exempt after its revocation — losing
        // service is the *point* of a shut-off until the pool rotates).
        let full_epochs = (self.cfg.duration_secs / horizon) as usize;
        let interrupted_flows = self
            .flows
            .iter()
            .enumerate()
            .filter(|(fi, _)| self.cfg.shutoff_at_tick.is_none() || *fi != 0)
            .filter(|(_, f)| {
                f.delivered_by_epoch[..full_epochs.max(1).min(f.delivered_by_epoch.len())]
                    .contains(&0)
            })
            .count() as u64;

        // Rotation must keep every pooled EphID ahead of the border's
        // expiry check: an Expired egress drop means a tick missed one.
        let expired_egress = self
            .net
            .stats
            .egress_drop_reasons
            .count(DropReason::Expired);

        let data_sent: u64 = self.flows.iter().map(|f| f.sent).sum();
        let data_delivered: u64 = self.flows.iter().map(|f| f.delivered).sum();
        log.push(format!(
            "end: sent={data_sent} delivered={data_delivered} refreshes={refreshes} \
             expired_egress={expired_egress} wire_ephids={}",
            wire_srcs.len()
        ));
        log.push(format!("stats: {:?}", self.net.stats));

        Ok(ScenarioReport {
            stats_debug: format!("{:?}", self.net.stats),
            event_log: log,
            data_sent,
            data_delivered,
            refreshes,
            receiver_rotations,
            rpc_retries: self.net.stats.control_retries.total(),
            unaccountable_deliveries: unaccountable,
            linkability_violations,
            shutoff_violations,
            interrupted_flows,
            expired_egress,
            wire_ephids: wire_srcs.len(),
            corrupt_discards,
            shutoff_ephid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_is_clean_and_deterministic() {
        let run = || {
            Scenario::build(ScenarioConfig::default())
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        assert!(a.data_sent > 0);
        assert_eq!(a.data_delivered, a.data_sent, "lossless world delivers all");
        assert_eq!(a.unaccountable_deliveries, 0);
        assert_eq!(a.linkability_violations, 0);
        assert_eq!(a.interrupted_flows, 0);
        assert_eq!(a.expired_egress, 0);
        let b = run();
        assert_eq!(a.event_log, b.event_log);
        assert_eq!(a.stats_debug, b.stats_debug);
    }

    #[test]
    fn different_seeds_differ() {
        let report = |seed: u64| {
            Scenario::build(ScenarioConfig {
                seed,
                faults: FaultProfile::lossy(0.05, 0.0),
                ..ScenarioConfig::default()
            })
            .unwrap()
            .run()
            .unwrap()
        };
        // Different seeds see different fault streams (the logs diverge).
        assert_ne!(report(1).stats_debug, report(2).stats_debug);
    }
}
