//! The event-driven network: APNA ASes wired by links.
//!
//! Packets injected by hosts run the full paper pipeline:
//!
//! ```text
//! host → [source BR egress, Fig. 4 bottom] → link → (transit BRs) →
//!        [destination BR ingress, Fig. 4 top] → host inbox
//! ```
//!
//! Each AS is a [`BorderCore`], as in `apna-border`; the network schedules
//! around it. Every packet gets a [`PacketFate`], so tests can assert not
//! just *that* something was dropped but *where* and *why*. An optional
//! wiretap records every frame crossing inter-AS links — the §II-B
//! adversary's view — which the privacy tests and the surveillance example
//! analyze.

use crate::adversary::{Adversary, AdversaryAction, AdversaryStats, FrameKind, InterceptedFrame};
use crate::clock::SimTime;
use crate::event::EventQueue;
use crate::link::{Link, LinkOutcome};
use crate::topology::Topology;
use apna_core::border::{DropCounters, DropReason, Verdict};
use apna_core::control::{
    ControlCounters, ControlKind, ControlMsg, ControlPlane, ControlReply, ControlTransport, Service,
};
use apna_core::deploy::BorderCore;
use apna_core::directory::AsDirectory;
use apna_core::host::Host;
use apna_core::management::client as ms_client;
use apna_core::time::Timestamp;
use apna_core::{AsNode, Error, Hid};
use apna_dns::DnsServer;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// What finally happened to an injected packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketFate {
    /// Source border router refused it (accountability enforcement).
    EgressDropped(DropReason),
    /// Fault injection lost it on the link into `toward`.
    LostOnLink {
        /// The AS the packet was heading to when lost.
        toward: Aid,
    },
    /// A border router refused it on arrival.
    IngressDropped {
        /// The AS that dropped it.
        at: Aid,
        /// Why.
        reason: DropReason,
    },
    /// No route toward the destination AS.
    NoRoute {
        /// Where routing failed.
        at: Aid,
    },
    /// Delivered to the destination host.
    Delivered {
        /// Destination AS.
        aid: Aid,
        /// Destination host (AS-internal identifier).
        hid: Hid,
        /// Arrival time.
        at: SimTime,
    },
    /// Still in flight (events pending).
    InFlight,
}

/// A packet delivered to a host's inbox.
#[derive(Debug, Clone)]
pub struct DeliveredPacket {
    /// Injection id (returned by [`Network::send`]).
    pub id: u64,
    /// Destination AS.
    pub aid: Aid,
    /// Destination host.
    pub hid: Hid,
    /// Full packet bytes (header + payload).
    pub bytes: Vec<u8>,
    /// Arrival time.
    pub at: SimTime,
}

/// A frame observed on an inter-AS link (the on-path adversary's view).
#[derive(Debug, Clone)]
pub struct ObservedFrame {
    /// Observation time.
    pub at: SimTime,
    /// Link endpoints.
    pub from: Aid,
    /// Link endpoints.
    pub to: Aid,
    /// The raw bytes the adversary captures.
    pub bytes: Vec<u8>,
}

/// Aggregate counters.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Packets injected by hosts.
    pub injected: u64,
    /// Packets delivered to host inboxes.
    pub delivered: u64,
    /// Egress drops (total; see `egress_drop_reasons` for the breakdown).
    pub egress_dropped: u64,
    /// Ingress drops (total; see `ingress_drop_reasons` for the breakdown).
    pub ingress_dropped: u64,
    /// Link losses.
    pub link_lost: u64,
    /// Per-[`DropReason`] breakdown of egress drops.
    pub egress_drop_reasons: DropCounters,
    /// Per-[`DropReason`] breakdown of ingress drops.
    pub ingress_drop_reasons: DropCounters,
    /// Ingress bursts processed (simultaneous arrivals at one border
    /// router form one batch).
    pub ingress_batches: u64,
    /// Largest ingress burst seen.
    pub max_ingress_batch: u64,
    /// Per-kind counts of control messages delivered to AS services.
    pub control_delivered: ControlCounters,
    /// Per-kind counts of control replies emitted by AS services.
    pub control_replies: ControlCounters,
    /// Control deliveries the service refused (unparseable frame, failed
    /// protocol checks) — the silent-drop outcomes of Figs. 3/5.
    pub control_rejected: u64,
    /// Retries issued by [`Network::control_rpc`], per *request* kind —
    /// how often the loss-tolerant control plane had to resend.
    pub control_retries: ControlCounters,
    /// Control RPCs that exhausted their retry budget or deadline.
    pub control_rpc_failures: u64,
    /// `EphIdBusy` pushbacks received by [`Network::control_rpc`] or in a
    /// request burst — issuance admission control telling a host to back
    /// off.
    pub control_busy: u64,
    /// Extra packet copies created by link-level duplication.
    pub link_duplicated: u64,
    /// The on-path adversary's activity (all zero when none is installed).
    pub adversary: AdversaryStats,
}

/// Deadline + retry knobs for [`Network::control_rpc`]. A control reply
/// lost to faults or an on-path adversary is recovered by resending the
/// request (every control protocol is idempotent at the service side), up
/// to `max_attempts` sends or `deadline_us` of simulated time — whichever
/// bites first.
///
/// Waits between attempts grow **exponentially** with **deterministic
/// seeded jitter** ([`RetryPolicy::backoff_for`]): a fixed backoff makes
/// every host that lost the same congested exchange resend in the same
/// simulated microsecond — a self-sustaining retry storm. Doubling spreads
/// load over time; jitter decorrelates the herd; seeding keeps the chaos
/// suite byte-for-byte reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total sends allowed per RPC (1 = the pre-retry behavior).
    pub max_attempts: u32,
    /// Center of the *first* retry wait, microseconds; each further retry
    /// doubles it.
    pub base_backoff_us: u64,
    /// Exponential growth cap, microseconds.
    pub max_backoff_us: u64,
    /// Give up once this much simulated time has elapsed since the first
    /// send, even with attempts left.
    pub deadline_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 250_000,
            max_backoff_us: 2_000_000,
            deadline_us: 10_000_000,
        }
    }
}

/// SplitMix64: the deterministic jitter stream behind
/// [`RetryPolicy::backoff_for`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// No retries: fail on the first lost request or reply.
    #[must_use]
    pub fn single_shot() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Uniform backoff (no growth, no jitter) — for tests that need exact
    /// wait arithmetic.
    #[must_use]
    pub fn fixed(max_attempts: u32, backoff_us: u64, deadline_us: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff_us: backoff_us,
            max_backoff_us: backoff_us,
            deadline_us,
        }
    }

    /// The wait before retry number `retry` (1-based): exponential growth
    /// `base · 2^(retry-1)` capped at `max_backoff_us`, then "equal
    /// jitter" — the wait lands uniformly in `[w/2, w]`, driven by
    /// `jitter_seed` so identical runs draw identical waits while
    /// different hosts (different seeds) decollide.
    #[must_use]
    pub fn backoff_for(&self, retry: u32, jitter_seed: u64) -> u64 {
        let exp = retry.saturating_sub(1).min(20);
        let w = self
            .base_backoff_us
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_us.max(self.base_backoff_us))
            .max(1);
        let half = w / 2;
        // No jitter when growth is disabled (fixed policies want exact
        // waits); otherwise uniform in [w/2, w].
        if self.base_backoff_us == self.max_backoff_us {
            w
        } else {
            half + splitmix64(jitter_seed) % (w - half + 1)
        }
    }
}

/// Per-[`ControlKind`] retry policies: one knob per control protocol,
/// because their stakes differ — a lost `ShutoffAck` means an attack keeps
/// landing (§IV-E wants persistence), while a lost `DnsAck` only delays a
/// republication the zone converges to anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicies {
    /// Baseline: EphID issuance and everything without an override.
    pub default_policy: RetryPolicy,
    /// Shut-off requests: more attempts, longer deadline.
    pub shutoff: RetryPolicy,
    /// DNS register/update: fewer attempts, shorter deadline.
    pub dns: RetryPolicy,
}

impl Default for RetryPolicies {
    fn default() -> RetryPolicies {
        RetryPolicies {
            default_policy: RetryPolicy::default(),
            shutoff: RetryPolicy {
                max_attempts: 7,
                base_backoff_us: 250_000,
                max_backoff_us: 4_000_000,
                deadline_us: 30_000_000,
            },
            dns: RetryPolicy {
                max_attempts: 3,
                base_backoff_us: 250_000,
                max_backoff_us: 1_000_000,
                deadline_us: 5_000_000,
            },
        }
    }
}

impl RetryPolicies {
    /// The same policy for every kind.
    #[must_use]
    pub fn uniform(policy: RetryPolicy) -> RetryPolicies {
        RetryPolicies {
            default_policy: policy,
            shutoff: policy,
            dns: policy,
        }
    }

    /// No retries anywhere.
    #[must_use]
    pub fn single_shot() -> RetryPolicies {
        RetryPolicies::uniform(RetryPolicy::single_shot())
    }

    /// The policy governing an RPC whose *request* is of `kind`.
    #[must_use]
    pub fn policy_for(&self, kind: ControlKind) -> &RetryPolicy {
        match kind {
            ControlKind::ShutoffRequest | ControlKind::ShutoffAck => &self.shutoff,
            ControlKind::DnsRegister | ControlKind::DnsUpdate | ControlKind::DnsAck => &self.dns,
            ControlKind::EphIdRequest
            | ControlKind::EphIdReply
            | ControlKind::EphIdBusy
            | ControlKind::RevocationAnnounce => &self.default_policy,
        }
    }
}

/// Internal triage of a failed RPC attempt: transport losses are retried,
/// protocol refusals are not.
enum RpcFailure {
    /// The request or reply was lost in flight — retryable.
    Transport,
    /// A typed protocol error — retrying cannot change the outcome.
    Fatal(Error),
}

/// A control message observed arriving at an AS service (issuance,
/// shut-off, revocation, DNS publication) — the control-plane analogue of
/// a [`PacketFate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlDelivered {
    /// Id of the carrier packet.
    pub packet_id: u64,
    /// The AS whose service received it.
    pub aid: Aid,
    /// The message kind.
    pub kind: ControlKind,
    /// Arrival time.
    pub at: SimTime,
}

/// Internal queue payload: a packet arriving at an AS border router.
/// `(time, seq)` ordering lives in the shared [`EventQueue`] engine.
#[derive(Debug)]
struct Arrival {
    packet_id: u64,
    aid: Aid,
    bytes: Vec<u8>,
}

/// A network event surfaced to observers (tests, examples).
#[derive(Debug, Clone)]
pub enum NetworkEvent {
    /// A packet's fate was finalized.
    Fate {
        /// Packet id.
        id: u64,
        /// Final fate.
        fate: PacketFate,
    },
    /// A control message reached an AS service.
    ControlDelivered {
        /// Carrier packet id.
        id: u64,
        /// Receiving AS.
        aid: Aid,
        /// Message kind.
        kind: ControlKind,
    },
}

/// The simulated internetwork.
pub struct Network {
    /// Shared RPKI stand-in; `AsNode`s publish their keys here.
    pub directory: AsDirectory,
    topology: Topology,
    /// One border per AS, owning its node: one shard, reply nonces from 0.
    cores: HashMap<Aid, BorderCore>,
    /// Ordered, so any whole-map sweep visits links in a deterministic
    /// order (DET-1); per-hop forwarding is keyed lookup.
    links: BTreeMap<(Aid, Aid), Link>,
    now: SimTime,
    replay_mode: ReplayMode,
    events: EventQueue<Arrival>,
    next_packet_id: u64,
    fates: HashMap<u64, PacketFate>,
    /// Insertion order of fate entries, kept only when a fate capacity is
    /// set: the eviction queue for bounded-memory scale runs.
    fate_order: VecDeque<u64>,
    /// When `Some(cap)`, at most `cap` fates are retained (oldest packet
    /// ids are forgotten). `None` = remember everything (the default).
    fate_capacity: Option<usize>,
    inboxes: Vec<DeliveredPacket>,
    wiretap: Option<Vec<ObservedFrame>>,
    /// Streaming alternative to the wiretap for scale runs: the set of
    /// distinct source EphIDs observed on inter-AS links, without storing
    /// frames.
    ephid_tally: Option<BTreeSet<EphIdBytes>>,
    dns_servers: HashMap<Aid, DnsServer>,
    control_log: Vec<ControlDelivered>,
    /// Whether control deliveries are appended to `control_log`. Scale
    /// runs disable it: the log is an unbounded per-RPC allocation.
    control_log_enabled: bool,
    adversary: Option<Box<dyn Adversary>>,
    /// XORed into every link's fault seed (set it before
    /// [`Network::connect`]): distinct salts give one topology independent
    /// fault streams, so scenario seeds really change the weather.
    pub link_seed_salt: u64,
    /// Aggregate counters.
    pub stats: NetStats,
    /// Per-kind deadline + retry policies for [`Network::control_rpc`].
    pub retry_policy: RetryPolicies,
    /// Monotone RPC counter: mixed with [`Network::link_seed_salt`] into
    /// the deterministic retry-jitter stream.
    rpc_seq: u64,
    /// Latency for host↔BR delivery inside an AS, microseconds.
    pub intra_as_latency_us: u64,
}

impl Network {
    /// Creates an empty network operating under `replay_mode`.
    #[must_use]
    pub fn new(replay_mode: ReplayMode) -> Network {
        Network {
            directory: AsDirectory::new(),
            topology: Topology::new(),
            cores: HashMap::new(),
            links: BTreeMap::new(),
            now: SimTime::ZERO,
            replay_mode,
            events: EventQueue::new(),
            next_packet_id: 0,
            fates: HashMap::new(),
            fate_order: VecDeque::new(),
            fate_capacity: None,
            inboxes: Vec::new(),
            wiretap: None,
            ephid_tally: None,
            dns_servers: HashMap::new(),
            control_log: Vec::new(),
            control_log_enabled: true,
            adversary: None,
            link_seed_salt: 0,
            stats: NetStats::default(),
            retry_policy: RetryPolicies::default(),
            rpc_seq: 0,
            intra_as_latency_us: 50,
        }
    }

    /// Enables the on-path adversary's wiretap on all inter-AS links.
    pub fn enable_wiretap(&mut self) {
        self.wiretap = Some(Vec::new());
    }

    /// Installs an active on-path [`Adversary`]: every frame crossing an
    /// inter-AS link is shown to it and its verdict (pass / drop / delay /
    /// replay / tamper) is applied before the frame reaches the next AS.
    pub fn set_adversary(&mut self, adversary: impl Adversary + 'static) {
        self.adversary = Some(Box::new(adversary));
    }

    /// Removes the active adversary, if any.
    pub fn clear_adversary(&mut self) {
        self.adversary = None;
    }

    /// Captured frames (empty if the wiretap was never enabled).
    #[must_use]
    pub fn wiretap_frames(&self) -> &[ObservedFrame] {
        self.wiretap.as_deref().unwrap_or(&[])
    }

    /// Enables the streaming wire-EphID tally: the set of distinct source
    /// EphIDs seen on inter-AS links. The scale driver's unlinkability
    /// check runs on this instead of the full wiretap, which would store
    /// millions of frames.
    pub fn enable_ephid_tally(&mut self) {
        self.ephid_tally = Some(BTreeSet::new());
    }

    /// Distinct source EphIDs observed on inter-AS links (`None` unless
    /// [`Network::enable_ephid_tally`] was called). Ordered, so callers
    /// can iterate it without a post-hoc sort.
    #[must_use]
    pub fn wire_src_ephids(&self) -> Option<&BTreeSet<EphIdBytes>> {
        self.ephid_tally.as_ref()
    }

    /// Caps the packet-fate map at `cap` entries: the oldest packet ids
    /// are forgotten as new ones are injected. Scale runs set this so a
    /// multi-million-packet run keeps O(cap) fate memory; late
    /// [`PacketFate`] updates for forgotten ids are silently discarded.
    pub fn set_fate_capacity(&mut self, cap: usize) {
        self.fate_capacity = Some(cap.max(1));
    }

    /// Adds an AS with deterministic keys derived from `seed`.
    pub fn add_as(&mut self, aid: Aid, seed: [u8; 32]) -> &AsNode {
        let node = AsNode::from_seed(aid, seed, &self.directory, self.now.as_protocol_time());
        let router = node.br.clone();
        self.topology.add_as(aid);
        self.cores
            .insert(aid, BorderCore::new(node, router, self.replay_mode, 1, 0));
        self.node(aid)
    }

    /// Connects two ASes with symmetric `link_template` parameters; each
    /// direction gets an independently seeded fault stream.
    pub fn connect(
        &mut self,
        a: Aid,
        b: Aid,
        latency_us: u64,
        bandwidth_bps: u64,
        faults: crate::link::FaultProfile,
    ) {
        self.topology.connect(a, b);
        let seed_ab = (u64::from(a.0) << 32 | u64::from(b.0)) ^ self.link_seed_salt;
        let seed_ba = (u64::from(b.0) << 32 | u64::from(a.0)) ^ self.link_seed_salt;
        self.links.insert(
            (a, b),
            Link::new(latency_us, bandwidth_bps, faults, seed_ab),
        );
        self.links.insert(
            (b, a),
            Link::new(latency_us, bandwidth_bps, faults, seed_ba),
        );
    }

    /// Immutable access to an AS.
    #[must_use]
    pub fn node(&self, aid: Aid) -> &AsNode {
        &self.cores[&aid].node
    }

    /// Immutable access to an AS, `None` for unknown AIDs (e.g. an AID
    /// field garbled in transit).
    #[must_use]
    pub fn try_node(&self, aid: Aid) -> Option<&AsNode> {
        self.cores.get(&aid).map(|core| &core.node)
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock without processing (idle time between scenarios).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    /// A host in `src_aid` injects a packet. Runs source-BR egress
    /// immediately (host↔BR transit is intra-AS and charged as
    /// [`Network::intra_as_latency_us`]); returns the packet id.
    pub fn send(&mut self, src_aid: Aid, bytes: Vec<u8>) -> u64 {
        self.send_batch(src_aid, vec![bytes])[0]
    }

    /// A host (or several hosts sharing an uplink) in `src_aid` injects a
    /// burst of packets. The whole burst runs through the source AS's
    /// [`BorderCore::egress`], so header parsing and replay-shard locking
    /// are amortized exactly as on a real line-rate box. Returns one packet
    /// id per packet, in order; from an AS not in the network every packet
    /// meets [`PacketFate::NoRoute`] there.
    pub fn send_batch(&mut self, src_aid: Aid, packets: Vec<Vec<u8>>) -> Vec<u64> {
        let ids: Vec<u64> = (self.next_packet_id..).take(packets.len()).collect();
        self.next_packet_id += ids.len() as u64;
        self.stats.injected += ids.len() as u64;
        for &id in &ids {
            self.fates.insert(id, PacketFate::InFlight);
            if let Some(cap) = self.fate_capacity {
                self.fate_order.push_back(id);
                while self.fate_order.len() > cap {
                    let old = self.fate_order.pop_front().expect("non-empty order queue");
                    self.fates.remove(&old);
                }
            }
        }

        let now = self.now.as_protocol_time();
        let Some(paired) = self.cores.get_mut(&src_aid).map(|c| c.egress(now, packets)) else {
            for &id in &ids {
                self.record_fate(id, PacketFate::NoRoute { at: src_aid });
            }
            return ids;
        };
        for (&id, (bytes, verdict)) in ids.iter().zip(paired) {
            match verdict {
                Verdict::Drop(reason) => {
                    self.stats.egress_drop_reasons.record(reason);
                    self.stats.egress_dropped += 1;
                    self.fates.insert(id, PacketFate::EgressDropped(reason));
                }
                Verdict::ForwardInter { dst_aid } if dst_aid == src_aid => {
                    // Intra-AS delivery: straight to ingress processing.
                    // The active adversary sees this hop too (`from == to`
                    // marks it): §II-B limits the *wiretap* to inter-AS
                    // links, but robustness testing needs an attacker on
                    // the AS-internal segment as well — that is where
                    // issuance replies travel.
                    let at = self.now.add_micros(self.intra_as_latency_us);
                    self.route_with_adversary(id, at, src_aid, src_aid, bytes);
                }
                Verdict::ForwardInter { dst_aid } => {
                    self.forward_toward(id, src_aid, dst_aid, bytes);
                }
                // Egress never delivers.
                Verdict::DeliverLocal { .. } => {}
            }
        }
        ids
    }

    fn push_event(&mut self, at: SimTime, packet_id: u64, aid: Aid, bytes: Vec<u8>) {
        self.events.schedule(
            at,
            Arrival {
                packet_id,
                aid,
                bytes,
            },
        );
    }

    /// Records a final fate for `id`. With duplication in play, one packet
    /// id can reach several final states (the original delivered, its copy
    /// lost); a `Delivered` fate is never downgraded by a later loss.
    /// Under a fate capacity, updates for already-evicted ids are dropped
    /// (they are history the scale run chose not to keep).
    fn record_fate(&mut self, id: u64, fate: PacketFate) {
        match self.fates.get(&id) {
            Some(PacketFate::Delivered { .. }) if !matches!(fate, PacketFate::Delivered { .. }) => {
                return;
            }
            None if self.fate_capacity.is_some() => return,
            _ => {}
        }
        self.fates.insert(id, fate);
    }

    /// Shows one link delivery to the installed adversary (if any) and
    /// returns its verdict.
    fn intercept(&mut self, at: SimTime, from: Aid, to: Aid, bytes: &[u8]) -> AdversaryAction {
        let Some(mut adversary) = self.adversary.take() else {
            return AdversaryAction::Pass;
        };
        self.stats.adversary.observed += 1;
        let frame = InterceptedFrame {
            at,
            from,
            to,
            kind: FrameKind::classify(bytes, self.replay_mode),
            bytes,
        };
        let action = adversary.intercept(&frame);
        self.adversary = Some(adversary);
        action
    }

    /// Transmits toward `dst_aid` from `at_aid` over the next-hop link.
    fn forward_toward(&mut self, id: u64, at_aid: Aid, dst_aid: Aid, bytes: Vec<u8>) {
        let Some(next) = self.topology.next_hop(at_aid, dst_aid) else {
            self.record_fate(id, PacketFate::NoRoute { at: at_aid });
            return;
        };
        let link = self
            .links
            .get_mut(&(at_aid, next))
            .expect("topology edge without link");
        match link.transmit(self.now, &bytes) {
            LinkOutcome::Dropped => {
                self.stats.link_lost += 1;
                self.record_fate(id, PacketFate::LostOnLink { toward: next });
            }
            LinkOutcome::Delivered(deliveries) => {
                for delivery in deliveries {
                    if delivery.duplicate {
                        self.stats.link_duplicated += 1;
                    }
                    if let Some(tap) = &mut self.wiretap {
                        tap.push(ObservedFrame {
                            at: delivery.at,
                            from: at_aid,
                            to: next,
                            bytes: delivery.bytes.clone(),
                        });
                    }
                    if let Some(tally) = &mut self.ephid_tally {
                        if let Ok((header, _)) =
                            ApnaHeader::parse(&delivery.bytes, self.replay_mode)
                        {
                            tally.insert(header.src.ephid);
                        }
                    }
                    self.route_with_adversary(id, delivery.at, at_aid, next, delivery.bytes);
                }
            }
        }
    }

    /// Shows one in-flight frame to the adversary and applies its verdict:
    /// queue it at `to` (possibly delayed, tampered, or with replay copies)
    /// or discard it.
    fn route_with_adversary(&mut self, id: u64, at: SimTime, from: Aid, to: Aid, bytes: Vec<u8>) {
        match self.intercept(at, from, to, &bytes) {
            AdversaryAction::Pass => self.push_event(at, id, to, bytes),
            AdversaryAction::Drop => {
                self.stats.adversary.dropped += 1;
                self.stats.link_lost += 1;
                self.record_fate(id, PacketFate::LostOnLink { toward: to });
            }
            AdversaryAction::Delay { extra_us } => {
                self.stats.adversary.delayed += 1;
                self.push_event(at.add_micros(extra_us), id, to, bytes);
            }
            AdversaryAction::Replay { copies, gap_us } => {
                self.stats.adversary.replayed += u64::from(copies);
                for i in 1..=u64::from(copies) {
                    self.push_event(at.add_micros(gap_us.max(1) * i), id, to, bytes.clone());
                }
                self.push_event(at, id, to, bytes);
            }
            AdversaryAction::TamperBit { bit } => {
                self.stats.adversary.tampered += 1;
                let mut mutated = bytes;
                if !mutated.is_empty() {
                    let bit = bit % (mutated.len() * 8);
                    mutated[bit / 8] ^= 1u8 << (bit % 8);
                }
                self.push_event(at, id, to, mutated);
            }
            AdversaryAction::Rewrite(forged) => {
                self.stats.adversary.tampered += 1;
                self.push_event(at, id, to, forged);
            }
        }
    }

    /// Processes all pending events until the network is idle. Returns the
    /// finalized fates in completion order.
    pub fn run(&mut self) -> Vec<NetworkEvent> {
        let mut out = Vec::new();
        self.run_events(None, true, &mut out);
        out
    }

    /// Processes all events scheduled at or before `until` (the partial
    /// drain the scheduled scenario drivers interleave with their own
    /// events). The clock never advances past the last processed arrival.
    pub fn run_until(&mut self, until: SimTime) -> Vec<NetworkEvent> {
        let mut out = Vec::new();
        self.run_events(Some(until), true, &mut out);
        out
    }

    /// [`Network::run_until`] without collecting [`NetworkEvent`]s — the
    /// scale driver's hot path, where allocating an observer record per
    /// packet fate would dominate the run.
    pub fn pump_until(&mut self, until: SimTime) {
        let mut out = Vec::new();
        self.run_events(Some(until), false, &mut out);
    }

    /// Timestamp of the earliest pending packet arrival, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Scheduling counters of the internal arrival queue (events processed,
    /// heap high-water mark) — the network half of a run's event budget.
    #[must_use]
    pub fn queue_stats(&self) -> crate::event::SimStats {
        self.events.stats()
    }

    /// The shared event loop behind [`Network::run`] / [`Network::run_until`]
    /// / [`Network::pump_until`].
    fn run_events(&mut self, until: Option<SimTime>, collect: bool, out: &mut Vec<NetworkEvent>) {
        while let Some(head_time) = self.events.peek_time() {
            if let Some(limit) = until {
                if head_time > limit {
                    break;
                }
            }
            let (at, ev) = self.events.pop().expect("peeked event exists");
            self.now = self.now.max(at);

            // Drain the burst: all packets arriving at the same border
            // router at the same instant form one batch. Event ordering is
            // unchanged — the queue is time-ordered and a burst is by
            // definition simultaneous.
            let aid = ev.aid;
            let mut burst = vec![(ev.packet_id, ev.bytes)];
            while let Some((next_at, next)) = self.events.peek() {
                if next_at != at || next.aid != aid {
                    break;
                }
                let (_, next) = self.events.pop().expect("peeked event exists");
                burst.push((next.packet_id, next.bytes));
            }
            self.stats.ingress_batches += 1;
            self.stats.max_ingress_batch = self.stats.max_ingress_batch.max(burst.len() as u64);

            let Some(core) = self.cores.get_mut(&aid) else {
                continue;
            };
            let ingress = core.ingress(self.now.as_protocol_time(), burst);
            let arrival = self.now.add_micros(self.intra_as_latency_us);
            for (id, verdict, bytes) in ingress.frames {
                let fate = match verdict {
                    Verdict::DeliverLocal { hid } => {
                        self.stats.delivered += 1;
                        // A service's packet waits in `ingress.services`.
                        if let Some(bytes) = bytes {
                            self.inboxes.push(DeliveredPacket {
                                id,
                                aid,
                                hid,
                                bytes,
                                at: arrival,
                            });
                        }
                        PacketFate::Delivered {
                            aid,
                            hid,
                            at: arrival,
                        }
                    }
                    Verdict::ForwardInter { dst_aid } => {
                        self.forward_toward(id, aid, dst_aid, bytes.unwrap_or_default());
                        continue;
                    }
                    Verdict::Drop(reason) => {
                        self.stats.ingress_drop_reasons.record(reason);
                        self.stats.ingress_dropped += 1;
                        PacketFate::IngressDropped { at: aid, reason }
                    }
                };
                self.record_fate(id, fate.clone());
                if collect {
                    out.push(NetworkEvent::Fate { id, fate });
                }
            }
            // Each endpoint gets its packets as ONE batched control dispatch,
            // in HID order; replies are scheduled events, so deferring them
            // within the simultaneous burst changes no ordering.
            for (hid, items) in ingress.services {
                self.deliver_control_batch(out, collect, aid, hid, items);
            }
        }
    }

    /// Serves a burst delivered to ONE AS service endpoint through
    /// [`BorderCore::serve`] (the DNS endpoint by the attached zone, if
    /// any), records it, and injects the replies as one burst.
    fn deliver_control_batch(
        &mut self,
        out: &mut Vec<NetworkEvent>,
        collect: bool,
        aid: Aid,
        hid: Hid,
        items: Vec<(u64, Vec<u8>)>,
    ) {
        let at = self.now.add_micros(self.intra_as_latency_us);
        let (ids, packets): (Vec<u64>, Vec<Vec<u8>>) = items.into_iter().unzip();
        let zone = self.dns_servers.get(&aid).map(|z| z as &dyn ControlPlane);
        let Some(core) = self.cores.get_mut(&aid) else {
            return;
        };
        let served = core.serve(self.now.as_protocol_time(), hid, &packets, zone);

        self.stats.control_rejected += served.rejected;
        for (id, kind) in ids.into_iter().zip(served.requests) {
            let Some(kind) = kind else { continue };
            self.stats.control_delivered.record(kind);
            if self.control_log_enabled {
                self.control_log.push(ControlDelivered {
                    packet_id: id,
                    aid,
                    kind,
                    at,
                });
            }
            if collect {
                out.push(NetworkEvent::ControlDelivered { id, aid, kind });
            }
        }
        for kind in served.reply_kinds {
            self.stats.control_replies.record(kind);
        }
        // The replies are ordinary accountable traffic: they re-enter the
        // network at the service's AS as one burst and run the full
        // egress → (links) → ingress pipeline.
        self.send_batch(aid, served.replies);
    }

    /// The fate of packet `id`.
    #[must_use]
    pub fn fate(&self, id: u64) -> Option<&PacketFate> {
        self.fates.get(&id)
    }

    /// Drains delivered packets (host inboxes).
    pub fn take_delivered(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.inboxes)
    }

    // ------------------------------------------------------------------
    // Control plane over the network: the same ControlMsg flows the
    // direct transport runs, but as actual packets — visible to the
    // wiretap, counted in NetStats, and subject to every data-plane check.
    // ------------------------------------------------------------------

    /// Attaches a DNS zone to `aid`'s DNS service endpoint: DnsRegister /
    /// DnsUpdate control messages delivered there are served by `server`.
    pub fn attach_dns(&mut self, aid: Aid, server: DnsServer) {
        self.dns_servers.insert(aid, server);
    }

    /// The DNS zone attached to `aid`, if any.
    #[must_use]
    pub fn dns(&self, aid: Aid) -> Option<&DnsServer> {
        self.dns_servers.get(&aid)
    }

    /// Control messages observed at AS services, in arrival order.
    #[must_use]
    pub fn control_deliveries(&self) -> &[ControlDelivered] {
        &self.control_log
    }

    /// Stops recording per-delivery [`ControlDelivered`] entries (the
    /// aggregate [`NetStats`] counters keep counting). Scale runs call
    /// this: the log grows with every issuance RPC.
    pub fn disable_control_log(&mut self) {
        self.control_log_enabled = false;
        self.control_log = Vec::new();
    }

    /// Sends one control message from `host` to the service at `dst` as a
    /// real packet, runs the network to quiescence, and returns the parsed
    /// reply. Transport losses (a request or reply dropped by faults or an
    /// on-path adversary) are recovered by resending under the request
    /// kind's [`RetryPolicy`] (exponential backoff, deterministic seeded
    /// jitter) — retries are counted per request kind in
    /// [`NetStats::control_retries`]. Exhausting the budget yields
    /// [`Error::ControlTimeout`]; protocol refusals (the service said no)
    /// surface immediately as their typed error.
    pub fn control_rpc(
        &mut self,
        host: &mut Host,
        dst: HostAddr,
        msg: &ControlMsg,
    ) -> Result<ControlMsg, Error> {
        // A "reply" sitting in the inbox before the request is even sent
        // is by definition stale — an adversary's replay of an earlier
        // exchange. Purge those so they cannot be matched to this RPC.
        self.purge_control_replies(host, dst);

        let kind = msg.kind();
        let policy = *self.retry_policy.policy_for(kind);
        // One jitter stream per RPC, salted per scenario seed: identical
        // runs draw identical waits; concurrent RPCs (distinct rpc_seq)
        // decollide instead of re-flooding the same microsecond.
        self.rpc_seq += 1;
        let jitter_base = self
            .link_seed_salt
            .wrapping_add(self.rpc_seq.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(kind as u64);
        let start = self.now;
        let deadline = start.add_micros(policy.deadline_us);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // A retryable failure leaves `busy` holding the typed pushback
            // (when that is what came back) and `wait_floor_us` the minimum
            // wait before resending.
            let (busy, wait_floor_us) = match self.control_rpc_once(host, dst, msg) {
                Ok(ControlMsg::EphIdBusy(b)) if kind == ControlKind::EphIdRequest => {
                    // Issuance admission control said "not now": retryable,
                    // with the service's own hint as the wait floor.
                    self.stats.control_busy += 1;
                    (
                        Some(ControlMsg::EphIdBusy(b)),
                        u64::from(b.retry_after_secs).saturating_mul(1_000_000),
                    )
                }
                Ok(reply) => return Ok(reply),
                Err(RpcFailure::Fatal(e)) => return Err(e),
                Err(RpcFailure::Transport) => (None, 0),
            };
            // Budget spent: a transport loss is a timeout; a busy reply is
            // returned typed (the service answered every attempt — that is
            // pushback, not loss) so callers surface `MsDrop::RateLimited`.
            let elapsed = self.now.micros().saturating_sub(start.micros());
            let spent = attempt >= policy.max_attempts || elapsed >= policy.deadline_us;
            let wait = policy
                .backoff_for(attempt, jitter_base.wrapping_add(attempt.into()))
                .max(wait_floor_us);
            let resume = self.now.add_micros(wait);
            if spent || resume >= deadline {
                if !spent {
                    // Deadline-clamped backoff (bugfix): this wait reaches
                    // past the deadline, so the RPC ends *at* the deadline
                    // instant. It used to sleep the whole backoff and then
                    // burn one more send after its time budget had already
                    // expired, making deadline expiry observable up to a
                    // full capped backoff late.
                    self.advance_to(deadline.max(self.now));
                }
                return match busy {
                    Some(reply) => Ok(reply),
                    None => {
                        self.stats.control_rpc_failures += 1;
                        Err(Error::ControlTimeout { attempts: attempt })
                    }
                };
            }
            self.stats.control_retries.record(kind);
            self.advance_to(resume);
        }
    }

    /// Whether `bytes` is a control reply from `service` addressed to the
    /// control EphID `ctrl`. Both checks matter: the control EphID is
    /// visible on the wire, so an adversary can park packets on it — even
    /// ones whose payload parses as a control frame — but it cannot forge
    /// the service's source address past the border-router MAC checks.
    fn matches_control_reply(
        bytes: &[u8],
        mode: ReplayMode,
        ctrl: apna_wire::EphIdBytes,
        service: HostAddr,
    ) -> bool {
        ApnaHeader::parse(bytes, mode)
            .map(|(h, p)| h.dst.ephid == ctrl && h.src == service && ControlMsg::parse(p).is_ok())
            .unwrap_or(false)
    }

    /// Drops every inbox entry that looks like a reply from `service` to
    /// `host`'s control EphID and returns them.
    fn purge_control_replies(&mut self, host: &Host, service: HostAddr) -> Vec<DeliveredPacket> {
        let (ctrl, _) = host.control_ephid();
        let mode = self.replay_mode;
        let (replies, rest) = std::mem::take(&mut self.inboxes)
            .into_iter()
            .partition(|d| Self::matches_control_reply(&d.bytes, mode, ctrl, service));
        self.inboxes = rest;
        replies
    }

    /// One send + reply-match attempt of [`Network::control_rpc`].
    fn control_rpc_once(
        &mut self,
        host: &mut Host,
        dst: HostAddr,
        msg: &ControlMsg,
    ) -> Result<ControlMsg, RpcFailure> {
        // Rebuilt per attempt: under the nonce extension every resend must
        // carry a fresh header nonce.
        let wire = host.build_ctrl_packet(dst, &msg.serialize());
        let id = self.send(host.aid, wire);
        self.run();
        match self.fate(id) {
            Some(PacketFate::Delivered { .. }) => {}
            Some(PacketFate::EgressDropped(_)) => {
                // Our own border refused the carrier — deterministic and
                // local, a resend cannot change it.
                return Err(RpcFailure::Fatal(Error::ControlRejected(
                    "control request refused at egress",
                )));
            }
            Some(PacketFate::NoRoute { .. }) => {
                // Topology, not weather: every resend takes the same path.
                return Err(RpcFailure::Fatal(Error::ControlRejected(
                    "no route to control service",
                )));
            }
            _ => return Err(RpcFailure::Transport),
        }
        let (ctrl, _) = host.control_ephid();
        let mode = self.replay_mode;
        loop {
            let pos = self
                .inboxes
                .iter()
                .position(|d| Self::matches_control_reply(&d.bytes, mode, ctrl, dst));
            let Some(pos) = pos else {
                return Err(RpcFailure::Transport);
            };
            let delivered = self.inboxes.remove(pos);
            match host.receive_packet(&delivered.bytes) {
                Ok((_header, payload)) => {
                    return ControlMsg::parse(payload)
                        .map_err(|e| RpcFailure::Fatal(Error::Wire(e)));
                }
                // A duplicated copy the host's replay window already
                // absorbed; try the next matching inbox entry.
                Err(_) => continue,
            }
        }
    }

    /// Where `to` listens: the host's own MS, or the AA / DNS endpoint of
    /// the named AS.
    fn service_addr(&self, host: &Host, to: Service) -> Result<HostAddr, Error> {
        let (aid, endpoint) = match to {
            Service::Ms => return Ok(HostAddr::new(host.aid, host.ms_cert.ephid)),
            Service::Aa(aid) => (aid, self.try_node(aid).map(|n| n.aa_endpoint.ephid)),
            Service::Dns(aid) => (aid, self.try_node(aid).map(|n| n.dns_endpoint.ephid)),
        };
        let endpoint = endpoint.ok_or(Error::ControlRejected("no such service AS"))?;
        Ok(HostAddr::new(aid, endpoint))
    }

    /// A host never sends before it decided to: an exchange the host
    /// starts at `now` leaves at the later of `now` and the network clock.
    fn start_at(&mut self, now: Timestamp) {
        self.now = self.now.max(SimTime::from_secs(u64::from(now.0)));
    }
}

/// The packetized transport: each host intent's messages cross the
/// simulated network as accountable packets — visible to the wiretap,
/// counted in [`NetStats`], subject to every data-plane check — and every
/// reply is stamped with the network clock when its slot finished.
impl ControlTransport for &mut Network {
    /// One [`Network::control_rpc`]: lost requests or replies are resent
    /// in place under the request kind's retry policy.
    fn call(
        &mut self,
        host: &mut Host,
        to: Service,
        msg: &ControlMsg,
        now: Timestamp,
    ) -> Result<ControlReply, Error> {
        let dst = self.service_addr(host, to)?;
        self.start_at(now);
        let msg = self.control_rpc(host, dst, msg)?;
        Ok(ControlReply {
            msg,
            at: self.now.as_protocol_time(),
        })
    }

    /// Sends the requests as one burst (one egress batch on the wire, one
    /// service-side `handle_control_batch` — the pipelined issuance path)
    /// and pairs each reply with its request by issuance nonce
    /// ([`ms_client::request_nonce`]). A slot whose reply was lost, could
    /// not be paired, or was an `EphIdBusy` pushback (after waiting out
    /// its hint) falls back to the retried [`Network::control_rpc`], in
    /// slot order, so lossy links degrade gracefully instead of failing
    /// the whole burst.
    fn burst(
        &mut self,
        host: &mut Host,
        to: Service,
        msgs: &[ControlMsg],
        now: Timestamp,
    ) -> Vec<Result<ControlReply, Error>> {
        if msgs.is_empty() {
            return Vec::new();
        }
        let dst = match self.service_addr(host, to) {
            Ok(dst) => dst,
            Err(e) => return vec![Err(e)],
        };
        self.start_at(now);
        // Purge stale pre-existing "replies" (adversary replays of earlier
        // exchanges), as the scalar RPC does.
        self.purge_control_replies(host, dst);
        let wires = msgs
            .iter()
            .map(|msg| host.build_ctrl_packet(dst, &msg.serialize()))
            .collect();
        self.send_batch(host.aid, wires);
        self.run();

        let mut paired: Vec<([u8; 12], ControlMsg)> = Vec::new();
        for delivered in self.purge_control_replies(host, dst) {
            // A failed receive is a duplicated copy the host's replay
            // window already absorbed — skip it.
            let Ok((_header, payload)) = host.receive_packet(&delivered.bytes) else {
                continue;
            };
            let Ok(reply) = ControlMsg::parse(payload) else {
                continue;
            };
            if let Some(nonce) = ms_client::request_nonce(&reply) {
                paired.push((nonce, reply));
            }
        }

        let mut out = Vec::with_capacity(msgs.len());
        for msg in msgs {
            let hit = paired
                .iter()
                .position(|(n, _)| matches!(msg, ControlMsg::EphIdRequest(req) if req.nonce == *n));
            let reply = match hit.map(|pos| paired.swap_remove(pos).1) {
                Some(ControlMsg::EphIdBusy(busy)) => {
                    self.stats.control_busy += 1;
                    let floor = u64::from(busy.retry_after_secs).saturating_mul(1_000_000);
                    self.advance_to(self.now.add_micros(floor));
                    self.control_rpc(host, dst, msg)
                }
                Some(reply) => Ok(reply),
                None => self.control_rpc(host, dst, msg),
            };
            // The burst ends at the first slot that aborts the intent.
            let aborts = reply
                .as_ref()
                .map_or(true, |m| matches!(m, ControlMsg::EphIdBusy(_)));
            let at = self.now.as_protocol_time();
            out.push(reply.map(|msg| ControlReply { msg, at }));
            if aborts {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FaultProfile;
    use apna_core::agent::{EphIdUsage, HostAgent};
    use apna_core::granularity::Granularity;
    use apna_wire::{ApnaHeader, EphIdBytes, HostAddr};

    /// Two ASes directly connected; host in each.
    fn two_as_network() -> (Network, HostAgent, HostAgent) {
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(2), [2; 32]);
        net.connect(
            Aid(1),
            Aid(2),
            1_000,
            10_000_000_000,
            FaultProfile::lossless(),
        );
        let now = net.now().as_protocol_time();
        let alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            1,
        )
        .unwrap();
        let bob = HostAgent::attach(
            net.node(Aid(2)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            2,
        )
        .unwrap();
        (net, alice, bob)
    }

    #[test]
    fn packet_crosses_two_ases() {
        let (mut net, mut alice, mut bob) = two_as_network();
        let now = net.now().as_protocol_time();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let dst = bob.owned_ephid(bi).addr(Aid(2));
        let wire = alice.build_raw_packet(ai, dst, b"across the internet");
        let id = net.send(Aid(1), wire);
        net.run();
        match net.fate(id).unwrap() {
            PacketFate::Delivered { aid, at, .. } => {
                assert_eq!(*aid, Aid(2));
                assert!(at.micros() >= 1_000); // at least the link latency
            }
            other => panic!("unexpected fate {other:?}"),
        }
        let delivered = net.take_delivered();
        assert_eq!(delivered.len(), 1);
        let (header, payload) = bob.receive_packet(&delivered[0].bytes).unwrap();
        assert_eq!(payload, b"across the internet");
        assert_eq!(header.dst.ephid, bob.owned_ephid(bi).ephid());
    }

    #[test]
    fn transit_as_forwards() {
        // 1 - 3 - 2: AS 3 is pure transit.
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(2), [2; 32]);
        net.add_as(Aid(3), [3; 32]);
        net.connect(
            Aid(1),
            Aid(3),
            1_000,
            10_000_000_000,
            FaultProfile::lossless(),
        );
        net.connect(
            Aid(3),
            Aid(2),
            1_000,
            10_000_000_000,
            FaultProfile::lossless(),
        );
        let now = net.now().as_protocol_time();
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            1,
        )
        .unwrap();
        let mut bob = HostAgent::attach(
            net.node(Aid(2)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            2,
        )
        .unwrap();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, bob.owned_ephid(bi).addr(Aid(2)), b"via transit");
        let id = net.send(Aid(1), wire);
        net.run();
        assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
        // Two link crossings ≥ 2 ms.
        if let Some(PacketFate::Delivered { at, .. }) = net.fate(id) {
            assert!(at.micros() >= 2_000);
        }
    }

    #[test]
    fn spoofed_packet_dies_at_egress() {
        let (mut net, _alice, mut bob) = two_as_network();
        let now = net.now().as_protocol_time();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        // Forged packet: made-up EphID, no valid MAC.
        let header = ApnaHeader::new(
            HostAddr::new(Aid(1), EphIdBytes([0xbd; 16])),
            bob.owned_ephid(bi).addr(Aid(2)),
        );
        let id = net.send(Aid(1), header.serialize());
        net.run();
        assert_eq!(
            net.fate(id),
            Some(&PacketFate::EgressDropped(DropReason::BadEphId))
        );
        assert_eq!(net.stats.egress_dropped, 1);
        assert_eq!(net.stats.delivered, 0);
    }

    #[test]
    fn lossy_link_loses_packets_and_fate_records_it() {
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(2), [2; 32]);
        net.connect(
            Aid(1),
            Aid(2),
            100,
            10_000_000_000,
            FaultProfile::lossy(1.0, 0.0),
        );
        let now = net.now().as_protocol_time();
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            1,
        )
        .unwrap();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, HostAddr::new(Aid(2), EphIdBytes([5; 16])), b"x");
        let id = net.send(Aid(1), wire);
        net.run();
        assert_eq!(
            net.fate(id),
            Some(&PacketFate::LostOnLink { toward: Aid(2) })
        );
        assert_eq!(net.stats.link_lost, 1);
    }

    #[test]
    fn corrupted_packet_dropped_at_ingress() {
        // 100% corruption: a bit flip somewhere. If it lands in the
        // destination EphID the ingress check catches it; a flip elsewhere
        // may deliver garbage payload (caught by the host's AEAD). Assert
        // the packet never silently counts as clean delivery of the
        // original bytes.
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(2), [2; 32]);
        net.connect(
            Aid(1),
            Aid(2),
            100,
            10_000_000_000,
            FaultProfile::lossy(0.0, 1.0),
        );
        let now = net.now().as_protocol_time();
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            1,
        )
        .unwrap();
        let mut bob = HostAgent::attach(
            net.node(Aid(2)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            2,
        )
        .unwrap();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let original = alice.build_raw_packet(ai, bob.owned_ephid(bi).addr(Aid(2)), b"fragile");
        let id = net.send(Aid(1), original.clone());
        net.run();
        match net.fate(id).unwrap() {
            PacketFate::IngressDropped { .. } => {}
            PacketFate::Delivered { .. } => {
                let d = net.take_delivered();
                assert_ne!(d[0].bytes, original, "corruption must be visible");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wiretap_sees_frames() {
        let (mut net, mut alice, mut bob) = two_as_network();
        net.enable_wiretap();
        let now = net.now().as_protocol_time();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, bob.owned_ephid(bi).addr(Aid(2)), b"observed");
        net.send(Aid(1), wire);
        net.run();
        let frames = net.wiretap_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].from, frames[0].to), (Aid(1), Aid(2)));
    }

    #[test]
    fn intra_as_delivery() {
        let (mut net, mut alice, _bob) = two_as_network();
        let now = net.now().as_protocol_time();
        // Second host in AS 1.
        let mut carol = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            3,
        )
        .unwrap();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let ci = carol
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, carol.owned_ephid(ci).addr(Aid(1)), b"local");
        let id = net.send(Aid(1), wire);
        net.run();
        assert!(matches!(
            net.fate(id),
            Some(PacketFate::Delivered { aid: Aid(1), .. })
        ));
    }

    #[test]
    fn send_batch_processes_burst_and_counts_reasons() {
        let (mut net, mut alice, mut bob) = two_as_network();
        let now = net.now().as_protocol_time();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let bi = bob
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let dst = bob.owned_ephid(bi).addr(Aid(2));
        // A burst: two valid packets, one forged EphID, one truncated.
        let burst = vec![
            alice.build_raw_packet(ai, dst, b"one"),
            alice.build_raw_packet(ai, dst, b"two"),
            {
                let header = ApnaHeader::new(HostAddr::new(Aid(1), EphIdBytes([0xbd; 16])), dst);
                header.serialize()
            },
            vec![0u8; 7],
        ];
        let ids = net.send_batch(Aid(1), burst);
        assert_eq!(ids.len(), 4);
        net.run();
        assert!(matches!(
            net.fate(ids[0]),
            Some(PacketFate::Delivered { .. })
        ));
        assert!(matches!(
            net.fate(ids[1]),
            Some(PacketFate::Delivered { .. })
        ));
        assert_eq!(
            net.fate(ids[2]),
            Some(&PacketFate::EgressDropped(DropReason::BadEphId))
        );
        assert_eq!(
            net.fate(ids[3]),
            Some(&PacketFate::EgressDropped(DropReason::Malformed))
        );
        assert_eq!(net.stats.injected, 4);
        assert_eq!(net.stats.delivered, 2);
        assert_eq!(net.stats.egress_dropped, 2);
        assert_eq!(net.stats.egress_drop_reasons.count(DropReason::BadEphId), 1);
        assert_eq!(
            net.stats.egress_drop_reasons.count(DropReason::Malformed),
            1
        );
        // The two survivors crossed the same link simultaneously, so the
        // destination BR saw one batch of two.
        assert_eq!(net.stats.max_ingress_batch, 2);
        assert_eq!(net.take_delivered().len(), 2);
    }

    #[test]
    fn burst_and_sequential_sends_agree() {
        // The same traffic injected as a burst or packet-by-packet must
        // yield identical fates (batching is a restructuring, not a
        // semantic change).
        let build = |net: &Network, alice: &mut HostAgent, bob: &mut HostAgent| {
            let now = net.now().as_protocol_time();
            let ai = alice
                .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
                .unwrap();
            let bi = bob
                .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
                .unwrap();
            let dst = bob.owned_ephid(bi).addr(Aid(2));
            (0..8u8)
                .map(|i| alice.build_raw_packet(ai, dst, &[i; 16]))
                .collect::<Vec<_>>()
        };

        let (mut net_a, mut alice_a, mut bob_a) = two_as_network();
        let packets = build(&net_a, &mut alice_a, &mut bob_a);
        let ids_a = net_a.send_batch(Aid(1), packets.clone());
        net_a.run();

        let (mut net_b, mut alice_b, mut bob_b) = two_as_network();
        let packets_b = build(&net_b, &mut alice_b, &mut bob_b);
        assert_eq!(
            packets, packets_b,
            "deterministic worlds build identical packets"
        );
        let ids_b: Vec<u64> = packets_b
            .into_iter()
            .map(|p| net_b.send(Aid(1), p))
            .collect();
        net_b.run();

        for (ia, ib) in ids_a.iter().zip(ids_b.iter()) {
            match (net_a.fate(*ia), net_b.fate(*ib)) {
                (
                    Some(PacketFate::Delivered { aid: a, hid: h, .. }),
                    Some(PacketFate::Delivered {
                        aid: a2, hid: h2, ..
                    }),
                ) => {
                    assert_eq!(a, a2);
                    assert_eq!(h, h2);
                }
                (x, y) => assert_eq!(x, y),
            }
        }
        assert_eq!(net_a.stats.delivered, net_b.stats.delivered);
    }

    #[test]
    fn packetized_acquire_roundtrips_and_counts() {
        let (mut net, mut alice, _bob) = two_as_network();
        let idx = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, Timestamp(0))
            .unwrap();
        assert_eq!(alice.ephid_count(), 1);
        let now = net.now().as_protocol_time();
        alice
            .owned_ephid(idx)
            .cert
            .verify(&net.node(Aid(1)).infra.keys.verifying_key(), now)
            .unwrap();
        // Both the request and the reply crossed the network as packets.
        assert_eq!(
            net.stats.control_delivered.count(ControlKind::EphIdRequest),
            1
        );
        assert_eq!(net.stats.control_replies.count(ControlKind::EphIdReply), 1);
        assert_eq!(net.control_deliveries().len(), 1);
        assert_eq!(net.control_deliveries()[0].aid, Aid(1));
        // The control packets were real traffic: two injections (request +
        // reply), two deliveries, nothing left in host inboxes.
        assert_eq!(net.stats.injected, 2);
        assert_eq!(net.stats.delivered, 2);
        assert!(net.take_delivered().is_empty());
    }

    #[test]
    fn packetized_ephid_for_pools_like_direct() {
        let (mut net, mut alice, _bob) = two_as_network();
        let t0 = Timestamp(0);
        let i1 = alice.ephid_for(&mut net, 1, 0, t0).unwrap();
        let i2 = alice.ephid_for(&mut net, 1, 0, t0).unwrap();
        let i3 = alice.ephid_for(&mut net, 2, 0, t0).unwrap();
        assert_eq!(i1, i2, "same flow reuses the pooled EphID");
        assert_ne!(i1, i3, "new flow allocates under per-flow policy");
        assert_eq!(alice.pool_stats().0, 2);
    }

    #[test]
    fn packetized_shutoff_revokes_at_source_as() {
        let (mut net, mut alice, mut bob) = two_as_network();
        net.enable_wiretap();
        let t0 = Timestamp(0);
        let ai = alice.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
        let bi = bob.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
        let dst = bob.owned_ephid(bi).addr(Aid(2));
        let wire = alice.build_raw_packet(ai, dst, b"unwanted");
        net.send(Aid(1), wire);
        net.run();
        let evidence = net.take_delivered().pop().unwrap().bytes;

        // Bob files the shut-off with AS 1's accountability agent, as
        // packets across the inter-AS link.
        let now = net.now().as_protocol_time();
        let ack = bob
            .request_shutoff(&mut net, Aid(1), &evidence, bi, now)
            .unwrap();
        assert_eq!(ack.ephid, alice.owned_ephid(ai).ephid());
        assert!(net.node(Aid(1)).infra.revoked.contains(&ack.ephid));
        assert_eq!(
            net.stats
                .control_delivered
                .count(ControlKind::ShutoffRequest),
            1
        );
        assert_eq!(net.stats.control_replies.count(ControlKind::ShutoffAck), 1);
        // The §II-B adversary saw the control exchange cross the link —
        // control traffic is observable (and tamperable) like any other.
        let control_frames = net
            .wiretap_frames()
            .iter()
            .filter(|f| {
                ApnaHeader::parse(&f.bytes, ReplayMode::Disabled)
                    .map(|(_, p)| ControlMsg::parse(p).is_ok())
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(control_frames, 2, "request + ack on the wire");

        // Alice's follow-up traffic dies at her own border.
        let wire = alice.build_raw_packet(ai, dst, b"again");
        let id = net.send(Aid(1), wire);
        net.run();
        assert_eq!(
            net.fate(id),
            Some(&PacketFate::EgressDropped(DropReason::Revoked))
        );
    }

    #[test]
    fn packetized_dns_register_reaches_zone() {
        use apna_crypto::ed25519::SigningKey;
        let (mut net, mut alice, _bob) = two_as_network();
        net.attach_dns(Aid(2), DnsServer::new(SigningKey::from_seed(&[0xD7; 32])));
        let t0 = Timestamp(0);
        let ri = alice
            .acquire(&mut net, EphIdUsage::RECEIVE_ONLY, t0)
            .unwrap();
        let cert = alice.owned_ephid(ri).cert.clone();
        alice
            .dns_register(&mut net, Aid(2), "svc.example", ri, t0)
            .unwrap();
        let rec = net.dns(Aid(2)).unwrap().resolve("svc.example").unwrap();
        assert_eq!(rec.cert, cert);
        rec.verify(
            &net.dns(Aid(2)).unwrap().zone_verifying_key(),
            &net.directory,
            net.now().as_protocol_time(),
        )
        .unwrap();
        assert_eq!(
            net.stats.control_delivered.count(ControlKind::DnsRegister),
            1
        );
        assert_eq!(net.stats.control_replies.count(ControlKind::DnsAck), 1);
    }

    #[test]
    fn garbage_to_service_endpoint_counts_as_rejected() {
        let (mut net, mut alice, _bob) = two_as_network();
        // A MAC-valid packet to the MS whose payload is not a control
        // frame: delivered, refused, no reply, typed accounting.
        let dst = HostAddr::new(Aid(1), alice.ms_cert.ephid);
        let wire = alice.build_ctrl_packet(dst, b"not a control frame");
        let id = net.send(Aid(1), wire);
        net.run();
        assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
        assert_eq!(net.stats.control_rejected, 1);
        assert_eq!(net.stats.control_delivered.total(), 0);
        // An RPC against it is resent (a silent drop is indistinguishable
        // from loss), then surfaces as a typed timeout. DNS-kind requests
        // run under the *per-kind* policy: 3 attempts, not the default 4.
        let msg = ControlMsg::DnsAck { name: "x".into() };
        let err = net.control_rpc(&mut alice, dst, &msg).unwrap_err();
        assert_eq!(err, Error::ControlTimeout { attempts: 3 });
        assert_eq!(net.stats.control_retries.count(ControlKind::DnsAck), 2);
        assert_eq!(net.stats.control_rpc_failures, 1);
        // With retries disabled the first loss is final.
        net.retry_policy = RetryPolicies::single_shot();
        let err = net.control_rpc(&mut alice, dst, &msg).unwrap_err();
        assert_eq!(err, Error::ControlTimeout { attempts: 1 });
    }

    #[test]
    fn retry_backoff_never_overshoots_the_deadline() {
        // Regression: the backoff sleep used to be scheduled unclamped,
        // so an RPC with a 1 s deadline could keep the caller (and the
        // simulated clock) hostage well past the deadline before finally
        // reporting the timeout. Expiry must be observable *at* the
        // deadline instant.
        let (mut net, mut alice, _bob) = two_as_network();
        net.retry_policy = RetryPolicies::uniform(RetryPolicy::fixed(10, 600_000, 1_000_000));
        let dst = HostAddr::new(Aid(1), alice.ms_cert.ephid);
        let msg = ControlMsg::DnsAck { name: "x".into() };
        let start = net.now().micros();
        let err = net.control_rpc(&mut alice, dst, &msg).unwrap_err();
        // Attempt 1 at ~t0, backoff to ~600 ms, attempt 2, and the next
        // 600 ms backoff would land at ~1.2 s — past the deadline, so the
        // RPC gives up instead of sleeping through it.
        assert_eq!(err, Error::ControlTimeout { attempts: 2 });
        assert_eq!(
            net.now().micros() - start,
            1_000_000,
            "timeout must surface exactly at the deadline, not after the \
             full unclamped backoff"
        );
    }

    #[test]
    fn issuance_rate_limit_pushes_back_and_rpc_retries_past_refill() {
        use apna_core::hostinfo::IssuancePolicy;
        let (mut net, mut alice, _bob) = two_as_network();
        net.node(Aid(1))
            .infra
            .host_db
            .set_issuance_policy(Some(IssuancePolicy {
                burst: 1,
                per_sec: 1,
            }));
        // The first acquisition spends the lone burst token.
        let t0 = Timestamp(0);
        alice.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
        // The second is refused with a typed `EphIdBusy`; the RPC backs
        // off (floored at the advertised retry_after) past the refill and
        // succeeds without the caller doing anything.
        alice.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
        assert_eq!(alice.ephid_count(), 2);
        assert!(net.stats.control_busy >= 1, "pushback not accounted");
        assert!(
            net.stats.control_replies.count(ControlKind::EphIdBusy) >= 1,
            "busy replies must be tallied under their own kind"
        );
        assert_eq!(net.stats.control_rpc_failures, 0);
    }

    #[test]
    fn exhausted_busy_surfaces_as_typed_rate_limit() {
        use apna_core::hostinfo::IssuancePolicy;
        use apna_core::management::MsDrop;
        let (mut net, mut alice, _bob) = two_as_network();
        net.node(Aid(1))
            .infra
            .host_db
            .set_issuance_policy(Some(IssuancePolicy {
                burst: 1,
                per_sec: 1,
            }));
        let t0 = Timestamp(0);
        alice.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
        // With retries disabled the pushback reaches the caller typed —
        // the service *answered*, so this is not a transport timeout.
        net.retry_policy = RetryPolicies::single_shot();
        let err = alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, t0)
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Management(MsDrop::RateLimited {
                    retry_after_secs: 1
                })
            ),
            "expected a typed rate-limit, got {err:?}"
        );
        assert_eq!(net.stats.control_rpc_failures, 0);
        assert!(net.stats.control_busy >= 1);
    }

    #[test]
    fn batched_acquire_matches_scalar_semantics() {
        let (mut net, mut alice, _bob) = two_as_network();
        let usages = [
            EphIdUsage::DATA_SHORT,
            EphIdUsage::DATA_SHORT,
            EphIdUsage::RECEIVE_ONLY,
        ];
        let idxs = alice.acquire_many(&mut net, &usages, Timestamp(0)).unwrap();
        assert_eq!(idxs.len(), 3);
        assert_eq!(alice.ephid_count(), 3);
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "batch must yield distinct EphIDs");
        let now = net.now().as_protocol_time();
        let vk = net.node(Aid(1)).infra.keys.verifying_key();
        for &idx in &idxs {
            alice.owned_ephid(idx).cert.verify(&vk, now).unwrap();
        }
        // One burst on the wire: three requests delivered, three replies,
        // zero retries — nothing fell back to the scalar path.
        assert_eq!(
            net.stats.control_delivered.count(ControlKind::EphIdRequest),
            3
        );
        assert_eq!(net.stats.control_replies.count(ControlKind::EphIdReply), 3);
        assert_eq!(
            net.stats.control_retries.count(ControlKind::EphIdRequest),
            0
        );
    }

    #[test]
    fn batched_acquire_absorbs_partial_pushback() {
        use apna_core::hostinfo::IssuancePolicy;
        let (mut net, mut alice, _bob) = two_as_network();
        net.node(Aid(1))
            .infra
            .host_db
            .set_issuance_policy(Some(IssuancePolicy {
                burst: 2,
                per_sec: 1,
            }));
        // Three requests against a 2-token bucket: the refused slot falls
        // back to the retried scalar RPC and completes after the refill.
        let usages = [EphIdUsage::DATA_SHORT; 3];
        let idxs = alice.acquire_many(&mut net, &usages, Timestamp(0)).unwrap();
        assert_eq!(idxs.len(), 3);
        assert_eq!(alice.ephid_count(), 3);
        assert!(net.stats.control_busy >= 1, "pushback not accounted");
    }

    /// A burst stops at its first aborting slot. Only the first issuance
    /// reply gets through: slot 0 completes from the burst, slot 1 times
    /// out through the retried RPC, and slot 2 — whose request left in
    /// the burst — gets no request of its own.
    #[test]
    fn batched_acquire_stops_at_the_first_timed_out_slot() {
        use crate::adversary::FnAdversary;
        let (mut net, mut alice, _bob) = two_as_network();
        let mut replies = 0u32;
        net.set_adversary(FnAdversary(move |f: &InterceptedFrame<'_>| {
            if f.kind != FrameKind::Control(ControlKind::EphIdReply) {
                return AdversaryAction::Pass;
            }
            replies += 1;
            if replies == 1 {
                AdversaryAction::Pass
            } else {
                AdversaryAction::Drop
            }
        }));
        let usages = [EphIdUsage::DATA_SHORT; 3];
        let err = alice
            .acquire_many(&mut net, &usages, Timestamp(0))
            .unwrap_err();
        let attempts = RetryPolicy::default().max_attempts;
        assert_eq!(err, Error::ControlTimeout { attempts });
        assert_eq!(alice.ephid_count(), 1, "slot 0 completed first");

        // Requests: the burst of 3, then `attempts` sends for slot 1.
        let sends = 3 + u64::from(attempts);
        let requests = net.stats.control_delivered.count(ControlKind::EphIdRequest);
        assert_eq!(requests, sends);
        // Every request was delivered and answered; every answer but the
        // first was lost to the adversary. No other packet exists.
        assert_eq!(net.stats.injected, 2 * sends);
        let (mut delivered, mut lost) = (0, 0);
        for id in 0..net.stats.injected {
            match net.fate(id) {
                Some(PacketFate::Delivered { .. }) => delivered += 1,
                Some(PacketFate::LostOnLink { toward: Aid(1) }) => lost += 1,
                other => panic!("packet {id}: unexpected fate {other:?}"),
            }
        }
        assert_eq!((delivered, lost), (sends + 1, sends - 1));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy::default(); // base 250 ms, cap 2 s
        for retry in 1..=6u32 {
            let w = p.backoff_for(retry, 42);
            let nominal = (250_000u64 << (retry - 1)).min(2_000_000);
            assert!(
                w >= nominal / 2 && w <= nominal,
                "retry {retry}: wait {w} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        // Same seed ⇒ same wait (chaos determinism); different seeds must
        // be able to decollide (the anti-retry-storm property).
        assert_eq!(p.backoff_for(3, 7), p.backoff_for(3, 7));
        let distinct: std::collections::HashSet<u64> =
            (0..16u64).map(|s| p.backoff_for(3, s)).collect();
        assert!(distinct.len() > 1, "jitter never varies");
        // `fixed` keeps exact waits for arithmetic-sensitive tests.
        let f = RetryPolicy::fixed(5, 100_000, 1_000_000);
        assert_eq!(f.backoff_for(1, 9), 100_000);
        assert_eq!(f.backoff_for(4, 1), 100_000);
    }

    #[test]
    fn per_kind_policies_shutoff_more_persistent_than_dns() {
        let p = RetryPolicies::default();
        let shutoff = p.policy_for(ControlKind::ShutoffRequest);
        let dns = p.policy_for(ControlKind::DnsRegister);
        assert!(shutoff.max_attempts > dns.max_attempts);
        assert!(shutoff.deadline_us > dns.deadline_us);
        assert_eq!(p.policy_for(ControlKind::EphIdRequest), &p.default_policy);
        assert_eq!(p.policy_for(ControlKind::DnsUpdate), &p.dns);
    }

    #[test]
    fn no_route_fate() {
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        net.add_as(Aid(9), [9; 32]); // disconnected
        let now = net.now().as_protocol_time();
        let mut alice = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            1,
        )
        .unwrap();
        let ai = alice
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, HostAddr::new(Aid(9), EphIdBytes([1; 16])), b"x");
        let id = net.send(Aid(1), wire);
        net.run();
        assert_eq!(net.fate(id), Some(&PacketFate::NoRoute { at: Aid(1) }));
    }

    #[test]
    fn unknown_source_as_is_no_route() {
        let mut net = Network::new(ReplayMode::Disabled);
        net.add_as(Aid(1), [1; 32]);
        let ids = net.send_batch(Aid(7), vec![vec![0u8; 64], vec![1u8; 3]]);
        net.run();
        for id in ids {
            assert_eq!(net.fate(id), Some(&PacketFate::NoRoute { at: Aid(7) }));
        }
        assert_eq!(net.stats.injected, 2);
        assert_eq!(net.stats.egress_dropped, 0);
    }

    #[test]
    fn control_to_unknown_service_as_is_rejected() {
        let (mut net, mut alice, _bob) = two_as_network();
        let t0 = Timestamp(0);
        let ri = alice
            .acquire(&mut net, EphIdUsage::RECEIVE_ONLY, t0)
            .unwrap();
        let rejected = Err(Error::ControlRejected("no such service AS"));
        assert_eq!(
            alice.dns_register(&mut net, Aid(9), "svc.example", ri, t0),
            rejected
        );
        assert_eq!(
            alice.dns_update(&mut net, Aid(9), "svc.example", ri, ri, t0),
            rejected
        );
        assert_eq!(
            alice.request_shutoff(&mut net, Aid(9), b"evidence", ri, t0),
            Err(Error::ControlRejected("no such service AS"))
        );
        assert_eq!(net.stats.injected, 2, "nothing left the host");
    }
}
