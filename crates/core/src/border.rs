//! Border-router data plane (Fig. 4, §IV-D3, §V-B).
//!
//! The border router is the enforcement point of the architecture:
//!
//! * **Egress** (bottom of Fig. 4): a packet leaves the AS only if its
//!   source EphID authenticates, is unexpired and unrevoked, its HID is
//!   valid, and the packet MAC verifies under the host's `k_HA`. This is
//!   what makes *every* packet in the network attributable.
//! * **Ingress** (top of Fig. 4): at the destination AS, the destination
//!   EphID is decrypted to an HID for intra-domain delivery after expiry /
//!   revocation / validity checks. Transit ASes just forward on the AID.
//!
//! The extra work over plain IP forwarding is "one decryption, two table
//! lookups, and one MAC verification" (§V-B2) — all symmetric-crypto
//! (design choice 3, §IV). The harness's `core.border.*` per-layer metrics
//! time exactly these stages; E2/E3 (Fig. 8) build the throughput model
//! on top of this pipeline.
//!
//! Drops are modeled as [`Verdict`]s, not errors: a dropped packet is an
//! expected dataplane outcome the caller may want to count or answer with
//! ICMP.

use crate::asnode::AsInfra;
use crate::ephid::{self, EphIdPlain};
use crate::hid::Hid;
use crate::replay::ShardedReplayFilter;
use crate::shutoff::RevocationOrder;
use crate::time::Timestamp;
use crate::Error;
use apna_crypto::aes::Aes128;
use apna_wire::{Aid, EphIdBytes, PacketBatch, ReplayMode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why the border router dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Header failed to parse.
    Malformed,
    /// Source/destination EphID failed its authentication tag.
    BadEphId,
    /// EphID past its ExpTime.
    Expired,
    /// EphID present in `revoked_ids`.
    Revoked,
    /// HID not registered or revoked.
    UnknownHost,
    /// Packet MAC failed under the host's `k_HA` (spoofing attempt).
    BadPacketMac,
    /// In-network replay filter saw this nonce before (§VIII-D extension).
    Replayed,
}

impl DropReason {
    /// Every reason, in counter-index order.
    pub const ALL: [DropReason; 7] = [
        DropReason::Malformed,
        DropReason::BadEphId,
        DropReason::Expired,
        DropReason::Revoked,
        DropReason::UnknownHost,
        DropReason::BadPacketMac,
        DropReason::Replayed,
    ];

    /// Stable index into [`DropCounters`]: the enum discriminant. `ALL`
    /// must list the variants in declaration order — guarded by the
    /// `drop_reason_indices_match_all_order` test.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name for stats output (the daemons' JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Malformed => "malformed",
            DropReason::BadEphId => "bad_ephid",
            DropReason::Expired => "expired",
            DropReason::Revoked => "revoked",
            DropReason::UnknownHost => "unknown_host",
            DropReason::BadPacketMac => "bad_packet_mac",
            DropReason::Replayed => "replayed",
        }
    }
}

/// Which half of Fig. 4 a batch runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bottom of Fig. 4: source-AS enforcement on outgoing packets.
    Egress,
    /// Top of Fig. 4: destination-AS delivery (transit forwards on AID).
    Ingress,
}

/// Per-[`DropReason`] counters for one processed batch (or an aggregate
/// over many — see [`DropCounters::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounters {
    counts: [u64; DropReason::ALL.len()],
}

impl DropCounters {
    /// Records one drop.
    pub fn record(&mut self, reason: DropReason) {
        if let Some(c) = self.counts.get_mut(reason.index()) {
            *c += 1;
        }
    }

    /// Drops recorded for `reason`.
    #[must_use]
    pub fn count(&self, reason: DropReason) -> u64 {
        self.counts.get(reason.index()).copied().unwrap_or(0)
    }

    /// Total drops across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another counter set into this one (per-batch → per-run).
    pub fn merge(&mut self, other: &DropCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(reason, count)` over reasons with a non-zero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL
            .iter()
            .copied()
            .map(|r| (r, self.count(r)))
            .filter(|&(_, c)| c > 0)
    }
}

/// The outcome of [`BorderRouter::process_batch`]: one [`Verdict`] per
/// packet (batch order preserved) plus per-reason drop counters.
#[derive(Debug, Clone)]
pub struct BatchVerdicts {
    verdicts: Vec<Verdict>,
    counters: DropCounters,
}

impl BatchVerdicts {
    fn from_verdicts(verdicts: Vec<Verdict>) -> BatchVerdicts {
        let mut counters = DropCounters::default();
        for v in &verdicts {
            if let Verdict::Drop(reason) = v {
                counters.record(*reason);
            }
        }
        BatchVerdicts { verdicts, counters }
    }

    /// Per-packet verdicts, in batch order.
    #[must_use]
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Consumes self, returning the verdict vector.
    #[must_use]
    pub fn into_verdicts(self) -> Vec<Verdict> {
        self.verdicts
    }

    /// Per-reason drop counters for this batch.
    #[must_use]
    pub fn counters(&self) -> &DropCounters {
        &self.counters
    }

    /// Packets that survived (forward or deliver).
    #[must_use]
    pub fn passed(&self) -> u64 {
        self.verdicts.len() as u64 - self.counters.total()
    }

    /// Number of packets in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` for an empty batch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// Per-packet pipeline state for one in-flight batch: the verdict so far
/// plus, while the packet is still alive, its opened EphID. Every access
/// goes through `get`/`get_mut`, so a stage handed an out-of-range index
/// (impossible by construction — indices come from the batch itself)
/// skips the write instead of unwinding mid-burst (PANIC-1).
struct PipelineSlots {
    slots: Vec<Slot>,
}

/// One packet's state in [`PipelineSlots`]. `plain: Some` ⇔ the packet is
/// still alive in the pipeline.
#[derive(Clone, Copy)]
struct Slot {
    verdict: Verdict,
    plain: Option<EphIdPlain>,
}

impl PipelineSlots {
    /// `n` slots, all starting dead with the parse-failure verdict (the
    /// EphID-decrypt stage only visits parsed packets, so unparsed slots
    /// keep it).
    fn new(n: usize) -> PipelineSlots {
        PipelineSlots {
            slots: vec![
                Slot {
                    verdict: Verdict::Drop(DropReason::Malformed),
                    plain: None,
                };
                n
            ],
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Marks packet `i` alive, carrying its opened EphID.
    fn admit(&mut self, i: usize, plain: EphIdPlain) {
        if let Some(s) = self.slots.get_mut(i) {
            s.plain = Some(plain);
        }
    }

    /// Drops packet `i` and removes it from the alive set.
    fn reject(&mut self, i: usize, reason: DropReason) {
        if let Some(s) = self.slots.get_mut(i) {
            s.verdict = Verdict::Drop(reason);
            s.plain = None;
        }
    }

    /// Records a passing verdict for packet `i`.
    fn pass(&mut self, i: usize, verdict: Verdict) {
        if let Some(s) = self.slots.get_mut(i) {
            s.verdict = verdict;
        }
    }

    /// The opened EphID of packet `i`, if it is alive.
    fn plain(&self, i: usize) -> Option<EphIdPlain> {
        self.slots.get(i).and_then(|s| s.plain)
    }

    /// Iterates `(index, plain)` over alive packets, in batch order.
    fn alive(&self) -> impl Iterator<Item = (usize, EphIdPlain)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.plain.map(|p| (i, p)))
    }

    fn into_verdicts(self) -> Vec<Verdict> {
        self.slots.into_iter().map(|s| s.verdict).collect()
    }
}

/// Outcome of border-router processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Egress/transit: forward toward the destination AS.
    ForwardInter {
        /// Destination AS.
        dst_aid: Aid,
    },
    /// Ingress at the destination AS: deliver to the host behind `hid`
    /// ("intra-domain routers forward packets based on HIDs").
    DeliverLocal {
        /// The destination host's (AS-internal) identifier.
        hid: Hid,
    },
    /// Dropped.
    Drop(DropReason),
}

impl Verdict {
    /// `true` if the packet survived.
    #[must_use]
    pub fn is_forward(&self) -> bool {
        !matches!(self, Verdict::Drop(_))
    }
}

/// A border router of one AS.
///
/// Clone-cheap by design (pre-expanded AES schedules are copied; shared
/// state sits behind the `Arc`), so benchmarks can run one instance per
/// worker thread like the prototype's per-core DPDK pipelines.
pub struct BorderRouter {
    infra: Arc<AsInfra>,
    enc: Aes128,
    mac: Aes128,
    /// §VIII-D names in-network replay detection ("ideally replayed
    /// packets should be filtered near [the] replay location") as future
    /// work because of its state cost. This reproduction implements it as
    /// an *opt-in* extension: per-source-EphID sliding windows over the
    /// header nonce, consulted on egress after MAC verification. The
    /// window map is the state cost the paper worries about — the
    /// `replay_filter` bench quantifies it; the map is sharded N ways so
    /// per-core pipelines don't serialize on one lock.
    replay_filter: Option<Arc<ShardedReplayFilter>>,
}

impl Clone for BorderRouter {
    fn clone(&self) -> Self {
        BorderRouter {
            infra: Arc::clone(&self.infra),
            enc: self.enc.clone(),
            mac: self.mac.clone(),
            replay_filter: self.replay_filter.clone(),
        }
    }
}

impl BorderRouter {
    pub(crate) fn new(infra: Arc<AsInfra>) -> BorderRouter {
        let enc = infra.keys.ephid_enc_cipher();
        let mac = infra.keys.ephid_mac_cipher();
        BorderRouter {
            infra,
            enc,
            mac,
            replay_filter: None,
        }
    }

    /// Enables the §VIII-D in-network replay filter (requires the
    /// deployment to run [`ReplayMode::NonceExtension`]; packets without a
    /// nonce pass through unfiltered).
    pub fn enable_replay_filter(&mut self) {
        self.replay_filter = Some(Arc::new(ShardedReplayFilter::new()));
    }

    /// Number of source EphIDs currently tracked by the replay filter —
    /// the per-router state cost the paper flags (§VIII-D).
    #[must_use]
    pub fn replay_filter_entries(&self) -> usize {
        self.replay_filter
            .as_ref()
            .map(|f| f.entries())
            .unwrap_or(0)
    }

    /// The AS this router belongs to.
    #[must_use]
    pub fn aid(&self) -> Aid {
        self.infra.aid
    }

    // ------------------------------------------------------------------
    // Per-packet pipeline stages. The stages that run a burst-wide
    // primitive (EphID open, host MAC, replay filter) are inline in
    // `batch_egress`/`batch_ingress`.
    // ------------------------------------------------------------------

    /// Stage 3: expiry check then revocation-list lookup (Fig. 4's
    /// `expTime < currTime` and `EphID ∈ revoked_EphIDs` tests).
    fn stage_validity(
        &self,
        ephid: &EphIdBytes,
        plain: &EphIdPlain,
        now: Timestamp,
    ) -> Result<(), DropReason> {
        if plain.exp_time.expired_at(now) {
            return Err(DropReason::Expired);
        }
        if self.infra.revoked.contains(ephid) {
            return Err(DropReason::Revoked);
        }
        Ok(())
    }

    /// Stage 4' (ingress only): the destination HID must be registered
    /// and unrevoked for intra-domain delivery.
    fn stage_host_valid(&self, plain: &EphIdPlain) -> Result<(), DropReason> {
        if !self.infra.host_db.is_valid(plain.hid) {
            return Err(DropReason::UnknownHost);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Per-packet wrappers: a batch of one through `process_batch`.
    // ------------------------------------------------------------------

    /// Egress pipeline (Fig. 4 bottom) over raw packet bytes.
    #[must_use]
    pub fn process_outgoing(&self, wire: &[u8], mode: ReplayMode, now: Timestamp) -> Verdict {
        self.process_one(Direction::Egress, wire, mode, now)
    }

    /// Ingress pipeline (Fig. 4 top) over raw packet bytes.
    #[must_use]
    pub fn process_incoming(&self, wire: &[u8], mode: ReplayMode, now: Timestamp) -> Verdict {
        self.process_one(Direction::Ingress, wire, mode, now)
    }

    fn process_one(
        &self,
        direction: Direction,
        wire: &[u8],
        mode: ReplayMode,
        now: Timestamp,
    ) -> Verdict {
        let mut batch = PacketBatch::of_one(mode, wire.to_vec());
        self.process_batch(direction, &mut batch, now)
            .verdicts()
            .first()
            .copied()
            .unwrap_or(Verdict::Drop(DropReason::Malformed))
    }

    // ------------------------------------------------------------------
    // Batched API: the one Fig. 4 pipeline.
    // ------------------------------------------------------------------

    /// Runs a whole burst through the Fig. 4 pipeline, stage by stage:
    /// parse (once per batch, inside [`PacketBatch`]) → EphID
    /// auth/decrypt → expiry/revocation → host-MAC verify (egress) or
    /// host validity (ingress) → replay filter (egress, shard-batched).
    ///
    /// Verdict order matches batch order, and every verdict is the one
    /// Fig. 4 prescribes for that packet processed alone, in sequence —
    /// `tests/batch_scalar_equivalence.rs` checks this against a
    /// per-packet model that shares none of these stages. Running the
    /// stages burst-wide keeps each one's state (AES schedules, table
    /// shards, replay-shard locks) hot across the burst.
    #[must_use]
    pub fn process_batch(
        &self,
        direction: Direction,
        batch: &mut PacketBatch,
        now: Timestamp,
    ) -> BatchVerdicts {
        batch.parse_headers();
        let verdicts = match direction {
            Direction::Egress => self.batch_egress(batch, now),
            Direction::Ingress => self.batch_ingress(batch, now),
        };
        BatchVerdicts::from_verdicts(verdicts)
    }

    fn batch_egress(&self, batch: &PacketBatch, now: Timestamp) -> Vec<Verdict> {
        let mut slots = PipelineSlots::new(batch.len());

        // Stage 2: EphID authentication + decryption — the whole burst's
        // source EphIDs go through the multi-block cipher backend in two
        // batched sweeps (CBC-MAC, then CTR keystream).
        let (idxs, ephids) = batch.parsed_src_ephids();
        for (&i, res) in idxs
            .iter()
            .zip(ephid::open_many_with(&self.enc, &self.mac, &ephids))
        {
            match res {
                Ok(plain) => slots.admit(i, plain),
                Err(_) => slots.reject(i, DropReason::BadEphId),
            }
        }

        // Stage 3: expiry + revocation.
        for (i, header, _) in batch.parsed() {
            let Some(plain) = slots.plain(i) else {
                continue;
            };
            if let Err(r) = self.stage_validity(&header.src.ephid, &plain, now) {
                slots.reject(i, r);
            }
        }

        // Stage 4: host lookup + packet MAC. Survivors are grouped by
        // host so each group runs one batched `verify_many` under that
        // host's pre-expanded CMAC — the per-packet chains advance in
        // lock-step lanes through the multi-block cipher. (A burst from a
        // single host, the per-core RSS-queue case the prototype models,
        // is one full-width group.)
        let mut by_host: BTreeMap<Hid, Vec<usize>> = BTreeMap::new();
        for (i, plain) in slots.alive() {
            by_host.entry(plain.hid).or_default().push(i);
        }
        for (hid, members) in by_host {
            let Some(cmac) = self.infra.host_db.cmac_of_valid(hid) else {
                for i in members {
                    slots.reject(i, DropReason::UnknownHost);
                }
                continue;
            };
            // Alive ⇒ parsed, so the `?`s below never actually skip a
            // member; they just make that invariant non-load-bearing.
            let prepared: Vec<(usize, Vec<u8>, &[u8])> = members
                .iter()
                .filter_map(|&i| {
                    let header = batch.header(i)?;
                    let payload = batch.payload(i)?;
                    Some((i, header.mac_input(payload), header.mac.as_slice()))
                })
                .collect();
            let input_refs: Vec<&[u8]> = prepared.iter().map(|(_, v, _)| v.as_slice()).collect();
            let tag_refs: Vec<&[u8]> = prepared.iter().map(|&(_, _, t)| t).collect();
            for ((i, _, _), ok) in prepared
                .iter()
                .zip(cmac.verify_many(&input_refs, &tag_refs))
            {
                if !ok {
                    slots.reject(*i, DropReason::BadPacketMac);
                }
            }
        }

        // Stage 5: replay filter — runs only after MAC verification, so a
        // forger cannot poison a victim's window (§VIII-D extension). The
        // burst's survivors are grouped by shard, so each shard lock is
        // taken once per burst rather than once per packet.
        if let Some(filter) = &self.replay_filter {
            let candidates: Vec<(usize, EphIdBytes, u64)> = batch
                .parsed()
                .filter_map(|(i, header, _)| {
                    slots.plain(i)?;
                    header.nonce.map(|nonce| (i, header.src.ephid, nonce))
                })
                .collect();
            if !candidates.is_empty() {
                filter.check_batch(&candidates, |i| {
                    slots.reject(i, DropReason::Replayed);
                });
            }
        }

        // Survivors forward toward the destination AS.
        for (i, header, _) in batch.parsed() {
            if slots.plain(i).is_some() {
                slots.pass(
                    i,
                    Verdict::ForwardInter {
                        dst_aid: header.dst.aid,
                    },
                );
            }
        }
        slots.into_verdicts()
    }

    fn batch_ingress(&self, batch: &PacketBatch, now: Timestamp) -> Vec<Verdict> {
        let mut slots = PipelineSlots::new(batch.len());

        // Stage 2: transit short-circuit, then batched destination-EphID
        // decrypt (only packets addressed to this AS touch the cipher).
        for (i, header, _) in batch.parsed() {
            if header.dst.aid != self.infra.aid {
                slots.pass(
                    i,
                    Verdict::ForwardInter {
                        dst_aid: header.dst.aid,
                    },
                );
            }
        }
        let aid = self.infra.aid;
        let (idxs, ephids) = batch.parsed_dst_ephids(|h| h.dst.aid == aid);
        for (&i, res) in idxs
            .iter()
            .zip(ephid::open_many_with(&self.enc, &self.mac, &ephids))
        {
            match res {
                Ok(plain) => slots.admit(i, plain),
                Err(_) => slots.reject(i, DropReason::BadEphId),
            }
        }

        // Stage 3: expiry + revocation on the destination EphID.
        for (i, header, _) in batch.parsed() {
            let Some(plain) = slots.plain(i) else {
                continue;
            };
            if let Err(r) = self.stage_validity(&header.dst.ephid, &plain, now) {
                slots.reject(i, r);
            }
        }

        // Stage 4': destination host validity → local delivery.
        for i in 0..slots.len() {
            let Some(plain) = slots.plain(i) else {
                continue;
            };
            match self.stage_host_valid(&plain) {
                Ok(()) => slots.pass(i, Verdict::DeliverLocal { hid: plain.hid }),
                Err(r) => slots.reject(i, r),
            }
        }
        slots.into_verdicts()
    }

    /// Applies a revocation order from the accountability agent after
    /// verifying its `MAC_kAS` (Fig. 5's final exchange).
    pub fn apply_revocation(&self, order: &RevocationOrder) -> Result<(), Error> {
        if !order.verify(&self.infra.keys) {
            return Err(Error::ShutoffRejected("revocation order MAC"));
        }
        self.infra.revoked.insert(order.ephid, order.exp_time);
        Ok(())
    }

    /// Housekeeping: purge expired entries from the revocation list
    /// (§VIII-G2). Returns the number purged.
    pub fn purge_revocations(&self, now: Timestamp) -> usize {
        self.infra.revoked.purge_expired(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asnode::AsNode;
    use crate::directory::AsDirectory;
    use crate::keys::HostAsKey;
    use apna_crypto::x25519::StaticSecret;
    use apna_wire::{ApnaHeader, EphIdBytes, HostAddr};
    use rand::SeedableRng;

    struct Fixture {
        node: AsNode,
        kha: HostAsKey,
        ephid: EphIdBytes,
        hid: Hid,
    }

    fn setup() -> Fixture {
        let dir = AsDirectory::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let node = AsNode::new(Aid(10), &mut rng, &dir, Timestamp(0));
        let host = StaticSecret::random_from_rng(&mut rng);
        let (hid, _) = node.rs.bootstrap(&host.public_key(), Timestamp(0)).unwrap();
        let kha = HostAsKey::from_dh(&host.diffie_hellman(&node.infra.keys.dh_public())).unwrap();
        let (ephid, _cert) = node.ms.issue(
            hid,
            [1; 32],
            [2; 32],
            crate::cert::CertKind::Data,
            crate::time::ExpiryClass::Short,
            Timestamp(0),
        );
        Fixture {
            node,
            kha,
            ephid,
            hid,
        }
    }

    /// Builds a correctly MAC'd packet from the fixture host.
    fn packet(f: &Fixture, dst_aid: Aid) -> Vec<u8> {
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(dst_aid, EphIdBytes([0x77; 16])),
        );
        let payload = b"data";
        let mac: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn valid_packet_egresses() {
        let f = setup();
        let wire = packet(&f, Aid(20));
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::ForwardInter { dst_aid: Aid(20) }
        );
    }

    #[test]
    fn expired_source_ephid_dropped() {
        let f = setup();
        let wire = packet(&f, Aid(20));
        // Short class lives 900 s.
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(901)),
            Verdict::Drop(DropReason::Expired)
        );
    }

    #[test]
    fn revoked_source_ephid_dropped() {
        let f = setup();
        let wire = packet(&f, Aid(20));
        f.node.infra.revoked.insert(f.ephid, Timestamp(900));
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::Revoked)
        );
    }

    #[test]
    fn revoked_hid_dropped() {
        let f = setup();
        let wire = packet(&f, Aid(20));
        f.node.infra.host_db.revoke_hid(f.hid);
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::UnknownHost)
        );
    }

    #[test]
    fn spoofed_packet_dropped() {
        // §VI-A EphID spoofing: valid EphID, but the spoofer lacks k_HA →
        // wrong MAC → drop (and the attack becomes visible).
        let f = setup();
        let spoofer_kha =
            HostAsKey::from_dh(&apna_crypto::x25519::SharedSecret([0x11; 32])).unwrap();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        );
        let payload = b"spoof";
        let mac: [u8; 8] = spoofer_kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::BadPacketMac)
        );
    }

    #[test]
    fn payload_tamper_dropped() {
        let f = setup();
        let mut wire = packet(&f, Aid(20));
        let last = wire.len() - 1;
        wire[last] ^= 1;
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::BadPacketMac)
        );
    }

    #[test]
    fn forged_ephid_dropped() {
        let f = setup();
        let mut wire = packet(&f, Aid(20));
        wire[4] ^= 1; // first byte of source EphID
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::BadEphId)
        );
    }

    #[test]
    fn malformed_dropped() {
        let f = setup();
        assert_eq!(
            f.node
                .br
                .process_outgoing(&[0u8; 10], ReplayMode::Disabled, Timestamp(0)),
            Verdict::Drop(DropReason::Malformed)
        );
    }

    #[test]
    fn ingress_delivers_to_hid() {
        let f = setup();
        // Build an inbound packet destined to our host's EphID.
        let header = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(10), f.ephid),
        );
        let wire = header.serialize();
        assert_eq!(
            f.node
                .br
                .process_incoming(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::DeliverLocal { hid: f.hid }
        );
    }

    #[test]
    fn ingress_transit_forwards_on_aid() {
        let f = setup();
        let header = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(30), EphIdBytes([0x66; 16])), // not ours
        );
        assert_eq!(
            f.node
                .br
                .process_incoming(&header.serialize(), ReplayMode::Disabled, Timestamp(5)),
            Verdict::ForwardInter { dst_aid: Aid(30) }
        );
    }

    #[test]
    fn ingress_checks_destination_state() {
        let f = setup();
        let header = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(10), f.ephid),
        );
        let wire = header.serialize();
        // Expired.
        assert_eq!(
            f.node
                .br
                .process_incoming(&wire, ReplayMode::Disabled, Timestamp(901)),
            Verdict::Drop(DropReason::Expired)
        );
        // Revoked.
        f.node.infra.revoked.insert(f.ephid, Timestamp(900));
        assert_eq!(
            f.node
                .br
                .process_incoming(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::Drop(DropReason::Revoked)
        );
    }

    #[test]
    fn nonce_mode_roundtrip() {
        let f = setup();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(1234);
        let payload = b"data";
        let mac: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5)),
            Verdict::ForwardInter { dst_aid: Aid(20) }
        );
        // Byte-level equivalence: parsing the 56-byte packet in 48-byte
        // mode shifts the nonce into the payload, but the MAC'd byte string
        // is identical — the packet still authenticates. Deployments agree
        // on one mode; nothing breaks if a middlebox mis-parses.
        assert_eq!(
            f.node
                .br
                .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(5)),
            Verdict::ForwardInter { dst_aid: Aid(20) }
        );
    }

    #[test]
    fn in_network_replay_filter_drops_duplicates_at_egress() {
        // §VIII-D extension: with the filter on, a replayed packet dies at
        // the source border instead of consuming the whole path.
        let f = setup();
        let mut br = f.node.br.clone();
        br.enable_replay_filter();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(42);
        let payload = b"once";
        let mac: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);

        assert!(br
            .process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5))
            .is_forward());
        assert_eq!(
            br.process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5)),
            Verdict::Drop(DropReason::Replayed)
        );
        assert_eq!(br.replay_filter_entries(), 1);

        // A fresh nonce passes.
        let mut header2 = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(43);
        let mac2: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header2.mac_input(payload));
        header2.set_mac(mac2);
        let mut wire2 = header2.serialize();
        wire2.extend_from_slice(payload);
        assert!(br
            .process_outgoing(&wire2, ReplayMode::NonceExtension, Timestamp(5))
            .is_forward());
    }

    #[test]
    fn replay_filter_ignores_forged_nonces() {
        // The filter runs after MAC verification: a forged duplicate with a
        // bad MAC is dropped as BadPacketMac and never updates the window.
        let f = setup();
        let mut br = f.node.br.clone();
        br.enable_replay_filter();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(7);
        header.set_mac([0xAA; 8]); // forged
        let mut wire = header.serialize();
        wire.extend_from_slice(b"x");
        assert_eq!(
            br.process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5)),
            Verdict::Drop(DropReason::BadPacketMac)
        );
        assert_eq!(br.replay_filter_entries(), 0, "no state from forgeries");
    }

    #[test]
    fn replay_filter_off_by_default() {
        let f = setup();
        assert_eq!(f.node.br.replay_filter_entries(), 0);
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(1);
        let payload = b"dup";
        let mac: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        // Without the filter, duplicates pass the border (host-side
        // detection still applies downstream).
        assert!(f
            .node
            .br
            .process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5))
            .is_forward());
        assert!(f
            .node
            .br
            .process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(5))
            .is_forward());
    }

    /// Builds a MAC'd packet with a replay nonce.
    fn packet_with_nonce(f: &Fixture, nonce: u64, payload: &[u8]) -> Vec<u8> {
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(10), f.ephid),
            HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
        )
        .with_nonce(nonce);
        let mac: [u8; 8] = f
            .kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn batch_mixed_verdicts_and_counters() {
        use apna_wire::PacketBatch;
        let f = setup();
        // Revoke a second EphID to hit the Revoked arm.
        let (revoked_ephid, _) = f.node.ms.issue(
            f.hid,
            [3; 32],
            [4; 32],
            crate::cert::CertKind::Data,
            crate::time::ExpiryClass::Short,
            Timestamp(0),
        );
        f.node.infra.revoked.insert(revoked_ephid, Timestamp(900));

        let valid = packet(&f, Aid(20));
        let mut spoofed = packet(&f, Aid(20));
        let last = spoofed.len() - 1;
        spoofed[last] ^= 1; // payload tamper → BadPacketMac
        let mut forged = packet(&f, Aid(20));
        forged[4] ^= 1; // source EphID bit flip → BadEphId
        let mut revoked_pkt = {
            let mut header = ApnaHeader::new(
                HostAddr::new(Aid(10), revoked_ephid),
                HostAddr::new(Aid(20), EphIdBytes([0x77; 16])),
            );
            header.set_mac([0; 8]);
            header.serialize()
        };
        revoked_pkt.extend_from_slice(b"x");

        let mut batch = PacketBatch::from_packets(
            ReplayMode::Disabled,
            vec![valid, spoofed, forged, revoked_pkt, vec![0u8; 5]],
        );
        let out = f
            .node
            .br
            .process_batch(Direction::Egress, &mut batch, Timestamp(5));
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.verdicts()[0],
            Verdict::ForwardInter { dst_aid: Aid(20) }
        );
        assert_eq!(out.verdicts()[1], Verdict::Drop(DropReason::BadPacketMac));
        assert_eq!(out.verdicts()[2], Verdict::Drop(DropReason::BadEphId));
        assert_eq!(out.verdicts()[3], Verdict::Drop(DropReason::Revoked));
        assert_eq!(out.verdicts()[4], Verdict::Drop(DropReason::Malformed));
        assert_eq!(out.passed(), 1);
        let c = out.counters();
        assert_eq!(c.count(DropReason::BadPacketMac), 1);
        assert_eq!(c.count(DropReason::BadEphId), 1);
        assert_eq!(c.count(DropReason::Revoked), 1);
        assert_eq!(c.count(DropReason::Malformed), 1);
        assert_eq!(c.count(DropReason::Expired), 0);
        assert_eq!(c.total(), 4);
        assert_eq!(c.iter_nonzero().count(), 4);
    }

    #[test]
    fn batch_ingress_transit_delivery_and_drops() {
        use apna_wire::PacketBatch;
        let f = setup();
        let to_us = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(10), f.ephid),
        )
        .serialize();
        let transit = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(30), EphIdBytes([0x66; 16])),
        )
        .serialize();
        let bogus_dst = ApnaHeader::new(
            HostAddr::new(Aid(20), EphIdBytes([0x55; 16])),
            HostAddr::new(Aid(10), EphIdBytes([0x44; 16])),
        )
        .serialize();
        let mut batch =
            PacketBatch::from_packets(ReplayMode::Disabled, vec![to_us, transit, bogus_dst]);
        let out = f
            .node
            .br
            .process_batch(Direction::Ingress, &mut batch, Timestamp(5));
        assert_eq!(out.verdicts()[0], Verdict::DeliverLocal { hid: f.hid });
        assert_eq!(
            out.verdicts()[1],
            Verdict::ForwardInter { dst_aid: Aid(30) }
        );
        assert_eq!(out.verdicts()[2], Verdict::Drop(DropReason::BadEphId));
        assert_eq!(out.passed(), 2);
    }

    #[test]
    fn batch_replay_filter_drops_duplicates_within_and_across_batches() {
        use apna_wire::PacketBatch;
        let f = setup();
        let mut br = f.node.br.clone();
        br.enable_replay_filter();
        // Batch 1: nonce 1 twice (second is a replay), nonce 2 once.
        let mut b1 = PacketBatch::from_packets(
            ReplayMode::NonceExtension,
            vec![
                packet_with_nonce(&f, 1, b"a"),
                packet_with_nonce(&f, 1, b"a"),
                packet_with_nonce(&f, 2, b"b"),
            ],
        );
        let out1 = br.process_batch(Direction::Egress, &mut b1, Timestamp(5));
        assert!(out1.verdicts()[0].is_forward());
        assert_eq!(out1.verdicts()[1], Verdict::Drop(DropReason::Replayed));
        assert!(out1.verdicts()[2].is_forward());
        // Batch 2: nonce 2 replays across batches; nonce 3 is fresh.
        let mut b2 = PacketBatch::from_packets(
            ReplayMode::NonceExtension,
            vec![
                packet_with_nonce(&f, 2, b"b"),
                packet_with_nonce(&f, 3, b"c"),
            ],
        );
        let out2 = br.process_batch(Direction::Egress, &mut b2, Timestamp(5));
        assert_eq!(out2.verdicts()[0], Verdict::Drop(DropReason::Replayed));
        assert!(out2.verdicts()[1].is_forward());
        assert_eq!(br.replay_filter_entries(), 1);
    }

    #[test]
    fn drop_reason_indices_match_all_order() {
        for (i, reason) in DropReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i, "{reason:?} out of order in ALL");
        }
    }

    #[test]
    fn drop_counters_merge() {
        let mut a = DropCounters::default();
        a.record(DropReason::Expired);
        a.record(DropReason::Expired);
        let mut b = DropCounters::default();
        b.record(DropReason::Expired);
        b.record(DropReason::Replayed);
        a.merge(&b);
        assert_eq!(a.count(DropReason::Expired), 3);
        assert_eq!(a.count(DropReason::Replayed), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn purge_delegates_to_list() {
        let f = setup();
        f.node
            .infra
            .revoked
            .insert(EphIdBytes([9; 16]), Timestamp(10));
        assert_eq!(f.node.br.purge_revocations(Timestamp(11)), 1);
    }
}
