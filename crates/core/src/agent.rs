//! The host's control-plane agent.
//!
//! A [`HostAgent`] owns a bootstrapped [`Host`] (and with it the host's key
//! material and issued EphIDs) plus the [`EphIdPool`] that maps traffic to
//! EphIDs under a §VIII-A granularity policy. It exposes the host's
//! *intents* — [`HostAgent::acquire`], [`HostAgent::acquire_many`],
//! [`HostAgent::ephid_for`], [`HostAgent::refresh_expiring`],
//! [`HostAgent::request_shutoff`], [`HostAgent::dns_register`],
//! [`HostAgent::dns_update`] — each written once over a
//! [`ControlTransport`]: build the [`ControlMsg`]s, hand them to the
//! transport, accept the replies. A `&impl ControlPlane` serves them in
//! process; the simulator's network carries the same messages as packets,
//! and this code does not change between the two.
//!
//! The agent dereferences to its [`Host`], so data-plane calls
//! (`build_packet`, `receive_packet`, `owned_ephid`, …) read the same as
//! they would on a bare host.

use crate::asnode::AsNode;
use crate::cert::CertKind;
use crate::control::{ControlMsg, ControlTransport, DnsUpsert, Service, ShutoffAck};
use crate::granularity::{EphIdPool, Granularity, SlotDecision};
use crate::host::Host;
use crate::keys::EphIdKeyPair;
use crate::shutoff::ShutoffRequest;
use crate::time::{ExpiryClass, Timestamp};
use crate::Error;
use apna_wire::{Aid, EphIdBytes, ReplayMode};

/// What an EphID will be used for: the certificate kind plus the §VIII-G1
/// expiry class, bundled so intent-level calls stay two-argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EphIdUsage {
    /// Requested certificate kind.
    pub kind: CertKind,
    /// Requested expiry class.
    pub class: ExpiryClass,
}

impl EphIdUsage {
    /// A data-plane EphID with a 15-minute lifetime — the common case
    /// ("98% of the flows in the Internet last less than 15 minutes").
    pub const DATA_SHORT: EphIdUsage = EphIdUsage::new(CertKind::Data, ExpiryClass::Short);
    /// A data-plane EphID with a 2-hour lifetime.
    pub const DATA_MEDIUM: EphIdUsage = EphIdUsage::new(CertKind::Data, ExpiryClass::Medium);
    /// A data-plane EphID with a 24-hour lifetime.
    pub const DATA_LONG: EphIdUsage = EphIdUsage::new(CertKind::Data, ExpiryClass::Long);
    /// A publishable receive-only EphID (§VII-A), 24-hour lifetime.
    pub const RECEIVE_ONLY: EphIdUsage = EphIdUsage::new(CertKind::ReceiveOnly, ExpiryClass::Long);
    /// A receive-only EphID with the short lifetime (rotation tests).
    pub const RECEIVE_ONLY_SHORT: EphIdUsage =
        EphIdUsage::new(CertKind::ReceiveOnly, ExpiryClass::Short);

    /// Bundles a kind and class.
    #[must_use]
    pub const fn new(kind: CertKind, class: ExpiryClass) -> EphIdUsage {
        EphIdUsage { kind, class }
    }
}

/// The host-side state of an in-flight EphID acquisition: the generated
/// key pair, held until the issuance reply arrives.
pub struct PendingAcquire {
    keypair: EphIdKeyPair,
}

/// Default refresh horizon for [`HostAgent::refresh_expiring`]: EphIDs
/// within a minute of expiry get replaced.
pub const DEFAULT_REFRESH_MARGIN_SECS: u32 = 60;

/// A host plus its control-plane brain: EphID pool, granularity policy,
/// and the client side of every [`ControlMsg`] exchange.
pub struct HostAgent {
    host: Host,
    pool: EphIdPool,
    refresh_margin_secs: u32,
}

impl std::ops::Deref for HostAgent {
    type Target = Host;
    fn deref(&self) -> &Host {
        &self.host
    }
}

impl std::ops::DerefMut for HostAgent {
    fn deref_mut(&mut self) -> &mut Host {
        &mut self.host
    }
}

impl HostAgent {
    /// Bootstraps a host against `node` and wraps it with a pool under
    /// `granularity`.
    pub fn attach(
        node: &AsNode,
        granularity: Granularity,
        replay_mode: ReplayMode,
        now: Timestamp,
        rng_seed: u64,
    ) -> Result<HostAgent, Error> {
        Ok(HostAgent::from_host(
            Host::attach(node, replay_mode, now, rng_seed)?,
            granularity,
        ))
    }

    /// Wraps an already-bootstrapped host.
    #[must_use]
    pub fn from_host(host: Host, granularity: Granularity) -> HostAgent {
        HostAgent {
            host,
            pool: EphIdPool::new(granularity),
            refresh_margin_secs: DEFAULT_REFRESH_MARGIN_SECS,
        }
    }

    /// Adjusts how far ahead of expiry [`HostAgent::refresh_expiring`]
    /// replaces EphIDs.
    pub fn set_refresh_margin(&mut self, secs: u32) {
        self.refresh_margin_secs = secs;
    }

    // -----------------------------------------------------------------
    // EphID acquisition (Fig. 3, intent level)
    // -----------------------------------------------------------------

    /// Starts an acquisition: returns the pending state (keep it) and the
    /// request message to deliver to the Management Service.
    pub fn begin_acquire(&mut self, usage: EphIdUsage) -> (PendingAcquire, ControlMsg) {
        let (keypair, req) = self.host.make_ephid_request(usage.kind, usage.class);
        (PendingAcquire { keypair }, ControlMsg::EphIdRequest(req))
    }

    /// Completes an acquisition from the service's reply message; stores
    /// and returns the index of the new EphID.
    pub fn complete_acquire(
        &mut self,
        pending: PendingAcquire,
        reply: &ControlMsg,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let reply = match reply {
            ControlMsg::EphIdReply(reply) => reply,
            // Admission-control pushback: surface the typed drop so callers
            // can back off instead of treating it as a protocol violation.
            ControlMsg::EphIdBusy(busy) => {
                return Err(Error::Management(crate::management::MsDrop::RateLimited {
                    retry_after_secs: busy.retry_after_secs,
                }))
            }
            ControlMsg::EphIdRequest(_)
            | ControlMsg::RevocationAnnounce(_)
            | ControlMsg::ShutoffRequest(_)
            | ControlMsg::ShutoffAck(_)
            | ControlMsg::DnsRegister(_)
            | ControlMsg::DnsUpdate(_)
            | ControlMsg::DnsAck { .. } => {
                return Err(Error::ControlRejected("expected an EphID reply"))
            }
        };
        self.host.accept_ephid_reply(pending.keypair, reply, now)
    }

    /// Acquires one EphID from the host's Management Service and returns
    /// its index. In process (`&node`) the request and reply still cross
    /// the serialized [`ControlMsg`] envelope, exactly as on the wire.
    pub fn acquire(
        &mut self,
        mut transport: impl ControlTransport,
        usage: EphIdUsage,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let (pending, msg) = self.begin_acquire(usage);
        let reply = transport.call(&mut self.host, Service::Ms, &msg, now)?;
        self.complete_acquire(pending, &reply.msg, reply.at)
    }

    /// Batched acquisition: every request is built up front and leaves as
    /// ONE burst — against an AS node the issuances run the pipelined
    /// `handle_request_batch` path instead of N sequential round-trips.
    /// Returns the owned indices in request order; the first failed slot
    /// aborts with no partial pool mutation (acquired EphIDs stay owned
    /// and reusable).
    pub fn acquire_many(
        &mut self,
        mut transport: impl ControlTransport,
        usages: &[EphIdUsage],
        now: Timestamp,
    ) -> Result<Vec<usize>, Error> {
        let (in_flight, msgs): (Vec<_>, Vec<_>) =
            usages.iter().map(|&u| self.begin_acquire(u)).unzip();
        let mut outcomes = transport
            .burst(&mut self.host, Service::Ms, &msgs, now)
            .into_iter();
        in_flight
            .into_iter()
            .map(|pending| {
                let reply = outcomes
                    .next()
                    .ok_or(Error::ControlRejected("burst ended without an outcome"))??;
                self.complete_acquire(pending, &reply.msg, reply.at)
            })
            .collect()
    }

    /// Selects (acquiring if needed) the EphID for a packet of `flow` /
    /// `app` under the pool policy. Returns the index into
    /// [`Host::owned_ephid`].
    pub fn ephid_for(
        &mut self,
        transport: impl ControlTransport,
        flow: u64,
        app: u16,
        now: Timestamp,
    ) -> Result<usize, Error> {
        match self.pool.slot_for(flow, app) {
            SlotDecision::Reuse(idx) => Ok(idx),
            SlotDecision::NeedNew(key) => {
                let idx = self.acquire(transport, EphIdUsage::DATA_SHORT, now)?;
                self.pool.install(key, idx);
                Ok(idx)
            }
        }
    }

    /// Pools `idx` as the EphID for `flow` / `app` when the pool has none
    /// for it yet — for an EphID acquired ahead of the first packet, e.g.
    /// in an attach burst.
    pub fn prefill(&mut self, flow: u64, app: u16, idx: usize) {
        if let SlotDecision::NeedNew(key) = self.pool.slot_for(flow, app) {
            self.pool.install(key, idx);
        }
    }

    /// The pooled EphID indices that expire within the refresh margin of
    /// `now` — what [`HostAgent::refresh_expiring`] is about to replace.
    /// Sorted and deduplicated.
    fn refresh_candidates(&self, now: Timestamp) -> Vec<usize> {
        let deadline = now.add_secs(self.refresh_margin_secs);
        let mut stale: Vec<usize> = self
            .pool
            .assignments()
            .map(|(_, idx)| idx)
            .filter(|&idx| self.host.owned_cert(idx).exp_time.expired_at(deadline))
            .collect();
        stale.sort_unstable();
        stale.dedup();
        stale
    }

    /// Replaces every pooled data EphID that expires within the refresh
    /// margin: acquires a successor and repoints the slots it served, so
    /// ongoing flows never hit the border router's expiry check. Returns
    /// how many EphIDs were replaced.
    pub fn refresh_expiring(
        &mut self,
        transport: impl ControlTransport,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let stale = self.refresh_candidates(now);
        if stale.is_empty() {
            return Ok(0);
        }
        // Acquire every successor BEFORE touching the pool — as one
        // burst, so a rotation wave costs one control burst, not N
        // round-trips. If issuance fails the error propagates with every
        // flow→EphID mapping intact, instead of silently evicting slots it
        // cannot refill.
        let usages = vec![EphIdUsage::DATA_SHORT; stale.len()];
        let fresh = self.acquire_many(transport, &usages, now)?;
        for (&old_idx, &new_idx) in stale.iter().zip(&fresh) {
            for key in self.pool.evict_index(old_idx) {
                self.pool.install(key, new_idx);
            }
        }
        Ok(stale.len())
    }

    // -----------------------------------------------------------------
    // Revocation & shut-off (Fig. 5, intent level)
    // -----------------------------------------------------------------

    /// Reacts to a shutoff/revocation of one of our EphIDs: evicts every
    /// pool slot it served (fate-sharing) so follow-up traffic reallocates.
    pub fn handle_revocation(&mut self, ephid: EphIdBytes) -> usize {
        let Some(idx) = self.host.owned_index_of(ephid) else {
            return 0;
        };
        self.pool.evict_index(idx).len()
    }

    /// Files a shut-off request with the accountability agent of AS `aa`
    /// (the source AS of the unwanted packet) and returns its
    /// acknowledgement. The evidence is the unwanted packet, signed with
    /// the key of the EphID that received it (`owned_idx`) and sent with
    /// that EphID's certificate.
    pub fn request_shutoff(
        &mut self,
        mut transport: impl ControlTransport,
        aa: Aid,
        evidence: &[u8],
        owned_idx: usize,
        now: Timestamp,
    ) -> Result<ShutoffAck, Error> {
        let owned = self.host.owned_ephid(owned_idx);
        let msg = ControlMsg::ShutoffRequest(ShutoffRequest::create(
            evidence,
            &owned.keys,
            owned.cert.clone(),
        ));
        let reply = transport.call(&mut self.host, Service::Aa(aa), &msg, now)?;
        let ControlMsg::ShutoffAck(ack) = reply.msg else {
            return Err(Error::ControlRejected("expected a shutoff ack"));
        };
        Ok(ack)
    }

    // -----------------------------------------------------------------
    // DNS publication (§VII-A, intent level)
    // -----------------------------------------------------------------

    /// Publishes the owned EphID at `owned_idx` under `name` in the zone
    /// AS `zone` serves, authorized by that EphID's own key (the zone's
    /// proof-of-possession check). Hosts publish no IPv4 (§VII-D lets
    /// operators withhold it).
    pub fn dns_register(
        &mut self,
        transport: impl ControlTransport,
        zone: Aid,
        name: &str,
        owned_idx: usize,
        now: Timestamp,
    ) -> Result<(), Error> {
        let owned = self.host.owned_ephid(owned_idx);
        let upsert = DnsUpsert::signed(name, owned.cert.clone(), None, &owned.keys.sign());
        self.dns_publish(transport, zone, name, ControlMsg::DnsRegister(upsert), now)
    }

    /// Re-publishes `name` with `new_idx`'s certificate, authorized by the
    /// key of the currently published EphID at `current_idx` (the zone's
    /// continuity check).
    pub fn dns_update(
        &mut self,
        transport: impl ControlTransport,
        zone: Aid,
        name: &str,
        new_idx: usize,
        current_idx: usize,
        now: Timestamp,
    ) -> Result<(), Error> {
        let new_cert = self.host.owned_cert(new_idx).clone();
        let current = self.host.owned_ephid(current_idx);
        let upsert = DnsUpsert::signed(name, new_cert, None, &current.keys.sign());
        self.dns_publish(transport, zone, name, ControlMsg::DnsUpdate(upsert), now)
    }

    fn dns_publish(
        &mut self,
        mut transport: impl ControlTransport,
        zone: Aid,
        name: &str,
        msg: ControlMsg,
        now: Timestamp,
    ) -> Result<(), Error> {
        let reply = transport.call(&mut self.host, Service::Dns(zone), &msg, now)?;
        match reply.msg {
            ControlMsg::DnsAck { name: acked } if acked == name => Ok(()),
            ControlMsg::DnsAck { .. }
            | ControlMsg::EphIdRequest(_)
            | ControlMsg::EphIdReply(_)
            | ControlMsg::EphIdBusy(_)
            | ControlMsg::RevocationAnnounce(_)
            | ControlMsg::ShutoffRequest(_)
            | ControlMsg::ShutoffAck(_)
            | ControlMsg::DnsRegister(_)
            | ControlMsg::DnsUpdate(_) => Err(Error::ControlRejected("expected a DNS ack")),
        }
    }

    // -----------------------------------------------------------------
    // Metrics
    // -----------------------------------------------------------------

    /// Pool statistics: (allocations, packets) — the E9 metrics.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.allocations(), self.pool.packets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use crate::directory::AsDirectory;

    fn node() -> AsNode {
        AsNode::from_seed(Aid(1), [1; 32], &AsDirectory::new(), Timestamp(0))
    }

    fn agent(node: &AsNode, granularity: Granularity, seed: u64) -> HostAgent {
        HostAgent::attach(node, granularity, ReplayMode::Disabled, Timestamp(0), seed).unwrap()
    }

    #[test]
    fn acquire_roundtrips_through_envelope() {
        let node = node();
        let mut a = agent(&node, Granularity::PerFlow, 7);
        let idx = a
            .acquire(&node, EphIdUsage::DATA_SHORT, Timestamp(0))
            .unwrap();
        assert_eq!(a.ephid_count(), 1);
        a.owned_ephid(idx)
            .cert
            .verify(&node.infra.keys.verifying_key(), Timestamp(0))
            .unwrap();
    }

    #[test]
    fn granularity_drives_allocation() {
        let node = node();
        let mut per_host = agent(&node, Granularity::PerHost, 1);
        let mut per_flow = agent(&node, Granularity::PerFlow, 2);
        for flow in 0..5u64 {
            per_host.ephid_for(&node, flow, 0, Timestamp(0)).unwrap();
            per_flow.ephid_for(&node, flow, 0, Timestamp(0)).unwrap();
        }
        assert_eq!(per_host.ephid_count(), 1);
        assert_eq!(per_flow.ephid_count(), 5);
        assert_eq!(per_host.pool_stats(), (1, 5));
    }

    #[test]
    fn revocation_evicts_pool_slots() {
        let node = node();
        let mut a = agent(&node, Granularity::PerHost, 11);
        let idx = a.ephid_for(&node, 1, 0, Timestamp(0)).unwrap();
        let eid = a.owned_ephid(idx).ephid();
        assert_eq!(a.handle_revocation(eid), 1);
        // Unknown EphID: nothing to evict.
        assert_eq!(a.handle_revocation(EphIdBytes([0; 16])), 0);
        // Next packet reallocates.
        let idx2 = a.ephid_for(&node, 1, 0, Timestamp(0)).unwrap();
        assert_ne!(idx, idx2);
    }

    #[test]
    fn refresh_expiring_repoints_slots() {
        let node = node();
        let mut a = agent(&node, Granularity::PerFlow, 3);
        let i1 = a.ephid_for(&node, 1, 0, Timestamp(0)).unwrap();
        let i2 = a.ephid_for(&node, 2, 0, Timestamp(0)).unwrap();
        // Nothing near expiry yet (Short class lives 900 s; margin 60 s).
        assert_eq!(a.refresh_expiring(&node, Timestamp(0)).unwrap(), 0);
        // At t=850 both are within the margin of their t=900 expiry.
        let refreshed = a.refresh_expiring(&node, Timestamp(850)).unwrap();
        assert_eq!(refreshed, 2);
        let j1 = a.ephid_for(&node, 1, 0, Timestamp(850)).unwrap();
        let j2 = a.ephid_for(&node, 2, 0, Timestamp(850)).unwrap();
        assert_ne!(i1, j1);
        assert_ne!(i2, j2);
        // The replacements are fresh (expire at 850+900).
        assert_eq!(a.owned_ephid(j1).cert.exp_time, Timestamp(850 + 900));
        // Idempotent: nothing else near expiry now.
        assert_eq!(a.refresh_expiring(&node, Timestamp(850)).unwrap(), 0);
    }

    /// Every answer of `owned_index_of` equals a linear scan of the owned
    /// list, through a seeded run of acquisitions, rotation waves, a
    /// revocation eviction and a reply accepted twice (a duplicate EphID
    /// keeps its first index). Probes: every owned EphID, the control
    /// EphID, and random foreign EphIDs.
    #[test]
    fn owned_index_matches_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        fn check(a: &HostAgent, rng: &mut StdRng) {
            let scan =
                |e: EphIdBytes| (0..a.ephid_count()).position(|i| a.owned_ephid(i).ephid() == e);
            let mut probes: Vec<EphIdBytes> = (0..a.ephid_count())
                .map(|i| a.owned_ephid(i).ephid())
                .collect();
            probes.push(a.control_ephid().0);
            for _ in 0..8 {
                let mut foreign = [0u8; 16];
                rng.fill_bytes(&mut foreign);
                probes.push(EphIdBytes(foreign));
            }
            for e in probes {
                assert_eq!(a.owned_index_of(e), scan(e));
            }
        }

        let node = node();
        let mut a = agent(&node, Granularity::PerFlow, 5);
        let mut rng = StdRng::seed_from_u64(26);
        let mut now = Timestamp(0);
        let mut rotated = 0;
        for _wave in 0..4 {
            for _ in 0..rng.gen_range(1..8) {
                let flow = rng.gen_range(0..16u64);
                a.ephid_for(&node, flow, 0, now).unwrap();
                check(&a, &mut rng);
            }
            now = now.add_secs(rng.gen_range(300..900));
            rotated += a.refresh_expiring(&node, now).unwrap();
            check(&a, &mut rng);
        }
        assert!(rotated > 0, "the seeded run must include a rotation wave");

        let victim = a.owned_ephid(rng.gen_range(0..a.ephid_count())).ephid();
        a.handle_revocation(victim);
        check(&a, &mut rng);

        let (pending, msg) = a.begin_acquire(EphIdUsage::DATA_SHORT);
        let keypair = pending.keypair.clone();
        let reply = node
            .handle_control_frame(&msg.serialize(), now)
            .unwrap()
            .unwrap();
        let reply = ControlMsg::parse(&reply).unwrap();
        let first = a.complete_acquire(pending, &reply, now).unwrap();
        let ControlMsg::EphIdReply(again) = &reply else {
            panic!("expected an EphID reply");
        };
        let second = a.host.accept_ephid_reply(keypair, again, now).unwrap();
        assert_ne!(first, second);
        assert_eq!(a.owned_index_of(a.owned_ephid(second).ephid()), Some(first));
        check(&a, &mut rng);
    }

    #[test]
    fn shutoff_roundtrip_against_control_plane() {
        let dir = AsDirectory::new();
        let a_node = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
        let b_node = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
        let mut sender = HostAgent::attach(
            &a_node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            1,
        )
        .unwrap();
        let mut victim = HostAgent::attach(
            &b_node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            2,
        )
        .unwrap();
        let si = sender
            .acquire(&a_node, EphIdUsage::DATA_SHORT, Timestamp(0))
            .unwrap();
        let vi = victim
            .acquire(&b_node, EphIdUsage::DATA_SHORT, Timestamp(0))
            .unwrap();
        let dst = victim.owned_ephid(vi).addr(Aid(2));
        let evidence = sender.build_raw_packet(si, dst, b"unwanted");
        let ack = victim
            .request_shutoff(&a_node, Aid(1), &evidence, vi, Timestamp(1))
            .unwrap();
        assert_eq!(ack.ephid, sender.owned_ephid(si).ephid());
        assert!(!ack.hid_revoked);
        assert!(a_node.infra.revoked.contains(&ack.ephid));
    }
}
