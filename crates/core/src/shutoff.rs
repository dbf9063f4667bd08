//! The shutoff protocol (Fig. 5, §IV-E) and its hardening (§VI-C, §VIII-C).
//!
//! A destination host that received an unwanted packet sends the
//! accountability agent (AA) of the *source* AS a request containing:
//!
//! 1. the unwanted packet itself — evidence that the source really sent
//!    traffic to this destination (every packet carries the source AS's
//!    cryptographic mark, the `k_HA` MAC);
//! 2. a signature over the packet with the private key of the destination
//!    EphID — proof the requester owns the packet's destination;
//! 3. the destination EphID's certificate — the authorization credential.
//!
//! The AA verifies all three, confirms the quoted packet authenticates
//! under the claimed source's `k_HA`, and only then orders its border
//! routers to blacklist the source EphID. Every check thwarts a DoS vector
//! (§VI-C "Unauthorized Shutoff Requests"); the tests exercise each.

use crate::asnode::AsInfra;
use crate::cert::EphIdCert;
use crate::directory::AsDirectory;
use crate::ephid;
use crate::keys::{AsKeys, EphIdKeyPair};
use crate::time::Timestamp;
use crate::Error;
use apna_crypto::aes::Aes128;
use apna_crypto::ed25519::{Signature, SIGNATURE_LEN};
use apna_wire::{ApnaHeader, EphIdBytes, ReplayMode, WireError};
use std::sync::Arc;

/// A shutoff request (`MAC_kHDAD({pkt}_{K⁻EphIDd}, C_EphIDd)` in Fig. 5 —
/// the outer transport protection is provided by the normal packet path;
/// this struct is the request body).
#[derive(Debug, Clone, PartialEq)]
pub struct ShutoffRequest {
    /// The unwanted packet, complete wire bytes.
    pub packet: Vec<u8>,
    /// Signature over `packet` by the destination EphID's signing key.
    pub signature: Signature,
    /// Certificate of the destination EphID (authorization credential).
    pub dst_cert: EphIdCert,
}

impl ShutoffRequest {
    /// Builds a request: the destination host signs the offending packet
    /// with the key pair of the EphID that received it.
    #[must_use]
    pub fn create(packet: &[u8], dst_keys: &EphIdKeyPair, dst_cert: EphIdCert) -> ShutoffRequest {
        ShutoffRequest {
            packet: packet.to_vec(),
            signature: dst_keys.sign().sign(packet),
            dst_cert,
        }
    }

    /// Serializes: `pkt_len (4) ‖ packet ‖ signature (64) ‖ cert`.
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.packet.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.packet);
        out.extend_from_slice(&self.signature.to_bytes());
        out.extend_from_slice(&self.dst_cert.serialize());
        out
    }

    /// Parses the serialized form.
    pub fn parse(buf: &[u8]) -> Result<ShutoffRequest, WireError> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let pkt_len = u32::from_be_bytes(apna_wire::read_arr(buf, 0)?) as usize;
        let rest = &buf[4..];
        if rest.len() < pkt_len + SIGNATURE_LEN {
            return Err(WireError::Truncated);
        }
        let packet = rest[..pkt_len].to_vec();
        let signature = Signature::from_bytes(&rest[pkt_len..pkt_len + SIGNATURE_LEN])
            .map_err(|_| WireError::Truncated)?;
        let dst_cert = EphIdCert::parse(&rest[pkt_len + SIGNATURE_LEN..])?;
        Ok(ShutoffRequest {
            packet,
            signature,
            dst_cert,
        })
    }
}

/// The AA's instruction to border routers: `MAC_kAS(revoke EphID_s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationOrder {
    /// The EphID to blacklist.
    pub ephid: EphIdBytes,
    /// Its expiry (so the list can purge it later, §VIII-G2).
    pub exp_time: Timestamp,
    /// CMAC under the AS infrastructure key.
    pub mac: [u8; 16],
}

impl RevocationOrder {
    /// Wire length: `ephid (16) ‖ exp_time (4) ‖ mac (16)`.
    pub const WIRE_LEN: usize = 16 + 4 + 16;

    /// Serializes: `ephid ‖ exp_time ‖ mac`.
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.extend_from_slice(self.ephid.as_bytes());
        out.extend_from_slice(&self.exp_time.to_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses the serialized form (exact length).
    pub fn parse(buf: &[u8]) -> Result<RevocationOrder, WireError> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        if buf.len() > Self::WIRE_LEN {
            return Err(WireError::LengthMismatch);
        }
        Ok(RevocationOrder {
            ephid: EphIdBytes::from_slice(&buf[..16])?,
            exp_time: Timestamp::from_bytes(apna_wire::read_arr(buf, 16)?),
            mac: apna_wire::read_arr(buf, 20)?,
        })
    }

    fn mac_input(ephid: &EphIdBytes, exp: Timestamp) -> Vec<u8> {
        let mut msg = b"APNA-REVOKE-V1".to_vec();
        msg.extend_from_slice(ephid.as_bytes());
        msg.extend_from_slice(&exp.to_bytes());
        msg
    }

    /// Issues an order under the AS infrastructure key. Only holders of
    /// `keys` can produce a verifying order; border routers check the MAC
    /// before applying (so a public constructor grants no authority).
    #[must_use]
    pub fn issue(keys: &AsKeys, ephid: EphIdBytes, exp_time: Timestamp) -> RevocationOrder {
        let mac = keys.infra_cmac().mac(&Self::mac_input(&ephid, exp_time));
        RevocationOrder {
            ephid,
            exp_time,
            mac,
        }
    }

    /// Border-router side verification (Fig. 5's final check).
    #[must_use]
    pub fn verify(&self, keys: &AsKeys) -> bool {
        keys.infra_cmac()
            .verify(&Self::mac_input(&self.ephid, self.exp_time), &self.mac)
    }
}

/// Policy knobs for revocation escalation (§VIII-G2).
#[derive(Debug, Clone, Copy)]
pub struct RevocationPolicy {
    /// Maximum EphID revocations per host before its HID is revoked —
    /// mirroring the Copyright Alert System's 6-strike scheme the paper
    /// cites, we default to 6.
    pub max_ephid_revocations_per_host: u32,
}

impl Default for RevocationPolicy {
    fn default() -> Self {
        RevocationPolicy {
            max_ephid_revocations_per_host: 6,
        }
    }
}

/// Outcome of a successful shutoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutoffOutcome {
    /// The order sent to border routers.
    pub order: RevocationOrder,
    /// `true` if policy escalation also revoked the host's HID.
    pub hid_revoked: bool,
}

/// The Accountability Agent of one AS.
pub struct AccountabilityAgent {
    infra: Arc<AsInfra>,
    directory: AsDirectory,
    policy: RevocationPolicy,
    enc: Aes128,
    mac: Aes128,
}

impl AccountabilityAgent {
    pub(crate) fn new(
        infra: Arc<AsInfra>,
        directory: AsDirectory,
        policy: RevocationPolicy,
    ) -> AccountabilityAgent {
        let enc = infra.keys.ephid_enc_cipher();
        let mac = infra.keys.ephid_mac_cipher();
        AccountabilityAgent {
            infra,
            directory,
            policy,
            enc,
            mac,
        }
    }

    /// Replaces the escalation policy (operator knob, §VIII-G2: "an AS can
    /// set a maximum number of EphIDs that can be preemptively revoked").
    pub fn set_policy(&mut self, policy: RevocationPolicy) {
        self.policy = policy;
    }

    /// Processes a shutoff request (all Fig. 5 checks). On success the
    /// source EphID is inserted into the shared revocation list and the
    /// order is returned for distribution to any further border routers.
    pub fn handle(
        &self,
        req: &ShutoffRequest,
        mode: ReplayMode,
        now: Timestamp,
    ) -> Result<ShutoffOutcome, Error> {
        // 1. verifyCert(C_EphIDd): signed by the *destination* AS, fresh.
        let dst_as_vk = self
            .directory
            .verifying_key(req.dst_cert.aid)
            .ok_or(Error::ShutoffRejected("unknown destination AS"))?;
        req.dst_cert
            .verify(&dst_as_vk, now)
            .map_err(|_| Error::ShutoffRejected("destination certificate"))?;

        // 2. verifySig(K⁺EphIDd, {pkt}): requester owns EphID_d.
        req.dst_cert
            .signing_public()?
            .verify(&req.packet, &req.signature)
            .map_err(|_| Error::ShutoffRejected("requester signature"))?;

        // 3. Authorization: the certified EphID must be the packet's
        //    destination — "only the recipient of a packet [may] initiate a
        //    shutoff request" (§IV-E).
        let (header, payload) = ApnaHeader::parse(&req.packet, mode)
            .map_err(|_| Error::ShutoffRejected("unparseable packet"))?;
        if header.dst.ephid != req.dst_cert.ephid || header.dst.aid != req.dst_cert.aid {
            return Err(Error::ShutoffRejected("requester is not the recipient"));
        }

        // 4. (HID_S, T) = D_kAS(EphID_s); freshness and validity.
        let plain = ephid::open_with(&self.enc, &self.mac, &header.src.ephid)
            .map_err(|_| Error::ShutoffRejected("source EphID not ours"))?;
        if plain.exp_time.expired_at(now) {
            return Err(Error::ShutoffRejected("source EphID expired"));
        }
        // The key lookup deliberately includes HID-revoked hosts: a resend
        // whose first attempt *escalated* to HID revocation must still be
        // verifiable, or the requester whose ack was lost can never
        // converge.
        let kha = self
            .infra
            .host_db
            .key_of(plain.hid)
            .ok_or(Error::ShutoffRejected("source host unknown"))?;

        // 5. The quoted packet must carry our customer's authentic mark —
        //    "the destination cannot make a shutoff request with a rogue
        //    packet" (§VI-C).
        if !kha
            .packet_cmac()
            .verify(&header.mac_input(payload), &header.mac)
        {
            return Err(Error::ShutoffRejected("packet not authenticated by source"));
        }

        // All checks passed. If the EphID is already revoked this is a
        // resend (the requester's ack was lost in transit) or a replay of
        // captured evidence: re-issue the identical order so loss-tolerant
        // clients converge — including the hid_revoked verdict if the
        // first attempt escalated — but do NOT advance the §VIII-G2 strike
        // counter: identical evidence cannot be replayed into an
        // escalating count of distinct incidents.
        let order = RevocationOrder::issue(&self.infra.keys, header.src.ephid, plain.exp_time);
        if self.infra.revoked.contains(&header.src.ephid) {
            return Ok(ShutoffOutcome {
                order,
                hid_revoked: !self.infra.host_db.is_valid(plain.hid),
            });
        }
        if !self.infra.host_db.is_valid(plain.hid) {
            // A *new* EphID of an HID-revoked host: nothing left to revoke
            // (egress already drops the whole HID).
            return Err(Error::ShutoffRejected("source host unknown"));
        }
        self.infra.revoked.insert(header.src.ephid, plain.exp_time);

        // §VIII-G2 escalation: too many revocations → revoke the HID.
        let count = self.infra.host_db.note_ephid_revocation(plain.hid);
        let hid_revoked = count >= self.policy.max_ephid_revocations_per_host;
        if hid_revoked {
            self.infra.host_db.revoke_hid(plain.hid);
        }
        // Durable *before* the ack: a crash after this point re-acks the
        // identical outcome from replayed state.
        self.infra
            .ctrl_log
            .append(&crate::ctrl_log::Record::EphIdRevoked {
                ephid: header.src.ephid,
                exp_time: plain.exp_time,
                hid: plain.hid,
                hid_revoked,
            });

        Ok(ShutoffOutcome { order, hid_revoked })
    }

    /// Host-initiated *preemptive* revocation of the host's own EphID
    /// (§VIII-G2: "a host could revoke an EphID that is no longer
    /// needed"). The host proves ownership by signing the EphID with the
    /// bound key; `cert` provides the binding.
    pub fn preemptive_revoke(
        &self,
        cert: &EphIdCert,
        owner_sig: &Signature,
        now: Timestamp,
    ) -> Result<ShutoffOutcome, Error> {
        if cert.aid != self.infra.aid {
            return Err(Error::ShutoffRejected("not our EphID"));
        }
        cert.verify(&self.infra.keys.verifying_key(), now)
            .map_err(|_| Error::ShutoffRejected("certificate"))?;
        cert.signing_public()?
            .verify(cert.ephid.as_bytes(), owner_sig)
            .map_err(|_| Error::ShutoffRejected("owner signature"))?;
        let plain = ephid::open_with(&self.enc, &self.mac, &cert.ephid)
            .map_err(|_| Error::ShutoffRejected("EphID not ours"))?;
        if self.infra.revoked.contains(&cert.ephid) {
            return Err(Error::ShutoffRejected("source EphID already revoked"));
        }

        let order = RevocationOrder::issue(&self.infra.keys, cert.ephid, plain.exp_time);
        self.infra.revoked.insert(cert.ephid, plain.exp_time);
        let count = self.infra.host_db.note_ephid_revocation(plain.hid);
        let hid_revoked = count >= self.policy.max_ephid_revocations_per_host;
        if hid_revoked {
            self.infra.host_db.revoke_hid(plain.hid);
        }
        self.infra
            .ctrl_log
            .append(&crate::ctrl_log::Record::EphIdRevoked {
                ephid: cert.ephid,
                exp_time: plain.exp_time,
                hid: plain.hid,
                hid_revoked,
            });
        Ok(ShutoffOutcome { order, hid_revoked })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asnode::AsNode;
    use crate::cert::CertKind;
    use crate::keys::HostAsKey;
    use crate::time::ExpiryClass;
    use apna_crypto::x25519::StaticSecret;
    use apna_wire::{Aid, HostAddr};
    use rand::SeedableRng;

    /// Two ASes, a sender in AS-A with a real EphID, and a receiver in AS-B
    /// with its own EphID + keys.
    struct World {
        a: AsNode,
        b: AsNode,
        src_kha: HostAsKey,
        src_ephid: EphIdBytes,
        src_hid: crate::hid::Hid,
        dst_keys: EphIdKeyPair,
        dst_cert: EphIdCert,
    }

    fn setup() -> World {
        let dir = AsDirectory::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let a = AsNode::new(Aid(1), &mut rng, &dir, Timestamp(0));
        let b = AsNode::new(Aid(2), &mut rng, &dir, Timestamp(0));

        let src_secret = StaticSecret::random_from_rng(&mut rng);
        let (src_hid, _) =
            a.rs.bootstrap(&src_secret.public_key(), Timestamp(0))
                .unwrap();
        let src_kha =
            HostAsKey::from_dh(&src_secret.diffie_hellman(&a.infra.keys.dh_public())).unwrap();
        let src_kp = EphIdKeyPair::from_seed([1; 32]);
        let (sp, dp) = src_kp.public_keys();
        let (src_ephid, _) = a.ms.issue(
            src_hid,
            sp,
            dp,
            CertKind::Data,
            ExpiryClass::Short,
            Timestamp(0),
        );

        let dst_secret = StaticSecret::random_from_rng(&mut rng);
        let (dst_hid, _) =
            b.rs.bootstrap(&dst_secret.public_key(), Timestamp(0))
                .unwrap();
        let dst_keys = EphIdKeyPair::from_seed([2; 32]);
        let (sp, dp) = dst_keys.public_keys();
        let (_, dst_cert) = b.ms.issue(
            dst_hid,
            sp,
            dp,
            CertKind::Data,
            ExpiryClass::Short,
            Timestamp(0),
        );

        World {
            a,
            b,
            src_kha,
            src_ephid,
            src_hid,
            dst_keys,
            dst_cert,
        }
    }

    /// An authentic unwanted packet from the AS-A host to the AS-B host.
    fn unwanted_packet(w: &World) -> Vec<u8> {
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(1), w.src_ephid),
            HostAddr::new(Aid(2), w.dst_cert.ephid),
        );
        let payload = b"flood";
        let mac: [u8; 8] = w
            .src_kha
            .packet_cmac()
            .mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn legitimate_shutoff_succeeds_and_revokes() {
        let w = setup();
        let pkt = unwanted_packet(&w);
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        let outcome =
            w.a.aa
                .handle(&req, ReplayMode::Disabled, Timestamp(5))
                .unwrap();
        assert!(!outcome.hid_revoked);
        assert!(w.a.infra.revoked.contains(&w.src_ephid));
        // BR now drops the sender's traffic (fate-sharing per EphID).
        let verdict =
            w.a.br
                .process_outgoing(&pkt, ReplayMode::Disabled, Timestamp(6));
        assert_eq!(
            verdict,
            crate::border::Verdict::Drop(crate::border::DropReason::Revoked)
        );
    }

    #[test]
    fn order_verifies_and_distributes() {
        let w = setup();
        let pkt = unwanted_packet(&w);
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        let outcome =
            w.a.aa
                .handle(&req, ReplayMode::Disabled, Timestamp(5))
                .unwrap();
        assert!(outcome.order.verify(&w.a.infra.keys));
        // Another AS's keys must reject the order.
        assert!(!outcome.order.verify(&w.b.infra.keys));
        // A border router applies a valid order.
        w.a.br.apply_revocation(&outcome.order).unwrap();
        // A forged order is refused.
        let mut forged = outcome.order.clone();
        forged.ephid = EphIdBytes([9; 16]);
        assert!(w.a.br.apply_revocation(&forged).is_err());
    }

    #[test]
    fn non_recipient_cannot_shut_off() {
        // A third party in AS-B observes the packet but owns a different
        // EphID: its cert does not match the packet's destination.
        let w = setup();
        let pkt = unwanted_packet(&w);
        let mallory_keys = EphIdKeyPair::from_seed([3; 32]);
        let (sp, dp) = mallory_keys.public_keys();
        let (_, mallory_cert) = w.b.ms.issue(
            w.b.infra.host_db.generate_hid(),
            sp,
            dp,
            CertKind::Data,
            ExpiryClass::Short,
            Timestamp(0),
        );
        let req = ShutoffRequest::create(&pkt, &mallory_keys, mallory_cert);
        assert_eq!(
            w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(5)),
            Err(Error::ShutoffRejected("requester is not the recipient"))
        );
        assert!(!w.a.infra.revoked.contains(&w.src_ephid));
    }

    #[test]
    fn rogue_packet_rejected() {
        // §VI-C: the destination fabricates a packet the source never sent.
        let w = setup();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(1), w.src_ephid),
            HostAddr::new(Aid(2), w.dst_cert.ephid),
        );
        header.set_mac([0xee; 8]); // forged MAC
        let mut pkt = header.serialize();
        pkt.extend_from_slice(b"never sent");
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        assert_eq!(
            w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(5)),
            Err(Error::ShutoffRejected("packet not authenticated by source"))
        );
    }

    #[test]
    fn stolen_cert_without_key_rejected() {
        // Mallory presents the victim's certificate but cannot sign.
        let w = setup();
        let pkt = unwanted_packet(&w);
        let mallory_keys = EphIdKeyPair::from_seed([4; 32]);
        let req = ShutoffRequest::create(&pkt, &mallory_keys, w.dst_cert.clone());
        assert_eq!(
            w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(5)),
            Err(Error::ShutoffRejected("requester signature"))
        );
    }

    #[test]
    fn expired_cert_rejected() {
        let w = setup();
        let pkt = unwanted_packet(&w);
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        // Certs issued with Short class at t=0 expire at t=900.
        assert_eq!(
            w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(10_000)),
            Err(Error::ShutoffRejected("destination certificate"))
        );
    }

    #[test]
    fn foreign_source_ephid_rejected() {
        // The packet's source EphID was not issued by this AA's AS.
        let w = setup();
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(1), EphIdBytes([0x42; 16])), // not a real EphID of AS-A
            HostAddr::new(Aid(2), w.dst_cert.ephid),
        );
        header.set_mac([0; 8]);
        let mut pkt = header.serialize();
        pkt.extend_from_slice(b"x");
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        assert_eq!(
            w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(5)),
            Err(Error::ShutoffRejected("source EphID not ours"))
        );
    }

    #[test]
    fn escalation_revokes_hid_after_policy_limit() {
        let w = setup();
        // Default policy: 6 strikes. Issue and shut off 6 EphIDs.
        for i in 0..6u8 {
            let kp = EphIdKeyPair::from_seed([100 + i; 32]);
            let (sp, dp) = kp.public_keys();
            let (eid, _) = w.a.ms.issue(
                w.src_hid,
                sp,
                dp,
                CertKind::Data,
                ExpiryClass::Short,
                Timestamp(0),
            );
            let mut header = ApnaHeader::new(
                HostAddr::new(Aid(1), eid),
                HostAddr::new(Aid(2), w.dst_cert.ephid),
            );
            let payload = b"spam";
            let mac: [u8; 8] = w
                .src_kha
                .packet_cmac()
                .mac_truncated(&header.mac_input(payload));
            header.set_mac(mac);
            let mut pkt = header.serialize();
            pkt.extend_from_slice(payload);
            let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
            let outcome =
                w.a.aa
                    .handle(&req, ReplayMode::Disabled, Timestamp(5))
                    .unwrap();
            assert_eq!(outcome.hid_revoked, i == 5, "strike {}", i + 1);
        }
        assert!(!w.a.infra.host_db.is_valid(w.src_hid));
    }

    #[test]
    fn resend_after_hid_escalation_still_converges() {
        // The 6th strike revokes the HID. If that ack is lost, the resend
        // must still re-ack (with the escalation verdict) — not fail with
        // "source host unknown" because the HID is now revoked.
        let w = setup();
        let mut last_req = None;
        for i in 0..6u8 {
            let kp = EphIdKeyPair::from_seed([100 + i; 32]);
            let (sp, dp) = kp.public_keys();
            let (eid, _) = w.a.ms.issue(
                w.src_hid,
                sp,
                dp,
                CertKind::Data,
                ExpiryClass::Short,
                Timestamp(0),
            );
            let mut header = ApnaHeader::new(
                HostAddr::new(Aid(1), eid),
                HostAddr::new(Aid(2), w.dst_cert.ephid),
            );
            let payload = b"spam";
            let mac: [u8; 8] = w
                .src_kha
                .packet_cmac()
                .mac_truncated(&header.mac_input(payload));
            header.set_mac(mac);
            let mut pkt = header.serialize();
            pkt.extend_from_slice(payload);
            let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
            let outcome =
                w.a.aa
                    .handle(&req, ReplayMode::Disabled, Timestamp(5))
                    .unwrap();
            assert_eq!(outcome.hid_revoked, i == 5);
            last_req = Some((req, outcome));
        }
        assert!(!w.a.infra.host_db.is_valid(w.src_hid));
        let (req, first) = last_req.unwrap();
        let again =
            w.a.aa
                .handle(&req, ReplayMode::Disabled, Timestamp(6))
                .unwrap();
        assert_eq!(again.order, first.order);
        assert!(again.hid_revoked, "the escalation verdict is re-acked");
        // Still no extra strike.
        assert_eq!(w.a.infra.host_db.revocation_count(w.src_hid), 6);
    }

    #[test]
    fn preemptive_revocation_by_owner() {
        let w = setup();
        let src_kp = EphIdKeyPair::from_seed([1; 32]);
        let (sp, dp) = src_kp.public_keys();
        let (eid, cert) = w.a.ms.issue(
            w.src_hid,
            sp,
            dp,
            CertKind::Data,
            ExpiryClass::Short,
            Timestamp(0),
        );
        let sig = src_kp.sign().sign(eid.as_bytes());
        w.a.aa.preemptive_revoke(&cert, &sig, Timestamp(1)).unwrap();
        assert!(w.a.infra.revoked.contains(&eid));
        // A non-owner cannot preemptively revoke.
        let mallory = EphIdKeyPair::from_seed([7; 32]);
        let sig2 = mallory.sign().sign(eid.as_bytes());
        assert!(w
            .a
            .aa
            .preemptive_revoke(&cert, &sig2, Timestamp(1))
            .is_err());
    }

    #[test]
    fn request_serialization_roundtrip() {
        let w = setup();
        let pkt = unwanted_packet(&w);
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        let parsed = ShutoffRequest::parse(&req.serialize()).unwrap();
        assert_eq!(parsed.packet, req.packet);
        assert_eq!(parsed.signature, req.signature);
        assert_eq!(parsed.dst_cert, req.dst_cert);
        assert!(ShutoffRequest::parse(&[0; 3]).is_err());
        assert!(ShutoffRequest::parse(&req.serialize()[..50]).is_err());
    }

    #[test]
    fn order_serialization_roundtrip() {
        let w = setup();
        let order = RevocationOrder::issue(&w.a.infra.keys, w.src_ephid, Timestamp(900));
        let parsed = RevocationOrder::parse(&order.serialize()).unwrap();
        assert_eq!(parsed, order);
        assert!(parsed.verify(&w.a.infra.keys));
        assert!(RevocationOrder::parse(&order.serialize()[..20]).is_err());
        let mut long = order.serialize();
        long.push(0);
        assert!(RevocationOrder::parse(&long).is_err());
    }

    #[test]
    fn replayed_shutoff_reacked_idempotently_without_escalation() {
        let w = setup();
        let pkt = unwanted_packet(&w);
        let req = ShutoffRequest::create(&pkt, &w.dst_keys, w.dst_cert.clone());
        let first =
            w.a.aa
                .handle(&req, ReplayMode::Disabled, Timestamp(5))
                .unwrap();
        assert_eq!(w.a.infra.host_db.revocation_count(w.src_hid), 1);
        // Same evidence again (a loss-tolerant client resending after its
        // ack was lost, or a byte-identical adversarial replay): the AA
        // re-issues the identical order so the requester converges, but
        // identical evidence cannot advance the §VIII-G2 strike counter
        // toward HID revocation.
        let replay = ShutoffRequest::parse(&req.serialize()).unwrap();
        let again =
            w.a.aa
                .handle(&replay, ReplayMode::Disabled, Timestamp(6))
                .unwrap();
        assert_eq!(again.order, first.order);
        assert!(!again.hid_revoked);
        assert_eq!(
            w.a.infra.host_db.revocation_count(w.src_hid),
            1,
            "no strike escalation"
        );
        assert!(w.a.infra.host_db.is_valid(w.src_hid));
    }
}
