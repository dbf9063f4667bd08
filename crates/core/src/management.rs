//! The EphID Management Service (Fig. 3, §IV-C, §V-A).
//!
//! Hosts request data-plane EphIDs over an encrypted channel keyed with
//! `k_HA^enc`. Encryption matters for *sender-flow unlinkability*: if EphID
//! requests were cleartext, an observer inside the AS could pair the
//! ephemeral public key in the request with the same key appearing later in
//! a connection-establishment message, linking all of a host's flows at the
//! level of its control EphID (§IV-C).
//!
//! The MS validates the request (control EphID unexpired, HID valid,
//! decryption succeeds — the three checks of Fig. 3), generates the EphID,
//! signs the short-lived certificate, and returns it encrypted.
//!
//! Performance (§V-A3 / experiment E1): EphID issuance must outpace the
//! AS-wide peak flow arrival rate. The hot path keeps pre-expanded AES key
//! schedules and signs with Ed25519 — the same recipe as the prototype
//! (AES-NI + ed25519 REF10), minus the hardware AES.

use crate::asnode::AsInfra;
use crate::cert::{CertKind, EphIdCert};
use crate::ephid::{self, EphIdPlain};
use crate::hid::Hid;
use crate::time::{ExpiryClass, Timestamp};
use crate::Error;
use apna_crypto::aes::Aes128;
use apna_wire::{EphIdBytes, WireError, EPHID_LEN};
use std::sync::Arc;

/// The top bit of the first nonce byte tells the two directions apart:
/// hosts send requests with it clear, and the MS seals its reply under the
/// request nonce with it set, so a reply nonce never repeats a request
/// nonce under the same `k_HA`.
const REPLY_NONCE_BIT: u8 = 0x80;

/// Body of an EphID request, sealed under `k_HA^enc` on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EphIdRequestBody {
    /// Ed25519 public half of the host-generated key pair.
    pub sign_pub: [u8; 32],
    /// X25519 public half.
    pub dh_pub: [u8; 32],
    /// Requested certificate kind (data or receive-only; control and
    /// service kinds are issued only by the AS itself).
    pub kind: CertKind,
    /// Requested expiry class (§VIII-G1 extension).
    pub class: ExpiryClass,
}

impl EphIdRequestBody {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(66);
        out.extend_from_slice(&self.sign_pub);
        out.extend_from_slice(&self.dh_pub);
        out.push(self.kind as u8);
        out.push(self.class.to_byte());
        out
    }

    fn parse(buf: &[u8]) -> Result<EphIdRequestBody, WireError> {
        if buf.len() < 66 {
            return Err(WireError::Truncated);
        }
        let kind = match buf[64] {
            0 => CertKind::Data,
            3 => CertKind::ReceiveOnly,
            _ => {
                return Err(WireError::BadField {
                    field: "request kind",
                })
            }
        };
        Ok(EphIdRequestBody {
            sign_pub: apna_wire::read_arr(buf, 0)?,
            dh_pub: apna_wire::read_arr(buf, 32)?,
            kind,
            class: ExpiryClass::from_byte(buf[65]),
        })
    }
}

/// Minimum length of a sealed AEAD blob: the 16-byte GCM tag alone.
const MIN_SEALED_LEN: usize = 16;

/// An encrypted EphID request as it crosses the AS-internal network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EphIdRequest {
    /// The requester's control EphID (source identifier of the request).
    pub ctrl_ephid: EphIdBytes,
    /// AEAD nonce chosen by the host (must be unique per `k_HA^enc`).
    pub nonce: [u8; 12],
    /// `AES-GCM(k_HA^enc, nonce, aad = ctrl_ephid, body)`.
    pub sealed: Vec<u8>,
}

impl EphIdRequest {
    /// Serializes: `ctrl_ephid ‖ nonce ‖ sealed`.
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(EPHID_LEN + 12 + self.sealed.len());
        out.extend_from_slice(self.ctrl_ephid.as_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parses the serialized form. Like the other wire parsers, the guard
    /// covers the full minimum message: a sealed body can never be shorter
    /// than its AEAD tag, so anything shorter is rejected as truncated
    /// instead of surfacing later as a decryption failure.
    pub fn parse(buf: &[u8]) -> Result<EphIdRequest, WireError> {
        if buf.len() < EPHID_LEN + 12 + MIN_SEALED_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EphIdRequest {
            ctrl_ephid: EphIdBytes::from_slice(&buf[..EPHID_LEN])?,
            nonce: apna_wire::read_arr(buf, EPHID_LEN)?,
            sealed: buf[EPHID_LEN + 12..].to_vec(),
        })
    }
}

/// The encrypted reply: a sealed certificate. "The certificate is encrypted
/// so that an adversary cannot relate different EphIDs to the control EphID
/// of the requesting host" (§IV-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EphIdReply {
    /// AEAD nonce (distinct from the request nonce).
    pub nonce: [u8; 12],
    /// `AES-GCM(k_HA^enc, nonce, aad = ctrl_ephid, cert_bytes)`.
    pub sealed: Vec<u8>,
}

impl EphIdReply {
    /// Serializes: `nonce ‖ sealed`.
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.sealed.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.sealed);
        out
    }

    /// Parses the serialized form (same minimum-length guard as
    /// [`EphIdRequest::parse`]).
    pub fn parse(buf: &[u8]) -> Result<EphIdReply, WireError> {
        if buf.len() < 12 + MIN_SEALED_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EphIdReply {
            nonce: apna_wire::read_arr(buf, 0)?,
            sealed: buf[12..].to_vec(),
        })
    }
}

/// Why the MS refused a request. Most variants are silent on the wire
/// ("If any one of the checks fails, the request is dropped", §IV-C);
/// [`MsDrop::RateLimited`] is the exception — admission control answers
/// with a typed `EphIdBusy` so well-behaved hosts back off instead of
/// retrying into the limiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsDrop {
    /// Control EphID failed its MAC (forged / foreign).
    BadEphId,
    /// Control EphID expired.
    Expired,
    /// HID unknown or revoked.
    InvalidHost,
    /// Request decryption failed.
    Undecryptable,
    /// Request body malformed.
    Malformed,
    /// Per-host issuance token bucket empty (admission control).
    RateLimited {
        /// Whole seconds until a token will have accrued.
        retry_after_secs: u32,
    },
}

/// The Management Service of one AS.
pub struct ManagementService {
    infra: Arc<AsInfra>,
    /// Pre-expanded `k_A'` (EphID encryption).
    enc: Aes128,
    /// Pre-expanded `k_A''` (EphID CBC-MAC).
    mac: Aes128,
}

impl ManagementService {
    pub(crate) fn new(infra: Arc<AsInfra>) -> ManagementService {
        let enc = infra.keys.ephid_enc_cipher();
        let mac = infra.keys.ephid_mac_cipher();
        ManagementService { infra, enc, mac }
    }

    /// The issuance core: generates an EphID for `hid` and signs its
    /// certificate. This is the E1 benchmark path.
    #[must_use]
    pub fn issue(
        &self,
        hid: Hid,
        sign_pub: [u8; 32],
        dh_pub: [u8; 32],
        kind: CertKind,
        class: ExpiryClass,
        now: Timestamp,
    ) -> (EphIdBytes, EphIdCert) {
        let exp = now.add_secs(class.lifetime_secs());
        // IVs come through the control log's write-ahead reservation so a
        // restarted AS can never reuse one (no-op when no log attached).
        let eid = ephid::seal_with(
            &self.enc,
            &self.mac,
            EphIdPlain { hid, exp_time: exp },
            self.infra.ctrl_log.next_iv(&self.infra.iv_alloc),
        );
        let cert = EphIdCert::issue(
            &self.infra.keys.signing,
            eid,
            exp,
            sign_pub,
            dh_pub,
            self.infra.aid,
            self.infra.aa_ephid,
            kind,
        );
        (eid, cert)
    }

    /// Full Fig. 3 request handling. Returns the encrypted reply, or the
    /// reason the request was (silently, on the wire) dropped — except
    /// [`MsDrop::RateLimited`], which the control plane answers with a
    /// typed `EphIdBusy`.
    pub fn handle_request(&self, req: &EphIdRequest, now: Timestamp) -> Result<EphIdReply, MsDrop> {
        // (HID, T1) = D_kA(EphID_ctrl); abort on forgery.
        let plain = ephid::open_with(&self.enc, &self.mac, &req.ctrl_ephid)
            .map_err(|_| MsDrop::BadEphId)?;
        self.finish_request(req, plain, now)
    }

    /// The Fig. 3 checks after the control EphID has been opened — shared
    /// between the scalar and the batched entry points.
    fn finish_request(
        &self,
        req: &EphIdRequest,
        plain: EphIdPlain,
        now: Timestamp,
    ) -> Result<EphIdReply, MsDrop> {
        // Check 1: T1 not expired.
        if plain.exp_time.expired_at(now) {
            return Err(MsDrop::Expired);
        }
        // Check 2: HID valid (registered, not revoked) — and fetch k_HA.
        let kha = self
            .infra
            .host_db
            .key_of_valid(plain.hid)
            .ok_or(MsDrop::InvalidHost)?;
        // Admission control: one token per issuance, checked before the
        // expensive AEAD/sign work so a flash crowd is shed cheaply.
        self.infra
            .host_db
            .take_issuance_token(plain.hid, now)
            .map_err(|retry_after_secs| MsDrop::RateLimited { retry_after_secs })?;
        // Check 3: the message decrypts under k_HA.
        let aead = kha.aead();
        let body_bytes = aead
            .open(&req.nonce, req.ctrl_ephid.as_bytes(), &req.sealed)
            .map_err(|_| MsDrop::Undecryptable)?;
        let body = EphIdRequestBody::parse(&body_bytes).map_err(|_| MsDrop::Malformed)?;

        let (_eid, cert) = self.issue(
            plain.hid,
            body.sign_pub,
            body.dh_pub,
            body.kind,
            body.class,
            now,
        );

        // Seal the certificate back to the host under the request nonce
        // with the reply bit set.
        let mut reply_nonce = req.nonce;
        reply_nonce[0] |= REPLY_NONCE_BIT;
        let sealed = aead.seal(&reply_nonce, req.ctrl_ephid.as_bytes(), &cert.serialize());
        Ok(EphIdReply {
            nonce: reply_nonce,
            sealed,
        })
    }

    /// Batched issuance: handles a burst of requests with the control
    /// EphIDs of the whole burst opened in two batched cipher sweeps
    /// ([`ephid::open_many_with`]) instead of two AES calls each. Every
    /// result is positionally aligned with `requests` and byte-identical
    /// to what [`ManagementService::handle_request`] returns for that
    /// request — batching changes throughput, never outcomes.
    pub fn handle_request_batch(
        &self,
        requests: &[&EphIdRequest],
        now: Timestamp,
    ) -> Vec<Result<EphIdReply, MsDrop>> {
        let ctrl_ids: Vec<_> = requests.iter().map(|r| r.ctrl_ephid).collect();
        let opened = ephid::open_many_with(&self.enc, &self.mac, &ctrl_ids);
        requests
            .iter()
            .zip(opened)
            .map(|(req, plain)| match plain {
                Err(_) => Err(MsDrop::BadEphId),
                Ok(plain) => self.finish_request(req, plain, now),
            })
            .collect()
    }
}

/// Host-side request construction + reply handling (the other half of
/// Fig. 3). Free functions so `Host` and the gateway AP can share them.
pub mod client {
    use super::*;
    use crate::control::ControlMsg;
    use crate::keys::{EphIdKeyPair, HostAsKey};

    /// Builds an encrypted EphID request. The host must ensure `nonce`
    /// uniqueness under its `k_HA` (a counter works; hosts in this repo use
    /// a random 12-byte nonce from their RNG).
    #[must_use]
    pub fn build_request(
        kha: &HostAsKey,
        ctrl_ephid: EphIdBytes,
        keypair: &EphIdKeyPair,
        kind: CertKind,
        class: ExpiryClass,
        nonce: [u8; 12],
    ) -> EphIdRequest {
        let (sign_pub, dh_pub) = keypair.public_keys();
        build_request_raw(kha, ctrl_ephid, sign_pub, dh_pub, kind, class, nonce)
    }

    /// [`build_request`] with raw public keys. This is the NAT-mode AP path
    /// of §VII-B: "when requesting an EphID to the MS of the AS, the AP
    /// uses an ephemeral public key that is supplied by its host" — the AP
    /// never holds the client's private keys.
    #[must_use]
    pub fn build_request_raw(
        kha: &HostAsKey,
        ctrl_ephid: EphIdBytes,
        sign_pub: [u8; 32],
        dh_pub: [u8; 32],
        kind: CertKind,
        class: ExpiryClass,
        nonce: [u8; 12],
    ) -> EphIdRequest {
        let mut nonce = nonce;
        nonce[0] &= !REPLY_NONCE_BIT;
        let body = EphIdRequestBody {
            sign_pub,
            dh_pub,
            kind,
            class,
        };
        let sealed = kha
            .aead()
            .seal(&nonce, ctrl_ephid.as_bytes(), &body.serialize());
        EphIdRequest {
            ctrl_ephid,
            nonce,
            sealed,
        }
    }

    /// The nonce of the request an issuance reply answers: an
    /// [`EphIdReply`] carries it with the reply bit set, an `EphIdBusy`
    /// echoes it verbatim. `None` for every other kind.
    #[must_use]
    pub fn request_nonce(reply: &ControlMsg) -> Option<[u8; 12]> {
        match reply {
            ControlMsg::EphIdReply(r) => {
                let mut nonce = r.nonce;
                nonce[0] &= !REPLY_NONCE_BIT;
                Some(nonce)
            }
            ControlMsg::EphIdBusy(b) => Some(b.nonce),
            ControlMsg::EphIdRequest(_)
            | ControlMsg::RevocationAnnounce(_)
            | ControlMsg::ShutoffRequest(_)
            | ControlMsg::ShutoffAck(_)
            | ControlMsg::DnsRegister(_)
            | ControlMsg::DnsUpdate(_)
            | ControlMsg::DnsAck { .. } => None,
        }
    }

    /// Decrypts and validates an MS reply against raw expected public keys
    /// (the AP-side counterpart of [`build_request_raw`]).
    pub fn accept_reply_raw(
        kha: &HostAsKey,
        ctrl_ephid: EphIdBytes,
        expected_sign_pub: &[u8; 32],
        expected_dh_pub: &[u8; 32],
        as_vk: &apna_crypto::ed25519::VerifyingKey,
        reply: &EphIdReply,
        now: Timestamp,
    ) -> Result<EphIdCert, Error> {
        let bytes = kha
            .aead()
            .open(&reply.nonce, ctrl_ephid.as_bytes(), &reply.sealed)?;
        let cert = EphIdCert::parse(&bytes)?;
        cert.verify(as_vk, now)?;
        if &cert.sign_pub != expected_sign_pub || &cert.dh_pub != expected_dh_pub {
            return Err(Error::BadCertificate("certified keys mismatch"));
        }
        Ok(cert)
    }

    /// Decrypts and validates an MS reply; returns the certificate after
    /// checking it really certifies the keys from `keypair` and carries the
    /// AS's signature.
    pub fn accept_reply(
        kha: &HostAsKey,
        ctrl_ephid: EphIdBytes,
        keypair: &EphIdKeyPair,
        as_vk: &apna_crypto::ed25519::VerifyingKey,
        reply: &EphIdReply,
        now: Timestamp,
    ) -> Result<EphIdCert, Error> {
        let (sign_pub, dh_pub) = keypair.public_keys();
        accept_reply_raw(kha, ctrl_ephid, &sign_pub, &dh_pub, as_vk, reply, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asnode::AsNode;
    use crate::directory::AsDirectory;
    use crate::keys::EphIdKeyPair;
    use apna_crypto::x25519::StaticSecret;
    use apna_wire::Aid;
    use rand::SeedableRng;

    struct Fixture {
        node: AsNode,
        kha: crate::keys::HostAsKey,
        ctrl: EphIdBytes,
        hid: Hid,
    }

    fn setup() -> Fixture {
        let dir = AsDirectory::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let node = AsNode::new(Aid(1), &mut rng, &dir, Timestamp(0));
        let host = StaticSecret::random_from_rng(&mut rng);
        let (hid, _reply) = node.rs.bootstrap(&host.public_key(), Timestamp(0)).unwrap();
        let kha =
            crate::keys::HostAsKey::from_dh(&host.diffie_hellman(&node.infra.keys.dh_public()))
                .unwrap();
        let ctrl = _reply.id_info.ctrl_ephid;
        Fixture {
            node,
            kha,
            ctrl,
            hid,
        }
    }

    fn request(f: &Fixture, nonce_tag: u8) -> (EphIdKeyPair, EphIdRequest) {
        let kp = EphIdKeyPair::from_seed([nonce_tag; 32]);
        let req = client::build_request(
            &f.kha,
            f.ctrl,
            &kp,
            CertKind::Data,
            ExpiryClass::Short,
            [nonce_tag; 12],
        );
        (kp, req)
    }

    #[test]
    fn full_issuance_roundtrip() {
        let f = setup();
        let (kp, req) = request(&f, 1);
        let reply = f.node.ms.handle_request(&req, Timestamp(10)).unwrap();
        let cert = client::accept_reply(
            &f.kha,
            f.ctrl,
            &kp,
            &f.node.infra.keys.verifying_key(),
            &reply,
            Timestamp(10),
        )
        .unwrap();
        // The certified EphID decrypts to our HID with the Short lifetime.
        let plain = ephid::open(&f.node.infra.keys, &cert.ephid).unwrap();
        assert_eq!(plain.hid, f.hid);
        assert_eq!(plain.exp_time, Timestamp(10 + 900));
        assert_eq!(cert.exp_time, plain.exp_time);
        assert_eq!(cert.aid, Aid(1));
        assert_eq!(cert.aa_ephid, f.node.infra.aa_ephid);
    }

    #[test]
    fn expired_ctrl_ephid_dropped() {
        let f = setup();
        let (_, req) = request(&f, 2);
        // Control EphIDs live 24h; jump past that.
        let later = Timestamp(24 * 3600 + 1);
        assert_eq!(f.node.ms.handle_request(&req, later), Err(MsDrop::Expired));
    }

    #[test]
    fn forged_ctrl_ephid_dropped() {
        let f = setup();
        let (_, mut req) = request(&f, 3);
        let mut forged = *req.ctrl_ephid.as_bytes();
        forged[0] ^= 1;
        req.ctrl_ephid = EphIdBytes(forged);
        assert_eq!(
            f.node.ms.handle_request(&req, Timestamp(0)),
            Err(MsDrop::BadEphId)
        );
    }

    #[test]
    fn revoked_host_dropped() {
        let f = setup();
        let (_, req) = request(&f, 4);
        f.node.infra.host_db.revoke_hid(f.hid);
        assert_eq!(
            f.node.ms.handle_request(&req, Timestamp(0)),
            Err(MsDrop::InvalidHost)
        );
    }

    #[test]
    fn wrong_key_request_dropped() {
        // An adversary who observed a valid control EphID (shared-medium
        // sniffing, §VI-A) still cannot request EphIDs without k_HA.
        let f = setup();
        let kp = EphIdKeyPair::from_seed([5; 32]);
        let wrong_kha =
            crate::keys::HostAsKey::from_dh(&apna_crypto::x25519::SharedSecret([0x5a; 32]))
                .unwrap();
        let req = client::build_request(
            &wrong_kha,
            f.ctrl,
            &kp,
            CertKind::Data,
            ExpiryClass::Short,
            [5; 12],
        );
        assert_eq!(
            f.node.ms.handle_request(&req, Timestamp(0)),
            Err(MsDrop::Undecryptable)
        );
    }

    #[test]
    fn tampered_request_dropped() {
        let f = setup();
        let (_, mut req) = request(&f, 6);
        let last = req.sealed.len() - 1;
        req.sealed[last] ^= 1;
        assert_eq!(
            f.node.ms.handle_request(&req, Timestamp(0)),
            Err(MsDrop::Undecryptable)
        );
    }

    #[test]
    fn reply_tamper_detected_by_host() {
        let f = setup();
        let (kp, req) = request(&f, 7);
        let mut reply = f.node.ms.handle_request(&req, Timestamp(0)).unwrap();
        reply.sealed[0] ^= 1;
        assert!(client::accept_reply(
            &f.kha,
            f.ctrl,
            &kp,
            &f.node.infra.keys.verifying_key(),
            &reply,
            Timestamp(0),
        )
        .is_err());
    }

    #[test]
    fn receive_only_kind_honored() {
        let f = setup();
        let kp = EphIdKeyPair::from_seed([8; 32]);
        let req = client::build_request(
            &f.kha,
            f.ctrl,
            &kp,
            CertKind::ReceiveOnly,
            ExpiryClass::Long,
            [8; 12],
        );
        let reply = f.node.ms.handle_request(&req, Timestamp(0)).unwrap();
        let cert = client::accept_reply(
            &f.kha,
            f.ctrl,
            &kp,
            &f.node.infra.keys.verifying_key(),
            &reply,
            Timestamp(0),
        )
        .unwrap();
        assert_eq!(cert.kind, CertKind::ReceiveOnly);
        assert_eq!(cert.exp_time, Timestamp(86400));
    }

    #[test]
    fn request_serialization_roundtrip() {
        let f = setup();
        let (_, req) = request(&f, 9);
        let parsed = EphIdRequest::parse(&req.serialize()).unwrap();
        assert_eq!(parsed.ctrl_ephid, req.ctrl_ephid);
        assert_eq!(parsed.nonce, req.nonce);
        assert_eq!(parsed.sealed, req.sealed);
        assert!(EphIdRequest::parse(&[0u8; 10]).is_err());
        // Guard: a "request" whose sealed part cannot even hold the AEAD
        // tag is truncated, consistent with the other wire parsers.
        assert_eq!(
            EphIdRequest::parse(&[0u8; EPHID_LEN + 12 + 15]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn reply_serialization_roundtrip() {
        let f = setup();
        let (_, req) = request(&f, 10);
        let reply = f.node.ms.handle_request(&req, Timestamp(0)).unwrap();
        let parsed = EphIdReply::parse(&reply.serialize()).unwrap();
        assert_eq!(parsed, reply);
        assert_eq!(EphIdReply::parse(&[0u8; 12]), Err(WireError::Truncated));
    }

    /// `client::request_nonce` inverts the MS's own reply nonce, for a
    /// request whose first nonce byte the client had to clear, and reads a
    /// busy pushback's echo verbatim.
    #[test]
    fn request_nonce_pairs_replies_the_service_built() {
        use crate::control::{ControlMsg, ControlPlane};
        use crate::hostinfo::IssuancePolicy;
        let f = setup();
        let (_, req) = request(&f, 0xC3);
        assert_eq!(req.nonce[0], 0x43);
        let reply = f.node.ms.handle_request(&req, Timestamp(0)).unwrap();
        assert_ne!(reply.nonce, req.nonce);
        let reply = ControlMsg::EphIdReply(reply);
        assert_eq!(client::request_nonce(&reply), Some(req.nonce));

        let policy = IssuancePolicy {
            burst: 0,
            per_sec: 1,
        };
        f.node.infra.host_db.set_issuance_policy(Some(policy));
        let (_, req) = request(&f, 0x5A);
        let busy = f
            .node
            .handle_control(&ControlMsg::EphIdRequest(req.clone()), Timestamp(0))
            .unwrap()
            .unwrap();
        assert!(matches!(busy, ControlMsg::EphIdBusy(_)), "{busy:?}");
        assert_eq!(client::request_nonce(&busy), Some(req.nonce));
        assert_eq!(client::request_nonce(&ControlMsg::EphIdRequest(req)), None);
    }

    #[test]
    fn host_cannot_request_control_or_service_kinds() {
        // Body parser only admits Data / ReceiveOnly.
        let body = EphIdRequestBody {
            sign_pub: [1; 32],
            dh_pub: [2; 32],
            kind: CertKind::Data,
            class: ExpiryClass::Short,
        };
        let mut bytes = body.serialize();
        bytes[64] = CertKind::Service as u8;
        assert!(EphIdRequestBody::parse(&bytes).is_err());
        bytes[64] = CertKind::Control as u8;
        assert!(EphIdRequestBody::parse(&bytes).is_err());
    }
}
