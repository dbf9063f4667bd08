//! # apna-dns
//!
//! The DNS substrate of §VII-A: public services publish a **receive-only
//! EphID** certificate under their domain name; clients resolve the name,
//! verify the record, and connect using the client–server establishment of
//! `apna_core::session`.
//!
//! Receive-only EphIDs exist because a published EphID would otherwise be a
//! standing shutoff target: "a shutoff request against a published EphID
//! would terminate any ongoing communication sessions". Since receive-only
//! EphIDs are never used as a *source*, no packet exists that could
//! evidence a shutoff request against them.
//!
//! The paper assumes DNSSEC for record authenticity; the stand-in here is
//! an Ed25519 zone key whose public half clients know out of band. Records
//! optionally carry the server's IPv4 address for the §VII-D gateway
//! deployment (and the gateway can synthesize one when operators remove it
//! for privacy).
//!
//! Queries themselves can be encrypted "just like any other data
//! communication" using the DNS service certificate from bootstrap —
//! [`encrypted`] implements that path, including the §VII-A caveat that a
//! host distrusting its AS should query a third-party DNS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apna_core::cert::{CertKind, EphIdCert};
use apna_core::control::{ControlMsg, ControlPlane};
use apna_core::directory::AsDirectory;
use apna_core::time::Timestamp;
use apna_core::Error;
use apna_crypto::ed25519::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::WireError;
use parking_lot::RwLock;
use std::collections::HashMap;

/// A signed DNS record binding a name to a receive-only EphID certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsRecord {
    /// The domain name.
    pub name: String,
    /// The service's receive-only certificate.
    pub cert: EphIdCert,
    /// Optional IPv4 address for the §VII-D gateway path. Operators may
    /// omit it; gateways then synthesize a private placeholder.
    pub ipv4: Option<Ipv4Addr>,
    /// Zone signature (DNSSEC stand-in).
    pub sig: Signature,
}

impl DnsRecord {
    fn signed_bytes(name: &str, cert: &EphIdCert, ipv4: Option<Ipv4Addr>) -> Vec<u8> {
        let mut msg = b"APNA-DNS-RECORD-V1".to_vec();
        msg.extend_from_slice(&(name.len() as u32).to_be_bytes());
        msg.extend_from_slice(name.as_bytes());
        msg.extend_from_slice(&cert.serialize());
        match ipv4 {
            Some(a) => {
                msg.push(1);
                msg.extend_from_slice(&a.0);
            }
            None => msg.push(0),
        }
        msg
    }

    /// Client-side verification: the zone signature *and* the embedded
    /// certificate (AS signature + expiry). A poisoned record fails here.
    pub fn verify(
        &self,
        zone_key: &VerifyingKey,
        directory: &AsDirectory,
        now: Timestamp,
    ) -> Result<(), Error> {
        zone_key
            .verify(
                &Self::signed_bytes(&self.name, &self.cert, self.ipv4),
                &self.sig,
            )
            .map_err(|_| Error::BadCertificate("zone signature"))?;
        apna_core::session::verify_peer_cert(&self.cert, directory, now)?;
        if self.cert.kind != CertKind::ReceiveOnly && self.cert.kind != CertKind::Service {
            return Err(Error::BadCertificate("published cert must be receive-only"));
        }
        Ok(())
    }

    /// Serializes the record (for transport inside encrypted queries).
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Self::signed_bytes(&self.name, &self.cert, self.ipv4);
        out.extend_from_slice(&self.sig.to_bytes());
        out
    }

    /// Parses a serialized record.
    pub fn parse(buf: &[u8]) -> Result<DnsRecord, WireError> {
        const PREFIX: usize = 18; // "APNA-DNS-RECORD-V1"
        if buf.len() < PREFIX + 4 {
            return Err(WireError::Truncated);
        }
        if &buf[..PREFIX] != b"APNA-DNS-RECORD-V1" {
            return Err(WireError::BadField { field: "dns magic" });
        }
        let name_len = u32::from_be_bytes(apna_wire::read_arr(buf, PREFIX)?) as usize;
        let mut off = PREFIX + 4;
        if buf.len() < off + name_len {
            return Err(WireError::Truncated);
        }
        let name = String::from_utf8(buf[off..off + name_len].to_vec())
            .map_err(|_| WireError::BadField { field: "dns name" })?;
        off += name_len;
        let cert = EphIdCert::parse(&buf[off..])?;
        off += apna_core::cert::CERT_LEN;
        if buf.len() < off + 1 {
            return Err(WireError::Truncated);
        }
        let ipv4 = match buf[off] {
            0 => {
                off += 1;
                None
            }
            1 => {
                if buf.len() < off + 5 {
                    return Err(WireError::Truncated);
                }
                let a = Ipv4Addr(apna_wire::read_arr(buf, off + 1)?);
                off += 5;
                Some(a)
            }
            _ => {
                return Err(WireError::BadField {
                    field: "dns ipv4 flag",
                })
            }
        };
        if buf.len() < off + SIGNATURE_LEN {
            return Err(WireError::Truncated);
        }
        let sig = Signature::from_bytes(&buf[off..off + SIGNATURE_LEN])
            .map_err(|_| WireError::Truncated)?;
        Ok(DnsRecord {
            name,
            cert,
            ipv4,
            sig,
        })
    }
}

/// A DNS server holding one signed zone.
pub struct DnsServer {
    zone_key: SigningKey,
    records: RwLock<HashMap<String, DnsRecord>>,
}

impl DnsServer {
    /// Creates a server with the given zone signing key.
    #[must_use]
    pub fn new(zone_key: SigningKey) -> DnsServer {
        DnsServer {
            zone_key,
            records: RwLock::new(HashMap::new()),
        }
    }

    /// The public zone key clients pin.
    #[must_use]
    pub fn zone_verifying_key(&self) -> VerifyingKey {
        self.zone_key.verifying_key()
    }

    /// Shared insert path: sign the record under the zone key and install
    /// it — registration and rotation differ only in intent.
    fn insert_signed(&self, name: &str, cert: EphIdCert, ipv4: Option<Ipv4Addr>) {
        let sig = self
            .zone_key
            .sign(&DnsRecord::signed_bytes(name, &cert, ipv4));
        self.records.write().insert(
            name.to_string(),
            DnsRecord {
                name: name.to_string(),
                cert,
                ipv4,
                sig,
            },
        );
    }

    /// Registers (task 2 of §VII-A: "registers the certificate under the
    /// domain name") a service's receive-only certificate.
    pub fn register(&self, name: &str, cert: EphIdCert, ipv4: Option<Ipv4Addr>) {
        self.insert_signed(name, cert, ipv4);
    }

    /// Re-publishes a name with a fresh certificate (EphID rotation).
    pub fn update(&self, name: &str, cert: EphIdCert, ipv4: Option<Ipv4Addr>) {
        self.insert_signed(name, cert, ipv4);
    }

    /// Resolves a name.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<DnsRecord> {
        self.records.read().get(name).cloned()
    }

    /// Adversarial hook: a malicious AS "can poison its local DNS servers
    /// with rogue entries" (§VII-A). Installs an unverified record so tests
    /// can demonstrate the client-side defense.
    pub fn poison(&self, record: DnsRecord) {
        self.records.write().insert(record.name.clone(), record);
    }

    /// Number of names in the zone.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.read().len()
    }

    /// `true` if the zone is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.read().is_empty()
    }
}

/// The DNS zone answers the register/update control kinds: a service host
/// publishes its receive-only certificate under a name (§VII-A task 2),
/// the zone signs and installs the record, and acknowledges. All other
/// control kinds belong to the AS node and are refused with a typed error.
///
/// Authorization — registration is wire-reachable, so the zone enforces:
///
/// * **Register**: the name must be free, and the upsert's owner signature
///   must verify under the published certificate's own key (proof of
///   possession — nobody can squat someone else's cert under a name).
/// * **Update**: the name must exist, and the owner signature must verify
///   under the *currently published* certificate's key (continuity — only
///   the present owner can rotate the name to a new cert).
///
/// The direct [`DnsServer::register`]/[`DnsServer::update`] methods remain
/// the zone operator's own console and bypass these checks.
impl ControlPlane for DnsServer {
    fn handle_control(
        &self,
        msg: &ControlMsg,
        _now: Timestamp,
    ) -> Result<Option<ControlMsg>, Error> {
        match msg {
            ControlMsg::DnsRegister(up) => {
                up.verify_owner(&up.cert)?;
                if let Some(current) = self.resolve(&up.name) {
                    // Identical re-publication: a loss-tolerant client
                    // resending after its ack was lost. Re-ack without
                    // mutating. A *different* cert is still a squat.
                    if current.cert == up.cert && current.ipv4 == up.ipv4 {
                        return Ok(Some(ControlMsg::DnsAck {
                            name: up.name.clone(),
                        }));
                    }
                    return Err(Error::ControlRejected(
                        "name already registered; rotation requires DnsUpdate",
                    ));
                }
                self.register(&up.name, up.cert.clone(), up.ipv4);
                Ok(Some(ControlMsg::DnsAck {
                    name: up.name.clone(),
                }))
            }
            ControlMsg::DnsUpdate(up) => {
                let current = self
                    .resolve(&up.name)
                    .ok_or(Error::ControlRejected("update for unregistered name"))?;
                // Idempotent resend: the rotation already applied (the ack
                // was lost); the continuity signature below could no longer
                // verify because the *old* cert is gone, so re-ack here.
                if current.cert == up.cert && current.ipv4 == up.ipv4 {
                    return Ok(Some(ControlMsg::DnsAck {
                        name: up.name.clone(),
                    }));
                }
                up.verify_owner(&current.cert)?;
                self.update(&up.name, up.cert.clone(), up.ipv4);
                Ok(Some(ControlMsg::DnsAck {
                    name: up.name.clone(),
                }))
            }
            ControlMsg::EphIdRequest(_)
            | ControlMsg::EphIdReply(_)
            | ControlMsg::EphIdBusy(_)
            | ControlMsg::RevocationAnnounce(_)
            | ControlMsg::ShutoffRequest(_)
            | ControlMsg::ShutoffAck(_)
            | ControlMsg::DnsAck { .. } => Err(Error::ControlRejected(
                "only DNS register/update is served by the zone",
            )),
        }
    }
}

/// Encrypted DNS transport (§VII-A "Protecting DNS Queries"): queries and
/// responses are sealed on a [`apna_core::session::SecureChannel`] built
/// against the DNS service certificate, so only the resolver sees the
/// queried name.
pub mod encrypted {
    use super::*;
    use apna_core::session::SecureChannel;

    /// Seals a query for `name`.
    pub fn seal_query(channel: &mut SecureChannel, name: &str) -> Vec<u8> {
        channel.seal(b"apna-dns-query", name.as_bytes())
    }

    /// Server side: opens a query, resolves it, seals the response
    /// (a serialized record, or empty for NXDOMAIN).
    pub fn handle_query(
        server: &DnsServer,
        channel: &mut SecureChannel,
        sealed_query: &[u8],
    ) -> Result<Vec<u8>, Error> {
        let name_bytes = channel.open(b"apna-dns-query", sealed_query)?;
        let name = String::from_utf8(name_bytes).map_err(|_| Error::Session("query name"))?;
        let body = match server.resolve(&name) {
            Some(rec) => rec.serialize(),
            None => Vec::new(),
        };
        Ok(channel.seal(b"apna-dns-response", &body))
    }

    /// Client side: opens the response. `Ok(None)` means NXDOMAIN.
    pub fn open_response(
        channel: &mut SecureChannel,
        sealed_response: &[u8],
    ) -> Result<Option<DnsRecord>, Error> {
        let body = channel.open(b"apna-dns-response", sealed_response)?;
        if body.is_empty() {
            return Ok(None);
        }
        Ok(Some(DnsRecord::parse(&body)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_core::asnode::AsNode;
    use apna_core::keys::EphIdKeyPair;
    use apna_core::session::{Role, SecureChannel};
    use apna_core::time::ExpiryClass;
    use apna_wire::Aid;

    struct Fixture {
        dir: AsDirectory,
        node: AsNode,
        server: DnsServer,
        service_keys: EphIdKeyPair,
        service_cert: EphIdCert,
    }

    fn setup() -> Fixture {
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(Aid(7), [7; 32], &dir, Timestamp(0));
        let server = DnsServer::new(SigningKey::from_seed(&[0xD5; 32]));
        let service_keys = EphIdKeyPair::from_seed([1; 32]);
        let (sp, dp) = service_keys.public_keys();
        let hid = node.infra.host_db.generate_hid();
        node.infra.host_db.register(
            hid,
            apna_core::keys::HostAsKey::from_dh(&apna_crypto::x25519::SharedSecret([9; 32]))
                .unwrap(),
            Timestamp(0),
        );
        let (_, service_cert) = node.ms.issue(
            hid,
            sp,
            dp,
            CertKind::ReceiveOnly,
            ExpiryClass::Long,
            Timestamp(0),
        );
        Fixture {
            dir,
            node,
            server,
            service_keys,
            service_cert,
        }
    }

    #[test]
    fn register_resolve_verify() {
        let f = setup();
        f.server
            .register("shop.example", f.service_cert.clone(), None);
        let rec = f.server.resolve("shop.example").unwrap();
        rec.verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1))
            .unwrap();
        assert_eq!(rec.cert, f.service_cert);
        assert!(f.server.resolve("missing.example").is_none());
    }

    #[test]
    fn record_with_ipv4_roundtrips() {
        let f = setup();
        let addr = Ipv4Addr::new(192, 0, 2, 80);
        f.server
            .register("web.example", f.service_cert.clone(), Some(addr));
        let rec = f.server.resolve("web.example").unwrap();
        assert_eq!(rec.ipv4, Some(addr));
        let parsed = DnsRecord::parse(&rec.serialize()).unwrap();
        assert_eq!(parsed, rec);
        parsed
            .verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1))
            .unwrap();
    }

    #[test]
    fn serialization_roundtrip_without_ipv4() {
        let f = setup();
        f.server.register("x.example", f.service_cert.clone(), None);
        let rec = f.server.resolve("x.example").unwrap();
        let parsed = DnsRecord::parse(&rec.serialize()).unwrap();
        assert_eq!(parsed, rec);
        assert!(DnsRecord::parse(&rec.serialize()[..20]).is_err());
        assert!(DnsRecord::parse(b"garbage-not-a-record----").is_err());
    }

    #[test]
    fn poisoned_record_rejected_by_zone_signature() {
        // The malicious AS injects a record signed by its own key.
        let f = setup();
        let mallory_zone = SigningKey::from_seed(&[0x66; 32]);
        let sig = mallory_zone.sign(&DnsRecord::signed_bytes(
            "bank.example",
            &f.service_cert,
            None,
        ));
        f.server.poison(DnsRecord {
            name: "bank.example".into(),
            cert: f.service_cert.clone(),
            ipv4: None,
            sig,
        });
        let rec = f.server.resolve("bank.example").unwrap();
        assert_eq!(
            rec.verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1)),
            Err(Error::BadCertificate("zone signature"))
        );
    }

    #[test]
    fn poisoned_record_with_forged_cert_rejected() {
        // Zone key compromised but AS cert still unforgeable: swap in a
        // cert signed by the wrong AS.
        let f = setup();
        let mallory_as = apna_core::keys::AsKeys::from_seed(&[0x77; 32]);
        let forged_cert = EphIdCert::issue(
            &mallory_as.signing,
            f.service_cert.ephid,
            f.service_cert.exp_time,
            [1; 32],
            [2; 32],
            Aid(7), // claims AS 7
            f.service_cert.aa_ephid,
            CertKind::ReceiveOnly,
        );
        f.server.register("evil.example", forged_cert, None);
        let rec = f.server.resolve("evil.example").unwrap();
        // Zone signature passes (the server signed it), but the embedded
        // cert fails AS verification.
        assert!(rec
            .verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1))
            .is_err());
    }

    #[test]
    fn data_plane_cert_cannot_be_published() {
        let f = setup();
        let kp = EphIdKeyPair::from_seed([3; 32]);
        let (sp, dp) = kp.public_keys();
        let (_, data_cert) = f.node.ms.issue(
            f.node.infra.host_db.generate_hid(),
            sp,
            dp,
            CertKind::Data,
            ExpiryClass::Short,
            Timestamp(0),
        );
        f.server.register("oops.example", data_cert, None);
        let rec = f.server.resolve("oops.example").unwrap();
        assert_eq!(
            rec.verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1)),
            Err(Error::BadCertificate("published cert must be receive-only"))
        );
    }

    #[test]
    fn control_register_update_roundtrip() {
        use apna_core::control::DnsUpsert;
        let f = setup();
        // Register via the wire-level control entry point, authorized by
        // the published cert's own key.
        let msg = ControlMsg::DnsRegister(DnsUpsert::signed(
            "ctrl.example",
            f.service_cert.clone(),
            None,
            &f.service_keys.sign(),
        ));
        let reply_frame = f
            .server
            .handle_control_frame(&msg.serialize(), Timestamp(0))
            .unwrap()
            .unwrap();
        assert_eq!(
            ControlMsg::parse(&reply_frame).unwrap(),
            ControlMsg::DnsAck {
                name: "ctrl.example".into()
            }
        );
        let rec = f.server.resolve("ctrl.example").unwrap();
        rec.verify(&f.server.zone_verifying_key(), &f.dir, Timestamp(1))
            .unwrap();
        // Update rotates the record through the same path, authorized by
        // the currently published cert's key (same key here).
        let addr = Ipv4Addr::new(192, 0, 2, 9);
        let msg = ControlMsg::DnsUpdate(DnsUpsert::signed(
            "ctrl.example",
            f.service_cert.clone(),
            Some(addr),
            &f.service_keys.sign(),
        ));
        f.server
            .handle_control_frame(&msg.serialize(), Timestamp(0))
            .unwrap();
        assert_eq!(f.server.resolve("ctrl.example").unwrap().ipv4, Some(addr));
        assert_eq!(f.server.len(), 1);
        // Misdirected kinds are refused with a typed error.
        let bad = ControlMsg::DnsAck { name: "x".into() };
        assert!(matches!(
            f.server.handle_control(&bad, Timestamp(0)),
            Err(Error::ControlRejected(_))
        ));
    }

    #[test]
    fn control_upserts_require_authorization() {
        use apna_core::control::DnsUpsert;
        let f = setup();
        let owner_reg = ControlMsg::DnsRegister(DnsUpsert::signed(
            "auth.example",
            f.service_cert.clone(),
            None,
            &f.service_keys.sign(),
        ));
        f.server.handle_control(&owner_reg, Timestamp(0)).unwrap();

        // (a) A hijacker cannot overwrite an existing name via Register.
        let mallory_kp = EphIdKeyPair::from_seed([0x66; 32]);
        let (msp, mdp) = mallory_kp.public_keys();
        let hid = f.node.infra.host_db.generate_hid();
        f.node.infra.host_db.register(
            hid,
            apna_core::keys::HostAsKey::from_dh(&apna_crypto::x25519::SharedSecret([0x6a; 32]))
                .unwrap(),
            Timestamp(0),
        );
        let (_, mallory_cert) = f.node.ms.issue(
            hid,
            msp,
            mdp,
            CertKind::ReceiveOnly,
            ExpiryClass::Long,
            Timestamp(0),
        );
        let squat = ControlMsg::DnsRegister(DnsUpsert::signed(
            "auth.example",
            mallory_cert.clone(),
            None,
            &mallory_kp.sign(),
        ));
        assert_eq!(
            f.server.handle_control(&squat, Timestamp(0)),
            Err(Error::ControlRejected(
                "name already registered; rotation requires DnsUpdate"
            ))
        );

        // (b) Nor via Update: continuity requires the CURRENT owner's key.
        let hijack = ControlMsg::DnsUpdate(DnsUpsert::signed(
            "auth.example",
            mallory_cert.clone(),
            None,
            &mallory_kp.sign(),
        ));
        assert_eq!(
            f.server.handle_control(&hijack, Timestamp(0)),
            Err(Error::ControlRejected("DNS upsert owner signature"))
        );
        assert_eq!(
            f.server.resolve("auth.example").unwrap().cert,
            f.service_cert,
            "record untouched by both attempts"
        );

        // (c) Registering a FREE name with someone else's cert fails the
        // proof-of-possession check (signature not under the cert's key).
        let steal = ControlMsg::DnsRegister(DnsUpsert::signed(
            "fresh.example",
            f.service_cert.clone(),
            None,
            &mallory_kp.sign(),
        ));
        assert_eq!(
            f.server.handle_control(&steal, Timestamp(0)),
            Err(Error::ControlRejected("DNS upsert owner signature"))
        );

        // (d) Updating an unregistered name is refused.
        let ghost = ControlMsg::DnsUpdate(DnsUpsert::signed(
            "ghost.example",
            mallory_cert,
            None,
            &mallory_kp.sign(),
        ));
        assert_eq!(
            f.server.handle_control(&ghost, Timestamp(0)),
            Err(Error::ControlRejected("update for unregistered name"))
        );

        // (e) The legitimate owner CAN rotate to a fresh cert.
        let new_kp = EphIdKeyPair::from_seed([0x77; 32]);
        let (nsp, ndp) = new_kp.public_keys();
        let (_, new_cert) = f.node.ms.issue(
            f.node.infra.host_db.generate_hid(),
            nsp,
            ndp,
            CertKind::ReceiveOnly,
            ExpiryClass::Long,
            Timestamp(0),
        );
        let rotate = ControlMsg::DnsUpdate(DnsUpsert::signed(
            "auth.example",
            new_cert.clone(),
            None,
            &f.service_keys.sign(), // the retiring cert's key authorizes
        ));
        f.server.handle_control(&rotate, Timestamp(0)).unwrap();
        assert_eq!(f.server.resolve("auth.example").unwrap().cert, new_cert);
    }

    #[test]
    fn rotation_updates_record() {
        let f = setup();
        f.server.register("s.example", f.service_cert.clone(), None);
        let kp2 = EphIdKeyPair::from_seed([4; 32]);
        let (sp, dp) = kp2.public_keys();
        let (_, cert2) = f.node.ms.issue(
            f.node.infra.host_db.generate_hid(),
            sp,
            dp,
            CertKind::ReceiveOnly,
            ExpiryClass::Long,
            Timestamp(5),
        );
        f.server.update("s.example", cert2.clone(), None);
        assert_eq!(f.server.resolve("s.example").unwrap().cert, cert2);
        assert_eq!(f.server.len(), 1);
    }

    #[test]
    fn encrypted_query_roundtrip() {
        let f = setup();
        f.server
            .register("private.example", f.service_cert.clone(), None);

        // Client ↔ DNS-service channel (as if built from the bootstrap DNS
        // cert).
        let client_keys = EphIdKeyPair::from_seed([8; 32]);
        let client_ephid = apna_wire::EphIdBytes([0xc1; 16]);
        let mut client_ch = SecureChannel::establish(
            &client_keys,
            client_ephid,
            &apna_crypto::x25519::PublicKey(f.service_keys.public_keys().1),
            f.service_cert.ephid,
            Role::Initiator,
        )
        .unwrap();
        let mut server_ch = SecureChannel::establish(
            &f.service_keys,
            f.service_cert.ephid,
            &apna_crypto::x25519::PublicKey(client_keys.public_keys().1),
            client_ephid,
            Role::Responder,
        )
        .unwrap();

        let q = encrypted::seal_query(&mut client_ch, "private.example");
        // On the wire the name is invisible.
        assert!(!q.windows(15).any(|w| w == b"private.example"));
        let resp = encrypted::handle_query(&f.server, &mut server_ch, &q).unwrap();
        let rec = encrypted::open_response(&mut client_ch, &resp)
            .unwrap()
            .unwrap();
        assert_eq!(rec.name, "private.example");

        // NXDOMAIN path.
        let q2 = encrypted::seal_query(&mut client_ch, "nope.example");
        let resp2 = encrypted::handle_query(&f.server, &mut server_ch, &q2).unwrap();
        assert!(encrypted::open_response(&mut client_ch, &resp2)
            .unwrap()
            .is_none());
    }
}
