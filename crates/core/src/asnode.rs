//! One complete APNA-enabled AS: keys, shared infrastructure state, and the
//! four logical entities of §III-C (Registry Service, Management Service,
//! Border Router, Accountability Agent).
//!
//! The paper's entities communicate over the AS-internal network; this
//! reproduction gives them shared ownership of the same state (`Arc`), which
//! is the end state those internal messages establish. The externally
//! visible protocol behavior — what hosts and other ASes observe — is
//! unchanged, and it is what the tests and benchmarks measure.

use crate::border::BorderRouter;
use crate::cert::{CertKind, EphIdCert};
use crate::control::{ControlKind, ControlMsg, ControlPlane};
use crate::ctrl_log::LogHandle;
use crate::directory::{AsDirectory, AsPublicKeys};
use crate::ephid::{self, EphIdPlain, IvAllocator};
use crate::hid::Hid;
use crate::hostinfo::{HostDb, DEFAULT_HOST_SHARDS};
use crate::keys::{AsKeys, EphIdKeyPair, HostAsKey};
use crate::management::ManagementService;
use crate::registry::RegistryService;
use crate::revocation::RevocationList;
use crate::shutoff::{AccountabilityAgent, RevocationPolicy};
use crate::time::Timestamp;
use apna_crypto::x25519::SharedSecret;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use rand::{CryptoRng, RngCore};
use std::sync::Arc;

/// Lifetime of AS service-endpoint EphIDs (MS/DNS/AA): 30 days.
pub const SERVICE_EPHID_LIFETIME_SECS: u32 = 30 * 24 * 60 * 60;

/// A service endpoint the AS runs (MS, DNS, AA): its identity and key pair.
pub struct ServiceEndpoint {
    /// The service's HID (registered in `host_info` so ingress delivers).
    pub hid: Hid,
    /// The service's EphID.
    pub ephid: EphIdBytes,
    /// The service's certificate (handed to hosts at bootstrap).
    pub cert: EphIdCert,
    /// The service's EphID key pair (for encrypted service traffic).
    pub keys: EphIdKeyPair,
    /// The service↔AS key (services authenticate their packets too).
    pub kha: HostAsKey,
}

/// State shared by all entities of one AS (the union of `host_info`,
/// `revoked_ids`, and the key material of Table I).
pub struct AsInfra {
    /// This AS's identifier.
    pub aid: Aid,
    /// Key bundle (`k_A` derivations, signing key, DH key).
    pub keys: AsKeys,
    /// The `host_info` database.
    pub host_db: HostDb,
    /// The `revoked_ids` list border routers consult.
    pub revoked: RevocationList,
    /// IV source for EphID issuance.
    pub iv_alloc: IvAllocator,
    /// EphID of the accountability agent (embedded in every issued cert).
    pub aa_ephid: EphIdBytes,
    /// Management Service endpoint certificate (bootstrap reply).
    pub ms_cert: EphIdCert,
    /// DNS service endpoint certificate (bootstrap reply).
    pub dns_cert: EphIdCert,
    /// Durable control log ([`crate::ctrl_log`]); inactive until a
    /// daemon attaches a sink. The deterministic bootstrap state built
    /// here is *not* logged — it is reproduced from the seed on restart;
    /// only post-build dynamic mutations go to the log.
    pub ctrl_log: LogHandle,
}

/// A fully assembled APNA AS.
pub struct AsNode {
    /// Shared infrastructure state.
    pub infra: Arc<AsInfra>,
    /// Registry Service (host bootstrapping).
    pub rs: RegistryService,
    /// Management Service (EphID issuance).
    pub ms: ManagementService,
    /// Border router (data plane).
    pub br: BorderRouter,
    /// Accountability agent (shutoff).
    pub aa: AccountabilityAgent,
    /// The AA service endpoint (keys for encrypted shutoff transport).
    pub aa_endpoint: ServiceEndpoint,
    /// The MS service endpoint.
    pub ms_endpoint: ServiceEndpoint,
    /// The DNS service endpoint.
    pub dns_endpoint: ServiceEndpoint,
}

impl AsNode {
    /// Creates an AS with fresh keys, publishes them in `directory`, and
    /// stands up the MS / DNS / AA service endpoints with long-lived
    /// ([`SERVICE_EPHID_LIFETIME_SECS`]) EphIDs.
    pub fn new<R: RngCore + CryptoRng>(
        aid: Aid,
        rng: &mut R,
        directory: &AsDirectory,
        now: Timestamp,
    ) -> AsNode {
        Self::build(
            aid,
            AsKeys::generate(rng),
            rng,
            directory,
            now,
            DEFAULT_HOST_SHARDS,
        )
    }

    /// Deterministic construction for reproducible simulations: all key
    /// material derives from `seed`.
    pub fn from_seed(aid: Aid, seed: [u8; 32], directory: &AsDirectory, now: Timestamp) -> AsNode {
        Self::from_seed_with_shards(aid, seed, directory, now, DEFAULT_HOST_SHARDS)
    }

    /// [`AsNode::from_seed`] with an explicit `host_info` shard count —
    /// the knob the issuance bench sweeps (1/4/16). Key material and all
    /// identities are independent of the shard count.
    pub fn from_seed_with_shards(
        aid: Aid,
        seed: [u8; 32],
        directory: &AsDirectory,
        now: Timestamp,
        shards: usize,
    ) -> AsNode {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::from_seed(seed);
        let keys = AsKeys::from_seed(&seed);
        Self::build(aid, keys, &mut rng, directory, now, shards)
    }

    fn build<R: RngCore + CryptoRng>(
        aid: Aid,
        keys: AsKeys,
        rng: &mut R,
        directory: &AsDirectory,
        now: Timestamp,
        shards: usize,
    ) -> AsNode {
        directory.publish(
            aid,
            AsPublicKeys {
                verifying: keys.verifying_key(),
                dh: keys.dh_public(),
            },
        );

        let host_db = HostDb::with_shards(shards);
        let iv_alloc = IvAllocator::default();
        // Service endpoints (MS/DNS/AA) are infrastructure: they outlive
        // host EphIDs by far, so customers bootstrapped late in a service
        // epoch still get verifiable service certificates. 30 days; a real
        // deployment would rotate them with planned overlap.
        let exp = now.add_secs(SERVICE_EPHID_LIFETIME_SECS);

        // Stand up a service endpoint: HID + registered k_HA + EphID.
        let mut make_service = |db: &HostDb| -> (Hid, EphIdBytes, EphIdKeyPair, HostAsKey) {
            let hid = db.generate_hid();
            // A fresh random secret is contributory with overwhelming
            // probability; redraw on the astronomically-unlikely miss
            // rather than panic on it.
            let kha = loop {
                let mut secret = [0u8; 32];
                rng.fill_bytes(&mut secret);
                if let Some(k) = HostAsKey::from_dh(&SharedSecret(secret)) {
                    break k;
                }
            };
            db.register(hid, kha.clone(), now);
            let eid = ephid::seal(&keys, EphIdPlain { hid, exp_time: exp }, iv_alloc.next_iv());
            (hid, eid, EphIdKeyPair::generate(rng), kha)
        };

        let (aa_hid, aa_ephid, aa_keys, aa_kha) = make_service(&host_db);
        let (ms_hid, ms_ephid, ms_keys, ms_kha) = make_service(&host_db);
        let (dns_hid, dns_ephid, dns_keys, dns_kha) = make_service(&host_db);

        let issue_service_cert = |eid: EphIdBytes, kp: &EphIdKeyPair| -> EphIdCert {
            let (sign_pub, dh_pub) = kp.public_keys();
            EphIdCert::issue(
                &keys.signing,
                eid,
                exp,
                sign_pub,
                dh_pub,
                aid,
                aa_ephid,
                CertKind::Service,
            )
        };

        let aa_cert = issue_service_cert(aa_ephid, &aa_keys);
        let ms_cert = issue_service_cert(ms_ephid, &ms_keys);
        let dns_cert = issue_service_cert(dns_ephid, &dns_keys);

        let infra = Arc::new(AsInfra {
            aid,
            keys,
            host_db,
            revoked: RevocationList::new(),
            iv_alloc,
            aa_ephid,
            ms_cert: ms_cert.clone(),
            dns_cert: dns_cert.clone(),
            ctrl_log: LogHandle::default(),
        });

        AsNode {
            rs: RegistryService::new(Arc::clone(&infra)),
            ms: ManagementService::new(Arc::clone(&infra)),
            br: BorderRouter::new(Arc::clone(&infra)),
            aa: AccountabilityAgent::new(
                Arc::clone(&infra),
                directory.clone(),
                RevocationPolicy::default(),
            ),
            aa_endpoint: ServiceEndpoint {
                hid: aa_hid,
                ephid: aa_ephid,
                cert: aa_cert,
                keys: aa_keys,
                kha: aa_kha,
            },
            ms_endpoint: ServiceEndpoint {
                hid: ms_hid,
                ephid: ms_ephid,
                cert: ms_cert,
                keys: ms_keys,
                kha: ms_kha,
            },
            dns_endpoint: ServiceEndpoint {
                hid: dns_hid,
                ephid: dns_ephid,
                cert: dns_cert,
                keys: dns_keys,
                kha: dns_kha,
            },
            infra,
        }
    }

    /// This AS's identifier.
    #[must_use]
    pub fn aid(&self) -> Aid {
        self.infra.aid
    }

    /// Looks up the service endpoint (AA / MS / DNS) registered under
    /// `hid`, if any — how the border daemon and the simulator decide that
    /// a delivered packet is control traffic for one of this AS's services.
    #[must_use]
    pub fn service_by_hid(&self, hid: Hid) -> Option<&ServiceEndpoint> {
        [&self.aa_endpoint, &self.ms_endpoint, &self.dns_endpoint]
            .into_iter()
            .find(|ep| ep.hid == hid)
    }

    /// Serves a burst of packets delivered to the service endpoint `hid`
    /// (§IV-B, §IV-E): parses each [`ControlMsg`] envelope, dispatches the
    /// burst through `cp`'s batched path, and builds each reply as an
    /// accountable packet from the endpoint's EphID, MAC'd under its `k_HA`
    /// and, under [`ReplayMode::NonceExtension`], stamped with `next_nonce`
    /// (incremented per reply). Failures are counted, never answered.
    pub fn serve_control_burst(
        &self,
        hid: Hid,
        packets: &[Vec<u8>],
        cp: &dyn ControlPlane,
        mode: ReplayMode,
        next_nonce: &mut u64,
        now: Timestamp,
    ) -> ServedControl {
        let mut served = ServedControl::default();
        let Some(endpoint) = self.service_by_hid(hid) else {
            served.requests = vec![None; packets.len()];
            served.rejected = packets.len() as u64;
            return served;
        };
        let mut reply_to = Vec::new();
        let mut bodies: Vec<&[u8]> = Vec::new();
        for wire in packets {
            let parsed = ApnaHeader::parse(wire, mode)
                .ok()
                .and_then(|(header, body)| {
                    Some((header.src, body, ControlMsg::parse(body).ok()?.kind()))
                });
            let Some((requester, body, kind)) = parsed else {
                served.rejected += 1;
                served.requests.push(None);
                continue;
            };
            reply_to.push(requester);
            bodies.push(body);
            served.requests.push(Some(kind));
        }
        let results = cp.handle_control_batch(&bodies, now);
        let cmac = endpoint.kha.cmac();
        for (dst, result) in reply_to.into_iter().zip(results) {
            let Ok(reply) = result else {
                served.rejected += 1;
                continue;
            };
            let Some(reply) = reply else { continue };
            let Ok(msg) = ControlMsg::parse(&reply) else {
                served.rejected += 1;
                continue;
            };
            let mut reply_header = ApnaHeader::new(HostAddr::new(self.aid(), endpoint.ephid), dst);
            if mode == ReplayMode::NonceExtension {
                reply_header = reply_header.with_nonce(*next_nonce);
                *next_nonce += 1;
            }
            let mac: [u8; 8] = cmac.mac_truncated(&reply_header.mac_input(&reply));
            reply_header.set_mac(mac);
            let mut wire = reply_header.serialize();
            wire.extend_from_slice(&reply);
            served.reply_kinds.push(msg.kind());
            served.replies.push(wire);
        }
        served
    }
}

/// What [`AsNode::serve_control_burst`] made of one burst.
#[derive(Debug, Default)]
pub struct ServedControl {
    /// Per input packet: the request kind, or `None` for a bad envelope.
    pub requests: Vec<Option<ControlKind>>,
    /// Reply packets, in request order.
    pub replies: Vec<Vec<u8>>,
    /// The kind of each reply in `replies`.
    pub reply_kinds: Vec<ControlKind>,
    /// Bad envelopes, refused requests and unparseable replies.
    pub rejected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn node() -> (AsNode, AsDirectory) {
        let dir = AsDirectory::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let node = AsNode::new(Aid(64512), &mut rng, &dir, Timestamp(0));
        (node, dir)
    }

    #[test]
    fn publishes_keys_to_directory() {
        let (node, dir) = node();
        let published = dir.lookup(Aid(64512)).unwrap();
        assert_eq!(
            published.verifying.as_bytes(),
            node.infra.keys.verifying_key().as_bytes()
        );
        assert_eq!(published.dh.0, node.infra.keys.dh_public().0);
    }

    #[test]
    fn service_endpoints_have_valid_ephids() {
        let (node, _) = node();
        for ep in [&node.aa_endpoint, &node.ms_endpoint, &node.dns_endpoint] {
            let plain = ephid::open(&node.infra.keys, &ep.ephid).unwrap();
            assert_eq!(plain.hid, ep.hid);
            assert!(node.infra.host_db.is_valid(ep.hid));
            ep.cert
                .verify(&node.infra.keys.verifying_key(), Timestamp(0))
                .unwrap();
            assert_eq!(ep.cert.kind, CertKind::Service);
            assert_eq!(ep.cert.aa_ephid, node.infra.aa_ephid);
        }
    }

    #[test]
    fn services_have_distinct_identities() {
        let (node, _) = node();
        assert_ne!(node.aa_endpoint.hid, node.ms_endpoint.hid);
        assert_ne!(node.ms_endpoint.hid, node.dns_endpoint.hid);
        assert_ne!(node.aa_endpoint.ephid, node.ms_endpoint.ephid);
        assert_ne!(node.ms_endpoint.ephid, node.dns_endpoint.ephid);
    }

    #[test]
    fn from_seed_is_deterministic() {
        let dir1 = AsDirectory::new();
        let dir2 = AsDirectory::new();
        let a = AsNode::from_seed(Aid(1), [9; 32], &dir1, Timestamp(0));
        let b = AsNode::from_seed(Aid(1), [9; 32], &dir2, Timestamp(0));
        assert_eq!(
            a.infra.keys.verifying_key().as_bytes(),
            b.infra.keys.verifying_key().as_bytes()
        );
        assert_eq!(a.infra.aa_ephid, b.infra.aa_ephid);
        let c = AsNode::from_seed(Aid(1), [10; 32], &AsDirectory::new(), Timestamp(0));
        assert_ne!(a.infra.aa_ephid, c.infra.aa_ephid);
    }

    /// A host's EphID request, as the packet it sends to the MS.
    fn ms_request(node: &AsNode, mode: ReplayMode) -> (crate::HostAgent, Vec<u8>) {
        let mut host = crate::HostAgent::attach(
            node,
            crate::granularity::Granularity::PerFlow,
            mode,
            Timestamp(0),
            5,
        )
        .unwrap();
        let ms = HostAddr::new(node.aid(), node.ms_endpoint.ephid);
        let (_, msg) = host.begin_acquire(crate::EphIdUsage::DATA_SHORT);
        let packet = host.build_ctrl_packet(ms, &msg.serialize());
        (host, packet)
    }

    #[test]
    fn served_replies_are_nonce_stamped_accountable_packets() {
        let (node, _) = node();
        let mode = ReplayMode::NonceExtension;
        let (mut host, request) = ms_request(&node, mode);
        let mut nonce = 7;
        let hid = node.ms_endpoint.hid;
        let served =
            node.serve_control_burst(hid, &[request], &node, mode, &mut nonce, Timestamp(0));
        assert_eq!(served.requests, vec![Some(ControlKind::EphIdRequest)]);
        assert_eq!(served.rejected, 0);
        assert_eq!(nonce, 8);
        assert_eq!(served.reply_kinds, vec![ControlKind::EphIdReply]);
        let reply = &served.replies[0];
        assert!(node
            .br
            .process_outgoing(reply, mode, Timestamp(0))
            .is_forward());
        let (header, _) = host.receive_packet(reply).unwrap();
        assert_eq!(header.nonce, Some(7));
        assert_eq!(header.src.ephid, node.ms_endpoint.ephid);
    }

    /// Malformed envelopes and replies that do not parse are counted as
    /// rejected and never answered; no nonce is spent on them.
    #[test]
    fn unparseable_envelopes_and_replies_are_rejected() {
        struct Garbage;
        impl ControlPlane for Garbage {
            fn handle_control(
                &self,
                _: &ControlMsg,
                _: Timestamp,
            ) -> Result<Option<ControlMsg>, crate::Error> {
                Ok(None)
            }
            fn handle_control_batch(
                &self,
                frames: &[&[u8]],
                _: Timestamp,
            ) -> Vec<Result<Option<Vec<u8>>, crate::Error>> {
                frames.iter().map(|_| Ok(Some(vec![0xFF; 3]))).collect()
            }
        }
        let (node, _) = node();
        let mode = ReplayMode::NonceExtension;
        let (_, request) = ms_request(&node, mode);
        let mut nonce = 7;
        let hid = node.ms_endpoint.hid;
        let packets = [request, vec![0xEE; 5]];
        let served =
            node.serve_control_burst(hid, &packets, &Garbage, mode, &mut nonce, Timestamp(0));
        assert_eq!(served.requests, vec![Some(ControlKind::EphIdRequest), None]);
        assert!(served.replies.is_empty());
        assert_eq!((served.rejected, nonce), (2, 7));
    }

    #[test]
    fn ingress_delivers_to_service_endpoints() {
        use apna_wire::{ApnaHeader, HostAddr, ReplayMode};
        let (node, _) = node();
        let header = ApnaHeader::new(
            HostAddr::new(Aid(99), EphIdBytes([1; 16])),
            HostAddr::new(node.aid(), node.ms_endpoint.ephid),
        );
        assert_eq!(
            node.br
                .process_incoming(&header.serialize(), ReplayMode::Disabled, Timestamp(1)),
            crate::border::Verdict::DeliverLocal {
                hid: node.ms_endpoint.hid
            }
        );
    }
}
