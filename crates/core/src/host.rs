//! The APNA host stack (data plane).
//!
//! A [`Host`] owns the state a customer machine accumulates through the
//! protocol: its long-term DH key, the bootstrap material from the RS
//! (control EphID, `k_HA`, service certificates), the data-plane EphIDs it
//! has been issued, and per-peer secure channels. It builds and verifies
//! data packets:
//!
//! * every outgoing packet's payload is sealed under the session key
//!   (§IV-D2 step 1),
//! * every outgoing packet carries a MAC under `k_HA^auth` (§IV-D2 step 2),
//! * with [`ReplayMode::NonceExtension`], every packet gets a unique nonce
//!   and receive-side windows drop duplicates (§VIII-D),
//! * ICMP messages ride the same path, so they stay accountable and
//!   privacy-preserving (§VIII-B).
//!
//! Control-plane intent (acquiring EphIDs under a granularity policy,
//! filing shut-off requests, reacting to revocations) lives one layer up
//! in [`crate::agent::HostAgent`], which owns a `Host` and drives it; the
//! low-level issuance helpers here are crate-private for that reason.

use crate::asnode::AsNode;
use crate::cert::{CertKind, EphIdCert};
use crate::directory::AsPublicKeys;
use crate::keys::{EphIdKeyPair, HostAsKey};
use crate::management::{client as ms_client, EphIdReply, EphIdRequest};
use crate::registry::BootstrapReply;
use crate::replay::ReplayWindow;
use crate::session::SecureChannel;
use crate::time::{ExpiryClass, Timestamp};
use crate::Error;
use apna_crypto::x25519::StaticSecret;
use apna_wire::icmp::IcmpMessage;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;

/// A data-plane EphID a host owns: certificate plus the bound key pair.
#[derive(Clone)]
pub struct OwnedEphId {
    /// AS-issued certificate.
    pub cert: EphIdCert,
    /// The key pair the host generated for this EphID.
    pub keys: EphIdKeyPair,
}

impl OwnedEphId {
    /// The EphID itself.
    #[must_use]
    pub fn ephid(&self) -> EphIdBytes {
        self.cert.ephid
    }

    /// Full address given the host's AS.
    #[must_use]
    pub fn addr(&self, aid: Aid) -> HostAddr {
        HostAddr::new(aid, self.cert.ephid)
    }
}

/// What a host stores per owned EphID: the certificate, which carries
/// both public halves of the key pair (checked against the pair when the
/// reply was accepted), and the pair's seed. A host keeps one of these per
/// EphID it ever acquired, so [`Host::owned_ephid`] assembles the
/// [`OwnedEphId`] on access instead of storing the public halves twice.
struct HeldEphId {
    cert: EphIdCert,
    seed: [u8; 32],
}

/// An APNA host after bootstrapping.
pub struct Host {
    /// The AS the host attaches to.
    pub aid: Aid,
    #[allow(dead_code)]
    dh_secret: StaticSecret,
    kha: HostAsKey,
    ctrl_ephid: EphIdBytes,
    ctrl_exp: Timestamp,
    as_keys: AsPublicKeys,
    /// MS endpoint certificate (from bootstrap).
    pub ms_cert: EphIdCert,
    /// DNS endpoint certificate (from bootstrap).
    pub dns_cert: EphIdCert,
    owned: Vec<HeldEphId>,
    /// `ephid → index into owned` (the first index, should an EphID ever
    /// be issued twice), so ownership checks on the receive path are one
    /// probe rather than a scan of every EphID ever acquired.
    owned_index: HashMap<EphIdBytes, u32>,
    replay_mode: ReplayMode,
    nonce_counter: u64,
    recv_windows: HashMap<EphIdBytes, ReplayWindow>,
    rng: StdRng,
}

impl Host {
    /// Completes bootstrapping from the host side (right column of Fig. 2):
    /// verifies the signed `id_info` and the service certificates, and
    /// derives `k_HA` from the DH exchange.
    pub fn bootstrap(
        aid: Aid,
        dh_secret: StaticSecret,
        reply: &BootstrapReply,
        as_keys: &AsPublicKeys,
        replay_mode: ReplayMode,
        now: Timestamp,
        rng_seed: u64,
    ) -> Result<Host, Error> {
        reply.id_info.verify(&as_keys.verifying)?;
        reply.ms_cert.verify(&as_keys.verifying, now)?;
        reply.dns_cert.verify(&as_keys.verifying, now)?;
        let kha = HostAsKey::from_dh(&dh_secret.diffie_hellman(&as_keys.dh))
            .ok_or(Error::NonContributoryKey)?;
        Ok(Host {
            aid,
            dh_secret,
            kha,
            ctrl_ephid: reply.id_info.ctrl_ephid,
            ctrl_exp: reply.id_info.exp_time,
            as_keys: as_keys.clone(),
            ms_cert: reply.ms_cert.clone(),
            dns_cert: reply.dns_cert.clone(),
            owned: Vec::new(),
            owned_index: HashMap::new(),
            replay_mode,
            nonce_counter: 0,
            recv_windows: HashMap::new(),
            rng: StdRng::seed_from_u64(rng_seed),
        })
    }

    /// Convenience: bootstrap directly against an [`AsNode`] (tests,
    /// examples; the simulator drives the message forms instead).
    pub fn attach(
        node: &AsNode,
        replay_mode: ReplayMode,
        now: Timestamp,
        rng_seed: u64,
    ) -> Result<Host, Error> {
        let mut rng = StdRng::seed_from_u64(rng_seed ^ 0x5eed);
        let dh_secret = StaticSecret::random_from_rng(&mut rng);
        let (_hid, reply) = node.rs.bootstrap(&dh_secret.public_key(), now)?;
        let as_keys = AsPublicKeys {
            verifying: node.infra.keys.verifying_key(),
            dh: node.infra.keys.dh_public(),
        };
        Host::bootstrap(
            node.aid(),
            dh_secret,
            &reply,
            &as_keys,
            replay_mode,
            now,
            rng_seed,
        )
    }

    /// The host's control EphID (and its expiry).
    #[must_use]
    pub fn control_ephid(&self) -> (EphIdBytes, Timestamp) {
        (self.ctrl_ephid, self.ctrl_exp)
    }

    /// The host↔AS key (for building service-path messages).
    #[must_use]
    pub fn kha(&self) -> &HostAsKey {
        &self.kha
    }

    /// Replay mode this host operates under.
    #[must_use]
    pub fn replay_mode(&self) -> ReplayMode {
        self.replay_mode
    }

    // -----------------------------------------------------------------
    // EphID acquisition internals (Fig. 3, host side). Crate-private:
    // [`crate::agent::HostAgent`] is the public surface — intent-level
    // calls, with every request/reply crossing the ControlMsg envelope.
    // -----------------------------------------------------------------

    /// Builds an encrypted EphID request; returns the generated key pair
    /// (keep it until the reply arrives) and the request message.
    pub(crate) fn make_ephid_request(
        &mut self,
        kind: CertKind,
        class: ExpiryClass,
    ) -> (EphIdKeyPair, EphIdRequest) {
        let keypair = EphIdKeyPair::generate(&mut self.rng);
        let mut nonce = [0u8; 12];
        self.rng.fill_bytes(&mut nonce);
        let req =
            ms_client::build_request(&self.kha, self.ctrl_ephid, &keypair, kind, class, nonce);
        (keypair, req)
    }

    /// Processes the MS reply for a pending request; stores and returns the
    /// index of the new [`OwnedEphId`].
    pub(crate) fn accept_ephid_reply(
        &mut self,
        keypair: EphIdKeyPair,
        reply: &EphIdReply,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let cert = ms_client::accept_reply(
            &self.kha,
            self.ctrl_ephid,
            &keypair,
            &self.as_keys.verifying,
            reply,
            now,
        )?;
        let idx = self.owned.len();
        let slot = u32::try_from(idx).map_err(|_| Error::Session("owned EphID table full"))?;
        self.owned_index.entry(cert.ephid).or_insert(slot);
        self.owned.push(HeldEphId {
            cert,
            seed: *keypair.seed(),
        });
        Ok(idx)
    }

    /// An owned EphID by index: its certificate, and its key pair
    /// re-assembled from the stored seed and the certified public halves.
    #[must_use]
    pub fn owned_ephid(&self, idx: usize) -> OwnedEphId {
        let held = &self.owned[idx];
        OwnedEphId {
            cert: held.cert.clone(),
            keys: EphIdKeyPair::from_checked_parts(held.seed, held.cert.sign_pub, held.cert.dh_pub),
        }
    }

    /// The certificate of an owned EphID, without assembling its key pair.
    pub(crate) fn owned_cert(&self, idx: usize) -> &EphIdCert {
        &self.owned[idx].cert
    }

    /// The index of an owned EphID, if this host holds `ephid`.
    #[must_use]
    pub fn owned_index_of(&self, ephid: EphIdBytes) -> Option<usize> {
        self.owned_index.get(&ephid).map(|&idx| idx as usize)
    }

    /// Number of EphIDs the host holds (E9 metric).
    #[must_use]
    pub fn ephid_count(&self) -> usize {
        self.owned.len()
    }

    // -----------------------------------------------------------------
    // Data path (§IV-D2)
    // -----------------------------------------------------------------

    /// Builds a complete outgoing packet: seals `plaintext` on `channel`,
    /// attaches the replay nonce if enabled, and MACs under `k_HA^auth`.
    pub fn build_packet(
        &mut self,
        src_idx: usize,
        dst: HostAddr,
        channel: &mut SecureChannel,
        plaintext: &[u8],
    ) -> Vec<u8> {
        let payload = channel.seal(b"", plaintext);
        self.build_raw_packet(src_idx, dst, &payload)
    }

    /// Builds an outgoing packet around an arbitrary payload (already
    /// sealed, or intentionally clear like ICMP).
    pub fn build_raw_packet(&mut self, src_idx: usize, dst: HostAddr, payload: &[u8]) -> Vec<u8> {
        let src = HostAddr::new(self.aid, self.owned[src_idx].cert.ephid);
        self.finish_packet(ApnaHeader::new(src, dst), payload)
    }

    /// Builds a packet sourced from the host's *control* EphID — the
    /// carrier for control-plane messages to AS services (MS, AA, DNS).
    /// Same accountability properties as data traffic: the packet is
    /// MAC'd under `k_HA^auth` and passes the Fig. 4 egress checks.
    pub fn build_ctrl_packet(&mut self, dst: HostAddr, payload: &[u8]) -> Vec<u8> {
        let src = HostAddr::new(self.aid, self.ctrl_ephid);
        self.finish_packet(ApnaHeader::new(src, dst), payload)
    }

    /// Shared tail of every packet builder: nonce, MAC, serialize.
    fn finish_packet(&mut self, mut header: ApnaHeader, payload: &[u8]) -> Vec<u8> {
        if self.replay_mode == ReplayMode::NonceExtension {
            header = header.with_nonce(self.nonce_counter);
            self.nonce_counter += 1;
        }
        let mac: [u8; 8] = self.kha.cmac().mac_truncated(&header.mac_input(payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(payload);
        wire
    }

    /// Parses an incoming packet delivered by the AS: checks it addresses
    /// one of our EphIDs, runs header replay detection (§VIII-D) when the
    /// nonce extension is on, and returns the header + raw payload.
    ///
    /// The *payload* replay/auth checks happen in the caller's
    /// [`SecureChannel::open`] (the host cannot verify the header MAC — only
    /// the source's AS holds that key, by design).
    pub fn receive_packet<'p>(&mut self, wire: &'p [u8]) -> Result<(ApnaHeader, &'p [u8]), Error> {
        let (header, payload) = ApnaHeader::parse(wire, self.replay_mode)?;
        let ours = header.dst.aid == self.aid
            && (header.dst.ephid == self.ctrl_ephid
                || self.owned_index_of(header.dst.ephid).is_some());
        if !ours {
            return Err(Error::Session("packet not addressed to this host"));
        }
        if let Some(nonce) = header.nonce {
            let window = self.recv_windows.entry(header.src.ephid).or_default();
            if !window.check_and_update(nonce) {
                return Err(Error::Replay);
            }
        }
        Ok((header, payload))
    }

    // -----------------------------------------------------------------
    // ICMP (§VIII-B)
    // -----------------------------------------------------------------

    /// Sends an ICMP message: same path as data ("sending an ICMP message
    /// follows the same procedure as sending a data packet"), so the sender
    /// stays accountable (packet MAC) and private (EphID source). Payload
    /// is unencrypted, per the paper's §VIII-B limitation.
    pub fn build_icmp(&mut self, src_idx: usize, dst: HostAddr, msg: &IcmpMessage) -> Vec<u8> {
        self.build_raw_packet(src_idx, dst, &msg.serialize())
    }

    /// Answers an echo request contained in (`header`, `payload`): builds
    /// the reply packet back to the source EphID — the privacy-preserving
    /// return address.
    pub fn build_icmp_reply(
        &mut self,
        src_idx: usize,
        request_header: &ApnaHeader,
        payload: &[u8],
    ) -> Result<Vec<u8>, Error> {
        let msg = IcmpMessage::parse(payload)?;
        let reply = msg.echo_reply();
        Ok(self.build_icmp(src_idx, request_header.src, &reply))
    }

    /// Direct acquisition against a local MS reference — the crate-private
    /// fallback [`crate::agent::HostAgent`] builds on. Kept for the host
    /// module's own tests.
    #[cfg(test)]
    fn acquire_direct(
        &mut self,
        ms: &crate::management::ManagementService,
        kind: CertKind,
        class: ExpiryClass,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let (keypair, req) = self.make_ephid_request(kind, class);
        let reply = ms.handle_request(&req, now).map_err(Error::Management)?;
        self.accept_ephid_reply(keypair, &reply, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::AsDirectory;
    use crate::session::{Role, SecureChannel};
    use apna_wire::icmp::IcmpType;

    struct World {
        a: AsNode,
        b: AsNode,
        dir: AsDirectory,
    }

    fn world() -> World {
        let dir = AsDirectory::new();
        let a = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
        let b = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
        World { a, b, dir }
    }

    fn attach(node: &AsNode, mode: ReplayMode, seed: u64) -> Host {
        Host::attach(node, mode, Timestamp(0), seed).unwrap()
    }

    #[test]
    fn attach_and_acquire() {
        let w = world();
        let mut host = attach(&w.a, ReplayMode::Disabled, 7);
        assert_eq!(host.ephid_count(), 0);
        let idx = host
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, Timestamp(0))
            .unwrap();
        assert_eq!(host.ephid_count(), 1);
        let owned = host.owned_ephid(idx);
        owned
            .cert
            .verify(&w.a.infra.keys.verifying_key(), Timestamp(0))
            .unwrap();
        assert_eq!(host.owned_index_of(owned.ephid()), Some(idx));
        assert_eq!(host.owned_index_of(EphIdBytes([0xEE; 16])), None);
        // The re-assembled pair is the one its seed derives.
        assert_eq!(
            owned.keys.public_keys(),
            EphIdKeyPair::from_seed(*owned.keys.seed()).public_keys()
        );
    }

    /// A host keeps one record per EphID it ever acquired: the certificate
    /// and the 32-byte seed, not a second copy of the public halves.
    #[test]
    fn held_ephid_is_cert_plus_seed() {
        assert!(std::mem::size_of::<HeldEphId>() <= std::mem::size_of::<EphIdCert>() + 32);
    }

    /// Full end-to-end: bootstrap two hosts in different ASes, establish a
    /// session, push a packet through both border routers, decrypt at the
    /// destination.
    #[test]
    fn end_to_end_packet_path() {
        let w = world();
        let now = Timestamp(0);
        let mut alice = attach(&w.a, ReplayMode::Disabled, 11);
        let mut bob = attach(&w.b, ReplayMode::Disabled, 12);

        let ai = alice
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let bi = bob
            .acquire_direct(&w.b.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let a_owned = alice.owned_ephid(ai);
        let b_owned = bob.owned_ephid(bi);

        crate::session::verify_peer_cert(&b_owned.cert, &w.dir, now).unwrap();
        let mut ch_a = SecureChannel::establish(
            &a_owned.keys,
            a_owned.ephid(),
            &b_owned.cert.dh_public(),
            b_owned.ephid(),
            Role::Initiator,
        )
        .unwrap();
        let mut ch_b = SecureChannel::establish(
            &b_owned.keys,
            b_owned.ephid(),
            &a_owned.cert.dh_public(),
            a_owned.ephid(),
            Role::Responder,
        )
        .unwrap();

        let wire = alice.build_packet(ai, b_owned.addr(Aid(2)), &mut ch_a, b"hello bob");

        // Egress at AS-A.
        let v1 = w.a.br.process_outgoing(&wire, ReplayMode::Disabled, now);
        assert_eq!(v1, crate::border::Verdict::ForwardInter { dst_aid: Aid(2) });
        // Ingress at AS-B.
        let v2 = w.b.br.process_incoming(&wire, ReplayMode::Disabled, now);
        assert!(matches!(v2, crate::border::Verdict::DeliverLocal { .. }));

        // Bob decrypts.
        let (header, payload) = bob.receive_packet(&wire).unwrap();
        assert_eq!(header.src.ephid, a_owned.ephid());
        assert_eq!(ch_b.open(b"", payload).unwrap(), b"hello bob");
    }

    #[test]
    fn receive_rejects_foreign_packets() {
        let w = world();
        let mut alice = attach(&w.a, ReplayMode::Disabled, 11);
        let mut bob = attach(&w.b, ReplayMode::Disabled, 12);
        let ai = alice
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, Timestamp(0))
            .unwrap();
        let _ = bob
            .acquire_direct(&w.b.ms, CertKind::Data, ExpiryClass::Short, Timestamp(0))
            .unwrap();
        // Packet addressed to some unrelated EphID.
        let wire = alice.build_raw_packet(
            ai,
            HostAddr::new(Aid(2), EphIdBytes([0x99; 16])),
            b"not for bob",
        );
        assert!(bob.receive_packet(&wire).is_err());
    }

    #[test]
    fn header_replay_window_drops_duplicates() {
        let w = world();
        let now = Timestamp(0);
        let mut alice = attach(&w.a, ReplayMode::NonceExtension, 11);
        let mut bob = attach(&w.b, ReplayMode::NonceExtension, 12);
        let ai = alice
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let bi = bob
            .acquire_direct(&w.b.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let dst = bob.owned_ephid(bi).addr(Aid(2));
        let wire = alice.build_raw_packet(ai, dst, b"payload");
        assert!(bob.receive_packet(&wire).is_ok());
        // Adversary replays the exact bytes (§VIII-D).
        assert_eq!(bob.receive_packet(&wire), Err(Error::Replay));
        // The next legitimate packet (new nonce) passes.
        let wire2 = alice.build_raw_packet(ai, dst, b"payload");
        assert!(bob.receive_packet(&wire2).is_ok());
    }

    #[test]
    fn packets_carry_valid_as_mac() {
        let w = world();
        let now = Timestamp(0);
        let mut alice = attach(&w.a, ReplayMode::Disabled, 11);
        let ai = alice
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let wire = alice.build_raw_packet(ai, HostAddr::new(Aid(2), EphIdBytes([0x42; 16])), b"x");
        assert!(w
            .a
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, now)
            .is_forward());
    }

    #[test]
    fn ctrl_packet_passes_egress_and_delivers_to_service() {
        // Control traffic is ordinary accountable traffic: the control
        // EphID authenticates at egress and the MS EphID delivers at
        // ingress.
        let w = world();
        let now = Timestamp(0);
        let mut host = attach(&w.a, ReplayMode::Disabled, 11);
        let dst = HostAddr::new(Aid(1), host.ms_cert.ephid);
        let wire = host.build_ctrl_packet(dst, b"control payload");
        assert!(w
            .a
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, now)
            .is_forward());
        assert_eq!(
            w.a.br.process_incoming(&wire, ReplayMode::Disabled, now),
            crate::border::Verdict::DeliverLocal {
                hid: w.a.ms_endpoint.hid
            }
        );
    }

    #[test]
    fn icmp_echo_roundtrip() {
        let w = world();
        let now = Timestamp(0);
        let mut alice = attach(&w.a, ReplayMode::Disabled, 11);
        let mut bob = attach(&w.b, ReplayMode::Disabled, 12);
        let ai = alice
            .acquire_direct(&w.a.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let bi = bob
            .acquire_direct(&w.b.ms, CertKind::Data, ExpiryClass::Short, now)
            .unwrap();
        let bob_addr = bob.owned_ephid(bi).addr(Aid(2));

        // Alice pings Bob.
        let ping = IcmpMessage::echo_request(1, b"ping!");
        let wire = alice.build_icmp(ai, bob_addr, &ping);
        // Both BRs pass it (it is a normal, accountable packet).
        assert!(w
            .a
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, now)
            .is_forward());
        assert!(w
            .b
            .br
            .process_incoming(&wire, ReplayMode::Disabled, now)
            .is_forward());

        // Bob replies to the source EphID from the request.
        let (header, payload) = bob.receive_packet(&wire).unwrap();
        let reply_wire = bob.build_icmp_reply(bi, &header, payload).unwrap();
        assert!(w
            .b
            .br
            .process_outgoing(&reply_wire, ReplayMode::Disabled, now)
            .is_forward());

        let (reply_header, reply_payload) = alice.receive_packet(&reply_wire).unwrap();
        assert_eq!(reply_header.dst.ephid, alice.owned_ephid(ai).ephid());
        let msg = IcmpMessage::parse(reply_payload).unwrap();
        assert_eq!(msg.icmp_type, IcmpType::EchoReply);
        assert_eq!(msg.data, b"ping!");
        assert_eq!(msg.param, 1);
    }
}
