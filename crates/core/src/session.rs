//! Session keys and end-to-end encrypted channels (§IV-D1/2, §VII-A/C).
//!
//! Two hosts derive their session key `k_EaEb` by ECDH over the key pairs
//! bound to their EphIDs, authenticated by the AS-signed short-lived
//! certificates. The derived [`SecureChannel`] AEAD-seals every payload
//! (AES-GCM — CCA-secure per §IV-A) with a sequence-numbered nonce and a
//! receive-side replay window.
//!
//! **Perfect forward secrecy** (§VI-B): `k_EaEb` derives *only* from the
//! ephemeral per-EphID key pairs. Neither the AS's long-term keys nor the
//! host's long-term key enter the derivation, so compromising them never
//! decrypts recorded traffic; compromising one EphID's private key exposes
//! only the sessions of that EphID.
//!
//! The client–server establishment of §VII-A (receive-only EphIDs) and the
//! latency modes of §VII-C (1 / 0.5 / 0 RTT) are implemented by
//! [`client_connect`] / [`server_accept_with_recv_ephid`] / [`client_finish`].

use crate::cert::{CertKind, EphIdCert};
use crate::directory::AsDirectory;
use crate::keys::EphIdKeyPair;
use crate::replay::ReplayWindow;
use crate::time::Timestamp;
use crate::Error;
use apna_crypto::gcm::{AesGcm128, TAG_LEN};
use apna_crypto::hkdf;
use apna_crypto::x25519::PublicKey;
use apna_wire::EphIdBytes;

/// Which side of the session this endpoint is. Determines the AEAD nonce
/// direction byte so the two senders can never collide on a nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The endpoint that sends the first message.
    Initiator,
    /// The endpoint that answers.
    Responder,
}

impl Role {
    fn dir_byte(self) -> u8 {
        match self {
            Role::Initiator => 0x01,
            Role::Responder => 0x02,
        }
    }

    fn peer(self) -> Role {
        match self {
            Role::Initiator => Role::Responder,
            Role::Responder => Role::Initiator,
        }
    }
}

/// Verifies a peer's EphID certificate against the issuing AS's published
/// key (the first task of connection establishment, §IV-D1).
pub fn verify_peer_cert(
    cert: &EphIdCert,
    directory: &AsDirectory,
    now: Timestamp,
) -> Result<(), Error> {
    let vk = directory
        .verifying_key(cert.aid)
        .ok_or(Error::BadCertificate("unknown issuing AS"))?;
    cert.verify(&vk, now)
}

/// Length of the sequence number that prefixes every sealed payload.
const SEQ_LEN: usize = 8;

/// Bytes [`SecureChannel::seal`] adds to a plaintext: sequence number and
/// AEAD tag.
pub const SEAL_OVERHEAD: usize = SEQ_LEN + TAG_LEN;

/// An established end-to-end encrypted channel (`k_EaEb` + AEAD state).
pub struct SecureChannel {
    aead: AesGcm128,
    role: Role,
    send_seq: u64,
    recv_window: ReplayWindow,
    /// Key fingerprint for diagnostics/tests (HKDF of the key, not the key).
    fingerprint: [u8; 8],
}

impl SecureChannel {
    /// Derives the channel from our EphID key pair and the peer's certified
    /// DH public key. Both sides compute the same key; `role` must differ
    /// between them.
    ///
    /// The HKDF salt binds the key to the *pair of EphIDs* (sorted, so both
    /// sides agree), ensuring a key is never reused across EphID pairs even
    /// if a DH result repeated.
    pub fn establish(
        local: &EphIdKeyPair,
        local_ephid: EphIdBytes,
        peer_dh_pub: &PublicKey,
        peer_ephid: EphIdBytes,
        role: Role,
    ) -> Result<SecureChannel, Error> {
        let shared = local.dh().diffie_hellman(peer_dh_pub);
        if !shared.is_contributory() {
            return Err(Error::NonContributoryKey);
        }
        let (lo, hi) = if local_ephid.as_bytes() <= peer_ephid.as_bytes() {
            (local_ephid, peer_ephid)
        } else {
            (peer_ephid, local_ephid)
        };
        let mut salt = Vec::with_capacity(32);
        salt.extend_from_slice(lo.as_bytes());
        salt.extend_from_slice(hi.as_bytes());
        let key: [u8; 16] = hkdf::derive_key(&salt, shared.as_bytes(), b"apna-session-v1");
        let fingerprint: [u8; 8] = hkdf::derive_key(&salt, &key, b"fingerprint");
        Ok(SecureChannel {
            aead: AesGcm128::new(&key),
            role,
            send_seq: 0,
            recv_window: ReplayWindow::new(),
            fingerprint,
        })
    }

    fn nonce(dir: u8, seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[0] = dir;
        n[4..].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Seals a payload: `seq (8) ‖ AES-GCM(nonce(dir, seq), aad, plaintext)`.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(aad, &[plaintext], &mut out);
        out
    }

    /// [`SecureChannel::seal`] without the intermediate buffers: appends
    /// the sealed form of `parts[0] ‖ parts[1] ‖ …` to `out` and encrypts it
    /// where it lands. A caller holding a header and a payload apart seals
    /// them straight into the frame it is building, so the payload is
    /// copied once on its way out.
    pub fn seal_into(&mut self, aad: &[u8], parts: &[&[u8]], out: &mut Vec<u8>) {
        let seq = self.send_seq;
        self.send_seq += 1;
        let nonce = Self::nonce(self.role.dir_byte(), seq);
        let plaintext_len: usize = parts.iter().map(|p| p.len()).sum();
        out.reserve(SEAL_OVERHEAD + plaintext_len);
        out.extend_from_slice(&seq.to_be_bytes());
        let start = out.len();
        for part in parts {
            out.extend_from_slice(part);
        }
        // In bounds: `start` was `out.len()` before the parts went in.
        let tag = self.aead.seal_in_place(&nonce, aad, &mut out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Opens a sealed payload from the peer, enforcing the replay window
    /// *after* authentication succeeds.
    pub fn open(&mut self, aad: &[u8], wire: &[u8]) -> Result<Vec<u8>, Error> {
        let mut buf = wire.to_vec();
        let len = self.open_in_place(aad, &mut buf)?.len();
        buf.copy_within(SEQ_LEN..SEQ_LEN + len, 0);
        buf.truncate(len);
        Ok(buf)
    }

    /// [`SecureChannel::open`] decrypting inside `wire` itself; returns the
    /// plaintext as a sub-slice of it. On an authentication failure the
    /// ciphertext region of `wire` is zeroed.
    pub fn open_in_place<'w>(&mut self, aad: &[u8], wire: &'w mut [u8]) -> Result<&'w [u8], Error> {
        let [s0, s1, s2, s3, s4, s5, s6, s7, sealed @ ..] = wire else {
            return Err(Error::Session("sealed payload too short"));
        };
        let seq = u64::from_be_bytes([*s0, *s1, *s2, *s3, *s4, *s5, *s6, *s7]);
        let nonce = Self::nonce(self.role.peer().dir_byte(), seq);
        let ct_len = sealed
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(apna_crypto::CryptoError::InvalidLength)?;
        let (ct, tag) = sealed.split_at_mut(ct_len);
        self.aead.open_in_place(&nonce, aad, ct, tag)?;
        if !self.recv_window.check_and_update(seq) {
            return Err(Error::Replay);
        }
        Ok(ct)
    }

    /// Channel key fingerprint (for tests asserting both sides agree and
    /// that distinct sessions have distinct keys). Not secret material.
    #[must_use]
    pub fn fingerprint(&self) -> [u8; 8] {
        self.fingerprint
    }

    /// This endpoint's role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }
}

// ---------------------------------------------------------------------------
// Client–server establishment with receive-only EphIDs (§VII-A)
// ---------------------------------------------------------------------------

/// First message: client → server (addressed to the receive-only EphID).
#[derive(Debug, Clone)]
pub struct ClientHello {
    /// The client's certificate (so the server can key the session).
    pub client_cert: EphIdCert,
    /// Optional 0-RTT data sealed under the channel with the *receive-only*
    /// EphID. §VII-C: costs nothing in latency, but an adversary who later
    /// compromises the receive-only key can decrypt these first packets.
    pub early_data: Option<Vec<u8>>,
}

/// Second message: server → client, introducing the serving EphID.
#[derive(Debug, Clone)]
pub struct ServerAccept {
    /// Certificate of `EphID_s`, the EphID the server will use for this
    /// client ("the server includes the short-lived certificate of EphID_s
    /// to inform the client", §VII-A).
    pub serving_cert: EphIdCert,
    /// First response payload, sealed under the final channel.
    pub payload: Vec<u8>,
}

/// Client-side handshake state between hello and accept.
#[derive(Debug)]
pub struct PendingClient {
    keys: EphIdKeyPair,
    ephid: EphIdBytes,
}

/// Client step 1: verify the server's receive-only certificate (from DNS)
/// and produce the hello. `early_data`, if given, is sealed 0-RTT under the
/// receive-only channel.
pub fn client_connect(
    client_keys: &EphIdKeyPair,
    client_cert: &EphIdCert,
    server_recv_cert: &EphIdCert,
    directory: &AsDirectory,
    now: Timestamp,
    early_data: Option<&[u8]>,
) -> Result<(PendingClient, ClientHello), Error> {
    verify_peer_cert(server_recv_cert, directory, now)?;
    if server_recv_cert.kind != CertKind::ReceiveOnly && server_recv_cert.kind != CertKind::Service
    {
        return Err(Error::Session("server cert is not receive-only"));
    }
    let early = match early_data {
        Some(data) => {
            let mut ch0 = SecureChannel::establish(
                client_keys,
                client_cert.ephid,
                &server_recv_cert.dh_public(),
                server_recv_cert.ephid,
                Role::Initiator,
            )?;
            Some(ch0.seal(b"apna-early", data))
        }
        None => None,
    };
    Ok((
        PendingClient {
            keys: client_keys.clone(),
            ephid: client_cert.ephid,
        },
        ClientHello {
            client_cert: client_cert.clone(),
            early_data: early,
        },
    ))
}

/// Server step: verify the client's certificate, decrypt any 0-RTT early
/// data with the receive-only key, and answer with the serving EphID's
/// certificate plus a first response sealed under the final channel.
///
/// Returns `(final_channel, early_data_plaintext, accept_message)`.
#[allow(clippy::too_many_arguments)]
pub fn server_accept_with_recv_ephid(
    recv_keys: &EphIdKeyPair,
    recv_ephid: EphIdBytes,
    serving_keys: &EphIdKeyPair,
    serving_cert: &EphIdCert,
    hello: &ClientHello,
    directory: &AsDirectory,
    now: Timestamp,
    response: &[u8],
) -> Result<(SecureChannel, Option<Vec<u8>>, ServerAccept), Error> {
    verify_peer_cert(&hello.client_cert, directory, now)?;

    // Decrypt 0-RTT data under the receive-only channel if present.
    let early_plain = match &hello.early_data {
        Some(sealed) => {
            let mut ch0 = SecureChannel::establish(
                recv_keys,
                recv_ephid,
                &hello.client_cert.dh_public(),
                hello.client_cert.ephid,
                Role::Responder,
            )?;
            Some(ch0.open(b"apna-early", sealed)?)
        }
        None => None,
    };

    // Final channel: serving EphID keys × client cert.
    let mut channel = SecureChannel::establish(
        serving_keys,
        serving_cert.ephid,
        &hello.client_cert.dh_public(),
        hello.client_cert.ephid,
        Role::Responder,
    )?;
    let payload = channel.seal(b"apna-accept", response);
    Ok((
        channel,
        early_plain,
        ServerAccept {
            serving_cert: serving_cert.clone(),
            payload,
        },
    ))
}

/// Client step 2: verify the serving certificate, derive the final channel,
/// and decrypt the server's first response.
pub fn client_finish(
    pending: &PendingClient,
    accept: &ServerAccept,
    directory: &AsDirectory,
    now: Timestamp,
) -> Result<(SecureChannel, Vec<u8>), Error> {
    verify_peer_cert(&accept.serving_cert, directory, now)?;
    let mut channel = SecureChannel::establish(
        &pending.keys,
        pending.ephid,
        &accept.serving_cert.dh_public(),
        accept.serving_cert.ephid,
        Role::Initiator,
    )?;
    let response = channel.open(b"apna-accept", &accept.payload)?;
    Ok((channel, response))
}

// ---------------------------------------------------------------------------
// Connection-establishment latency accounting (§VII-C, experiment E5)
// ---------------------------------------------------------------------------

/// The handshake variants of §IV-D1 and §VII-A/C with their round-trip
/// cost before application data flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMode {
    /// Host–host, data after one round trip (§IV-D1).
    HostHost,
    /// Host–host with data on the first packet (§VII-C): 0 RTT.
    HostHostZeroRtt,
    /// Client–server via receive-only EphID, conservative: 1.5 RTT.
    ClientServer,
    /// Client–server, client waits for the serving cert but sends no early
    /// data: 0.5 RTT.
    ClientServerHalfRtt,
    /// Client–server with 0-RTT early data under the receive-only key.
    ClientServerZeroRtt,
}

impl HandshakeMode {
    /// Round trips before the first application payload can be *sent*,
    /// as analyzed in §VII-C.
    #[must_use]
    pub fn rtts_before_data(self) -> f64 {
        match self {
            HandshakeMode::HostHost => 1.0,
            HandshakeMode::HostHostZeroRtt => 0.0,
            HandshakeMode::ClientServer => 1.5,
            HandshakeMode::ClientServerHalfRtt => 0.5,
            HandshakeMode::ClientServerZeroRtt => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asnode::AsNode;
    use crate::time::ExpiryClass;
    use apna_wire::Aid;
    use rand::SeedableRng;

    struct World {
        dir: AsDirectory,
        a: AsNode,
        b: AsNode,
    }

    fn world() -> World {
        let dir = AsDirectory::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let a = AsNode::new(Aid(1), &mut rng, &dir, Timestamp(0));
        let b = AsNode::new(Aid(2), &mut rng, &dir, Timestamp(0));
        World { dir, a, b }
    }

    fn issue(node: &AsNode, seed: u8, kind: CertKind) -> (EphIdKeyPair, EphIdCert) {
        let kp = EphIdKeyPair::from_seed([seed; 32]);
        let (sp, dp) = kp.public_keys();
        let hid = node.infra.host_db.generate_hid();
        node.infra.host_db.register(
            hid,
            crate::keys::HostAsKey::from_dh(&apna_crypto::x25519::SharedSecret([seed; 32]))
                .unwrap(),
            Timestamp(0),
        );
        let (_, cert) = node
            .ms
            .issue(hid, sp, dp, kind, ExpiryClass::Short, Timestamp(0));
        (kp, cert)
    }

    #[test]
    fn both_sides_derive_same_key() {
        let w = world();
        let (ka, ca) = issue(&w.a, 1, CertKind::Data);
        let (kb, cb) = issue(&w.b, 2, CertKind::Data);
        verify_peer_cert(&cb, &w.dir, Timestamp(1)).unwrap();
        verify_peer_cert(&ca, &w.dir, Timestamp(1)).unwrap();
        let cha =
            SecureChannel::establish(&ka, ca.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        let chb =
            SecureChannel::establish(&kb, cb.ephid, &ca.dh_public(), ca.ephid, Role::Responder)
                .unwrap();
        assert_eq!(cha.fingerprint(), chb.fingerprint());
    }

    #[test]
    fn bidirectional_traffic() {
        let w = world();
        let (ka, ca) = issue(&w.a, 1, CertKind::Data);
        let (kb, cb) = issue(&w.b, 2, CertKind::Data);
        let mut cha =
            SecureChannel::establish(&ka, ca.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        let mut chb =
            SecureChannel::establish(&kb, cb.ephid, &ca.dh_public(), ca.ephid, Role::Responder)
                .unwrap();
        let c1 = cha.seal(b"", b"hello from A");
        assert_eq!(chb.open(b"", &c1).unwrap(), b"hello from A");
        let c2 = chb.seal(b"", b"hello from B");
        assert_eq!(cha.open(b"", &c2).unwrap(), b"hello from B");
        // Many packets both ways.
        for i in 0..50u32 {
            let msg = i.to_be_bytes();
            let c = cha.seal(b"", &msg);
            assert_eq!(chb.open(b"", &c).unwrap(), msg);
        }
    }

    #[test]
    fn replayed_payload_rejected() {
        let w = world();
        let (ka, ca) = issue(&w.a, 1, CertKind::Data);
        let (kb, cb) = issue(&w.b, 2, CertKind::Data);
        let mut cha =
            SecureChannel::establish(&ka, ca.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        let mut chb =
            SecureChannel::establish(&kb, cb.ephid, &ca.dh_public(), ca.ephid, Role::Responder)
                .unwrap();
        let c = cha.seal(b"", b"once");
        assert_eq!(chb.open(b"", &c).unwrap(), b"once");
        assert_eq!(chb.open(b"", &c), Err(Error::Replay));
    }

    #[test]
    fn tampered_payload_rejected() {
        let w = world();
        let (ka, ca) = issue(&w.a, 1, CertKind::Data);
        let (kb, cb) = issue(&w.b, 2, CertKind::Data);
        let mut cha =
            SecureChannel::establish(&ka, ca.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        let mut chb =
            SecureChannel::establish(&kb, cb.ephid, &ca.dh_public(), ca.ephid, Role::Responder)
                .unwrap();
        let mut c = cha.seal(b"", b"payload");
        let last = c.len() - 1;
        c[last] ^= 1;
        assert!(matches!(chb.open(b"", &c), Err(Error::Crypto(_))));
    }

    #[test]
    fn in_place_forms_match_the_allocating_ones() {
        let w = world();
        let (ka, ca) = issue(&w.a, 1, CertKind::Data);
        let (kb, cb) = issue(&w.b, 2, CertKind::Data);
        let establish = || {
            (
                SecureChannel::establish(&ka, ca.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                    .unwrap(),
                SecureChannel::establish(&kb, cb.ephid, &ca.dh_public(), ca.ephid, Role::Responder)
                    .unwrap(),
            )
        };
        let (mut a1, mut b1) = establish();
        let (mut a2, mut b2) = establish();
        for len in [0usize, 1, 64, 1400] {
            let msg = vec![len as u8; len];
            let sealed = a1.seal(b"aad", &msg);
            assert_eq!(sealed.len(), msg.len() + SEAL_OVERHEAD);
            // seal_into appends after whatever the frame already holds.
            let mut frame = vec![0x03];
            // ... from however many pieces the plaintext comes in.
            let (head, tail) = msg.split_at(len / 3);
            a2.seal_into(b"aad", &[head, tail], &mut frame);
            assert_eq!(frame[0], 0x03);
            assert_eq!(frame[1..], sealed[..]);
            assert_eq!(b1.open(b"aad", &sealed).unwrap(), msg);
            assert_eq!(b2.open_in_place(b"aad", &mut frame[1..]).unwrap(), msg);
        }
        // Same replay and authentication verdicts, and no plaintext left
        // behind by a rejected frame.
        let sealed = a1.seal(b"aad", b"secret payload");
        let mut replayed = sealed.clone();
        assert_eq!(
            b1.open_in_place(b"aad", &mut replayed).unwrap(),
            b"secret payload"
        );
        let mut again = sealed.clone();
        assert_eq!(b1.open_in_place(b"aad", &mut again), Err(Error::Replay));
        let mut forged = a2.seal(b"aad", b"secret payload");
        let last = forged.len() - 1;
        forged[last] ^= 1;
        assert!(matches!(
            b2.open_in_place(b"aad", &mut forged),
            Err(Error::Crypto(_))
        ));
        assert!(forged[SEQ_LEN..last + 1 - TAG_LEN].iter().all(|&b| b == 0));
        assert_eq!(
            b2.open_in_place(b"aad", &mut [0u8; 7]),
            Err(Error::Session("sealed payload too short"))
        );
        assert!(matches!(
            b2.open_in_place(b"aad", &mut [0u8; SEQ_LEN + TAG_LEN - 1]),
            Err(Error::Crypto(_))
        ));
    }

    #[test]
    fn distinct_sessions_distinct_keys_pfs() {
        // PFS: a new EphID pair ⇒ an unrelated session key, so disclosure
        // of one session's key (or any long-term key) reveals nothing about
        // others (§VI-B).
        let w = world();
        let (ka1, ca1) = issue(&w.a, 1, CertKind::Data);
        let (ka2, ca2) = issue(&w.a, 3, CertKind::Data);
        let (_kb, cb) = issue(&w.b, 2, CertKind::Data);
        let ch1 =
            SecureChannel::establish(&ka1, ca1.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        let ch2 =
            SecureChannel::establish(&ka2, ca2.ephid, &cb.dh_public(), cb.ephid, Role::Initiator)
                .unwrap();
        assert_ne!(ch1.fingerprint(), ch2.fingerprint());
    }

    #[test]
    fn mitm_with_forged_cert_fails() {
        // §VI-B: a malicious AS swaps the victim's certificate for its own.
        // The peer verifies against the *claimed issuing AS's* published
        // key, so the forged cert must fail.
        let w = world();
        let (_ka, ca) = issue(&w.a, 1, CertKind::Data);
        let mallory_keys = crate::keys::AsKeys::from_seed(&[66; 32]);
        let forged = EphIdCert::issue(
            &mallory_keys.signing,
            ca.ephid,
            ca.exp_time,
            [1; 32],
            [2; 32],
            ca.aid, // claims to be from AS 1
            ca.aa_ephid,
            CertKind::Data,
        );
        assert!(verify_peer_cert(&forged, &w.dir, Timestamp(1)).is_err());
    }

    #[test]
    fn client_server_full_handshake() {
        let w = world();
        // Server in AS-B: receive-only EphID (published via DNS) + serving
        // EphID.
        let (recv_kp, recv_cert) = issue(&w.b, 10, CertKind::ReceiveOnly);
        let (serve_kp, serve_cert) = issue(&w.b, 11, CertKind::Data);
        // Client in AS-A.
        let (client_kp, client_cert) = issue(&w.a, 12, CertKind::Data);

        let (pending, hello) = client_connect(
            &client_kp,
            &client_cert,
            &recv_cert,
            &w.dir,
            Timestamp(1),
            Some(b"GET / HTTP/1.1"),
        )
        .unwrap();

        let (mut server_ch, early, accept) = server_accept_with_recv_ephid(
            &recv_kp,
            recv_cert.ephid,
            &serve_kp,
            &serve_cert,
            &hello,
            &w.dir,
            Timestamp(1),
            b"200 OK",
        )
        .unwrap();
        assert_eq!(early.unwrap(), b"GET / HTTP/1.1");

        let (mut client_ch, response) =
            client_finish(&pending, &accept, &w.dir, Timestamp(1)).unwrap();
        assert_eq!(response, b"200 OK");
        assert_eq!(client_ch.fingerprint(), server_ch.fingerprint());

        // Steady-state data flows on the final channel.
        let c = client_ch.seal(b"", b"POST /data");
        assert_eq!(server_ch.open(b"", &c).unwrap(), b"POST /data");
    }

    #[test]
    fn client_server_without_early_data() {
        let w = world();
        let (recv_kp, recv_cert) = issue(&w.b, 10, CertKind::ReceiveOnly);
        let (serve_kp, serve_cert) = issue(&w.b, 11, CertKind::Data);
        let (client_kp, client_cert) = issue(&w.a, 12, CertKind::Data);

        let (pending, hello) = client_connect(
            &client_kp,
            &client_cert,
            &recv_cert,
            &w.dir,
            Timestamp(1),
            None,
        )
        .unwrap();
        assert!(hello.early_data.is_none());
        let (_server_ch, early, accept) = server_accept_with_recv_ephid(
            &recv_kp,
            recv_cert.ephid,
            &serve_kp,
            &serve_cert,
            &hello,
            &w.dir,
            Timestamp(1),
            b"hi",
        )
        .unwrap();
        assert!(early.is_none());
        let (_client_ch, response) =
            client_finish(&pending, &accept, &w.dir, Timestamp(1)).unwrap();
        assert_eq!(response, b"hi");
    }

    #[test]
    fn client_rejects_forged_serving_cert() {
        let w = world();
        let (recv_kp, recv_cert) = issue(&w.b, 10, CertKind::ReceiveOnly);
        let (serve_kp, serve_cert) = issue(&w.b, 11, CertKind::Data);
        let (client_kp, client_cert) = issue(&w.a, 12, CertKind::Data);
        let (pending, hello) = client_connect(
            &client_kp,
            &client_cert,
            &recv_cert,
            &w.dir,
            Timestamp(1),
            None,
        )
        .unwrap();
        let (_ch, _early, mut accept) = server_accept_with_recv_ephid(
            &recv_kp,
            recv_cert.ephid,
            &serve_kp,
            &serve_cert,
            &hello,
            &w.dir,
            Timestamp(1),
            b"x",
        )
        .unwrap();
        // MitM swaps the serving certificate.
        let mallory = crate::keys::AsKeys::from_seed(&[67; 32]);
        accept.serving_cert = EphIdCert::issue(
            &mallory.signing,
            accept.serving_cert.ephid,
            accept.serving_cert.exp_time,
            [1; 32],
            [2; 32],
            accept.serving_cert.aid,
            accept.serving_cert.aa_ephid,
            CertKind::Data,
        );
        assert!(client_finish(&pending, &accept, &w.dir, Timestamp(1)).is_err());
    }

    #[test]
    fn connect_requires_receive_only_cert() {
        let w = world();
        let (_kp, data_cert) = issue(&w.b, 10, CertKind::Data);
        let (client_kp, client_cert) = issue(&w.a, 12, CertKind::Data);
        assert_eq!(
            client_connect(
                &client_kp,
                &client_cert,
                &data_cert,
                &w.dir,
                Timestamp(1),
                None
            )
            .unwrap_err(),
            Error::Session("server cert is not receive-only")
        );
    }

    #[test]
    fn expired_peer_cert_rejected() {
        let w = world();
        let (_ka, ca) = issue(&w.a, 1, CertKind::Data);
        assert_eq!(
            verify_peer_cert(&ca, &w.dir, Timestamp(10_000)),
            Err(Error::Expired)
        );
    }

    #[test]
    fn handshake_mode_rtt_table() {
        // The §VII-C numbers, reproduced by experiment E5.
        assert_eq!(HandshakeMode::HostHost.rtts_before_data(), 1.0);
        assert_eq!(HandshakeMode::HostHostZeroRtt.rtts_before_data(), 0.0);
        assert_eq!(HandshakeMode::ClientServer.rtts_before_data(), 1.5);
        assert_eq!(HandshakeMode::ClientServerHalfRtt.rtts_before_data(), 0.5);
        assert_eq!(HandshakeMode::ClientServerZeroRtt.rtts_before_data(), 0.0);
    }
}
