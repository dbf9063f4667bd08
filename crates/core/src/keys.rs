//! Key material and derivations.
//!
//! The paper's notation (Table I) names three symmetric keys:
//!
//! * `k_A` — the AS's secret. §V-A1 derives two subkeys from it: `k_A'`
//!   encrypts EphIDs (AES-CTR) and `k_A''` authenticates them (CBC-MAC).
//!   We add a third derivation, the infrastructure key that authenticates
//!   AA → border-router revocation orders (`k_AS` in Fig. 5).
//! * `k_HA` — the host↔AS key from the bootstrap DH exchange. §IV-B: "the
//!   two keys are derived from the result of the DH exchange" — one
//!   encrypts EphID requests/replies, one authenticates every packet.
//! * `k_EaEb` — the per-session key two hosts derive from their EphID key
//!   pairs (derived in [`crate::session`]).
//!
//! Asymmetric material: the paper simplifies by letting an AS use "the same
//! public/private key pairs for signing messages and key exchanges"
//! (§IV-A). Curve25519 signing/DH key unification needs a birational-map
//! conversion; this reproduction carries an Ed25519 signing key and an
//! X25519 DH key side by side in one [`AsKeys`] bundle — the transparent
//! equivalent, noted in DESIGN.md.

use apna_crypto::aes::Aes128;
use apna_crypto::cmac::CmacAes128;
use apna_crypto::ed25519::{SigningKey, VerifyingKey};
use apna_crypto::gcm::AesGcm128;
use apna_crypto::hkdf;
use apna_crypto::x25519::{PublicKey, SharedSecret, StaticSecret};
use rand::{CryptoRng, RngCore};
use std::sync::Arc;

/// The complete key bundle of one AS.
pub struct AsKeys {
    /// Root symmetric secret `k_A`; all symmetric subkeys derive from it.
    root: [u8; 32],
    /// Ed25519 domain key: signs certificates and bootstrap messages.
    pub signing: SigningKey,
    /// X25519 domain key: host↔AS bootstrap Diffie-Hellman.
    pub dh: StaticSecret,
}

impl AsKeys {
    /// Generates a fresh AS key bundle.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> AsKeys {
        let mut root = [0u8; 32];
        rng.fill_bytes(&mut root);
        AsKeys {
            root,
            signing: SigningKey::generate(rng),
            dh: StaticSecret::random_from_rng(rng),
        }
    }

    /// Deterministic construction from a seed (tests, reproducible sims).
    #[must_use]
    pub fn from_seed(seed: &[u8; 32]) -> AsKeys {
        let root: [u8; 32] = hkdf::derive_key(b"apna-as-root", seed, b"root");
        let sign_seed: [u8; 32] = hkdf::derive_key(b"apna-as-sign", seed, b"sign");
        let dh_seed: [u8; 32] = hkdf::derive_key(b"apna-as-dh", seed, b"dh");
        AsKeys {
            root,
            signing: SigningKey::from_seed(&sign_seed),
            dh: StaticSecret::from_bytes(dh_seed),
        }
    }

    /// `k_A'`: the AES-128 cipher that encrypts EphID plaintexts (Fig. 6).
    #[must_use]
    pub fn ephid_enc_cipher(&self) -> Aes128 {
        let key: [u8; 16] = hkdf::derive_key(b"apna-ka", &self.root, b"ephid-enc");
        Aes128::new(&key)
    }

    /// `k_A''`: the AES-128 cipher behind the EphID CBC-MAC (Fig. 6).
    #[must_use]
    pub fn ephid_mac_cipher(&self) -> Aes128 {
        let key: [u8; 16] = hkdf::derive_key(b"apna-ka", &self.root, b"ephid-mac");
        Aes128::new(&key)
    }

    /// The infrastructure key authenticating AA → border-router revocation
    /// orders (`MAC_kAS(revoke EphID_s)` in Fig. 5).
    #[must_use]
    pub fn infra_cmac(&self) -> CmacAes128 {
        let key: [u8; 16] = hkdf::derive_key(b"apna-ka", &self.root, b"infra");
        CmacAes128::new(&key)
    }

    /// The AS's certificate-verification key, published via the RPKI
    /// stand-in ([`crate::directory`]).
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// The AS's DH public key, learned by hosts during authentication.
    #[must_use]
    pub fn dh_public(&self) -> PublicKey {
        self.dh.public_key()
    }
}

impl core::fmt::Debug for AsKeys {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AsKeys(vk: {:?})", self.verifying_key())
    }
}

/// The host↔AS shared key `k_HA`, split per §IV-B into an encryption half
/// (EphID request/reply protection) and an authentication half (per-packet
/// MAC).
#[derive(Clone)]
pub struct HostAsKey {
    enc: [u8; 16],
    auth: [u8; 16],
    /// The AEAD over `enc`, expanded once when the key is derived or
    /// restored (key schedule, GHASH subkey and its power table) and shared
    /// by every clone. Derived state: never serialized, never printed.
    aead: Arc<AesGcm128>,
    /// The packet CMAC over `auth`, expanded and shared the same way: the
    /// host MACs every packet it sends with it, and the border router
    /// verifies every egress packet with it.
    cmac: Arc<CmacAes128>,
}

impl HostAsKey {
    fn from_halves(enc: [u8; 16], auth: [u8; 16]) -> HostAsKey {
        HostAsKey {
            aead: Arc::new(AesGcm128::new(&enc)),
            cmac: Arc::new(CmacAes128::new(&auth)),
            enc,
            auth,
        }
    }

    /// Derives both halves from the bootstrap DH shared secret. Returns
    /// `None` for a non-contributory exchange (low-order peer point).
    #[must_use]
    pub fn from_dh(shared: &SharedSecret) -> Option<HostAsKey> {
        if !shared.is_contributory() {
            return None;
        }
        Some(HostAsKey::from_halves(
            hkdf::derive_key(b"apna-kha", shared.as_bytes(), b"enc"),
            hkdf::derive_key(b"apna-kha", shared.as_bytes(), b"auth"),
        ))
    }

    /// AEAD for EphID request/reply messages (`E_kHA(...)` in Fig. 3; we
    /// use AES-GCM as the CCA-secure scheme the paper calls for). Borrowed
    /// from the key: no key schedule runs per request.
    #[must_use]
    pub fn aead(&self) -> &AesGcm128 {
        &self.aead
    }

    /// An owned copy of [`HostAsKey::aead`], for callers that keep the
    /// AEAD apart from the key.
    #[must_use]
    pub fn request_aead(&self) -> AesGcm128 {
        AesGcm128::clone(&self.aead)
    }

    /// CMAC for per-packet authentication (`k_HA^auth`). Borrowed from the
    /// key: no key schedule runs per packet.
    #[must_use]
    pub fn cmac(&self) -> &CmacAes128 {
        &self.cmac
    }

    /// The shared handle behind [`HostAsKey::cmac`], for tables that hand
    /// the CMAC out apart from the key.
    pub(crate) fn shared_cmac(&self) -> Arc<CmacAes128> {
        Arc::clone(&self.cmac)
    }

    /// An owned copy of [`HostAsKey::cmac`], for callers that keep the
    /// CMAC apart from the key.
    #[must_use]
    pub fn packet_cmac(&self) -> CmacAes128 {
        CmacAes128::clone(&self.cmac)
    }

    /// Test/diagnostic accessor: the two halves differ.
    #[must_use]
    pub fn halves_differ(&self) -> bool {
        self.enc != self.auth
    }

    /// Serializes both halves (`enc ‖ auth`) for the durable control log
    /// ([`crate::ctrl_log`]). This is raw key material: the log file must
    /// be protected like the AS's own key store.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[..16].copy_from_slice(&self.enc);
        out[16..].copy_from_slice(&self.auth);
        out
    }

    /// Reverses [`HostAsKey::to_bytes`] (control-log replay).
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> HostAsKey {
        let mut enc = [0u8; 16];
        let mut auth = [0u8; 16];
        enc.copy_from_slice(&bytes[..16]);
        auth.copy_from_slice(&bytes[16..]);
        HostAsKey::from_halves(enc, auth)
    }
}

impl core::fmt::Debug for HostAsKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HostAsKey(..)") // never print key material
    }
}

/// The key pair bound to one EphID.
///
/// The paper binds a single key pair per EphID and uses it both for ECDH
/// (session keys, §IV-D1) and for signing (shutoff requests, §IV-E). As
/// with the AS keys, we carry the Ed25519 and X25519 halves explicitly,
/// derived from one 32-byte seed so the host stores only the seed.
///
/// The pair is the seed plus the two public halves (96 bytes): a host
/// holds one per EphID it owns, and issuance and session setup read the
/// public halves, while the secret halves are needed only to sign (rare)
/// or to run one DH per session. So [`EphIdKeyPair::sign`] and
/// [`EphIdKeyPair::dh`] re-derive them from the seed on each call.
#[derive(Clone)]
pub struct EphIdKeyPair {
    seed: [u8; 32],
    sign_pub: [u8; 32],
    dh_pub: [u8; 32],
}

impl EphIdKeyPair {
    /// Generates a fresh per-EphID key pair.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> EphIdKeyPair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        EphIdKeyPair::from_seed(seed)
    }

    /// Derives both halves from a seed, computing each public half once.
    #[must_use]
    pub fn from_seed(seed: [u8; 32]) -> EphIdKeyPair {
        let mut pair = EphIdKeyPair {
            seed,
            sign_pub: [0; 32],
            dh_pub: [0; 32],
        };
        pair.sign_pub = *pair.sign().verifying_key().as_bytes();
        pair.dh_pub = pair.dh().public_key().0;
        pair
    }

    /// Re-assembles a pair from its seed and public halves without deriving
    /// them again. Only for halves already checked to be `seed`'s: a
    /// certificate accepted for this pair certifies exactly them.
    pub(crate) fn from_checked_parts(
        seed: [u8; 32],
        sign_pub: [u8; 32],
        dh_pub: [u8; 32],
    ) -> EphIdKeyPair {
        EphIdKeyPair {
            seed,
            sign_pub,
            dh_pub,
        }
    }

    /// The seed (so a host can persist one 32-byte value per EphID).
    #[must_use]
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Signing half (shutoff authorization, DNS proof of possession),
    /// re-derived from the seed.
    #[must_use]
    pub fn sign(&self) -> SigningKey {
        SigningKey::from_seed(&hkdf::derive_key(b"apna-ephid-key", &self.seed, b"sign"))
    }

    /// DH half (session-key establishment), re-derived from the seed.
    #[must_use]
    pub fn dh(&self) -> StaticSecret {
        StaticSecret::from_bytes(hkdf::derive_key(b"apna-ephid-key", &self.seed, b"dh"))
    }

    /// Public halves in certificate order: `(sign_pub, dh_pub)`.
    #[must_use]
    pub fn public_keys(&self) -> ([u8; 32], [u8; 32]) {
        (self.sign_pub, self.dh_pub)
    }
}

impl core::fmt::Debug for EphIdKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EphIdKeyPair(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn subkeys_are_domain_separated() {
        let keys = AsKeys::from_seed(&[1u8; 32]);
        // k_A' and k_A'' must differ: encrypting the same block must give
        // different results.
        let block = [0u8; 16];
        assert_ne!(
            keys.ephid_enc_cipher().encrypt(&block),
            keys.ephid_mac_cipher().encrypt(&block)
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let a = AsKeys::from_seed(&[7u8; 32]);
        let b = AsKeys::from_seed(&[7u8; 32]);
        assert_eq!(a.verifying_key().as_bytes(), b.verifying_key().as_bytes());
        assert_eq!(a.dh_public().0, b.dh_public().0);
        let c = AsKeys::from_seed(&[8u8; 32]);
        assert_ne!(a.verifying_key().as_bytes(), c.verifying_key().as_bytes());
    }

    #[test]
    fn host_as_key_halves_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = StaticSecret::random_from_rng(&mut rng);
        let b = StaticSecret::random_from_rng(&mut rng);
        let kha = HostAsKey::from_dh(&a.diffie_hellman(&b.public_key())).unwrap();
        assert!(kha.halves_differ());
    }

    #[test]
    fn both_sides_derive_same_kha() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let host = StaticSecret::random_from_rng(&mut rng);
        let as_keys = AsKeys::generate(&mut rng);
        let host_side = HostAsKey::from_dh(&host.diffie_hellman(&as_keys.dh_public())).unwrap();
        let as_side = HostAsKey::from_dh(&as_keys.dh.diffie_hellman(&host.public_key())).unwrap();
        // Same CMAC key ⇔ same MAC on a probe message.
        let probe = b"probe";
        assert_eq!(
            host_side.packet_cmac().mac(probe),
            as_side.packet_cmac().mac(probe)
        );
        // Same AEAD key ⇔ successful open.
        let sealed = host_side.aead().seal(&[0u8; 12], b"", b"req");
        assert_eq!(
            as_side.aead().open(&[0u8; 12], b"", &sealed).unwrap(),
            b"req"
        );
        // The owned copy and a restored key open the same bytes.
        assert_eq!(
            as_side
                .request_aead()
                .open(&[0u8; 12], b"", &sealed)
                .unwrap(),
            b"req"
        );
        assert_eq!(
            HostAsKey::from_bytes(&as_side.to_bytes())
                .aead()
                .open(&[0u8; 12], b"", &sealed)
                .unwrap(),
            b"req"
        );
    }

    #[test]
    fn low_order_dh_rejected() {
        let shared = SharedSecret([0u8; 32]);
        assert!(HostAsKey::from_dh(&shared).is_none());
    }

    #[test]
    fn ephid_keypair_from_seed_is_deterministic() {
        let kp1 = EphIdKeyPair::from_seed([3u8; 32]);
        let kp2 = EphIdKeyPair::from_seed([3u8; 32]);
        assert_eq!(kp1.public_keys(), kp2.public_keys());
        let (sign_pub, dh_pub) = kp1.public_keys();
        assert_ne!(sign_pub, dh_pub, "halves must be independent keys");
    }

    #[test]
    fn ephid_keypair_signing_works() {
        let kp = EphIdKeyPair::from_seed([4u8; 32]);
        let sig = kp.sign().sign(b"shutoff evidence");
        kp.sign()
            .verifying_key()
            .verify(b"shutoff evidence", &sig)
            .unwrap();
    }

    /// The 96-byte pair derives exactly what the pair that cached both
    /// expanded secret halves did: public halves, signatures and DH
    /// results for three fixed seeds, recorded from that layout.
    #[test]
    fn ephid_keypair_derivation_is_pinned() {
        use apna_crypto::hex::encode;
        let mut counting = [0u8; 32];
        for (i, b) in counting.iter_mut().enumerate() {
            *b = i as u8;
        }
        let peer = StaticSecret::from_bytes([0x77; 32]).public_key();
        let pins = [
            (
                [0x01; 32],
                "aa25e454cd7b3ac581838b701b65b43fc5866ee0253974e88da5dcd6b3aa5d2e",
                "95ccbaa1d6ab12ea9df1434fc316dda7f598ab6715df5ee21ccb45dfb46d783e",
                "01c564da3043c4cdef62d87162e988c20a12683cc33e962bc4b77b3611f4bded\
                 d6b490e1191b7c7c56a4ca7e5984a520324085b534e8da172a97eb2c2614990f",
                "1eab5dcb2ea102d34395fadeee16137ca822b8599457b767403827beb84a4f08",
            ),
            (
                [0x5a; 32],
                "53661cfbe4a38661922edc7f318402ba0230ca0c38952240f47b42d7571f8b48",
                "9520f88291f6634256c9dfe127e0c96cf9c661a842bd436b1a0e2ad202672731",
                "510aca4ac8f8019cb705aebf55e786baeb114faf2265f9e9f52da05c170e0452\
                 1d7ce076a86c66ef3ba169d9d042bdd8bc95443a1624ff80e8bc64652b489b0b",
                "98c593706c5a5edad0883958ed1ba44139e75fc24cd2e99e84c98348f9a4891f",
            ),
            (
                counting,
                "21ef6ff1180589d928691cd555789c380512e6d4d8e8e5b365007adc2b2b4a27",
                "bf97c6c6c0ba866e749a7f04248a47c65286397325489b21ccdcddcd9299fe20",
                "dc77125da1c353932e99aefb98d46b1eff37451933088ba695636e693793868b\
                 b510d223e4da3403a928828eb9bcae3efe6ebc9c2e13fb4ba1c540c8a373a90c",
                "ba77523e2ccde49cdadbc54c2a371fba03957e2a38672515032fdd7ba5efa854",
            ),
        ];
        for (seed, sign_pub, dh_pub, sig, shared) in pins {
            let kp = EphIdKeyPair::from_seed(seed);
            let (sp, dp) = kp.public_keys();
            assert_eq!(encode(&sp), sign_pub);
            assert_eq!(encode(&dp), dh_pub);
            assert_eq!(
                encode(&kp.sign().sign(b"apna shutoff evidence").to_bytes()),
                sig
            );
            assert_eq!(encode(kp.dh().diffie_hellman(&peer).as_bytes()), shared);
            // The cached public halves agree with the re-derived secrets.
            assert_eq!(sp, *kp.sign().verifying_key().as_bytes());
            assert_eq!(dp, kp.dh().public_key().0);
        }
    }

    /// A host holds one pair per owned EphID; this is the per-EphID
    /// memory budget (seed + two public halves).
    #[test]
    fn ephid_keypair_fits_in_96_bytes() {
        assert!(std::mem::size_of::<EphIdKeyPair>() <= 96);
    }
}
