//! The EphID construction of Fig. 6 (§V-A1).
//!
//! An EphID is a CCA-secure encryption of `(HID, ExpTime)` under the AS's
//! secret, assembled by Encrypt-then-MAC:
//!
//! ```text
//!  plaintext block   HID (4) ‖ ExpTime (4) ‖ 0⁸            (16 B)
//!  AES-CTR (k_A')    counter block = IV (4) ‖ 0¹²          → CT, keep 8 B
//!  CBC-MAC (k_A'')   over CT (8) ‖ IV (4) ‖ 0⁴ (one block) → tag, keep 4 B
//!  EphID             CT (8) ‖ IV (4) ‖ tag (4)             (16 B)
//! ```
//!
//! Design properties the tests pin down:
//!
//! * **Statelessness** — the AS recovers `(HID, ExpTime)` from the EphID
//!   alone; no mapping table (§IV design choice 1).
//! * **Unlinkability** — two EphIDs for the same HID with different IVs
//!   share no structure (CTR keystream differs).
//! * **Unforgeability** — flipping any bit invalidates the CBC-MAC; only
//!   the AS holds `k_A''` (§VI-A "Unauthorized EphID Generation").
//! * CBC-MAC is safe here because the MAC input is a *fixed* single block
//!   (paper footnote 3).

use crate::hid::Hid;
use crate::keys::AsKeys;
use crate::time::Timestamp;
use apna_crypto::aes::Aes128;
use apna_crypto::cbcmac::cbc_mac_block;
use apna_crypto::ct::ct_eq;
use apna_crypto::ctr;
use apna_wire::EphIdBytes;
use std::sync::atomic::{AtomicU32, Ordering};

/// Failures when authenticating/decrypting an EphID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EphIdError {
    /// The 4-byte CBC-MAC tag did not verify: forged or corrupted EphID,
    /// or an EphID issued by a different AS.
    BadMac,
}

/// The plaintext carried inside an EphID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EphIdPlain {
    /// The issuing AS's identifier for the host.
    pub hid: Hid,
    /// Expiration time (validity is *inclusive* of this second).
    pub exp_time: Timestamp,
}

/// Issues (encrypts + authenticates) an EphID for `plain` using `iv`.
///
/// The caller must ensure IV uniqueness per AS key epoch — "secure operation
/// of this mode requires a unique initialization vector for every
/// encryption" (§V-A1). [`IvAllocator`] provides that.
#[must_use]
pub fn seal(keys: &AsKeys, plain: EphIdPlain, iv: [u8; 4]) -> EphIdBytes {
    seal_with(
        &keys.ephid_enc_cipher(),
        &keys.ephid_mac_cipher(),
        plain,
        iv,
    )
}

/// [`seal`] with pre-expanded ciphers — the hot path for the Management
/// Service, which issues EphIDs at line rate (§V-A3) and must not re-run
/// the key schedule per request.
#[must_use]
pub fn seal_with(enc: &Aes128, mac: &Aes128, plain: EphIdPlain, iv: [u8; 4]) -> EphIdBytes {
    // Encrypt HID ‖ ExpTime with CTR; the 8-byte zero padding of Fig. 6
    // only pads the block — its keystream is discarded with the tail.
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&plain.hid.to_bytes());
    buf[4..].copy_from_slice(&plain.exp_time.to_bytes());
    ctr::apply_keystream(enc, &ctr::ephid_counter_block(iv), &mut buf);

    // Authenticate CT ‖ IV in a single fixed-length CBC-MAC block.
    let mut mac_input = [0u8; 16];
    mac_input[..8].copy_from_slice(&buf);
    mac_input[8..12].copy_from_slice(&iv);
    let tag = cbc_mac_block(mac, &mac_input);

    EphIdBytes::from_parts(buf, iv, [tag[0], tag[1], tag[2], tag[3]])
}

/// Authenticates and decrypts an EphID back to `(HID, ExpTime)`.
///
/// This is the border router's first step for every packet (Fig. 4) and
/// costs one AES block for the MAC plus one for the CTR keystream.
pub fn open(keys: &AsKeys, ephid: &EphIdBytes) -> Result<EphIdPlain, EphIdError> {
    open_with(&keys.ephid_enc_cipher(), &keys.ephid_mac_cipher(), ephid)
}

/// [`open_with`] over a whole burst: authenticates and decrypts `ephids`
/// with exactly two batched cipher sweeps — one
/// [`cbc_mac_block_many`][apna_crypto::cbcmac::cbc_mac_block_many] over
/// all MAC inputs, one batched keystream generation over all counter
/// blocks — instead of two block calls per EphID. This is the border
/// router's stage-2 for a packet batch (Fig. 4): per-EphID results are
/// positionally aligned with the input, and each equals what
/// [`open_with`] returns for that EphID (batch/scalar equivalence is
/// proptested).
///
/// Keystream work is spent on failed-MAC entries too: constant work per
/// slot keeps the batch shape simple and leaks nothing about which EphIDs
/// in a burst verified.
pub fn open_many_with(
    enc: &Aes128,
    mac: &Aes128,
    ephids: &[EphIdBytes],
) -> Vec<Result<EphIdPlain, EphIdError>> {
    use apna_crypto::aes::Block;

    // Sweep 1: CBC-MAC tags for every EphID (one fixed block each).
    let mut mac_inputs: Vec<Block> = ephids
        .iter()
        .map(|e| {
            let mut m = [0u8; 16];
            m[..8].copy_from_slice(&e.ciphertext());
            m[8..12].copy_from_slice(&e.iv());
            m
        })
        .collect();
    apna_crypto::cbcmac::cbc_mac_block_many(mac, &mut mac_inputs);

    // Sweep 2: one CTR keystream block per EphID under its own IV.
    let counters: Vec<Block> = ephids
        .iter()
        .map(|e| ctr::ephid_counter_block(e.iv()))
        .collect();
    let mut keystreams = Vec::new();
    ctr::keystream_blocks(enc, &counters, &mut keystreams);

    ephids
        .iter()
        .zip(mac_inputs.iter().zip(keystreams.iter()))
        .map(|(e, (tag, ks))| {
            if !ct_eq(&tag[..4], &e.mac()) {
                return Err(EphIdError::BadMac);
            }
            let mut buf = e.ciphertext();
            for (b, k) in buf.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            let [h0, h1, h2, h3, t0, t1, t2, t3] = buf;
            Ok(EphIdPlain {
                hid: Hid::from_bytes([h0, h1, h2, h3]),
                exp_time: Timestamp::from_bytes([t0, t1, t2, t3]),
            })
        })
        .collect()
}

/// [`open`] with pre-expanded ciphers (border-router hot path).
pub fn open_with(enc: &Aes128, mac: &Aes128, ephid: &EphIdBytes) -> Result<EphIdPlain, EphIdError> {
    let ct = ephid.ciphertext();
    let iv = ephid.iv();

    let mut mac_input = [0u8; 16];
    mac_input[..8].copy_from_slice(&ct);
    mac_input[8..12].copy_from_slice(&iv);
    let tag = cbc_mac_block(mac, &mac_input);
    if !ct_eq(&tag[..4], &ephid.mac()) {
        return Err(EphIdError::BadMac);
    }

    let mut buf = ct;
    ctr::apply_keystream(enc, &ctr::ephid_counter_block(iv), &mut buf);
    let [h0, h1, h2, h3, t0, t1, t2, t3] = buf;
    Ok(EphIdPlain {
        hid: Hid::from_bytes([h0, h1, h2, h3]),
        exp_time: Timestamp::from_bytes([t0, t1, t2, t3]),
    })
}

/// Allocates unique 4-byte IVs for EphID issuance.
///
/// A plain atomic counter: uniqueness is what CTR mode needs, not
/// unpredictability (the EphID's confidentiality rests on the keystream,
/// and linkability via sequential IVs is prevented by the fact that *which
/// host* got which IV is known only to the AS — an observer sees unordered
/// IVs across all hosts of the AS). 2³² issuances per key epoch bounds use;
/// the MS must rotate `k_A` before exhaustion.
#[derive(Debug, Default)]
pub struct IvAllocator {
    next: AtomicU32,
}

impl IvAllocator {
    /// Starts allocating from `start` (useful for deterministic tests).
    #[must_use]
    pub fn starting_at(start: u32) -> IvAllocator {
        IvAllocator {
            next: AtomicU32::new(start),
        }
    }

    /// Returns the next unique IV. Panics on exhaustion of the 2³² space
    /// (key rotation must happen long before), on this call and every later
    /// one: the counter stays at `u32::MAX` instead of wrapping to IVs
    /// already handed out.
    pub fn next_iv(&self) -> [u8; 4] {
        // `Err` carries the unchanged counter: `u32::MAX`, exhausted.
        let (Ok(v) | Err(v)) = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_add(1));
        assert!(v != u32::MAX, "IV space exhausted; rotate k_A");
        v.to_be_bytes()
    }

    /// Number of IVs handed out so far.
    pub fn issued(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }

    /// Raises the counter to at least `floor` (control-log replay: a
    /// restarted AS must never re-hand an IV that a pre-crash issuance
    /// may have consumed — IV reuse under CTR reuses keystream).
    pub fn advance_to(&self, floor: u32) {
        self.next.fetch_max(floor, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustion is sticky: the last IV comes out once, then every call
    /// panics and the counter never wraps back to IVs already issued.
    #[test]
    fn iv_allocator_never_wraps() {
        let ivs = IvAllocator::starting_at(u32::MAX - 1);
        assert_eq!(ivs.next_iv(), (u32::MAX - 1).to_be_bytes());
        for _ in 0..3 {
            let call = std::panic::catch_unwind(|| ivs.next_iv());
            assert!(call.is_err(), "an exhausted allocator must panic");
            assert_eq!(ivs.issued(), u32::MAX);
        }
    }

    fn keys() -> AsKeys {
        AsKeys::from_seed(&[42u8; 32])
    }

    fn plain() -> EphIdPlain {
        EphIdPlain {
            hid: Hid(0x0a00_0001),
            exp_time: Timestamp(1_700_000_000),
        }
    }

    #[test]
    fn roundtrip() {
        let k = keys();
        let e = seal(&k, plain(), [0, 0, 0, 1]);
        assert_eq!(open(&k, &e).unwrap(), plain());
    }

    #[test]
    fn is_16_bytes_fig6() {
        let e = seal(&keys(), plain(), [9, 9, 9, 9]);
        assert_eq!(e.as_bytes().len(), 16);
        assert_eq!(e.iv(), [9, 9, 9, 9]);
    }

    #[test]
    fn stateless_recovery_without_tables() {
        // Issue many EphIDs, then open them in arbitrary order with nothing
        // but the key — no mapping state (§IV design choice 1).
        let k = keys();
        let ids: Vec<_> = (0..100u32)
            .map(|i| {
                let p = EphIdPlain {
                    hid: Hid(i),
                    exp_time: Timestamp(1000 + i),
                };
                (p, seal(&k, p, i.to_be_bytes()))
            })
            .collect();
        for (p, e) in ids.iter().rev() {
            assert_eq!(open(&k, e).unwrap(), *p);
        }
    }

    #[test]
    fn same_hid_different_ivs_unlinkable_bytes() {
        // "the use of the IV allows us to generate multiple EphIDs for a
        // single HID" — and their ciphertexts must not repeat.
        let k = keys();
        let e1 = seal(&k, plain(), [0, 0, 0, 1]);
        let e2 = seal(&k, plain(), [0, 0, 0, 2]);
        assert_ne!(e1.ciphertext(), e2.ciphertext());
        assert_ne!(e1.mac(), e2.mac());
        assert_eq!(open(&k, &e1).unwrap(), open(&k, &e2).unwrap());
    }

    #[test]
    fn every_bit_flip_invalidates() {
        // §VI-A: unauthorized EphID generation / modification must fail.
        let k = keys();
        let e = seal(&k, plain(), [1, 2, 3, 4]);
        for byte in 0..16 {
            for bit in 0..8 {
                let mut forged = *e.as_bytes();
                forged[byte] ^= 1 << bit;
                let forged = EphIdBytes(forged);
                assert_eq!(
                    open(&k, &forged),
                    Err(EphIdError::BadMac),
                    "flip at byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn other_as_cannot_open() {
        // An EphID is "meaningful only to the issuing AS" (§III-B).
        let e = seal(&keys(), plain(), [5, 5, 5, 5]);
        let other = AsKeys::from_seed(&[43u8; 32]);
        assert_eq!(open(&other, &e), Err(EphIdError::BadMac));
    }

    #[test]
    fn adversary_cannot_mint() {
        // Without k_A'' the chance of a valid 4-byte tag is 2^-32; check a
        // few random forgeries fail.
        use rand::{RngCore, SeedableRng};
        let k = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let mut bytes = [0u8; 16];
            rng.fill_bytes(&mut bytes);
            assert_eq!(open(&k, &EphIdBytes(bytes)), Err(EphIdError::BadMac));
        }
    }

    #[test]
    fn hot_path_matches_cold_path() {
        let k = keys();
        let enc = k.ephid_enc_cipher();
        let mac = k.ephid_mac_cipher();
        let e1 = seal(&k, plain(), [7, 7, 7, 7]);
        let e2 = seal_with(&enc, &mac, plain(), [7, 7, 7, 7]);
        assert_eq!(e1, e2);
        assert_eq!(open_with(&enc, &mac, &e1).unwrap(), plain());
    }

    #[test]
    fn open_many_matches_scalar_open_mixed_good_and_bad() {
        let k = keys();
        let enc = k.ephid_enc_cipher();
        let mac = k.ephid_mac_cipher();
        // A burst mixing valid EphIDs (several hosts), a bit-flipped one,
        // a foreign-AS one, and pure garbage — wider than PARALLEL_BLOCKS
        // so the chunked sweeps are exercised.
        let mut burst: Vec<EphIdBytes> = (0..9u32)
            .map(|i| {
                seal(
                    &k,
                    EphIdPlain {
                        hid: Hid(100 + i),
                        exp_time: Timestamp(5000 + i),
                    },
                    i.to_be_bytes(),
                )
            })
            .collect();
        let mut flipped = *burst[3].as_bytes();
        flipped[0] ^= 0x80;
        burst.push(EphIdBytes(flipped));
        burst.push(seal(&AsKeys::from_seed(&[9u8; 32]), plain(), [1, 1, 1, 1]));
        burst.push(EphIdBytes([0xAB; 16]));

        let batched = open_many_with(&enc, &mac, &burst);
        assert_eq!(batched.len(), burst.len());
        for (i, e) in burst.iter().enumerate() {
            assert_eq!(
                batched[i],
                open_with(&enc, &mac, e),
                "slot {i} diverges from the scalar reference"
            );
        }
        assert!(batched[..9].iter().all(Result::is_ok));
        assert!(batched[9..].iter().all(Result::is_err));
    }

    #[test]
    fn iv_allocator_unique_and_monotone() {
        let alloc = IvAllocator::starting_at(10);
        assert_eq!(alloc.next_iv(), 10u32.to_be_bytes());
        assert_eq!(alloc.next_iv(), 11u32.to_be_bytes());
        assert_eq!(alloc.issued(), 12);
    }

    #[test]
    fn iv_allocator_is_thread_safe() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let alloc = Arc::new(IvAllocator::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = alloc.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| a.next_iv()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for iv in h.join().unwrap() {
                assert!(seen.insert(iv), "duplicate IV handed out");
            }
        }
        assert_eq!(seen.len(), 4000);
    }
}
