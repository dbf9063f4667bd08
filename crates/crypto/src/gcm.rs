//! AES-128-GCM (NIST SP 800-38D).
//!
//! The paper requires a CCA-secure scheme for data-plane payload encryption
//! (§IV-A, citing GCM \[27\] and OCB \[36\]) and assumes hardware crypto
//! throughout (§V-B); APNA hosts seal every data packet under the
//! per-session key `k_EaEb` (§IV-D2), so this is the byte-proportional cost
//! of every datagram a host or gateway touches.
//!
//! The mode is one pass and in place. [`AesGcm128::seal_in_place`] and
//! [`AesGcm128::open_in_place`] walk the buffer [`PARALLEL_BLOCKS`] blocks
//! at a time: generate that much CTR keystream through the batched cipher
//! backend, XOR it in, and hand the ciphertext blocks to GHASH while they
//! are still in cache. [`AesGcm128::seal`] / [`AesGcm128::open`] are the
//! allocate-and-copy wrappers over them. GHASH itself runs on a
//! `pclmulqdq` kernel where the CPU has one and on a portable
//! constant-time carry-less multiply elsewhere (see `ghash.rs`);
//! [`ghash_backend`] names the one in use, next to
//! [`crate::aes::active_backend`].

use crate::aes::{software_forced, Aes128, Block, BlockCipher, PARALLEL_BLOCKS};
use crate::ct::ct_eq;
use crate::ghash::{self, Ghash, GhashKernel};
use crate::CryptoError;

/// GCM nonce length (the standard 96-bit fast path; other lengths are not
/// supported).
pub const NONCE_LEN: usize = 12;
/// GCM tag length.
pub const TAG_LEN: usize = 16;

/// Name of the GHASH kernel [`AesGcm128::new`] would select right now:
/// `"pclmulqdq"` or `"portable-ct"`. Follows the same switch as
/// [`crate::aes::active_backend`]: CPU detection, overridden by
/// `APNA_SOFT_AES`.
#[must_use]
pub fn ghash_backend() -> &'static str {
    ghash::backend_name(!software_forced())
}

/// AES-128-GCM AEAD.
#[derive(Clone)]
pub struct AesGcm128 {
    cipher: Aes128,
    /// GHASH state derived from H = AES_K(0¹²⁸).
    ghash: GhashKernel,
}

/// Which way [`AesGcm128::crypt`] runs; decides on which side of the
/// keystream XOR the buffer is ciphertext.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Seal,
    Open,
}

impl AesGcm128 {
    /// Creates an AEAD instance from a 16-byte key on the fastest
    /// constant-time backends the CPU offers (AES-NI and `pclmulqdq` where
    /// detected; software for both when `APNA_SOFT_AES` is set).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_cipher(Aes128::new(key), !software_forced())
    }

    /// [`AesGcm128::new`] pinned to the bitsliced software cipher and the
    /// portable GHASH kernel — for backend cross-check tests and benches,
    /// which must not reach for the process-global `APNA_SOFT_AES` switch
    /// (mutating the environment races with concurrent cipher
    /// constructions).
    #[must_use]
    pub fn new_software(key: &[u8; 16]) -> Self {
        Self::with_cipher(Aes128::new_software(key), false)
    }

    fn with_cipher(cipher: Aes128, allow_hardware: bool) -> Self {
        let mut h = [0u8; 16];
        cipher.encrypt_block(&mut h);
        AesGcm128 {
            cipher,
            ghash: GhashKernel::new(&h, allow_hardware),
        }
    }

    /// J0 for a 96-bit nonce: nonce ‖ 0³¹ ‖ 1.
    fn j0(nonce: &[u8; NONCE_LEN]) -> u128 {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[15] = 1;
        u128::from_be_bytes(block)
    }

    /// The whole mode in one pass over `data`, in place: CTR with GCM's
    /// inc32 (32-bit wrapping increment in the low word) produced
    /// [`PARALLEL_BLOCKS`]-wide through the batched cipher backend, GHASH
    /// over the ciphertext side of each group, then the tag.
    fn crypt(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        direction: Direction,
    ) -> [u8; TAG_LEN] {
        let j0 = Self::j0(nonce);
        let mut ghash = Ghash::new(&self.ghash);
        ghash.update(aad);
        let mut counter = j0;
        for group in data.chunks_mut(16 * PARALLEL_BLOCKS) {
            let nblocks = group.len().div_ceil(16);
            let mut ks = [[0u8; 16]; PARALLEL_BLOCKS];
            for k in ks.iter_mut().take(nblocks) {
                let low = (counter as u32).wrapping_add(1);
                counter = (counter & !0xffff_ffffu128) | u128::from(low);
                *k = counter.to_be_bytes();
            }
            self.cipher.encrypt_blocks(&mut ks[..nblocks]);
            if direction == Direction::Open {
                ghash.update(group);
            }
            for (chunk, k) in group.chunks_mut(16).zip(ks.iter()) {
                for (d, kb) in chunk.iter_mut().zip(k.iter()) {
                    *d ^= kb;
                }
            }
            if direction == Direction::Seal {
                ghash.update(group);
            }
        }
        ghash.update_lengths(aad.len(), data.len());
        let mut tag: Block = ghash.finalize();
        let mut ekj0: Block = j0.to_be_bytes();
        self.cipher.encrypt_block(&mut ekj0);
        for (t, e) in tag.iter_mut().zip(ekj0.iter()) {
            *t ^= e;
        }
        tag
    }

    /// Encrypts `data` in place under associated data `aad` and returns the
    /// tag; the wire form is `data ‖ tag`.
    #[must_use]
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; TAG_LEN] {
        self.crypt(nonce, aad, data, Direction::Seal)
    }

    /// Decrypts `data` in place and checks it, with `aad`, against `tag`.
    ///
    /// Decryption and authentication share one pass, so the plaintext
    /// exists in `data` before the verdict does: on any mismatch the buffer
    /// is zeroed before [`CryptoError::VerificationFailed`] is returned, and
    /// unauthenticated plaintext never reaches the caller. A `tag` that is
    /// not [`TAG_LEN`] bytes is [`CryptoError::InvalidLength`] (buffer
    /// untouched).
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        if tag.len() != TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let expected = self.crypt(nonce, aad, data, Direction::Open);
        if !ct_eq(&expected, tag) {
            data.fill(0);
            return Err(CryptoError::VerificationFailed);
        }
        Ok(())
    }

    /// Encrypts `plaintext` with associated data `aad`; returns
    /// `ciphertext ‖ tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `ciphertext ‖ tag`; returns the plaintext or
    /// [`CryptoError::VerificationFailed`] on any mismatch.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let (ct, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
        let mut out = ct.to_vec();
        self.open_in_place(nonce, aad, &mut out, tag)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghash::gf_mul;
    use crate::hex;
    use rand::{RngCore, SeedableRng};

    /// Every backend combination this machine can run: the pinned software
    /// pair always, the detected hardware pair when it differs.
    fn backends(key: &[u8; 16]) -> Vec<(&'static str, AesGcm128)> {
        let mut v = vec![("software", AesGcm128::new_software(key))];
        let auto = AesGcm128::new(key);
        if auto.ghash.backend() != "portable-ct" || auto.cipher.backend() != "soft-bitsliced" {
            v.push(("auto", auto));
        }
        v
    }

    /// GCM as this module used to compute it — block-at-a-time CTR, then a
    /// second pass of bit-loop GHASH — returning `ciphertext ‖ tag`.
    fn reference_seal(key: &[u8; 16], nonce: &[u8; NONCE_LEN], aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let cipher = Aes128::new_software(key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; 16]));
        let j0 = AesGcm128::j0(nonce);
        let mut out = pt.to_vec();
        let mut counter = j0;
        for chunk in out.chunks_mut(16) {
            let low = (counter as u32).wrapping_add(1);
            counter = (counter & !0xffff_ffffu128) | u128::from(low);
            let pad = cipher.encrypt(&counter.to_be_bytes());
            for (d, p) in chunk.iter_mut().zip(pad) {
                *d ^= p;
            }
        }
        let mut acc = 0u128;
        for field in [aad, &out[..]] {
            for chunk in field.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                acc = gf_mul(acc ^ u128::from_be_bytes(block), h);
            }
        }
        let lengths = (u128::from(aad.len() as u64 * 8) << 64) | u128::from(out.len() as u64 * 8);
        acc = gf_mul(acc ^ lengths, h);
        let tag = acc ^ u128::from_be_bytes(cipher.encrypt(&j0.to_be_bytes()));
        out.extend_from_slice(&tag.to_be_bytes());
        out
    }

    // NIST GCM reference test cases 1–4 (AES-128).
    #[test]
    fn nist_case1_empty() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let out = AesGcm128::new(&key).seal(&nonce, b"", b"");
        assert_eq!(hex::encode(&out), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_case2_single_zero_block() {
        let key = [0u8; 16];
        let nonce = [0u8; 12];
        let out = AesGcm128::new(&key).seal(&nonce, b"", &[0u8; 16]);
        assert_eq!(
            hex::encode(&out),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn nist_case3_four_blocks() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let nonce = hex::decode_array::<12>("cafebabefacedbaddecaf888").unwrap();
        let pt = hex::decode(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b391aafd255",
        )
        .unwrap();
        let out = AesGcm128::new(&key).seal(&nonce, b"", &pt);
        assert_eq!(
            hex::encode(&out),
            "42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091473f5985\
             4d5c2af327cd64a62cf35abd2ba6fab4"
        );
    }

    #[test]
    fn nist_case4_with_aad_partial_block() {
        let key = hex::decode_array::<16>("feffe9928665731c6d6a8f9467308308").unwrap();
        let nonce = hex::decode_array::<12>("cafebabefacedbaddecaf888").unwrap();
        let pt = hex::decode(
            "d9313225f88406e5a55909c5aff5269a\
             86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525\
             b16aedf5aa0de657ba637b39",
        )
        .unwrap();
        let aad = hex::decode("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let out = AesGcm128::new(&key).seal(&nonce, &aad, &pt);
        assert_eq!(
            hex::encode(&out),
            "42831ec2217774244b7221b784d0d49c\
             e3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa05\
             1ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47"
        );
    }

    #[test]
    fn roundtrip_with_aad() {
        let aead = AesGcm128::new(&[0x42; 16]);
        let nonce = [7u8; 12];
        let sealed = aead.seal(&nonce, b"header", b"the payload");
        let opened = aead.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"the payload");
    }

    #[test]
    fn tamper_detection() {
        let aead = AesGcm128::new(&[0x42; 16]);
        let nonce = [7u8; 12];
        let sealed = aead.seal(&nonce, b"aad", b"payload");
        // Flip each byte in turn: ciphertext, tag — all must fail.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert_eq!(
                aead.open(&nonce, b"aad", &bad),
                Err(CryptoError::VerificationFailed),
                "bit flip at byte {i} must be detected"
            );
        }
        // Wrong AAD and wrong nonce must fail too.
        assert!(aead.open(&nonce, b"wrong", &sealed).is_err());
        assert!(aead.open(&[8u8; 12], b"aad", &sealed).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let aead = AesGcm128::new(&[1; 16]);
        assert_eq!(
            aead.open(&[0; 12], b"", &[0u8; 15]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = AesGcm128::new(&[9; 16]);
        let sealed = aead.seal(&[1; 12], b"only aad", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(aead.open(&[1; 12], b"only aad", &sealed).unwrap(), b"");
    }

    #[test]
    fn ghash_backend_follows_the_software_switch() {
        // The "Test (AES-NI force-disabled)" CI job runs this with
        // APNA_SOFT_AES=1: the portable kernel must be what `new` picks.
        let auto = AesGcm128::new(&[9; 16]);
        assert_eq!(auto.ghash.backend(), ghash_backend());
        assert_eq!(
            AesGcm128::new_software(&[9; 16]).ghash.backend(),
            "portable-ct"
        );
        if software_forced() {
            assert_eq!(ghash_backend(), "portable-ct");
            assert_eq!(crate::aes::active_backend(), "soft-bitsliced");
        }
        #[cfg(target_arch = "x86_64")]
        if !software_forced()
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            assert_eq!(ghash_backend(), "pclmulqdq");
        }
    }

    #[test]
    fn every_length_matches_the_two_pass_reference_on_every_backend() {
        // Plaintext 0..=2·(8·16)+17 crosses the 8-block GHASH aggregation
        // and the 16-block keystream group twice, with every partial tail;
        // AAD 0..=33 covers none, partial, whole and whole-plus-partial.
        let key = [0x5c; 16];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6c3);
        let mut pt = [0u8; 2 * 8 * 16 + 17];
        let mut aad = [0u8; 33];
        rng.fill_bytes(&mut pt);
        rng.fill_bytes(&mut aad);
        let aeads = backends(&key);
        for pt_len in 0..=pt.len() {
            for aad_len in 0..=aad.len() {
                let mut nonce = [0u8; NONCE_LEN];
                nonce[..2].copy_from_slice(&(pt_len as u16).to_be_bytes());
                nonce[2] = aad_len as u8;
                let (pt, aad) = (&pt[..pt_len], &aad[..aad_len]);
                let want = reference_seal(&key, &nonce, aad, pt);
                for (name, aead) in &aeads {
                    let sealed = aead.seal(&nonce, aad, pt);
                    assert_eq!(sealed, want, "{name} pt {pt_len} aad {aad_len}");
                    assert_eq!(
                        aead.open(&nonce, aad, &sealed).as_deref(),
                        Ok(pt),
                        "{name} pt {pt_len} aad {aad_len}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_message_matches_the_two_pass_reference() {
        // Several full keystream groups and a ragged tail.
        let key = [0x11; 16];
        let nonce = [0xff; NONCE_LEN];
        let pt = vec![0xa5u8; 16 * PARALLEL_BLOCKS * 5 + 7];
        let want = reference_seal(&key, &nonce, b"hdr", &pt);
        for (name, aead) in backends(&key) {
            assert_eq!(aead.seal(&nonce, b"hdr", &pt), want, "{name}");
        }
    }

    #[test]
    fn every_tag_bit_flip_on_a_1400_byte_message_is_rejected() {
        let key = [0x77; 16];
        let nonce = [3u8; NONCE_LEN];
        let pt: Vec<u8> = (0..1400u32).map(|i| (i * 7) as u8).collect();
        for (name, aead) in backends(&key) {
            let sealed = aead.seal(&nonce, b"apna-gw", &pt);
            assert_eq!(sealed.len(), pt.len() + TAG_LEN);
            for bit in 0..(8 * TAG_LEN) {
                let mut bad = sealed.clone();
                bad[pt.len() + bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    aead.open(&nonce, b"apna-gw", &bad),
                    Err(CryptoError::VerificationFailed),
                    "{name}: tag bit {bit}"
                );
            }
            assert_eq!(aead.open(&nonce, b"apna-gw", &sealed).unwrap(), pt);
        }
    }

    #[test]
    fn empty_aad_and_empty_plaintext_roundtrip() {
        for (name, aead) in backends(&[0x21; 16]) {
            let sealed = aead.seal(&[4; 12], b"", b"");
            assert_eq!(sealed.len(), TAG_LEN, "{name}");
            assert_eq!(aead.open(&[4; 12], b"", &sealed).unwrap(), b"", "{name}");
            assert!(aead.open(&[4; 12], b"x", &sealed).is_err(), "{name}");
        }
    }

    #[test]
    fn in_place_equals_allocating_byte_for_byte() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1b);
        for len in [0usize, 1, 15, 16, 17, 64, 255, 256, 257, 1400] {
            let mut pt = vec![0u8; len];
            rng.fill_bytes(&mut pt);
            for (name, aead) in backends(&[0x3d; 16]) {
                let nonce = [len as u8; NONCE_LEN];
                let sealed = aead.seal(&nonce, b"aad", &pt);
                let mut buf = pt.clone();
                let tag = aead.seal_in_place(&nonce, b"aad", &mut buf);
                assert_eq!(buf, sealed[..len], "{name} len {len}");
                assert_eq!(tag, sealed[len..], "{name} len {len}");
                aead.open_in_place(&nonce, b"aad", &mut buf, &tag).unwrap();
                assert_eq!(buf, pt, "{name} len {len}");
            }
        }
    }

    #[test]
    fn failed_open_in_place_leaves_no_plaintext() {
        let pt = vec![0xeeu8; 300];
        for (name, aead) in backends(&[0x42; 16]) {
            let nonce = [7u8; NONCE_LEN];
            let mut ct = pt.clone();
            let tag = aead.seal_in_place(&nonce, b"aad", &mut ct);
            // Forged tag, forged ciphertext, wrong AAD: the buffer is wiped.
            let mut bad_tag = tag;
            bad_tag[0] ^= 0x80;
            let mut flipped = ct.clone();
            flipped[299] ^= 1;
            for (mut buf, aad, tag) in [
                (ct.clone(), &b"aad"[..], bad_tag),
                (flipped, &b"aad"[..], tag),
                (ct.clone(), &b"AAD"[..], tag),
            ] {
                assert_eq!(
                    aead.open_in_place(&nonce, aad, &mut buf, &tag),
                    Err(CryptoError::VerificationFailed),
                    "{name}"
                );
                assert!(buf.iter().all(|&b| b == 0), "{name}: plaintext left behind");
            }
            // A tag of the wrong length is refused before anything is touched.
            let mut buf = ct.clone();
            assert_eq!(
                aead.open_in_place(&nonce, b"aad", &mut buf, &tag[..15]),
                Err(CryptoError::InvalidLength)
            );
            assert_eq!(buf, ct, "{name}");
        }
    }
}
