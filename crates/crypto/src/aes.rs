//! AES block cipher (FIPS-197): AES-128, AES-192, AES-256 — batched and
//! constant-time.
//!
//! Two backends sit behind one API:
//!
//! * **AES-NI** (x86_64, detected at runtime with
//!   `is_x86_feature_detected!("aes")`): the substrate the paper's border
//!   router assumes. Up to [`PARALLEL_BLOCKS`] blocks are interleaved per
//!   call so the per-round instruction latency is hidden. AES-128 only —
//!   the only key size on the data plane.
//! * **Bitsliced software** (everywhere else, and under the
//!   `APNA_SOFT_AES` environment variable): a constant-time Boyar–Peralta
//!   bitsliced core processing four blocks per pass. No secret-dependent
//!   table index or branch exists anywhere on this path — the key schedule
//!   included — which closes the classic AES cache-timing side channel the
//!   previous table-based implementation carried.
//!
//! The batched entry point is [`BlockCipher::encrypt_blocks`]: every mode
//! in this crate (CTR, CMAC, CBC-MAC, GCM) and the border-router burst
//! pipeline feed it [`PARALLEL_BLOCKS`]-sized groups, which is where both
//! backends earn their throughput. `encrypt_block` remains as the
//! batch-of-one special case.
//!
//! Forcing the software path (benchmarks, CI, non-x86 parity testing):
//! set `APNA_SOFT_AES=1` in the environment before constructing ciphers,
//! or construct via [`Aes128::new_software`]. The same switch selects
//! GCM's GHASH kernel (see [`crate::gcm::ghash_backend`]).

use crate::aes_soft::SoftKeys;

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;

/// A 16-byte AES block.
pub type Block = [u8; BLOCK_LEN];

/// Widest batch a backend consumes per call. Callers that can batch should
/// hand [`BlockCipher::encrypt_blocks`] multiples of this many blocks.
pub const PARALLEL_BLOCKS: usize = 16;

/// Common interface for the three AES key sizes (and the mode
/// implementations generic over them).
pub trait BlockCipher {
    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut Block);

    /// Decrypts one 16-byte block in place.
    fn decrypt_block(&self, block: &mut Block);

    /// Encrypts every block in `blocks` in place (ECB over the slice).
    ///
    /// The blocks are independent, which is exactly what lets the backends
    /// work on [`PARALLEL_BLOCKS`] of them at once; implementations
    /// override this with their batched core. The default falls back to
    /// block-at-a-time.
    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        for b in blocks {
            self.encrypt_block(b);
        }
    }

    /// Decrypts every block in `blocks` in place.
    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        for b in blocks {
            self.decrypt_block(b);
        }
    }
}

/// `true` when the `APNA_SOFT_AES` environment variable forces the
/// bitsliced software backend (any value but `0`).
#[must_use]
pub fn software_forced() -> bool {
    std::env::var_os("APNA_SOFT_AES").is_some_and(|v| v != *"0")
}

/// Name of the backend [`Aes128::new`] would select right now:
/// `"aes-ni"` or `"soft-bitsliced"`. Benchmarks record this next to their
/// numbers so a committed baseline names its substrate.
#[must_use]
pub fn active_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if !software_forced() && crate::aes_ni::available() {
            return "aes-ni";
        }
    }
    "soft-bitsliced"
}

#[derive(Clone)]
enum Backend128 {
    #[cfg(target_arch = "x86_64")]
    Ni(crate::aes_ni::NiKeys128),
    /// Boxed: the bitsliced schedule is 960 bytes against AES-NI's 176, and
    /// every per-flow and per-host cipher would carry the difference unused
    /// on a machine that runs the hardware backend. The pointer chase is
    /// per call, against ~80 ns per bitsliced block.
    Soft(Box<SoftKeys>),
}

/// AES with a 128-bit key (10 rounds) — the data-plane cipher (EphID
/// encryption, per-packet CMAC, GCM payloads). Runtime backend selection;
/// both backends are constant-time.
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend128,
}

impl Aes128 {
    /// Expands `key`, picking the fastest constant-time backend the CPU
    /// offers (AES-NI where detected, bitsliced software otherwise or when
    /// `APNA_SOFT_AES` is set).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if !software_forced() && crate::aes_ni::available() {
                return Aes128 {
                    backend: Backend128::Ni(crate::aes_ni::NiKeys128::expand(key)),
                };
            }
        }
        Aes128 {
            backend: Backend128::Soft(Box::new(SoftKeys::expand(key))),
        }
    }

    /// Expands `key` on the bitsliced software backend regardless of CPU
    /// support — used by the AES-NI/software cross-check tests and by
    /// benchmarks that measure the fallback explicitly.
    #[must_use]
    pub fn new_software(key: &[u8; 16]) -> Self {
        Aes128 {
            backend: Backend128::Soft(Box::new(SoftKeys::expand(key))),
        }
    }

    /// Which backend this instance runs on: `"aes-ni"` or
    /// `"soft-bitsliced"`.
    #[must_use]
    pub fn backend(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend128::Ni(_) => "aes-ni",
            Backend128::Soft(_) => "soft-bitsliced",
        }
    }

    /// Encrypts a copy of `block` and returns the ciphertext block.
    #[must_use]
    pub fn encrypt(&self, block: &Block) -> Block {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }

    /// Decrypts a copy of `block` and returns the plaintext block.
    #[must_use]
    pub fn decrypt(&self, block: &Block) -> Block {
        let mut b = *block;
        self.decrypt_block(&mut b);
        b
    }
}

impl BlockCipher for Aes128 {
    fn encrypt_block(&self, block: &mut Block) {
        self.encrypt_blocks(core::slice::from_mut(block));
    }

    fn decrypt_block(&self, block: &mut Block) {
        self.decrypt_blocks(core::slice::from_mut(block));
    }

    fn encrypt_blocks(&self, blocks: &mut [Block]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend128::Ni(keys) => {
                for group in blocks.chunks_mut(crate::aes_ni::NI_LANES) {
                    keys.encrypt_lanes(group);
                }
            }
            Backend128::Soft(keys) => {
                for group in blocks.chunks_mut(PARALLEL_BLOCKS) {
                    keys.encrypt_lanes(group);
                }
            }
        }
    }

    fn decrypt_blocks(&self, blocks: &mut [Block]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend128::Ni(keys) => {
                for group in blocks.chunks_mut(crate::aes_ni::NI_LANES) {
                    keys.decrypt_lanes(group);
                }
            }
            Backend128::Soft(keys) => {
                for group in blocks.chunks_mut(PARALLEL_BLOCKS) {
                    keys.decrypt_lanes(group);
                }
            }
        }
    }
}

macro_rules! aes_soft_impl {
    ($name:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// Always runs on the constant-time bitsliced software core: only
        /// AES-128 sits on the data plane, so the larger key sizes carry
        /// no hardware backend.
        #[derive(Clone)]
        pub struct $name {
            keys: SoftKeys,
        }

        impl $name {
            /// Expands `key` into bitsliced round keys.
            #[must_use]
            pub fn new(key: &[u8; $key_len]) -> Self {
                Self {
                    keys: SoftKeys::expand(key),
                }
            }

            /// Encrypts a copy of `block` and returns the ciphertext block.
            #[must_use]
            pub fn encrypt(&self, block: &Block) -> Block {
                let mut b = *block;
                self.encrypt_block(&mut b);
                b
            }

            /// Decrypts a copy of `block` and returns the plaintext block.
            #[must_use]
            pub fn decrypt(&self, block: &Block) -> Block {
                let mut b = *block;
                self.decrypt_block(&mut b);
                b
            }
        }

        impl BlockCipher for $name {
            fn encrypt_block(&self, block: &mut Block) {
                self.keys.encrypt_lanes(core::slice::from_mut(block));
            }
            fn decrypt_block(&self, block: &mut Block) {
                self.keys.decrypt_lanes(core::slice::from_mut(block));
            }
            fn encrypt_blocks(&self, blocks: &mut [Block]) {
                for group in blocks.chunks_mut(PARALLEL_BLOCKS) {
                    self.keys.encrypt_lanes(group);
                }
            }
            fn decrypt_blocks(&self, blocks: &mut [Block]) {
                for group in blocks.chunks_mut(PARALLEL_BLOCKS) {
                    self.keys.decrypt_lanes(group);
                }
            }
        }
    };
}

aes_soft_impl!(Aes192, 24, "AES with a 192-bit key (12 rounds).");
aes_soft_impl!(Aes256, 32, "AES with a 256-bit key (14 rounds).");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// Every cipher under test, on every backend this machine can run.
    fn aes128_backends() -> Vec<(&'static str, Aes128)> {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let mut v = vec![("soft", Aes128::new_software(&key))];
        let auto = Aes128::new(&key);
        if auto.backend() == "aes-ni" {
            v.push(("aes-ni", auto));
        }
        v
    }

    #[test]
    fn fips197_aes128_all_backends() {
        // FIPS-197 Appendix C.1.
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        for (name, cipher) in aes128_backends() {
            let ct = cipher.encrypt(&pt);
            assert_eq!(
                hex::encode(&ct),
                "69c4e0d86a7b0430d8cdb78070b4c55a",
                "backend {name}"
            );
            assert_eq!(cipher.decrypt(&ct), pt, "backend {name}");
        }
    }

    #[test]
    fn fips197_aes192() {
        // FIPS-197 Appendix C.2.
        let key =
            hex::decode_array::<24>("000102030405060708090a0b0c0d0e0f1011121314151617").unwrap();
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let cipher = Aes192::new(&key);
        let ct = cipher.encrypt(&pt);
        assert_eq!(hex::encode(&ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
        assert_eq!(cipher.decrypt(&ct), pt);
    }

    #[test]
    fn fips197_aes256() {
        // FIPS-197 Appendix C.3.
        let key = hex::decode_array::<32>(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        )
        .unwrap();
        let pt = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let cipher = Aes256::new(&key);
        let ct = cipher.encrypt(&pt);
        assert_eq!(hex::encode(&ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(cipher.decrypt(&ct), pt);
    }

    #[test]
    fn sp800_38a_aes128_ecb_through_the_batched_path() {
        // SP 800-38A F.1.1 — all four ECB blocks in ONE encrypt_blocks
        // call, so the known answers flow through the multi-block lanes.
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let pt = hex::decode(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let expect = "3ad77bb40d7a3660a89ecaf32466ef97\
                      f5d3d58503b9699de785895a96fdbaaf\
                      43b1cd7f598ece23881b00e3ed030688\
                      7b0c785e27e8ad3f8223207104725dd4"
            .replace(' ', "");
        for (name, cipher) in [
            ("soft", Aes128::new_software(&key)),
            ("auto", Aes128::new(&key)),
        ] {
            let mut blocks: Vec<Block> =
                pt.chunks_exact(16).map(|c| c.try_into().unwrap()).collect();
            cipher.encrypt_blocks(&mut blocks);
            let flat: Vec<u8> = blocks.iter().flatten().copied().collect();
            assert_eq!(hex::encode(&flat), expect, "backend {name}");
            cipher.decrypt_blocks(&mut blocks);
            let back: Vec<u8> = blocks.iter().flatten().copied().collect();
            assert_eq!(back, pt, "backend {name} decrypt_blocks");
        }
    }

    #[test]
    fn batched_equals_scalar_at_every_batch_size() {
        // Lane-position independence: a block must encrypt to the same
        // ciphertext no matter where in a batch (1..=2*PARALLEL_BLOCKS+1)
        // it sits, on every backend.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xAE5);
        for (name, cipher) in aes128_backends() {
            for n in 1..=(2 * PARALLEL_BLOCKS + 1) {
                let mut blocks = vec![[0u8; 16]; n];
                for b in blocks.iter_mut() {
                    rng.fill_bytes(b);
                }
                let mut batched = blocks.clone();
                cipher.encrypt_blocks(&mut batched);
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!(
                        batched[i],
                        cipher.encrypt(b),
                        "backend {name}, batch {n}, lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn aesni_and_software_agree() {
        // The cross-backend known-answer sweep: only meaningful (and only
        // runs its assertions) where the CPU has AES-NI.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let auto = Aes128::new(&key);
            if auto.backend() != "aes-ni" {
                return; // no hardware AES on this machine; nothing to diff
            }
            let soft = Aes128::new_software(&key);
            let mut blocks = vec![[0u8; 16]; PARALLEL_BLOCKS];
            for b in blocks.iter_mut() {
                rng.fill_bytes(b);
            }
            let mut a = blocks.clone();
            let mut s = blocks.clone();
            auto.encrypt_blocks(&mut a);
            soft.encrypt_blocks(&mut s);
            assert_eq!(a, s);
            auto.decrypt_blocks(&mut a);
            soft.decrypt_blocks(&mut s);
            assert_eq!(a, blocks);
            assert_eq!(s, blocks);
        }
    }

    #[test]
    fn roundtrip_random_blocks() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        for (name, _) in aes128_backends() {
            let cipher = if name == "soft" {
                Aes128::new_software(&key)
            } else {
                Aes128::new(&key)
            };
            for _ in 0..64 {
                let mut block = [0u8; 16];
                rng.fill_bytes(&mut block);
                assert_eq!(cipher.decrypt(&cipher.encrypt(&block)), block);
            }
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let pt = [0u8; 16];
        let c1 = Aes128::new(&[0u8; 16]).encrypt(&pt);
        let c2 = Aes128::new(&[1u8; 16]).encrypt(&pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn backend_reporting_is_consistent() {
        let auto = Aes128::new(&[9u8; 16]);
        assert_eq!(auto.backend(), active_backend());
        assert_eq!(Aes128::new_software(&[9u8; 16]).backend(), "soft-bitsliced");
    }
}
