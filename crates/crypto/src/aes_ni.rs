//! Hardware AES backend: x86_64 AES-NI via `core::arch` intrinsics.
//!
//! This is the substrate the paper's prototype assumes ("EphID decryption
//! uses AES-NI", §V-B) — one `aesenc` per round, with up to [`NI_LANES`]
//! independent blocks interleaved per call so the 4-cycle-class
//! instruction latency is hidden behind the other lanes. Constant time by
//! construction: AES-NI has no key- or data-dependent timing.
//!
//! Only reachable when the running CPU advertises the `aes` feature
//! (checked once via `is_x86_feature_detected!` at cipher construction) and
//! the `APNA_SOFT_AES` escape hatch is not set; every other configuration
//! uses the bitsliced software core. This module is the only place in the
//! crate where `unsafe` is permitted, and every `unsafe` block is a
//! feature-gated intrinsic call on locally owned data.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128, _mm_shuffle_epi32,
    _mm_slli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Lanes interleaved per hardware call: enough to hide `aesenc` latency
/// without spilling the 16 xmm registers.
pub(crate) const NI_LANES: usize = 8;

/// Expanded AES-128 encryption round keys. Every mode in this crate (CTR,
/// CBC-MAC, CMAC, GCM) only ever encrypts, so the decryption schedule is
/// not stored — one lives in every per-flow and per-host cipher otherwise —
/// but derived inside [`NiKeys128::decrypt_lanes`] (nine `aesimc`).
#[derive(Clone, Copy)]
pub(crate) struct NiKeys128 {
    enc: [__m128i; 11],
}

/// Whether this CPU can run the AES-NI backend.
#[inline]
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

// SAFETY: callers must have verified `available()` — every intrinsic here
// requires the `aes` CPU feature. All loads go through `_mm_loadu_si128`
// (no alignment requirement) from a `&[u8; 16]`, which is always 16
// readable bytes.
#[target_feature(enable = "aes")]
unsafe fn expand128(key: &[u8; 16]) -> NiKeys128 {
    // SAFETY: only called from `expand128`, so the `aes` feature check is
    // inherited; pure register arithmetic, no memory access.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn mix(k: __m128i, assist: __m128i) -> __m128i {
        // Standard AES-128 schedule step: fold the previous round key into
        // itself three times, then XOR the broadcast SubWord/RotWord term.
        let t = _mm_shuffle_epi32(assist, 0xff);
        let mut k2 = _mm_xor_si128(k, _mm_slli_si128(k, 4));
        k2 = _mm_xor_si128(k2, _mm_slli_si128(k2, 4));
        k2 = _mm_xor_si128(k2, _mm_slli_si128(k2, 4));
        _mm_xor_si128(k2, t)
    }
    macro_rules! round {
        ($enc:ident, $i:expr, $rcon:expr) => {
            $enc[$i] = mix($enc[$i - 1], _mm_aeskeygenassist_si128($enc[$i - 1], $rcon));
        };
    }
    let mut enc = [_mm_loadu_si128(key.as_ptr().cast()); 11];
    round!(enc, 1, 0x01);
    round!(enc, 2, 0x02);
    round!(enc, 3, 0x04);
    round!(enc, 4, 0x08);
    round!(enc, 5, 0x10);
    round!(enc, 6, 0x20);
    round!(enc, 7, 0x40);
    round!(enc, 8, 0x80);
    round!(enc, 9, 0x1b);
    round!(enc, 10, 0x36);
    NiKeys128 { enc }
}

impl NiKeys128 {
    /// Expands `key`. Caller must have checked [`available`].
    pub(crate) fn expand(key: &[u8; 16]) -> NiKeys128 {
        debug_assert!(available());
        // SAFETY: `available()` was checked at construction of the owning
        // cipher, so the `aes` target feature is present at runtime.
        unsafe { expand128(key) }
    }

    /// Encrypts up to [`NI_LANES`] blocks in place.
    pub(crate) fn encrypt_lanes(&self, blocks: &mut [[u8; 16]]) {
        // SAFETY: feature checked at construction; loads/stores are
        // unaligned intrinsics over exact 16-byte owned buffers.
        unsafe { encrypt_lanes_impl(&self.enc, blocks) }
    }

    /// Decrypts up to [`NI_LANES`] blocks in place.
    pub(crate) fn decrypt_lanes(&self, blocks: &mut [[u8; 16]]) {
        // SAFETY: as for `encrypt_lanes`.
        unsafe { decrypt_lanes_impl(&self.enc, blocks) }
    }
}

// SAFETY: callers must have verified `available()`. Unaligned
// loads/stores (`_mm_loadu_si128`/`_mm_storeu_si128`) touch exactly the
// 16 bytes of each `[u8; 16]` element, in bounds by construction.
#[target_feature(enable = "aes")]
unsafe fn encrypt_lanes_impl(rk: &[__m128i; 11], blocks: &mut [[u8; 16]]) {
    debug_assert!(blocks.len() <= NI_LANES);
    let n = blocks.len();
    let mut b = [rk[0]; NI_LANES];
    for i in 0..n {
        b[i] = _mm_xor_si128(_mm_loadu_si128(blocks[i].as_ptr().cast()), rk[0]);
    }
    for rk_round in &rk[1..10] {
        for lane in b.iter_mut().take(n) {
            *lane = _mm_aesenc_si128(*lane, *rk_round);
        }
    }
    for (i, lane) in b.iter_mut().enumerate().take(n) {
        *lane = _mm_aesenclast_si128(*lane, rk[10]);
        _mm_storeu_si128(blocks[i].as_mut_ptr().cast(), *lane);
    }
}

// SAFETY: same contract as `encrypt_lanes_impl` — feature-checked
// callers, unaligned 16-byte accesses within each owned block.
#[target_feature(enable = "aes")]
unsafe fn decrypt_lanes_impl(enc: &[__m128i; 11], blocks: &mut [[u8; 16]]) {
    debug_assert!(blocks.len() <= NI_LANES);
    // Decryption schedule: reverse order, inner keys through InvMixColumns.
    let mut rk = *enc;
    rk[0] = enc[10];
    rk[10] = enc[0];
    for i in 1..10 {
        rk[i] = _mm_aesimc_si128(enc[10 - i]);
    }
    let n = blocks.len();
    let mut b = [rk[0]; NI_LANES];
    for i in 0..n {
        b[i] = _mm_xor_si128(_mm_loadu_si128(blocks[i].as_ptr().cast()), rk[0]);
    }
    for rk_round in &rk[1..10] {
        for lane in b.iter_mut().take(n) {
            *lane = _mm_aesdec_si128(*lane, *rk_round);
        }
    }
    for (i, lane) in b.iter_mut().enumerate().take(n) {
        *lane = _mm_aesdeclast_si128(*lane, rk[10]);
        _mm_storeu_si128(blocks[i].as_mut_ptr().cast(), *lane);
    }
}
