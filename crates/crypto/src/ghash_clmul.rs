//! Hardware GHASH backend: x86_64 `PCLMULQDQ` carry-less multiply.
//!
//! The companion of [`crate::aes_ni`]: where the CPU multiplies two
//! 64-bit polynomials over GF(2) in one instruction, a GHASH block costs
//! four `pclmulqdq` instead of a 128-step shift-and-add loop. Blocks are
//! absorbed [`AGGREGATE`] at a time against precomputed powers of the hash
//! key — `(acc ⊕ X₁)·H⁸ ⊕ X₂·H⁷ ⊕ … ⊕ X₈·H` — so the eight multiplies are
//! independent and share one deferred reduction. Constant time by
//! construction: `pclmulqdq`, `pshufb` and the XOR/shift glue have no
//! data-dependent timing, and nothing here branches on or indexes by a
//! value derived from the key.
//!
//! Arithmetic is in the POLYVAL form of RFC 8452 Appendix A (see
//! [`crate::ghash`]): operands are the byte-reversed GCM blocks, the key
//! is pre-multiplied by `x`, and the reduction is the Montgomery one —
//! two multiplies by the constant `x⁶³ + x⁶² + x⁵⁷`.
//!
//! Only reachable when the running CPU advertises `pclmulqdq` and `ssse3`
//! (checked via `is_x86_feature_detected!` when the owning AEAD is built)
//! and the `APNA_SOFT_AES` escape hatch is not set. With
//! [`crate::aes_ni`], this is one of the two modules in the crate where
//! `unsafe` is permitted, and every `unsafe` block is a feature-gated
//! intrinsic call on locally owned data.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_si128, _mm_srli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Blocks multiplied per deferred reduction (and powers of H kept per key).
pub(crate) const AGGREGATE: usize = 8;

/// `H·x, (H·x)², … , (H·x)⁸` in the POLYVAL domain; `pow[i]` is the
/// `(i + 1)`-th power. 128 bytes per key.
#[derive(Clone, Copy)]
pub(crate) struct ClmulPowers {
    pow: [__m128i; AGGREGATE],
}

/// Whether this CPU can run the carry-less-multiply backend.
#[inline]
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("ssse3")
}

impl ClmulPowers {
    /// Builds the power table from `hx = H·x` (POLYVAL domain). Caller
    /// must have checked [`available`].
    pub(crate) fn new(hx: u128) -> ClmulPowers {
        debug_assert!(available());
        // SAFETY: `available()` was checked by the caller (the only
        // constructor call sits behind it in `ghash::GhashKernel::new`), so
        // `pclmulqdq` and `ssse3` are present at runtime.
        unsafe { powers(hx) }
    }

    /// Absorbs `blocks` (a whole number of 16-byte blocks) into the GHASH
    /// accumulator `acc` and returns the new accumulator.
    pub(crate) fn absorb(&self, acc: u128, blocks: &[u8]) -> u128 {
        debug_assert!(blocks.len() % 16 == 0);
        // SAFETY: feature checked at construction; all loads are unaligned
        // 16-byte reads inside `blocks`, in bounds by `chunks_exact`.
        unsafe { absorb_impl(&self.pow, acc, blocks) }
    }
}

// SAFETY: pure register moves (SSE2, baseline on x86_64); no memory access.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn from_u128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

// SAFETY: one unaligned 16-byte store into a local 16-byte array.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn to_u128(v: __m128i) -> u128 {
    let mut out = [0u8; 16];
    _mm_storeu_si128(out.as_mut_ptr().cast(), v);
    u128::from_le_bytes(out)
}

/// The three partial sums of a schoolbook 128×128 carry-less product:
/// `lo = a₀b₀`, `mid = a₀b₁ ⊕ a₁b₀`, `hi = a₁b₁`.
#[derive(Clone, Copy)]
struct Wide {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

// SAFETY: pure register moves (SSE2, baseline on x86_64); no memory access.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn wide_zero() -> Wide {
    Wide {
        lo: _mm_setzero_si128(),
        mid: _mm_setzero_si128(),
        hi: _mm_setzero_si128(),
    }
}

// SAFETY: callers must have verified `available()`; register arithmetic
// only, no memory access.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn mul_acc(sum: Wide, a: __m128i, b: __m128i) -> Wide {
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128(a, b, 0x10),
        _mm_clmulepi64_si128(a, b, 0x01),
    );
    Wide {
        lo: _mm_xor_si128(sum.lo, _mm_clmulepi64_si128(a, b, 0x00)),
        mid: _mm_xor_si128(sum.mid, mid),
        hi: _mm_xor_si128(sum.hi, _mm_clmulepi64_si128(a, b, 0x11)),
    }
}

// SAFETY: callers must have verified `available()`; register arithmetic
// only, no memory access.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn reduce(sum: Wide) -> __m128i {
    // 256-bit product as [lo, hi], then Montgomery reduction by
    // x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1: folding each low word w adds
    // w·(x⁶³ + x⁶² + x⁵⁷) one word up and w itself two words up, which the
    // half-swap + clmul pair does for both words in turn.
    let lo = _mm_xor_si128(sum.lo, _mm_slli_si128(sum.mid, 8));
    let hi = _mm_xor_si128(sum.hi, _mm_srli_si128(sum.mid, 8));
    let poly = _mm_set_epi64x(0, 0xc200_0000_0000_0000_u64 as i64);
    let fold1 = _mm_xor_si128(
        _mm_shuffle_epi32(lo, 0x4e),
        _mm_clmulepi64_si128(lo, poly, 0x00),
    );
    let fold2 = _mm_xor_si128(
        _mm_shuffle_epi32(fold1, 0x4e),
        _mm_clmulepi64_si128(fold1, poly, 0x00),
    );
    _mm_xor_si128(hi, fold2)
}

// SAFETY: callers must have verified `available()`; register arithmetic
// only, no memory access.
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn powers(hx: u128) -> ClmulPowers {
    let h = from_u128(hx);
    let mut pow = [h; AGGREGATE];
    for i in 1..AGGREGATE {
        pow[i] = reduce(mul_acc(wide_zero(), pow[i - 1], h));
    }
    ClmulPowers { pow }
}

// SAFETY: callers must have verified `available()`. Each
// `_mm_loadu_si128` reads exactly the 16 bytes of one `chunks_exact(16)`
// element — unaligned loads, in bounds by construction.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn absorb_group(pow: &[__m128i; AGGREGATE], acc: __m128i, group: &[u8]) -> __m128i {
    let n = group.len() / 16;
    debug_assert!((1..=AGGREGATE).contains(&n) && group.len() % 16 == 0);
    // pshufb control reversing all 16 bytes: GCM block → POLYVAL operand.
    let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut sum = wide_zero();
    let mut carry = acc;
    // Block i meets H^(n-i): walk the powers downwards from H^n.
    for (block, h) in group.chunks_exact(16).zip(pow[..n].iter().rev()) {
        let x = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), bswap);
        sum = mul_acc(sum, _mm_xor_si128(x, carry), *h);
        carry = _mm_setzero_si128();
    }
    reduce(sum)
}

// SAFETY: callers must have verified `available()`; memory access is
// confined to `absorb_group`, which only reads inside the slices handed to
// it here (whole multiples of 16 bytes, at most `AGGREGATE` blocks each).
#[target_feature(enable = "pclmulqdq,ssse3")]
unsafe fn absorb_impl(pow: &[__m128i; AGGREGATE], acc: u128, blocks: &[u8]) -> u128 {
    let mut acc = from_u128(acc);
    let mut groups = blocks.chunks_exact(16 * AGGREGATE);
    for group in &mut groups {
        acc = absorb_group(pow, acc, group);
    }
    let rest = groups.remainder();
    if !rest.is_empty() {
        acc = absorb_group(pow, acc, rest);
    }
    to_u128(acc)
}
