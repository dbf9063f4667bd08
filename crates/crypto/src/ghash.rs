//! GHASH (NIST SP 800-38D §6.4): the universal hash under AES-GCM's tag.
//!
//! Two constant-time kernels sit behind one accumulator, chosen with the
//! same switch as the AES backends (CPU detection, `APNA_SOFT_AES`):
//!
//! * **`pclmulqdq`** ([`crate::ghash_clmul`], x86_64 with `pclmulqdq` +
//!   `ssse3`): hardware carry-less multiply, eight blocks per reduction.
//! * **`portable-ct`** (this module; everywhere else and when software is
//!   forced): a 64×64 carry-less multiply out of ordinary integer
//!   multiplies in the BearSSL `ctmul64` manner — the operands are split
//!   into five bit-interleaved slices so that no column of the schoolbook
//!   product can carry into the next one of its slice — Karatsuba over the
//!   two 64-bit halves, shift-and-XOR reduction. No table, no branch, no
//!   memory access depends on the key or the data.
//!
//! Both compute in the POLYVAL form of RFC 8452 Appendix A rather than in
//! GCM's bit-reflected one: a block is read as the big-endian integer of
//! its bytes (bit *i* ↔ *xⁱ* after the byte reversal), the hash key is
//! pre-multiplied by *x*, and a product is `a·b·x⁻¹²⁸` modulo
//! `x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1`. That identity is exact — the bytes
//! that come out are GHASH's — and it trades the reflected convention's
//! per-multiply one-bit shift for a Montgomery reduction that needs no
//! carries across words.

/// Whether [`GhashKernel::new`] picks the `pclmulqdq` kernel.
#[cfg(target_arch = "x86_64")]
fn clmul_selected(allow_hardware: bool) -> bool {
    allow_hardware && crate::ghash_clmul::available()
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul_selected(_allow_hardware: bool) -> bool {
    false
}

/// Name of the kernel [`GhashKernel::new`] picks: `"pclmulqdq"` or
/// `"portable-ct"`.
pub(crate) fn backend_name(allow_hardware: bool) -> &'static str {
    if clmul_selected(allow_hardware) {
        "pclmulqdq"
    } else {
        "portable-ct"
    }
}

/// GHASH key material for whichever kernel the owning AEAD selected.
#[derive(Clone)]
pub(crate) enum GhashKernel {
    #[cfg(target_arch = "x86_64")]
    Clmul(crate::ghash_clmul::ClmulPowers),
    /// `H·x` in the POLYVAL domain.
    Portable(u128),
}

impl GhashKernel {
    /// Derives the kernel state from the hash subkey `H = AES_K(0¹²⁸)`.
    /// `allow_hardware = false` pins the portable kernel.
    pub(crate) fn new(h: &[u8; 16], allow_hardware: bool) -> GhashKernel {
        // mulX_POLYVAL(ByteReverse(H)), branch-free.
        let v = u128::from_be_bytes(*h);
        let hx = (v << 1) ^ (0u128.wrapping_sub(v >> 127) & POLYVAL_MULX);
        #[cfg(target_arch = "x86_64")]
        if clmul_selected(allow_hardware) {
            return GhashKernel::Clmul(crate::ghash_clmul::ClmulPowers::new(hx));
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = allow_hardware;
        GhashKernel::Portable(hx)
    }

    /// `"pclmulqdq"` or `"portable-ct"`: which kernel this key landed on.
    #[cfg(test)]
    pub(crate) fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            GhashKernel::Clmul(_) => "pclmulqdq",
            GhashKernel::Portable(_) => "portable-ct",
        }
    }

    /// One GHASH step per 16-byte block of `blocks` (a whole number of
    /// blocks): `acc ← (acc ⊕ Xᵢ)·H`.
    fn absorb(&self, acc: u128, blocks: &[u8]) -> u128 {
        debug_assert!(blocks.len() % 16 == 0);
        match self {
            #[cfg(target_arch = "x86_64")]
            GhashKernel::Clmul(powers) => powers.absorb(acc, blocks),
            GhashKernel::Portable(hx) => blocks.chunks_exact(16).fold(acc, |acc, block| {
                let mut b = [0u8; 16];
                b.copy_from_slice(block);
                polyval_dot(acc ^ u128::from_be_bytes(b), *hx)
            }),
        }
    }
}

/// Running GHASH over `A ‖ pad ‖ C ‖ pad ‖ len(A) ‖ len(C)`.
pub(crate) struct Ghash<'h> {
    kernel: &'h GhashKernel,
    acc: u128,
}

impl<'h> Ghash<'h> {
    pub(crate) fn new(kernel: &'h GhashKernel) -> Self {
        Ghash { kernel, acc: 0 }
    }

    /// Absorbs `data`, zero-padding a final partial block. Every call but
    /// the last of a field (AAD, ciphertext) must pass whole blocks.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let (whole, tail) = data.split_at(data.len() & !15);
        self.acc = self.kernel.absorb(self.acc, whole);
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            self.acc = self.kernel.absorb(self.acc, &block);
        }
    }

    /// Absorbs the closing length block (bit lengths, 64 bits each).
    pub(crate) fn update_lengths(&mut self, aad_len: usize, ct_len: usize) {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        block[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.acc = self.kernel.absorb(self.acc, &block);
    }

    pub(crate) fn finalize(self) -> [u8; 16] {
        self.acc.to_be_bytes()
    }
}

// ---------------------------------------------------------------------------
// Portable constant-time kernel
// ---------------------------------------------------------------------------

/// `x¹²⁷ + x¹²⁶ + x¹²¹ + 1`: what multiplying by `x` folds an overflowing
/// top bit back into.
const POLYVAL_MULX: u128 = 0xc200_0000_0000_0000_0000_0000_0000_0001;

/// Slices per operand in [`clmul64`]. A slice keeps every fifth bit, so a
/// 64-bit operand has at most 13 bits per slice and a column of a
/// slice-by-slice integer product sums at most 13 ones: it fits in the five
/// bits before the next column of the same residue. (Four would not do — 16
/// ones overflow a four-bit gap in the middle columns of a full 128-bit
/// product.)
const SLICES: usize = 5;

/// Bits `residue, residue + 5, residue + 10, …` of a 128-bit word.
const fn slice_mask(residue: usize) -> u128 {
    let mut mask = 0u128;
    let mut bit = residue;
    while bit < 128 {
        mask |= 1 << bit;
        bit += SLICES;
    }
    mask
}

const SLICE_MASKS: [u128; SLICES] = [
    slice_mask(0),
    slice_mask(1),
    slice_mask(2),
    slice_mask(3),
    slice_mask(4),
];

/// Carry-less 64×64 → 127-bit product from 25 widening integer multiplies.
///
/// Slice `a` of `x` times slice `b` of `y` only has product bits in columns
/// `≡ a + b (mod 5)`; the column sums stay below 2⁵, so bit 0 of each
/// five-bit column group is the XOR the carry-less product wants and the
/// other four bits are discarded by the mask.
#[inline]
fn clmul64(x: u64, y: u64) -> u128 {
    let slices = |v: u64| SLICE_MASKS.map(|mask| v & mask as u64);
    let (xs, ys) = (slices(x), slices(y));
    let mut z = 0u128;
    for (residue, mask) in SLICE_MASKS.iter().enumerate() {
        let column = xs.iter().enumerate().fold(0u128, |column, (a, &xa)| {
            column ^ (u128::from(xa) * u128::from(ys[(residue + SLICES - a) % SLICES]))
        });
        z |= column & mask;
    }
    z
}

/// POLYVAL's `a·b·x⁻¹²⁸ mod x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1`.
#[inline]
fn polyval_dot(a: u128, b: u128) -> u128 {
    let (a0, a1) = (a as u64, (a >> 64) as u64);
    let (b0, b1) = (b as u64, (b >> 64) as u64);
    // Karatsuba: three 64×64 products for the 256-bit result.
    let lo = clmul64(a0, b0);
    let hi = clmul64(a1, b1);
    let mid = clmul64(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    let v0 = lo as u64;
    let mut v1 = (lo >> 64) as u64 ^ mid as u64;
    let mut v2 = hi as u64 ^ (mid >> 64) as u64;
    let mut v3 = (hi >> 64) as u64;
    // Montgomery reduction: the modulus is ≡ 1 (mod x⁶⁴), so adding
    // v0·p clears word 0 and v1·p·x⁶⁴ clears word 1; what is left in
    // words 2–3 is the product divided by x¹²⁸.
    v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
    v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
    v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
    v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
    u128::from(v2) | (u128::from(v3) << 64)
}

/// The 128-iteration shift-and-add multiply of SP 800-38D §6.3 (GCM's
/// bit-reflected convention, raw `H`) this crate used to ship: kept as the
/// differential oracle both kernels — and the one-pass GCM — are held to.
#[cfg(test)]
pub(crate) fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        let xi = (x >> (127 - i)) & 1;
        z ^= v & 0u128.wrapping_sub(xi);
        let lsb = v & 1;
        v = (v >> 1) ^ (R & 0u128.wrapping_sub(lsb));
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Every kernel this machine can run, keyed with `h`.
    fn kernels(h: u128) -> Vec<GhashKernel> {
        let h = h.to_be_bytes();
        let mut v = vec![GhashKernel::new(&h, false)];
        let auto = GhashKernel::new(&h, true);
        if auto.backend() == "pclmulqdq" {
            v.push(auto);
        }
        v
    }

    /// In GCM's convention `1` is the top bit and `x¹²⁷` the bottom one.
    const EDGES: [u128; 6] = [0, 1 << 127, 1, u128::MAX, 1 << 126, 0xe1 << 120];

    #[test]
    fn oracle_identity_and_commutativity() {
        let one: u128 = 1 << 127;
        let a = 0x0123456789abcdef_0fedcba987654321u128;
        assert_eq!(gf_mul(a, one), a);
        assert_eq!(gf_mul(one, a), a);
        let b = 0xdeadbeefdeadbeef_cafebabecafebabeu128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
        assert_eq!(gf_mul(a, 0), 0);
    }

    #[test]
    fn clmul64_matches_bitwise_product() {
        fn slow(x: u64, y: u64) -> u128 {
            (0..64).fold(0u128, |z, i| {
                z ^ ((u128::from(y) << i) & 0u128.wrapping_sub(u128::from(x >> i) & 1))
            })
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x64);
        let edges = [0u64, 1, 1 << 63, u64::MAX, 0x1111_1111_1111_1111];
        for x in edges {
            for y in edges {
                assert_eq!(clmul64(x, y), slow(x, y), "{x:#x} × {y:#x}");
            }
        }
        for _ in 0..2000 {
            let (x, y) = (rng.next_u64(), rng.next_u64());
            assert_eq!(clmul64(x, y), slow(x, y), "{x:#x} × {y:#x}");
        }
    }

    #[test]
    fn single_multiply_matches_oracle_on_edges() {
        for h in EDGES {
            for kernel in kernels(h) {
                for x in EDGES {
                    assert_eq!(
                        kernel.absorb(0, &x.to_be_bytes()),
                        gf_mul(x, h),
                        "{} h={h:#034x} x={x:#034x}",
                        kernel.backend()
                    );
                    // A non-zero accumulator is XORed in before the multiply.
                    assert_eq!(
                        kernel.absorb(x, &[0u8; 16]),
                        gf_mul(x, h),
                        "{} acc path",
                        kernel.backend()
                    );
                }
            }
        }
    }

    #[test]
    fn single_multiply_matches_oracle_on_random_operands() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6a5);
        let mut word = || (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        for _ in 0..500 {
            let (h, x, acc) = (word(), word(), word());
            for kernel in kernels(h) {
                assert_eq!(
                    kernel.absorb(acc, &x.to_be_bytes()),
                    gf_mul(acc ^ x, h),
                    "{}",
                    kernel.backend()
                );
            }
        }
    }

    #[test]
    fn multi_block_absorb_matches_horner_oracle_at_every_count() {
        // 1..=2·8+3 blocks: below, at and across the aggregation width,
        // with a non-zero incoming accumulator.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa66);
        for nblocks in 1..=19usize {
            let mut h = [0u8; 16];
            rng.fill_bytes(&mut h);
            let mut data = vec![0u8; 16 * nblocks];
            rng.fill_bytes(&mut data);
            let acc0 = u128::from(rng.next_u64()) << 17;
            let hv = u128::from_be_bytes(h);
            let want = data.chunks_exact(16).fold(acc0, |acc, b| {
                gf_mul(acc ^ u128::from_be_bytes(b.try_into().unwrap()), hv)
            });
            for kernel in kernels(hv) {
                assert_eq!(
                    kernel.absorb(acc0, &data),
                    want,
                    "{} {nblocks} blocks",
                    kernel.backend()
                );
            }
        }
    }

    #[test]
    fn update_pads_the_tail_and_splits_anywhere_on_block_boundaries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7a11);
        let mut data = vec![0u8; 16 * 11 + 5];
        rng.fill_bytes(&mut data);
        for kernel in kernels(0x0123_4567_89ab_cdef_0011_2233_4455_6677) {
            let mut whole = Ghash::new(&kernel);
            whole.update(&data);
            let mut padded = data.clone();
            padded.resize(16 * 12, 0);
            let want = kernel.absorb(0, &padded).to_be_bytes();
            assert_eq!(whole.finalize(), want);
            for cut in (0..=11).map(|b| b * 16) {
                let mut split = Ghash::new(&kernel);
                split.update(&data[..cut]);
                split.update(&data[cut..]);
                assert_eq!(split.finalize(), want, "{} cut {cut}", kernel.backend());
            }
        }
    }
}
