//! SplitMix64: the benchmark's only source of input randomness.
//!
//! Every workload derives its inputs (payload bytes, host seeds, which
//! packets of a burst are hostile, flow 5-tuples, simulator seeds) from
//! one `--seed`, so the same seed gives byte-identical inputs and the
//! program under test sees only the generated inputs.

/// Sebastiano Vigna's SplitMix64 (public domain reference constants).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// An independent stream for a named sub-purpose of one seed, so
    /// adding draws to one part of a workload never shifts another's.
    pub fn fork(seed: u64, purpose: &str) -> SplitMix64 {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = SplitMix64::new(h);
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// small ranges the workloads draw from.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fills `buf` with generator output.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// `len` generated bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }

    /// `N` generated bytes as an array (EphID-sized noise, nonces).
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        self.fill(&mut a);
        a
    }

    /// A 32-byte seed (AS master seeds, key-pair seeds).
    pub fn seed32(&mut self) -> [u8; 32] {
        self.array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // First outputs of the reference implementation for seed 0 and
        // seed 1234567 (Vigna, splitmix64.c).
        let mut z = SplitMix64::new(0);
        assert_eq!(z.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(z.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(z.next_u64(), 0x06C4_5D18_8009_454F);
        let mut s = SplitMix64::new(1_234_567);
        assert_eq!(s.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(s.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::fork(7, "payload");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::fork(7, "payload");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::fork(7, "hosts");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(SplitMix64::fork(8, "payload").next_u64(), a[0]);
    }

    #[test]
    fn fill_covers_ragged_tail_and_below_stays_in_range() {
        let mut r = SplitMix64::new(3);
        let v = r.bytes(13);
        assert_eq!(v.len(), 13);
        assert!(v[8..].iter().any(|&b| b != 0));
        assert_eq!(r.array::<16>().len(), 16);
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert_eq!(r.below(0), 0);
    }
}
