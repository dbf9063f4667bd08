//! Links with latency, bandwidth, and seeded fault injection.
//!
//! Following the smoltcp guide's fault-injection idiom, every link carries
//! a [`FaultProfile`] with independent drop, corruption, duplication, and
//! reordering probabilities plus delay jitter, all driven by a seeded RNG —
//! adverse conditions are reproducible. Corruption flips one random bit
//! (like smoltcp's `--corrupt-chance`, which mutates one octet), which the
//! APNA MACs must catch downstream. Duplication delivers a second copy
//! later (the classic at-least-once transport hazard the §VIII-D replay
//! windows must absorb), and reordering holds a packet back so it lands
//! behind later traffic — adversarial *timing*, not just adversarial
//! content.

use crate::clock::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-injection knobs for one link direction.
///
/// All `*_chance` fields are probabilities and must lie in `[0, 1]`;
/// [`FaultProfile::assert_valid`] (called by [`Link::new`] and the scenario
/// driver) panics on out-of-range values instead of silently saturating.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultProfile {
    /// Probability a packet is silently dropped, in [0, 1].
    pub drop_chance: f64,
    /// Probability one random bit of a packet is flipped, in [0, 1].
    pub corrupt_chance: f64,
    /// Probability a surviving packet is delivered twice, in [0, 1]. The
    /// duplicate arrives at least 1 µs after the original (plus jitter).
    pub duplicate_chance: f64,
    /// Probability a surviving packet is held back by
    /// [`FaultProfile::reorder_hold_us`], in [0, 1] — enough to land it
    /// behind packets transmitted after it.
    pub reorder_chance: f64,
    /// Maximum uniform extra delay added to every delivery, microseconds.
    pub jitter_us: u64,
    /// Extra hold applied to reordered packets, microseconds.
    pub reorder_hold_us: u64,
}

impl FaultProfile {
    /// A perfect link.
    #[must_use]
    pub fn lossless() -> FaultProfile {
        FaultProfile::default()
    }

    /// A lossy link (the smoltcp guide suggests ~15% as a stress level).
    #[must_use]
    pub fn lossy(drop_chance: f64, corrupt_chance: f64) -> FaultProfile {
        FaultProfile {
            drop_chance,
            corrupt_chance,
            ..FaultProfile::default()
        }
        .assert_valid()
    }

    /// Adds uniform delay jitter of up to `jitter_us` per delivery.
    #[must_use]
    pub fn with_jitter(mut self, jitter_us: u64) -> FaultProfile {
        self.jitter_us = jitter_us;
        self
    }

    /// Adds packet duplication with probability `chance`.
    #[must_use]
    pub fn with_duplication(mut self, chance: f64) -> FaultProfile {
        self.duplicate_chance = chance;
        self.assert_valid()
    }

    /// Adds reordering: with probability `chance` a packet is held back an
    /// extra `hold_us` microseconds.
    #[must_use]
    pub fn with_reordering(mut self, chance: f64, hold_us: u64) -> FaultProfile {
        self.reorder_chance = chance;
        self.reorder_hold_us = hold_us;
        self.assert_valid()
    }

    /// `true` iff every probability lies in [0, 1] (and is not NaN).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        [
            self.drop_chance,
            self.corrupt_chance,
            self.duplicate_chance,
            self.reorder_chance,
        ]
        .iter()
        .all(|p| (0.0..=1.0).contains(p))
    }

    /// Panics if any probability is outside [0, 1]. A `drop_chance` of 1.5
    /// would otherwise behave exactly like 1.0 and silently misreport the
    /// experiment it was part of.
    #[must_use]
    pub fn assert_valid(self) -> FaultProfile {
        assert!(
            self.is_valid(),
            "FaultProfile probabilities must lie in [0, 1]: {self:?}"
        );
        self
    }
}

/// One copy of a packet the link will deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time at the far end.
    pub at: SimTime,
    /// The (possibly mutated) bytes.
    pub bytes: Vec<u8>,
    /// Whether fault injection mutated the packet.
    pub corrupted: bool,
    /// Whether this copy exists only because of duplication.
    pub duplicate: bool,
}

/// What the link did to a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Delivered as one or more copies (duplication yields two).
    Delivered(Vec<Delivery>),
    /// Dropped by fault injection.
    Dropped,
}

/// A point-to-point link between two nodes.
#[derive(Debug)]
pub struct Link {
    /// One-way propagation delay in microseconds.
    pub latency_us: u64,
    /// Capacity in bits per second (serialization delay = size/capacity).
    pub bandwidth_bps: u64,
    /// Fault profile.
    pub faults: FaultProfile,
    rng: StdRng,
    /// Counters for diagnostics.
    pub delivered: u64,
    /// Packets dropped by fault injection.
    pub dropped: u64,
    /// Packets corrupted by fault injection.
    pub corrupted: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Packets held back by reordering.
    pub reordered: u64,
}

impl Link {
    /// Creates a link. `seed` makes fault injection reproducible.
    ///
    /// # Panics
    /// If `faults` carries a probability outside [0, 1].
    #[must_use]
    pub fn new(latency_us: u64, bandwidth_bps: u64, faults: FaultProfile, seed: u64) -> Link {
        Link {
            latency_us,
            bandwidth_bps,
            faults: faults.assert_valid(),
            rng: StdRng::seed_from_u64(seed),
            delivered: 0,
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            reordered: 0,
        }
    }

    /// A 10 Gbps, 1 ms metro link with no faults (default test link).
    #[must_use]
    pub fn metro(seed: u64) -> Link {
        Link::new(1_000, 10_000_000_000, FaultProfile::lossless(), seed)
    }

    /// Serialization + propagation delay for `bytes` bytes.
    #[must_use]
    pub fn transit_time_us(&self, bytes: usize) -> u64 {
        self.latency_us + self.serialization_us(bytes)
    }

    /// Serialization delay alone for `bytes` bytes.
    #[must_use]
    pub fn serialization_us(&self, bytes: usize) -> u64 {
        (bytes as u64 * 8 * 1_000_000) / self.bandwidth_bps.max(1)
    }

    fn jitter(&mut self) -> u64 {
        if self.faults.jitter_us == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.faults.jitter_us)
        }
    }

    /// Sends a packet at `now`; applies fault injection.
    pub fn transmit(&mut self, now: SimTime, packet: &[u8]) -> LinkOutcome {
        if self.faults.drop_chance > 0.0 && self.rng.gen_bool(self.faults.drop_chance) {
            self.dropped += 1;
            return LinkOutcome::Dropped;
        }
        let mut bytes = packet.to_vec();
        let mut corrupted = false;
        if self.faults.corrupt_chance > 0.0
            && !bytes.is_empty()
            && self.rng.gen_bool(self.faults.corrupt_chance)
        {
            let idx = self.rng.gen_range(0..bytes.len());
            let bit = self.rng.gen_range(0u8..8);
            bytes[idx] ^= 1u8 << bit;
            corrupted = true;
            self.corrupted += 1;
        }
        let mut at = now
            .add_micros(self.transit_time_us(packet.len()))
            .add_micros(self.jitter());
        if self.faults.reorder_chance > 0.0 && self.rng.gen_bool(self.faults.reorder_chance) {
            at = at.add_micros(self.faults.reorder_hold_us);
            self.reordered += 1;
        }
        self.delivered += 1;
        let mut deliveries = vec![Delivery {
            at,
            bytes: bytes.clone(),
            corrupted,
            duplicate: false,
        }];
        if self.faults.duplicate_chance > 0.0 && self.rng.gen_bool(self.faults.duplicate_chance) {
            let extra = 1 + self.jitter();
            deliveries.push(Delivery {
                at: at.add_micros(extra),
                bytes,
                corrupted,
                duplicate: true,
            });
            self.duplicated += 1;
        }
        LinkOutcome::Delivered(deliveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps a single-copy delivery.
    fn sole(outcome: LinkOutcome) -> Delivery {
        match outcome {
            LinkOutcome::Delivered(d) => {
                assert_eq!(d.len(), 1, "expected exactly one copy");
                d.into_iter().next().unwrap()
            }
            LinkOutcome::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn lossless_link_delivers_everything() {
        let mut link = Link::metro(1);
        for i in 0..100u32 {
            let d = sole(link.transmit(SimTime::ZERO, &i.to_be_bytes()));
            assert!(!d.corrupted);
            assert!(!d.duplicate);
        }
        assert_eq!(link.delivered, 100);
        assert_eq!(link.dropped, 0);
        assert_eq!(link.duplicated, 0);
        assert_eq!(link.reordered, 0);
    }

    #[test]
    fn transit_time_includes_serialization() {
        let link = Link::new(1_000, 8_000_000, FaultProfile::lossless(), 0);
        // 1000 bytes at 8 Mbps = 1 ms serialization + 1 ms latency.
        assert_eq!(link.transit_time_us(1000), 2_000);
        assert_eq!(link.transit_time_us(0), 1_000);
    }

    #[test]
    fn drop_chance_statistics() {
        let mut link = Link::new(0, 1_000_000_000, FaultProfile::lossy(0.3, 0.0), 42);
        let mut drops = 0;
        for _ in 0..10_000 {
            if matches!(link.transmit(SimTime::ZERO, b"pkt"), LinkOutcome::Dropped) {
                drops += 1;
            }
        }
        // 30% ± generous tolerance.
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut link = Link::new(0, 1_000_000_000, FaultProfile::lossy(0.0, 1.0), 7);
        let original = vec![0u8; 64];
        let d = sole(link.transmit(SimTime::ZERO, &original));
        assert!(d.corrupted);
        let flipped: u32 = d
            .bytes
            .iter()
            .zip(original.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| -> Vec<bool> {
            let mut link = Link::new(0, 1_000_000_000, FaultProfile::lossy(0.5, 0.0), seed);
            (0..100)
                .map(|_| matches!(link.transmit(SimTime::ZERO, b"x"), LinkOutcome::Dropped))
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn delivery_time_advances() {
        let mut link = Link::metro(0);
        let d = sole(link.transmit(SimTime::from_secs(1), &[0u8; 1250]));
        // 1250 B at 10 Gbps = 1 µs serialization + 1000 µs latency.
        assert_eq!(d.at, SimTime::from_secs(1).add_micros(1_001));
    }

    #[test]
    fn duplication_delivers_two_copies_later_copy_flagged() {
        let faults = FaultProfile::lossless().with_duplication(1.0);
        let mut link = Link::new(100, 1_000_000_000, faults, 3);
        match link.transmit(SimTime::ZERO, b"twice") {
            LinkOutcome::Delivered(d) => {
                assert_eq!(d.len(), 2);
                assert!(!d[0].duplicate);
                assert!(d[1].duplicate);
                assert!(d[1].at > d[0].at, "duplicate strictly later");
                assert_eq!(d[0].bytes, d[1].bytes);
            }
            LinkOutcome::Dropped => panic!(),
        }
        assert_eq!(link.duplicated, 1);
        assert_eq!(link.delivered, 1, "a duplicated packet is still one packet");
    }

    #[test]
    fn reordering_holds_packets_back() {
        let faults = FaultProfile::lossless().with_reordering(1.0, 10_000);
        let mut link = Link::new(100, 1_000_000_000, faults, 5);
        let d = sole(link.transmit(SimTime::ZERO, b"late"));
        assert!(d.at.micros() >= 10_100);
        assert_eq!(link.reordered, 1);
    }

    #[test]
    fn jitter_bounds_delay() {
        let faults = FaultProfile::lossless().with_jitter(500);
        let mut link = Link::new(1_000, 1_000_000_000, faults, 11);
        for _ in 0..200 {
            let d = sole(link.transmit(SimTime::ZERO, b"j"));
            let transit = link.transit_time_us(1);
            assert!(d.at.micros() >= transit);
            assert!(d.at.micros() <= transit + 500);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn out_of_range_drop_chance_panics() {
        let _ = FaultProfile::lossy(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn negative_duplicate_chance_panics() {
        let _ = FaultProfile::lossless().with_duplication(-0.1);
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn link_new_validates_profile() {
        let bad = FaultProfile {
            corrupt_chance: 2.0,
            ..FaultProfile::default()
        };
        let _ = Link::new(0, 1, bad, 0);
    }

    #[test]
    fn default_profile_is_derived_and_lossless() {
        let d = FaultProfile::default();
        assert_eq!(d, FaultProfile::lossless());
        assert!(d.is_valid());
        assert_eq!(d.drop_chance, 0.0);
        assert_eq!(d.jitter_us, 0);
    }
}
