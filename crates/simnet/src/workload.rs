//! Seeded heavy-tailed workload generators.
//!
//! Real traffic is bursty in two dimensions the old per-tick driver could
//! not express: flow *sizes* are heavy-tailed (many mice, a few
//! elephants), and flow *arrivals* cluster (Poisson processes produce
//! runs of near-simultaneous starts). Both matter for APNA at scale —
//! heavy tails decide how often per-flow EphID issuance hits the control
//! plane, and arrival clustering decides how deep the border routers'
//! batch queues get.
//!
//! Everything here is seeded and deterministic: the same `(seed, config)`
//! always yields the same flow sequence. Floating-point draws (`ln`,
//! `powf`) are bit-stable per platform, which is all the byte-identical
//! rerun guarantee needs (reruns compare runs of the same binary).

use crate::clock::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flow-size distribution, in packets per flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizes {
    /// Every flow carries exactly this many packets.
    Fixed(u32),
    /// Bounded Pareto: heavy-tailed sizes with shape `alpha` (smaller =
    /// heavier tail; web-flow literature uses 1.1–1.3), scale `min_pkts`,
    /// truncated at `max_pkts`. The truncation keeps per-flow bookkeeping
    /// in a fixed-width bitmap (≤ 64 packets) at scale.
    Pareto {
        /// Tail index (must be > 0).
        alpha: f64,
        /// Minimum flow size in packets (≥ 1).
        min_pkts: u32,
        /// Truncation cap in packets (≥ `min_pkts`).
        max_pkts: u32,
    },
}

impl FlowSizes {
    /// Draws one flow size in packets.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            FlowSizes::Fixed(n) => n.max(1),
            FlowSizes::Pareto {
                alpha, min_pkts, ..
            } => {
                let min = f64::from(min_pkts.max(1));
                // Inverse-transform sampling: X = xm / U^(1/alpha). The
                // uniform draw is in [0, 1); nudge away from 0 to bound X.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let x = min / u.powf(1.0 / alpha.max(1e-6));
                let capped = x.min(f64::from(self.max_pkts()));
                (capped as u32).max(1)
            }
        }
    }

    /// The largest flow [`FlowSizes::sample`] can draw, in packets.
    #[must_use]
    pub fn max_pkts(&self) -> u32 {
        match *self {
            FlowSizes::Fixed(n) => n.max(1),
            FlowSizes::Pareto {
                min_pkts, max_pkts, ..
            } => max_pkts.max(min_pkts).max(1),
        }
    }
}

/// Flow arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals at `per_sec` flows per second: exponentially
    /// distributed inter-arrival gaps, the standard model for independent
    /// session starts.
    Poisson {
        /// Mean arrival rate, flows per second.
        per_sec: f64,
    },
    /// Deterministic arrivals every `gap_us` microseconds (a paced load
    /// generator; useful for bisection and worst-case queue tests).
    Uniform {
        /// Fixed inter-arrival gap in microseconds (≥ 1).
        gap_us: u64,
    },
}

impl Arrivals {
    /// Draws the gap to the next arrival, in microseconds (≥ 1).
    pub fn next_gap_us(&self, rng: &mut StdRng) -> u64 {
        match *self {
            Arrivals::Poisson { per_sec } => {
                let rate = per_sec.max(1e-9);
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let gap_secs = -u.ln() / rate;
                ((gap_secs * 1e6) as u64).max(1)
            }
            Arrivals::Uniform { gap_us } => gap_us.max(1),
        }
    }
}

/// One generated flow: who talks to whom, when, and how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Arrival time of the flow's first packet.
    pub at: SimTime,
    /// Sender host index (dense, `0..hosts`).
    pub src: u32,
    /// Receiver host index (dense, `0..hosts`, never equal to `src`).
    pub dst: u32,
    /// Number of packets in the flow.
    pub pkts: u32,
}

/// A seeded flow generator: an iterator over [`FlowSpec`]s.
///
/// Hosts are addressed by dense index; the scenario driver maps indices to
/// (AS, agent) pairs. Sources and destinations are drawn uniformly, which
/// combined with heavy-tailed sizes reproduces the "many idle hosts, a few
/// hot ones" shape that lazy materialization exploits.
#[derive(Debug, Clone)]
pub struct Workload {
    rng: StdRng,
    hosts: u32,
    sizes: FlowSizes,
    arrivals: Arrivals,
    clock: SimTime,
}

impl Workload {
    /// Creates a generator over `hosts` hosts starting at `start`.
    #[must_use]
    pub fn new(
        seed: u64,
        hosts: u32,
        sizes: FlowSizes,
        arrivals: Arrivals,
        start: SimTime,
    ) -> Workload {
        Workload {
            rng: StdRng::seed_from_u64(seed ^ 0x776f_726b_6c6f_6164), // "workload"
            hosts: hosts.max(2),
            sizes,
            arrivals,
            clock: start,
        }
    }

    /// Draws the next flow. Arrival times are strictly increasing by at
    /// least 1 µs, so a flow sequence never stalls the simulated clock.
    pub fn next_flow(&mut self) -> FlowSpec {
        self.clock = self
            .clock
            .add_micros(self.arrivals.next_gap_us(&mut self.rng));
        let src = self.rng.gen_range(0..self.hosts);
        let mut dst = self.rng.gen_range(0..self.hosts);
        if dst == src {
            dst = (dst + 1) % self.hosts;
        }
        let pkts = self.sizes.sample(&mut self.rng);
        FlowSpec {
            at: self.clock,
            src,
            dst,
            pkts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_flows() {
        let mk = || {
            Workload::new(
                42,
                1000,
                FlowSizes::Pareto {
                    alpha: 1.2,
                    min_pkts: 1,
                    max_pkts: 64,
                },
                Arrivals::Poisson { per_sec: 500.0 },
                SimTime::ZERO,
            )
        };
        let a: Vec<FlowSpec> = {
            let mut w = mk();
            (0..200).map(|_| w.next_flow()).collect()
        };
        let b: Vec<FlowSpec> = {
            let mut w = mk();
            (0..200).map(|_| w.next_flow()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn pareto_sizes_are_bounded_and_heavy_tailed() {
        let sizes = FlowSizes::Pareto {
            alpha: 1.2,
            min_pkts: 2,
            max_pkts: 64,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<u32> = (0..10_000).map(|_| sizes.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&n| (2..=64).contains(&n)));
        // Heavy tail: mice dominate but elephants exist.
        let mice = draws.iter().filter(|&&n| n <= 4).count();
        let elephants = draws.iter().filter(|&&n| n >= 32).count();
        assert!(mice > draws.len() / 2, "mice: {mice}");
        assert!(elephants > 0, "no elephants in 10k draws");
    }

    #[test]
    fn poisson_gaps_average_near_rate() {
        let arr = Arrivals::Poisson { per_sec: 1000.0 }; // mean gap 1000 µs
        let mut rng = StdRng::seed_from_u64(9);
        let total: u64 = (0..10_000).map(|_| arr.next_gap_us(&mut rng)).sum();
        let mean = total / 10_000;
        assert!((800..1200).contains(&mean), "mean gap {mean} µs");
    }

    #[test]
    fn arrivals_strictly_increase_and_src_ne_dst() {
        let mut w = Workload::new(
            1,
            2,
            FlowSizes::Fixed(3),
            Arrivals::Uniform { gap_us: 10 },
            SimTime::from_secs(5),
        );
        let mut last = SimTime::from_secs(5);
        for _ in 0..100 {
            let f = w.next_flow();
            assert!(f.at > last);
            assert_ne!(f.src, f.dst);
            assert_eq!(f.pkts, 3);
            last = f.at;
        }
    }
}
