//! The line-rate model behind the Fig. 8 reproduction (experiments E2/E3).
//!
//! The paper's testbed: a commodity server with 6 dual-port 10 GbE NICs
//! (120 Gbps aggregate) fed by a Spirent generator; the measured forwarding
//! curves "match the theoretical maximum performance" for packet sizes
//! 128–1518 B. That theoretical maximum is pure arithmetic:
//!
//! * bit-rate is capped by capacity: `min(C, ...)`;
//! * packet-rate is capped by per-packet CPU work: `N_cores / t_pkt`;
//! * on Ethernet, each frame costs an extra 20 bytes of overhead
//!   (preamble 8 B + inter-frame gap 12 B) on the wire.
//!
//! We measure `t_pkt` — the real cost of the Fig. 4 pipeline on this
//! machine's software AES — and plug it into the same model, reporting both
//! the paper's hardware-budget curve and our software-budget curve.

/// Ethernet per-frame wire overhead in bytes (preamble + IFG).
pub const ETHERNET_OVERHEAD: usize = 20;

/// The forwarding-capacity model of one border-router box.
#[derive(Debug, Clone, Copy)]
pub struct LineRateModel {
    /// Aggregate link capacity in bits per second (paper: 120 Gbps).
    pub capacity_bps: f64,
    /// Worker cores dedicated to forwarding (paper: 2× 8-core Xeon E5-2680;
    /// DPDK typically pins one core per port-queue — we model 16).
    pub cores: usize,
    /// Measured per-packet processing time, seconds (the Fig. 4 pipeline).
    pub per_packet_secs: f64,
}

/// One point of the Fig. 8 curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Packet size in bytes (L2 frame payload as in the paper's x-axis).
    pub packet_size: usize,
    /// Achievable rate in million packets per second — Fig. 8(a).
    pub mpps: f64,
    /// Achievable rate in Gbps of packet bytes — Fig. 8(b).
    pub gbps: f64,
    /// `true` if capacity (not CPU) is the binding constraint.
    pub line_limited: bool,
}

impl LineRateModel {
    /// The paper's hardware configuration with a given measured per-packet
    /// cost.
    #[must_use]
    pub fn paper_testbed(per_packet_secs: f64) -> LineRateModel {
        LineRateModel {
            capacity_bps: 120e9,
            cores: 16,
            per_packet_secs,
        }
    }

    /// Theoretical line-rate packet rate for `size`-byte packets, in pps —
    /// the "theoretical maximum performance" line of §V-B3.
    #[must_use]
    pub fn line_rate_pps(&self, size: usize) -> f64 {
        self.capacity_bps / (((size + ETHERNET_OVERHEAD) * 8) as f64)
    }

    /// CPU-bound packet rate in pps.
    #[must_use]
    pub fn cpu_rate_pps(&self) -> f64 {
        self.cores as f64 / self.per_packet_secs
    }

    /// The achievable point for a packet size: the min of the two budgets.
    #[must_use]
    pub fn throughput(&self, size: usize) -> ThroughputPoint {
        let line = self.line_rate_pps(size);
        let cpu = self.cpu_rate_pps();
        let pps = line.min(cpu);
        ThroughputPoint {
            packet_size: size,
            mpps: pps / 1e6,
            gbps: pps * (size as f64) * 8.0 / 1e9,
            line_limited: line <= cpu,
        }
    }

    /// Amortizes a per-burst cost over its packets — how the E2/E3
    /// reproduction converts its per-burst `process_batch` timings into
    /// the per-packet seconds [`LineRateModel::paper_testbed`] takes.
    #[must_use]
    pub fn per_packet_from_batch(batch_secs: f64, batch_size: usize) -> f64 {
        assert!(batch_size > 0, "empty batch has no per-packet cost");
        batch_secs / batch_size as f64
    }

    /// The five packet sizes of Fig. 8.
    pub const FIG8_SIZES: [usize; 5] = [128, 256, 512, 1024, 1518];

    /// The full Fig. 8 series.
    #[must_use]
    pub fn fig8_series(&self) -> Vec<ThroughputPoint> {
        Self::FIG8_SIZES
            .iter()
            .map(|&s| self.throughput(s))
            .collect()
    }
}

/// A measured per-packet cost curve over packet sizes, labeled with the
/// crypto backend that produced it — what `paper_tables e2` measures once
/// per substrate (AES-NI, bitsliced software) so the E2/E3 tables can set
/// each against the other and against the paper's 120 ns budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PerPacketCurve {
    /// Backend name: `"aes-ni"`, `"soft-bitsliced"`, or a baseline label.
    pub backend: String,
    /// `(packet size in bytes, seconds per packet)` points.
    pub points: Vec<(usize, f64)>,
}

impl PerPacketCurve {
    /// Builds a labeled curve.
    #[must_use]
    pub fn new(backend: impl Into<String>, points: Vec<(usize, f64)>) -> PerPacketCurve {
        PerPacketCurve {
            backend: backend.into(),
            points,
        }
    }

    /// The measured per-packet seconds at `size`, if that size was run.
    #[must_use]
    pub fn secs_at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(s, _)| s == size)
            .map(|&(_, secs)| secs)
    }

    /// How many times cheaper this curve is than `baseline` at `size`
    /// (`> 1` means faster). `None` when either curve misses the size.
    #[must_use]
    pub fn speedup_over(&self, baseline: &PerPacketCurve, size: usize) -> Option<f64> {
        Some(baseline.secs_at(size)? / self.secs_at(size)?)
    }

    /// Runs every point through the paper-testbed throughput model — the
    /// Fig. 8 curve this backend would support.
    #[must_use]
    pub fn modeled(&self) -> Vec<ThroughputPoint> {
        self.points
            .iter()
            .map(|&(size, secs)| LineRateModel::paper_testbed(secs).throughput(size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper reports AES-NI-class per-packet costs leave the pipeline
    /// line-limited at every Fig. 8 size. ~200 ns/packet on 16 cores gives
    /// 80 Mpps CPU budget; 128 B line rate is ~101 Mpps — hmm, that would
    /// be CPU-bound. The paper's own Fig. 8(a) shows ~100 Mpps at 128 B
    /// (matching theoretical max), implying per-packet cost ≲ 160 ns/core.
    /// Use 120 ns to represent the hardware prototype.
    const HW_PER_PKT: f64 = 120e-9;

    #[test]
    fn small_packets_highest_pps() {
        let m = LineRateModel::paper_testbed(HW_PER_PKT);
        let series = m.fig8_series();
        for w in series.windows(2) {
            assert!(w[0].mpps > w[1].mpps, "pps must fall with size");
        }
    }

    #[test]
    fn large_packets_saturate_120gbps() {
        // Fig. 8(b): "as packet sizes increase, we saturate the capacity of
        // 120 Gbps" — goodput approaches but never exceeds capacity.
        let m = LineRateModel::paper_testbed(HW_PER_PKT);
        let p1518 = m.throughput(1518);
        assert!(p1518.line_limited);
        assert!(p1518.gbps > 110.0 && p1518.gbps <= 120.0, "{}", p1518.gbps);
    }

    #[test]
    fn hardware_budget_is_line_limited_at_all_sizes() {
        // The paper's headline: "no throughput penalty" — theoretical max
        // at every size.
        let m = LineRateModel::paper_testbed(HW_PER_PKT);
        for p in m.fig8_series() {
            assert!(
                p.line_limited,
                "size {} must be line-limited",
                p.packet_size
            );
        }
    }

    #[test]
    fn fig8a_values_match_paper_shape() {
        // Paper Fig. 8(a) shows ~101 Mpps at 128 B (line rate of
        // 120 Gbps / (148 B × 8)).
        let m = LineRateModel::paper_testbed(HW_PER_PKT);
        let p = m.throughput(128);
        assert!((p.mpps - 101.35).abs() < 1.0, "mpps = {}", p.mpps);
    }

    #[test]
    fn slow_cpu_becomes_the_bottleneck() {
        // "Under higher packet rates, the heavier load would start to
        // degrade forwarding performance" — model a slow software pipeline.
        let m = LineRateModel::paper_testbed(2e-6); // 2 µs per packet
        let p = m.throughput(128);
        assert!(!p.line_limited);
        assert!((p.mpps - 8.0).abs() < 0.1); // 16 cores / 2 µs
                                             // Large packets may still saturate the line.
        let p_big = m.throughput(1518);
        assert!(p_big.gbps <= 120.0);
    }

    #[test]
    fn batched_measurement_amortizes_per_packet_cost() {
        // A 64-packet burst measured at 64 × 500 ns has the same model as
        // a scalar 500 ns measurement...
        let scalar = LineRateModel::paper_testbed(500e-9);
        let batched =
            LineRateModel::paper_testbed(LineRateModel::per_packet_from_batch(64.0 * 500e-9, 64));
        assert!((scalar.cpu_rate_pps() - batched.cpu_rate_pps()).abs() < 1.0);
        // ...and a burst that amortizes fixed costs (64 packets in the
        // time 32 scalar packets would take) doubles the CPU budget.
        let faster =
            LineRateModel::paper_testbed(LineRateModel::per_packet_from_batch(32.0 * 500e-9, 64));
        assert!((faster.cpu_rate_pps() / scalar.cpu_rate_pps() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn per_packet_curve_speedup_and_model() {
        let baseline = PerPacketCurve::new("table", vec![(512, 6.3e-6), (128, 2.0e-6)]);
        let fast = PerPacketCurve::new("aes-ni", vec![(512, 4.2e-7)]);
        assert_eq!(baseline.secs_at(512), Some(6.3e-6));
        assert_eq!(fast.secs_at(128), None);
        let s = fast.speedup_over(&baseline, 512).unwrap();
        assert!((s - 15.0).abs() < 0.1, "speedup {s}");
        assert_eq!(fast.speedup_over(&baseline, 128), None);
        let modeled = baseline.modeled();
        assert_eq!(modeled.len(), 2);
        assert!(!modeled[0].line_limited, "6.3 µs/pkt is CPU-bound");
    }

    #[test]
    fn gbps_consistent_with_mpps() {
        let m = LineRateModel::paper_testbed(HW_PER_PKT);
        for p in m.fig8_series() {
            let expect = p.mpps * 1e6 * (p.packet_size as f64) * 8.0 / 1e9;
            assert!((p.gbps - expect).abs() < 1e-9);
        }
    }
}
