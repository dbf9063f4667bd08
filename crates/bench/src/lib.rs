//! # apna-bench
//!
//! The paper-comparison tables. `paper_tables` prints the rows
//! EXPERIMENTS.md sets against a number the paper itself reports (§V-A3
//! EphID generation, Fig. 8 forwarding throughput, §VII-C handshake
//! latency, header sizes, the §VIII ablations); this library holds the
//! fixture and the measurements those rows need, and nothing else.
//!
//! Every other number this repository claims — per-layer costs, daemon
//! and I/O throughput, issuance, simulator scale — comes from the
//! `benchmark/` harness and is named in `BENCHMARK.json`.

#![forbid(unsafe_code)]

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::asnode::AsNode;
use apna_core::border::Direction;
use apna_core::cert::CertKind;
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::keys::{EphIdKeyPair, HostAsKey};
use apna_core::time::{ExpiryClass, Timestamp};
use apna_core::Hid;
use apna_simnet::linerate::{LineRateModel, PerPacketCurve};
use apna_wire::{Aid, EphIdBytes, HostAddr, PacketBatch, ReplayMode};
use std::time::Instant;

/// A ready-made single-AS world with one registered host and one issued
/// EphID — the fixture most measurements need.
pub struct BenchWorld {
    /// The AS under test.
    pub node: AsNode,
    /// The shared directory.
    pub directory: AsDirectory,
    /// A bootstrapped host agent.
    pub host: HostAgent,
    /// Index of an issued data EphID on `host`.
    pub ephid_idx: usize,
    /// The host's HID.
    pub hid: Hid,
    /// The host↔AS key (for building packets outside the host).
    pub kha: HostAsKey,
}

impl BenchWorld {
    /// Builds the fixture deterministically.
    pub fn new() -> BenchWorld {
        let directory = AsDirectory::new();
        let node = AsNode::from_seed(Aid(1), [1; 32], &directory, Timestamp(0));
        let mut host = HostAgent::attach(
            &node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            42,
        )
        .unwrap();
        let ephid_idx = host
            .acquire(&node, EphIdUsage::DATA_LONG, Timestamp(0))
            .unwrap();
        // Recover hid/kha for packet construction outside the host.
        let plain =
            apna_core::ephid::open(&node.infra.keys, &host.owned_ephid(ephid_idx).ephid()).unwrap();
        let kha = node.infra.host_db.key_of_valid(plain.hid).unwrap();
        BenchWorld {
            node,
            directory,
            host,
            ephid_idx,
            hid: plain.hid,
            kha,
        }
    }

    /// Builds a burst of `n` valid outgoing packets of `total_size` bytes
    /// each, ready for the batched pipeline.
    pub fn burst_of(&mut self, n: usize, total_size: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.packet_of_size(total_size)).collect()
    }

    /// Builds a valid outgoing packet of exactly `total_size` bytes
    /// (header + payload), MAC'd with the host's key.
    pub fn packet_of_size(&mut self, total_size: usize) -> Vec<u8> {
        let payload = vec![0xAB; payload_len(total_size)];
        self.host.build_raw_packet(
            self.ephid_idx,
            HostAddr::new(Aid(2), EphIdBytes([0x77; 16])),
            &payload,
        )
    }
}

/// Payload bytes that make a packet `total_size` bytes on the wire.
fn payload_len(total_size: usize) -> usize {
    total_size.saturating_sub(ReplayMode::Disabled.header_len())
}

impl Default for BenchWorld {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of the E1 EphID-generation measurement.
#[derive(Debug, Clone, Copy)]
pub struct EphIdGenResult {
    /// Requests served.
    pub count: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Mean microseconds per EphID (+certificate).
    pub micros_per_ephid: f64,
    /// Aggregate generation rate, EphIDs per second.
    pub rate_per_sec: f64,
    /// Worker threads used.
    pub workers: usize,
}

/// E1: generate `count` EphIDs (+ signed certificates) across `workers`
/// threads, mirroring §V-A3's 4-process parallel issuance (issuance is
/// embarrassingly parallel; no coordination needed).
pub fn measure_ephid_generation(workers: usize, count: u64) -> EphIdGenResult {
    let world = BenchWorld::new();
    let ms = &world.node.ms;
    let kp = EphIdKeyPair::from_seed([9; 32]);
    let (sign_pub, dh_pub) = kp.public_keys();
    let hid = world.hid;
    let per_worker = count / workers as u64;

    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || {
                for _ in 0..per_worker {
                    let (eid, cert) = ms.issue(
                        hid,
                        sign_pub,
                        dh_pub,
                        CertKind::Data,
                        ExpiryClass::Short,
                        Timestamp(1),
                    );
                    std::hint::black_box((eid, cert));
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let served = per_worker * workers as u64;
    EphIdGenResult {
        count: served,
        secs,
        micros_per_ephid: secs * 1e6 * workers as f64 / served as f64,
        rate_per_sec: served as f64 / secs,
        workers,
    }
}

/// Mean nanoseconds per call of `f` over `iters` timed calls, after a
/// quarter as many untimed ones (caches, branch predictors and the
/// allocator settle before the clock starts).
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    for _ in 0..iters / 4 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Batch size the E2/E3 reproduction uses for its batched curve (a common
/// DPDK burst size).
pub const FIG8_BATCH: usize = 64;

/// Fig. 8's point: seconds per packet of `BorderRouter::process_batch`
/// over a `batch_size` burst, including the per-burst parse stage.
fn measure_batched_pipeline(size: usize, batch_size: usize) -> f64 {
    let mut world = BenchWorld::new();
    let packets = world.burst_of(batch_size, size);
    let mut batch = PacketBatch::from_packets(ReplayMode::Disabled, packets);
    let node = &world.node;
    let iters = (2_000 / batch_size).max(20) as u64;
    let secs_per_batch = time_ns(iters, || {
        batch.clear_parsed();
        std::hint::black_box(
            node.br
                .process_batch(Direction::Egress, &mut batch, Timestamp(1)),
        );
    }) * 1e-9;
    LineRateModel::per_packet_from_batch(secs_per_batch, batch_size)
}

/// The per-packet cost representing the paper's AES-NI + DPDK pipeline
/// (chosen so the modeled curve matches Fig. 8's "theoretical maximum at
/// every size", see `apna_simnet::linerate` tests).
pub const HW_PER_PACKET_SECS: f64 = 120e-9;

/// E2/E3: the measured per-packet egress cost of `process_batch` over
/// [`FIG8_BATCH`]-packet bursts at every Fig. 8 packet size, labeled with
/// the crypto backend new ciphers select right now (`aes-ni`, or
/// `soft-bitsliced` under `APNA_SOFT_AES=1`). `PerPacketCurve::modeled`
/// turns it into the Fig. 8 throughput curve this machine supports.
pub fn reproduce_fig8() -> PerPacketCurve {
    PerPacketCurve::new(
        apna_crypto::aes::active_backend(),
        LineRateModel::FIG8_SIZES
            .iter()
            .map(|&size| (size, measure_batched_pipeline(size, FIG8_BATCH)))
            .collect(),
    )
}

/// E9: replay `flows` flows under each granularity policy; returns
/// (policy, ephids_allocated, max_flows_linkable_by_one_ephid).
pub fn granularity_comparison(flows: u64) -> Vec<(Granularity, u64, u64)> {
    use apna_core::granularity::{EphIdPool, SlotDecision};
    let policies = [
        Granularity::PerHost,
        Granularity::PerApplication,
        Granularity::PerFlow,
        Granularity::PerPacket,
    ];
    let packets_per_flow = 10u64;
    policies
        .iter()
        .map(|&policy| {
            let mut pool = EphIdPool::new(policy);
            let mut idx = 0usize;
            let mut flows_per_slot: std::collections::HashMap<
                usize,
                std::collections::HashSet<u64>,
            > = std::collections::HashMap::new();
            for flow in 0..flows {
                let app = (flow % 7) as u16;
                for _pkt in 0..packets_per_flow {
                    let slot = match pool.slot_for(flow, app) {
                        SlotDecision::Reuse(i) => i,
                        SlotDecision::NeedNew(key) => {
                            let i = idx;
                            idx += 1;
                            pool.install(key, i);
                            i
                        }
                    };
                    flows_per_slot.entry(slot).or_default().insert(flow);
                }
            }
            let max_linkable = flows_per_slot
                .values()
                .map(|s| s.len() as u64)
                .max()
                .unwrap_or(0);
            (policy, pool.allocations(), max_linkable)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds() {
        let mut w = BenchWorld::new();
        let pkt = w.packet_of_size(128);
        assert_eq!(pkt.len(), 128);
        assert!(w
            .node
            .br
            .process_outgoing(&pkt, ReplayMode::Disabled, Timestamp(1))
            .is_forward());
    }

    #[test]
    fn generation_measurement_sane() {
        let r = measure_ephid_generation(1, 200);
        assert_eq!(r.count, 200);
        assert!(r.rate_per_sec > 0.0);
        assert!(r.micros_per_ephid > 0.0);
        let r4 = measure_ephid_generation(4, 200);
        assert_eq!(r4.workers, 4);
    }

    #[test]
    fn batched_pipeline_measurement_sane() {
        let per_pkt = measure_batched_pipeline(256, 8);
        assert!(per_pkt > 0.0);
        // A batch of one is what the per-packet wrappers run; it must
        // still measure a plausible per-packet cost.
        let single = measure_batched_pipeline(256, 1);
        assert!(single > 0.0);
    }

    #[test]
    fn burst_of_builds_processable_packets() {
        let mut w = BenchWorld::new();
        let burst = w.burst_of(4, 256);
        let mut batch = PacketBatch::from_packets(ReplayMode::Disabled, burst);
        let out = w
            .node
            .br
            .process_batch(Direction::Egress, &mut batch, Timestamp(1));
        assert_eq!(out.passed(), 4);
    }

    #[test]
    fn granularity_orders_as_paper_says() {
        let rows = granularity_comparison(100);
        let get = |g: Granularity| *rows.iter().find(|(p, _, _)| *p == g).unwrap();
        let (_, host_alloc, host_link) = get(Granularity::PerHost);
        let (_, flow_alloc, flow_link) = get(Granularity::PerFlow);
        let (_, pkt_alloc, pkt_link) = get(Granularity::PerPacket);
        assert_eq!(host_alloc, 1);
        assert_eq!(host_link, 100); // everything linkable
        assert_eq!(flow_alloc, 100);
        assert_eq!(flow_link, 1); // one flow per EphID
        assert_eq!(pkt_alloc, 1000); // 10 packets per flow
        assert_eq!(pkt_link, 1);
    }
}
