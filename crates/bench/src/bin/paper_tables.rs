//! Regenerates the tables and figures of the APNA evaluation (§V) plus the
//! quantitative claims of §VII-C and §VIII that EXPERIMENTS.md sets against
//! a paper-reported number, printing paper-reported vs. measured values.
//!
//! Usage: `paper_tables [e1|e2|e3|e4|e5|e6|e8|e9|all]... [--quick]`
//!
//! `--quick` shrinks workloads (CI-friendly); the default sizes match the
//! paper where feasible (E1 runs the full 500,000-request batch). Every
//! other measurement lives in the `benchmark/` harness.

use apna_bench::{
    granularity_comparison, measure_ephid_generation, reproduce_fig8, BenchWorld,
    HW_PER_PACKET_SECS,
};
use apna_core::granularity::Granularity;
use apna_core::revocation::RevocationList;
use apna_core::session::HandshakeMode;
use apna_core::Timestamp;
use apna_simnet::linerate::{LineRateModel, PerPacketCurve};
use apna_trace::{SyntheticTrace, TraceConfig};
use apna_wire::{ApnaHeader, EphIdBytes, HostAddr};
use std::time::Instant;

const TAGS: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e8", "e9", "all"];

/// Splits the arguments into the experiment tags to run (none = all) and
/// the `--quick` flag; an argument that is neither is an error naming it.
fn parse_args(args: &[String]) -> Result<(Vec<&str>, bool), String> {
    let mut tags = Vec::new();
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            tag if TAGS.contains(&tag) => tags.push(tag),
            other => return Err(format!("unknown experiment {other:?}")),
        }
    }
    Ok((tags, quick))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, quick) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("paper_tables: {e}");
            eprintln!("usage: paper_tables [{}]... [--quick]", TAGS.join("|"));
            std::process::exit(2);
        }
    };
    let all = which.is_empty() || which.contains(&"all");
    let run = |tag: &str| all || which.contains(&tag);

    println!("APNA reproduction — paper tables & figures");
    println!("==========================================\n");

    if run("e1") {
        e1_ephid_generation(quick);
    }
    if run("e2") || run("e3") {
        e2_e3_fig8();
    }
    if run("e4") {
        e4_trace_stats(quick);
    }
    if run("e5") {
        e5_handshake_latency();
    }
    if run("e6") {
        e6_header_overhead();
    }
    if run("e8") {
        e8_revocation_scaling(quick);
    }
    if run("e9") {
        e9_granularity(quick);
    }
}

fn e1_ephid_generation(quick: bool) {
    println!("E1 — EphID generation rate (§V-A3)");
    println!("----------------------------------");
    let count: u64 = if quick { 20_000 } else { 500_000 };
    let peak_flow_rate = 3_888.0; // paper trace peak
    println!(
        "paper:    500,000 requests in 6.9 s | 13.7 µs/EphID | 72.8k EphIDs/s (4 workers) | {}x peak",
        (72_800.0 / peak_flow_rate) as u64
    );
    for workers in [1, 2, 4] {
        let r = measure_ephid_generation(workers, count);
        println!(
            "measured: {} requests in {:.2} s | {:5.1} µs/EphID | {:6.1}k EphIDs/s ({} workers) | {:.0}x peak",
            r.count,
            r.secs,
            r.micros_per_ephid,
            r.rate_per_sec / 1e3,
            workers,
            r.rate_per_sec / peak_flow_rate,
        );
    }
    println!("(software AES + from-scratch Ed25519; the paper used AES-NI + REF10)\n");
}

fn e2_e3_fig8() {
    println!("E2/E3 — Fig. 8: border-router forwarding throughput");
    println!("----------------------------------------------------");
    // Auto backend first (AES-NI where the CPU offers it — the paper's
    // substrate), then the constant-time bitsliced software fallback.
    let auto = reproduce_fig8();
    print_fig8_table(&auto);
    if auto.backend != "soft-bitsliced" {
        std::env::set_var("APNA_SOFT_AES", "1");
        let soft = reproduce_fig8();
        std::env::remove_var("APNA_SOFT_AES");
        print_fig8_table(&soft);
        let speedups: Vec<String> = LineRateModel::FIG8_SIZES
            .iter()
            .filter_map(|&size| {
                let x = auto.speedup_over(&soft, size)?;
                Some(format!("{size} B {x:.1}x"))
            })
            .collect();
        println!(
            "{} vs {} (batch-64): {}",
            auto.backend,
            soft.backend,
            speedups.join(", ")
        );
    }
    println!(
        "paper:    line-limited at every size; saturates 120 Gbps at large sizes\n\
         hw model: per-packet cost {:.0} ns (AES-NI-class)\n",
        HW_PER_PACKET_SECS * 1e9
    );
}

fn print_fig8_table(curve: &PerPacketCurve) {
    let hardware = LineRateModel::paper_testbed(HW_PER_PACKET_SECS).fig8_series();
    println!("crypto backend: {}", curve.backend);
    println!("packet  | batch-64   | model   | paper-HW model (Fig. 8)");
    println!("size B  | ns/pkt     | Mpps    | Mpps     Gbps  limited");
    for ((&(size, secs), sw), hw) in curve.points.iter().zip(curve.modeled()).zip(hardware) {
        println!(
            "{size:7} | {:9.1}  | {:7.2} | {:7.2} {:7.1}  {}",
            secs * 1e9,
            sw.mpps,
            hw.mpps,
            hw.gbps,
            if hw.line_limited { "line" } else { "cpu " },
        );
    }
}

fn e4_trace_stats(quick: bool) {
    println!("E4 — workload trace statistics (§V-A3)");
    println!("---------------------------------------");
    let factor = if quick { 0.002 } else { 0.01 };
    let cfg = TraceConfig::scaled(factor);
    let start = Instant::now();
    let stats = SyntheticTrace::new(cfg).stats();
    println!(
        "paper (full):    1,266,598 hosts | peak 3,888 flows/s | 24 h | 98% of flows < 15 min"
    );
    println!(
        "synthetic (x{factor}): {} hosts seen of {} | peak {} flows/s (target {:.0}) | {} h | {:.1}% < 15 min | {:.1}% HTTPS  [{:.1}s gen]",
        stats.unique_hosts,
        cfg.hosts,
        stats.peak_new_flows_per_sec,
        cfg.peak_flows_per_sec,
        stats.duration_secs / 3600,
        stats.frac_under_15min * 100.0,
        stats.https_fraction * 100.0,
        start.elapsed().as_secs_f64(),
    );
    println!("full-scale config available: TraceConfig::paper_full_scale()\n");
}

fn e5_handshake_latency() {
    println!("E5 — connection-establishment latency (§VII-C)");
    println!("-----------------------------------------------");
    // Compute-side cost of an establishment (ECDH + cert verify), measured.
    let world = BenchWorld::new();
    let cert = &world.host.owned_ephid(world.ephid_idx).cert;
    let kp = apna_core::keys::EphIdKeyPair::from_seed([7; 32]);
    let iters = 50;
    let start = Instant::now();
    for _ in 0..iters {
        apna_core::session::verify_peer_cert(cert, &world.directory, Timestamp(1)).unwrap();
        let ch = apna_core::session::SecureChannel::establish(
            &kp,
            EphIdBytes([1; 16]),
            &cert.dh_public(),
            cert.ephid,
            apna_core::session::Role::Initiator,
        )
        .unwrap();
        std::hint::black_box(ch);
    }
    let compute_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let rtt_ms = 20.0;
    println!("mode                          | RTTs before data (paper) | latency @ RTT=20ms + compute {compute_ms:.2}ms");
    for (name, mode) in [
        ("host-host (§IV-D1)", HandshakeMode::HostHost),
        ("host-host, 0-RTT data", HandshakeMode::HostHostZeroRtt),
        ("client-server (§VII-A)", HandshakeMode::ClientServer),
        ("client-server, 0.5 RTT", HandshakeMode::ClientServerHalfRtt),
        (
            "client-server, 0-RTT early",
            HandshakeMode::ClientServerZeroRtt,
        ),
    ] {
        let rtts = mode.rtts_before_data();
        println!(
            "{name:29} | {rtts:24} | {:.2} ms",
            rtts * rtt_ms + compute_ms
        );
    }
    println!();
}

fn e6_header_overhead() {
    println!("E6 — header & identifier sizes (Fig. 6, Fig. 7)");
    println!("------------------------------------------------");
    let base = ApnaHeader::new(
        HostAddr::new(apna_wire::Aid(1), EphIdBytes([0; 16])),
        HostAddr::new(apna_wire::Aid(2), EphIdBytes([0; 16])),
    );
    let with_nonce = base.with_nonce(1);
    println!(
        "paper:    EphID 16 B | APNA header 48 B (AID 4 + EphID 16 + EphID 16 + AID 4 + MAC 8)"
    );
    println!(
        "measured: EphID {} B | APNA header {} B | +replay nonce (§VIII-D) {} B",
        apna_wire::EPHID_LEN,
        base.wire_len(),
        with_nonce.wire_len(),
    );
    println!(
        "context:  IPv4 header 20 B, IPv6 40 B; GRE deployment adds {} B (IPv4+GRE, Fig. 9)\n",
        apna_wire::ipv4::IPV4_HEADER_LEN + apna_wire::gre::GRE_HEADER_LEN
    );
}

fn e8_revocation_scaling(quick: bool) {
    println!("E8 — revocation-list scaling (§VIII-G2 ablation)");
    println!("-------------------------------------------------");
    let sizes: &[usize] = if quick {
        &[0, 1_000, 100_000]
    } else {
        &[0, 1_000, 100_000, 1_000_000]
    };
    println!("entries   | contains() ns | purge-all ms");
    for &n in sizes {
        let list = RevocationList::new();
        for i in 0..n {
            let mut e = [0u8; 16];
            e[..8].copy_from_slice(&(i as u64).to_be_bytes());
            list.insert(EphIdBytes(e), Timestamp(100));
        }
        let probe = EphIdBytes([0xFF; 16]);
        let iters = 200_000;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(list.contains(&probe));
        }
        let lookup_ns = start.elapsed().as_nanos() as f64 / iters as f64;
        let start = Instant::now();
        let purged = list.purge_expired(Timestamp(101));
        let purge_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(purged, n);
        println!("{n:9} | {lookup_ns:13.1} | {purge_ms:10.2}");
    }
    println!("(hash-table membership: revocation volume does not degrade forwarding)\n");
}

fn e9_granularity(quick: bool) {
    println!("E9 — EphID granularity trade-off (§VIII-A)");
    println!("-------------------------------------------");
    let flows = if quick { 1_000 } else { 10_000 };
    println!("policy          | EphIDs allocated | max flows linkable via one EphID");
    for (policy, allocs, linkable) in granularity_comparison(flows) {
        let name = match policy {
            Granularity::PerHost => "per-host",
            Granularity::PerApplication => "per-application",
            Granularity::PerFlow => "per-flow",
            Granularity::PerPacket => "per-packet",
        };
        println!("{name:15} | {allocs:16} | {linkable}");
    }
    println!("({flows} flows, 10 packets each, 7 applications)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn known_tags_and_quick_parse() {
        assert_eq!(parse_args(&args(&[])), Ok((vec![], false)));
        assert_eq!(
            parse_args(&args(&["e2", "--quick", "e9"])),
            Ok((vec!["e2", "e9"], true))
        );
        for tag in TAGS {
            assert_eq!(parse_args(&args(&[tag])), Ok((vec![tag], false)));
        }
    }

    #[test]
    fn unknown_tags_are_errors_not_silent_no_ops() {
        // `e7` and `contention` were experiments once; like a typo they
        // must not print a header, run nothing and exit 0.
        for bad in ["e7", "contention", "e10", "--full", ""] {
            let err = parse_args(&args(&["e1", bad])).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
