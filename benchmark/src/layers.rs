//! The per-layer metrics: which span or counter each one reads.
//!
//! Names, units and directions live in `BENCHMARK.json` (the one list
//! the driver, `compare` and this table must agree on — a unit test
//! holds them together); this table says where each number comes from.
//! A span or counter the workload recorded itself wins over the probe
//! suite's of the same name, so on a workload that exercises a layer
//! the metric describes that workload's own calls.

use crate::stats;
use crate::trace::{SpanTotals, Tracer};
use std::collections::BTreeMap;

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Total nanoseconds of the named spans / items they covered.
    NsPerItem(&'static str),
    /// Same, in microseconds.
    UsPerItem(&'static str),
    /// Total microseconds of the named spans / number of spans.
    UsPerCall(&'static str),
    /// Total milliseconds of the named spans / number of spans.
    MsPerCall(&'static str),
    /// Median duration of the named spans, microseconds.
    P50Us(&'static str),
    /// Self time of the named spans / their total time.
    SelfShare(&'static str),
    /// A counter observed at a layer boundary.
    Counter(&'static str),
}

use Source::{Counter, MsPerCall, NsPerItem, P50Us, SelfShare, UsPerCall, UsPerItem};

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const LAYER_METRICS: &[(&str, Source)] = &[
    (
        "wire.header_parse_ns_per_pkt",
        NsPerItem("wire.header_parse"),
    ),
    ("wire.batch_build_ns_per_pkt", NsPerItem("wire.batch_build")),
    ("wire.encap_ns_per_pkt", NsPerItem("wire.encap")),
    ("wire.decap_ns_per_pkt", NsPerItem("wire.decap")),
    ("core.ephid.open_ns_per_pkt", NsPerItem("core.ephid.open")),
    ("core.ephid.seal_us", UsPerItem("core.ephid.seal")),
    (
        "core.border.egress_ns_per_pkt",
        NsPerItem("core.border.egress"),
    ),
    (
        "core.border.ingress_ns_per_pkt",
        NsPerItem("core.border.ingress"),
    ),
    (
        "core.border.unattributed_ns_per_pkt",
        Counter("core.border.unattributed_ns_per_pkt"),
    ),
    (
        "core.border.fast_path_ratio",
        Counter("core.border.fast_path_ratio"),
    ),
    ("core.border.mean_burst", Counter("core.border.mean_burst")),
    (
        "core.hostinfo.mac_verify_ns_per_pkt",
        NsPerItem("core.hostinfo.mac_verify"),
    ),
    (
        "core.hostinfo.hosts_per_burst",
        Counter("core.hostinfo.hosts_per_burst"),
    ),
    (
        "core.revocation.lookup_ns_per_pkt",
        NsPerItem("core.revocation.lookup"),
    ),
    (
        "core.revocation.apply_us",
        UsPerItem("core.revocation.apply"),
    ),
    (
        "core.revocation.entries",
        Counter("core.revocation.entries"),
    ),
    (
        "core.replay.check_ns_per_pkt",
        NsPerItem("core.replay.check"),
    ),
    ("core.replay.entries", Counter("core.replay.entries")),
    ("crypto.cmac_ns_per_pkt", NsPerItem("crypto.cmac")),
    ("crypto.gcm_seal_ns_per_pkt", NsPerItem("crypto.gcm_seal")),
    ("crypto.gcm_open_ns_per_pkt", NsPerItem("crypto.gcm_open")),
    ("crypto.ed25519_sign_us", UsPerItem("crypto.ed25519_sign")),
    (
        "crypto.ed25519_verify_us",
        UsPerItem("crypto.ed25519_verify"),
    ),
    ("crypto.x25519_us", UsPerItem("crypto.x25519")),
    (
        "core.session.handshake_us",
        UsPerItem("core.session.handshake"),
    ),
    (
        "core.session.seal_ns_per_pkt",
        NsPerItem("core.session.seal"),
    ),
    (
        "core.session.open_ns_per_pkt",
        NsPerItem("core.session.open"),
    ),
    ("gateway.outbound_ns_per_pkt", NsPerItem("gateway.outbound")),
    ("gateway.inbound_ns_per_pkt", NsPerItem("gateway.inbound")),
    ("gateway.new_flow_us", UsPerItem("gateway.new_flow")),
    ("gateway.ephids_owned", Counter("gateway.ephids_owned")),
    ("gateway.flows", Counter("gateway.flows")),
    ("core.agent.attach_us", UsPerItem("core.agent.attach")),
    ("core.agent.acquire_us", UsPerItem("core.agent.acquire")),
    (
        "core.agent.refresh_us_per_ephid",
        UsPerItem("core.agent.refresh"),
    ),
    (
        "core.control.parse_ns_per_msg",
        NsPerItem("core.control.parse"),
    ),
    (
        "core.control.dispatch_us_per_batch",
        UsPerCall("core.control.dispatch"),
    ),
    (
        "core.management.issue_us_per_req",
        UsPerItem("core.management.issue"),
    ),
    (
        "core.management.refused",
        Counter("core.management.refused"),
    ),
    ("core.ctrl_log.append_us", UsPerItem("core.ctrl_log.append")),
    (
        "core.ctrl_log.bytes_per_issue",
        Counter("core.ctrl_log.bytes_per_issue"),
    ),
    ("core.ctrl_log.records", Counter("core.ctrl_log.records")),
    (
        "core.ctrl_log.io_errors",
        Counter("core.ctrl_log.io_errors"),
    ),
    (
        "core.ctrl_log.snapshot_ms",
        MsPerCall("core.ctrl_log.snapshot"),
    ),
    (
        "core.ctrl_log.replay_us_per_record",
        UsPerItem("core.ctrl_log.replay"),
    ),
    ("io.ring.send_ns_per_pkt", NsPerItem("io.ring.send")),
    ("io.ring.recv_ns_per_pkt", NsPerItem("io.ring.recv")),
    ("io.udp.send_ns_per_pkt", NsPerItem("io.udp.send")),
    ("io.udp.recv_ns_per_pkt", NsPerItem("io.udp.recv")),
    ("io.udp.rx_rejected", Counter("io.udp.rx_rejected")),
    ("io.stats.poll_us", UsPerItem("io.stats.poll")),
    (
        "bin.apna-gateway.cpu_us_per_pkt",
        Counter("bin.apna-gateway.cpu_us_per_pkt"),
    ),
    (
        "bin.apna-gateway.sys_share",
        Counter("bin.apna-gateway.sys_share"),
    ),
    (
        "bin.apna-gateway.out_hop_p50_us",
        P50Us("bin.apna-gateway.out_hop"),
    ),
    (
        "bin.apna-gateway.in_hop_p50_us",
        P50Us("bin.apna-gateway.in_hop"),
    ),
    (
        "bin.apna-gateway.idle_cpu_ms_per_s",
        Counter("bin.apna-gateway.idle_cpu_ms_per_s"),
    ),
    (
        "bin.apna-gateway.rotated",
        Counter("bin.apna-gateway.rotated"),
    ),
    (
        "bin.apna-gateway.translate_errors",
        Counter("bin.apna-gateway.translate_errors"),
    ),
    (
        "bin.apna-gateway.start_ms",
        Counter("bin.apna-gateway.start_ms"),
    ),
    (
        "bin.apna-border.cpu_us_per_pkt",
        Counter("bin.apna-border.cpu_us_per_pkt"),
    ),
    (
        "bin.apna-border.sys_share",
        Counter("bin.apna-border.sys_share"),
    ),
    ("bin.apna-border.hop_p50_us", P50Us("bin.apna-border.hop")),
    (
        "bin.apna-border.mean_burst",
        Counter("bin.apna-border.mean_burst"),
    ),
    (
        "bin.apna-border.idle_cpu_ms_per_s",
        Counter("bin.apna-border.idle_cpu_ms_per_s"),
    ),
    (
        "bin.apna-border.drops_total",
        Counter("bin.apna-border.drops_total"),
    ),
    (
        "bin.apna-border.start_ms",
        Counter("bin.apna-border.start_ms"),
    ),
    ("bin.pair.window_pps", Counter("bin.pair.window_pps")),
    ("simnet.scale.events", Counter("simnet.scale.events")),
    (
        "simnet.scale.queue_high_water",
        Counter("simnet.scale.queue_high_water"),
    ),
    (
        "simnet.scale.materialized_hosts",
        Counter("simnet.scale.materialized_hosts"),
    ),
    (
        "simnet.scale.delivered_ratio",
        Counter("simnet.scale.delivered_ratio"),
    ),
    (
        "simnet.event.queue_ns_per_op",
        NsPerItem("simnet.event.queue"),
    ),
    ("trip.unattributed_share", SelfShare("trip.burst")),
    ("trace.overhead_ratio", Counter("trace.overhead_ratio")),
    ("trace.spans", Counter("trace.spans")),
    ("gen.late_p99_us", Counter("gen.late_p99_us")),
    ("e2e.goodput_mbps", Counter("e2e.goodput_mbps")),
    ("e2e.flow_setup_p50_us", Counter("e2e.flow_setup_p50_us")),
    ("e2e.recover_ms", Counter("e2e.recover_ms")),
    ("e2e.fail_ratio", Counter("e2e.fail_ratio")),
];

/// Spans and counters of one origin (the workload, or the probes).
pub struct Observed<'a> {
    /// The recorded spans.
    pub tracer: &'a Tracer,
    /// Counter observations.
    pub counters: &'a BTreeMap<&'static str, f64>,
}

/// Resolves every metric of [`LAYER_METRICS`]: the workload's own
/// observation where it made one, else the probe suite's.
pub fn resolve(workload: &Observed, probes: &Observed) -> Vec<(&'static str, f64)> {
    let own = workload.tracer.aggregate();
    let probed = probes.tracer.aggregate();
    let totals = |name: &str| -> SpanTotals {
        own.get(name)
            .filter(|t| t.calls > 0)
            .or_else(|| probed.get(name))
            .copied()
            .unwrap_or_default()
    };
    LAYER_METRICS
        .iter()
        .map(|&(metric, source)| {
            let value = match source {
                NsPerItem(span) => totals(span).ns_per_item(),
                UsPerItem(span) => totals(span).ns_per_item() / 1e3,
                UsPerCall(span) => totals(span).us_per_call(),
                MsPerCall(span) => totals(span).us_per_call() / 1e3,
                SelfShare(span) => {
                    let t = totals(span);
                    if t.total_ns == 0 {
                        0.0
                    } else {
                        t.self_ns as f64 / t.total_ns as f64
                    }
                }
                P50Us(span) => {
                    let mut d = workload.tracer.durations_us(span);
                    if d.is_empty() {
                        d = probes.tracer.durations_us(span);
                    }
                    stats::median(&d)
                }
                Counter(key) => workload
                    .counters
                    .get(key)
                    .or_else(|| probes.counters.get(key))
                    .copied()
                    .unwrap_or(0.0),
            };
            (metric, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in LAYER_METRICS {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(LAYER_METRICS.len() <= 128);
    }

    #[test]
    fn workload_observations_win_over_probes() {
        let epoch = Instant::now();
        let mut own = Tracer::on(epoch);
        own.record(
            "wire.encap",
            epoch,
            epoch + std::time::Duration::from_nanos(3200),
            1,
            32,
        );
        let mut probe = Tracer::on(epoch);
        probe.record(
            "wire.encap",
            epoch,
            epoch + std::time::Duration::from_nanos(6400),
            1,
            32,
        );
        probe.record(
            "wire.decap",
            epoch,
            epoch + std::time::Duration::from_nanos(640),
            1,
            32,
        );
        probe.record(
            "bin.apna-border.hop",
            epoch,
            epoch + std::time::Duration::from_micros(70),
            1,
            1,
        );
        let own_counters = BTreeMap::from([("gateway.flows", 7.0)]);
        let probe_counters = BTreeMap::from([("gateway.flows", 2.0), ("core.replay.entries", 5.0)]);
        let resolved: BTreeMap<_, _> = resolve(
            &Observed {
                tracer: &own,
                counters: &own_counters,
            },
            &Observed {
                tracer: &probe,
                counters: &probe_counters,
            },
        )
        .into_iter()
        .collect();
        assert_eq!(resolved["wire.encap_ns_per_pkt"], 100.0);
        assert_eq!(resolved["wire.decap_ns_per_pkt"], 20.0);
        assert_eq!(resolved["bin.apna-border.hop_p50_us"], 70.0);
        assert_eq!(resolved["gateway.flows"], 7.0);
        assert_eq!(resolved["core.replay.entries"], 5.0);
        assert_eq!(resolved["core.ctrl_log.io_errors"], 0.0);
        assert_eq!(resolved.len(), LAYER_METRICS.len());
    }
}
