//! `GatewayCore`, the gateway daemon's burst logic with the sockets taken
//! out: a scripted run through it, with a `BorderCore` on a mirrored node
//! standing in for the border daemon, renders the daemon's stats JSON with
//! every key path, in order, that the loopback demo and the benchmark
//! harness read.

use apna::daemon::{ctrl_log_json, DaemonCore, GatewayCore};
use apna_core::asnode::AsNode;
use apna_core::deploy::BorderCore;
use apna_core::directory::AsDirectory;
use apna_core::host::Host;
use apna_core::time::Timestamp;
use apna_gateway::daemon::{PairConfig, Port, TranslatorPair};
use apna_gateway::legacy::LegacyPacket;
use apna_io::IoCounters;
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::{gre, Aid};

/// The gateway core and what its two sockets would have counted.
struct Shell<'a> {
    core: GatewayCore<'a>,
    io: [IoCounters; 2],
}

impl Shell<'_> {
    /// One burst on `port` through the core, counted like the daemon's
    /// sockets count it; returns the APNA frames and legacy datagrams sent.
    fn step(&mut self, now: Timestamp, port: Port, frames: Vec<Vec<u8>>) -> Vec<Vec<Vec<u8>>> {
        for f in &frames {
            self.io[port as usize].record_rx(f.len());
        }
        let out = self.core.step(now, port as usize, frames);
        for (io, sent) in self.io.iter_mut().zip(&out) {
            sent.iter().for_each(|f| io.record_tx(f.len()));
        }
        out
    }
}

/// GRE frames from the gateway through the border's egress and ingress,
/// and the deliveries back, GRE-wrapped as the border's tunnel sends them.
fn through_border(
    border: &mut BorderCore,
    cfg: &PairConfig,
    now: Timestamp,
    frames: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    let apna = frames
        .iter()
        .map(|f| gre::decapsulate(f).unwrap().1.to_vec())
        .collect();
    border
        .step(now, apna)
        .iter()
        .map(|f| gre::encapsulate(cfg.router_ip, cfg.gateway_ip, f))
        .collect()
}

/// `apna-gateway`'s stats JSON after bootstrap, one flow both ways, one
/// unroutable datagram, one unparseable datagram and one rotation. The
/// expected string is what the daemon rendered before its burst logic
/// moved into `TranslatorPair`, when a counting control-plane wrapper
/// supplied the `control` object.
#[test]
fn gateway_stats_json_keeps_its_keys_order_and_counts() {
    let now = Timestamp::EPOCH;
    let dir = AsDirectory::new();
    let node = AsNode::from_seed(Aid(6), [6u8; 32], &dir, now);
    let cfg = PairConfig::new(101, 202);
    let pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now).unwrap();
    // The border owns its node, so it runs on a mirror, as the two daemons
    // do: the same seed and the pair's host bootstraps.
    let node_br = AsNode::from_seed(Aid(6), [6u8; 32], &AsDirectory::new(), now);
    for host_seed in TranslatorPair::host_seeds(&cfg) {
        Host::attach(&node_br, cfg.replay_mode, now, host_seed).unwrap();
    }
    let router = node_br.br.clone();
    let mut border = BorderCore::new(node_br, router, cfg.replay_mode, 1, 0);
    let mut shell = Shell {
        core: GatewayCore { pair, node: &node },
        io: [IoCounters::default(); 2],
    };
    let client = Ipv4Addr::new(192, 168, 1, 23);
    let synth = shell.core.pair.synth_ip;

    let request = LegacyPacket::udp(client, 53123, synth, 7777, b"ping").serialize();
    let out = shell.step(now, Port::Legacy, vec![request]);
    let back = through_border(&mut border, &cfg, now, &out[0]);
    let out = shell.step(now, Port::Apna, back);
    assert_eq!(out[1].len(), 1, "request delivered on the legacy side");
    let back = through_border(&mut border, &cfg, now, &out[0]);
    let out = shell.step(now, Port::Apna, back);
    assert!(out[0].is_empty() && out[1].is_empty(), "accept consumed");

    let response = LegacyPacket::udp(synth, 7777, client, 53123, b"pong").serialize();
    let out = shell.step(now, Port::Legacy, vec![response]);
    let back = through_border(&mut border, &cfg, now, &out[0]);
    let out = shell.step(now, Port::Apna, back);
    assert_eq!(out[1].len(), 1, "response delivered on the legacy side");

    let stray = LegacyPacket::udp(
        Ipv4Addr::new(203, 0, 113, 1),
        1,
        Ipv4Addr::new(203, 0, 113, 2),
        2,
        b"stray",
    );
    shell.step(now, Port::Legacy, vec![stray.serialize(), b"junk".to_vec()]);
    // Inside the 60 s margin of the 900 s flow EphIDs' expiry.
    shell.core.tick(now.add_secs(900 - 30));

    let ctrl_log = ctrl_log_json(&node.infra, None, 0, 0);
    let json = shell.core.stats_json(7, &shell.io, ctrl_log.clone());
    assert_eq!(
        json,
        format!(
            "{{\"daemon\": \"apna-gateway\", \"aid\": 6, \"uptime_secs\": 7, \"flows\": 2, \
             \"ephids\": 4, \"synth_ip\": \"198.18.0.1\", \"rotated\": 1, \"unroutable\": 1, \
             \"legacy_parse_errors\": 1, \"translate_errors\": 1, \"refresh_errors\": 0, \
             \"io_apna\": {{\"rx_frames\": 3, \"rx_bytes\": 704, \"rx_rejected\": 0, \
             \"tx_frames\": 3, \"tx_bytes\": 704, \"tx_rejected\": 0}}, \
             \"io_legacy\": {{\"rx_frames\": 4, \"rx_bytes\": 89, \"rx_rejected\": 0, \
             \"tx_frames\": 2, \"tx_bytes\": 56, \"tx_rejected\": 0}}, \
             \"control\": {{\"total\": 8, \"ephid-request\": 4, \"ephid-reply\": 4}}, \
             \"ctrl_log\": {ctrl_log}}}"
        )
    );
}
