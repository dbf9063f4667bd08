//! The shutoff protocol in action (Fig. 5, §IV-E) and EphID granularity
//! fate-sharing (§VIII-A): a spammer floods a victim, the victim shuts the
//! sending EphID off at the source AS, and the blast radius depends on the
//! spammer's granularity policy. Unauthorized shutoff attempts fail.
//!
//! Run: `cargo run --example shutoff`

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::shutoff::ShutoffRequest;
use apna_simnet::link::FaultProfile;
use apna_simnet::{Network, PacketFate};
use apna_wire::{Aid, ReplayMode};

fn main() {
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(1), [1; 32]);
    net.add_as(Aid(2), [2; 32]);
    net.connect(
        Aid(1),
        Aid(2),
        1_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    let now = net.now().as_protocol_time();

    // The spammer uses ONE EphID for all its flows (per-host granularity —
    // the §VIII-A trade-off this example demonstrates).
    let mut spammer = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerHost,
        ReplayMode::Disabled,
        now,
        66,
    )
    .unwrap();
    let mut victim = HostAgent::attach(
        net.node(Aid(2)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        7,
    )
    .unwrap();

    let si = spammer
        .ephid_for(net.node(Aid(1)), /*flow*/ 1, /*app*/ 0, now)
        .unwrap();
    let vi = victim
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let victim_owned = victim.owned_ephid(vi);
    let victim_addr = victim_owned.addr(Aid(2));

    // Flood: 5 unwanted packets (unencrypted raw payloads — the spammer
    // does not bother with sessions).
    let mut last_packet = Vec::new();
    for n in 0..5 {
        let wire = spammer.build_raw_packet(si, victim_addr, format!("SPAM #{n}").as_bytes());
        last_packet = wire.clone();
        let id = net.send(Aid(1), wire);
        net.run();
        assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
    }
    println!("spammer delivered 5 packets to the victim");

    // The victim builds a shutoff request from the received evidence (the
    // packet itself + a signature with the destination EphID's key + the
    // destination certificate) and sends it to the SOURCE AS's
    // accountability agent as a real control packet across the link.
    let delivered_bytes = net.take_delivered().pop().unwrap().bytes;
    assert_eq!(delivered_bytes, last_packet);
    let ack = victim
        .request_shutoff(&mut net, Aid(1), &delivered_bytes, vi, now)
        .expect("legitimate shutoff accepted");
    println!(
        "AA at AS1 revoked EphID {:?} (HID revoked: {})",
        ack.ephid, ack.hid_revoked
    );

    // Fate-sharing: ALL of the spammer's traffic dies — every flow shared
    // the one EphID (per-host granularity).
    for flow in [1u64, 2, 3] {
        let idx = spammer.ephid_for(net.node(Aid(1)), flow, 0, now).unwrap();
        let wire = spammer.build_raw_packet(idx, victim_addr, b"more spam");
        let id = net.send(Aid(1), wire);
        net.run();
        match net.fate(id) {
            Some(PacketFate::EgressDropped(reason)) => {
                println!("flow {flow}: dropped at source AS ({reason:?})")
            }
            other => panic!("expected egress drop, got {other:?}"),
        }
    }

    // A well-behaved host with per-flow EphIDs loses only the reported flow.
    let mut careful = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        77,
    )
    .unwrap();
    let f1 = careful.ephid_for(net.node(Aid(1)), 1, 0, now).unwrap();
    let f2 = careful.ephid_for(net.node(Aid(1)), 2, 0, now).unwrap();
    let wire = careful.build_raw_packet(f1, victim_addr, b"flow-1 packet");
    net.send(Aid(1), wire);
    net.run();
    let evidence = net.take_delivered().pop().unwrap().bytes;
    victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap();
    let dead = careful.build_raw_packet(f1, victim_addr, b"flow-1 again");
    let alive = careful.build_raw_packet(f2, victim_addr, b"flow-2 unaffected");
    let id_dead = net.send(Aid(1), dead);
    let id_alive = net.send(Aid(1), alive);
    net.run();
    assert!(matches!(
        net.fate(id_dead),
        Some(PacketFate::EgressDropped(_))
    ));
    assert!(matches!(
        net.fate(id_alive),
        Some(PacketFate::Delivered { .. })
    ));
    println!("per-flow host: shutoff killed flow 1 only; flow 2 still delivers");

    // Unauthorized shutoff: an observer who is NOT the recipient cannot
    // weaponize the protocol (§VI-C).
    let mallory_keys = apna_core::keys::EphIdKeyPair::from_seed([9; 32]);
    let rogue = ShutoffRequest::create(&evidence, &mallory_keys, victim_owned.cert.clone());
    let err = net
        .node(Aid(1))
        .aa
        .handle(&rogue, ReplayMode::Disabled, now)
        .unwrap_err();
    println!("rogue shutoff (stolen cert, wrong key) rejected: {err}");

    // Every control exchange above was on-wire traffic:
    for (kind, count) in net.stats.control_delivered.iter_nonzero() {
        println!("control delivered: {:16} x{count}", kind.name());
    }
}
