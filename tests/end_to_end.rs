//! Cross-crate integration: full protocol flows over the simulated
//! internetwork (bootstrap → issuance → session → encrypted data →
//! ICMP → shutoff), across multi-AS topologies and faulty links.

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::session::{verify_peer_cert, Role, SecureChannel};
use apna_core::shutoff::ShutoffRequest;
use apna_simnet::link::FaultProfile;
use apna_simnet::{Network, PacketFate};
use apna_wire::icmp::{IcmpMessage, IcmpType};
use apna_wire::{Aid, ReplayMode};

/// A 4-AS line topology 1-2-3-4 with hosts at the ends.
fn line_network(replay: ReplayMode) -> (Network, HostAgent, HostAgent) {
    let mut net = Network::new(replay);
    for i in 1..=4u32 {
        net.add_as(Aid(i), [i as u8; 32]);
    }
    for (a, b) in [(1u32, 2u32), (2, 3), (3, 4)] {
        net.connect(
            Aid(a),
            Aid(b),
            1_000,
            10_000_000_000,
            FaultProfile::lossless(),
        );
    }
    let now = net.now().as_protocol_time();
    let alice = HostAgent::attach(net.node(Aid(1)), Granularity::PerFlow, replay, now, 1).unwrap();
    let dave = HostAgent::attach(net.node(Aid(4)), Granularity::PerFlow, replay, now, 4).unwrap();
    (net, alice, dave)
}

#[test]
fn encrypted_session_across_three_hops() {
    let (mut net, mut alice, mut dave) = line_network(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let di = dave
        .acquire(net.node(Aid(4)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let a_owned = alice.owned_ephid(ai);
    let d_owned = dave.owned_ephid(di);

    verify_peer_cert(&d_owned.cert, &net.directory, now).unwrap();
    let mut ch_a = SecureChannel::establish(
        &a_owned.keys,
        a_owned.ephid(),
        &d_owned.cert.dh_public(),
        d_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();
    let mut ch_d = SecureChannel::establish(
        &d_owned.keys,
        d_owned.ephid(),
        &a_owned.cert.dh_public(),
        a_owned.ephid(),
        Role::Responder,
    )
    .unwrap();

    // 20 packets, each decrypts in order at the destination.
    for n in 0..20u32 {
        let msg = format!("message {n}");
        let wire = alice.build_packet(ai, d_owned.addr(Aid(4)), &mut ch_a, msg.as_bytes());
        let id = net.send(Aid(1), wire);
        net.run();
        match net.fate(id) {
            Some(PacketFate::Delivered { at, .. }) => {
                // Three links at 1 ms each.
                assert!(at.micros() >= 3_000, "too fast: {at}");
            }
            other => panic!("packet {n}: {other:?}"),
        }
        let delivered = net.take_delivered();
        let (_, payload) = dave.receive_packet(&delivered[0].bytes).unwrap();
        assert_eq!(ch_d.open(b"", payload).unwrap(), msg.as_bytes());
    }
    assert_eq!(net.stats.delivered, 20);
    assert_eq!(net.stats.egress_dropped + net.stats.ingress_dropped, 0);
}

#[test]
fn ping_across_the_internet() {
    let (mut net, mut alice, mut dave) = line_network(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let di = dave
        .acquire(net.node(Aid(4)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let dave_addr = dave.owned_ephid(di).addr(Aid(4));

    // Echo request out...
    let ping = IcmpMessage::echo_request(7, b"are you there?");
    let wire = alice.build_icmp(ai, dave_addr, &ping);
    net.send(Aid(1), wire);
    net.run();
    let delivered = net.take_delivered();
    let (req_header, req_payload) = dave.receive_packet(&delivered[0].bytes).unwrap();

    // ...reply back to the source EphID (the privacy-preserving return
    // address of §VIII-B).
    let reply_wire = dave.build_icmp_reply(di, &req_header, req_payload).unwrap();
    let id = net.send(Aid(4), reply_wire);
    net.run();
    assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
    let delivered = net.take_delivered();
    let (_, payload) = alice.receive_packet(&delivered[0].bytes).unwrap();
    let msg = IcmpMessage::parse(payload).unwrap();
    assert_eq!(msg.icmp_type, IcmpType::EchoReply);
    assert_eq!(msg.param, 7);
    assert_eq!(msg.data, b"are you there?");
}

#[test]
fn shutoff_effective_across_topology() {
    let (mut net, mut alice, mut dave) = line_network(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let di = dave
        .acquire(net.node(Aid(4)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let d_owned = dave.owned_ephid(di);

    let wire = alice.build_raw_packet(ai, d_owned.addr(Aid(4)), b"unwanted");
    net.send(Aid(1), wire);
    net.run();
    let evidence = net.take_delivered().pop().unwrap().bytes;

    // Dave shuts off at Alice's AS (he learned the AA EphID from... the
    // cert of the source? In the full flow he'd fetch it; here the AA
    // object is addressed directly — the protocol checks are identical).
    let req = ShutoffRequest::create(&evidence, &d_owned.keys, d_owned.cert.clone());
    net.node(Aid(1))
        .aa
        .handle(&req, ReplayMode::Disabled, now)
        .unwrap();

    // Alice's follow-up traffic dies at her own AS border.
    let wire = alice.build_raw_packet(ai, d_owned.addr(Aid(4)), b"again");
    let id = net.send(Aid(1), wire);
    net.run();
    assert!(matches!(net.fate(id), Some(PacketFate::EgressDropped(_))));
}

#[test]
fn lossy_link_drops_show_in_fates_and_macs_catch_corruption() {
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(1), [1; 32]);
    net.add_as(Aid(2), [2; 32]);
    // smoltcp-style stress: 15% drop, 15% corrupt.
    net.connect(
        Aid(1),
        Aid(2),
        500,
        10_000_000_000,
        FaultProfile::lossy(0.15, 0.15),
    );
    let now = net.now().as_protocol_time();
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        1,
    )
    .unwrap();
    let mut bob = HostAgent::attach(
        net.node(Aid(2)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        2,
    )
    .unwrap();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let bi = bob
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let a_owned = alice.owned_ephid(ai);
    let b_owned = bob.owned_ephid(bi);
    let mut ch_a = SecureChannel::establish(
        &a_owned.keys,
        a_owned.ephid(),
        &b_owned.cert.dh_public(),
        b_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();
    let mut ch_b = SecureChannel::establish(
        &b_owned.keys,
        b_owned.ephid(),
        &a_owned.cert.dh_public(),
        a_owned.ephid(),
        Role::Responder,
    )
    .unwrap();

    let total = 200;
    let mut clean = 0;
    let mut garbled = 0;
    let mut ids = Vec::new();
    for n in 0..total {
        let wire = alice.build_packet(
            ai,
            b_owned.addr(Aid(2)),
            &mut ch_a,
            format!("p{n}").as_bytes(),
        );
        ids.push(net.send(Aid(1), wire));
        net.run();
        for d in net.take_delivered() {
            match bob.receive_packet(&d.bytes) {
                Ok((_, payload)) => match ch_b.open(b"", payload) {
                    Ok(_) => clean += 1,
                    Err(_) => garbled += 1, // corruption caught by AEAD
                },
                Err(_) => garbled += 1, // corruption hit the header
            }
        }
    }
    // ~15% lost on the link, and of the rest ~15% corrupted somewhere.
    assert!(net.stats.link_lost > 0, "fault injection must fire");
    assert!(clean > total / 2, "most packets still get through: {clean}");
    assert!(garbled > 0, "corruption must be observed and rejected");
    // Absolutely no corrupted payload may decrypt successfully: every
    // injected packet must be accounted for by a fate (a corrupting flip
    // to the destination AID can also strand a packet as NoRoute or
    // misdeliver it — those count as failed, never as clean).
    let mut lost_or_dropped = 0;
    let mut delivered_fates = 0;
    for &id in &ids {
        match net.fate(id).unwrap() {
            PacketFate::Delivered { .. } => delivered_fates += 1,
            _ => lost_or_dropped += 1,
        }
    }
    assert_eq!(delivered_fates + lost_or_dropped, total);
    // Cleanly decrypted payloads can never exceed delivered frames.
    assert!(clean <= delivered_fates);
    assert_eq!(clean + garbled, delivered_fates);
}

#[test]
fn replay_protection_end_to_end() {
    let (mut net, mut alice, mut dave) = {
        // Rebuild with the nonce extension enabled network-wide.
        line_network(ReplayMode::NonceExtension)
    };
    let now = net.now().as_protocol_time();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let di = dave
        .acquire(net.node(Aid(4)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let dave_addr = dave.owned_ephid(di).addr(Aid(4));

    let wire = alice.build_raw_packet(ai, dave_addr, b"one-shot");
    // The adversary captures and replays the identical bytes 3 times.
    let id1 = net.send(Aid(1), wire.clone());
    let id2 = net.send(Aid(1), wire.clone());
    let id3 = net.send(Aid(1), wire.clone());
    net.run();
    // The network delivers all of them (BRs don't keep replay state —
    // §VIII-D: detection is at the destination host)...
    for id in [id1, id2, id3] {
        assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
    }
    // ...but the host accepts exactly one.
    let mut accepted = 0;
    for d in net.take_delivered() {
        if dave.receive_packet(&d.bytes).is_ok() {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 1);
}

#[test]
fn expired_ephid_dies_at_border_over_time() {
    let (mut net, mut alice, mut dave) = line_network(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let ai = alice
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let di = dave
        .acquire(net.node(Aid(4)), EphIdUsage::DATA_LONG, now)
        .unwrap();
    let dave_addr = dave.owned_ephid(di).addr(Aid(4));

    // Works now.
    let id = net.send(Aid(1), alice.build_raw_packet(ai, dave_addr, b"t0"));
    net.run();
    assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));

    // 16 minutes later the Short-class EphID is dead.
    net.advance_to(apna_simnet::SimTime::from_secs(16 * 60));
    let id = net.send(Aid(1), alice.build_raw_packet(ai, dave_addr, b"t1"));
    net.run();
    assert!(
        matches!(
            net.fate(id),
            Some(PacketFate::EgressDropped(
                apna_core::border::DropReason::Expired
            ))
        ),
        "{:?}",
        net.fate(id)
    );
}
