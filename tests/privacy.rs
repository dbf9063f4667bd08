//! Privacy properties (§II-B) validated against the on-path adversary's
//! actual capture: host privacy, sender-flow unlinkability, pervasive
//! encryption, and the paper's own stated limits (intra-AS visibility,
//! AS-level deanonymization for lawful access, §VIII-H).

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::session::{Role, SecureChannel};
use apna_simnet::link::FaultProfile;
use apna_simnet::Network;
use apna_wire::{Aid, ApnaHeader, ReplayMode};
use std::collections::HashSet;

fn two_as_net() -> Network {
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
    net.enable_wiretap();
    net
}

/// The wire leaks exactly: source AS, destination AS, opaque EphIDs, and
/// sealed bytes. No HID, no long-term key, no plaintext.
#[test]
fn wire_leaks_only_as_pair_and_opaque_ids() {
    let mut net = two_as_net();
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
    let mut ch = SecureChannel::establish(
        &a_owned.keys,
        a_owned.ephid(),
        &b_owned.cert.dh_public(),
        b_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();

    let secret = b"attorney-client privileged";
    let wire = alice.build_packet(ai, b_owned.addr(Aid(2)), &mut ch, secret);
    net.send(Aid(1), wire);
    net.run();

    let frames = net.wiretap_frames();
    assert_eq!(frames.len(), 1);
    let bytes = &frames[0].bytes;
    // No plaintext.
    assert!(!bytes.windows(secret.len()).any(|w| w == secret));
    // The HID exists only inside the EphID ciphertext: the EphID field is
    // not the plaintext HID‖ExpTime (it decrypts only under AS-1's key,
    // and AS-2's key fails).
    let (h, _) = ApnaHeader::parse(bytes, ReplayMode::Disabled).unwrap();
    let plain = apna_core::ephid::open(&net.node(Aid(1)).infra.keys, &h.src.ephid).unwrap();
    let mut hid_exp = Vec::new();
    hid_exp.extend_from_slice(&plain.hid.to_bytes());
    hid_exp.extend_from_slice(&plain.exp_time.to_bytes());
    assert_ne!(&h.src.ephid.ciphertext()[..], &hid_exp[..]);
    assert!(apna_core::ephid::open(&net.node(Aid(2)).infra.keys, &h.src.ephid).is_err());
    // What *is* visible: the AID pair.
    assert_eq!((h.src.aid, h.dst.aid), (Aid(1), Aid(2)));
}

/// Sender-flow unlinkability (§II-B): two flows from the same host under
/// per-flow EphIDs share no identifier on the wire; under per-host policy
/// they do. The observation delta IS the policy.
#[test]
fn per_flow_policy_breaks_linkability() {
    let mut net = two_as_net();
    let now = net.now().as_protocol_time();
    let mut host = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        1,
    )
    .unwrap();
    let mut sink = HostAgent::attach(
        net.node(Aid(2)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        2,
    )
    .unwrap();
    let si = sink
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let sink_addr = sink.owned_ephid(si).addr(Aid(2));

    for flow in 0..8u64 {
        let idx = host.ephid_for(net.node(Aid(1)), flow, 0, now).unwrap();
        let wire = host.build_raw_packet(idx, sink_addr, b"payload");
        net.send(Aid(1), wire);
    }
    net.run();
    let mut srcs = HashSet::new();
    for f in net.wiretap_frames() {
        let (h, _) = ApnaHeader::parse(&f.bytes, ReplayMode::Disabled).unwrap();
        srcs.insert(h.src.ephid);
    }
    assert_eq!(
        srcs.len(),
        8,
        "8 flows must present 8 unlinkable identifiers"
    );
}

/// The issuing AS CAN link: accountability requires it (§VIII-H lawful
/// access). Every observed EphID decrypts to the same HID at the AS.
#[test]
fn issuing_as_can_deanonymize() {
    let net = two_as_net();
    let now = net.now().as_protocol_time();
    let mut host = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        1,
    )
    .unwrap();
    let mut hids = HashSet::new();
    for flow in 0..5u64 {
        let idx = host.ephid_for(net.node(Aid(1)), flow, 0, now).unwrap();
        let eph = host.owned_ephid(idx).ephid();
        hids.insert(
            apna_core::ephid::open(&net.node(Aid(1)).infra.keys, &eph)
                .unwrap()
                .hid,
        );
    }
    assert_eq!(hids.len(), 1, "the AS links all EphIDs to one customer");
    // The OTHER AS cannot: decryption fails entirely.
    let idx = host.ephid_for(net.node(Aid(1)), 99, 0, now).unwrap();
    let eph = host.owned_ephid(idx).ephid();
    assert!(apna_core::ephid::open(&net.node(Aid(2)).infra.keys, &eph).is_err());
}

/// Data privacy against the destination AS too: only the endpoint holding
/// the EphID private key can open the payload, not the AS that certified
/// it.
#[test]
fn destination_as_cannot_read_payloads() {
    let net = two_as_net();
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
    let mut ch = SecureChannel::establish(
        &a_owned.keys,
        a_owned.ephid(),
        &b_owned.cert.dh_public(),
        b_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();
    let sealed = ch.seal(b"", b"for bob only");

    // AS-B knows: its own root keys, Bob's k_HA, Bob's certificate. It
    // does NOT know Bob's EphID private key (generated by the host,
    // §IV-C). Model the AS's best effort: try to open with a channel
    // derived from any key material it holds — e.g. its own DH key.
    let as_b_guess = apna_core::keys::EphIdKeyPair::from_seed([0xB0; 32]);
    let mut guess_channel = SecureChannel::establish(
        &as_b_guess,
        b_owned.ephid(),
        &a_owned.cert.dh_public(),
        a_owned.ephid(),
        Role::Responder,
    )
    .unwrap();
    assert!(guess_channel.open(b"", &sealed).is_err());

    // Bob, holding the real key, reads it.
    let mut bob_channel = SecureChannel::establish(
        &b_owned.keys,
        b_owned.ephid(),
        &a_owned.cert.dh_public(),
        a_owned.ephid(),
        Role::Responder,
    )
    .unwrap();
    assert_eq!(bob_channel.open(b"", &sealed).unwrap(), b"for bob only");
}

/// The anonymity-set framing of §III-B: every host of an AS emits from the
/// same AID, so the adversary's candidate set is the whole AS population.
#[test]
fn anonymity_set_is_the_as() {
    let mut net = two_as_net();
    let now = net.now().as_protocol_time();
    // Ten hosts in AS 1, each sends one packet.
    let mut sink = HostAgent::attach(
        net.node(Aid(2)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        99,
    )
    .unwrap();
    let si = sink
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let sink_addr = sink.owned_ephid(si).addr(Aid(2));
    for seed in 0..10u64 {
        let mut h = HostAgent::attach(
            net.node(Aid(1)),
            Granularity::PerFlow,
            ReplayMode::Disabled,
            now,
            seed,
        )
        .unwrap();
        let idx = h
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let wire = h.build_raw_packet(idx, sink_addr, b"x");
        net.send(Aid(1), wire);
    }
    net.run();
    // All ten frames carry the identical source locator: AS 1. Nothing
    // distinguishes the senders except opaque, unlinkable EphIDs.
    let mut aids = HashSet::new();
    let mut ephids = HashSet::new();
    for f in net.wiretap_frames() {
        let (h, _) = ApnaHeader::parse(&f.bytes, ReplayMode::Disabled).unwrap();
        aids.insert(h.src.aid);
        ephids.insert(h.src.ephid);
    }
    assert_eq!(aids.len(), 1);
    assert_eq!(ephids.len(), 10);
}
