//! Quickstart: the four-step communication workflow of Fig. 1.
//!
//! Two hosts in different ASes (1) bootstrap with their Registry Services,
//! (2) obtain EphIDs from their Management Services, (3) establish a shared
//! key from the AS-certified EphID key pairs, and (4) exchange encrypted
//! data across the simulated internetwork — every packet attributable by
//! the source AS, opaque to everyone else.
//!
//! Run: `cargo run --example quickstart`

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::session::{verify_peer_cert, Role, SecureChannel};
use apna_simnet::link::FaultProfile;
use apna_simnet::{Network, PacketFate};
use apna_wire::{Aid, ReplayMode};

fn main() {
    // The internetwork: AS 64500 ↔ AS 64501, a 10 Gbps / 5 ms link.
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(64500), [1; 32]);
    net.add_as(Aid(64501), [2; 32]);
    net.connect(
        Aid(64500),
        Aid(64501),
        5_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    let now = net.now().as_protocol_time();

    // Step 1 — host bootstrapping (Fig. 2): authenticate to the AS, derive
    // k_HA, receive the control EphID and service certificates.
    let mut alice = HostAgent::attach(
        net.node(Aid(64500)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        1,
    )
    .expect("alice bootstraps");
    let mut bob = HostAgent::attach(
        net.node(Aid(64501)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        2,
    )
    .expect("bob bootstraps");
    println!("1. bootstrapped: alice@AS64500, bob@AS64501");

    // Step 2 — EphID issuance (Fig. 3): the encrypted request travels to
    // the Management Service as an actual packet (ControlMsg envelope over
    // the control EphID), and the sealed certificate comes back the same
    // way — counted per kind in the network's control stats.
    let ai = alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .expect("alice EphID");
    let bi = bob
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .expect("bob EphID");
    let alice_owned = alice.owned_ephid(ai);
    let bob_owned = bob.owned_ephid(bi);
    println!(
        "2. EphIDs issued over the control plane: alice={:?} bob={:?}",
        alice_owned.ephid(),
        bob_owned.ephid()
    );
    for (kind, count) in net.stats.control_delivered.iter_nonzero() {
        println!("   control delivered: {:20} x{count}", kind.name());
    }

    // Step 3 — connection establishment (§IV-D1): verify the peer's
    // certificate against its AS's published key, then ECDH on the
    // EphID-bound key pairs. Perfect forward secrecy: only ephemeral keys
    // enter the derivation.
    verify_peer_cert(&bob_owned.cert, &net.directory, now).expect("bob's cert verifies");
    verify_peer_cert(&alice_owned.cert, &net.directory, now).expect("alice's cert verifies");
    let mut ch_alice = SecureChannel::establish(
        &alice_owned.keys,
        alice_owned.ephid(),
        &bob_owned.cert.dh_public(),
        bob_owned.ephid(),
        Role::Initiator,
    )
    .expect("alice channel");
    let mut ch_bob = SecureChannel::establish(
        &bob_owned.keys,
        bob_owned.ephid(),
        &alice_owned.cert.dh_public(),
        alice_owned.ephid(),
        Role::Responder,
    )
    .expect("bob channel");
    assert_eq!(ch_alice.fingerprint(), ch_bob.fingerprint());
    println!(
        "3. session key established (fingerprint {:02x?})",
        ch_alice.fingerprint()
    );

    // Step 4 — encrypted communication: seal the payload, MAC the packet
    // with k_HA, traverse source egress → link → destination ingress.
    let wire = alice.build_packet(
        ai,
        bob_owned.addr(Aid(64501)),
        &mut ch_alice,
        b"hello, private internet",
    );
    let id = net.send(Aid(64500), wire);
    net.run();
    match net.fate(id) {
        Some(PacketFate::Delivered { at, .. }) => println!("4. delivered at {at}"),
        other => panic!("unexpected fate: {other:?}"),
    }
    let delivered = net.take_delivered();
    let (header, payload) = bob
        .receive_packet(&delivered[0].bytes)
        .expect("addressed to bob");
    let plaintext = ch_bob.open(b"", payload).expect("decrypts");
    println!("   bob reads: {:?}", String::from_utf8_lossy(&plaintext));
    println!(
        "   source on the wire: {} (opaque EphID — only AS64500 can map it to alice)",
        header.src
    );

    // And the reply direction works symmetrically.
    let reply = bob.build_packet(bi, alice_owned.addr(Aid(64500)), &mut ch_bob, b"hi alice!");
    let _id = net.send(Aid(64501), reply);
    net.run();
    let delivered = net.take_delivered();
    let (_, payload) = alice.receive_packet(&delivered[0].bytes).unwrap();
    println!(
        "   alice reads: {:?}",
        String::from_utf8_lossy(&ch_alice.open(b"", payload).unwrap())
    );
}
