//! A public web service on APNA (§VII-A): DNS registration with a
//! receive-only EphID, the client–server connection establishment, and the
//! three latency modes of §VII-C (1.5 / 0.5 / 0 RTT).
//!
//! Run: `cargo run --example web_service`

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::session::{
    client_connect, client_finish, server_accept_with_recv_ephid, HandshakeMode,
};
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_simnet::link::FaultProfile;
use apna_simnet::Network;
use apna_wire::{Aid, ReplayMode};

fn main() {
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(100), [1; 32]); // client's AS
    net.add_as(Aid(200), [2; 32]); // server's AS
    net.connect(
        Aid(100),
        Aid(200),
        10_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    let now = net.now().as_protocol_time();

    // --- Server side: a shop publishes itself in DNS -------------------
    let mut server = HostAgent::attach(
        net.node(Aid(200)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        7,
    )
    .unwrap();
    // Receive-only EphID: safe to publish, cannot be shut off (§VII-A).
    let recv_idx = server
        .acquire(net.node(Aid(200)), EphIdUsage::RECEIVE_ONLY, now)
        .unwrap();
    // Serving EphID: used as the server's source for this client.
    let serve_idx = server
        .acquire(net.node(Aid(200)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let recv = server.owned_ephid(recv_idx);
    let serving = server.owned_ephid(serve_idx);

    // The zone runs at the server's AS; the registration crosses the
    // network as a DnsRegister control message and is acknowledged.
    net.attach_dns(Aid(200), DnsServer::new(SigningKey::from_seed(&[0xD1; 32])));
    server
        .dns_register(&mut net, Aid(200), "shop.example", recv_idx, now)
        .expect("zone accepts the record");
    println!(
        "server: published receive-only EphID {:?} as shop.example ({} control msgs on the wire)",
        recv.ephid(),
        net.stats.control_delivered.total() + net.stats.control_replies.total(),
    );

    // --- Client side ----------------------------------------------------
    let mut client = HostAgent::attach(
        net.node(Aid(100)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        8,
    )
    .unwrap();
    let ci = client
        .acquire(net.node(Aid(100)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let client_owned = client.owned_ephid(ci);

    // Resolve + verify the record (zone signature and AS certificate).
    let dns = net.dns(Aid(200)).expect("zone attached");
    let record = dns.resolve("shop.example").expect("registered");
    record
        .verify(&dns.zone_verifying_key(), &net.directory, now)
        .expect("authentic record");
    println!(
        "client: resolved shop.example → {}:{}",
        record.cert.aid, record.cert.ephid
    );

    // Hello with 0-RTT early data sealed under the receive-only channel.
    let (pending, hello) = client_connect(
        &client_owned.keys,
        &client_owned.cert,
        &record.cert,
        &net.directory,
        now,
        Some(b"GET /catalog HTTP/1.1"),
    )
    .unwrap();
    println!(
        "client: sent hello with 0-RTT early data ({} RTT before data)",
        HandshakeMode::ClientServerZeroRtt.rtts_before_data()
    );

    // Server accepts: decrypts early data with the receive-only key,
    // answers from the serving EphID with its certificate.
    let (mut server_ch, early, accept) = server_accept_with_recv_ephid(
        &recv.keys,
        recv.ephid(),
        &serving.keys,
        &serving.cert,
        &hello,
        &net.directory,
        now,
        b"HTTP/1.1 200 OK\r\n\r\n<catalog/>",
    )
    .unwrap();
    println!(
        "server: early data = {:?}",
        String::from_utf8_lossy(&early.unwrap())
    );

    // Client verifies the serving certificate and derives the final channel.
    let (mut client_ch, response) = client_finish(&pending, &accept, &net.directory, now).unwrap();
    println!(
        "client: response = {:?}",
        String::from_utf8_lossy(&response)
    );

    // Steady-state encrypted exchange over the network, using the serving
    // EphID as the destination (the receive-only EphID is out of the loop).
    let order = client.build_packet(
        ci,
        serving.addr(Aid(200)),
        &mut client_ch,
        b"POST /buy item=42",
    );
    let id = net.send(Aid(100), order);
    net.run();
    let delivered = net.take_delivered();
    let (_, payload) = server.receive_packet(&delivered[0].bytes).unwrap();
    println!(
        "server: order = {:?}",
        String::from_utf8_lossy(&server_ch.open(b"", payload).unwrap())
    );
    assert!(matches!(
        net.fate(id),
        Some(apna_simnet::PacketFate::Delivered { .. })
    ));

    // The latency table of §VII-C:
    println!("\nconnection-establishment latency (§VII-C), RTTs before first data:");
    for (name, mode) in [
        ("host-host", HandshakeMode::HostHost),
        (
            "host-host + first-packet data",
            HandshakeMode::HostHostZeroRtt,
        ),
        ("client-server (conservative)", HandshakeMode::ClientServer),
        (
            "client-server, no early data",
            HandshakeMode::ClientServerHalfRtt,
        ),
        (
            "client-server, early data",
            HandshakeMode::ClientServerZeroRtt,
        ),
    ] {
        println!("  {name:32} {}", mode.rtts_before_data());
    }
}
