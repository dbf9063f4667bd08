//! Deployment scenarios: NAT-mode access points (§VII-B), APNA-as-a-Service
//! (§VIII-E: a downstream AS modeled as a connection-sharing device), the
//! encrypted-DNS workflow (§VII-A), and the in-network replay filter
//! extension (§VIII-D future work, implemented here).

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::host::Host;
use apna_core::keys::EphIdKeyPair;
use apna_core::session::{Role, SecureChannel};
use apna_core::shutoff::ShutoffRequest;
use apna_core::time::{ExpiryClass, Timestamp};
use apna_core::AsNode;
use apna_crypto::ed25519::SigningKey;
use apna_dns::{encrypted, DnsServer};
use apna_gateway::ap::AccessPoint;
use apna_wire::{Aid, ApnaHeader, HostAddr, ReplayMode};

fn two_ases() -> (AsDirectory, AsNode, AsNode) {
    let dir = AsDirectory::new();
    let a = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
    let b = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
    (dir, a, b)
}

/// §VII-B end-to-end: a device behind a NAT-mode AP reaches a host in
/// another AS; the AS only ever sees the AP.
#[test]
fn nat_mode_client_reaches_remote_host() {
    let (dir, a, b) = two_ases();
    let ap_host = Host::attach(&a, ReplayMode::Disabled, Timestamp(0), 10).unwrap();
    let mut ap = AccessPoint::new(ap_host, 11);

    // A laptop joins the AP's WiFi and gets an EphID through the AP.
    let laptop = ap.register_client(77).unwrap();
    let laptop_kp = EphIdKeyPair::from_seed([0x1A; 32]);
    let (sp, dp) = laptop_kp.public_keys();
    let laptop_cert = ap
        .request_ephid_for_client(
            laptop.id,
            sp,
            dp,
            &a,
            &a.infra.keys.verifying_key(),
            ExpiryClass::Short,
            Timestamp(0),
        )
        .unwrap();

    // Remote peer in AS-B.
    let mut bob = HostAgent::attach(
        &b,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        12,
    )
    .unwrap();
    let bi = bob
        .acquire(&b, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let bob_owned = bob.owned_ephid(bi);

    // End-to-end encryption laptop↔bob: the AP cannot read it (it never
    // sees the laptop's EphID private key).
    let mut ch_laptop = SecureChannel::establish(
        &laptop_kp,
        laptop_cert.ephid,
        &bob_owned.cert.dh_public(),
        bob_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();
    let mut ch_bob = SecureChannel::establish(
        &bob_owned.keys,
        bob_owned.ephid(),
        &laptop_cert.dh_public(),
        laptop_cert.ephid,
        Role::Responder,
    )
    .unwrap();

    let sealed = ch_laptop.seal(b"", b"from behind the AP");
    let mut header = ApnaHeader::new(
        HostAddr::new(Aid(1), laptop_cert.ephid),
        bob_owned.addr(Aid(2)),
    );
    let wire = laptop.finalize_packet(&mut header, &sealed);

    // AP re-MACs; AS-A border passes; AS-B delivers; Bob decrypts.
    let rewritten = ap.forward_outgoing(laptop.id, &wire).unwrap();
    assert!(a
        .br
        .process_outgoing(&rewritten, ReplayMode::Disabled, Timestamp(1))
        .is_forward());
    assert!(b
        .br
        .process_incoming(&rewritten, ReplayMode::Disabled, Timestamp(1))
        .is_forward());
    let (h, payload) = ApnaHeader::parse(&rewritten, ReplayMode::Disabled).unwrap();
    assert_eq!(h.src.ephid, laptop_cert.ephid);
    assert_eq!(ch_bob.open(b"", payload).unwrap(), b"from behind the AP");
    let _ = dir;
}

/// §VIII-E APNA-as-a-Service: a small downstream AS hangs off an upstream
/// APNA ISP exactly like a NAT-mode AP; when one of its customers
/// misbehaves, the upstream shutoff lands on the AP's EphID and the
/// downstream operator maps it to the guilty customer.
#[test]
fn apna_as_a_service_accountability_chain() {
    let (_dir, isp, remote) = two_ases();
    // The downstream "AS" is an AccessPoint from the ISP's perspective.
    let downstream_host = Host::attach(&isp, ReplayMode::Disabled, Timestamp(0), 20).unwrap();
    let mut downstream = AccessPoint::new(downstream_host, 21);

    // Two customers of the downstream AS.
    let good = downstream.register_client(1).unwrap();
    let bad = downstream.register_client(2).unwrap();
    let good_kp = EphIdKeyPair::from_seed([0x60; 32]);
    let bad_kp = EphIdKeyPair::from_seed([0x61; 32]);
    let (gsp, gdp) = good_kp.public_keys();
    let (bsp, bdp) = bad_kp.public_keys();
    let good_cert = downstream
        .request_ephid_for_client(
            good.id,
            gsp,
            gdp,
            &isp,
            &isp.infra.keys.verifying_key(),
            ExpiryClass::Short,
            Timestamp(0),
        )
        .unwrap();
    let bad_cert = downstream
        .request_ephid_for_client(
            bad.id,
            bsp,
            bdp,
            &isp,
            &isp.infra.keys.verifying_key(),
            ExpiryClass::Short,
            Timestamp(0),
        )
        .unwrap();

    // Victim in the remote AS.
    let mut victim = HostAgent::attach(
        &remote,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        22,
    )
    .unwrap();
    let vi = victim
        .acquire(&remote, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let v_owned = victim.owned_ephid(vi);

    // The bad customer floods the victim (via the downstream AP).
    let mut header = ApnaHeader::new(HostAddr::new(Aid(1), bad_cert.ephid), v_owned.addr(Aid(2)));
    let wire = bad.finalize_packet(&mut header, b"flood");
    let forwarded = downstream.forward_outgoing(bad.id, &wire).unwrap();
    assert!(isp
        .br
        .process_outgoing(&forwarded, ReplayMode::Disabled, Timestamp(1))
        .is_forward());

    // Victim shuts off at the ISP (the accountability agent of the
    // *upstream*, which vouched for the packet).
    let req = ShutoffRequest::create(&forwarded, &v_owned.keys, v_owned.cert.clone());
    let outcome = isp
        .aa
        .handle(&req, ReplayMode::Disabled, Timestamp(1))
        .unwrap();

    // The ISP blames the EphID; the downstream operator identifies the
    // customer behind it — the §VIII-E chain of accountability.
    assert_eq!(
        downstream.identify_client(&outcome.order.ephid),
        Some(bad.id)
    );
    assert_ne!(
        downstream.identify_client(&outcome.order.ephid),
        Some(good.id)
    );

    // The bad customer's EphID is dead at the ISP border; the good
    // customer is unaffected.
    let mut header = ApnaHeader::new(HostAddr::new(Aid(1), bad_cert.ephid), v_owned.addr(Aid(2)));
    let wire = bad.finalize_packet(&mut header, b"again");
    let fwd = downstream.forward_outgoing(bad.id, &wire).unwrap();
    assert!(!isp
        .br
        .process_outgoing(&fwd, ReplayMode::Disabled, Timestamp(2))
        .is_forward());
    let mut header = ApnaHeader::new(HostAddr::new(Aid(1), good_cert.ephid), v_owned.addr(Aid(2)));
    let wire = good.finalize_packet(&mut header, b"innocent");
    let fwd = downstream.forward_outgoing(good.id, &wire).unwrap();
    assert!(isp
        .br
        .process_outgoing(&fwd, ReplayMode::Disabled, Timestamp(2))
        .is_forward());
}

/// §VII-A encrypted DNS: the query name never appears on the wire, and a
/// host can use a third-party resolver it trusts instead of its own AS's.
#[test]
fn encrypted_dns_workflow() {
    let (dir, a, b) = two_ases();
    // The resolver runs in AS-B (NOT the client's AS — the §VII-A
    // recommendation when the client distrusts its own AS).
    let resolver = DnsServer::new(SigningKey::from_seed(&[0xD2; 32]));
    let mut resolver_host = HostAgent::attach(
        &b,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        30,
    )
    .unwrap();
    let ri = resolver_host
        .acquire(&b, EphIdUsage::RECEIVE_ONLY, Timestamp(0))
        .unwrap();
    let r_owned = resolver_host.owned_ephid(ri);

    // Publish a service record.
    let mut svc = HostAgent::attach(
        &b,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        31,
    )
    .unwrap();
    let si = svc
        .acquire(&b, EphIdUsage::RECEIVE_ONLY, Timestamp(0))
        .unwrap();
    resolver.register("hidden.example", svc.owned_ephid(si).cert.clone(), None);

    // Client in AS-A builds a channel to the resolver and queries.
    let mut client = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        32,
    )
    .unwrap();
    let ci = client
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let c_owned = client.owned_ephid(ci);
    let mut ch_client = SecureChannel::establish(
        &c_owned.keys,
        c_owned.ephid(),
        &r_owned.cert.dh_public(),
        r_owned.ephid(),
        Role::Initiator,
    )
    .unwrap();
    let mut ch_resolver = SecureChannel::establish(
        &r_owned.keys,
        r_owned.ephid(),
        &c_owned.cert.dh_public(),
        c_owned.ephid(),
        Role::Responder,
    )
    .unwrap();

    let q = encrypted::seal_query(&mut ch_client, "hidden.example");
    assert!(!q.windows(14).any(|w| w == b"hidden.example"));
    let resp = encrypted::handle_query(&resolver, &mut ch_resolver, &q).unwrap();
    let record = encrypted::open_response(&mut ch_client, &resp)
        .unwrap()
        .unwrap();
    record
        .verify(&resolver.zone_verifying_key(), &dir, Timestamp(1))
        .unwrap();
    assert_eq!(record.name, "hidden.example");
}

/// The §VIII-D extension: with in-network replay filtering on, a replayed
/// packet dies at the source border router and never wastes transit
/// bandwidth — and the griefing attack (replaying to trigger shutoffs)
/// is cut off at the origin.
#[test]
fn in_network_replay_filter_stops_replay_at_source() {
    let (_dir, a, _b) = two_ases();
    let mut br = a.br.clone();
    br.enable_replay_filter();
    let mut sender = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::NonceExtension,
        Timestamp(0),
        40,
    )
    .unwrap();
    let si = sender
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let dst = HostAddr::new(Aid(2), apna_wire::EphIdBytes([9; 16]));

    let wire = sender.build_raw_packet(si, dst, b"payload");
    assert!(br
        .process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(1))
        .is_forward());
    // The adversary replays the captured bytes 100 times: all dead at the
    // source border.
    for _ in 0..100 {
        assert_eq!(
            br.process_outgoing(&wire, ReplayMode::NonceExtension, Timestamp(1)),
            apna_core::border::Verdict::Drop(apna_core::border::DropReason::Replayed)
        );
    }
    // Fresh traffic keeps flowing.
    let wire2 = sender.build_raw_packet(si, dst, b"payload");
    assert!(br
        .process_outgoing(&wire2, ReplayMode::NonceExtension, Timestamp(1))
        .is_forward());
    assert_eq!(br.replay_filter_entries(), 1);
}
