//! Lifecycle management across simulated time: EphID expiry classes
//! (§VIII-G1), revocation-list purging and HID escalation (§VIII-G2),
//! control-EphID expiry at the MS, and DNS record rotation (§VII-A).

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::{DropReason, Verdict};
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::shutoff::ShutoffRequest;
use apna_core::time::Timestamp;
use apna_core::AsNode;
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_wire::{Aid, EphIdBytes, HostAddr, ReplayMode};

fn setup() -> (AsDirectory, AsNode, AsNode) {
    let dir = AsDirectory::new();
    let a = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
    let b = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
    (dir, a, b)
}

#[test]
fn expiry_classes_honored_at_border() {
    let (_dir, a, _b) = setup();
    let mut host = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        1,
    )
    .unwrap();
    let short = host
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let medium = host
        .acquire(&a, EphIdUsage::DATA_MEDIUM, Timestamp(0))
        .unwrap();
    let long = host
        .acquire(&a, EphIdUsage::DATA_LONG, Timestamp(0))
        .unwrap();
    let dst = HostAddr::new(Aid(2), EphIdBytes([9; 16]));

    let checkpoints = [
        (Timestamp(899), [true, true, true]),
        (Timestamp(901), [false, true, true]),
        (Timestamp(7201), [false, false, true]),
        (Timestamp(86401), [false, false, false]),
    ];
    for (now, expect) in checkpoints {
        for (idx, ok) in [(short, expect[0]), (medium, expect[1]), (long, expect[2])] {
            let wire = host.build_raw_packet(idx, dst, b"x");
            let verdict = a.br.process_outgoing(&wire, ReplayMode::Disabled, now);
            assert_eq!(verdict.is_forward(), ok, "idx {idx} at {now}: {verdict:?}");
        }
    }
}

#[test]
fn revocation_list_purge_after_expiry() {
    let (_dir, a, _b) = setup();
    // Revoke three EphIDs with staggered expiries.
    for (i, exp) in [(1u8, 100u32), (2, 200), (3, 300)] {
        a.infra.revoked.insert(EphIdBytes([i; 16]), Timestamp(exp));
    }
    assert_eq!(a.infra.revoked.len(), 3);
    assert_eq!(a.br.purge_revocations(Timestamp(150)), 1);
    assert_eq!(a.br.purge_revocations(Timestamp(250)), 1);
    assert_eq!(a.infra.revoked.len(), 1);
    assert_eq!(a.br.purge_revocations(Timestamp(1000)), 1);
    assert!(a.infra.revoked.is_empty());
}

#[test]
fn control_ephid_expiry_stops_issuance_until_rebootstrap() {
    let (dir, a, _b) = setup();
    let mut host = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        1,
    )
    .unwrap();
    // Control EphIDs live 24h.
    assert!(host
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(86_400))
        .is_ok());
    assert!(host
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(86_401))
        .is_err());
    // Re-bootstrap refreshes the control EphID; issuance works again.
    let mut fresh = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(86_401),
        2,
    )
    .unwrap();
    assert!(fresh
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(86_401))
        .is_ok());
    let _ = dir;
}

#[test]
fn six_strikes_escalates_to_hid_revocation_and_reissue_recovers() {
    let (_dir, a, b) = setup();
    let mut spammer = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        1,
    )
    .unwrap();
    let mut victim = HostAgent::attach(
        &b,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        2,
    )
    .unwrap();
    let vi = victim
        .acquire(&b, EphIdUsage::DATA_LONG, Timestamp(0))
        .unwrap();
    let v_owned = victim.owned_ephid(vi);

    let mut hid = None;
    for strike in 0..6 {
        let si = spammer
            .ephid_for(&a, strike as u64, 0, Timestamp(0))
            .unwrap();
        let eph = spammer.owned_ephid(si).ephid();
        hid = Some(apna_core::ephid::open(&a.infra.keys, &eph).unwrap().hid);
        let wire = spammer.build_raw_packet(si, v_owned.addr(Aid(2)), b"spam");
        let req = ShutoffRequest::create(&wire, &v_owned.keys, v_owned.cert.clone());
        let outcome =
            a.aa.handle(&req, ReplayMode::Disabled, Timestamp(1))
                .unwrap();
        assert_eq!(outcome.hid_revoked, strike == 5, "strike {strike}");
    }
    let hid = hid.unwrap();
    assert!(!a.infra.host_db.is_valid(hid));

    // §VIII-G2: "AS revokes the HID ... and assigns a new HID to the host".
    let new_hid = a.infra.host_db.reissue_hid(hid, Timestamp(2)).unwrap();
    assert!(a.infra.host_db.is_valid(new_hid));
    // Old EphIDs remain dead — doubly so: they sit on the revocation list
    // AND their HID is revoked. The Fig. 4 check order reports Revoked.
    let si = spammer.ephid_for(&a, 0, 0, Timestamp(2)).unwrap();
    let wire = spammer.build_raw_packet(si, v_owned.addr(Aid(2)), b"post-reissue");
    let verdict =
        a.br.process_outgoing(&wire, ReplayMode::Disabled, Timestamp(2));
    assert!(
        matches!(
            verdict,
            Verdict::Drop(DropReason::Revoked) | Verdict::Drop(DropReason::UnknownHost)
        ),
        "{verdict:?}"
    );
}

#[test]
fn dns_rotation_after_shutoff_pressure() {
    // The §VII-A motivation for receive-only EphIDs, shown from the other
    // side: if a service published an ordinary data-plane EphID and it got
    // revoked, the operator would have to re-register — receive-only
    // records never face that.
    let (dir, _a, b) = setup();
    let dns = DnsServer::new(SigningKey::from_seed(&[0xDA; 32]));
    let mut server = HostAgent::attach(
        &b,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        3,
    )
    .unwrap();
    let r1 = server
        .acquire(&b, EphIdUsage::RECEIVE_ONLY_SHORT, Timestamp(0))
        .unwrap();
    dns.register("svc.example", server.owned_ephid(r1).cert.clone(), None);
    // Record expires with the cert at t=900; verification starts failing.
    let rec = dns.resolve("svc.example").unwrap();
    assert!(rec
        .verify(&dns.zone_verifying_key(), &dir, Timestamp(500))
        .is_ok());
    assert!(rec
        .verify(&dns.zone_verifying_key(), &dir, Timestamp(901))
        .is_err());
    // Rotate: new receive-only EphID, fresh record.
    let r2 = server
        .acquire(&b, EphIdUsage::RECEIVE_ONLY, Timestamp(901))
        .unwrap();
    dns.update("svc.example", server.owned_ephid(r2).cert.clone(), None);
    let rec = dns.resolve("svc.example").unwrap();
    assert!(rec
        .verify(&dns.zone_verifying_key(), &dir, Timestamp(902))
        .is_ok());
}

#[test]
fn preemptive_revocation_lifecycle() {
    let (_dir, a, _b) = setup();
    let mut host = HostAgent::attach(
        &a,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        4,
    )
    .unwrap();
    let idx = host
        .acquire(&a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let owned = host.owned_ephid(idx);
    // The host retires its own EphID (e.g., the flow ended early).
    let sig = owned.keys.sign().sign(owned.ephid().as_bytes());
    a.aa.preemptive_revoke(&owned.cert, &sig, Timestamp(1))
        .unwrap();
    // The host's pool evicts it, and the border drops it.
    assert_eq!(host.handle_revocation(owned.ephid()), 0); // not pooled via ephid_for
    let wire = host.build_raw_packet(idx, HostAddr::new(Aid(2), EphIdBytes([1; 16])), b"x");
    assert_eq!(
        a.br.process_outgoing(&wire, ReplayMode::Disabled, Timestamp(1)),
        Verdict::Drop(DropReason::Revoked)
    );
    // After expiry the list is purged — the drop reason flips to Expired.
    assert_eq!(a.br.purge_revocations(Timestamp(901)), 1);
    assert_eq!(
        a.br.process_outgoing(&wire, ReplayMode::Disabled, Timestamp(901)),
        Verdict::Drop(DropReason::Expired)
    );
}
