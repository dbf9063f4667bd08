//! The unified control plane, end to end: every control flow (issuance,
//! revocation, shut-off, DNS publication) round-trips through the
//! `ControlMsg` envelope, error paths produce typed errors (never panics),
//! and the packetized transport over `apna-simnet` is behaviorally
//! equivalent to the direct function transport — same EphID pools, same
//! border-router verdicts.

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::control::{ControlKind, ControlMsg, ControlPlane};
use apna_core::granularity::Granularity;
use apna_core::management::{EphIdRequest, MsDrop};
use apna_core::time::Timestamp;
use apna_core::{AsNode, Error};
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_simnet::link::FaultProfile;
use apna_simnet::{Network, NetworkEvent, PacketFate};
use apna_wire::{Aid, ApnaHeader, HostAddr, ReplayMode, WireError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn two_as_net(replay: ReplayMode) -> Network {
    let mut net = Network::new(replay);
    net.add_as(Aid(1), [1; 32]);
    net.add_as(Aid(2), [2; 32]);
    net.connect(
        Aid(1),
        Aid(2),
        1_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    net
}

fn agent(net: &Network, aid: Aid, seed: u64) -> HostAgent {
    HostAgent::attach(
        net.node(aid),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        net.now().as_protocol_time(),
        seed,
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// Error paths: malformed input must yield typed errors, never panics.
// ---------------------------------------------------------------------

#[test]
fn malformed_and_truncated_frames_are_typed_errors() {
    // Arbitrary garbage of every length up to a full header and beyond.
    for len in 0..64usize {
        let buf = vec![0xA5u8; len];
        assert!(ControlMsg::parse(&buf).is_err(), "len {len} must not parse");
    }
    // Every prefix of a real frame fails as Truncated or LengthMismatch.
    let net = two_as_net(ReplayMode::Disabled);
    let mut host = agent(&net, Aid(1), 1);
    let (_pending, msg) = host.begin_acquire(EphIdUsage::DATA_SHORT);
    let wire = msg.serialize();
    for cut in 0..wire.len() {
        let err = ControlMsg::parse(&wire[..cut]).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated | WireError::LengthMismatch),
            "cut {cut}: {err:?}"
        );
    }
    // The service-side frame entry point surfaces the same typed error.
    let err = net
        .node(Aid(1))
        .handle_control_frame(&wire[..wire.len() / 2], Timestamp(0))
        .unwrap_err();
    assert!(matches!(err, Error::Wire(_)));
}

#[test]
fn expired_host_cert_is_a_typed_management_error() {
    let net = two_as_net(ReplayMode::Disabled);
    let mut host = agent(&net, Aid(1), 1);
    // Control EphIDs live 24 h; past that the MS drops the request with a
    // typed reason instead of issuing.
    let late = Timestamp(24 * 3600 + 1);
    let err = host
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, late)
        .unwrap_err();
    assert_eq!(err, Error::Management(MsDrop::Expired));
}

#[test]
fn replayed_shutoff_reacks_idempotently_on_both_transports() {
    // Direct transport: a resent request (the client never saw its ack)
    // converges on the same order without advancing the §VIII-G2 strike
    // counter toward HID revocation.
    let net = two_as_net(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let mut sender = agent(&net, Aid(1), 1);
    let mut victim = agent(&net, Aid(2), 2);
    let si = sender
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let vi = victim
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let evidence = sender.build_raw_packet(si, victim.owned_ephid(vi).addr(Aid(2)), b"spam");
    let first = victim
        .request_shutoff(net.node(Aid(1)), Aid(1), &evidence, vi, now)
        .unwrap();
    let again = victim
        .request_shutoff(net.node(Aid(1)), Aid(1), &evidence, vi, now)
        .unwrap();
    assert_eq!(first, again, "idempotent re-ack");
    assert!(!again.hid_revoked);

    // Packetized transport: same convergence over the wire.
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut sender = agent(&net, Aid(1), 1);
    let mut victim = agent(&net, Aid(2), 2);
    let si = sender
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let vi = victim
        .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let evidence = sender.build_raw_packet(si, victim.owned_ephid(vi).addr(Aid(2)), b"spam");
    let first = victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap();
    let again = victim
        .request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        .unwrap();
    assert_eq!(first, again);
    // The sender's HID survives: identical evidence is one incident.
    let sender_hid = apna_core::ephid::open(
        &net.node(Aid(1)).infra.keys,
        &sender.owned_ephid(si).ephid(),
    )
    .unwrap()
    .hid;
    assert_eq!(
        net.node(Aid(1)).infra.host_db.revocation_count(sender_hid),
        1
    );
}

#[test]
fn tampered_control_frame_dies_at_the_service() {
    // An on-path adversary flips a byte inside the sealed EphID request:
    // the carrier packet still delivers (the flip is in the payload the
    // AS's packet MAC covers — so actually flip after MAC'ing would fail
    // egress; here we model an AS-internal adversary injecting its own
    // MAC-valid packet with a corrupted frame).
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut host = agent(&net, Aid(1), 1);
    let (_pending, msg) = host.begin_acquire(EphIdUsage::DATA_SHORT);
    let mut frame = msg.serialize();
    let last = frame.len() - 1;
    frame[last] ^= 1; // corrupt the sealed body
    let dst = HostAddr::new(Aid(1), host.ms_cert.ephid);
    let wire = host.build_ctrl_packet(dst, &frame);
    let id = net.send(Aid(1), wire);
    net.run();
    assert!(matches!(net.fate(id), Some(PacketFate::Delivered { .. })));
    // Delivered, parsed as a frame, refused by the MS (undecryptable).
    assert_eq!(
        net.stats.control_delivered.count(ControlKind::EphIdRequest),
        1
    );
    assert_eq!(net.stats.control_rejected, 1);
    assert_eq!(net.stats.control_replies.total(), 0);
}

// ---------------------------------------------------------------------
// Equivalence: direct vs. packetized transports.
// ---------------------------------------------------------------------

/// The same acquisition sequence over the direct function transport and
/// over the network yields identical EphID pools (same certificates, same
/// EphID bytes) and identical border-router verdicts for the traffic
/// built from them.
#[test]
fn direct_and_packetized_acquisition_agree() {
    // World A: direct transport.
    let net_a = two_as_net(ReplayMode::Disabled);
    let now = net_a.now().as_protocol_time();
    let mut alice_a = agent(&net_a, Aid(1), 7);
    let mut idx_a = Vec::new();
    for flow in 0..4u64 {
        idx_a.push(alice_a.ephid_for(net_a.node(Aid(1)), flow, 0, now).unwrap());
    }

    // World B: identical seeds, packetized transport.
    let mut net_b = two_as_net(ReplayMode::Disabled);
    let mut alice_b = agent(&net_b, Aid(1), 7);
    let mut idx_b = Vec::new();
    for flow in 0..4u64 {
        idx_b.push(alice_b.ephid_for(&mut net_b, flow, 0, now).unwrap());
    }

    assert_eq!(idx_a, idx_b, "pool assignments agree");
    assert_eq!(alice_a.ephid_count(), alice_b.ephid_count());
    assert_eq!(alice_a.pool_stats(), alice_b.pool_stats());
    for (ia, ib) in idx_a.iter().zip(idx_b.iter()) {
        assert_eq!(
            alice_a.owned_ephid(*ia).cert,
            alice_b.owned_ephid(*ib).cert,
            "identical worlds must issue identical certificates"
        );
    }

    // The traffic built from both pools gets identical verdicts.
    let dst = HostAddr::new(Aid(2), apna_wire::EphIdBytes([0x77; 16]));
    for (ia, ib) in idx_a.iter().zip(idx_b.iter()) {
        let wa = alice_a.build_raw_packet(*ia, dst, b"equiv");
        let wb = alice_b.build_raw_packet(*ib, dst, b"equiv");
        assert_eq!(wa, wb, "identical packets");
        assert_eq!(
            net_a
                .node(Aid(1))
                .br
                .process_outgoing(&wa, ReplayMode::Disabled, now),
            net_b
                .node(Aid(1))
                .br
                .process_outgoing(&wb, ReplayMode::Disabled, now),
        );
    }
}

/// Shut-off over both transports: same revocation-list effect, same
/// post-shutoff verdicts.
#[test]
fn direct_and_packetized_shutoff_agree() {
    let run = |packetized: bool| -> (Vec<u8>, bool) {
        let mut net = two_as_net(ReplayMode::Disabled);
        let now = net.now().as_protocol_time();
        let mut sender = agent(&net, Aid(1), 1);
        let mut victim = agent(&net, Aid(2), 2);
        let si = sender
            .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let vi = victim
            .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
            .unwrap();
        let dst = victim.owned_ephid(vi).addr(Aid(2));
        let evidence = sender.build_raw_packet(si, dst, b"unwanted");
        let ack = if packetized {
            victim.request_shutoff(&mut net, Aid(1), &evidence, vi, now)
        } else {
            victim.request_shutoff(net.node(Aid(1)), Aid(1), &evidence, vi, now)
        };
        let ack = ack.unwrap();
        let follow_up = sender.build_raw_packet(si, dst, b"again");
        let verdict = net
            .node(Aid(1))
            .br
            .process_outgoing(&follow_up, ReplayMode::Disabled, now);
        (ack.ephid.as_bytes().to_vec(), verdict.is_forward())
    };
    let (direct_ephid, direct_forwards) = run(false);
    let (packet_ephid, packet_forwards) = run(true);
    assert_eq!(direct_ephid, packet_ephid);
    assert!(!direct_forwards && !packet_forwards);
}

/// DNS publication over both transports: the same register and update
/// leave the same signed record in the zone.
#[test]
fn direct_and_packetized_dns_publication_agree() {
    let run = |packetized: bool| {
        let mut net = two_as_net(ReplayMode::Disabled);
        let now = net.now().as_protocol_time();
        let zone = DnsServer::new(SigningKey::from_seed(&[0xD5; 32]));
        let mut alice = agent(&net, Aid(1), 3);
        let first = alice
            .acquire(net.node(Aid(1)), EphIdUsage::RECEIVE_ONLY, now)
            .unwrap();
        let second = alice
            .acquire(net.node(Aid(1)), EphIdUsage::RECEIVE_ONLY, now)
            .unwrap();
        let name = "alice.example";
        if packetized {
            net.attach_dns(Aid(2), zone);
            alice
                .dns_register(&mut net, Aid(2), name, first, now)
                .unwrap();
            let registered = net.dns(Aid(2)).unwrap().resolve(name);
            alice
                .dns_update(&mut net, Aid(2), name, second, first, now)
                .unwrap();
            let d = &net.stats.control_delivered;
            assert_eq!(d.count(ControlKind::DnsRegister), 1);
            assert_eq!(d.count(ControlKind::DnsUpdate), 1);
            (registered, net.dns(Aid(2)).unwrap().resolve(name))
        } else {
            alice.dns_register(&zone, Aid(2), name, first, now).unwrap();
            let registered = zone.resolve(name);
            alice
                .dns_update(&zone, Aid(2), name, second, first, now)
                .unwrap();
            (registered, zone.resolve(name))
        }
    };
    let (direct_registered, direct_updated) = run(false);
    let (packet_registered, packet_updated) = run(true);
    assert!(direct_registered.is_some() && direct_updated.is_some());
    assert_eq!(direct_registered, packet_registered);
    assert_eq!(direct_updated, packet_updated);
    assert_ne!(
        direct_registered, direct_updated,
        "the update rotated the record"
    );
}

// ---------------------------------------------------------------------
// Observability: control traffic in NetStats, events, and the wiretap.
// ---------------------------------------------------------------------

#[test]
fn every_control_kind_is_counted_and_observable() {
    let mut net = two_as_net(ReplayMode::Disabled);
    net.enable_wiretap();
    net.attach_dns(Aid(2), DnsServer::new(SigningKey::from_seed(&[0xDC; 32])));
    let mut alice = agent(&net, Aid(1), 1);
    let mut bob = agent(&net, Aid(2), 2);

    // Issuance (intra-AS) and DNS publication + shut-off (inter-AS).
    let t0 = Timestamp(0);
    let ai = alice.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
    let ri = alice
        .acquire(&mut net, EphIdUsage::RECEIVE_ONLY, t0)
        .unwrap();
    let bi = bob.acquire(&mut net, EphIdUsage::DATA_SHORT, t0).unwrap();
    alice
        .dns_register(&mut net, Aid(2), "alice.example", ri, t0)
        .unwrap();
    let evidence = alice.build_raw_packet(ai, bob.owned_ephid(bi).addr(Aid(2)), b"x");
    bob.request_shutoff(&mut net, Aid(1), &evidence, bi, t0)
        .unwrap();

    let d = &net.stats.control_delivered;
    assert_eq!(d.count(ControlKind::EphIdRequest), 3);
    assert_eq!(d.count(ControlKind::DnsRegister), 1);
    assert_eq!(d.count(ControlKind::ShutoffRequest), 1);
    let r = &net.stats.control_replies;
    assert_eq!(r.count(ControlKind::EphIdReply), 3);
    assert_eq!(r.count(ControlKind::DnsAck), 1);
    assert_eq!(r.count(ControlKind::ShutoffAck), 1);
    assert_eq!(net.control_deliveries().len(), 5);

    // The wiretap saw the inter-AS control exchanges (DNS register/ack,
    // shutoff request/ack) — control traffic is tamperable traffic.
    let control_on_wire = net
        .wiretap_frames()
        .iter()
        .filter(|f| {
            ApnaHeader::parse(&f.bytes, ReplayMode::Disabled)
                .map(|(_, p)| ControlMsg::parse(p).is_ok())
                .unwrap_or(false)
        })
        .count();
    assert_eq!(control_on_wire, 4);
}

#[test]
fn control_delivered_events_are_emitted() {
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = agent(&net, Aid(1), 1);
    let (pending, msg) = alice.begin_acquire(EphIdUsage::DATA_SHORT);
    let dst = HostAddr::new(Aid(1), alice.ms_cert.ephid);
    let wire = alice.build_ctrl_packet(dst, &msg.serialize());
    net.send(Aid(1), wire);
    let events = net.run();
    let control_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            NetworkEvent::ControlDelivered { aid, kind, .. } => Some((*aid, *kind)),
            NetworkEvent::Fate { .. } => None,
        })
        .collect();
    assert_eq!(control_events, vec![(Aid(1), ControlKind::EphIdRequest)]);
    // The reply is sitting in the inbox; completing the acquisition works.
    let delivered = net.take_delivered().pop().unwrap();
    let (_h, payload) = alice.receive_packet(&delivered.bytes).unwrap();
    let reply = ControlMsg::parse(payload).unwrap();
    let now = net.now().as_protocol_time();
    alice.complete_acquire(pending, &reply, now).unwrap();
    assert_eq!(alice.ephid_count(), 1);
}

/// A data packet an adversary parks on the (wire-visible) control EphID
/// must not shadow a genuine control reply: `control_rpc` matches on a
/// parseable control frame, not inbox position.
#[test]
fn parked_data_packet_does_not_shadow_control_reply() {
    let mut net = two_as_net(ReplayMode::Disabled);
    let mut alice = agent(&net, Aid(1), 1);
    let mut mallory = agent(&net, Aid(2), 66);
    let mi = mallory
        .acquire(&mut net, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    // Mallory observed alice's control EphID on the wire and parks two
    // MAC-valid packets on it ahead of any control reply: raw junk, and —
    // nastier — a payload that parses as a genuine control frame.
    let (alice_ctrl, _) = alice.control_ephid();
    let alice_ctrl_addr = HostAddr::new(Aid(1), alice_ctrl);
    let junk = mallory.build_raw_packet(mi, alice_ctrl_addr, b"not a frame");
    let forged_frame = ControlMsg::DnsAck { name: "x".into() }.serialize();
    let forged = mallory.build_raw_packet(mi, alice_ctrl_addr, &forged_frame);
    net.send(Aid(2), junk);
    net.send(Aid(2), forged);
    net.run();
    // Alice's acquisition still succeeds: the reply matcher requires the
    // service's (unforgeable) source address, not just a parseable frame.
    alice
        .acquire(&mut net, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    assert_eq!(alice.ephid_count(), 1);
    // Both parked packets are still in the inbox for the host to judge.
    let leftover = net.take_delivered();
    assert_eq!(leftover.len(), 2);
}

/// Control flows also work under the nonce-extension deployment: replies
/// from services carry fresh nonces and pass the host's replay windows.
#[test]
fn control_plane_works_under_nonce_extension() {
    let mut net = two_as_net(ReplayMode::NonceExtension);
    let now = net.now().as_protocol_time();
    let mut alice = HostAgent::attach(
        net.node(Aid(1)),
        Granularity::PerFlow,
        ReplayMode::NonceExtension,
        now,
        1,
    )
    .unwrap();
    for _ in 0..3 {
        alice
            .acquire(&mut net, EphIdUsage::DATA_SHORT, now)
            .unwrap();
    }
    assert_eq!(alice.ephid_count(), 3);
}

/// RevocationAnnounce distributes an order to another border router via
/// the control plane (the AA → BR push of Fig. 5), envelope and all: a
/// replica deployment of the same AS (same keys, its own revocation list)
/// applies the announced order after verifying its MAC.
#[test]
fn revocation_announce_distributes_to_border_routers() {
    use apna_core::directory::AsDirectory;
    use apna_core::shutoff::RevocationOrder;
    let net = two_as_net(ReplayMode::Disabled);
    let now = net.now().as_protocol_time();
    let mut sender = agent(&net, Aid(1), 1);
    let mut victim = agent(&net, Aid(2), 2);
    let si = sender
        .acquire(net.node(Aid(1)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let vi = victim
        .acquire(net.node(Aid(2)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let evidence = sender.build_raw_packet(si, victim.owned_ephid(vi).addr(Aid(2)), b"x");
    let ack = victim
        .request_shutoff(net.node(Aid(1)), Aid(1), &evidence, vi, now)
        .unwrap();

    // A second deployment of AS 1 (same seed → same infrastructure keys,
    // separate revocation list) stands in for a further border router.
    let replica: AsNode = AsNode::from_seed(Aid(1), [1; 32], &AsDirectory::new(), now);
    assert!(!replica.infra.revoked.contains(&ack.ephid));
    let order = RevocationOrder::issue(&net.node(Aid(1)).infra.keys, ack.ephid, ack.exp_time);
    let frame = ControlMsg::RevocationAnnounce(order).serialize();
    let reply = replica.handle_control_frame(&frame, now).unwrap();
    assert!(reply.is_none(), "announce has no reply");
    assert!(replica.infra.revoked.contains(&ack.ephid));

    // A tampered announce is refused with a typed error.
    let mut forged = RevocationOrder::issue(&net.node(Aid(1)).infra.keys, ack.ephid, ack.exp_time);
    forged.exp_time = Timestamp(u32::MAX);
    let err = replica
        .handle_control(&ControlMsg::RevocationAnnounce(forged), now)
        .unwrap_err();
    assert_eq!(err, Error::ShutoffRejected("revocation order MAC"));
}

// ---------------------------------------------------------------------
// Shard scaling: issuance for different hosts takes different locks.
// ---------------------------------------------------------------------

/// One AS whose host state is split into `shards` HID shards, plus one
/// sealed `EphIdRequest` from each of 64 hosts (MS-side issuance is
/// stateless in the request nonce, so replaying a sealed request is
/// exactly the AS-side work of a fresh one).
fn issuance_world(shards: usize) -> (AsNode, Vec<EphIdRequest>) {
    let dir = apna_core::directory::AsDirectory::new();
    let node = AsNode::from_seed_with_shards(Aid(1), [0xB7; 32], &dir, Timestamp(0), shards);
    let requests = (0..64u64)
        .map(|i| {
            let mut agent = HostAgent::attach(
                &node,
                Granularity::PerFlow,
                ReplayMode::Disabled,
                Timestamp(0),
                1000 + i,
            )
            .unwrap();
            match agent.begin_acquire(EphIdUsage::DATA_LONG).1 {
                ControlMsg::EphIdRequest(req) => req,
                other => panic!("begin_acquire built {other:?}"),
            }
        })
        .collect();
    (node, requests)
}

/// Issuances `threads` workers complete in `window`, each replaying its
/// own disjoint slice of `requests` in batches of 16 through the
/// pipelined `handle_request_batch` path.
fn issuances_in(node: &AsNode, requests: &[EphIdRequest], threads: usize, window: Duration) -> u64 {
    const BATCH: usize = 16;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(requests.len() / threads)
            .take(threads)
            .map(|slice| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut done = 0u64;
                    let mut offset = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let batch: Vec<&EphIdRequest> = (0..BATCH)
                            .map(|i| &slice[(offset + i) % slice.len()])
                            .collect();
                        offset = (offset + BATCH) % slice.len();
                        let replies = node.ms.handle_request_batch(&batch, Timestamp(0));
                        done += replies.iter().filter(|r| r.is_ok()).count() as u64;
                    }
                    done
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

/// The sharding claim proper: with real cores, 16 HID shards serve more
/// issuances per second than the single-lock layout. Release CI runs
/// this on its multi-core runner; below 4 hardware threads there is no
/// parallelism for the shards to unlock and the comparison says nothing.
#[test]
#[ignore = "release-CI scaling check (timing; needs >= 4 hardware threads)"]
fn sixteen_shards_out_issue_one_shard() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 4 {
        eprintln!("skipped: {cores} hardware thread(s), shard scaling needs >= 4");
        return;
    }
    let threads = cores.min(8);
    let window = Duration::from_millis(300);
    let rate = |shards| {
        let (node, requests) = issuance_world(shards);
        issuances_in(&node, &requests, threads, window / 4); // warm-up
        issuances_in(&node, &requests, threads, window)
    };
    let (one, sixteen) = (rate(1), rate(16));
    eprintln!("{threads} threads on {cores} cores: 1 shard {one}, 16 shards {sixteen} issuances");
    assert!(one > 0, "the single-shard run issued nothing");
    assert!(
        sixteen > one,
        "16-shard issuance ({sixteen}) did not beat 1-shard ({one}) on {cores} cores"
    );
}
