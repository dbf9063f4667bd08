//! Experiment E11: the security analysis of §VI as an executable attack
//! suite. Every attack the paper argues is prevented must fail here, at
//! the layer the paper says it fails.

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::{DropReason, Verdict};
use apna_core::cert::{CertKind, EphIdCert};
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::keys::{AsKeys, EphIdKeyPair, HostAsKey};
use apna_core::session::{verify_peer_cert, Role, SecureChannel};
use apna_core::shutoff::ShutoffRequest;
use apna_core::{AsNode, Error, Timestamp};
use apna_crypto::x25519::SharedSecret;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};

struct World {
    dir: AsDirectory,
    a: AsNode,
    b: AsNode,
}

fn world() -> World {
    let dir = AsDirectory::new();
    let a = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
    let b = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
    World { dir, a, b }
}

fn attach(node: &AsNode, seed: u64) -> HostAgent {
    HostAgent::attach(
        node,
        Granularity::PerFlow,
        ReplayMode::Disabled,
        Timestamp(0),
        seed,
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// §VI-A: attacking source accountability
// ---------------------------------------------------------------------

/// EphID spoofing: an adversary on the same access network sniffs a valid
/// EphID and uses it. Without k_HA the packet MAC cannot be produced.
#[test]
fn ephid_spoofing_dropped_and_visible() {
    let w = world();
    let mut victim = attach(&w.a, 1);
    let vi = victim
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let sniffed_ephid = victim.owned_ephid(vi).ephid(); // observed on the LAN

    // The adversary is ALSO a customer of AS-A (has its own valid k_HA) —
    // the strongest §VI-A position short of compromising the victim.
    let adversary_kha = {
        let mut adversary = attach(&w.a, 2);
        let _ = adversary
            .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
            .unwrap();
        adversary.kha().clone()
    };
    let mut header = ApnaHeader::new(
        HostAddr::new(Aid(1), sniffed_ephid),
        HostAddr::new(Aid(2), EphIdBytes([7; 16])),
    );
    let payload = b"framed!";
    let mac: [u8; 8] = adversary_kha
        .packet_cmac()
        .mac_truncated(&header.mac_input(payload));
    header.set_mac(mac);
    let mut wire = header.serialize();
    wire.extend_from_slice(payload);

    // Dropped at the border with a *specific* reason — "additionally
    // making the attack visible".
    assert_eq!(
        w.a.br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(1)),
        Verdict::Drop(DropReason::BadPacketMac)
    );
}

/// Unauthorized EphID generation: the CCA-secure construction rejects all
/// forgeries — including splices of two valid EphIDs.
#[test]
fn ephid_minting_fails() {
    let w = world();
    let mut host = attach(&w.a, 1);
    let i1 = host
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let i2 = host
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let e1 = host.owned_ephid(i1).ephid();
    let e2 = host.owned_ephid(i2).ephid();

    // Splice: ciphertext of one, IV/MAC of the other.
    let forged = EphIdBytes::from_parts(e1.ciphertext(), e2.iv(), e2.mac());
    assert!(apna_core::ephid::open(&w.a.infra.keys, &forged).is_err());
    let forged = EphIdBytes::from_parts(e1.ciphertext(), e1.iv(), e2.mac());
    assert!(apna_core::ephid::open(&w.a.infra.keys, &forged).is_err());

    // An EphID from another AS is garbage here.
    let mut other_host = attach(&w.b, 9);
    let oi = other_host
        .acquire(&w.b, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    assert!(apna_core::ephid::open(&w.a.infra.keys, &other_host.owned_ephid(oi).ephid()).is_err());
}

/// Identity minting: a host cannot hold two live HIDs — re-issuing revokes
/// the old identity and all its EphIDs (at the HID-validity check).
#[test]
fn identity_minting_prevented_by_reissue() {
    let w = world();
    let mut host = attach(&w.a, 1);
    let idx = host
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let old_ephid = host.owned_ephid(idx).ephid();
    let old_hid = apna_core::ephid::open(&w.a.infra.keys, &old_ephid)
        .unwrap()
        .hid;

    let new_hid =
        w.a.infra
            .host_db
            .reissue_hid(old_hid, Timestamp(1))
            .unwrap();
    assert_ne!(new_hid, old_hid);
    // Old EphIDs now die at the border (UnknownHost — the HID is revoked).
    let wire = host.build_raw_packet(idx, HostAddr::new(Aid(2), EphIdBytes([7; 16])), b"x");
    assert_eq!(
        w.a.br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(1)),
        Verdict::Drop(DropReason::UnknownHost)
    );
}

// ---------------------------------------------------------------------
// §VI-B: attacking privacy
// ---------------------------------------------------------------------

/// MitM by a malicious AS: it can forge a certificate for the victim's
/// EphID, but not one for the peer (it lacks the peer AS's signing key),
/// so the victim never completes the handshake with the attacker.
#[test]
fn mitm_certificate_swap_detected() {
    let w = world();
    let mut bob = attach(&w.b, 2);
    let bi = bob
        .acquire(&w.b, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let bob_cert = bob.owned_ephid(bi).cert.clone();

    // Malicious AS-M forges "Bob's" cert with its own keypair, claiming
    // AID 2.
    let mallory = AsKeys::from_seed(&[0xEE; 32]);
    let mallory_kp = EphIdKeyPair::from_seed([0xEF; 32]);
    let (msp, mdp) = mallory_kp.public_keys();
    let forged = EphIdCert::issue(
        &mallory.signing,
        bob_cert.ephid,
        bob_cert.exp_time,
        msp,
        mdp,
        Aid(2),
        bob_cert.aa_ephid,
        CertKind::Data,
    );
    assert_eq!(
        verify_peer_cert(&forged, &w.dir, Timestamp(1)),
        Err(Error::BadCertificate("signature"))
    );
    // The genuine certificate passes.
    verify_peer_cert(&bob_cert, &w.dir, Timestamp(1)).unwrap();
}

/// PFS: recorded ciphertext stays secret even if every *long-term* key
/// leaks afterwards. Only the ephemeral EphID keys can decrypt, and a
/// different session's keys are useless.
#[test]
fn forward_secrecy_of_recorded_traffic() {
    let w = world();
    let mut alice = attach(&w.a, 1);
    let mut bob = attach(&w.b, 2);
    let ai = alice
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let bi = bob
        .acquire(&w.b, EphIdUsage::DATA_SHORT, Timestamp(0))
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
    let recorded = ch.seal(b"", b"state secret");

    // The adversary later obtains: both AS root/signing/DH keys (modeled by
    // owning the AsNode internals) and the hosts' long-term DH secrets.
    // None of those appear in the session-key derivation. The only way to
    // decrypt is an EphID private key — and a *different* session's EphID
    // keys produce a different channel key:
    let other_session_keys = EphIdKeyPair::from_seed([0x44; 32]);
    let mut wrong = SecureChannel::establish(
        &other_session_keys,
        a_owned.ephid(),
        &b_owned.cert.dh_public(),
        b_owned.ephid(),
        Role::Responder,
    )
    .unwrap();
    assert!(wrong.open(b"", &recorded).is_err());

    // Sanity: the genuine responder keys do decrypt.
    let mut right = SecureChannel::establish(
        &b_owned.keys,
        b_owned.ephid(),
        &a_owned.cert.dh_public(),
        a_owned.ephid(),
        Role::Responder,
    )
    .unwrap();
    assert_eq!(right.open(b"", &recorded).unwrap(), b"state secret");
}

/// Sender-flow unlinkability of the EphID request path (§IV-C): the
/// request/reply are encrypted, so an AS-internal observer cannot pair the
/// ephemeral public key with the control EphID.
#[test]
fn ephid_request_reveals_nothing() {
    use apna_core::control::{ControlMsg, ControlPlane};
    let w = world();
    let mut host = attach(&w.a, 1);
    let (pending, msg) = host.begin_acquire(EphIdUsage::DATA_SHORT);
    let wire = msg.serialize();
    // The full on-wire control frame leaks nothing: an AS-internal
    // observer cannot pair the ephemeral public keys with the control
    // EphID (the keys are sealed under k_HA^enc).
    let reply_frame =
        w.a.handle_control_frame(&wire, Timestamp(0))
            .unwrap()
            .unwrap();
    let reply = ControlMsg::parse(&reply_frame).unwrap();
    let idx = host
        .complete_acquire(pending, &reply, Timestamp(0))
        .unwrap();
    let owned = host.owned_ephid(idx);
    let (sign_pub, dh_pub) = owned.keys.public_keys();
    assert!(!wire.windows(32).any(|w| w == sign_pub));
    assert!(!wire.windows(32).any(|w| w == dh_pub));
    // And the reply frame does not contain the issued EphID in the clear.
    let issued = owned.ephid();
    assert!(!reply_frame.windows(16).any(|w| w == issued.as_bytes()));
}

// ---------------------------------------------------------------------
// §VI-C: other attacks
// ---------------------------------------------------------------------

/// The full §VI-C checklist for unauthorized shutoffs, each failing a
/// different check.
#[test]
fn unauthorized_shutoff_matrix() {
    let w = world();
    let mut sender = attach(&w.a, 1);
    let mut recipient = attach(&w.b, 2);
    let si = sender
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let ri = recipient
        .acquire(&w.b, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let r_owned = recipient.owned_ephid(ri);
    let genuine = sender.build_raw_packet(si, r_owned.addr(Aid(2)), b"evidence");

    // (a) Fabricated packet (source never sent it): bad source-AS mark.
    let mut fake_header = ApnaHeader::new(
        HostAddr::new(Aid(1), sender.owned_ephid(si).ephid()),
        HostAddr::new(Aid(2), r_owned.ephid()),
    );
    fake_header.set_mac([0xAA; 8]);
    let mut fake = fake_header.serialize();
    fake.extend_from_slice(b"never sent");
    let req = ShutoffRequest::create(&fake, &r_owned.keys, r_owned.cert.clone());
    assert!(matches!(
        w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(1)),
        Err(Error::ShutoffRejected("packet not authenticated by source"))
    ));

    // (b) Non-recipient (overheard packet, own cert): authorization fails.
    let mut observer = attach(&w.b, 3);
    let oi = observer
        .acquire(&w.b, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let o_owned = observer.owned_ephid(oi);
    let req = ShutoffRequest::create(&genuine, &o_owned.keys, o_owned.cert.clone());
    assert!(matches!(
        w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(1)),
        Err(Error::ShutoffRejected("requester is not the recipient"))
    ));

    // (c) Stolen certificate without the private key: signature fails.
    let thief_keys = EphIdKeyPair::from_seed([0x99; 32]);
    let req = ShutoffRequest::create(&genuine, &thief_keys, r_owned.cert.clone());
    assert!(matches!(
        w.a.aa.handle(&req, ReplayMode::Disabled, Timestamp(1)),
        Err(Error::ShutoffRejected("requester signature"))
    ));

    // (d) The legitimate recipient succeeds.
    let req = ShutoffRequest::create(&genuine, &r_owned.keys, r_owned.cert.clone());
    w.a.aa
        .handle(&req, ReplayMode::Disabled, Timestamp(1))
        .unwrap();
}

/// Reflection-DoS resistance: you cannot make a victim's EphID the source
/// of your traffic, so reflection amplification has no spoofed trigger.
#[test]
fn reflection_requires_unforgeable_source() {
    let w = world();
    let mut victim = attach(&w.a, 1);
    let vi = victim
        .acquire(&w.a, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let victim_ephid = victim.owned_ephid(vi).ephid();

    // Attacker (different host, valid customer) writes the victim's EphID
    // as source of a "DNS query" so the reply would flood the victim.
    let attacker_kha = HostAsKey::from_dh(&SharedSecret([0x55; 32])).unwrap();
    let mut header = ApnaHeader::new(
        HostAddr::new(Aid(1), victim_ephid),
        HostAddr::new(Aid(2), EphIdBytes([1; 16])),
    );
    let payload = b"big-amplification-query";
    let mac: [u8; 8] = attacker_kha
        .packet_cmac()
        .mac_truncated(&header.mac_input(payload));
    header.set_mac(mac);
    let mut wire = header.serialize();
    wire.extend_from_slice(payload);
    assert_eq!(
        w.a.br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(1)),
        Verdict::Drop(DropReason::BadPacketMac)
    );
}

/// Replayed packets must not enable shutoff-griefing: §VIII-D's nonce makes
/// duplicates detectable at the destination, so a replayed copy cannot
/// manufacture *new* evidence (the evidence is identical bytes — one
/// shutoff, not an escalating count of distinct incidents).
#[test]
fn replay_cannot_mint_distinct_evidence() {
    let w = world();
    let now = Timestamp(0);
    let mut sender = HostAgent::attach(
        &w.a,
        Granularity::PerFlow,
        ReplayMode::NonceExtension,
        now,
        1,
    )
    .unwrap();
    let mut recipient = HostAgent::attach(
        &w.b,
        Granularity::PerFlow,
        ReplayMode::NonceExtension,
        now,
        2,
    )
    .unwrap();
    let si = sender.acquire(&w.a, EphIdUsage::DATA_SHORT, now).unwrap();
    let ri = recipient
        .acquire(&w.b, EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let r_addr = recipient.owned_ephid(ri).addr(Aid(2));
    let wire = sender.build_raw_packet(si, r_addr, b"once");
    // First copy accepted, replays rejected before reaching any
    // application logic that might file shutoffs.
    assert!(recipient.receive_packet(&wire).is_ok());
    assert_eq!(recipient.receive_packet(&wire), Err(Error::Replay));
    assert_eq!(recipient.receive_packet(&wire), Err(Error::Replay));
}
