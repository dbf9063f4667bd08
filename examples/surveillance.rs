//! The adversary's view: what a pervasive on-path observer (§II-B threat
//! model) actually learns from APNA traffic.
//!
//! One host opens several flows under per-flow EphIDs, another under a
//! single per-host EphID. The wiretap captures every inter-AS frame; the
//! example then *plays the adversary*: tries to read payloads, tries to
//! link flows to a common sender, and inventories the information that does
//! leak (the AS-level anonymity set).
//!
//! Run: `cargo run --example surveillance`

use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::granularity::Granularity;
use apna_core::session::{Role, SecureChannel};
use apna_simnet::link::FaultProfile;
use apna_simnet::Network;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, ReplayMode};
use std::collections::HashSet;

fn main() {
    let mut net = Network::new(ReplayMode::Disabled);
    net.add_as(Aid(10), [1; 32]);
    net.add_as(Aid(20), [2; 32]);
    net.connect(
        Aid(10),
        Aid(20),
        1_000,
        10_000_000_000,
        FaultProfile::lossless(),
    );
    net.enable_wiretap();
    let now = net.now().as_protocol_time();

    // Paranoid sender: per-flow EphIDs. Casual sender: one EphID for all.
    let mut paranoid = HostAgent::attach(
        net.node(Aid(10)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        1,
    )
    .unwrap();
    let mut casual = HostAgent::attach(
        net.node(Aid(10)),
        Granularity::PerHost,
        ReplayMode::Disabled,
        now,
        2,
    )
    .unwrap();
    let mut receiver = HostAgent::attach(
        net.node(Aid(20)),
        Granularity::PerFlow,
        ReplayMode::Disabled,
        now,
        3,
    )
    .unwrap();

    let ri = receiver
        .acquire(net.node(Aid(20)), EphIdUsage::DATA_SHORT, now)
        .unwrap();
    let r_owned = receiver.owned_ephid(ri);
    let r_addr = r_owned.addr(Aid(20));

    let secret = b"the secret payload surveillance must not read";

    // Each sender opens 3 flows of 2 packets each.
    for (host, label, ms_aid) in [
        (&mut paranoid, "paranoid", Aid(10)),
        (&mut casual, "casual", Aid(10)),
    ] {
        for flow in 0..3u64 {
            let idx = host.ephid_for(net.node(ms_aid), flow, 0, now).unwrap();
            let owned = host.owned_ephid(idx);
            let mut ch = SecureChannel::establish(
                &owned.keys,
                owned.ephid(),
                &r_owned.cert.dh_public(),
                r_owned.ephid(),
                Role::Initiator,
            )
            .unwrap();
            for _ in 0..2 {
                let wire = host.build_packet(idx, r_addr, &mut ch, secret);
                net.send(Aid(10), wire);
            }
        }
        let _ = label;
    }
    net.run();

    // ------------------------------------------------------------------
    // The adversary analyzes the capture.
    // ------------------------------------------------------------------
    let frames = net.wiretap_frames();
    println!(
        "wiretap captured {} frames on the AS10→AS20 link\n",
        frames.len()
    );

    // 1. Data privacy: no frame contains the plaintext.
    let leaked = frames
        .iter()
        .any(|f| f.bytes.windows(secret.len()).any(|w| w == secret));
    println!("plaintext visible in any frame: {leaked}");
    assert!(!leaked, "pervasive encryption must hide payloads");

    // 2. Host privacy: the only identity information is the AS pair.
    let mut src_ephids: HashSet<EphIdBytes> = HashSet::new();
    for f in frames {
        let (h, _) = ApnaHeader::parse(&f.bytes, ReplayMode::Disabled).unwrap();
        assert_eq!(h.src.aid, Aid(10));
        src_ephids.insert(h.src.ephid);
    }
    println!("identity leak: source AS only (AS10); anonymity set = all hosts of AS10");

    // 3. Sender-flow linkability depends on granularity:
    //    12 packets, two senders. The adversary counts distinct source
    //    EphIDs — with per-flow policy each flow looks like a new sender.
    println!("distinct source EphIDs observed: {}", src_ephids.len());
    println!("  paranoid host (per-flow):  3 flows → 3 EphIDs (unlinkable)");
    println!("  casual host   (per-host):  3 flows → 1 EphID  (linkable)");
    assert_eq!(src_ephids.len(), 4);

    // 4. The adversary cannot mint a valid EphID to probe with (§VI-A):
    let forged = EphIdBytes([0x5A; 16]);
    let opened = apna_core::ephid::open(&net.node(Aid(10)).infra.keys, &forged);
    println!("forged EphID accepted by the AS: {}", opened.is_ok());
    assert!(opened.is_err());

    // 5. Each flow's packets still share an EphID within the flow, so the
    //    *receiver* can demultiplex — return addresses survive privacy.
    println!(
        "\nreceiver inbox: {} packets, all addressed to its EphID",
        net.stats.delivered
    );
}
