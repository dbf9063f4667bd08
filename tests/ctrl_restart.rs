//! Durability of the control plane: kill an AS at an arbitrary point and
//! replay the issuance/revocation log — the restarted AS must serve every
//! EphID it acked before the crash (no re-issuance), keep every
//! revocation in force, and never reuse an IV (§V-A1 requires a unique
//! IV per encryption, so the write-ahead watermark must survive).
//!
//! Four layers:
//!   1. library kill/replay through `MemSink` (exact-state assertions),
//!   2. a crash-consistency sweep/proptest over every log truncation,
//!   3. an in-process kill-and-restart of the border daemon's core
//!      (`BorderCore`) over a file log, packets in and out,
//!   4. a process-level kill-and-restart of the real `apna-border`
//!      daemon over its `ctrl_log =` file.

use apna::daemon::first_reply_nonce;
use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::border::{DropReason, Verdict};
use apna_core::cert::CertKind;
use apna_core::control::ControlMsg;
use apna_core::ctrl_log::{self, MemSink};
use apna_core::deploy::BorderCore;
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::time::{ExpiryClass, Timestamp};
use apna_core::AsNode;
use apna_wire::{Aid, EphIdBytes, HostAddr, ReplayMode};
use proptest::prelude::*;

const SEED: [u8; 32] = [0xC1; 32];

fn fresh_node(dir: &AsDirectory) -> AsNode {
    AsNode::from_seed(Aid(1), SEED, dir, Timestamp(0))
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

/// Library-level kill/replay: registrations, issuance watermark, and
/// revocations all survive byte-for-byte through the in-memory sink.
#[test]
fn memsink_kill_and_replay_restores_exact_state() {
    let dir = AsDirectory::new();
    let node1 = fresh_node(&dir);
    let sink = MemSink::default();
    node1
        .infra
        .ctrl_log
        .install(Box::new(sink.clone()), node1.infra.iv_alloc.issued());

    // Post-attach activity is durable: the host registration, two
    // issuances, and one preemptive revocation all hit the log.
    let mut host = attach(&node1, 77);
    let keep = host
        .acquire(&node1, EphIdUsage::DATA_LONG, Timestamp(0))
        .unwrap();
    let gone = host
        .acquire(&node1, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let kept = host.owned_ephid(keep);
    let revoked = host.owned_ephid(gone);
    let sig = revoked.keys.sign().sign(revoked.ephid().as_bytes());
    node1
        .aa
        .preemptive_revoke(&revoked.cert, &sig, Timestamp(1))
        .unwrap();
    let issued_before_crash = node1.infra.iv_alloc.issued();

    // Kill: all that survives is the sink's bytes.
    let log = sink.log.lock().clone();
    let snap = sink.snap.lock().clone();

    // Restart from the same AS seed and replay.
    let node2 = fresh_node(&AsDirectory::new());
    let summary = ctrl_log::replay(&node2.infra, &snap, &log);
    assert!(summary.hosts >= 1, "host registration must replay");
    assert!(summary.revocations >= 1, "revocation must replay");
    assert!(!summary.torn_tail, "clean shutdown leaves no torn tail");
    assert!(
        summary.watermark >= issued_before_crash,
        "watermark {} must cover every pre-crash IV ({issued_before_crash})",
        summary.watermark
    );

    // The pre-crash data EphID is served without re-issuance: the wire
    // packet built before the crash forwards on the restarted border.
    let far = HostAddr::new(Aid(9), EphIdBytes([3; 16]));
    let wire = host.build_raw_packet(keep, far, b"pre-crash packet");
    assert!(
        node2
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(2))
            .is_forward(),
        "replayed state must serve the pre-crash EphID"
    );
    // ...while the pre-crash revocation stays in force.
    let wire = host.build_raw_packet(gone, far, b"revoked packet");
    assert_eq!(
        node2
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(2)),
        Verdict::Drop(DropReason::Revoked),
        "replayed state must keep the revocation"
    );
    // The restored k_HA is the exact pre-crash key.
    let hid = apna_core::ephid::open(&node2.infra.keys, &kept.ephid())
        .unwrap()
        .hid;
    let k1 = node1.infra.host_db.key_of_valid(hid).unwrap();
    let k2 = node2.infra.host_db.key_of_valid(hid).unwrap();
    assert_eq!(
        k1.packet_cmac().mac_truncated::<8>(b"probe"),
        k2.packet_cmac().mac_truncated::<8>(b"probe"),
        "restored host key must match"
    );
    // Fresh issuance after replay never collides with a pre-crash EphID
    // (byte equality would mean IV reuse under the same AS key).
    let (fresh, _) = node2.ms.issue(
        hid,
        [4; 32],
        [5; 32],
        CertKind::Data,
        ExpiryClass::Long,
        Timestamp(0),
    );
    assert_ne!(fresh, kept.ephid());
    assert_ne!(fresh, revoked.ephid());
}

/// A snapshot plus the post-snapshot log tail replays to the same state
/// as the full log: compaction loses nothing.
#[test]
fn snapshot_plus_tail_equals_full_log() {
    let dir = AsDirectory::new();
    let node1 = fresh_node(&dir);
    let sink = MemSink::default();
    node1
        .infra
        .ctrl_log
        .install(Box::new(sink.clone()), node1.infra.iv_alloc.issued());

    let mut host = attach(&node1, 78);
    let a = host
        .acquire(&node1, EphIdUsage::DATA_LONG, Timestamp(0))
        .unwrap();
    // Compact: every append so far folds into the snapshot.
    assert_eq!(ctrl_log::maybe_snapshot(&node1.infra, 1), Ok(true));
    assert!(sink.log.lock().is_empty(), "snapshot truncates the log");
    // Post-snapshot tail: one more issuance and a revocation.
    let b = host
        .acquire(&node1, EphIdUsage::DATA_SHORT, Timestamp(0))
        .unwrap();
    let owned_b = host.owned_ephid(b);
    let sig = owned_b.keys.sign().sign(owned_b.ephid().as_bytes());
    node1
        .aa
        .preemptive_revoke(&owned_b.cert, &sig, Timestamp(1))
        .unwrap();
    let issued = node1.infra.iv_alloc.issued();

    let node2 = fresh_node(&AsDirectory::new());
    let summary = ctrl_log::replay(&node2.infra, &sink.snap.lock(), &sink.log.lock());
    assert!(summary.hosts >= 1);
    assert!(summary.revocations >= 1);
    assert!(summary.watermark >= issued);
    let far = HostAddr::new(Aid(9), EphIdBytes([3; 16]));
    let wire = host.build_raw_packet(a, far, b"x");
    assert!(node2
        .br
        .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(2))
        .is_forward());
    let wire = host.build_raw_packet(b, far, b"y");
    assert_eq!(
        node2
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp(2)),
        Verdict::Drop(DropReason::Revoked)
    );
}

/// Builds a logged history (register + `n_issue` issuances), returning
/// the log bytes, the (log length, IVs issued) observed at each ack, and
/// the acked EphIDs.
fn logged_history(n_issue: usize) -> (Vec<u8>, Vec<(usize, u32)>, Vec<EphIdBytes>) {
    let dir = AsDirectory::new();
    let node = fresh_node(&dir);
    let sink = MemSink::default();
    node.infra
        .ctrl_log
        .install(Box::new(sink.clone()), node.infra.iv_alloc.issued());
    let mut host = attach(&node, 79);
    let mut acked_at = Vec::new();
    let mut ephids = Vec::new();
    for i in 0..n_issue {
        let class = if i % 2 == 0 {
            EphIdUsage::DATA_LONG
        } else {
            EphIdUsage::DATA_SHORT
        };
        let idx = host.acquire(&node, class, Timestamp(0)).unwrap();
        ephids.push(host.owned_ephid(idx).ephid());
        // The ack point: the reply is in the host's hands, so every byte
        // appended so far must be enough to make the issuance durable.
        acked_at.push((sink.log.lock().len(), node.infra.iv_alloc.issued()));
    }
    let log = sink.log.lock().clone();
    (log, acked_at, ephids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash consistency, ∀ truncation points: replaying an arbitrary
    /// prefix of the log never panics, never reuses an IV (fresh
    /// issuance after replay cannot reproduce a pre-crash EphID), and —
    /// at any ack boundary — serves every EphID acked before the cut.
    #[test]
    fn replay_of_any_log_prefix_is_safe(cut_frac in 0.0f64..=1.0, n_issue in 1usize..5) {
        let (log, acked_at, ephids) = logged_history(n_issue);
        let cut = ((log.len() as f64) * cut_frac) as usize;
        let cut = cut.min(log.len());

        let node2 = fresh_node(&AsDirectory::new());
        let summary = ctrl_log::replay(&node2.infra, &[], &log[..cut]);

        // Write-ahead IV reservation: an issuance acked while the log
        // held ≤ `cut` bytes is covered by the replayed watermark.
        for (i, &(at, issued)) in acked_at.iter().enumerate() {
            if at <= cut {
                prop_assert!(
                    node2.infra.iv_alloc.issued() >= issued,
                    "ack {i} at byte {at} ({issued} IVs) not covered after cut {cut}"
                );
            }
        }
        // No IV reuse: post-replay issuance never collides with any
        // acked-pre-cut EphID (byte equality ⇒ same IV under one key).
        let hid = apna_core::ephid::open(&node2.infra.keys, &ephids[0]).unwrap().hid;
        for class in [ExpiryClass::Long, ExpiryClass::Short] {
            let (fresh, _) = node2.ms.issue(
                hid, [6; 32], [7; 32], CertKind::Data, class, Timestamp(0),
            );
            for (i, pre) in ephids.iter().enumerate() {
                if acked_at[i].0 <= cut {
                    prop_assert_ne!(&fresh, pre);
                }
            }
        }
        // Torn-tail reporting: a full-log replay is never torn.
        if cut == log.len() {
            prop_assert!(!summary.torn_tail);
        }
    }
}

/// Exhaustive edition of the truncation sweep at every *byte*: cheap
/// enough for one small history, and catches off-by-one framing bugs the
/// sampled proptest might miss.
#[test]
fn replay_at_every_byte_cut_never_panics() {
    let (log, _, _) = logged_history(2);
    for cut in 0..=log.len() {
        let node2 = fresh_node(&AsDirectory::new());
        let summary = ctrl_log::replay(&node2.infra, &[], &log[..cut]);
        assert!(
            summary.records as usize <= log.len(),
            "record count bounded"
        );
    }
}

/// The `ctrl_log` object both daemons put in their stats JSON: exactly
/// these 11 keys in this order. The daemon test below, the loopback demo
/// and the benchmark harness all read them by name.
#[test]
fn daemon_stats_ctrl_log_object_keeps_its_keys_and_order() {
    let node = fresh_node(&AsDirectory::new());
    let replay = ctrl_log::ReplaySummary {
        hosts: 2,
        revocations: 1,
        watermark: 9,
        records: 4,
        torn_tail: true,
    };
    assert_eq!(
        apna::daemon::ctrl_log_json(&node.infra, Some(replay), 5, 6),
        "{\"active\": false, \"appended_records\": 0, \"appends_since_snapshot\": 0, \
         \"io_errors\": 0, \"snapshots\": 5, \"snapshot_errors\": 6, \"replayed_records\": 4, \
         \"replayed_hosts\": 2, \"replayed_revocations\": 1, \"replayed_watermark\": 9, \
         \"torn_tail\": true}"
    );
}

// ---------------------------------------------------------------------
// In-process kill-and-restart of the border daemon's core over a file log.
// ---------------------------------------------------------------------

const HOST_SEED: u64 = 1001;

/// A fresh path for a file log in the temp dir (tagged per test).
fn temp_log(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("apna-core-restart-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ctrl.log")
}

/// What one `apna-border` start does before its first burst: the node from
/// the AS seed, the mirrored host bootstrap, then the log replayed and
/// attached.
fn border_node(log: &std::path::Path, mode: ReplayMode) -> (AsNode, ctrl_log::ReplaySummary) {
    let node = fresh_node(&AsDirectory::new());
    apna_core::host::Host::attach(&node, mode, Timestamp(0), HOST_SEED).unwrap();
    let replayed = ctrl_log::attach_file(&node.infra, log).unwrap();
    (node, replayed)
}

/// One EphID issuance from `host` through `core`, as packets: the request
/// goes in as a burst, the reply comes back out and the host must accept
/// it. Returns the new EphID's index.
fn issue_through(core: &mut BorderCore, host: &mut HostAgent) -> Result<usize, apna_core::Error> {
    let ms = HostAddr::new(core.node.aid(), host.ms_cert.ephid);
    let (pending, msg) = host.begin_acquire(EphIdUsage::DATA_LONG);
    let request = host.build_ctrl_packet(ms, &msg.serialize());
    let out = core.step(Timestamp(0), vec![request]);
    assert_eq!(out.len(), 1, "one reply frame per request");
    let (_, payload) = host.receive_packet(&out[0])?;
    let reply = ControlMsg::parse(payload)?;
    host.complete_acquire(pending, &reply, Timestamp(0))
}

/// Deterministic, in-process edition of the daemon test below: an EphID
/// issued through a `BorderCore` and durably logged still forwards after
/// the core and its node are dropped and rebuilt over the same file, and
/// fresh issuance after the restart never reuses a pre-crash IV.
#[test]
fn border_core_restart_serves_precrash_ephid_without_iv_reuse() {
    let (mode, log) = (ReplayMode::Disabled, temp_log("disabled"));
    let mirror = fresh_node(&AsDirectory::new());
    let mut host =
        HostAgent::attach(&mirror, Granularity::PerFlow, mode, Timestamp(0), HOST_SEED).unwrap();

    let (node, _) = border_node(&log, mode);
    let router = node.br.clone();
    let mut core = BorderCore::new(node, router, mode, 2, 0);
    let pre = issue_through(&mut core, &mut host).expect("issuance completes");
    let issued_before_crash = core.node.infra.iv_alloc.issued();
    drop(core);

    let (node, replayed) = border_node(&log, mode);
    assert!(replayed.records >= 1, "restart must replay the log");
    assert!(
        replayed.watermark >= issued_before_crash,
        "watermark {} must cover every pre-crash IV ({issued_before_crash})",
        replayed.watermark
    );
    let own = HostAddr::new(node.aid(), host.control_ephid().0);
    let router = node.br.clone();
    let mut core = BorderCore::new(node, router, mode, 2, 0);
    let data = host.build_raw_packet(pre, own, b"pre-crash ephid still serves");
    assert_eq!(core.step(Timestamp(0), vec![data.clone()]), vec![data]);

    let post = issue_through(&mut core, &mut host).expect("post-restart issuance completes");
    assert_ne!(
        host.owned_ephid(post).ephid(),
        host.owned_ephid(pre).ephid(),
        "post-restart issuance reused a pre-crash IV"
    );
    assert_eq!((core.drops.total(), core.control_rejected), (0, 0));
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

/// Regression: a restarted border numbered its service replies from 0
/// again, so under `replay_mode = nonce` every reply reused a nonce the
/// host had already seen and was dropped as a replay. Seeding each run
/// with the daemon's `first_reply_nonce` keeps the next issuance working.
#[test]
fn border_core_restart_in_nonce_mode_keeps_replies_fresh() {
    let (mode, log) = (ReplayMode::NonceExtension, temp_log("nonce"));
    let mirror = fresh_node(&AsDirectory::new());
    let mut host =
        HostAgent::attach(&mirror, Granularity::PerFlow, mode, Timestamp(0), HOST_SEED).unwrap();

    let (node, _) = border_node(&log, mode);
    let router = node.br.clone();
    let mut core = BorderCore::new(node, router, mode, 1, first_reply_nonce());
    issue_through(&mut core, &mut host).expect("issuance completes");
    drop(core);

    let (node, _) = border_node(&log, mode);
    // Counting from 0 again, as the daemon used to: the reply is refused.
    let router = node.br.clone();
    let mut from_zero = BorderCore::new(node, router, mode, 1, 0);
    assert!(matches!(
        issue_through(&mut from_zero, &mut host),
        Err(apna_core::Error::Replay)
    ));
    let router = from_zero.node.br.clone();
    let mut core = BorderCore::new(from_zero.node, router, mode, 1, first_reply_nonce());
    issue_through(&mut core, &mut host).expect("reply after the restart is accepted");
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

// ---------------------------------------------------------------------
// Process-level kill-and-restart of the real apna-border daemon.
// ---------------------------------------------------------------------

mod daemon {
    use super::*;
    use apna_core::control::ControlMsg;
    use apna_core::deploy;
    use apna_io::stats::stats_request;
    use apna_wire::EncapTunnel;
    use std::net::{SocketAddr, TcpListener, UdpSocket};
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    const AS_SEED: [u8; 32] = [0x7D; 32];
    const AID: Aid = Aid(42);

    fn free_tcp_port() -> u16 {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("allocate TCP port")
            .port()
    }

    /// Crude numeric field extraction from the stats JSON (keys unique,
    /// values unquoted integers) — same helper the loopback demo uses.
    fn json_u64(json: &str, key: &str) -> Option<u64> {
        let needle = format!("\"{key}\": ");
        let start = json.find(&needle)? + needle.len();
        let rest = &json[start..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    struct Border {
        child: Child,
        stats_addr: SocketAddr,
    }

    impl Border {
        fn spawn(
            dir: &Path,
            run: u32,
            seed_path: &Path,
            log_path: &Path,
            gateway: SocketAddr,
        ) -> (Border, SocketAddr) {
            let listen_sock = UdpSocket::bind("127.0.0.1:0").expect("probe UDP port");
            let listen = listen_sock.local_addr().expect("addr");
            drop(listen_sock);
            let stats_port = free_tcp_port();
            let conf = dir.join(format!("border{run}.conf"));
            std::fs::write(
                &conf,
                format!(
                    "aid = {aid}\n\
                     seed_file = {seed}\n\
                     listen = {listen}\n\
                     gateway = {gateway}\n\
                     tunnel_local = 10.88.0.254\n\
                     tunnel_peer = 10.88.0.1\n\
                     stats_listen = 127.0.0.1:{stats_port}\n\
                     shards = 2\n\
                     host = 1001\n\
                     host = 2002\n\
                     ctrl_log = {log}\n\
                     run_secs = 120\n",
                    aid = AID.0,
                    seed = seed_path.display(),
                    log = log_path.display(),
                ),
            )
            .expect("border config");
            let child = Command::new(env!("CARGO_BIN_EXE_apna-border"))
                .arg(&conf)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn apna-border");
            let border = Border {
                child,
                stats_addr: format!("127.0.0.1:{stats_port}").parse().expect("addr"),
            };
            (border, listen)
        }

        fn wait_up(&self) -> String {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match stats_request(self.stats_addr, "stats") {
                    Ok(json) if json.starts_with('{') => return json,
                    _ if Instant::now() > deadline => panic!("border stats never came up"),
                    _ => std::thread::sleep(Duration::from_millis(100)),
                }
            }
        }

        fn shutdown(self) -> String {
            let final_json = stats_request(self.stats_addr, "shutdown").expect("shutdown");
            let out = self.child.wait_with_output().expect("wait border");
            assert!(
                out.status.success(),
                "border exited non-zero: {:?}",
                out.status
            );
            final_json
        }
    }

    /// Sends `wire` through the tunnel and returns the first decapped
    /// reply frame the host accepts a `ControlMsg` from.
    fn control_roundtrip(
        sock: &UdpSocket,
        tunnel: &EncapTunnel,
        border: SocketAddr,
        host: &mut HostAgent,
        wire: Vec<u8>,
    ) -> ControlMsg {
        sock.send_to(&tunnel.emit(&wire).expect("encap"), border)
            .expect("send control");
        let mut buf = vec![0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            assert!(
                Instant::now() < deadline,
                "no control reply before deadline"
            );
            let Ok(n) = sock.recv(&mut buf) else { continue };
            let Ok(frame) = tunnel.parse(&buf[..n]) else {
                continue;
            };
            let frame = frame.to_vec();
            let Ok((_header, payload)) = host.receive_packet(&frame) else {
                continue;
            };
            if let Ok(msg) = ControlMsg::parse(payload) {
                return msg;
            }
        }
    }

    /// The ISSUE's acceptance gate: EphIDs issued (and durably logged) by
    /// a live `apna-border` stay valid across a kill-and-restart — the
    /// replayed daemon serves them without re-issuance, and its advanced
    /// IV watermark keeps fresh issuance collision-free.
    #[test]
    fn border_restart_replays_log_and_serves_precrash_ephids() {
        let dir = std::env::temp_dir().join(format!("apna-ctrl-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let seed_path = dir.join("as.seed");
        std::fs::write(&seed_path, deploy::encode_seed_file(&AS_SEED)).expect("seed file");
        let log_path: PathBuf = dir.join("ctrl.log");

        // This test plays the gateway: its socket is the daemon's
        // configured peer, and it mirrors the daemon's AS state (same
        // seed, same `host =` bootstrap order) to build valid traffic.
        let sock = UdpSocket::bind("127.0.0.1:0").expect("gateway socket");
        sock.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        let gateway_addr = sock.local_addr().expect("addr");
        let tunnel = EncapTunnel::new(
            apna_wire::ipv4::Ipv4Addr::new(10, 88, 0, 1),
            apna_wire::ipv4::Ipv4Addr::new(10, 88, 0, 254),
        );

        let mirror_dir = AsDirectory::new();
        let node = AsNode::from_seed(AID, AS_SEED, &mirror_dir, Timestamp(0));
        let mut h1 = HostAgent::attach(
            &node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            1001,
        )
        .unwrap();
        let h2 = HostAgent::attach(
            &node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            2002,
        )
        .unwrap();

        // ---- Run 1: issue an EphID through the daemon, then kill. ----
        let (border, listen) = Border::spawn(&dir, 1, &seed_path, &log_path, gateway_addr);
        border.wait_up();

        let ms = HostAddr::new(AID, h1.ms_cert.ephid);
        let (pending, msg) = h1.begin_acquire(EphIdUsage::DATA_LONG);
        let wire = h1.build_ctrl_packet(ms, &msg.serialize());
        let reply = control_roundtrip(&sock, &tunnel, listen, &mut h1, wire);
        let idx = h1
            .complete_acquire(pending, &reply, Timestamp(0))
            .expect("issuance reply completes");
        let e1 = h1.owned_ephid(idx).ephid();

        let final1 = border.shutdown();
        assert!(
            final1.contains("\"active\": true"),
            "log must be attached: {final1}"
        );
        assert!(
            json_u64(&final1, "appended_records").unwrap_or(0) >= 1,
            "issuance must reach the log before shutdown: {final1}"
        );

        // ---- Run 2: restart over the same log. ----
        let (border, listen) = Border::spawn(&dir, 2, &seed_path, &log_path, gateway_addr);
        let up = border.wait_up();
        assert!(
            json_u64(&up, "replayed_records").unwrap_or(0) >= 1,
            "restart must replay the run-1 log: {up}"
        );
        assert!(
            json_u64(&up, "replayed_watermark").unwrap_or(0) >= 1,
            "restart must restore the IV watermark: {up}"
        );

        // The pre-crash EphID is served without any re-issuance: a data
        // packet sourced from it traverses the restarted border and is
        // delivered back out (to us, playing the gateway).
        let payload = b"pre-crash ephid still serves";
        let dst = HostAddr::new(AID, h2.control_ephid().0);
        let data = h1.build_raw_packet(idx, dst, payload);
        sock.send_to(&tunnel.emit(&data).expect("encap"), listen)
            .expect("send data");
        let mut buf = vec![0u8; 4096];
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            assert!(
                Instant::now() < deadline,
                "pre-crash EphID packet was not delivered after restart"
            );
            let Ok(n) = sock.recv(&mut buf) else { continue };
            let Ok(frame) = tunnel.parse(&buf[..n]) else {
                continue;
            };
            if frame.windows(payload.len()).any(|w| w == payload) {
                break;
            }
        }

        // Fresh issuance after the restart must not collide with the
        // pre-crash EphID: byte equality would mean IV reuse under the
        // same AS key (the watermark replay prevents exactly that).
        let (pending, msg) = h1.begin_acquire(EphIdUsage::DATA_LONG);
        let wire = h1.build_ctrl_packet(ms, &msg.serialize());
        let reply = control_roundtrip(&sock, &tunnel, listen, &mut h1, wire);
        let idx2 = h1
            .complete_acquire(pending, &reply, Timestamp(0))
            .expect("post-restart issuance completes");
        assert_ne!(
            h1.owned_ephid(idx2).ephid(),
            e1,
            "post-restart issuance reused a pre-crash IV"
        );

        let final2 = border.shutdown();
        assert!(
            json_u64(&final2, "appended_records").unwrap_or(0) >= 1,
            "run 2 keeps logging: {final2}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
