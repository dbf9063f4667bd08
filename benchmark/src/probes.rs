//! The standing probe suite of the traced pass.
//!
//! A workload records spans around the calls it makes, but each
//! workload reaches only some layers, and `process_batch` /
//! `handle_control_batch` hide their stages. A *probe* is the same
//! public function called stand-alone under a span, on inputs shaped
//! like the workload's (payload size, hosts per burst, filter and
//! revocation state). Every traced run executes the whole suite, so
//! every per-layer metric is measured on every workload; where the
//! workload recorded a span of the same name itself, its own span wins
//! (see `layers`).

use crate::harness::Ctx;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::workloads::{issue, pair, simnet, trip};
use apna::core::agent::{EphIdUsage, HostAgent};
use apna::core::asnode::AsNode;
use apna::core::border::Direction;
use apna::core::directory::AsDirectory;
use apna::core::ephid::{self, EphIdPlain};
use apna::core::granularity::Granularity;
use apna::core::hid::Hid;
use apna::core::host::Host;
use apna::core::replay::ShardedReplayFilter;
use apna::core::session::{client_connect, client_finish, server_accept_with_recv_ephid};
use apna::core::shutoff::RevocationOrder;
use apna::core::time::Timestamp;
use apna::crypto::cmac::CmacAes128;
use apna::crypto::ed25519::SigningKey;
use apna::crypto::gcm::AesGcm128;
use apna::crypto::x25519::StaticSecret;
use apna::io::stats::StatsServer;
use apna::io::udp::{UdpBackend, UdpFraming};
use apna::io::PacketIo;
use apna::simnet::{EventQueue, SimTime};
use apna::wire::ipv4::Ipv4Addr;
use apna::wire::{Aid, ApnaHeader, EncapTunnel, EphIdBytes, HostAddr, PacketBatch, ReplayMode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The shape of a workload's inputs, as far as the probes care.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Payload bytes per packet (APNA payload for the border, legacy
    /// payload for the gateway).
    pub payload_len: usize,
    /// Distinct source hosts in one border burst.
    pub hosts_per_burst: usize,
    /// Whether the border runs the in-network replay filter.
    pub replay_filter: bool,
    /// Entries preloaded into the revocation list.
    pub revoked_entries: usize,
}

const BURST: usize = 32;
const NOW: Timestamp = Timestamp(50_000);

/// What the suite measured: spans by the names the workloads use, and
/// counters.
pub struct ProbeOut {
    /// Spans of every probe.
    pub tracer: Tracer,
    /// Counter observations (`layer.counter` → value).
    pub counters: BTreeMap<&'static str, f64>,
}

/// Runs every probe.
pub fn run_all(ctx: &Ctx, profile: Profile, epoch: Instant) -> Result<ProbeOut, String> {
    let mut out = ProbeOut {
        tracer: Tracer::on(epoch),
        counters: BTreeMap::new(),
    };
    let mut rng = SplitMix64::fork(ctx.seed, "probes");
    crypto(&mut out, &mut rng, profile);
    border_stages(&mut out, &mut rng, profile)?;
    sessions_and_agents(&mut out, &mut rng, profile)?;
    trip_mini(&mut out, ctx, profile)?;
    issue_mini(&mut out, ctx)?;
    udp_and_stats(&mut out, &mut rng, profile)?;
    simnet_mini(&mut out, ctx)?;
    daemons(&mut out, ctx)?;
    Ok(out)
}

/// Symmetric primitives at the workload's packet size, asymmetric ones
/// as the control plane uses them.
fn crypto(out: &mut ProbeOut, rng: &mut SplitMix64, profile: Profile) {
    let tr = &mut out.tracer;
    let packet: Vec<u8> = rng.bytes(48 + profile.payload_len);
    let cmac = CmacAes128::new(&rng.array());
    for round in 0..64 {
        let span = tr.begin("crypto.cmac", round);
        for _ in 0..BURST {
            black_box(cmac.mac_truncated::<8>(black_box(&packet)));
        }
        tr.end(span, BURST);
    }
    let gcm = AesGcm128::new(&rng.array());
    let nonce: [u8; 12] = rng.array();
    let plain = rng.bytes(profile.payload_len);
    let sealed = gcm.seal(&nonce, b"apna-gw", &plain);
    for round in 0..64 {
        let span = tr.begin("crypto.gcm_seal", round);
        for _ in 0..BURST {
            black_box(gcm.seal(&nonce, b"apna-gw", black_box(&plain)));
        }
        tr.end(span, BURST);
        let span = tr.begin("crypto.gcm_open", round);
        for _ in 0..BURST {
            black_box(gcm.open(&nonce, b"apna-gw", black_box(&sealed)).is_ok());
        }
        tr.end(span, BURST);
    }
    let signer = SigningKey::from_seed(&rng.seed32());
    let verifier = signer.verifying_key();
    let message = rng.bytes(137); // a certificate's signed bytes
    let secret = StaticSecret::from_bytes(rng.seed32());
    let peer = StaticSecret::from_bytes(rng.seed32()).public_key();
    for round in 0..24 {
        let span = tr.begin("crypto.ed25519_sign", round);
        let sig = signer.sign(black_box(&message));
        tr.end(span, 1);
        let span = tr.begin("crypto.ed25519_verify", round);
        black_box(verifier.verify(&message, &sig).is_ok());
        tr.end(span, 1);
        let span = tr.begin("crypto.x25519", round);
        black_box(secret.diffie_hellman(black_box(&peer)));
        tr.end(span, 1);
    }
}

/// The stages `process_batch` hides, each called stand-alone on the same
/// bursts that then go through `process_batch` itself, so that
/// `unattributed = egress span − Σ stage spans` compares like with like.
fn border_stages(out: &mut ProbeOut, rng: &mut SplitMix64, profile: Profile) -> Result<(), String> {
    const MODE: ReplayMode = ReplayMode::NonceExtension;
    let own = Aid(9100);
    let foreign = HostAddr::new(Aid(9200), EphIdBytes(rng.array()));
    let node = AsNode::from_seed(own, rng.seed32(), &AsDirectory::new(), NOW);
    let keys = &node.infra.keys;
    let (enc, mac) = (keys.ephid_enc_cipher(), keys.ephid_mac_cipher());
    let mut router = node.br.clone();
    if profile.replay_filter {
        router.enable_replay_filter();
    }
    let filter = ShardedReplayFilter::new();

    struct ProbeHost {
        cmac: CmacAes128,
        ephid: EphIdBytes,
    }
    let mut hosts = Vec::new();
    for _ in 0..profile.hosts_per_burst.clamp(1, BURST) {
        let host = Host::attach(&node, MODE, NOW, rng.next_u64())
            .map_err(|e| format!("probe host attach: {e}"))?;
        let hid = ephid::open(keys, &host.control_ephid().0)
            .map_err(|e| format!("probe control EphID: {e:?}"))?
            .hid;
        let plain = EphIdPlain {
            hid,
            exp_time: NOW.add_secs(900),
        };
        let ephid = ephid::seal(keys, plain, node.infra.iv_alloc.next_iv());
        let span = out.tracer.begin("core.ephid.seal", hosts.len() as u64);
        for _ in 0..BURST {
            black_box(ephid::seal(
                keys,
                black_box(plain),
                node.infra.iv_alloc.next_iv(),
            ));
        }
        out.tracer.end(span, BURST);
        hosts.push(ProbeHost {
            cmac: host.kha().packet_cmac(),
            ephid,
        });
    }
    for i in 0..profile.revoked_entries.max(64) {
        let order = RevocationOrder::issue(keys, EphIdBytes(rng.array()), NOW.add_secs(900));
        let span = (i < 64).then(|| out.tracer.begin("core.revocation.apply", i as u64));
        router
            .apply_revocation(&order)
            .map_err(|e| format!("probe apply_revocation: {e}"))?;
        if let Some(span) = span {
            out.tracer.end(span, 1);
        }
    }

    let payload = rng.bytes(profile.payload_len);
    let mut nonce = 1u64;
    let mut passed = 0u64;
    let rounds = 96u64;
    for round in 0..rounds {
        // Fresh nonces need fresh MACs: built outside every span.
        let mut egress = Vec::with_capacity(BURST);
        let mut ingress = Vec::with_capacity(BURST);
        for slot in 0..BURST {
            let host = &hosts[slot % hosts.len()];
            for (src, dst, into) in [
                (HostAddr::new(own, host.ephid), foreign, &mut egress),
                (foreign, HostAddr::new(own, host.ephid), &mut ingress),
            ] {
                let mut header = ApnaHeader::new(src, dst).with_nonce(nonce);
                header.set_mac(host.cmac.mac_truncated(&header.mac_input(&payload)));
                let mut wire = header.serialize();
                wire.extend_from_slice(&payload);
                into.push(wire);
            }
            nonce += 1;
        }
        let tr = &mut out.tracer;

        let span = tr.begin("wire.header_parse", round);
        let parsed: Vec<(ApnaHeader, &[u8])> = egress
            .iter()
            .filter_map(|p| ApnaHeader::parse(p, MODE).ok())
            .collect();
        tr.end(span, parsed.len());

        let ephids: Vec<EphIdBytes> = parsed.iter().map(|(h, _)| h.src.ephid).collect();
        let span = tr.begin("core.ephid.open", round);
        let opened = ephid::open_many_with(&enc, &mac, &ephids);
        tr.end(span, opened.len());

        let span = tr.begin("core.revocation.lookup", round);
        for e in &ephids {
            black_box(node.infra.revoked.contains(e));
        }
        tr.end(span, ephids.len());

        // Stage 4 the way the router runs it: group by host, one
        // `verify_many` per group under that host's expanded CMAC.
        let span = tr.begin("core.hostinfo.mac_verify", round);
        let mut by_host: BTreeMap<Hid, Vec<usize>> = BTreeMap::new();
        for (i, plain) in opened.iter().enumerate() {
            if let Ok(plain) = plain {
                by_host.entry(plain.hid).or_default().push(i);
            }
        }
        let mut verified = 0usize;
        for (hid, members) in &by_host {
            let Some(cmac) = node.infra.host_db.cmac_of_valid(*hid) else {
                continue;
            };
            let inputs: Vec<Vec<u8>> = members
                .iter()
                .map(|&i| parsed[i].0.mac_input(parsed[i].1))
                .collect();
            let input_refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let tags: Vec<&[u8]> = members
                .iter()
                .map(|&i| parsed[i].0.mac.as_slice())
                .collect();
            verified += cmac
                .verify_many(&input_refs, &tags)
                .iter()
                .filter(|ok| **ok)
                .count();
        }
        tr.end(span, ephids.len());
        if verified != BURST {
            return Err(format!(
                "probe burst: {verified} of {BURST} packet MACs verified"
            ));
        }

        let candidates: Vec<(usize, EphIdBytes, u64)> = parsed
            .iter()
            .enumerate()
            .filter_map(|(i, (h, _))| h.nonce.map(|n| (i, h.src.ephid, n)))
            .collect();
        let span = tr.begin("core.replay.check", round);
        filter.check_batch(&candidates, |_| {});
        tr.end(span, candidates.len());
        drop(parsed);

        for (direction, name, packets) in [
            (Direction::Egress, "core.border.egress", egress),
            (Direction::Ingress, "core.border.ingress", ingress),
        ] {
            let span = tr.begin("wire.batch_build", round);
            let kept = packets.clone();
            let mut batch = PacketBatch::from_packets(MODE, packets);
            tr.end(span, BURST);
            black_box(kept);
            let span = tr.begin(name, round);
            let verdicts = router.process_batch(direction, &mut batch, NOW);
            tr.end(span, BURST);
            passed += verdicts.passed();
        }
    }
    if passed != rounds * 2 * BURST as u64 {
        return Err(format!(
            "probe border: {passed} of {} packets passed",
            rounds * 2 * BURST as u64
        ));
    }

    // Medians over the rounds, not means: one preempted round (1 ms over
    // 32 packets) would otherwise swamp a difference of tens of ns.
    let per_pkt =
        |name: &str| crate::stats::median(&out.tracer.durations_us(name)) * 1e3 / BURST as f64;
    let mut stages = per_pkt("wire.header_parse")
        + per_pkt("core.ephid.open")
        + per_pkt("core.revocation.lookup")
        + per_pkt("core.hostinfo.mac_verify");
    if profile.replay_filter {
        stages += per_pkt("core.replay.check");
    }
    let c = &mut out.counters;
    c.insert(
        "core.border.unattributed_ns_per_pkt",
        per_pkt("core.border.egress") - stages,
    );
    c.insert("core.border.fast_path_ratio", 1.0);
    c.insert("core.border.mean_burst", BURST as f64);
    c.insert(
        "core.hostinfo.hosts_per_burst",
        hosts.len().min(BURST) as f64,
    );
    c.insert("core.revocation.entries", node.infra.revoked.len() as f64);
    c.insert("core.replay.entries", filter.entries() as f64);
    Ok(())
}

/// Host attach, EphID acquisition, the §VII-A handshake and the session
/// AEAD at the workload's payload size.
fn sessions_and_agents(
    out: &mut ProbeOut,
    rng: &mut SplitMix64,
    profile: Profile,
) -> Result<(), String> {
    let tr = &mut out.tracer;
    let dir = AsDirectory::new();
    let node = AsNode::from_seed(Aid(9300), rng.seed32(), &dir, NOW);
    let mut agents = Vec::new();
    for i in 0..8u64 {
        let span = tr.begin("core.agent.attach", i);
        let agent = HostAgent::attach(
            &node,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            NOW,
            rng.next_u64(),
        );
        tr.end(span, 1);
        agents.push(agent.map_err(|e| format!("probe agent attach: {e}"))?);
    }
    let (client, rest) = agents.split_first_mut().ok_or("no probe agents")?;
    let server = rest.first_mut().ok_or("no probe server agent")?;
    let recv_idx = server
        .acquire(&node, EphIdUsage::RECEIVE_ONLY, NOW)
        .map_err(|e| format!("probe listen: {e}"))?;
    let plain = rng.bytes(profile.payload_len);
    for round in 0..8u64 {
        let span = tr.begin("core.agent.acquire", round);
        let client_idx = client.acquire(&node, EphIdUsage::DATA_SHORT, NOW);
        tr.end(span, 1);
        let client_idx = client_idx.map_err(|e| format!("probe acquire: {e}"))?;
        let serve_idx = server
            .acquire(&node, EphIdUsage::DATA_SHORT, NOW)
            .map_err(|e| format!("probe acquire: {e}"))?;
        let (c, recv, serving) = (
            client.owned_ephid(client_idx).clone(),
            server.owned_ephid(recv_idx).clone(),
            server.owned_ephid(serve_idx).clone(),
        );
        let span = tr.begin("core.session.handshake", round);
        let (pending, hello) =
            client_connect(&c.keys, &c.cert, &recv.cert, &dir, NOW, Some(&plain))
                .map_err(|e| format!("probe client_connect: {e}"))?;
        let (mut server_ch, early, accept) = server_accept_with_recv_ephid(
            &recv.keys,
            recv.ephid(),
            &serving.keys,
            &serving.cert,
            &hello,
            &dir,
            NOW,
            b"",
        )
        .map_err(|e| format!("probe server_accept: {e}"))?;
        let (mut client_ch, _) = client_finish(&pending, &accept, &dir, NOW)
            .map_err(|e| format!("probe client_finish: {e}"))?;
        tr.end(span, 1);
        if early.as_deref() != Some(plain.as_slice()) {
            return Err("probe handshake lost its early data".to_string());
        }
        let span = tr.begin("core.session.seal", round);
        let sealed: Vec<Vec<u8>> = (0..BURST)
            .map(|_| client_ch.seal(b"apna-gw", &plain))
            .collect();
        tr.end(span, BURST);
        let span = tr.begin("core.session.open", round);
        let opened = sealed
            .iter()
            .filter(|s| server_ch.open(b"apna-gw", s).is_ok())
            .count();
        tr.end(span, BURST);
        if opened != BURST {
            return Err(format!("probe session opened {opened} of {BURST}"));
        }
    }
    Ok(())
}

/// The trip world, small: gateway, ring, encap/decap, batch build and
/// the two-host border path, plus a rotation wave.
fn trip_mini(out: &mut ProbeOut, ctx: &Ctx, profile: Profile) -> Result<(), String> {
    let payload = profile.payload_len.clamp(16, trip::LARGE_PAYLOAD);
    let mut world = trip::TripWorld::build(ctx.seed ^ 0x7219, payload, 16)?;
    let window = world.run(
        &ctx.with_window(Duration::from_millis(250)),
        out.tracer.sibling(),
    )?;
    if !window.violations.is_empty() || window.failed != 0 {
        return Err(format!(
            "probe trip: {} failed, {:?}",
            window.failed, window.violations
        ));
    }
    let flow_setup = window.reduce().flow_setup_p50_us;
    if let Some(tracer) = window.tracer {
        out.tracer.absorb(tracer);
    }
    // The short window does not reach a rotation on its own clock.
    if world.force_rotation(&mut out.tracer)? == 0 {
        return Err("probe trip: the forced rotation wave rotated nothing".to_string());
    }
    out.counters.insert("e2e.flow_setup_p50_us", flow_setup);
    for (k, v) in window.counters {
        if k.starts_with("gateway.") {
            out.counters.insert(k, v);
        }
    }
    Ok(())
}

/// The issuance world, small and durable: dispatch, the hidden stages,
/// a log append, a snapshot and a replay.
fn issue_mini(out: &mut ProbeOut, ctx: &Ctx) -> Result<(), String> {
    let dir = ctx.out_dir.join("probe_issue");
    let mut world = issue::IssueWorld::build(ctx.seed ^ 0x155e, 64, Some(&dir))?;
    world.stage_probes(&mut out.tracer, 24);
    let window = world.run(
        &ctx.with_window(Duration::from_millis(300)),
        out.tracer.sibling(),
        1,
    )?;
    if !window.violations.is_empty() || window.failed != 0 {
        return Err(format!(
            "probe issue: {} failed, {:?}",
            window.failed, window.violations
        ));
    }
    if let Some(tracer) = window.tracer {
        out.tracer.absorb(tracer);
    }
    // One snapshot for sure, whatever the short window reached.
    let span = out.tracer.begin("core.ctrl_log.snapshot", u64::MAX);
    let taken = world.force_snapshot();
    out.tracer.end(span, 1);
    taken?;
    for (k, v) in window.counters {
        out.counters.insert(k, v);
    }
    Ok(())
}

/// `UdpBackend` over loopback with tunnel framing, and an idle
/// `StatsServer::poll_once` (what every daemon loop iteration pays).
fn udp_and_stats(out: &mut ProbeOut, rng: &mut SplitMix64, profile: Profile) -> Result<(), String> {
    let tr = &mut out.tracer;
    let any: SocketAddr = SocketAddr::from(([127, 0, 0, 1], 0));
    let tunnel = EncapTunnel::new(Ipv4Addr::new(10, 77, 0, 1), Ipv4Addr::new(10, 77, 0, 254));
    let io_err = |e: apna::io::IoError| format!("probe udp: {e}");
    let mut a = UdpBackend::bind(any, any, UdpFraming::Tunnel(tunnel)).map_err(io_err)?;
    let mut b = UdpBackend::bind(any, any, UdpFraming::Tunnel(tunnel.flipped())).map_err(io_err)?;
    a.set_peer(b.local_addr().map_err(io_err)?);
    b.set_peer(a.local_addr().map_err(io_err)?);
    let frames: Vec<Vec<u8>> = (0..BURST)
        .map(|_| rng.bytes(48 + profile.payload_len))
        .collect();
    let mut rejected = 0u64;
    for round in 0..48u64 {
        let span = tr.begin("io.udp.send", round);
        let sent = a.send_burst(&frames).map_err(io_err)?;
        tr.end(span, sent);
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(2);
        while got < sent {
            if !b.poll(Duration::from_millis(50)).map_err(io_err)? && Instant::now() > deadline {
                return Err(format!("probe udp: {got} of {sent} frames arrived"));
            }
            let span = tr.begin("io.udp.recv", round);
            let n = b.recv_burst(BURST).map_err(io_err)?.len();
            tr.end(span, n);
            got += n;
        }
        rejected = b.counters().rx_rejected + a.counters().tx_rejected;
    }
    out.counters.insert("io.udp.rx_rejected", rejected as f64);

    let mut server = StatsServer::bind(any).map_err(io_err)?;
    let snapshot = "{\"daemon\": \"probe\", \"uptime_secs\": 0}";
    for round in 0..32u64 {
        let span = tr.begin("io.stats.poll", round);
        for _ in 0..BURST {
            black_box(server.poll_once(snapshot).is_ok());
        }
        tr.end(span, BURST);
    }
    Ok(())
}

/// One small simulator instance, and the event queue's schedule + pop
/// at that instance's high-water depth.
fn simnet_mini(out: &mut ProbeOut, ctx: &Ctx) -> Result<(), String> {
    let mut world = simnet::SimnetWorld::new(ctx.seed ^ 0x51b, 1, 300);
    let window = world.run(
        &ctx.with_window(Duration::from_millis(1)),
        out.tracer.sibling(),
    )?;
    if !window.violations.is_empty() || window.failed != 0 {
        return Err(format!(
            "probe simnet: {} failed, {:?}",
            window.failed, window.violations
        ));
    }
    if let Some(tracer) = window.tracer {
        out.tracer.absorb(tracer);
    }
    let depth = window
        .counters
        .get("simnet.scale.queue_high_water")
        .map_or(64, |d| *d as u64)
        .max(1);
    for (k, v) in window.counters {
        out.counters.insert(k, v);
    }
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::fork(ctx.seed, "probes.queue");
    for i in 0..depth {
        queue.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
    }
    for round in 0..64u64 {
        let span = out.tracer.begin("simnet.event.queue", round);
        for _ in 0..256 {
            if let Some((at, payload)) = queue.pop() {
                queue.schedule(at.add_micros(1 + rng.below(1_000_000)), payload);
            }
        }
        out.tracer.end(span, 256);
    }
    Ok(())
}

/// The real daemon pair with the benchmark's relay between them: start
/// time, idle cost, exact per-hop times from a one-in-flight ping-pong,
/// CPU per packet at the paced rate, and closed-loop window throughput.
fn daemons(out: &mut ProbeOut, ctx: &Ctx) -> Result<(), String> {
    let world = pair::PairWorld::build(ctx, true)?;
    let p = &world.pair;
    let relay = p
        .relay
        .as_ref()
        .ok_or("probe pair started without its relay")?;
    out.counters
        .insert("bin.apna-gateway.start_ms", p.gateway.start_ms);
    out.counters
        .insert("bin.apna-border.start_ms", p.border.start_ms);

    // Idle: no datagram in flight, both run loops ticking on their poll
    // timeouts and servicing the stats endpoint.
    let idle = Duration::from_millis(800);
    let cpu0 = p.cpu()?;
    std::thread::sleep(idle);
    let cpu1 = p.cpu()?;
    let per_s = |d: f64| d * 1e3 / idle.as_secs_f64();
    out.counters.insert(
        "bin.apna-gateway.idle_cpu_ms_per_s",
        per_s(cpu1.0.since(cpu0.0).total()),
    );
    out.counters.insert(
        "bin.apna-border.idle_cpu_ms_per_s",
        per_s(cpu1.1.since(cpu0.1).total()),
    );

    // Ping-pong: one datagram in flight, four timestamps, three hops.
    for s in [&p.legacy, &relay.a, &relay.b] {
        s.set_nonblocking(true)
            .map_err(|e| format!("probe sockets: {e}"))?;
    }
    let mut buf = vec![0u8; 16 * 1024];
    let spin_recv = |socket: &std::net::UdpSocket, buf: &mut [u8]| -> Option<(usize, Instant)> {
        let deadline = Instant::now() + Duration::from_millis(300);
        while Instant::now() < deadline {
            if let Ok(n) = socket.recv(buf) {
                return Some((n, Instant::now()));
            }
            std::hint::spin_loop();
        }
        None
    };
    // A ping lost to the box (a hop that takes longer than 300 ms) is
    // skipped, not fatal; most must complete for the medians to stand.
    let pings = 120u64;
    let mut completed = 0u64;
    for ping in 0..pings {
        let pkt = world.ping_packet(ping);
        let t0 = Instant::now();
        p.send_legacy(&pkt)?;
        let hops = (|| {
            let (n, t1) = spin_recv(&relay.a, &mut buf)?;
            relay.forward_to_border(&buf[..n]).ok()?;
            let (n, t2) = spin_recv(&relay.b, &mut buf)?;
            relay.forward_to_gateway(&buf[..n]).ok()?;
            let (n, t3) = spin_recv(&p.legacy, &mut buf)?;
            (apna::gateway::LegacyPacket::parse(&buf[..n]).ok().as_ref() == Some(&pkt))
                .then_some([t1, t2, t3])
        })();
        let Some([t1, t2, t3]) = hops else {
            // Let a straggler arrive and discard it, so the next ping
            // does not mistake it for its own.
            std::thread::sleep(Duration::from_millis(50));
            for socket in [&relay.a, &relay.b, &p.legacy] {
                while socket.recv(&mut buf).is_ok() {}
            }
            continue;
        };
        completed += 1;
        out.tracer
            .record("bin.apna-gateway.out_hop", t0, t1, ping, 1);
        out.tracer.record("bin.apna-border.hop", t1, t2, ping, 1);
        out.tracer
            .record("bin.apna-gateway.in_hop", t2, t3, ping, 1);
    }
    if completed < pings / 2 {
        return Err(format!(
            "probe ping-pong: only {completed} of {pings} pings completed"
        ));
    }
    p.legacy
        .set_nonblocking(false)
        .map_err(|e| format!("probe sockets: {e}"))?;

    // From here on the relay is pumped by its own thread.
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| -> Result<(), String> {
        let pump = scope.spawn(|| {
            let mut buf = vec![0u8; 16 * 1024];
            while !stop.load(Ordering::SeqCst) {
                let mut moved = 0;
                while let Ok(n) = relay.a.recv(&mut buf) {
                    moved += usize::from(relay.forward_to_border(&buf[..n]).is_ok());
                }
                while let Ok(n) = relay.b.recv(&mut buf) {
                    moved += usize::from(relay.forward_to_gateway(&buf[..n]).is_ok());
                }
                if moved == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        });
        let measured = (|| -> Result<(), String> {
            // CPU per packet at the paced rate (the relay costs the
            // daemons nothing: they send to and receive from a socket
            // either way).
            // A datagram lost here (the relay thread is one more party
            // that can lose its core) is not a failed run: the daemons'
            // own error counters are reported as metrics below.
            let paced = world.run(&ctx.with_window(Duration::from_millis(1200)), Tracer::off())?;
            let mut late = paced.gen_late_us;
            crate::stats::sort(&mut late);
            out.counters.insert(
                "gen.late_p99_us",
                crate::stats::percentile_sorted(&late, 99.0),
            );
            for (k, v) in paced.counters {
                if k.starts_with("bin.") {
                    out.counters.insert(k, v);
                }
            }
            // Closed loop, 512 outstanding: informational (sockets at
            // saturation did not repeat within a fifth).
            let pps = world.window_throughput(512, Duration::from_millis(800))?;
            out.counters.insert("bin.pair.window_pps", pps);
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        pump.join().map_err(|_| "relay pump panicked".to_string())?;
        measured
    });
    result?;
    world.finish()
}
