//! `trip_ring_small` / `trip_ring_large`: a legacy datagram's whole trip
//! in one thread, in-process — the noise-free ceiling of the path the
//! two daemons implement across sockets.
//!
//! ```text
//! TranslatorPair::handle_legacy → RingBackend → EncapTunnel::parse →
//! PacketBatch::from_packets → BorderRouter::process_batch (egress) →
//! (ingress) → EncapTunnel::emit → RingBackend → TranslatorPair::handle_apna
//! ```
//!
//! Closed loop: the next burst is sent when the previous one has been
//! delivered. An op is a datagram handed back on the legacy side with
//! exactly the tuple and payload that went in; latency is one burst's
//! trip.

use crate::harness::{setup_median, Ctx, Sample, SelfMeter, Window};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use apna::core::asnode::AsNode;
use apna::core::border::{BorderRouter, Direction, Verdict};
use apna::core::directory::AsDirectory;
use apna::core::time::Timestamp;
use apna::gateway::{LegacyPacket, PairConfig, TranslatorPair};
use apna::io::{PacketIo, RingBackend};
use apna::wire::ipv4::Ipv4Addr;
use apna::wire::{Aid, EncapTunnel, PacketBatch, ReplayMode};
use std::time::Instant;

/// Datagrams per burst (the daemons' default `burst`).
pub const BURST: usize = 32;
/// Flows established before the window opens.
pub const WARM_FLOWS: usize = 256;
/// One burst in this many opens a fresh 5-tuple (issuance + handshake).
pub const NEW_FLOW_EVERY: u64 = 64;
/// Bursts per second of protocol time: the synthetic clock that drives
/// `refresh_expiring`, so rotation waves happen inside a short window.
pub const BURSTS_PER_PROTOCOL_SEC: u64 = 1024;
/// Rotation margin: with 900 s short-lived EphIDs, pooled EphIDs rotate
/// every ~5 s of protocol time.
pub const REFRESH_MARGIN_SECS: u32 = 895;
/// Largest legacy payload the large variant carries.
pub const LARGE_PAYLOAD: usize = 1400;
/// Legacy payload of the small variant.
pub const SMALL_PAYLOAD: usize = 64;

const MODE: ReplayMode = ReplayMode::Disabled;
const SERVICE_PORT: u16 = 7777;
const PAYLOAD_POOL: usize = 64;

/// The in-process pair: one AS, the translator pair attached to it, a
/// border-router clone, and the two rings between them.
pub struct TripWorld {
    node: AsNode,
    pair: TranslatorPair,
    router: BorderRouter,
    /// Border-side view of the tunnel (peer = gateway).
    tunnel: EncapTunnel,
    gw_ring: RingBackend,
    br_ring: RingBackend,
    payload_len: usize,
    payloads: Vec<Vec<u8>>,
    /// `(source address, source port)` of every established flow.
    flows: Vec<(Ipv4Addr, u16)>,
    next_flow: u32,
    warm_flows: usize,
    next_warm: usize,
    burst_no: u64,
    stamp: u64,
    errors: u64,
}

fn flow_endpoint(n: u32) -> (Ipv4Addr, u16) {
    let [_, b, c, d] = n.to_be_bytes();
    (
        Ipv4Addr::new(192, 168 ^ b, c, d),
        20_000 + (n % 40_000) as u16,
    )
}

impl TripWorld {
    /// Builds the AS and the pair and establishes `warm_flows` flows
    /// ([`WARM_FLOWS`] for the workloads; the probe suite warms fewer).
    pub fn build(seed: u64, payload_len: usize, warm_flows: usize) -> Result<TripWorld, String> {
        let mut rng = SplitMix64::fork(seed, "trip.world");
        let dir = AsDirectory::new();
        let now = Timestamp::EPOCH;
        let node = AsNode::from_seed(Aid(4200), rng.seed32(), &dir, now);
        let mut cfg = PairConfig::new(rng.next_u64(), rng.next_u64());
        cfg.replay_mode = MODE;
        cfg.refresh_margin_secs = Some(REFRESH_MARGIN_SECS);
        let pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now)
            .map_err(|e| format!("translator bootstrap: {e}"))?;
        let (gw_ring, br_ring) = RingBackend::pair(4 * BURST);
        let payloads = (0..PAYLOAD_POOL).map(|_| rng.bytes(payload_len)).collect();
        let mut world = TripWorld {
            router: node.br.clone(),
            tunnel: EncapTunnel::new(cfg.router_ip, cfg.gateway_ip),
            node,
            pair,
            gw_ring,
            br_ring,
            payload_len,
            payloads,
            flows: Vec::with_capacity(warm_flows),
            next_flow: rng.below(1 << 20) as u32,
            warm_flows,
            next_warm: 0,
            burst_no: 0,
            stamp: rng.next_u64(),
            errors: 0,
        };
        // Warm-up: every flow's first datagram pays issuance + handshake;
        // the accept must have come back before the window opens.
        let mut off = Tracer::off();
        while world.flows.len() < warm_flows {
            let fresh: Vec<LegacyPacket> = (0..BURST.min(warm_flows - world.flows.len()))
                .map(|_| world.fresh_flow_packet())
                .collect();
            let out = world.trip(&mut off, &fresh, None);
            if out.delivered != fresh {
                return Err("warm-up datagrams were not delivered intact".to_string());
            }
        }
        if world.errors != 0 {
            return Err(format!("{} translate errors during warm-up", world.errors));
        }
        Ok(world)
    }

    fn now(&self) -> Timestamp {
        Timestamp((self.burst_no / BURSTS_PER_PROTOCOL_SEC) as u32)
    }

    fn payload(&mut self) -> Vec<u8> {
        // Pool bytes with a per-datagram stamp, so no two datagrams of a
        // run carry the same payload and a swapped delivery is caught.
        self.stamp = self.stamp.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut p = self.payloads[(self.stamp >> 32) as usize % PAYLOAD_POOL].clone();
        let n = p.len().min(8);
        p[..n].copy_from_slice(&self.stamp.to_le_bytes()[..n]);
        p
    }

    fn fresh_flow_packet(&mut self) -> LegacyPacket {
        let (src, port) = flow_endpoint(self.next_flow);
        self.next_flow = self.next_flow.wrapping_add(1);
        self.flows.push((src, port));
        let payload = self.payload();
        LegacyPacket::udp(src, port, self.pair.synth_ip, SERVICE_PORT, &payload)
    }

    /// The next burst of the window: round-robin over the established
    /// flows; slot 0 of every [`NEW_FLOW_EVERY`]-th burst is a fresh
    /// 5-tuple. Returns the burst and whether it opens a flow.
    fn next_burst(&mut self) -> (Vec<LegacyPacket>, bool) {
        let opens_flow = self.burst_no % NEW_FLOW_EVERY == NEW_FLOW_EVERY - 1;
        let mut pkts = Vec::with_capacity(BURST);
        if opens_flow {
            pkts.push(self.fresh_flow_packet());
        }
        while pkts.len() < BURST {
            let (src, port) = self.flows[self.next_warm % self.warm_flows];
            self.next_warm += 1;
            let payload = self.payload();
            pkts.push(LegacyPacket::udp(
                src,
                port,
                self.pair.synth_ip,
                SERVICE_PORT,
                &payload,
            ));
        }
        (pkts, opens_flow)
    }

    /// One burst's trip. `fresh` marks slot 0 as a new flow whose
    /// set-up is timed from its `handle_legacy` call to the end of the
    /// pass that delivers it.
    fn trip(&mut self, tr: &mut Tracer, pkts: &[LegacyPacket], fresh: Option<usize>) -> TripOut {
        let id = self.burst_no;
        let now = self.now();
        let root = tr.begin("trip.burst", id);
        let outbound = tr.begin("gateway.outbound", id);
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(pkts.len());
        let mut fresh_t0 = None;
        for (i, pkt) in pkts.iter().enumerate() {
            let new_flow = (fresh == Some(i)).then(|| {
                fresh_t0 = Some(Instant::now());
                tr.begin("gateway.new_flow", id)
            });
            match self.pair.handle_legacy(pkt, &self.node, now) {
                Ok(out) => frames.extend(out.frames),
                Err(_) => self.errors += 1,
            }
            if let Some(span) = new_flow {
                tr.end(span, 1);
            }
        }
        tr.end(outbound, pkts.len());

        let mut delivered = Vec::with_capacity(pkts.len());
        let mut flow_setup_us = None;
        // The first pass carries the burst; a second one carries the
        // server side's accept back to the client side when the burst
        // opened a flow.
        while !frames.is_empty() {
            frames = self.carry(tr, id, now, frames, &mut delivered);
            if let (Some(t0), None) = (fresh_t0, flow_setup_us) {
                flow_setup_us = Some(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        tr.end(root, pkts.len());
        TripOut {
            delivered,
            flow_setup_us,
        }
    }

    /// Gateway → ring → border (egress, ingress) → ring → gateway, for
    /// one set of GRE frames. Returns the frames the gateway emitted in
    /// reaction (handshake accepts).
    fn carry(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        now: Timestamp,
        frames: Vec<Vec<u8>>,
        delivered: &mut Vec<LegacyPacket>,
    ) -> Vec<Vec<u8>> {
        let s = tr.begin("io.ring.send", id);
        let sent = self.gw_ring.send_burst(&frames).unwrap_or(0);
        tr.end(s, sent);
        let s = tr.begin("io.ring.recv", id);
        let rx = self.br_ring.recv_burst(4 * BURST).unwrap_or_default();
        tr.end(s, rx.len());

        let s = tr.begin("wire.decap", id);
        let apna: Vec<Vec<u8>> = rx
            .iter()
            .filter_map(|f| self.tunnel.parse(f).ok().map(<[u8]>::to_vec))
            .collect();
        tr.end(s, rx.len());
        self.errors += (frames.len() - apna.len()) as u64;

        let own = self.node.aid();
        let egress = self.border(tr, id, now, Direction::Egress, apna);
        let local: Vec<Vec<u8>> = egress
            .into_iter()
            .filter(|(_, v)| matches!(v, Verdict::ForwardInter { dst_aid } if *dst_aid == own))
            .map(|(f, _)| f)
            .collect();
        let ingress = self.border(tr, id, now, Direction::Ingress, local);
        let deliver: Vec<Vec<u8>> = ingress
            .into_iter()
            .filter(|(_, v)| matches!(v, Verdict::DeliverLocal { hid } if self.node.service_by_hid(*hid).is_none()))
            .map(|(f, _)| f)
            .collect();
        self.errors += (frames.len() - deliver.len()) as u64;

        let s = tr.begin("wire.encap", id);
        let back: Vec<Vec<u8>> = deliver
            .iter()
            .filter_map(|f| self.tunnel.emit(f).ok())
            .collect();
        tr.end(s, deliver.len());
        let s = tr.begin("io.ring.send", id);
        let sent = self.br_ring.send_burst(&back).unwrap_or(0);
        tr.end(s, sent);
        let s = tr.begin("io.ring.recv", id);
        let rx = self.gw_ring.recv_burst(4 * BURST).unwrap_or_default();
        tr.end(s, rx.len());

        let s = tr.begin("gateway.inbound", id);
        let mut reaction = Vec::new();
        for frame in &rx {
            match self.pair.handle_apna(frame, &self.node, now) {
                Ok(out) => {
                    delivered.extend(out.legacy);
                    reaction.extend(out.frames);
                }
                Err(_) => self.errors += 1,
            }
        }
        tr.end(s, rx.len());
        reaction
    }

    /// One direction of the border, the way `apna-border` runs a chunk:
    /// keep the bytes, build the batch, process it, pair bytes with
    /// verdicts.
    fn border(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        now: Timestamp,
        direction: Direction,
        frames: Vec<Vec<u8>>,
    ) -> Vec<(Vec<u8>, Verdict)> {
        let n = frames.len();
        let s = tr.begin("wire.batch_build", id);
        let kept = frames.clone();
        let mut batch = PacketBatch::from_packets(MODE, frames);
        tr.end(s, n);
        let s = tr.begin(
            match direction {
                Direction::Egress => "core.border.egress",
                Direction::Ingress => "core.border.ingress",
            },
            id,
        );
        let verdicts = self.router.process_batch(direction, &mut batch, now);
        tr.end(s, n);
        kept.into_iter().zip(verdicts.into_verdicts()).collect()
    }

    /// Jumps the synthetic clock past the rotation margin and runs one
    /// `refresh_expiring` under a span; returns how many EphIDs rotated.
    pub fn force_rotation(&mut self, tracer: &mut Tracer) -> Result<usize, String> {
        self.burst_no += 6 * BURSTS_PER_PROTOCOL_SEC;
        let span = tracer.begin("core.agent.refresh", self.burst_no);
        let rotated = self.pair.refresh_expiring(&self.node, self.now());
        let rotated = rotated.map_err(|e| format!("refresh_expiring: {e}"))?;
        tracer.end(span, rotated);
        Ok(rotated)
    }

    /// Runs the closed loop for `ctx.window`.
    pub fn run(&mut self, ctx: &Ctx, mut tracer: Tracer) -> Result<Window, String> {
        let mut w = Window::default();
        let meter = SelfMeter::start()?;
        let window_s = ctx.window.as_secs_f64();
        loop {
            let started = meter.elapsed_s();
            if started >= window_s {
                break;
            }
            let (pkts, opens_flow) = self.next_burst();
            let errors_before = self.errors;
            let out = self.trip(&mut tracer, &pkts, opens_flow.then_some(0));
            let done = meter.elapsed_s();
            self.burst_no += 1;

            let ok = out
                .delivered
                .iter()
                .zip(&pkts)
                .filter(|(got, want)| got == want)
                .count();
            w.attempted += pkts.len() as u64;
            w.failed += (pkts.len() - ok) as u64;
            w.payload_bytes += (ok * self.payload_len) as u64;
            if out.delivered.len() != pkts.len() || self.errors != errors_before {
                w.violations.push(format!(
                    "burst {}: {} of {} datagrams delivered, {} pipeline errors",
                    self.burst_no - 1,
                    out.delivered.len(),
                    pkts.len(),
                    self.errors - errors_before
                ));
            }
            w.samples.push(Sample {
                at: done,
                lat_us: (done - started) * 1e6,
                ops: ok as u32,
            });
            if let Some(us) = out.flow_setup_us {
                w.flow_setups_us.push(us);
            }

            // Rotation rides the synthetic clock, between bursts, like
            // the daemon's run loop does it between pumps.
            let s = tracer.begin("core.agent.refresh", self.burst_no);
            let rotated = self
                .pair
                .refresh_expiring(&self.node, self.now())
                .map_err(|e| format!("refresh_expiring: {e}"))?;
            tracer.end(s, rotated);
        }
        let (wall, cpu, rss) = meter.stop()?;
        w.timeline_s = wall;
        w.cpu = cpu;
        w.peak_rss_mb = rss;
        w.violations.truncate(8);
        w.count("gateway.ephids_owned", self.pair.ephid_count() as f64);
        w.count("gateway.flows", self.pair.flow_count() as f64);
        w.count("core.border.mean_burst", BURST as f64);
        w.count("core.hostinfo.hosts_per_burst", 2.0);
        w.tracer = tracer.enabled().then_some(tracer);
        Ok(w)
    }
}

struct TripOut {
    delivered: Vec<LegacyPacket>,
    flow_setup_us: Option<f64>,
}

/// Set-up (median of the repeats) of the trip world for `payload_len`.
pub fn setup(ctx: &Ctx, payload_len: usize) -> Result<(TripWorld, f64), String> {
    setup_median(|_| TripWorld::build(ctx.seed, payload_len, WARM_FLOWS))
}
