//! Daemon-mode translator: the long-lived core of `apna-gateway`.
//!
//! A deployed translator site runs a *pair* of gateways (§VII-D): one
//! fronting the legacy clients, one fronting the legacy server, with the
//! server side publishing a receive-only EphID through DNS and the client
//! side synthesizing a placeholder IPv4 for it. [`TranslatorPair`]
//! packages that bootstrap plus the daemon's burst logic, with no socket
//! and no clock: [`TranslatorPair::step`] runs a burst that arrived on one
//! [`Port`] and [`TranslatorPair::tick`] rotates EphIDs, both counting
//! failures and control traffic. Under them sit the uncounted entry
//! points the in-process benchmark drives directly:
//!
//! * [`TranslatorPair::handle_legacy`] — an IPv4 datagram arrived on the
//!   legacy side; route it to whichever gateway fronts its sender.
//! * [`TranslatorPair::handle_apna`] — a GRE frame arrived from the
//!   border router; demultiplex by destination EphID ownership.
//! * [`TranslatorPair::refresh_expiring`] — rotate EphIDs near expiry.
//!
//! Everything here is deterministic given the AS node and the config
//! seeds, which is what lets the border daemon in another process
//! validate this daemon's traffic without any bootstrap protocol between
//! them (see `apna_core::deploy`).

use crate::legacy::LegacyPacket;
use crate::translator::{ApnaGateway, GatewayOutput};
use apna_core::agent::HostAgent;
use apna_core::asnode::AsNode;
use apna_core::control::{ControlCounters, ControlKind, ControlMsg, ControlPlane};
use apna_core::directory::AsDirectory;
use apna_core::granularity::Granularity;
use apna_core::time::Timestamp;
use apna_core::Error;
use apna_crypto::ed25519::SigningKey;
use apna_dns::DnsServer;
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::{gre, ApnaHeader, ReplayMode};
use std::cell::Cell;

/// Bootstrap parameters for a [`TranslatorPair`], one field per daemon
/// config key (see the `apna-gateway` binary).
#[derive(Debug, Clone)]
pub struct PairConfig {
    /// GRE source address of both gateways (Fig. 9 outer header).
    pub gateway_ip: Ipv4Addr,
    /// GRE destination address: the border router's tunnel endpoint.
    pub router_ip: Ipv4Addr,
    /// Host-bootstrap seed of the client-side gateway. The border daemon
    /// must mirror these two seeds, in this order.
    pub client_seed: u64,
    /// Host-bootstrap seed of the server-side gateway.
    pub server_seed: u64,
    /// EphID pool policy of the client side (§VIII-A).
    pub granularity: Granularity,
    /// Header replay mode both sides run.
    pub replay_mode: ReplayMode,
    /// EphID rotation margin (seconds before expiry at which refresh
    /// kicks in); `None` keeps the agent default.
    pub refresh_margin_secs: Option<u32>,
    /// DNS name the server side publishes its receive-only EphID under.
    pub service_name: String,
    /// Seed of the local DNS zone's signing key.
    pub dns_zone_seed: [u8; 32],
}

impl PairConfig {
    /// A config with the demo defaults, ready for field overrides.
    #[must_use]
    pub fn new(client_seed: u64, server_seed: u64) -> PairConfig {
        PairConfig {
            gateway_ip: Ipv4Addr::new(10, 0, 0, 1),
            router_ip: Ipv4Addr::new(10, 0, 0, 254),
            client_seed,
            server_seed,
            granularity: Granularity::PerFlow,
            replay_mode: ReplayMode::Disabled,
            refresh_margin_secs: None,
            service_name: "legacy-app.example".to_string(),
            dns_zone_seed: [0xDD; 32],
        }
    }
}

/// The two sockets of the translator daemon; `Port::X as usize` indexes
/// [`TranslatorPair::step`]'s output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// GRE frames to and from the border router.
    Apna,
    /// Serialized [`LegacyPacket`]s to and from the legacy endpoints.
    Legacy,
}

/// The client-side + server-side gateway pair one translator daemon runs.
pub struct TranslatorPair {
    /// Gateway fronting the legacy clients.
    pub client: ApnaGateway,
    /// Gateway fronting the legacy server (listens on a receive-only
    /// EphID published through DNS).
    pub server: ApnaGateway,
    /// The placeholder IPv4 the client side synthesized for the service
    /// (its real address is withheld from DNS, §VII-D privacy variant).
    pub synth_ip: Ipv4Addr,
    replay_mode: ReplayMode,
    /// Legacy datagrams that failed to route to either gateway.
    pub unroutable: u64,
    /// EphIDs [`TranslatorPair::tick`] rotated.
    pub rotated: u64,
    /// Legacy-port datagrams [`TranslatorPair::step`] could not parse.
    pub legacy_parse_errors: u64,
    /// Parsed datagrams and frames [`TranslatorPair::step`] could not
    /// translate (unroutable ones included).
    pub translate_errors: u64,
    /// [`TranslatorPair::tick`]s whose rotation failed.
    pub refresh_errors: u64,
    /// Control requests and replies of `bootstrap`, `step` and `tick`,
    /// per kind.
    pub control: ControlCounters,
}

impl TranslatorPair {
    /// Bootstraps the pair against `node`: attaches both gateway hosts
    /// (client first — the border daemon mirrors this order), stands up
    /// the server listener, publishes it in a local DNS zone, and teaches
    /// the client side the synthesized service address.
    ///
    /// The listener's EphID acquisition through `cp` is tallied in
    /// [`TranslatorPair::control`].
    pub fn bootstrap(
        node: &AsNode,
        cp: &dyn ControlPlane,
        directory: &AsDirectory,
        cfg: &PairConfig,
        now: Timestamp,
    ) -> Result<TranslatorPair, Error> {
        let mut client_agent =
            HostAgent::attach(node, cfg.granularity, cfg.replay_mode, now, cfg.client_seed)?;
        let mut server_agent = HostAgent::attach(
            node,
            // The server side hands each accepted client a fresh data
            // EphID regardless of policy; per-flow matches that shape.
            Granularity::PerFlow,
            cfg.replay_mode,
            now,
            cfg.server_seed,
        )?;
        if let Some(margin) = cfg.refresh_margin_secs {
            client_agent.set_refresh_margin(margin);
            server_agent.set_refresh_margin(margin);
        }

        let mut client = ApnaGateway::new(
            client_agent,
            cfg.gateway_ip,
            cfg.router_ip,
            directory.clone(),
        );
        let mut server = ApnaGateway::new(
            server_agent,
            cfg.gateway_ip,
            cfg.router_ip,
            directory.clone(),
        );

        let dns = DnsServer::new(SigningKey::from_seed(&cfg.dns_zone_seed));
        let cp = Tallied::new(cp, ControlCounters::default());
        let recv_cert = server.listen(&cp, now)?;
        dns.register(&cfg.service_name, recv_cert, None);
        let record = dns
            .resolve(&cfg.service_name)
            .ok_or(Error::Session("service name vanished from local DNS zone"))?;
        let synth_ip = client.learn_from_dns(&record, &dns.zone_verifying_key(), now)?;

        Ok(TranslatorPair {
            client,
            server,
            synth_ip,
            replay_mode: cfg.replay_mode,
            unroutable: 0,
            rotated: 0,
            legacy_parse_errors: 0,
            translate_errors: 0,
            refresh_errors: 0,
            control: cp.control.get(),
        })
    }

    /// Runs one burst received on `port` at `now`: legacy datagrams are
    /// parsed and routed by [`TranslatorPair::handle_legacy`], GRE frames
    /// by [`TranslatorPair::handle_apna`]. Returns the frames to send on
    /// each port, indexed by [`Port`], in translation order. Failures are
    /// counted, never returned.
    pub fn step(
        &mut self,
        now: Timestamp,
        cp: &dyn ControlPlane,
        port: Port,
        frames: Vec<Vec<u8>>,
    ) -> [Vec<Vec<u8>>; 2] {
        let cp = Tallied::new(cp, self.control);
        let (mut apna, mut legacy) = (Vec::new(), Vec::new());
        for frame in frames {
            let translated = match port {
                Port::Apna => self.handle_apna(&frame, &cp, now),
                Port::Legacy => match LegacyPacket::parse(&frame) {
                    Ok(pkt) => self.handle_legacy(&pkt, &cp, now),
                    Err(_) => {
                        self.legacy_parse_errors += 1;
                        continue;
                    }
                },
            };
            match translated {
                Ok(out) => {
                    apna.extend(out.frames);
                    legacy.extend(out.legacy.iter().map(LegacyPacket::serialize));
                }
                Err(_) => self.translate_errors += 1,
            }
        }
        self.control = cp.control.get();
        [apna, legacy]
    }

    /// The daemon's once-per-pass upkeep at `now`: rotates EphIDs near
    /// expiry through [`TranslatorPair::refresh_expiring`], counting the
    /// rotations or the failure.
    pub fn tick(&mut self, now: Timestamp, cp: &dyn ControlPlane) {
        let cp = Tallied::new(cp, self.control);
        match self.refresh_expiring(&cp, now) {
            Ok(n) => self.rotated += n as u64,
            Err(_) => self.refresh_errors += 1,
        }
        self.control = cp.control.get();
    }

    /// Routes one legacy datagram to the gateway fronting its sender:
    /// traffic *to* the synthesized service address is client-originated;
    /// traffic *from* it is the server responding.
    pub fn handle_legacy(
        &mut self,
        pkt: &LegacyPacket,
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<GatewayOutput, Error> {
        if pkt.tuple.dst == self.synth_ip {
            self.client.outbound(pkt, cp, now)
        } else if pkt.tuple.src == self.synth_ip {
            self.server.outbound(pkt, cp, now)
        } else {
            self.unroutable += 1;
            Err(Error::Session("legacy datagram matches neither gateway"))
        }
    }

    /// Demultiplexes one GRE frame from the border router to the gateway
    /// owning its destination EphID.
    pub fn handle_apna(
        &mut self,
        frame: &[u8],
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<GatewayOutput, Error> {
        let (_ip, apna) = gre::decapsulate(frame)?;
        let (header, _payload) = ApnaHeader::parse(apna, self.replay_mode)?;
        if self.client.host.owned_index_of(header.dst.ephid).is_some() {
            self.client.inbound(frame, cp, now)
        } else if self.server.host.owned_index_of(header.dst.ephid).is_some() {
            self.server.inbound(frame, cp, now)
        } else {
            Err(Error::Session("destination EphID owned by neither gateway"))
        }
    }

    /// Rotates EphIDs approaching expiry on both sides (the daemon calls
    /// this every run-loop tick; it is a no-op while nothing is close to
    /// its rotation margin).
    pub fn refresh_expiring(
        &mut self,
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let a = self.client.host.refresh_expiring(cp, now)?;
        let b = self.server.host.refresh_expiring(cp, now)?;
        Ok(a + b)
    }

    /// Active legacy flows across both gateways.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.client.flow_count() + self.server.flow_count()
    }

    /// EphIDs owned across both gateways.
    #[must_use]
    pub fn ephid_count(&self) -> usize {
        self.client.host.ephid_count() + self.server.host.ephid_count()
    }

    /// Seeds of the demo defaults, exported so the border daemon's config
    /// generator and the tests agree on the mirror order.
    #[must_use]
    pub fn host_seeds(cfg: &PairConfig) -> [u64; 2] {
        [cfg.client_seed, cfg.server_seed]
    }
}

/// A control plane that tallies each request and reply crossing it into
/// `control`: how the pair counts the control traffic it causes.
struct Tallied<'a> {
    cp: &'a dyn ControlPlane,
    control: Cell<ControlCounters>,
}

impl<'a> Tallied<'a> {
    fn new(cp: &'a dyn ControlPlane, control: ControlCounters) -> Tallied<'a> {
        Tallied {
            cp,
            control: Cell::new(control),
        }
    }

    fn record(&self, kind: ControlKind) {
        let mut control = self.control.get();
        control.record(kind);
        self.control.set(control);
    }

    fn record_frame(&self, frame: &[u8]) {
        if let Ok(msg) = ControlMsg::parse(frame) {
            self.record(msg.kind());
        }
    }
}

impl ControlPlane for Tallied<'_> {
    fn handle_control(
        &self,
        msg: &ControlMsg,
        now: Timestamp,
    ) -> Result<Option<ControlMsg>, Error> {
        self.record(msg.kind());
        let reply = self.cp.handle_control(msg, now)?;
        if let Some(r) = &reply {
            self.record(r.kind());
        }
        Ok(reply)
    }

    /// Hands the whole burst to the inner plane's batched path, tallying
    /// every parseable request and reply frame around it.
    fn handle_control_batch(
        &self,
        frames: &[&[u8]],
        now: Timestamp,
    ) -> Vec<Result<Option<Vec<u8>>, Error>> {
        for frame in frames {
            self.record_frame(frame);
        }
        let results = self.cp.handle_control_batch(frames, now);
        for reply in results.iter().flatten().flatten() {
            self.record_frame(reply);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_core::deploy::BorderCore;
    use apna_core::host::Host;
    use apna_wire::Aid;

    /// GRE-wraps APNA survivors back toward the gateway (what the border
    /// daemon's Tunnel-framing backend does on send).
    fn re_encap(cfg: &PairConfig, apna_frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
        apna_frames
            .iter()
            .map(|f| gre::encapsulate(cfg.router_ip, cfg.gateway_ip, f))
            .collect()
    }

    /// The full daemon data path in one process: legacy request →
    /// client gateway → border hairpin → server gateway → legacy
    /// delivery, then the response back the other way.
    #[test]
    fn translator_pair_end_to_end_over_border_hairpin() {
        let now = Timestamp::EPOCH;
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(Aid(5), [5u8; 32], &dir, now);
        let cfg = PairConfig::new(101, 202);
        let mut pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now).unwrap();
        // The border owns the node the pair bootstrapped against; the pair
        // reaches it through the border.
        let router = node.br.clone();
        let mut border = BorderCore::new(node, router, cfg.replay_mode, 1, 0);

        let client_ip = Ipv4Addr::new(192, 168, 1, 23);
        let request = LegacyPacket::udp(client_ip, 53123, pair.synth_ip, 7777, b"daemon ping");

        // Client gateway → border (strip GRE like the Tunnel backend).
        let out = pair.handle_legacy(&request, &border.node, now).unwrap();
        assert_eq!(out.frames.len(), 1);
        let apna: Vec<Vec<u8>> = out
            .frames
            .iter()
            .map(|f| gre::decapsulate(f).unwrap().1.to_vec())
            .collect();
        let delivered = border.step(now, apna);
        assert_eq!(delivered.len(), 1, "border dropped the handshake frame");

        // Border → server gateway: the request pops out on the legacy
        // side, and the accept frame heads back.
        let mut legacy_out = Vec::new();
        let mut return_frames = Vec::new();
        for f in re_encap(&cfg, &delivered) {
            let o = pair.handle_apna(&f, &border.node, now).unwrap();
            legacy_out.extend(o.legacy);
            return_frames.extend(o.frames);
        }
        assert_eq!(legacy_out.len(), 1);
        assert_eq!(legacy_out[0].payload, b"daemon ping");
        assert_eq!(return_frames.len(), 1, "no accept frame");

        // Accept rides back through the border to the client gateway.
        let apna_back: Vec<Vec<u8>> = return_frames
            .iter()
            .map(|f| gre::decapsulate(f).unwrap().1.to_vec())
            .collect();
        let back = border.step(now, apna_back);
        assert_eq!(back.len(), 1);
        for f in re_encap(&cfg, &back) {
            pair.handle_apna(&f, &border.node, now).unwrap();
        }

        // Server responds; the response crosses and reaches the client.
        let response = LegacyPacket::udp(pair.synth_ip, 7777, client_ip, 53123, b"daemon pong");
        let resp_out = pair.handle_legacy(&response, &border.node, now).unwrap();
        let resp_apna: Vec<Vec<u8>> = resp_out
            .frames
            .iter()
            .map(|f| gre::decapsulate(f).unwrap().1.to_vec())
            .collect();
        let resp_delivered = border.step(now, resp_apna);
        assert_eq!(resp_delivered.len(), 1);
        let mut final_legacy = Vec::new();
        for f in re_encap(&cfg, &resp_delivered) {
            let o = pair.handle_apna(&f, &border.node, now).unwrap();
            final_legacy.extend(o.legacy);
        }
        assert_eq!(final_legacy.len(), 1);
        assert_eq!(final_legacy[0].payload, b"daemon pong");
        assert!(pair.flow_count() >= 2);
    }

    /// A *separately constructed* AS node (same seed, mirrored attaches)
    /// validates the pair's traffic — the two-daemon topology's crux.
    #[test]
    fn mirrored_border_node_validates_pair_traffic() {
        let now = Timestamp::EPOCH;
        let seed = [7u8; 32];
        let dir_gw = AsDirectory::new();
        let node_gw = AsNode::from_seed(Aid(9), seed, &dir_gw, now);
        let cfg = PairConfig::new(11, 22);
        let mut pair = TranslatorPair::bootstrap(&node_gw, &node_gw, &dir_gw, &cfg, now).unwrap();

        // Border process: same seed, mirrored host bootstraps, no
        // knowledge of any EphID the pair acquired afterwards.
        let dir_br = AsDirectory::new();
        let node_br = AsNode::from_seed(Aid(9), seed, &dir_br, now);
        for host_seed in TranslatorPair::host_seeds(&cfg) {
            Host::attach(&node_br, cfg.replay_mode, now, host_seed).unwrap();
        }

        let request = LegacyPacket::udp(
            Ipv4Addr::new(192, 168, 1, 50),
            40000,
            pair.synth_ip,
            7777,
            b"cross-process",
        );
        let out = pair.handle_legacy(&request, &node_gw, now).unwrap();
        let apna: Vec<Vec<u8>> = out
            .frames
            .iter()
            .map(|f| gre::decapsulate(f).unwrap().1.to_vec())
            .collect();
        let router = node_br.br.clone();
        let mut border = BorderCore::new(node_br, router, cfg.replay_mode, 1, 0);
        let delivered = border.step(now, apna);
        assert_eq!(delivered.len(), 1, "mirrored border rejected the frame");
    }

    #[test]
    fn unroutable_legacy_datagram_is_counted() {
        let now = Timestamp::EPOCH;
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(Aid(3), [3u8; 32], &dir, now);
        let cfg = PairConfig::new(1, 2);
        let mut pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now).unwrap();
        let stray = LegacyPacket::udp(
            Ipv4Addr::new(203, 0, 113, 1),
            1,
            Ipv4Addr::new(203, 0, 113, 2),
            2,
            b"stray",
        );
        assert!(pair.handle_legacy(&stray, &node, now).is_err());
        assert_eq!(pair.unroutable, 1);
    }

    /// The pair tallies every control request and reply it causes: the
    /// listener's acquisition at bootstrap, then the client side's flow
    /// EphID when `step` opens a flow.
    #[test]
    fn pair_tallies_control_roundtrips() {
        use apna_core::control::ControlKind;
        let now = Timestamp::EPOCH;
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(Aid(9), [9u8; 32], &dir, now);
        let cfg = PairConfig::new(1, 2);
        let mut pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now).unwrap();
        let counts = |pair: &TranslatorPair| {
            [ControlKind::EphIdRequest, ControlKind::EphIdReply].map(|k| pair.control.count(k))
        };
        assert_eq!(counts(&pair), [1, 1]);
        let request = LegacyPacket::udp(Ipv4Addr::new(192, 168, 1, 9), 9, pair.synth_ip, 7, b"x");
        let [apna, legacy] = pair.step(now, &node, Port::Legacy, vec![request.serialize()]);
        assert_eq!((apna.len(), legacy.len()), (1, 0));
        assert_eq!(counts(&pair), [2, 2]);
        assert_eq!(pair.control.total(), 4);
    }

    #[test]
    fn synth_ip_is_deterministic() {
        let now = Timestamp::EPOCH;
        let dir = AsDirectory::new();
        let node = AsNode::from_seed(Aid(4), [4u8; 32], &dir, now);
        let cfg = PairConfig::new(1, 2);
        let pair = TranslatorPair::bootstrap(&node, &node, &dir, &cfg, now).unwrap();
        // The demo driver hard-codes this placeholder; it must never move.
        assert_eq!(pair.synth_ip, Ipv4Addr::new(198, 18, 0, 1));
        // Only the server's receive-only listener exists pre-traffic.
        assert_eq!(pair.ephid_count(), 1);
    }
}
