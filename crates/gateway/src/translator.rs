//! The APNA gateway of §VII-D: IPv4 ↔ APNA translation without touching
//! the host network stack.
//!
//! A gateway "has two roles: as an APNA host, it runs the protocols
//! described in §IV; and as a packet translator, it converts between
//! native IPv4 and APNA packets". Deployments pair gateways: one fronts
//! legacy clients, one fronts a legacy server. Per legacy flow
//! (5-tuple), the client-side gateway:
//!
//! 1. learns the destination's `AID:EphID` "by inspecting the DNS reply"
//!    (synthesizing a placeholder IPv4 when the record omits one, as
//!    §VII-D suggests for server privacy);
//! 2. uses "a different EphID for each new IPv4 flow";
//! 3. runs the §VII-A client–server handshake against the server
//!    gateway's published receive-only EphID, carrying the first legacy
//!    datagram as 0-RTT early data;
//! 4. tunnels everything over GRE/IPv4 to its APNA router (Fig. 9).
//!
//! The server-side gateway accepts handshakes on its receive-only EphID,
//! serves each client from a fresh data EphID, and reconstructs legacy
//! datagrams for the server.

use crate::handshake::{self, Frame};
use crate::legacy::{FiveTuple, LegacyPacket};
use apna_core::agent::{EphIdUsage, HostAgent};
use apna_core::control::ControlPlane;
use apna_core::directory::AsDirectory;
use apna_core::session::{
    client_connect, client_finish, server_accept_with_recv_ephid, PendingClient, SecureChannel,
};
use apna_core::time::Timestamp;
use apna_core::Error;
use apna_dns::DnsRecord;
use apna_wire::gre;
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::{EphIdBytes, HostAddr};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Where a learned destination lives.
#[derive(Clone)]
struct DnsMapping {
    record: DnsRecord,
}

/// Both states keep their bulk (handshake keys, the session's expanded
/// AEAD state) behind a box, so a bucket of the flow table — spare capacity
/// included — is 64 bytes, not the size of a `SecureChannel`. A data packet
/// pays one more dependent load after the table lookup; with the session
/// AEAD off the GHASH bit loop, the table's bulk, not that load, is what
/// the benchmark's trips register (EXPERIMENTS.md, PR 12).
enum FlowState {
    AwaitingAccept {
        pending: Box<PendingClient>,
        local_idx: usize,
        queued: Vec<LegacyPacket>,
    },
    Established {
        channel: Box<SecureChannel>,
        peer: HostAddr,
        local_idx: usize,
    },
}

/// Everything a gateway emits in reaction to one input.
#[derive(Default)]
pub struct GatewayOutput {
    /// GRE frames to hand to the APNA router.
    pub frames: Vec<Vec<u8>>,
    /// Legacy datagrams to deliver on the IPv4 side.
    pub legacy: Vec<LegacyPacket>,
}

/// An IPv4↔APNA gateway (§VII-D).
pub struct ApnaGateway {
    /// The gateway's APNA host agent (control + data plane).
    pub host: HostAgent,
    gateway_ip: Ipv4Addr,
    router_ip: Ipv4Addr,
    directory: AsDirectory,
    dns_map: std::collections::HashMap<Ipv4Addr, DnsMapping>,
    synth_ip_counter: u16,
    flows: std::collections::HashMap<FiveTuple, FlowState>,
    /// (peer EphID, our EphID) → flow key, for inbound demux.
    reverse: std::collections::HashMap<(EphIdBytes, EphIdBytes), FiveTuple>,
    /// Our EphID → flows whose hello left from it and whose accept is still
    /// out, oldest first (coarser-than-per-flow pools share an EphID across
    /// flows; their pending handshakes hold the same keys, so first come,
    /// first matched).
    awaiting: std::collections::HashMap<EphIdBytes, VecDeque<FiveTuple>>,
    /// Server role: index of our receive-only EphID, if listening.
    listener_idx: Option<usize>,
}

impl ApnaGateway {
    /// Wraps a bootstrapped APNA host as a gateway.
    #[must_use]
    pub fn new(
        host: HostAgent,
        gateway_ip: Ipv4Addr,
        router_ip: Ipv4Addr,
        directory: AsDirectory,
    ) -> ApnaGateway {
        ApnaGateway {
            host,
            gateway_ip,
            router_ip,
            directory,
            dns_map: std::collections::HashMap::new(),
            synth_ip_counter: 0,
            flows: std::collections::HashMap::new(),
            reverse: std::collections::HashMap::new(),
            awaiting: std::collections::HashMap::new(),
            listener_idx: None,
        }
    }

    /// Server role: acquire a receive-only EphID and return its certificate
    /// for DNS publication.
    pub fn listen(
        &mut self,
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<apna_core::cert::EphIdCert, Error> {
        let idx = self.host.acquire(cp, EphIdUsage::RECEIVE_ONLY, now)?;
        self.listener_idx = Some(idx);
        Ok(self.host.owned_ephid(idx).cert.clone())
    }

    /// Inspects a verified DNS record (the gateway "learns the IPv4 address
    /// and the AID:EphID of the server by inspecting the DNS reply").
    /// Returns the IPv4 address legacy clients should use — the record's
    /// own, or a synthesized placeholder from 198.18/15 (benchmarking
    /// space) when the operator removed it for privacy.
    pub fn learn_from_dns(
        &mut self,
        record: &DnsRecord,
        zone_vk: &apna_crypto::ed25519::VerifyingKey,
        now: Timestamp,
    ) -> Result<Ipv4Addr, Error> {
        record.verify(zone_vk, &self.directory, now)?;
        let ip = record.ipv4.unwrap_or_else(|| {
            self.synth_ip_counter += 1;
            Ipv4Addr::new(
                198,
                18,
                (self.synth_ip_counter >> 8) as u8,
                self.synth_ip_counter as u8,
            )
        });
        self.dns_map.insert(
            ip,
            DnsMapping {
                record: record.clone(),
            },
        );
        Ok(ip)
    }

    fn encapsulate(&mut self, src_idx: usize, dst: HostAddr, payload: &[u8]) -> Vec<u8> {
        let apna = self.host.build_raw_packet(src_idx, dst, payload);
        gre::encapsulate(self.gateway_ip, self.router_ip, &apna)
    }

    /// The Data frame carrying `pkt` over an established flow: its
    /// serialized form, sealed into the frame buffer piece by piece.
    fn data_frame(channel: &mut SecureChannel, pkt: &LegacyPacket) -> Vec<u8> {
        handshake::encode_data(channel, b"apna-gw", &[&pkt.header_bytes(), &pkt.payload])
    }

    /// Client-side: translate an outgoing legacy datagram. May emit zero
    /// frames (data queued behind a pending handshake) or one.
    pub fn outbound(
        &mut self,
        pkt: &LegacyPacket,
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<GatewayOutput, Error> {
        let key = self.canonical_key(pkt.tuple);
        let mut out = GatewayOutput::default();
        match self.flows.get_mut(&key) {
            None => {
                // New flow: handshake with 0-RTT early data.
                let mapping = self
                    .dns_map
                    .get(&pkt.tuple.dst)
                    .cloned()
                    .ok_or(Error::Session("no AID:EphID mapping for destination"))?;
                let local_idx =
                    self.host
                        .ephid_for(cp, pkt.tuple.flow_id(), pkt.tuple.dst_port, now)?;
                let owned = self.host.owned_ephid(local_idx);
                let (pending, hello) = client_connect(
                    &owned.keys,
                    &owned.cert,
                    &mapping.record.cert,
                    &self.directory,
                    now,
                    Some(&pkt.serialize()),
                )?;
                let dst = HostAddr::new(mapping.record.cert.aid, mapping.record.cert.ephid);
                let frame = self.encapsulate(local_idx, dst, &handshake::encode_hello(&hello));
                out.frames.push(frame);
                self.awaiting
                    .entry(owned.ephid())
                    .or_default()
                    .push_back(pkt.tuple);
                self.flows.insert(
                    pkt.tuple,
                    FlowState::AwaitingAccept {
                        pending: Box::new(pending),
                        local_idx,
                        queued: Vec::new(),
                    },
                );
            }
            Some(FlowState::AwaitingAccept { queued, .. }) => {
                queued.push(pkt.clone());
            }
            Some(FlowState::Established {
                channel,
                peer,
                local_idx,
            }) => {
                let data = Self::data_frame(channel, pkt);
                let (peer, idx) = (*peer, *local_idx);
                let frame = self.encapsulate(idx, peer, &data);
                out.frames.push(frame);
            }
        }
        Ok(out)
    }

    fn canonical_key(&self, tuple: FiveTuple) -> FiveTuple {
        if self.flows.contains_key(&tuple.reversed()) {
            tuple.reversed()
        } else {
            tuple
        }
    }

    /// Both sides: process a GRE frame arriving from the APNA router.
    pub fn inbound(
        &mut self,
        frame: &[u8],
        cp: &dyn ControlPlane,
        now: Timestamp,
    ) -> Result<GatewayOutput, Error> {
        let (_ip, apna_bytes) = gre::decapsulate(frame)?;
        let (header, payload) = self.host.receive_packet(apna_bytes)?;
        let mut out = GatewayOutput::default();
        match handshake::decode(payload)? {
            Frame::Hello(hello) => {
                // Server side: accept on the receive-only EphID.
                let recv_idx = self
                    .listener_idx
                    .ok_or(Error::Session("hello received but not listening"))?;
                let recv = self.host.owned_ephid(recv_idx);
                // Fresh serving EphID per client (§VII-A).
                let serve_idx = self.host.acquire(cp, EphIdUsage::DATA_SHORT, now)?;
                let serving = self.host.owned_ephid(serve_idx);
                let (channel, early, accept) = server_accept_with_recv_ephid(
                    &recv.keys,
                    recv.ephid(),
                    &serving.keys,
                    &serving.cert,
                    &hello,
                    &self.directory,
                    now,
                    b"",
                )?;
                let early = early.ok_or(Error::Session("gateway hello must carry early data"))?;
                let first = LegacyPacket::parse(&early)?;
                let peer = HostAddr::new(hello.client_cert.aid, hello.client_cert.ephid);
                self.flows.insert(
                    first.tuple,
                    FlowState::Established {
                        channel: Box::new(channel),
                        peer,
                        local_idx: serve_idx,
                    },
                );
                self.reverse
                    .insert((peer.ephid, serving.ephid()), first.tuple);
                out.legacy.push(first);
                let frame = self.encapsulate(serve_idx, peer, &handshake::encode_accept(&accept));
                out.frames.push(frame);
            }
            Frame::Accept(accept) => {
                // Client side: the flow awaiting this accept is the oldest
                // one whose hello left from the EphID the packet addresses.
                let key = match self.awaiting.entry(header.dst.ephid) {
                    Entry::Occupied(mut waiting) => {
                        let key = waiting.get_mut().pop_front();
                        if waiting.get().is_empty() {
                            waiting.remove();
                        }
                        key
                    }
                    Entry::Vacant(_) => None,
                }
                .ok_or(Error::Session("accept for unknown flow"))?;
                let Some(FlowState::AwaitingAccept {
                    pending,
                    local_idx,
                    queued,
                }) = self.flows.remove(&key)
                else {
                    // `awaiting` only ever names AwaitingAccept entries of
                    // `flows`; a typed error keeps the daemon path
                    // panic-free regardless.
                    return Err(Error::Session("accept flow vanished"));
                };
                let (mut channel, _first_response) =
                    client_finish(&pending, &accept, &self.directory, now)?;
                let peer = HostAddr::new(accept.serving_cert.aid, accept.serving_cert.ephid);
                self.reverse
                    .insert((peer.ephid, self.host.owned_ephid(local_idx).ephid()), key);
                // Flush anything queued behind the handshake.
                for pkt in queued {
                    let data = Self::data_frame(&mut channel, &pkt);
                    let frame = self.encapsulate(local_idx, peer, &data);
                    out.frames.push(frame);
                }
                self.flows.insert(
                    key,
                    FlowState::Established {
                        channel: Box::new(channel),
                        peer,
                        local_idx,
                    },
                );
            }
            Frame::Data(mut sealed) => {
                let key = *self
                    .reverse
                    .get(&(header.src.ephid, header.dst.ephid))
                    .ok_or(Error::Session("data for unknown flow"))?;
                let Some(FlowState::Established { channel, .. }) = self.flows.get_mut(&key) else {
                    return Err(Error::Session("flow not established"));
                };
                let inner = channel.open_in_place(b"apna-gw", &mut sealed)?;
                out.legacy.push(LegacyPacket::parse(inner)?);
            }
        }
        Ok(out)
    }

    /// Number of tracked flows (diagnostics).
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_core::asnode::AsNode;
    use apna_core::granularity::Granularity;
    use apna_crypto::ed25519::SigningKey;
    use apna_dns::DnsServer;
    use apna_wire::{Aid, ReplayMode};

    /// Client gateway in AS 1, server gateway in AS 2, DNS, one legacy
    /// client and one legacy server.
    struct World {
        a: AsNode,
        b: AsNode,
        dir: AsDirectory,
        gw_client: ApnaGateway,
        gw_server: ApnaGateway,
        dns: DnsServer,
        server_name_ip: Ipv4Addr,
    }

    fn world(publish_ip: bool) -> World {
        world_with(publish_ip, Granularity::PerFlow)
    }

    fn world_with(publish_ip: bool, client_granularity: Granularity) -> World {
        let dir = AsDirectory::new();
        let a = AsNode::from_seed(Aid(1), [1; 32], &dir, Timestamp(0));
        let b = AsNode::from_seed(Aid(2), [2; 32], &dir, Timestamp(0));
        let host_a = HostAgent::attach(
            &a,
            client_granularity,
            ReplayMode::Disabled,
            Timestamp(0),
            100,
        )
        .unwrap();
        let host_b = HostAgent::attach(
            &b,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp(0),
            101,
        )
        .unwrap();
        let mut gw_client = ApnaGateway::new(
            host_a,
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 254),
            dir.clone(),
        );
        let mut gw_server = ApnaGateway::new(
            host_b,
            Ipv4Addr::new(10, 2, 0, 1),
            Ipv4Addr::new(10, 2, 0, 254),
            dir.clone(),
        );
        // Server gateway publishes its receive-only cert in DNS.
        let dns = DnsServer::new(SigningKey::from_seed(&[0xD0; 32]));
        let recv_cert = gw_server.listen(&b, Timestamp(0)).unwrap();
        let real_ip = publish_ip.then(|| Ipv4Addr::new(203, 0, 113, 80));
        dns.register("server.example", recv_cert, real_ip);
        // Client gateway resolves + learns.
        let rec = dns.resolve("server.example").unwrap();
        let ip = gw_client
            .learn_from_dns(&rec, &dns.zone_verifying_key(), Timestamp(0))
            .unwrap();
        World {
            a,
            b,
            dir,
            gw_client,
            gw_server,
            dns,
            server_name_ip: ip,
        }
    }

    /// Shoves a GRE frame through both border routers (source egress,
    /// destination ingress), panicking if either drops it.
    fn relay(_w: &World, frame: &[u8], from: &AsNode, to: &AsNode) -> Vec<u8> {
        let (_ip, apna) = gre::decapsulate(frame).unwrap();
        let v1 = from
            .br
            .process_outgoing(apna, ReplayMode::Disabled, Timestamp(1));
        assert!(v1.is_forward(), "egress dropped: {v1:?}");
        let v2 = to
            .br
            .process_incoming(apna, ReplayMode::Disabled, Timestamp(1));
        assert!(v2.is_forward(), "ingress dropped: {v2:?}");
        // Re-encapsulate toward the far gateway.
        gre::encapsulate(Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(8, 8, 8, 8), apna)
    }

    #[test]
    fn full_legacy_roundtrip() {
        let mut w = world(true);
        let client_ip = Ipv4Addr::new(192, 168, 1, 10);

        // Legacy client sends a datagram to the server's published IP.
        let request = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"GET /index");
        let out = w.gw_client.outbound(&request, &w.a, Timestamp(1)).unwrap();
        assert_eq!(out.frames.len(), 1);

        // → server gateway.
        let f = relay(&w, &out.frames[0], &w.a, &w.b);
        let sout = w.gw_server.inbound(&f, &w.b, Timestamp(1)).unwrap();
        // Early data delivered to the legacy server.
        assert_eq!(sout.legacy.len(), 1);
        assert_eq!(sout.legacy[0].payload, b"GET /index");
        assert_eq!(sout.frames.len(), 1); // the accept

        // ← client gateway finishes the handshake.
        let f2 = relay(&w, &sout.frames[0], &w.b, &w.a);
        let cout = w.gw_client.inbound(&f2, &w.a, Timestamp(1)).unwrap();
        assert!(cout.legacy.is_empty());

        // Server responds on the (now established) flow.
        let response = LegacyPacket::udp(w.server_name_ip, 80, client_ip, 40000, b"200 OK");
        // The server gateway keys flows by the client's original tuple.
        let sresp = w.gw_server.outbound(&response, &w.b, Timestamp(1)).unwrap();
        assert_eq!(sresp_len(&sresp), 1);
        let f3 = relay(&w, &sresp.frames[0], &w.b, &w.a);
        let cfinal = w.gw_client.inbound(&f3, &w.a, Timestamp(1)).unwrap();
        assert_eq!(cfinal.legacy.len(), 1);
        assert_eq!(cfinal.legacy[0].payload, b"200 OK");

        // And steady-state client→server data flows without handshakes.
        let next = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"POST /x");
        let out2 = w.gw_client.outbound(&next, &w.a, Timestamp(2)).unwrap();
        assert_eq!(out2.frames.len(), 1);
        let f4 = relay(&w, &out2.frames[0], &w.a, &w.b);
        let sout2 = w.gw_server.inbound(&f4, &w.b, Timestamp(2)).unwrap();
        assert_eq!(sout2.legacy.len(), 1);
        assert_eq!(sout2.legacy[0].payload, b"POST /x");
    }

    fn sresp_len(out: &GatewayOutput) -> usize {
        out.frames.len()
    }

    #[test]
    fn synthesized_ip_when_record_hides_address() {
        // §VII-D: "the IPv4 address can be removed from the DNS record …
        // the gateway generates and appends a random IPv4 address".
        let w = world(false);
        assert_eq!(w.server_name_ip.0[0], 198);
        assert_eq!(w.server_name_ip.0[1], 18);
    }

    #[test]
    fn queued_packets_flush_after_accept() {
        let mut w = world(true);
        let client_ip = Ipv4Addr::new(192, 168, 1, 10);
        let p1 = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"first");
        let p2 = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"second");
        let p3 = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"third");

        let o1 = w.gw_client.outbound(&p1, &w.a, Timestamp(1)).unwrap();
        // p2/p3 arrive while the handshake is in flight: queued.
        assert!(w
            .gw_client
            .outbound(&p2, &w.a, Timestamp(1))
            .unwrap()
            .frames
            .is_empty());
        assert!(w
            .gw_client
            .outbound(&p3, &w.a, Timestamp(1))
            .unwrap()
            .frames
            .is_empty());

        let f = relay(&w, &o1.frames[0], &w.a, &w.b);
        let sout = w.gw_server.inbound(&f, &w.b, Timestamp(1)).unwrap();
        let f2 = relay(&w, &sout.frames[0], &w.b, &w.a);
        let cout = w.gw_client.inbound(&f2, &w.a, Timestamp(1)).unwrap();
        // The two queued datagrams flush as data frames.
        assert_eq!(cout.frames.len(), 2);
        let mut seen = Vec::new();
        for frame in &cout.frames {
            let f = relay(&w, frame, &w.a, &w.b);
            let s = w.gw_server.inbound(&f, &w.b, Timestamp(1)).unwrap();
            seen.extend(s.legacy.into_iter().map(|p| p.payload));
        }
        assert_eq!(seen, vec![b"second".to_vec(), b"third".to_vec()]);
    }

    #[test]
    fn concurrent_handshakes_from_one_shared_ephid_both_complete() {
        // Per-host pooling: both flows' hellos leave from the same EphID,
        // so both accepts address it; each must finish one pending flow.
        let mut w = world_with(true, Granularity::PerHost);
        let client_ip = Ipv4Addr::new(192, 168, 1, 10);
        let p1 = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"one");
        let p2 = LegacyPacket::udp(client_ip, 40001, w.server_name_ip, 80, b"two");
        let o1 = w.gw_client.outbound(&p1, &w.a, Timestamp(1)).unwrap();
        let o2 = w.gw_client.outbound(&p2, &w.a, Timestamp(1)).unwrap();
        let mut accepts = Vec::new();
        for hello in [&o1.frames[0], &o2.frames[0]] {
            let f = relay(&w, hello, &w.a, &w.b);
            let s = w.gw_server.inbound(&f, &w.b, Timestamp(1)).unwrap();
            accepts.push(s.frames[0].clone());
        }
        for accept in &accepts {
            let f = relay(&w, accept, &w.b, &w.a);
            w.gw_client.inbound(&f, &w.a, Timestamp(1)).unwrap();
        }
        // A third accept has no flow left to finish.
        let f = relay(&w, &accepts[0], &w.b, &w.a);
        assert!(w.gw_client.inbound(&f, &w.a, Timestamp(1)).is_err());
        // Both flows carry data now.
        for (pkt, body) in [(&p1, &b"one"[..]), (&p2, &b"two"[..])] {
            let out = w.gw_client.outbound(pkt, &w.a, Timestamp(2)).unwrap();
            assert_eq!(out.frames.len(), 1);
            let f = relay(&w, &out.frames[0], &w.a, &w.b);
            let s = w.gw_server.inbound(&f, &w.b, Timestamp(2)).unwrap();
            assert_eq!(s.legacy[0].payload, body);
            assert_eq!(s.legacy[0].tuple, pkt.tuple);
        }
    }

    #[test]
    fn distinct_flows_use_distinct_ephids() {
        // "the gateway uses a different EphID for each new IPv4 flow".
        let mut w = world(true);
        let client_ip = Ipv4Addr::new(192, 168, 1, 10);
        let before = w.gw_client.host.ephid_count();
        let p1 = LegacyPacket::udp(client_ip, 40000, w.server_name_ip, 80, b"a");
        let p2 = LegacyPacket::udp(client_ip, 40001, w.server_name_ip, 80, b"b");
        w.gw_client.outbound(&p1, &w.a, Timestamp(1)).unwrap();
        w.gw_client.outbound(&p2, &w.a, Timestamp(1)).unwrap();
        assert_eq!(w.gw_client.host.ephid_count(), before + 2);
        assert_eq!(w.gw_client.flow_count(), 2);
    }

    #[test]
    fn unknown_destination_rejected() {
        let mut w = world(true);
        let pkt = LegacyPacket::udp(
            Ipv4Addr::new(192, 168, 1, 10),
            1,
            Ipv4Addr::new(203, 0, 113, 99), // never learned
            80,
            b"?",
        );
        assert!(w.gw_client.outbound(&pkt, &w.a, Timestamp(1)).is_err());
    }

    #[test]
    fn poisoned_dns_record_refused_by_gateway() {
        let mut w = world(true);
        // Poison with a record signed by a rogue zone key.
        let rogue_zone = SigningKey::from_seed(&[0xBB; 32]);
        let rec = w.dns.resolve("server.example").unwrap();
        let rogue = DnsServer::new(rogue_zone);
        rogue.register("server.example", rec.cert.clone(), rec.ipv4);
        let poisoned = rogue.resolve("server.example").unwrap();
        assert!(w
            .gw_client
            .learn_from_dns(&poisoned, &w.dns.zone_verifying_key(), Timestamp(1))
            .is_err());
        // Sanity: the genuine record still verifies.
        assert!(w
            .gw_client
            .learn_from_dns(&rec, &w.dns.zone_verifying_key(), Timestamp(1))
            .is_ok());
        let _ = &w.dir;
    }
}
