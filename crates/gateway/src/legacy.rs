//! Legacy IPv4 datagrams and flow identification.
//!
//! The gateway translates between "native IPv4 packets" and APNA packets
//! (§VII-D). For the reproduction, the legacy side is a UDP-like datagram:
//! a standard 20-byte IPv4 header (protocol 17) followed by source and
//! destination ports, then payload. Flows are "identified by the standard
//! 5-tuple".

use apna_wire::ipv4::{Ipv4Addr, Ipv4Header, IPV4_HEADER_LEN};
use apna_wire::WireError;

/// IP protocol number used for the legacy datagrams (UDP).
pub const PROTO_UDP: u8 = 17;
/// Bytes in front of a legacy datagram's payload: IPv4 header + ports.
pub const LEGACY_HEADER_LEN: usize = IPV4_HEADER_LEN + 4;

/// The classic 5-tuple identifying a legacy flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol.
    pub proto: u8,
}

impl FiveTuple {
    /// The reverse direction of this flow.
    #[must_use]
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A stable 64-bit flow id (feeds the per-flow EphID pool).
    #[must_use]
    pub fn flow_id(&self) -> u64 {
        // FNV-1a over the canonical byte form: deterministic across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in self
            .src
            .0
            .iter()
            .chain(self.dst.0.iter())
            .copied()
            .chain(self.src_port.to_be_bytes())
            .chain(self.dst_port.to_be_bytes())
            .chain([self.proto])
        {
            eat(b);
        }
        h
    }
}

/// A legacy datagram as produced/consumed by an unmodified IPv4 host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegacyPacket {
    /// Flow endpoints.
    pub tuple: FiveTuple,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl LegacyPacket {
    /// Builds a UDP datagram.
    #[must_use]
    pub fn udp(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) -> LegacyPacket {
        LegacyPacket {
            tuple: FiveTuple {
                src,
                dst,
                src_port,
                dst_port,
                proto: PROTO_UDP,
            },
            payload: payload.to_vec(),
        }
    }

    /// What [`LegacyPacket::serialize`] puts in front of the payload: the
    /// IPv4 header and the two ports. The gateway seals `header ‖ payload`
    /// into its frame from the two pieces, without joining them first.
    #[must_use]
    pub fn header_bytes(&self) -> [u8; LEGACY_HEADER_LEN] {
        let ip = Ipv4Header::new(
            self.tuple.src,
            self.tuple.dst,
            self.tuple.proto,
            4 + self.payload.len(),
        );
        let mut out = [0u8; LEGACY_HEADER_LEN];
        let (ip_part, ports) = out.split_at_mut(IPV4_HEADER_LEN);
        ip_part.copy_from_slice(&ip.serialize());
        let (src_port, dst_port) = ports.split_at_mut(2);
        src_port.copy_from_slice(&self.tuple.src_port.to_be_bytes());
        dst_port.copy_from_slice(&self.tuple.dst_port.to_be_bytes());
        out
    }

    /// Serializes to IPv4 + ports + payload.
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LEGACY_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.header_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a serialized legacy datagram.
    pub fn parse(buf: &[u8]) -> Result<LegacyPacket, WireError> {
        let (ip, rest) = Ipv4Header::parse(buf)?;
        let [s0, s1, d0, d1, payload @ ..] = rest else {
            return Err(WireError::Truncated);
        };
        Ok(LegacyPacket {
            tuple: FiveTuple {
                src: ip.src,
                dst: ip.dst,
                src_port: u16::from_be_bytes([*s0, *s1]),
                dst_port: u16::from_be_bytes([*d0, *d1]),
                proto: ip.protocol,
            },
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> LegacyPacket {
        LegacyPacket::udp(
            Ipv4Addr::new(10, 0, 0, 5),
            5353,
            Ipv4Addr::new(93, 184, 216, 34),
            80,
            b"GET /",
        )
    }

    #[test]
    fn roundtrip() {
        let p = pkt();
        assert_eq!(LegacyPacket::parse(&p.serialize()).unwrap(), p);
    }

    #[test]
    fn reversed_tuple() {
        let t = pkt().tuple;
        let r = t.reversed();
        assert_eq!(r.src, t.dst);
        assert_eq!(r.src_port, t.dst_port);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn flow_ids_stable_and_distinct() {
        let t = pkt().tuple;
        assert_eq!(t.flow_id(), t.flow_id());
        assert_ne!(t.flow_id(), t.reversed().flow_id());
        let mut other = t;
        other.src_port = 5354;
        assert_ne!(t.flow_id(), other.flow_id());
    }

    #[test]
    fn parse_rejects_truncation() {
        let p = pkt().serialize();
        assert!(LegacyPacket::parse(&p[..21]).is_err());
    }
}
