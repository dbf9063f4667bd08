//! Wire encoding of the §VII-A client–server handshake messages.
//!
//! `apna_core::session` defines [`ClientHello`] / [`ServerAccept`] as
//! in-memory values; gateway pairs (and the web-service example) need them
//! on the wire inside APNA payloads. Frames are tagged so a receiver can
//! demultiplex handshake traffic from established-channel data:
//!
//! ```text
//! 0x01 ‖ client_cert ‖ early_flag ‖ [early_len ‖ early_bytes]   ClientHello
//! 0x02 ‖ serving_cert ‖ payload                                 ServerAccept
//! 0x03 ‖ sealed channel data                                    Data
//! ```
//!
//! Data frames are the per-datagram path: [`encode_data`] seals into the
//! frame buffer and [`Frame::Data`] hands the receiver an owned buffer to
//! open in place, so a payload is copied once in each direction here.

use apna_core::cert::{EphIdCert, CERT_LEN};
use apna_core::session::{ClientHello, SecureChannel, ServerAccept, SEAL_OVERHEAD};
use apna_wire::WireError;

/// Frame tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameTag {
    /// A [`ClientHello`].
    Hello = 1,
    /// A [`ServerAccept`].
    Accept = 2,
    /// Established-channel data.
    Data = 3,
}

/// A parsed gateway frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Client hello.
    Hello(ClientHello),
    /// Server accept.
    Accept(ServerAccept),
    /// Channel data (still sealed).
    Data(Vec<u8>),
}

/// Serializes a [`ClientHello`].
#[must_use]
pub fn encode_hello(hello: &ClientHello) -> Vec<u8> {
    let mut out = vec![FrameTag::Hello as u8];
    out.extend_from_slice(&hello.client_cert.serialize());
    match &hello.early_data {
        Some(data) => {
            out.push(1);
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(data);
        }
        None => out.push(0),
    }
    out
}

/// Serializes a [`ServerAccept`].
#[must_use]
pub fn encode_accept(accept: &ServerAccept) -> Vec<u8> {
    let mut out = vec![FrameTag::Accept as u8];
    out.extend_from_slice(&accept.serving_cert.serialize());
    out.extend_from_slice(&accept.payload);
    out
}

/// Builds a Data frame — `0x03 ‖ channel.seal(aad, parts[0] ‖ parts[1] ‖ …)`
/// — in one buffer: the pieces of the plaintext are sealed where they land
/// (see [`SecureChannel::seal_into`]).
#[must_use]
pub fn encode_data(channel: &mut SecureChannel, aad: &[u8], parts: &[&[u8]]) -> Vec<u8> {
    let plaintext_len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(1 + SEAL_OVERHEAD + plaintext_len);
    out.push(FrameTag::Data as u8);
    channel.seal_into(aad, parts, &mut out);
    out
}

/// Parses any frame.
pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
    let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    match tag {
        1 => {
            if rest.len() < CERT_LEN + 1 {
                return Err(WireError::Truncated);
            }
            let client_cert = EphIdCert::parse(&rest[..CERT_LEN])?;
            let rest = &rest[CERT_LEN..];
            let early_data = match rest[0] {
                0 => None,
                1 => {
                    if rest.len() < 5 {
                        return Err(WireError::Truncated);
                    }
                    let len = u32::from_be_bytes(apna_wire::read_arr(rest, 1)?) as usize;
                    if rest.len() < 5 + len {
                        return Err(WireError::Truncated);
                    }
                    Some(rest[5..5 + len].to_vec())
                }
                _ => {
                    return Err(WireError::BadField {
                        field: "early flag",
                    })
                }
            };
            Ok(Frame::Hello(ClientHello {
                client_cert,
                early_data,
            }))
        }
        2 => {
            if rest.len() < CERT_LEN {
                return Err(WireError::Truncated);
            }
            let serving_cert = EphIdCert::parse(&rest[..CERT_LEN])?;
            Ok(Frame::Accept(ServerAccept {
                serving_cert,
                payload: rest[CERT_LEN..].to_vec(),
            }))
        }
        3 => Ok(Frame::Data(rest.to_vec())),
        _ => Err(WireError::BadField { field: "frame tag" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_core::cert::CertKind;
    use apna_core::keys::AsKeys;
    use apna_core::Timestamp;
    use apna_wire::{Aid, EphIdBytes};

    fn cert() -> EphIdCert {
        let keys = AsKeys::from_seed(&[5; 32]);
        EphIdCert::issue(
            &keys.signing,
            EphIdBytes([1; 16]),
            Timestamp(100),
            [2; 32],
            [3; 32],
            Aid(9),
            EphIdBytes([4; 16]),
            CertKind::Data,
        )
    }

    #[test]
    fn hello_roundtrip_with_early_data() {
        let hello = ClientHello {
            client_cert: cert(),
            early_data: Some(b"0-rtt payload".to_vec()),
        };
        match decode(&encode_hello(&hello)).unwrap() {
            Frame::Hello(h) => {
                assert_eq!(h.client_cert, hello.client_cert);
                assert_eq!(h.early_data, hello.early_data);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn hello_roundtrip_without_early_data() {
        let hello = ClientHello {
            client_cert: cert(),
            early_data: None,
        };
        match decode(&encode_hello(&hello)).unwrap() {
            Frame::Hello(h) => assert!(h.early_data.is_none()),
            _ => panic!(),
        }
    }

    #[test]
    fn accept_roundtrip() {
        let accept = ServerAccept {
            serving_cert: cert(),
            payload: b"sealed-response".to_vec(),
        };
        match decode(&encode_accept(&accept)).unwrap() {
            Frame::Accept(a) => {
                assert_eq!(a.serving_cert, accept.serving_cert);
                assert_eq!(a.payload, accept.payload);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn data_roundtrip() {
        use apna_core::keys::EphIdKeyPair;
        use apna_core::session::Role;
        let (ka, kb) = (
            EphIdKeyPair::from_seed([1; 32]),
            EphIdKeyPair::from_seed([2; 32]),
        );
        let (ea, eb) = (EphIdBytes([0xa; 16]), EphIdBytes([0xb; 16]));
        let channel = |local: &EphIdKeyPair, le, peer: &EphIdKeyPair, pe, role| {
            SecureChannel::establish(local, le, &peer.dh().public_key(), pe, role).unwrap()
        };
        let mut tx = channel(&ka, ea, &kb, eb, Role::Initiator);
        let mut tx_ref = channel(&ka, ea, &kb, eb, Role::Initiator);
        let mut rx = channel(&kb, eb, &ka, ea, Role::Responder);
        let frame = encode_data(&mut tx, b"aad", &[b"data", b"gram"]);
        // Byte-identical to tagging an allocating seal.
        let mut want = vec![FrameTag::Data as u8];
        want.extend_from_slice(&tx_ref.seal(b"aad", b"datagram"));
        assert_eq!(frame, want);
        match decode(&frame).unwrap() {
            Frame::Data(mut sealed) => {
                assert_eq!(sealed, frame[1..]);
                assert_eq!(rx.open_in_place(b"aad", &mut sealed).unwrap(), b"datagram");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[9, 0, 0]).is_err());
        assert!(decode(&[1, 2, 3]).is_err()); // truncated hello
        let mut hello = encode_hello(&ClientHello {
            client_cert: cert(),
            early_data: None,
        });
        let last = hello.len() - 1;
        hello[last] = 7; // bad early flag
        assert!(decode(&hello).is_err());
    }
}
