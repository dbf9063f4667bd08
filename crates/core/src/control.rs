//! The unified control plane: typed on-wire control messages and the
//! service trait that dispatches them.
//!
//! The paper's accountability story rests on three control protocols —
//! EphID issuance by the Management Service (Fig. 3, §IV-C), revocation
//! push from the Accountability Agent to border routers (Fig. 5), and the
//! shut-off protocol itself (§IV-E) — plus the DNS registration workflow of
//! §VII-A. The broker interface *is* the trust boundary, so every one of
//! those flows crosses this module as a [`ControlMsg`]: a versioned, framed
//! wire envelope that serializes, parses, and can therefore be observed,
//! counted, delayed, or tampered with like any other traffic (the
//! `apna-simnet` network does exactly that).
//!
//! Services implement [`ControlPlane`]. [`crate::AsNode`] dispatches
//! issuance to [`crate::management`], revocation to [`crate::revocation`]
//! (via the border router), and shut-off to [`crate::shutoff`];
//! `apna_dns::DnsServer` handles the register/update kinds. Clients hold a
//! [`crate::agent::HostAgent`] and never touch the per-message crypto
//! directly.

use crate::cert::EphIdCert;
use crate::host::Host;
use crate::management::{EphIdReply, EphIdRequest, MsDrop};
use crate::shutoff::{RevocationOrder, ShutoffRequest};
use crate::time::Timestamp;
use crate::{AsNode, Error};
use apna_crypto::ed25519::{Signature, SIGNATURE_LEN};
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::{Aid, EphIdBytes, ReplayMode, WireError, EPHID_LEN};

/// Magic bytes opening every control frame.
pub const CONTROL_MAGIC: [u8; 4] = *b"APCP";

/// Current control-envelope version.
pub const CONTROL_VERSION: u8 = 1;

/// Fixed envelope prefix: magic (4) ‖ version (1) ‖ kind (1) ‖ body_len (4).
pub const CONTROL_HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// The message kinds the control plane speaks. The discriminant is the
/// on-wire kind byte and the stable index into [`ControlCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Host → MS: encrypted EphID issuance request (Fig. 3).
    EphIdRequest = 0,
    /// MS → host: encrypted issuance reply (a sealed certificate).
    EphIdReply = 1,
    /// AA → border routers: `MAC_kAS(revoke EphID_s)` (Fig. 5).
    RevocationAnnounce = 2,
    /// Victim host → source-AS AA: the shut-off request (§IV-E).
    ShutoffRequest = 3,
    /// AA → victim host: shut-off accepted, EphID revoked.
    ShutoffAck = 4,
    /// Service host → DNS zone: publish a receive-only certificate
    /// ("registers the certificate under the domain name", §VII-A).
    DnsRegister = 5,
    /// Service host → DNS zone: re-publish with a fresh certificate
    /// (EphID rotation).
    DnsUpdate = 6,
    /// DNS zone → service host: record accepted.
    DnsAck = 7,
    /// MS → host: issuance admission control said "not now" — the host's
    /// token bucket is empty. Retryable with backoff; carries a hint.
    EphIdBusy = 8,
}

impl ControlKind {
    /// Every kind, in kind-byte order (guards the counter indexing).
    pub const ALL: [ControlKind; 9] = [
        ControlKind::EphIdRequest,
        ControlKind::EphIdReply,
        ControlKind::RevocationAnnounce,
        ControlKind::ShutoffRequest,
        ControlKind::ShutoffAck,
        ControlKind::DnsRegister,
        ControlKind::DnsUpdate,
        ControlKind::DnsAck,
        ControlKind::EphIdBusy,
    ];

    /// Stable index into [`ControlCounters`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses the on-wire kind byte.
    pub fn from_byte(b: u8) -> Result<ControlKind, WireError> {
        ControlKind::ALL
            .get(b as usize)
            .copied()
            .ok_or(WireError::BadField {
                field: "control kind",
            })
    }

    /// Human-readable name (stats output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ControlKind::EphIdRequest => "ephid-request",
            ControlKind::EphIdReply => "ephid-reply",
            ControlKind::RevocationAnnounce => "revocation-announce",
            ControlKind::ShutoffRequest => "shutoff-request",
            ControlKind::ShutoffAck => "shutoff-ack",
            ControlKind::DnsRegister => "dns-register",
            ControlKind::DnsUpdate => "dns-update",
            ControlKind::DnsAck => "dns-ack",
            ControlKind::EphIdBusy => "ephid-busy",
        }
    }
}

/// Per-[`ControlKind`] counters (the control-plane analogue of the data
/// plane's `DropCounters`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlCounters {
    counts: [u64; ControlKind::ALL.len()],
}

impl ControlCounters {
    /// Records one message of `kind`.
    pub fn record(&mut self, kind: ControlKind) {
        self.counts[kind.index()] += 1;
    }

    /// Messages recorded for `kind`.
    #[must_use]
    pub fn count(&self, kind: ControlKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total messages across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &ControlCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(kind, count)` over kinds with a non-zero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (ControlKind, u64)> + '_ {
        ControlKind::ALL
            .iter()
            .copied()
            .map(|k| (k, self.count(k)))
            .filter(|&(_, c)| c > 0)
    }
}

/// Payload of the DNS register/update kinds: what a service hands its zone
/// operator — the name, the receive-only certificate, and an optional IPv4
/// for the §VII-D gateway deployment — plus the owner signature that
/// authorizes it. The zone signs on insertion.
///
/// Now that registration is wire-reachable, it must be authorized: the
/// message carries an Ed25519 signature over the upsert body. For a first
/// registration the signature must verify under the *published* cert's own
/// key (proof of possession — you cannot publish someone else's cert); for
/// an update it must verify under the *currently published* cert's key
/// (continuity — only the present owner can rotate the name).
#[derive(Debug, Clone, PartialEq)]
pub struct DnsUpsert {
    /// The domain name to (re-)publish.
    pub name: String,
    /// The certificate to bind to it.
    pub cert: EphIdCert,
    /// Optional IPv4 address (operators may withhold it for privacy).
    pub ipv4: Option<Ipv4Addr>,
    /// Authorizing signature over [`DnsUpsert::signable_bytes`].
    pub owner_sig: Signature,
}

impl DnsUpsert {
    /// The bytes the owner signature covers.
    #[must_use]
    pub fn signable_bytes(name: &str, cert: &EphIdCert, ipv4: Option<Ipv4Addr>) -> Vec<u8> {
        let mut out = b"APNA-DNS-UPSERT-V1".to_vec();
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&cert.serialize());
        match ipv4 {
            Some(a) => {
                out.push(1);
                out.extend_from_slice(&a.0);
            }
            None => out.push(0),
        }
        out
    }

    /// Builds an upsert authorized by `signer` (the published cert's key
    /// pair for a registration; the currently published cert's key pair
    /// for an update).
    #[must_use]
    pub fn signed(
        name: &str,
        cert: EphIdCert,
        ipv4: Option<Ipv4Addr>,
        signer: &apna_crypto::ed25519::SigningKey,
    ) -> DnsUpsert {
        let owner_sig = signer.sign(&Self::signable_bytes(name, &cert, ipv4));
        DnsUpsert {
            name: name.to_string(),
            cert,
            ipv4,
            owner_sig,
        }
    }

    /// Verifies the owner signature against `owner`'s certified signing
    /// key.
    pub fn verify_owner(&self, owner: &EphIdCert) -> Result<(), Error> {
        owner
            .signing_public()?
            .verify(
                &Self::signable_bytes(&self.name, &self.cert, self.ipv4),
                &self.owner_sig,
            )
            .map_err(|_| Error::ControlRejected("DNS upsert owner signature"))
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.name.len() as u32).to_be_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.cert.serialize());
        match self.ipv4 {
            Some(a) => {
                out.push(1);
                out.extend_from_slice(&a.0);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.owner_sig.to_bytes());
        out
    }

    fn parse(buf: &[u8]) -> Result<DnsUpsert, WireError> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let name_len = u32::from_be_bytes(apna_wire::read_arr(buf, 0)?) as usize;
        let mut off = 4;
        if buf.len() < off + name_len {
            return Err(WireError::Truncated);
        }
        let name = String::from_utf8(buf[off..off + name_len].to_vec())
            .map_err(|_| WireError::BadField { field: "dns name" })?;
        off += name_len;
        let cert = EphIdCert::parse(&buf[off..])?;
        off += crate::cert::CERT_LEN;
        if buf.len() < off + 1 {
            return Err(WireError::Truncated);
        }
        let ipv4 = match buf[off] {
            0 => {
                off += 1;
                None
            }
            1 => {
                if buf.len() < off + 5 {
                    return Err(WireError::Truncated);
                }
                let a = Ipv4Addr(apna_wire::read_arr(buf, off + 1)?);
                off += 5;
                Some(a)
            }
            _ => {
                return Err(WireError::BadField {
                    field: "dns ipv4 flag",
                })
            }
        };
        if buf.len() < off + SIGNATURE_LEN {
            return Err(WireError::Truncated);
        }
        let owner_sig = Signature::from_bytes(&buf[off..off + SIGNATURE_LEN])
            .map_err(|_| WireError::Truncated)?;
        off += SIGNATURE_LEN;
        if off != buf.len() {
            return Err(WireError::LengthMismatch);
        }
        Ok(DnsUpsert {
            name,
            cert,
            ipv4,
            owner_sig,
        })
    }
}

/// The AA's answer to an accepted shut-off request: which EphID was
/// revoked, until when the revocation entry lives (§VIII-G2 purging), and
/// whether policy escalation also revoked the sender's whole HID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutoffAck {
    /// The revoked EphID.
    pub ephid: EphIdBytes,
    /// Its expiry (when the revocation entry becomes purgeable).
    pub exp_time: Timestamp,
    /// `true` if the §VIII-G2 strike policy also revoked the host's HID.
    pub hid_revoked: bool,
}

impl ShutoffAck {
    const LEN: usize = EPHID_LEN + 4 + 1;

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(self.ephid.as_bytes());
        out.extend_from_slice(&self.exp_time.to_bytes());
        out.push(u8::from(self.hid_revoked));
        out
    }

    fn parse(buf: &[u8]) -> Result<ShutoffAck, WireError> {
        if buf.len() != Self::LEN {
            return Err(if buf.len() < Self::LEN {
                WireError::Truncated
            } else {
                WireError::LengthMismatch
            });
        }
        let hid_revoked = match buf[EPHID_LEN + 4] {
            0 => false,
            1 => true,
            _ => {
                return Err(WireError::BadField {
                    field: "shutoff ack flag",
                })
            }
        };
        Ok(ShutoffAck {
            ephid: EphIdBytes::from_slice(&buf[..EPHID_LEN])?,
            exp_time: Timestamp::from_bytes(apna_wire::read_arr(buf, EPHID_LEN)?),
            hid_revoked,
        })
    }
}

/// The MS's admission-control pushback (Fig. 3 under load): the host's
/// issuance token bucket is empty, so the request was neither processed
/// nor silently dropped. Echoes the request nonce (so the client can
/// match it to the in-flight acquisition) and hints when retrying is
/// worthwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EphIdBusy {
    /// The request nonce this pushback answers.
    pub nonce: [u8; 12],
    /// Seconds until the bucket refills enough to admit one request.
    pub retry_after_secs: u32,
}

impl EphIdBusy {
    const LEN: usize = 12 + 4;

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.retry_after_secs.to_be_bytes());
        out
    }

    fn parse(buf: &[u8]) -> Result<EphIdBusy, WireError> {
        if buf.len() != Self::LEN {
            return Err(if buf.len() < Self::LEN {
                WireError::Truncated
            } else {
                WireError::LengthMismatch
            });
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&buf[..12]);
        Ok(EphIdBusy {
            nonce,
            retry_after_secs: u32::from_be_bytes(apna_wire::read_arr(buf, 12)?),
        })
    }
}

/// A control-plane message: the typed body behind one [`ControlKind`].
///
/// On the wire a message is framed as
/// `magic (4) ‖ version (1) ‖ kind (1) ‖ body_len (4, BE) ‖ body`, and
/// [`ControlMsg::parse`] rejects bad magic, unknown versions, unknown
/// kinds, truncation, and trailing garbage with typed [`WireError`]s —
/// never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// EphID issuance request (Fig. 3, host side).
    EphIdRequest(EphIdRequest),
    /// EphID issuance reply (Fig. 3, MS side).
    EphIdReply(EphIdReply),
    /// Revocation order pushed to border routers (Fig. 5).
    RevocationAnnounce(RevocationOrder),
    /// Shut-off request to the source AS's AA (§IV-E).
    ShutoffRequest(ShutoffRequest),
    /// Shut-off acknowledgement back to the victim.
    ShutoffAck(ShutoffAck),
    /// DNS record publication (§VII-A).
    DnsRegister(DnsUpsert),
    /// DNS record rotation (§VII-A).
    DnsUpdate(DnsUpsert),
    /// DNS publication acknowledgement.
    DnsAck {
        /// The name that was (re-)published.
        name: String,
    },
    /// Issuance admission-control pushback (retryable).
    EphIdBusy(EphIdBusy),
}

impl ControlMsg {
    /// This message's kind.
    #[must_use]
    pub fn kind(&self) -> ControlKind {
        match self {
            ControlMsg::EphIdRequest(_) => ControlKind::EphIdRequest,
            ControlMsg::EphIdReply(_) => ControlKind::EphIdReply,
            ControlMsg::RevocationAnnounce(_) => ControlKind::RevocationAnnounce,
            ControlMsg::ShutoffRequest(_) => ControlKind::ShutoffRequest,
            ControlMsg::ShutoffAck(_) => ControlKind::ShutoffAck,
            ControlMsg::DnsRegister(_) => ControlKind::DnsRegister,
            ControlMsg::DnsUpdate(_) => ControlKind::DnsUpdate,
            ControlMsg::DnsAck { .. } => ControlKind::DnsAck,
            ControlMsg::EphIdBusy(_) => ControlKind::EphIdBusy,
        }
    }

    /// Serializes the full envelope (header + body).
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let body = match self {
            ControlMsg::EphIdRequest(req) => req.serialize(),
            ControlMsg::EphIdReply(reply) => reply.serialize(),
            ControlMsg::RevocationAnnounce(order) => order.serialize(),
            ControlMsg::ShutoffRequest(req) => req.serialize(),
            ControlMsg::ShutoffAck(ack) => ack.serialize(),
            ControlMsg::DnsRegister(up) | ControlMsg::DnsUpdate(up) => up.serialize(),
            ControlMsg::DnsAck { name } => {
                let mut out = (name.len() as u32).to_be_bytes().to_vec();
                out.extend_from_slice(name.as_bytes());
                out
            }
            ControlMsg::EphIdBusy(busy) => busy.serialize(),
        };
        let mut out = Vec::with_capacity(CONTROL_HEADER_LEN + body.len());
        out.extend_from_slice(&CONTROL_MAGIC);
        out.push(CONTROL_VERSION);
        out.push(self.kind() as u8);
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses a full envelope. The body length must match the buffer
    /// exactly: a control frame is the whole payload of its carrier packet.
    pub fn parse(buf: &[u8]) -> Result<ControlMsg, WireError> {
        if buf.len() < CONTROL_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[..4] != CONTROL_MAGIC {
            return Err(WireError::BadField {
                field: "control magic",
            });
        }
        if buf[4] != CONTROL_VERSION {
            return Err(WireError::BadField {
                field: "control version",
            });
        }
        let kind = ControlKind::from_byte(buf[5])?;
        let body_len = u32::from_be_bytes(apna_wire::read_arr(buf, 6)?) as usize;
        let body = &buf[CONTROL_HEADER_LEN..];
        if body.len() < body_len {
            return Err(WireError::Truncated);
        }
        if body.len() != body_len {
            return Err(WireError::LengthMismatch);
        }
        Ok(match kind {
            ControlKind::EphIdRequest => ControlMsg::EphIdRequest(EphIdRequest::parse(body)?),
            ControlKind::EphIdReply => ControlMsg::EphIdReply(EphIdReply::parse(body)?),
            ControlKind::RevocationAnnounce => {
                ControlMsg::RevocationAnnounce(RevocationOrder::parse(body)?)
            }
            ControlKind::ShutoffRequest => ControlMsg::ShutoffRequest(ShutoffRequest::parse(body)?),
            ControlKind::ShutoffAck => ControlMsg::ShutoffAck(ShutoffAck::parse(body)?),
            ControlKind::DnsRegister => ControlMsg::DnsRegister(DnsUpsert::parse(body)?),
            ControlKind::DnsUpdate => ControlMsg::DnsUpdate(DnsUpsert::parse(body)?),
            ControlKind::DnsAck => {
                if body.len() < 4 {
                    return Err(WireError::Truncated);
                }
                let name_len = u32::from_be_bytes(apna_wire::read_arr(body, 0)?) as usize;
                if body.len() != 4 + name_len {
                    return Err(WireError::LengthMismatch);
                }
                let name = String::from_utf8(body[4..].to_vec())
                    .map_err(|_| WireError::BadField { field: "ack name" })?;
                ControlMsg::DnsAck { name }
            }
            ControlKind::EphIdBusy => ControlMsg::EphIdBusy(EphIdBusy::parse(body)?),
        })
    }
}

/// A service that answers control messages.
///
/// Implementors dispatch on [`ControlMsg`]; transports (including the
/// in-process [`ControlTransport`] every `&impl ControlPlane` is) hand
/// them serialized frames, so every flow round-trips through the envelope
/// even when no network sits in between — the wire format is exercised on
/// every call, not only in the simulator.
pub trait ControlPlane {
    /// Handles one typed control message; returns the reply to send back,
    /// if the kind has one.
    fn handle_control(&self, msg: &ControlMsg, now: Timestamp)
        -> Result<Option<ControlMsg>, Error>;

    /// Wire-level entry point: parse, dispatch, serialize the reply.
    fn handle_control_frame(&self, frame: &[u8], now: Timestamp) -> Result<Option<Vec<u8>>, Error> {
        let msg = ControlMsg::parse(frame)?;
        Ok(self.handle_control(&msg, now)?.map(|m| m.serialize()))
    }

    /// Pipelined entry point: a burst of control frames arriving together
    /// (simultaneous deliveries at one service, a daemon's socket burst).
    /// One result per frame, in input order. The default loops
    /// [`ControlPlane::handle_control_frame`]; [`crate::AsNode`] overrides
    /// it to batch EphID issuances (amortized ctrl-EphID opens and
    /// per-shard lock acquisitions).
    fn handle_control_batch(
        &self,
        frames: &[&[u8]],
        now: Timestamp,
    ) -> Vec<Result<Option<Vec<u8>>, Error>> {
        frames
            .iter()
            .map(|f| self.handle_control_frame(f, now))
            .collect()
    }
}

/// The AS service a host's control message is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// The Management Service of the host's own AS (EphID issuance).
    Ms,
    /// The accountability agent of an AS (shut-off).
    Aa(Aid),
    /// The DNS zone an AS serves (publication).
    Dns(Aid),
}

/// A reply a [`ControlTransport`] brought back, with the protocol time at
/// which its slot finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReply {
    /// The service's reply.
    pub msg: ControlMsg,
    /// When the exchange for this slot completed.
    pub at: Timestamp,
}

/// How a host's control messages reach AS services, and their replies come
/// back. It owns no clock and no socket: each exchange starts no earlier
/// than the caller's `now`, and every reply says when its slot finished.
/// [`crate::agent::HostAgent`] writes each host intent once over this
/// trait; a `&impl ControlPlane` is the in-process transport and a
/// `&mut apna_simnet::Network` the packetized one.
pub trait ControlTransport {
    /// Sends `msgs` from `host` to `to` as one burst and returns one
    /// outcome per message, in order. A transport that sends slot by slot
    /// stops at the first outcome that aborts the intent — an error or a
    /// [`ControlMsg::EphIdBusy`] — and sends nothing for the later slots.
    fn burst(
        &mut self,
        host: &mut Host,
        to: Service,
        msgs: &[ControlMsg],
        now: Timestamp,
    ) -> Vec<Result<ControlReply, Error>>;

    /// Sends one message from `host` to `to` and returns its reply.
    fn call(
        &mut self,
        host: &mut Host,
        to: Service,
        msg: &ControlMsg,
        now: Timestamp,
    ) -> Result<ControlReply, Error> {
        let outcome = self.burst(host, to, std::slice::from_ref(msg), now).pop();
        outcome.unwrap_or(Err(Error::ControlRejected(
            "burst ended without an outcome",
        )))
    }
}

/// The in-process transport: every exchange, single or burst, is one
/// [`ControlPlane::handle_control_batch`] on this plane at the caller's
/// `now`, whatever [`Service`] it names (the caller picks the plane that
/// runs that service). Frames still cross the serialized envelope both
/// ways.
impl<C: ControlPlane + ?Sized> ControlTransport for &C {
    fn burst(
        &mut self,
        _host: &mut Host,
        _to: Service,
        msgs: &[ControlMsg],
        now: Timestamp,
    ) -> Vec<Result<ControlReply, Error>> {
        let frames: Vec<Vec<u8>> = msgs.iter().map(ControlMsg::serialize).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let reply = |frame: Result<Option<Vec<u8>>, Error>| -> Result<ControlReply, Error> {
            let frame = frame?.ok_or(Error::ControlRejected("service produced no reply"))?;
            let msg = ControlMsg::parse(&frame)?;
            Ok(ControlReply { msg, at: now })
        };
        self.handle_control_batch(&refs, now)
            .into_iter()
            .map(reply)
            .collect()
    }
}

impl ControlPlane for AsNode {
    /// The AS-side dispatch: issuance to the MS, shut-off to the AA,
    /// revocation orders to the border router. DNS kinds belong to the
    /// zone service (`apna_dns::DnsServer`), not the AS node.
    fn handle_control(
        &self,
        msg: &ControlMsg,
        now: Timestamp,
    ) -> Result<Option<ControlMsg>, Error> {
        match msg {
            ControlMsg::EphIdRequest(req) => match self.ms.handle_request(req, now) {
                Ok(reply) => Ok(Some(ControlMsg::EphIdReply(reply))),
                // Admission control is pushback, not refusal: the host is
                // told to come back, with a hint, instead of being
                // silently dropped (which would look like loss and make
                // it retry immediately — the opposite of the point).
                Err(MsDrop::RateLimited { retry_after_secs }) => {
                    Ok(Some(ControlMsg::EphIdBusy(EphIdBusy {
                        nonce: req.nonce,
                        retry_after_secs,
                    })))
                }
                Err(drop) => Err(Error::Management(drop)),
            },
            ControlMsg::ShutoffRequest(req) => {
                // The quoted packet's MAC input is identical whichever
                // replay mode it is parsed under (the nonce bytes shift
                // between header and payload but the MAC'd byte string is
                // unchanged), so the AA verifies in the base mode.
                let outcome = self.aa.handle(req, ReplayMode::Disabled, now)?;
                Ok(Some(ControlMsg::ShutoffAck(ShutoffAck {
                    ephid: outcome.order.ephid,
                    exp_time: outcome.order.exp_time,
                    hid_revoked: outcome.hid_revoked,
                })))
            }
            ControlMsg::RevocationAnnounce(order) => {
                self.br.apply_revocation(order)?;
                Ok(None)
            }
            ControlMsg::DnsRegister(_) | ControlMsg::DnsUpdate(_) => Err(Error::ControlRejected(
                "DNS control must target the DNS zone service",
            )),
            ControlMsg::EphIdReply(_)
            | ControlMsg::ShutoffAck(_)
            | ControlMsg::DnsAck { .. }
            | ControlMsg::EphIdBusy(_) => {
                Err(Error::ControlRejected("reply message sent to a service"))
            }
        }
    }

    /// Batched AS-side dispatch: the EphID issuances in the burst run
    /// through [`crate::management::ManagementService::handle_request_batch`]
    /// (one batched ctrl-EphID open sweep, per-HID lock amortization);
    /// everything else dispatches individually. Results stay in frame
    /// order.
    fn handle_control_batch(
        &self,
        frames: &[&[u8]],
        now: Timestamp,
    ) -> Vec<Result<Option<Vec<u8>>, Error>> {
        // Parse everything up front so issuances can be grouped.
        let parsed: Vec<Result<ControlMsg, WireError>> =
            frames.iter().map(|f| ControlMsg::parse(f)).collect();
        let mut issuance: Vec<(usize, &EphIdRequest)> = Vec::new();
        for (i, p) in parsed.iter().enumerate() {
            if let Ok(ControlMsg::EphIdRequest(req)) = p {
                issuance.push((i, req));
            }
        }

        let mut out: Vec<Option<Result<Option<Vec<u8>>, Error>>> =
            frames.iter().map(|_| None).collect();

        if issuance.len() > 1 {
            let requests: Vec<&EphIdRequest> = issuance.iter().map(|&(_, req)| req).collect();
            let replies = self.ms.handle_request_batch(&requests, now);
            for (&(i, req), result) in issuance.iter().zip(replies) {
                out[i] = Some(match result {
                    Ok(reply) => Ok(Some(ControlMsg::EphIdReply(reply).serialize())),
                    Err(MsDrop::RateLimited { retry_after_secs }) => Ok(Some(
                        ControlMsg::EphIdBusy(EphIdBusy {
                            nonce: req.nonce,
                            retry_after_secs,
                        })
                        .serialize(),
                    )),
                    Err(drop) => Err(Error::Management(drop)),
                });
            }
        }

        for (i, slot) in out.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(match &parsed[i] {
                    Ok(msg) => self
                        .handle_control(msg, now)
                        .map(|reply| reply.map(|m| m.serialize())),
                    Err(e) => Err(Error::Wire(*e)),
                });
            }
        }
        out.into_iter()
            .map(|slot| slot.unwrap_or(Err(Error::ControlRejected("unprocessed batch frame"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertKind;
    use crate::directory::AsDirectory;
    use crate::keys::EphIdKeyPair;
    use apna_wire::Aid;

    fn sample_cert() -> EphIdCert {
        let keys = crate::keys::AsKeys::from_seed(&[1; 32]);
        let kp = EphIdKeyPair::from_seed([2; 32]);
        let (sp, dp) = kp.public_keys();
        EphIdCert::issue(
            &keys.signing,
            EphIdBytes([3; 16]),
            Timestamp(99),
            sp,
            dp,
            Aid(7),
            EphIdBytes([4; 16]),
            CertKind::ReceiveOnly,
        )
    }

    fn sample_upsert(name: &str, ipv4: Option<Ipv4Addr>) -> DnsUpsert {
        let kp = EphIdKeyPair::from_seed([2; 32]); // sample_cert's key pair
        DnsUpsert::signed(name, sample_cert(), ipv4, &kp.sign())
    }

    #[test]
    fn kind_bytes_match_all_order() {
        for (i, kind) in ControlKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?} out of order in ALL");
            assert_eq!(ControlKind::from_byte(i as u8).unwrap(), *kind);
        }
        assert!(ControlKind::from_byte(ControlKind::ALL.len() as u8).is_err());
    }

    #[test]
    fn every_kind_roundtrips() {
        let node = AsNode::from_seed(Aid(1), [9; 32], &AsDirectory::new(), Timestamp(0));
        let msgs = vec![
            ControlMsg::EphIdRequest(EphIdRequest {
                ctrl_ephid: EphIdBytes([1; 16]),
                nonce: [2; 12],
                sealed: vec![3; 82],
            }),
            ControlMsg::EphIdReply(EphIdReply {
                nonce: [4; 12],
                sealed: vec![5; 40],
            }),
            ControlMsg::RevocationAnnounce(crate::shutoff::RevocationOrder::issue(
                &node.infra.keys,
                EphIdBytes([6; 16]),
                Timestamp(77),
            )),
            ControlMsg::ShutoffRequest(ShutoffRequest::create(
                b"evidence-packet-bytes",
                &EphIdKeyPair::from_seed([8; 32]),
                sample_cert(),
            )),
            ControlMsg::ShutoffAck(ShutoffAck {
                ephid: EphIdBytes([9; 16]),
                exp_time: Timestamp(12345),
                hid_revoked: true,
            }),
            ControlMsg::DnsRegister(sample_upsert(
                "shop.example",
                Some(Ipv4Addr::new(192, 0, 2, 80)),
            )),
            ControlMsg::DnsUpdate(sample_upsert("shop.example", None)),
            ControlMsg::DnsAck {
                name: "shop.example".into(),
            },
            ControlMsg::EphIdBusy(EphIdBusy {
                nonce: [7; 12],
                retry_after_secs: 3,
            }),
        ];
        for msg in msgs {
            let wire = msg.serialize();
            let parsed = ControlMsg::parse(&wire).unwrap();
            assert_eq!(parsed, msg);
            assert_eq!(parsed.kind(), msg.kind());
        }
    }

    #[test]
    fn bad_envelopes_rejected_typed() {
        // Too short for the header.
        assert_eq!(ControlMsg::parse(&[0; 5]), Err(WireError::Truncated));
        // Wrong magic.
        let mut wire = ControlMsg::DnsAck { name: "x".into() }.serialize();
        wire[0] ^= 1;
        assert_eq!(
            ControlMsg::parse(&wire),
            Err(WireError::BadField {
                field: "control magic"
            })
        );
        // Unknown version.
        let mut wire = ControlMsg::DnsAck { name: "x".into() }.serialize();
        wire[4] = 9;
        assert_eq!(
            ControlMsg::parse(&wire),
            Err(WireError::BadField {
                field: "control version"
            })
        );
        // Unknown kind.
        let mut wire = ControlMsg::DnsAck { name: "x".into() }.serialize();
        wire[5] = 0xFF;
        assert_eq!(
            ControlMsg::parse(&wire),
            Err(WireError::BadField {
                field: "control kind"
            })
        );
        // Truncated body.
        let wire = ControlMsg::DnsAck { name: "xyz".into() }.serialize();
        assert_eq!(
            ControlMsg::parse(&wire[..wire.len() - 1]),
            Err(WireError::Truncated)
        );
        // Trailing garbage.
        let mut wire = ControlMsg::DnsAck { name: "x".into() }.serialize();
        wire.push(0);
        assert_eq!(ControlMsg::parse(&wire), Err(WireError::LengthMismatch));
    }

    #[test]
    fn counters_record_and_merge() {
        let mut a = ControlCounters::default();
        a.record(ControlKind::EphIdRequest);
        a.record(ControlKind::EphIdRequest);
        let mut b = ControlCounters::default();
        b.record(ControlKind::ShutoffAck);
        a.merge(&b);
        assert_eq!(a.count(ControlKind::EphIdRequest), 2);
        assert_eq!(a.count(ControlKind::ShutoffAck), 1);
        assert_eq!(a.total(), 3);
        assert_eq!(a.iter_nonzero().count(), 2);
    }

    #[test]
    fn asnode_rejects_misdirected_kinds() {
        let node = AsNode::from_seed(Aid(1), [9; 32], &AsDirectory::new(), Timestamp(0));
        for msg in [
            ControlMsg::DnsRegister(sample_upsert("a.example", None)),
            ControlMsg::DnsAck { name: "a".into() },
            ControlMsg::EphIdReply(EphIdReply {
                nonce: [0; 12],
                sealed: vec![1; 20],
            }),
            ControlMsg::ShutoffAck(ShutoffAck {
                ephid: EphIdBytes([0; 16]),
                exp_time: Timestamp(0),
                hid_revoked: false,
            }),
            ControlMsg::EphIdBusy(EphIdBusy {
                nonce: [0; 12],
                retry_after_secs: 1,
            }),
        ] {
            assert!(matches!(
                node.handle_control(&msg, Timestamp(0)),
                Err(Error::ControlRejected(_))
            ));
        }
    }

    #[test]
    fn asnode_applies_revocation_announce() {
        let node = AsNode::from_seed(Aid(1), [9; 32], &AsDirectory::new(), Timestamp(0));
        let order = crate::shutoff::RevocationOrder::issue(
            &node.infra.keys,
            EphIdBytes([5; 16]),
            Timestamp(60),
        );
        let reply = node
            .handle_control(&ControlMsg::RevocationAnnounce(order), Timestamp(0))
            .unwrap();
        assert!(reply.is_none());
        assert!(node.infra.revoked.contains(&EphIdBytes([5; 16])));
        // A forged order is refused with a typed error.
        let mut forged = crate::shutoff::RevocationOrder::issue(
            &node.infra.keys,
            EphIdBytes([6; 16]),
            Timestamp(60),
        );
        forged.ephid = EphIdBytes([7; 16]);
        assert!(node
            .handle_control(&ControlMsg::RevocationAnnounce(forged), Timestamp(0))
            .is_err());
    }
}
