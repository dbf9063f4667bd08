//! UDP-encapsulation backend: APNA frames as UDP datagrams over real
//! sockets.
//!
//! Each datagram's payload is the Fig. 9 incremental-deployment framing:
//! an IPv4 header + GRE header wrapping the APNA frame. The UDP layer is
//! only transport between daemon processes — the framing *inside* the
//! datagram is exactly what a native deployment would put on the wire,
//! so the parse path the daemons exercise is the real one.
//!
//! Two framings are offered (see [`UdpFraming`]):
//!
//! * [`UdpFraming::Tunnel`] — the backend owns encapsulation: callers
//!   exchange bare APNA frames and the backend adds / validates / strips
//!   the [`EncapTunnel`] envelope, so `recv_burst` output feeds
//!   [`apna_wire::PacketBatch`] directly. The border daemon uses this.
//! * [`UdpFraming::Raw`] — datagram payloads pass through untouched, for
//!   callers that speak the GRE framing themselves (the gateway
//!   translator emits and consumes full GRE frames).

use crate::counters::IoCounters;
use crate::{IoError, PacketIo};
use apna_wire::encap::ENCAP_OVERHEAD;
use apna_wire::{EncapTunnel, MAX_APNA_FRAME};
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// How the backend maps between caller frames and datagram payloads.
#[derive(Debug, Clone, Copy)]
pub enum UdpFraming {
    /// Backend-owned encapsulation: callers see bare APNA frames; the
    /// backend wraps them in `tunnel` on send and validates + strips the
    /// envelope on receive (bad envelopes count as `rx_rejected`).
    Tunnel(EncapTunnel),
    /// Pass-through: datagram payloads are delivered and sent verbatim
    /// (size-budget checks still apply).
    Raw,
}

impl UdpFraming {
    /// Largest caller-side frame this framing accepts.
    fn frame_budget(&self) -> usize {
        match self {
            UdpFraming::Tunnel(_) => MAX_APNA_FRAME,
            UdpFraming::Raw => MAX_APNA_FRAME + ENCAP_OVERHEAD,
        }
    }
}

fn sockerr(op: &'static str, err: &std::io::Error) -> IoError {
    IoError::Socket {
        op,
        detail: err.to_string(),
    }
}

/// A [`PacketIo`] backend over a non-blocking [`UdpSocket`] (see module
/// docs for the on-wire format).
pub struct UdpBackend {
    socket: UdpSocket,
    peer: SocketAddr,
    framing: UdpFraming,
    counters: IoCounters,
    buf: Vec<u8>,
}

impl UdpBackend {
    /// Binds `local` and aims all transmissions at `peer`.
    ///
    /// The socket is non-blocking from the start, per the [`PacketIo`]
    /// contract. Bind to port 0 and read back [`UdpBackend::local_addr`]
    /// when the caller (tests, the loopback demo) needs an ephemeral
    /// port.
    pub fn bind(local: SocketAddr, peer: SocketAddr, framing: UdpFraming) -> Result<Self, IoError> {
        let socket = UdpSocket::bind(local).map_err(|e| sockerr("bind", &e))?;
        socket
            .set_nonblocking(true)
            .map_err(|e| sockerr("set_nonblocking", &e))?;
        Ok(UdpBackend {
            socket,
            peer,
            framing,
            counters: IoCounters::default(),
            buf: vec![0u8; MAX_APNA_FRAME + ENCAP_OVERHEAD + 512],
        })
    }

    /// The locally bound address (useful after binding port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, IoError> {
        self.socket
            .local_addr()
            .map_err(|e| sockerr("local_addr", &e))
    }

    /// Redirects future transmissions to `peer` (tests wire two
    /// ephemeral-port backends together after both have bound).
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = peer;
    }
}

impl PacketIo for UdpBackend {
    fn recv_burst(&mut self, max: usize) -> Result<Vec<Vec<u8>>, IoError> {
        let mut out = Vec::new();
        while out.len() < max {
            let n = match self.socket.recv(&mut self.buf) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(sockerr("recv", &e)),
            };
            let Some(datagram) = self.buf.get(..n) else {
                break;
            };
            let frame = match &self.framing {
                UdpFraming::Tunnel(tunnel) => match tunnel.parse(datagram) {
                    Ok(apna) => apna.to_vec(),
                    Err(_) => {
                        self.counters.rx_rejected += 1;
                        continue;
                    }
                },
                UdpFraming::Raw => {
                    if datagram.len() > self.framing.frame_budget() {
                        self.counters.rx_rejected += 1;
                        continue;
                    }
                    datagram.to_vec()
                }
            };
            self.counters.record_rx(frame.len());
            out.push(frame);
        }
        Ok(out)
    }

    fn send_burst(&mut self, frames: &[Vec<u8>]) -> Result<usize, IoError> {
        let mut sent = 0;
        for frame in frames {
            let payload = match &self.framing {
                UdpFraming::Tunnel(tunnel) => match tunnel.emit(frame) {
                    Ok(wrapped) => wrapped,
                    Err(_) => {
                        self.counters.tx_rejected += 1;
                        continue;
                    }
                },
                UdpFraming::Raw => {
                    if frame.len() > self.framing.frame_budget() {
                        self.counters.tx_rejected += 1;
                        continue;
                    }
                    frame.clone()
                }
            };
            match self.socket.send_to(&payload, self.peer) {
                Ok(_) => {
                    self.counters.record_tx(frame.len());
                    sent += 1;
                }
                // A full socket buffer drops the frame, like a full NIC
                // tx queue would; the burst keeps going.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.counters.tx_rejected += 1;
                }
                Err(e) => return Err(sockerr("send_to", &e)),
            }
        }
        Ok(sent)
    }

    /// Waits by peeking with `SO_RCVTIMEO` set to `timeout`.
    ///
    /// The kernel converts `SO_RCVTIMEO` to whole scheduler ticks and
    /// rounds up, so an idle wait overshoots `timeout` by up to about two
    /// ticks. On a Linux kernel with `CONFIG_HZ=250` (4 ms ticks), a 5 ms
    /// idle wait measured about 12 ms, against 5.1 ms for `poll(2)` with
    /// the same timeout. That is the ~6 ms p50 and ~12 ms p99 one-way latency
    /// of the paced two-daemon benchmark: the gateway's run loop sleeps
    /// here with traffic waiting on its other socket.
    fn poll(&mut self, timeout: Duration) -> Result<bool, IoError> {
        let mut probe = [0u8; 1];
        if timeout.is_zero() {
            return match self.socket.peek(&mut probe) {
                Ok(_) => Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(false),
                Err(e) => Err(sockerr("peek", &e)),
            };
        }
        // Briefly flip to blocking-with-timeout for the wait, then
        // restore the contract's non-blocking mode whatever happens.
        self.socket
            .set_nonblocking(false)
            .map_err(|e| sockerr("set_nonblocking", &e))?;
        let set = self.socket.set_read_timeout(Some(timeout));
        let peeked = match set {
            Ok(()) => self.socket.peek(&mut probe),
            Err(e) => Err(e),
        };
        let restore = self.socket.set_nonblocking(true);
        let ready = match peeked {
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(sockerr("peek", &e)),
        };
        restore.map_err(|e| sockerr("set_nonblocking", &e))?;
        ready
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }

    fn backend_name(&self) -> &'static str {
        "udp-encap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_wire::ipv4::Ipv4Addr;

    fn loopback_pair(framing_a: UdpFraming, framing_b: UdpFraming) -> (UdpBackend, UdpBackend) {
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut a = UdpBackend::bind(any, any, framing_a).unwrap();
        let mut b = UdpBackend::bind(any, any, framing_b).unwrap();
        let a_addr = a.local_addr().unwrap();
        let b_addr = b.local_addr().unwrap();
        a.set_peer(b_addr);
        b.set_peer(a_addr);
        (a, b)
    }

    fn recv_with_patience(io: &mut UdpBackend, max: usize) -> Vec<Vec<u8>> {
        // Loopback delivery is fast but not instantaneous; poll first.
        assert!(io.poll(Duration::from_secs(2)).unwrap());
        io.recv_burst(max).unwrap()
    }

    #[test]
    fn tunnel_framing_roundtrip() {
        let tunnel = EncapTunnel::new(Ipv4Addr([10, 0, 0, 1]), Ipv4Addr([10, 0, 0, 2]));
        let (mut a, mut b) = loopback_pair(
            UdpFraming::Tunnel(tunnel),
            UdpFraming::Tunnel(tunnel.flipped()),
        );
        let frames = vec![vec![0xAA; 64], vec![0xBB; 128]];
        assert_eq!(a.send_burst(&frames).unwrap(), 2);
        let got = recv_with_patience(&mut b, 16);
        assert_eq!(got, frames);
        assert_eq!(b.counters().rx_frames, 2);
        assert_eq!(b.counters().rx_rejected, 0);
    }

    #[test]
    fn wrong_tunnel_address_counts_rejected() {
        let good = EncapTunnel::new(Ipv4Addr([10, 0, 0, 1]), Ipv4Addr([10, 0, 0, 2]));
        let stranger = EncapTunnel::new(Ipv4Addr([192, 0, 2, 9]), Ipv4Addr([10, 0, 0, 2]));
        let (mut a, mut b) = loopback_pair(
            UdpFraming::Tunnel(stranger),
            UdpFraming::Tunnel(good.flipped()),
        );
        assert_eq!(a.send_burst(&[vec![1, 2, 3]]).unwrap(), 1);
        assert!(b.poll(Duration::from_secs(2)).unwrap());
        assert!(b.recv_burst(16).unwrap().is_empty());
        assert_eq!(b.counters().rx_rejected, 1);
    }

    #[test]
    fn raw_framing_passes_bytes_verbatim() {
        let (mut a, mut b) = loopback_pair(UdpFraming::Raw, UdpFraming::Raw);
        let frame = vec![0x45, 0x00, 0x01, 0x02];
        assert_eq!(a.send_burst(std::slice::from_ref(&frame)).unwrap(), 1);
        assert_eq!(recv_with_patience(&mut b, 4), vec![frame]);
    }

    #[test]
    fn oversized_send_is_rejected_not_errored() {
        let tunnel = EncapTunnel::new(Ipv4Addr([10, 0, 0, 1]), Ipv4Addr([10, 0, 0, 2]));
        let (mut a, _b) = loopback_pair(
            UdpFraming::Tunnel(tunnel),
            UdpFraming::Tunnel(tunnel.flipped()),
        );
        let burst = vec![vec![0u8; MAX_APNA_FRAME + 1], vec![0u8; 8]];
        assert_eq!(a.send_burst(&burst).unwrap(), 1);
        assert_eq!(a.counters().tx_rejected, 1);
        assert_eq!(a.counters().tx_frames, 1);
    }

    #[test]
    fn poll_times_out_when_idle() {
        let (mut a, _b) = loopback_pair(UdpFraming::Raw, UdpFraming::Raw);
        assert!(!a.poll(Duration::ZERO).unwrap());
        assert!(!a.poll(Duration::from_millis(30)).unwrap());
        assert!(a.recv_burst(4).unwrap().is_empty());
    }
}
