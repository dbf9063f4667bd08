//! # apna-io
//!
//! Packet I/O backends for the APNA daemons (`apna-border`,
//! `apna-gateway`): the seam between the batched border-router pipeline
//! and real network interfaces.
//!
//! The paper's prototype (§IX) runs the border router as a DPDK
//! application pulling bursts off real NICs. This crate models that seam
//! as the [`PacketIo`] trait — batch-oriented receive/transmit shaped to
//! feed [`apna_wire::PacketBatch`] directly — with two implementations:
//!
//! * [`ring::RingBackend`] — an in-memory ring pair for deterministic
//!   tests and single-process loopbacks (the conformance suite runs every
//!   backend through the same harness);
//! * [`udp::UdpBackend`] — real sockets: APNA frames travel as UDP
//!   datagrams, each carrying the Fig. 9 IPv4+GRE encapsulation
//!   ([`apna_wire::EncapTunnel`]) so the framing on the wire is exactly
//!   the paper's incremental-deployment format. An AF_XDP or raw-socket
//!   backend plugs in behind the same trait later.
//!
//! [`config`] holds the daemons' plain-text config-file parser (every
//! error carries a line number — a daemon must never panic on operator
//! input), and [`stats`] their line-oriented TCP stats/shutdown endpoint
//! (the workspace forbids the `unsafe` a SIGUSR1 handler would need).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod ring;
pub mod stats;
pub mod udp;

pub use counters::IoCounters;
pub use ring::RingBackend;
pub use stats::{StatsCommand, StatsServer};
pub use udp::{UdpBackend, UdpFraming};

use std::time::Duration;

/// Errors a packet-I/O backend can produce.
///
/// Per-*frame* problems (an oversized frame handed to
/// [`PacketIo::send_burst`], a received datagram that fails tunnel
/// decapsulation) are **not** errors: the backend counts them in its
/// [`IoCounters`] and keeps going, because one bad frame must never stall
/// a burst. `IoError` is reserved for the backend itself failing.
#[derive(Debug)]
pub enum IoError {
    /// An operating-system socket operation failed.
    Socket {
        /// Which operation (`"bind"`, `"recv"`, `"send"`, …).
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The far side of the backend is gone (ring peer dropped).
    Closed,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Socket { op, detail } => write!(f, "socket {op} failed: {detail}"),
            IoError::Closed => write!(f, "backend closed by peer"),
        }
    }
}

impl std::error::Error for IoError {}

/// A burst-oriented packet interface, the NIC-shaped seam under the
/// batched data plane.
///
/// # Contract
///
/// * **Batch semantics.** [`PacketIo::recv_burst`] returns up to `max`
///   whole APNA frames, one `Vec<u8>` each, ready to hand to
///   [`apna_wire::PacketBatch::from_packets`]; frames are delivered in
///   arrival order and never split or merged. [`PacketIo::send_burst`]
///   accepts a burst and returns how many frames it actually transmitted
///   (frames the backend rejects — e.g. over the tunnel's size budget —
///   are counted in [`IoCounters::tx_rejected`] and skipped, the rest of
///   the burst still goes out).
/// * **Blocking behavior.** `recv_burst` and `send_burst` never block:
///   an idle receive returns an empty vector. [`PacketIo::poll`] is the
///   only blocking call — it waits up to `timeout` for at least one
///   receivable frame and reports readiness, so a daemon run loop can
///   sleep without spinning.
/// * **Counter meanings.** [`PacketIo::counters`] is cumulative since
///   construction; see [`IoCounters`] for the field-by-field meaning.
///   Counters are updated by the calls above, never by background
///   threads, so a quiesced backend has stable counters.
pub trait PacketIo {
    /// Receives up to `max` frames without blocking. An empty vector
    /// means nothing was ready.
    fn recv_burst(&mut self, max: usize) -> Result<Vec<Vec<u8>>, IoError>;

    /// Transmits a burst; returns how many frames were accepted.
    /// Per-frame rejections (oversized) are counted, not errored.
    fn send_burst(&mut self, frames: &[Vec<u8>]) -> Result<usize, IoError>;

    /// Waits up to `timeout` for receive readiness. `true` means a
    /// subsequent [`PacketIo::recv_burst`] will yield at least one frame.
    ///
    /// `timeout` is a lower bound on an idle wait, not an upper one: the
    /// backend's timer decides how long an idle call really blocks. The
    /// UDP backend waits through `SO_RCVTIMEO`, which the kernel rounds
    /// up to whole scheduler ticks, so a 5 ms poll can block for ~12 ms
    /// (see [`udp::UdpBackend`]'s `poll`).
    fn poll(&mut self, timeout: Duration) -> Result<bool, IoError>;

    /// Cumulative I/O counters since the backend was created.
    fn counters(&self) -> IoCounters;

    /// Short static name for stats output (`"ring"`, `"udp-encap"`).
    fn backend_name(&self) -> &'static str;
}
