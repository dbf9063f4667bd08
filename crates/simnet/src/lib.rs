//! # apna-simnet
//!
//! A deterministic discrete-event network simulator that stands in for the
//! paper's hardware testbed (DPDK border routers, Spirent traffic
//! generator, 12×10 GbE). It provides:
//!
//! * [`clock`] — simulated time in microseconds (protocol-level timestamps
//!   remain the 1-second-granularity `apna_core::Timestamp`).
//! * [`link`] — point-to-point links with latency, bandwidth, and seeded
//!   fault injection (drop / corrupt / duplicate / reorder / jitter), in
//!   the style of the smoltcp examples' `--drop-chance` /
//!   `--corrupt-chance` options.
//! * [`adversary`] — the pluggable *active* on-path adversary: observes
//!   every inter-AS frame by parsed kind and may drop, delay, replay, or
//!   tamper with it.
//! * [`event`] — the scheduled event engine: a deterministic
//!   `(time, seq)`-ordered queue plus the [`event::Simulator`]/
//!   [`event::Event`] execution loop everything above runs on.
//! * [`scale`] — the scenario driver, for chaos runs and scale runs
//!   alike: lazy host materialization, clock-driven EphID and receiver
//!   rotation, shut-offs, heavy-tailed or long-lived workloads, and
//!   streaming invariant tallies sized for 100k+ hosts and 1M+ flows.
//! * [`workload`] — seeded heavy-tailed workload generators (Pareto flow
//!   sizes, Poisson arrivals).
//! * [`topology`] — an AS-level graph with precomputed all-pairs next-hop
//!   routing over AIDs, plus pluggable builders (chain, fat-tree,
//!   ISP-like hierarchy).
//! * [`network`] — the event loop tying [`apna_core::AsNode`]s together:
//!   packets traverse source BR egress → transit ASes → destination BR
//!   ingress → host delivery, with every verdict observable. `Network` is
//!   also the packetized [`apna_core::control::ControlTransport`]: a
//!   `HostAgent`'s intents run over it with retries and per-slot burst
//!   fallback.
//! * [`linerate`] — the analytic line-rate model used to reproduce Fig. 8
//!   (throughput vs. packet size on a 120 Gbps box).
//!
//! Determinism: all randomness is seeded, the event queue breaks ties on
//! sequence numbers, and protocol state machines are pure functions of
//! their inputs — the same seed always yields the same packet trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod clock;
pub mod event;
pub mod linerate;
pub mod link;
pub mod network;
pub mod scale;
pub mod topology;
pub mod workload;

pub use adversary::{Adversary, AdversaryAction, FnAdversary, FrameKind, TargetedAdversary};
pub use clock::SimTime;
pub use event::{Event, EventQueue, SimStats, Simulator};
pub use link::{FaultProfile, Link};
pub use network::{
    ControlDelivered, DeliveredPacket, Network, NetworkEvent, PacketFate, RetryPolicies,
    RetryPolicy,
};
pub use scale::{ScaleConfig, ScaleReport, ScaleScenario};
pub use topology::{Blueprint, Topology, TopologySpec};
pub use workload::{Arrivals, FlowSizes, Workload};
