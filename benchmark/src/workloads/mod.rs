//! The seven workloads (README.md says why each exists) behind one
//! interface: set up, run a window, finish.

pub mod border;
pub mod issue;
pub mod pair;
pub mod simnet;
pub mod trip;

use crate::harness::{Ctx, Window};
use crate::json::Value;
use crate::probes::Profile;
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "pair_udp_paced",
    "trip_ring_small",
    "trip_ring_large",
    "border_hostile",
    "issue_durable",
    "issue_volatile",
    "simnet_isp",
];

/// The `&'static` spelling of a workload name, if it is one.
pub fn canonical(name: &str) -> Option<&'static str> {
    NAMES.iter().copied().find(|n| *n == name)
}

/// A set-up world of any workload.
pub enum World {
    /// `pair_udp_paced`
    Pair(Box<pair::PairWorld>),
    /// `trip_ring_small`, `trip_ring_large`
    Trip(Box<trip::TripWorld>),
    /// `border_hostile`
    Border(Box<border::HostileWorld>),
    /// `issue_durable` (one thread), `issue_volatile` (two)
    Issue(Box<issue::IssueWorld>, usize),
    /// `simnet_isp`
    Simnet(simnet::SimnetWorld),
}

impl World {
    /// Builds `ctx.workload`'s world (several times; see
    /// `harness::setup_median`) and returns it with `setup_s`.
    pub fn setup(ctx: &Ctx) -> Result<(World, f64), String> {
        match ctx.workload {
            "pair_udp_paced" => pair::setup(ctx).map(|(w, s)| (World::Pair(Box::new(w)), s)),
            "trip_ring_small" => {
                trip::setup(ctx, trip::SMALL_PAYLOAD).map(|(w, s)| (World::Trip(Box::new(w)), s))
            }
            "trip_ring_large" => {
                trip::setup(ctx, trip::LARGE_PAYLOAD).map(|(w, s)| (World::Trip(Box::new(w)), s))
            }
            "border_hostile" => border::setup(ctx).map(|(w, s)| (World::Border(Box::new(w)), s)),
            "issue_durable" => {
                issue::setup(ctx, true).map(|(w, s)| (World::Issue(Box::new(w), 1), s))
            }
            "issue_volatile" => {
                issue::setup(ctx, false).map(|(w, s)| (World::Issue(Box::new(w), 2), s))
            }
            "simnet_isp" => simnet::setup(ctx).map(|(w, s)| (World::Simnet(w), s)),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// Runs one window.
    pub fn run(&mut self, ctx: &Ctx, tracer: Tracer) -> Result<Window, String> {
        match self {
            World::Pair(w) => w.run(ctx, tracer),
            World::Trip(w) => w.run(ctx, tracer),
            World::Border(w) => w.run(ctx, tracer),
            World::Issue(w, threads) => w.run(ctx, tracer, *threads),
            World::Simnet(w) => w.run(ctx, tracer),
        }
    }

    /// Tears the world down (stopping the daemons is itself checked) and
    /// returns what the result's `meta` should say about it.
    pub fn finish(self) -> Result<Value, String> {
        match self {
            World::Pair(w) => {
                let configs = w.configs();
                w.finish()?;
                Ok(Value::obj()
                    .with(
                        "interface",
                        "127.0.0.1: the host's loopback interface, not a link",
                    )
                    .with("daemon_configs", configs))
            }
            World::Trip(_) | World::Border(_) | World::Issue(..) | World::Simnet(_) => {
                Ok(Value::obj())
            }
        }
    }
}

/// The input shape the probe suite mirrors for each workload.
pub fn profile(workload: &str) -> Profile {
    let base = Profile {
        payload_len: pair::PAYLOAD,
        hosts_per_burst: 2,
        replay_filter: false,
        revoked_entries: 0,
    };
    match workload {
        "trip_ring_small" => Profile {
            payload_len: trip::SMALL_PAYLOAD,
            ..base
        },
        "trip_ring_large" => Profile {
            payload_len: trip::LARGE_PAYLOAD,
            ..base
        },
        "border_hostile" => Profile {
            payload_len: border::PACKET_LEN - 56,
            hosts_per_burst: border::BURST,
            replay_filter: true,
            revoked_entries: border::PRELOADED_REVOCATIONS,
        },
        // Control frames and simulator packets are small.
        "issue_durable" | "issue_volatile" => Profile {
            payload_len: 128,
            ..base
        },
        "simnet_isp" => Profile {
            payload_len: 16,
            ..base
        },
        _ => base,
    }
}
