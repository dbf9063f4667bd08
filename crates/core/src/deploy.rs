//! Deployment helpers for the long-lived daemons (`apna-border`,
//! `apna-gateway`): key-material files, config-value parsing, and
//! [`BorderCore`], one AS's border with no socket and no clock, which
//! `apna-border` and every AS of the simulator run.
//!
//! Both daemons build their [`crate::AsNode`] deterministically from a
//! 32-byte seed file ([`parse_seed_file`] / [`encode_seed_file`]), so two
//! processes given the same seed (and the same host-bootstrap sequence)
//! share identical AS key material and host registrations without any
//! bootstrap protocol on the wire — EphID validation is cryptographic,
//! not stateful, so that is all the agreement they need.

use crate::asnode::{AsNode, ServedControl};
use crate::border::{BorderRouter, Direction, DropCounters, Verdict};
use crate::control::{ControlCounters, ControlPlane};
use crate::granularity::Granularity;
use crate::hid::Hid;
use crate::time::Timestamp;
use apna_wire::{PacketBatch, ReplayMode};
use std::collections::{BTreeMap, HashMap};

/// Decodes a 64-hex-digit string into a 32-byte seed.
pub fn parse_seed_hex(s: &str) -> Result<[u8; 32], String> {
    let s = s.trim();
    let mut out = [0u8; 32];
    let mut nibbles = 0usize;
    for c in s.chars() {
        let v = match c.to_digit(16) {
            Some(v) => v as u8,
            None => return Err(format!("invalid hex digit {c:?} in seed")),
        };
        if nibbles >= 64 {
            return Err(format!(
                "seed too long: expected 64 hex digits, got {}",
                s.len()
            ));
        }
        if let Some(byte) = out.get_mut(nibbles / 2) {
            *byte = (*byte << 4) | v;
        }
        nibbles += 1;
    }
    if nibbles != 64 {
        return Err(format!(
            "seed too short: expected 64 hex digits, got {nibbles}"
        ));
    }
    Ok(out)
}

/// Encodes a seed as lowercase hex (inverse of [`parse_seed_hex`]).
#[must_use]
pub fn encode_seed_hex(seed: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in seed {
        for nibble in [b >> 4, b & 0xF] {
            s.push(char::from_digit(u32::from(nibble), 16).unwrap_or('0'));
        }
    }
    s
}

/// Parses a seed *file*: blank lines and `#` comments are ignored, and
/// exactly one remaining line must hold the 64-hex-digit seed.
pub fn parse_seed_file(text: &str) -> Result<[u8; 32], String> {
    let mut seed_line: Option<&str> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if seed_line.is_some() {
            return Err("seed file has more than one non-comment line".to_string());
        }
        seed_line = Some(line);
    }
    match seed_line {
        Some(line) => parse_seed_hex(line),
        None => Err("seed file has no seed line".to_string()),
    }
}

/// Renders a seed file with a header comment (inverse of
/// [`parse_seed_file`]).
#[must_use]
pub fn encode_seed_file(seed: &[u8; 32]) -> String {
    format!(
        "# APNA AS master seed: all AS key material derives from this value.\n\
         # Keep it secret; any process holding it can open every EphID of the AS.\n\
         {}\n",
        encode_seed_hex(seed)
    )
}

/// Parses a granularity config value (§VIII-A regime names).
pub fn parse_granularity(s: &str) -> Result<Granularity, String> {
    match s.trim() {
        "per-host" => Ok(Granularity::PerHost),
        "per-application" => Ok(Granularity::PerApplication),
        "per-flow" => Ok(Granularity::PerFlow),
        "per-packet" => Ok(Granularity::PerPacket),
        other => Err(format!(
            "unknown granularity {other:?} (expected per-host, per-application, per-flow, or per-packet)"
        )),
    }
}

/// Parses a replay-mode config value.
pub fn parse_replay_mode(s: &str) -> Result<ReplayMode, String> {
    match s.trim() {
        "disabled" => Ok(ReplayMode::Disabled),
        "nonce" => Ok(ReplayMode::NonceExtension),
        other => Err(format!(
            "unknown replay mode {other:?} (expected disabled or nonce)"
        )),
    }
}

/// The border router of one AS (Fig. 4, §IV-D3) with the I/O taken out:
/// no socket, no clock. It owns its node. `apna-border` feeds it bursts
/// through [`BorderCore::step`]; the simulator runs one per AS through the
/// halves `step` composes, carrying frames over its own links in between.
pub struct BorderCore {
    /// The AS this border serves.
    pub node: AsNode,
    /// The router it runs: a clone of `node.br`, filters as configured.
    pub router: BorderRouter,
    mode: ReplayMode,
    shards: usize,
    first_reply_nonce: u64,
    reply_nonces: HashMap<Hid, u64>,
    /// Bursts `step` processed, re-injected reply bursts included.
    pub bursts: u64,
    /// Frames that passed `step`'s egress toward this AS.
    pub egress_passed: u64,
    /// Frames that passed `step`'s egress toward another AS: counted, not
    /// sent (the daemon has no inter-AS peer).
    pub forwarded_foreign: u64,
    /// Egress and ingress drops by reason.
    pub drops: DropCounters,
    /// Control requests served and replies sent, per kind.
    pub control: ControlCounters,
    /// Control packets refused (see [`crate::asnode::ServedControl`]).
    pub control_rejected: u64,
}

/// What [`BorderCore::ingress`] made of one burst.
pub struct Ingress<T> {
    /// Each tag and verdict in burst order, with the frame unless in `services`.
    pub frames: Vec<(T, Verdict, Option<Vec<u8>>)>,
    /// Frames for the AS's service endpoints, per endpoint in HID order.
    pub services: BTreeMap<Hid, Vec<(T, Vec<u8>)>>,
}

impl BorderCore {
    /// A core running `router` over `node`, each direction split across
    /// `shards` worker threads; every service endpoint numbers its reply
    /// nonces from `first_reply_nonce`.
    #[must_use]
    pub fn new(
        node: AsNode,
        router: BorderRouter,
        mode: ReplayMode,
        shards: usize,
        first_reply_nonce: u64,
    ) -> BorderCore {
        BorderCore {
            node,
            router,
            mode,
            shards,
            first_reply_nonce,
            reply_nonces: HashMap::new(),
            bursts: 0,
            egress_passed: 0,
            forwarded_foreign: 0,
            drops: DropCounters::default(),
            control: ControlCounters::default(),
            control_rejected: 0,
        }
    }

    /// Runs one burst received at `now`: egress over all of it, survivors
    /// addressed to this AS through ingress, deliveries to a service
    /// endpoint served per endpoint in HID order by [`BorderCore::serve`]
    /// and the replies run as a burst of their own. Returns every other
    /// delivery, in sending order.
    pub fn step(&mut self, now: Timestamp, frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.burst(now, frames, &mut out);
        out
    }

    fn burst(&mut self, now: Timestamp, frames: Vec<Vec<u8>>, out: &mut Vec<Vec<u8>>) {
        if frames.is_empty() {
            return;
        }
        self.bursts += 1;
        let aid = self.node.aid();
        let mut local = Vec::new();
        for (frame, verdict) in self.egress(now, frames) {
            match verdict {
                Verdict::ForwardInter { dst_aid } if dst_aid == aid => local.push(((), frame)),
                Verdict::ForwardInter { .. } => self.forwarded_foreign += 1,
                Verdict::DeliverLocal { .. } | Verdict::Drop(_) => {}
            }
        }
        self.egress_passed += local.len() as u64;

        let ingress = self.ingress(now, local);
        for (_, verdict, frame) in ingress.frames {
            if let (Verdict::DeliverLocal { .. }, Some(frame)) = (verdict, frame) {
                out.push(frame);
            }
        }
        for (hid, group) in ingress.services {
            let frames: Vec<Vec<u8>> = group.into_iter().map(|(_, frame)| frame).collect();
            let served = self.serve(now, hid, &frames, None);
            self.burst(now, served.replies, out);
        }
    }

    /// Egress (Fig. 4, bottom) over one burst: frames with verdicts, in order.
    pub fn egress(&mut self, now: Timestamp, frames: Vec<Vec<u8>>) -> Vec<(Vec<u8>, Verdict)> {
        self.direction(Direction::Egress, frames, now)
    }

    /// Ingress (Fig. 4, top) over one burst of tagged frames; deliveries to
    /// a service endpoint are set aside for [`BorderCore::serve`].
    pub fn ingress<T: Copy>(&mut self, now: Timestamp, tagged: Vec<(T, Vec<u8>)>) -> Ingress<T> {
        let (tags, input): (Vec<T>, Vec<Vec<u8>>) = tagged.into_iter().unzip();
        let mut frames = Vec::new();
        let mut services: BTreeMap<Hid, Vec<(T, Vec<u8>)>> = BTreeMap::new();
        let paired = self.direction(Direction::Ingress, input, now);
        for (tag, (frame, verdict)) in tags.into_iter().zip(paired) {
            match verdict {
                Verdict::DeliverLocal { hid } if self.node.service_by_hid(hid).is_some() => {
                    services.entry(hid).or_default().push((tag, frame));
                    frames.push((tag, verdict, None));
                }
                _ => frames.push((tag, verdict, Some(frame))),
            }
        }
        Ingress { frames, services }
    }

    /// Serves `frames` at service endpoint `hid` ([`AsNode::serve_control_burst`]),
    /// with `zone`, if any, answering at the DNS endpoint. Tallies requests,
    /// replies and refusals; reply nonces count on per endpoint.
    pub fn serve(
        &mut self,
        now: Timestamp,
        hid: Hid,
        frames: &[Vec<u8>],
        zone: Option<&dyn ControlPlane>,
    ) -> ServedControl {
        let (node, first) = (&self.node, self.first_reply_nonce);
        let at_dns = hid == node.dns_endpoint.hid;
        let cp = zone.filter(|_| at_dns).unwrap_or(node);
        let nonce = self.reply_nonces.entry(hid).or_insert(first);
        let served = node.serve_control_burst(hid, frames, cp, self.mode, nonce, now);
        self.control_rejected += served.rejected;
        for &kind in served.requests.iter().flatten().chain(&served.reply_kinds) {
            self.control.record(kind);
        }
        served
    }

    /// `frames` through one direction, split across the shards (each worker
    /// a router clone over the shared AS state): each frame with its
    /// verdict, in input order. Drops are tallied.
    fn direction(
        &mut self,
        direction: Direction,
        frames: Vec<Vec<u8>>,
        now: Timestamp,
    ) -> Vec<(Vec<u8>, Verdict)> {
        let (router, mode, shards) = (&self.router, self.mode, self.shards);
        let chunks = if shards <= 1 || frames.len() <= 1 {
            vec![run_chunk(router, direction, frames, mode, now)]
        } else {
            let chunk_size = frames.len().div_ceil(shards);
            let mut rest = frames.into_iter();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|_| rest.by_ref().take(chunk_size).collect::<Vec<_>>())
                    .filter(|chunk| !chunk.is_empty())
                    .map(|chunk| {
                        let worker = router.clone();
                        scope.spawn(move || run_chunk(&worker, direction, chunk, mode, now))
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            })
        };
        let mut paired = Vec::new();
        for (p, d) in chunks {
            paired.extend(p);
            self.drops.merge(&d);
        }
        paired
    }
}

fn run_chunk(
    router: &BorderRouter,
    direction: Direction,
    frames: Vec<Vec<u8>>,
    mode: ReplayMode,
    now: Timestamp,
) -> (Vec<(Vec<u8>, Verdict)>, DropCounters) {
    let mut batch = PacketBatch::from_packets(mode, frames);
    let verdicts = router.process_batch(direction, &mut batch, now);
    let drops = *verdicts.counters();
    let frames = batch.into_packets().into_iter();
    (frames.zip(verdicts.into_verdicts()).collect(), drops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{EphIdUsage, HostAgent};
    use crate::asnode::AsNode;
    use crate::directory::AsDirectory;
    use apna_wire::Aid;

    #[test]
    fn seed_hex_roundtrip() {
        let seed: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(7));
        let hex = encode_seed_hex(&seed);
        assert_eq!(hex.len(), 64);
        assert_eq!(parse_seed_hex(&hex).unwrap(), seed);
    }

    #[test]
    fn seed_file_roundtrip_and_validation() {
        let seed = [0xA5u8; 32];
        let file = encode_seed_file(&seed);
        assert_eq!(parse_seed_file(&file).unwrap(), seed);
        assert!(parse_seed_file("# only comments\n").is_err());
        assert!(parse_seed_file("abcd\nabcd\n").is_err());
        assert!(parse_seed_hex("zz").is_err());
        assert!(parse_seed_hex(&"0".repeat(63)).is_err());
        assert!(parse_seed_hex(&"0".repeat(65)).is_err());
    }

    #[test]
    fn config_value_parsers() {
        assert_eq!(parse_granularity("per-flow").unwrap(), Granularity::PerFlow);
        assert_eq!(
            parse_granularity(" per-host ").unwrap(),
            Granularity::PerHost
        );
        assert!(parse_granularity("flowish").is_err());
        assert_eq!(parse_replay_mode("disabled").unwrap(), ReplayMode::Disabled);
        assert_eq!(
            parse_replay_mode("nonce").unwrap(),
            ReplayMode::NonceExtension
        );
        assert!(parse_replay_mode("on").is_err());
    }

    #[test]
    fn mirrored_seed_construction_agrees_across_nodes() {
        // The property the two daemons rely on: same seed + same attach
        // sequence ⇒ the second node's border router validates packets
        // built against the first node.
        let seed = [0x33u8; 32];
        let dir_a = AsDirectory::new();
        let node_a = AsNode::from_seed(Aid(7), seed, &dir_a, Timestamp::EPOCH);
        let dir_b = AsDirectory::new();
        let node_b = AsNode::from_seed(Aid(7), seed, &dir_b, Timestamp::EPOCH);

        let mut agent = HostAgent::attach(
            &node_a,
            Granularity::PerFlow,
            ReplayMode::Disabled,
            Timestamp::EPOCH,
            77,
        )
        .unwrap();
        // Mirror only the bootstrap on node B; the data EphID acquired on
        // node A is never communicated to B.
        let _mirror =
            crate::host::Host::attach(&node_b, ReplayMode::Disabled, Timestamp::EPOCH, 77).unwrap();

        let idx = agent
            .acquire(&node_a, EphIdUsage::DATA_SHORT, Timestamp::EPOCH)
            .unwrap();
        let dst = agent.owned_ephid(idx).addr(Aid(7));
        let wire = agent.build_raw_packet(idx, dst, b"cross-process");
        let verdict = node_b
            .br
            .process_outgoing(&wire, ReplayMode::Disabled, Timestamp::EPOCH);
        assert!(
            matches!(verdict, crate::border::Verdict::ForwardInter { dst_aid } if dst_aid == Aid(7)),
            "node B rejected a node-A packet: {verdict:?}"
        );
    }
}
