//! Differential test of the border router's one Fig. 4 pipeline.
//!
//! `BorderRouter::process_batch` — and `process_outgoing`/
//! `process_incoming`, its batch-of-one wrappers — must yield exactly the
//! `Verdict` a per-packet reading of Fig. 4 gives, including every
//! [`DropReason`] and the stateful §VIII-D replay filter, on arbitrary
//! packet mixes. The reference is [`Fig4Model`], an independent oracle
//! built only from public pieces: `ApnaHeader::parse`, the single-EphID
//! `ephid::open`, the AS's revocation list and host table, the scalar
//! `CmacAes128::verify` and one `ReplayWindow` per source EphID. It shares
//! none of the router's stages, so a defect in any of them (the batched
//! EphID sweeps, the lane CMAC, the sharded replay filter, the
//! validity checks) shows up as a disagreement.

use apna_bench::BenchWorld;
use apna_core::asnode::AsInfra;
use apna_core::border::{Direction, DropReason, Verdict};
use apna_core::cert::CertKind;
use apna_core::ephid;
use apna_core::keys::HostAsKey;
use apna_core::replay::ReplayWindow;
use apna_core::time::ExpiryClass;
use apna_core::Timestamp;
use apna_crypto::x25519::StaticSecret;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, PacketBatch, ReplayMode};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::HashMap;

/// All verdicts are compared at this protocol time: late enough that the
/// Short-class EphID (issued at t=0, lives 900 s) has expired while the
/// Long-class ones (86 400 s) are in force.
const NOW: Timestamp = Timestamp(1000);

/// The kinds of packet the generator mixes (egress direction).
const EGRESS_KINDS: u8 = 7;

struct Fixture {
    world: BenchWorld,
    /// Long-class EphID of a second, *revoked* host → UnknownHost.
    ephid_ghost_host: EphIdBytes,
    kha_ghost: HostAsKey,
    /// Short-class EphID of the main host, expired at `NOW`.
    ephid_expired: EphIdBytes,
    /// Long-class EphID of the main host, present in `revoked_ids`.
    ephid_revoked: EphIdBytes,
}

fn fixture() -> Fixture {
    let world = BenchWorld::new();
    let node = &world.node;

    // Second host, bootstrapped then HID-revoked: its (valid, unexpired)
    // EphID authenticates but fails the host_info lookup.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let ghost_secret = StaticSecret::random_from_rng(&mut rng);
    let (ghost_hid, _) = node
        .rs
        .bootstrap(&ghost_secret.public_key(), Timestamp(0))
        .unwrap();
    let kha_ghost =
        HostAsKey::from_dh(&ghost_secret.diffie_hellman(&node.infra.keys.dh_public())).unwrap();
    let (ephid_ghost_host, _) = node.ms.issue(
        ghost_hid,
        [5; 32],
        [6; 32],
        CertKind::Data,
        ExpiryClass::Long,
        Timestamp(0),
    );
    node.infra.host_db.revoke_hid(ghost_hid);

    let (ephid_expired, _) = node.ms.issue(
        world.hid,
        [7; 32],
        [8; 32],
        CertKind::Data,
        ExpiryClass::Short,
        Timestamp(0),
    );
    let (ephid_revoked, _) = node.ms.issue(
        world.hid,
        [9; 32],
        [10; 32],
        CertKind::Data,
        ExpiryClass::Long,
        Timestamp(0),
    );
    node.infra.revoked.insert(ephid_revoked, Timestamp(90_000));

    Fixture {
        world,
        ephid_ghost_host,
        kha_ghost,
        ephid_expired,
        ephid_revoked,
    }
}

impl Fixture {
    fn valid_ephid(&self) -> EphIdBytes {
        self.world.host.owned_ephid(self.world.ephid_idx).ephid()
    }

    /// Builds one egress packet of the given kind. `nonce` is drawn from a
    /// tiny domain so the generator produces genuine replays.
    fn egress_packet(&self, kind: u8, nonce: u64, payload_byte: u8) -> Vec<u8> {
        let payload = [payload_byte; 24];
        let (src_ephid, kha) = match kind {
            3 => (self.ephid_expired, &self.world.kha),
            4 => (self.ephid_revoked, &self.world.kha),
            6 => (self.ephid_ghost_host, &self.kha_ghost),
            _ => (self.valid_ephid(), &self.world.kha),
        };
        let mut header = ApnaHeader::new(
            HostAddr::new(Aid(1), src_ephid),
            HostAddr::new(Aid(2), EphIdBytes([0x77; 16])),
        )
        .with_nonce(nonce);
        let mac: [u8; 8] = kha.packet_cmac().mac_truncated(&header.mac_input(&payload));
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(&payload);
        match kind {
            1 => wire.truncate(10), // Malformed
            2 => wire[4] ^= 1,      // BadEphId (EphID bit flip)
            5 => wire[40] ^= 0xFF,  // BadPacketMac (MAC bit flip)
            _ => {}
        }
        wire
    }

    /// Builds one ingress packet: kind selects destination state.
    fn ingress_packet(&self, kind: u8, payload_byte: u8) -> Vec<u8> {
        let dst = match kind {
            0 => HostAddr::new(Aid(1), self.valid_ephid()), // DeliverLocal
            1 => HostAddr::new(Aid(9), EphIdBytes([0x66; 16])), // transit
            2 => HostAddr::new(Aid(1), EphIdBytes([0x44; 16])), // BadEphId
            3 => HostAddr::new(Aid(1), self.ephid_expired), // Expired
            4 => HostAddr::new(Aid(1), self.ephid_revoked), // Revoked
            _ => HostAddr::new(Aid(1), self.ephid_ghost_host), // UnknownHost
        };
        let header = ApnaHeader::new(HostAddr::new(Aid(2), EphIdBytes([0x55; 16])), dst)
            .with_nonce(u64::from(payload_byte));
        let mut wire = header.serialize();
        if kind == 6 {
            wire.truncate(3); // Malformed
        } else {
            wire.extend_from_slice(&[payload_byte; 16]);
        }
        wire
    }
}

/// Fig. 4 read one packet at a time, straight from the paper: "one
/// decryption, two table lookups, and one MAC verification" (§V-B2), then
/// the in-network replay window on egress.
struct Fig4Model<'a> {
    infra: &'a AsInfra,
    /// The §VIII-D filter (the properties run the router with it on):
    /// one window per source EphID, updated only by packets whose MAC
    /// verified.
    windows: HashMap<EphIdBytes, ReplayWindow>,
}

impl<'a> Fig4Model<'a> {
    fn new(infra: &'a AsInfra) -> Fig4Model<'a> {
        Fig4Model {
            infra,
            windows: HashMap::new(),
        }
    }

    /// Bottom of Fig. 4: source-AS enforcement.
    fn egress(&mut self, wire: &[u8], mode: ReplayMode) -> Verdict {
        let Ok((header, payload)) = ApnaHeader::parse(wire, mode) else {
            return Verdict::Drop(DropReason::Malformed);
        };
        let src = header.src.ephid;
        let Ok(plain) = ephid::open(&self.infra.keys, &src) else {
            return Verdict::Drop(DropReason::BadEphId);
        };
        if plain.exp_time < NOW {
            return Verdict::Drop(DropReason::Expired);
        }
        if self.infra.revoked.contains(&src) {
            return Verdict::Drop(DropReason::Revoked);
        }
        let Some(cmac) = self.infra.host_db.cmac_of_valid(plain.hid) else {
            return Verdict::Drop(DropReason::UnknownHost);
        };
        if !cmac.verify(&header.mac_input(payload), &header.mac) {
            return Verdict::Drop(DropReason::BadPacketMac);
        }
        if let Some(nonce) = header.nonce {
            if !self.windows.entry(src).or_default().check_and_update(nonce) {
                return Verdict::Drop(DropReason::Replayed);
            }
        }
        Verdict::ForwardInter {
            dst_aid: header.dst.aid,
        }
    }

    /// Top of Fig. 4: transit forwards on the AID; the destination AS
    /// delivers to the HID behind a valid destination EphID.
    fn ingress(&self, wire: &[u8], mode: ReplayMode) -> Verdict {
        let Ok((header, _)) = ApnaHeader::parse(wire, mode) else {
            return Verdict::Drop(DropReason::Malformed);
        };
        if header.dst.aid != self.infra.aid {
            return Verdict::ForwardInter {
                dst_aid: header.dst.aid,
            };
        }
        let dst = header.dst.ephid;
        let Ok(plain) = ephid::open(&self.infra.keys, &dst) else {
            return Verdict::Drop(DropReason::BadEphId);
        };
        if plain.exp_time < NOW {
            return Verdict::Drop(DropReason::Expired);
        }
        if self.infra.revoked.contains(&dst) {
            return Verdict::Drop(DropReason::Revoked);
        }
        if !self.infra.host_db.is_valid(plain.hid) {
            return Verdict::Drop(DropReason::UnknownHost);
        }
        Verdict::DeliverLocal { hid: plain.hid }
    }
}

/// The egress generator must reach every verdict arm, on the router and
/// on the model alike, or the egress properties below would be vacuous.
#[test]
fn generator_covers_every_drop_reason() {
    let f = fixture();
    let mut br = f.world.node.br.clone();
    br.enable_replay_filter();
    let mut model = Fig4Model::new(&f.world.node.infra);
    let mode = ReplayMode::NonceExtension;
    let expect = [
        Verdict::ForwardInter { dst_aid: Aid(2) },
        Verdict::Drop(DropReason::Malformed),
        Verdict::Drop(DropReason::BadEphId),
        Verdict::Drop(DropReason::Expired),
        Verdict::Drop(DropReason::Revoked),
        Verdict::Drop(DropReason::BadPacketMac),
        Verdict::Drop(DropReason::UnknownHost),
    ];
    for (kind, want) in (0u8..).zip(expect) {
        let wire = f.egress_packet(kind, 1, 7);
        assert_eq!(
            br.process_outgoing(&wire, mode, NOW),
            want,
            "router kind {kind}"
        );
        assert_eq!(model.egress(&wire, mode), want, "model kind {kind}");
    }
    // A repeated (kind 0, nonce) pair is a replay.
    let wire = f.egress_packet(0, 1, 7);
    let replayed = Verdict::Drop(DropReason::Replayed);
    assert_eq!(br.process_outgoing(&wire, mode, NOW), replayed);
    assert_eq!(model.egress(&wire, mode), replayed);
}

/// The ingress twin: kinds 0–6 reach delivery, transit and every ingress
/// drop reason, on the router and on the model alike.
#[test]
fn ingress_generator_covers_every_arm() {
    let f = fixture();
    let br = &f.world.node.br;
    let model = Fig4Model::new(&f.world.node.infra);
    let mode = ReplayMode::NonceExtension;
    let expect = [
        Verdict::DeliverLocal { hid: f.world.hid },
        Verdict::ForwardInter { dst_aid: Aid(9) },
        Verdict::Drop(DropReason::BadEphId),
        Verdict::Drop(DropReason::Expired),
        Verdict::Drop(DropReason::Revoked),
        Verdict::Drop(DropReason::UnknownHost),
        Verdict::Drop(DropReason::Malformed),
    ];
    for (kind, want) in (0u8..).zip(expect) {
        let wire = f.ingress_packet(kind, 7);
        assert_eq!(
            br.process_incoming(&wire, mode, NOW),
            want,
            "router kind {kind}"
        );
        assert_eq!(model.ingress(&wire, mode), want, "model kind {kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ∀ egress packet mixes (with the §VIII-D replay filter on): the
    /// model, the raw wrapper and `process_batch` agree verdict for
    /// verdict, the counters match the verdict histogram, and the replay
    /// filter ends up tracking the same source EphIDs as the model.
    #[test]
    fn egress_batch_equals_scalar(
        specs in proptest::collection::vec(
            (0u8..EGRESS_KINDS, 0u64..4, any::<u8>()),
            1..48,
        ),
    ) {
        let f = fixture();
        let packets: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(kind, nonce, pb)| f.egress_packet(kind, nonce, pb))
            .collect();

        // Two router clones over the same AS state, each with its own
        // (initially empty) replay filter.
        let mut br_raw = f.world.node.br.clone();
        br_raw.enable_replay_filter();
        let mut br_batch = f.world.node.br.clone();
        br_batch.enable_replay_filter();
        let mut model = Fig4Model::new(&f.world.node.infra);

        let mode = ReplayMode::NonceExtension;
        let expected: Vec<Verdict> = packets.iter().map(|w| model.egress(w, mode)).collect();
        let raw_verdicts: Vec<Verdict> = packets
            .iter()
            .map(|w| br_raw.process_outgoing(w, mode, NOW))
            .collect();
        let mut batch = PacketBatch::from_packets(mode, packets);
        let batched = br_batch.process_batch(Direction::Egress, &mut batch, NOW);

        prop_assert_eq!(&expected, &raw_verdicts);
        prop_assert_eq!(&expected, &batched.verdicts().to_vec());

        // Counters are exactly the drop histogram of the verdicts.
        for reason in DropReason::ALL {
            let count = expected
                .iter()
                .filter(|v| matches!(v, Verdict::Drop(r) if *r == reason))
                .count() as u64;
            prop_assert_eq!(batched.counters().count(reason), count);
        }
        prop_assert_eq!(
            batched.passed(),
            expected.iter().filter(|v| v.is_forward()).count() as u64
        );

        // The stateful stage converged to the same filter population.
        prop_assert_eq!(model.windows.len(), br_batch.replay_filter_entries());
        prop_assert_eq!(model.windows.len(), br_raw.replay_filter_entries());
    }

    /// ∀ ingress packet mixes: the same three-way agreement (ingress is
    /// stateless, so one router serves both entry points).
    #[test]
    fn ingress_batch_equals_scalar(
        specs in proptest::collection::vec((0u8..7, any::<u8>()), 1..48),
    ) {
        let f = fixture();
        let packets: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(kind, pb)| f.ingress_packet(kind, pb))
            .collect();
        let br = &f.world.node.br;
        let model = Fig4Model::new(&f.world.node.infra);

        let mode = ReplayMode::NonceExtension;
        let expected: Vec<Verdict> = packets.iter().map(|w| model.ingress(w, mode)).collect();
        let raw_verdicts: Vec<Verdict> = packets
            .iter()
            .map(|w| br.process_incoming(w, mode, NOW))
            .collect();
        let mut batch = PacketBatch::from_packets(mode, packets);
        let batched = br.process_batch(Direction::Ingress, &mut batch, NOW);

        prop_assert_eq!(&expected, &raw_verdicts);
        prop_assert_eq!(&expected, &batched.verdicts().to_vec());
        for reason in DropReason::ALL {
            let count = expected
                .iter()
                .filter(|v| matches!(v, Verdict::Drop(r) if *r == reason))
                .count() as u64;
            prop_assert_eq!(batched.counters().count(reason), count);
        }
    }

    /// Splitting a stream into arbitrary batch boundaries never changes
    /// the verdicts: process_batch(whole) == concat(process_batch(chunks)).
    #[test]
    fn batch_boundaries_are_invisible(
        specs in proptest::collection::vec(
            (0u8..EGRESS_KINDS, 0u64..4, any::<u8>()),
            2..40,
        ),
        chunk in 1usize..9,
    ) {
        let f = fixture();
        let packets: Vec<Vec<u8>> = specs
            .iter()
            .map(|&(kind, nonce, pb)| f.egress_packet(kind, nonce, pb))
            .collect();
        let mode = ReplayMode::NonceExtension;

        let mut br_whole = f.world.node.br.clone();
        br_whole.enable_replay_filter();
        let mut whole = PacketBatch::from_packets(mode, packets.clone());
        let whole_verdicts = br_whole
            .process_batch(Direction::Egress, &mut whole, NOW)
            .into_verdicts();

        let mut br_chunks = f.world.node.br.clone();
        br_chunks.enable_replay_filter();
        let mut chunked_verdicts = Vec::new();
        for piece in packets.chunks(chunk) {
            let mut b = PacketBatch::from_packets(mode, piece.to_vec());
            chunked_verdicts
                .extend(br_chunks.process_batch(Direction::Egress, &mut b, NOW).into_verdicts());
        }
        prop_assert_eq!(whole_verdicts, chunked_verdicts);
    }
}
