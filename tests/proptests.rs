//! Property-based tests (proptest) over the core data structures and
//! invariants: codecs must round-trip for all inputs, authenticators must
//! reject all mutations, and stateful guards (replay windows, pools) must
//! hold their invariants under arbitrary operation sequences.

use apna_core::ephid::{self, EphIdPlain};
use apna_core::granularity::{EphIdPool, Granularity, SlotDecision};
use apna_core::hid::Hid;
use apna_core::keys::AsKeys;
use apna_core::replay::ReplayWindow;
use apna_core::time::Timestamp;
use apna_crypto::cmac::CmacAes128;
use apna_crypto::AesGcm128;
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use proptest::prelude::*;

fn as_keys() -> AsKeys {
    AsKeys::from_seed(&[7u8; 32])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----------------------------------------------------------------
    // EphID construction (Fig. 6)
    // ----------------------------------------------------------------

    /// ∀ (hid, exp, iv): seal→open is the identity.
    #[test]
    fn ephid_roundtrip(hid in any::<u32>(), exp in any::<u32>(), iv in any::<[u8; 4]>()) {
        let keys = as_keys();
        let plain = EphIdPlain { hid: Hid(hid), exp_time: Timestamp(exp) };
        let sealed = ephid::seal(&keys, plain, iv);
        prop_assert_eq!(ephid::open(&keys, &sealed).unwrap(), plain);
        prop_assert_eq!(sealed.iv(), iv);
    }

    /// ∀ single-bit mutations: the EphID MAC rejects.
    #[test]
    fn ephid_any_flip_rejected(
        hid in any::<u32>(),
        exp in any::<u32>(),
        iv in any::<[u8; 4]>(),
        byte in 0usize..16,
        bit in 0u8..8,
    ) {
        let keys = as_keys();
        let sealed = ephid::seal(&keys, EphIdPlain { hid: Hid(hid), exp_time: Timestamp(exp) }, iv);
        let mut forged = *sealed.as_bytes();
        forged[byte] ^= 1 << bit;
        prop_assert!(ephid::open(&keys, &EphIdBytes(forged)).is_err());
    }

    /// ∀ random 16-byte strings: negligible forgery probability (none of
    /// the sampled values may authenticate).
    #[test]
    fn ephid_random_bytes_rejected(bytes in any::<[u8; 16]>()) {
        prop_assert!(ephid::open(&as_keys(), &EphIdBytes(bytes)).is_err());
    }

    // ----------------------------------------------------------------
    // Wire formats
    // ----------------------------------------------------------------

    /// ∀ header fields: serialize→parse is the identity, and the payload
    /// split is exact, in both replay modes.
    #[test]
    fn header_roundtrip(
        src_aid in any::<u32>(),
        dst_aid in any::<u32>(),
        src_eph in any::<[u8; 16]>(),
        dst_eph in any::<[u8; 16]>(),
        mac in any::<[u8; 8]>(),
        nonce in proptest::option::of(any::<u64>()),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut h = ApnaHeader::new(
            HostAddr::new(Aid(src_aid), EphIdBytes(src_eph)),
            HostAddr::new(Aid(dst_aid), EphIdBytes(dst_eph)),
        );
        if let Some(n) = nonce { h = h.with_nonce(n); }
        h.set_mac(mac);
        let mode = if nonce.is_some() { ReplayMode::NonceExtension } else { ReplayMode::Disabled };
        let mut wire = h.serialize();
        wire.extend_from_slice(&payload);
        let (parsed, rest) = ApnaHeader::parse(&wire, mode).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(rest, &payload[..]);
    }

    /// The packet MAC covers every byte: flipping any bit of (header
    /// without MAC field) ∪ payload changes the MAC input.
    #[test]
    fn mac_input_sensitivity(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip in 0usize..104,
    ) {
        let h = ApnaHeader::new(
            HostAddr::new(Aid(1), EphIdBytes([1; 16])),
            HostAddr::new(Aid(2), EphIdBytes([2; 16])),
        );
        let input = h.mac_input(&payload);
        let idx = flip % input.len();
        // Positions 40..48 are the zeroed MAC field — flips there are the
        // one intentionally-excluded region.
        prop_assume!(!(40..48).contains(&idx));
        let cmac = CmacAes128::new(&[9; 16]);
        let mut mutated = input.clone();
        mutated[idx] ^= 1;
        prop_assert_ne!(cmac.mac(&input), cmac.mac(&mutated));
    }

    // ----------------------------------------------------------------
    // AEAD (data privacy)
    // ----------------------------------------------------------------

    /// ∀ payload/aad: GCM round-trips, and ciphertext length is
    /// plaintext + 16.
    #[test]
    fn gcm_roundtrip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aead = AesGcm128::new(&key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        prop_assert_eq!(sealed.len(), pt.len() + 16);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    /// ∀ mutations of the sealed blob: authentication fails.
    #[test]
    fn gcm_any_mutation_rejected(
        pt in proptest::collection::vec(any::<u8>(), 0..128),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let aead = AesGcm128::new(&[3; 16]);
        let mut sealed = aead.seal(&[1; 12], b"aad", &pt);
        let pos = pos_seed % sealed.len();
        sealed[pos] ^= 1 << bit;
        prop_assert!(aead.open(&[1; 12], b"aad", &sealed).is_err());
    }

    /// CMAC truncation is a prefix, and truncated verification accepts
    /// genuine tags of every length 1..=16.
    #[test]
    fn cmac_truncation(msg in proptest::collection::vec(any::<u8>(), 0..256), len in 1usize..=16) {
        let cmac = CmacAes128::new(&[5; 16]);
        let full = cmac.mac(&msg);
        prop_assert!(cmac.verify(&msg, &full[..len]));
    }

    // ----------------------------------------------------------------
    // X25519 (session keys)
    // ----------------------------------------------------------------

    /// ∀ secret pairs: DH commutes (both sides derive the same secret).
    #[test]
    fn x25519_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        use apna_crypto::x25519::{x25519, X25519_BASEPOINT};
        let pub_a = x25519(a, X25519_BASEPOINT);
        let pub_b = x25519(b, X25519_BASEPOINT);
        prop_assert_eq!(x25519(a, pub_b), x25519(b, pub_a));
    }

    // ----------------------------------------------------------------
    // Replay window (§VIII-D)
    // ----------------------------------------------------------------

    /// ∀ sequences of nonces: no nonce is ever accepted twice.
    #[test]
    fn replay_window_never_double_accepts(seqs in proptest::collection::vec(0u64..500, 1..200)) {
        let mut window = ReplayWindow::new();
        let mut accepted = std::collections::HashSet::new();
        for seq in seqs {
            if window.check_and_update(seq) {
                prop_assert!(accepted.insert(seq), "seq {} accepted twice", seq);
            }
        }
    }

    /// Strictly increasing sequences are always fully accepted.
    #[test]
    fn replay_window_accepts_monotone(start in any::<u32>(), steps in proptest::collection::vec(1u64..100, 1..50)) {
        let mut window = ReplayWindow::new();
        let mut seq = start as u64;
        for step in steps {
            prop_assert!(window.check_and_update(seq));
            seq += step;
        }
    }

    // ----------------------------------------------------------------
    // Granularity pool (§VIII-A)
    // ----------------------------------------------------------------

    /// Under per-flow policy, the number of allocations equals the number
    /// of distinct flows, for any traffic pattern.
    #[test]
    fn per_flow_allocations_equal_distinct_flows(flows in proptest::collection::vec(0u64..50, 1..300)) {
        let mut pool = EphIdPool::new(Granularity::PerFlow);
        let mut next = 0usize;
        for &flow in &flows {
            if let SlotDecision::NeedNew(key) = pool.slot_for(flow, 0) {
                pool.install(key, next);
                next += 1;
            }
        }
        let distinct: std::collections::HashSet<_> = flows.iter().collect();
        prop_assert_eq!(pool.allocations(), distinct.len() as u64);
        prop_assert_eq!(pool.packets(), flows.len() as u64);
    }

    /// Hex codec round-trips arbitrary bytes.
    #[test]
    fn hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let enc = apna_crypto::hex::encode(&bytes);
        prop_assert_eq!(apna_crypto::hex::decode(&enc).unwrap(), bytes);
    }

    // ----------------------------------------------------------------
    // Control-plane envelope
    // ----------------------------------------------------------------

    /// ∀ field values: every ControlMsg kind survives serialize→parse.
    #[test]
    fn control_envelope_roundtrip(
        ctrl in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        sealed in proptest::collection::vec(any::<u8>(), 16..128),
        exp in any::<u32>(),
        flag in any::<bool>(),
        name_tag in any::<u32>(),
        kind_sel in 0usize..5,
    ) {
        let name = format!("svc-{name_tag}.example");
        use apna_core::control::{ControlMsg, DnsUpsert, ShutoffAck};
        use apna_core::management::{EphIdReply, EphIdRequest};
        let keys = as_keys();
        let cert = {
            use apna_core::cert::{CertKind, EphIdCert};
            EphIdCert::issue(
                &keys.signing,
                EphIdBytes(ctrl),
                Timestamp(exp),
                [1; 32],
                [2; 32],
                Aid(7),
                EphIdBytes([3; 16]),
                CertKind::ReceiveOnly,
            )
        };
        let msg = match kind_sel {
            0 => ControlMsg::EphIdRequest(EphIdRequest {
                ctrl_ephid: EphIdBytes(ctrl),
                nonce,
                sealed: sealed.clone(),
            }),
            1 => ControlMsg::EphIdReply(EphIdReply { nonce, sealed: sealed.clone() }),
            2 => ControlMsg::ShutoffAck(ShutoffAck {
                ephid: EphIdBytes(ctrl),
                exp_time: Timestamp(exp),
                hid_revoked: flag,
            }),
            3 => ControlMsg::DnsRegister(DnsUpsert::signed(
                &name,
                cert,
                flag.then_some(apna_wire::ipv4::Ipv4Addr::new(192, 0, 2, 1)),
                &keys.signing,
            )),
            _ => ControlMsg::DnsAck { name: name.clone() },
        };
        let wire = msg.serialize();
        prop_assert_eq!(ControlMsg::parse(&wire).unwrap(), msg);
        // Every strict prefix fails with a typed error, never a panic.
        prop_assert!(ControlMsg::parse(&wire[..wire.len() - 1]).is_err());
    }

    /// ∀ random byte strings: the envelope parser never panics and never
    /// accepts garbage as a valid frame (the magic gate).
    #[test]
    fn control_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use apna_core::control::ControlMsg;
        let _ = ControlMsg::parse(&bytes); // must return, not panic
        if bytes.len() >= 4 && bytes[..4] != *b"APCP" {
            prop_assert!(ControlMsg::parse(&bytes).is_err());
        }
    }

    // ----------------------------------------------------------------
    // Border verdicts under duplicate / reordered delivery (§VIII-D)
    // ----------------------------------------------------------------

    /// ∀ delivery orders with duplicates of a nonce-stamped packet
    /// stream: the border router's verdicts are order-independent — every
    /// distinct packet is forwarded exactly once (whenever it first
    /// arrives, matching its in-order verdict) and the replay filter
    /// absorbs every duplicate, so an adversary reshuffling or replaying
    /// the stream can never change what crosses the border.
    #[test]
    fn border_verdicts_invariant_under_duplication_and_reordering(
        order in proptest::collection::vec(0usize..60, 1..250),
    ) {
        use apna_core::agent::{EphIdUsage, HostAgent};
        use apna_core::border::{DropReason, Verdict};
        use apna_core::directory::AsDirectory;
        use apna_core::granularity::Granularity;
        let mut node = apna_core::AsNode::from_seed(
            Aid(1), [3; 32], &AsDirectory::new(), Timestamp(0),
        );
        node.br.enable_replay_filter();
        let mut host = HostAgent::attach(
            &node, Granularity::PerFlow, ReplayMode::NonceExtension, Timestamp(0), 21,
        ).unwrap();
        let idx = host.acquire(&node, EphIdUsage::DATA_SHORT, Timestamp(0)).unwrap();
        let dst = HostAddr::new(Aid(2), EphIdBytes([7; 16]));
        // 60 packets, nonces 0..60 — all within the 128-entry window, so
        // any reordering is in-window and duplicates are the only drops.
        let packets: Vec<Vec<u8>> = (0..60u8)
            .map(|i| host.build_raw_packet(idx, dst, &[i; 8]))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut forwarded = Vec::new();
        for &i in &order {
            let verdict = node.br.process_outgoing(
                &packets[i], ReplayMode::NonceExtension, Timestamp(0),
            );
            if seen.insert(i) {
                // First delivery: identical to its in-order verdict.
                prop_assert_eq!(verdict, Verdict::ForwardInter { dst_aid: Aid(2) });
                forwarded.push(i);
            } else {
                prop_assert_eq!(verdict, Verdict::Drop(DropReason::Replayed));
            }
        }
        // Exactly the distinct packets crossed, each exactly once.
        prop_assert_eq!(forwarded.len(), seen.len());
    }

    /// ∀ probabilities in [0, 1]: the fault profile validates; anything
    /// outside is refused by `is_valid` (the panic path is unit-tested).
    #[test]
    fn fault_profile_validation_boundary(p in 0.0f64..=1.0, q in 1.0f64..10.0) {
        use apna_simnet::link::FaultProfile;
        prop_assert!(FaultProfile::lossy(p, p).with_duplication(p).is_valid());
        prop_assert!(!FaultProfile { drop_chance: q + 0.0001, ..FaultProfile::default() }.is_valid());
        prop_assert!(!FaultProfile { reorder_chance: -q, ..FaultProfile::default() }.is_valid());
    }

    /// Certificates round-trip through serialization for arbitrary field
    /// values (signature validity is orthogonal — parse is structural).
    #[test]
    fn cert_serialization_roundtrip(
        ephid in any::<[u8; 16]>(),
        exp in any::<u32>(),
        sp in any::<[u8; 32]>(),
        dp in any::<[u8; 32]>(),
        aid in any::<u32>(),
        aa in any::<[u8; 16]>(),
    ) {
        use apna_core::cert::{CertKind, EphIdCert};
        let keys = as_keys();
        let cert = EphIdCert::issue(
            &keys.signing,
            EphIdBytes(ephid),
            Timestamp(exp),
            sp,
            dp,
            Aid(aid),
            EphIdBytes(aa),
            CertKind::Data,
        );
        let parsed = EphIdCert::parse(&cert.serialize()).unwrap();
        prop_assert_eq!(parsed, cert);
    }
}

// --------------------------------------------------------------------
// Batched crypto backends: multi-block paths must be bit-identical to
// the scalar references, for arbitrary lengths and partial final blocks.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ∀ key, counter, message: the PARALLEL_BLOCKS-grouped CTR keystream
    /// equals a block-at-a-time reference, on the auto backend and on the
    /// forced-software backend.
    #[test]
    fn ctr_batched_equals_scalar_reference(
        key in any::<[u8; 16]>(),
        counter in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        use apna_crypto::aes::{Aes128, BlockCipher};
        for cipher in [Aes128::new(&key), Aes128::new_software(&key)] {
            let mut batched = msg.clone();
            apna_crypto::ctr::apply_keystream(&cipher, &counter, &mut batched);
            let mut reference = msg.clone();
            let mut c = u128::from_be_bytes(counter);
            for chunk in reference.chunks_mut(16) {
                let mut ks = c.to_be_bytes();
                cipher.encrypt_block(&mut ks);
                for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                    *d ^= k;
                }
                c = c.wrapping_add(1);
            }
            prop_assert_eq!(&batched, &reference);
        }
    }

    /// ∀ message sets (mixed lengths, incl. empty and partial final
    /// blocks): lock-step `mac_many` equals per-message `mac`, and
    /// `verify_many` accepts exactly the untampered tags.
    #[test]
    fn cmac_many_equals_scalar_and_verifies(
        key in any::<[u8; 16]>(),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 1..20),
        tamper in any::<u8>(),
    ) {
        let cmac = CmacAes128::new(&key);
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let tags = cmac.mac_many(&refs);
        for (i, m) in msgs.iter().enumerate() {
            prop_assert_eq!(tags[i], cmac.mac(m));
        }
        let mut tag_bytes: Vec<[u8; 8]> = tags
            .iter()
            .map(|t| t[..8].try_into().unwrap())
            .collect();
        let victim = (tamper as usize) % tag_bytes.len();
        tag_bytes[victim][(tamper % 8) as usize] ^= 1;
        let tag_refs: Vec<&[u8]> = tag_bytes.iter().map(|t| t.as_slice()).collect();
        let verdicts = cmac.verify_many(&refs, &tag_refs);
        for (i, ok) in verdicts.iter().enumerate() {
            prop_assert_eq!(*ok, i != victim);
        }
    }

    /// ∀ (aad, plaintext) up to past an MTU: one-pass GCM round-trips
    /// and matches across backends (AES-NI + pclmulqdq vs bitsliced AES +
    /// portable GHASH produce the same sealed bytes, and each opens the
    /// other's).
    #[test]
    fn gcm_backends_agree_and_roundtrip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..80),
        pt in proptest::collection::vec(any::<u8>(), 0..2100),
    ) {
        let auto = AesGcm128::new(&key);
        let sealed = auto.seal(&nonce, &aad, &pt);
        prop_assert_eq!(auto.open(&nonce, &aad, &sealed).unwrap(), pt.clone());
        // Software-backend AEAD must produce byte-identical ciphertext.
        let soft = AesGcm128::new_software(&key);
        prop_assert_eq!(soft.seal(&nonce, &aad, &pt), sealed.clone());
        prop_assert_eq!(soft.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    /// ∀ bursts of EphIDs (valid and corrupted): the two-sweep batched
    /// open equals the scalar open slot for slot.
    #[test]
    fn ephid_open_many_equals_scalar(
        ids in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<[u8; 4]>()), 1..24),
        corrupt in proptest::collection::vec(any::<[u8; 2]>(), 0..6),
    ) {
        let keys = as_keys();
        let enc = keys.ephid_enc_cipher();
        let mac = keys.ephid_mac_cipher();
        let mut burst: Vec<EphIdBytes> = ids
            .iter()
            .map(|&(hid, exp, iv)| {
                ephid::seal(&keys, EphIdPlain { hid: Hid(hid), exp_time: Timestamp(exp) }, iv)
            })
            .collect();
        for &[slot, bit] in &corrupt {
            let i = (slot as usize) % burst.len();
            let mut bytes = *burst[i].as_bytes();
            bytes[(bit >> 3) as usize % 16] ^= 1 << (bit & 7);
            burst[i] = EphIdBytes(bytes);
        }
        let batched = ephid::open_many_with(&enc, &mac, &burst);
        for (i, e) in burst.iter().enumerate() {
            prop_assert_eq!(&batched[i], &ephid::open_with(&enc, &mac, e));
        }
    }
}
