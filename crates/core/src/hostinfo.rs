//! The host information database (`host_info` in the paper).
//!
//! During bootstrap the RS pushes `(HID, k_HA)` to every infrastructure
//! entity — routers, MS, AA — which "store the information in their
//! database" (Fig. 2). The prototype implements it "as a hashtable using
//! HID as the key" (§V-A2). This reproduction keeps one shared table per
//! AS; each logical entity holds an `Arc` to it, which models the RS's
//! replication without simulating the intra-AS distribution protocol.
//!
//! The table is **sharded by HID** (default [`DEFAULT_HOST_SHARDS`]-way,
//! mirroring the 16-way data-plane replay/revocation sharding) so that
//! concurrent issuance, shut-off strikes, and border-router key lookups
//! for different hosts never serialize behind one lock. Each shard holds
//! its own `RwLock`; a lookup touches exactly one shard.
//!
//! The shard also carries the per-host **issuance token bucket**
//! (admission control, §V-A3: the MS must survive flash-crowd issuance
//! spikes): tokens refill at a configured per-second rate up to a burst
//! cap, all in integer arithmetic on protocol [`Timestamp`]s so simnet
//! runs stay deterministic.

use crate::hid::Hid;
use crate::keys::HostAsKey;
use crate::time::Timestamp;
use apna_crypto::cmac::CmacAes128;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Default shard count — matches the data plane's
/// [`REPLAY_SHARDS`][crate::replay::REPLAY_SHARDS].
pub const DEFAULT_HOST_SHARDS: usize = 16;

/// Per-host issuance admission policy: a token bucket refilled at
/// `per_sec` tokens per second up to `burst` tokens. One EphID issuance
/// consumes one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuancePolicy {
    /// Bucket capacity (and initial fill at registration).
    pub burst: u32,
    /// Refill rate in tokens per second (must be ≥ 1 to ever refill).
    pub per_sec: u32,
}

/// Token-bucket state stored per host. Refill is computed lazily from
/// the elapsed protocol time — no background timer, fully deterministic.
#[derive(Debug, Clone, Copy)]
struct IssuanceBucket {
    tokens: u32,
    last_refill: Timestamp,
}

/// Per-host record.
#[derive(Clone)]
pub struct HostRecord {
    /// The host↔AS shared key (both halves). It carries the packet CMAC
    /// for `k_HA^auth`, expanded once when the key was derived: the border
    /// router verifies a packet MAC with it on every egress packet
    /// (§V-B2), and re-running the AES key schedule per packet would
    /// dominate the batched pipeline.
    pub key: HostAsKey,
    /// `true` once the AS revokes the HID (identity minting defense and
    /// §VIII-G2 escalation).
    pub revoked: bool,
    /// EphIDs of this host revoked before expiry (preemptive + shutoff);
    /// drives the §VIII-G2 "too many revocations" escalation.
    pub revoked_ephid_count: u32,
    /// When the host registered (diagnostics).
    pub registered_at: Timestamp,
    /// Issuance token bucket (`None` until the first admission check
    /// under an installed policy).
    bucket: Option<IssuanceBucket>,
}

/// A snapshot of one host's durable state, as exported for the control
/// log ([`crate::ctrl_log`]) and re-imported on replay.
#[derive(Debug, Clone)]
pub struct HostExport {
    /// The host's HID.
    pub hid: Hid,
    /// The host↔AS shared key.
    pub key: HostAsKey,
    /// Registration time.
    pub registered_at: Timestamp,
    /// Whether the HID has been revoked.
    pub revoked: bool,
    /// §VIII-G2 strike counter.
    pub strikes: u32,
}

type Shard = RwLock<HashMap<Hid, HostRecord>>;

/// The shared `host_info` table of one AS, sharded by HID.
///
/// Shards are stored as a guaranteed first shard plus the rest, so the
/// shard lookup is total without a panicking index (this module is in
/// PANIC-1 scope: border-router key lookups run here mid-burst).
pub struct HostDb {
    head: Shard,
    rest: Vec<Shard>,
    /// `shard_count - 1`; shard count is a power of two.
    mask: u32,
    next_hid: AtomicU32,
    /// Issuance admission policy (`None` = unlimited, the default).
    policy: RwLock<Option<IssuancePolicy>>,
}

impl Default for HostDb {
    fn default() -> HostDb {
        HostDb::new()
    }
}

impl HostDb {
    /// Creates an empty database with [`DEFAULT_HOST_SHARDS`] shards.
    #[must_use]
    pub fn new() -> HostDb {
        HostDb::with_shards(DEFAULT_HOST_SHARDS)
    }

    /// Creates an empty database with `shards` lock shards (rounded up to
    /// a power of two, minimum 1) — the knob the issuance bench sweeps.
    #[must_use]
    pub fn with_shards(shards: usize) -> HostDb {
        let n = shards.max(1).next_power_of_two();
        HostDb {
            head: RwLock::default(),
            rest: (1..n).map(|_| RwLock::default()).collect(),
            mask: (n - 1) as u32,
            next_hid: AtomicU32::new(1), // HID 0 reserved
            policy: RwLock::new(None),
        }
    }

    /// Number of lock shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        1 + self.rest.len()
    }

    fn shards(&self) -> impl Iterator<Item = &Shard> {
        std::iter::once(&self.head).chain(self.rest.iter())
    }

    fn shard(&self, hid: Hid) -> &Shard {
        // HIDs are allocated sequentially, so the low bits distribute
        // consecutive hosts round-robin across shards.
        let idx = (hid.0 & self.mask) as usize;
        match idx.checked_sub(1) {
            None => &self.head,
            Some(i) => self.rest.get(i).unwrap_or(&self.head),
        }
    }

    /// `generateHID()` from Fig. 2: allocates a fresh, unique HID.
    pub fn generate_hid(&self) -> Hid {
        Hid(self.next_hid.fetch_add(1, Ordering::Relaxed))
    }

    /// Registers a host record under `hid` (the RS's `host_info[HID] = kHA`).
    pub fn register(&self, hid: Hid, key: HostAsKey, now: Timestamp) {
        self.shard(hid).write().insert(
            hid,
            HostRecord {
                key,
                revoked: false,
                revoked_ephid_count: 0,
                registered_at: now,
                bucket: None,
            },
        );
    }

    /// Looks up the shared key of a *valid* (registered, non-revoked) host.
    /// This is the `HID ∈ host_info` + key fetch of Fig. 4.
    #[must_use]
    pub fn key_of_valid(&self, hid: Hid) -> Option<HostAsKey> {
        let guard = self.shard(hid).read();
        guard
            .get(&hid)
            .filter(|r| !r.revoked)
            .map(|r| r.key.clone())
    }

    /// The pre-expanded packet-CMAC of a *valid* host — the hot-path
    /// sibling of [`HostDb::key_of_valid`] (no key schedule on lookup).
    #[must_use]
    pub fn cmac_of_valid(&self, hid: Hid) -> Option<Arc<CmacAes128>> {
        let guard = self.shard(hid).read();
        guard
            .get(&hid)
            .filter(|r| !r.revoked)
            .map(|r| r.key.shared_cmac())
    }

    /// Looks up the shared key of any *registered* host, revoked or not —
    /// for idempotency paths that must re-verify evidence against a host
    /// whose HID has since been revoked by escalation.
    #[must_use]
    pub fn key_of(&self, hid: Hid) -> Option<HostAsKey> {
        self.shard(hid).read().get(&hid).map(|r| r.key.clone())
    }

    /// `true` if the HID is registered and not revoked.
    #[must_use]
    pub fn is_valid(&self, hid: Hid) -> bool {
        self.shard(hid)
            .read()
            .get(&hid)
            .map(|r| !r.revoked)
            .unwrap_or(false)
    }

    /// Revokes the HID entirely: "AS revokes the HID of the host
    /// invalidating all EphIDs that are issued to the host" (§VIII-G2).
    pub fn revoke_hid(&self, hid: Hid) {
        if let Some(r) = self.shard(hid).write().get_mut(&hid) {
            r.revoked = true;
        }
    }

    /// The number of EphID revocations recorded against the host — the
    /// §VIII-G2 strike counter (0 for unknown hosts).
    #[must_use]
    pub fn revocation_count(&self, hid: Hid) -> u32 {
        self.shard(hid)
            .read()
            .get(&hid)
            .map(|r| r.revoked_ephid_count)
            .unwrap_or(0)
    }

    /// Records one preemptive/shutoff EphID revocation against the host;
    /// returns the new count so policy code can escalate.
    pub fn note_ephid_revocation(&self, hid: Hid) -> u32 {
        let mut guard = self.shard(hid).write();
        match guard.get_mut(&hid) {
            Some(r) => {
                r.revoked_ephid_count += 1;
                r.revoked_ephid_count
            }
            None => 0,
        }
    }

    /// Re-issues an identity: revokes the old HID and registers the same
    /// key material under a fresh HID ("the AS assigns a new HID to the
    /// host", §VIII-G2). Returns the new HID, or `None` if `old` is
    /// unknown.
    pub fn reissue_hid(&self, old: Hid, now: Timestamp) -> Option<Hid> {
        let key = {
            let guard = self.shard(old).read();
            guard.get(&old)?.key.clone()
        };
        self.revoke_hid(old);
        let new = self.generate_hid();
        self.register(new, key, now);
        Some(new)
    }

    /// Number of registered (valid) hosts.
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.shards()
            .map(|s| s.read().values().filter(|r| !r.revoked).count())
            .sum()
    }

    // ---- Issuance admission control ------------------------------------

    /// Installs (or clears, with `None`) the per-host issuance rate limit.
    /// `&self`: operators can flip the knob on a running AS.
    pub fn set_issuance_policy(&self, policy: Option<IssuancePolicy>) {
        *self.policy.write() = policy;
    }

    /// The currently installed issuance policy.
    #[must_use]
    pub fn issuance_policy(&self) -> Option<IssuancePolicy> {
        *self.policy.read()
    }

    /// Admission check for one EphID issuance by `hid`: takes one token
    /// from the host's bucket. `Ok(())` admits; `Err(retry_after_secs)`
    /// rejects with the number of whole seconds until a token will have
    /// accrued. With no policy installed every request is admitted.
    ///
    /// Unknown HIDs are admitted here — existence and revocation are the
    /// MS's own Fig. 3 checks, and answering differently would leak
    /// registration state through rate-limit behavior.
    pub fn take_issuance_token(&self, hid: Hid, now: Timestamp) -> Result<(), u32> {
        let Some(policy) = *self.policy.read() else {
            return Ok(());
        };
        let mut guard = self.shard(hid).write();
        let Some(rec) = guard.get_mut(&hid) else {
            return Ok(());
        };
        let mut bucket = rec.bucket.unwrap_or(IssuanceBucket {
            tokens: policy.burst,
            last_refill: now,
        });
        // Lazy refill: whole elapsed seconds × rate, capped at burst.
        let elapsed = now.0.saturating_sub(bucket.last_refill.0);
        if elapsed > 0 {
            let refill = u64::from(elapsed) * u64::from(policy.per_sec);
            bucket.tokens = u64::from(bucket.tokens)
                .saturating_add(refill)
                .min(u64::from(policy.burst)) as u32;
            bucket.last_refill = now;
        }
        let verdict = if bucket.tokens > 0 {
            bucket.tokens -= 1;
            Ok(())
        } else {
            // One token accrues within the next whole second for any
            // rate ≥ 1/s; a misconfigured zero rate gets the same 1 s
            // hint rather than an unbounded horizon.
            Err(1)
        };
        rec.bucket = Some(bucket);
        verdict
    }

    // ---- Durability (control-log) support ------------------------------

    /// The next HID the allocator would hand out.
    #[must_use]
    pub fn next_hid_value(&self) -> u32 {
        self.next_hid.load(Ordering::Relaxed)
    }

    /// Raises the HID allocator to at least `floor` (log replay: never
    /// re-allocate an HID that existed pre-crash).
    pub fn raise_next_hid(&self, floor: u32) {
        self.next_hid.fetch_max(floor, Ordering::Relaxed);
    }

    /// Restores a host record from the durable log, overwriting any
    /// existing entry for `hid` and raising the HID allocator past it.
    pub fn restore(&self, export: &HostExport) {
        self.shard(export.hid).write().insert(
            export.hid,
            HostRecord {
                key: export.key.clone(),
                revoked: export.revoked,
                revoked_ephid_count: export.strikes,
                registered_at: export.registered_at,
                bucket: None,
            },
        );
        self.raise_next_hid(export.hid.0.saturating_add(1));
    }

    /// Exports every host record (snapshot support). Order is by shard,
    /// then by HID within the shard, so snapshots are deterministic.
    #[must_use]
    pub fn export(&self) -> Vec<HostExport> {
        let mut out = Vec::new();
        for shard in self.shards() {
            let guard = shard.read();
            let mut entries: Vec<(&Hid, &HostRecord)> = guard.iter().collect();
            entries.sort_by_key(|(hid, _)| hid.0);
            out.extend(entries.into_iter().map(|(hid, r)| HostExport {
                hid: *hid,
                key: r.key.clone(),
                registered_at: r.registered_at,
                revoked: r.revoked,
                strikes: r.revoked_ephid_count,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apna_crypto::x25519::SharedSecret;

    fn key(tag: u8) -> HostAsKey {
        HostAsKey::from_dh(&SharedSecret([tag; 32])).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let db = HostDb::new();
        let hid = db.generate_hid();
        db.register(hid, key(1), Timestamp(10));
        assert!(db.is_valid(hid));
        assert!(db.key_of_valid(hid).is_some());
        assert_eq!(db.valid_count(), 1);
    }

    #[test]
    fn unknown_hid_invalid() {
        let db = HostDb::new();
        assert!(!db.is_valid(Hid(77)));
        assert!(db.key_of_valid(Hid(77)).is_none());
    }

    #[test]
    fn generated_hids_unique() {
        let db = HostDb::new();
        let a = db.generate_hid();
        let b = db.generate_hid();
        assert_ne!(a, b);
        assert_ne!(a, Hid(0)); // 0 is reserved
    }

    #[test]
    fn revocation_invalidates() {
        let db = HostDb::new();
        let hid = db.generate_hid();
        db.register(hid, key(2), Timestamp(0));
        db.revoke_hid(hid);
        assert!(!db.is_valid(hid));
        assert!(db.key_of_valid(hid).is_none());
        assert_eq!(db.valid_count(), 0);
    }

    #[test]
    fn revocation_counter_escalates() {
        let db = HostDb::new();
        let hid = db.generate_hid();
        db.register(hid, key(3), Timestamp(0));
        assert_eq!(db.note_ephid_revocation(hid), 1);
        assert_eq!(db.note_ephid_revocation(hid), 2);
        assert_eq!(db.note_ephid_revocation(Hid(999)), 0); // unknown host
    }

    #[test]
    fn reissue_swaps_identity() {
        // "every host on the network is identified by a single HID" (§VI-A):
        // a new HID implies the old one dies.
        let db = HostDb::new();
        let old = db.generate_hid();
        db.register(old, key(4), Timestamp(0));
        let new = db.reissue_hid(old, Timestamp(5)).unwrap();
        assert_ne!(new, old);
        assert!(!db.is_valid(old));
        assert!(db.is_valid(new));
        assert_eq!(db.valid_count(), 1);
        assert!(db.reissue_hid(Hid(12345), Timestamp(5)).is_none());
    }

    #[test]
    fn shard_counts_round_to_power_of_two() {
        assert_eq!(HostDb::with_shards(1).shard_count(), 1);
        assert_eq!(HostDb::with_shards(3).shard_count(), 4);
        assert_eq!(HostDb::with_shards(16).shard_count(), 16);
        assert_eq!(HostDb::new().shard_count(), DEFAULT_HOST_SHARDS);
    }

    #[test]
    fn lookups_work_across_all_shard_widths() {
        for shards in [1usize, 2, 16, 32] {
            let db = HostDb::with_shards(shards);
            let hids: Vec<Hid> = (0..40).map(|_| db.generate_hid()).collect();
            for (i, hid) in hids.iter().enumerate() {
                // Tag 0 would be the all-zero (non-contributory) secret.
                db.register(*hid, key(i as u8 + 1), Timestamp(0));
            }
            assert_eq!(db.valid_count(), 40);
            for hid in &hids {
                assert!(db.is_valid(*hid), "{shards} shards");
                assert!(db.cmac_of_valid(*hid).is_some());
            }
        }
    }

    #[test]
    fn no_policy_admits_everything() {
        let db = HostDb::new();
        let hid = db.generate_hid();
        db.register(hid, key(1), Timestamp(0));
        for _ in 0..1000 {
            assert_eq!(db.take_issuance_token(hid, Timestamp(0)), Ok(()));
        }
    }

    #[test]
    fn token_bucket_limits_burst_then_refills() {
        let db = HostDb::new();
        db.set_issuance_policy(Some(IssuancePolicy {
            burst: 3,
            per_sec: 1,
        }));
        let hid = db.generate_hid();
        db.register(hid, key(1), Timestamp(100));
        // Burst of 3 admitted, 4th rejected with a retry hint.
        for _ in 0..3 {
            assert_eq!(db.take_issuance_token(hid, Timestamp(100)), Ok(()));
        }
        assert_eq!(db.take_issuance_token(hid, Timestamp(100)), Err(1));
        // One second later a token has accrued.
        assert_eq!(db.take_issuance_token(hid, Timestamp(101)), Ok(()));
        assert_eq!(db.take_issuance_token(hid, Timestamp(101)), Err(1));
        // Refill is capped at burst.
        assert_eq!(db.take_issuance_token(hid, Timestamp(10_000)), Ok(()));
        assert_eq!(db.take_issuance_token(hid, Timestamp(10_000)), Ok(()));
        assert_eq!(db.take_issuance_token(hid, Timestamp(10_000)), Ok(()));
        assert_eq!(db.take_issuance_token(hid, Timestamp(10_000)), Err(1));
    }

    #[test]
    fn buckets_are_per_host() {
        let db = HostDb::new();
        db.set_issuance_policy(Some(IssuancePolicy {
            burst: 1,
            per_sec: 1,
        }));
        let a = db.generate_hid();
        let b = db.generate_hid();
        db.register(a, key(1), Timestamp(0));
        db.register(b, key(2), Timestamp(0));
        assert_eq!(db.take_issuance_token(a, Timestamp(0)), Ok(()));
        assert_eq!(db.take_issuance_token(a, Timestamp(0)), Err(1));
        // Host B's bucket is untouched by A's exhaustion.
        assert_eq!(db.take_issuance_token(b, Timestamp(0)), Ok(()));
    }

    #[test]
    fn export_restore_roundtrip() {
        let db = HostDb::with_shards(4);
        let a = db.generate_hid();
        let b = db.generate_hid();
        db.register(a, key(1), Timestamp(5));
        db.register(b, key(2), Timestamp(6));
        db.note_ephid_revocation(b);
        db.revoke_hid(b);

        let exported = db.export();
        assert_eq!(exported.len(), 2);

        let fresh = HostDb::with_shards(4);
        for e in &exported {
            fresh.restore(e);
        }
        assert!(fresh.is_valid(a));
        assert!(!fresh.is_valid(b));
        assert_eq!(fresh.revocation_count(b), 1);
        // Restored keys authenticate identically.
        assert_eq!(
            fresh.key_of(a).unwrap().packet_cmac().mac(b"probe"),
            db.key_of(a).unwrap().packet_cmac().mac(b"probe")
        );
        // The allocator never re-hands a restored HID.
        assert!(fresh.next_hid_value() > b.0);
    }
}
