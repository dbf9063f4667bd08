//! Fixture suite: each rule must fire on its known-bad fixture at the
//! exact lines, and stay silent on the known-good twin.
//!
//! Fixtures live in `tests/lint_fixtures/` — a directory the `apna-lint`
//! walker skips, so the deliberately-bad files never fail the workspace
//! gate. Each fixture is linted under a *virtual* workspace path because
//! every rule scopes itself by path (CT-1 → `crates/crypto/src/`,
//! DET-1 → `crates/simnet/src/` and the two daemon cores, PANIC-1 → the
//! hot-path allowlist).

use apna_lint::check_sources;

/// Lints one fixture file under `virtual_path`, returning `(rule, line)`
/// pairs in report order.
fn lint(virtual_path: &str, fixture: &str) -> Vec<(&'static str, u32)> {
    let path = format!(
        "{}/tests/lint_fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"));
    let report = check_sources([(virtual_path, src.as_str())].into_iter());
    assert!(
        report.waived.is_empty(),
        "fixtures carry no waivers: {:?}",
        report.waived
    );
    report.unwaived.iter().map(|f| (f.rule, f.line)).collect()
}

/// `(rule, line)` pairs in report order.
type Findings = Vec<(&'static str, u32)>;

/// Like [`lint`], but keeps the waived bucket — for waiver-placement
/// tests whose fixtures deliberately carry a waiver.
fn lint_with_waivers(virtual_path: &str, fixture: &str) -> (Findings, Findings) {
    let path = format!(
        "{}/tests/lint_fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"));
    let report = check_sources([(virtual_path, src.as_str())].into_iter());
    (
        report.unwaived.iter().map(|f| (f.rule, f.line)).collect(),
        report.waived.iter().map(|f| (f.rule, f.line)).collect(),
    )
}

#[test]
fn ct1_fires_on_secret_indexed_table_aes() {
    // Line 10: S-box indexed by a key-derived byte (through a `let`).
    // Line 14: branch condition on secret bytes.
    let got = lint("crates/crypto/src/ct1_bad.rs", "ct1_bad.rs");
    assert_eq!(got, vec![("CT-1", 10), ("CT-1", 14)]);
}

#[test]
fn ct1_silent_on_constant_time_twin() {
    assert_eq!(lint("crates/crypto/src/ct1_good.rs", "ct1_good.rs"), vec![]);
}

#[test]
fn det1_fires_on_wall_clock_and_hash_iteration() {
    // Line 7: `Instant::now`. Line 9: `for` over a HashMap. Line 16:
    // order-revealing `.keys()` call.
    let got = lint("crates/simnet/src/det1_bad.rs", "det1_bad.rs");
    assert_eq!(got, vec![("DET-1", 7), ("DET-1", 9), ("DET-1", 16)]);
}

#[test]
fn det1_silent_on_ordered_twin() {
    assert_eq!(
        lint("crates/simnet/src/det1_good.rs", "det1_good.rs"),
        vec![]
    );
}

#[test]
fn det1_fires_on_clock_socket_and_printing_in_a_core() {
    // Line 4: `UdpSocket` import. Line 8: `UdpSocket` field. Line 14:
    // `Instant::now`. Line 19: `eprintln!`.
    for core in ["crates/core/src/deploy.rs", "crates/gateway/src/daemon.rs"] {
        let got = lint(core, "det1_core_bad.rs");
        assert_eq!(
            got,
            vec![("DET-1", 4), ("DET-1", 8), ("DET-1", 14), ("DET-1", 19)]
        );
    }
}

#[test]
fn det1_silent_on_sans_io_core_twin() {
    assert_eq!(
        lint("crates/gateway/src/daemon.rs", "det1_core_good.rs"),
        vec![]
    );
}

#[test]
fn unsafe1_fires_outside_allowlist() {
    // Line 6: `unsafe` in a non-allowlisted file (its SAFETY comment
    // does not rescue it).
    let got = lint("crates/core/src/unsafe1_bad.rs", "unsafe1_bad.rs");
    assert_eq!(got, vec![("UNSAFE-1", 6)]);
}

#[test]
fn unsafe1_silent_on_commented_allowlisted_twin() {
    assert_eq!(
        lint("crates/crypto/src/aes_ni.rs", "unsafe1_good.rs"),
        vec![]
    );
}

#[test]
fn panic1_fires_on_every_panic_path() {
    // Line 4: bare index. Line 5: unwrap. Line 6: expect. Line 8: panic!.
    let got = lint("crates/core/src/border.rs", "panic1_bad.rs");
    assert_eq!(
        got,
        vec![
            ("PANIC-1", 4),
            ("PANIC-1", 5),
            ("PANIC-1", 6),
            ("PANIC-1", 8)
        ]
    );
}

#[test]
fn panic1_silent_on_infallible_twin() {
    assert_eq!(lint("crates/core/src/border.rs", "panic1_good.rs"), vec![]);
}

#[test]
fn wire1_fires_on_wildcard_arms() {
    // Line 8: plain `_` arm. Lines 15-16: guarded and plain wildcards in
    // the second dispatch.
    let got = lint("crates/core/src/wire1_bad.rs", "wire1_bad.rs");
    assert_eq!(got, vec![("WIRE-1", 8), ("WIRE-1", 15), ("WIRE-1", 16)]);
}

#[test]
fn wire1_silent_on_exhaustive_twin() {
    assert_eq!(
        lint("crates/core/src/wire1_good.rs", "wire1_good.rs"),
        vec![]
    );
}

#[test]
fn lock1_fires_on_inverted_two_lock_order() {
    // Lines 10 and 17: the second acquisition of each entry point — the
    // two halves of the ordering cycle. Cycle findings are emitted in
    // lexicographic edge order (`flows→hosts` before `hosts→flows`).
    let got = lint("crates/core/src/lock1_bad.rs", "lock1_bad.rs");
    assert_eq!(got, vec![("LOCK-1", 17), ("LOCK-1", 10)]);
}

#[test]
fn lock1_silent_on_consistent_order_twin() {
    assert_eq!(
        lint("crates/core/src/lock1_good.rs", "lock1_good.rs"),
        vec![]
    );
}

#[test]
fn lock1_fires_on_daemon_io_under_guard() {
    // Line 10: `send_to` while the line-9 guard is still held.
    let got = lint("src/daemon.rs", "lock1_io_bad.rs");
    assert_eq!(got, vec![("LOCK-1", 10)]);
}

#[test]
fn lock1_silent_on_drop_before_io_twin() {
    assert_eq!(lint("src/daemon.rs", "lock1_io_good.rs"), vec![]);
}

#[test]
fn wal1_fires_on_reply_before_append() {
    // Line 9: `EphIdReply { … }` constructed before the line-10 append.
    let got = lint("crates/core/src/wal1_bad.rs", "wal1_bad.rs");
    assert_eq!(got, vec![("WAL-1", 9)]);
}

#[test]
fn wal1_silent_on_append_dominates_twin() {
    assert_eq!(lint("crates/core/src/wal1_good.rs", "wal1_good.rs"), vec![]);
}

#[test]
fn ct1_flow_fires_on_secret_through_two_call_edges() {
    // Line 8: `mix_column(round_key)` — the secret reaches an S-box
    // index two resolved call edges away (`mix_column` → `substitute`).
    let got = lint("crates/crypto/src/ct1_flow_bad.rs", "ct1_flow_bad.rs");
    assert_eq!(got, vec![("CT-1", 8)]);
}

#[test]
fn ct1_flow_silent_when_only_len_crosses_the_edges() {
    assert_eq!(
        lint("crates/crypto/src/ct1_flow_good.rs", "ct1_flow_good.rs"),
        vec![]
    );
}

#[test]
fn panic1_flow_fires_two_edges_above_the_panic() {
    // Line 13: the local `.unwrap()` (token rule). Lines 5 and 9: the
    // call edges above it, each flagged by the transitive pass.
    let got = lint("crates/core/src/border.rs", "panic1_flow_bad.rs");
    assert_eq!(got, vec![("PANIC-1", 13), ("PANIC-1", 5), ("PANIC-1", 9)]);
}

#[test]
fn panic1_flow_silent_on_unwind_free_twin() {
    assert_eq!(
        lint("crates/core/src/border.rs", "panic1_flow_good.rs"),
        vec![]
    );
}

#[test]
fn waiver_above_attributes_covers_the_item() {
    // Regression: the waiver on line 5 sits above `#[inline]` /
    // `#[must_use]`; its target must skip the attribute-only lines and
    // land on line 8, waiving the bare-index finding there.
    let (unwaived, waived) = lint_with_waivers("crates/core/src/border.rs", "waiver_attr.rs");
    assert_eq!(unwaived, vec![]);
    assert_eq!(waived, vec![("PANIC-1", 8)]);
}
