//! PANIC-1: panic-freedom in data-plane hot paths.
//!
//! A border router mid-burst must never unwind: one poisoned packet
//! panicking the pipeline is a denial-of-service primitive (the paper's
//! E7 pipeline processes attacker-controlled bytes at line rate). In the
//! configured hot-path modules this rule flags `.unwrap()`, `.expect(…)`,
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`, and bare index
//! expressions (`x[i]` can panic; `x.get(i)` cannot). The infallible
//! full-range borrow `x[..]` is exempt. Test modules are exempt —
//! panicking is how test assertions work.

use super::{is_postfix_bracket, matching_bracket, Rule, WorkspaceRule};
use crate::model::{FnItem, Workspace};
use crate::source::{Finding, SourceFile};

/// See module docs.
pub struct Panic1;

/// Hot-path modules. Entries ending in `/` are directory prefixes (the
/// whole tree is in scope); others are workspace-relative suffix matches
/// on a single file.
const HOT_PATHS: [&str; 10] = [
    "crates/core/src/border.rs",
    // The packet-I/O backends and everything on the daemons' run loops:
    // all of it touches attacker-controlled bytes at line rate (`deploy.rs`:
    // `BorderCore`; `asnode.rs`: its service dispatch).
    "crates/io/src/",
    "src/daemon.rs",
    "src/bin/apna-border.rs",
    "src/bin/apna-gateway.rs",
    "crates/core/src/deploy.rs",
    "crates/core/src/asnode.rs",
    // The durable control-plane log and the sharded host state sit on the
    // daemons' control path (and the log replays attacker-adjacent bytes
    // from disk on restart): neither may unwind.
    "crates/core/src/ctrl_log.rs",
    "crates/core/src/hostinfo.rs",
    // Wire parsing runs on attacker-controlled bytes before any
    // authentication at all — the widest attack surface in the tree.
    "crates/wire/src/",
];

/// Panicking macros.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// `true` if `path` is in PANIC-1's protected scope.
pub(crate) fn protected_path(path: &str) -> bool {
    HOT_PATHS.iter().any(|p| {
        if p.ends_with('/') {
            path.contains(p)
        } else {
            path.ends_with(p)
        }
    })
}

impl Rule for Panic1 {
    fn id(&self) -> &'static str {
        "PANIC-1"
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/bare indexing in data-plane hot paths"
    }

    fn applies_to(&self, path: &str) -> bool {
        protected_path(path)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue;
            }
            let after_dot = i > 0 && toks[i - 1].is_punct(".");
            let called = toks.get(i + 1).is_some_and(|p| p.is_punct("("));
            if after_dot && called && (t.is_ident("unwrap") || t.is_ident("expect")) {
                out.push(Finding::new(
                    "PANIC-1",
                    file,
                    t.line,
                    format!(
                        "`.{}()` can panic mid-burst — return a typed error or restructure",
                        t.text
                    ),
                ));
                continue;
            }
            if PANIC_MACROS.iter().any(|m| t.is_ident(m))
                && toks.get(i + 1).is_some_and(|p| p.is_punct("!"))
            {
                out.push(Finding::new(
                    "PANIC-1",
                    file,
                    t.line,
                    format!("`{}!` in a hot path", t.text),
                ));
                continue;
            }
            if is_postfix_bracket(file, i) {
                let close = matching_bracket(file, i);
                // `x[..]` — the only indexing form that cannot panic.
                let full_range =
                    close == Some(i + 2) && toks.get(i + 1).is_some_and(|p| p.is_punct(".."));
                if !full_range {
                    out.push(Finding::new(
                        "PANIC-1",
                        file,
                        t.line,
                        "bare index can panic — use `.get()`/iterators or restructure".to_string(),
                    ));
                }
            }
        }
    }
}

/// Transitive PANIC-1: a function in a protected scope may not *call* a
/// function that can reach an explicit panic (`unwrap`/`expect`/the
/// panic macro family), however deep in the call graph the panic sits.
///
/// Bare indexing stays a *local* check (the token rule above): closing
/// over it transitively would force index-free style onto deliberate
/// fixed-array hot loops everywhere (the bitsliced AES tables), which
/// rustc itself bounds-checks at compile time when the indices are
/// constant.
pub struct Panic1Flow;

impl WorkspaceRule for Panic1Flow {
    fn id(&self) -> &'static str {
        "PANIC-1"
    }

    fn describe(&self) -> &'static str {
        "protected scopes must not call functions that can panic"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // Where each fn panics locally (non-test lines only).
        let local: Vec<Option<u32>> = ws.fns.iter().map(|f| local_panic_line(ws, f)).collect();
        // Transitive closure: can_reach[i] = Some(witness call edge) once
        // some path from fn i reaches a local panic.
        let mut can_reach: Vec<bool> = local.iter().map(Option::is_some).collect();
        let resolved: Vec<Vec<Vec<usize>>> = ws
            .fns
            .iter()
            .map(|f| {
                f.calls
                    .iter()
                    .map(|c| {
                        ws.resolve(f, c)
                            .into_iter()
                            .filter(|&i| !ws.fns[i].in_test)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for (i, f) in ws.fns.iter().enumerate() {
                if can_reach[i] {
                    continue;
                }
                let reaches = f
                    .calls
                    .iter()
                    .enumerate()
                    .any(|(ci, _)| resolved[i][ci].iter().any(|&j| can_reach[j]));
                if reaches {
                    can_reach[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Report: calls from protected, non-test fns to panicking callees.
        for (i, f) in ws.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            if f.in_test || !protected_path(&file.path) {
                continue;
            }
            for (ci, call) in f.calls.iter().enumerate() {
                if file.in_test_region(call.line) {
                    continue;
                }
                let Some(&target) = resolved[i][ci].iter().find(|&&j| can_reach[j]) else {
                    continue;
                };
                let chain = witness_chain(ws, &local, &resolved, target);
                out.push(Finding::new(
                    "PANIC-1",
                    file,
                    call.line,
                    format!(
                        "call to `{}` can panic in a protected scope ({chain})",
                        call.callee
                    ),
                ));
            }
        }
    }
}

/// Line of the first explicit panic construct in `f`'s body outside test
/// regions, if any.
fn local_panic_line(ws: &Workspace, f: &FnItem) -> Option<u32> {
    let file = &ws.files[f.file];
    let (open, close) = f.body?;
    let toks = &file.tokens;
    for k in open + 1..close {
        let t = &toks[k];
        if file.in_test_region(t.line) || file.token_in_attr(k) {
            continue;
        }
        let after_dot = k > 0 && toks[k - 1].is_punct(".");
        let called = toks.get(k + 1).is_some_and(|p| p.is_punct("("));
        if after_dot && called && (t.is_ident("unwrap") || t.is_ident("expect")) {
            return Some(t.line);
        }
        if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(k + 1).is_some_and(|p| p.is_punct("!"))
        {
            return Some(t.line);
        }
    }
    None
}

/// A `a → b → c (path:line)` chain from `from` to a local panic, for the
/// finding message.
fn witness_chain(
    ws: &Workspace,
    local: &[Option<u32>],
    resolved: &[Vec<Vec<usize>>],
    from: usize,
) -> String {
    let mut chain = vec![from];
    let mut seen = vec![false; ws.fns.len()];
    let mut cur = from;
    seen[from] = true;
    while local[cur].is_none() {
        let next = ws.fns[cur].calls.iter().enumerate().find_map(|(ci, _)| {
            resolved[cur][ci]
                .iter()
                .copied()
                .find(|&j| !seen[j] && reaches_panic(local, resolved, ws, j, &mut seen.clone()))
        });
        match next {
            Some(j) => {
                seen[j] = true;
                chain.push(j);
                cur = j;
            }
            None => break,
        }
    }
    let names: Vec<&str> = chain.iter().map(|&i| ws.fns[i].name.as_str()).collect();
    let last = *chain.last().unwrap_or(&from);
    let site = match local[last] {
        Some(line) => format!("{}:{line}", ws.files[ws.fns[last].file].path),
        None => ws.files[ws.fns[last].file].path.clone(),
    };
    format!("via {} at {site}", names.join(" → "))
}

/// `true` if fn `i` reaches a local panic (DFS; `seen` guards cycles).
fn reaches_panic(
    local: &[Option<u32>],
    resolved: &[Vec<Vec<usize>>],
    ws: &Workspace,
    i: usize,
    seen: &mut [bool],
) -> bool {
    if local[i].is_some() {
        return true;
    }
    if seen[i] {
        return false;
    }
    seen[i] = true;
    ws.fns[i].calls.iter().enumerate().any(|(ci, _)| {
        resolved[i][ci]
            .iter()
            .any(|&j| reaches_panic(local, resolved, ws, j, seen))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/core/src/border.rs", src);
        let mut out = Vec::new();
        Panic1.check(&f, &mut out);
        out
    }

    fn run_flow(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect());
        let mut out = Vec::new();
        Panic1Flow.check(&ws, &mut out);
        out
    }

    #[test]
    fn transitive_panic_through_two_edges() {
        let protected = "fn handle(v: &[u8]) { helper(v); }\n";
        let helpers = "pub fn helper(v: &[u8]) { deep(v); }\n\
                       fn deep(v: &[u8]) { let _ = v.first().unwrap(); }\n";
        let out = run_flow(&[
            ("crates/core/src/border.rs", protected),
            ("crates/core/src/util.rs", helpers),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains("helper"), "{}", out[0].message);
        assert!(out[0].message.contains("deep"), "{}", out[0].message);
    }

    #[test]
    fn panic_free_callees_pass() {
        let protected = "fn handle(v: &[u8]) { helper(v); }\n";
        let helpers = "pub fn helper(v: &[u8]) -> Option<u8> { v.first().copied() }\n";
        let out = run_flow(&[
            ("crates/core/src/border.rs", protected),
            ("crates/core/src/util.rs", helpers),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_only_panics_do_not_taint() {
        let protected = "fn handle(v: &[u8]) { helper(v); }\n";
        let helpers = "pub fn helper(v: &[u8]) {}\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                       pub fn helper(v: &[u8]) { v.first().unwrap(); }\n\
                       }\n";
        let out = run_flow(&[
            ("crates/core/src/border.rs", protected),
            ("crates/core/src/util.rs", helpers),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn flags_unwrap_expect_panic_and_indexing() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                   let a = v.first().unwrap();\n\
                   let b = v.get(1).expect(\"one\");\n\
                   if v.is_empty() { panic!(\"no\"); }\n\
                   v[0]\n\
                   }\n";
        let out = run(src);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5], "{out:?}");
    }

    #[test]
    fn safe_forms_pass() {
        let src = "fn f(v: &[u8]) -> Option<u8> {\n\
                   let whole = &v[..];\n\
                   let arr = [0u8; 4];\n\
                   whole.first().copied().or_else(|| arr.first().copied())\n\
                   }\n";
        let out = run(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let src = "fn f(v: &[u8; 4]) -> u8 {\n\
                   let [a, _b, _c, _d] = *v;\n\
                   let [x, y] = [1u8, 2] else { return 0; };\n\
                   a.wrapping_add(x).wrapping_add(y)\n\
                   }\n";
        let out = run(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn directory_prefix_scopes_whole_tree() {
        assert!(Panic1.applies_to("crates/io/src/ring.rs"));
        assert!(Panic1.applies_to("crates/io/src/nested/deep.rs"));
        assert!(Panic1.applies_to("src/bin/apna-border.rs"));
        assert!(Panic1.applies_to("src/daemon.rs"));
        assert!(!Panic1.applies_to("crates/io/tests/conformance.rs"));
        assert!(!Panic1.applies_to("crates/simnet/src/lib.rs"));
    }

    #[test]
    fn tests_are_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { Some(1).unwrap(); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }
}
