//! DET-1: determinism in `apna-simnet` and the daemon cores.
//!
//! The simnet's contract — byte-identical reruns under one seed, diffed
//! in CI — dies the moment a verdict, tally, or log line depends on
//! wall-clock time, ambient randomness, or `HashMap`/`HashSet` iteration
//! order (the default hasher is RandomState: per-process order). The
//! daemon cores (`BorderCore` in `crates/core/src/deploy.rs`, with the
//! MS/AA/DNS dispatch it calls, `AsNode::serve_control_burst` in
//! `crates/core/src/asnode.rs`, and `TranslatorPair` in
//! `crates/gateway/src/daemon.rs`) hold the same contract, since both the
//! daemons and the simulator run them: time arrives as `now`, frames
//! arrive and leave as values, and the shell owns the sockets and the
//! terminal. This rule flags:
//!
//! 1. `Instant::now` / `SystemTime::now` / `thread_rng` / `rand::random`
//!    anywhere in scope,
//! 2. socket types (`UdpSocket`, `TcpListener`, `TcpStream`) and
//!    `println!` / `eprintln!`, and
//! 3. order-revealing calls (`iter`, `keys`, `values`, `drain`, `retain`,
//!    `into_iter`, …) and `for`-loop headers on bindings the file
//!    declares as `HashMap`/`HashSet`.
//!
//! Lookup-only hash maps (`get`/`insert`/`contains`) are deterministic
//! and pass untouched — the hazard is iteration, not existence. Convert
//! iterated collections to `BTreeMap`/`BTreeSet`, drain through a sort,
//! or waive with a reason.

use super::Rule;
use crate::lexer::TokenKind;
use crate::source::{Finding, SourceFile};
use std::collections::BTreeSet;

/// See module docs.
pub struct Det1;

/// The files besides `crates/simnet/src/` in scope: the daemon cores, the
/// service dispatch the border core shares with the simulator, and the
/// host intents the simulator runs over its network.
const CORE_FILES: [&str; 4] = [
    "crates/core/src/deploy.rs",
    "crates/core/src/asnode.rs",
    "crates/gateway/src/daemon.rs",
    "crates/core/src/agent.rs",
];

/// Socket types and printing macros: I/O that belongs to a daemon's
/// shell, not to a deterministic core.
const SOCKETS: [&str; 3] = ["UdpSocket", "TcpListener", "TcpStream"];
const PRINTS: [&str; 2] = ["println", "eprintln"];

/// Method calls whose result depends on hash-iteration order.
const ORDER_REVEALING: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Accessors that are order-insensitive (used to clear `for`-header hits
/// like `for i in 0..map.len()`).
const ORDER_SAFE: [&str; 9] = [
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "len",
    "is_empty",
    "entry",
    "insert",
    "remove",
];

impl Rule for Det1 {
    fn id(&self) -> &'static str {
        "DET-1"
    }

    fn describe(&self) -> &'static str {
        "no ambient time/rng, sockets, printing or hash-order iteration in apna-simnet and the daemon cores"
    }

    fn applies_to(&self, path: &str) -> bool {
        path.contains("crates/simnet/src/") || CORE_FILES.iter().any(|f| path.ends_with(f))
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let hashy = collect_hash_bindings(file);
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.in_test_region(t.line) || t.kind != TokenKind::Ident {
                continue;
            }
            // 1. Ambient time / randomness.
            if (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                out.push(Finding::new(
                    "DET-1",
                    file,
                    t.line,
                    format!(
                        "`{}::now` breaks seeded reruns — use the sim clock or take `now` as an argument",
                        t.text
                    ),
                ));
                continue;
            }
            if t.is_ident("thread_rng")
                || (t.is_ident("rand")
                    && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("random")))
            {
                out.push(Finding::new(
                    "DET-1",
                    file,
                    t.line,
                    "ambient randomness breaks seeded reruns — thread a seeded rng".to_string(),
                ));
                continue;
            }
            // 2. Sockets and printing.
            if SOCKETS.contains(&t.text.as_str())
                || (PRINTS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|p| p.is_punct("!")))
            {
                out.push(Finding::new(
                    "DET-1",
                    file,
                    t.line,
                    format!(
                        "`{}` is shell I/O — take frames and `now` as arguments, return what to send",
                        t.text
                    ),
                ));
                continue;
            }
            // 3. Order-revealing calls on hash-typed bindings.
            if hashy.contains(&t.text)
                && toks.get(i + 1).is_some_and(|p| p.is_punct("."))
                && toks
                    .get(i + 2)
                    .is_some_and(|m| ORDER_REVEALING.contains(&m.text.as_str()))
                && toks.get(i + 3).is_some_and(|p| p.is_punct("("))
            {
                out.push(Finding::new(
                    "DET-1",
                    file,
                    t.line,
                    format!(
                        "`{}.{}()` iterates a HashMap/HashSet in hash order — use BTreeMap/BTreeSet or a sorted drain",
                        t.text,
                        toks[i + 2].text
                    ),
                ));
                continue;
            }
            // 4. `for … in <expr with hash binding>` headers.
            if t.is_ident("for") {
                if let Some(find) = for_header_hash_use(file, i, &hashy) {
                    out.push(find);
                }
            }
        }
    }
}

/// Names declared in this file with `HashMap`/`HashSet` in their type or
/// initializer: fields and params (`name: … HashMap<…>`) and lets
/// (`let [mut] name … = HashMap::new()` / with an explicit hash type).
fn collect_hash_bindings(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || file.in_test_region(t.line)
            || !toks.get(i + 1).is_some_and(|p| p.is_punct(":"))
        {
            continue;
        }
        // Scan the type expression: until a depth-0 `,` `;` `=` `)` `{`.
        let mut j = i + 2;
        let mut depth = 0i64;
        while j < toks.len() {
            let u = &toks[j];
            if u.is_punct("<") || u.is_punct("(") || u.is_punct("[") {
                depth += 1;
            } else if u.is_punct(">") || u.is_punct(")") || u.is_punct("]") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0
                && (u.is_punct(",") || u.is_punct(";") || u.is_punct("=") || u.is_punct("{"))
            {
                break;
            } else if u.is_ident("HashMap") || u.is_ident("HashSet") {
                names.insert(t.text.clone());
                break;
            }
            j += 1;
        }
    }
    // `let [mut] name = HashMap::new()` (untyped initializer form).
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("let") || file.in_test_region(t.line) {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|u| u.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|u| u.kind == TokenKind::Ident) else {
            continue;
        };
        if toks.get(j + 1).is_some_and(|u| u.is_punct("="))
            && toks
                .get(j + 2)
                .is_some_and(|u| u.is_ident("HashMap") || u.is_ident("HashSet"))
        {
            names.insert(name.text.clone());
        }
    }
    names
}

/// Flags a hash-typed binding inside a `for … in expr {` header unless it
/// is only queried through an order-safe accessor.
fn for_header_hash_use(
    file: &SourceFile,
    for_at: usize,
    hashy: &BTreeSet<String>,
) -> Option<Finding> {
    let toks = &file.tokens;
    // Find `in`, then the header end: first `{` with delimiters balanced.
    // A loop header's `in` always precedes any `{` or `;`; hitting one
    // first means this `for` is `impl Trait for Type` or a `for<'a>`
    // binder, not a loop.
    let mut j = for_at + 1;
    while j < toks.len() && !toks[j].is_ident("in") {
        if toks[j].is_punct("{") || toks[j].is_punct(";") {
            return None;
        }
        j += 1;
    }
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut k = j + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 && t.is_punct("{") {
            break;
        }
        if t.kind == TokenKind::Ident && hashy.contains(&t.text) {
            let safe = toks.get(k + 1).is_some_and(|p| p.is_punct("."))
                && toks
                    .get(k + 2)
                    .is_some_and(|m| ORDER_SAFE.contains(&m.text.as_str()));
            if !safe {
                return Some(Finding::new(
                    "DET-1",
                    file,
                    t.line,
                    format!(
                        "`for` over hash-ordered `{}` — use BTreeMap/BTreeSet or a sorted drain",
                        t.text
                    ),
                ));
            }
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/simnet/src/x.rs", src);
        let mut out = Vec::new();
        Det1.check(&f, &mut out);
        out
    }

    #[test]
    fn flags_instant_now_and_thread_rng() {
        let out = run("fn f() {\n    let t = Instant::now();\n    let r = thread_rng();\n}\n");
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].line, out[1].line), (2, 3));
    }

    #[test]
    fn flags_hash_iteration_but_not_lookup() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   fn f(s: &S) -> u64 {\n\
                   let hit = s.m.get(&1);\n\
                   s.m.values().sum()\n\
                   }\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn flags_for_over_hash_set() {
        let src = "fn f() {\n\
                   let mut seen = HashSet::new();\n\
                   for x in &seen {\n\
                   }\n\
                   for i in 0..seen.len() {\n\
                   }\n\
                   }\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn impl_for_is_not_a_loop_header() {
        // `for` in `impl Trait for Type` must not start a header scan
        // that runs into method bodies.
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   impl Clone for S {\n\
                   fn clone(&self) -> S {\n\
                   let hit = self.m.get(&1);\n\
                   S { m: HashMap::new() }\n\
                   }\n\
                   }\n";
        let out = run(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn flags_sockets_and_printing_in_a_core() {
        let src = "fn f(s: &UdpSocket) {\n    println!(\"x\");\n    let println = 1;\n}\n";
        for path in CORE_FILES {
            let f = SourceFile::parse(path, src);
            let mut out = Vec::new();
            Det1.check(&f, &mut out);
            assert_eq!(out.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 2]);
        }
        assert!(CORE_FILES.iter().all(|path| Det1.applies_to(path)));
        assert!(Det1.applies_to("crates/core/src/asnode.rs"));
        assert!(Det1.applies_to("crates/core/src/agent.rs"));
        assert!(!Det1.applies_to("src/daemon.rs"));
        assert!(!Det1.applies_to("crates/core/src/border.rs"));
    }

    #[test]
    fn btree_is_clean() {
        let out = run("fn f(m: &BTreeMap<u32, u64>) -> u64 { m.values().sum() }\n");
        assert!(out.is_empty(), "{out:?}");
    }
}
