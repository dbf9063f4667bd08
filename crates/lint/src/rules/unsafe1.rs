//! UNSAFE-1: `unsafe` hygiene.
//!
//! The workspace denies `unsafe_code` globally; the only modules allowed
//! to re-enable it are the two `core::arch` backends of `apna-crypto` —
//! the AES-NI cipher and the `pclmulqdq` GHASH kernel — where every
//! `unsafe` is a feature-gated intrinsic call. This rule enforces both halves
//! mechanically: `unsafe` may appear only in allowlisted files, and every
//! `unsafe` fn/block/impl/trait must be immediately preceded by a
//! `// SAFETY:` comment (blank lines, doc comments, and attributes may
//! sit between the comment and the keyword).

use super::Rule;
use crate::source::{Finding, SourceFile};
use std::collections::BTreeSet;

/// See module docs.
pub struct Unsafe1 {
    /// Files (workspace-relative suffix match) where `unsafe` is legal.
    pub allowlist: Vec<String>,
}

impl Default for Unsafe1 {
    fn default() -> Unsafe1 {
        Unsafe1 {
            allowlist: vec![
                "crates/crypto/src/aes_ni.rs".to_string(),
                "crates/crypto/src/ghash_clmul.rs".to_string(),
            ],
        }
    }
}

impl Rule for Unsafe1 {
    fn id(&self) -> &'static str {
        "UNSAFE-1"
    }

    fn describe(&self) -> &'static str {
        "unsafe only in allowlisted modules, each use under a SAFETY: comment"
    }

    fn applies_to(&self, _path: &str) -> bool {
        true
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let allowlisted = self
            .allowlist
            .iter()
            .any(|a| file.path.ends_with(a.as_str()));
        let safety_lines: BTreeSet<u32> = file
            .comment_lines_containing("SAFETY:")
            .into_iter()
            .collect();
        for (i, t) in file.tokens.iter().enumerate() {
            if !t.is_ident("unsafe") || file.token_in_attr(i) {
                continue;
            }
            if !allowlisted {
                out.push(Finding::new(
                    "UNSAFE-1",
                    file,
                    t.line,
                    format!(
                        "`unsafe` outside the allowlisted modules ({})",
                        self.allowlist.join(", ")
                    ),
                ));
                continue;
            }
            if !has_preceding_safety(file, t.line, &safety_lines) {
                out.push(Finding::new(
                    "UNSAFE-1",
                    file,
                    t.line,
                    "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                ));
            }
        }
    }
}

/// Walks upward from the `unsafe` keyword's line looking for a `SAFETY:`
/// comment, skipping blank lines, comment-only lines, and attribute-only
/// lines. Any other code line breaks the search. A `SAFETY:` comment on
/// the keyword's own line (e.g. above the block, same statement) counts.
fn has_preceding_safety(file: &SourceFile, line: u32, safety_lines: &BTreeSet<u32>) -> bool {
    if safety_lines.contains(&line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if safety_lines.contains(&l) {
            return true;
        }
        if file.line_has_code(l) && !file.attr_only_line(l) {
            return false;
        }
        // Blank, comment-only, or attribute-only: keep walking.
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        Unsafe1::default().check(&f, &mut out);
        out
    }

    #[test]
    fn unsafe_outside_allowlist_flagged() {
        let out = run(
            "crates/core/src/border.rs",
            "fn f() {\n    unsafe { dangerous() }\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn safety_comment_satisfies_allowlisted_file() {
        let src = "// SAFETY: feature checked at construction.\n\
                   #[target_feature(enable = \"aes\")]\n\
                   unsafe fn go() {}\n\
                   unsafe fn bare() {}\n";
        for allowlisted in [
            "crates/crypto/src/aes_ni.rs",
            "crates/crypto/src/ghash_clmul.rs",
        ] {
            let out = run(allowlisted, src);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].line, 4);
        }
    }

    #[test]
    fn string_mention_is_not_unsafe() {
        let out = run("crates/core/src/x.rs", "fn f() { let s = \"unsafe\"; }\n");
        assert!(out.is_empty());
    }
}
