//! Panic-path pass: request-handling and client-library code must
//! return `GliderResult` errors, never abort — servers answer with a
//! `GliderError`, and the client surfaces failures to its caller rather
//! than taking the application down. Flags `.unwrap(`, `.expect(`,
//! `panic!`, and direct slice/array indexing in the in-scope files.
//! Zero-tolerance: the legacy debt was paid off, so there is no waiver.

use crate::lexer::is_ident_char;
use crate::workspace::{SourceFile, Workspace};
use crate::{Counters, Finding};

const SCOPE: [&str; 5] = [
    "crates/metadata/src",
    "crates/storage/src",
    "crates/active/src",
    "crates/net/src",
    "crates/client/src",
];

pub fn check(ws: &Workspace, _: &mut Counters) -> Vec<Finding> {
    ws.under(&SCOPE).flat_map(scan).collect()
}

/// Panic-capable sites outside `#[cfg(test)]`, in line order.
fn scan(file: &SourceFile) -> Vec<Finding> {
    let text = &file.text;
    let bytes = text.as_bytes();
    let mut sites: Vec<(usize, &str)> = Vec::new();

    // `.unwrap_or(…)`/`.expect_err(…)` don't match: the `(` is part of
    // the pattern. `panic!` must start a word (not `dont_panic!`);
    // `assert!`-family macros are allowed: they state invariants, and
    // clippy covers their misuse.
    for (pat, kind) in [
        (".unwrap(", "unwrap"),
        (".expect(", "expect"),
        ("panic!", "panic"),
    ] {
        for (at, _) in text.match_indices(pat) {
            if kind != "panic" || at == 0 || !is_ident_char(bytes[at - 1] as char) {
                sites.push((at, kind));
            }
        }
    }

    // Indexing: `[` immediately preceded by an identifier char, `)`, or
    // `]` is an index expression (`x[i]`, `f()[i]`, `x[i][j]`). Attribute
    // `#[`, macro `vec![`, slice type `&[`, array literals and slice
    // patterns (`let [a, b] = ..`) are not matched because their
    // preceding char differs. Whitespace before `[` is deliberately NOT
    // skipped: `foo [i]` is not idiomatic in this tree, and skipping
    // would re-introduce `impl [T]`-style false hits.
    for (i, pair) in bytes.windows(2).enumerate() {
        let prev = pair[0] as char;
        if pair[1] == b'[' && (is_ident_char(prev) || prev == ')' || prev == ']') {
            sites.push((i + 1, "indexing"));
        }
    }

    sites.sort_unstable();
    sites
        .into_iter()
        .map(|(at, kind)| {
            file.finding_at(
                at,
                format!(
                    "panic-capable `{kind}` in request-handling code; return a GliderError \
                     instead"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<String> {
        scan(&SourceFile::new("x.rs", src))
            .into_iter()
            .map(|f| f.message.split('`').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn ignores_unwrap_or_and_expect_err() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); y.expect_err(\"m\"); }";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn ignores_panic_in_comments_strings_and_tests() {
        let src = r#"
            // panic! here is fine
            fn f() { let s = "panic!"; }
            #[cfg(test)]
            mod tests { fn t() { panic!(); x.unwrap(); } }
        "#;
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn ignores_named_macros_ending_in_panic() {
        assert!(kinds("fn f() { dont_panic!(); }").is_empty());
    }

    #[test]
    fn flags_indexing_but_not_attributes_or_types() {
        let src = "#[derive(Debug)]\nfn f(v: &[u8], m: Vec<u8>) -> u8 { let a = vec![1]; v[0] + a[1] + f(v, m)[2] }";
        assert_eq!(kinds(src), ["indexing", "indexing", "indexing"]);
    }

    #[test]
    fn slice_patterns_and_array_types_not_flagged() {
        let src = "fn f(x: [u8; 4]) { let [a, _b, ..] = x; let _y: &[u8] = &x; let _ = a; }";
        assert!(kinds(src).is_empty());
    }
}
