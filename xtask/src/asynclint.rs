//! Async-hygiene pass.
//!
//! Two checks over every async region (async fn bodies plus
//! `async {}`/`async move {}` blocks) of every crate:
//!
//! - **A — sync mutex across await**: in a file that uses
//!   `std::sync::Mutex`, an async region that both takes `.lock()` and
//!   `.await`s is flagged — a `std` guard held across a suspension point
//!   deadlocks the executor thread. (parking_lot guards are equally
//!   unsafe across `.await` but the workspace convention is that those
//!   locks are only taken in synchronous leaf functions; the
//!   co-occurrence heuristic keys on the `std::sync::Mutex` import to
//!   avoid flagging tokio's own `Mutex::lock().await`.)
//! - **B — blocking I/O in async**: `std::fs::` / `std::net::` calls in
//!   an async region block the executor thread; use `tokio::fs`/
//!   `tokio::net` or `spawn_blocking`.
//!
//! A region nested in another (an `async move {}` inside an `async fn`)
//! is scanned as part of both, so its findings repeat once per level.

use crate::tokens::{each_level, flatten, FlatTok, Tok};
use crate::workspace::{SourceFile, Workspace};
use crate::{Counters, Finding};

pub fn check(ws: &Workspace, _: &mut Counters) -> Vec<Finding> {
    ws.under(&["crates"])
        .filter(|f| f.rel.split('/').nth(2) == Some("src"))
        .flat_map(scan)
        .collect()
}

/// The body of every async region: the first `{ … }` after an `async`
/// keyword at the same nesting level (past the fn signature or `move`);
/// a `;` first means a bodiless trait method.
fn async_regions(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut regions = Vec::new();
    each_level(toks, &mut |level| {
        for (i, t) in level.iter().enumerate() {
            if !t.is_ident("async") {
                continue;
            }
            let body = level[i + 1..]
                .iter()
                .take_while(|t| !t.is_punct(';'))
                .find_map(|t| t.group('{'));
            regions.extend(body);
        }
    });
    regions
}

fn scan(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let uses_std_mutex = file.text.contains("std::sync::Mutex");

    for region in async_regions(&file.toks) {
        let flat = flatten(region);
        let awaits = flat
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("await"));
        let lock = flat
            .windows(3)
            .find(|w| w[0].is_punct('.') && w[1].is_ident("lock") && w[2].is_open('('))
            .map(|w| w[0].pos());
        if let (true, true, Some(lock)) = (uses_std_mutex, awaits, lock) {
            out.push(
                file.finding_at(
                    lock,
                    "possible std::sync::Mutex guard held across `.await`: this async region \
                 both locks and awaits in a file using std::sync::Mutex — scope the guard \
                 to a sync block or switch to tokio::sync::Mutex"
                        .to_string(),
                ),
            );
        }
        for w in flat.windows(6) {
            let module = match &w[3] {
                FlatTok::Ident {
                    text: m @ ("fs" | "net"),
                    ..
                } => m,
                _ => continue,
            };
            let colons = [&w[1], &w[2], &w[4], &w[5]];
            if w[0].is_ident("std") && colons.iter().all(|t| t.is_punct(':')) {
                out.push(file.finding_at(
                    w[0].pos(),
                    format!(
                        "blocking `std::{module}::` call inside an async region blocks the \
                         executor thread; use the tokio equivalent or spawn_blocking"
                    ),
                ));
            }
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(src: &str) -> Vec<Finding> {
        scan(&SourceFile::new("x.rs", src))
    }

    #[test]
    fn finds_async_fn_and_block_regions() {
        let f = SourceFile::new(
            "x.rs",
            "async fn a(x: u8) { b().await } fn s() { spawn(async move { c().await }); } \
             trait T { async fn d(); } fn asyncish() { e }",
        );
        let regions = async_regions(&f.toks);
        assert_eq!(regions.len(), 2);
        assert!(regions[0][0].is_ident("b"));
        assert!(regions[1][0].is_ident("c"));
    }

    #[test]
    fn lock_across_await_flagged_only_with_std_mutex() {
        // Same shape but no std::sync::Mutex in the file (tokio's
        // `lock().await` pattern): clean.
        let ok = "async fn f(m: &tokio::sync::Mutex<u8>) { let g = m.lock().await; io().await; }";
        assert!(scan_src(ok).is_empty());
        let no_await = "use std::sync::Mutex;\nasync fn f(m: &Mutex<u8>) { let g = m.lock(); }";
        assert!(scan_src(no_await).is_empty());
    }

    #[test]
    fn blocking_io_in_sync_fn_or_test_code_is_clean() {
        assert!(scan_src("fn main() { std::fs::write(\"out\", data); }").is_empty());
        let test_only = "#[cfg(test)]\nmod tests { async fn f() { std::fs::read(p); x.await; } }";
        assert!(scan_src(test_only).is_empty());
    }
}
