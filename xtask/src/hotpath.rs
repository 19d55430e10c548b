//! Hot-path allocation lint.
//!
//! The paper's near-data throughput numbers assume the per-record data
//! path — WriteBlock/ReadBlock service, StreamChunk batching, buffer
//! pool recycling — does not allocate per operation. That property is
//! invisible to the compiler and quietly regresses (`.clone()` on a
//! header here, a `format!` in a hot error path there), so the paths
//! are bracketed with region markers and this pass flags allocation
//! tokens inside them:
//!
//! ```text
//! // glider: hot-path (WriteBlock/ReadBlock sync fast path)
//! …
//! // glider: end-hot-path
//! ```
//!
//! Deliberate allocations — pool-mediated, Arc/Bytes refcount bumps,
//! one-time first-touch growth — are waived on the offending line with
//! `// glider: alloc-ok (justification)`; the justification is
//! mandatory, an empty one is itself a finding. Markers live in
//! comments, so they are read from the raw source; the forbidden
//! tokens are matched on the blanked line so strings and comments
//! cannot false-positive.

use crate::workspace::{SourceFile, Workspace};
use crate::{Counters, Finding};

/// Crates whose sources are scanned for hot-path regions.
const SCOPE: [&str; 9] = [
    "crates/analytics/src",
    "crates/blockstore/src",
    "crates/instance/src",
    "crates/metrics/src",
    "crates/net/src",
    "crates/storage/src",
    "crates/client/src",
    "crates/wal/src",
    "crates/trace/src",
];

/// Substrings (stripped source) that mean a per-op allocation.
const FORBIDDEN: [&str; 8] = [
    "Vec::new",
    "with_capacity(",
    ".to_vec(",
    ".clone()",
    "format!",
    "Box::new",
    "Box::pin",
    ".collect()",
];

const BEGIN: &str = "// glider: hot-path";
const END: &str = "// glider: end-hot-path";
const ALLOC_OK: &str = "// glider: alloc-ok";

pub fn check(ws: &Workspace, counters: &mut Counters) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for file in ws.under(&SCOPE) {
        out.extend(check_file(file, counters));
    }
    if counters.hot_regions == 0 {
        out.push(Finding::new(
            &SCOPE.join(", "),
            0,
            "hot-path pass found no `// glider: hot-path` regions — the markers on the \
             WriteBlock/ReadBlock/StreamChunk paths have been deleted"
                .to_string(),
        ));
    }
    out
}

fn check_file(file: &SourceFile, counters: &mut Counters) -> Vec<Finding> {
    let rel = file.rel.as_str();
    let mut out = Vec::new();
    let mut in_region = false;
    let mut region_open_line = 0usize;

    for (idx, (raw, blank)) in file.raw.lines().zip(file.text.lines()).enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();
        if let Some(rest) = trimmed.strip_prefix(BEGIN) {
            // Guard against `end-hot-path` matching the BEGIN prefix scan:
            // BEGIN is a prefix of nothing else we emit, but a stray
            // `// glider: hot-path-ish` should not open a region.
            if rest.is_empty() || rest.starts_with(' ') || rest.starts_with('(') {
                if in_region {
                    out.push(Finding::new(
                        rel,
                        line_no,
                        format!(
                            "nested `{BEGIN}` marker — close the region opened on line \
                             {region_open_line} first"
                        ),
                    ));
                }
                in_region = true;
                region_open_line = line_no;
                counters.hot_regions += 1;
                continue;
            }
        }
        if trimmed.starts_with(END) {
            if !in_region {
                out.push(Finding::new(
                    rel,
                    line_no,
                    format!("stray `{END}` marker with no open hot-path region"),
                ));
            }
            in_region = false;
            continue;
        }
        if !in_region {
            continue;
        }
        let hits: Vec<&str> = FORBIDDEN
            .iter()
            .copied()
            .filter(|tok| blank.contains(tok))
            .collect();
        if hits.is_empty() {
            continue;
        }
        if let Some(at) = raw.find(ALLOC_OK) {
            let just = raw[at + ALLOC_OK.len()..].trim();
            let just = just
                .strip_prefix('(')
                .and_then(|j| j.strip_suffix(')'))
                .map(str::trim)
                .unwrap_or("");
            if just.is_empty() {
                out.push(Finding::new(
                    rel,
                    line_no,
                    format!(
                        "`{ALLOC_OK}` needs a justification: \
                         `{ALLOC_OK} (why this allocation is fine per-op)`"
                    ),
                ));
            } else {
                counters.alloc_waived += hits.len();
            }
            continue;
        }
        for tok in hits {
            out.push(Finding::new(
                rel,
                line_no,
                format!(
                    "`{tok}` inside a `{BEGIN}` region — the data path must not allocate \
                     per op; use the buffer pool, or waive the line with \
                     `{ALLOC_OK} (justification)`"
                ),
            ));
        }
    }
    if in_region {
        out.push(Finding::new(
            rel,
            region_open_line,
            format!("hot-path region opened here is never closed with `{END}`"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Finding>, Counters) {
        let mut counters = Counters::default();
        let out = check_file(&SourceFile::new("a.rs", src), &mut counters);
        (out, counters)
    }

    #[test]
    fn clean_region_passes_and_counts() {
        let src = "
// glider: hot-path (write fast path)
fn write(buf: &mut BytesMut) {
    buf.extend_from_slice(b\"x\");
}
// glider: end-hot-path
fn cold() {
    let fine = data.to_vec();
}
";
        let (out, counters) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(counters.hot_regions, 1);
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_count() {
        let src = "
// glider: hot-path
fn write() {
    // a comment mentioning Vec::new and .clone()
    let s = \"format! inside a string\";
}
// glider: end-hot-path
";
        let (out, _) = run(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allocations_in_test_code_are_out_of_scope() {
        let src = "
// glider: hot-path
fn write() {}
#[cfg(test)]
mod tests {
    fn helper() { let v = Vec::new(); }
}
// glider: end-hot-path
";
        let (out, _) = run(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn justified_alloc_ok_waives_and_is_counted() {
        let src = "
// glider: hot-path
fn write(piece: Bytes) {
    let kept = piece.clone(); // glider: alloc-ok (Bytes refcount bump, not a copy)
}
// glider: end-hot-path
";
        let (out, counters) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(counters.alloc_waived, 1);
    }
}
