//! The one source model every pass reads: each in-scope file is read,
//! stripped, `#[cfg(test)]`-blanked and tokenised exactly once.

use crate::lexer::{blank_cfg_test, line_of, strip};
use crate::tokens::{self, Tok};
use crate::waivers::Waivers;
use crate::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// The committed waiver list (see [`crate::waivers`]).
pub const WAIVER_FILE: &str = "xtask/waivers.txt";
/// Registrations of the golden wire fixtures — the one in-scope file
/// outside a `src/` tree.
const GOLDEN_TESTS: &str = "crates/proto/tests/golden_wire.rs";
const GOLDEN_DIR: &str = "crates/proto/tests/golden";

/// One source file in its three views. Offsets and line numbers agree
/// across all of them: blanking preserves every newline.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// As read from disk — only the hot-path pass needs it, for the
    /// markers that live in comments.
    pub raw: String,
    /// Comments, literals and `#[cfg(test)]` items blanked to spaces.
    pub text: String,
    /// Token trees of `text`.
    pub toks: Vec<Tok>,
}

impl SourceFile {
    pub fn new(rel: &str, raw: &str) -> SourceFile {
        let text = blank_cfg_test(&strip(raw));
        SourceFile {
            rel: rel.to_string(),
            raw: raw.to_string(),
            toks: tokens::parse(&text),
            text,
        }
    }

    /// 1-based line holding offset `pos` of `text`.
    pub fn line(&self, pos: usize) -> usize {
        line_of(&self.text, pos)
    }

    /// A finding at the line holding offset `pos` of `text`.
    pub fn finding_at(&self, pos: usize, message: String) -> Finding {
        Finding::new(&self.rel, self.line(pos), message)
    }
}

/// Everything `cargo xtask check` looks at.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Sorted by `rel`, for deterministic output.
    pub files: Vec<SourceFile>,
    /// File names present in `crates/proto/tests/golden/`.
    pub golden: Vec<String>,
    pub waivers: Waivers,
    /// What went wrong while loading: unreadable files, a malformed
    /// waiver list, an empty scope. A check that silently skips a file
    /// enforces nothing, so these are findings like any other.
    pub load_findings: Vec<Finding>,
}

impl Workspace {
    /// Loads `crates/*/src/**/*.rs`, the golden-fixture registrations,
    /// the fixture listing and the waiver list from the tree at `root`.
    pub fn load(root: &Path) -> Workspace {
        let mut ws = Workspace::default();
        let mut paths = Vec::new();
        for krate in sorted_entries(&root.join("crates")) {
            rs_files(&krate.join("src"), &mut paths);
        }
        if paths.is_empty() {
            ws.load_findings.push(Finding::new(
                "crates",
                0,
                "found no `crates/*/src` sources to check".to_string(),
            ));
        }
        paths.push(root.join(GOLDEN_TESTS));
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            match fs::read_to_string(&path) {
                Ok(raw) => ws.files.push(SourceFile::new(&rel, &raw)),
                Err(e) => ws.load_findings.push(unreadable(&rel, &e.to_string())),
            }
        }
        ws.files.sort_by(|a, b| a.rel.cmp(&b.rel));
        ws.golden = sorted_entries(&root.join(GOLDEN_DIR))
            .iter()
            .filter_map(|p| Some(p.file_name()?.to_str()?.to_string()))
            .collect();
        match fs::read_to_string(root.join(WAIVER_FILE)) {
            Ok(text) => ws.set_waivers(&text),
            Err(e) => ws
                .load_findings
                .push(unreadable(WAIVER_FILE, &e.to_string())),
        }
        ws
    }

    /// An in-memory workspace, for the seeded-violation fixtures: each
    /// `(rel, source)` pair stands in for the file at that path.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, raw)| SourceFile::new(rel, raw))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace {
            files,
            ..Workspace::default()
        }
    }

    /// Replaces the waiver list; a malformed list is a load finding.
    pub fn set_waivers(&mut self, text: &str) {
        match Waivers::parse(text) {
            Ok(w) => self.waivers = w,
            Err(msg) => self.load_findings.push(Finding::new(WAIVER_FILE, 0, msg)),
        }
    }

    /// The file at `rel`, or the finding that says it is missing.
    pub fn file(&self, rel: &str) -> Result<&SourceFile, Finding> {
        self.files
            .iter()
            .find(|f| f.rel == rel)
            .ok_or_else(|| unreadable(rel, "not in the workspace"))
    }

    /// Files under any of the `dirs` (workspace-relative, no trailing `/`).
    pub fn under<'a>(&'a self, dirs: &'a [&str]) -> impl Iterator<Item = &'a SourceFile> {
        self.files.iter().filter(move |f| {
            dirs.iter().any(|d| {
                f.rel
                    .strip_prefix(d)
                    .is_some_and(|rest| rest.starts_with('/'))
            })
        })
    }
}

fn unreadable(rel: &str, why: &str) -> Finding {
    Finding::new(rel, 0, format!("cannot read lint scope file: {why}"))
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.sort();
    entries
}

/// Recursively collects the `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_agree_on_offsets_and_skip_test_code() {
        let raw = "fn a() { x.lock(); } // .lock()\n#[cfg(test)]\nmod t { fn b() { y.lock(); } }\n";
        let f = SourceFile::new("a.rs", raw);
        assert_eq!(f.text.len(), raw.len());
        assert_eq!(f.text.matches(".lock()").count(), 1);
        assert!(tokens::fn_body(&f.toks, "a").is_some());
        assert!(tokens::fn_body(&f.toks, "b").is_none());
        let pos = raw.find("mod t").unwrap();
        assert_eq!(f.finding_at(pos, String::new()).line, 3);
    }

    #[test]
    fn scope_queries_respect_directory_boundaries() {
        let ws = Workspace::from_sources(&[
            ("crates/net/src/rpc.rs", ""),
            ("crates/net/src/sub/x.rs", ""),
            ("crates/network/src/lib.rs", ""),
        ]);
        let rels: Vec<&str> = ws.under(&["crates/net"]).map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, ["crates/net/src/rpc.rs", "crates/net/src/sub/x.rs"]);
        assert!(ws.file("crates/net/src/rpc.rs").is_ok());
        let missing = ws.file("crates/net/src/gone.rs").unwrap_err();
        assert!(missing.message.contains("cannot read lint scope file"));
    }
}
