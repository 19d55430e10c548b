//! Glider's source checker, as a library so the passes are testable
//! against seeded-violation fixture corpora (see `xtask/tests/`).
//!
//! One entry point, [`check`], over one source model
//! ([`workspace::Workspace`]: every in-scope file read, blanked and
//! tokenised once). Each pass in [`PASSES`] is a function of that model
//! returning findings and bumping its [`Counters`].
//!
//! Everything is dependency-free plain-text analysis over a blanked
//! token stream (see [`lexer`], [`tokens`]): it builds and runs offline,
//! anywhere `rustc` does, and stays fast enough for a pre-commit hook.

pub mod asynclint;
pub mod durability;
pub mod hotpath;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod protocol;
pub mod tokens;
pub mod transports;
pub mod waivers;
pub mod workspace;

use std::path::{Path, PathBuf};
use workspace::Workspace;

/// One finding. `line` 0 means "whole file".
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: usize, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.message)
        } else {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        }
    }
}

/// What the passes saw, printed after every run: a counter stuck at
/// zero means its pass is silently matching nothing.
#[derive(Debug, Default)]
pub struct Counters {
    pub req_variants: usize,
    pub resp_variants: usize,
    pub req_opcodes: usize,
    pub resp_opcodes: usize,
    /// Request variants `wal_class` calls `Logged`.
    pub logged_ops: usize,
    /// Logged ops (plus `ForwardChunk`) with at least one audited arm.
    pub arms_audited: usize,
    /// Durability findings suppressed by a waiver.
    pub durability_waived: usize,
    /// `// glider: hot-path` regions seen.
    pub hot_regions: usize,
    /// Allocation tokens waived with a justified `alloc-ok`.
    pub alloc_waived: usize,
    /// `LockRank` variants, parsed from `glider-util`.
    pub lock_ranks: usize,
    /// `OrderedMutex::new` sites audited.
    pub lock_declarations: usize,
    /// Nested lock acquisitions seen, legal or not.
    pub lock_edges: usize,
    /// Entries in the waiver list.
    pub waivers: usize,
}

pub type Pass = fn(&Workspace, &mut Counters) -> Vec<Finding>;

pub const PASSES: [(&str, Pass); 7] = [
    ("panic-path", panics::check),
    ("async-hygiene", asynclint::check),
    ("transport-registry", transports::check),
    ("lock-order", locks::check),
    ("protocol", protocol::check),
    ("durability", durability::check),
    ("hot-path", hotpath::check),
];

/// The repository root as seen from the current directory.
pub fn workspace_root() -> Option<PathBuf> {
    root_from(&std::env::current_dir().ok()?)
}

/// Walks up from `start` to the ancestor that holds `xtask/Cargo.toml`.
/// (Not "the nearest `[workspace]` manifest": from inside `crates/` that
/// is the runtime workspace, one level too deep.)
fn root_from(start: &Path) -> Option<PathBuf> {
    let root = start
        .ancestors()
        .find(|dir| dir.join("xtask/Cargo.toml").is_file())?;
    Some(root.to_path_buf())
}

/// Runs every pass; an empty result means clean.
pub fn check(ws: &Workspace) -> (Vec<Finding>, Counters) {
    let mut counters = Counters {
        waivers: ws.waivers.len(),
        ..Counters::default()
    };
    let mut findings = ws.load_findings.clone();
    for (_, pass) in PASSES {
        findings.extend(pass(ws, &mut counters));
    }
    // The waiver ratchet: every waiver must have earned its keep.
    findings.extend(ws.waivers.stale());
    (findings, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_directory_resolves_the_same_root() {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        for start in [".", "crates/net", "xtask"] {
            assert_eq!(
                root_from(&repo.join(start)).as_deref(),
                Some(repo),
                "from {start}"
            );
        }
        assert_eq!(root_from(Path::new("/")), None);
    }
}
