//! `cargo xtask check` — the source checks: panic-path, async-hygiene,
//! transport-registry, lock-order, protocol, durability and hot-path
//! passes over one token-tree model of the workspace. Dependency-free;
//! exits 0 when clean, 1 on any finding, 2 on a usage error. See the
//! `xtask` library crate for the passes themselves.

use std::process::ExitCode;
use xtask::workspace::Workspace;
use xtask::{check, workspace_root, PASSES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        eprintln!("usage: cargo xtask check");
        return ExitCode::from(2);
    }
    let Some(root) = workspace_root() else {
        eprintln!("error: could not find the repository root (the directory holding xtask/)");
        return ExitCode::from(2);
    };
    let (findings, c) = check(&Workspace::load(&root));
    println!(
        "protocol:   {} request / {} response variants, {} / {} opcodes, {} logged ops",
        c.req_variants, c.resp_variants, c.req_opcodes, c.resp_opcodes, c.logged_ops
    );
    println!(
        "durability: {} handler arms audited, {} finding(s) waived",
        c.arms_audited, c.durability_waived
    );
    println!(
        "hot-path:   {} marked region(s), {} allocation(s) waived inline",
        c.hot_regions, c.alloc_waived
    );
    println!(
        "lock-order: {} ranks, {} OrderedMutex declaration(s), {} nesting edge(s)",
        c.lock_ranks, c.lock_declarations, c.lock_edges
    );
    println!("waivers:    {} (the list is shrink-only)", c.waivers);

    if findings.is_empty() {
        let passes: Vec<&str> = PASSES.iter().map(|(name, _)| *name).collect();
        println!("xtask check: clean ({})", passes.join(", "));
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!();
    eprintln!("xtask check: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
