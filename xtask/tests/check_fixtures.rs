//! Seeded-violation fixture corpus for every pass of `cargo xtask check`.
//!
//! Each pass must (a) report every violation planted in its corpus
//! under `tests/fixtures/` at exactly the expected file and line, and
//! nothing else, and (b) come back clean on the real workspace — the
//! same gate CI runs, exercised here as a library call so a regression
//! in either direction (missed violation, false positive) fails
//! `cargo test`.

use xtask::workspace::{SourceFile, Workspace};
use xtask::{asynclint, durability, hotpath, locks, panics, protocol, transports};
use xtask::{Counters, Finding, Pass};

/// What a corpus is planted in.
enum Base {
    /// Nothing: the corpus is a self-contained miniature workspace.
    Empty,
    /// The real tree (clean, see the last test), with the corpus files
    /// added or replacing the file at their path — so the corpus need
    /// only hold the violation, not the tables it is checked against.
    RealTree,
}

struct Case {
    name: &'static str,
    pass: Pass,
    base: Base,
    /// (workspace path the fixture stands at, fixture source).
    files: &'static [(&'static str, &'static str)],
    /// Exactly these findings: (file, line, message fragment).
    expect: &'static [(&'static str, usize, &'static str)],
    /// Replaces the golden-fixture listing when non-empty.
    golden: &'static [&'static str],
    waivers: &'static str,
    /// Fragments of the `Debug` rendering of the pass's [`Counters`].
    counters: &'static [&'static str],
}

/// A case with no golden listing, no waivers and no counter asserts.
const fn case(
    name: &'static str,
    pass: Pass,
    base: Base,
    files: &'static [(&'static str, &'static str)],
    expect: &'static [(&'static str, usize, &'static str)],
) -> Case {
    Case {
        name,
        pass,
        base,
        files,
        expect,
        golden: &[],
        waivers: "",
        counters: &[],
    }
}

const LOCKORDER: &str = "crates/util/src/lockorder.rs";
const REAL_LOCKORDER: &str = include_str!("../../crates/util/src/lockorder.rs");
const MESSAGE: &str = "crates/proto/src/message.rs";
const ERROR: &str = "crates/proto/src/error.rs";
const RPC: &str = "crates/net/src/rpc.rs";
const WAL: &str = "crates/metadata/src/wal.rs";
const METADATA: &str = "crates/metadata/src/lib.rs";
const STORAGE: &str = "crates/storage/src/server.rs";
const GOLDEN_TESTS: &str = "crates/proto/tests/golden_wire.rs";
// Where the single-file corpora are planted in the real tree.
const NET_SCRATCH: &str = "crates/net/src/seeded.rs";
const METADATA_SCRATCH: &str = "crates/metadata/src/seeded.rs";

#[rustfmt::skip] // one file per line
const DURABILITY_BAD: [(&str, &str); 3] = [
    (WAL, include_str!("fixtures/durability_bad/wal.rs")),
    (METADATA, include_str!("fixtures/durability_bad/metadata.rs")),
    (STORAGE, include_str!("fixtures/durability_bad/storage.rs")),
];

#[rustfmt::skip] // one finding per line reads as the table it is
const CASES: &[Case] = &[
    Case {
        golden: &["req_hello.hex", "req_put_block.hex", "req_get_block.hex", "resp_ok_ack.hex",
                  "resp_data.hex"],
        // The derived model is still usable despite the violations.
        counters: &["req_variants: 4", "resp_variants: 2", "logged_ops: 1"],
        ..case("proto_bad", protocol::check, Base::Empty,
            &[
                (MESSAGE, include_str!("fixtures/proto_bad/message.rs")),
                (RPC, include_str!("fixtures/proto_bad/rpc.rs")),
                ("crates/net/src/retry.rs", include_str!("fixtures/proto_bad/retry.rs")),
                (WAL, include_str!("fixtures/proto_bad/wal.rs")),
                (GOLDEN_TESTS, include_str!("fixtures/proto_bad/golden_wire.rs")),
                // The corpus has no `ErrorCode`; the real one is complete.
                (ERROR, include_str!("../../crates/proto/src/error.rs")),
            ],
            &[
                // Duplicate opcode within the request direction.
                (MESSAGE, 0, "duplicate RequestBody opcode 2: GetBlock, PutBlock"),
                // A variant with no opcode arm cannot be encoded.
                (MESSAGE, 0, "`RequestBody::Evict` has no arm in `fn opcode`"),
                // Round-trip breaks: opcode 1 encodes Hello, decodes PutBlock.
                (MESSAGE, 0, "opcode 1 encodes from `RequestBody::Hello` but decodes to"),
                (MESSAGE, 0, "opcode 2 encodes from `RequestBody::PutBlock` but decodes to"),
                // Unclassified variant, per table.
                (MESSAGE, 33, "`fn is_idempotent` does not classify `RequestBody::Evict`"),
                (RPC, 3, "`fn op_kind` does not classify `RequestBody::Evict`"),
                // Mutual-consistency violations for the Logged PutBlock.
                (WAL, 0, "`RequestBody::PutBlock` is WAL-`Logged` but `is_idempotent` returns true"),
                (WAL, 0, "WAL-`Logged` but `op_class` says `OpClass::Storage`"),
                // Golden fixture gaps: one missing on disk, one unregistered.
                ("crates/proto/tests/golden/req_evict.hex", 0, "missing golden wire fixture"),
                (GOLDEN_TESTS, 0, "`resp_data` is not registered"),
            ])
    },
    case("retryable_bad", protocol::check, Base::RealTree,
        &[(ERROR, include_str!("fixtures/retryable_bad/error.rs"))],
        &[(ERROR, 12, "`fn is_retryable` does not classify `ErrorCode::Throttled`")]),
    Case {
        counters: &["arms_audited: 3", "durability_waived: 0"],
        ..case("durability_bad", durability::check, Base::Empty, &DURABILITY_BAD,
            &[
                // CreateFile acks before the append; DeleteFile is clean.
                (METADATA, 10, "`RequestBody::CreateFile` is WAL-`Logged` but this arm acks"),
                // RenameFile has no arm to audit at all.
                (METADATA, 0, "has no `RequestBody::RenameFile` match arm to audit"),
                // ForwardChunk forwards, then acks, then persists.
                (STORAGE, 10, "`ForwardChunk` forwards down the chain before the local"),
                (STORAGE, 19, "`ForwardChunk` acks `Written` before the local"),
            ])
    },
    Case {
        // The missing-arm finding is waivable with a justification.
        waivers: "durability RenameFile -- renames route through rename_locked, which appends\n",
        counters: &["arms_audited: 3", "durability_waived: 1"],
        ..case("durability_bad, waived", durability::check, Base::Empty, &DURABILITY_BAD,
            &[
                (METADATA, 10, "`RequestBody::CreateFile`"),
                (STORAGE, 10, "forwards down the chain"),
                (STORAGE, 19, "acks `Written`"),
            ])
    },
    Case {
        counters: &["hot_regions: 2"],
        ..case("hotpath_bad", hotpath::check, Base::Empty,
            &[(NET_SCRATCH, include_str!("fixtures/hotpath_bad/hot.rs"))],
            &[
                (NET_SCRATCH, 7, "`.to_vec(` inside a `// glider: hot-path` region"),
                (NET_SCRATCH, 8, "`format!` inside a `// glider: hot-path` region"),
                (NET_SCRATCH, 9, "`with_capacity(` inside a `// glider: hot-path` region"),
                (NET_SCRATCH, 10, "`// glider: alloc-ok` needs a justification"),
                (NET_SCRATCH, 16, "stray `// glider: end-hot-path`"),
                (NET_SCRATCH, 18, "never closed"),
            ])
    },
    Case {
        // `BufferPool` dropped from the enum and `JournalIndex` added
        // without deciding identifiers: both directions are reported.
        counters: &["lock_ranks: 4"],
        ..case("lockgraph_bad/lockorder", locks::check, Base::Empty,
            &[(LOCKORDER, include_str!("fixtures/lockgraph_bad/lockorder.rs"))],
            &[
                (LOCKORDER, 0, "`LockRank::JournalIndex` (declaration order 3) has no deciding"),
                ("xtask/src/locks.rs", 0, "DECIDING lists `BufferPool` but `LockRank` has no such"),
            ])
    },
    Case {
        counters: &["lock_declarations: 2"],
        ..case("lockgraph_bad/decls", locks::check, Base::Empty,
            &[
                (LOCKORDER, REAL_LOCKORDER),
                (NET_SCRATCH, include_str!("fixtures/lockgraph_bad/decls.rs")),
            ],
            &[
                // `reg` is a Registry deciding identifier declared at BufferPool rank.
                (NET_SCRATCH, 10, "lock `reg` is declared at LockRank::BufferPool"),
                // A computed first argument cannot be ranked statically.
                (NET_SCRATCH, 12, "cannot rank this lock statically"),
            ])
    },
    Case {
        // Two files, each locally consistent under its own ordering,
        // that disagree about BlockMap vs Registry. The old graph pass
        // reported the cycle Registry -> BlockMap -> Registry at the
        // acquisition closing it; with totally ordered ranks that
        // acquisition is by construction out of order, so the per-site
        // check pins the same file and line.
        counters: &["lock_edges: 2"],
        ..case("lockgraph_bad/cycle", locks::check, Base::Empty,
            &[
                (LOCKORDER, REAL_LOCKORDER),
                ("crates/metadata/src/promote.rs", include_str!("fixtures/lockgraph_bad/promote.rs")),
                ("crates/storage/src/demote.rs", include_str!("fixtures/lockgraph_bad/demote.rs")),
            ],
            &[("crates/storage/src/demote.rs", 7,
               "acquiring Registry (rank 1) while holding BlockMap (rank 2)")])
    },
    case("locks_bad", locks::check, Base::RealTree,
        &[(NET_SCRATCH, include_str!("fixtures/locks_bad/pool.rs"))],
        &[
            (NET_SCRATCH, 6, "acquiring BlockMap (rank 2) while holding BufferPool (rank 3)"),
            (NET_SCRATCH, 12, "acquiring BlockMap (rank 2) while holding BlockMap (rank 2)"),
        ]),
    case("panics_bad", panics::check, Base::RealTree,
        &[(METADATA_SCRATCH, include_str!("fixtures/panics_bad/handler.rs"))],
        &[
            (METADATA_SCRATCH, 5, "panic-capable `unwrap`"),
            (METADATA_SCRATCH, 6, "panic-capable `expect`"),
            (METADATA_SCRATCH, 8, "panic-capable `panic`"),
            (METADATA_SCRATCH, 10, "panic-capable `indexing`"),
        ]),
    case("async_bad", asynclint::check, Base::RealTree,
        &[(NET_SCRATCH, include_str!("fixtures/async_bad/blocking.rs"))],
        &[
            (NET_SCRATCH, 7, "blocking `std::fs::` call inside an async region"),
            (NET_SCRATCH, 8, "std::sync::Mutex guard held across `.await`"),
            (NET_SCRATCH, 16, "blocking `std::net::` call inside an async region"),
        ]),
    case("transports_bad", transports::check, Base::RealTree,
        &[(NET_SCRATCH, include_str!("fixtures/transports_bad/rdma.rs"))],
        &[(NET_SCRATCH, 6, "`impl Transport for RdmaSimTransport` is not registered in TRANSPORTS")]),
];

fn real_tree() -> Workspace {
    let root = xtask::workspace_root().expect("test runs inside the repository");
    Workspace::load(&root)
}

fn render(findings: &[Finding]) -> String {
    let lines: Vec<String> = findings.iter().map(ToString::to_string).collect();
    lines.join("\n")
}

#[test]
fn every_pass_reports_exactly_its_seeded_violations() {
    for case in CASES {
        let mut ws = match case.base {
            Base::Empty => Workspace::default(),
            Base::RealTree => real_tree(),
        };
        for (rel, source) in case.files {
            ws.files.retain(|f| f.rel != *rel);
            ws.files.push(SourceFile::new(rel, source));
        }
        if !case.golden.is_empty() {
            ws.golden = case.golden.iter().map(|g| g.to_string()).collect();
        }
        ws.set_waivers(case.waivers);

        let mut counters = Counters::default();
        let out = (case.pass)(&ws, &mut counters);
        for (file, line, fragment) in case.expect {
            let hits = out
                .iter()
                .filter(|f| f.file == *file && f.line == *line && f.message.contains(fragment))
                .count();
            assert_eq!(
                hits,
                1,
                "{}: expected exactly one finding at {file}:{line} containing {fragment:?}, \
                 got {hits} in:\n{}",
                case.name,
                render(&out)
            );
        }
        assert_eq!(
            out.len(),
            case.expect.len(),
            "{}: no unplanned findings:\n{}",
            case.name,
            render(&out)
        );
        let rendered = format!("{counters:?}");
        for fragment in case.counters {
            assert!(
                rendered.contains(fragment),
                "{}: want {fragment} in {rendered}",
                case.name
            );
        }
        assert!(
            ws.waivers.stale().is_empty(),
            "{}: every waiver was consumed",
            case.name
        );
    }
}

#[test]
fn check_is_clean_on_the_workspace() {
    let (findings, counters) = xtask::check(&real_tree());
    assert!(
        findings.is_empty(),
        "check must be clean on the real tree:\n{}",
        render(&findings)
    );
    // The counters reflect a real, non-degenerate model: if these hit
    // zero the passes are silently matching nothing.
    assert!(counters.req_variants >= 20);
    assert!(counters.logged_ops >= 1);
    assert!(counters.hot_regions >= 5);
    assert!(counters.lock_declarations >= 3);
}
