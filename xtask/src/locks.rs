//! Lock-order pass over the metadata/storage/net planes.
//!
//! The hierarchy, outermost first, is `enum LockRank` in
//! `crates/util/src/lockorder.rs`, read from that file at run time: a
//! lock's rank is its variant's declaration index. What this pass adds
//! is `DECIDING`, the receiver identifiers that give a `.lock()` call
//! its rank. Three checks:
//!
//! 1. **Use sites** — every `.lock()` call whose receiver resolves to a
//!    rank is tracked against the guards live at that point: a
//!    `let`-bound guard lives to the end of its enclosing block, a
//!    temporary to the end of its statement. Acquiring a rank while an
//!    equal-or-higher rank is held is a finding (equal: at most one
//!    shard of a sharded lock at a time). Unknown receivers are ignored
//!    (the runtime tracker in `glider-util` is the backstop).
//! 2. **Declarations** — every `OrderedMutex::new(LockRank::…, …)` must
//!    name a declared rank literally, and when it is bound to a named
//!    field/binding that name must be a deciding identifier of that
//!    rank — otherwise `.lock()` calls on it would never be tracked.
//! 3. **Coverage** — every rank has deciding identifiers, and every
//!    `DECIDING` row names a rank that exists.
//!
//! There is no graph-level cycle detection: ranks are totally ordered,
//! so every cycle among nested acquisitions contains an edge with
//! `held >= acquired`, which check 1 reports at the site that closes it.

use crate::tokens::{each_level, enum_variants, qualified_variants, Tok};
use crate::workspace::{SourceFile, Workspace};
use crate::{Counters, Finding};

const LOCKORDER: &str = "crates/util/src/lockorder.rs";
const USE_DIRS: [&str; 3] = [
    "crates/metadata/src",
    "crates/storage/src",
    "crates/net/src",
];
const DECL_DIRS: [&str; 4] = [
    "crates/metadata/src",
    "crates/storage/src",
    "crates/net/src",
    "crates/util/src",
];

/// `LockRank` variant → the identifiers that resolve a `.lock()`
/// receiver (field, binding, or accessor method) to it.
const DECIDING: [(&str, &[&str]); 4] = [
    (
        "NamespaceShard",
        &["shard", "shards", "shard_for_path", "shard_for_id"],
    ),
    ("Registry", &["reg"]),
    (
        "BlockMap",
        &["blocks", "block_shard", "block_shards", "block_shard_for"],
    ),
    ("BufferPool", &["free"]),
];

/// The rank (declaration index in `ranks`) `ident` decides, if any.
fn rank_of(ranks: &[String], ident: &str) -> Option<usize> {
    let (name, _) = DECIDING
        .iter()
        .find(|(_, idents)| idents.contains(&ident))?;
    ranks.iter().position(|r| r == name)
}

pub fn check(ws: &Workspace, counters: &mut Counters) -> Vec<Finding> {
    let lockorder = match ws.file(LOCKORDER) {
        Ok(f) => f,
        Err(f) => return vec![f],
    };
    let Some(ranks) = enum_variants(&lockorder.toks, "LockRank") else {
        return vec![Finding::new(
            LOCKORDER,
            0,
            "lock-order pass cannot find `enum LockRank` — update xtask if the rank enum moved"
                .to_string(),
        )];
    };
    counters.lock_ranks = ranks.len();

    let mut out = Vec::new();
    for (i, rank) in ranks.iter().enumerate() {
        if !DECIDING.iter().any(|(name, _)| name == rank) {
            out.push(Finding::new(
                LOCKORDER,
                0,
                format!(
                    "`LockRank::{rank}` (declaration order {i}) has no deciding identifiers \
                     in xtask/src/locks.rs — a new lock cannot ship without a rank and \
                     deciding identifiers for the lint"
                ),
            ));
        }
    }
    for (name, _) in DECIDING {
        if !ranks.iter().any(|r| r == name) {
            out.push(Finding::new(
                "xtask/src/locks.rs",
                0,
                format!(
                    "DECIDING lists `{name}` but `LockRank` has no such variant — remove the \
                     stale row"
                ),
            ));
        }
    }
    for file in ws.under(&DECL_DIRS) {
        check_declarations(ws, file, &ranks, counters, &mut out);
    }
    for file in ws.under(&USE_DIRS) {
        let mut sites = UseSites {
            file,
            ranks: &ranks,
            held: Vec::new(),
            edges: 0,
            out: &mut out,
        };
        sites.walk(&file.toks, 0);
        counters.lock_edges += sites.edges;
    }
    out
}

/// A live guard.
struct Held {
    rank: usize,
    /// Brace depth of the block the guard lives in (`let`-bound), or of
    /// the statement for a temporary.
    depth: usize,
    /// Temporaries die at the next `;` closing their statement;
    /// `let`-bound guards die when their block closes.
    temporary: bool,
}

struct UseSites<'a> {
    file: &'a SourceFile,
    ranks: &'a [String],
    held: Vec<Held>,
    /// Nested acquisitions seen, legal or not.
    edges: usize,
    out: &'a mut Vec<Finding>,
}

impl UseSites<'_> {
    fn walk(&mut self, toks: &[Tok], depth: usize) {
        for (i, t) in toks.iter().enumerate() {
            match t {
                Tok::Group {
                    delim: '{',
                    toks: inner,
                    ..
                } => {
                    self.walk(inner, depth + 1);
                    self.held.retain(|h| h.depth <= depth);
                }
                Tok::Group { toks: inner, .. } => self.walk(inner, depth),
                Tok::Punct { ch: ';', .. } => {
                    self.held.retain(|h| !(h.temporary && h.depth >= depth));
                }
                Tok::Punct { ch: '.', pos } if is_lock_call(&toks[i + 1..]) => {
                    let receiver = receiver_ident(&toks[..i]);
                    if let Some(rank) = receiver.and_then(|r| rank_of(self.ranks, r)) {
                        self.acquire(toks, i, *pos, rank, depth);
                    }
                }
                _ => {}
            }
        }
    }

    /// Records the `.lock()` at `toks[dot]` acquiring `rank`.
    fn acquire(&mut self, toks: &[Tok], dot: usize, pos: usize, rank: usize, depth: usize) {
        for h in &self.held {
            self.edges += 1;
            if h.rank >= rank {
                self.out.push(self.file.finding_at(
                    pos,
                    format!(
                        "lock-order violation: acquiring {} (rank {rank}) while holding {} \
                         (rank {}) — the declared hierarchy is {}, one shard at a time",
                        self.ranks[rank],
                        self.ranks[h.rank],
                        h.rank,
                        self.ranks.join(" < ")
                    ),
                ));
            }
        }
        // The guard itself is only bound (block lifetime) when the
        // statement is `let g = ….lock();` — anything chained after
        // `.lock()` consumes the guard within the statement, making it
        // a temporary.
        let statement = toks[..dot]
            .iter()
            .rposition(|t| t.is_punct(';') || t.group('{').is_some())
            .map_or(0, |p| p + 1);
        let bound =
            toks.get(dot + 3).is_some_and(|t| t.is_punct(';')) && toks[statement].is_ident("let");
        self.held.push(Held {
            rank,
            depth,
            temporary: !bound,
        });
    }
}

/// Whether the tokens after a `.` spell `lock()`.
fn is_lock_call(after: &[Tok]) -> bool {
    matches!(after, [name, args, ..]
        if name.is_ident("lock") && args.group('(').is_some_and(<[Tok]>::is_empty))
}

/// Resolves the receiver ending at the tail of `before` (the tokens
/// preceding `.lock()`) to its deciding identifier, walking back over
/// `?` and `(…)`/`[…]` groups — so `self.shard_for_path(&p)?.lock()`
/// resolves to `shard_for_path` and `self.reg.lock()` to `reg`.
fn receiver_ident(before: &[Tok]) -> Option<&str> {
    for t in before.iter().rev() {
        match t {
            Tok::Punct { ch: '?', .. }
            | Tok::Group {
                delim: '(' | '[', ..
            } => {}
            other => return other.ident(),
        }
    }
    None
}

/// Audits every `OrderedMutex::new(LockRank::…, …)` site in one file.
fn check_declarations(
    ws: &Workspace,
    file: &SourceFile,
    ranks: &[String],
    counters: &mut Counters,
    out: &mut Vec<Finding>,
) {
    each_level(&file.toks, &mut |level| {
        for (i, w) in level.windows(5).enumerate() {
            let path = w[0].is_ident("OrderedMutex")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("new");
            let (true, Some(args)) = (path, w[4].group('(')) else {
                continue;
            };
            counters.lock_declarations += 1;
            let declared = qualified_variants(args, "LockRank").into_iter().next();
            let Some(rank) = declared.and_then(|v| ranks.iter().position(|r| *r == v)) else {
                let message = "`OrderedMutex::new(…)` without a literal `LockRank::…` first \
                               argument naming a declared rank — the lint cannot rank this lock \
                               statically";
                out.push(file.finding_at(w[0].pos(), message.to_string()));
                continue;
            };
            let Some(name) = binding_name(level, i) else {
                continue;
            };
            if rank_of(ranks, name) != Some(rank) && !ws.waivers.is_waived("lock-order", name) {
                out.push(file.finding_at(
                    w[0].pos(),
                    format!(
                        "lock `{name}` is declared at LockRank::{} but `rank_of` in \
                         xtask/src/locks.rs does not map `{name}` to rank {rank} — add it as a \
                         deciding identifier so `.lock()` calls on it are tracked",
                        ranks[rank]
                    ),
                ));
            }
        }
    });
}

/// What the `OrderedMutex` at `toks[at]` is bound to: `name:
/// OrderedMutex::new(…)` (field init) or `let [mut] name =
/// OrderedMutex::new(…)`. Closure bodies and other expression positions
/// are anonymous.
fn binding_name(toks: &[Tok], at: usize) -> Option<&str> {
    let name = toks.get(at.checked_sub(2)?)?.ident()?;
    let sep = &toks[at - 1];
    (sep.is_punct(':') || sep.is_punct('=')).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANKS: &str = "pub enum LockRank { NamespaceShard, Registry, BlockMap, BufferPool }";

    fn run(src: &str) -> (Vec<Finding>, Counters) {
        let ws = Workspace::from_sources(&[(LOCKORDER, RANKS), ("crates/net/src/x.rs", src)]);
        let mut counters = Counters::default();
        (check(&ws, &mut counters), counters)
    }

    fn scan(src: &str) -> Vec<Finding> {
        run(src).0
    }

    #[test]
    fn in_order_acquisition_is_clean_and_counts_edges() {
        let src = "
            fn f(&self) {
                let ns = self.shard_for_path(&path)?.lock();
                let mut reg = self.reg.lock();
                let blocks = self.blocks.lock();
            }
        ";
        let (out, counters) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(counters.lock_edges, 3, "(0,1), (0,2), (1,2)");
        assert_eq!(counters.lock_ranks, 4);
    }

    #[test]
    fn nested_same_rank_is_flagged() {
        let src = "fn f(&self) { let a = self.reg.lock(); let b = self.reg.lock(); }";
        assert_eq!(scan(src).len(), 1);
    }

    #[test]
    fn guards_die_at_end_of_block() {
        let src = "
            fn f(&self) {
                { let mut reg = self.reg.lock(); }
                let ns = self.shard_for_id(id)?.lock();
            }
        ";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn temporaries_die_at_end_of_statement() {
        let src = "
            fn f(&self) {
                let n = self.reg.lock().count();
                let ns = self.shard_for_id(id)?.lock();
            }
        ";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn sequential_shard_locks_are_clean_but_nested_are_not() {
        let clean = "
            fn f(&self) {
                for shard in &self.shards {
                    let ns = shard.lock();
                }
            }
        ";
        assert!(scan(clean).is_empty());
        let nested = "
            fn f(&self) {
                let a = self.shard_for_id(x)?.lock();
                let b = self.shard_for_id(y)?.lock();
            }
        ";
        assert_eq!(scan(nested).len(), 1);
    }

    #[test]
    fn block_shards_rank_with_the_block_map() {
        let clean = "
            fn f(&self) {
                let mut reg = self.reg.lock();
                let blocks = self.block_shard_for(id).lock();
            }
        ";
        assert!(scan(clean).is_empty());
        let nested = "
            fn f(&self) {
                let a = self.block_shard_for(x).lock();
                let b = self.block_shards[y].lock();
            }
        ";
        let out = scan(nested);
        assert_eq!(out.len(), 1, "two block-map shards at once is forbidden");
        assert!(out[0].message.contains("BlockMap"));
    }

    #[test]
    fn unknown_receivers_and_test_code_are_ignored() {
        let src = "fn f() { let g = some_other_mutex.lock(); let r = self.reg.lock(); }";
        assert!(scan(src).is_empty());
        let test_only = "
            #[cfg(test)]
            mod tests {
                fn t(&self) {
                    let b = self.blocks.lock();
                    let r = self.reg.lock();
                }
            }
        ";
        assert!(scan(test_only).is_empty());
    }

    #[test]
    fn let_bindings_and_closures_resolve() {
        let src = "
            fn build() {
                let mut reg = OrderedMutex::new(LockRank::Registry, Registry::default());
                let shards: Vec<_> = names.map(|ns| OrderedMutex::new(LockRank::NamespaceShard, ns)).collect();
                let pool = Pool { free: glider_util::OrderedMutex::new(LockRank::BufferPool, Vec::new()) };
            }
        ";
        let (out, counters) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(counters.lock_declarations, 3);

        let undeclared = "fn f() { let reg = OrderedMutex::new(LockRank::Mystery, x); }";
        let out = scan(undeclared);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cannot rank this lock statically"));
    }

    #[test]
    fn waiver_suppresses_binding_mismatch() {
        let bad = "
            fn build() -> Pool {
                Pool { freelist: OrderedMutex::new(LockRank::BufferPool, Vec::new()) }
            }
        ";
        let out = scan(bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("freelist"));

        let mut ws = Workspace::from_sources(&[(LOCKORDER, RANKS), ("crates/net/src/x.rs", bad)]);
        ws.set_waivers("lock-order freelist -- legacy name, renamed next PR\n");
        assert!(check(&ws, &mut Counters::default()).is_empty());
        assert!(ws.waivers.stale().is_empty());
    }
}
