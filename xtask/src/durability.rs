//! Durability-order pass: persist-before-ack, statically.
//!
//! PR 9's discipline is that a metadata mutation classified `Logged` by
//! `wal_class` must hit the WAL (`self.log(…)` → append + fsync) before
//! its success response is constructed, and that a storage server
//! handling `ForwardChunk` must persist the chunk locally before
//! forwarding it down the chain or acking it. Both are easy to break in
//! review — an early `return Ok(…)` on a new code path silently trades
//! durability for latency — so this pass walks the handler match arms
//! in token order and flags any ack that is reachable before the
//! corresponding persistence call.
//!
//! The model is deliberately token-order, not control-flow: a
//! durability call anywhere earlier in the arm satisfies the rule. That
//! over-approximates (an ack in an `if` branch whose `else` logs later
//! is flagged) but never under-approximates on straight-line handler
//! code, which is what the handlers are. Arms that delegate logging to
//! a helper (e.g. `RepairNode` → `repair_node_locked`) are waived in
//! `xtask/waivers.txt` with a justification saying where the
//! append actually happens.

use crate::protocol;
use crate::tokens::{all_match_arms, flatten, qualified_variants, FlatTok};
use crate::workspace::Workspace;
use crate::{Counters, Finding};

/// Identifiers whose call marks the state durable.
const PERSIST_CALLS: [&str; 4] = ["log", "append", "persist", "install_snapshot"];

const METADATA: &str = "crates/metadata/src/lib.rs";
const STORAGE: &str = "crates/storage/src/server.rs";

pub fn check(ws: &Workspace, counters: &mut Counters) -> Vec<Finding> {
    let mut out = check_metadata(ws, counters).unwrap_or_else(|missing| vec![missing]);
    out.extend(check_forward_chunk(ws, counters).unwrap_or_else(|missing| vec![missing]));
    out
}

/// Checks the metadata handler file: every match arm for a request
/// variant `wal_class` calls `Logged` must construct its success
/// response only after a persistence call.
fn check_metadata(ws: &Workspace, counters: &mut Counters) -> Result<Vec<Finding>, Finding> {
    let file = ws.file(METADATA)?;
    let arms = all_match_arms(&file.toks);
    let mut out = Vec::new();

    for v in protocol::logged_variants(ws) {
        let mut seen_arm = false;
        for arm in &arms {
            let pats = qualified_variants(arm.pat.iter().copied(), "RequestBody");
            if !pats.contains(&v) {
                continue;
            }
            seen_arm = true;
            let flat = flatten(arm.body.iter().copied());
            for ack_pos in ack_positions(&flat) {
                let persisted_before = flat
                    .iter()
                    .take_while(|t| t.pos() < ack_pos)
                    .any(|t| is_persist_call_at(&flat, t));
                if persisted_before {
                    continue;
                }
                if ws.waivers.is_waived("durability", &v) {
                    counters.durability_waived += 1;
                    continue;
                }
                out.push(file.finding_at(
                    ack_pos,
                    format!(
                        "`RequestBody::{v}` is WAL-`Logged` but this arm acks \
                         (`Ok(ResponseBody::…)`) with no earlier `log`/`append` on the \
                         token path — persist before ack, or waive with a justification \
                         in xtask/waivers.txt"
                    ),
                ));
            }
        }
        if seen_arm {
            counters.arms_audited += 1;
        } else if ws.waivers.is_waived("durability", &v) {
            counters.durability_waived += 1;
        } else {
            out.push(Finding::new(
                METADATA,
                0,
                format!(
                    "`RequestBody::{v}` is WAL-`Logged` but {METADATA} has no \
                     `RequestBody::{v}` match arm to audit — handle it in the dispatch match, \
                     or waive with a justification naming where the append happens"
                ),
            ));
        }
    }
    Ok(out)
}

/// Checks the storage handler file: the `ForwardChunk` arm must persist
/// locally (`.write(…)` on the store) before forwarding down the chain
/// and before acking `Written`.
fn check_forward_chunk(ws: &Workspace, counters: &mut Counters) -> Result<Vec<Finding>, Finding> {
    let file = ws.file(STORAGE)?;
    let mut out = Vec::new();
    let mut seen = false;

    for arm in all_match_arms(&file.toks) {
        let pats = qualified_variants(arm.pat.iter().copied(), "RequestBody");
        if !pats.iter().any(|p| p == "ForwardChunk") {
            continue;
        }
        seen = true;
        counters.arms_audited += 1;
        let flat = flatten(arm.body.iter().copied());
        // First local persist: `.write(` — method call, not the pattern.
        let persist_pos = flat.windows(3).find_map(|w| {
            (w[0].is_punct('.') && w[1].is_ident("write") && w[2].is_open('(')).then(|| w[1].pos())
        });
        // First downstream forward: the arm re-emits `ForwardChunk` in a
        // `peer.call(…)`.
        let forward_pos = flat
            .iter()
            .find(|t| t.is_ident("ForwardChunk"))
            .map(FlatTok::pos);
        let mut violations: Vec<(usize, &str)> = Vec::new();
        for ack_pos in ack_positions(&flat) {
            match persist_pos {
                Some(p) if p < ack_pos => {}
                _ => violations.push((ack_pos, "acks `Written`")),
            }
        }
        if let Some(f) = forward_pos {
            match persist_pos {
                Some(p) if p < f => {}
                _ => violations.push((f, "forwards down the chain")),
            }
        }
        for (pos, what) in violations {
            if ws.waivers.is_waived("durability", "ForwardChunk") {
                counters.durability_waived += 1;
                continue;
            }
            out.push(file.finding_at(
                pos,
                format!(
                    "`ForwardChunk` {what} before the local `store.write(…)` — a client \
                     ack must mean every replica in the chain holds the bytes \
                     (persist-then-forward-then-ack)"
                ),
            ));
        }
    }
    if !seen {
        out.push(Finding::new(
            STORAGE,
            0,
            "durability pass found no `RequestBody::ForwardChunk` arm to audit — \
             update xtask if the replication handler moved"
                .to_string(),
        ));
    }
    Ok(out)
}

/// Positions of success acks in a flat arm body: `Ok(ResponseBody::X …)`
/// where `X` is not `Error`.
fn ack_positions(flat: &[FlatTok<'_>]) -> Vec<usize> {
    flat.windows(6)
        .filter(|w| {
            w[0].is_ident("Ok")
                && w[1].is_open('(')
                && w[2].is_ident("ResponseBody")
                && w[3].is_punct(':')
                && w[4].is_punct(':')
                && matches!(&w[5], FlatTok::Ident { text, .. } if *text != "Error")
        })
        .map(|w| w[0].pos())
        .collect()
}

/// Whether `t` is a persistence-call identifier followed by `(` in the
/// flat stream (so `self.log(…)` and `wal.append(…)` count, a variable
/// named `log` does not).
fn is_persist_call_at(flat: &[FlatTok<'_>], t: &FlatTok<'_>) -> bool {
    let FlatTok::Ident { text, pos } = t else {
        return false;
    };
    if !PERSIST_CALLS.contains(text) {
        return false;
    }
    flat.iter()
        .find(|n| n.pos() > *pos)
        .is_some_and(|n| n.is_open('('))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAL: (&str, &str) = (
        "crates/metadata/src/wal.rs",
        "fn wal_class(b: &RequestBody) -> WalClass {
            match b {
                RequestBody::CreateNode { .. } => WalClass::Logged,
                RequestBody::LookupNode { .. } => WalClass::ReadOnly,
            }
        }",
    );

    #[test]
    fn ack_after_log_is_clean_and_read_only_arms_need_no_log() {
        let src = "
            fn handle_sync(&self, body: RequestBody) -> GliderResult<ResponseBody> {
                match body {
                    RequestBody::CreateNode { path } => {
                        let id = ns.create(path)?;
                        self.log(&WalEntry::NodeCreated { id })?;
                        Ok(ResponseBody::Node(id))
                    }
                    RequestBody::LookupNode { path } => Ok(ResponseBody::Node(find(path)?)),
                    other => Err(err(other)),
                }
            }
        ";
        let ws = Workspace::from_sources(&[WAL, (METADATA, src)]);
        let mut counters = Counters::default();
        let out = check_metadata(&ws, &mut counters).unwrap();
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(counters.arms_audited, 1);
    }

    #[test]
    fn persist_then_forward_then_ack_is_clean() {
        let src = "
            fn handle(&self, body: RequestBody) -> GliderResult<ResponseBody> {
                match body {
                    RequestBody::ForwardChunk { offset, chain, data } => {
                        let n = data.len() as u64;
                        self.store.write(head.block_id, offset, data.clone())?;
                        if let Some(next) = rest.first() {
                            peer.call(RequestBody::ForwardChunk { offset, chain: rest, data }).await?;
                        }
                        Ok(ResponseBody::Written { n })
                    }
                    other => Err(err(other)),
                }
            }
        ";
        let ws = Workspace::from_sources(&[(STORAGE, src)]);
        let out = check_forward_chunk(&ws, &mut Counters::default()).unwrap();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ack_without_any_persist_and_missing_arm_are_reported() {
        let src = "
            fn handle(&self, body: RequestBody) -> GliderResult<ResponseBody> {
                match body {
                    RequestBody::ForwardChunk { offset, chain, data } => {
                        Ok(ResponseBody::Written { n: data.len() as u64 })
                    }
                    other => Err(err(other)),
                }
            }
        ";
        let ws = Workspace::from_sources(&[(STORAGE, src)]);
        let out = check_forward_chunk(&ws, &mut Counters::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("acks `Written`"));

        let ws = Workspace::from_sources(&[(STORAGE, "fn handle() {}")]);
        let out = check_forward_chunk(&ws, &mut Counters::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no `RequestBody::ForwardChunk`"));
    }
}
