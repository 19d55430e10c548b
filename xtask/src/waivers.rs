//! The waiver list: committed, justified, shrink-only. One per line,
//! `#` starts a comment:
//!
//! ```text
//! <pass> <key> -- <justification>
//! durability RepairNode -- append happens inside repair_node_locked
//! ```
//!
//! The justification is mandatory — a waiver is a debt note, and a debt
//! note without a reason is unreviewable. Every entry must be consumed
//! by a finding it suppresses; unused entries are stale and fail the
//! run, so the list can only shrink as the underlying debt is paid.
//! Only the durability and lock-order passes consult it: the panic-path
//! pass is zero-tolerance, and hot-path lines are waived inline.

use crate::workspace::WAIVER_FILE;
use crate::Finding;
use std::cell::Cell;

const WAIVABLE_PASSES: [&str; 2] = ["durability", "lock-order"];

#[derive(Debug, Default)]
pub struct Waivers {
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Entry {
    pass: String,
    key: String,
    /// Set once the entry has suppressed a finding this run.
    used: Cell<bool>,
}

impl Waivers {
    /// Parses the waiver file. Malformed lines are hard errors: a typo'd
    /// waiver that silently waived nothing would surface as a confusing
    /// failure elsewhere.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries: Vec<Entry> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = format!("{WAIVER_FILE}:{}", idx + 1);
            let Some((head, just)) = line.split_once("--") else {
                return Err(format!(
                    "{at}: expected `<pass> <key> -- <justification>`, got {raw:?}"
                ));
            };
            let mut parts = head.split_whitespace();
            let (Some(pass), Some(key), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "{at}: expected exactly `<pass> <key>` before `--`, got {:?}",
                    head.trim()
                ));
            };
            if !WAIVABLE_PASSES.contains(&pass) {
                return Err(format!(
                    "{at}: unknown pass {pass:?} (expected durability|lock-order; no other \
                     pass is waivable here — hot-path lines take inline `// glider: alloc-ok`)"
                ));
            }
            if just.trim().is_empty() {
                return Err(format!(
                    "{at}: empty justification — say why this violation is acceptable and \
                     where the invariant actually holds"
                ));
            }
            if entries.iter().any(|e| e.pass == pass && e.key == key) {
                return Err(format!("{at}: duplicate waiver for `{pass} {key}`"));
            }
            entries.push(Entry {
                pass: pass.to_string(),
                key: key.to_string(),
                used: Cell::new(false),
            });
        }
        Ok(Waivers { entries })
    }

    /// Whether `<pass> <key>` is waived; asking consumes the entry, which
    /// is what keeps it from being reported stale.
    pub fn is_waived(&self, pass: &str, key: &str) -> bool {
        let entry = self.entries.iter().find(|e| e.pass == pass && e.key == key);
        if let Some(e) = entry {
            e.used.set(true);
        }
        entry.is_some()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shrink-only ratchet: every waiver must have suppressed at
    /// least one finding by the time all passes have run.
    pub fn stale(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| {
                Finding::new(
                    WAIVER_FILE,
                    0,
                    format!(
                        "stale waiver: `{} {}` suppressed nothing this run — delete the \
                         line (the list may only shrink)",
                        e.pass, e.key
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_lookup() {
        let w = Waivers::parse(
            "# debt notes\ndurability RepairNode -- append happens in repair_node_locked\n\
             lock-order freelist -- renamed next PR\n",
        )
        .unwrap();
        assert!(w.is_waived("durability", "RepairNode"));
        assert!(w.is_waived("lock-order", "freelist"));
        assert!(!w.is_waived("durability", "CreateNode"));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(
            Waivers::parse("durability RepairNode\n").is_err(),
            "no justification"
        );
        assert!(
            Waivers::parse("durability RepairNode --  \n").is_err(),
            "empty justification"
        );
        assert!(
            Waivers::parse("protocol Hello -- nope\n").is_err(),
            "unwaivable pass"
        );
        assert!(
            Waivers::parse("panic-path x.rs -- nope\n").is_err(),
            "zero-tolerance pass"
        );
        assert!(
            Waivers::parse("durability A B -- x\n").is_err(),
            "extra key token"
        );
        assert!(
            Waivers::parse("durability X -- a\ndurability X -- b\n").is_err(),
            "duplicate"
        );
    }

    #[test]
    fn unconsumed_entries_are_stale() {
        let w = Waivers::parse("durability RepairNode -- real\nlock-order ghost -- never fires\n")
            .unwrap();
        assert_eq!(w.stale().len(), 2);
        assert!(w.is_waived("durability", "RepairNode"));
        let stale = w.stale();
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("lock-order ghost"));
    }
}
