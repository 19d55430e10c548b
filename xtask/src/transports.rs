//! Transport-registry exhaustiveness lint.
//!
//! `glider-net` dispatches addresses to transports through the static
//! `TRANSPORTS` registry (`crates/net/src/transport.rs`): an `impl
//! Transport for X` that is not listed there compiles fine but is
//! unreachable — `dial`/`bind` will never route to it, which is exactly
//! the silent failure an RDMA-sim or io_uring backend would hit when
//! added without registration. This pass cross-checks the two:
//!
//! - every `impl Transport for X` in the scanned files must appear as
//!   `&X` in the `TRANSPORTS` initializer;
//! - every `&X` in the initializer must have a matching impl (a stale
//!   entry would be a compile error anyway, but the lint message is
//!   clearer than rustc's);
//! - the schemeless fallback `TcpTransport` must stay *last*: its
//!   `matches()` accepts any `host:port` string, so anything registered
//!   after it is dead code.

use crate::tokens::{each_level, Tok};
use crate::workspace::Workspace;
use crate::{Counters, Finding};

/// The registry's schemeless catch-all; must be the final entry.
const FALLBACK: &str = "TcpTransport";

/// Cross-checks every `impl Transport for` block in `glider-net`
/// against the `TRANSPORTS` initializer.
pub fn check(ws: &Workspace, _: &mut Counters) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut impls: Vec<(&str, usize, String)> = Vec::new(); // (file, line, type name)
    let mut registry: Option<(&str, usize, Vec<String>)> = None;
    let mut scanned = false;

    for file in ws.under(&["crates/net/src"]) {
        scanned = true;
        each_level(&file.toks, &mut |level| {
            for w in level.windows(4) {
                let header = ["impl", "Transport", "for"];
                if let (true, Some(name)) = (
                    w.iter().zip(header).all(|(t, h)| t.is_ident(h)),
                    w[3].ident(),
                ) {
                    impls.push((&file.rel, file.line(w[0].pos()), name.to_string()));
                }
            }
            if let Some((pos, entries)) = find_registry(level) {
                registry = Some((&file.rel, file.line(pos), entries));
            }
        });
    }
    if !scanned {
        out.push(Finding::new(
            "crates/net/src",
            0,
            "transport-registry pass found no sources to scan".to_string(),
        ));
    }

    let Some((reg_file, reg_line, entries)) = registry else {
        // Nothing to check against: only a finding when there are impls
        // that would need registering.
        if let Some((file, line, name)) = impls.first() {
            out.push(Finding::new(
                file,
                *line,
                format!(
                    "found `impl Transport for {name}` but no `static TRANSPORTS` registry to \
                     register it in"
                ),
            ));
        }
        return out;
    };

    for (file, line, name) in &impls {
        if !entries.contains(name) {
            out.push(Finding::new(
                file,
                *line,
                format!(
                    "`impl Transport for {name}` is not registered in TRANSPORTS ({reg_file}) \
                     — dial/bind will never dispatch to it"
                ),
            ));
        }
    }
    for entry in &entries {
        if !impls.iter().any(|(_, _, name)| name == entry) {
            out.push(Finding::new(
                reg_file,
                reg_line,
                format!(
                    "TRANSPORTS lists `{entry}` but no `impl Transport for {entry}` exists in \
                     the scanned files"
                ),
            ));
        }
    }
    if entries.iter().any(|e| e == FALLBACK) && entries.last().map(String::as_str) != Some(FALLBACK)
    {
        out.push(Finding::new(
            reg_file,
            reg_line,
            format!(
                "`{FALLBACK}` must be the last TRANSPORTS entry: it matches any schemeless \
                 address, so everything after it is unreachable"
            ),
        ));
    }
    out
}

/// Finds `static TRANSPORTS … = [&A, &B];` among `level`, returning the
/// position of `static` and the `&Name` entries. The entry list is the
/// bracket group after the `=` (the one before it is the type).
fn find_registry(level: &[Tok]) -> Option<(usize, Vec<String>)> {
    let at = level
        .windows(2)
        .position(|w| w[0].is_ident("static") && w[1].is_ident("TRANSPORTS"))?;
    let eq = at + level[at..].iter().position(|t| t.is_punct('='))?;
    let list = level[eq..].iter().find_map(|t| t.group('['))?;
    let entries = list
        .windows(2)
        .filter(|w| w[0].is_punct('&'))
        .filter_map(|w| w[1].ident().map(str::to_string))
        .collect();
    Some((level[at].pos(), entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        check(&Workspace::from_sources(sources), &mut Counters::default())
    }

    fn one(src: &str) -> Vec<Finding> {
        run(&[("crates/net/src/transport.rs", src)])
    }

    #[test]
    fn registered_impls_are_clean_and_comments_do_not_count() {
        let src = "
            // impl Transport for GhostTransport
            impl Transport for MemTransport {}
            impl Transport for TcpTransport {}
            pub static TRANSPORTS: [&'static dyn Transport; 2] =
                [&MemTransport, &TcpTransport];
        ";
        assert!(one(src).is_empty());
    }

    #[test]
    fn test_only_impls_need_no_registration() {
        let src = "
            impl Transport for TcpTransport {}
            pub static TRANSPORTS: [&'static dyn Transport; 1] = [&TcpTransport];
            #[cfg(test)]
            mod tests { impl Transport for MockTransport {} }
        ";
        assert!(one(src).is_empty());
    }

    #[test]
    fn stale_registry_entry_is_flagged() {
        let src = "
            impl Transport for TcpTransport {}
            pub static TRANSPORTS: [&'static dyn Transport; 2] =
                [&MemTransport, &TcpTransport];
        ";
        let out = one(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("MemTransport"));
        assert!(out[0].message.contains("no `impl Transport for"));
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn fallback_must_stay_last() {
        let src = "
            impl Transport for MemTransport {}
            impl Transport for TcpTransport {}
            pub static TRANSPORTS: [&'static dyn Transport; 2] =
                [&TcpTransport, &MemTransport];
        ";
        let out = one(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("must be the last"));
    }

    #[test]
    fn impls_across_files_are_collected() {
        let out = run(&[
            (
                "crates/net/src/transport.rs",
                "impl Transport for TcpTransport {}
                 pub static TRANSPORTS: [&'static dyn Transport; 2] =
                     [&MemTransport, &TcpTransport];",
            ),
            (
                "crates/net/src/mem.rs",
                "impl Transport for MemTransport {}",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_registry_matters_only_with_impls() {
        let out = one("impl Transport for TcpTransport {}");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no `static TRANSPORTS`"));
        assert!(one("fn nothing_here() {}").is_empty());
        assert!(run(&[])[0].message.contains("no sources"));
    }
}
