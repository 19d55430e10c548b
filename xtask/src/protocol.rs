//! Protocol conformance pass: one model derived from `glider-proto`,
//! cross-checked everywhere the protocol is re-stated.
//!
//! The model is the `RequestBody`/`ResponseBody` enums plus their
//! `opcode()` tables. Against it the pass checks, in one sweep:
//!
//! - every variant has an opcode arm, and opcodes are unique per
//!   direction;
//! - `Wire::decode` round-trips every opcode back to the same variant;
//! - every request variant is classified by all four behavior tables —
//!   `is_idempotent` (retry safety), `op_kind` (latency accounting),
//!   `op_class` (deadline class), `wal_class` (durability) — and every
//!   `ErrorCode` by `is_retryable` (the failure model);
//! - the tables are mutually consistent: a `Logged` op must not be
//!   idempotent (it would be retried and double-applied), and only
//!   metadata-class ops may be `Logged` (the WAL lives on the metadata
//!   server);
//! - every wire variant has a golden `.hex` fixture on disk *and*
//!   registered in `golden_wire.rs`.
//!
//! Each finding names the exact variant/opcode/fixture, so the pass
//! bootstraps a new opcode by printing the complete to-do list.

use crate::lexer::is_ident_char;
use crate::tokens::{
    all_match_arms, block_after, enum_variants, flat_path_value, flatten, fn_body,
    qualified_variants, FlatTok,
};
use crate::workspace::{SourceFile, Workspace};
use crate::{Counters, Finding};
use std::collections::{BTreeMap, BTreeSet};

const MESSAGE: &str = "crates/proto/src/message.rs";
const ERROR: &str = "crates/proto/src/error.rs";
const GOLDEN_TESTS: &str = "crates/proto/tests/golden_wire.rs";

/// One match-based function from an enum's variants to a value: the
/// opcode tables and every behavior classification are rows of this.
struct Table {
    file: &'static str,
    /// Header of the `impl` block holding the fn, where the file has
    /// more than one fn of that name; empty to search the whole file.
    scope: &'static [&'static str],
    fn_name: &'static str,
    enum_name: &'static str,
    /// Where `enum_name` is declared.
    enum_file: &'static str,
    value: Value,
}

/// What an arm's body contributes to its variants' row.
enum Value {
    /// Nothing: being named in an arm pattern is the classification.
    Present,
    /// The first identifier or literal the predicate accepts.
    Word(fn(&str) -> bool),
    /// The first `<enum>::X` path.
    Path(&'static str),
}

fn is_bool(word: &str) -> bool {
    word == "true" || word == "false"
}

fn is_opcode(word: &str) -> bool {
    word.parse::<u16>().is_ok()
}

const fn request_table(file: &'static str, fn_name: &'static str, value: Value) -> Table {
    Table {
        file,
        scope: &[],
        fn_name,
        enum_name: "RequestBody",
        enum_file: MESSAGE,
        value,
    }
}

const REQ_OPCODE: Table = Table {
    scope: &["impl", "RequestBody"],
    ..request_table(MESSAGE, "opcode", Value::Word(is_opcode))
};
const RESP_OPCODE: Table = Table {
    scope: &["impl", "ResponseBody"],
    enum_name: "ResponseBody",
    ..request_table(MESSAGE, "opcode", Value::Word(is_opcode))
};
const IS_IDEMPOTENT: Table = request_table(MESSAGE, "is_idempotent", Value::Word(is_bool));
const OP_KIND: Table = request_table("crates/net/src/rpc.rs", "op_kind", Value::Present);
const OP_CLASS: Table = request_table(
    "crates/net/src/retry.rs",
    "op_class",
    Value::Path("OpClass"),
);
const WAL_CLASS: Table = request_table(
    "crates/metadata/src/wal.rs",
    "wal_class",
    Value::Path("WalClass"),
);
const IS_RETRYABLE: Table = Table {
    file: ERROR,
    scope: &["impl", "ErrorCode"],
    fn_name: "is_retryable",
    enum_name: "ErrorCode",
    enum_file: ERROR,
    value: Value::Present,
};
/// Functions that must classify every variant of their enum explicitly.
const CLASSIFIERS: [Table; 5] = [IS_IDEMPOTENT, OP_KIND, OP_CLASS, WAL_CLASS, IS_RETRYABLE];

/// One arm of a [`Table`]'s match.
struct Row {
    variants: Vec<String>,
    value: Option<String>,
    /// Offset of the arm's pattern.
    pos: usize,
}

impl Table {
    /// The table's file, the offset of the fn's opening brace, and one
    /// [`Row`] per match arm in the fn.
    fn rows<'a>(&self, ws: &'a Workspace) -> Result<(&'a SourceFile, usize, Vec<Row>), Finding> {
        let file = ws.file(self.file)?;
        let scope = if self.scope.is_empty() {
            Some(&file.toks[..])
        } else {
            block_after(&file.toks, self.scope)
        };
        let Some((fn_pos, body)) = scope.and_then(|toks| fn_body(toks, self.fn_name)) else {
            let within = match self.scope {
                [] => String::new(),
                scope => format!(" in `{} {{ … }}`", scope.join(" ")),
            };
            return Err(Finding::new(
                self.file,
                0,
                format!(
                    "protocol pass could not find `fn {}`{within} — update xtask if it moved",
                    self.fn_name
                ),
            ));
        };
        let rows = all_match_arms(body)
            .into_iter()
            .map(|arm| {
                let flat = flatten(arm.body.iter().copied());
                Row {
                    variants: qualified_variants(arm.pat.iter().copied(), self.enum_name),
                    value: match self.value {
                        Value::Present => Some(String::new()),
                        Value::Word(accepts) => flat.iter().find_map(|t| match t {
                            FlatTok::Ident { text, .. } if accepts(text) => Some(text.to_string()),
                            _ => None,
                        }),
                        Value::Path(path) => flat_path_value(&flat, path),
                    },
                    pos: arm.pos,
                }
            })
            .collect();
        Ok((file, fn_pos, rows))
    }

    /// The variants of the table's enum; empty when it cannot be found,
    /// which [`check`] reports once per enum.
    fn variants(&self, ws: &Workspace) -> Vec<String> {
        let declared = ws.file(self.enum_file).ok();
        let variants = declared.and_then(|f| enum_variants(&f.toks, self.enum_name));
        variants.unwrap_or_default()
    }

    /// Variant → value over the arms that have one. A missing file or fn
    /// reads as an empty table here; [`check`] reports it.
    fn map(&self, ws: &Workspace) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        for row in self.rows(ws).map(|(_, _, rows)| rows).unwrap_or_default() {
            if let Some(value) = row.value {
                for v in row.variants {
                    map.insert(v, value.clone());
                }
            }
        }
        map
    }
}

/// Request variants classified `Logged` by `wal_class` — the durability
/// pass audits exactly these.
pub fn logged_variants(ws: &Workspace) -> Vec<String> {
    let logged = WAL_CLASS
        .map(ws)
        .into_iter()
        .filter(|(_, class)| class == "Logged");
    logged.map(|(v, _)| v).collect()
}

pub fn check(ws: &Workspace, counters: &mut Counters) -> Vec<Finding> {
    let mut out = Vec::new();
    let message = match ws.file(MESSAGE) {
        Ok(f) => f,
        Err(f) => return vec![f],
    };

    // One table per distinct enum stands for it here.
    for table in [&REQ_OPCODE, &RESP_OPCODE, &IS_RETRYABLE] {
        if table.variants(ws).is_empty() {
            out.push(Finding::new(
                table.enum_file,
                0,
                format!(
                    "protocol pass could not find `enum {}` — update xtask if it moved",
                    table.enum_name
                ),
            ));
        }
    }
    if let Err(missing) = ws.file(GOLDEN_TESTS) {
        out.push(missing);
    }

    // Wire enums: opcodes, decode round-trip, golden fixtures.
    (counters.req_variants, counters.req_opcodes) =
        check_wire_enum(ws, message, &REQ_OPCODE, "Request", "req", &mut out);
    (counters.resp_variants, counters.resp_opcodes) =
        check_wire_enum(ws, message, &RESP_OPCODE, "Response", "resp", &mut out);

    // Every classifier names every variant of its enum.
    for table in &CLASSIFIERS {
        let (file, fn_pos, rows) = match table.rows(ws) {
            Ok(found) => found,
            Err(f) => {
                out.push(f);
                continue;
            }
        };
        let classified: BTreeSet<&String> = rows
            .iter()
            .filter(|r| r.value.is_some())
            .flat_map(|r| &r.variants)
            .collect();
        for v in table.variants(ws) {
            if !classified.contains(&v) {
                out.push(file.finding_at(
                    fn_pos,
                    format!(
                        "`fn {}` does not classify `{}::{v}` — every wire variant must be \
                         classified explicitly (wildcards hide drift)",
                        table.fn_name, table.enum_name
                    ),
                ));
            }
        }
    }

    // Mutual consistency of the tables.
    let (idempotent, op_class) = (IS_IDEMPOTENT.map(ws), OP_CLASS.map(ws));
    let logged = logged_variants(ws);
    counters.logged_ops = logged.len();
    for v in &logged {
        if idempotent.get(v).map(String::as_str) == Some("true") {
            out.push(Finding::new(
                WAL_CLASS.file,
                0,
                format!(
                    "`RequestBody::{v}` is WAL-`Logged` but `is_idempotent` returns true — \
                     a retried logged mutation would be applied (and logged) twice"
                ),
            ));
        }
        if let Some(class) = op_class.get(v).filter(|c| *c != "Metadata") {
            out.push(Finding::new(
                WAL_CLASS.file,
                0,
                format!(
                    "`RequestBody::{v}` is WAL-`Logged` but `op_class` says \
                     `OpClass::{class}` — only metadata-plane ops reach the WAL"
                ),
            ));
        }
    }
    out
}

/// Checks one wire direction: a unique opcode per variant that decodes
/// back to it, and a registered golden fixture per variant. Returns the
/// variant and opcode counts.
fn check_wire_enum(
    ws: &Workspace,
    message: &SourceFile,
    opcode_table: &Table,
    wrapper: &str,
    prefix: &str,
    out: &mut Vec<Finding>,
) -> (usize, usize) {
    let enum_name = opcode_table.enum_name;
    let variants = opcode_table.variants(ws);
    let opcodes = check_opcodes(ws, opcode_table, &variants, out);
    check_decode(message, enum_name, wrapper, &opcodes, out);

    // Golden fixtures: on disk and registered.
    let golden_tests = ws.file(GOLDEN_TESTS).map_or("", |f| f.text.as_str());
    for v in &variants {
        let stem = format!("{prefix}_{}", snake_case(v));
        let file = format!("{stem}.hex");
        if !ws.golden.contains(&file) {
            out.push(Finding::new(
                &format!("crates/proto/tests/golden/{file}"),
                0,
                format!(
                    "missing golden wire fixture for `{enum_name}::{v}` — encode one \
                     frame, commit it as `{file}`, and register it in golden_wire.rs"
                ),
            ));
        }
        if !contains_word(golden_tests, &stem) {
            out.push(Finding::new(
                GOLDEN_TESTS,
                0,
                format!(
                    "golden fixture `{stem}` is not registered in golden_wire.rs — \
                     add a `golden!({stem}, …)` entry so the fixture is actually checked"
                ),
            ));
        }
    }
    (variants.len(), opcodes.len())
}

/// Checks one direction's `fn opcode`: a literal per arm, an arm per
/// variant, no opcode twice. Returns variant → opcode.
fn check_opcodes(
    ws: &Workspace,
    table: &Table,
    variants: &[String],
    out: &mut Vec<Finding>,
) -> BTreeMap<String, u16> {
    let enum_name = table.enum_name;
    let (file, _, rows) = match table.rows(ws) {
        Ok(found) => found,
        Err(f) => {
            out.push(f);
            return BTreeMap::new();
        }
    };
    let mut opcodes = BTreeMap::new();
    for row in rows {
        let Some(v) = row.variants.first() else {
            continue;
        };
        match row.value.and_then(|n| n.parse::<u16>().ok()) {
            Some(op) => {
                opcodes.insert(v.clone(), op);
            }
            None => out.push(file.finding_at(
                row.pos,
                format!(
                    "`{enum_name}::{v}` has an opcode arm with no literal opcode — the \
                     protocol pass needs the number spelled out"
                ),
            )),
        }
    }
    for v in variants.iter().filter(|v| !opcodes.contains_key(*v)) {
        out.push(Finding::new(
            MESSAGE,
            0,
            format!(
                "`{enum_name}::{v}` has no arm in `fn opcode` — the variant cannot be put \
                 on the wire"
            ),
        ));
    }
    // Uniqueness within the direction.
    let mut by_code: BTreeMap<u16, Vec<&str>> = BTreeMap::new();
    for (v, op) in &opcodes {
        by_code.entry(*op).or_default().push(v);
    }
    for (op, vs) in by_code {
        if vs.len() > 1 {
            out.push(Finding::new(
                MESSAGE,
                0,
                format!(
                    "duplicate {enum_name} opcode {op}: {} — wire opcodes must be unique \
                     per direction",
                    vs.join(", ")
                ),
            ));
        }
    }
    opcodes
}

/// Checks `impl Wire for <wrapper> { fn decode }`: every encoded opcode
/// must decode back to the same variant.
fn check_decode(
    message: &SourceFile,
    enum_name: &str,
    wrapper: &str,
    encode_table: &BTreeMap<String, u16>,
    out: &mut Vec<Finding>,
) {
    let wire_impl = block_after(&message.toks, &["impl", "Wire", "for", wrapper]);
    let Some((_, body)) = wire_impl.and_then(|b| fn_body(b, "decode")) else {
        out.push(Finding::new(
            MESSAGE,
            0,
            format!(
                "protocol pass could not find `impl Wire for {wrapper} {{ fn decode }}` — \
                 update xtask if it moved"
            ),
        ));
        return;
    };
    let mut decode_table: BTreeMap<u16, String> = BTreeMap::new();
    for arm in all_match_arms(body) {
        // Opcode arms have a numeric pattern; `other => Err(…)` and any
        // nested payload matches don't.
        let code = arm
            .pat
            .iter()
            .find_map(|t| t.ident().and_then(|s| s.parse::<u16>().ok()));
        let Some(code) = code else { continue };
        let flat = flatten(arm.body.iter().copied());
        if let Some(v) = flat_path_value(&flat, enum_name) {
            decode_table.entry(code).or_insert(v);
        }
    }
    for (v, op) in encode_table {
        match decode_table.get(op) {
            None => out.push(Finding::new(
                MESSAGE,
                0,
                format!(
                    "`{wrapper}::decode` has no arm for opcode {op} (`{enum_name}::{v}`) — \
                     the variant encodes but cannot decode"
                ),
            )),
            Some(d) if d != v => out.push(Finding::new(
                MESSAGE,
                0,
                format!(
                    "opcode {op} encodes from `{enum_name}::{v}` but decodes to \
                     `{enum_name}::{d}` — the wire round-trip is broken"
                ),
            )),
            _ => {}
        }
    }
}

/// `CamelCase` → `snake_case`, matching the golden fixture naming.
fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Word-bounded substring presence (so `req_stream_chunk` does not
/// satisfy `req_stream_chunk_batch`, nor vice versa).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after] as char);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_matches_fixture_naming() {
        assert_eq!(snake_case("Hello"), "hello");
        assert_eq!(snake_case("StreamChunkBatch"), "stream_chunk_batch");
        assert_eq!(snake_case("Ok"), "ok");
        assert_eq!(snake_case("ReplicatedBlocks"), "replicated_blocks");
    }

    #[test]
    fn word_bounded_fixture_lookup() {
        assert!(contains_word("golden!(req_hello, x)", "req_hello"));
        assert!(!contains_word(
            "golden!(req_stream_chunk_batch, x)",
            "req_stream_chunk"
        ));
        assert!(!contains_word("nothing here", "req_hello"));
    }

    #[test]
    fn tables_follow_or_patterns_and_read_arm_values() {
        let ws = Workspace::from_sources(&[
            (
                WAL_CLASS.file,
                "fn wal_class(b: &RequestBody) -> WalClass {
                    match b {
                        RequestBody::A { .. } | RequestBody::B => WalClass::Logged,
                        RequestBody::C(_) => WalClass::Waived,
                    }
                }",
            ),
            (
                MESSAGE,
                "impl RequestBody {
                    pub fn is_idempotent(&self) -> bool {
                        match self {
                            RequestBody::A { .. } | RequestBody::B => true,
                            RequestBody::C(_) => false,
                        }
                    }
                }",
            ),
        ]);
        let wal = WAL_CLASS.map(&ws);
        assert_eq!(wal.get("A").map(String::as_str), Some("Logged"));
        assert_eq!(wal.get("B").map(String::as_str), Some("Logged"));
        assert_eq!(wal.get("C").map(String::as_str), Some("Waived"));
        assert_eq!(logged_variants(&ws), ["A", "B"]);
        let idem = IS_IDEMPOTENT.map(&ws);
        assert_eq!(idem.get("A").map(String::as_str), Some("true"));
        assert_eq!(idem.get("C").map(String::as_str), Some("false"));
    }

    #[test]
    fn missing_table_fn_is_reported() {
        let ws = Workspace::from_sources(&[(MESSAGE, "fn other() {}")]);
        let missing = IS_IDEMPOTENT.rows(&ws).err().unwrap();
        assert!(missing
            .message
            .contains("could not find `fn is_idempotent`"));
        let missing = REQ_OPCODE.rows(&ws).err().unwrap();
        assert!(missing
            .message
            .contains("`fn opcode` in `impl RequestBody { … }`"));
        let out = check(&ws, &mut Counters::default());
        assert!(out
            .iter()
            .any(|f| f.message.contains("could not find `enum RequestBody`")));
    }
}
