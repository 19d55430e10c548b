//! Scope-aware token trees over stripped source.
//!
//! [`crate::lexer::strip`] removes everything that could fool a text
//! scan; this module adds the structure the semantic passes need:
//! balanced `{}`/`()`/`[]` groups, per-`impl` and per-`fn` body
//! extraction, match-arm splitting, and `Enum::Variant` path queries.
//! `<`/`>` are deliberately *not* treated as delimiters (generics are
//! indistinguishable from comparisons without type information); the
//! queries below never need them.

use crate::lexer::is_ident_char;

/// One token. `pos` is the char offset into the stripped text (the
/// workspace is ASCII, so it doubles as a byte offset for `line_of`).
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier, keyword, or numeric literal.
    Ident { text: String, pos: usize },
    /// A single punctuation character.
    Punct { ch: char, pos: usize },
    /// A balanced `{…}`, `(…)`, or `[…]`; `delim` is the opening char.
    Group {
        delim: char,
        toks: Vec<Tok>,
        pos: usize,
    },
}

impl Tok {
    pub fn pos(&self) -> usize {
        match self {
            Tok::Ident { pos, .. } | Tok::Punct { pos, .. } | Tok::Group { pos, .. } => *pos,
        }
    }

    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident { text, .. } if text == s)
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident { text, .. } => Some(text),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct { ch, .. } if *ch == c)
    }

    /// The children of a brace/paren/bracket group, if this is one.
    pub fn group(&self, delim: char) -> Option<&[Tok]> {
        match self {
            Tok::Group { delim: d, toks, .. } if *d == delim => Some(toks),
            _ => None,
        }
    }
}

/// Parses stripped source into a top-level token stream.
pub fn parse(stripped: &str) -> Vec<Tok> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut i = 0;
    parse_seq(&chars, &mut i, true)
}

fn closer_of(open: char) -> char {
    match open {
        '{' => '}',
        '(' => ')',
        _ => ']',
    }
}

fn parse_seq(chars: &[char], i: &mut usize, top: bool) -> Vec<Tok> {
    let mut out = Vec::new();
    while *i < chars.len() {
        let c = chars[*i];
        match c {
            '{' | '(' | '[' => {
                let pos = *i;
                *i += 1;
                let toks = parse_seq(chars, i, false);
                // parse_seq stops *at* a closer; consume the matching one.
                if *i < chars.len() && chars[*i] == closer_of(c) {
                    *i += 1;
                }
                out.push(Tok::Group {
                    delim: c,
                    toks,
                    pos,
                });
            }
            '}' | ')' | ']' => {
                if !top {
                    return out; // let the caller consume its closer
                }
                *i += 1; // unbalanced closer at top level: skip
            }
            c if is_ident_char(c) => {
                let pos = *i;
                while *i < chars.len() && is_ident_char(chars[*i]) {
                    *i += 1;
                }
                out.push(Tok::Ident {
                    text: chars[pos..*i].iter().collect(),
                    pos,
                });
            }
            c if c.is_whitespace() => *i += 1,
            _ => {
                out.push(Tok::Punct { ch: c, pos: *i });
                *i += 1;
            }
        }
    }
    out
}

/// The tokens of the first `{ … }` block at the top level of `toks` that
/// directly follows the identifier sequence `header` — e.g.
/// `["impl", "Request"]` (the inherent impl; `impl Wire for Request`
/// does not match), `["impl", "Wire", "for", "Request"]`, or
/// `["enum", "LockRank"]`.
pub fn block_after<'a>(toks: &'a [Tok], header: &[&str]) -> Option<&'a [Tok]> {
    toks.windows(header.len() + 1).find_map(|w| {
        let (idents, block) = w.split_at(header.len());
        idents
            .iter()
            .zip(header)
            .all(|(t, h)| t.is_ident(h))
            .then(|| block[0].group('{'))
            .flatten()
    })
}

/// The variant names of the top-level `enum <name>`: the first
/// identifier of each comma-separated item. Attributes, payloads and
/// discriminants are groups or trailing tokens, so they never lead.
pub fn enum_variants(toks: &[Tok], name: &str) -> Option<Vec<String>> {
    let body = block_after(toks, &["enum", name])?;
    let mut variants = Vec::new();
    let mut expect_name = true;
    for t in body {
        match t {
            Tok::Punct { ch: ',', .. } => expect_name = true,
            Tok::Ident { text, .. } if expect_name => {
                variants.push(text.clone());
                expect_name = false;
            }
            _ => {}
        }
    }
    Some(variants)
}

/// The brace-group body of `fn <name>` and the position of its opening
/// brace, searching `toks` and every nested group in source order.
/// Signatures without a body (`fn f();`) are skipped.
pub fn fn_body<'a>(toks: &'a [Tok], name: &str) -> Option<(usize, &'a [Tok])> {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let mut j = i + 2;
            while j < toks.len() {
                match &toks[j] {
                    Tok::Group {
                        delim: '{',
                        toks: body,
                        pos,
                    } => return Some((*pos, body)),
                    Tok::Punct { ch: ';', .. } => break,
                    _ => j += 1,
                }
            }
        }
        if let Tok::Group { toks: inner, .. } = &toks[i] {
            if let Some(b) = fn_body(inner, name) {
                return Some(b);
            }
        }
        i += 1;
    }
    None
}

/// One arm of a `match` expression.
#[derive(Debug)]
pub struct Arm<'a> {
    pub pat: Vec<&'a Tok>,
    pub body: Vec<&'a Tok>,
    /// Position of the pattern's first token.
    pub pos: usize,
}

/// Splits the arms of every `match` expression found in `toks`,
/// recursing into nested groups (and nested matches). Arms are returned
/// in source order of their patterns.
pub fn all_match_arms<'a>(toks: &'a [Tok]) -> Vec<Arm<'a>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("match") {
            // The match body is the next brace group at this level (the
            // scrutinee contributes parens/idents but no bare braces).
            let mut j = i + 1;
            while j < toks.len() {
                match &toks[j] {
                    Tok::Group {
                        delim: '{',
                        toks: body,
                        ..
                    } => {
                        out.extend(split_arms(body));
                        break;
                    }
                    // A `;` means this was `match` in some other role.
                    Tok::Punct { ch: ';', .. } => break,
                    _ => j += 1,
                }
            }
        }
        if let Tok::Group { toks: inner, .. } = &toks[i] {
            out.extend(all_match_arms(inner));
        }
        i += 1;
    }
    out
}

/// Splits one match body's tokens into arms: pattern up to `=>`, then
/// either a brace-group body or an expression running to the next
/// top-level comma.
fn split_arms<'a>(ts: &'a [Tok]) -> Vec<Arm<'a>> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < ts.len() {
        let mut pat: Vec<&Tok> = Vec::new();
        while i < ts.len()
            && !(ts[i].is_punct('=') && ts.get(i + 1).is_some_and(|t| t.is_punct('>')))
        {
            pat.push(&ts[i]);
            i += 1;
        }
        if i >= ts.len() {
            break;
        }
        i += 2; // past `=>`
        let mut body: Vec<&Tok> = Vec::new();
        if matches!(ts.get(i), Some(Tok::Group { delim: '{', .. })) {
            body.push(&ts[i]);
            i += 1;
            if ts.get(i).is_some_and(|t| t.is_punct(',')) {
                i += 1;
            }
        } else {
            while i < ts.len() && !ts[i].is_punct(',') {
                body.push(&ts[i]);
                i += 1;
            }
            if i < ts.len() {
                i += 1; // the comma
            }
        }
        if let Some(first) = pat.first() {
            arms.push(Arm {
                pos: first.pos(),
                pat,
                body,
            });
        }
    }
    arms
}

/// `Enum::Variant` occurrences among `toks` (this level only — pattern
/// position, so payloads aren't recursed into).
pub fn qualified_variants<'a>(
    toks: impl IntoIterator<Item = &'a Tok>,
    enum_name: &str,
) -> Vec<String> {
    let toks: Vec<&Tok> = toks.into_iter().collect();
    toks.windows(4)
        .filter(|w| w[0].is_ident(enum_name) && w[1].is_punct(':') && w[2].is_punct(':'))
        .filter_map(|w| w[3].ident().map(str::to_string))
        .collect()
}

/// Calls `visit` with `toks` and then with the children of every nested
/// group, depth-first in source order — for queries that match a token
/// sequence at whatever nesting depth it occurs.
pub fn each_level<'a>(toks: &'a [Tok], visit: &mut impl FnMut(&'a [Tok])) {
    visit(toks);
    for t in toks {
        if let Tok::Group { toks: inner, .. } = t {
            each_level(inner, visit);
        }
    }
}

/// A flattened, depth-first view of a token (sub)tree, for in-order
/// reachability scans.
#[derive(Debug)]
pub enum FlatTok<'a> {
    Ident { text: &'a str, pos: usize },
    Punct { ch: char, pos: usize },
    Open { delim: char, pos: usize },
    Close { delim: char, pos: usize },
}

impl FlatTok<'_> {
    pub fn pos(&self) -> usize {
        match self {
            FlatTok::Ident { pos, .. }
            | FlatTok::Punct { pos, .. }
            | FlatTok::Open { pos, .. }
            | FlatTok::Close { pos, .. } => *pos,
        }
    }

    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, FlatTok::Ident { text, .. } if *text == s)
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, FlatTok::Punct { ch, .. } if *ch == c)
    }

    pub fn is_open(&self, c: char) -> bool {
        matches!(self, FlatTok::Open { delim, .. } if *delim == c)
    }
}

/// Flattens token trees (a file slice, an [`Arm`] body) depth-first.
pub fn flatten<'a>(toks: impl IntoIterator<Item = &'a Tok>) -> Vec<FlatTok<'a>> {
    let mut out = Vec::new();
    for t in toks {
        flatten_one(t, &mut out);
    }
    out
}

fn flatten_one<'a>(t: &'a Tok, out: &mut Vec<FlatTok<'a>>) {
    match t {
        Tok::Ident { text, pos } => out.push(FlatTok::Ident { text, pos: *pos }),
        Tok::Punct { ch, pos } => out.push(FlatTok::Punct { ch: *ch, pos: *pos }),
        Tok::Group { delim, toks, pos } => {
            out.push(FlatTok::Open {
                delim: *delim,
                pos: *pos,
            });
            for c in toks {
                flatten_one(c, out);
            }
            out.push(FlatTok::Close {
                delim: *delim,
                pos: *pos,
            });
        }
    }
}

/// The first `Path::Segment` value among a flat arm body — e.g.
/// `WalClass::Logged` → `Some("Logged")` for `path = "WalClass"`.
pub fn flat_path_value(flat: &[FlatTok<'_>], path: &str) -> Option<String> {
    flat.windows(4).find_map(|w| match &w[3] {
        FlatTok::Ident { text, .. }
            if w[0].is_ident(path) && w[1].is_punct(':') && w[2].is_punct(':') =>
        {
            Some((*text).to_string())
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    #[test]
    fn parses_nested_groups_and_idents() {
        let toks = parse("fn f(a: u8) { g(b[1]); }");
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("f"));
        assert!(toks[2].group('(').is_some());
        let body = toks[3].group('{').unwrap();
        assert!(body[0].is_ident("g"));
        let args = body[1].group('(').unwrap();
        assert!(args[0].is_ident("b"));
        assert!(args[1].group('[').is_some());
    }

    #[test]
    fn positions_survive_for_line_numbers() {
        let src = "a\nb\n  c";
        let toks = parse(src);
        assert_eq!(crate::lexer::line_of(src, toks[2].pos()), 3);
    }

    #[test]
    fn unbalanced_closers_do_not_panic() {
        let toks = parse("} ) fn f { }");
        assert!(fn_body(&toks, "f").is_some());
        let toks = parse("fn f { ( }");
        assert!(fn_body(&toks, "f").is_some());
    }

    #[test]
    fn impl_bodies_distinguish_inherent_and_trait() {
        let src = "impl Wire for Req { fn decode() { a(); } } impl Req { fn opcode() { b(); } }";
        let toks = parse(src);
        let inherent = block_after(&toks, &["impl", "Req"]).unwrap();
        assert!(fn_body(inherent, "opcode").is_some());
        assert!(fn_body(inherent, "decode").is_none());
        let wire = block_after(&toks, &["impl", "Wire", "for", "Req"]).unwrap();
        assert!(fn_body(wire, "decode").is_some());
    }

    #[test]
    fn fn_body_skips_parens_and_return_types() {
        let src = "fn f(a: (u8, u8)) -> Result<(), E> { inner() } fn g();";
        let toks = parse(src);
        let (pos, body) = fn_body(&toks, "f").unwrap();
        assert_eq!(&src[pos..pos + 1], "{");
        assert!(body[0].is_ident("inner"));
        assert!(fn_body(&toks, "g").is_none());
    }

    #[test]
    fn enum_variants_skip_payloads_attrs_discriminants() {
        let src = "
            #[non_exhaustive]
            pub enum Code {
                #[doc(hidden)]
                Alpha,
                Beta { x: u8, nested: Inner },
                Gamma(Vec<u8>),
                Delta = 4,
            }
            enum NotCode { X }
        ";
        let toks = parse(src);
        assert_eq!(
            enum_variants(&toks, "Code").unwrap(),
            ["Alpha", "Beta", "Gamma", "Delta"]
        );
        assert_eq!(enum_variants(&toks, "NotCode").unwrap(), ["X"]);
        assert!(enum_variants(&toks, "Missing").is_none());
    }

    #[test]
    fn match_arms_split_on_arrows_and_commas() {
        let src = "
            fn f(x: E) -> u16 {
                match x {
                    E::A { .. } => 1,
                    E::B(inner) => { nested(); 2 }
                    E::C | E::D => other(a, b),
                }
            }
        ";
        let toks = parse(&strip(src));
        let arms = all_match_arms(&toks);
        assert_eq!(arms.len(), 3);
        assert_eq!(
            qualified_variants(arms[0].pat.iter().copied(), "E"),
            vec!["A"]
        );
        assert_eq!(
            qualified_variants(arms[2].pat.iter().copied(), "E"),
            vec!["C", "D"]
        );
        let flat = flatten(arms[1].body.iter().copied());
        assert!(flat.iter().any(|t| t.is_ident("nested")));
    }

    #[test]
    fn nested_matches_are_found() {
        let src = "fn f() { match a { X::P => match b { Y::Q => 1, _ => 2 }, _ => 0 } }";
        let toks = parse(src);
        let arms = all_match_arms(&toks);
        let pats: Vec<_> = arms
            .iter()
            .flat_map(|a| qualified_variants(a.pat.iter().copied(), "Y"))
            .collect();
        assert!(pats.contains(&"Q".to_string()));
    }

    #[test]
    fn flat_path_values_resolve() {
        let toks = parse("WalClass::Logged");
        let flat = flatten(&toks);
        assert_eq!(
            flat_path_value(&flat, "WalClass").as_deref(),
            Some("Logged")
        );
        assert_eq!(flat_path_value(&flat, "OpClass"), None);
    }
}
