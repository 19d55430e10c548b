//! A minimal Rust source "lexer" for the lint passes: it does not
//! tokenize, it *blanks*. [`strip`] replaces comments, string literals,
//! and char literals with spaces while preserving every newline and byte
//! offset, so downstream passes can do plain substring scans without
//! being fooled by `"panic!"` inside a string or `.unwrap()` inside a
//! doc comment, and can still report accurate line numbers.

/// Returns `source` with comments (line, nested block, doc), string
/// literals (plain, byte, raw with any hash count), and char literals
/// blanked to spaces. Newlines are preserved so `line_of` stays exact.
/// Lifetimes (`'a`) and raw identifiers (`r#fn`) are left untouched.
pub fn strip(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;

    // Pushes `n` chars starting at `i` as blanks, preserving newlines.
    let blank = |out: &mut Vec<char>, b: &[char], from: usize, to: usize| {
        for &c in b.iter().take(to).skip(from) {
            out.push(if c == '\n' { '\n' } else { ' ' });
        }
    };

    while i < b.len() {
        let c = b[i];
        // Line comment (also covers /// and //! docs).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            blank(&mut out, &b, start, i);
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b, start, i);
            continue;
        }
        // Raw strings: r"...", r#"..."#, and byte/C variants br", cr".
        if let Some(end) = raw_string_end(&b, i) {
            blank(&mut out, &b, i, end);
            i = end;
            continue;
        }
        // Plain and byte strings: "...", b"..., c"...".
        if c == '"'
            || ((c == 'b' || c == 'c') && b.get(i + 1) == Some(&'"') && !ident_before(&b, i))
        {
            let start = i;
            i += if c == '"' { 1 } else { 2 };
            while i < b.len() {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b, start, i);
            continue;
        }
        // Byte char literal b'x'.
        if c == 'b' && b.get(i + 1) == Some(&'\'') && !ident_before(&b, i) {
            let start = i;
            i += 2;
            i = char_literal_end(&b, i);
            blank(&mut out, &b, start, i);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = match b.get(i + 1) {
                Some('\\') => true,
                Some(_) => b.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                let start = i;
                i += 1;
                i = char_literal_end(&b, i);
                blank(&mut out, &b, start, i);
                continue;
            }
            // A lifetime: pass through verbatim.
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

/// If a raw string literal starts at `i` (`r`, `br`, or `cr` prefix,
/// any number of hashes), returns the index one past its end.
fn raw_string_end(b: &[char], i: usize) -> Option<usize> {
    if ident_before(b, i) {
        return None;
    }
    let mut j = i;
    match b.get(j) {
        Some('r') => j += 1,
        Some('b') | Some('c') if b.get(j + 1) == Some(&'r') => j += 2,
        _ => return None,
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&'"') {
        return None; // raw identifier (r#foo) or a bare `r`/`br` ident
    }
    j += 1;
    while j < b.len() {
        if b[j] == '"' {
            let mut k = 0;
            while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    Some(b.len())
}

/// Index one past the closing quote of a char literal whose body starts
/// at `i` (just after the opening quote).
fn char_literal_end(b: &[char], mut i: usize) -> usize {
    while i < b.len() {
        if b[i] == '\\' {
            i += 2;
        } else if b[i] == '\'' {
            return i + 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Whether the char before position `i` continues an identifier (so an
/// `r`/`b`/`c` at `i` is the tail of a name, not a literal prefix).
fn ident_before(b: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(b[i - 1])
}

/// Identifier characters (ASCII; the workspace has no unicode idents).
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// 1-based line number of byte-offset `pos` within `text`.
pub fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()
        .iter()
        .take(pos)
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Blanks every `#[cfg(test)]`-gated item (attribute through the end of
/// the following brace block) so lints skip test code. Operates on
/// already-stripped text; offsets are preserved.
pub fn blank_cfg_test(stripped: &str) -> String {
    let mut chars: Vec<char> = stripped.chars().collect();
    let pat: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut i = 0;
    while i + pat.len() <= chars.len() {
        if chars[i..i + pat.len()] != pat[..] {
            i += 1;
            continue;
        }
        // Find the opening brace of the gated item, then its match.
        let mut j = i + pat.len();
        while j < chars.len() && chars[j] != '{' {
            j += 1;
        }
        let mut depth = 0usize;
        let mut end = j;
        while end < chars.len() {
            match chars[end] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        for c in chars.iter_mut().take(end).skip(i) {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "a // panic!\nb /* .unwrap() /* nested */ still */ c";
        let s = strip(src);
        assert!(!s.contains("panic"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn strips_strings_and_chars_keeps_lifetimes() {
        let src = r####"let x: &'a str = "panic!"; let c = '['; let r = r##"[0]"##;"####;
        let s = strip(src);
        assert!(!s.contains("panic"));
        assert!(!s.contains('['));
        assert!(s.contains("&'a str"));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn byte_and_escaped_literals() {
        let src = r#"let a = b"x[1]"; let b = b'\n'; let c = '\''; let d = "esc \" [q]";"#;
        let s = strip(src);
        assert!(!s.contains('['));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn raw_identifiers_survive() {
        let s = strip("let r#fn = 1; call(r#fn);");
        assert!(s.contains("r#fn"));
    }

    #[test]
    fn newlines_survive_for_line_numbers() {
        let src = "line1\n\"str\nin string\"\nline4 .unwrap()";
        let s = strip(src);
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        let pos = s.find(".unwrap").unwrap();
        assert_eq!(line_of(&s, pos), 4);
    }

    #[test]
    fn blanks_cfg_test_blocks() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn b() {}";
        let out = blank_cfg_test(&strip(src));
        assert_eq!(out.matches(".unwrap(").count(), 1);
        assert!(out.contains("fn b"));
    }
}
