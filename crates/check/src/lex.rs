//! Lexical pass: mask comments/strings, collect comment text per line and
//! string-literal contents.
//!
//! Everything structural (the token pass, the symbol walk, every rule)
//! runs over the *masked* text this module produces, so patterns inside
//! strings or comments can never trigger (or suppress) a rule. The string
//! literal *contents*, kept on the side with their lines, feed the rules
//! that police what literals say (metric names, cfg feature names).

use std::collections::BTreeMap;

/// The source with every comment and string-literal character replaced by a
/// space (newlines preserved), plus what was masked: the comment text found
/// on each line and every string literal's contents.
pub struct Lexed {
    /// Masked source, byte-for-byte the same shape as the input.
    pub masked: String,
    /// Comment text per 1-indexed line (concatenated if several).
    pub comments: BTreeMap<usize, String>,
    /// Ordinary, raw and byte string literal contents with their 1-indexed
    /// starting lines. Escape sequences are kept raw — a literal containing
    /// one can never look like a metric name or a feature name, which is
    /// all this feeds.
    pub literals: Vec<(usize, String)>,
}

/// Mask comments and string/char literals out of `src`.
pub fn lex(src: &str) -> Lexed {
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut comments: BTreeMap<usize, String> = BTreeMap::new();
    let mut literals: Vec<(usize, String)> = Vec::new();
    let (mut lit, mut lit_line) = (String::new(), 0usize);
    let mut st = St::Code;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let nl = c == b'\n';
        let masked = if nl { c } else { b' ' };
        match st {
            St::Code => match c {
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    st = St::Line;
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    st = St::Block(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                b'"' => {
                    st = St::Str;
                    lit_line = line;
                    out.push(b' ');
                }
                b'r' | b'b' => {
                    // r"...", r#"..."#, b"...", br#"..."# raw/byte strings.
                    let mut j = i + 1;
                    if c == b'b' && b.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut h = 0u32;
                    while b.get(j) == Some(&b'#') {
                        h += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        // Emit the prefix as spaces, land past the quote.
                        st = St::RawStr(h);
                        lit_line = line;
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal is '\...' or 'x'
                    // followed by a closing quote.
                    let is_char = match b.get(i + 1) {
                        Some(b'\\') => true,
                        Some(_) => b.get(i + 2) == Some(&b'\''),
                        None => false,
                    };
                    if is_char {
                        st = St::Char;
                        out.push(b' ');
                    } else {
                        out.push(c);
                    }
                }
                _ => out.push(c),
            },
            St::Line => {
                if nl {
                    st = St::Code;
                } else {
                    comments.entry(line).or_default().push(c as char);
                }
                out.push(masked);
            }
            St::Block(depth) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if !nl {
                    comments.entry(line).or_default().push(c as char);
                }
                out.push(masked);
            }
            St::Str if c == b'\\' => {
                // An escape, kept raw; an escaped newline stays a newline.
                lit.push('\\');
                out.push(b' ');
                if let Some(&e) = b.get(i + 1) {
                    lit.push(e as char);
                    out.push(if e == b'\n' { e } else { b' ' });
                    line += usize::from(e == b'\n');
                }
                i += 2;
                continue;
            }
            St::Str | St::RawStr(_) => {
                let closes = match st {
                    St::RawStr(h) => {
                        c == b'"' && (1..=h as usize).all(|k| b.get(i + k) == Some(&b'#'))
                    }
                    _ => c == b'"',
                };
                if closes {
                    let hashes = if let St::RawStr(h) = st {
                        h as usize
                    } else {
                        0
                    };
                    literals.push((lit_line, std::mem::take(&mut lit)));
                    out.extend(std::iter::repeat_n(b' ', 1 + hashes));
                    i += 1 + hashes;
                    st = St::Code;
                    continue;
                }
                lit.push(c as char);
                out.push(masked);
            }
            St::Char => match c {
                b'\\' => {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                b'\'' => {
                    st = St::Code;
                    out.push(b' ');
                }
                _ => out.push(masked),
            },
        }
        if nl {
            line += 1;
        }
        i += 1;
    }
    Lexed {
        masked: String::from_utf8_lossy(&out).into_owned(),
        comments,
        literals,
    }
}

/// 1-indexed line ranges (inclusive) covered by `#[cfg(test)]` items,
/// found by brace matching from each attribute.
pub fn cfg_test_ranges(masked: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let bytes = masked.as_bytes();
    let mut search = 0usize;
    while let Some(pos) = masked[search..].find("#[cfg(test)]") {
        let start = search + pos;
        search = start + 1;
        let start_line = line_of(masked, start);
        // Scan forward to the item's opening brace or terminating
        // semicolon, skipping further attributes and the item header.
        let mut j = start + "#[cfg(test)]".len();
        let mut end_line = start_line;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    let mut depth = 1usize;
                    let mut k = j + 1;
                    while k < bytes.len() && depth > 0 {
                        match bytes[k] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    end_line = line_of(masked, k.saturating_sub(1));
                    break;
                }
                b';' => {
                    end_line = line_of(masked, j);
                    break;
                }
                _ => j += 1,
            }
        }
        ranges.push((start_line, end_line));
    }
    ranges
}

/// 1-indexed line of the byte at `byte_pos`.
pub fn line_of(s: &str, byte_pos: usize) -> usize {
    s.as_bytes()[..byte_pos.min(s.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Is `line` inside any of the (inclusive) `ranges`?
pub fn in_ranges(line: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}
