//! Token pass: the masked source as a flat token stream.
//!
//! Runs over [`crate::lex::Lexed::masked`] text, so string and comment
//! contents are already gone and tokenization is purely structural.
//! Numbers are lexed whole and classified integer vs float, so `1.5`,
//! `1e9` and `2.0f32` are one literal while `0..10` and `x.0.1` split where
//! Rust splits them, and every token carries its 1-indexed line for
//! reporting.

/// One token of masked source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (including `f64`, `as`, `fn`, ...).
    Ident(String),
    /// Numeric literal; `float` is true for `1.5`, `1e9`, `2.0f32`, ...
    Num {
        /// Literal text as written (minus any masked parts — never).
        text: String,
        /// Float literal (decimal point, exponent, or f32/f64 suffix).
        float: bool,
    },
    /// Lifetime or loop label: `'a`, `'static`.
    Lifetime(String),
    /// Single punctuation character (compound operators arrive as
    /// consecutive tokens: `+=` is `+` then `=`).
    Punct(char),
}

/// A token plus the 1-indexed source line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-indexed line.
    pub line: usize,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenize masked source. Unknown bytes are skipped.
pub fn tokenize(masked: &str) -> Vec<Token> {
    let b = masked.as_bytes();
    let mut out = Vec::with_capacity(masked.len() / 4);
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(masked[start..i].to_string()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut float = false;
            // A number right after `.` is a tuple index (`x.0.1`): digits
            // only, never a float.
            if matches!(out.last(), Some(t) if t.is_punct('.')) {
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num {
                        text: masked[start..i].to_string(),
                        float: false,
                    },
                    line,
                });
                continue;
            }
            if c == b'0' && matches!(b.get(i + 1), Some(b'x') | Some(b'o') | Some(b'b')) {
                // Radix literal: never a float; `b` here is safe because a
                // byte-string `b"`/`br` was already masked away.
                i += 2;
                while i < b.len() && (is_ident_continue(b[i])) {
                    i += 1;
                }
            } else {
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
                // Decimal point: only when followed by a digit, so `0..9`
                // ranges and `x.0` tuple access stay integers.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    float = true;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                }
                // Trailing `1.` (not `1..` and not `1.method()`).
                if !float
                    && i < b.len()
                    && b[i] == b'.'
                    && b.get(i + 1) != Some(&b'.')
                    && !b.get(i + 1).copied().is_some_and(is_ident_start)
                {
                    float = true;
                    i += 1;
                }
                // Exponent: `1e9`, `1.5e-3`.
                if i < b.len()
                    && (b[i] == b'e' || b[i] == b'E')
                    && b.get(i + 1).is_some_and(|&n| {
                        n.is_ascii_digit()
                            || ((n == b'+' || n == b'-')
                                && b.get(i + 2).is_some_and(|d| d.is_ascii_digit()))
                    })
                {
                    float = true;
                    i += 1;
                    if b[i] == b'+' || b[i] == b'-' {
                        i += 1;
                    }
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                }
                // Type suffix: `1u64`, `2.5f32`, `3f64`.
                let suffix_start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let suffix = &masked[suffix_start..i];
                if suffix == "f32" || suffix == "f64" {
                    float = true;
                }
            }
            out.push(Token {
                tok: Tok::Num {
                    text: masked[start..i].to_string(),
                    float,
                },
                line,
            });
            continue;
        }
        if c == b'\'' {
            // Char literals were masked; what remains is a lifetime/label.
            let start = i;
            i += 1;
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Lifetime(masked[start..i].to_string()),
                line,
            });
            continue;
        }
        out.push(Token {
            tok: Tok::Punct(c as char),
            line,
        });
        i += 1;
    }
    out
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Is this token exactly the punctuation `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn floats_vs_integers() {
        let t = toks("let a = 1.5 + 2 * 1e9; let b = 0x1e9; let c = 2.0f32;");
        let floats: Vec<&Tok> = t
            .iter()
            .filter(|t| matches!(t, Tok::Num { float: true, .. }))
            .collect();
        assert_eq!(floats.len(), 3, "{floats:?}");
        assert!(t.contains(&Tok::Num {
            text: "0x1e9".into(),
            float: false
        }));
    }

    #[test]
    fn ranges_and_tuple_access_stay_integer() {
        for src in ["for i in 0..10 {}", "x.0", "x.0.1", "1..=9", "t.0.min(1)"] {
            assert!(
                !toks(src)
                    .iter()
                    .any(|t| matches!(t, Tok::Num { float: true, .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn trailing_dot_float_and_method_on_literal() {
        assert!(toks("let x = 1.;")
            .iter()
            .any(|t| matches!(t, Tok::Num { float: true, .. })));
        assert!(!toks("let x = 1.max(2);")
            .iter()
            .any(|t| matches!(t, Tok::Num { float: true, .. })));
    }

    #[test]
    fn lifetimes_and_lines() {
        let t = tokenize("fn f<'a>(x: &'a u32) {}\nlet y = 1;");
        assert!(t.iter().any(|t| t.tok == Tok::Lifetime("'a".into())));
        let y = t.iter().find(|t| t.ident() == Some("y")).unwrap();
        assert_eq!(y.line, 2);
    }

    #[test]
    fn suffixed_integers_stay_integer() {
        assert!(!toks("let x = 10u64 + 3usize;")
            .iter()
            .any(|t| matches!(t, Tok::Num { float: true, .. })));
    }
}
