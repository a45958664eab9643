//! Symbol pass: the fns of a file, over the token stream.
//!
//! A lightweight recursive-descent walk (no syn, no external deps) that
//! lists every function with its visibility and `#[cfg(feature = ...)]`
//! gate — what `cfg-pairing` reasons about. The walk recurses into
//! `mod`/`impl`/`trait` bodies so methods are seen; every other braced
//! body (fn bodies, struct and enum bodies, initializers) is skipped whole.
//! Fns whose header line falls in a `#[cfg(test)]` range are marked
//! test-only.

use crate::lex::{in_ranges, Lexed};
use crate::token::{tokenize, Tok, Token};

/// A `#[cfg(feature = "...")]` / `#[cfg(not(feature = "..."))]` gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfgGate {
    /// Feature name (from the string literal on the attribute line).
    pub feature: String,
    /// True for the `not(...)` form — the inline-stub side.
    pub not: bool,
}

/// A function item.
#[derive(Clone, Debug)]
pub struct FnSym {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Header line falls inside a `#[cfg(test)]` range.
    pub in_tests: bool,
    /// Feature gate, when the item carries one.
    pub gate: Option<CfgGate>,
}

/// Everything the symbol pass extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    /// Functions (including methods in impls and trait defaults).
    pub fns: Vec<FnSym>,
}

/// Extract symbols from one file. `tests` are the `#[cfg(test)]` line
/// ranges from the lexical pass; feature names come from its string
/// literals.
pub fn extract(lexed: &Lexed, tests: &[(usize, usize)]) -> FileSymbols {
    let toks = tokenize(&lexed.masked);
    let mut out = FileSymbols::default();
    let mut w = Walker {
        toks: &toks,
        tests,
        literals: &lexed.literals,
        out: &mut out,
    };
    w.items(0, toks.len());
    out
}

struct Walker<'a> {
    toks: &'a [Token],
    tests: &'a [(usize, usize)],
    literals: &'a [(usize, String)],
    out: &'a mut FileSymbols,
}

impl Walker<'_> {
    /// Index just past the group closed by the matching delimiter for the
    /// opener at `open` (`{`/`(`/`[`/`<`), counting only that delimiter
    /// kind. `<`/`>` are matched with a guard against `->` arrows.
    fn skip_group(&self, open: usize) -> usize {
        let (o, c) = match self.toks[open].tok {
            Tok::Punct('{') => ('{', '}'),
            Tok::Punct('(') => ('(', ')'),
            Tok::Punct('[') => ('[', ']'),
            Tok::Punct('<') => ('<', '>'),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        for i in open..self.toks.len() {
            if self.toks[i].is_punct(o) && (o != '<' || !self.prev_is(i, '-')) {
                depth += 1;
            } else if self.toks[i].is_punct(c) && (c != '>' || !self.prev_is(i, '-')) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        self.toks.len()
    }

    fn prev_is(&self, i: usize, p: char) -> bool {
        i > 0 && self.toks[i - 1].is_punct(p)
    }

    /// The item body opener at or after `j`: the index of its `{`, or of
    /// the `;` ending a bodyless item. Generics, parameter lists and array
    /// types are skipped whole.
    fn body_start(&self, mut j: usize, end: usize) -> usize {
        while j < end {
            match self.toks[j].tok {
                Tok::Punct('{') | Tok::Punct(';') => return j,
                Tok::Punct('<') if !self.prev_is(j, '-') => j = self.skip_group(j),
                Tok::Punct('(') | Tok::Punct('[') => j = self.skip_group(j),
                _ => j += 1,
            }
        }
        end
    }

    /// Walk `[i, end)` at item level.
    fn items(&mut self, mut i: usize, end: usize) {
        let mut gate: Option<CfgGate> = None;
        let mut is_pub = false;
        while i < end {
            match &self.toks[i].tok {
                Tok::Punct('#') => {
                    // Attribute: `#[...]` or `#![...]`.
                    let mut j = i + 1;
                    if j < end && self.toks[j].is_punct('!') {
                        j += 1;
                    }
                    if j < end && self.toks[j].is_punct('[') {
                        let close = self.skip_group(j);
                        if let Some(g) = self.parse_cfg_gate(j + 1, close - 1) {
                            gate = Some(g);
                        }
                        i = close;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                Tok::Ident(k) if k == "pub" => {
                    is_pub = true;
                    i += 1;
                    if i < end && self.toks[i].is_punct('(') {
                        i = self.skip_group(i); // pub(crate) etc.
                    }
                    continue;
                }
                Tok::Ident(k) if matches!(k.as_str(), "unsafe" | "extern" | "async" | "const") => {
                    i += 1; // modifier; keep pending attrs/visibility
                    continue;
                }
                Tok::Ident(k) if k == "fn" => {
                    i = self.item_fn(i, end, is_pub, gate.take());
                }
                Tok::Ident(k) if matches!(k.as_str(), "impl" | "mod" | "trait") => {
                    // Recurse into the body at item level.
                    let j = self.body_start(i + 1, end);
                    if j < end && self.toks[j].is_punct('{') {
                        let close = self.skip_group(j);
                        self.items(j + 1, close - 1);
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                Tok::Punct('{') => i = self.skip_group(i),
                _ => i += 1,
            }
            gate = None;
            is_pub = false;
        }
    }

    /// Parse attribute tokens `[a, b)` (inside the brackets) as a cfg gate.
    fn parse_cfg_gate(&self, a: usize, b: usize) -> Option<CfgGate> {
        let idents: Vec<&str> = self.toks[a..b].iter().filter_map(|t| t.ident()).collect();
        if idents.first() != Some(&"cfg") {
            return None;
        }
        let line = self.toks.get(a)?.line;
        let not = match &idents[1..] {
            ["feature", ..] => false,
            ["not", "feature", ..] => true,
            _ => return None,
        };
        let feature = self
            .literals
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|(_, s)| s.clone())?;
        Some(CfgGate { feature, not })
    }

    fn item_fn(&mut self, at: usize, end: usize, is_pub: bool, gate: Option<CfgGate>) -> usize {
        let line = self.toks[at].line;
        let Some(name) = self.toks.get(at + 1).and_then(|t| t.ident()) else {
            return at + 1; // a `fn(..)` pointer type
        };
        self.out.fns.push(FnSym {
            name: name.to_string(),
            line,
            is_pub,
            in_tests: in_ranges(line, self.tests),
            gate,
        });
        let j = self.body_start(at + 2, end);
        if j < end && self.toks[j].is_punct('{') {
            self.skip_group(j)
        } else {
            j + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{cfg_test_ranges, lex};

    fn sym(src: &str) -> FileSymbols {
        let lexed = lex(src);
        extract(&lexed, &cfg_test_ranges(&lexed.masked))
    }

    #[test]
    fn cfg_gates_attach_to_fns() {
        let s = sym("#[cfg(feature = \"obs\")]\nfn real() { x(); }\n\
             #[cfg(not(feature = \"obs\"))]\n#[inline(always)]\nfn real() {}\n\
             fn ungated() {}\n");
        assert_eq!(s.fns.len(), 3);
        assert_eq!(
            s.fns[0].gate,
            Some(CfgGate {
                feature: "obs".into(),
                not: false
            })
        );
        assert_eq!(
            s.fns[1].gate,
            Some(CfgGate {
                feature: "obs".into(),
                not: true
            })
        );
        assert_eq!(s.fns[2].gate, None);
    }

    #[test]
    fn generic_fn_and_arrow_in_generics() {
        let s = sym("fn g<F: Fn() -> u64>(f: F) -> u64 { f() + seed() }\nfn h() {}\n");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["g", "h"]);
    }

    #[test]
    fn methods_visibility_and_test_marking() {
        let s = sym("pub struct P { f: fn(u32) }\n\
             impl Tr for [u8; 4] {\n    pub(crate) fn m(&self) {}\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let x = 0.5; }\n}\n");
        let got: Vec<(&str, bool, bool)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.in_tests))
            .collect();
        assert_eq!(got, [("m", true, false), ("t", false, true)]);
    }
}
