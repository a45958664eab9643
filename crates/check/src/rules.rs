//! Rule families. Each runs over one analyzed file; `rule_waiver` runs
//! last, once every other rule has had its chance to use a waiver.

use crate::lex::in_ranges;
use crate::policy;
use crate::token::{tokenize, Tok};
use crate::{AnalyzedFile, FileKind, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Crates that own a metric-name registry (`src/metrics.rs`). These are
/// also the only legal first segments of a metric name.
pub(crate) const METRIC_REGISTRY_CRATES: &[&str] =
    &["sim", "cxl", "channel", "core", "trace", "bench"];

/// Runtime source outside the check crate, minus `#[cfg(test)]`-included
/// sibling files: what the rules police.
fn policed_src(f: &AnalyzedFile) -> bool {
    let name = f.ctx.rel_path.rsplit('/').next().unwrap_or("");
    f.ctx.kind == FileKind::Src
        && f.ctx.crate_name != "check"
        && !name.ends_with("_tests.rs")
        && name != "tests.rs"
}

/// Does `s` have the shape of a metric name: two or more non-empty
/// `snake_case` segments joined by dots?
pub(crate) fn is_metric_shaped(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// `metric-name`: registered names are `const`s in their crate's
/// `src/metrics.rs`, prefixed with the crate; every other runtime file
/// refers to the const.
pub(crate) fn rule_metric_name(f: &AnalyzedFile, out: &mut Vec<Finding>) {
    // Harness code reads snapshots through registered consts too, but only
    // src trees are policed; the check crate's own fixtures are exempt.
    if f.ctx.kind != FileKind::Src || f.ctx.crate_name == "check" {
        return;
    }
    let is_registry = f.ctx.rel_path.ends_with("src/metrics.rs");
    let masked_lines: Vec<&str> = f.lexed.masked.lines().collect();
    for (line, lit) in &f.lexed.literals {
        let line = *line;
        let prefix = lit.split('.').next().unwrap_or("");
        if !is_metric_shaped(lit)
            || !METRIC_REGISTRY_CRATES.contains(&prefix)
            || in_ranges(line, &f.tests)
        {
            continue;
        }
        if !is_registry {
            f.report(
                out,
                line,
                "metric-name",
                format!("metric name \"{lit}\" outside metrics.rs — use the registered const"),
            );
            continue;
        }
        if prefix != f.ctx.crate_name {
            f.report(
                out,
                line,
                "metric-name",
                format!(
                    "metric \"{lit}\" registered in crate '{}' but prefixed '{prefix}.'",
                    f.ctx.crate_name
                ),
            );
        }
        // Registry entries must be const declarations, so every user can
        // name them; the declaration and literal share a line.
        let declared = masked_lines
            .get(line - 1)
            .is_some_and(|l| l.contains("const "));
        if !declared {
            f.report(
                out,
                line,
                "metric-name",
                format!("metric \"{lit}\" in metrics.rs is not a `const` declaration"),
            );
        }
    }
}

/// `unchecked-epoch-arithmetic`: `+`/`*` (including `+=`/`*=`) on lines
/// whose operands look epoch/byte-integral, in the policed allocator and
/// stranding-integral paths, must be `checked_`/`saturating_`/`wrapping_`
/// or carry a waiver.
pub(crate) fn rule_epoch_arithmetic(f: &AnalyzedFile, out: &mut Vec<Finding>) {
    if !policed_src(f) || !policy::policed(&f.ctx.rel_path, policy::EPOCH_POLICED) {
        return;
    }
    let toks = tokenize(&f.lexed.masked);
    // Idents per line, for the operand-shape test.
    let mut line_idents: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for t in &toks {
        if let Some(id) = t.ident() {
            line_idents.entry(t.line).or_default().push(id);
        }
    }
    let masked_lines: Vec<&str> = f.lexed.masked.lines().collect();
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let op = match t.tok {
            Tok::Punct('+') => '+',
            Tok::Punct('*') => '*',
            _ => continue,
        };
        let line = t.line;
        if reported.contains(&line) || in_ranges(line, &f.tests) {
            continue;
        }
        // Binary-operator shape: the left operand ends in an ident,
        // number, or closing bracket (rules out derefs, `&*`, generic
        // arrows, unary positions).
        let prev_ok = i > 0
            && match &toks[i - 1].tok {
                Tok::Num { .. } => true,
                Tok::Punct(')') | Tok::Punct(']') => true,
                Tok::Ident(id) => !matches!(
                    id.as_str(),
                    "return" | "break" | "in" | "if" | "while" | "match" | "move" | "impl"
                ),
                _ => false,
            };
        if !prev_ok {
            continue;
        }
        let epochy = line_idents
            .get(&line)
            .is_some_and(|ids| ids.iter().any(|id| policy::is_epoch_ident(id)));
        if !epochy {
            continue;
        }
        let text = masked_lines.get(line - 1).copied().unwrap_or("");
        if text.contains("checked_") || text.contains("saturating_") || text.contains("wrapping_") {
            continue;
        }
        reported.insert(line);
        f.report(
            out,
            line,
            "unchecked-epoch-arithmetic",
            format!(
                "unchecked '{op}' on epoch/byte-integral operands — use \
                 checked_/saturating_ or waive with the overflow bound"
            ),
        );
    }
}

/// `cfg-pairing`: every private `#[cfg(feature = ...)]` fn (for the paired
/// features) has its `#[cfg(not(feature = ...))]` inline stub in the same
/// file, and every stub has its implementation. Pub gated fns are exempt —
/// callers gate themselves by convention.
pub(crate) fn rule_cfg_pairing(f: &AnalyzedFile, out: &mut Vec<Finding>) {
    if !policed_src(f) {
        return;
    }
    for fun in &f.symbols.fns {
        let Some(gate) = &fun.gate else {
            continue;
        };
        if fun.in_tests || fun.is_pub || !policy::PAIRED_FEATURES.contains(&gate.feature.as_str()) {
            continue;
        }
        let paired = f.symbols.fns.iter().any(|g| {
            g.name == fun.name
                && g.gate
                    .as_ref()
                    .is_some_and(|h| h.feature == gate.feature && h.not != gate.not)
        });
        if paired {
            continue;
        }
        let message = if gate.not {
            format!(
                "stub '{}' has no #[cfg(feature = \"{}\")] implementation — dead \
                 stub or deleted impl",
                fun.name, gate.feature
            )
        } else {
            format!(
                "gated fn '{}' has no #[cfg(not(feature = \"{}\"))] inline stub — \
                 the no-feature build breaks at its call sites",
                fun.name, gate.feature
            )
        };
        f.report(out, fun.line, "cfg-pairing", message);
    }
}

/// `waiver`: malformed waivers, and waivers that never suppressed a
/// finding. Not waivable — fix or delete the waiver instead. The check
/// crate is exempt: its docs and fixtures quote waiver syntax.
pub(crate) fn rule_waiver(f: &AnalyzedFile, out: &mut Vec<Finding>) {
    if f.ctx.crate_name == "check" {
        return;
    }
    for (line, msg) in &f.waivers.bad {
        out.push(f.finding(*line, "waiver", msg.clone()));
    }
    for w in f.waivers.entries.iter().filter(|w| !w.used.get()) {
        out.push(f.finding(
            w.line,
            "waiver",
            format!(
                "waiver for '{}' no longer suppresses any finding — delete it",
                w.rule
            ),
        ));
    }
}
