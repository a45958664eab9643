//! Repo-wide static analyzer for the Oasis workspace: the rules no
//! compiler or clippy lint can state (DESIGN.md §14 maps every rule of the
//! workspace to its enforcer).
//!
//! Three passes, no external deps:
//!
//! 1. **Lexical** ([`lex`]): comments and string/char literals are masked to
//!    spaces (shape-preserving), comment text and string-literal contents
//!    are kept on the side. Everything downstream runs over masked text, so
//!    patterns inside strings or comments can never trigger (or suppress) a
//!    rule.
//! 2. **Token/symbol** ([`token`], [`symbols`]): the masked text becomes a
//!    token stream, and an item walk lists each file's fns with their
//!    visibility and `#[cfg(feature = ...)]` gate.
//! 3. **Rules** ([`rules`]), see `oasis-check --explain <rule>` or
//!    [`registry::REGISTRY`]:
//!    - **metric-name**: metric-name literals live only in their crate's
//!      `src/metrics.rs`, as `const` declarations.
//!    - **unchecked-epoch-arithmetic**: `+`/`*` on epoch/byte-integral
//!      operands in allocator and stranding paths must be `checked_` /
//!      `saturating_` or waived with the overflow bound.
//!    - **cfg-pairing**: private `#[cfg(feature = "obs")]` fns pair with
//!      their `#[cfg(not(...))]` inline stubs, and vice versa.
//!    - **waiver**: a waiver names one of the rules above, gives a reason,
//!      and still suppresses a finding.
//!
//! Test code is exempt: files under `tests/` and `benches/` are skipped
//! where appropriate, and `#[cfg(test)]` blocks are excluded by brace
//! matching. A deliberate exception in runtime code is waived in place,
//! covering the next statement:
//!
//! ```text
//! // oasis-check: allow(metric-name) <reason>
//! ```
//!
//! Any finding fails the run.

pub mod lex;
pub mod policy;
pub mod registry;
mod rules;
pub mod symbols;
pub mod token;

use std::cell::Cell;
use std::path::{Path, PathBuf};

pub use lex::{cfg_test_ranges, lex, Lexed};

use symbols::FileSymbols;

/// The rule identifiers, in display order. Kept in sync with
/// [`registry::REGISTRY`] by a unit test.
pub const RULES: &[&str] = &[
    "metric-name",
    "unchecked-epoch-arithmetic",
    "cfg-pairing",
    "waiver",
];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a file sits in its crate, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Under `src/` — runtime code.
    Src,
    /// Under `tests/`, `benches/`, or `examples/` — harness code.
    Harness,
}

/// Per-file context handed to the scanner.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path (for reporting).
    pub rel_path: String,
    /// Directory name of the crate under `crates/`.
    pub crate_name: String,
    /// Src vs harness.
    pub kind: FileKind,
}

/// One parsed waiver. `used` flips when it suppresses a finding; an
/// unused waiver is a `waiver` finding.
struct Waiver {
    /// Rule being waived.
    rule: &'static str,
    /// Line of the waiver comment, the first covered line.
    line: usize,
    /// Last covered line.
    last: usize,
    /// Did this waiver suppress at least one finding?
    used: Cell<bool>,
}

/// Parsed waivers for one file.
#[derive(Default)]
pub struct Waivers {
    /// Every well-formed waiver, in file order.
    entries: Vec<Waiver>,
    /// Malformed waivers (unknown rule, missing reason) become findings.
    bad: Vec<(usize, String)>,
}

impl Waivers {
    /// Is `rule` waived on `line`? Marks every matching waiver as live.
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        let mut hit = false;
        for w in &self.entries {
            if w.rule == rule && (w.line..=w.last).contains(&line) {
                w.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// Extract waiver comments (the `allow` marker described in the module
/// docs) from the comment map. A waiver covers its comment line through
/// the end of the next statement (the first following line holding `;`,
/// `{`, or `}`).
pub fn parse_waivers(lex: &Lexed) -> Waivers {
    let lines: Vec<&str> = lex.masked.lines().collect();
    let mut w = Waivers::default();
    for (&line, text) in &lex.comments {
        let Some(pos) = text.find("oasis-check:") else {
            continue;
        };
        let rest = text[pos + "oasis-check:".len()..].trim_start();
        let Some((rule_txt, reason)) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')'))
        else {
            w.bad.push((line, "malformed oasis-check waiver".into()));
            continue;
        };
        let rule_txt = rule_txt.trim();
        let Some(rule) = RULES.iter().find(|&&r| r == rule_txt && r != "waiver") else {
            w.bad
                .push((line, format!("unknown waiver rule '{rule_txt}'")));
            continue;
        };
        if reason.trim().is_empty() {
            w.bad.push((
                line,
                format!("waiver for '{rule}' has no justification text"),
            ));
            continue;
        }
        let last = lines
            .iter()
            .enumerate()
            .skip(line)
            .take(12)
            .find(|(_, l)| l.contains(';') || l.contains('{') || l.contains('}'))
            .map_or((line + 12).min(lines.len()), |(i, _)| i + 1);
        w.entries.push(Waiver {
            rule,
            line,
            last,
            used: Cell::new(false),
        });
    }
    w
}

/// One file, fully analyzed through the lexical, token, and symbol passes —
/// the unit the rules consume.
pub struct AnalyzedFile {
    /// File context.
    pub ctx: FileCtx,
    /// Masked source, comments and string literals.
    pub lexed: Lexed,
    /// `#[cfg(test)]` line ranges.
    pub tests: Vec<(usize, usize)>,
    /// The fns of this file.
    pub symbols: FileSymbols,
    /// Parsed waivers (with liveness marks).
    pub waivers: Waivers,
}

impl AnalyzedFile {
    /// Run every pass over one file's source.
    pub fn analyze(ctx: FileCtx, src: &str) -> AnalyzedFile {
        let lexed = lex(src);
        let tests = cfg_test_ranges(&lexed.masked);
        let symbols = symbols::extract(&lexed, &tests);
        let waivers = parse_waivers(&lexed);
        AnalyzedFile {
            ctx,
            lexed,
            tests,
            symbols,
            waivers,
        }
    }

    /// Record a finding unless a waiver covers it.
    fn report(&self, out: &mut Vec<Finding>, line: usize, rule: &'static str, message: String) {
        if !self.waivers.waived(rule, line) {
            out.push(self.finding(line, rule, message));
        }
    }

    fn finding(&self, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: self.ctx.rel_path.clone(),
            line,
            rule,
            message,
        }
    }
}

/// Run every rule over an in-memory set of files. This is what
/// [`check_workspace`] uses, and what the red-path integration tests drive
/// with seeded violations. Findings are sorted by (file, line, rule).
pub fn analyze_files(inputs: Vec<(FileCtx, String)>) -> Vec<Finding> {
    let files: Vec<AnalyzedFile> = inputs
        .into_iter()
        .map(|(ctx, src)| AnalyzedFile::analyze(ctx, &src))
        .collect();
    let mut out = Vec::new();
    for f in &files {
        rules::rule_metric_name(f, &mut out);
        rules::rule_epoch_arithmetic(f, &mut out);
        rules::rule_cfg_pairing(f, &mut out);
        // Last: every other rule has had its chance to mark waivers live.
        rules::rule_waiver(f, &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Walk `root/crates` and analyze every `.rs` file. Paths are visited in
/// sorted order so output is stable.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut inputs: Vec<(FileCtx, String)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let mut parts = rel.split('/');
        let (Some("crates"), Some(krate)) = (parts.next(), parts.next()) else {
            continue;
        };
        let kind = match parts.next() {
            Some("src") => FileKind::Src,
            Some("tests") | Some("benches") | Some("examples") => FileKind::Harness,
            _ => continue,
        };
        let ctx = FileCtx {
            rel_path: rel.clone(),
            crate_name: krate.to_string(),
            kind,
        };
        inputs.push((ctx, std::fs::read_to_string(&path)?));
    }
    Ok(analyze_files(inputs))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(krate: &str, path: &str, src: &str) -> Vec<Finding> {
        analyze_files(vec![(
            FileCtx {
                rel_path: path.to_string(),
                crate_name: krate.into(),
                kind: FileKind::Src,
            },
            src.to_string(),
        )])
    }

    fn src_file(krate: &str, src: &str) -> Vec<Finding> {
        one(krate, &format!("crates/{krate}/src/x.rs"), src)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn masking_strings_and_comments() {
        let l = lex("let a = \"panic!(x)\"; // .unwrap() here\nlet b = 1;");
        assert!(!l.masked.contains("panic!"));
        assert!(!l.masked.contains(".unwrap()"));
        assert!(l.comments[&1].contains(".unwrap() here"));
    }

    #[test]
    fn masking_raw_strings_and_chars() {
        let l =
            lex("let a = r#\"has .unwrap() inside\"#; let c = '\\'';\nlet lt: &'static str = x;");
        assert!(!l.masked.contains(".unwrap()"));
        assert!(l.masked.contains("'static"), "lifetimes survive masking");
    }

    #[test]
    fn waiver_covers_statement() {
        let src = "fn f() {\n    // oasis-check: allow(metric-name) a label, not a metric.\n    let x = y\n        .iter()\n        .find(\"core.not_a_metric\");\n    x\n}\n";
        assert!(src_file("core", src).is_empty());
        // The waiver does not leak past its statement.
        let src2 = format!("{src}fn g() {{ z(\"core.not_a_metric\"); }}\n");
        assert_eq!(rules_of(&src_file("core", &src2)), ["metric-name"]);
    }

    #[test]
    fn waiver_without_reason_is_a_finding() {
        let src = "// oasis-check: allow(metric-name)\nfn f() { x(\"core.a_metric\"); }\n";
        assert_eq!(rules_of(&src_file("core", src)), ["waiver", "metric-name"]);
        // A rule clippy enforces is not waivable here.
        let src = "// oasis-check: allow(no-panic) gone\nfn f() { x.unwrap(); }\n";
        assert_eq!(rules_of(&src_file("core", src)), ["waiver"]);
    }

    #[test]
    fn string_literal_extraction() {
        let lits = lex("let a = \"x.y\"; // \"not.this\"\nlet b = r#\"raw.one\"#;\n").literals;
        assert_eq!(lits, vec![(1, "x.y".into()), (2, "raw.one".into())]);
        // An escaped newline keeps the masked text in step with the source.
        let l = lex("let a = \"one \\\n two\";\nlet b = 1;\n");
        assert_eq!(l.masked.lines().nth(2), Some("let b = 1;"));
    }

    #[test]
    fn metric_name_shape() {
        assert!(rules::is_metric_shaped("sim.sched_dispatches"));
        assert!(rules::is_metric_shaped("core.storage_fe_service_ns"));
        assert!(!rules::is_metric_shaped("nodots"));
        assert!(!rules::is_metric_shaped("Mixed.case"));
        assert!(!rules::is_metric_shaped("sim..double"));
        assert!(!rules::is_metric_shaped("trailing.dot."));
        assert!(!rules::is_metric_shaped("has-dash.x"));
    }

    #[test]
    fn metric_name_outside_registry_flagged() {
        let src = "fn f(s: &Snap) -> u64 { s.counter(\"core.net_fe_tx_packets\", 0) }\n";
        assert_eq!(rules_of(&src_file("bench", src)), ["metric-name"]);
        // Non-registry prefixes (region labels etc.) are not metric names.
        let label = "fn g(p: &mut Pool) { p.alloc(\"storage.fe0.data\", 64); }\n";
        assert!(src_file("core", label).is_empty());
        // Tests may spot-check raw names.
        let test =
            "#[cfg(test)]\nmod t {\n    fn c() { s.counter(\"sim.sched_dispatches\", 0); }\n}\n";
        assert!(src_file("sim", test).is_empty());
    }

    #[test]
    fn metric_registry_prefix_and_const() {
        let reg =
            |krate: &str, src: &str| one(krate, &format!("crates/{krate}/src/metrics.rs"), src);
        let good = "pub const X: &str = \"sim.sched_dispatches\";\n";
        assert!(reg("sim", good).is_empty());
        // Wrong prefix for the owning crate.
        assert_eq!(rules_of(&reg("cxl", good)), ["metric-name"]);
        // Registered name outside a const declaration.
        let loose = "pub fn x() -> &'static str { \"sim.sched_dispatches\" }\n";
        assert_eq!(rules_of(&reg("sim", loose)), ["metric-name"]);
    }

    #[test]
    fn epoch_arithmetic_checked_and_waived() {
        let bad = "fn tick(&mut self, dt: u64) { self.nic_acc += nic * dt; }\n";
        let f = one("trace", "crates/trace/src/stranding.rs", bad);
        assert_eq!(rules_of(&f), ["unchecked-epoch-arithmetic"]);
        let good = "fn tick(&mut self, dt: u64) { self.nic_acc = self.nic_acc.saturating_add(nic * dt); }\n";
        assert!(one("trace", "crates/trace/src/stranding.rs", good).is_empty());
        let waived = format!("// oasis-check: allow(unchecked-epoch-arithmetic) dt < 2^32.\n{bad}");
        assert!(one("trace", "crates/trace/src/stranding.rs", &waived).is_empty());
        // Outside policed paths the same line is fine.
        assert!(one("sim", "crates/sim/src/clock.rs", bad).is_empty());
    }

    #[test]
    fn cfg_pairing_requires_stub() {
        let unpaired = "#[cfg(feature = \"obs\")]\nfn note_x(&mut self) { self.n += 1; }\n";
        let f = one("sim", "crates/sim/src/sched.rs", unpaired);
        assert_eq!(rules_of(&f), ["cfg-pairing"]);
        let paired = format!(
            "{unpaired}#[cfg(not(feature = \"obs\"))]\n#[inline(always)]\nfn note_x(&mut self) {{}}\n"
        );
        assert!(one("sim", "crates/sim/src/sched.rs", &paired).is_empty());
        // Pub gated fns are caller-gated by convention: exempt.
        let pub_gated = "#[cfg(feature = \"obs\")]\npub fn stats(&self) -> u64 { self.n }\n";
        assert!(one("sim", "crates/sim/src/sched.rs", pub_gated).is_empty());
    }

    #[test]
    fn stale_waiver_detected_live_waiver_kept() {
        // Live: the waiver suppresses a real finding.
        let live = "fn f() {\n    // oasis-check: allow(metric-name) boot-time label.\n    x(\"core.boot\");\n}\n";
        assert!(src_file("core", live).is_empty());
        // Stale: nothing to suppress.
        let stale = "fn f() {\n    // oasis-check: allow(metric-name) boot-time label.\n    let y = 1;\n}\n";
        assert_eq!(rules_of(&src_file("core", stale)), ["waiver"]);
    }
}
