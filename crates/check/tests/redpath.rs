//! Red-path coverage: every rule family must fire on a seeded violation.
//! CI runs the same experiment against the *real* workspace (inject one
//! violation per family into a policed file, assert the rule id appears in
//! `oasis-check`'s findings, restore); this test pins the same guarantee
//! in-process so a silently dead rule cannot pass the suite.

use oasis_check::{analyze_files, FileCtx, FileKind};

fn src(rel_path: &str, crate_name: &str, body: &str) -> (FileCtx, String) {
    (
        FileCtx {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind: FileKind::Src,
        },
        body.to_string(),
    )
}

fn rules_fired(findings: &[oasis_check::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn epoch_arithmetic_fires_on_unchecked_add() {
    let findings = analyze_files(vec![src(
        "crates/core/src/allocator/lease.rs",
        "core",
        "pub fn extend(expiry_ns: u64, ttl_ns: u64) -> u64 { expiry_ns + ttl_ns }\n",
    )]);
    assert!(
        rules_fired(&findings).contains(&"unchecked-epoch-arithmetic"),
        "{findings:?}"
    );
}

#[test]
fn cfg_pairing_fires_on_unpaired_gated_fn() {
    let findings = analyze_files(vec![src(
        "crates/core/src/obs_glue.rs",
        "core",
        "struct T;\n\
         impl T {\n\
             #[cfg(feature = \"obs\")]\n\
             fn note(&mut self) { }\n\
         }\n",
    )]);
    assert!(
        rules_fired(&findings).contains(&"cfg-pairing"),
        "{findings:?}"
    );
}

#[test]
fn stale_waiver_fires_on_dead_waiver() {
    let findings = analyze_files(vec![src(
        "crates/core/src/clean.rs",
        "core",
        "// oasis-check: allow(metric-name) no metric name here\n\
         pub fn fine() -> u32 { 7 }\n",
    )]);
    assert!(rules_fired(&findings).contains(&"waiver"), "{findings:?}");
}

#[test]
fn clean_seed_produces_no_findings() {
    // The green path: an innocuous policed file stays quiet, so the red
    // assertions above are attributable to the seeded violations alone.
    let findings = analyze_files(vec![src(
        "crates/core/src/fleet.rs",
        "core",
        "pub fn add(a: u64, b: u64) -> u64 { a.saturating_add(b) }\n",
    )]);
    assert!(findings.is_empty(), "{findings:?}");
}
