//! The bench-regression gate of `accel_offload`.
//!
//! The bench writes a `BENCH_*.json` file with a recorded baseline; in
//! `--check` mode the measured value is compared against that committed
//! baseline and the process exits non-zero when it has regressed by more
//! than the tolerance band. Knobs (environment variables):
//!
//! * `OASIS_BENCH_TOLERANCE_PCT` — allowed regression in percent
//!   (default 15, the CI gate from the issue).
//! * `OASIS_BENCH_HANDICAP_PCT` — artificially shrinks the measured value
//!   by this percent before the comparison. Exists so CI can prove the red
//!   path: a 20 % handicap against a 15 % band must fail the job.

/// Allowed regression below the baseline, in percent.
pub fn tolerance_pct() -> f64 {
    std::env::var("OASIS_BENCH_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15.0)
}

/// Artificial measurement handicap, in percent (red-path testing).
pub fn handicap_pct() -> f64 {
    std::env::var("OASIS_BENCH_HANDICAP_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Apply the configured handicap to a measured value.
pub fn handicapped(measured: f64) -> f64 {
    measured * (1.0 - handicap_pct() / 100.0)
}

/// One gate comparison: `measured` (already handicapped) against
/// `baseline`. Prints the verdict; returns `false` on regression beyond
/// the tolerance band. Higher is better for every gated metric.
pub fn gate(what: &str, measured: f64, baseline: f64) -> bool {
    let tol = tolerance_pct();
    let floor = baseline * (1.0 - tol / 100.0);
    let ok = measured >= floor;
    println!(
        "check {what}: measured {measured:.1} vs baseline {baseline:.1} \
         (floor {floor:.1}, tolerance {tol:.0}%) -> {}",
        if ok { "OK" } else { "REGRESSION" }
    );
    ok
}

/// Pull `"key": <number>` out of a previously written JSON file. The files
/// are machine-written by the benches with a fixed shape, so a plain text
/// scan is reliable; we have no JSON dependency offline.
pub fn read_json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_scan() {
        let text = "{\n  \"a\": 12.5,\n  \"b\": -3,\n  \"c\": null\n}\n";
        assert_eq!(read_json_number(text, "a"), Some(12.5));
        assert_eq!(read_json_number(text, "b"), Some(-3.0));
        assert_eq!(read_json_number(text, "c"), None);
        assert_eq!(read_json_number(text, "missing"), None);
    }

    #[test]
    fn gate_bands() {
        // Defaults: 15% band, no handicap (env not set in tests).
        assert!(gate("t", 100.0, 100.0));
        assert!(gate("t", 86.0, 100.0));
        assert!(!gate("t", 84.0, 100.0));
        assert!(gate("t", 200.0, 100.0));
    }
}
