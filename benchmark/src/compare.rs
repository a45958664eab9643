//! Compare two result files under the benchmark's own bounds.
//!
//! Simulated numbers, counters, digests and `fail_ratio` must be identical;
//! host-time end-to-end metrics may differ by their bound; host-time
//! per-layer numbers are shown but never gate. A gate that cannot fail is a
//! bug (ROADMAP), so the unit tests below worsen one metric past its bound
//! and require the flag.

use crate::json::Value;
use crate::spec::{self, Better, Workload};
use crate::stats::rel_diff;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// Must be identical.
    Exact,
    /// May be worse by at most this share of the first value.
    Bound(f64, Better),
    /// Shown, never gates.
    Info,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    pub rel: f64,
    pub rule: Rule,
    pub ok: bool,
}

/// How two values of a bounded metric are held against the bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `a` is the baseline and `b` the candidate: only a worsening counts.
    Baseline,
    /// Two runs of the same code: a difference either way counts.
    SameCode,
}

fn judge(rule: Rule, a: f64, b: f64, mode: Mode) -> (f64, bool) {
    let rel = rel_diff(a, b);
    let ok = match rule {
        Rule::Exact => a == b,
        Rule::Info => true,
        Rule::Bound(bound, better) => {
            let worse = match better {
                Better::Lower => rel,
                Better::Higher => -rel,
            };
            match mode {
                Mode::Baseline => worse <= bound,
                Mode::SameCode => rel.abs() <= bound,
            }
        }
    };
    (rel, ok)
}

fn value_of(entry: &Value) -> Option<f64> {
    entry.get("value").and_then(Value::as_f64)
}

fn rule_for(workload: Workload, section: &str, metric: &str) -> Rule {
    match section {
        "metrics" => match spec::end_to_end(metric) {
            Some(_) if metric.starts_with("lat_") && workload.latency_is_simulated() => Rule::Exact,
            Some(m) => Rule::Bound(m.bound, m.better),
            None => Rule::Info,
        },
        "info" if metric == "fail_ratio" => Rule::Exact,
        "layer" => match spec::per_layer(metric) {
            Some(l) if l.source.exact() => Rule::Exact,
            _ => Rule::Info,
        },
        _ => Rule::Info,
    }
}

/// Pair up the workloads of two result documents and judge every metric
/// both carry. A workload or gated metric present in `a` and missing from
/// `b` is a failed row.
pub fn compare(a: &Value, b: &Value, mode: Mode) -> Result<Vec<Row>, String> {
    // Untraced reports, then traced ones (named apart so they pair up).
    let list = |doc: &Value| -> Result<Vec<Value>, String> {
        let untraced = doc
            .get("workloads")
            .ok_or_else(|| "result file has no \"workloads\" list".to_string())?;
        let traced = doc.get("traced").map(Value::items).unwrap_or(&[]);
        Ok(untraced.items().iter().chain(traced).cloned().collect())
    };
    let (wa, wb) = (list(a)?, list(b)?);
    let mut rows = Vec::new();
    for ra in &wa {
        let name = ra
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("workload entry without a name")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let mut row = |metric: &str, a: String, b: String, rel: f64, rule: Rule, ok: bool| {
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.to_string(),
                a,
                b,
                rel,
                rule,
                ok,
            })
        };
        let rb = wb.iter().find(|r| {
            r.get("workload").and_then(Value::as_str) == Some(name)
                && r.get("spans") == ra.get("spans")
        });
        let Some(rb) = rb else {
            let (a, b) = ("present".to_string(), "missing".to_string());
            row("(workload)", a, b, f64::INFINITY, Rule::Exact, false);
            continue;
        };
        // Digests only mean the same thing between like builds.
        let same_build = ra.get("traced_build") == rb.get("traced_build")
            && ra.get("scale") == rb.get("scale")
            && ra.get("seed") == rb.get("seed");
        for key in ["inputs_digest", "snapshot_digest"] {
            let digest = |r: &Value| {
                r.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or("-")
                    .to_string()
            };
            let (da, db) = (digest(ra), digest(rb));
            let same = da == db;
            let rule = if same_build { Rule::Exact } else { Rule::Info };
            let rel = if same { 0.0 } else { f64::INFINITY };
            row(key, da, db, rel, rule, same || !same_build);
        }
        // A traced report's host times come from a few short repetitions
        // with spans on: they are shown, and only its exact numbers gate.
        let traced = ra.get("spans").and_then(Value::as_bool) == Some(true);
        for section in ["metrics", "info", "layer"] {
            let Some(sa) = ra.get(section) else { continue };
            for (metric, ea) in sa.fields() {
                let mut rule = rule_for(workload, section, metric);
                if (rule == Rule::Exact && !same_build)
                    || (matches!(rule, Rule::Bound(..)) && traced)
                {
                    rule = Rule::Info;
                }
                let va = value_of(ea);
                let vb = rb
                    .get(section)
                    .and_then(|s| s.get(metric))
                    .and_then(value_of);
                let text = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
                match (va, vb) {
                    (Some(va), Some(vb)) => {
                        let (rel, ok) = judge(rule, va, vb, mode);
                        row(metric, text(Some(va)), text(Some(vb)), rel, rule, ok);
                    }
                    // A gated number one side lacks is a failure.
                    _ if rule != Rule::Info => {
                        row(metric, text(va), text(vb), f64::INFINITY, rule, false)
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(rows)
}

/// Print the comparison; returns whether every gated row passed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<17} {:<30} {:>22} {:>22} {:>9}  {:<12} verdict",
        "workload", "metric", "a", "b", "diff", "rule"
    );
    for r in rows {
        let rule = match r.rule {
            Rule::Exact => "exact".to_string(),
            Rule::Bound(b, _) => format!("within {:.0}%", b * 100.0),
            Rule::Info => "-".to_string(),
        };
        let verdict = match (r.rule, r.ok) {
            (Rule::Info, _) => "",
            (_, true) => "ok",
            (_, false) => "FAIL",
        };
        println!(
            "{:<17} {:<30} {:>22} {:>22} {:>+8.2}%  {:<12} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel * 100.0,
            rule,
            verdict
        );
    }
    let failed = rows.iter().filter(|r| !r.ok).count();
    println!(
        "{} rows, {} gated, {} failed",
        rows.len(),
        rows.iter().filter(|r| r.rule != Rule::Info).count(),
        failed
    );
    failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn entry(workload: &str, ops_per_s: f64, p50: f64, hits: f64) -> Value {
        Value::obj()
            .with("workload", workload)
            .with("seed", "2025")
            .with("scale", "full")
            .with("traced_build", false)
            .with("inputs_digest", "00ff")
            .with("snapshot_digest", "abcd")
            .with(
                "metrics",
                Value::obj()
                    .with("ops_per_s", Value::metric(ops_per_s, "1/s"))
                    .with("lat_p50_ns", Value::metric(p50, "ns"))
                    .with("setup_s", Value::metric(0.3, "s")),
            )
            .with(
                "info",
                Value::obj().with("fail_ratio", Value::metric(0.0, "ratio")),
            )
            .with(
                "layer",
                Value::obj()
                    .with("cxl.cache_hits_per_op", Value::metric(hits, "count"))
                    .with("core.pod.run_s", Value::metric(2.5, "s")),
            )
    }

    fn doc(entries: Vec<Value>) -> Value {
        Value::obj().with("schema", 1u64).with("workloads", entries)
    }

    fn failures(a: &Value, b: &Value, mode: Mode) -> Vec<String> {
        compare(a, b, mode)
            .unwrap()
            .into_iter()
            .filter(|r| !r.ok)
            .map(|r| format!("{}/{}", r.workload, r.metric))
            .collect()
    }

    #[test]
    fn an_identical_copy_is_not_flagged() {
        let a = doc(vec![
            entry("pod_echo", 80_000.0, 11_975.0, 3.5),
            entry("fleet_replay", 2.6e6, 240.0, 0.0),
        ]);
        // Through the writer and the reader, as real files go.
        let b = json::parse(&a.pretty()).unwrap();
        assert!(failures(&a, &b, Mode::Baseline).is_empty());
        assert!(failures(&a, &b, Mode::SameCode).is_empty());
    }

    /// ISSUE 12 asked for "worsened by 12 % is flagged", assuming 10 %
    /// bounds; the reference box's noise forced wider ones, so the test
    /// worsens each metric by two points more than its own bound instead.
    #[test]
    fn a_host_metric_worsened_past_its_bound_is_flagged() {
        let ops = spec::end_to_end("ops_per_s").unwrap().bound;
        let lat = spec::end_to_end("lat_p50_ns").unwrap().bound;
        let a = doc(vec![entry("fleet_replay", 2.6e6, 240.0, 0.0)]);
        let with = |ops_f: f64, lat_f: f64| {
            doc(vec![entry(
                "fleet_replay",
                2.6e6 * ops_f,
                240.0 * lat_f,
                0.0,
            )])
        };
        let fails = |b: &Value, mode| failures(&a, b, mode);
        // Two points past the bound: flagged, and only that metric.
        assert_eq!(
            fails(&with(1.0 - ops - 0.02, 1.0), Mode::Baseline),
            ["fleet_replay/ops_per_s"]
        );
        assert_eq!(
            fails(&with(1.0, 1.0 + lat + 0.02), Mode::Baseline),
            ["fleet_replay/lat_p50_ns"]
        );
        // Two points inside it: fine.
        assert!(fails(&with(1.0 - ops + 0.02, 1.0 + lat - 0.02), Mode::Baseline).is_empty());
        // The same distance the good way passes against a baseline, but two
        // runs of one code base may not differ that much in either direction.
        let faster = with(1.0, 1.0 - lat - 0.02);
        assert!(fails(&faster, Mode::Baseline).is_empty());
        assert_eq!(fails(&faster, Mode::SameCode), ["fleet_replay/lat_p50_ns"]);
    }

    #[test]
    fn simulated_latency_and_counters_must_match_exactly() {
        let a = doc(vec![entry("pod_echo", 80_000.0, 11_975.0, 3.5)]);
        let b = doc(vec![entry("pod_echo", 80_000.0, 11_976.0, 3.5)]);
        assert_eq!(failures(&a, &b, Mode::Baseline), ["pod_echo/lat_p50_ns"]);
        let c = doc(vec![entry("pod_echo", 80_000.0, 11_975.0, 3.500_001)]);
        assert_eq!(
            failures(&a, &c, Mode::Baseline),
            ["pod_echo/cxl.cache_hits_per_op"]
        );
        // The control-plane workload's latency is host time: bounded.
        let a = doc(vec![entry("fleet_replay", 2.6e6, 240.0, 0.0)]);
        let b = doc(vec![entry("fleet_replay", 2.6e6, 250.0, 0.0)]);
        assert!(failures(&a, &b, Mode::Baseline).is_empty());
    }

    #[test]
    fn a_traced_report_gates_only_on_its_exact_numbers() {
        let traced = |ops: f64, hits: f64| {
            let report = entry("pod_echo", ops, 11_975.0, hits).with("spans", true);
            Value::obj()
                .with("workloads", Vec::<Value>::new())
                .with("traced", vec![report])
        };
        let a = traced(80_000.0, 3.5);
        assert!(failures(&a, &traced(40_000.0, 3.5), Mode::SameCode).is_empty());
        assert_eq!(
            failures(&a, &traced(80_000.0, 3.6), Mode::SameCode),
            ["pod_echo/cxl.cache_hits_per_op"]
        );
    }

    #[test]
    fn a_missing_workload_or_metric_fails() {
        let a = doc(vec![
            entry("pod_echo", 80_000.0, 11_975.0, 3.5),
            entry("fleet_replay", 2.6e6, 240.0, 0.0),
        ]);
        let b = doc(vec![entry("pod_echo", 80_000.0, 11_975.0, 3.5)]);
        assert_eq!(
            failures(&a, &b, Mode::Baseline),
            ["fleet_replay/(workload)"]
        );
        assert!(compare(&Value::obj(), &b, Mode::Baseline).is_err());
    }
}
