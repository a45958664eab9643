//! Orchestration: which processes run, what is merged, what is printed.
//!
//! An untraced run of a workload is one `worker::run` and yields the
//! end-to-end metrics. A traced run is three short worker processes at a
//! third of the size — default build, traced (`obs`) build with spans off,
//! traced build with spans on — plus the layer probes in this process; their
//! differences are the benchmark's own overheads and their union the
//! per-layer metrics.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Value};
use crate::probes;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::worker::{self, Plan, SETUPS};
use crate::workloads::Scale;

/// Where result and span files go, relative to the repo root the benchmark
/// is started from.
pub const OUT_DIR: &str = "benchmark/out";
/// Set by `run.sh` to the binary built with the `trace` feature.
pub const TRACED_BIN_ENV: &str = "OASIS_BENCH_TRACED_BIN";

fn value_in(report: &Value, section: &str, name: &str) -> Option<f64> {
    report
        .get(section)?
        .get(name)?
        .get("value")
        .and_then(Value::as_f64)
}

/// Run a worker in a child process and parse the report it prints last.
fn spawn_worker(bin: &Path, args: &[String]) -> Result<Value, String> {
    let out = Command::new(bin)
        .arg("worker")
        .args(args)
        .output()
        .map_err(|e| format!("start {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} worker {} failed ({}): {}",
            bin.display(),
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("worker printed nothing")?;
    json::parse(last).map_err(|e| format!("worker report: {e}"))
}

fn worker_args(
    w: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans: bool,
    setups: usize,
) -> Vec<String> {
    [
        ("--workload", w.name().to_string()),
        ("--seed", seed.to_string()),
        ("--seconds", seconds.to_string()),
        ("--scale", scale.label().to_string()),
        ("--spans", (spans as u8).to_string()),
        ("--setups", setups.to_string()),
    ]
    .into_iter()
    .flat_map(|(k, v)| [k.to_string(), v])
    .collect()
}

/// The end-to-end run of one workload, in this process.
pub fn untraced(w: Workload, seed: u64, seconds: f64, started: Instant) -> Result<Value, String> {
    worker::run(
        &Plan {
            workload: w,
            seed,
            seconds,
            scale: Scale::Full,
            spans: false,
            setups: SETUPS,
        },
        started,
    )
}

/// The end-to-end run of one workload in a process of its own.
pub fn untraced_child(w: Workload, seed: u64, seconds: f64) -> Result<Value, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    spawn_worker(
        &me,
        &worker_args(w, seed, seconds, Scale::Full, false, SETUPS),
    )
}

/// The estimated cost map: quantities from the counters times unit prices
/// from the probes, as shares of the timed region. An estimate — probes run
/// a layer alone with warm caches, and channel operations are themselves
/// made of cache-model operations — until spans exist inside the program.
fn attribution(traced: &Value, layer: &dyn Fn(&str) -> f64) -> Vec<(&'static str, f64)> {
    let ops = value_in(traced, "info", "ops_per_rep").unwrap_or(0.0);
    let raw = |name: &str| value_in(traced, "raw", name).unwrap_or(0.0);
    let run_ns = 1e9
        * (layer("core.pod.run_s") + layer("core.fleet.run_s_t1") + layer("core.fleet.run_s_t2"));
    let window_ns = if layer("core.fleet.run_s_t2") > 0.0 {
        layer("sim.shard.window_ns_t2")
    } else {
        layer("sim.shard.window_ns_t1")
    };
    let sim = ops * layer("sim.sched.dispatches_per_op") * layer("sim.sched.dispatch_ns")
        + layer("sim.shard.windows") * window_ns;
    let kib = ops * layer("cxl.payload_bytes_per_op") / 1024.0;
    let cxl = ops
        * (layer("cxl.cache_hits_per_op") * layer("cxl.host.read_hit_ns")
            + layer("cxl.cache_misses_per_op") * layer("cxl.host.read_miss_ns")
            + layer("cxl.flushes_per_op") * layer("cxl.host.clflushopt_ns")
            + layer("cxl.prefetches_per_op") * layer("cxl.host.prefetch_ns")
            + layer("cxl.fences_per_op") * layer("cxl.host.mfence_ns"))
        + raw("cxl_stores") * layer("cxl.host.write_ns")
        + kib
            * 0.5
            * (layer("cxl.pool.dma_read_ns_per_kib") + layer("cxl.pool.dma_write_ns_per_kib"));
    let channel = raw("channel_messages") * layer("channel.msg_ns");
    let net = raw("net_packets")
        * (layer("net.packet.encode_ns")
            + layer("net.packet.decode_ns")
            + layer("net.switch.forward_ns"));
    let storage = raw("storage_ops") * layer("storage.ssd.cmd_ns");
    let accel = raw("accel_jobs") * layer("accel.device.job_ns");
    // No simulated timeline ran (the control-plane workload): nothing to
    // apportion, everything is unexplained.
    let shares =
        [sim, cxl, channel, net, storage, accel]
            .map(|ns| if run_ns == 0.0 { 0.0 } else { ns / run_ns });
    vec![
        ("attrib.sim.share", shares[0]),
        ("attrib.cxl.share", shares[1]),
        ("attrib.channel.share", shares[2]),
        ("attrib.net.share", shares[3]),
        ("attrib.storage.share", shares[4]),
        ("attrib.accel.share", shares[5]),
        ("attrib.unexplained.share", 1.0 - shares.iter().sum::<f64>()),
    ]
}

/// The traced run of one workload. Returns a report whose `layer` section
/// holds every metric of `spec::PER_LAYER`.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Value, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traced_bin = std::env::var_os(TRACED_BIN_ENV)
        .map(PathBuf::from)
        .ok_or(format!(
            "{TRACED_BIN_ENV} is not set: start the benchmark through benchmark/run.sh, \
         which builds the traced binary"
        ))?;
    let each = seconds / 3.0;
    let args = |spans| worker_args(w, seed, each, Scale::Third, spans, 1);
    let plain = spawn_worker(&me, &args(false))?;
    let obs = spawn_worker(&traced_bin, &args(false))?;
    let mut full = spawn_worker(&traced_bin, &args(true))?;
    for r in [&obs, &full] {
        if r.get("inputs_digest") != plain.get("inputs_digest") {
            return Err("traced and untraced runs generated different inputs".into());
        }
    }
    if obs.get("snapshot_digest") != full.get("snapshot_digest") {
        return Err("recording spans changed the program's snapshot".into());
    }

    let probes = probes::run_all()?;
    let ops = |r: &Value| value_in(r, "metrics", "ops_per_s").unwrap_or(f64::NAN);
    let overhead_pct = |base: f64, with: f64| (base / with - 1.0) * 100.0;

    // What the traced worker measured, then what the probes measured.
    let mut known: Vec<(String, f64)> = full
        .get("layer")
        .map(Value::fields)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, e)| Some((name.clone(), e.get("value")?.as_f64()?)))
        .collect();
    known.extend(probes.iter().map(|&(n, v)| (n.to_string(), v)));
    let lookup = |name: &str| {
        known
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut derived = attribution(&full, &lookup);
    derived.push((
        "bench.trace_overhead_pct",
        overhead_pct(ops(&obs), ops(&full)),
    ));
    derived.push((
        "bench.obs_overhead_pct",
        overhead_pct(ops(&plain), ops(&obs)),
    ));
    let mut layer = Value::obj();
    for l in PER_LAYER {
        let v = derived
            .iter()
            .find(|(n, _)| *n == l.name)
            .map(|&(_, v)| v)
            // A layer this workload never enters did no work there.
            .unwrap_or_else(|| lookup(l.name));
        layer.set(l.name, Value::metric(v, l.unit));
    }

    // The span file, then a report without the bulky span list.
    if let Some(trace) = full.get("trace") {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", w.name());
        std::fs::write(&path, trace.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Value::Obj(fields) = &mut full {
        fields.retain(|(k, _)| k != "trace" && k != "layer");
    }
    full.set("layer", layer);
    Ok(full)
}

/// Print one `workload metric value unit` line per metric of a report.
pub fn print_report(report: &Value, traced: bool) {
    let name = report
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("?");
    let samples = value_in(report, "info", "lat_samples").unwrap_or(0.0);
    let line = |metric: &str, entry: &Value, note: String| {
        let v = entry
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{name} {metric} {v} {unit}{note}");
    };
    if !traced {
        for m in &END_TO_END {
            if let Some(e) = report.get("metrics").and_then(|s| s.get(m.name)) {
                let note = if m.name.starts_with("lat_") {
                    format!(" (samples {samples})")
                } else {
                    String::new()
                };
                line(m.name, e, note);
            }
        }
        for (metric, e) in report.get("info").map(Value::fields).unwrap_or(&[]) {
            line(metric, e, String::new());
        }
    } else {
        for (metric, e) in report.get("layer").map(Value::fields).unwrap_or(&[]) {
            line(metric, e, String::new());
        }
    }
}

/// The last line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_line(report: &Value, traced: bool) -> String {
    let section = if traced { "layer" } else { "metrics" };
    Value::obj()
        .with(
            "correct",
            report
                .get("correct")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        )
        .with(
            "attempted",
            report.get("attempted").cloned().unwrap_or(Value::Null),
        )
        .with(
            "failed",
            report.get("failed").cloned().unwrap_or(Value::Null),
        )
        .with(
            "metrics",
            report.get(section).cloned().unwrap_or_else(Value::obj),
        )
        .encode()
}

/// Every workload, each in a process of its own; results to `path`.
pub fn full_set(seed: u64, seconds: f64, with_trace: bool, path: &str) -> Result<Value, String> {
    let (mut reports, mut traced_reports) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        eprintln!("[benchmark] {} ...", w.name());
        let report = untraced_child(w, seed, seconds)?;
        print_report(&report, false);
        reports.push(report);
        if with_trace {
            let report = traced(w, seed, seconds)?;
            print_report(&report, true);
            traced_reports.push(report);
        }
    }
    let doc = Value::obj()
        .with("schema", 1u64)
        .with("seed", seed.to_string())
        .with(
            "host_threads",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("workloads", reports)
        .with("traced", traced_reports);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("[benchmark] wrote {path}");
    Ok(doc)
}
