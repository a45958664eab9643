//! One workload, one process: set up, repeat fixed work, check, report.
//!
//! Method (all workloads). Inputs are generated from `--seed` and handed to
//! the program as data. Set-up — input generation, world build and an
//! untimed warm-up repetition at a tenth of the size — is done several
//! times and its median reported as `setup_s`. Then repetitions of fixed
//! work run until the measuring budget is used (at least three); each
//! rebuilds its world outside the timed region, and every wall metric is the
//! median over repetitions. Simulated results and the snapshot digest must
//! be identical in every repetition.

use std::time::Instant;

use crate::counters;
use crate::json::Value;
use crate::spec::{Workload, END_TO_END};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::{fleet_replay, fleet_traffic, pod_devices_rw, pod_echo, Rep, Scale};

/// Set-ups per run (the median is reported).
pub const SETUPS: usize = 5;
/// Timed repetitions a run makes at least.
pub const MIN_REPS: usize = 3;
/// Repetitions a run makes at most, whatever the budget.
const MAX_REPS: usize = 40;

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget in seconds; repetitions stop once it is used.
    pub seconds: f64,
    pub scale: Scale,
    /// Record spans (the traced run). Off for end-to-end numbers.
    pub spans: bool,
    pub setups: usize,
}

enum Inputs {
    Echo(pod_echo::Inputs),
    Devices(pod_devices_rw::Inputs),
    Fleet(fleet_traffic::Inputs),
    Replay(fleet_replay::Inputs),
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, tr: &mut Tracer) -> Inputs {
        match workload {
            Workload::PodEcho => Inputs::Echo(pod_echo::generate(seed)),
            Workload::PodDevicesRw => Inputs::Devices(pod_devices_rw::generate(seed)),
            Workload::FleetTraffic | Workload::FleetTrafficT2 => {
                Inputs::Fleet(fleet_traffic::generate(seed))
            }
            Workload::FleetReplay => Inputs::Replay(fleet_replay::generate(seed, tr)),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Inputs::Echo(i) => i.digest(),
            Inputs::Devices(i) => i.digest(),
            Inputs::Fleet(i) => i.digest(),
            Inputs::Replay(i) => i.digest(),
        }
    }

    fn rep(&self, threads: usize, scale: Scale, tr: &mut Tracer) -> Result<Rep, String> {
        match self {
            Inputs::Echo(i) => pod_echo::rep(i, scale, tr),
            Inputs::Devices(i) => pod_devices_rw::rep(i, scale, tr),
            Inputs::Fleet(i) => fleet_traffic::rep(i, scale, threads, tr),
            Inputs::Replay(i) => fleet_replay::rep(i, scale, tr),
        }
    }

    /// Checks that run once per process, outside set-up and repetitions.
    fn once(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        match self {
            Inputs::Echo(i) => Ok(vec![(
                "sim_overhead_p50_ns",
                pod_echo::accuracy_anchor(i)?,
                "ns",
            )]),
            Inputs::Fleet(i) => fleet_traffic::thread_identity(i).map(|()| Vec::new()),
            _ => Ok(Vec::new()),
        }
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The span metrics of `spec::PER_LAYER`, from the tracer's totals: `_s`
/// metrics are seconds per repetition, `_ns` metrics mean ns per call.
fn span_metrics(tr: &Tracer, reps: usize) -> Vec<(&'static str, f64)> {
    let total_s = |name: &str| tr.total(name).0 as f64 / 1e9;
    let per_rep_s = |name: &str| total_s(name) / reps.max(1) as f64;
    let mean_ns = |name: &str| {
        let (ns, n) = tr.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    };
    vec![
        ("core.pod.build_s", per_rep_s("core.pod.build")),
        (
            "core.pod.run_s",
            per_rep_s("core.pod.run") + per_rep_s("core.pod.drive"),
        ),
        ("core.pod.submit_ns", mean_ns("core.pod.submit")),
        ("core.pod.drain_ns", mean_ns("core.pod.drain")),
        ("core.pod.snapshot_ns", mean_ns("core.pod.snapshot")),
        ("core.fleet.build_s", per_rep_s("core.fleet.build")),
        ("core.fleet.run_s_t1", per_rep_s("core.fleet.run_t1")),
        ("core.fleet.run_s_t2", per_rep_s("core.fleet.run_t2")),
        // Generated once per run, not once per repetition.
        ("trace.stream_gen_s", total_s("trace.stream_gen")),
        (
            "core.alloc.create_local_ns",
            mean_ns("core.alloc.create_local"),
        ),
        (
            "core.alloc.create_spill_ns",
            mean_ns("core.alloc.create_spill"),
        ),
        (
            "core.alloc.create_reject_ns",
            mean_ns("core.alloc.create_reject"),
        ),
        ("core.alloc.kill_ns", mean_ns("core.alloc.kill")),
        ("core.alloc.resize_ns", mean_ns("core.alloc.resize")),
        ("core.alloc.log_audit_s", per_rep_s("core.alloc.log_audit")),
    ]
}

/// Run the plan. `Err` is a failed output check (or an unusable
/// environment); the caller exits non-zero without printing a result.
pub fn run(plan: &Plan, started: Instant) -> Result<Value, String> {
    let threads = plan.workload.threads();

    // Set-up, several times; the first is timed from process start.
    let quiet = &mut Tracer::new(false);
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for i in 0..plan.setups.max(1) {
        let t0 = if i == 0 { started } else { Instant::now() };
        let fresh = Inputs::generate(plan.workload, plan.seed, quiet);
        // The warm-up always runs on one thread: a two-thread run's time is
        // set by how fast the machine wakes idle cores at each barrier,
        // which is what the timed repetitions measure, not set-up.
        fresh.rep(1, Scale::Tenth, quiet)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &inputs {
            let (a, b) = (prev.digest(), fresh.digest());
            if a != b {
                return Err(format!(
                    "inputs differ between set-ups: {a:016x} vs {b:016x}"
                ));
            }
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");

    // Timed repetitions of fixed work. Input generation is traced once
    // here so its span exists in the traced run.
    let mut tr = Tracer::new(plan.spans);
    if plan.spans {
        Inputs::generate(plan.workload, plan.seed, &mut tr);
    }
    let budget = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS
        || (budget.elapsed().as_secs_f64() < plan.seconds && reps.len() < MAX_REPS)
    {
        let open = tr.begin("bench.repetition");
        let rep = inputs.rep(threads, plan.scale, &mut tr)?;
        tr.end(open);
        if let Some(first) = reps.first() {
            if (first.digest, first.ops, first.latency.samples)
                != (rep.digest, rep.ops, rep.latency.samples)
                || (plan.workload.latency_is_simulated() && first.latency != rep.latency)
            {
                return Err(format!(
                    "repetition {} differs from the first: digest {:016x} vs {:016x}, ops {} vs {}",
                    reps.len(),
                    rep.digest,
                    first.digest,
                    rep.ops,
                    first.ops
                ));
            }
        }
        reps.push(rep);
    }

    // Memory is read before the once-only checks: they build worlds of
    // their own, which are not the workload's.
    let rss = peak_rss_mib()?;
    let once = inputs.once()?;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = median(&walls);
    let last = reps.last().expect("at least MIN_REPS repetitions");
    let ops_per_s = last.ops as f64 / wall;
    let p50 = median(&reps.iter().map(|r| r.latency.p50_ns).collect::<Vec<_>>());
    let p99 = median(&reps.iter().map(|r| r.latency.p99_ns).collect::<Vec<_>>());
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let samples: u64 = reps.iter().map(|r| r.latency.samples).sum();

    let mut metrics = Value::obj();
    for m in &END_TO_END {
        let value = match m.name {
            "ops_per_s" => ops_per_s,
            "lat_p50_ns" => p50,
            "lat_p99_ns" => p99,
            "peak_rss_mib" => rss,
            "setup_s" => median(&setups),
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        metrics.set(m.name, Value::metric(value, m.unit));
    }

    // Exact per-op counters ride along in every report, so two untraced
    // sets can be compared on them too. Units come from the spec table.
    let mut values = counters::per_op(last);
    values.extend(last.layer.iter().copied());
    if cfg!(feature = "trace") {
        let shards = match plan.workload {
            Workload::FleetTraffic | Workload::FleetTrafficT2 => fleet_traffic::PODS,
            _ => 1,
        };
        values.extend(counters::obs_per_op(last, shards));
    }
    if plan.spans {
        values.extend(span_metrics(&tr, reps.len()));
    }
    let mut layer = Value::obj();
    for (name, value) in values {
        let spec =
            crate::spec::per_layer(name).expect("layer metrics are named in spec::PER_LAYER");
        layer.set(name, Value::metric(value, spec.unit));
    }

    let mut info = Value::obj()
        .with(
            "fail_ratio",
            Value::metric(failed as f64 / attempted as f64, "ratio"),
        )
        .with("lat_samples", Value::metric(samples as f64, "count"))
        .with("ops_per_rep", Value::metric(last.ops as f64, "count"))
        .with("repetitions", Value::metric(reps.len() as f64, "count"))
        .with("rep_wall_s", Value::metric(wall, "s"));
    if last.sim_ns > 0 {
        info.set(
            "sim_ns_per_wall_ns",
            Value::metric(last.sim_ns as f64 / (wall * 1e9), "ratio"),
        );
    }
    for &(name, value, unit) in &once {
        info.set(name, Value::metric(value, unit));
    }

    // Quantities the cost map multiplies by the probes' unit prices.
    let sum = |name: &str| last.snapshot.counter_sum(name) as f64;
    let device_ops = sum("core.storage_fe_completed") + sum("core.accel_fe_completed");
    let raw = Value::obj()
        .with(
            "cxl_stores",
            Value::metric(
                sum("cxl.cache_store_hits") + sum("cxl.cache_store_misses"),
                "count",
            ),
        )
        .with(
            // Each packet crosses one channel in each direction of the
            // datapath; each device operation is a command and a completion.
            "channel_messages",
            Value::metric(
                sum("core.net_fe_tx_packets") + sum("core.net_fe_rx_packets") + 2.0 * device_ops,
                "count",
            ),
        )
        .with(
            "net_packets",
            Value::metric(
                sum("core.net_be_tx_posted") + sum("core.net_be_rx_forwarded"),
                "count",
            ),
        )
        .with(
            "storage_ops",
            Value::metric(sum("core.storage_fe_completed"), "count"),
        )
        .with(
            "accel_jobs",
            Value::metric(sum("core.accel_fe_completed"), "count"),
        );

    let mut report = Value::obj()
        .with("workload", plan.workload.name())
        .with("seed", plan.seed.to_string())
        .with("scale", plan.scale.label())
        .with("traced_build", cfg!(feature = "trace"))
        .with("spans", plan.spans)
        .with("threads", threads)
        .with("correct", true)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("inputs_digest", format!("{:016x}", inputs.digest()))
        .with("snapshot_digest", format!("{:016x}", last.digest))
        .with("metrics", metrics)
        .with("info", info)
        .with("raw", raw)
        .with("layer", layer);
    if plan.spans {
        report.set("trace", tr.to_json());
    }
    Ok(report)
}
