//! The 10⁵-instance fleet replay: topology-aware placement at fleet scale.
//!
//! Replays a saturating arrival stream (≥100 000 instances) against a
//! 64-pod ring fleet through the typed control-plane command API —
//! `CreateInstance` / `ResizeInstance` / `KillInstance` flowing through the
//! replicated fleet allocator — and reports per-pod stranding plus
//! cross-pod spill traffic from one metrics snapshot. Arrivals are pinned
//! round-robin to home pods (tenant affinity), so a pod whose pooled
//! devices strand spills its chunky NIC/SSD requests to the nearest ring
//! neighbor; the spill-byte counters integrate the leased bandwidth over
//! each spilled instance's lifetime.
//!
//! Every simulated quantity in the snapshot is integer-valued and
//! deterministic: the `--json` output is byte-identical at any
//! `OASIS_SHARD_THREADS` setting (CI diffs 1 vs 8). Control-plane speed is
//! measured by the repo benchmark's `fleet_replay` workload
//! (`benchmark/run.sh --workload fleet_replay`), not here.
//!
//! Usage:
//!   fleet_replay              replay; print the fleet report; rewrite
//!                             BENCH_fleet.json (the replay shape)
//!   fleet_replay --check      verify the replay shape (≥64 pods, ≥1e5
//!                             instances, nonzero spill) and that it equals
//!                             the committed BENCH_fleet.json exactly
//!   fleet_replay --json       print only the canonical metrics-snapshot
//!                             JSON (the byte-identity surface)
//!   fleet_replay --checkpoint <file>
//!                             replay to the stream midpoint, serialize the
//!                             paused run into <file>, and exit
//!   fleet_replay --resume <file>
//!                             resume a checkpointed run and finish it; all
//!                             other flags apply to the completed run (CI
//!                             diffs the resumed --json against the
//!                             uninterrupted one byte for byte)

use oasis_cxl::topology::{FleetTopology, PodTopology, UPLINK_LATENCY};
use oasis_obs::MetricSink;
use oasis_sim::report::Table;
use oasis_sim::time::SimDuration;
use oasis_trace::{
    export_fleet_stranding, measure_fleet_stranding, metrics, AllocTrace, ArrivalStream,
    HomePolicy, ReplaySession,
};

const PODS: usize = 64;
const HOSTS_PER_POD: usize = 8;
const HOURS: u64 = 14;
const SEED: u64 = 2025;
const RESIZE_EVERY: usize = 37;

/// The value following `flag`, if present.
fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let json_only = std::env::args().any(|a| a == "--json");

    let hosts = PODS * HOSTS_PER_POD;
    let stream = ArrivalStream::generate(hosts, SimDuration::from_secs(HOURS * 3600), SEED);
    let topo = FleetTopology::ring(
        PODS,
        PodTopology::production(HOSTS_PER_POD, 0),
        UPLINK_LATENCY,
    );

    if let Some(path) = arg_value("--checkpoint") {
        let mut session = ReplaySession::new(&stream, &topo, HomePolicy::RoundRobin, RESIZE_EVERY)
            .expect("the ring fleet topology is valid");
        let epoch = stream.duration.as_nanos() / 2;
        session
            .run_to_epoch(epoch)
            .expect("the first half of the stream replays");
        std::fs::write(&path, session.checkpoint()).expect("write checkpoint file");
        println!("checkpointed at epoch {epoch} ns -> {path}");
        return;
    }

    let replay = match arg_value("--resume") {
        Some(path) => {
            let bytes = std::fs::read(&path).expect("read checkpoint file");
            ReplaySession::resume(&stream, &topo, HomePolicy::RoundRobin, RESIZE_EVERY, &bytes)
                .expect("checkpoint matches this workload")
                .finish()
                .expect("the second half of the stream replays")
        }
        None => AllocTrace::replay_fleet(&stream, &topo, HomePolicy::RoundRobin, RESIZE_EVERY)
            .expect("the ring fleet topology is valid"),
    };

    let report = replay.state.report();
    let stranding = measure_fleet_stranding(&replay);
    // One snapshot carries both halves: the allocator's fleet counters
    // (placements, spill traffic by home pod) and the per-pod stranding
    // integrals (by device pod).
    let mut sink = MetricSink::new();
    replay.state.export_metrics(&mut sink);
    export_fleet_stranding(&stranding, &mut sink);
    let snap = sink.snapshot();

    if json_only {
        print!("{}", snap.to_json());
        return;
    }

    // Control-plane commands the replay actually logged.
    let commands = PODS as u64
        + topo.links.len() as u64
        + report.placed
        + report.rejected
        + report.killed
        + replay.state.resizes;

    println!("== fleet_replay: {PODS} pods x {HOSTS_PER_POD} hosts, ring uplinks ==\n");
    let mut t = Table::new(vec!["quantity", "value"]);
    t.row(vec!["arrivals".into(), stream.arrivals.len().to_string()]);
    t.row(vec!["placed".into(), report.placed.to_string()]);
    t.row(vec!["rejected".into(), report.rejected.to_string()]);
    t.row(vec!["resizes".into(), replay.state.resizes.to_string()]);
    t.row(vec![
        "spill placements".into(),
        report.spill_placements.to_string(),
    ]);
    t.row(vec![
        "cross-pod spill bytes".into(),
        report.spill_bytes.to_string(),
    ]);
    let nic_ppb: Vec<u64> = stranding.iter().map(|p| p.nic_stranded_ppb).collect();
    let mean = |v: &[u64]| v.iter().sum::<u64>() / v.len().max(1) as u64;
    t.row(vec![
        "mean pod NIC stranded".into(),
        format!("{:.1}%", mean(&nic_ppb) as f64 / 1e7),
    ]);
    let ssd_ppb: Vec<u64> = stranding.iter().map(|p| p.ssd_stranded_ppb).collect();
    t.row(vec![
        "mean pod SSD stranded".into(),
        format!("{:.1}%", mean(&ssd_ppb) as f64 / 1e7),
    ]);
    t.row(vec!["control-plane commands".into(), commands.to_string()]);
    println!("{}", t.render());

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fleet_replay\",\n");
    json.push_str(&format!("  \"pods\": {PODS},\n"));
    json.push_str(&format!("  \"hosts_per_pod\": {HOSTS_PER_POD},\n"));
    json.push_str(&format!("  \"arrivals\": {},\n", stream.arrivals.len()));
    json.push_str(&format!("  \"placed\": {},\n", report.placed));
    json.push_str(&format!("  \"rejected\": {},\n", report.rejected));
    json.push_str(&format!(
        "  \"spill_placements\": {},\n",
        report.spill_placements
    ));
    json.push_str(&format!("  \"spill_bytes\": {},\n", report.spill_bytes));
    json.push_str(&format!("  \"commands\": {commands}\n"));
    json.push_str("}\n");

    if check {
        // Shape invariants from the issue before any perf comparison.
        let mut ok = true;
        let mut shape = |what: &str, pass: bool| {
            println!("check {what} -> {}", if pass { "OK" } else { "FAIL" });
            ok &= pass;
        };
        shape("fleet spans >= 64 pods", report.pods.len() >= 64);
        shape(
            "replay covers >= 1e5 instances",
            stream.arrivals.len() >= 100_000,
        );
        shape("cross-pod spill traffic observed", report.spill_bytes > 0);
        shape(
            "per-pod stranding exported for every pod",
            stranding.len() == PODS
                && (0..PODS).all(|p| {
                    snap.counter_tags(metrics::STRANDING_POD_NIC_PPB)
                        .iter()
                        .any(|&(tag, _)| tag as usize == p)
                }),
        );
        let committed = std::fs::read_to_string("BENCH_fleet.json")
            .expect("--check needs the committed BENCH_fleet.json");
        shape(
            "replay shape equals BENCH_fleet.json exactly",
            committed == json,
        );
        std::process::exit(if ok { 0 } else { 1 });
    }

    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}
