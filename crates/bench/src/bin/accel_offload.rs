//! Accel offload: the generic-engine proof point, measured.
//!
//! The engine abstraction (DESIGN.md §9) claims any PCIe device class slots
//! behind the same frontend/backend split with pooling economics intact.
//! This benchmark exercises the third device class end to end: compute
//! offload jobs whose descriptors cross message channels and whose data
//! never leaves CXL pool memory.
//!
//! Two questions, mirroring the paper's NIC/SSD arguments:
//!  1. What does pooling cost? Makespan of a job batch from the host the
//!     accelerator is attached to vs a remote host reaching it over the
//!     pool — the delta is pure channel/DMA overhead.
//!  2. What does pooling buy? Aggregate throughput as more hosts share one
//!     device — stranded-per-host accelerators idle while a pooled one
//!     serves every host up to its lane parallelism.
//!
//! Usage:
//!
//! ```text
//! accel_offload              measure and write BENCH_accel.json
//! accel_offload --check      fail (exit 1) unless the measurement equals
//!                            the committed BENCH_accel.json byte for byte
//! ```

use oasis_accel::{AccelConfig, AccelOp};
use oasis_bench::metrics;
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder};
use oasis_obs::MetricSink;
use oasis_sim::report::Table;
use oasis_sim::time::SimDuration;

const JOB_BYTES: usize = 64 * 1024;
const JOBS_PER_HOST: usize = 32;

fn payload(tag: u8) -> Vec<u8> {
    (0..JOB_BYTES).map(|i| tag ^ (i as u8)).collect()
}

/// Build a pod with `consumers` instance hosts sharing one accelerator on a
/// separate device host.
fn build_pod(consumers: usize) -> (Pod, Vec<usize>) {
    let mut b = PodBuilder::new(OasisConfig::default());
    let hosts: Vec<usize> = (0..consumers).map(|_| b.add_host()).collect();
    let dev_host = b.add_nic_host();
    b.add_accel(dev_host, AccelConfig::default());
    let mut pod = b.build();
    for &h in &hosts {
        pod.launch_instance(h, AppKind::None, 1_000);
    }
    (pod, hosts)
}

/// Push `JOBS_PER_HOST` jobs from every host, resubmitting on backpressure,
/// and return the makespan: first submit to last job retired by the device.
/// The end of the span is the device's own retire timestamp
/// (`AccelStats::last_done_at`), not the polling-tick boundary the
/// completion was collected on, so the driver polling cadence never
/// quantizes the measurement.
fn run_batch(pod: &mut Pod, hosts: &[usize]) -> (SimDuration, usize) {
    let start = pod.now();
    let mut left: Vec<usize> = hosts.iter().map(|_| JOBS_PER_HOST).collect();
    let mut done = 0usize;
    let step = SimDuration::from_micros(10);
    loop {
        for (i, &h) in hosts.iter().enumerate() {
            while left[i] > 0 {
                let input = payload(h as u8 ^ left[i] as u8);
                match pod.submit_accel_job(h, AccelOp::Checksum, 0, &input) {
                    Ok(Some(_)) => left[i] -= 1,
                    Ok(None) => break, // backpressured: retry next tick
                    Err(e) => panic!("submit failed: {e}"),
                }
            }
        }
        pod.run(pod.now() + step);
        for &h in hosts {
            done += pod
                .take_accel_completions(h)
                .iter()
                .filter(|r| r.status.is_ok())
                .count();
        }
        if done == hosts.len() * JOBS_PER_HOST {
            return (
                pod.accel.backends[0].device.stats.last_done_at - start,
                done,
            );
        }
        assert!(
            pod.now() - start < SimDuration::from_millis(500),
            "batch did not drain"
        );
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("== Accel offload over the pooled engine fabric (64 KiB checksum jobs) ==\n");

    // 1. Pooling cost: a single host reaching the accelerator over the
    // pool. Every byte moves through pool memory (device DMA), so the
    // per-job figure is the full channel + DMA + compute path.
    let mut t = Table::new(vec!["placement", "jobs", "makespan", "per-job"]);
    let (mut pod, hosts) = build_pod(1);
    let (span, jobs) = run_batch(&mut pod, &hosts);
    t.row(vec![
        "1 host, pooled accel".to_string(),
        format!("{jobs}"),
        format!("{:.1} us", span.as_nanos() as f64 / 1e3),
        format!("{:.1} us", span.as_nanos() as f64 / 1e3 / jobs as f64),
    ]);
    println!("{}", t.render());

    // 2. Pooling benefit: hosts sharing one accelerator. Throughput scales
    // with sharers until the device's execution lanes saturate; a
    // per-host (stranded) deployment would need one device per row to
    // match the single pooled device's aggregate.
    let mut t = Table::new(vec![
        "sharing hosts",
        "jobs",
        "makespan",
        "aggregate GB/s",
        "device util vs 1 host",
    ]);
    // Every sweep point is exported into a metrics sink keyed by the
    // sharing-host count, and the table below is rendered from the snapshot
    // read-back — the same path `obs_report` uses.
    let mut sink = MetricSink::new();
    let sweep = [1usize, 2, 4, 8];
    for &consumers in &sweep {
        let (mut pod, hosts) = build_pod(consumers);
        let (span, jobs) = run_batch(&mut pod, &hosts);
        sink.set(metrics::ACCEL_BATCH_JOBS, consumers as u32, jobs as u64);
        sink.set(
            metrics::ACCEL_MAKESPAN_NS,
            consumers as u32,
            span.as_nanos(),
        );
    }
    let snap = sink.snapshot();
    let mut base_span: Option<f64> = None;
    let mut gbps_at: Vec<(usize, f64)> = Vec::new();
    for &consumers in &sweep {
        let jobs = snap.counter(metrics::ACCEL_BATCH_JOBS, consumers as u32);
        let span_ns = snap.counter(metrics::ACCEL_MAKESPAN_NS, consumers as u32) as f64;
        let gbps = (jobs as usize * JOB_BYTES) as f64 / (span_ns / 1e9) / 1e9;
        let span_us = span_ns / 1e3;
        let util = match base_span {
            None => {
                base_span = Some(span_us);
                1.0
            }
            // One batch took base_span; `consumers` batches through the
            // same device in span_us means the device did consumers*base
            // worth of work — utilization relative to the single-host run.
            Some(base) => consumers as f64 * base / span_us,
        };
        gbps_at.push((consumers, gbps));
        t.row(vec![
            format!("{consumers}"),
            format!("{jobs}"),
            format!("{span_us:.1} us"),
            format!("{gbps:.2}"),
            format!("{util:.2}x"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "pooling lets every host reach the device; aggregate throughput grows\n\
         until the device's internal lanes saturate, where a stranded\n\
         one-device-per-host deployment would leave each device mostly idle.\n"
    );

    // The gated metric is aggregate GB/s per sharing-host count — a pure
    // function of the deterministic simulation, so any drift is a
    // behavioral change in the engine fabric, not noise: the gate is exact.
    let mut json = String::from("{\n  \"bench\": \"accel_offload\",\n");
    for (i, &(consumers, gbps)) in gbps_at.iter().enumerate() {
        json.push_str(&format!("  \"gbps_{consumers}\": {gbps:.3}"));
        json.push_str(if i + 1 == gbps_at.len() { "\n" } else { ",\n" });
    }
    json.push_str("}\n");

    if check {
        let committed = std::fs::read_to_string("BENCH_accel.json")
            .expect("--check needs the committed BENCH_accel.json");
        let ok = committed == json;
        println!(
            "check accel aggregate GB/s equals BENCH_accel.json exactly -> {}",
            if ok { "OK" } else { "FAIL" }
        );
        if !ok {
            print!("measured:\n{json}");
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    std::fs::write("BENCH_accel.json", &json).expect("write BENCH_accel.json");
    println!("wrote BENCH_accel.json");
}
