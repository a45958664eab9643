//! Storage-engine evaluation (beyond the paper).
//!
//! The paper designs the storage engine (§3.4) but implements and
//! evaluates only the network engine. This experiment characterizes our
//! full implementation: block I/O latency and throughput to a *remote*
//! SSD through the Oasis datapath, versus the drive's raw service time —
//! showing the same story as the network results: the engine adds
//! single-digit µs against ~100 µs device latency, and the 64 B
//! NVMe-mirroring channel is never the bottleneck.

use oasis_core::config::OasisConfig;
use oasis_core::engine_storage::StoragePod;
use oasis_sim::report::Table;
use oasis_sim::time::SimTime;
use oasis_storage::ssd::{Ssd, SsdConfig};
use oasis_storage::BLOCK_SIZE;

/// Measure mean latency and IOPS for reads of `nlb` blocks at queue depth
/// `qd`.
fn measure_with(cfg: SsdConfig, nlb: u32, qd: usize, ios: usize) -> (f64, f64) {
    let mut pod = StoragePod::new(OasisConfig::default(), Ssd::new(cfg), 64 * BLOCK_SIZE);
    let start = pod.frontend.core.clock;
    let mut submitted = 0usize;
    let mut done = 0usize;
    let mut lat_sum = 0f64;
    let mut submit_time = std::collections::VecDeque::new();
    while done < ios {
        while submitted - done < qd && submitted < ios {
            let lba = (submitted as u64 * nlb as u64) % 2048;
            if pod
                .frontend
                .submit_read(&mut pod.pool, 0, lba, nlb)
                .is_some()
            {
                submit_time.push_back(pod.frontend.core.clock);
                submitted += 1;
            } else {
                break;
            }
        }
        let got = pod.run_until_completions(1, SimTime::from_secs(10));
        for _ in got {
            let t0: SimTime = submit_time.pop_front().unwrap();
            lat_sum += (pod.frontend.core.clock - t0).as_micros_f64();
            done += 1;
        }
    }
    let elapsed = (pod.frontend.core.clock - start).as_secs_f64();
    (lat_sum / ios as f64, ios as f64 / elapsed)
}

fn measure(nlb: u32, qd: usize, ios: usize) -> (f64, f64) {
    measure_with(SsdConfig::default(), nlb, qd, ios)
}

fn main() {
    println!("== Storage engine: remote SSD over the Oasis datapath ==\n");
    let flash_us = SsdConfig::default().read_latency_ns as f64 / 1e3;
    println!("raw flash read latency: {flash_us:.0} us; paper Table 1 target: 0.5 MOp/s, 5 GB/s\n");

    let mut t = Table::new(vec![
        "I/O size",
        "QD",
        "mean latency (us)",
        "engine overhead (us)",
        "IOPS (k)",
        "bandwidth (GB/s)",
    ]);
    for (nlb, qd) in [(1u32, 1usize), (1, 8), (1, 32), (8, 8), (16, 8)] {
        let ios = if qd == 1 { 200 } else { 600 };
        let (lat, iops) = measure(nlb, qd, ios);
        let svc = flash_us + (nlb as f64 * BLOCK_SIZE as f64) / 5e9 * 1e6;
        t.row(vec![
            format!("{} KiB", nlb as u64 * BLOCK_SIZE / 1024),
            format!("{qd}"),
            format!("{lat:.1}"),
            format!("{:.1}", (lat - svc).max(0.0)),
            format!("{:.1}", iops / 1e3),
            format!("{:.2}", iops * nlb as f64 * BLOCK_SIZE as f64 / 1e9),
        ]);
    }
    println!("{}", t.render());
    println!(
        "At QD1 the engine adds single-digit us over the drive's service time\n\
         (channel + staging copies, the same 4-7us band as the network engine);\n\
         queue depth saturates the default drive's 8-way internal parallelism\n\
         (8/85us = 94k IOPS). QD32 > channel count queues inside the drive.\n"
    );

    // Is the 64B channel ever the bottleneck? Give the drive Table-1-class
    // parallelism and push queue depth.
    let fast = SsdConfig {
        channels: 48,
        ..Default::default()
    };
    let (lat, iops) = measure_with(fast, 1, 48, 3000);
    println!(
        "Table-1-class drive (48-way parallel): {:.0}k IOPS at {:.0} us mean\n\
         (target 500k: the engine and its 64B channel sustain it; the drive's\n\
         flash latency is the limit, not Oasis).",
        iops / 1e3,
        lat
    );
}
