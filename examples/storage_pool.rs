//! Storage pooling: block I/O to a remote SSD over CXL (§3.4).
//!
//! The storage engine mirrors the network engine: the frontend driver on
//! host 0 exposes a block-device interface; 64 B NVMe-mirroring messages
//! cross a non-coherent CXL channel to the backend on host 1, which
//! operates the SSD's queues; data moves through pool buffers the SSD DMAs
//! directly. Drive failures propagate to the guest as I/O errors — no
//! transparent failover for stateful devices.
//!
//! Run with: `cargo run --release --example storage_pool`

use oasis::core::config::OasisConfig;
use oasis::core::engine_storage::StoragePod;
use oasis::sim::time::SimTime;
use oasis::storage::ssd::{Ssd, SsdConfig};
use oasis::storage::BLOCK_SIZE;

fn main() {
    let ssd = Ssd::new(SsdConfig::default());
    let mut pod = StoragePod::new(OasisConfig::default(), ssd, 8 * BLOCK_SIZE);

    // Write a block to the remote SSD.
    let data: Vec<u8> = (0..BLOCK_SIZE as usize).map(|i| (i % 251) as u8).collect();
    pod.frontend
        .submit_write(&mut pod.pool, 0, 42, &data)
        .expect("write accepted");
    let done = pod.run_until_completions(1, SimTime::from_millis(50));
    println!("write lba=42: {:?}", done[0].status);

    // Read it back across the host boundary.
    let t0 = pod.frontend.core.clock;
    pod.frontend
        .submit_read(&mut pod.pool, 0, 42, 1)
        .expect("read accepted");
    let done = pod.run_until_completions(1, SimTime::from_millis(100));
    let latency = pod.frontend.core.clock - t0;
    assert_eq!(done[0].data.as_deref(), Some(&data[..]));
    println!(
        "read  lba=42: {:?}, data verified, latency {:.1} us (flash {:.1} us + engine)",
        done[0].status,
        latency.as_micros_f64(),
        pod.backend.device.config().read_latency_ns as f64 / 1e3,
    );

    // Pipelined reads exploit the drive's internal parallelism.
    let t0 = pod.frontend.core.clock;
    for lba in 0..8 {
        pod.frontend.submit_read(&mut pod.pool, 0, lba, 1).unwrap();
    }
    let done = pod.run_until_completions(8, SimTime::from_millis(200));
    println!(
        "8 pipelined reads completed in {:.1} us ({} ok)",
        (pod.frontend.core.clock - t0).as_micros_f64(),
        done.iter().filter(|r| r.status.is_ok()).count(),
    );

    // Fail the drive: errors propagate to the guest (§3.4 semantics).
    pod.backend.device.set_failed(true);
    pod.frontend.submit_read(&mut pod.pool, 0, 0, 1).unwrap();
    let done = pod.run_until_completions(1, SimTime::from_millis(300));
    println!(
        "after drive failure: {:?} (propagated to guest)",
        done[0].status
    );
    assert!(!done[0].status.is_ok());
}
