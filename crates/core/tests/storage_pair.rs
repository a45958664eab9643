//! The storage class on the two-core harness ([`StoragePod`], the storage
//! alias of `ReqPair`): one frontend host, one SSD host, one pool. Moved
//! here from the harness's unit-test module when the harness became
//! generic (ISSUE 22); the cases are unchanged.

use oasis_core::config::OasisConfig;
use oasis_core::engine_storage::StoragePod;
use oasis_sim::time::SimTime;
use oasis_storage::command::NvmeStatus;
use oasis_storage::ssd::{Ssd, SsdConfig};
use oasis_storage::BLOCK_SIZE;

fn pod() -> StoragePod {
    StoragePod::new(
        OasisConfig::default(),
        Ssd::new(SsdConfig::default()),
        8 * BLOCK_SIZE,
    )
}

#[test]
fn write_then_read_roundtrip_across_hosts() {
    let mut p = pod();
    let data: Vec<u8> = (0..BLOCK_SIZE as usize).map(|i| (i % 251) as u8).collect();
    let wcid = p
        .frontend
        .submit_write(&mut p.pool, 0, 10, &data)
        .expect("write accepted");
    let done = p.run_until_completions(1, SimTime::from_millis(50));
    assert_eq!(done[0].cid, wcid);
    assert!(done[0].status.is_ok());

    let rcid = p
        .frontend
        .submit_read(&mut p.pool, 0, 10, 1)
        .expect("read accepted");
    let done = p.run_until_completions(1, SimTime::from_millis(100));
    assert_eq!(done[0].cid, rcid);
    assert!(done[0].status.is_ok());
    assert_eq!(done[0].data.as_deref(), Some(&data[..]));
}

#[test]
fn read_latency_dominated_by_flash_not_engine() {
    // §3.4 rationale: engine overhead is single-digit us against ~100us
    // SSD latency.
    let mut p = pod();
    p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
    let t0 = p.frontend.core.clock;
    let _ = p.run_until_completions(1, SimTime::from_millis(50));
    let latency = p.frontend.core.clock - t0;
    let flash = p.backend.device.config().read_latency_ns;
    assert!(
        latency.as_nanos() < flash + 30_000,
        "engine added too much: {latency} vs flash {flash}ns"
    );
    assert!(latency.as_nanos() >= flash);
}

#[test]
fn failed_drive_propagates_error_to_guest() {
    let mut p = pod();
    p.backend.device.set_failed(true);
    p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
    let done = p.run_until_completions(1, SimTime::from_millis(50));
    assert_eq!(done[0].status, NvmeStatus::DeviceFailure);
    assert_eq!(p.frontend.stats.errors, 1);
    // After repair, I/O works again.
    p.backend.device.set_failed(false);
    p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
    let done = p.run_until_completions(1, SimTime::from_millis(100));
    assert!(done[0].status.is_ok());
}

#[test]
fn flush_and_out_of_range() {
    let mut p = pod();
    p.frontend.submit_flush(&mut p.pool, 0).unwrap();
    let done = p.run_until_completions(1, SimTime::from_millis(50));
    assert!(done[0].status.is_ok());

    let blocks = p.backend.device.config().blocks_per_ns;
    p.frontend.submit_read(&mut p.pool, 0, blocks, 1).unwrap();
    let done = p.run_until_completions(1, SimTime::from_millis(50));
    assert_eq!(done[0].status, NvmeStatus::LbaOutOfRange);
}

#[test]
fn pipelined_ios_share_flash_parallelism() {
    let mut p = pod();
    for i in 0..8 {
        p.frontend.submit_read(&mut p.pool, 0, i, 1).unwrap();
    }
    let t0 = p.frontend.core.clock;
    let done = p.run_until_completions(8, SimTime::from_millis(200));
    assert_eq!(done.len(), 8);
    let elapsed = (p.frontend.core.clock - t0).as_nanos();
    // 8 reads across 8 channels complete in ~1 flash latency, not 8.
    assert!(
        elapsed < 3 * p.backend.device.config().read_latency_ns,
        "no parallelism: {elapsed}ns"
    );
}

#[test]
fn buffer_exhaustion_refuses_cleanly() {
    let mut p = StoragePod::new(
        OasisConfig::default(),
        Ssd::new(SsdConfig::default()),
        BLOCK_SIZE, // 64 one-block buffers
    );
    let mut accepted = 0;
    for i in 0..200 {
        if p.frontend.submit_read(&mut p.pool, 0, i % 16, 1).is_some() {
            accepted += 1;
        }
    }
    assert!(accepted <= 64);
    assert!(p.frontend.stats.refused > 0);
    // Everything accepted still completes.
    let done = p.run_until_completions(accepted, SimTime::from_millis(500));
    assert_eq!(done.len(), accepted);
}
