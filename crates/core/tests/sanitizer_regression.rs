//! Coherence-sanitizer regression harness for the DMA-buffer stale-read
//! bug: the storage frontend once returned read buffers to the free list
//! without invalidating their cache lines, so the *next* read that reused
//! the buffer could copy stale cached bytes instead of the data the SSD
//! just DMA'd into the pool. The fix flushes the lines in `release_buf`;
//! these tests prove the sanitizer re-detects the bug when that flush is
//! reverted, and stays silent when it is in place.

use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::PodBuilder;
use oasis_cxl::ReportKind;
use oasis_sim::time::SimTime;
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

fn block(tag: u8) -> Vec<u8> {
    (0..BLOCK_SIZE as usize).map(|i| tag ^ (i as u8)).collect()
}

/// Two reads of changing data through the same frontend, with the release
/// flush intact: no coherence errors.
#[test]
fn fixed_release_path_reports_no_stale_read() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.sanitize().build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 8).expect("capacity available");

    for round in 0..2u8 {
        let data = block(0x10 + round);
        pod.volume_write(vol, 0, &data).expect("write accepted");
        pod.run(SimTime::from_millis(2 * (round as u64 * 2 + 1)));
        pod.take_storage_completions(h0);
        pod.volume_read(vol, 0, 1).expect("read accepted");
        pod.run(SimTime::from_millis(2 * (round as u64 * 2 + 2)));
        let done = pod.take_storage_completions(h0);
        assert_eq!(done[0].data.as_deref(), Some(&data[..]));
    }
    let san = pod.pool.sanitizer().expect("sanitized");
    assert_eq!(san.count_of(ReportKind::StaleRead), 0, "{}", san.summary());
}

/// Reverting the release-time invalidation reintroduces the bug — and the
/// sanitizer reports it as a stale read at the frontend's acquire point,
/// naming the host, the buffer address (with its region), and the time.
#[test]
fn reverted_release_flush_redetects_stale_read() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    let mut pod = b.sanitize().build();
    let inst = pod.launch_instance(h0, AppKind::None, 1_000);
    let vol = pod.create_volume(inst, 8).expect("capacity available");

    // Revert the fix on h0's storage frontend.
    pod.storage.frontends[h0]
        .as_mut()
        .expect("oasis host has a storage frontend")
        .set_skip_release_invalidate(true);

    // Step 1: write A to block 0 and read it back (correct).
    let a = block(0xA0);
    pod.volume_write(vol, 0, &a).expect("write accepted");
    pod.run(SimTime::from_millis(2));
    pod.take_storage_completions(h0);
    pod.volume_read(vol, 0, 1).expect("read accepted");
    pod.run(SimTime::from_millis(4));
    assert_eq!(
        pod.take_storage_completions(h0)[0].data.as_deref(),
        Some(&a[..])
    );

    // Step 2: write B to a *different* block. LIFO reuse stages B through
    // the very buffer the read just released, leaving B's bytes cached
    // clean on h0 (the un-fixed release skipped the invalidation).
    let bdata = block(0xB5);
    pod.volume_write(vol, 1, &bdata).expect("write accepted");
    pod.run(SimTime::from_millis(6));
    pod.take_storage_completions(h0);

    // Step 3: read block 0 again. The SSD DMAs A into the reused pool
    // buffer, but h0's cached lines from step 2 mask the DMA'd bytes.
    pod.volume_read(vol, 0, 1).expect("read accepted");
    pod.run(SimTime::from_millis(8));
    let done = pod.take_storage_completions(h0);

    // The bug is real: the caller observed step-2 staging bytes, not A.
    assert_eq!(
        done[0].data.as_deref(),
        Some(&bdata[..]),
        "without the release flush the read returns stale cached bytes"
    );

    // ...and the sanitizer caught it, with enough context to localize.
    let san = pod.pool.sanitizer().expect("sanitized");
    assert!(
        san.count_of(ReportKind::StaleRead) > 0,
        "sanitizer must re-detect the stale read: {}",
        san.summary()
    );
    let r = san
        .reports()
        .iter()
        .find(|r| r.kind == ReportKind::StaleRead)
        .expect("a stale-read report is stored");
    assert_eq!(r.port.0, h0, "report names the reading host");
    assert!(r.region.is_some(), "report names the buffer region");
    assert!(r.time > SimTime::ZERO, "report carries the sim-time");
}
