//! Unit tests for the coherence sanitizer: one per detector class, plus
//! good-path checks that the declared protocols report nothing.

use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator, ReportKind, Sanitizer, Severity};
use oasis_sim::time::SimTime;

const ADDR: u64 = 0;

fn setup() -> (CxlPool, HostCtx, HostCtx) {
    let mut pool = CxlPool::new(1 << 16, 2).sanitized();
    let mut ra = RegionAllocator::new(&pool);
    ra.alloc(&mut pool, "mailbox", 4096, TrafficClass::Payload);
    let h0 = HostCtx::with_cache(PortId(0), 0, 4096, oasis_cxl::CostModel::default());
    let h1 = HostCtx::with_cache(PortId(1), 0, 4096, oasis_cxl::CostModel::default());
    (pool, h0, h1)
}

fn san(pool: &CxlPool) -> &Sanitizer {
    pool.sanitizer().expect("the pool is sanitized")
}

/// Write + clwb + mfence + drain: the canonical publish sequence.
fn publish_line(pool: &mut CxlPool, host: &mut HostCtx, addr: u64, val: u8) {
    host.write(pool, addr, &[val; 64]);
    host.clwb(pool, addr);
    host.mfence(pool);
    pool.apply_pending(host.clock);
}

#[test]
fn stale_read_detected_with_context() {
    let (mut pool, mut h0, mut h1) = setup();
    publish_line(&mut pool, &mut h0, ADDR, 1);

    // h1 caches version 1.
    let mut out = [0u8; 64];
    h1.read(&mut pool, ADDR, &mut out);

    // h0 publishes version 2; h1 declares a fresh read without
    // invalidating its cached copy.
    publish_line(&mut pool, &mut h0, ADDR, 2);
    h1.expect_fresh(&mut pool, ADDR, 64);

    assert_eq!(san(&pool).count_of(ReportKind::StaleRead), 1);
    let r = &san(&pool).reports()[0];
    assert_eq!(r.kind, ReportKind::StaleRead);
    assert_eq!(r.severity, Severity::Error);
    assert_eq!(r.port, PortId(1), "report names the reading host");
    assert_eq!(r.addr, ADDR, "report names the pool address");
    assert_eq!(
        r.region.as_deref(),
        Some("mailbox"),
        "report names the region"
    );
    assert_eq!(r.time, h1.clock, "report carries the host's sim-time");

    // Invalidate + refill: the same acquire point is now clean.
    h1.clflushopt(&mut pool, ADDR);
    h1.mfence(&mut pool);
    h1.read(&mut pool, ADDR, &mut out);
    h1.expect_fresh(&mut pool, ADDR, 64);
    assert_eq!(
        san(&pool).count_of(ReportKind::StaleRead),
        1,
        "no new report"
    );
}

#[test]
fn missing_fence_before_doorbell_detected() {
    let (mut pool, mut h0, _h1) = setup();
    h0.write(&mut pool, ADDR, &[7u8; 64]);
    h0.clwb(&mut pool, ADDR);
    // Doorbell rung with the flush not yet fenced: the doorbell write-back
    // can overtake the payload's.
    h0.publish_fenced(&mut pool, ADDR, 64);
    assert_eq!(san(&pool).count_of(ReportKind::MissingFence), 1);
    assert_eq!(san(&pool).reports()[0].port, PortId(0));

    // With the fence in place the same doorbell is clean.
    h0.mfence(&mut pool);
    h0.publish_fenced(&mut pool, ADDR, 64);
    assert_eq!(san(&pool).count_of(ReportKind::MissingFence), 1);
}

#[test]
fn unflushed_publish_detected() {
    let (mut pool, mut h0, _h1) = setup();
    h0.write(&mut pool, ADDR, &[3u8; 64]);
    // Published while still dirty: no reader or device can see the bytes.
    h0.publish(&mut pool, ADDR, 64);
    assert_eq!(san(&pool).count_of(ReportKind::UnflushedPublish), 1);
    assert_eq!(san(&pool).error_count(), 1);

    h0.clwb(&mut pool, ADDR);
    h0.publish(&mut pool, ADDR, 64);
    assert_eq!(
        san(&pool).count_of(ReportKind::UnflushedPublish),
        1,
        "flushed publish is clean"
    );
}

#[test]
fn torn_read_of_inflight_writeback_detected() {
    let (mut pool, mut h0, mut h1) = setup();
    h0.write(&mut pool, ADDR, &[9u8; 64]);
    h0.clwb(&mut pool, ADDR);
    // No fence, no apply: the write-back is still in flight when h1 (clock
    // 0, line not cached) declares a fresh read — the fetched bytes are
    // about to change underneath it.
    h1.expect_fresh(&mut pool, ADDR, 64);
    assert_eq!(san(&pool).count_of(ReportKind::TornRead), 1);
    assert_eq!(san(&pool).reports()[0].port, PortId(1));
}

#[test]
fn torn_dma_read_detected() {
    let (mut pool, mut h0, _h1) = setup();
    h0.write(&mut pool, ADDR, &[4u8; 64]);
    h0.clwb(&mut pool, ADDR);
    // Device DMA-reads the line before the CPU write-back lands.
    let mut buf = [0u8; 64];
    pool.dma_read(SimTime::ZERO, PortId(1), ADDR, &mut buf);
    assert_eq!(san(&pool).count_of(ReportKind::TornDmaRead), 1);

    // After visibility, the same DMA read is clean.
    pool.dma_read(SimTime::MAX, PortId(1), ADDR, &mut buf);
    assert_eq!(san(&pool).count_of(ReportKind::TornDmaRead), 1);
    assert_eq!(buf, [4u8; 64]);
}

#[test]
fn double_flush_is_a_warning() {
    let (mut pool, mut h0, _h1) = setup();
    h0.write(&mut pool, ADDR, &[1u8; 64]);
    h0.clwb(&mut pool, ADDR);
    // Second clwb of the already-clean line with no access in between.
    h0.clwb(&mut pool, ADDR);
    assert_eq!(san(&pool).count_of(ReportKind::DoubleFlush), 1);
    assert_eq!(san(&pool).warning_count(), 1);
    assert_eq!(
        san(&pool).error_count(),
        0,
        "wasted work is not a coherence error"
    );
    assert_eq!(san(&pool).reports()[0].severity, Severity::Warning);
}

#[test]
fn noop_fence_is_a_warning() {
    let (mut pool, mut h0, _h1) = setup();
    // Fence with nothing to order.
    h0.mfence(&mut pool);
    assert_eq!(san(&pool).count_of(ReportKind::NoopFence), 1);
    assert_eq!(san(&pool).warning_count(), 1);

    // A fence that actually covers a flush is not flagged.
    h0.write(&mut pool, ADDR, &[2u8; 64]);
    h0.clwb(&mut pool, ADDR);
    h0.mfence(&mut pool);
    assert_eq!(san(&pool).count_of(ReportKind::NoopFence), 1);
}

#[test]
fn clean_publish_consume_protocol_reports_nothing() {
    let (mut pool, mut h0, mut h1) = setup();
    // Producer: write, flush, fence, doorbell.
    publish_line(&mut pool, &mut h0, ADDR, 0xAA);
    h0.publish(&mut pool, ADDR, 64);
    h0.publish_fenced(&mut pool, ADDR, 64);
    // Consumer: invalidate, fence, fresh read.
    h1.clflushopt(&mut pool, ADDR);
    h1.mfence(&mut pool);
    let mut out = [0u8; 64];
    h1.read(&mut pool, ADDR, &mut out);
    h1.expect_fresh(&mut pool, ADDR, 64);
    assert_eq!(out, [0xAA; 64]);
    assert_eq!(san(&pool).error_count(), 0, "{}", san(&pool).summary());
    assert_eq!(san(&pool).warning_count(), 0, "{}", san(&pool).summary());
}

#[test]
fn host_reset_invalidates_shadow_snapshots() {
    let (mut pool, mut h0, mut h1) = setup();
    publish_line(&mut pool, &mut h0, ADDR, 1);
    let mut out = [0u8; 64];
    h1.read(&mut pool, ADDR, &mut out);

    // h1 crashes: cache dropped, shadow generation bumped.
    h1.cache.drain();
    pool.san_host_reset(PortId(1));

    // h0 publishes a newer version; the restarted h1 refills and reads
    // fresh — the pre-crash snapshot must not produce a false stale-read.
    publish_line(&mut pool, &mut h0, ADDR, 2);
    h1.read(&mut pool, ADDR, &mut out);
    h1.expect_fresh(&mut pool, ADDR, 64);
    assert_eq!(out, [2u8; 64]);
    assert_eq!(san(&pool).error_count(), 0, "{}", san(&pool).summary());
}

/// A staged payload: `BUF_LINES` lines at `ADDR`, all dirty except one
/// clean line in the middle, flushed either with the range ops or with the
/// per-line walk they replace. Returns the pool after the same driver
/// mistakes were made on top of it.
fn flush_mistakes(ranged: bool) -> CxlPool {
    const BUF_LINES: u64 = 8;
    const BUF: u64 = BUF_LINES * 64;
    let (mut pool, mut h0, _h1) = setup();
    let clwb_buf = |pool: &mut CxlPool, h: &mut HostCtx| {
        if ranged {
            h.clwb_range(pool, ADDR, BUF);
        } else {
            for la in oasis_cxl::lines_covering(ADDR, BUF) {
                h.clwb(pool, la);
            }
        }
    };
    let mut line = [0u8; 64];
    h0.read(&mut pool, ADDR + 3 * 64, &mut line); // present, clean
    for l in (0..BUF_LINES).filter(|&l| l != 3) {
        h0.write(&mut pool, ADDR + l * 64, &[l as u8 + 1; 64]);
    }
    clwb_buf(&mut pool, &mut h0);
    // Mistake 1: the device reads the buffer while the run is in flight.
    let mut dma = [0u8; BUF as usize];
    pool.dma_read(h0.clock, PortId(1), ADDR, &mut dma);
    // Mistake 2: the doorbell is rung without a fence.
    h0.publish_fenced(&mut pool, ADDR, BUF);
    // Mistake 3: the now-clean buffer is written back again.
    clwb_buf(&mut pool, &mut h0);
    h0.mfence(&mut pool);
    // Mistake 4: released twice.
    for _ in 0..2 {
        if ranged {
            h0.clflushopt_range(&mut pool, ADDR, BUF);
        } else {
            for la in oasis_cxl::lines_covering(ADDR, BUF) {
                h0.clflushopt(&mut pool, la);
            }
        }
    }
    pool
}

#[test]
fn range_flush_tells_the_sanitizer_what_the_line_walk_tells_it() {
    let ranged = flush_mistakes(true);
    let walked = flush_mistakes(false);
    let story =
        |p: &CxlPool| -> Vec<String> { san(p).reports().iter().map(|r| r.to_string()).collect() };
    assert_eq!(story(&ranged), story(&walked));
    assert_eq!(san(&ranged).summary(), san(&walked).summary());
    // Seven lines were in flight under the DMA read and unfenced at the
    // doorbell (the clean one was never posted, but its clwb is unfenced
    // too); the second clwb and the second clflushopt found all eight
    // clean.
    assert_eq!(san(&ranged).count_of(ReportKind::TornDmaRead), 7);
    assert_eq!(san(&ranged).count_of(ReportKind::MissingFence), 8);
    assert_eq!(san(&ranged).count_of(ReportKind::DoubleFlush), 16);
}

/// Polls charged to a parked engine in closed form are checked against
/// the version the poller last fetched: a change since then is an error,
/// unless its post woke the poller through a watch on the line.
#[test]
fn charged_polls_after_an_unannounced_write_are_reported() {
    let (mut pool, mut h0, mut h1) = setup();
    publish_line(&mut pool, &mut h0, ADDR, 1);
    // h1 polls the line empty (and drops it), then parks on it.
    h1.empty_poll(&mut pool, ADDR);
    let at = h1.clock;
    pool.charge_line_fetches(PortId(1), ADDR, 3, at, 500);
    assert_eq!(san(&pool).error_count(), 0, "{}", san(&pool).summary());

    // A post that wakes h1's watch announces the change.
    pool.watch(ADDR, ADDR + 64, 1);
    publish_line(&mut pool, &mut h0, ADDR, 2);
    assert_eq!(pool.pop_woken(), Some(1));
    pool.charge_line_fetches(PortId(1), ADDR, 2, at, 500);
    assert_eq!(san(&pool).error_count(), 0, "{}", san(&pool).summary());

    // h1 reads version 2, parks again, and this time nobody watches.
    h1.empty_poll(&mut pool, ADDR);
    publish_line(&mut pool, &mut h0, ADDR, 3);
    pool.charge_line_fetches(PortId(1), ADDR, 4, h1.clock, 500);
    assert_eq!(san(&pool).count_of(ReportKind::ParkedMissedWrite), 1);
    assert_eq!(san(&pool).reports()[0].port, PortId(1));
    assert_eq!(san(&pool).charged_polls(), 9);
}
