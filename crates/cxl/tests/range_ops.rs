//! Differential test: the closed-form `HostCtx` operations are the
//! explicit ones they stand for, observably.
//!
//! * `clwb_range` / `clflushopt_range` are the per-line `clwb` /
//!   `clflushopt` walk (consecutive dirty lines travel as one run instead
//!   of one 1-line run each);
//! * `empty_poll` is `read` + `clflushopt` + `mfence` of one line, and
//!   `read_flush` is `read_stream` + `clflushopt_range` of the same bytes
//!   (a line filled only to be flushed unread is charged, not cached).
//!
//! Two identical pools, each with two hosts, are fed the same random
//! history; one twin uses the closed-form operation and the other the
//! explicit calls. Nothing a driver, a device or a figure can see may
//! differ: clocks, every counter, the fence stall, what reads return,
//! cache contents and recency, per-class meters, the number of lines in
//! flight, and pool memory at every instant a write-back becomes visible.
//! Both pools run the coherence sanitizer, which must also have been told
//! the same story.

#![expect(
    clippy::disallowed_methods,
    reason = "the model is checked against raw pool bytes"
)]

use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{lines_covering, CostModel, CxlPool, HostCtx, RegionAllocator};
use oasis_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

const POOL: u64 = 4096;

/// One pool and its two hosts.
struct Twin {
    pool: CxlPool,
    hosts: [HostCtx; 2],
}

/// The default costs, or ones whose write-backs take longer to land than
/// a load takes: then the fence that ends an empty poll can still wait.
fn costs(slow_writebacks: bool) -> CostModel {
    let mut c = CostModel::default();
    if slow_writebacks {
        c.cxl_write_visible_ns = 5 * c.cxl_load_ns;
    }
    c
}

fn twin(cache_lines: usize, costs: CostModel) -> Twin {
    let mut pool = CxlPool::new(POOL, 2).sanitized();
    // Class spans that end mid-line, touch each other, and leave
    // unregistered holes: a flushed range can straddle any of these edges.
    pool.register_class(0, 1000, TrafficClass::Payload);
    pool.register_class(1000, 1536, TrafficClass::Message);
    pool.register_class(2048, 2600, TrafficClass::Control);
    pool.register_class(2624, 3584, TrafficClass::Payload);
    let host = |p| HostCtx::with_cache(PortId(p), 0, cache_lines, costs.clone());
    Twin {
        pool,
        hosts: [host(0), host(1)],
    }
}

/// Where the two touching `Payload` regions of [`seam_twin`] meet.
const SEAM: u64 = 1024;

/// A pool whose first 2 KiB are `Payload` — two regions allocated back to
/// back, or one region registered whole — followed by a `Message` ring.
fn seam_twin(two_regions: bool) -> Twin {
    let mut pool = CxlPool::new(POOL, 2).sanitized();
    let mut ra = RegionAllocator::new(&pool);
    if two_regions {
        let a = ra.alloc(&mut pool, "inst0.tx", SEAM, TrafficClass::Payload);
        let b = ra.alloc(&mut pool, "inst1.tx", SEAM, TrafficClass::Payload);
        assert_eq!((a.end(), b.base), (SEAM, SEAM));
    } else {
        ra.alloc(&mut pool, "tx", 2 * SEAM, TrafficClass::Payload);
    }
    ra.alloc(&mut pool, "ring", 1024, TrafficClass::Message);
    let host = |p| HostCtx::with_cache(PortId(p), 0, 24, CostModel::default());
    Twin {
        pool,
        hosts: [host(0), host(1)],
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write { addr: u64, len: u64, val: u8 },
    Read { addr: u64, len: u64 },
    ReadStream { addr: u64, len: u64 },
    Prefetch { addr: u64 },
    Advance { ns: u64 },
    Fence,
    ClwbRange { addr: u64, len: u64 },
    FlushRange { addr: u64, len: u64 },
    EmptyPoll { addr: u64 },
    ReadFlush { addr: u64, len: u64 },
}

/// `(addr, len)` inside the pool: unaligned, zero-length now and then, up
/// to `max` bytes.
fn span(max: u64) -> impl Strategy<Value = (u64, u64)> {
    (0..POOL, prop_oneof![Just(0u64), 1u64..200, 1..max])
        .prop_map(|(addr, len)| (addr, len.min(POOL - addr)))
}

fn op_strategy() -> impl Strategy<Value = (usize, Op)> {
    // Writes are short and flushed ranges long, so a range usually covers
    // several dirty stretches with clean or absent lines between them, and
    // often a class edge.
    let op = prop_oneof![
        (span(400), any::<u8>()).prop_map(|((addr, len), val)| Op::Write { addr, len, val }),
        (span(400), any::<u8>()).prop_map(|((addr, len), val)| Op::Write { addr, len, val }),
        (span(400), any::<u8>()).prop_map(|((addr, len), val)| Op::Write { addr, len, val }),
        span(400).prop_map(|(addr, len)| Op::Read { addr, len }),
        span(800).prop_map(|(addr, len)| Op::ReadStream { addr, len }),
        (0..POOL).prop_map(|addr| Op::Prefetch { addr }),
        // Up to a few write-visibility delays: the hosts' clocks drift
        // apart, so a later post can be visible earlier.
        (0u64..1000).prop_map(|ns| Op::Advance { ns }),
        Just(Op::Fence),
        span(2000).prop_map(|(addr, len)| Op::ClwbRange { addr, len }),
        span(2000).prop_map(|(addr, len)| Op::ClwbRange { addr, len }),
        span(2000).prop_map(|(addr, len)| Op::FlushRange { addr, len }),
        (0..POOL).prop_map(|addr| Op::EmptyPoll { addr }),
        (0..POOL).prop_map(|addr| Op::EmptyPoll { addr }),
        span(800).prop_map(|(addr, len)| Op::ReadFlush { addr, len }),
        span(800).prop_map(|(addr, len)| Op::ReadFlush { addr, len }),
    ];
    (0usize..2, op)
}

/// Run `op` on host `h` of `tw`; `ranged` picks the closed-form operation
/// or the explicit calls it stands for. Returns what a read returned, and
/// pushes onto `due` every instant a flushed line may become visible.
fn apply(tw: &mut Twin, h: usize, op: &Op, ranged: bool, due: &mut Vec<SimTime>) -> Vec<u8> {
    let (pool, host) = (&mut tw.pool, &mut tw.hosts[h]);
    let visible = SimDuration::from_nanos(host.costs.cxl_write_visible_ns);
    let mut out = Vec::new();
    match *op {
        Op::Write { addr, len, val } => host.write(pool, addr, &vec![val; len as usize]),
        Op::Read { addr, len } => {
            out.resize(len as usize, 0);
            host.read(pool, addr, &mut out);
        }
        Op::ReadStream { addr, len } => {
            out.resize(len as usize, 0);
            host.read_stream(pool, addr, &mut out);
        }
        Op::Prefetch { addr } => host.prefetch(pool, addr),
        Op::Advance { ns } => host.advance(ns),
        Op::Fence => host.mfence(pool),
        Op::ClwbRange { addr, len } if ranged => host.clwb_range(pool, addr, len),
        Op::FlushRange { addr, len } if ranged => host.clflushopt_range(pool, addr, len),
        Op::ClwbRange { addr, len } => {
            for la in lines_covering(addr, len) {
                host.clwb(pool, la);
                due.push(host.clock + visible);
            }
        }
        Op::FlushRange { addr, len } => {
            for la in lines_covering(addr, len) {
                host.clflushopt(pool, la);
                due.push(host.clock + visible);
            }
        }
        Op::EmptyPoll { addr } if ranged => host.empty_poll(pool, addr),
        Op::EmptyPoll { addr } => {
            host.read(pool, addr, &mut [0u8; 1]);
            host.clflushopt(pool, addr);
            due.push(host.clock + visible);
            host.mfence(pool);
        }
        Op::ReadFlush { addr, len } => {
            out.resize(len as usize, 0);
            if ranged {
                host.read_flush(pool, addr, &mut out);
            } else {
                host.read_stream(pool, addr, &mut out);
                // Where each line's flush would post a dirty copy.
                let flush = SimDuration::from_nanos(host.costs.clflushopt_ns);
                let mut at = host.clock;
                for _ in lines_covering(addr, len) {
                    at += flush;
                    due.push(at + visible);
                }
                host.clflushopt_range(pool, addr, len);
            }
        }
    }
    // Evictions post at some clock inside the op; cover its end as well.
    due.push(host.clock + visible);
    out
}

fn meters(pool: &CxlPool) -> Vec<(u64, u64)> {
    (0..2)
        .flat_map(|p| {
            TrafficClass::ALL.map(|c| {
                let m = pool.meter(PortId(p));
                (m.read_bytes(c), m.write_bytes(c))
            })
        })
        .collect()
}

fn memory(pool: &CxlPool) -> Vec<u8> {
    let mut mem = vec![0u8; POOL as usize];
    pool.peek(0, &mut mem);
    mem
}

/// Everything observable without disturbing the twins, and what the
/// sanitizer was told.
fn observe(tw: &Twin) -> String {
    let hosts: Vec<String> = tw
        .hosts
        .iter()
        .map(|h| format!("clock {:?} cached {} {:?}", h.clock, h.cache.len(), h.stats))
        .collect();
    let san = tw.pool.sanitizer().expect("twins are sanitized");
    let story: Vec<String> = san.reports().iter().map(|r| r.to_string()).collect();
    format!(
        "{hosts:?} meters {:?} in flight {} {} {story:?}",
        meters(&tw.pool),
        tw.pool.pending_writebacks(),
        san.summary()
    )
}

/// Two touching regions of one class are one class span: a range op that
/// straddles their seam moves as one run, and is still the per-line walk —
/// and the same as over one region registered whole.
#[test]
fn range_ops_straddling_the_seam_of_two_touching_regions() {
    let write = |addr, len, val| Op::Write { addr, len, val };
    let stream = |addr, len| Op::ReadStream { addr, len };
    let clwb = |addr, len| Op::ClwbRange { addr, len };
    let flush = |addr, len| Op::FlushRange { addr, len };
    let history = [
        // Host 0 stages a buffer across the seam and writes it back.
        (0, write(SEAM - 300, 700, 0xA5)),
        (0, clwb(SEAM - 300, 700)),
        (0, Op::Fence),
        // Host 1 streams it in, releases the lines around the seam some
        // time later, and streams across the seam again.
        (1, stream(SEAM - 256, 600)),
        (1, Op::Advance { ns: 900 }),
        (1, flush(SEAM - 128, 192)),
        (1, stream(SEAM - 400, 900)),
        // Host 0 overwrites around the seam and releases the buffer.
        (0, write(SEAM - 64, 128, 0x3C)),
        (0, flush(SEAM - 300, 700)),
        (0, Op::Fence),
        (1, stream(SEAM - 64, 128)),
    ];

    let mut ranged = seam_twin(true);
    let mut walked = seam_twin(true);
    let mut whole = seam_twin(false);
    for (i, (h, op)) in history.iter().enumerate() {
        let got = apply(&mut ranged, *h, op, true, &mut Vec::new());
        let per_line = apply(&mut walked, *h, op, false, &mut Vec::new());
        let one_region = apply(&mut whole, *h, op, true, &mut Vec::new());
        assert_eq!(got, per_line, "op {i} {op:?}: bytes vs the per-line walk");
        assert_eq!(got, one_region, "op {i} {op:?}: bytes vs one region");
        assert_eq!(observe(&ranged), observe(&walked), "after op {i} {op:?}");
        assert_eq!(observe(&ranged), observe(&whole), "after op {i} {op:?}");
    }
    // Everything that crossed the seam was payload.
    for p in 0..2 {
        let m = ranged.pool.meter(PortId(p));
        assert!(m.total_bytes() > 0);
        assert_eq!(m.class_bytes(TrafficClass::Payload), m.total_bytes());
    }
    for tw in [&mut ranged, &mut walked, &mut whole] {
        tw.pool.flush_pending();
        assert_eq!(tw.pool.pending_writebacks(), 0);
    }
    assert!(memory(&ranged.pool) == memory(&walked.pool));
    assert!(memory(&ranged.pool) == memory(&whole.pool));
    let mut last = [0u8; 1];
    ranged.pool.peek(SEAM, &mut last);
    assert_eq!(last[0], 0x3C, "the overwrite landed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_ops_match_the_per_line_walk(
        cache_lines in prop_oneof![Just(4usize), Just(24), Just(4096)],
        slow_writebacks in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut ranged = twin(cache_lines, costs(slow_writebacks));
        let mut walked = twin(cache_lines, costs(slow_writebacks));
        let mut due = Vec::new();
        for (i, (h, op)) in ops.iter().enumerate() {
            let got = apply(&mut ranged, *h, op, true, &mut Vec::new());
            let want = apply(&mut walked, *h, op, false, &mut due);
            prop_assert_eq!(got, want, "op {} {:?}: read bytes", i, op);
            prop_assert_eq!(observe(&ranged), observe(&walked), "after op {} {:?}", i, op);
        }

        // Pool memory at every instant something lands, then drained.
        due.sort_unstable();
        due.dedup();
        due.push(SimTime::MAX);
        for t in due {
            ranged.pool.apply_pending(t);
            walked.pool.apply_pending(t);
            prop_assert_eq!(
                ranged.pool.pending_writebacks(),
                walked.pool.pending_writebacks(),
                "lines in flight at {:?}", t
            );
            prop_assert!(memory(&ranged.pool) == memory(&walked.pool), "pool bytes at {:?}", t);
        }
        prop_assert_eq!(ranged.pool.pending_writebacks(), 0);

        for h in 0..2 {
            // The fence stall is the hosts' private `pending_visible`.
            ranged.hosts[h].mfence(&mut ranged.pool);
            walked.hosts[h].mfence(&mut walked.pool);
            prop_assert_eq!(ranged.hosts[h].clock, walked.hosts[h].clock, "fence stall");
            // Cache contents, dirtiness, fill times and LRU order.
            let lines = |tw: &mut Twin| -> Vec<_> {
                tw.hosts[h]
                    .cache
                    .drain()
                    .into_iter()
                    .map(|(addr, l)| (addr, l.data, l.dirty, l.ready_at))
                    .collect()
            };
            prop_assert_eq!(lines(&mut ranged), lines(&mut walked), "host {} cache", h);
        }
        prop_assert_eq!(observe(&ranged), observe(&walked));
    }
}
