//! Criterion benches for the Oasis message channel.
//!
//! Measures the *wall-clock* cost of simulating channel traffic — i.e. how
//! fast the library itself runs — per receiver policy, plus the raw
//! send/receive operation costs. (The *simulated* throughput numbers are
//! the `fig6_channel` experiment binary's job.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oasis_channel::{ChannelLayout, Policy, Receiver, Sender};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};

fn setup(slots: u64) -> (CxlPool, HostCtx, HostCtx, ChannelLayout) {
    let mut pool = CxlPool::new(1 << 21, 2);
    let mut ra = RegionAllocator::new(&pool);
    let region = ra.alloc(
        &mut pool,
        "bench",
        ChannelLayout::bytes_needed(slots, 16),
        TrafficClass::Message,
    );
    let layout = ChannelLayout::in_region(&region, slots, 16);
    (
        pool,
        HostCtx::new(PortId(0), 0),
        HostCtx::new(PortId(1), 0),
        layout,
    )
}

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_transfer");
    const N: u64 = 4096;
    group.throughput(Throughput::Elements(N));
    for policy in Policy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let (mut pool, mut tx, mut rx, layout) = setup(8192);
                    let mut sender = Sender::new(layout.clone());
                    let mut receiver = Receiver::new(layout, policy);
                    let msg = [3u8; 16];
                    let mut out = [0u8; 16];
                    let mut received = 0u64;
                    while received < N {
                        // Step the earlier side, like the co-sim runner.
                        if tx.clock <= rx.clock {
                            if !sender.try_send(&mut tx, &mut pool, &msg).unwrap() {
                                tx.advance(100);
                            }
                        } else if receiver.try_recv(&mut rx, &mut pool, &mut out) {
                            received += 1;
                        }
                    }
                    received
                });
            },
        );
    }
    group.finish();
}

fn bench_raw_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_ops");
    group.bench_function("send_one", |b| {
        let (mut pool, mut tx, _rx, layout) = setup(8192);
        let mut sender = Sender::new(layout);
        let msg = [1u8; 16];
        let mut sent = 0u64;
        b.iter(|| {
            if sent == 4096 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fake the receiver catching up so the ring never fills"
                )]
                pool.poke(sender.layout().counter_addr, &sender.sent().to_le_bytes());
                sent = 0;
            }
            sender.try_send(&mut tx, &mut pool, &msg).unwrap();
            sent += 1;
        });
    });
    group.bench_function("empty_poll_invalidate_prefetched", |b| {
        let (mut pool, _tx, mut rx, layout) = setup(8192);
        let mut receiver = Receiver::new(layout, Policy::InvalidatePrefetched);
        let mut out = [0u8; 16];
        b.iter(|| receiver.try_recv(&mut rx, &mut pool, &mut out));
    });
    group.finish();
}

criterion_group!(benches, bench_transfer, bench_raw_ops);
criterion_main!(benches);
