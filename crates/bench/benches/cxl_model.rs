//! Criterion benches for the CXL memory-model hot paths.
//!
//! These operations run millions of times per simulated second; their wall
//! cost bounds every experiment's runtime.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator, LINE};

fn setup() -> (CxlPool, HostCtx) {
    let mut pool = CxlPool::new(1 << 22, 2);
    let mut ra = RegionAllocator::new(&pool);
    ra.alloc(&mut pool, "area", 1 << 21, TrafficClass::Payload);
    (pool, HostCtx::new(PortId(0), 0))
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hostctx");

    group.bench_function("read_hit_u64", |b| {
        let (mut pool, mut host) = setup();
        host.read_u64(&mut pool, 0);
        b.iter(|| host.read_u64(&mut pool, 0));
    });

    group.bench_function("read_miss_u64", |b| {
        let (mut pool, mut host) = setup();
        b.iter(|| {
            host.read_u64(&mut pool, 64);
            host.clflushopt(&mut pool, 64); // evict so the next read misses
        });
    });

    group.bench_function("write_clwb_line", |b| {
        let (mut pool, mut host) = setup();
        let line = [7u8; 64];
        b.iter(|| {
            host.write(&mut pool, 128, &line);
            host.clwb(&mut pool, 128);
        });
    });

    group.throughput(Throughput::Bytes(1500));
    group.bench_function("read_stream_1500B", |b| {
        let (mut pool, mut host) = setup();
        let mut out = [0u8; 1500];
        b.iter(|| {
            host.read_stream(&mut pool, 4096, &mut out);
            host.clflushopt_range(&mut pool, 4096, 1500);
        });
    });

    group.bench_function("dma_write_1500B", |b| {
        let (mut pool, host) = setup();
        let data = [9u8; 1500];
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            pool.dma_write(
                oasis_sim::time::SimTime::from_nanos(t),
                host.port,
                8192,
                &data,
            );
        });
    });

    // The engines' payload path (§3.2.1): stage a buffer, write it back,
    // let the device DMA it, release the buffer.
    group.throughput(Throughput::Bytes(32 << 10));
    group.bench_function("writeback_32k", |b| {
        let (mut pool, mut host) = setup();
        let data = vec![5u8; 32 << 10];
        let mut out = vec![0u8; 32 << 10];
        b.iter(|| {
            host.write(&mut pool, 1 << 16, &data);
            host.clwb_range(&mut pool, 1 << 16, data.len() as u64);
            host.mfence(&mut pool);
            pool.dma_read(host.clock, host.port, 1 << 16, &mut out);
            host.clflushopt_range(&mut pool, 1 << 16, data.len() as u64);
        });
    });
    group.finish();
}

fn bench_cache_pressure(c: &mut Criterion) {
    // Streaming through 4x the cache capacity: constant evictions.
    c.bench_function("cache_thrash_16k_lines", |b| {
        let (mut pool, mut host) = setup();
        b.iter(|| {
            for i in 0..16_384u64 {
                host.read_u64(&mut pool, (i * 64) % (1 << 20));
            }
            host.stats.misses
        });
    });
}

fn bench_poll_rotation(c: &mut Criterion) {
    // What a pod's pollers do to the model, which the single-host probes
    // above cannot see: eight hosts take turns on one core, each poll goes
    // to another of forty message rings, and a poll is the receiver's
    // miss → 16 prefetches → 17 flushes (a message arrives and the window
    // is extended, then an empty poll throws the window away). Between two
    // polls by the same host, seven other hosts' cache state has gone
    // through the real CPU's cache. Each host's cache also holds a pod-like
    // resident set (I/O buffers it touched and has not released), so its
    // index is the size it is in a pod.
    const HOSTS: u64 = 8;
    const RESIDENT_LINES: u64 = 3072;
    const RINGS: u64 = 40;
    const RING_LINES: u64 = 2048;
    const WINDOW: u64 = 16;
    c.bench_function("poll_rotation", |b| {
        let mut pool = CxlPool::new(16 << 20, HOSTS as usize);
        let mut ra = RegionAllocator::new(&pool);
        let buffers = ra.alloc(
            &mut pool,
            "buffers",
            HOSTS * RESIDENT_LINES * LINE,
            TrafficClass::Payload,
        );
        let rings: Vec<u64> = (0..RINGS)
            .map(|r| {
                let name = format!("ring{r}");
                ra.alloc(&mut pool, name, RING_LINES * LINE, TrafficClass::Message)
                    .base
            })
            .collect();
        let mut hosts: Vec<HostCtx> = (0..HOSTS)
            .map(|p| HostCtx::new(PortId(p as usize), 0))
            .collect();
        for (h, host) in hosts.iter_mut().enumerate() {
            let mut buf = vec![0u8; (RESIDENT_LINES * LINE) as usize];
            host.read_stream(
                &mut pool,
                buffers.base + h as u64 * buf.len() as u64,
                &mut buf,
            );
        }
        let mut poll = 0u64;
        b.iter(|| {
            // Ring `r` belongs to host `r % HOSTS`; its cursor moves on one
            // line per visit.
            let host = &mut hosts[(poll % HOSTS) as usize];
            let cursor = poll / RINGS % (RING_LINES - WINDOW);
            let head = rings[(poll % RINGS) as usize] + cursor * LINE;
            poll += 1;
            let got = host.read_u64(&mut pool, head);
            for k in 1..=WINDOW {
                host.prefetch(&mut pool, head + k * LINE);
            }
            for k in 0..=WINDOW {
                host.clflushopt(&mut pool, head + k * LINE);
            }
            host.mfence(&mut pool);
            got
        });
    });
}

criterion_group!(
    benches,
    bench_ops,
    bench_cache_pressure,
    bench_poll_rotation
);
criterion_main!(benches);
