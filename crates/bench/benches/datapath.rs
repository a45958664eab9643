//! Criterion benches for whole-datapath simulation rates: how many
//! simulated packets / block I/Os per wall second the pod runtime
//! sustains, for the Oasis path and the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oasis_apps::stats::ClientStats;
use oasis_apps::udp::{EchoServer, Pacing, UdpClient};
use oasis_bench::harness::{single_instance_pod, Mode};
use oasis_core::config::OasisConfig;
use oasis_core::engine_storage::StoragePod;
use oasis_core::instance::AppKind;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::{Ssd, SsdConfig};
use oasis_storage::BLOCK_SIZE;

fn bench_udp_echo(c: &mut Criterion) {
    let mut group = c.benchmark_group("pod_udp_echo");
    const N: u64 = 200;
    group.throughput(Throughput::Elements(N));
    group.sample_size(10);
    for mode in [Mode::Baseline, Mode::Oasis] {
        group.bench_with_input(
            BenchmarkId::from_parameter(mode.label()),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let (mut pod, inst) = single_instance_pod(
                        mode,
                        OasisConfig::default(),
                        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
                    );
                    let stats = ClientStats::handle();
                    let client = UdpClient::new(
                        1,
                        pod.instance_mac(inst),
                        pod.instance_ip(inst),
                        7,
                        64,
                        Pacing::FixedGap {
                            gap: SimDuration::from_micros(10),
                            count: N,
                        },
                        SimTime::from_micros(20),
                        stats.clone(),
                    );
                    pod.add_endpoint(Box::new(client));
                    pod.run(SimTime::from_millis(4));
                    let got = stats.borrow().received;
                    assert_eq!(got, N);
                    got
                });
            },
        );
    }
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_pod");
    const N: usize = 64;
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(10);
    group.bench_function("remote_reads_qd8", |b| {
        b.iter(|| {
            let ssd = Ssd::new(SsdConfig::default());
            let mut pod = StoragePod::new(OasisConfig::default(), ssd, 8 * BLOCK_SIZE);
            let mut done = 0;
            let mut submitted = 0;
            while done < N {
                while submitted - done < 8 && submitted < N {
                    pod.frontend
                        .submit_read(&mut pod.pool, 0, (submitted % 64) as u64, 1)
                        .unwrap();
                    submitted += 1;
                }
                done += pod.run_until_completions(1, SimTime::from_secs(1)).len();
            }
            done
        });
    });
    group.finish();
}

criterion_group!(benches, bench_udp_echo, bench_storage);
criterion_main!(benches);
