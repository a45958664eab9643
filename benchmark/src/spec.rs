//! The benchmark's fixed vocabulary: workloads and metrics by name, unit,
//! direction and bound. `BENCHMARK.json` and `README.md` restate these
//! tables; the unit tests below keep the three in step.

use crate::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PodEcho,
    PodDevicesRw,
    FleetTraffic,
    FleetTrafficT2,
    FleetReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PodEcho,
        Workload::PodDevicesRw,
        Workload::FleetTraffic,
        Workload::FleetTrafficT2,
        Workload::FleetReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PodEcho => "pod_echo",
            Workload::PodDevicesRw => "pod_devices_rw",
            Workload::FleetTraffic => "fleet_traffic",
            Workload::FleetTrafficT2 => "fleet_traffic_t2",
            Workload::FleetReplay => "fleet_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PodEcho => {
                "open loop: small and MTU UDP echoes over the full Oasis datapath of one pod; \
                 scheduler, cache model, channels, net engine, NIC and switch do all the work"
            }
            Workload::PodDevicesRw => {
                "closed loop: block reads beside writes and 64 KiB accelerator jobs; same pool \
                 and channels moving bulk payloads, storage and accel engines, idle network"
            }
            Workload::FleetTraffic => {
                "open loop: 8 pods in a chain, half the echoes cross an uplink, one shard thread; \
                 the sharded runner's windows and merge work on real pods"
            }
            Workload::FleetTrafficT2 => {
                "the fleet_traffic fleet on two shard threads: barrier cost per 2 us window \
                 dominates, so only shard-runner changes should move it"
            }
            Workload::FleetReplay => {
                "closed loop: 210k control-plane commands through the fleet allocator and raft; \
                 bypasses every data-plane layer, so data-plane changes must not move it"
            }
        }
    }

    /// Operation latencies are simulated time (exact for a given seed) on
    /// the data-plane workloads and host time on the control-plane one.
    pub fn latency_is_simulated(self) -> bool {
        self != Workload::FleetReplay
    }

    /// Shard threads the workload's fleet runs on (1 where no fleet runs).
    pub fn threads(self) -> usize {
        if self == Workload::FleetTrafficT2 {
            2
        } else {
            1
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees. `bound` is the share of the first
/// value by which the second may be worse before it counts as a regression.
/// The bounds are sized to the reference box: across ten seeds the
/// interquartile range of a host-time metric is 4-10 % of its median there
/// (README, "Baseline"), and a bound below the noise would flap.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p99_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer number comes from. All three are outside the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Host time of the benchmark's own call into the layer.
    Span,
    /// Exact count from `metrics_snapshot()`, or a simulated latency the
    /// workload observed; repeats bit for bit for a given seed.
    Counter,
    /// Like `Counter`, present only in the traced (`obs`) build.
    ObsCounter,
    /// The layer's public API driven in isolation; host ns per call.
    Probe,
    /// Computed from the others.
    Derived,
}

impl Source {
    /// Counters repeat exactly; everything else is host time.
    pub fn exact(self) -> bool {
        matches!(self, Source::Counter | Source::ObsCounter)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Derived, ObsCounter, Probe, Span};

pub const PER_LAYER: &[Layer] = &[
    // 1. Spans around the benchmark's own calls (host time).
    layer("core.pod.build_s", "s", Lower, Span),
    layer("core.pod.run_s", "s", Lower, Span),
    layer("core.pod.submit_ns", "ns", Lower, Span),
    layer("core.pod.drain_ns", "ns", Lower, Span),
    layer("core.pod.snapshot_ns", "ns", Lower, Span),
    layer("core.fleet.build_s", "s", Lower, Span),
    layer("core.fleet.run_s_t1", "s", Lower, Span),
    layer("core.fleet.run_s_t2", "s", Lower, Span),
    layer("trace.stream_gen_s", "s", Lower, Span),
    layer("core.alloc.create_local_ns", "ns", Lower, Span),
    layer("core.alloc.create_spill_ns", "ns", Lower, Span),
    layer("core.alloc.create_reject_ns", "ns", Lower, Span),
    layer("core.alloc.kill_ns", "ns", Lower, Span),
    layer("core.alloc.resize_ns", "ns", Lower, Span),
    layer("core.alloc.log_audit_s", "s", Lower, Span),
    // 2. Counters per completed operation (exact).
    layer("cxl.cache_hits_per_op", "count", Higher, Counter),
    layer("cxl.cache_misses_per_op", "count", Lower, Counter),
    layer("cxl.flushes_per_op", "count", Lower, Counter),
    layer("cxl.fences_per_op", "count", Lower, Counter),
    layer("cxl.prefetches_per_op", "count", Lower, Counter),
    layer("cxl.prefetch_stall_ratio", "ratio", Lower, Counter),
    layer("cxl.payload_bytes_per_op", "B", Lower, Counter),
    layer("cxl.message_bytes_per_op", "B", Lower, Counter),
    layer("core.net.drop_ratio", "ratio", Lower, Counter),
    layer("core.storage.retry_ratio", "ratio", Lower, Counter),
    layer("core.storage.sq_full_ratio", "ratio", Lower, Counter),
    layer("core.storage.read_p50_sim_ns", "ns", Lower, Counter),
    layer("core.storage.write_p50_sim_ns", "ns", Lower, Counter),
    layer("core.accel.job_p50_sim_ns", "ns", Lower, Counter),
    layer("core.alloc.spill_share", "ratio", Lower, Counter),
    layer("core.alloc.reject_share", "ratio", Lower, Counter),
    layer("sim.sched.dispatches_per_op", "count", Lower, ObsCounter),
    layer("sim.sched.stale_skip_ratio", "ratio", Lower, ObsCounter),
    layer("sim.sched.idle_skips", "count", Higher, ObsCounter),
    layer("sim.shard.windows", "count", Lower, ObsCounter),
    layer("sim.shard.barrier_stall_ratio", "ratio", Lower, ObsCounter),
    layer("sim.shard.messages", "count", Lower, ObsCounter),
    layer("sim.shard.balance_bound", "ratio", Higher, ObsCounter),
    // 3. Layer probes (host ns per call, layer driven in isolation).
    layer("sim.sched.dispatch_ns", "ns", Lower, Probe),
    layer("sim.eventq.push_pop_ns", "ns", Lower, Probe),
    layer("sim.shard.window_ns_t1", "ns", Lower, Probe),
    layer("sim.shard.window_ns_t2", "ns", Lower, Probe),
    layer("cxl.host.read_hit_ns", "ns", Lower, Probe),
    layer("cxl.host.read_miss_ns", "ns", Lower, Probe),
    layer("cxl.host.write_ns", "ns", Lower, Probe),
    layer("cxl.host.clflushopt_ns", "ns", Lower, Probe),
    layer("cxl.host.prefetch_ns", "ns", Lower, Probe),
    layer("cxl.host.mfence_ns", "ns", Lower, Probe),
    layer("cxl.pool.dma_read_ns_per_kib", "ns", Lower, Probe),
    layer("cxl.pool.dma_write_ns_per_kib", "ns", Lower, Probe),
    layer("channel.msg_ns", "ns", Lower, Probe),
    layer("channel.empty_poll_ns", "ns", Lower, Probe),
    layer("channel.empty_poll_ratio", "ratio", Lower, Probe),
    layer("net.packet.encode_ns", "ns", Lower, Probe),
    layer("net.packet.decode_ns", "ns", Lower, Probe),
    layer("net.switch.forward_ns", "ns", Lower, Probe),
    layer("storage.ssd.cmd_ns", "ns", Lower, Probe),
    layer("accel.device.job_ns", "ns", Lower, Probe),
    layer("raft.propose_apply_ns", "ns", Lower, Probe),
    layer("core.snapshot.pod_encode_ns", "ns", Lower, Probe),
    layer("core.snapshot.pod_restore_ns", "ns", Lower, Probe),
    layer("obs.snapshot_json_ns", "ns", Lower, Probe),
    // Derived: the estimated cost map and the benchmark's own overheads.
    layer("attrib.sim.share", "ratio", Lower, Derived),
    layer("attrib.cxl.share", "ratio", Lower, Derived),
    layer("attrib.channel.share", "ratio", Lower, Derived),
    layer("attrib.net.share", "ratio", Lower, Derived),
    layer("attrib.storage.share", "ratio", Lower, Derived),
    layer("attrib.accel.share", "ratio", Lower, Derived),
    layer("attrib.unexplained.share", "ratio", Lower, Derived),
    layer("bench.trace_overhead_pct", "%", Lower, Derived),
    layer("bench.obs_overhead_pct", "%", Lower, Derived),
];

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated from the tables above (`oasis-benchmark
/// spec` prints it; a unit test holds the committed file to it).
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
        })
        .collect();
    Value::obj()
        .with(
            "command",
            vec![Value::from("bash"), Value::from("benchmark/run.sh")],
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&Workload::ALL.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    /// The committed `BENCHMARK.json` is what the tables generate, within
    /// the driver's size limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(text, benchmark_json().pretty());
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 runs per workload, their set-up and two builds in 3420 s.
        let runs = 4 + 22 * Workload::ALL.len() as u64;
        assert!(runs * (RUN_SECONDS + 5) + 2 * 300 <= 3420);
    }

    /// The README documents every workload and metric by name.
    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        for name in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
    }
}
