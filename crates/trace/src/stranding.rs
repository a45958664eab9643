//! The fleet stranding integral (integer side).
//!
//! Per-pod stranding over a fleet replay, computed entirely in integer
//! parts per billion so the figures round-trip through snapshots
//! losslessly and the measurement is byte-identical at any
//! `OASIS_SHARD_THREADS`. `clippy::float_arithmetic` is denied in this
//! file; the f64 presentation sweep (Fig. 2 by pod size)
//! lives in [`crate::stranding_sweep`] and is re-exported here for API
//! stability.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use oasis_obs::{MetricSink, MetricsSnapshot};
use oasis_sim::shard::{threads_from_env, Envelope, Outgoing, ShardWorld, ShardedRunner};
use oasis_sim::time::{SimDuration, SimTime};

use crate::alloc_trace::FleetReplay;
use crate::metrics;

pub use crate::stranding_sweep::{
    export_stranding, stranding_by_pod_size, stranding_from_snapshot, StrandingPoint, PPB,
};

/// Per-pod stranding from a fleet replay, in integer parts per billion so
/// the figures round-trip through snapshots losslessly and the measurement
/// is byte-identical at any `OASIS_SHARD_THREADS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PodStranding {
    /// Pod index.
    pub pod: usize,
    /// Fraction of the pod's NIC bandwidth stranded, parts per billion.
    pub nic_stranded_ppb: u64,
    /// Fraction of the pod's SSD capacity stranded, parts per billion.
    pub ssd_stranded_ppb: u64,
    /// Instances whose device backends this pod served.
    pub placements: u64,
}

/// One pod's utilization integral, run as a shard so a wide fleet's
/// measurement parallelizes under the conservative-window runner. The
/// shards never message each other (a pod's device usage is attributed
/// wholly to that pod), so any window schedule — hence any thread count —
/// produces the same integer sums.
struct PodIntegral {
    /// `(nic_mbps, ssd_gb, start_ns, end_ns)` per instance served here.
    items: Vec<(u64, u64, u64, u64)>,
    warmup: u64,
    end: u64,
    done: bool,
    /// Σ nic_mbps · overlap_ns over the steady-state window.
    nic_acc: u128,
    /// Σ ssd_gb · overlap_ns over the steady-state window.
    ssd_acc: u128,
}

impl ShardWorld for PodIntegral {
    type Msg = ();

    fn next_time(&self) -> SimTime {
        if self.done {
            SimTime::MAX
        } else {
            SimTime::ZERO
        }
    }

    fn run_window(
        &mut self,
        _until: SimTime,
        inbox: &mut Vec<Envelope<()>>,
        _outbox: &mut Vec<Outgoing<()>>,
    ) -> u64 {
        inbox.clear();
        if self.done {
            return 0;
        }
        self.done = true;
        for &(nic, ssd, s, e) in &self.items {
            let s = s.max(self.warmup);
            let e = e.min(self.end);
            if e > s {
                let dt = (e - s) as u128;
                self.nic_acc = self.nic_acc.saturating_add(nic as u128 * dt);
                self.ssd_acc = self.ssd_acc.saturating_add(ssd as u128 * dt);
            }
        }
        self.items.len() as u64
    }
}

/// Measure per-pod stranding over a fleet replay's steady-state window
/// `[end/4, end]`, attributing each instance's device usage to the pod
/// that served its backends (`device_pod`), so a spilled placement relieves
/// the *neighbor's* stranding, not its home pod's. One shard per pod,
/// honoring `OASIS_SHARD_THREADS`; all-integer arithmetic keeps the result
/// identical at every thread count.
pub fn measure_fleet_stranding(replay: &FleetReplay) -> Vec<PodStranding> {
    let end = replay.duration.as_nanos();
    let warmup = end / 4;
    let pods = replay.pod_hosts.len();
    if pods == 0 || end == 0 {
        return Vec::new();
    }
    let mut worlds: Vec<PodIntegral> = (0..pods)
        .map(|_| PodIntegral {
            items: Vec::new(),
            warmup,
            end,
            done: false,
            nic_acc: 0,
            ssd_acc: 0,
        })
        .collect();
    for pl in &replay.placements {
        let ty = &replay.catalog[pl.type_idx];
        worlds[pl.device_pod].items.push((
            ty.nic_mbps(),
            ty.ssd_gb as u64,
            pl.start.as_nanos(),
            pl.end.as_nanos(),
        ));
    }
    let mut runner: ShardedRunner<()> =
        ShardedRunner::new(pods, SimDuration::from_nanos(end), threads_from_env());
    runner
        .run(&mut worlds, SimTime::from_nanos(end))
        .expect("a whole-horizon lookahead is nonzero");

    let window = (end - warmup) as u128;
    let cap = replay.host_cap;
    let nic_mbps_per_host = cap.nic_mbps() as u128;
    worlds
        .iter()
        .enumerate()
        .map(|(p, w)| {
            let hosts = replay.pod_hosts[p] as u128;
            let nic_cap = hosts * nic_mbps_per_host * window;
            let ssd_cap = hosts * cap.ssd_gb as u128 * window;
            let used_ppb =
                |acc: u128, cap: u128| (acc * 1_000_000_000).checked_div(cap).unwrap_or(0) as u64;
            PodStranding {
                pod: p,
                nic_stranded_ppb: 1_000_000_000_u64.saturating_sub(used_ppb(w.nic_acc, nic_cap)),
                ssd_stranded_ppb: 1_000_000_000_u64.saturating_sub(used_ppb(w.ssd_acc, ssd_cap)),
                placements: replay.state.pod_placements[p],
            }
        })
        .collect()
}

/// Export per-pod fleet stranding into `sink` under the [`crate::metrics`]
/// names, tagged by pod index. Every pod gets all three entries, including
/// zeros, so reconstruction never drops a pod.
pub fn export_fleet_stranding(pts: &[PodStranding], sink: &mut MetricSink) {
    for p in pts {
        let t = p.pod as u32;
        sink.set(metrics::STRANDING_POD_NIC_PPB, t, p.nic_stranded_ppb);
        sink.set(metrics::STRANDING_POD_SSD_PPB, t, p.ssd_stranded_ppb);
        sink.set(metrics::STRANDING_POD_PLACED, t, p.placements);
    }
}

/// Reconstruct per-pod fleet stranding from a snapshot, ascending by pod.
pub fn fleet_stranding_from_snapshot(snap: &MetricsSnapshot) -> Vec<PodStranding> {
    snap.counter_tags(metrics::STRANDING_POD_NIC_PPB)
        .into_iter()
        .map(|(tag, nic)| PodStranding {
            pod: tag as usize,
            nic_stranded_ppb: nic,
            ssd_stranded_ppb: snap.counter(metrics::STRANDING_POD_SSD_PPB, tag),
            placements: snap.counter(metrics::STRANDING_POD_PLACED, tag),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_trace::{AllocTrace, ArrivalStream};

    fn ring_replay() -> FleetReplay {
        use crate::alloc_trace::HomePolicy;
        use oasis_cxl::topology::{FleetTopology, PodTopology, UPLINK_LATENCY};
        let stream = ArrivalStream::generate(16, SimDuration::from_secs(2 * 3600), 23);
        let topo = FleetTopology::ring(4, PodTopology::production(4, 0), UPLINK_LATENCY);
        AllocTrace::replay_fleet(&stream, &topo, HomePolicy::RoundRobin, 10)
            .expect("ring topology is valid")
    }

    #[test]
    fn fleet_stranding_covers_every_pod_and_roundtrips() {
        let replay = ring_replay();
        let pts = measure_fleet_stranding(&replay);
        assert_eq!(pts.len(), 4, "one line per pod");
        for p in &pts {
            assert!(p.nic_stranded_ppb <= 1_000_000_000);
            assert!(p.ssd_stranded_ppb <= 1_000_000_000);
            assert!(p.placements > 0, "round-robin homes reach every pod");
        }
        let mut sink = MetricSink::new();
        export_fleet_stranding(&pts, &mut sink);
        let back = fleet_stranding_from_snapshot(&sink.snapshot());
        assert_eq!(back, pts, "ppb integers round-trip losslessly");
    }

    #[test]
    fn fleet_stranding_attributes_spill_to_the_device_pod() {
        let replay = ring_replay();
        let pts = measure_fleet_stranding(&replay);
        let spilled: u64 = replay.state.spill_placements.iter().sum();
        assert!(spilled > 0, "the saturated ring must spill");
        // Total device placements across pods count every placed instance
        // exactly once, spilled or not.
        let total: u64 = pts.iter().map(|p| p.placements).sum();
        assert_eq!(total, replay.placements.len() as u64);
    }

    #[test]
    fn fleet_stranding_is_thread_count_invariant() {
        // The integral must not depend on the shard schedule; emulate the
        // CI matrix in-process by pinning the env knob per run.
        let replay = ring_replay();
        let base = measure_fleet_stranding(&replay);
        std::env::set_var(oasis_sim::SHARD_THREADS_ENV, "8");
        let wide = measure_fleet_stranding(&replay);
        std::env::remove_var(oasis_sim::SHARD_THREADS_ENV);
        assert_eq!(base, wide);
    }
}
