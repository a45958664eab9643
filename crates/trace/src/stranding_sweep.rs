//! The Fig. 2 pooling sweep (float side).
//!
//! Replays the *same* request stream against placements with increasing pod
//! sizes. Without pooling, chunky SSD/NIC requests fragment: a
//! storage-optimized instance is rejected although the rack has plenty of
//! free SSD, so device capacity sits stranded on CPU-full hosts. Pooling
//! lets a host borrow pod-level device capacity, so more device-hungry
//! instances land and stranding falls — the Fig. 2 curves.
//!
//! Stranding is reported as `1 − time-averaged allocated fraction` of each
//! resource over the steady-state window, which is the metric §2.2 quotes
//! ("27 % of NIC bandwidth, 33 % of SSD capacity ... are stranded on
//! average").
//!
//! This module is the presentation half: fractions are f64 and only ever
//! flow *into* snapshots as ppb integers, never into replicated state. The
//! integer-only fleet integral lives in [`crate::stranding`], which
//! denies `clippy::float_arithmetic`; this file deliberately does not.

use oasis_obs::{MetricSink, MetricsSnapshot};
use oasis_sim::time::SimDuration;

use crate::alloc_trace::{AllocTrace, ArrivalStream};
use crate::metrics;

/// Fixed-point scale for stranding fractions in snapshots (parts per
/// billion): snapshots carry only integers, and at the figures'
/// one-decimal percentage resolution the round trip is lossless.
pub const PPB: f64 = 1e9;

/// Stranding at one pod size.
#[derive(Clone, Copy, Debug)]
pub struct StrandingPoint {
    /// Hosts per pod.
    pub pod_size: usize,
    /// Fraction of NIC bandwidth stranded.
    pub nic_stranded: f64,
    /// Fraction of SSD capacity stranded.
    pub ssd_stranded: f64,
    /// Fraction of CPU cores stranded.
    pub cpu_stranded: f64,
    /// Fraction of memory stranded.
    pub mem_stranded: f64,
    /// Requests rejected during placement.
    pub rejected: usize,
}

fn measure(trace: &AllocTrace) -> StrandingPoint {
    let cap = trace.host_cap;
    StrandingPoint {
        pod_size: trace.pod_size,
        nic_stranded: 1.0 - trace.mean_allocated_fraction(cap.nic_gbps, |t| t.nic_gbps),
        ssd_stranded: 1.0 - trace.mean_allocated_fraction(cap.ssd_gb as f64, |t| t.ssd_gb as f64),
        cpu_stranded: 1.0 - trace.mean_allocated_fraction(cap.vcpus as f64, |t| t.vcpus as f64),
        mem_stranded: 1.0 - trace.mean_allocated_fraction(cap.mem_gb as f64, |t| t.mem_gb as f64),
        rejected: trace.rejected,
    }
}

/// Run the Fig. 2 sweep: place `repeats` independent request streams at each
/// pod size and average the stranding.
pub fn stranding_by_pod_size(
    hosts: usize,
    duration: SimDuration,
    pod_sizes: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<StrandingPoint> {
    let streams: Vec<ArrivalStream> = (0..repeats)
        .map(|r| ArrivalStream::generate(hosts, duration, seed.wrapping_add(r as u64 * 7919)))
        .collect();
    pod_sizes
        .iter()
        .map(|&k| {
            let mut acc = StrandingPoint {
                pod_size: k,
                nic_stranded: 0.0,
                ssd_stranded: 0.0,
                cpu_stranded: 0.0,
                mem_stranded: 0.0,
                rejected: 0,
            };
            for s in &streams {
                let p = measure(&AllocTrace::place(s, hosts, k));
                acc.nic_stranded += p.nic_stranded;
                acc.ssd_stranded += p.ssd_stranded;
                acc.cpu_stranded += p.cpu_stranded;
                acc.mem_stranded += p.mem_stranded;
                acc.rejected += p.rejected;
            }
            let n = repeats as f64;
            acc.nic_stranded /= n;
            acc.ssd_stranded /= n;
            acc.cpu_stranded /= n;
            acc.mem_stranded /= n;
            acc
        })
        .collect()
}

/// Export a stranding sweep into `sink` under the [`crate::metrics`]
/// names, tagged by pod size.
pub fn export_stranding(pts: &[StrandingPoint], sink: &mut MetricSink) {
    for p in pts {
        let t = p.pod_size as u32;
        sink.set(metrics::STRANDED_NIC_PPB, t, (p.nic_stranded * PPB) as u64);
        sink.set(metrics::STRANDED_SSD_PPB, t, (p.ssd_stranded * PPB) as u64);
        sink.set(metrics::STRANDED_CPU_PPB, t, (p.cpu_stranded * PPB) as u64);
        sink.set(metrics::STRANDED_MEM_PPB, t, (p.mem_stranded * PPB) as u64);
        sink.set(metrics::PLACEMENT_REJECTED, t, p.rejected as u64);
    }
}

/// Reconstruct the sweep from a snapshot (the path the figure binaries
/// print from), ascending by pod size.
pub fn stranding_from_snapshot(snap: &MetricsSnapshot) -> Vec<StrandingPoint> {
    snap.counter_tags(metrics::STRANDED_NIC_PPB)
        .into_iter()
        .map(|(tag, nic)| StrandingPoint {
            pod_size: tag as usize,
            nic_stranded: nic as f64 / PPB,
            ssd_stranded: snap.counter(metrics::STRANDED_SSD_PPB, tag) as f64 / PPB,
            cpu_stranded: snap.counter(metrics::STRANDED_CPU_PPB, tag) as f64 / PPB,
            mem_stranded: snap.counter(metrics::STRANDED_MEM_PPB, tag) as f64 / PPB,
            rejected: snap.counter(metrics::PLACEMENT_REJECTED, tag) as usize,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<StrandingPoint> {
        stranding_by_pod_size(16, SimDuration::from_secs(3 * 3600), &[1, 2, 4, 8], 2, 11)
    }

    #[test]
    fn stranding_decreases_with_pod_size() {
        let pts = sweep();
        assert!(
            pts[3].nic_stranded < pts[0].nic_stranded - 0.01,
            "nic: {} -> {}",
            pts[0].nic_stranded,
            pts[3].nic_stranded
        );
        assert!(
            pts[3].ssd_stranded < pts[0].ssd_stranded - 0.02,
            "ssd: {} -> {}",
            pts[0].ssd_stranded,
            pts[3].ssd_stranded
        );
        // Rejections fall as pooling admits device-heavy instances.
        assert!(pts[3].rejected <= pts[0].rejected);
    }

    #[test]
    fn pod1_matches_paper_regime() {
        // §2.2: NIC 27%, SSD 33%, CPU 5%, memory 9% stranded at pod size 1.
        // We require the qualitative regime: devices strand hard, CPU binds.
        let p = sweep()[0];
        assert!(
            (0.12..=0.50).contains(&p.nic_stranded),
            "nic {}",
            p.nic_stranded
        );
        assert!(
            (0.15..=0.55).contains(&p.ssd_stranded),
            "ssd {}",
            p.ssd_stranded
        );
        assert!(p.cpu_stranded < 0.20, "cpu {}", p.cpu_stranded);
        assert!(p.cpu_stranded < p.nic_stranded);
        assert!(p.cpu_stranded < p.ssd_stranded);
    }

    #[test]
    fn snapshot_roundtrip_preserves_figure_resolution() {
        let pts = sweep();
        let mut sink = MetricSink::new();
        export_stranding(&pts, &mut sink);
        let back = stranding_from_snapshot(&sink.snapshot());
        assert_eq!(back.len(), pts.len());
        for (a, b) in pts.iter().zip(&back) {
            assert_eq!(a.pod_size, b.pod_size);
            assert_eq!(a.rejected, b.rejected);
            // ppb fixed point: well inside the figures' 0.1% resolution.
            assert!((a.nic_stranded - b.nic_stranded).abs() < 1e-8);
            assert!((a.ssd_stranded - b.ssd_stranded).abs() < 1e-8);
            assert!((a.cpu_stranded - b.cpu_stranded).abs() < 1e-8);
            assert!((a.mem_stranded - b.mem_stranded).abs() < 1e-8);
        }
    }

    #[test]
    fn stranding_bounded() {
        for p in sweep() {
            for v in [
                p.nic_stranded,
                p.ssd_stranded,
                p.cpu_stranded,
                p.mem_stranded,
            ] {
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }
}
