//! CXL pod topology and bandwidth-sufficiency math.
//!
//! A pod (§2.3) is a set of hosts in a rack, each connected by a CXL link to
//! one or more multi-headed memory devices. This module captures the static
//! shape — host count, lanes per port, pool capacity — and the §2.1/§2.3
//! feasibility arithmetic the paper uses to argue that CXL bandwidth is
//! sufficient for PCIe device pooling (Table 1 requirements vs. 64-lane
//! platform bandwidth).
//!
//! Beyond a single pod, [`FleetTopology`] describes sparsely connected
//! *fleets*: pods joined by Ethernet uplinks through the row fabric
//! (Octopus-style). The minimum uplink latency is the conservative-window
//! lookahead the sharded runner (`oasis_sim::shard`) uses to advance pods
//! in parallel, so it is exposed here, next to the link model it belongs to.

use oasis_sim::time::SimDuration;

/// Per-lane CXL 2.0 / PCIe 5.0 bandwidth in each direction, bytes/second.
pub(crate) const LANE_BW: f64 = 4e9;

/// Link efficiency the paper measures for 64 B random accesses (92 %).
pub(crate) const LINK_EFFICIENCY: f64 = 0.92;

/// Static description of a CXL pod.
#[derive(Clone, Debug)]
pub struct PodTopology {
    /// Number of hosts sharing the pool.
    pub hosts: usize,
    /// CXL lanes per host port (the paper's testbed uses x8; production
    /// platforms have up to 64).
    pub lanes_per_host: u32,
    /// Pool capacity in bytes.
    pub pool_bytes: u64,
}

impl PodTopology {
    /// The paper's evaluation testbed: two hosts, x8 links, 256 GB device
    /// (scaled down in simulation via the region allocator).
    pub fn testbed(pool_bytes: u64) -> Self {
        PodTopology {
            hosts: 2,
            lanes_per_host: 8,
            pool_bytes,
        }
    }

    /// A production-like pod: `hosts` hosts with 64-lane CXL ports.
    pub fn production(hosts: usize, pool_bytes: u64) -> Self {
        PodTopology {
            hosts,
            lanes_per_host: 64,
            pool_bytes,
        }
    }

    /// Usable per-host CXL bandwidth in one direction, bytes/second.
    pub fn host_link_bw(&self) -> f64 {
        self.lanes_per_host as f64 * LANE_BW * LINK_EFFICIENCY
    }

    /// Can this pod's per-host link carry the given device demand
    /// (bytes/second, one direction)?
    pub fn link_sufficient_for(&self, demand_bytes_per_sec: f64) -> bool {
        self.host_link_bw() >= demand_bytes_per_sec
    }
}

/// Default one-way latency of an inter-pod uplink: ToR → row fabric → ToR.
/// Dominated by the two extra switch hops plus fiber; comfortably above any
/// intra-pod timescale, which is what gives the sharded runner a usable
/// lookahead window.
pub const UPLINK_LATENCY: SimDuration = SimDuration::from_micros(2);

/// A bidirectional inter-pod uplink between pods `a` and `b`.
#[derive(Clone, Debug)]
pub struct CrossPodLink {
    /// First endpoint (pod index in the fleet).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
}

impl CrossPodLink {
    /// A link with the default uplink latency.
    pub fn new(a: usize, b: usize) -> Self {
        CrossPodLink {
            a,
            b,
            latency: UPLINK_LATENCY,
        }
    }
}

/// Static shape of a multi-pod fleet: pods plus the uplinks joining them.
#[derive(Clone, Debug, Default)]
pub struct FleetTopology {
    /// Per-pod shapes.
    pub pods: Vec<PodTopology>,
    /// Inter-pod uplinks.
    pub links: Vec<CrossPodLink>,
}

impl FleetTopology {
    /// `n` identical pods joined in a ring (each pod uplinks to its
    /// successor) — the sparse Octopus-style fleet shape.
    pub fn ring(n: usize, pod: PodTopology, latency: SimDuration) -> Self {
        FleetTopology {
            pods: vec![pod; n],
            // A 2-pod "ring" is one link, not two parallel ones.
            links: (0..if n > 2 { n } else { n.saturating_sub(1) })
                .map(|i| CrossPodLink {
                    a: i,
                    b: (i + 1) % n,
                    latency,
                })
                .collect(),
        }
    }

    /// Pods adjacent to `pod`, with the one-way latency of the joining link
    /// (both link directions count; parallel links keep the cheapest).
    pub(crate) fn neighbors(&self, pod: usize) -> Vec<(usize, SimDuration)> {
        let mut out: Vec<(usize, SimDuration)> = Vec::new();
        for l in &self.links {
            let peer = if l.a == pod {
                l.b
            } else if l.b == pod {
                l.a
            } else {
                continue;
            };
            match out.iter_mut().find(|(p, _)| *p == peer) {
                Some(e) => e.1 = e.1.min(l.latency),
                None => out.push((peer, l.latency)),
            }
        }
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// The neighbor-pod spill order from `from`: every *other* reachable
    /// pod, nearest first by `(uplink hop count, total path latency, pod
    /// index)` — the deterministic tie-break the fleet allocator uses when
    /// a pod's own devices strand. Unreachable pods are absent; a fleet
    /// with no links spills nowhere.
    pub fn spill_order(&self, from: usize) -> Vec<SpillHop> {
        if from >= self.pods.len() {
            return Vec::new();
        }
        // Lexicographic Dijkstra on (hops, latency): a fleet is a handful of
        // pods, so the O(P^2) relaxation loop is simpler than a heap and
        // trivially deterministic.
        let n = self.pods.len();
        let mut dist: Vec<Option<(u32, SimDuration)>> = vec![None; n];
        let mut done = vec![false; n];
        dist[from] = Some((0, SimDuration::ZERO));
        while let Some(u) = (0..n)
            .filter(|&i| !done[i] && dist[i].is_some())
            .min_by_key(|&i| dist[i].map(|(h, l)| (h, l, i)))
        {
            done[u] = true;
            let (hops, lat) = match dist[u] {
                Some(d) => d,
                None => break,
            };
            for (peer, link_lat) in self.neighbors(u) {
                let cand = (hops + 1, lat + link_lat);
                if dist[peer].is_none_or(|d| cand < d) {
                    dist[peer] = Some(cand);
                }
            }
        }
        let mut order: Vec<SpillHop> = (0..n)
            .filter(|&p| p != from)
            .filter_map(|p| {
                dist[p].map(|(hops, latency)| SpillHop {
                    pod: p,
                    hops,
                    latency,
                })
            })
            .collect();
        order.sort_by_key(|h| (h.hops, h.latency, h.pod));
        order
    }
}

/// One entry in a pod's spill order: a reachable neighbor pod at a known
/// uplink distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillHop {
    /// The reachable pod.
    pub pod: usize,
    /// Uplink hops on the cheapest path.
    pub hops: u32,
    /// Total one-way latency along that path.
    pub latency: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_link_covers_table1_demand() {
        // Table 1 / §2.1: one NIC (26 GB/s) + six SSDs (5 GB/s each) = 56 GB/s.
        let pod = PodTopology::production(8, 1 << 30);
        let demand = 26e9 + 6.0 * 5e9;
        assert!(pod.link_sufficient_for(demand));
        // And even a 400 Gbps NIC (50 GB/s) plus SSDs fits in 64 lanes.
        assert!(pod.link_sufficient_for(50e9 + 6.0 * 5e9));
    }

    #[test]
    fn testbed_link_matches_one_100g_nic() {
        // §6: a x8 link (29.4 GB/s usable) is "a balanced match" for a
        // 100 Gbps NIC (12.5 GB/s per direction).
        let pod = PodTopology::testbed(1 << 30);
        assert!(pod.link_sufficient_for(12.5e9));
        assert!(!pod.link_sufficient_for(56e9), "x8 cannot carry a full pod");
    }

    #[test]
    fn link_bw_formula() {
        let pod = PodTopology::production(4, 0);
        assert!((pod.host_link_bw() - 64.0 * 4e9 * 0.92).abs() < 1.0);
    }

    #[test]
    fn testbed_x8_insufficient_for_table1_pod() {
        // Feasibility edge: the x8 testbed link carries one NIC but not the
        // full Table 1 device complement; production x64 carries both.
        let testbed = PodTopology::testbed(1 << 30);
        let production = PodTopology::production(8, 1 << 30);
        for demand in [26e9, 26e9 + 6.0 * 5e9] {
            assert!(production.link_sufficient_for(demand));
        }
        assert!(testbed.link_sufficient_for(12.5e9));
        assert!(!testbed.link_sufficient_for(26e9 + 6.0 * 5e9));
    }

    #[test]
    fn ring_link_counts() {
        let pod = PodTopology::production(2, 0);
        // 1 pod: no links; 2 pods: one link (not two parallel); n: a cycle.
        assert!(FleetTopology::ring(1, pod.clone(), UPLINK_LATENCY)
            .links
            .is_empty());
        assert_eq!(
            FleetTopology::ring(2, pod.clone(), UPLINK_LATENCY)
                .links
                .len(),
            1
        );
        assert_eq!(FleetTopology::ring(5, pod, UPLINK_LATENCY).links.len(), 5);
    }

    #[test]
    fn single_pod_fleet_has_unbounded_lookahead_and_no_spill() {
        let topo = FleetTopology::ring(1, PodTopology::production(4, 0), UPLINK_LATENCY);
        assert!(topo.spill_order(0).is_empty());
        assert!(topo.neighbors(0).is_empty());
    }

    #[test]
    fn disconnected_pod_is_absent_from_spill_orders() {
        // Pods 0-1 linked; pod 2 has no uplink at all.
        let mut topo = FleetTopology::ring(2, PodTopology::production(4, 0), UPLINK_LATENCY);
        topo.pods.push(PodTopology::production(4, 0));
        let from0: Vec<usize> = topo.spill_order(0).iter().map(|h| h.pod).collect();
        assert_eq!(from0, vec![1], "pod 2 is unreachable from pod 0");
        assert!(topo.spill_order(2).is_empty(), "pod 2 spills nowhere");
        // Lookahead still comes from the one real link.
    }

    #[test]
    fn spill_order_breaks_hop_ties_by_latency_then_index() {
        // Star: pod 0 links to 1, 2, 3 — all one hop, asymmetric latencies.
        let pod = PodTopology::production(4, 0);
        let topo = FleetTopology {
            pods: vec![pod.clone(), pod.clone(), pod.clone(), pod],
            links: vec![
                CrossPodLink {
                    a: 0,
                    b: 1,
                    latency: SimDuration::from_micros(9),
                },
                CrossPodLink {
                    a: 0,
                    b: 2,
                    latency: SimDuration::from_micros(2),
                },
                CrossPodLink {
                    a: 3,
                    b: 0,
                    latency: SimDuration::from_micros(2),
                },
            ],
        };
        let order: Vec<(usize, u32)> = topo
            .spill_order(0)
            .iter()
            .map(|h| (h.pod, h.hops))
            .collect();
        // Latency beats index (2 and 3 before 1); index breaks the 2-vs-3 tie.
        assert_eq!(order, vec![(2, 1), (3, 1), (1, 1)]);
    }

    #[test]
    fn spill_order_prefers_fewer_hops_over_lower_latency() {
        // 0-1-2 chain with cheap links, plus a direct but expensive 0-2
        // link: 2 is one hop from 0 via the direct link, so hop count (the
        // primary key) puts it at distance 1 even though the two-hop path
        // is lower latency.
        let pod = PodTopology::production(4, 0);
        let topo = FleetTopology {
            pods: vec![pod.clone(), pod.clone(), pod],
            links: vec![
                CrossPodLink {
                    a: 0,
                    b: 1,
                    latency: SimDuration::from_micros(1),
                },
                CrossPodLink {
                    a: 1,
                    b: 2,
                    latency: SimDuration::from_micros(1),
                },
                CrossPodLink {
                    a: 0,
                    b: 2,
                    latency: SimDuration::from_micros(50),
                },
            ],
        };
        let order: Vec<(usize, u32)> = topo
            .spill_order(0)
            .iter()
            .map(|h| (h.pod, h.hops))
            .collect();
        assert_eq!(order, vec![(1, 1), (2, 1)]);
        let h2 = topo.spill_order(0)[1];
        assert_eq!(
            h2.latency,
            SimDuration::from_micros(50),
            "direct link wins on hops"
        );
    }

    #[test]
    fn parallel_links_keep_the_cheapest_latency() {
        let pod = PodTopology::production(4, 0);
        let topo = FleetTopology {
            pods: vec![pod.clone(), pod],
            links: vec![
                CrossPodLink {
                    a: 0,
                    b: 1,
                    latency: SimDuration::from_micros(7),
                },
                CrossPodLink {
                    a: 1,
                    b: 0,
                    latency: SimDuration::from_micros(3),
                },
            ],
        };
        assert_eq!(topo.neighbors(0), vec![(1, SimDuration::from_micros(3))]);
        assert_eq!(topo.spill_order(1)[0].latency, SimDuration::from_micros(3));
    }

    #[test]
    fn symmetric_ring_ties_resolve_by_pod_index_at_every_hop() {
        // On a symmetric ring every link has the same latency, so within a
        // hop-count tier latency is also tied and only the pod index can
        // break the tie: the full (hops, latency, pod) key is exercised at
        // every tier, from every vantage pod.
        let n = 6;
        let topo = FleetTopology::ring(n, PodTopology::production(4, 0), UPLINK_LATENCY);
        for from in 0..n {
            let order = topo.spill_order(from);
            assert_eq!(order.len(), n - 1);
            for hop in &order {
                // Cheapest-path latency is exactly hops x the uniform
                // uplink latency.
                assert_eq!(hop.latency, UPLINK_LATENCY * hop.hops as u64);
            }
            // Tiers come out in ascending hop count, and inside each tier
            // (two pods everywhere except the antipode) ascending index.
            for pair in order.windows(2) {
                assert!(
                    (pair[0].hops, pair[0].latency, pair[0].pod)
                        < (pair[1].hops, pair[1].latency, pair[1].pod),
                    "from {from}: {pair:?} out of order"
                );
            }
            let one_hop: Vec<usize> = order
                .iter()
                .filter(|h| h.hops == 1)
                .map(|h| h.pod)
                .collect();
            let mut expected = vec![(from + n - 1) % n, (from + 1) % n];
            expected.sort_unstable();
            assert_eq!(one_hop, expected, "from {from}");
            // The antipode is alone in the last tier.
            assert_eq!(order.last().map(|h| h.pod), Some((from + n / 2) % n));
        }
    }

    #[test]
    fn ring_spill_order_is_symmetric_and_deterministic() {
        let topo = FleetTopology::ring(8, PodTopology::production(4, 0), UPLINK_LATENCY);
        let order = topo.spill_order(3);
        assert_eq!(order.len(), 7, "every other pod is reachable on a ring");
        // Immediate ring neighbors first (1 hop), lower index on ties.
        assert_eq!((order[0].pod, order[0].hops), (2, 1));
        assert_eq!((order[1].pod, order[1].hops), (4, 1));
        // Farthest pod on an 8-ring is 4 hops away.
        assert_eq!(order.last().map(|h| h.hops), Some(4));
        assert_eq!(topo.spill_order(3), order, "stable across calls");
    }
}
