//! Synthetic allocation traces and pod-aware placement.
//!
//! §2.2 Reason 1: a production allocation trace shows hosts filling up along
//! one dimension while others strand. Two mechanisms matter and both are
//! modelled:
//!
//! * instances are packed by CPU/memory, so device resources on CPU-full
//!   hosts cannot be allocated, and
//! * device requests are *chunky* (a storage-optimized instance wants
//!   terabytes of local SSD; a network-optimized one wants tens of Gbit/s),
//!   so free device capacity fragments: no single host can fit the request
//!   even though the rack has plenty.
//!
//! Pooling (§2.2, Fig. 2) attacks the second mechanism: an instance's
//! NIC/SSD request may be satisfied by *pod*-level capacity. Placement here
//! therefore takes a pod size: CPU/memory must fit on the chosen host,
//! NIC/SSD must fit in the host's pod.
//!
//! Placement is no longer hand-rolled here: every arrival and departure is
//! replayed as a typed [`FleetCommand`] through `oasis-core`'s replicated
//! [`FleetAllocator`] — the same control-plane path a live [`Fleet`] uses —
//! so the trace study and the runtime share one placement policy.
//! [`AllocTrace::place`] drives an *unlinked* fleet (one pod per
//! `pod_size` hosts, no uplinks), which reduces exactly to the pod-scoped
//! best-fit policy this module always implemented; [`AllocTrace::replay_fleet`]
//! replays against a linked [`FleetTopology`], letting stranded device
//! requests spill to the nearest neighbor pod.
//!
//! [`Fleet`]: oasis_core::fleet::Fleet

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oasis_core::allocator::{FleetAllocator, FleetCommand, FleetResponse, FleetState, ANY_POD};
use oasis_core::error::FleetError;
use oasis_core::snapshot::{SnapshotError, SnapshotReader, SnapshotSection, SnapshotWriter};
use oasis_cxl::topology::{FleetTopology, PodTopology};
use oasis_sim::rng::SimRng;
use oasis_sim::time::{SimDuration, SimTime};

/// One instance type in the catalog (an "SKU").
#[derive(Clone, Debug)]
pub struct InstanceType {
    /// Human-readable name.
    pub name: &'static str,
    /// vCPUs requested.
    pub vcpus: u32,
    /// Memory, GiB.
    pub mem_gb: u32,
    /// Local SSD capacity, GiB.
    pub ssd_gb: u32,
    /// NIC bandwidth allocation, Gbit/s.
    pub nic_gbps: f64,
    /// Relative popularity weight.
    pub weight: f64,
}

impl InstanceType {
    /// NIC allocation in integer Mbit/s — the form every control-plane
    /// command and integer integral consumes. The float multiply happens
    /// exactly here, once, on catalog constants, so downstream arithmetic
    /// is integer-only.
    pub fn nic_mbps(&self) -> u64 {
        (self.nic_gbps * 1000.0) as u64
    }
}

/// A catalog resembling public-cloud offerings. Most demand is
/// compute/memory bound; storage- and network-optimized SKUs make chunky
/// device requests that fragment per-host capacity.
pub fn azure_like_catalog() -> Vec<InstanceType> {
    vec![
        InstanceType {
            name: "gp-small",
            vcpus: 4,
            mem_gb: 16,
            ssd_gb: 0,
            nic_gbps: 2.0,
            weight: 20.0,
        },
        InstanceType {
            name: "gp-large",
            vcpus: 16,
            mem_gb: 64,
            ssd_gb: 200,
            nic_gbps: 8.0,
            weight: 14.0,
        },
        InstanceType {
            name: "compute-opt",
            vcpus: 32,
            mem_gb: 64,
            ssd_gb: 0,
            nic_gbps: 10.0,
            weight: 10.0,
        },
        InstanceType {
            name: "memory-opt",
            vcpus: 16,
            mem_gb: 128,
            ssd_gb: 100,
            nic_gbps: 8.0,
            weight: 10.0,
        },
        InstanceType {
            name: "storage-opt",
            vcpus: 8,
            mem_gb: 64,
            ssd_gb: 5500,
            nic_gbps: 16.0,
            weight: 24.0,
        },
        InstanceType {
            name: "net-opt",
            vcpus: 8,
            mem_gb: 32,
            ssd_gb: 200,
            nic_gbps: 45.0,
            weight: 12.0,
        },
        InstanceType {
            name: "burst-micro",
            vcpus: 2,
            mem_gb: 8,
            ssd_gb: 0,
            nic_gbps: 1.0,
            weight: 10.0,
        },
    ]
}

/// Per-host capacity. Defaults follow §2.1: dual-socket host with one
/// 100 Gbit NIC and six 2 TB NVMe drives.
#[derive(Clone, Copy, Debug)]
pub struct HostCapacity {
    /// vCPUs.
    pub vcpus: u32,
    /// Memory, GiB.
    pub mem_gb: u32,
    /// SSD capacity, GiB.
    pub ssd_gb: u32,
    /// NIC bandwidth, Gbit/s.
    pub nic_gbps: f64,
}

impl HostCapacity {
    /// Host NIC capacity in integer Mbit/s (see [`InstanceType::nic_mbps`]).
    pub fn nic_mbps(&self) -> u64 {
        (self.nic_gbps * 1000.0) as u64
    }
}

impl Default for HostCapacity {
    fn default() -> Self {
        HostCapacity {
            vcpus: 96,
            mem_gb: 512,
            ssd_gb: 6 * 2048,
            nic_gbps: 100.0,
        }
    }
}

/// One arrival in the request stream (placement-independent, so the same
/// stream can be replayed against different pod sizes).
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Arrival time, ns.
    pub at: u64,
    /// Departure time, ns.
    pub ends: u64,
    /// Index into the catalog.
    pub type_idx: usize,
}

/// A placement-independent request stream.
#[derive(Clone, Debug)]
pub struct ArrivalStream {
    /// The catalog the type indices refer to.
    pub catalog: Vec<InstanceType>,
    /// Arrivals sorted by time.
    pub arrivals: Vec<Arrival>,
    /// Stream horizon.
    pub duration: SimDuration,
}

impl ArrivalStream {
    /// Generate a stream sized to keep `hosts` hosts saturated (offered CPU
    /// demand ≈ 2× capacity, so the cluster is always full and stranding
    /// is visible).
    pub fn generate(hosts: usize, duration: SimDuration, seed: u64) -> ArrivalStream {
        Self::generate_with_load(hosts, duration, 2.0, seed)
    }

    /// Generate a stream with an explicit offered-load factor (offered CPU
    /// demand as a multiple of cluster CPU capacity). Use ~1.0 for the
    /// "utilized but not pegged" regime of the provisioning analysis.
    pub fn generate_with_load(
        hosts: usize,
        duration: SimDuration,
        load: f64,
        seed: u64,
    ) -> ArrivalStream {
        let catalog = azure_like_catalog();
        let cap = HostCapacity::default();
        let mut rng = SimRng::new(seed);
        let total_w: f64 = catalog.iter().map(|t| t.weight).sum();
        let mean_vcpus: f64 = catalog
            .iter()
            .map(|t| t.vcpus as f64 * t.weight / total_w)
            .sum();
        let mean_life = SimDuration::from_secs(3600);
        let target_concurrent = hosts as f64 * cap.vcpus as f64 * load / mean_vcpus;
        let gap = mean_life.as_nanos() as f64 / target_concurrent;

        let end = duration.as_nanos() as f64;
        let mut arrivals = Vec::new();
        let mut t = rng.exp(gap);
        while t < end {
            let mut pick = rng.f64() * total_w;
            let mut ti = 0;
            for (i, ty) in catalog.iter().enumerate() {
                if pick < ty.weight {
                    ti = i;
                    break;
                }
                pick -= ty.weight;
            }
            let life = rng.lognormal((mean_life.as_nanos() as f64).ln() - 0.5, 1.0);
            arrivals.push(Arrival {
                at: t as u64,
                ends: ((t + life).min(end)) as u64,
                type_idx: ti,
            });
            t += rng.exp(gap);
        }
        ArrivalStream {
            catalog,
            arrivals,
            duration,
        }
    }
}

/// One placed instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Index into the catalog.
    pub type_idx: usize,
    /// Arrival time.
    pub start: SimTime,
    /// Departure time.
    pub end: SimTime,
    /// Host the scheduler placed it on.
    pub host: usize,
}

/// A placement of a stream onto hosts (possibly with pooled devices).
#[derive(Clone, Debug)]
pub struct AllocTrace {
    /// The catalog the type indices refer to.
    pub catalog: Vec<InstanceType>,
    /// Host capacity used during placement.
    pub host_cap: HostCapacity,
    /// Number of hosts.
    pub hosts: usize,
    /// Pod size used for device pooling during placement (1 = no pooling).
    pub pod_size: usize,
    /// Placed instances.
    pub instances: Vec<Instance>,
    /// Requests rejected (no feasible host).
    pub rejected: usize,
    /// Trace horizon.
    pub duration: SimTime,
}

/// How a fleet replay picks the home-pod scope of each arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomePolicy {
    /// Any pod may run the instance (the classic trace-study scope): the
    /// allocator best-fits across the whole fleet, so devices only spill
    /// when every CPU/memory-feasible host sits in a device-exhausted pod.
    AnyPod,
    /// Arrivals are pinned round-robin to a home pod (tenant affinity):
    /// CPU/memory must fit in the home pod, and chunky device requests
    /// spill to the nearest linked neighbor when the home pod strands.
    RoundRobin,
}

/// One placed instance from a fleet replay, with full pod attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetPlacement {
    /// Index into the catalog.
    pub type_idx: usize,
    /// Arrival time.
    pub start: SimTime,
    /// Departure time.
    pub end: SimTime,
    /// Pod whose host runs the instance.
    pub pod: usize,
    /// Host index within `pod`.
    pub host: usize,
    /// Pod serving the device backends (== `pod` unless spilled).
    pub device_pod: usize,
}

/// The result of replaying an [`ArrivalStream`] through the fleet
/// control-plane command API.
#[derive(Clone, Debug)]
pub struct FleetReplay {
    /// The catalog the type indices refer to.
    pub catalog: Vec<InstanceType>,
    /// Host capacity used during placement.
    pub host_cap: HostCapacity,
    /// Hosts per pod, by pod index.
    pub pod_hosts: Vec<usize>,
    /// Placed instances.
    pub placements: Vec<FleetPlacement>,
    /// Requests rejected (no feasible host in scope).
    pub rejected: usize,
    /// Trace horizon.
    pub duration: SimTime,
    /// Final allocator state machine: every instance has been killed at
    /// its departure time, so the per-pod spill-traffic byte counters are
    /// fully closed out and `state.report().live == 0`.
    pub state: FleetState,
}

impl AllocTrace {
    /// Convenience: generate a stream and place it without pooling.
    pub fn generate(hosts: usize, duration: SimDuration, seed: u64) -> AllocTrace {
        let stream = ArrivalStream::generate(hosts, duration, seed);
        Self::place(&stream, hosts, 1)
    }

    /// Place a stream onto `hosts` hosts grouped into pods of `pod_size`.
    /// CPU/memory must fit on the chosen host; SSD/NIC must fit within the
    /// host's pod (this is what Oasis pooling enables). Placement is
    /// best-fit by CPU slack, which is how device resources get stranded.
    ///
    /// Implemented as a fleet replay against an *unlinked* topology: with
    /// no uplinks, spill is impossible and the fleet allocator's pass-1
    /// policy — best-fit `(vcpu slack, mem slack)` over hosts whose own
    /// pod can serve the devices, first minimum winning — is exactly this
    /// function's historical behavior, instance for instance.
    pub fn place(stream: &ArrivalStream, hosts: usize, pod_size: usize) -> AllocTrace {
        assert!(pod_size >= 1);
        let pods = hosts.div_ceil(pod_size);
        let topo = FleetTopology {
            pods: (0..pods)
                .map(|p| {
                    let lo = p * pod_size;
                    let hi = ((p + 1) * pod_size).min(hosts);
                    PodTopology::production(hi - lo, 0)
                })
                .collect(),
            links: Vec::new(),
        };
        let replay = Self::replay_fleet(stream, &topo, HomePolicy::AnyPod, 0)
            .expect("an unlinked fleet accepts every topology command");
        AllocTrace {
            catalog: replay.catalog,
            host_cap: replay.host_cap,
            hosts,
            pod_size,
            instances: replay
                .placements
                .iter()
                .map(|pl| Instance {
                    type_idx: pl.type_idx,
                    start: pl.start,
                    end: pl.end,
                    host: pl.pod * pod_size + pl.host,
                })
                .collect(),
            rejected: replay.rejected,
            duration: replay.duration,
        }
    }

    /// Replay a stream through the fleet control-plane command API against
    /// an arbitrary [`FleetTopology`]: every arrival becomes a
    /// `CreateInstance`, every departure a `KillInstance` (issued before
    /// any arrival at the same or a later time, matching the historical
    /// free-then-place order), and every `resize_every`-th placement a
    /// same-lease `ResizeInstance` renewal that exercises the resize path
    /// without perturbing capacity. All remaining instances are killed at
    /// their departure times after the last arrival, so cross-pod
    /// spill-traffic accounting in the returned state is complete.
    pub fn replay_fleet(
        stream: &ArrivalStream,
        topo: &FleetTopology,
        policy: HomePolicy,
        resize_every: usize,
    ) -> Result<FleetReplay, FleetError> {
        ReplaySession::new(stream, topo, policy, resize_every)?.finish()
    }

    /// Time-averaged allocated fraction of a resource across the whole
    /// cluster, measured over the steady-state window `[warmup, end]`.
    pub fn mean_allocated_fraction(
        &self,
        capacity_per_host: f64,
        resource: impl Fn(&InstanceType) -> f64,
    ) -> f64 {
        let end = self.duration.as_nanos();
        let warmup = end / 4;
        let window = (end - warmup) as f64;
        let provisioned = self.hosts as f64 * capacity_per_host;
        let mut acc = 0.0;
        for inst in &self.instances {
            let s = inst.start.as_nanos().max(warmup);
            let e = inst.end.as_nanos().min(end);
            if e > s {
                acc += resource(&self.catalog[inst.type_idx]) * (e - s) as f64;
            }
        }
        acc / window / provisioned
    }

    /// Peak concurrent demand of a resource on a set of hosts.
    pub fn peak_demand(&self, hosts: &[usize], resource: impl Fn(&InstanceType) -> f64) -> f64 {
        let mut events: Vec<(u64, f64)> = Vec::new();
        for inst in &self.instances {
            if hosts.contains(&inst.host) {
                let r = resource(&self.catalog[inst.type_idx]);
                events.push((inst.start.as_nanos(), r));
                events.push((inst.end.as_nanos(), -r));
            }
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));
        let mut cur = 0.0;
        let mut peak = 0.0f64;
        for (_, delta) in events {
            cur += delta;
            peak = peak.max(cur);
        }
        peak
    }
}

/// A resumable fleet replay: the identical command sequence to
/// [`AllocTrace::replay_fleet`], split into steps so a run can be stopped
/// at an epoch, serialized into the `oasis-core` snapshot container, and
/// resumed byte-identically later (DESIGN.md §15).
///
/// A checkpoint carries two sections: `FleetState` (the allocator's
/// applied state, via [`FleetAllocator::checkpoint`] — the restored
/// allocator treats it as its log-compaction base) and `ReplayCursor`
/// (a workload digest plus the replay loop's own working set: pending
/// departures, placements so far, the rejection tally, and the next
/// arrival index). The digest pins the checkpoint to one exact workload —
/// resuming against a different stream, topology, policy, or resize
/// cadence is a typed [`SnapshotError::StreamMismatch`], never a silently
/// diverging run.
pub struct ReplaySession<'a> {
    stream: &'a ArrivalStream,
    pod_hosts: Vec<usize>,
    policy: HomePolicy,
    resize_every: usize,
    alloc: FleetAllocator,
    /// Pending departures as a min-heap of (ends, fleet id).
    departures: BinaryHeap<Reverse<(u64, u64)>>,
    placements: Vec<FleetPlacement>,
    rejected: usize,
    /// Index of the first arrival not yet replayed.
    next_arrival: usize,
}

/// FNV-1a over one little-endian word (the digest primitive — cheap,
/// deterministic, and dependency-free).
fn fnv1a_u64(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl<'a> ReplaySession<'a> {
    /// Start a replay: registers every pod and link with a fresh fleet
    /// allocator, exactly as [`AllocTrace::replay_fleet`] always did.
    pub fn new(
        stream: &'a ArrivalStream,
        topo: &FleetTopology,
        policy: HomePolicy,
        resize_every: usize,
    ) -> Result<ReplaySession<'a>, FleetError> {
        let cap = HostCapacity::default();
        let nic_mbps_per_host = cap.nic_mbps();
        let mut alloc = FleetAllocator::new();
        for (p, pod) in topo.pods.iter().enumerate() {
            alloc.execute(
                SimTime::ZERO,
                &FleetCommand::RegisterPod {
                    pod: p as u32,
                    hosts: pod.hosts as u32,
                    vcpus_per_host: cap.vcpus,
                    mem_gb_per_host: cap.mem_gb,
                    nic_mbps: pod.hosts as u64 * nic_mbps_per_host,
                    ssd_cap: pod.hosts as u64 * cap.ssd_gb as u64,
                },
            )?;
        }
        for l in &topo.links {
            alloc.execute(
                SimTime::ZERO,
                &FleetCommand::AddLink {
                    a: l.a as u32,
                    b: l.b as u32,
                    latency_ns: l.latency.as_nanos(),
                },
            )?;
        }
        Ok(ReplaySession {
            stream,
            pod_hosts: topo.pods.iter().map(|p| p.hosts).collect(),
            policy,
            resize_every,
            alloc,
            departures: BinaryHeap::new(),
            placements: Vec::new(),
            rejected: 0,
            next_arrival: 0,
        })
    }

    /// Digest pinning a checkpoint to one workload: every arrival triple,
    /// the pod sizes, the home policy, and the resize cadence.
    pub fn workload_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a_u64(h, self.stream.arrivals.len() as u64);
        for arr in &self.stream.arrivals {
            h = fnv1a_u64(h, arr.at);
            h = fnv1a_u64(h, arr.ends);
            h = fnv1a_u64(h, arr.type_idx as u64);
        }
        for &p in &self.pod_hosts {
            h = fnv1a_u64(h, p as u64);
        }
        h = fnv1a_u64(
            h,
            match self.policy {
                HomePolicy::AnyPod => 0,
                HomePolicy::RoundRobin => 1,
            },
        );
        fnv1a_u64(h, self.resize_every as u64)
    }

    /// Replay one arrival (first killing every lease that departs at or
    /// before it). Returns `false` once the stream is exhausted.
    fn step(&mut self) -> Result<bool, FleetError> {
        let Some(arr) = self.stream.arrivals.get(self.next_arrival).copied() else {
            return Ok(false);
        };
        let i = self.next_arrival;
        self.next_arrival += 1;
        let now = SimTime::from_nanos(arr.at);
        while let Some(&Reverse((ends, id))) = self.departures.peek() {
            if ends > arr.at {
                break;
            }
            self.departures.pop();
            self.alloc
                .execute(now, &FleetCommand::KillInstance { at: ends, id })?;
        }
        let ty = &self.stream.catalog[arr.type_idx];
        let nic_mbps = ty.nic_mbps() as u32;
        let npods = self.pod_hosts.len().max(1);
        let home_pod = match self.policy {
            HomePolicy::AnyPod => ANY_POD,
            HomePolicy::RoundRobin => (i % npods) as u32,
        };
        let outcome = self.alloc.execute(
            now,
            &FleetCommand::CreateInstance {
                at: arr.at,
                vcpus: ty.vcpus,
                mem_gb: ty.mem_gb,
                ssd: ty.ssd_gb,
                nic_mbps,
                home_pod,
            },
        )?;
        match outcome {
            FleetResponse::Created {
                id,
                pod,
                host,
                device_pod,
            } => {
                self.departures.push(Reverse((arr.ends, id)));
                self.placements.push(FleetPlacement {
                    type_idx: arr.type_idx,
                    start: now,
                    end: SimTime::from_nanos(arr.ends),
                    pod,
                    host,
                    device_pod,
                });
                if self.resize_every > 0 && (id + 1) % self.resize_every as u64 == 0 {
                    self.alloc.execute(
                        now,
                        &FleetCommand::ResizeInstance {
                            at: arr.at,
                            id,
                            nic_mbps,
                            ssd: ty.ssd_gb,
                        },
                    )?;
                }
            }
            _ => self.rejected += 1,
        }
        Ok(true)
    }

    /// Replay every arrival with `at <= epoch_ns`, then stop. Leases
    /// departing after the last replayed arrival stay pending — they are
    /// part of the checkpoint and are killed on the resumed (or
    /// continued) run exactly when the uninterrupted run would kill them.
    pub fn run_to_epoch(&mut self, epoch_ns: u64) -> Result<(), FleetError> {
        while self
            .stream
            .arrivals
            .get(self.next_arrival)
            .is_some_and(|a| a.at <= epoch_ns)
        {
            self.step()?;
        }
        Ok(())
    }

    /// Replay the rest of the stream, close every remaining lease at its
    /// departure time, and return the completed [`FleetReplay`].
    pub fn finish(mut self) -> Result<FleetReplay, FleetError> {
        while self.step()? {}
        while let Some(Reverse((ends, id))) = self.departures.pop() {
            self.alloc.execute(
                SimTime::from_nanos(ends),
                &FleetCommand::KillInstance { at: ends, id },
            )?;
        }
        Ok(FleetReplay {
            catalog: self.stream.catalog.clone(),
            host_cap: HostCapacity::default(),
            pod_hosts: self.pod_hosts,
            placements: self.placements,
            rejected: self.rejected,
            duration: SimTime::ZERO + self.stream.duration,
            state: self.alloc.state.clone(),
        })
    }

    /// Read access to the embedded allocator (consistency checks).
    pub fn allocator(&self) -> &FleetAllocator {
        &self.alloc
    }

    /// Serialize the paused replay into the snapshot container.
    /// Byte-stable: the same paused state always checkpoints to the same
    /// bytes (the departure heap is canonicalized by sorting).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::FleetState);
        self.alloc.checkpoint(&mut w);
        w.end_section();
        w.begin_section(SnapshotSection::ReplayCursor);
        w.put_u64(self.workload_digest());
        w.put_u64(self.next_arrival as u64);
        w.put_u64(self.rejected as u64);
        let mut pending: Vec<(u64, u64)> = self.departures.iter().map(|&Reverse(p)| p).collect();
        pending.sort_unstable();
        w.put_u64(pending.len() as u64);
        for (ends, id) in pending {
            w.put_u64(ends);
            w.put_u64(id);
        }
        w.put_u64(self.placements.len() as u64);
        for pl in &self.placements {
            w.put_u64(pl.type_idx as u64);
            w.put_u64(pl.start.as_nanos());
            w.put_u64(pl.end.as_nanos());
            w.put_u32(pl.pod as u32);
            w.put_u32(pl.host as u32);
            w.put_u32(pl.device_pod as u32);
        }
        w.end_section();
        w.finish()
    }

    /// Resume a checkpointed replay against the same workload. The
    /// allocator restores the `FleetState` section as its compaction
    /// base (so `consistent_with_log` keeps holding with the
    /// pre-checkpoint log gone), and the cursor section re-arms the
    /// replay loop. A digest mismatch — different stream, topology,
    /// policy, or resize cadence — is a typed error.
    pub fn resume(
        stream: &'a ArrivalStream,
        topo: &FleetTopology,
        policy: HomePolicy,
        resize_every: usize,
        bytes: &[u8],
    ) -> Result<ReplaySession<'a>, SnapshotError> {
        let mut session = ReplaySession {
            stream,
            pod_hosts: topo.pods.iter().map(|p| p.hosts).collect(),
            policy,
            resize_every,
            alloc: FleetAllocator::new(),
            departures: BinaryHeap::new(),
            placements: Vec::new(),
            rejected: 0,
            next_arrival: 0,
        };
        let mut r = SnapshotReader::open(bytes)?;
        let mut st = r.section(SnapshotSection::FleetState)?;
        session.alloc.restore(&mut st)?;
        let mut cur = r.section(SnapshotSection::ReplayCursor)?;
        let want = cur.u64("replay digest")?;
        let got = session.workload_digest();
        if want != got {
            return Err(SnapshotError::StreamMismatch { want, got });
        }
        let next = cur.u64("replay next arrival")? as usize;
        if next > stream.arrivals.len() {
            return Err(SnapshotError::Corrupt("replay next arrival"));
        }
        session.next_arrival = next;
        session.rejected = cur.u64("replay rejected")? as usize;
        let pending = cur.u64("replay departure count")?;
        let mut prev: Option<(u64, u64)> = None;
        for _ in 0..pending {
            let ends = cur.u64("replay departure ends")?;
            let id = cur.u64("replay departure id")?;
            if prev.is_some_and(|p| p >= (ends, id)) {
                return Err(SnapshotError::Corrupt("replay departure order"));
            }
            prev = Some((ends, id));
            session.departures.push(Reverse((ends, id)));
        }
        let placed = cur.u64("replay placement count")?;
        for _ in 0..placed {
            let type_idx = cur.u64("replay placement type")? as usize;
            if type_idx >= stream.catalog.len() {
                return Err(SnapshotError::Corrupt("replay placement type"));
            }
            let start = cur.u64("replay placement start")?;
            let end = cur.u64("replay placement end")?;
            let pod = cur.u32("replay placement pod")? as usize;
            let host = cur.u32("replay placement host")? as usize;
            let device_pod = cur.u32("replay placement device pod")? as usize;
            session.placements.push(FleetPlacement {
                type_idx,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
                pod,
                host,
                device_pod,
            });
        }
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> ArrivalStream {
        ArrivalStream::generate(16, SimDuration::from_secs(3 * 3600), 42)
    }

    #[test]
    fn cluster_fills_and_rejects() {
        let t = AllocTrace::place(&stream(), 16, 1);
        assert!(!t.instances.is_empty());
        assert!(t.rejected > 0, "cluster must reach saturation");
        assert!(t.instances.iter().all(|i| i.host < t.hosts));
        assert!(t.instances.iter().all(|i| i.start <= i.end));
    }

    #[test]
    fn devices_strand_harder_than_cpu() {
        let t = AllocTrace::place(&stream(), 16, 1);
        let cap = t.host_cap;
        let cpu = t.mean_allocated_fraction(cap.vcpus as f64, |ty| ty.vcpus as f64);
        let nic = t.mean_allocated_fraction(cap.nic_gbps, |ty| ty.nic_gbps);
        let ssd = t.mean_allocated_fraction(cap.ssd_gb as f64, |ty| ty.ssd_gb as f64);
        assert!(cpu > 0.80, "cpu allocated {cpu}");
        assert!(nic < cpu, "nic {nic} vs cpu {cpu}");
        assert!(ssd < cpu, "ssd {ssd} vs cpu {cpu}");
    }

    #[test]
    fn pooling_reduces_rejections() {
        let s = stream();
        let unpooled = AllocTrace::place(&s, 16, 1);
        let pooled = AllocTrace::place(&s, 16, 8);
        assert!(
            pooled.rejected < unpooled.rejected,
            "pooled {} vs unpooled {}",
            pooled.rejected,
            unpooled.rejected
        );
    }

    #[test]
    fn pooling_never_violates_pod_capacity() {
        let s = stream();
        let t = AllocTrace::place(&s, 16, 4);
        let cap = t.host_cap;
        for pod in 0..4 {
            let hosts: Vec<usize> = (pod * 4..(pod + 1) * 4).collect();
            let peak_ssd = t.peak_demand(&hosts, |ty| ty.ssd_gb as f64);
            let peak_nic = t.peak_demand(&hosts, |ty| ty.nic_gbps);
            assert!(peak_ssd <= 4.0 * cap.ssd_gb as f64 + 1e-9);
            assert!(peak_nic <= 4.0 * cap.nic_gbps + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AllocTrace::generate(8, SimDuration::from_secs(3600), 9);
        let b = AllocTrace::generate(8, SimDuration::from_secs(3600), 9);
        assert_eq!(a.instances.len(), b.instances.len());
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn fleet_replay_closes_every_lease_and_renews() {
        let topo = FleetTopology::ring(
            4,
            PodTopology::production(4, 0),
            oasis_cxl::topology::UPLINK_LATENCY,
        );
        let r = AllocTrace::replay_fleet(&stream(), &topo, HomePolicy::RoundRobin, 16)
            .expect("ring topology is valid");
        let report = r.state.report();
        assert_eq!(report.live, 0, "every instance killed at its departure");
        assert_eq!(report.placed as usize, r.placements.len());
        assert!(r.state.resizes > 0, "renewal resizes were exercised");
        assert_eq!(
            r.state.resize_rejections, 0,
            "same-lease renewals always fit"
        );
    }

    #[test]
    fn pinned_homes_spill_over_links_but_not_without_them() {
        let s = stream();
        let pod = PodTopology::production(4, 0);
        let unlinked = FleetTopology {
            pods: vec![pod.clone(); 4],
            links: Vec::new(),
        };
        let ring = FleetTopology::ring(4, pod, oasis_cxl::topology::UPLINK_LATENCY);
        let a = AllocTrace::replay_fleet(&s, &unlinked, HomePolicy::RoundRobin, 0)
            .expect("unlinked topology is valid");
        let b = AllocTrace::replay_fleet(&s, &ring, HomePolicy::RoundRobin, 0)
            .expect("ring topology is valid");
        assert_eq!(a.state.report().spill_placements, 0);
        assert_eq!(a.state.report().spill_bytes, 0);
        assert!(
            b.state.report().spill_placements > 0,
            "saturated pinned homes must spill devices over the ring"
        );
        assert!(b.state.report().spill_bytes > 0);
        // Spilled placements run on their home pod and are attributed there.
        assert!(b.placements.iter().any(|p| p.device_pod != p.pod));
    }

    #[test]
    fn fleet_replay_is_deterministic() {
        let topo = FleetTopology::ring(
            3,
            PodTopology::production(5, 0),
            oasis_cxl::topology::UPLINK_LATENCY,
        );
        let a = AllocTrace::replay_fleet(&stream(), &topo, HomePolicy::RoundRobin, 7)
            .expect("ring topology is valid");
        let b = AllocTrace::replay_fleet(&stream(), &topo, HomePolicy::RoundRobin, 7)
            .expect("ring topology is valid");
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let s = stream();
        let topo = FleetTopology::ring(
            3,
            PodTopology::production(5, 0),
            oasis_cxl::topology::UPLINK_LATENCY,
        );
        let full = AllocTrace::replay_fleet(&s, &topo, HomePolicy::RoundRobin, 7)
            .expect("ring topology is valid");

        // Stop at the stream midpoint, checkpoint, resume, finish.
        let mut session = ReplaySession::new(&s, &topo, HomePolicy::RoundRobin, 7).unwrap();
        session
            .run_to_epoch(s.duration.as_nanos() / 2)
            .expect("first half replays");
        let bytes = session.checkpoint();
        assert_eq!(bytes, session.checkpoint(), "checkpoint is byte-stable");
        drop(session);
        let resumed = ReplaySession::resume(&s, &topo, HomePolicy::RoundRobin, 7, &bytes)
            .expect("checkpoint resumes");
        assert!(
            resumed.allocator().consistent_with_log(),
            "restored base + empty log must stay consistent"
        );
        let half = resumed.finish().expect("second half replays");

        assert_eq!(half.placements, full.placements);
        assert_eq!(half.rejected, full.rejected);
        assert_eq!(half.state, full.state, "final state diverged after resume");
    }

    #[test]
    fn resume_rejects_a_different_workload() {
        let s = stream();
        let topo = FleetTopology::ring(
            3,
            PodTopology::production(5, 0),
            oasis_cxl::topology::UPLINK_LATENCY,
        );
        let mut session = ReplaySession::new(&s, &topo, HomePolicy::RoundRobin, 7).unwrap();
        session.run_to_epoch(s.duration.as_nanos() / 2).unwrap();
        let bytes = session.checkpoint();

        // Different seed → different arrivals → digest mismatch.
        let other = ArrivalStream::generate(16, SimDuration::from_secs(3 * 3600), 43);
        match ReplaySession::resume(&other, &topo, HomePolicy::RoundRobin, 7, &bytes) {
            Err(oasis_core::snapshot::SnapshotError::StreamMismatch { .. }) => {}
            other => panic!("expected StreamMismatch, got {:?}", other.err()),
        }
        // Same stream, different resize cadence: also a mismatch.
        match ReplaySession::resume(&s, &topo, HomePolicy::RoundRobin, 8, &bytes) {
            Err(oasis_core::snapshot::SnapshotError::StreamMismatch { .. }) => {}
            other => panic!("expected StreamMismatch, got {:?}", other.err()),
        }
        // Garbage is a typed error, not a panic.
        assert!(ReplaySession::resume(&s, &topo, HomePolicy::RoundRobin, 7, b"junk").is_err());
    }

    #[test]
    fn catalog_is_heterogeneous_and_fits_hosts() {
        let cat = azure_like_catalog();
        assert!(cat.iter().any(|t| t.ssd_gb == 0));
        assert!(cat.iter().any(|t| t.ssd_gb > 1000));
        let cap = HostCapacity::default();
        for t in &cat {
            assert!(t.vcpus <= cap.vcpus && t.mem_gb <= cap.mem_gb);
            assert!(t.ssd_gb <= cap.ssd_gb && t.nic_gbps <= cap.nic_gbps);
        }
    }
}
