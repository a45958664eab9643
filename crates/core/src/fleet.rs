//! Multi-pod fleets: pods as shards under conservative-window parallelism.
//!
//! Octopus-style deployments (PAPERS.md) connect many sparsely-linked pods:
//! each pod's devices are pooled over CXL internally, and pods talk to each
//! other only over Ethernet uplinks through the row fabric. That sparseness
//! is exactly the structure the sharded runner (`oasis_sim::shard`)
//! exploits: each pod is one shard with its own deterministic scheduler,
//! and the minimum uplink latency (exposed by
//! [`oasis_cxl::topology::FleetTopology`]) is the conservative lookahead
//! bounding how far pods can advance between barriers.
//!
//! A frame leaving pod A for pod B egresses A's switch on an uplink port
//! (standard L2: unknown destinations flood to the uplink, remote source
//! MACs are learned from uplink ingress), crosses the link in
//! `latency`, and enters B's switch on the peer uplink port. Because
//! `latency >= lookahead`, the delivery always lands in a later window than
//! the send — the runner's exchange is safe and deterministic.
//!
//! Pods in one fleet share an L2 domain over the uplinks, so each must be
//! built with a distinct [`crate::pod::PodBuilder::site`] to keep NIC MACs
//! and instance IPs fleet-unique; colliding MACs confuse switch learning
//! exactly as they would on real hardware — which is why [`Fleet::add_pod`]
//! rejects a site collision with a typed [`FleetError`] instead of letting
//! the corruption happen silently.
//!
//! The fleet also carries the control plane: every pod added registers its
//! capacity with an embedded [`FleetAllocator`], links registered by
//! [`Fleet::connect`] flow through the same replicated log, and
//! [`Fleet::execute`] accepts the typed [`FleetCommand`] API
//! (create/resize/kill/query) so experiments drive placement through
//! commands instead of hard-coded setup.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use oasis_sim::shard::{self, Envelope, Outgoing, ShardError, ShardWorld, ShardedRunner};
use oasis_sim::time::{SimDuration, SimTime};

use crate::allocator::{
    FleetAllocator, FleetCommand, FleetResponse, MigrationOutcome, PrecopyModel, TransferPath,
    ANY_POD,
};
use crate::error::FleetError;
use crate::instance::AppKind;
use crate::pod::{Pod, PodInput, UplinkMsg};

/// Where one pod-local uplink leads: the peer pod and the uplink index
/// *within that peer* on which frames arrive.
#[derive(Clone, Copy, Debug)]
struct UplinkRoute {
    dst_pod: usize,
    dst_uplink: usize,
    latency: SimDuration,
}

/// One pod plus its uplink routing table — the fleet's shard unit.
pub struct PodShard {
    /// The wrapped pod.
    pub pod: Pod,
    /// Route of each local uplink index.
    routes: Vec<UplinkRoute>,
}

impl ShardWorld for PodShard {
    type Msg = UplinkMsg;

    fn next_time(&self) -> SimTime {
        self.pod.next_activity()
    }

    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<UplinkMsg>>,
        outbox: &mut Vec<Outgoing<UplinkMsg>>,
    ) -> u64 {
        // Inbox is (at, src, seq)-sorted; the event queue is FIFO on ties,
        // so arrival order on the pod's timeline is deterministic.
        for env in inbox.drain(..) {
            let (uplink, frame) = env.msg;
            self.pod
                .schedule(env.at, PodInput::UplinkFrame(uplink, frame));
        }
        let events = self.pod.run_local(until);
        for (at, uplink, frame) in self.pod.uplink_out.drain(..) {
            let r = self.routes[uplink];
            outbox.push(Outgoing {
                dst: r.dst_pod,
                at: at + r.latency,
                msg: (r.dst_uplink, frame),
            });
        }
        events
    }
}

/// A set of pods advanced in lockstep lookahead windows, in parallel when
/// `OASIS_SHARD_THREADS` allows. Simulated output is byte-identical at any
/// thread count.
pub struct Fleet {
    shards: Vec<PodShard>,
    runner: Option<ShardedRunner<UplinkMsg>>,
    threads: usize,
    min_latency: Option<SimDuration>,
    allocator: FleetAllocator,
    /// Pre-copy timing model for live migrations (tunable before the
    /// first migration; `migrate_bench` sweeps it).
    pub precopy: PrecopyModel,
    // Per-transfer-path migration tallies, indexed by the path's wire
    // byte (0 = CXL, 1 = NIC); exported through `metrics_snapshot`.
    migration_rounds: [u64; 2],
    migration_bytes: [u64; 2],
    migration_pause: [u64; 2],
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// An empty fleet; worker threads come from `OASIS_SHARD_THREADS`.
    pub fn new() -> Self {
        Self::with_threads(shard::threads_from_env())
    }

    /// An empty fleet with an explicit worker thread count.
    pub fn with_threads(threads: usize) -> Self {
        Fleet {
            shards: Vec::new(),
            runner: None,
            threads: threads.max(1),
            min_latency: None,
            allocator: FleetAllocator::new(),
            precopy: PrecopyModel::default(),
            migration_rounds: [0; 2],
            migration_bytes: [0; 2],
            migration_pause: [0; 2],
        }
    }

    /// Default per-host vCPU capacity registered with the fleet allocator
    /// (matches the §2.1 dual-socket host the traces assume).
    pub const VCPUS_PER_HOST: u32 = 96;
    /// Default per-host memory capacity in GB.
    pub const MEM_GB_PER_HOST: u32 = 512;

    /// Add a pod to the fleet and register its capacity with the fleet
    /// allocator. Returns its pod index. Pods must be added (and
    /// connected) before the first `run`.
    ///
    /// Rejects a [`crate::pod::PodBuilder::site`] collision: sites feed
    /// the upper bits of every NIC MAC and instance IP, so two pods on the
    /// same site would silently corrupt uplink switch learning.
    pub fn add_pod(&mut self, pod: Pod) -> Result<usize, FleetError> {
        assert!(self.runner.is_none(), "fleet topology is fixed after run");
        let site = pod.site();
        for (i, s) in self.shards.iter().enumerate() {
            if s.pod.site() == site {
                return Err(FleetError::DuplicateSite { site, pod: i });
            }
        }
        let idx = self.shards.len();
        let (nic_mbps, ssd_cap) = pod.allocator.actor.books().capacity_summary();
        self.allocator.execute(
            SimTime::ZERO,
            &FleetCommand::RegisterPod {
                pod: idx as u32,
                hosts: pod.hosts() as u32,
                vcpus_per_host: Self::VCPUS_PER_HOST,
                mem_gb_per_host: Self::MEM_GB_PER_HOST,
                nic_mbps,
                ssd_cap,
            },
        )?;
        self.shards.push(PodShard {
            pod,
            routes: Vec::new(),
        });
        Ok(idx)
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.shards.len()
    }

    /// Shared access to a pod.
    pub fn pod(&self, i: usize) -> &Pod {
        &self.shards[i].pod
    }

    /// Join pods `a` and `b` with a bidirectional uplink of the given
    /// one-way latency. Allocates an uplink switch port on both pods and
    /// registers the link with the fleet allocator (updating spill
    /// orders). Self-links, unknown pods, and duplicate links (in either
    /// direction) are rejected with a typed error.
    pub fn connect(&mut self, a: usize, b: usize, latency: SimDuration) -> Result<(), FleetError> {
        assert!(self.runner.is_none(), "fleet topology is fixed after run");
        self.allocator.execute(
            SimTime::ZERO,
            &FleetCommand::AddLink {
                a: a as u32,
                b: b as u32,
                latency_ns: latency.as_nanos(),
            },
        )?;
        let ua = self.shards[a].pod.add_uplink();
        let ub = self.shards[b].pod.add_uplink();
        self.shards[a].routes.push(UplinkRoute {
            dst_pod: b,
            dst_uplink: ub,
            latency,
        });
        self.shards[b].routes.push(UplinkRoute {
            dst_pod: a,
            dst_uplink: ua,
            latency,
        });
        self.min_latency = Some(self.min_latency.map_or(latency, |m| m.min(latency)));
        Ok(())
    }

    /// The embedded fleet allocator (placement state, spill accounting,
    /// log-consistency checks).
    pub fn allocator(&self) -> &FleetAllocator {
        &self.allocator
    }

    /// Execute a typed control-plane command against the fleet.
    ///
    /// `CreateInstance` / `ResizeInstance` / `KillInstance` /
    /// `QueryFleetState` flow through the replicated fleet allocator; a
    /// successful create additionally launches a live instance (with
    /// [`AppKind::None`]) on the chosen pod and host, rolling the
    /// placement back if the pod-local launch fails. Topology commands are
    /// managed by [`Fleet::add_pod`] / [`Fleet::connect`] and rejected
    /// here. Kills release fleet-level capacity; the pod runtime keeps the
    /// instance's datapath wired (tearing that down mid-run is future
    /// work), which matches how the replay measures stranding.
    ///
    /// `MigrateInstance` runs the full driver
    /// ([`Fleet::migrate_instance`]): ticket, modeled pre-copy, target
    /// launch, and the finishing command — commit on success,
    /// compensating abort on a target-side launch failure. A raw
    /// `FinishMigration` passes through to the allocator untouched so
    /// replay and chaos harnesses can drive the two phases separately.
    pub fn execute(
        &mut self,
        now: SimTime,
        cmd: &FleetCommand,
    ) -> Result<FleetResponse, FleetError> {
        match *cmd {
            FleetCommand::RegisterPod { .. } | FleetCommand::AddLink { .. } => {
                Err(FleetError::TopologyManaged)
            }
            FleetCommand::CreateInstance { nic_mbps, .. } => {
                assert!(self.runner.is_none(), "fleet topology is fixed after run");
                let resp = self.allocator.execute(now, cmd)?;
                if let FleetResponse::Created { id, pod, host, .. } = resp {
                    self.launch_created(now, (id, pod, host), AppKind::None, nic_mbps)?;
                }
                Ok(resp)
            }
            FleetCommand::MigrateInstance {
                id, dst_pod, path, ..
            } => {
                self.migrate_instance(now, id, dst_pod as usize, path)?;
                Ok(FleetResponse::MigrationFinished {
                    id,
                    committed: true,
                })
            }
            _ => self.allocator.execute(now, cmd),
        }
    }

    /// Live-migrate instance `id` to `dst_pod` over `path`, end to end:
    ///
    /// 1. **Validate → propose → apply** `MigrateInstance` through the
    ///    raft-logged command API, opening a [`MigrationTicket`] that
    ///    reserves the target-side capacity (source capacity stays held —
    ///    the dual hold is what makes both outcomes safe).
    /// 2. **Pre-copy** the instance state over the chosen path with the
    ///    fleet's [`PrecopyModel`], accumulating the per-path
    ///    `core.fleet_migration_*` transfer tallies.
    /// 3. **Land** the instance on the reserved target host
    ///    ([`Pod::try_launch_instance`], [`AppKind::None`] — migrated
    ///    instances re-attach their app out of band, like created ones).
    /// 4. **Finish** at `now + total_ns` of modeled sim-time:
    ///    `FinishMigration { commit: true }` on success, or — if the
    ///    target pod's devices turn out too fragmented for the lease —
    ///    the compensating `FinishMigration { commit: false }`, which
    ///    releases only the target reservation and leaves the source
    ///    serving, exactly like `CreateInstance`'s kill-on-launch-failure
    ///    rollback.
    ///
    /// Returns the modeled [`MigrationOutcome`] (rounds, bytes, pause) on
    /// commit. The source pod keeps the old datapath wired, matching how
    /// kills behave in the runtime.
    ///
    /// [`MigrationTicket`]: crate::allocator::MigrationTicket
    pub fn migrate_instance(
        &mut self,
        now: SimTime,
        id: u64,
        dst_pod: usize,
        path: TransferPath,
    ) -> Result<MigrationOutcome, FleetError> {
        assert!(self.runner.is_none(), "fleet topology is fixed after run");
        let inst = self
            .allocator
            .state
            .instances
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or(FleetError::NoSuchInstance(id))?;
        let resp = self.allocator.execute(
            now,
            &FleetCommand::MigrateInstance {
                at: now.as_nanos(),
                id,
                dst_pod: dst_pod as u32,
                path,
            },
        )?;
        let FleetResponse::MigrationStarted {
            dst_pod, dst_host, ..
        } = resp
        else {
            // The replicated apply is stricter than `execute`'s validation
            // only if state changed between the two — impossible with a
            // single replica, but degrade to the typed error regardless.
            return Err(FleetError::MigrationInfeasible { id, dst_pod });
        };
        let outcome = self
            .precopy
            .run(path, inst.vcpus, inst.mem_gb, inst.nic_mbps);
        let tag = path.to_byte() as usize;
        self.migration_rounds[tag] =
            self.migration_rounds[tag].saturating_add(outcome.rounds as u64);
        self.migration_bytes[tag] = self.migration_bytes[tag].saturating_add(outcome.bytes_moved);
        self.migration_pause[tag] = self.migration_pause[tag].saturating_add(outcome.pause_ns);
        let done = now + SimDuration::from_nanos(outcome.total_ns);
        match self.shards[dst_pod]
            .pod
            .try_launch_instance(dst_host, AppKind::None, inst.nic_mbps)
        {
            Ok(_) => {
                self.allocator.execute(
                    done,
                    &FleetCommand::FinishMigration {
                        at: done.as_nanos(),
                        id,
                        commit: true,
                    },
                )?;
                Ok(outcome)
            }
            Err(e) => {
                // Compensating rollback: release the target reservation;
                // the source never stopped holding its resources.
                self.allocator.execute(
                    done,
                    &FleetCommand::FinishMigration {
                        at: done.as_nanos(),
                        id,
                        commit: false,
                    },
                )?;
                Err(FleetError::Pod(e))
            }
        }
    }

    /// Place and launch a live instance through the control plane,
    /// choosing pod and host via the fleet allocator. Placement rejection
    /// surfaces as [`FleetError::NoCapacity`].
    #[expect(
        clippy::too_many_arguments,
        reason = "the parameter list mirrors the CreateInstance wire fields one-for-one"
    )]
    pub fn create_instance(
        &mut self,
        now: SimTime,
        app: AppKind,
        vcpus: u32,
        mem_gb: u32,
        ssd: u32,
        nic_mbps: u32,
        home_pod: Option<usize>,
    ) -> Result<(u64, usize, usize), FleetError> {
        assert!(self.runner.is_none(), "fleet topology is fixed after run");
        let cmd = FleetCommand::CreateInstance {
            at: now.as_nanos(),
            vcpus,
            mem_gb,
            ssd,
            nic_mbps,
            home_pod: home_pod.map_or(ANY_POD, |p| p as u32),
        };
        let resp = self.allocator.execute(now, &cmd)?;
        let FleetResponse::Created { id, pod, host, .. } = resp else {
            return Err(FleetError::NoCapacity);
        };
        let inst = self.launch_created(now, (id, pod, host), app, nic_mbps)?;
        Ok((id, pod, inst))
    }

    /// Launch instance `id`, created on `(pod, host)`, on its pod. When the
    /// pod refuses — placement fit the capacity summary but its devices are
    /// too fragmented (no single NIC has the lease spare) — undo it.
    fn launch_created(
        &mut self,
        now: SimTime,
        (id, pod, host): (u64, usize, usize),
        app: AppKind,
        nic_mbps: u32,
    ) -> Result<usize, FleetError> {
        let launched = self.shards[pod]
            .pod
            .try_launch_instance(host, app, nic_mbps);
        launched.or_else(|e| {
            let kill = FleetCommand::KillInstance {
                at: now.as_nanos(),
                id,
            };
            self.allocator.execute(now, &kill)?;
            Err(FleetError::Pod(e))
        })
    }

    /// The conservative lookahead: the minimum uplink latency, or zero for
    /// an unlinked multi-pod fleet (which `run` rejects as un-shardable).
    pub fn lookahead(&self) -> SimDuration {
        match self.min_latency {
            Some(l) => l,
            // No links at all: disconnected pods never interact, so any
            // window length is safe; pick a horizon-spanning lookahead.
            None => SimDuration::from_nanos(u64::MAX),
        }
    }

    /// Advance every pod to `until` under the window protocol.
    pub fn run(&mut self, until: SimTime) -> Result<(), ShardError> {
        let mut runner = match self.runner.take() {
            Some(r) => r,
            None => ShardedRunner::new(self.shards.len(), self.lookahead(), self.threads),
        };
        let res = runner.run(&mut self.shards, until);
        self.runner = Some(runner);
        res?;
        for s in &mut self.shards {
            s.pod.finish_horizon(until);
        }
        Ok(())
    }

    /// Shard telemetry from the underlying runner, exported through the
    /// `oasis-sim` metric registry names.
    #[cfg(feature = "obs")]
    pub fn export_shard_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        use oasis_sim::metrics as sm;
        let Some(runner) = &self.runner else {
            return;
        };
        let stats = runner.stats();
        sink.set(sm::SHARD_WINDOWS, 0, stats.windows);
        for (shard, &events) in stats.shard_events.iter().enumerate() {
            if events != 0 {
                sink.set(sm::SHARD_EVENTS, shard as u32, events);
            }
        }
        sink.set(sm::SHARD_BARRIER_STALLS, 0, stats.barrier_stalls);
        sink.set(sm::SHARD_MESSAGES, 0, stats.messages);
        sink.merge_hist(
            sm::SHARD_WINDOW_NS,
            0,
            &oasis_obs::ObsHistogram::from_sim(&stats.window_ns),
        );
    }

    /// Fleet-wide metrics: each pod's canonical snapshot merged with the
    /// fleet allocator's `core.fleet_*` counters, plus — with `obs` on —
    /// the shard-runner telemetry.
    pub fn metrics_snapshot(&self) -> oasis_obs::MetricsSnapshot {
        let mut merged = oasis_obs::MetricsSnapshot::default();
        for s in &self.shards {
            merged.merge(&s.pod.metrics_snapshot());
        }
        {
            let mut sink = oasis_obs::MetricSink::new();
            self.allocator.state.export_metrics(&mut sink);
            for tag in 0..2u32 {
                let i = tag as usize;
                for (name, v) in [
                    (
                        crate::metrics::FLEET_MIGRATION_ROUNDS,
                        self.migration_rounds[i],
                    ),
                    (
                        crate::metrics::FLEET_MIGRATION_BYTES,
                        self.migration_bytes[i],
                    ),
                    (
                        crate::metrics::FLEET_MIGRATION_PAUSE_NS,
                        self.migration_pause[i],
                    ),
                ] {
                    // Skipping zero keeps no-migration runs byte-identical
                    // with exports from before migration existed.
                    if v != 0 {
                        sink.set(name, tag, v);
                    }
                }
            }
            merged.merge(&sink.snapshot());
        }
        #[cfg(feature = "obs")]
        {
            let mut sink = oasis_obs::MetricSink::new();
            self.export_shard_metrics(&mut sink);
            merged.merge(&sink.snapshot());
        }
        merged
    }
}
