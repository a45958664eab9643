//! The pod runtime: one deterministic co-simulation of an entire Oasis pod.
//!
//! A [`Pod`] owns the CXL pool, the hosts' polling cores (frontend and
//! backend drivers, or the Junction baseline driver), the NICs, the ToR
//! switch, the instances, the pod-wide allocator, and any external client
//! endpoints. [`Pod::run`] registers every component as an actor on an
//! [`oasis_sim::sched::Scheduler`] and dispatches whichever actor has the
//! earliest wake time (ties break in registration order), exactly like the
//! co-simulated microbenchmarks — so cross-host latencies, failover
//! timelines, and CXL link traffic all emerge from the same component
//! models the unit tests exercise. Device engines are stepped uniformly
//! through [`crate::engine::DeviceEngine`], and every request/response
//! device class is one more [`EngineSet`] of the same generic drivers, so
//! the runtime has no per-engine special cases.
//!
//! Instance launch (placement + registration) is performed synchronously at
//! build time, as a cloud control plane would before a VM starts; the
//! *runtime* control paths that the paper measures — link-failure
//! detection, telemetry, failover rerouting, graceful migration — all flow
//! through message channels with simulated timing.

mod build;
mod control;
mod input;
mod run;
mod snapshot;

use oasis_accel::{AccelConfig, AccelDevice, AccelOp};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::region::Region;
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::nic::{Nic, NicConfig};
use oasis_net::packet::Frame;
use oasis_net::switch::Switch;
use oasis_sim::event::EventQueue;
use oasis_sim::fault::{
    AccelFaultMode, FaultInjector, FaultKind, FaultPlan, PacketFaultState, SsdFaultMode,
};
use oasis_sim::sched::{Scheduler, StepCtx, StepOutcome};
use oasis_sim::shard::{self, Envelope, Outgoing, ShardWorld, ShardedRunner};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::{Ssd, SsdConfig};

pub use build::PodBuilder;
pub use control::PodAllocator;
pub use input::{Applied, PodInput};
pub use run::UplinkMsg;

use crate::allocator::{ControlInput, FleetCommand, Placed};
use crate::baseline::LocalDriver;
use crate::config::{BufferPlacement, OasisConfig};
use crate::datapath::{alloc_descriptor_channel, alloc_net_channel, BufferArea};
use crate::engine::{DeviceEngine, EngineFault, EngineWorld};
use crate::engine_accel::{AccelClass, JobResult};
use crate::engine_net::{BackendDriver, FrontendDriver};
use crate::engine_req::{ReqBackend, ReqClass, ReqFrontend};
use crate::engine_storage::{IoResult, StorageClass};
use crate::error::PodError;
use crate::instance::{AppKind, Instance};
use crate::park::{self, ParkTable, Parked};
use crate::snapshot::{
    SnapshotError, SnapshotReader, SnapshotSection, SnapshotWriter, Snapshottable,
};

/// An external client attached directly to a switch port (load generators,
/// echo clients, trace replayers — implemented in `oasis-apps`).
pub trait Endpoint {
    /// When this endpoint next wants to act ([`SimTime::MAX`] when idle).
    fn next_time(&self) -> SimTime;
    /// Act at `now`; emitted frames enter the switch on this endpoint's
    /// port.
    fn poll(&mut self, now: SimTime) -> Vec<Frame>;
    /// A frame arrives from the switch at `at`.
    fn deliver(&mut self, at: SimTime, frame: Frame);
}

/// The driver serving a host's instances.
pub enum HostDriver {
    /// Oasis frontend (instances may be served by remote NICs).
    Oasis(FrontendDriver),
    /// Junction-style baseline: combined driver + local NIC.
    Local(LocalDriver),
}

impl HostDriver {
    /// The driver as the engine the runtime steps.
    fn engine(&self) -> &dyn DeviceEngine {
        match self {
            HostDriver::Oasis(fe) => fe,
            HostDriver::Local(ld) => ld,
        }
    }

    /// Mutable [`Self::engine`].
    fn engine_mut(&mut self) -> &mut dyn DeviceEngine {
        match self {
            HostDriver::Oasis(fe) => fe,
            HostDriver::Local(ld) => ld,
        }
    }
}

enum PortOwner {
    Nic(usize),
    Endpoint(usize),
    /// Inter-pod uplink by index: frames egressing here leave the pod and
    /// are relayed by the fleet layer (`crate::fleet`).
    Uplink(usize),
}

/// A handle to one device engine, resolved against the pod's engine tables
/// at dispatch time (actors cannot hold borrows across dispatches).
#[derive(Clone, Copy)]
enum EngineRef {
    /// Per-host driver (Oasis frontend or Junction baseline).
    Driver(usize),
    /// Net backend by index.
    NetBackend(usize),
    /// An engine of the storage set.
    Storage(ReqRef),
    /// An engine of the accel set.
    Accel(ReqRef),
}

/// One engine of an [`EngineSet`].
#[derive(Clone, Copy)]
enum ReqRef {
    /// Frontend by host.
    Fe(usize),
    /// Backend by device index.
    Be(usize),
}

/// What a scheduler actor id stands for.
#[derive(Clone, Copy)]
enum ActorKind {
    /// A device-engine polling core, stepped through [`DeviceEngine`].
    Engine(EngineRef),
    /// The pod-wide allocator service.
    Allocator,
    /// A client endpoint by index.
    Endpoint(usize),
    /// The pod's operator/fault event queue.
    Events,
}

/// Scheduler ids of an [`EngineSet`]'s first frontend and first backend.
#[derive(Clone, Copy)]
struct SetBase {
    fe: usize,
    be: usize,
}

/// Base offsets of each actor class in the scheduler's id space. Ids are
/// assigned in registration order, which is also the tie-break order: on
/// equal wake times the lowest id runs first, reproducing the legacy
/// earliest-clock scan's first-considered-wins rule.
struct ActorMap {
    net_backend_base: usize,
    endpoint_base: usize,
    storage: SetBase,
    accel: SetBase,
}

impl ActorMap {
    /// The scheduler id of an engine's actor.
    fn id(&self, eref: EngineRef) -> usize {
        let of = |base: SetBase, r| match r {
            ReqRef::Fe(host) => base.fe + host,
            ReqRef::Be(i) => base.be + i,
        };
        match eref {
            EngineRef::Driver(host) => host,
            EngineRef::NetBackend(i) => self.net_backend_base + i,
            EngineRef::Storage(r) => of(self.storage, r),
            EngineRef::Accel(r) => of(self.accel, r),
        }
    }
}

/// One request/response device class's share of a pod
/// ([`crate::engine_req`]): a frontend per Oasis host and, per device, a
/// backend that owns it.
pub struct EngineSet<C: ReqClass> {
    /// Frontends by host (`None` on baseline hosts, and everywhere in a pod
    /// without devices of the class).
    pub frontends: Vec<Option<ReqFrontend<C>>>,
    /// Backends by device id; `backends[i].device` is the device.
    pub backends: Vec<ReqBackend<C>>,
}

impl<C: ReqClass> EngineSet<C> {
    /// Every engine of the set in actor registration order: frontends by
    /// host, then backends by device.
    fn engines(&self) -> impl Iterator<Item = (ReqRef, &dyn DeviceEngine)> {
        let fes = self.frontends.iter().enumerate();
        let fes = fes.filter_map(|(h, fe)| Some((ReqRef::Fe(h), fe.as_ref()? as _)));
        let bes = self.backends.iter().enumerate();
        fes.chain(bes.map(|(i, be)| (ReqRef::Be(i), be as _)))
    }

    /// Mutable view of the same engines, in the same order.
    fn engines_mut(&mut self) -> impl Iterator<Item = &mut dyn DeviceEngine> {
        let fes = self.frontends.iter_mut().flatten().map(|fe| fe as _);
        fes.chain(self.backends.iter_mut().map(|be| be as _))
    }

    /// Resolve one engine (`None` for a host without a frontend).
    fn engine(&mut self, r: ReqRef) -> Option<&mut dyn DeviceEngine> {
        match r {
            ReqRef::Fe(host) => self.frontends[host].as_mut().map(|fe| fe as _),
            ReqRef::Be(i) => Some(&mut self.backends[i]),
        }
    }

    /// The frontend serving `host`.
    fn frontend_mut(&mut self, host: usize) -> Result<&mut ReqFrontend<C>, PodError> {
        let fe = self.frontends.get_mut(host).and_then(Option::as_mut);
        fe.ok_or(PodError::EngineMissing {
            host,
            engine: C::NAME,
        })
    }
}

/// Every device engine in actor registration order, mutably. A free
/// function over the split engine tables so callers can destructure [`Pod`]
/// and keep the pool borrowed alongside.
fn engines_mut<'a>(
    drivers: &'a mut [HostDriver],
    backends: &'a mut [BackendDriver],
    storage: &'a mut EngineSet<StorageClass>,
    accel: &'a mut EngineSet<AccelClass>,
) -> impl Iterator<Item = &'a mut dyn DeviceEngine> {
    let drivers = drivers.iter_mut().map(HostDriver::engine_mut);
    let net = backends.iter_mut().map(|be| be as _);
    let req = storage.engines_mut().chain(accel.engines_mut());
    drivers.chain(net).chain(req)
}

/// Resolve an engine handle against the split engine tables (`None` for a
/// host without a frontend of the set).
fn resolve<'a>(
    drivers: &'a mut [HostDriver],
    backends: &'a mut [BackendDriver],
    storage: &'a mut EngineSet<StorageClass>,
    accel: &'a mut EngineSet<AccelClass>,
    eref: EngineRef,
) -> Option<&'a mut dyn DeviceEngine> {
    match eref {
        EngineRef::Driver(i) => Some(drivers[i].engine_mut()),
        EngineRef::NetBackend(i) => Some(&mut backends[i]),
        EngineRef::Storage(r) => storage.engine(r),
        EngineRef::Accel(r) => accel.engine(r),
    }
}

/// A block volume carved for an instance by the pod-wide allocator.
#[derive(Clone, Copy, Debug)]
pub struct VolumeHandle {
    /// Owning instance.
    pub inst: usize,
    /// SSD the volume lives on.
    pub ssd: usize,
    /// First device block.
    pub base_block: u64,
    /// Length in blocks.
    pub blocks: u64,
}

impl VolumeHandle {
    /// The device block behind volume block `lba`, for an access of `nlb`
    /// blocks. `None` when `lba + nlb` wraps — it must not reach the
    /// comparison below wrapped, or the access lands in a neighbouring
    /// tenant's blocks. Panics if the range escapes the volume.
    fn device_block(&self, lba: u64, nlb: u64) -> Option<u64> {
        let end = lba.checked_add(nlb)?;
        assert!(end <= self.blocks, "access escapes the volume");
        self.base_block.checked_add(lba)
    }
}

/// Ambient-telemetry accumulators for the pod runtime (empty with `obs`
/// off; the paired no-op methods keep every call site unconditional).
#[derive(Default)]
struct PodObs {
    /// Scheduler stats folded across [`Pod::run`] calls (each run builds a
    /// fresh [`Scheduler`]; actor registration order is fixed per pod
    /// shape, so per-actor tallies line up).
    #[cfg(feature = "obs")]
    sched: oasis_sim::sched::SchedStats,
    /// Park episodes ended (an engine left the run queue and came back).
    #[cfg(feature = "obs")]
    idle_skips: u64,
    /// Sim nanoseconds of elided rounds per park episode.
    #[cfg(feature = "obs")]
    idle_skip_ns: oasis_obs::ObsHistogram,
}

impl PodObs {
    #[cfg(feature = "obs")]
    #[inline]
    fn note_idle_skip(&mut self, from: SimTime, to: SimTime) {
        self.idle_skips += 1;
        self.idle_skip_ns.record((to - from).as_nanos());
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_idle_skip(&mut self, _from: SimTime, _to: SimTime) {}

    #[cfg(feature = "obs")]
    #[inline]
    fn fold_sched(&mut self, sched: &oasis_sim::sched::Scheduler) {
        self.sched.merge(sched.stats());
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn fold_sched(&mut self, _sched: &oasis_sim::sched::Scheduler) {}

    /// Export the collected ambient stats (no-op with `obs` off: the
    /// corresponding snapshot entries simply do not exist).
    #[cfg(feature = "obs")]
    fn export(&self, sink: &mut oasis_obs::MetricSink) {
        use oasis_sim::metrics as sm;
        sink.set(sm::SCHED_DISPATCHES, 0, self.sched.dispatches);
        sink.set(sm::SCHED_STALE_SKIPS, 0, self.sched.stale_skips);
        for (actor, &polls) in self.sched.actor_polls.iter().enumerate() {
            if polls != 0 {
                sink.set(sm::SCHED_ACTOR_POLLS, actor as u32, polls);
            }
        }
        sink.merge_hist(
            sm::SCHED_WAKE_TO_POLL_NS,
            0,
            &oasis_obs::ObsHistogram::from_sim(&self.sched.wake_to_poll),
        );
        sink.set(sm::SCHED_IDLE_SKIPS, 0, self.idle_skips);
        sink.merge_hist(sm::SCHED_IDLE_SKIP_NS, 0, &self.idle_skip_ns);
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn export(&self, _sink: &mut oasis_obs::MetricSink) {}
}

/// The assembled pod.
pub struct Pod {
    /// Configuration.
    pub cfg: OasisConfig,
    /// The shared CXL pool.
    pub pool: CxlPool,
    /// The ToR switch.
    pub switch: Switch,
    /// NICs by id.
    pub nics: Vec<Nic>,
    /// Per-host drivers.
    pub drivers: Vec<HostDriver>,
    /// Backend drivers (Oasis NICs only).
    pub backends: Vec<BackendDriver>,
    /// Instances by index (instance id == index).
    pub instances: Vec<Instance>,
    /// The pod-wide allocator.
    pub allocator: PodAllocator,
    /// Client endpoints (`Send` so pods can migrate between shard workers).
    pub endpoints: Vec<Box<dyn Endpoint + Send>>,
    /// The storage engine (§3.4): `storage.backends[i].device` is SSD `i`.
    pub storage: EngineSet<StorageClass>,
    /// The compute-offload engine: `accel.backends[i].device` is
    /// accelerator `i`.
    pub accel: EngineSet<AccelClass>,
    nic_macs: Vec<MacAddr>,
    nic_host: Vec<usize>,
    nic_port: Vec<usize>,
    backend_of_nic: Vec<Option<usize>>,
    endpoint_port: Vec<usize>,
    port_owner: Vec<PortOwner>,
    /// Site number (fleet-unique MAC/IP numbering base; see
    /// [`PodBuilder::site`]).
    site: u32,
    /// Switch port of each inter-pod uplink.
    uplink_port: Vec<usize>,
    /// Frames that egressed on an uplink this window, awaiting relay by the
    /// fleet layer: `(egress_time, uplink, frame)`.
    pub(crate) uplink_out: Vec<(SimTime, usize, Frame)>,
    /// Persistent sharded-execution driver for [`Pod::run`] (single shard);
    /// carries the window cursor and pooled buffers across calls.
    shard_runner: Option<ShardedRunner<UplinkMsg>>,
    /// [`Pod::run_local`]'s scheduler and actor table, cleared and refilled
    /// every window that has work so their allocations are reused. The
    /// table also says which engine a parked actor id is.
    window_sched: Scheduler,
    window_kinds: Vec<ActorKind>,
    pending: EventQueue<PodInput<'static>>,
    ra: RegionAllocator,
    /// Per-instance TX-area region, kept so a host-failure reclaim can
    /// return it to the allocator (`None` for baseline instances).
    inst_region: Vec<Option<Region>>,
    /// Hosts that have crashed (their cores are no longer stepped).
    dead_host: Vec<bool>,
    now: SimTime,
    /// Engines that have left the run queue ([`crate::park`]).
    park: ParkTable,
    /// The twin tests' reference switch: never park, walk poll by poll.
    never_park: bool,
    /// A frame reached an endpoint port since the flag was last taken.
    endpoint_hit: bool,
    /// NICs a frame was forwarded to while somebody was parked.
    nic_hit: Vec<usize>,
    /// Ambient-telemetry accumulators (empty with `obs` off).
    obs: PodObs,
}

// Pods migrate between shard worker threads (`oasis_sim::shard`); keep any
// non-`Send` regression a compile error rather than a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Pod>();
};

impl Pod {
    /// Current simulated time (max of all dispatched clocks).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The pod's site number (fleet-unique MAC/IP numbering base).
    pub fn site(&self) -> u32 {
        self.site
    }

    /// Number of hosts in the pod.
    pub fn hosts(&self) -> usize {
        self.drivers.len()
    }

    /// Export every component's telemetry as one canonical snapshot: each
    /// engine's [`DeviceEngine::on_metrics`] hook (host order, registration
    /// order within a host), the allocator's control-plane tallies, the
    /// pool's link meters and per-host cache stats, and — with `obs` on —
    /// the ambient scheduler/idle-skip stats. Pure observer: calling this
    /// never changes pod state or timing, so the simulated timeline is
    /// identical whether or not snapshots are taken. Parked engines were
    /// brought up to date when the last run ended ([`Self::catch_up`]), so
    /// their clocks and counters are the poll-by-poll ones.
    pub fn metrics_snapshot(&self) -> oasis_obs::MetricsSnapshot {
        debug_assert!(self.parked_settled(), "observed in the middle of a run");
        let mut sink = oasis_obs::MetricSink::new();
        // Host order, registration order within a host: cores of one host
        // share its cache-counter tag, and the last export wins.
        for host in 0..self.drivers.len() {
            for (_, e) in self.engines().filter(|(_, e)| e.host() == host) {
                e.on_metrics(&mut sink);
            }
        }
        sink.set(
            crate::metrics::ALLOC_REROUTES_SENT,
            0,
            self.allocator.actor.reroutes_sent,
        );
        let failovers = self.allocator.actor.failovers;
        sink.set(crate::metrics::ALLOC_FAILOVERS, 0, failovers);
        oasis_cxl::obs::export_host_metrics(&self.allocator.core, &mut sink);
        oasis_cxl::obs::export_pool_metrics(&self.pool, &mut sink);
        self.obs.export(&mut sink);
        sink.snapshot()
    }

    /// The MAC of a NIC.
    pub fn nic_mac(&self, nic: usize) -> MacAddr {
        self.nic_macs[nic]
    }

    /// The host a NIC is attached to.
    pub fn nic_host(&self, nic: usize) -> usize {
        self.nic_host[nic]
    }

    /// The IP assigned to an instance.
    pub fn instance_ip(&self, inst: usize) -> Ipv4Addr {
        self.instances[inst].ip
    }

    /// The MAC an instance currently answers on (its serving NIC's MAC).
    pub fn instance_mac(&self, inst: usize) -> MacAddr {
        self.instances[inst].mac()
    }

    /// Attach an inter-pod uplink to a new switch port. Returns the uplink
    /// index. Frames the switch egresses here accumulate in the pod's
    /// uplink-out buffer; the fleet layer (`crate::fleet`) relays them to
    /// the peer pod with the uplink's latency. Standard L2 learning makes
    /// routing work unmodified: remote MACs are learned from uplink ingress
    /// traffic, unknown destinations flood to the uplink like any port.
    pub fn add_uplink(&mut self) -> usize {
        let port = self.switch.add_port();
        self.port_owner
            .push(PortOwner::Uplink(self.uplink_port.len()));
        self.uplink_port.push(port);
        self.uplink_port.len() - 1
    }

    /// Number of attached inter-pod uplinks.
    pub fn uplinks(&self) -> usize {
        self.uplink_port.len()
    }

    /// Carve a block volume for an instance out of the pod's pooled SSD
    /// capacity (local-first, then most-free — the storage analog of §3.5
    /// placement). `None` when no SSD has `blocks` free, or `blocks` is
    /// beyond what the allocator can address.
    pub fn create_volume(&mut self, inst: usize, blocks: u64) -> Option<VolumeHandle> {
        let host = self.instances[inst].host;
        let ip = self.instances[inst].ip;
        let want = u32::try_from(blocks).ok()?;
        let create = ControlInput::CreateVolume {
            host: host as u32,
            ip,
            blocks: want,
        };
        let Some(Placed::Volume { ssd, base_block }) =
            self.allocator.handle(&mut self.pool, create).placed
        else {
            return None;
        };
        Some(VolumeHandle {
            inst,
            ssd: ssd as usize,
            base_block: base_block as u64,
            blocks,
        })
    }

    /// Drain completed block I/Os for instances on `host` (empty for a
    /// host without a storage frontend, in range or not).
    pub fn take_storage_completions(&mut self, host: usize) -> Vec<IoResult> {
        let fe = self.storage.frontend_mut(host);
        fe.map(|fe| fe.take_completions()).unwrap_or_default()
    }

    /// Drain completed offload jobs for `host` (empty for a host without
    /// an accel frontend, in range or not).
    pub fn take_accel_completions(&mut self, host: usize) -> Vec<JobResult> {
        let fe = self.accel.frontend_mut(host);
        fe.map(|fe| fe.take_completions()).unwrap_or_default()
    }

    /// Offload jobs still in flight from `host`.
    pub fn accel_jobs_in_flight(&self, host: usize) -> usize {
        let fe = self.accel.frontends.get(host).and_then(Option::as_ref);
        fe.map_or(0, |fe| fe.in_flight())
    }

    /// Every device engine with its handle, in actor registration order:
    /// host drivers, net backends, the storage set, the accel set.
    fn engines(&self) -> impl Iterator<Item = (EngineRef, &dyn DeviceEngine)> {
        let drivers = self.drivers.iter().enumerate();
        let drivers = drivers.map(|(host, d)| (EngineRef::Driver(host), d.engine()));
        let net = self.backends.iter().enumerate();
        let net = net.map(|(i, be)| (EngineRef::NetBackend(i), be as _));
        let storage = self.storage.engines();
        let accel = self.accel.engines();
        drivers
            .chain(net)
            .chain(storage.map(|(r, e)| (EngineRef::Storage(r), e)))
            .chain(accel.map(|(r, e)| (EngineRef::Accel(r), e)))
    }

    /// Bytes of pool memory currently handed out by the region allocator
    /// (the chaos harness asserts failures do not leak regions).
    pub fn pool_outstanding(&self) -> u64 {
        self.ra.outstanding()
    }
}
