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

use crate::allocator::{AllocCommand, PodAllocator};
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

enum PodEvent {
    /// Operator/failure injection: disable the switch port of a NIC
    /// (§5.3's failure method).
    DisableNicPort(usize),
    /// The NIC's PHY notices carrier loss (after `link_detect`).
    LinkDown(usize),
    /// Repair: re-enable the port.
    EnableNicPort(usize),
    /// Carrier restored.
    LinkUp(usize),
    /// Start a graceful migration of an instance to a NIC (§3.3.4).
    Migrate(Ipv4Addr, u32),
    /// Crash a host: all of its polling cores stop, and its devices go
    /// silent. The allocator infers the failure from missing telemetry
    /// (§3.5).
    FailHost(usize),
    /// A crashed host boots again: cores resume (cold caches) from the
    /// restart time and the storage frontend replays in-flight commands.
    RestartHost(usize),
    /// Install probabilistic drop/corrupt/duplicate on a NIC's switch port
    /// (the state self-expires).
    SetPacketFault(usize, PacketFaultState),
    /// Add extra CXL load-to-use latency on every core of a host.
    CxlSlowStart(usize, u64),
    /// Remove the extra latency again.
    CxlSlowEnd(usize, u64),
    /// Freeze every core of a host for the duration (link retraining).
    CxlStall(usize, SimDuration),
    /// Open an SSD command-swallowing window closing at the given time.
    SsdTimeoutUntil(usize, SimTime),
    /// Open an SSD read-media-error window closing at the given time.
    SsdReadErrorsUntil(usize, SimTime),
    /// Open an accelerator job-swallowing window closing at the given time.
    AccelTimeoutUntil(usize, SimTime),
    /// Open an accelerator compute-error window closing at the given time.
    AccelErrorsUntil(usize, SimTime),
    /// A frame arrives from another pod on the given uplink: it enters the
    /// local switch on the uplink's port, exactly as a wire delivery would.
    UplinkFrame(usize, Frame),
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
    driver_base: usize,
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
            EngineRef::Driver(host) => self.driver_base + host,
            EngineRef::NetBackend(i) => self.net_backend_base + i,
            EngineRef::Storage(r) => of(self.storage, r),
            EngineRef::Accel(r) => of(self.accel, r),
        }
    }
}

/// Register an actor waking at `wake`, or parked when `None` (a dead
/// host's core, an absent frontend, an empty event queue).
fn add_actor(sched: &mut Scheduler, wake: Option<SimTime>) {
    match wake {
        Some(t) => sched.add_actor(t),
        None => sched.add_idle_actor(),
    };
}

/// Register an engine's actor: at its clock, at the round it is queued to
/// really run if it is parked, or idle when `clock` is `None` (dead host,
/// absent frontend).
fn add_engine(sched: &mut Scheduler, park: &ParkTable, clock: Option<SimTime>) {
    let parked = park.get(sched.actor_count());
    add_actor(sched, clock.map(|c| parked.map_or(c, |p| p.wake)));
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
    /// One backend per device, one frontend per Oasis host (only when the
    /// pod has devices of the class), fully meshed with 64 B descriptor
    /// channels named by the class's initial (`sfe0->sbe0`).
    fn build(
        cfg: &OasisConfig,
        hosts: &[(bool, Option<BufferPlacement>)],
        devices: Vec<(usize, C::Device)>,
        pool: &mut CxlPool,
        ra: &mut RegionAllocator,
    ) -> Self {
        let name = C::NAME;
        let tag = &name[..1];
        let mut backends: Vec<ReqBackend<C>> = devices
            .into_iter()
            .enumerate()
            .map(|(id, (host, dev))| {
                ReqBackend::new(id, host, HostCtx::new(PortId(host), 0), cfg, dev)
            })
            .collect();
        let mut frontends = Vec::new();
        for (host, &(_, baseline)) in hosts.iter().enumerate() {
            if backends.is_empty() || baseline.is_some() {
                frontends.push(None);
                continue;
            }
            let data_region = ra.alloc(
                pool,
                format!("host{host}.{name}_data"),
                C::BUF_SIZE * C::BUFS_PER_HOST,
                TrafficClass::Payload,
            );
            let area = BufferArea::new(data_region, C::BUF_SIZE);
            let mut fe = ReqFrontend::new(host, HostCtx::new(PortId(host), 0), cfg, area);
            for (id, be) in backends.iter_mut().enumerate() {
                let cmd = format!("{tag}fe{host}->{tag}be{id}");
                let cmd = alloc_descriptor_channel::<C::Command>(pool, ra, &cmd, 1024);
                let cpl = format!("{tag}be{id}->{tag}fe{host}");
                let cpl = alloc_descriptor_channel::<C::Completion>(pool, ra, &cpl, 1024);
                fe.add_link(id, cmd.sender, cpl.receiver);
                be.add_link(host, cpl.sender, cmd.receiver);
            }
            frontends.push(Some(fe));
        }
        EngineSet {
            frontends,
            backends,
        }
    }

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

    /// Register the set's actors: one per host slot (parked where there is
    /// no frontend or the host is dead), then one per backend.
    fn register(
        &self,
        sched: &mut Scheduler,
        kinds: &mut Vec<ActorKind>,
        dead_host: &[bool],
        park: &ParkTable,
        eref: fn(ReqRef) -> EngineRef,
    ) {
        for (host, slot) in self.frontends.iter().enumerate() {
            let live = slot.as_ref().filter(|_| !dead_host[host]);
            add_engine(sched, park, live.map(|fe| fe.core.clock));
            kinds.push(ActorKind::Engine(eref(ReqRef::Fe(host))));
        }
        for (i, b) in self.backends.iter().enumerate() {
            add_engine(sched, park, (!dead_host[b.host]).then_some(b.core.clock));
            kinds.push(ActorKind::Engine(eref(ReqRef::Be(i))));
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
    pending: EventQueue<PodEvent>,
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

/// Builds a [`Pod`]. Hosts and NICs are declared first; instances and
/// endpoints are added to the built pod.
pub struct PodBuilder {
    cfg: OasisConfig,
    pool_bytes: u64,
    site: u32,
    /// (has_nic, baseline placement or None for Oasis).
    hosts: Vec<(bool, Option<BufferPlacement>)>,
    backup_nic_host: Option<usize>,
    /// (host, config) per SSD.
    ssds: Vec<(usize, SsdConfig)>,
    /// (host, config) per accelerator.
    accels: Vec<(usize, AccelConfig)>,
    never_park: bool,
}

impl PodBuilder {
    /// Start building with a configuration.
    pub fn new(cfg: OasisConfig) -> Self {
        PodBuilder {
            cfg,
            pool_bytes: 64 << 20,
            site: 0,
            hosts: Vec::new(),
            backup_nic_host: None,
            ssds: Vec::new(),
            accels: Vec::new(),
            never_park: false,
        }
    }

    /// The reference the park twin tests compare against: a pod that never
    /// parks an engine and so walks every polling round.
    #[doc(hidden)]
    pub fn never_park(mut self) -> Self {
        self.never_park = true;
        self
    }

    /// Override the pool size (default 64 MiB of simulated CXL memory).
    pub fn pool_bytes(mut self, bytes: u64) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Site number for multi-pod fleets ([`crate::fleet::Fleet`]). NIC MACs
    /// and instance IPs are numbered within the site, so pods that share an
    /// L2 domain over uplinks must use distinct sites (up to 255 instances
    /// per site); a standalone pod can leave the default 0.
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// Add an Oasis host without a local NIC. Returns the host index.
    pub fn add_host(&mut self) -> usize {
        self.hosts.push((false, None));
        self.hosts.len() - 1
    }

    /// Add an Oasis host with a local NIC (and backend driver).
    pub fn add_nic_host(&mut self) -> usize {
        self.hosts.push((true, None));
        self.hosts.len() - 1
    }

    /// Add a baseline (Junction) host with a local NIC and the given buffer
    /// placement.
    pub fn add_baseline_host(&mut self, placement: BufferPlacement) -> usize {
        self.hosts.push((true, Some(placement)));
        self.hosts.len() - 1
    }

    /// Attach an SSD to `host` (drives the storage engine, §3.4). Returns
    /// the SSD id.
    pub fn add_ssd(&mut self, host: usize, cfg: SsdConfig) -> usize {
        assert!(host < self.hosts.len(), "add hosts before their SSDs");
        self.ssds.push((host, cfg));
        self.ssds.len() - 1
    }

    /// Attach a compute-offload accelerator to `host` (drives the accel
    /// engine — the third device class, proving the [`crate::engine`]
    /// abstraction generalizes). Returns the accelerator id.
    pub fn add_accel(&mut self, host: usize, cfg: AccelConfig) -> usize {
        assert!(
            host < self.hosts.len(),
            "add hosts before their accelerators"
        );
        self.accels.push((host, cfg));
        self.accels.len() - 1
    }

    /// Reserve the NIC of `host` as the pod's failover backup (§3.3.3).
    pub fn backup_nic_on(mut self, host: usize) -> Self {
        self.backup_nic_host = Some(host);
        self
    }

    /// Assemble the pod.
    pub fn build(self) -> Pod {
        let n_hosts = self.hosts.len();
        let mut pool = CxlPool::new(self.pool_bytes, n_hosts);
        let mut ra = RegionAllocator::new(&pool);
        let mut switch = Switch::new(0);
        let mut nics = Vec::new();
        let mut nic_macs = Vec::new();
        let mut nic_host = Vec::new();
        let mut nic_port = Vec::new();
        let mut backend_of_nic: Vec<Option<usize>> = Vec::new();
        let mut backends: Vec<BackendDriver> = Vec::new();
        let mut port_owner = Vec::new();

        // Allocator service core (control plane; port 0's host).
        let alloc_core = HostCtx::new(PortId(0), 0);
        let mut allocator = PodAllocator::new(alloc_core, self.cfg.clone());

        // Create NICs and backend drivers.
        let mut oasis_nic_ids = Vec::new();
        for (host, &(has_nic, baseline)) in self.hosts.iter().enumerate() {
            if !has_nic {
                continue;
            }
            let nic_id = nics.len();
            let mac = MacAddr::nic(((self.site as u64) << 16) | nic_id as u64);
            let nic = Nic::new(mac, NicConfig::default());
            let port = switch.add_port();
            port_owner.push(PortOwner::Nic(nic_id));
            let backup = self.backup_nic_host == Some(host);
            allocator.propose(AllocCommand::RegisterNic {
                nic: nic_id as u32,
                host: host as u32,
                capacity_mbps: (nic.bandwidth_gbps() * 1000.0) as u32,
                backup,
            });
            if baseline.is_none() {
                // Oasis backend: RX area + allocator channel.
                let rx_region = ra.alloc(
                    &mut pool,
                    format!("nic{nic_id}.rx_area"),
                    self.cfg.rx_area_per_nic,
                    TrafficClass::Payload,
                );
                let pair =
                    alloc_net_channel(&mut pool, &mut ra, &format!("be{nic_id}->alloc"), 256);
                allocator.add_backend(nic_id as u32, pair.receiver);
                let be_to_alloc = pair.sender;
                let be_core = HostCtx::new(PortId(host), 1 << 20);
                // Backends do not receive from the allocator in this
                // implementation; give them an inert receiver on a tiny
                // private channel.
                let inert =
                    alloc_net_channel(&mut pool, &mut ra, &format!("alloc->be{nic_id}"), 16);
                let backend = BackendDriver::new(
                    nic_id,
                    host,
                    be_core,
                    self.cfg.clone(),
                    BufferArea::new(rx_region, self.cfg.buf_size),
                    be_to_alloc,
                    inert.receiver,
                );
                backend_of_nic.push(Some(backends.len()));
                backends.push(backend);
                oasis_nic_ids.push(nic_id);
            } else {
                backend_of_nic.push(None);
            }
            nic_macs.push(mac);
            nic_host.push(host);
            nic_port.push(port);
            nics.push(nic);
        }

        // Create host drivers.
        let mut drivers = Vec::new();
        for (host, &(has_nic, baseline)) in self.hosts.iter().enumerate() {
            match baseline {
                Some(placement) => {
                    // oasis-check: allow(no-panic) pod construction, not a runtime path: a
                    // baseline placement without a NIC is a config error caught at build.
                    let nic_id = nic_host
                        .iter()
                        .position(|&h| h == host)
                        .expect("baseline host has a NIC");
                    let core = HostCtx::new(PortId(host), 8 << 20);
                    let ld = LocalDriver::new(
                        host,
                        nic_id,
                        core,
                        self.cfg.clone(),
                        placement,
                        &mut pool,
                        &mut ra,
                    );
                    drivers.push(HostDriver::Local(ld));
                }
                None => {
                    let _ = has_nic;
                    let fe_core = HostCtx::new(PortId(host), 8 << 20);
                    let fe_alloc_tx =
                        alloc_net_channel(&mut pool, &mut ra, &format!("fe{host}->alloc"), 256);
                    let alloc_fe =
                        alloc_net_channel(&mut pool, &mut ra, &format!("alloc->fe{host}"), 256);
                    allocator.add_frontend(host, alloc_fe.sender, fe_alloc_tx.receiver);
                    let mut fe = FrontendDriver::new(
                        host,
                        fe_core,
                        self.cfg.clone(),
                        fe_alloc_tx.sender,
                        alloc_fe.receiver,
                    );
                    // Channel pairs to every Oasis backend.
                    for &nic_id in &oasis_nic_ids {
                        let fe_be = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("fe{host}->be{nic_id}"),
                            self.cfg.channel_slots,
                        );
                        let be_fe = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("be{nic_id}->fe{host}"),
                            self.cfg.channel_slots,
                        );
                        fe.add_backend_link(nic_id, fe_be.sender, be_fe.receiver);
                        // oasis-check: allow(no-panic) pod construction: every Oasis NIC id
                        // was assigned a backend in the loop above.
                        let be_idx = backend_of_nic[nic_id].unwrap();
                        backends[be_idx].add_frontend_link(host, be_fe.sender, fe_be.receiver);
                    }
                    drivers.push(HostDriver::Oasis(fe));
                }
            }
        }

        // Storage and accel engines: the same generic drivers, wired the
        // same way (storage first, so its regions and channels keep their
        // addresses).
        let mut ssds = Vec::new();
        for (ssd_id, (host, ssd_cfg)) in self.ssds.iter().enumerate() {
            allocator.propose(AllocCommand::RegisterSsd {
                ssd: ssd_id as u32,
                host: *host as u32,
                capacity_blocks: ssd_cfg.blocks_per_ns as u32 * ssd_cfg.namespaces,
            });
            ssds.push((*host, Ssd::new(ssd_cfg.clone())));
        }
        let storage = EngineSet::build(&self.cfg, &self.hosts, ssds, &mut pool, &mut ra);
        let mut accels = Vec::new();
        for (dev_id, (host, accel_cfg)) in self.accels.iter().enumerate() {
            allocator.propose(AllocCommand::RegisterAccel {
                accel: dev_id as u32,
                host: *host as u32,
            });
            accels.push((*host, AccelDevice::new(accel_cfg.clone())));
        }
        let accel = EngineSet::build(&self.cfg, &self.hosts, accels, &mut pool, &mut ra);

        Pod {
            cfg: self.cfg,
            pool,
            switch,
            nics,
            drivers,
            backends,
            instances: Vec::new(),
            allocator,
            endpoints: Vec::new(),
            storage,
            accel,
            nic_macs,
            nic_host,
            nic_port,
            backend_of_nic,
            endpoint_port: Vec::new(),
            port_owner,
            site: self.site,
            uplink_port: Vec::new(),
            uplink_out: Vec::new(),
            shard_runner: None,
            window_sched: Scheduler::new(),
            window_kinds: Vec::new(),
            pending: EventQueue::new(),
            ra,
            inst_region: Vec::new(),
            dead_host: vec![false; n_hosts],
            now: SimTime::ZERO,
            park: ParkTable::default(),
            never_park: self.never_park,
            endpoint_hit: false,
            nic_hit: Vec::new(),
            obs: PodObs::default(),
        }
    }
}

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
            self.allocator.reroutes_sent,
        );
        sink.set(crate::metrics::ALLOC_FAILOVERS, 0, self.allocator.failovers);
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

    /// Launch an instance on `host` with a NIC-bandwidth lease. Placement
    /// is local-first via the pod-wide allocator; the instance is also
    /// pre-registered with the pod's backup NIC (§3.3.3).
    ///
    /// Panics when placement fails — experiment harnesses that want to
    /// handle a full pod use [`Pod::try_launch_instance`].
    pub fn launch_instance(&mut self, host: usize, app: AppKind, lease_mbps: u32) -> usize {
        match self.try_launch_instance(host, app, lease_mbps) {
            Ok(idx) => idx,
            // oasis-check: allow(no-panic) documented panicking convenience wrapper;
            // runtime callers use try_launch_instance.
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible instance launch: placement failure surfaces as a
    /// [`PodError`] instead of a panic.
    pub fn try_launch_instance(
        &mut self,
        host: usize,
        app: AppKind,
        lease_mbps: u32,
    ) -> Result<usize, PodError> {
        if host >= self.drivers.len() {
            return Err(PodError::NoSuchHost(host));
        }
        self.release(None);
        let idx = self.instances.len();
        let id = idx as u32;
        let ip = Ipv4Addr::instance((self.site << 8) | (id + 1));
        let mut inst = Instance::new(id, ip, host, app);

        match &self.drivers[host] {
            HostDriver::Oasis(_) => {
                let nic = self
                    .allocator
                    .place_instance(host, ip, lease_mbps)
                    .ok_or(PodError::NoNicCapacity)? as usize;
                let backup = self
                    .allocator
                    .state
                    .backup_nic()
                    .map(|b| b as usize)
                    .filter(|&b| b != nic);
                let tx_region = self.ra.alloc(
                    &mut self.pool,
                    format!("inst{id}.tx_area"),
                    self.cfg.tx_area_per_instance,
                    TrafficClass::Payload,
                );
                self.inst_region.push(Some(tx_region.clone()));
                let area = BufferArea::new(tx_region, self.cfg.buf_size);
                let HostDriver::Oasis(fe) = &mut self.drivers[host] else {
                    return Err(PodError::EngineMissing {
                        host,
                        engine: "net",
                    });
                };
                fe.attach_instance(idx, ip, area, nic, backup);
                // Register with the serving and backup backends (flow rules
                // + ip→frontend routing).
                for target in [Some(nic), backup].into_iter().flatten() {
                    if let Some(b) = self.backend_of_nic[target] {
                        self.backends[b].register_instance(&mut self.nics[target], ip, id, host);
                    }
                }
                inst.set_mac(self.now, self.nic_macs[nic], false);
            }
            HostDriver::Local(_) => {
                let HostDriver::Local(ld) = &mut self.drivers[host] else {
                    return Err(PodError::EngineMissing {
                        host,
                        engine: "net",
                    });
                };
                let nic = ld.nic_id;
                ld.attach_instance(&mut self.nics[nic], idx, ip, id);
                inst.set_mac(self.now, self.nic_macs[nic], false);
                self.inst_region.push(None);
            }
        }
        self.instances.push(inst);
        Ok(idx)
    }

    /// Attach a client endpoint to a new switch port. Returns its index.
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint + Send>) -> usize {
        // A new actor renumbers the ones registered after it, and the park
        // table is keyed by actor id.
        self.release(None);
        let port = self.switch.add_port();
        self.port_owner
            .push(PortOwner::Endpoint(self.endpoints.len()));
        self.endpoint_port.push(port);
        self.endpoints.push(ep);
        self.endpoints.len() - 1
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

    /// A frame from a peer pod arrives on `uplink` at `at` (simulated
    /// time). It is queued on the pod's event timeline and enters the
    /// switch when the clock reaches `at`.
    pub fn inject_uplink_frame(&mut self, at: SimTime, uplink: usize, frame: Frame) {
        self.pending.push(at, PodEvent::UplinkFrame(uplink, frame));
    }

    /// Schedule a NIC failure at `at` using the paper's §5.3 method:
    /// disable the NIC's switch port; carrier loss is detected
    /// `cfg.link_detect` later.
    pub fn schedule_nic_failure(&mut self, at: SimTime, nic: usize) {
        self.pending.push(at, PodEvent::DisableNicPort(nic));
    }

    /// Schedule a NIC repair.
    pub fn schedule_nic_repair(&mut self, at: SimTime, nic: usize) {
        self.pending.push(at, PodEvent::EnableNicPort(nic));
    }

    /// Schedule a graceful migration of instance `ip` to `nic` (§3.3.4).
    pub fn schedule_migration(&mut self, at: SimTime, ip: Ipv4Addr, nic: u32) {
        self.pending.push(at, PodEvent::Migrate(ip, nic));
    }

    /// Schedule a host crash at `at`: its frontend/backend cores stop
    /// polling, its private CPU caches are discarded (dirty lines and all —
    /// torn write-backs are real), and its devices go silent. The allocator
    /// detects this from missing heartbeats/telemetry (§3.5).
    pub fn schedule_host_failure(&mut self, at: SimTime, host: usize) {
        self.pending.push(at, PodEvent::FailHost(host));
    }

    /// Schedule a crashed host's restart at `at`: its cores resume from the
    /// restart time with cold caches, and its storage frontend resubmits
    /// every in-flight command (the backend deduplicates replays).
    pub fn schedule_host_restart(&mut self, at: SimTime, host: usize) {
        self.pending.push(at, PodEvent::RestartHost(host));
    }

    /// Install a [`FaultPlan`]: translate every scheduled fault into pod
    /// events. An empty plan is a strict no-op — nothing is scheduled, no
    /// RNG is forked, and the simulation is byte-identical to not calling
    /// this at all (the bench determinism guard asserts it).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let mut inj = FaultInjector::new(plan);
        let mut tag = 0u64;
        while let Some(ev) = inj.pop_due(SimTime::MAX) {
            let at = ev.at;
            match ev.kind {
                FaultKind::HostCrash {
                    host,
                    restart_after,
                } => {
                    self.schedule_host_failure(at, host);
                    if let Some(d) = restart_after {
                        self.schedule_host_restart(at + d, host);
                    }
                }
                FaultKind::PortFlap { nic, down_for } => {
                    self.schedule_nic_failure(at, nic);
                    self.schedule_nic_repair(at + down_for, nic);
                }
                FaultKind::PacketFault {
                    nic,
                    drop_ppm,
                    corrupt_ppm,
                    duplicate_ppm,
                    duration,
                } => {
                    let state = PacketFaultState::new(
                        drop_ppm,
                        corrupt_ppm,
                        duplicate_ppm,
                        at + duration,
                        inj.fork_rng(tag),
                    );
                    self.pending.push(at, PodEvent::SetPacketFault(nic, state));
                }
                FaultKind::CxlSlow {
                    host,
                    extra_ns,
                    duration,
                } => {
                    self.pending
                        .push(at, PodEvent::CxlSlowStart(host, extra_ns));
                    self.pending
                        .push(at + duration, PodEvent::CxlSlowEnd(host, extra_ns));
                }
                FaultKind::CxlStall { host, stall } => {
                    self.pending.push(at, PodEvent::CxlStall(host, stall));
                }
                FaultKind::SsdFault {
                    ssd,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        SsdFaultMode::Timeout => PodEvent::SsdTimeoutUntil(ssd, at + duration),
                        SsdFaultMode::ReadError => PodEvent::SsdReadErrorsUntil(ssd, at + duration),
                    };
                    self.pending.push(at, ev);
                }
                FaultKind::AccelFault {
                    accel,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        AccelFaultMode::Timeout => {
                            PodEvent::AccelTimeoutUntil(accel, at + duration)
                        }
                        AccelFaultMode::ComputeError => {
                            PodEvent::AccelErrorsUntil(accel, at + duration)
                        }
                    };
                    self.pending.push(at, ev);
                }
            }
            tag += 1;
        }
    }

    /// Carve a block volume for an instance out of the pod's pooled SSD
    /// capacity (local-first, then most-free — the storage analog of §3.5
    /// placement). `None` when no SSD has `blocks` free, or `blocks` is
    /// beyond what the allocator can address.
    pub fn create_volume(&mut self, inst: usize, blocks: u64) -> Option<VolumeHandle> {
        let host = self.instances[inst].host;
        let ip = self.instances[inst].ip;
        let want = u32::try_from(blocks).ok()?;
        let (ssd, base) = self.allocator.place_volume(host, ip, want)?;
        Some(VolumeHandle {
            inst,
            ssd: ssd as usize,
            base_block: base as u64,
            blocks,
        })
    }

    /// Submit a write of whole blocks to a volume. Returns the command id,
    /// or `None` when refused (backpressure, no storage engine on the
    /// instance's host, or a block range that wraps the address space).
    /// Panics if the range escapes the volume.
    pub fn volume_write(&mut self, vol: VolumeHandle, lba: u64, data: &[u8]) -> Option<u16> {
        let block = vol.device_block(lba, data.len() as u64 / oasis_storage::BLOCK_SIZE)?;
        let host = self.instances[vol.inst].host;
        self.hand_input(EngineRef::Storage(ReqRef::Fe(host)), |pod| {
            let fe = pod.storage.frontend_mut(host).ok()?;
            fe.submit_write(&mut pod.pool, vol.ssd, block, data)
        })
    }

    /// Submit a read of `nlb` blocks from a volume. Returns the command id;
    /// refusals and panics as for [`Pod::volume_write`].
    pub fn volume_read(&mut self, vol: VolumeHandle, lba: u64, nlb: u32) -> Option<u16> {
        let block = vol.device_block(lba, nlb as u64)?;
        let host = self.instances[vol.inst].host;
        self.hand_input(EngineRef::Storage(ReqRef::Fe(host)), |pod| {
            let fe = pod.storage.frontend_mut(host).ok()?;
            fe.submit_read(&mut pod.pool, vol.ssd, block, nlb)
        })
    }

    /// Drain completed block I/Os for instances on `host` (empty for a
    /// host without a storage frontend, in range or not).
    pub fn take_storage_completions(&mut self, host: usize) -> Vec<IoResult> {
        let fe = self.storage.frontend_mut(host);
        fe.map(|fe| fe.take_completions()).unwrap_or_default()
    }

    /// Tear an instance down: release its NIC lease and volumes (local
    /// NVMe is ephemeral — §3.4), unregister it from every backend, and
    /// remove its flow rules. The instance object remains for post-mortem
    /// stats but receives no further traffic.
    pub fn terminate_instance(&mut self, inst: usize) {
        self.release(None);
        let ip = self.instances[inst].ip;
        self.allocator
            .propose(crate::allocator::AllocCommand::Unassign { ip });
        self.allocator
            .propose(crate::allocator::AllocCommand::ReleaseVolumes { ip });
        for nic in 0..self.nics.len() {
            if let Some(b) = self.backend_of_nic[nic] {
                self.backends[b].unregister_instance(&mut self.nics[nic], ip);
            }
        }
        self.instances[inst].set_mac(self.now, MacAddr::ZERO, false);
    }

    /// Mark a repaired NIC usable for new placements again (operator
    /// action after `schedule_nic_repair`'s link restoration).
    pub fn mark_nic_repaired(&mut self, nic: usize) {
        self.allocator
            .propose(crate::allocator::AllocCommand::MarkRepaired { nic: nic as u32 });
    }

    /// Fail (or repair) an SSD; in-flight and future I/O completes with an
    /// error status that propagates to the guest (§3.4).
    pub fn set_ssd_failed(&mut self, ssd: usize, failed: bool) {
        self.release(None);
        self.storage.backends[ssd].device.set_failed(failed);
    }

    /// Submit a compute-offload job from `host`. The accelerator is picked
    /// local-first through the pod-wide allocator (the compute analog of
    /// §3.5 placement). Returns the command id, or `Ok(None)` when
    /// backpressured (no free job buffers / full channel) — the caller
    /// retries on a later tick.
    pub fn submit_accel_job(
        &mut self,
        host: usize,
        op: AccelOp,
        arg: u32,
        input: &[u8],
    ) -> Result<Option<u16>, PodError> {
        if host >= self.drivers.len() {
            return Err(PodError::NoSuchHost(host));
        }
        let dev = self
            .allocator
            .state
            .pick_accel(host as u32)
            .ok_or(PodError::NoSuchDevice {
                class: "accel",
                index: 0,
            })? as usize;
        self.hand_input(EngineRef::Accel(ReqRef::Fe(host)), |pod| {
            let fe = pod.accel.frontend_mut(host)?;
            Ok(fe.submit_job(&mut pod.pool, dev, op, arg, input))
        })
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

    /// Fail (or repair) an accelerator; in-flight and future jobs complete
    /// with an error status that propagates to the guest (§3.4 — no
    /// transparent failover for stateful devices).
    pub fn set_accel_failed(&mut self, accel: usize, failed: bool) {
        self.release(None);
        self.accel.backends[accel].device.set_failed(failed);
    }

    /// Apply `f` to every polling core that lives on `host`. The allocator
    /// service core is the control plane's own machine and is never
    /// fault-targeted (chaos mixes exclude it).
    fn for_each_host_core(&mut self, host: usize, mut f: impl FnMut(&mut HostCtx)) {
        let Pod {
            drivers,
            backends,
            storage,
            accel,
            ..
        } = self;
        for e in engines_mut(drivers, backends, storage, accel).filter(|e| e.host() == host) {
            f(e.core_mut());
        }
    }

    /// Deliver a host-level fault to every engine core on `host`: drop the
    /// private cache (dirty lines included — torn write-backs are real), on
    /// restart bump the clock to the restart time, then give the engine its
    /// [`DeviceEngine::on_fault`] hook for recovery work (command replay).
    fn apply_engine_fault(&mut self, host: usize, fault: EngineFault, at: SimTime) {
        let Pod {
            drivers,
            backends,
            storage,
            accel,
            pool,
            ..
        } = self;
        for e in engines_mut(drivers, backends, storage, accel).filter(|e| e.host() == host) {
            e.core_mut().cache.drain();
            // The host lost its private cache: any shadow-state the
            // coherence sanitizer tracked for this port is void.
            pool.san_host_reset(e.core().port);
            if fault == EngineFault::HostRestart {
                let c = e.core_mut();
                c.clock = c.clock.max(at);
            }
            e.on_fault(fault, pool);
        }
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

    /// Re-arm the scheduler entries of every engine on `host` at its
    /// current clock (used after a restart revives actors that went idle
    /// while the host was dead).
    fn wake_host_engines(&self, host: usize, map: &ActorMap, ctx: &mut StepCtx) {
        for (eref, e) in self.engines().filter(|(_, e)| e.host() == host) {
            ctx.wake(map.id(eref), e.core().clock);
        }
    }

    /// Re-arm every endpoint actor at its next activation time, if a frame
    /// reached an endpoint port since the last call ([`Self::forward`]
    /// records it). An endpoint's `next_time` moves only on `deliver` or in
    /// its own `poll` (whose dispatch re-arms it by its return value), and
    /// [`StepCtx::wake`] is earlier-wins, so a dispatch that delivered
    /// nothing to an endpoint has nobody to wake.
    fn wake_endpoints(&mut self, map: &ActorMap, ctx: &mut StepCtx) {
        if !std::mem::take(&mut self.endpoint_hit) {
            return;
        }
        for (i, ep) in self.endpoints.iter().enumerate() {
            let nt = ep.next_time();
            if nt != SimTime::MAX {
                ctx.wake(map.endpoint_base + i, nt);
            }
        }
    }

    /// Reclaim everything owned by hosts the allocator just declared
    /// failed: unregister their instances from every backend (flow rules
    /// gone), detach them from the dead frontend, and return their pool
    /// regions to the region allocator. The replicated state machine has
    /// already revoked the leases and volumes, so nothing is proposed here.
    fn reclaim_failed_hosts(&mut self) {
        let failed = self.allocator.take_failed_hosts();
        for &host in &failed {
            let host = host as usize;
            for inst in 0..self.instances.len() {
                if self.instances[inst].host != host {
                    continue;
                }
                let ip = self.instances[inst].ip;
                for nic in 0..self.nics.len() {
                    if let Some(b) = self.backend_of_nic[nic] {
                        self.backends[b].unregister_instance(&mut self.nics[nic], ip);
                    }
                }
                self.instances[inst].set_mac(self.now, MacAddr::ZERO, false);
                if let Some(region) = self.inst_region[inst].take() {
                    self.ra.free(&region);
                }
            }
            if let HostDriver::Oasis(fe) = &mut self.drivers[host] {
                fe.detach_all_instances();
            }
        }
    }

    /// Bytes of pool memory currently handed out by the region allocator
    /// (the chaos harness asserts failures do not leak regions).
    pub fn pool_outstanding(&self) -> u64 {
        self.ra.outstanding()
    }

    fn forward(&mut self, now: SimTime, in_port: usize, frame: Frame) {
        for (port, at, f) in self.switch.forward(now, in_port, frame) {
            match self.port_owner[port] {
                PortOwner::Nic(n) => {
                    self.nics[n].deliver(at, f);
                    // A parked driver of this NIC has an event it did not
                    // count on ([`Self::rearm_woken`]).
                    if !self.park.is_empty() {
                        self.nic_hit.push(n);
                    }
                }
                PortOwner::Endpoint(e) => {
                    self.endpoints[e].deliver(at, f);
                    self.endpoint_hit = true;
                }
                PortOwner::Uplink(u) => self.uplink_out.push((at, u, f)),
            }
        }
    }

    fn apply_event(&mut self, at: SimTime, ev: PodEvent, map: &ActorMap, ctx: &mut StepCtx) {
        match ev {
            PodEvent::DisableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], false);
                self.pending
                    .push(at + self.cfg.link_detect, PodEvent::LinkDown(nic));
            }
            PodEvent::LinkDown(nic) => self.nics[nic].set_link(false),
            PodEvent::EnableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], true);
                self.pending
                    .push(at + self.cfg.link_detect, PodEvent::LinkUp(nic));
            }
            PodEvent::LinkUp(nic) => {
                self.nics[nic].set_link(true);
                if let Some(b) = self.backend_of_nic[nic] {
                    self.backends[b].clear_failure_latch();
                }
            }
            PodEvent::FailHost(host) => {
                self.dead_host[host] = true;
                // The crash discards every private CPU cache on the host,
                // dirty lines included: anything not yet written back to
                // the pool is lost (torn write-backs).
                self.apply_engine_fault(host, EngineFault::HostCrash, at);
            }
            PodEvent::RestartHost(host) => {
                if !self.dead_host[host] {
                    return;
                }
                self.dead_host[host] = false;
                // Cold caches, clocks bumped to the restart time; engines
                // with in-flight state replay it through their fault hook.
                self.apply_engine_fault(host, EngineFault::HostRestart, at);
                self.wake_host_engines(host, map, ctx);
            }
            PodEvent::SetPacketFault(nic, state) => {
                self.switch.set_packet_fault(self.nic_port[nic], state);
            }
            PodEvent::CxlSlowStart(host, extra_ns) => {
                self.for_each_host_core(host, |c| c.costs.cxl_load_ns += extra_ns);
            }
            PodEvent::CxlSlowEnd(host, extra_ns) => {
                self.for_each_host_core(host, |c| {
                    c.costs.cxl_load_ns = c.costs.cxl_load_ns.saturating_sub(extra_ns);
                });
            }
            PodEvent::CxlStall(host, stall) => {
                self.for_each_host_core(host, |c| c.clock += stall);
            }
            PodEvent::SsdTimeoutUntil(ssd, until) => {
                self.storage.backends[ssd]
                    .device
                    .inject_timeout_until(until);
            }
            PodEvent::SsdReadErrorsUntil(ssd, until) => {
                self.storage.backends[ssd]
                    .device
                    .inject_read_errors_until(until);
            }
            PodEvent::AccelTimeoutUntil(accel, until) => {
                self.accel.backends[accel]
                    .device
                    .inject_timeout_until(until);
            }
            PodEvent::AccelErrorsUntil(accel, until) => {
                self.accel.backends[accel]
                    .device
                    .inject_compute_errors_until(until);
            }
            PodEvent::Migrate(ip, nic) => {
                // The frontend registers with the new NIC's backend over
                // its message channel (§3.3.4 ordering); the pod only
                // relays the operator's intent to the allocator.
                self.allocator.migrate_instance(&mut self.pool, ip, nic);
            }
            PodEvent::UplinkFrame(u, frame) => {
                let port = self.uplink_port[u];
                self.forward(at, port, frame);
            }
        }
    }

    /// Run the co-simulation until every component's clock reaches `until`.
    ///
    /// The pod is driven through the sharded runner (`oasis_sim::shard`) as
    /// a single shard: one window spans the whole horizon and falls through
    /// to [`Pod::run_local`], so the simulated timeline is byte-identical
    /// at any `OASIS_SHARD_THREADS` setting. Multi-pod simulations shard at
    /// pod granularity via [`crate::fleet::Fleet`], which shares this exact
    /// window machinery.
    pub fn run(&mut self, until: SimTime) {
        let mut runner = self
            .shard_runner
            .take()
            .unwrap_or_else(|| ShardedRunner::new(1, SimDuration::ZERO, shard_threads()));
        // Whatever posted into a watched ring since the last run without
        // going through a `Pod` call (a test driving an engine directly).
        self.absorb_input();
        // A single shard cannot produce `ZeroLookahead` (it needs > 1).
        let _ = runner.run_seq(std::slice::from_mut(self), until);
        self.shard_runner = Some(runner);
        self.finish_horizon(until);
    }

    /// Override the shard worker-thread count for this pod, replacing the
    /// process-wide `OASIS_SHARD_THREADS` setting. The env read is cached
    /// once per process, so tests comparing thread counts in-process use
    /// this instead. Must be called before the first [`Pod::run`].
    pub fn set_shard_threads(&mut self, threads: usize) {
        assert!(
            self.shard_runner.is_none(),
            "set_shard_threads before the first run"
        );
        self.shard_runner = Some(ShardedRunner::new(1, SimDuration::ZERO, threads));
    }

    /// End a horizon (driven by [`Pod::run`], or externally by
    /// [`crate::fleet::Fleet`]): bring the parked engines up to `until` and
    /// bump the pod clock — a pod whose windows were all skipped as idle
    /// still observed the full horizon.
    pub(crate) fn finish_horizon(&mut self, until: SimTime) {
        self.catch_up(until);
        self.now = self.now.max(until);
    }

    /// Earliest simulated time any component wants to act: the minimum over
    /// live engine clocks — for a parked engine, the round it is queued to
    /// really run — the allocator, endpoints, and the event queue. The
    /// sharded runner probes this to open windows at the next busy instant
    /// (and to skip horizons, or stretches in which every pod is parked,
    /// with no work at all).
    pub fn next_activity(&self) -> SimTime {
        let mut t = self.pending.peek_time().unwrap_or(SimTime::MAX);
        let map = self.actor_map();
        for (eref, e) in self.engines().filter(|(_, e)| !self.dead_host[e.host()]) {
            let parked = self.park.get(map.id(eref));
            t = t.min(parked.map_or(e.core().clock, |p| p.wake));
        }
        t = t.min(self.allocator.core.clock);
        for ep in &self.endpoints {
            t = t.min(ep.next_time());
        }
        t
    }

    /// Scheduler ids by actor class, in [`Pod::run_local`]'s registration
    /// order.
    fn actor_map(&self) -> ActorMap {
        let net_backend_base = self.drivers.len();
        let endpoint_base = net_backend_base + self.backends.len() + 1;
        let storage = SetBase {
            fe: endpoint_base + self.endpoints.len(),
            be: endpoint_base + self.endpoints.len() + self.storage.frontends.len(),
        };
        let accel_fe = storage.be + self.storage.backends.len();
        ActorMap {
            driver_base: 0,
            net_backend_base,
            endpoint_base,
            storage,
            accel: SetBase {
                fe: accel_fe,
                be: accel_fe + self.accel.frontends.len(),
            },
        }
    }

    /// Before anything at scheduler position `(at, actor)` really runs:
    /// pass the parked engines' rounds positioned before it, and land in
    /// pool memory what the fetches of those rounds would have landed — a
    /// round's clock runs up to a whole round ahead of dispatch order, so
    /// an elided round still makes other hosts' write-backs visible early
    /// to everyone dispatched after it.
    fn pass_parked(&mut self, at: SimTime, actor: usize) {
        if let Some(horizon) = self.park.pass(at, actor) {
            self.pool.apply_pending(horizon);
        }
    }

    /// Settle the rounds `p` has passed into its engine's clock and
    /// counters ([`park::account`]).
    fn settle(&mut self, eref: EngineRef, p: &Parked) {
        let Pod {
            drivers,
            backends,
            storage,
            accel,
            pool,
            now,
            ..
        } = self;
        let Some(engine) = resolve(drivers, backends, storage, accel, eref) else {
            return;
        };
        let period = p.round.period_ns;
        let rounds = (p.next - engine.core().clock).as_nanos() / period;
        if rounds > 0 {
            // The last of them was dispatched at its start.
            *now = (*now).max(p.next - SimDuration::from_nanos(period));
            park::account(engine, pool, &p.round, rounds);
        }
    }

    /// End `actor`'s park, if it is parked: settle what it has passed, stop
    /// watching its rings and — inside a run — re-arm it at its next
    /// unaccounted round. [`Self::pass_parked`] ran for the position of the
    /// dispatch that calls this, so that round is the first one ordered
    /// after it, ties included.
    fn unpark(&mut self, actor: usize, ctx: Option<&mut StepCtx>) {
        let Some(p) = self.park.take(actor) else {
            return;
        };
        if let ActorKind::Engine(eref) = self.window_kinds[actor] {
            self.settle(eref, &p);
        }
        self.pool.unwatch(actor as u32);
        self.obs.note_idle_skip(p.since, p.next);
        if let Some(ctx) = ctx {
            ctx.wake(actor, p.next);
        }
    }

    /// [`Self::unpark`] everybody (a fault, or a `Pod` call that may change
    /// what any engine's proof rested on).
    fn unpark_all(&mut self, mut ctx: Option<&mut StepCtx>) {
        for actor in 0..self.window_kinds.len() {
            self.unpark(actor, ctx.as_deref_mut());
        }
        while self.pool.pop_woken().is_some() {}
        self.nic_hit.clear();
    }

    /// [`Self::unpark`] whoever was handed input since the last call: the
    /// watchers of rings a write-back was posted into, and the parked
    /// drivers of NICs a frame was forwarded to.
    fn rearm_woken(&mut self, map: &ActorMap, mut ctx: Option<&mut StepCtx>) {
        while let Some(watcher) = self.pool.pop_woken() {
            self.unpark(watcher as usize, ctx.as_deref_mut());
        }
        while let Some(nic) = self.nic_hit.pop() {
            let driver = match self.backend_of_nic[nic] {
                Some(b) => EngineRef::NetBackend(b),
                None => EngineRef::Driver(self.nic_host[nic]),
            };
            self.unpark(map.id(driver), ctx.as_deref_mut());
        }
    }

    /// Between runs: end the park of `who` (everybody's for `None`) ahead
    /// of a call that hands it input or changes what its proof rested on.
    /// [`Self::catch_up`] ran when the last run ended, so the engine is at
    /// the clock a poll-by-poll run would have left it at.
    fn release(&mut self, who: Option<EngineRef>) {
        if self.park.is_empty() {
            return;
        }
        match who {
            Some(eref) => self.unpark(self.actor_map().id(eref), None),
            None => self.unpark_all(None),
        }
    }

    /// Between runs: let `submit` hand the frontend `to` new work. Its park
    /// ends first (its timers are about to change), and so does, after,
    /// that of whoever the submission reached.
    fn hand_input<R>(&mut self, to: EngineRef, submit: impl FnOnce(&mut Self) -> R) -> R {
        self.release(Some(to));
        let out = submit(self);
        self.absorb_input();
        out
    }

    /// Between runs: end the park of whoever a call just handed input (it
    /// posted into a ring they watch). Not left to the next run, which
    /// asks [`Self::next_activity`] first — and a parked engine answers
    /// that with the round it queued for, not the one it must now run.
    fn absorb_input(&mut self) {
        self.rearm_woken(&self.actor_map(), None);
    }

    /// Bring every parked engine up to `until`: pass and settle the rounds
    /// a poll-by-poll run to `until` would have dispatched, so whoever
    /// looks at the pod between runs — `Pod` calls, metrics, snapshots,
    /// the pool — sees exactly that run's clocks, counters and memory. The
    /// engines stay parked.
    fn catch_up(&mut self, until: SimTime) {
        if self.park.is_empty() {
            return;
        }
        self.pass_parked(until, 0);
        for actor in 0..self.window_kinds.len() {
            if let (Some(&p), ActorKind::Engine(eref)) =
                (self.park.get(actor), self.window_kinds[actor])
            {
                self.settle(eref, &p);
            }
        }
    }

    /// Has every parked engine's passed round been settled into it?
    fn parked_settled(&self) -> bool {
        let map = self.actor_map();
        self.engines().all(|(eref, e)| {
            let parked = self.park.get(map.id(eref));
            parked.is_none_or(|p| p.next == e.core().clock)
        })
    }

    /// One window of the co-simulation on this pod's own scheduler.
    ///
    /// Every component — device engines, the allocator, endpoints, the
    /// fault event queue — is registered as an actor on a cleared
    /// [`Scheduler`]; the scheduler dispatches whichever actor has the
    /// earliest wake time, breaking ties by registration order (the same
    /// order the legacy earliest-clock scan considered components in, so
    /// the timeline is byte-identical). Components with clocks at or past
    /// `until` simply re-arm without running, which a fresh registration
    /// per call makes uniform (the scheduler and actor table themselves are
    /// kept in the pod and only cleared). A window nothing is due in —
    /// most of a fleet's 2 µs windows, most of a closed loop's submit/reap
    /// steps — registers nobody. Parked engines are not brought up to
    /// `until` here (the next real dispatch, or [`Pod::finish_horizon`],
    /// passes their rounds). Returns the number of actor dispatches.
    pub(crate) fn run_local(&mut self, until: SimTime) -> u64 {
        // The legacy scan stepped components with clocks strictly below
        // `until`; the scheduler deadline is inclusive, so it sits 1 ns
        // earlier.
        let Some(deadline) = until.as_nanos().checked_sub(1).map(SimTime::from_nanos) else {
            return 0;
        };
        if self.next_activity() >= until {
            self.now = self.now.max(until);
            return 0;
        }
        let map = self.actor_map();
        let mut kinds = std::mem::take(&mut self.window_kinds);
        let mut sched = std::mem::take(&mut self.window_sched);
        sched.clear();
        kinds.clear();

        let (dead, park) = (&self.dead_host, &self.park);
        for (host, drv) in self.drivers.iter().enumerate() {
            let clock = drv.engine().core().clock;
            add_engine(&mut sched, park, (!dead[host]).then_some(clock));
            kinds.push(ActorKind::Engine(EngineRef::Driver(host)));
        }
        for (i, be) in self.backends.iter().enumerate() {
            add_engine(&mut sched, park, (!dead[be.host]).then_some(be.core.clock));
            kinds.push(ActorKind::Engine(EngineRef::NetBackend(i)));
        }
        sched.add_actor(self.allocator.core.clock);
        kinds.push(ActorKind::Allocator);
        for (i, ep) in self.endpoints.iter().enumerate() {
            sched.add_actor(ep.next_time());
            kinds.push(ActorKind::Endpoint(i));
        }
        debug_assert_eq!(sched.actor_count(), map.storage.fe);
        self.storage
            .register(&mut sched, &mut kinds, dead, park, EngineRef::Storage);
        debug_assert_eq!(sched.actor_count(), map.accel.fe);
        self.accel
            .register(&mut sched, &mut kinds, dead, park, EngineRef::Accel);
        // The event queue goes last so on wake-time ties every component
        // runs before the event fires, matching the legacy scan's
        // events-considered-last rule.
        add_actor(&mut sched, self.pending.peek_time());
        kinds.push(ActorKind::Events);

        self.window_kinds = kinds;

        let mut dispatches: u64 = 0;
        sched.run_until_with(self, deadline, |pod, actor, at, ctx| {
            dispatches += 1;
            pod.dispatch(&map, actor, at, ctx)
        });
        self.obs.fold_sched(&sched);
        self.window_sched = sched;
        self.now = self.now.max(until);
        dispatches
    }

    /// Dispatch one actor at its wake time. Whatever really runs is
    /// bracketed by [`Self::pass_parked`] for its position before and
    /// [`Self::rearm_woken`] after.
    fn dispatch(
        &mut self,
        map: &ActorMap,
        actor: usize,
        at: SimTime,
        ctx: &mut StepCtx,
    ) -> StepOutcome {
        match self.window_kinds[actor] {
            ActorKind::Engine(eref) => self.dispatch_engine(eref, actor, map, at, ctx),
            ActorKind::Allocator => {
                let clock = self.allocator.core.clock;
                if at < clock {
                    // Stale entry: something (e.g. a migration command sent
                    // on the allocator's core) advanced the clock since this
                    // wake was queued.
                    return StepOutcome::WakeAt(clock);
                }
                self.pass_parked(at, actor);
                self.now = self.now.max(at);
                self.allocator.step(&mut self.pool);
                if self.allocator.has_newly_failed_hosts() {
                    self.unpark_all(Some(ctx));
                    self.reclaim_failed_hosts();
                }
                self.rearm_woken(map, Some(ctx));
                StepOutcome::WakeAt(self.allocator.core.clock)
            }
            ActorKind::Endpoint(ei) => {
                let nt = self.endpoints[ei].next_time();
                if at < nt {
                    // A delivery since this wake was queued pushed the
                    // activation later, or the endpoint went idle.
                    return if nt == SimTime::MAX {
                        StepOutcome::Idle
                    } else {
                        StepOutcome::WakeAt(nt)
                    };
                }
                self.pass_parked(at, actor);
                self.now = self.now.max(at);
                let frames = self.endpoints[ei].poll(at);
                let port = self.endpoint_port[ei];
                for f in frames {
                    self.forward(at, port, f);
                }
                self.wake_endpoints(map, ctx);
                self.rearm_woken(map, Some(ctx));
                let nt = self.endpoints[ei].next_time();
                if nt == SimTime::MAX {
                    StepOutcome::Idle
                } else {
                    StepOutcome::WakeAt(nt)
                }
            }
            ActorKind::Events => {
                if let Some(t) = self.pending.peek_time() {
                    if at < t {
                        return StepOutcome::WakeAt(t);
                    }
                    self.pass_parked(at, actor);
                    self.now = self.now.max(at);
                    if let Some((eat, ev)) = self.pending.pop() {
                        // A frame from a peer pod is input for whoever it
                        // reaches; anything else may change what any proof
                        // rested on (clocks, caches, costs, devices).
                        if !matches!(ev, PodEvent::UplinkFrame(..)) {
                            self.unpark_all(Some(ctx));
                        }
                        self.apply_event(eat, ev, map, ctx);
                        self.wake_endpoints(map, ctx);
                        self.rearm_woken(map, Some(ctx));
                    }
                }
                // Re-peek after applying: the event may have chained a
                // follow-up (LinkDown after DisableNicPort).
                match self.pending.peek_time() {
                    Some(t) => StepOutcome::WakeAt(t),
                    None => StepOutcome::Idle,
                }
            }
        }
    }

    /// Dispatch one device-engine actor: the single uniform stepping path
    /// for every engine type. An engine that proves its round empty
    /// ([`DeviceEngine::idle_round`]) is parked instead of polled.
    fn dispatch_engine(
        &mut self,
        eref: EngineRef,
        actor: usize,
        map: &ActorMap,
        at: SimTime,
        ctx: &mut StepCtx,
    ) -> StepOutcome {
        self.pass_parked(at, actor);
        // A parked engine is dispatched for the round it could not vouch for.
        self.unpark(actor, None);
        let (egress, egress_nic, next) = {
            let Pod {
                drivers,
                backends,
                storage,
                accel,
                pool,
                instances,
                nics,
                nic_macs,
                dead_host,
                now,
                park,
                never_park,
                ..
            } = self;
            let Some(engine) = resolve(drivers, backends, storage, accel, eref) else {
                return StepOutcome::Idle;
            };
            if dead_host[engine.host()] {
                // The host crashed after this wake was queued; park the
                // actor (a restart re-arms it via `wake_host_engines`).
                return StepOutcome::Idle;
            }
            let nt = engine.next_time();
            if at < nt {
                // Stale entry: a fault (CXL stall, restart) jumped the
                // clock since this wake was queued.
                return StepOutcome::WakeAt(nt);
            }
            // The coherence sanitizer observes every access, so under it
            // every round really runs.
            let may_park = !*never_park && !cfg!(feature = "sanitize");
            let idle = may_park
                .then(|| engine.idle_round(pool, nics, instances))
                .flatten();
            if let Some(round) = idle {
                let wake = park::wake_round(nt, round.period_ns, round.valid_until);
                engine.polled(&mut |rx| {
                    let (start, end) = rx.ring_range();
                    pool.watch(start, end, actor as u32);
                });
                let parked = Parked {
                    round,
                    next: nt,
                    wake,
                    since: nt,
                };
                park.insert(actor, parked);
                return StepOutcome::WakeAt(wake);
            }
            *now = (*now).max(at);
            let mut world = EngineWorld {
                pool,
                instances,
                nic_macs: nic_macs.as_slice(),
                nics: nics.as_mut_slice(),
            };
            let egress = engine.poll(&mut world);
            (egress, engine.egress_nic(), engine.next_time())
        };
        if let Some(nic) = egress_nic {
            let port = self.nic_port[nic];
            for (fat, f) in egress {
                self.forward(fat, port, f);
            }
        }
        self.wake_endpoints(map, ctx);
        self.rearm_woken(map, Some(ctx));
        StepOutcome::WakeAt(next)
    }
}

impl Pod {
    /// Every snapshot-bearing component in canonical order: the allocator,
    /// then per-host drivers, net backends, storage frontends, storage
    /// backends, accel frontends, accel backends. [`Pod::snapshot`] and
    /// [`Pod::restore`] both walk this order, so the two stay in lockstep
    /// by construction.
    fn snapshot_parts(&self) -> Vec<&dyn Snapshottable> {
        let mut v: Vec<&dyn Snapshottable> = vec![&self.allocator];
        v.extend(self.engines().map(|(_, e)| e as &dyn Snapshottable));
        v
    }

    /// Mutable view of the same components, in the same order.
    fn snapshot_parts_mut(&mut self) -> Vec<&mut dyn Snapshottable> {
        let Pod {
            allocator,
            drivers,
            backends,
            storage,
            accel,
            ..
        } = self;
        let mut v: Vec<&mut dyn Snapshottable> = vec![allocator];
        v.extend(engines_mut(drivers, backends, storage, accel).map(|e| e as _));
        v
    }

    /// Serialize the pod's logical state into a schema-versioned snapshot:
    /// a `Meta` section (sim-time, crashed-host set, component count)
    /// followed by one `Engine` section per [`Snapshottable`] component in
    /// canonical order (allocator first, then every device engine).
    ///
    /// Channel ring contents, NIC/SSD/accel device queues, and endpoint
    /// state are *topology*, not snapshot state: checkpoints are taken at
    /// quiesce points (between [`Pod::run`] windows, after in-flight
    /// traffic drains) and restored into a pod built from the same
    /// configuration, exactly like `fleet_replay --checkpoint/--resume`.
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(self.parked_settled(), "observed in the middle of a run");
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::Meta);
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.dead_host.len() as u64);
        for &dead in &self.dead_host {
            w.put_bool(dead);
        }
        let parts = self.snapshot_parts();
        w.put_u64(parts.len() as u64);
        w.end_section();
        for part in parts {
            w.begin_section(SnapshotSection::Engine);
            part.snapshot_state(&mut w);
            w.end_section();
        }
        w.finish()
    }

    /// Restore a snapshot produced by [`Pod::snapshot`] on an identically
    /// built pod. On any error the pod is left partially restored and must
    /// be discarded; the snapshot bytes themselves are never modified.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        let mut meta = r.section(SnapshotSection::Meta)?;
        let now = SimTime(meta.u64("pod sim-time")?);
        let hosts = meta.u64("pod host count")?;
        if hosts != self.dead_host.len() as u64 {
            return Err(SnapshotError::Corrupt("pod host count"));
        }
        let mut dead_host = Vec::with_capacity(hosts as usize);
        for _ in 0..hosts {
            dead_host.push(meta.bool("pod dead-host flag")?);
        }
        let parts_expected = meta.u64("pod component count")?;
        // The engines' state is about to be replaced: nobody stays parked.
        for actor in self.park.actors().collect::<Vec<_>>() {
            self.pool.unwatch(actor as u32);
        }
        self.park.clear();
        self.now = now;
        self.dead_host = dead_host;
        let mut restored = 0u64;
        for part in self.snapshot_parts_mut() {
            let mut er = r.section(SnapshotSection::Engine)?;
            part.restore_state(&mut er)?;
            restored += 1;
        }
        if restored != parts_expected {
            return Err(SnapshotError::Corrupt("pod component count"));
        }
        Ok(())
    }
}

/// Payload relayed between pods over an uplink: `(destination uplink index,
/// frame)`. The destination index is resolved by the fleet layer's routing
/// table before the message is enqueued.
pub type UplinkMsg = (usize, Frame);

/// The process-wide `OASIS_SHARD_THREADS` setting, read once. Figure
/// binaries and CI set the variable before launch, so a cached read keeps
/// the per-`run` overhead at one atomic load.
fn shard_threads() -> usize {
    // oasis-check: allow(thread-discipline) write-once env cache, never mutated after init
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(shard::threads_from_env)
}

impl ShardWorld for Pod {
    type Msg = UplinkMsg;

    fn next_time(&self) -> SimTime {
        self.next_activity()
    }

    /// One conservative window: absorb uplink arrivals onto the event
    /// timeline, then run the pod's own scheduler to the window end. A bare
    /// pod has no routing table, so uplink egress stays buffered in
    /// `uplink_out`; the fleet layer's shard wrapper drains it into
    /// `outbox` with per-link latencies.
    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<UplinkMsg>>,
        _outbox: &mut Vec<Outgoing<UplinkMsg>>,
    ) -> u64 {
        for env in inbox.drain(..) {
            let (uplink, frame) = env.msg;
            self.inject_uplink_frame(env.at, uplink, frame);
        }
        self.run_local(until)
    }
}
