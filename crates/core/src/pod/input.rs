//! One input path into a pod: every stimulus from outside is a [`PodInput`],
//! applied by [`Pod::apply`] between runs or by the event actor at the time
//! it was [`Pod::schedule`]d for. Parking (DESIGN.md §7.3) is exact only if
//! each input ends the right parks; `Pod::unparks` decides that in one
//! `match` with no wildcard arm, so a new variant without a decision does
//! not compile.

use super::*;

/// Every stimulus a pod takes from outside.
pub enum PodInput<'a> {
    /// Disable a NIC's switch port, the paper's §5.3 failure method;
    /// carrier loss ([`PodInput::LinkDown`]) follows `cfg.link_detect`
    /// later.
    DisableNicPort(usize),
    /// The NIC's PHY notices carrier loss.
    LinkDown(usize),
    /// Repair: re-enable the port; carrier ([`PodInput::LinkUp`]) follows
    /// `cfg.link_detect` later.
    EnableNicPort(usize),
    /// Carrier restored.
    LinkUp(usize),
    /// Mark a repaired NIC usable for new placements again (the operator's
    /// action after [`PodInput::EnableNicPort`]'s link restoration).
    MarkNicRepaired(usize),
    /// Start a graceful migration of an instance to a NIC (§3.3.4).
    Migrate(Ipv4Addr, u32),
    /// Crash a host: its polling cores stop, its private CPU caches are
    /// discarded (dirty lines and all — torn write-backs are real), and its
    /// devices go silent. The allocator infers the failure from missing
    /// heartbeats and telemetry (§3.5).
    FailHost(usize),
    /// A crashed host boots again: its cores resume (cold caches) from the
    /// restart time, and its storage frontend resubmits every in-flight
    /// command (the backend deduplicates replays).
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
    /// Fail (`true`) or repair an SSD; in-flight and future I/O completes
    /// with an error status that propagates to the guest (§3.4).
    SsdFailed(usize, bool),
    /// Fail (`true`) or repair an accelerator; in-flight and future jobs
    /// complete with an error status that propagates to the guest (§3.4 —
    /// no transparent failover for stateful devices).
    AccelFailed(usize, bool),
    /// A frame from a peer pod arrives on the given uplink: it enters the
    /// local switch on the uplink's port, exactly as a wire delivery would.
    UplinkFrame(usize, Frame),
    /// Launch an instance `(host, app, lease in Mb/s)`: [`Pod::try_launch_instance`].
    Launch(usize, AppKind, u32),
    /// Tear an instance down ([`Pod::terminate_instance`]).
    Terminate(usize),
    /// Attach a client endpoint to a new switch port. Between runs only: a
    /// new actor renumbers the ones registered after it.
    AddEndpoint(Box<dyn Endpoint + Send>),
    /// Write whole blocks `(volume, first block, data)`: [`Pod::volume_write`].
    VolumeWrite(VolumeHandle, u64, &'a [u8]),
    /// Read `(volume, first block, block count)` ([`Pod::volume_read`]).
    VolumeRead(VolumeHandle, u64, u32),
    /// Submit an offload job `(host, op, arg, input)`: [`Pod::submit_accel_job`].
    AccelSubmit(usize, AccelOp, u32, &'a [u8]),
    /// Replace the engines' state with a snapshot ([`Pod::restore`]); between runs only.
    Restore(&'a [u8]),
}

/// What applying an input reports: a submission's command id, `Ok(None)` for
/// a back-pressured submission or nothing to report, or why it was refused.
pub type Applied = Result<Option<u16>, PodError>;

/// Whose parks end before an input lands.
#[derive(Clone, Copy)]
enum Before {
    /// Nobody's.
    Nobody,
    /// The frontend it hands work to, whose timers are about to change.
    Frontend(EngineRef),
    /// Everybody's: it may change what any proof rested on (clocks, caches,
    /// costs, links, devices, instances, the actor table).
    Everybody,
    /// Every park dropped unsettled: the engines' state is replaced.
    Discard,
}

/// Who an input unparks: `.0` [`Before`] it lands and, if `.1`, at once after
/// it whoever it reached (watchers of rings it posted into, drivers of NICs
/// it delivered to) — the next run asks [`Pod::next_activity`] first, which a
/// parked engine answers with the round it queued for, not the one it must
/// now run.
#[derive(Clone, Copy)]
struct Unpark(Before, bool);

impl Pod {
    /// Who `input` unparks: the one decision, for both paths in.
    fn unparks(&self, input: &PodInput<'_>) -> Unpark {
        use PodInput::*;
        match input {
            // Input for whoever it reaches (a proposal, through a ring later).
            UplinkFrame(..) | MarkNicRepaired(_) => Unpark(Before::Nobody, true),
            // Work for one frontend, which posts it on.
            VolumeWrite(vol, ..) | VolumeRead(vol, ..) => {
                let fe = EngineRef::Storage(ReqRef::Fe(self.instances[vol.inst].host));
                Unpark(Before::Frontend(fe), true)
            }
            AccelSubmit(host, ..) if *host < self.hosts() => {
                let fe = EngineRef::Accel(ReqRef::Fe(*host));
                Unpark(Before::Frontend(fe), true)
            }
            AccelSubmit(..) => Unpark(Before::Nobody, false),
            // Faults: clocks, caches, costs, links, devices.
            DisableNicPort(_)
            | LinkDown(_)
            | EnableNicPort(_)
            | LinkUp(_)
            | Migrate(..)
            | FailHost(_)
            | RestartHost(_)
            | SetPacketFault(..)
            | CxlSlowStart(..)
            | CxlSlowEnd(..)
            | CxlStall(..)
            | SsdTimeoutUntil(..)
            | SsdReadErrorsUntil(..)
            | AccelTimeoutUntil(..)
            | AccelErrorsUntil(..)
            | SsdFailed(..)
            | AccelFailed(..) => Unpark(Before::Everybody, false),
            // The pod's shape: instances, flow rules, the actor table.
            Launch(..) | Terminate(_) | AddEndpoint(_) => Unpark(Before::Everybody, false),
            Restore(_) => Unpark(Before::Discard, false),
        }
    }

    /// Apply `input` now, between runs.
    pub fn apply(&mut self, input: PodInput<'_>) -> Applied {
        self.apply_at(self.now, input, None)
    }

    /// Queue `input` on the pod's timeline: the event actor applies it when
    /// the clock reaches `at`, after every component due at that instant.
    /// `AddEndpoint` and `Restore` reshape the pod and are between-run only.
    pub fn schedule(&mut self, at: SimTime, input: PodInput<'static>) {
        debug_assert!(!matches!(
            input,
            PodInput::AddEndpoint(_) | PodInput::Restore(_)
        ));
        self.pending.push(at, input);
    }

    /// The one path every input takes: end the parks `unparks` names, land it
    /// at `at`, then those of whoever it reached. `ctx` is the running
    /// scheduler's when the event actor applies it, `None` between runs.
    pub(super) fn apply_at(
        &mut self,
        at: SimTime,
        input: PodInput<'_>,
        mut ctx: Option<&mut StepCtx>,
    ) -> Applied {
        let Unpark(before, reached) = self.unparks(&input);
        let map = self.actor_map();
        match before {
            Before::Nobody => {}
            Before::Frontend(fe) => self.unpark(map.id(fe), ctx.as_deref_mut()),
            Before::Everybody => self.unpark_all(ctx.as_deref_mut()),
            Before::Discard => {
                for actor in self.park.actors().collect::<Vec<_>>() {
                    self.pool.unwatch(actor as u32);
                }
                self.park.clear();
            }
        }
        let out = self.land(at, input, &map, ctx.as_deref_mut());
        if let Some(ctx) = ctx.as_deref_mut() {
            self.wake_endpoints(&map, ctx);
        }
        if reached {
            self.rearm_woken(&map, ctx);
        }
        out
    }

    /// Make `input` take effect at `at`.
    fn land(
        &mut self,
        at: SimTime,
        input: PodInput<'_>,
        map: &ActorMap,
        ctx: Option<&mut StepCtx>,
    ) -> Applied {
        use PodInput::*;
        match input {
            DisableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], false);
                self.pending.push(at + self.cfg.link_detect, LinkDown(nic));
            }
            LinkDown(nic) => self.nics[nic].set_link(false),
            EnableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], true);
                self.pending.push(at + self.cfg.link_detect, LinkUp(nic));
            }
            LinkUp(nic) => {
                self.nics[nic].set_link(true);
                if let Some(b) = self.backend_of_nic[nic] {
                    self.backends[b].clear_failure_latch();
                }
            }
            FailHost(host) => {
                self.dead_host[host] = true;
                // The crash discards every private CPU cache on the host,
                // dirty lines included: anything not yet written back to
                // the pool is lost (torn write-backs).
                self.apply_engine_fault(host, EngineFault::HostCrash, at);
            }
            RestartHost(host) => {
                if !self.dead_host[host] {
                    return Ok(None);
                }
                self.dead_host[host] = false;
                // Cold caches, clocks bumped to the restart time; engines
                // with in-flight state replay it through their fault hook.
                self.apply_engine_fault(host, EngineFault::HostRestart, at);
                // Re-arm the actors that went idle while the host was dead.
                if let Some(ctx) = ctx {
                    for (eref, e) in self.engines().filter(|(_, e)| e.host() == host) {
                        ctx.wake(map.id(eref), e.core().clock);
                    }
                }
            }
            SetPacketFault(nic, state) => {
                self.switch.set_packet_fault(self.nic_port[nic], state);
            }
            CxlSlowStart(host, extra_ns) => {
                self.for_each_host_engine(host, |e, _| e.core_mut().costs.cxl_load_ns += extra_ns);
            }
            CxlSlowEnd(host, extra_ns) => {
                self.for_each_host_engine(host, |e, _| {
                    let c = e.core_mut();
                    c.costs.cxl_load_ns = c.costs.cxl_load_ns.saturating_sub(extra_ns);
                });
            }
            CxlStall(host, stall) => {
                self.for_each_host_engine(host, |e, _| e.core_mut().clock += stall);
            }
            SsdTimeoutUntil(i, t) => self.storage.backends[i].device.inject_timeout_until(t),
            SsdReadErrorsUntil(i, t) => self.storage.backends[i].device.inject_read_errors_until(t),
            AccelTimeoutUntil(i, t) => self.accel.backends[i].device.inject_timeout_until(t),
            AccelErrorsUntil(i, t) => self.accel.backends[i].device.inject_compute_errors_until(t),
            Migrate(ip, nic) => {
                // The frontend registers with the new NIC's backend over
                // its message channel (§3.3.4 ordering); the pod only
                // relays the operator's intent to the allocator.
                let migrate = ControlInput::Migrate { ip, nic };
                self.allocator.handle(&mut self.pool, migrate);
            }
            UplinkFrame(u, frame) => {
                let port = self.uplink_port[u];
                self.forward(at, port, frame);
            }
            MarkNicRepaired(nic) => {
                let repaired = ControlInput::MarkNicRepaired { nic: nic as u32 };
                self.allocator.handle(&mut self.pool, repaired);
            }
            SsdFailed(ssd, failed) => self.storage.backends[ssd].device.set_failed(failed),
            AccelFailed(accel, failed) => self.accel.backends[accel].device.set_failed(failed),
            Launch(host, app, lease) => return self.launch(host, app, lease).map(|_| None),
            Terminate(inst) => {
                let ip = self.instances[inst].ip;
                self.allocator
                    .handle(&mut self.pool, ControlInput::Terminate { ip });
                for nic in 0..self.nics.len() {
                    if let Some(b) = self.backend_of_nic[nic] {
                        self.backends[b].unregister_instance(&mut self.nics[nic], ip);
                    }
                }
                self.instances[inst].set_mac(self.now, MacAddr::ZERO, false);
            }
            AddEndpoint(ep) => {
                let port = self.switch.add_port();
                self.port_owner
                    .push(PortOwner::Endpoint(self.endpoints.len()));
                self.endpoint_port.push(port);
                self.endpoints.push(ep);
            }
            VolumeWrite(vol, lba, data) => {
                let block = vol.device_block(lba, data.len() as u64 / oasis_storage::BLOCK_SIZE);
                let fe = self.storage.frontend_mut(self.instances[vol.inst].host)?;
                return Ok(block.and_then(|b| fe.submit_write(&mut self.pool, vol.ssd, b, data)));
            }
            VolumeRead(vol, lba, nlb) => {
                let block = vol.device_block(lba, nlb as u64);
                let fe = self.storage.frontend_mut(self.instances[vol.inst].host)?;
                return Ok(block.and_then(|b| fe.submit_read(&mut self.pool, vol.ssd, b, nlb)));
            }
            AccelSubmit(host, op, arg, input) => {
                if host >= self.drivers.len() {
                    return Err(PodError::NoSuchHost(host));
                }
                let Some(dev) = self.allocator.actor.books().pick_accel(host as u32) else {
                    return Err(PodError::NoSuchDevice {
                        class: "accel",
                        index: 0,
                    });
                };
                let fe = self.accel.frontend_mut(host)?;
                return Ok(fe.submit_job(&mut self.pool, dev as usize, op, arg, input));
            }
            Restore(bytes) => return self.restore_state(bytes).map_err(PodError::Snapshot),
        }
        Ok(None)
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
            #[expect(
                clippy::panic,
                reason = "documented panicking convenience wrapper; runtime callers use \
                          try_launch_instance"
            )]
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
        let idx = self.instances.len();
        let launch = PodInput::Launch(host, app, lease_mbps);
        self.apply(launch).map(|_| idx)
    }

    fn launch(&mut self, host: usize, app: AppKind, lease_mbps: u32) -> Result<usize, PodError> {
        if host >= self.drivers.len() {
            return Err(PodError::NoSuchHost(host));
        }
        let idx = self.instances.len();
        let id = idx as u32;
        let ip = Ipv4Addr::instance((self.site << 8) | (id + 1));
        let mut inst = Instance::new(id, ip, host, app);

        match &mut self.drivers[host] {
            HostDriver::Oasis(fe) => {
                let launch = ControlInput::Launch {
                    host: host as u32,
                    ip,
                    lease_mbps,
                };
                let Some(Placed::Nic(nic)) = self.allocator.handle(&mut self.pool, launch).placed
                else {
                    return Err(PodError::NoNicCapacity);
                };
                let nic = nic as usize;
                let backup = self
                    .allocator
                    .actor
                    .books()
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
            HostDriver::Local(ld) => {
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
        let idx = self.endpoints.len();
        let _ = self.apply(PodInput::AddEndpoint(ep));
        idx
    }

    /// Submit a write of whole blocks to a volume. Returns the command id,
    /// or `None` when refused (backpressure, no storage engine on the
    /// instance's host, or a block range that wraps the address space).
    /// Panics if the range escapes the volume.
    pub fn volume_write(&mut self, vol: VolumeHandle, lba: u64, data: &[u8]) -> Option<u16> {
        let write = PodInput::VolumeWrite(vol, lba, data);
        self.apply(write).ok().flatten()
    }

    /// Submit a read of `nlb` blocks from a volume. Returns the command id;
    /// refusals and panics as for [`Pod::volume_write`].
    pub fn volume_read(&mut self, vol: VolumeHandle, lba: u64, nlb: u32) -> Option<u16> {
        let read = PodInput::VolumeRead(vol, lba, nlb);
        self.apply(read).ok().flatten()
    }

    /// Tear an instance down: release its NIC lease and volumes (local
    /// NVMe is ephemeral — §3.4), unregister it from every backend, and
    /// remove its flow rules. The instance object remains for post-mortem
    /// stats but receives no further traffic.
    pub fn terminate_instance(&mut self, inst: usize) {
        let _ = self.apply(PodInput::Terminate(inst));
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
        self.apply(PodInput::AccelSubmit(host, op, arg, input))
    }

    /// Apply `f` to every polling core that lives on `host`, with the pool.
    /// The allocator service core is the control plane's own machine and is
    /// never fault-targeted (chaos mixes exclude it).
    fn for_each_host_engine(
        &mut self,
        host: usize,
        mut f: impl FnMut(&mut dyn DeviceEngine, &mut CxlPool),
    ) {
        let Pod {
            drivers,
            backends,
            storage,
            accel,
            pool,
            ..
        } = self;
        for e in engines_mut(drivers, backends, storage, accel).filter(|e| e.host() == host) {
            f(e, pool);
        }
    }

    /// Deliver a host-level fault to every engine core on `host`: drop the
    /// private cache (dirty lines included — torn write-backs are real), on
    /// restart bump the clock to the restart time, then give the engine its
    /// [`DeviceEngine::on_fault`] hook for recovery work (command replay).
    fn apply_engine_fault(&mut self, host: usize, fault: EngineFault, at: SimTime) {
        self.for_each_host_engine(host, |e, pool| {
            e.core_mut().cache.drain();
            // The host lost its private cache: any shadow-state the
            // coherence sanitizer tracked for this port is void.
            pool.san_host_reset(e.core().port);
            if fault == EngineFault::HostRestart {
                let c = e.core_mut();
                c.clock = c.clock.max(at);
            }
            e.on_fault(fault, pool);
        });
    }

    /// Install a [`FaultPlan`]: translate every scheduled fault into
    /// [`PodInput`]s on the pod's timeline. An empty plan is a strict no-op — nothing is scheduled, no
    /// RNG is forked, and the simulation is byte-identical to not calling
    /// this at all (the bench determinism guard asserts it).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        use PodInput::*;
        let mut inj = FaultInjector::new(plan);
        let mut tag = 0u64;
        while let Some(ev) = inj.pop_due(SimTime::MAX) {
            let at = ev.at;
            match ev.kind {
                FaultKind::HostCrash {
                    host,
                    restart_after,
                } => {
                    self.schedule(at, FailHost(host));
                    if let Some(d) = restart_after {
                        self.schedule(at + d, RestartHost(host));
                    }
                }
                FaultKind::PortFlap { nic, down_for } => {
                    self.schedule(at, DisableNicPort(nic));
                    self.schedule(at + down_for, EnableNicPort(nic));
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
                    self.schedule(at, SetPacketFault(nic, state));
                }
                FaultKind::CxlSlow {
                    host,
                    extra_ns,
                    duration,
                } => {
                    self.schedule(at, CxlSlowStart(host, extra_ns));
                    self.schedule(at + duration, CxlSlowEnd(host, extra_ns));
                }
                FaultKind::CxlStall { host, stall } => self.schedule(at, CxlStall(host, stall)),
                FaultKind::SsdFault {
                    ssd,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        SsdFaultMode::Timeout => SsdTimeoutUntil(ssd, at + duration),
                        SsdFaultMode::ReadError => SsdReadErrorsUntil(ssd, at + duration),
                    };
                    self.schedule(at, ev);
                }
                FaultKind::AccelFault {
                    accel,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        AccelFaultMode::Timeout => AccelTimeoutUntil(accel, at + duration),
                        AccelFaultMode::ComputeError => AccelErrorsUntil(accel, at + duration),
                    };
                    self.schedule(at, ev);
                }
            }
            tag += 1;
        }
    }
}
