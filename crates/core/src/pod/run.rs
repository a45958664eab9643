//! The runtime: the scheduler loop over a pod's actors, parking
//! ([`crate::park`]) and the shard-runner glue.

use super::*;

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

impl<C: ReqClass> EngineSet<C> {
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
}

impl Pod {
    /// Re-arm every endpoint actor at its next activation time, if a frame
    /// reached an endpoint port since the last call ([`Self::forward`]
    /// records it). An endpoint's `next_time` moves only on `deliver` or in
    /// its own `poll` (whose dispatch re-arms it by its return value), and
    /// [`StepCtx::wake`] is earlier-wins, so a dispatch that delivered
    /// nothing to an endpoint has nobody to wake.
    pub(super) fn wake_endpoints(&mut self, map: &ActorMap, ctx: &mut StepCtx) {
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
    fn reclaim_failed_hosts(&mut self, failed: &[u32]) {
        for &host in failed {
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

    pub(super) fn forward(&mut self, now: SimTime, in_port: usize, frame: Frame) {
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
    pub(super) fn actor_map(&self) -> ActorMap {
        let net_backend_base = self.drivers.len();
        let endpoint_base = net_backend_base + self.backends.len() + 1;
        let storage = SetBase {
            fe: endpoint_base + self.endpoints.len(),
            be: endpoint_base + self.endpoints.len() + self.storage.frontends.len(),
        };
        let accel_fe = storage.be + self.storage.backends.len();
        ActorMap {
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
    pub(super) fn unpark(&mut self, actor: usize, ctx: Option<&mut StepCtx>) {
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

    /// [`Self::unpark`] everybody (a newly failed host, or an input that
    /// may change what any engine's proof rested on).
    pub(super) fn unpark_all(&mut self, mut ctx: Option<&mut StepCtx>) {
        for actor in 0..self.window_kinds.len() {
            self.unpark(actor, ctx.as_deref_mut());
        }
        while self.pool.pop_woken().is_some() {}
        self.nic_hit.clear();
    }

    /// [`Self::unpark`] whoever was handed input since the last call: the
    /// watchers of rings a write-back was posted into, and the parked
    /// drivers of NICs a frame was forwarded to.
    pub(super) fn rearm_woken(&mut self, map: &ActorMap, mut ctx: Option<&mut StepCtx>) {
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
    pub(super) fn parked_settled(&self) -> bool {
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
                let failed = self.allocator.step(&mut self.pool);
                if !failed.is_empty() {
                    self.unpark_all(Some(ctx));
                    self.reclaim_failed_hosts(&failed);
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
                    if let Some((eat, input)) = self.pending.pop() {
                        // A refusal on the timeline has nobody to go to.
                        let _ = self.apply_at(eat, input, Some(ctx));
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

/// Payload relayed between pods over an uplink: `(destination uplink index,
/// frame)`. The destination index is resolved by the fleet layer's routing
/// table before the message is enqueued.
pub type UplinkMsg = (usize, Frame);

/// The process-wide `OASIS_SHARD_THREADS` setting, read once. Figure
/// binaries and CI set the variable before launch, so a cached read keeps
/// the per-`run` overhead at one atomic load.
fn shard_threads() -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "write-once env cache, never mutated after init"
    )]
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(shard::threads_from_env)
}

impl ShardWorld for Pod {
    type Msg = UplinkMsg;

    fn next_time(&self) -> SimTime {
        self.next_activity()
    }

    /// One conservative window: run the pod's own scheduler to the window
    /// end. A lone pod is the only shard, so nothing ever arrives in its
    /// inbox; uplink egress stays buffered in `uplink_out` (the fleet
    /// layer's shard wrapper, `crate::fleet::PodShard`, relays both ways).
    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<UplinkMsg>>,
        _outbox: &mut Vec<Outgoing<UplinkMsg>>,
    ) -> u64 {
        debug_assert!(inbox.is_empty(), "a lone pod has no peers");
        self.run_local(until)
    }
}
