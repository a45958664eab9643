//! Cooperative actor scheduler.
//!
//! An Oasis experiment is a set of concurrently running loops: frontend and
//! backend driver pollers, NIC DMA engines, switch forwarding, application
//! instances, load generators, the pod-wide allocator, Raft nodes. Each loop
//! is an *actor* identified by a dense `usize` id. The scheduler steps
//! whichever actor has the earliest wake-up time; the actor does a bounded
//! amount of work against the shared world `W` and reports when it next
//! wants to run.
//!
//! The world type is owned by the experiment harness (e.g.
//! `oasis_core::pod::Pod`), which implements the dispatch from actor id to
//! component — this sidesteps the classic "actor inside the world it
//! mutates" borrow problem without `RefCell` webs.
//!
//! Determinism: equal wake times dispatch in ascending actor-id order, so a
//! pod that registers its components in a fixed order replays bit-identically
//! run after run. Registration order *is* the priority order on ties.
//!
//! The queue is one wake key per actor and an exact minimum over
//! `(wake, id)`: a wake is a store, registering an actor is a push, and no
//! entry is ever stale. For the two or three dozen actors a pod registers, a
//! scan of one contiguous array beats a heap's push and pop (and the stale
//! entries a heap without deletion leaves behind). The heap this replaced is
//! kept as a `#[cfg(test)]` reference model that the queue is checked
//! against.

use crate::time::SimTime;

/// What an actor wants after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Run again at the given absolute time (clamped to be >= now).
    WakeAt(SimTime),
    /// The actor has nothing left to do; it will only run again if someone
    /// calls [`Scheduler::wake`] on it.
    Idle,
    /// The actor is finished for good.
    Done,
}

/// Per-dispatch context handed to the callback of
/// [`Scheduler::run_until_with`].
///
/// Lets the running actor request wake-ups for *other* actors — applied
/// after its own step completes, so the borrow of the world stays simple.
pub struct StepCtx {
    wakes: Vec<(usize, SimTime)>,
}

impl StepCtx {
    /// Request that `actor` be woken at `at` (or earlier, if it already has
    /// an earlier wake pending). Applied when the current dispatch returns.
    pub fn wake(&mut self, actor: usize, at: SimTime) {
        self.wakes.push((actor, at));
    }
}

/// Ambient scheduler telemetry, collected only with the `obs` feature on.
///
/// "Wake-to-poll" is the sim time between a wake being *armed* (the
/// `wake()` call, an actor's own `WakeAt`, or registration) and the actor
/// actually being dispatched — the notification-to-service delay for
/// doorbell-style wakes, the poll period for self-scheduling loops.
#[cfg(feature = "obs")]
#[derive(Clone, Default)]
pub struct SchedStats {
    /// Total dispatches across the run.
    pub dispatches: u64,
    /// Superseded queue entries filtered on dispatch. The queue keeps one
    /// exact key per actor, so this stays 0; it is still exported, as
    /// `sim.sched_stale_skips`, for the readers that expect it.
    pub stale_skips: u64,
    /// Dispatch count per actor id.
    pub actor_polls: Vec<u64>,
    /// Wake-to-poll latency distribution (nanoseconds).
    pub wake_to_poll: crate::hist::Histogram,
}

#[cfg(feature = "obs")]
impl SchedStats {
    /// Fold another run's stats into this one (actor ids must line up,
    /// which holds when the world registers actors in a fixed order).
    pub fn merge(&mut self, other: &SchedStats) {
        self.dispatches += other.dispatches;
        self.stale_skips += other.stale_skips;
        if self.actor_polls.len() < other.actor_polls.len() {
            self.actor_polls.resize(other.actor_polls.len(), 0);
        }
        for (a, b) in self.actor_polls.iter_mut().zip(other.actor_polls.iter()) {
            *a += b;
        }
        self.wake_to_poll.merge(&other.wake_to_poll);
    }
}

/// Time-ordered actor scheduler.
///
/// Dispatch is a callback so the scheduler itself has no opinion about what
/// an actor is: `run_until` hands `(world, actor_id, now)` to the closure and
/// obeys the returned [`StepOutcome`].
pub struct Scheduler {
    /// Each actor's next dispatch time, `SimTime::MAX` when it has none:
    /// the next dispatch is the minimum `(wake, id)`, earliest first and
    /// lowest actor id on ties.
    wake: Vec<SimTime>,
    now: SimTime,
    /// The [`StepCtx`] wake buffer between dispatches (empty; kept for its
    /// allocation, so a dispatch does not pay a `malloc`/`free` pair).
    wakes: Vec<(usize, SimTime)>,
    /// Sim time at which each actor's live pending entry was armed.
    #[cfg(feature = "obs")]
    wake_origin: Vec<SimTime>,
    #[cfg(feature = "obs")]
    stats: SchedStats,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            wake: Vec::new(),
            now: SimTime::ZERO,
            wakes: Vec::new(),
            #[cfg(feature = "obs")]
            wake_origin: Vec::new(),
            #[cfg(feature = "obs")]
            stats: SchedStats::default(),
        }
    }

    /// Forget every actor and queued wake and rewind to time zero, keeping
    /// the allocations: a world that re-registers the same actors in the same
    /// order afterwards behaves exactly as on a scheduler fresh from
    /// [`Scheduler::new`].
    pub fn clear(&mut self) {
        self.wake.clear();
        self.now = SimTime::ZERO;
        #[cfg(feature = "obs")]
        {
            self.wake_origin.clear();
            self.stats.dispatches = 0;
            self.stats.stale_skips = 0;
            self.stats.actor_polls.clear();
            self.stats.wake_to_poll.clear();
        }
    }

    /// Telemetry collected so far (per-actor polls, wake-to-poll latency).
    #[cfg(feature = "obs")]
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    #[cfg(feature = "obs")]
    #[inline]
    fn note_armed(&mut self, actor: usize) {
        self.wake_origin[actor] = self.now;
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_armed(&mut self, _actor: usize) {}

    #[cfg(feature = "obs")]
    #[inline]
    fn note_dispatch(&mut self, actor: usize, at: SimTime) {
        self.stats.dispatches += 1;
        if self.stats.actor_polls.len() <= actor {
            self.stats.actor_polls.resize(actor + 1, 0);
        }
        self.stats.actor_polls[actor] += 1;
        let armed = self.wake_origin[actor];
        self.stats
            .wake_to_poll
            .record(at.as_nanos().saturating_sub(armed.as_nanos()));
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_dispatch(&mut self, _actor: usize, _at: SimTime) {}

    /// Current simulated time (the wake time of the most recently dispatched
    /// actor).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a new actor and schedule its first step at `first_wake`
    /// (`SimTime::MAX`: never, until woken). Returns the actor id.
    pub fn add_actor(&mut self, first_wake: SimTime) -> usize {
        let id = self.wake.len();
        self.wake.push(first_wake);
        #[cfg(feature = "obs")]
        self.wake_origin.push(self.now);
        id
    }

    /// Register a new actor that starts idle (must be woken explicitly).
    pub fn add_idle_actor(&mut self) -> usize {
        self.add_actor(SimTime::MAX)
    }

    /// Wake `actor` at time `at` (or earlier if it already has an earlier
    /// wake pending). Waking an actor that is `Done` is a no-op only if the
    /// caller stops dispatching it; the scheduler itself keeps no done-list.
    pub fn wake(&mut self, actor: usize, at: SimTime) {
        let at = at.max(self.now);
        if at < self.wake[actor] {
            self.wake[actor] = at;
            self.note_armed(actor);
        }
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.wake.len()
    }

    /// The next dispatch: the minimum `(wake, id)`, `SimTime::MAX` when no
    /// actor has a wake queued.
    #[inline]
    fn next_due(&self) -> (SimTime, usize) {
        let mut due = (SimTime::MAX, usize::MAX);
        for (id, &at) in self.wake.iter().enumerate() {
            if at < due.0 {
                due = (at, id);
            }
        }
        due
    }

    /// Run the simulation until `deadline` (inclusive) or until no actor has
    /// pending work. `dispatch(world, actor, now)` performs one step of the
    /// actor. Returns the time the loop stopped at: the deadline (an actor
    /// waking at `SimTime::MAX` never runs).
    pub fn run_until<W>(
        &mut self,
        world: &mut W,
        deadline: SimTime,
        mut dispatch: impl FnMut(&mut W, usize, SimTime) -> StepOutcome,
    ) -> SimTime {
        self.run_until_with(world, deadline, |w, actor, now, _ctx| {
            dispatch(w, actor, now)
        })
    }

    /// Like [`Scheduler::run_until`], but the dispatch callback also gets a
    /// [`StepCtx`] for cross-actor wake requests.
    pub fn run_until_with<W>(
        &mut self,
        world: &mut W,
        deadline: SimTime,
        mut dispatch: impl FnMut(&mut W, usize, SimTime, &mut StepCtx) -> StepOutcome,
    ) -> SimTime {
        loop {
            let (at, actor) = self.next_due();
            if at > deadline || at == SimTime::MAX {
                // Leave it queued; the caller may continue later.
                self.now = deadline;
                break;
            }
            self.wake[actor] = SimTime::MAX;
            self.now = at;
            self.note_dispatch(actor, at);
            let mut ctx = StepCtx {
                wakes: std::mem::take(&mut self.wakes),
            };
            match dispatch(world, actor, at, &mut ctx) {
                StepOutcome::WakeAt(next) => {
                    self.wake[actor] = next.max(at);
                    self.note_armed(actor);
                }
                StepOutcome::Idle | StepOutcome::Done => {}
            }
            for (who, when) in ctx.wakes.drain(..) {
                self.wake(who, when);
            }
            self.wakes = ctx.wakes;
        }
        self.now
    }
}

/// The lazy-deletion heap the exact queue replaced, kept as the executable
/// specification it is cross-checked against (see `queue_cross_check`
/// below): a min-heap on `(wake, id)` whose superseded entries are filtered
/// against each actor's live wake on pop.
#[cfg(test)]
pub mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{StepCtx, StepOutcome};
    use crate::time::SimTime;

    /// Reference scheduler: `BinaryHeap` plus per-actor live wake.
    #[derive(Default)]
    pub struct RefScheduler {
        queue: BinaryHeap<Reverse<(SimTime, usize)>>,
        pending: Vec<Option<SimTime>>,
        now: SimTime,
    }

    impl RefScheduler {
        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn add_actor(&mut self, first_wake: SimTime) -> usize {
            let id = self.pending.len();
            self.pending.push(Some(first_wake));
            self.queue.push(Reverse((first_wake, id)));
            id
        }

        pub fn add_idle_actor(&mut self) -> usize {
            let id = self.pending.len();
            self.pending.push(None);
            id
        }

        pub fn wake(&mut self, actor: usize, at: SimTime) {
            let at = at.max(self.now);
            match self.pending[actor] {
                Some(t) if t <= at => {}
                _ => {
                    self.pending[actor] = Some(at);
                    self.queue.push(Reverse((at, actor)));
                }
            }
        }

        pub fn run_until_with<W>(
            &mut self,
            world: &mut W,
            deadline: SimTime,
            mut dispatch: impl FnMut(&mut W, usize, SimTime, &mut StepCtx) -> StepOutcome,
        ) -> SimTime {
            while let Some(&Reverse((at, actor))) = self.queue.peek() {
                if at > deadline {
                    self.now = deadline;
                    break;
                }
                self.queue.pop();
                match self.pending[actor] {
                    Some(t) if t == at => {}
                    _ => continue,
                }
                self.pending[actor] = None;
                self.now = at;
                let mut ctx = StepCtx { wakes: Vec::new() };
                if let StepOutcome::WakeAt(next) = dispatch(world, actor, at, &mut ctx) {
                    let next = next.max(at);
                    self.pending[actor] = Some(next);
                    self.queue.push(Reverse((next, actor)));
                }
                for (who, when) in ctx.wakes {
                    self.wake(who, when);
                }
            }
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn actors_interleave_by_time() {
        // Two counters ticking at different periods; verify interleaving.
        struct World {
            log: Vec<(usize, u64)>,
        }
        let mut sched = Scheduler::new();
        let a = sched.add_actor(SimTime::ZERO);
        let b = sched.add_actor(SimTime::ZERO);
        let mut world = World { log: vec![] };
        sched.run_until(&mut world, SimTime::from_nanos(100), |w, id, now| {
            w.log.push((id, now.as_nanos()));
            let period = if id == a { 10 } else { 25 };
            StepOutcome::WakeAt(now + SimDuration::from_nanos(period))
        });
        // Actor a fires at 0,10,..,100 (11 times); b at 0,25,50,75,100 (5).
        let a_count = world.log.iter().filter(|(id, _)| *id == a).count();
        let b_count = world.log.iter().filter(|(id, _)| *id == b).count();
        assert_eq!(a_count, 11);
        assert_eq!(b_count, 5);
        // Log must be sorted by time.
        assert!(world.log.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn cleared_scheduler_replays_like_a_fresh_one() {
        let run = |sched: &mut Scheduler| {
            sched.add_actor(SimTime::from_nanos(3));
            sched.add_idle_actor();
            sched.add_actor(SimTime::from_nanos(3));
            let mut log = Vec::new();
            sched.run_until_with(
                &mut log,
                SimTime::from_nanos(40),
                |l: &mut Vec<(usize, u64)>, id, now, ctx| {
                    l.push((id, now.as_nanos()));
                    if id == 0 {
                        ctx.wake(1, now + SimDuration::from_nanos(1));
                    }
                    StepOutcome::WakeAt(now + SimDuration::from_nanos(7 + id as u64))
                },
            );
            (log, sched.now(), sched.actor_count())
        };
        let fresh = run(&mut Scheduler::new());
        let mut reused = Scheduler::new();
        run(&mut reused);
        reused.clear();
        assert_eq!(reused.actor_count(), 0);
        assert_eq!(run(&mut reused), fresh);
    }

    #[test]
    fn idle_actor_runs_only_when_woken() {
        let mut sched = Scheduler::new();
        let idle = sched.add_idle_actor();
        let driver = sched.add_actor(SimTime::ZERO);
        let mut hits = vec![0u32; 2];
        sched.run_until(&mut hits, SimTime::from_nanos(50), |w, id, _now| {
            w[id] += 1;
            if id == driver {
                StepOutcome::Done
            } else {
                StepOutcome::Idle
            }
        });
        assert_eq!(hits[idle], 0);
        assert_eq!(hits[driver], 1);

        sched.wake(idle, SimTime::from_nanos(60));
        sched.run_until(&mut hits, SimTime::from_nanos(100), |w, id, _| {
            w[id] += 1;
            StepOutcome::Idle
        });
        assert_eq!(hits[idle], 1);
    }

    #[test]
    fn earlier_wake_supersedes_later() {
        let mut sched = Scheduler::new();
        let a = sched.add_idle_actor();
        sched.wake(a, SimTime::from_nanos(100));
        sched.wake(a, SimTime::from_nanos(10)); // earlier wins
        let mut times = Vec::new();
        sched.run_until(&mut times, SimTime::from_nanos(200), |w, _, now| {
            w.push(now.as_nanos());
            StepOutcome::Idle
        });
        assert_eq!(times, vec![10]);
    }

    #[test]
    fn later_wake_does_not_postpone() {
        // `wake` may only move an actor earlier: a later request while an
        // earlier one is pending is ignored.
        let mut sched = Scheduler::new();
        let a = sched.add_idle_actor();
        sched.wake(a, SimTime::from_nanos(10));
        sched.wake(a, SimTime::from_nanos(100)); // ignored
        let mut times = Vec::new();
        sched.run_until(&mut times, SimTime::from_nanos(200), |w, _, now| {
            w.push(now.as_nanos());
            StepOutcome::Idle
        });
        assert_eq!(times, vec![10], "actor fires once, at the earlier time");
    }

    #[test]
    fn deadline_pauses_and_resumes() {
        let mut sched = Scheduler::new();
        sched.add_actor(SimTime::from_nanos(5));
        let mut count = 0u32;
        sched.run_until(&mut count, SimTime::from_nanos(14), |c, _, now| {
            *c += 1;
            StepOutcome::WakeAt(now + SimDuration::from_nanos(10))
        });
        // Fires at 5, reschedules to 15 which is past the deadline.
        assert_eq!(count, 1);
        // Continue to t=30: fires at 15 and 25.
        sched.run_until(&mut count, SimTime::from_nanos(30), |c, _, now| {
            *c += 1;
            StepOutcome::WakeAt(now + SimDuration::from_nanos(10))
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn wake_in_past_clamps_to_now() {
        let mut sched = Scheduler::new();
        let a = sched.add_actor(SimTime::from_nanos(50));
        let b = sched.add_idle_actor();
        let mut order = Vec::new();
        sched.run_until(
            &mut order,
            SimTime::from_nanos(100),
            |o: &mut Vec<usize>, id, _| {
                o.push(id);
                StepOutcome::Idle
            },
        );
        assert_eq!(order, vec![a]);
        // now == 50; waking b "at 10" must not rewind time.
        sched.wake(b, SimTime::from_nanos(10));
        sched.run_until(&mut order, SimTime::from_nanos(100), |o, id, now| {
            o.push(id);
            assert!(now >= SimTime::from_nanos(50));
            StepOutcome::Idle
        });
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn equal_time_ties_dispatch_in_actor_id_order() {
        // Registration order is the tie-break priority: all actors due at
        // the same instant dispatch lowest-id first, every round, regardless
        // of the order their wake entries were pushed.
        let mut sched = Scheduler::new();
        for _ in 0..5 {
            sched.add_idle_actor();
        }
        // Wake in scrambled order, all at the same time.
        for &id in &[3usize, 0, 4, 2, 1] {
            sched.wake(id, SimTime::from_nanos(7));
        }
        let mut order = Vec::new();
        sched.run_until(
            &mut order,
            SimTime::from_nanos(10),
            |o: &mut Vec<usize>, id, _| {
                o.push(id);
                StepOutcome::Idle
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tie_break_is_deterministic_across_runs() {
        let run = || {
            let mut sched = Scheduler::new();
            let _a = sched.add_actor(SimTime::ZERO);
            let _b = sched.add_actor(SimTime::ZERO);
            let _c = sched.add_actor(SimTime::ZERO);
            let mut log = Vec::new();
            sched.run_until(
                &mut log,
                SimTime::from_nanos(30),
                |l: &mut Vec<(usize, u64)>, id, now| {
                    l.push((id, now.as_nanos()));
                    StepOutcome::WakeAt(now + SimDuration::from_nanos(10))
                },
            );
            log
        };
        let first = run();
        assert_eq!(first, run(), "identical setup must replay identically");
        // Within each instant, ids ascend.
        for chunk in first.chunks(3) {
            assert!(chunk
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 == w[1].1));
        }
    }

    #[test]
    fn max_wake_never_dispatches_before_deadline() {
        // `SimTime::MAX` is the "parked" sentinel: an actor rescheduling to
        // MAX must never run again within any finite horizon, and must not
        // prevent the loop from reaching the deadline.
        let mut sched = Scheduler::new();
        sched.add_actor(SimTime::ZERO); // parks itself at MAX
        sched.add_actor(SimTime::ZERO); // ticks every 10ns
        let mut hits = vec![0u32; 2];
        let stopped = sched.run_until(&mut hits, SimTime::from_nanos(100), |w, id, now| {
            w[id] += 1;
            if id == 0 {
                StepOutcome::WakeAt(SimTime::MAX)
            } else {
                StepOutcome::WakeAt(now + SimDuration::from_nanos(10))
            }
        });
        assert_eq!(hits[0], 1, "parked actor ran only its first step");
        assert_eq!(hits[1], 11);
        assert_eq!(stopped, SimTime::from_nanos(100));

        // A later wake un-parks it.
        sched.wake(0, SimTime::from_nanos(110));
        sched.run_until(&mut hits, SimTime::from_nanos(120), |w, id, _| {
            w[id] += 1;
            StepOutcome::Idle
        });
        assert_eq!(hits[0], 2);
    }

    #[test]
    fn idle_actors_at_max_do_not_stall_empty_queue() {
        // A scheduler holding only MAX-parked actors stops at the deadline
        // without dispatching anyone.
        let mut sched = Scheduler::new();
        sched.add_actor(SimTime::MAX);
        sched.add_actor(SimTime::MAX);
        let mut hits = 0u32;
        let stopped = sched.run_until(&mut hits, SimTime::from_secs(1), |c, _, _| {
            *c += 1;
            StepOutcome::Idle
        });
        assert_eq!(hits, 0);
        assert_eq!(stopped, SimTime::from_secs(1));
    }

    #[test]
    fn step_ctx_wakes_other_actor() {
        // Actor 0 (at t=5) wakes actor 1 at t=20 via the ctx.
        let mut sched = Scheduler::new();
        let trigger = sched.add_actor(SimTime::from_nanos(5));
        let target = sched.add_idle_actor();
        let _bg = sched.add_actor(SimTime::from_nanos(50));
        let mut log = Vec::new();
        sched.run_until_with(
            &mut log,
            SimTime::from_nanos(100),
            |l: &mut Vec<(usize, u64)>, id, now, ctx| {
                l.push((id, now.as_nanos()));
                if id == trigger {
                    ctx.wake(target, SimTime::from_nanos(20));
                }
                StepOutcome::Idle
            },
        );
        assert_eq!(log, vec![(0, 5), (1, 20), (2, 50)]);
    }

    #[test]
    fn rearmed_at_the_dispatch_time_runs_in_id_order_after_it() {
        // What the pod relies on when it re-arms a parked engine from
        // another actor's dispatch: an actor woken at the *same* `at` runs
        // after the waker in any case, and takes the place its id gives it
        // among the other actors due then — so it runs where it would have
        // had it been queued all along iff its id is larger than the
        // waker's. (A smaller id would have run before the waker; the pod
        // never re-arms one at `at`, it has already counted that round.)
        let mut sched = Scheduler::new();
        for _ in 0..5 {
            sched.add_idle_actor();
        }
        let at = SimTime::from_nanos(9);
        for id in [2usize, 4] {
            sched.wake(id, at);
        }
        let mut order = Vec::new();
        sched.run_until_with(
            &mut order,
            SimTime::from_nanos(20),
            |o: &mut Vec<usize>, id, now, ctx| {
                assert_eq!(now, at);
                o.push(id);
                if id == 2 {
                    // Larger ids slot in before the even larger 4; the
                    // smaller id 1 can only follow.
                    ctx.wake(3, at);
                    ctx.wake(1, at);
                }
                StepOutcome::Idle
            },
        );
        assert_eq!(order, vec![2, 1, 3, 4]);

        // Queued all along, the larger id runs in the same place.
        let mut sched = Scheduler::new();
        for _ in 0..5 {
            sched.add_idle_actor();
        }
        for id in [2usize, 3, 4] {
            sched.wake(id, at);
        }
        let mut queued = Vec::new();
        sched.run_until(&mut queued, SimTime::from_nanos(20), |o, id, _| {
            o.push(id);
            StepOutcome::Idle
        });
        assert_eq!(queued, vec![2, 3, 4]);
    }

    /// What one dispatch of an actor does in `queue_cross_check`.
    #[derive(Clone, Debug)]
    enum Reply {
        /// `WakeAt(at + d)`, `d` possibly 0.
        WakeAfter(u64),
        /// `WakeAt(SimTime::MAX)`, the parked sentinel.
        Park,
        Idle,
        Done,
    }

    /// One entry of a random history.
    #[derive(Clone, Debug)]
    enum QOp {
        /// Register an actor, first waking `Some(t)` or idle.
        Add(Option<u64>),
        /// Wake an actor (index modulo the actors registered) from outside.
        Wake(usize, u64),
        /// Run to a deadline, `ns` past the previous one.
        Run(u64),
    }

    fn qop() -> impl Strategy<Value = QOp> {
        let add = || (any::<bool>(), 0u64..60).prop_map(|(idle, t)| QOp::Add((!idle).then_some(t)));
        let wake = || (any::<usize>(), 0u64..80).prop_map(|(a, t)| QOp::Wake(a, t));
        let run = || (0u64..50).prop_map(QOp::Run);
        prop_oneof![add(), add(), wake(), wake(), run(), run(), run()]
    }

    fn reply() -> impl Strategy<Value = (Reply, Vec<(usize, u64)>)> {
        let after = || (0u64..12).prop_map(Reply::WakeAfter);
        let r = prop_oneof![
            after(),
            after(),
            after(),
            after(),
            Just(Reply::Park),
            Just(Reply::Idle),
            Just(Reply::Idle),
            Just(Reply::Done),
        ];
        // Cross-actor wakes from the dispatch, `ns` after (or at) its time.
        (
            r,
            proptest::collection::vec((any::<usize>(), 0u64..15), 0..3),
        )
    }

    proptest::proptest! {
        /// The exact queue against the heap it replaced: the same
        /// registrations, outside wakes, replies (`WakeAt`, the `MAX`
        /// sentinel, `Idle`, `Done`), cross-actor wakes and deadlines
        /// dispatch the same `(actor, time)` sequence.
        ///
        /// Outside wakes are drawn at or after the last deadline: the two
        /// agree on where a run stops only up to that (the heap stopped at
        /// the deadline or at its last dispatch, depending on whether a
        /// stale entry lay past the deadline), and a wake is clamped to it.
        #[test]
        fn queue_cross_check(
            ops in proptest::collection::vec(qop(), 1..60),
            replies in proptest::collection::vec(reply(), 1..64),
        ) {
            let mut new = Scheduler::new();
            let mut old = reference::RefScheduler::default();
            let (mut new_log, mut old_log) = (Vec::new(), Vec::new());
            let mut deadline = 0u64;
            for op in ops {
                match op {
                    QOp::Add(first) => {
                        let t = first.map(|t| SimTime::from_nanos(deadline + t));
                        let (a, b) = match t {
                            Some(t) => (new.add_actor(t), old.add_actor(t)),
                            None => (new.add_idle_actor(), old.add_idle_actor()),
                        };
                        proptest::prop_assert_eq!(a, b);
                    }
                    QOp::Wake(a, t) if new.actor_count() > 0 => {
                        let a = a % new.actor_count();
                        new.wake(a, SimTime::from_nanos(deadline + t));
                        old.wake(a, SimTime::from_nanos(deadline + t));
                    }
                    QOp::Wake(..) => {}
                    QOp::Run(ns) => {
                        deadline += ns;
                        let actors = new.actor_count();
                        let step = |log: &mut Vec<(usize, u64)>, id: usize, now: SimTime, ctx: &mut StepCtx| {
                            let (reply, wakes) = &replies[log.len() % replies.len()];
                            log.push((id, now.as_nanos()));
                            for &(who, d) in wakes {
                                ctx.wake(who % actors, now + SimDuration::from_nanos(d));
                            }
                            match *reply {
                                Reply::WakeAfter(d) => StepOutcome::WakeAt(now + SimDuration::from_nanos(d)),
                                Reply::Park => StepOutcome::WakeAt(SimTime::MAX),
                                Reply::Idle => StepOutcome::Idle,
                                Reply::Done => StepOutcome::Done,
                            }
                        };
                        let at = SimTime::from_nanos(deadline);
                        new.run_until_with(&mut new_log, at, step);
                        old.run_until_with(&mut old_log, at, step);
                        proptest::prop_assert_eq!(&new_log, &old_log, "deadline {}", deadline);
                        proptest::prop_assert!(new_log.len() < 5_000, "runaway history");
                    }
                }
            }
        }
    }
}
