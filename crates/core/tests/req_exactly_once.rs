//! Exactly-once, by oracle, over the request/response engine's two pure
//! cores alone — `FeCore` (retry, replay) and `DedupCache` (dedup) — with
//! no pool, no channel and no scheduler: this file plays wire and device.
//!
//! Random interleavings of submit, command delivery (executed, executed
//! with a transient error, swallowed), completion delivered / dropped /
//! duplicated, time passing, and host restart are checked against a model
//! that is correct by inspection: a list of every execution, a map of
//! what the caller was handed, a per-command count of sends since it was
//! last armed, and a reference dedup window (a deque). The properties:
//!
//! * every submitted command is handed to the caller exactly once, and
//!   nothing reaches the caller after it was failed (`retry_exhausted`);
//! * a successful result is the result of an execution of that command;
//! * a command is executed again only if the reference window has
//!   forgotten it or all its executions so far were transient — with a
//!   window larger than the run, at most one terminal execution;
//! * the cache answers a replay exactly when the reference window does;
//! * a command is failed only after `max_attempts` sends since it was
//!   last armed (submit, or a restart's replay: a fresh budget), and a
//!   transient status reaches the caller only on the last attempt.
//!
//! Both production classes run: storage resends a transient error at
//! once, accel leaves it to the deadline. Three seeded mutants — each a
//! copy of one core transition with one line gone — must be killed.

use std::collections::{BTreeMap, VecDeque};

use oasis_accel::{AccelCommand, AccelOp};
use oasis_core::engine_accel::AccelClass;
use oasis_core::engine_req::{DedupCache, FeAction, FeCore, Outcome, ReqClass};
use oasis_core::engine_storage::StorageClass;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::command::{NvmeCommand, NvmeOpcode};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutant {
    None,
    /// `record` forgets to evict the cache entry of the id the window
    /// pushed out.
    SkipLockstepEviction,
    /// `record` caches a transient status like a terminal one.
    CacheTransient,
    /// Restart replay resends without arming a fresh budget.
    NoRearmOnReplay,
}

/// What the device does with a command that reaches it.
#[derive(Clone, Copy, Debug)]
enum Exec {
    Ok,
    Transient,
    Swallow,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Submit,
    /// The backend takes the oldest command off the wire.
    Command(Exec),
    /// The frontend takes the oldest completion off the wire…
    Completion,
    /// …or it is lost, or delivered and left on the wire to arrive again.
    DropCompletion,
    DupCompletion,
    /// Time passes (in units of the class's retry timeout / 4).
    Tick(u64),
    Restart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Submit),
        Just(Op::Submit),
        Just(Op::Command(Exec::Ok)),
        Just(Op::Command(Exec::Ok)),
        Just(Op::Command(Exec::Transient)),
        Just(Op::Command(Exec::Swallow)),
        Just(Op::Completion),
        Just(Op::Completion),
        Just(Op::DropCompletion),
        Just(Op::DupCompletion),
        (1u64..40).prop_map(Op::Tick),
        (1u64..40).prop_map(Op::Tick),
        Just(Op::Restart),
    ]
}

/// A command of the class with the given id (payload fields are unused
/// by the cores).
trait Wire: ReqClass {
    fn cmd(cid: u16) -> Self::Command;
}

impl Wire for StorageClass {
    fn cmd(cid: u16) -> NvmeCommand {
        NvmeCommand {
            opcode: NvmeOpcode::Read,
            cid,
            nsid: 1,
            data_ptr: 0,
            slba: 0,
            nlb: 1,
            frontend: 0,
        }
    }
}

impl Wire for AccelClass {
    fn cmd(cid: u16) -> AccelCommand {
        AccelCommand {
            op: AccelOp::Checksum,
            cid,
            arg: 0,
            input_ptr: 0,
            output_ptr: 0,
            input_len: 8,
            frontend: 0,
        }
    }
}

fn ok_outcome<C: ReqClass>(cid: u16) -> Outcome {
    Outcome::new(C::OK, 0xA000 + cid as u64)
}

struct World<C: Wire> {
    fe: FeCore<C>,
    be: DedupCache<C>,
    now: SimTime,
    cmd_wire: VecDeque<C::Command>,
    cpl_wire: VecDeque<(u16, Outcome)>,
    mutant: Mutant,
    /// Dedup capacity; `strict` when it exceeds every id the run can use.
    cap: usize,
    // The model.
    submitted: Vec<u16>,
    executions: BTreeMap<u16, Vec<u8>>,
    handed: BTreeMap<u16, Outcome>,
    sends: BTreeMap<u16, u32>,
    window: VecDeque<(u16, Outcome)>,
}

impl<C: Wire> World<C> {
    fn new(cap: usize, mutant: Mutant) -> Self {
        World {
            fe: FeCore::default(),
            be: DedupCache::new(cap),
            now: SimTime::from_micros(1),
            cmd_wire: VecDeque::new(),
            cpl_wire: VecDeque::new(),
            mutant,
            cap,
            submitted: Vec::new(),
            executions: BTreeMap::new(),
            handed: BTreeMap::new(),
            sends: BTreeMap::new(),
            window: VecDeque::new(),
        }
    }

    fn window_lookup(&self, cid: u16) -> Option<Outcome> {
        let hit = self.window.iter().find(|(c, _)| *c == cid);
        hit.map(|(_, o)| *o)
    }

    /// The reference dedup window: terminal outcomes of the last `cap`
    /// distinct ids, oldest forgotten first; a repeat id keeps its place.
    fn window_record(&mut self, cid: u16, o: Outcome) {
        if o.status == C::TRANSIENT {
            return;
        }
        if let Some(slot) = self.window.iter_mut().find(|(c, _)| *c == cid) {
            slot.1 = o;
            return;
        }
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back((cid, o));
    }

    /// `DedupCache::record`, or a mutant of it.
    fn record(&mut self, cid: u16, o: Outcome) {
        let transient = o.status == C::TRANSIENT;
        match self.mutant {
            Mutant::SkipLockstepEviction if !transient => {
                self.be.seen.insert_evicting(cid);
                self.be.done.insert(cid, o);
            }
            Mutant::CacheTransient if transient => {
                let (_, evicted) = self.be.seen.insert_evicting(cid);
                if let Some(old) = evicted {
                    self.be.done.remove(&old);
                }
                self.be.done.insert(cid, o);
            }
            _ => self.be.record(cid, o),
        }
    }

    fn apply(&mut self, action: FeAction<C>) -> Result<(), String> {
        let budget = C::RETRY.max_attempts;
        match action {
            FeAction::Wait => {}
            FeAction::Resend(_, cmd) => {
                *self.sends.entry(C::cmd_ids(&cmd).0).or_default() += 1;
                self.cmd_wire.push_back(cmd);
            }
            FeAction::Deliver(p, o) => {
                let cid = C::cmd_ids(&p.cmd).0;
                if self.handed.insert(cid, o).is_some() {
                    return Err(format!("cid {cid} handed to the caller twice"));
                }
                let ran = self
                    .executions
                    .get(&cid)
                    .is_some_and(|e| e.contains(&C::OK));
                if o.status == C::OK && (o != ok_outcome::<C>(cid) || !ran) {
                    return Err(format!("cid {cid} delivered {o:?} it never computed"));
                }
                if o.status == C::TRANSIENT && self.sends[&cid] != budget {
                    return Err(format!("cid {cid} surfaced a transient error early"));
                }
            }
            FeAction::Fail(p) => {
                let cid = C::cmd_ids(&p.cmd).0;
                let failed = Outcome::new(C::FAILED, 0);
                if self.handed.insert(cid, failed).is_some() {
                    return Err(format!("cid {cid} failed after it was handed over"));
                }
                if self.sends[&cid] != budget {
                    let n = self.sends[&cid];
                    return Err(format!("cid {cid} failed after {n} of {budget} sends"));
                }
            }
        }
        Ok(())
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Submit => {
                let cid = self.fe.take_cid();
                let cmd = C::cmd(cid);
                self.fe.submitted(cmd, 0, self.now);
                self.submitted.push(cid);
                self.sends.insert(cid, 1);
                self.cmd_wire.push_back(cmd);
            }
            Op::Command(exec) => {
                let Some(cmd) = self.cmd_wire.pop_front() else {
                    return Ok(());
                };
                let cid = C::cmd_ids(&cmd).0;
                let (got, want) = (self.be.lookup(cid), self.window_lookup(cid));
                if got != want {
                    return Err(format!("cid {cid}: cache says {got:?}, model {want:?}"));
                }
                if let Some(o) = got {
                    self.cpl_wire.push_back((cid, o));
                    return Ok(());
                }
                let o = match exec {
                    Exec::Swallow => return Ok(()),
                    Exec::Ok => ok_outcome::<C>(cid),
                    Exec::Transient => Outcome::new(C::TRANSIENT, 0),
                };
                let runs = self.executions.entry(cid).or_default();
                let strict = self.cap > self.submitted.len();
                if strict && runs.iter().any(|&s| s != C::TRANSIENT) {
                    return Err(format!("cid {cid} executed twice"));
                }
                runs.push(o.status);
                self.record(cid, o);
                self.window_record(cid, o);
                self.cpl_wire.push_back((cid, o));
            }
            Op::Completion | Op::DupCompletion => {
                let Some((cid, o)) = self.cpl_wire.pop_front() else {
                    return Ok(());
                };
                if matches!(op, Op::DupCompletion) {
                    self.cpl_wire.push_back((cid, o));
                }
                let action = self.fe.on_completion(cid, o, self.now);
                self.apply(action)?;
            }
            Op::DropCompletion => {
                self.cpl_wire.pop_front();
            }
            Op::Tick(quarters) => {
                let quarter = C::RETRY.timeout.as_nanos() / 4;
                self.now += SimDuration::from_nanos(quarters * quarter);
                for cid in self.fe.expired(self.now) {
                    let action = self.fe.on_expiry(cid, self.now);
                    self.apply(action)?;
                }
            }
            Op::Restart => {
                for cid in self.fe.in_flight() {
                    let action = match self.mutant {
                        Mutant::NoRearmOnReplay => {
                            let p = &self.fe.pending[&cid];
                            FeAction::Resend(p.dev, p.cmd)
                        }
                        _ => self.fe.on_replay(cid, self.now),
                    };
                    self.apply(action)?;
                    // A replay is the first send of a fresh budget.
                    self.sends.insert(cid, 1);
                }
            }
        }
        // The cache and the reference window agree on every id ever used.
        for &cid in &self.submitted {
            let (got, want) = (self.be.lookup(cid), self.window_lookup(cid));
            if got != want {
                return Err(format!("cid {cid}: cache holds {got:?}, model {want:?}"));
            }
        }
        Ok(())
    }
}

/// Run `ops`, then a fair schedule (nothing lost, device healthy) until
/// the frontend is idle, and hold the run to the model.
fn run<C: Wire>(cap: usize, ops: &[Op], mutant: Mutant) -> Result<(), String> {
    let mut w = World::<C>::new(cap, mutant);
    for &op in ops {
        w.step(op)?;
    }
    for _ in 0..4 * (C::RETRY.max_attempts as usize + 1) {
        while !w.cmd_wire.is_empty() {
            w.step(Op::Command(Exec::Ok))?;
        }
        while !w.cpl_wire.is_empty() {
            w.step(Op::Completion)?;
        }
        if w.fe.pending.is_empty() {
            break;
        }
        w.step(Op::Tick(4 << C::RETRY.max_attempts))?;
    }
    if !w.fe.pending.is_empty() {
        return Err(format!("{} commands never resolved", w.fe.pending.len()));
    }
    match w.submitted.iter().find(|cid| !w.handed.contains_key(cid)) {
        Some(cid) => Err(format!("cid {cid} was never handed to the caller")),
        None => Ok(()),
    }
}

/// The two window sizes: smaller than a run (eviction happens, so a
/// forgotten command may legitimately run again) and larger (strict
/// at-most-once execution).
fn caps() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(256)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn storage_cores_are_exactly_once(
        cap in caps(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        if let Err(e) = run::<StorageClass>(cap, &ops, Mutant::None) {
            panic!("{e}");
        }
    }

    #[test]
    fn accel_cores_are_exactly_once(
        cap in caps(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        if let Err(e) = run::<AccelClass>(cap, &ops, Mutant::None) {
            panic!("{e}");
        }
    }
}

/// The first of 256 generated cases in which the model catches `mutant`.
fn killed_at<C: Wire>(mutant: Mutant) -> Option<(usize, String)> {
    let mut rng = TestRng::for_test("req_exactly_once::mutants");
    let strategy = (caps(), proptest::collection::vec(op_strategy(), 1..120));
    (0..256).find_map(|case| {
        let (cap, ops) = strategy.generate(&mut rng);
        run::<C>(cap, &ops, mutant).err().map(|e| (case, e))
    })
}

#[test]
fn the_model_kills_all_three_mutants_on_both_classes() {
    // The harness itself is sound: no mutant, no kill.
    assert_eq!(killed_at::<StorageClass>(Mutant::None), None);
    assert_eq!(killed_at::<AccelClass>(Mutant::None), None);
    for mutant in [
        Mutant::SkipLockstepEviction,
        Mutant::CacheTransient,
        Mutant::NoRearmOnReplay,
    ] {
        let s = killed_at::<StorageClass>(mutant);
        let a = killed_at::<AccelClass>(mutant);
        println!("{mutant:?}: storage {s:?}, accel {a:?}");
        assert!(s.is_some(), "{mutant:?} survived on the storage class");
        assert!(a.is_some(), "{mutant:?} survived on the accel class");
    }
}
