//! A fourth device class in test code only: a register file (16 × u64;
//! set / get / add over 64 B descriptors, no payload buffers) on the
//! generic request/response engine. ROADMAP item 3's exit test: the class
//! below is everything a new device needs — no edit to `pod.rs`,
//! `engine.rs` or `engine_req.rs` — and it inherits retry, restart replay
//! and exactly-once execution (`Add` is not idempotent, so a double
//! execution would show).

use std::collections::VecDeque;

use oasis_channel::RetryPolicy;
use oasis_core::assert_wire_size;
use oasis_core::config::OasisConfig;
use oasis_core::engine::{DeviceEngine, EngineFault, WireDescriptor};
use oasis_core::engine_req::{Outcome, ReqClass, ReqPair};
use oasis_cxl::dma::DmaMemory;
use oasis_sim::time::{SimDuration, SimTime};

const SET: u8 = 1;
const GET: u8 = 2;
const ADD: u8 = 3;
const DONE: u8 = 0x7e;

/// One 64 B descriptor for both directions: a command carries its opcode
/// in `tag` and a register index in `code`; a completion carries `DONE`
/// and a status byte.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RegMsg {
    tag: u8,
    code: u8,
    cid: u16,
    frontend: u32,
    value: u64,
}

fn msg(tag: u8, code: u8, cid: u16, frontend: u32, value: u64) -> RegMsg {
    RegMsg {
        tag,
        code,
        cid,
        frontend,
        value,
    }
}

impl WireDescriptor for RegMsg {
    const WIRE_SIZE: usize = 64;
    fn encode_into(&self, buf: &mut [u8]) {
        buf[..64].fill(0);
        (buf[0], buf[1]) = (self.tag, self.code);
        buf[2..4].copy_from_slice(&self.cid.to_le_bytes());
        buf[4..8].copy_from_slice(&self.frontend.to_le_bytes());
        buf[8..16].copy_from_slice(&self.value.to_le_bytes());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        let cid = u16::from_le_bytes([buf[2], buf[3]]);
        let frontend = u32::from_le_bytes(buf[4..8].try_into().ok()?);
        let value = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        let known = matches!(buf[0], SET | GET | ADD | DONE);
        known.then(|| msg(buf[0], buf[1], cid, frontend, value))
    }
}
assert_wire_size!(RegMsg);

/// The device: one command per 500 ns; swallows commands whole while a
/// fault window is open.
#[derive(Default)]
struct RegFile {
    regs: [u64; 16],
    queue: VecDeque<RegMsg>,
    done: VecDeque<(SimTime, RegMsg)>,
    busy_until: SimTime,
    swallow_until: SimTime,
    executed: u64,
}

/// `(cid, status, register value)`.
#[derive(Debug)]
struct RegResult(u16, u8, u64);

struct RegClass;

impl ReqClass for RegClass {
    type Command = RegMsg;
    type Completion = RegMsg;
    type Device = RegFile;
    type Result = RegResult;

    const NAME: &'static str = "regfile";
    const METRICS: [&'static str; 12] = ["test.regfile"; 12];
    const RETRY: RetryPolicy = RetryPolicy {
        timeout: SimDuration::from_micros(20),
        backoff: 2,
        max_attempts: 4,
    };
    const BUF_SIZE: u64 = 64;
    const BUFS_PER_HOST: u64 = 64;
    const OK: u8 = 0x00;
    const TRANSIENT: u8 = 0x81;
    const FAILED: u8 = 0x06;
    const RESEND_TRANSIENT_AT_ONCE: bool = false;
    const RESULT_WORD: bool = true;

    fn cmd_ids(cmd: &RegMsg) -> (u16, u32) {
        (cmd.cid, cmd.frontend)
    }
    fn split(c: &RegMsg) -> (u16, u32, Outcome) {
        (c.cid, c.frontend, Outcome::new(c.code, c.value))
    }
    fn completion(cid: u16, frontend: u32, o: Outcome) -> RegMsg {
        msg(DONE, o.status, cid, frontend, o.result)
    }
    fn buffers(_: &RegMsg) -> [Option<(u64, u64)>; 2] {
        [None, None]
    }
    fn readback(_: &RegMsg) -> Option<(u64, u64)> {
        None
    }
    fn result(cid: u16, o: Outcome, _: Option<Vec<u8>>) -> RegResult {
        RegResult(cid, o.status, o.result)
    }
    fn result_parts(r: &RegResult) -> (u16, Outcome, Option<&[u8]>) {
        (r.0, Outcome::new(r.1, r.2), None)
    }
    fn submit(dev: &mut RegFile, _now: SimTime, cmd: RegMsg) -> bool {
        dev.queue.push_back(cmd);
        true
    }
    fn process(dev: &mut RegFile, now: SimTime, _dma: &mut dyn DmaMemory) {
        while let Some(cmd) = dev.queue.pop_front() {
            if now < dev.swallow_until {
                continue;
            }
            dev.executed += 1;
            let reg = &mut dev.regs[cmd.code as usize % 16];
            match cmd.tag {
                SET => *reg = cmd.value,
                ADD => *reg += cmd.value,
                _ => {}
            }
            dev.busy_until = dev.busy_until.max(now) + SimDuration::from_nanos(500);
            let comp = msg(DONE, RegClass::OK, cmd.cid, cmd.frontend, *reg);
            dev.done.push_back((dev.busy_until, comp));
        }
    }
    fn poll_completions(dev: &mut RegFile, now: SimTime) -> Vec<RegMsg> {
        let ready = dev.done.iter().take_while(|(at, _)| *at <= now).count();
        dev.done.drain(..ready).map(|(_, c)| c).collect()
    }
}

fn reg_op(p: &mut ReqPair<RegClass>, op: u8, reg: u8, value: u64) -> u16 {
    let build = |cid, frontend, _| msg(op, reg, cid, frontend, value);
    let cid = p.frontend.submit(&mut p.pool, 0, true, 0, None, build);
    cid.expect("accepted")
}

fn pair() -> ReqPair<RegClass> {
    ReqPair::new(OasisConfig::default(), RegFile::default(), 64)
}

#[test]
fn swallowed_command_is_retried_and_runs_once() {
    let mut p = pair();
    p.backend.device.swallow_until = SimTime::from_micros(30);
    reg_op(&mut p, ADD, 5, 7);
    let done = p.run_until_completions(1, SimTime::from_millis(1));
    assert_eq!((done[0].1, done[0].2), (RegClass::OK, 7));
    // The 20 µs deadline resent it; only the resend reached the registers.
    assert!(p.frontend.stats.retries >= 1);
    assert_eq!(p.backend.device.executed, 1);
    let get = reg_op(&mut p, GET, 5, 0);
    let done = p.run_until_completions(1, SimTime::from_millis(2));
    assert_eq!((done[0].0, done[0].2), (get, 7));
}

#[test]
fn restart_replay_is_answered_from_the_cache_not_re_executed() {
    let mut p = pair();
    let cid = reg_op(&mut p, ADD, 9, 100);
    // Only the backend runs: the add executes and its completion waits in
    // the channel while the frontend host is down.
    while p.backend.device.executed == 0 || p.backend.stats.completions == 0 {
        p.backend.step(&mut p.pool);
    }
    // The host restarts: cold cache, in-flight commands replayed.
    p.frontend.core.cache.drain();
    p.frontend.core.clock = p.backend.core.clock;
    p.frontend.on_fault(EngineFault::HostRestart, &mut p.pool);
    assert_eq!(p.frontend.stats.retries, 1);
    p.run(p.frontend.core.clock + SimDuration::from_micros(200));
    let done = p.frontend.take_completions();
    assert_eq!(done.len(), 1, "the replay's second completion is dropped");
    assert_eq!((done[0].0, done[0].2), (cid, 100));
    assert_eq!(p.backend.stats.replays_answered, 1);
    assert_eq!(p.backend.device.executed, 1, "the add ran exactly once");
    assert_eq!(p.backend.device.regs[9], 100);
}
