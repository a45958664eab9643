//! Perf regression guard for the simulation substrate.
//!
//! Runs a fixed, deterministic channel + datapath workload, measures how
//! many *simulated* operations the library executes per *wall-clock*
//! second, and writes `BENCH_substrate.json` so successive PRs can see the
//! substrate's speed trajectory. The simulated-op count is a pure function
//! of the workload (the simulation is deterministic), so the metric only
//! moves when the substrate itself gets faster or slower.
//!
//! Usage:
//!   perf_smoke              measure; keep any recorded baseline in the JSON
//!   perf_smoke --baseline   measure and also record this run as the baseline
//!   perf_smoke --check      measure and fail (exit 1) when throughput fell
//!                           more than the tolerance band below the
//!                           committed baseline (see `oasis_bench::regress`)

// oasis-check: allow-file(nondeterminism) this binary measures wall-clock
// throughput of the simulator itself; its output is a report, not an input
// to any simulation.
use std::time::Instant;

use oasis_bench::harness::{run_udp_echo, Mode};
use oasis_bench::regress;
use oasis_channel::runner::run_offered_load;
use oasis_channel::Policy;
use oasis_sim::report::Table;
use oasis_sim::shard::{threads_from_env, Envelope, Outgoing, ShardWorld, ShardedRunner};
use oasis_sim::time::{SimDuration, SimTime};

/// One timed phase: simulated ops done and wall seconds spent.
struct Phase {
    name: &'static str,
    sim_ops: u64,
    wall_secs: f64,
}

fn channel_phase() -> Phase {
    let duration = SimDuration::from_millis(4);
    let start = Instant::now();
    let mut sim_ops = 0u64;
    for policy in Policy::ALL {
        let r = run_offered_load(policy, 8192, f64::INFINITY, duration);
        // Every send and receive is one simulated channel operation.
        sim_ops += r.sent + r.received;
    }
    Phase {
        name: "channel-saturation(4 policies)",
        sim_ops,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn datapath_phase() -> Phase {
    let duration = SimDuration::from_millis(30);
    let warmup = SimDuration::from_millis(2);
    let start = Instant::now();
    let mut sim_ops = 0u64;
    for mode in Mode::ALL {
        let stats = run_udp_echo(
            mode,
            512,
            oasis_apps::udp::Pacing::FixedGap {
                gap: SimDuration::from_micros(4),
                count: 6_000,
            },
            duration,
            warmup,
        );
        let s = stats.borrow();
        // A request and its echo each traverse the full simulated datapath.
        sim_ops += s.sent + s.received;
    }
    Phase {
        name: "udp-echo-datapath(3 modes)",
        sim_ops,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// One shard of the sharded-substrate workload: a batched actor that burns
/// `batch` events per simulated step and forwards one token per step around
/// the shard ring. All state is shard-local; the token is the only
/// cross-shard traffic, so the runner's window protocol — not data sharing —
/// is what gets measured. Aligned so neighbouring shards, which may run on
/// different threads, never share a cache line (or an adjacent-line
/// prefetch pair): a pod's state is kilobytes, these 72 bytes are not.
#[repr(align(128))]
struct TokenShard {
    id: usize,
    shards: usize,
    now: SimTime,
    step: SimDuration,
    latency: SimDuration,
    batch: u64,
    state: u64,
    ops: u64,
}

impl ShardWorld for TokenShard {
    type Msg = u64;

    fn next_time(&self) -> SimTime {
        self.now
    }

    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<u64>>,
        outbox: &mut Vec<Outgoing<u64>>,
    ) -> u64 {
        let mut n = 0u64;
        for e in inbox.drain(..) {
            self.state ^= e.msg.rotate_left(17);
            n += 1;
        }
        while self.now < until {
            // One batch of local events, amortized over a single dispatch —
            // the event-batching half of the tentpole's perf claim.
            for _ in 0..self.batch {
                self.state = self
                    .state
                    .wrapping_mul(0x100000001b3)
                    .rotate_left(29)
                    .wrapping_add(0x9e3779b97f4a7c15);
                n += 1;
            }
            outbox.push(Outgoing {
                dst: (self.id + 1) % self.shards,
                at: self.now + self.latency,
                msg: self.state,
            });
            self.now += self.step;
        }
        self.ops += n;
        n
    }
}

/// Sharded-substrate phase: 8 shards ring-coupled through the conservative
/// window runner on `threads` shard threads. The simulated-op count is a
/// pure function of the workload shape (never of the thread count), so the
/// throughput only moves when the sharded runner itself gets faster or
/// slower — and the same phase at two thread counts is a same-workload
/// scaling measurement.
fn sharded_phase(threads: usize) -> Phase {
    const SHARDS: usize = 8;
    /// Events per shard-step. A window is four steps of eight shards, so 512
    /// makes it ≈ 25 µs of work at one thread — the size of a window of real
    /// pods (`fleet_traffic`). At the former 64 a thread had 1.5 µs per
    /// window, less than the window's cross-core traffic costs, and no host
    /// could scale it.
    const TOKEN_BATCH: u64 = 512;
    let step = SimDuration::from_micros(1);
    let latency = SimDuration::from_micros(4); // ring-link lookahead
    let horizon = SimTime::from_millis(40);
    let start = Instant::now();
    let mut worlds: Vec<TokenShard> = (0..SHARDS)
        .map(|id| TokenShard {
            id,
            shards: SHARDS,
            now: SimTime::ZERO,
            step,
            latency,
            batch: TOKEN_BATCH,
            state: id as u64 + 1,
            ops: 0,
        })
        .collect();
    let mut runner: ShardedRunner<u64> = ShardedRunner::new(SHARDS, latency, threads);
    runner
        .run(&mut worlds, horizon)
        .expect("sharded phase has nonzero lookahead");
    let sim_ops: u64 = worlds.iter().map(|w| w.ops).sum();
    // Fold the tokens into a digest so the event work cannot be optimized
    // away, and assert the ring actually circulated.
    let digest: u64 = worlds.iter().fold(0, |a, w| a ^ w.state);
    assert_ne!(digest, 0, "token ring went idle");
    Phase {
        name: "sharded-runner(8 shards, batch 512)",
        sim_ops,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let record_baseline = std::env::args().any(|a| a == "--baseline");
    let check = std::env::args().any(|a| a == "--check");
    println!("== perf_smoke: simulation-substrate throughput ==\n");

    let phases = [channel_phase(), datapath_phase()];
    let shard_threads = threads_from_env();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The sharded phase at one thread and, when asked for more, at that many.
    let mut sharded_runs = vec![(1, sharded_phase(1))];
    if shard_threads > 1 {
        sharded_runs.push((shard_threads, sharded_phase(shard_threads)));
    }

    let mut t = Table::new(vec!["phase", "sim ops", "wall ms", "Mops/wall-s"]);
    let mut total_ops = 0u64;
    let mut total_wall = 0.0f64;
    for p in &phases {
        total_ops += p.sim_ops;
        total_wall += p.wall_secs;
        t.row(vec![
            p.name.to_string(),
            p.sim_ops.to_string(),
            format!("{:.1}", p.wall_secs * 1e3),
            format!("{:.3}", p.sim_ops as f64 / p.wall_secs / 1e6),
        ]);
    }
    // The committed `ops_per_sec` baseline keeps its pre-sharding meaning
    // (channel + datapath phases); the sharded runner is tracked as its own
    // metric so both trajectories stay comparable across PRs.
    let ops_per_sec = total_ops as f64 / total_wall;
    t.row(vec![
        "TOTAL".to_string(),
        total_ops.to_string(),
        format!("{:.1}", total_wall * 1e3),
        format!("{:.3}", ops_per_sec / 1e6),
    ]);
    let rate = |p: &Phase| p.sim_ops as f64 / p.wall_secs;
    let sharded_t1_ops_per_sec = rate(&sharded_runs[0].1);
    let sharded_ops_per_sec = rate(&sharded_runs[sharded_runs.len() - 1].1);
    for (threads, p) in &sharded_runs {
        t.row(vec![
            format!("{} x{} threads", p.name, threads),
            p.sim_ops.to_string(),
            format!("{:.1}", p.wall_secs * 1e3),
            format!("{:.3}", rate(p) / 1e6),
        ]);
    }
    println!("{}", t.render());

    let prior = std::fs::read_to_string("BENCH_substrate.json").ok();
    let prior_baseline = prior
        .as_deref()
        .and_then(|text| regress::read_json_number(text, "baseline_ops_per_sec"));
    let prior_sharded_baseline = prior
        .as_deref()
        .and_then(|text| regress::read_json_number(text, "baseline_sharded_ops_per_sec"));

    if check {
        let baseline = prior_baseline
            .expect("--check needs a committed BENCH_substrate.json with a baseline_ops_per_sec");
        let mut ok = regress::gate(
            "substrate ops/wall-second",
            regress::handicapped(ops_per_sec),
            baseline,
        );
        if let Some(b) = prior_sharded_baseline {
            ok &= regress::gate(
                "sharded-runner ops/wall-second",
                regress::handicapped(sharded_ops_per_sec),
                b,
            );
        }
        // Same-workload thread scaling, measured in this process so it is
        // machine-speed-independent: N shard threads must not be slower
        // than one. Only meaningful when the host has a core per thread.
        if shard_threads > 1 {
            if host_threads >= shard_threads {
                ok &= regress::gate(
                    &format!("sharded-runner x{shard_threads} threads vs x1 (same process)"),
                    sharded_ops_per_sec,
                    sharded_t1_ops_per_sec,
                );
            } else {
                println!(
                    "check sharded-runner x{shard_threads} threads vs x1: skipped \
                     (host has {host_threads} threads)"
                );
            }
        }
        // --check is the CI gate: never rewrite the committed file, just
        // compare and set the exit status.
        std::process::exit(if ok { 0 } else { 1 });
    }
    let baseline = if record_baseline {
        Some(ops_per_sec)
    } else {
        prior_baseline
    };
    let sharded_baseline = if record_baseline {
        Some(sharded_ops_per_sec)
    } else {
        prior_sharded_baseline
    };

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"perf_smoke\",\n");
    json.push_str(&format!("  \"sim_ops\": {total_ops},\n"));
    json.push_str(&format!("  \"wall_seconds\": {total_wall:.6},\n"));
    json.push_str(&format!("  \"ops_per_sec\": {ops_per_sec:.1},\n"));
    json.push_str(&format!(
        "  \"sharded_ops_per_sec\": {sharded_ops_per_sec:.1},\n"
    ));
    json.push_str(&format!("  \"sharded_threads\": {shard_threads},\n"));
    json.push_str(&format!(
        "  \"sharded_t1_ops_per_sec\": {sharded_t1_ops_per_sec:.1},\n"
    ));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    match sharded_baseline {
        Some(b) => json.push_str(&format!("  \"baseline_sharded_ops_per_sec\": {b:.1},\n")),
        None => json.push_str("  \"baseline_sharded_ops_per_sec\": null,\n"),
    }
    match baseline {
        Some(b) => {
            json.push_str(&format!("  \"baseline_ops_per_sec\": {b:.1},\n"));
            json.push_str(&format!(
                "  \"speedup_vs_baseline\": {:.3}\n",
                ops_per_sec / b
            ));
        }
        None => json.push_str("  \"baseline_ops_per_sec\": null\n"),
    }
    json.push_str("}\n");
    std::fs::write("BENCH_substrate.json", &json).expect("write BENCH_substrate.json");

    println!("simulated ops/wall-second: {:.0}", ops_per_sec);
    if let Some(b) = baseline {
        println!(
            "baseline:                  {b:.0}  (x{:.2})",
            ops_per_sec / b
        );
    }
    println!(
        "sharded ops/wall-second:   {sharded_ops_per_sec:.0}  ({shard_threads} threads, {:.2}x one thread; host has {host_threads})",
        sharded_ops_per_sec / sharded_t1_ops_per_sec
    );
    println!("wrote BENCH_substrate.json");
}
