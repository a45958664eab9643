//! The repo's benchmark. Start it through `benchmark/run.sh`; `README.md`
//! documents workloads, metrics and method.
//!
//! ```text
//! oasis-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat K]
//! oasis-benchmark compare <a.json> <b.json>
//! oasis-benchmark spec            # prints BENCHMARK.json from the tables
//! ```
//!
//! With `--workload` it runs that one workload and ends with the one-line
//! JSON object the driver reads. Without, it runs every workload in a
//! process of its own, prints one `workload metric value unit` line per
//! metric and writes `benchmark/out/results.json`.

mod compare;
mod counters;
mod json;
mod probes;
mod rng;
mod spec;
mod stats;
mod suite;
mod tracer;
mod worker;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use spec::Workload;
use workloads::Scale;

/// The seed a run uses when none is given (the ISSUE's tuning seed; `7` is
/// the held-out one, see README).
const DEFAULT_SEED: u64 = 2025;

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    scale: Option<Scale>,
    spans: bool,
    setups: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                out.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand a bare `--trace`
                // means on.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let v = value("a count")?;
                out.repeat = v.parse().map_err(|_| format!("bad --repeat {v:?}"))?;
                if !(1..=10).contains(&out.repeat) {
                    return Err(format!("--repeat {v} is outside 1..=10"));
                }
            }
            // Worker-only flags.
            "--scale" => {
                let v = value("full|third|tenth")?;
                out.scale = Some(Scale::parse(&v).ok_or_else(|| format!("bad --scale {v:?}"))?);
            }
            "--spans" => out.spans = value("0|1")? == "1",
            "--setups" => {
                let v = value("a count")?;
                out.setups = Some(v.parse().map_err(|_| format!("bad --setups {v:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(started: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: compare <a.json> <b.json>".into());
            };
            let rows = compare::compare(&load(a)?, &load(b)?, compare::Mode::Baseline)?;
            Ok(compare::print(&rows))
        }
        // `BENCHMARK.json` as the tables in `spec.rs` define it.
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        // One workload in this process; the parent reads the last line.
        Some("worker") => {
            let a = parse_args(&argv[1..])?;
            let plan = worker::Plan {
                workload: a.workload.ok_or("worker needs --workload")?,
                seed: a.seed.unwrap_or(DEFAULT_SEED),
                seconds: a.seconds.unwrap_or(0.0),
                scale: a.scale.unwrap_or(Scale::Full),
                spans: a.spans,
                setups: a.setups.unwrap_or(worker::SETUPS),
            };
            println!("{}", worker::run(&plan, started)?.encode());
            Ok(true)
        }
        _ => {
            let a = parse_args(&argv)?;
            let seed = a.seed.unwrap_or(DEFAULT_SEED);
            // By hand: three repetitions per workload, or the driver's
            // budget when two sets are to agree within the bounds. The
            // driver itself passes BENCHMARK.json's run_seconds.
            let seconds = a.seconds.unwrap_or(if a.repeat > 1 {
                spec::RUN_SECONDS as f64
            } else {
                0.0
            });
            if let Some(w) = a.workload {
                let report = if a.trace {
                    suite::traced(w, seed, seconds)?
                } else {
                    suite::untraced(w, seed, seconds, started)?
                };
                suite::print_report(&report, a.trace);
                println!("{}", suite::driver_line(&report, a.trace));
                return Ok(true);
            }
            let path = |i: usize| {
                if a.repeat == 1 {
                    format!("{}/results.json", suite::OUT_DIR)
                } else {
                    format!("{}/results-{}.json", suite::OUT_DIR, i + 1)
                }
            };
            let mut sets = Vec::new();
            for i in 0..a.repeat {
                sets.push(suite::full_set(seed, seconds, a.trace, &path(i))?);
            }
            // Two sets of the same code must agree within the bounds.
            let mut ok = true;
            for later in sets.iter().skip(1) {
                let rows = compare::compare(&sets[0], later, compare::Mode::SameCode)?;
                ok &= compare::print(&rows);
            }
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
