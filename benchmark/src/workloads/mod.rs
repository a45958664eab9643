//! The benchmark's workloads. Each module generates its inputs from the
//! seed, builds a world, runs one repetition of fixed work with a timer
//! around the program's own `run`/`execute` calls only, and checks the
//! outputs. `README.md` records why each workload exists.

use oasis_obs::MetricsSnapshot;

pub mod fleet_replay;
pub mod fleet_traffic;
pub mod pod_devices_rw;
pub mod pod_echo;

/// How much of a workload's fixed work one repetition does. Timed
/// repetitions run at `Full`; the traced run at `Third`; the untimed
/// warm-up inside set-up at `Tenth`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Third,
    Tenth,
}

impl Scale {
    /// The divisor applied to the full size.
    pub fn div(self) -> u64 {
        match self {
            Scale::Full => 1,
            Scale::Third => 3,
            Scale::Tenth => 10,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Third => "third",
            Scale::Tenth => "tenth",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Third, Scale::Tenth]
            .into_iter()
            .find(|x| x.label() == s)
    }
}

/// Operation latencies of one repetition, already reduced to the two
/// percentiles the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: u64,
}

/// What one checked repetition produced.
pub struct Rep {
    /// Seconds inside the timed region (the program's own run calls).
    pub wall_s: f64,
    /// Operations completed in the timed region.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub latency: Latency,
    /// Digest of the canonical metrics-snapshot JSON after the run: equal
    /// across repetitions of the same inputs, or the run is rejected.
    pub digest: u64,
    /// The snapshot itself (per-op counters are read from it).
    pub snapshot: MetricsSnapshot,
    /// Simulated nanoseconds the repetition covered (0 for the pure
    /// control-plane workload, which simulates no timeline).
    pub sim_ns: u64,
    /// Extra per-layer values the workload measured itself, by their
    /// `spec::PER_LAYER` names.
    pub layer: Vec<(&'static str, f64)>,
}

/// Sort latency samples and reduce them to p50/p99, refusing a percentile
/// without enough samples beyond it.
pub fn reduce_latency(samples: &mut [u64]) -> Result<Latency, String> {
    samples.sort_unstable();
    let pick = |p| {
        crate::stats::percentile(samples, p)
            .ok_or_else(|| format!("p{p} needs more than {} latency samples", samples.len()))
    };
    Ok(Latency {
        p50_ns: pick(50.0)? as f64,
        p99_ns: pick(99.0)? as f64,
        samples: samples.len() as u64,
    })
}

/// A failed output check: the run exits non-zero with this message.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
