//! The sanitized chaos pod under sharded execution.
//!
//! A chaos run at `OASIS_SHARD_THREADS=2` must behave exactly like the
//! single-shard run: zero coherence-sanitizer errors (the invariant audit
//! folds sanitizer reports into `violations`), an identical invariant
//! report, and an associatively-merged `MetricsSnapshot` whose JSON is
//! byte-identical. The thread knob may only change wall-clock behavior,
//! never a simulated observable. The engines park under the sanitizer, and
//! it checks the rounds they skip.

use oasis_bench::chaos::run_chaos_sharded;

/// Seed drawn from the CI matrix; any seed works (determinism is per-seed).
const SEED: u64 = 5;

#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale sims; run with --release")]
fn sanitized_chaos_smoke_is_identical_at_two_shard_threads() {
    let (single, single_snap) = run_chaos_sharded(SEED, Some(1));
    let (sharded, sharded_snap) = run_chaos_sharded(SEED, Some(2));
    assert!(
        sharded.passed(),
        "sharded chaos run violated invariants (sanitizer errors included): {:?}",
        sharded.violations
    );
    assert_eq!(
        single, sharded,
        "chaos report must not depend on the shard thread count"
    );
    assert!(
        single.charged_polls > 0,
        "no parked round reached the sanitizer"
    );
    assert_eq!(
        single_snap, sharded_snap,
        "merged MetricsSnapshot must be identical to the single-shard run"
    );
}
