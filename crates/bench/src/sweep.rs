//! Parallel sweep runner for the experiment binaries.
//!
//! Every figure in the paper is a sweep: the same simulation re-run over a
//! grid of configurations (offered loads, pod sizes, frameworks × modes).
//! Each point builds its own world from a fixed seed, so points share no
//! state and can run on separate OS threads. [`SweepRunner`] fans a job
//! list across a small thread pool and returns results **in input order**,
//! which keeps the rendered tables byte-identical at any thread count —
//! determinism comes from indexing results by job position, never by
//! completion order.
//!
//! Simulation worlds are `Send` (stats handles are `Arc`-backed), but a job
//! closure should still build its world *inside* the worker and return only
//! plain data (numbers, strings) — worlds are big, results are small.

#[expect(
    clippy::disallowed_types,
    reason = "the job-claim counter and the per-job result slots the scoped workers share"
)]
use std::sync::{
    atomic::{AtomicUsize, Ordering},
    Mutex,
};

use crossbeam::utils::CachePadded;

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "OASIS_SWEEP_THREADS";

/// Fans independent simulation jobs across a scoped thread pool.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with an explicit thread count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Thread count from `OASIS_SWEEP_THREADS`, defaulting to the machine's
    /// available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self::new(threads)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every job and return the results in input order.
    ///
    /// Workers claim job indices from a shared counter, so scheduling is
    /// dynamic, but each result lands in the slot of the job that produced
    /// it; the merged vector is independent of thread count and timing.
    #[expect(
        clippy::disallowed_types,
        reason = "the job-claim counter and the per-job result slots the scoped workers share"
    )]
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers == 1 {
            return jobs.iter().map(&f).collect();
        }

        let next = CachePadded::new(AtomicUsize::new(0));
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&jobs[i]);
                    *slots[i].lock().unwrap() = Some(r);
                });
            }
        })
        .expect("sweep worker panicked");

        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap()
                    .unwrap_or_else(|| panic!("sweep job {i} produced no result"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = SweepRunner::new(threads).run(&jobs, |&j| j * j + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_job() {
        let r = SweepRunner::new(4);
        assert_eq!(r.run::<u64, u64, _>(&[], |&j| j), Vec::<u64>::new());
        assert_eq!(r.run(&[7u64], |&j| j + 1), vec![8]);
    }

    #[test]
    fn clamps_zero_threads() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }

    #[test]
    fn more_threads_than_jobs() {
        let got = SweepRunner::new(16).run(&[1u64, 2, 3], |&j| j * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }
}
