//! Parked pollers: idle polling rounds charged by count, not executed.
//!
//! The paper's datapath is cores busy-polling message channels (§3.2.2),
//! and most polling rounds find every channel empty. Such a round has a
//! fixed effect — per polled receiver one miss, one `clflushopt`, one
//! `mfence`, 64 metered bytes, and a clock step — so an engine that can
//! *prove* its next rounds are of that kind ([`IdleRound`], from
//! [`crate::engine::DeviceEngine::idle_round`]) leaves the run queue until
//! the first round it cannot vouch for, and the pod charges the rounds in
//! between in closed form.
//!
//! The arithmetic lives here, free of pool and scheduler: which rounds lie
//! before a scheduler position ([`rounds_before`]), how far the last of
//! them would have landed other hosts' write-backs ([`landing_horizon`]),
//! and where a proof runs out ([`wake_round`]). [`ParkTable`] keeps one
//! cursor per parked engine; [`account`] settles passed rounds into the
//! engine's clock and counters. DESIGN.md §7.3 has the exactness argument.

use oasis_cxl::CxlPool;
use oasis_sim::time::{SimDuration, SimTime};

use crate::engine::DeviceEngine;

/// An engine's proof that the polling round starting at its clock — and
/// every later one that ends by [`Self::valid_until`], as long as nobody
/// hands it input — is a steady-state empty round: each polled receiver
/// misses, fetches a not-yet-written slot, flushes that line and fences;
/// nothing else happens, and the engine is left as it was but for its
/// clock and those counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleRound {
    /// Clock step of one round.
    pub period_ns: u64,
    /// Receivers polled per round (0 for a driver that polls none).
    pub polls: u64,
    /// From a round's start to its last fetch from the pool (unused when
    /// `polls` is 0).
    pub last_fetch_offset_ns: u64,
    /// Last instant by which a round may end and still be covered: one tick
    /// before the engine's earliest own timer.
    pub valid_until: SimTime,
}

/// How many of the rounds starting at `next`, `next + period_ns`, … are
/// positioned before the scheduler position `(at, actor)` — that is, would
/// have been dispatched before it — when their engine is actor `id`. The
/// scheduler orders by `(time, actor id)`, so a round starting exactly at
/// `at` is before the position iff `id < actor`.
pub fn rounds_before(next: SimTime, period_ns: u64, id: usize, at: SimTime, actor: usize) -> u64 {
    debug_assert!(period_ns > 0);
    let Some(gap) = at.as_nanos().checked_sub(next.as_nanos()) else {
        return 0;
    };
    if id < actor {
        gap / period_ns + 1
    } else {
        gap.div_ceil(period_ns)
    }
}

/// The latest instant at which `k >= 1` consecutive rounds, the first
/// starting at `first`, fetch from the pool. Every fetch lands the
/// write-backs due by its instant ([`CxlPool::apply_pending`]), so this is
/// how far the rounds together would have landed them.
pub fn landing_horizon(first: SimTime, round: &IdleRound, k: u64) -> SimTime {
    debug_assert!(k >= 1);
    // `(k - 1)·period` is at most the gap `rounds_before` divided.
    first
        + SimDuration::from_nanos((k - 1) * round.period_ns)
        + SimDuration::from_nanos(round.last_fetch_offset_ns)
}

/// Start of the first round, counting from the one starting at `start`,
/// that ends after `valid_until`: the round a parked engine must really
/// run. Equal to `start` when not even the first round is covered.
pub fn wake_round(start: SimTime, period_ns: u64, valid_until: SimTime) -> SimTime {
    debug_assert!(period_ns > 0);
    let covered = match valid_until.as_nanos().checked_sub(start.as_nanos()) {
        Some(span) => span / period_ns,
        None => 0,
    };
    start + SimDuration::from_nanos(covered * period_ns)
}

/// One parked engine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Parked {
    /// What it proved when it parked.
    pub round: IdleRound,
    /// Start of its first round not yet passed. The rounds from the
    /// engine's own clock up to here have been passed (their landing done)
    /// but not yet settled into the engine.
    pub next: SimTime,
    /// Start of the round it is queued to really run.
    pub wake: SimTime,
    /// Its clock when it parked (episode telemetry).
    pub since: SimTime,
}

/// The parked engines of a pod, by scheduler actor id.
#[derive(Default)]
pub(crate) struct ParkTable {
    slots: Vec<Option<Parked>>,
    parked: usize,
    /// Lower bound on every parked `next`: a position earlier than this
    /// has no round before it.
    earliest: SimTime,
}

impl ParkTable {
    /// Is nobody parked?
    pub fn is_empty(&self) -> bool {
        self.parked == 0
    }

    /// The parked state of `actor`, if it is parked.
    pub fn get(&self, actor: usize) -> Option<&Parked> {
        self.slots.get(actor)?.as_ref()
    }

    /// Every parked actor id, ascending.
    pub fn actors(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(actor, p)| p.as_ref().map(|_| actor))
    }

    /// Park `actor`.
    pub fn insert(&mut self, actor: usize, p: Parked) {
        if self.slots.len() <= actor {
            self.slots.resize(actor + 1, None);
        }
        debug_assert!(self.slots[actor].is_none());
        self.earliest = if self.parked == 0 {
            p.next
        } else {
            self.earliest.min(p.next)
        };
        self.slots[actor] = Some(p);
        self.parked += 1;
    }

    /// Unpark `actor`, returning its state if it was parked.
    pub fn take(&mut self, actor: usize) -> Option<Parked> {
        let p = self.slots.get_mut(actor)?.take()?;
        self.parked -= 1;
        Some(p)
    }

    /// Forget everyone (the engines' state is about to be overwritten).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.parked = 0;
    }

    /// Move every cursor past the rounds positioned before `(at, actor)`.
    /// Returns how far those rounds together would have landed write-backs
    /// ([`landing_horizon`]), if any of them fetches at all. No post can
    /// occur between two elided rounds, so landing once at the maximum is
    /// the same sequence as landing at each fetch.
    pub fn pass(&mut self, at: SimTime, actor: usize) -> Option<SimTime> {
        if self.parked == 0 || at < self.earliest {
            return None;
        }
        let mut horizon = None;
        let mut earliest = SimTime::MAX;
        for (id, p) in self.slots.iter_mut().enumerate() {
            let Some(p) = p else { continue };
            let k = rounds_before(p.next, p.round.period_ns, id, at, actor);
            if k > 0 {
                if p.round.polls > 0 {
                    horizon = horizon.max(Some(landing_horizon(p.next, &p.round, k)));
                }
                p.next += SimDuration::from_nanos(k.saturating_mul(p.round.period_ns));
            }
            earliest = earliest.min(p.next);
        }
        self.earliest = earliest;
        horizon
    }
}

/// Settle `rounds` passed rounds of `round` into `engine`: what running
/// them one by one from its clock would have left behind. Per round the
/// clock steps one period; per polled receiver one more empty poll, and on
/// the core one miss, one `clflushopt`, one `mfence` and 64 fetched bytes
/// metered on its port (with `obs`, binned at the fetch instants). The
/// landing the fetches would have done is [`ParkTable::pass`]'s caller's.
pub(crate) fn account(
    engine: &mut dyn DeviceEngine,
    pool: &mut CxlPool,
    round: &IdleRound,
    rounds: u64,
) {
    if rounds == 0 {
        return;
    }
    let core = engine.core();
    let (port, start) = (core.port, core.clock);
    let c = &core.costs;
    let fetch_ns = c.poll_overhead_ns + c.cxl_load_ns;
    let poll_ns = fetch_ns + c.clflushopt_ns + c.mfence_ns;
    // Where in a round the first receiver's fetch falls.
    let mut offset = round.period_ns - round.polls * poll_ns + fetch_ns;
    let mut last_line = 0;
    engine.polled(&mut |rx| {
        rx.empty_polls += rounds;
        last_line = rx.next_line();
        let first_at = start + SimDuration::from_nanos(offset);
        pool.charge_line_fetches(port, last_line, rounds, first_at, round.period_ns);
        offset += poll_ns;
    });
    let core = engine.core_mut();
    core.account_empty_polls(rounds * round.polls, last_line);
    core.advance(rounds * round.period_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: walk rounds one at a time from `next`, in scheduler
    /// order against `(at, actor)`.
    fn walk(next: u64, period: u64, id: usize, at: u64, actor: usize, cap: u64) -> u64 {
        let mut k = 0;
        let mut t = next;
        while (t, id) < (at, actor) && k < cap {
            k += 1;
            match t.checked_add(period) {
                Some(n) => t = n,
                None => break,
            }
        }
        k
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Periods from a poll round's ~1 µs up to the edge of what `k·period`
    /// can hold.
    fn period() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..4,
            60u64..3_000,
            (u64::MAX / 1024 - 1_000)..(u64::MAX / 1024 + 1_000)
        ]
    }

    proptest! {
        #[test]
        fn rounds_before_matches_the_walk(
            next in 0u64..10_000,
            period in period(),
            id in 0usize..6,
            // Around the cursor: before it (k = 0), on a round start (the
            // tie), and many rounds past it.
            back in 0u64..3,
            rounds in 0u64..900,
            off in 0u64..3_000,
            actor in 0usize..6,
        ) {
            prop_assume!(id != actor);
            let at = (next + rounds.saturating_mul(period).saturating_add(off % period))
                .saturating_sub(back * period);
            let got = rounds_before(t(next), period, id, t(at), actor);
            prop_assert_eq!(got, walk(next, period, id, at, actor, 2_000));
            if at < next {
                prop_assert_eq!(got, 0);
            }
            // The tie rule: a round starting exactly at `at` is before the
            // position iff its engine's id is the smaller one.
            let tie = rounds_before(t(next), period, id, t(next), actor);
            prop_assert_eq!(tie, u64::from(id < actor));
        }

        #[test]
        fn landing_horizon_is_the_last_walked_fetch(
            first in 0u64..10_000,
            period in period(),
            polls in 1u64..8,
            k in 1u64..900,
        ) {
            let last_fetch_offset_ns = period - period / (2 * polls);
            let round = IdleRound {
                period_ns: period,
                polls,
                last_fetch_offset_ns,
                valid_until: SimTime::MAX,
            };
            let mut latest = 0;
            let mut start = first;
            for _ in 0..k {
                latest = latest.max(start + last_fetch_offset_ns);
                start += period;
            }
            prop_assert_eq!(landing_horizon(t(first), &round, k), t(latest));
        }

        #[test]
        fn wake_round_is_the_first_round_ending_late(
            start in 0u64..10_000,
            period in period(),
            covered in 0u64..900,
            slack in 0u64..3_000,
            early in 0u64..2,
        ) {
            // `valid_until` inside round `covered` (or before `start`
            // altogether: nothing covered).
            let valid_until = if early == 1 {
                start.saturating_sub(slack)
            } else {
                start + covered * period + slack % period
            };
            let mut wake = start;
            let mut walked = 0;
            while wake + period <= valid_until && walked < 2_000 {
                wake += period;
                walked += 1;
            }
            prop_assert_eq!(wake_round(t(start), period, t(valid_until)), t(wake));
            if early == 1 || covered == 0 {
                prop_assert_eq!(wake, start);
            }
        }

        #[test]
        fn pass_moves_every_cursor_like_the_walk(
            cursors in proptest::collection::vec((0u64..5_000, 60u64..3_000, 0u64..8), 1..6),
            at in 0u64..40_000,
            actor in 0usize..8,
        ) {
            let mut table = ParkTable::default();
            let mut want_horizon = None;
            let mut want_next = Vec::new();
            for (i, &(next, period, polls)) in cursors.iter().enumerate() {
                let id = i + usize::from(i >= actor);
                let round = IdleRound {
                    period_ns: period,
                    polls,
                    last_fetch_offset_ns: period - 1,
                    valid_until: SimTime::MAX,
                };
                let parked = Parked { round, next: t(next), wake: SimTime::MAX, since: t(next) };
                table.insert(id, parked);
                let k = walk(next, period, id, at, actor, u64::MAX);
                if k > 0 && polls > 0 {
                    let last = next + (k - 1) * period + period - 1;
                    want_horizon = want_horizon.max(Some(t(last)));
                }
                want_next.push((id, t(next + k * period)));
            }
            prop_assert_eq!(table.pass(t(at), actor), want_horizon);
            for (id, next) in want_next {
                prop_assert_eq!(table.get(id).map(|p| p.next), Some(next));
            }
            // Passing again at the same position moves nothing.
            prop_assert_eq!(table.pass(t(at), actor), None);
        }
    }

    #[test]
    fn extremes_do_not_overflow() {
        let period = u64::MAX / 1024;
        // 1025 rounds start below `u64::MAX`; the count comes from a division.
        assert_eq!(rounds_before(t(5), period, 1, SimTime::MAX, 0), 1025);
        assert_eq!(rounds_before(t(5), period, 0, SimTime::MAX, 1), 1025);
        assert_eq!(rounds_before(t(5), period, 0, t(4), 1), 0);
        assert_eq!(wake_round(t(0), period, SimTime::MAX), t(1024 * period));
        assert_eq!(wake_round(t(9), period, t(8)), t(9));
        assert_eq!(wake_round(t(9), 1, SimTime::MAX), SimTime::MAX);
    }
}
