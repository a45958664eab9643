//! Client-side measurement recorders.
//!
//! Endpoints live inside the pod as boxed trait objects; experiments need
//! their measurements afterwards. Clients therefore write into a
//! [`ClientStats`] behind a shared [`StatsHandle`] the experiment keeps.
//!
//! The handle is an `Arc` over a [`StatsCell`] so pods can migrate between
//! worker threads under the sharded runner (`oasis_sim::shard`). A pod is
//! still single-threaded *at any instant* — only one shard worker owns it
//! per window — so the inner lock is never contended; it exists to satisfy
//! `Send`/`Sync`, not to synchronize. `StatsCell` keeps the `RefCell`
//! vocabulary (`borrow`/`borrow_mut`) so recording sites read the same as
//! they always have.

#[expect(
    clippy::disallowed_types,
    reason = "a never-contended lock that makes the stats Send + Sync (module docs)"
)]
use std::sync::{Arc, Mutex, MutexGuard};

use oasis_sim::hist::Histogram;
use oasis_sim::series::BinnedSeries;
use oasis_sim::time::{SimDuration, SimTime};

/// Shared handle to a client's measurements.
pub type StatsHandle = Arc<StatsCell>;

/// Interior-mutable cell holding a client's stats; see the module docs for
/// why this is a (never-contended) lock rather than a `RefCell`.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a never-contended lock that makes the stats Send + Sync (module docs)"
)]
pub struct StatsCell(Mutex<ClientStats>);

#[expect(
    clippy::disallowed_types,
    reason = "a never-contended lock that makes the stats Send + Sync (module docs)"
)]
impl StatsCell {
    /// Wrap freshly-zeroed stats.
    pub fn new(stats: ClientStats) -> Self {
        StatsCell(Mutex::new(stats))
    }

    /// Shared read access (uncontended by construction). Poisoning
    /// requires a panicked worker, which already aborts the run.
    pub fn borrow(&self) -> MutexGuard<'_, ClientStats> {
        self.0.lock().expect("stats cell poisoned")
    }

    /// Exclusive write access (uncontended by construction).
    pub fn borrow_mut(&self) -> MutexGuard<'_, ClientStats> {
        self.0.lock().expect("stats cell poisoned")
    }
}

/// Everything a load-generating client records.
#[derive(Debug)]
pub struct ClientStats {
    /// Request RTT histogram (nanoseconds).
    pub rtt: Histogram,
    /// Per-request `(sent_at, completed_at)`; `None` while outstanding.
    pub requests: Vec<(SimTime, Option<SimTime>)>,
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// Only record samples at or after this time (warm-up exclusion).
    pub record_from: SimTime,
}

impl Default for ClientStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientStats {
    /// Fresh, recording from time zero.
    pub fn new() -> Self {
        ClientStats {
            rtt: Histogram::new(),
            requests: Vec::new(),
            sent: 0,
            received: 0,
            record_from: SimTime::ZERO,
        }
    }

    /// Create a shareable handle.
    pub fn handle() -> StatsHandle {
        Arc::new(StatsCell::new(ClientStats::new()))
    }

    /// Register a request; returns its sequence number.
    pub fn on_send(&mut self, now: SimTime) -> u64 {
        self.sent += 1;
        self.requests.push((now, None));
        (self.requests.len() - 1) as u64
    }

    /// Register the response to request `seq`.
    pub fn on_response(&mut self, seq: u64, now: SimTime) {
        self.received += 1;
        let (sent, done) = &mut self.requests[seq as usize];
        if done.is_none() {
            *done = Some(now);
            if *sent >= self.record_from {
                self.rtt.record((now - *sent).as_nanos());
            }
        }
    }

    /// Requests sent but never answered (packet loss / black hole).
    pub fn lost(&self) -> u64 {
        self.requests.iter().filter(|(_, d)| d.is_none()).count() as u64
    }

    /// Loss timeline: count of never-answered requests per `bin` of *send*
    /// time — the Fig. 13 plot.
    pub fn loss_series(&self, bin: SimDuration, until: SimTime) -> BinnedSeries {
        let mut s = BinnedSeries::new(bin);
        for &(sent, done) in &self.requests {
            if done.is_none() {
                s.add(sent, 1.0);
            }
        }
        s.extend_to(until);
        s
    }

    /// Latency percentile over completions whose *send* time falls in
    /// `[from, to)` — used for the Fig. 14 windowed P99 timeline.
    pub fn window_percentile(&self, from: SimTime, to: SimTime, p: f64) -> Option<u64> {
        let mut h = Histogram::new();
        for &(sent, done) in &self.requests {
            if sent >= from && sent < to {
                if let Some(done) = done {
                    h.record((done - sent).as_nanos());
                }
            }
        }
        if h.is_empty() {
            None
        } else {
            Some(h.percentile(p))
        }
    }

    /// Timestamps (send time) of the lost requests, sorted.
    pub fn loss_times(&self) -> Vec<SimTime> {
        let mut v: Vec<SimTime> = self
            .requests
            .iter()
            .filter(|(_, d)| d.is_none())
            .map(|&(s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn send_response_roundtrip() {
        let mut s = ClientStats::new();
        let a = s.on_send(t(0));
        let b = s.on_send(t(10));
        s.on_response(a, t(5));
        assert_eq!(s.rtt.count(), 1);
        assert_eq!(s.rtt.percentile(50.0), 5_000);
        assert_eq!(s.lost(), 1);
        s.on_response(b, t(30));
        assert_eq!(s.lost(), 0);
        // Duplicate responses ignored.
        s.on_response(b, t(40));
        assert_eq!(s.received, 3); // counted as received ...
        assert_eq!(s.rtt.count(), 2, "... but not double-recorded");
    }

    #[test]
    fn warmup_exclusion() {
        let mut s = ClientStats::new();
        s.record_from = t(100);
        let a = s.on_send(t(50));
        let b = s.on_send(t(150));
        s.on_response(a, t(60));
        s.on_response(b, t(160));
        assert_eq!(s.rtt.count(), 1);
    }

    #[test]
    fn loss_series_bins_by_send_time() {
        let mut s = ClientStats::new();
        let a = s.on_send(t(5));
        let _lost1 = s.on_send(t(15));
        let _lost2 = s.on_send(t(18));
        s.on_response(a, t(9));
        let series = s.loss_series(SimDuration::from_micros(10), t(30));
        assert_eq!(series.bins(), &[0.0, 2.0, 0.0, 0.0]);
        assert_eq!(s.loss_times(), vec![t(15), t(18)]);
    }

    #[test]
    fn window_percentile_selects_by_send_time() {
        let mut s = ClientStats::new();
        let a = s.on_send(t(0));
        s.on_response(a, t(10)); // 10us rtt in window [0,100)
        let b = s.on_send(t(200));
        s.on_response(b, t(300)); // 100us rtt in window [200,300)
        assert_eq!(s.window_percentile(t(0), t(100), 99.0), Some(10_000));
        let w2 = s.window_percentile(t(150), t(250), 99.0).unwrap();
        assert!(w2 > 90_000);
        assert_eq!(s.window_percentile(t(400), t(500), 99.0), None);
    }
}
