//! The recording surface: counters, histograms, spans and timelines keyed
//! by `(static name, numeric tag)`.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use oasis_sim::detmap::DetMap;
use oasis_sim::time::SimTime;

use crate::hist::ObsHistogram;
use crate::snapshot::{CounterEntry, HistEntry, MetricsSnapshot, TimelineEntry, SCHEMA_VERSION};
use crate::timeline::{Timeline, DEFAULT_BIN_NS};

/// Metric key: a registered `&'static str` name (see each crate's
/// `metrics.rs`) plus a small numeric tag — host id, port, actor index, or
/// 0 when the metric is pod-global. Never a formatted string.
pub type MetricKey = (&'static str, u32);

/// An open sim-time span; closed by [`Span::end`], which records the
/// elapsed sim time into a histogram.
#[derive(Clone, Copy, Debug)]
#[must_use = "a span records nothing until end() is called"]
pub struct Span {
    start: SimTime,
}

impl Span {
    /// Open a span at sim time `start`.
    pub fn begin(start: SimTime) -> Span {
        Span { start }
    }

    /// Close the span at `end`, recording the elapsed nanoseconds into the
    /// named histogram.
    pub fn end(self, sink: &mut MetricSink, name: &'static str, tag: u32, end: SimTime) {
        let dt = end.as_nanos().saturating_sub(self.start.as_nanos());
        sink.record(name, tag, dt);
    }
}

/// Deterministic metric accumulator.
///
/// Recording order does not matter for export: [`MetricSink::snapshot`]
/// sorts by `(name, tag)`. The backing maps are `DetMap` (fixed-seed
/// hasher) so even internal iteration — used nowhere for output, but easy
/// to reach for in a debugger — cannot smuggle nondeterminism in.
#[derive(Default)]
pub struct MetricSink {
    counters: DetMap<MetricKey, u64>,
    hists: DetMap<MetricKey, ObsHistogram>,
    timelines: DetMap<MetricKey, Timeline>,
    timeline_bin_ns: Option<u64>,
}

impl MetricSink {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a sink whose timelines use `bin_ns`-wide bins instead of
    /// [`DEFAULT_BIN_NS`].
    pub fn with_timeline_bin(bin_ns: u64) -> Self {
        MetricSink {
            timeline_bin_ns: Some(bin_ns.max(1)),
            ..Self::default()
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, tag: u32, delta: u64) {
        if delta != 0 {
            *self.counters.entry((name, tag)).or_insert(0) += delta;
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str, tag: u32) {
        *self.counters.entry((name, tag)).or_insert(0) += 1;
    }

    /// Overwrite a counter with an absolute value (for exporting an
    /// existing tally at snapshot time; last write wins).
    pub fn set(&mut self, name: &'static str, tag: u32, value: u64) {
        self.counters.insert((name, tag), value);
    }

    /// Record one value into a histogram.
    #[inline]
    pub fn record(&mut self, name: &'static str, tag: u32, value: u64) {
        self.hists.entry((name, tag)).or_default().record(value);
    }

    /// Record a value `n` times into a histogram.
    pub fn record_n(&mut self, name: &'static str, tag: u32, value: u64, n: u64) {
        self.hists
            .entry((name, tag))
            .or_default()
            .record_n(value, n);
    }

    /// Open a sim-time span starting now; close with [`Span::end`].
    pub fn span(&self, start: SimTime) -> Span {
        Span::begin(start)
    }

    /// Accumulate `amount` into the named timeline's bin at sim time `at`.
    pub fn timeline_add(&mut self, name: &'static str, tag: u32, at: SimTime, amount: u64) {
        let bin = self.timeline_bin_ns.unwrap_or(DEFAULT_BIN_NS);
        self.timelines
            .entry((name, tag))
            .or_insert_with(|| Timeline::new(bin))
            .add(at, amount);
    }

    /// Current counter value (0 if never written).
    pub fn counter(&self, name: &'static str, tag: u32) -> u64 {
        self.counters.get(&(name, tag)).copied().unwrap_or(0)
    }

    /// Histogram by key, if recorded.
    pub fn hist(&self, name: &'static str, tag: u32) -> Option<&ObsHistogram> {
        self.hists.get(&(name, tag))
    }

    /// Timeline by key, if recorded.
    pub fn timeline(&self, name: &'static str, tag: u32) -> Option<&Timeline> {
        self.timelines.get(&(name, tag))
    }

    /// Fold a whole histogram into the sink under the given key (used by
    /// engines that accumulate a private histogram and export it wholesale
    /// from their `on_metrics` hook).
    pub fn merge_hist(&mut self, name: &'static str, tag: u32, h: &ObsHistogram) {
        if h.is_empty() {
            return;
        }
        self.hists.entry((name, tag)).or_default().merge(h);
    }

    /// Fold a whole timeline into the sink under the given key (used by
    /// feature-gated instrumentation that owns its own `Timeline`).
    pub fn merge_timeline(&mut self, name: &'static str, tag: u32, tl: &Timeline) {
        self.timelines
            .entry((name, tag))
            .or_insert_with(|| Timeline::new(tl.bin_ns()))
            .merge(tl);
    }

    /// Export a canonical snapshot: entries sorted by `(name, tag)`,
    /// histograms in sparse bucket form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterEntry> = self
            .counters
            .iter()
            .map(|(&(name, tag), &value)| CounterEntry { name, tag, value })
            .collect();
        counters.sort_unstable_by(|a, b| (a.name, a.tag).cmp(&(b.name, b.tag)));

        let mut hists: Vec<HistEntry> = self
            .hists
            .iter()
            .filter(|(_, h)| !h.is_empty())
            .map(|(&(name, tag), h)| HistEntry {
                name,
                tag,
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        hists.sort_unstable_by(|a, b| (a.name, a.tag).cmp(&(b.name, b.tag)));

        let mut timelines: Vec<TimelineEntry> = self
            .timelines
            .iter()
            .map(|(&(name, tag), tl)| TimelineEntry {
                name,
                tag,
                bin_ns: tl.bin_ns(),
                bins: tl.bins().to_vec(),
            })
            .collect();
        timelines.sort_unstable_by(|a, b| (a.name, a.tag).cmp(&(b.name, b.tag)));

        MetricsSnapshot {
            schema: SCHEMA_VERSION,
            counters,
            hists,
            timelines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_sim::time::SimDuration;

    #[test]
    fn counters_accumulate() {
        let mut s = MetricSink::new();
        s.add("test.a", 0, 3);
        s.incr("test.a", 0);
        s.add("test.a", 1, 10);
        assert_eq!(s.counter("test.a", 0), 4);
        assert_eq!(s.counter("test.a", 1), 10);
        assert_eq!(s.counter("test.missing", 0), 0);
    }

    #[test]
    fn spans_record_elapsed_sim_time() {
        let mut s = MetricSink::new();
        let t0 = SimTime::from_nanos(100);
        let sp = s.span(t0);
        sp.end(&mut s, "test.span_ns", 7, t0 + SimDuration::from_nanos(250));
        let h = s.hist("test.span_ns", 7).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 250);
    }

    #[test]
    fn snapshot_sorted_regardless_of_insertion_order() {
        let mut a = MetricSink::new();
        a.add("test.z", 0, 1);
        a.add("test.a", 2, 1);
        a.add("test.a", 1, 1);
        let snap = a.snapshot();
        let keys: Vec<_> = snap.counters.iter().map(|c| (c.name, c.tag)).collect();
        assert_eq!(keys, vec![("test.a", 1), ("test.a", 2), ("test.z", 0)]);
    }

    #[test]
    fn set_overwrites() {
        let mut s = MetricSink::new();
        s.set("test.g", 0, 5);
        s.set("test.g", 0, 3);
        assert_eq!(s.counter("test.g", 0), 3);
    }
}
