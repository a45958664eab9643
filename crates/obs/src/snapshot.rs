//! Canonical, schema-versioned metric exports.
//!
//! A [`MetricsSnapshot`] is the hand-off format between the simulator and
//! everything downstream: the `fig*` binaries print their headline numbers
//! from it, `obs_report` renders it as a table, the bench-regression CI job
//! uploads it as an artifact. Two properties carry all the weight:
//!
//! 1. **Canonical**: entries sorted by `(name, tag)`, integer-only JSON,
//!    no whitespace variation — identical runs export identical bytes.
//! 2. **Associative merge**: histograms travel as sparse bucket lists and
//!    timelines as sparse bins, so `merge(merge(a, b), c)` equals
//!    `merge(a, merge(b, c))` byte-for-byte.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use crate::hist::quantile_from_buckets;
use crate::timeline::Timeline;

/// Bumped whenever the JSON layout changes shape.
pub const SCHEMA_VERSION: u32 = 1;

/// One counter in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterEntry {
    pub name: &'static str,
    pub tag: u32,
    pub value: u64,
}

/// One histogram in a snapshot, in sparse bucket form (ascending index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistEntry {
    pub name: &'static str,
    pub tag: u32,
    pub count: u64,
    pub sum: u128,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistEntry {
    /// Value at quantile `q` in `[0, 1]` — same answer the live
    /// [`crate::ObsHistogram`] would give.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(
            q,
            self.count,
            self.min,
            self.max,
            self.buckets.iter().copied(),
        )
    }

    /// Percentile shorthand: `percentile(99.0)`.
    pub fn percentile(&self, p: f64) -> u64 {
        #[expect(
            clippy::float_arithmetic,
            reason = "read-side presentation over a frozen snapshot; the divisor only rescales the \
                      argument and nothing flows back into state"
        )]
        self.value_at_quantile(p / 100.0)
    }

    /// Arithmetic mean (0 if empty), rounded down to whole units.
    pub fn mean_floor(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }
}

/// One timeline in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    pub name: &'static str,
    pub tag: u32,
    pub bin_ns: u64,
    pub bins: Vec<(u32, u64)>,
}

/// A full metric export. Construct via [`crate::MetricSink::snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub schema: u32,
    pub counters: Vec<CounterEntry>,
    pub hists: Vec<HistEntry>,
    pub timelines: Vec<TimelineEntry>,
}

impl MetricsSnapshot {
    /// Counter value by key (0 if absent).
    pub fn counter(&self, name: &str, tag: u32) -> u64 {
        self.counters
            .binary_search_by(|c| (c.name, c.tag).cmp(&(name, tag)))
            .map(|i| self.counters[i].value)
            .unwrap_or(0)
    }

    /// Sum of a counter across all tags.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// All `(tag, value)` pairs for a counter name, ascending tag.
    pub fn counter_tags(&self, name: &str) -> Vec<(u32, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| (c.tag, c.value))
            .collect()
    }

    /// Histogram entry by key.
    pub fn hist(&self, name: &str, tag: u32) -> Option<&HistEntry> {
        self.hists
            .binary_search_by(|h| (h.name, h.tag).cmp(&(name, tag)))
            .ok()
            .map(|i| &self.hists[i])
    }

    /// Timeline entry by key.
    pub fn timeline(&self, name: &str, tag: u32) -> Option<&TimelineEntry> {
        self.timelines
            .binary_search_by(|t| (t.name, t.tag).cmp(&(name, tag)))
            .ok()
            .map(|i| &self.timelines[i])
    }

    /// Merge `other` into `self`. Counters add, histograms merge
    /// bucket-wise, timelines re-bin to the wider width. Associative and
    /// commutative up to the canonical sort, which both inputs carry.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self
                .counters
                .binary_search_by(|x| (x.name, x.tag).cmp(&(c.name, c.tag)))
            {
                Ok(i) => self.counters[i].value += c.value,
                Err(i) => self.counters.insert(i, c.clone()),
            }
        }
        for h in &other.hists {
            match self
                .hists
                .binary_search_by(|x| (x.name, x.tag).cmp(&(h.name, h.tag)))
            {
                Ok(i) => merge_hist_entry(&mut self.hists[i], h),
                Err(i) => self.hists.insert(i, h.clone()),
            }
        }
        for t in &other.timelines {
            match self
                .timelines
                .binary_search_by(|x| (x.name, x.tag).cmp(&(t.name, t.tag)))
            {
                Ok(i) => {
                    let mut merged = Timeline::from_bins(
                        self.timelines[i].bin_ns,
                        std::mem::take(&mut self.timelines[i].bins),
                    );
                    merged.merge(&Timeline::from_bins(t.bin_ns, t.bins.clone()));
                    self.timelines[i].bin_ns = merged.bin_ns();
                    self.timelines[i].bins = merged.bins().to_vec();
                }
                Err(i) => self.timelines.insert(i, t.clone()),
            }
        }
    }

    /// Render canonical JSON: one line, integer-only, keys in fixed order,
    /// entries pre-sorted by the snapshot contract.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        out.push_str(&self.schema.to_string());
        out.push_str(",\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"tag\":{},\"value\":{}}}",
                c.name, c.tag, c.value
            ));
        }
        out.push_str("],\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"tag\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.name, h.tag, h.count, h.sum, h.min, h.max
            ));
            for (j, (idx, cnt)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{idx},{cnt}]"));
            }
            out.push_str("]}");
        }
        out.push_str("],\"timelines\":[");
        for (i, t) in self.timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"tag\":{},\"bin_ns\":{},\"bins\":[",
                t.name, t.tag, t.bin_ns
            ));
            for (j, (idx, amt)) in t.bins.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{idx},{amt}]"));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn merge_hist_entry(into: &mut HistEntry, from: &HistEntry) {
    let mut merged: Vec<(u32, u64)> = Vec::with_capacity(into.buckets.len() + from.buckets.len());
    let (mut a, mut b) = (
        into.buckets.iter().peekable(),
        from.buckets.iter().peekable(),
    );
    while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
        match ia.cmp(&ib) {
            std::cmp::Ordering::Less => {
                merged.push((ia, ca));
                a.next();
            }
            std::cmp::Ordering::Greater => {
                merged.push((ib, cb));
                b.next();
            }
            std::cmp::Ordering::Equal => {
                merged.push((ia, ca + cb));
                a.next();
                b.next();
            }
        }
    }
    merged.extend(a.copied());
    merged.extend(b.copied());
    into.buckets = merged;
    into.count += from.count;
    into.sum += from.sum;
    into.min = if into.count == 0 {
        0
    } else {
        into.min.min(from.min)
    };
    into.max = into.max.max(from.max);
}

#[cfg(test)]
mod tests {
    use crate::sink::MetricSink;
    use oasis_sim::time::SimTime;

    fn sink_with(values: &[(u64, u64)]) -> MetricSink {
        // (counter delta, hist value) pairs
        let mut s = MetricSink::new();
        for &(c, v) in values {
            s.add("test.ops", 0, c);
            s.record("test.lat_ns", 0, v);
            s.timeline_add("test.bytes", 1, SimTime::from_nanos(v), c);
        }
        s
    }

    #[test]
    fn json_is_stable_and_integer_only() {
        let snap = sink_with(&[(1, 100), (2, 200_000)]).snapshot();
        let j = snap.to_json();
        assert!(j.starts_with("{\"schema\":1,"));
        // Integer-only: no digit.digit float literal anywhere (metric
        // names legitimately contain dots).
        let bytes = j.as_bytes();
        let has_float = bytes
            .windows(3)
            .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit());
        assert!(!has_float, "integer-only JSON: {j}");
        assert_eq!(j, sink_with(&[(1, 100), (2, 200_000)]).snapshot().to_json());
    }

    #[test]
    fn merge_is_associative() {
        let a = sink_with(&[(1, 50), (2, 5000)]).snapshot();
        let b = sink_with(&[(3, 70), (1, 800_000)]).snapshot();
        let c = sink_with(&[(10, 7), (1, 63)]).snapshot();

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        assert_eq!(ab_c.to_json(), a_bc.to_json());
    }

    #[test]
    fn merge_equals_union_recording() {
        // Recording x then y in one sink == snapshotting separately and
        // merging.
        let xs: &[(u64, u64)] = &[(1, 10), (4, 99), (2, 1_000_000)];
        let ys: &[(u64, u64)] = &[(7, 10), (1, 12345)];
        let mut both = MetricSink::new();
        for &(c, v) in xs.iter().chain(ys) {
            both.add("test.ops", 0, c);
            both.record("test.lat_ns", 0, v);
            both.timeline_add("test.bytes", 1, SimTime::from_nanos(v), c);
        }
        let mut merged = sink_with(xs).snapshot();
        merged.merge(&sink_with(ys).snapshot());
        assert_eq!(merged.to_json(), both.snapshot().to_json());
    }

    #[test]
    fn lookup_helpers() {
        let snap = sink_with(&[(5, 100)]).snapshot();
        assert_eq!(snap.counter("test.ops", 0), 5);
        assert_eq!(snap.counter("test.ops", 9), 0);
        assert_eq!(snap.counter_sum("test.ops"), 5);
        let h = snap.hist("test.lat_ns", 0).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.percentile(50.0), 100);
        assert!(snap.timeline("test.bytes", 1).is_some());
        assert!(snap.hist("test.lat_ns", 3).is_none());
    }

    #[test]
    fn snapshot_quantile_matches_live() {
        let mut s = MetricSink::new();
        for v in [10u64, 200, 3000, 40_000, 500_000, 500_000] {
            s.record("test.lat_ns", 2, v);
        }
        let live = s.hist("test.lat_ns", 2).unwrap();
        let snap = s.snapshot();
        let entry = snap.hist("test.lat_ns", 2).unwrap();
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(entry.percentile(p), live.percentile(p), "p{p}");
        }
        assert_eq!(
            entry.mean_floor() as u128,
            live.sum() / live.count() as u128
        );
    }
}
