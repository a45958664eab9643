//! Host-time spans around the benchmark's own calls into the program.
//!
//! The benchmark measures layers from outside, so a span brackets one call
//! into a layer's public function. Spans are kept in memory and written out
//! when the run ends. Calls too short and too many to keep one by one (a
//! sub-microsecond `execute`, a `volume_read`) are folded into a
//! `{count, total, max}` aggregate under the span that was open when they
//! ran. With tracing off every entry point is a single branch, so the
//! untraced run that yields the end-to-end metrics pays nothing.

use std::time::Instant;

use crate::json::Value;

/// One recorded span. `parent` is the span that was open when this one
/// began (its cause); ids are indices into the tracer's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Short calls folded together under one parent span.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    pub parent: Option<u32>,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the currently open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close in the reverse of the order they opened.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    /// Time one short call and fold it into the `name` aggregate of the
    /// open span. With tracing off the call is not timed at all.
    #[inline]
    pub fn short<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.fold(name, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Fold an already-measured duration into an aggregate.
    pub fn fold(&mut self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let agg = match self
            .aggregates
            .iter_mut()
            .rev()
            .find(|a| a.parent == parent && a.name == name)
        {
            Some(a) => a,
            None => {
                self.aggregates.push(Aggregate {
                    parent,
                    name,
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                });
                self.aggregates.last_mut().expect("just pushed")
            }
        };
        agg.count += 1;
        agg.total_ns += ns;
        agg.max_ns = agg.max_ns.max(ns);
    }

    /// Self time of a span: its duration minus the part of it covered by
    /// its direct children (child spans and child aggregates). Children
    /// run one after another on one thread, so their durations add.
    pub fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .chain(
                self.aggregates
                    .iter()
                    .filter(|a| a.parent == Some(id))
                    .map(|a| a.total_ns),
            )
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Total duration and call count of every span and aggregate named
    /// `name` (ns, count).
    pub fn total(&self, name: &str) -> (u64, u64) {
        let (mut ns, mut n) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            n += 1;
        }
        for a in self.aggregates.iter().filter(|a| a.name == name) {
            ns += a.total_ns;
            n += a.count;
        }
        (ns, n)
    }

    /// The span file: every span with its self time, then the aggregates.
    pub fn to_json(&self) -> Value {
        let parent = |p: Option<u32>| p.map_or(Value::Null, |p| Value::from(p as u64));
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::obj()
                    .with("id", s.id as u64)
                    .with("parent", parent(s.parent))
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self.self_ns(s.id))
            })
            .collect();
        let aggregates: Vec<Value> = self
            .aggregates
            .iter()
            .map(|a| {
                Value::obj()
                    .with("parent", parent(a.parent))
                    .with("name", a.name)
                    .with("count", a.count)
                    .with("total_ns", a.total_ns)
                    .with("max_ns", a.max_ns)
            })
            .collect();
        Value::obj()
            .with("spans", spans)
            .with("aggregates", aggregates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written times, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(true);
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        t.spans = vec![
            span(0, None, "rep", 0, 1_000),
            span(1, Some(0), "build", 100, 300),
            span(2, Some(0), "run", 300, 900),
            span(3, Some(2), "snapshot", 800, 850),
        ];
        t.aggregates = vec![
            Aggregate {
                parent: Some(2),
                name: "submit",
                count: 10,
                total_ns: 150,
                max_ns: 40,
            },
            Aggregate {
                parent: Some(0),
                name: "verify",
                count: 2,
                total_ns: 50,
                max_ns: 30,
            },
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        // rep: 1000 - build 200 - run 600 - verify aggregate 50.
        assert_eq!(t.self_ns(0), 150);
        // run: 600 - snapshot 50 - submit aggregate 150.
        assert_eq!(t.self_ns(2), 400);
        // Leaves keep their whole duration.
        assert_eq!(t.self_ns(1), 200);
        assert_eq!(t.self_ns(3), 50);
        // Self times of a tree add back up to the root's duration.
        let sum: u64 = (0..4).map(|i| t.self_ns(i)).sum::<u64>()
            + t.aggregates.iter().map(|a| a.total_ns).sum::<u64>();
        assert_eq!(sum, 1_000);
    }

    #[test]
    fn totals_cover_spans_and_aggregates() {
        let t = fixture();
        assert_eq!(t.total("run"), (600, 1));
        assert_eq!(t.total("submit"), (150, 10));
        assert_eq!(t.total("absent"), (0, 0));
    }

    #[test]
    fn live_spans_nest_and_aggregate() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |t| {
                for _ in 0..3 {
                    t.short("tick", || std::hint::black_box(1 + 1));
                }
            });
            t.fold("tick", 7);
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        // Same name under two parents: two aggregates.
        assert_eq!(t.aggregates.len(), 2);
        assert_eq!(t.aggregates[0].count, 3);
        assert_eq!(t.aggregates[1].total_ns, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let json = t.to_json();
        assert_eq!(json.get("spans").unwrap().items().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", |t| t.short("tick", || 5));
        assert_eq!(v, 5);
        assert!(t.spans.is_empty() && t.aggregates.is_empty());
    }
}
