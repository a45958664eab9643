//! Deterministic observability substrate for the Oasis simulator.
//!
//! Every headline number in the paper — stranding ratios (Fig. 2), channel
//! latency distributions (Fig. 6), failover timelines (Fig. 13) — is a
//! *telemetry* claim. This crate gives the whole workspace one way to make
//! such claims: counters, HDR-style sim-time histograms, scoped spans and
//! binned utilization timelines, all keyed by `&'static str` metric names
//! registered in a per-crate `metrics.rs` (enforced by the `metric-name`
//! rule in `oasis-check`) and exported as a canonical, schema-versioned
//! [`MetricsSnapshot`].
//!
//! Determinism rules (these are invariants, not aspirations):
//!
//! - Metric keys are `(&'static str, u32)` pairs — a registered name plus a
//!   small numeric tag (host id, port, actor index). No formatted strings,
//!   no floats in keys.
//! - All recorded quantities are integers (nanoseconds, bytes, counts).
//!   Quantile *evaluation* may use floats; stored state never does.
//! - Snapshots sort entries by `(name, tag)` and render integer-only JSON,
//!   so two identical runs produce byte-identical exports and
//!   [`MetricsSnapshot::merge`] is associative bucket-by-bucket.
//! - The sink allocates nothing per record beyond hash-map growth; recording
//!   is cheap enough for measurement paths that are compiled in
//!   unconditionally. Ambient hot-loop instrumentation (per-dispatch
//!   scheduler stats, per-line pool timelines) stays behind the `obs`
//!   cargo feature in the crates that own those loops.

pub mod hist;
pub mod sink;
pub mod snapshot;
pub mod timeline;

pub use hist::ObsHistogram;
pub use sink::{MetricSink, Span};
pub use snapshot::{CounterEntry, HistEntry, MetricsSnapshot, TimelineEntry, SCHEMA_VERSION};
pub use timeline::Timeline;
