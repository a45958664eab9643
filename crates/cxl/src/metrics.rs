//! Metric name registry for `oasis-cxl` (`oasis-check` `metric-name` rule:
//! all metric name literals live here, `snake_case`, crate-prefixed).
//!
//! Tags are host port numbers unless noted.

/// Bytes read from the pool over a port (all traffic classes).
pub const LINK_READ_BYTES: &str = "cxl.link_read_bytes";
/// Bytes written to the pool over a port (all traffic classes).
pub const LINK_WRITE_BYTES: &str = "cxl.link_write_bytes";
/// Bytes (both directions) attributed to I/O payload regions.
pub(crate) const LINK_BYTES_PAYLOAD: &str = "cxl.link_bytes_payload";
/// Bytes (both directions) attributed to message-channel regions.
pub(crate) const LINK_BYTES_MESSAGE: &str = "cxl.link_bytes_message";
/// Bytes (both directions) attributed to allocator/telemetry/Raft state.
pub(crate) const LINK_BYTES_CONTROL: &str = "cxl.link_bytes_control";
/// Bytes (both directions) touching unregistered addresses.
pub(crate) const LINK_BYTES_UNCLASSIFIED: &str = "cxl.link_bytes_unclassified";
/// Timeline: bytes on the wire per sim-time bin, per port (`obs` feature).
pub const LINK_BYTES_TIMELINE: &str = "cxl.link_bytes_timeline";
/// Write-backs still queued (not yet globally visible) at snapshot time
/// (tag 0, pod-global).
pub(crate) const POOL_PENDING_WRITEBACKS: &str = "cxl.pool_pending_writebacks";

/// Loads served from the host's local cache.
pub const CACHE_HITS: &str = "cxl.cache_hits";
/// Loads that fetched from the pool.
pub const CACHE_MISSES: &str = "cxl.cache_misses";
/// Loads stalled on an in-flight prefetch.
pub(crate) const CACHE_PREFETCH_STALLS: &str = "cxl.cache_prefetch_stalls";
/// Stores into present lines.
pub(crate) const CACHE_STORE_HITS: &str = "cxl.cache_store_hits";
/// Stores that required a read-for-ownership fetch.
pub(crate) const CACHE_STORE_MISSES: &str = "cxl.cache_store_misses";
/// CLFLUSHOPT instructions issued.
pub const CACHE_FLUSHES: &str = "cxl.cache_flushes";
/// CLWB instructions issued.
pub(crate) const CACHE_WRITEBACKS: &str = "cxl.cache_writebacks";
/// MFENCE instructions issued.
pub(crate) const CACHE_FENCES: &str = "cxl.cache_fences";
/// PREFETCHT0 issued for absent lines.
pub(crate) const CACHE_PREFETCHES: &str = "cxl.cache_prefetches";
/// PREFETCHT0 that found the line present and did nothing.
pub(crate) const CACHE_PREFETCH_SKIPS: &str = "cxl.cache_prefetch_skips";
/// Dirty lines written back on capacity eviction.
pub(crate) const CACHE_EVICT_WRITEBACKS: &str = "cxl.cache_evict_writebacks";
