//! Per-layer counters, read from the snapshots `Pod::metrics_snapshot()` /
//! `Fleet::metrics_snapshot()` already export and divided by the operations
//! the repetition completed. They are exact: the same seed gives the same
//! values on every run and every machine.

use crate::workloads::Rep;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counters every build exports.
pub fn per_op(rep: &Rep) -> Vec<(&'static str, f64)> {
    let s = &rep.snapshot;
    let sum = |name: &str| s.counter_sum(name);
    let per_op = |name: &str| ratio(sum(name), rep.ops);

    let net_drops = sum("core.net_fe_tx_drop_nobuf")
        + sum("core.net_fe_tx_drop_channel")
        + sum("core.net_fe_tx_policed")
        + sum("core.net_be_tx_drop_full")
        + sum("core.net_be_rx_drop_channel")
        + sum("core.net_be_rx_unknown")
        + sum("core.net_fe_rx_unknown");
    let net_packets = sum("core.net_fe_tx_packets") + sum("core.net_be_rx_forwarded");
    let commands = sum("core.fleet_instances_placed")
        + sum("core.fleet_placements_rejected")
        + sum("core.fleet_instances_killed")
        + sum("core.fleet_resizes");

    vec![
        ("cxl.cache_hits_per_op", per_op("cxl.cache_hits")),
        ("cxl.cache_misses_per_op", per_op("cxl.cache_misses")),
        ("cxl.flushes_per_op", per_op("cxl.cache_flushes")),
        ("cxl.fences_per_op", per_op("cxl.cache_fences")),
        ("cxl.prefetches_per_op", per_op("cxl.cache_prefetches")),
        (
            "cxl.prefetch_stall_ratio",
            ratio(
                sum("cxl.cache_prefetch_stalls"),
                sum("cxl.cache_prefetches"),
            ),
        ),
        ("cxl.payload_bytes_per_op", per_op("cxl.link_bytes_payload")),
        ("cxl.message_bytes_per_op", per_op("cxl.link_bytes_message")),
        ("core.net.drop_ratio", ratio(net_drops, net_packets)),
        (
            "core.storage.retry_ratio",
            ratio(
                sum("core.storage_fe_retries"),
                sum("core.storage_fe_submitted"),
            ),
        ),
        (
            "core.storage.sq_full_ratio",
            ratio(
                sum("core.storage_be_sq_full"),
                sum("core.storage_be_forwarded"),
            ),
        ),
        (
            "core.alloc.spill_share",
            ratio(sum("core.fleet_spill_placements"), commands),
        ),
        (
            "core.alloc.reject_share",
            ratio(sum("core.fleet_placements_rejected"), commands),
        ),
    ]
}

/// Counters only the traced build's snapshots carry (the workspace's `obs`
/// features switch their collection on). In a default build they read 0.
pub fn obs_per_op(rep: &Rep, shards: usize) -> Vec<(&'static str, f64)> {
    let (snapshot, ops) = (&rep.snapshot, rep.ops);
    let sum = |name: &str| snapshot.counter_sum(name);
    let dispatches = sum("sim.sched_dispatches");
    let windows = sum("sim.shard_windows");
    let shard_events = snapshot.counter_tags("sim.shard_events");
    let busiest = shard_events.iter().map(|&(_, v)| v).max().unwrap_or(0);
    vec![
        ("sim.sched.dispatches_per_op", ratio(dispatches, ops)),
        (
            "sim.sched.stale_skip_ratio",
            ratio(sum("sim.sched_stale_skips"), dispatches),
        ),
        ("sim.sched.idle_skips", sum("sim.sched_idle_skips") as f64),
        ("sim.shard.windows", windows as f64),
        (
            "sim.shard.barrier_stall_ratio",
            ratio(sum("sim.shard_barrier_stalls"), windows * shards as u64),
        ),
        ("sim.shard.messages", sum("sim.shard_messages") as f64),
        (
            "sim.shard.balance_bound",
            ratio(shard_events.iter().map(|&(_, v)| v).sum(), busiest),
        ),
    ]
}
