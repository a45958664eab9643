//! Memory-operation cost model.
//!
//! All constants are nanoseconds of CPU time charged to the issuing host's
//! local clock. Defaults are calibrated to the measurements the paper
//! publishes (it withholds raw CXL latencies for confidentiality but gives
//! ratios and derived quantities):
//!
//! * CXL idle load-to-use ≈ 2.3× local DDR (§2.3, AMD 5th-gen EPYC),
//! * one-way 16 B message latency over the pool ≈ 0.6 µs ≈ one CXL write
//!   plus one CXL read (Fig. 6),
//! * the cache-bypassing baseline channel peaks at ≈ 3 MOp/s, i.e. ≈ 330 ns
//!   per poll of `CLFLUSHOPT` + `MFENCE` + cold read (Fig. 6 ①).

/// Nanosecond costs of CPU memory operations in the simulated hosts.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Load hitting the local CPU cache.
    pub cache_hit_ns: u64,
    /// Store hitting a line already present (and owned) in the local cache.
    pub store_hit_ns: u64,
    /// Load-to-use latency of a miss served by local DDR.
    pub ddr_load_ns: u64,
    /// Load-to-use latency of a miss served by the CXL pool.
    pub cxl_load_ns: u64,
    /// Time until a write-back (`clwb`/eviction/flush) becomes visible in
    /// pool memory. Charged as propagation delay, not CPU stall.
    pub cxl_write_visible_ns: u64,
    /// CPU cost of issuing `CLFLUSHOPT`. Flushes are weakly ordered and
    /// pipeline with each other; the drain cost is carried by `MFENCE`.
    pub clflushopt_ns: u64,
    /// CPU cost of issuing `CLWB` (posted, like `CLFLUSHOPT`).
    pub clwb_ns: u64,
    /// Cost of `MFENCE` (drains the store buffer and pending flushes).
    pub mfence_ns: u64,
    /// Cost of issuing `PREFETCHT0` (fill happens asynchronously).
    pub prefetch_issue_ns: u64,
    /// Per-line cost of a *streaming* bulk copy from CXL after the first
    /// line's load-to-use latency: sequential reads pipeline across the
    /// link (hardware prefetch + MLP), so a memcpy runs at link bandwidth,
    /// not at per-line latency.
    pub cxl_stream_line_ns: u64,
    /// Per-poll CPU overhead of a busy-polling loop iteration (branches,
    /// epoch check, ring-index math) charged by channel receivers.
    pub poll_overhead_ns: u64,
    /// Per-message CPU overhead of the send path charged by channel
    /// senders.
    pub send_overhead_ns: u64,
    /// DMA latency from a PCIe device to local DDR (per transaction setup;
    /// bandwidth is modelled separately by the device).
    pub dma_ddr_ns: u64,
    /// DMA latency from a PCIe device to the CXL pool.
    pub dma_cxl_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cache_hit_ns: 4,
            store_hit_ns: 3,
            ddr_load_ns: 125,
            // 2.32x DDR, matching the paper's AMD measurement of 2.29x.
            cxl_load_ns: 290,
            cxl_write_visible_ns: 290,
            clflushopt_ns: 6,
            clwb_ns: 12,
            mfence_ns: 50,
            prefetch_issue_ns: 4,
            cxl_stream_line_ns: 8,
            poll_overhead_ns: 5,
            send_overhead_ns: 2,
            dma_ddr_ns: 700,
            dma_cxl_ns: 850,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratio_matches_paper() {
        let c = CostModel::default();
        let r = c.cxl_load_ns as f64 / c.ddr_load_ns as f64;
        // Paper: 2.29x on AMD 5th-gen EPYC, 2.15x on Intel EMR.
        assert!((2.1..=2.4).contains(&r), "ratio {r}");
    }

    /// One cache-bypassing poll — invalidate + fence + cold CXL read +
    /// loop overhead — takes 351 ns with defaults, ≈ 2.9 MOp/s: the
    /// ≈ 3.0 MOp/s the paper measures for the baseline channel (Fig. 6 ①).
    #[test]
    fn bypass_poll_rate_near_3mops() {
        let c = CostModel::default();
        let poll_ns = c.clflushopt_ns + c.mfence_ns + c.cxl_load_ns + c.poll_overhead_ns;
        let mops = 1e3 / poll_ns as f64;
        assert!((2.5..=3.5).contains(&mops), "mops {mops}");
    }

    #[test]
    fn one_way_message_near_600ns() {
        // One CXL write visibility + one CXL cold read ~ 0.6us (Fig. 6).
        let c = CostModel::default();
        let ns = c.cxl_write_visible_ns + c.cxl_load_ns;
        assert!((500..=700).contains(&ns), "one-way {ns}ns");
    }
}
