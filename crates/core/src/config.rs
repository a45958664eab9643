//! System configuration and the Table 1 requirement constants.

use oasis_sim::time::SimDuration;

/// Performance requirements for pooled devices (Table 1 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct DeviceRequirements {
    /// Device class name.
    pub class: &'static str,
    /// Bandwidth requirement, bytes/second.
    pub bandwidth: f64,
    /// Operation-rate requirement, operations/second.
    pub iops: f64,
    /// Typical end-to-end latency range, nanoseconds.
    pub latency_ns: (u64, u64),
    /// Devices per host.
    pub count: (u32, u32),
}

/// Table 1: NIC requirements (26 GB/s, 4 MOp/s/core, 50–110 µs, 1–2 per
/// host).
pub const NIC_REQUIREMENTS: DeviceRequirements = DeviceRequirements {
    class: "NIC",
    bandwidth: 26e9,
    iops: 4e6,
    latency_ns: (50_000, 110_000),
    count: (1, 2),
};

/// Table 1: SSD requirements (5 GB/s, 0.5 MOp/s, 100 µs, 6 per host).
pub const SSD_REQUIREMENTS: DeviceRequirements = DeviceRequirements {
    class: "SSD",
    bandwidth: 5e9,
    iops: 0.5e6,
    latency_ns: (100_000, 100_000),
    count: (6, 6),
};

/// Aggregate datapath demand the paper derives in §2.1/§3.2: one NIC plus
/// six SSDs ≈ 56 GB/s and ≥ 7 MOp/s.
pub fn total_datapath_demand() -> (f64, f64) {
    let bw = NIC_REQUIREMENTS.bandwidth + 6.0 * SSD_REQUIREMENTS.bandwidth;
    let iops = NIC_REQUIREMENTS.iops + 6.0 * SSD_REQUIREMENTS.iops;
    (bw, iops)
}

/// Where a driver allocates its I/O buffers (Fig. 11's breakdown axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferPlacement {
    /// Host-local DRAM (the Junction baseline).
    LocalDdr,
    /// Shared CXL pool memory (Oasis, and the modified baseline of §5.1).
    CxlPool,
}

/// Tunable parameters of an Oasis deployment. Defaults reproduce the
/// paper's prototype configuration, scaled where the paper's sizes
/// (4 GB buffer areas) would waste simulation memory without changing
/// behaviour. Buffer sizing and retry policy of the storage and accel
/// engines are constants of their device class
/// ([`crate::engine_req::ReqClass`]), not configuration.
#[derive(Clone, Debug)]
pub struct OasisConfig {
    /// Message-channel slots (§3.2.2: 8192).
    pub channel_slots: u64,
    /// Per-instance TX buffer area (paper: 64 MB; scaled).
    pub tx_area_per_instance: u64,
    /// Per-NIC RX buffer area (paper: 4 GB; scaled).
    pub rx_area_per_nic: u64,
    /// Size of one packet buffer (covers an MTU frame).
    pub buf_size: u64,
    /// RX descriptors the backend keeps posted per NIC.
    pub rx_ring_target: usize,
    /// Per-message CPU cost of instance<->frontend IPC over local DDR
    /// rings (Junction's virtual-NIC layer).
    pub ipc_cost_ns: u64,
    /// Fixed driver-loop work per poll iteration (descriptor bookkeeping).
    pub driver_loop_ns: u64,
    /// How long after a switch-port failure the NIC's PHY reports loss of
    /// carrier (link-down detection time; dominates failover).
    pub link_detect: SimDuration,
    /// Backend link-status check period (§3.3.3 monitoring).
    pub link_check_period: SimDuration,
    /// Telemetry reporting period (§3.5: 100 ms).
    pub telemetry_period: SimDuration,
    /// Allocator polling period (control plane, off the data path).
    pub allocator_poll: SimDuration,
    /// Grace period before unregistering from the old NIC during graceful
    /// migration (§3.3.4: 5 s).
    pub migration_grace: SimDuration,
    /// Frontend → allocator liveness heartbeat period (ISSUE 2). The
    /// allocator declares a host failed after three silent periods.
    pub heartbeat_period: SimDuration,
}

impl Default for OasisConfig {
    fn default() -> Self {
        OasisConfig {
            channel_slots: 8192,
            tx_area_per_instance: 256 * 1024,
            rx_area_per_nic: 1024 * 1024,
            buf_size: 2048,
            rx_ring_target: 256,
            ipc_cost_ns: 150,
            driver_loop_ns: 60,
            link_detect: SimDuration::from_millis(37),
            link_check_period: SimDuration::from_micros(100),
            telemetry_period: SimDuration::from_millis(100),
            allocator_poll: SimDuration::from_micros(100),
            migration_grace: SimDuration::from_secs(5),
            heartbeat_period: SimDuration::from_millis(100),
        }
    }
}

impl OasisConfig {
    /// Packet buffers available in one instance's TX area.
    pub fn tx_bufs_per_instance(&self) -> u64 {
        self.tx_area_per_instance / self.buf_size
    }

    /// Packet buffers available in one NIC's RX area.
    pub fn rx_bufs_per_nic(&self) -> u64 {
        self.rx_area_per_nic / self.buf_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals() {
        let (bw, iops) = total_datapath_demand();
        assert!((bw - 56e9).abs() < 1e9, "bw {bw}");
        assert!((iops - 7e6).abs() < 1e5, "iops {iops}");
    }

    #[test]
    fn default_areas_hold_many_buffers() {
        let c = OasisConfig::default();
        assert!(c.tx_bufs_per_instance() >= 64);
        assert!(c.rx_bufs_per_nic() >= c.rx_ring_target as u64);
        assert!(c.buf_size >= 1514 + 14, "buffer must hold an MTU frame");
    }
}
