//! The Junction-style baseline driver (§5.1).
//!
//! The paper's overhead experiments compare Oasis against instances served
//! by their *local* NIC through Junction's NIC virtualization layer. This
//! driver is that baseline: one combined polling core bridges local
//! instances directly to the local NIC — no cross-host message channels.
//!
//! A [`BufferPlacement`] knob reproduces the Fig. 11 middle bar: the
//! modified baseline that keeps the driver local but allocates its I/O
//! buffer areas in CXL pool memory. With pool buffers the driver performs
//! the same write-back/invalidate discipline as the Oasis frontend (the
//! device DMAs from non-coherent pool memory either way).

use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_cxl::pool::TrafficClass;
use oasis_cxl::{CxlPool, HostCtx, Region, RegionAllocator};
use oasis_net::addr::Ipv4Addr;
use oasis_net::nic::{Nic, RxDesc, TxDesc};
use oasis_net::packet::Frame;
use oasis_sim::detmap::DetMap;
use oasis_sim::time::SimTime;

use crate::config::{BufferPlacement, OasisConfig};
use crate::datapath::{empty_round, BufferArea};
use crate::instance::Instance;
use crate::park::IdleRound;
use crate::snapshot::Snapshottable;

/// Baseline driver counters.
#[derive(Clone, Debug, Default)]
pub struct LocalDriverStats {
    /// TX packets posted.
    pub tx_packets: u64,
    /// TX drops (no buffer / NIC full).
    pub tx_drops: u64,
    /// RX packets delivered to instances.
    pub rx_packets: u64,
    /// RX packets with no owning instance.
    pub rx_unknown: u64,
}

struct LocalInst {
    inst_idx: usize,
    ip: Ipv4Addr,
}

/// The combined local driver (Junction baseline).
pub struct LocalDriver {
    /// Host this driver (and its NIC) lives on.
    pub host: usize,
    /// The NIC it drives.
    pub nic_id: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: LocalDriverStats,
    cfg: OasisConfig,
    placement: BufferPlacement,
    tx_area: BufferArea,
    rx_area: BufferArea,
    insts: Vec<LocalInst>,
    tx_inflight: DetMap<u64, u64>,
    rx_posted: DetMap<u64, u64>,
    next_cookie: u64,
}

/// DMA context resolving both pool and host-local buffer references.
struct MixedDma<'a> {
    pool: &'a mut CxlPool,
    local: &'a mut [u8],
    port: oasis_cxl::pool::PortId,
    dma_ddr_ns: u64,
    dma_cxl_ns: u64,
}

impl DmaMemory for MixedDma<'_> {
    fn dma_read(&mut self, now: SimTime, mem: MemRef, out: &mut [u8]) {
        match mem {
            MemRef::Pool(a) => self.pool.dma_read(now, self.port, a, out),
            MemRef::HostLocal(a) => {
                out.copy_from_slice(&self.local[a as usize..a as usize + out.len()]);
            }
        }
    }
    fn dma_write(&mut self, now: SimTime, mem: MemRef, data: &[u8]) {
        match mem {
            MemRef::Pool(a) => self.pool.dma_write(now, self.port, a, data),
            MemRef::HostLocal(a) => {
                self.local[a as usize..a as usize + data.len()].copy_from_slice(data);
            }
        }
    }
    fn dma_latency_ns(&self, mem: MemRef) -> u64 {
        match mem {
            MemRef::Pool(_) => self.dma_cxl_ns,
            MemRef::HostLocal(_) => self.dma_ddr_ns,
        }
    }
}

impl LocalDriver {
    /// Create a baseline driver. With [`BufferPlacement::CxlPool`], buffer
    /// areas are carved from the pool via `ra`; with
    /// [`BufferPlacement::LocalDdr`], from the core's local DRAM starting
    /// at offset 0.
    pub fn new(
        host: usize,
        nic_id: usize,
        core: HostCtx,
        cfg: OasisConfig,
        placement: BufferPlacement,
        pool: &mut CxlPool,
        ra: &mut RegionAllocator,
    ) -> Self {
        let (tx_area, rx_area) = match placement {
            BufferPlacement::CxlPool => (
                BufferArea::new(
                    ra.alloc(
                        pool,
                        format!("baseline{host}.tx"),
                        cfg.tx_area_per_instance,
                        TrafficClass::Payload,
                    ),
                    cfg.buf_size,
                ),
                BufferArea::new(
                    ra.alloc(
                        pool,
                        format!("baseline{host}.rx"),
                        cfg.rx_area_per_nic,
                        TrafficClass::Payload,
                    ),
                    cfg.buf_size,
                ),
            ),
            BufferPlacement::LocalDdr => {
                // Carve the areas out of local DRAM; `Region` here is only
                // an address-range descriptor (no pool class registration).
                assert!(
                    core.local_size() >= cfg.tx_area_per_instance + cfg.rx_area_per_nic,
                    "host local memory too small for baseline buffer areas"
                );
                let tx = Region {
                    name: format!("baseline{host}.tx.local"),
                    base: 0,
                    size: cfg.tx_area_per_instance,
                    class: TrafficClass::Payload,
                };
                let rx = Region {
                    name: format!("baseline{host}.rx.local"),
                    base: cfg.tx_area_per_instance,
                    size: cfg.rx_area_per_nic,
                    class: TrafficClass::Payload,
                };
                (
                    BufferArea::new(tx, cfg.buf_size),
                    BufferArea::new(rx, cfg.buf_size),
                )
            }
        };
        LocalDriver {
            host,
            nic_id,
            core,
            stats: LocalDriverStats::default(),
            cfg,
            placement,
            tx_area,
            rx_area,
            insts: Vec::new(),
            tx_inflight: DetMap::default(),
            rx_posted: DetMap::default(),
            next_cookie: 0,
        }
    }

    /// The buffer placement mode (Fig. 11 axis).
    pub fn placement(&self) -> BufferPlacement {
        self.placement
    }

    /// Attach a local instance and install its flow rule.
    pub fn attach_instance(&mut self, nic: &mut Nic, inst_idx: usize, ip: Ipv4Addr, tag: u32) {
        nic.add_flow(ip, tag);
        self.insts.push(LocalInst { inst_idx, ip });
    }

    fn mem_ref(&self, addr: u64) -> MemRef {
        match self.placement {
            BufferPlacement::CxlPool => MemRef::Pool(addr),
            BufferPlacement::LocalDdr => MemRef::HostLocal(addr),
        }
    }

    /// Write a frame into a TX buffer with the placement-appropriate
    /// coherence discipline.
    fn write_buf(&mut self, pool: &mut CxlPool, addr: u64, bytes: &[u8]) {
        match self.placement {
            BufferPlacement::CxlPool => {
                self.core.write(pool, addr, bytes);
                self.core.clwb_range(pool, addr, bytes.len() as u64);
                // SFENCE before the doorbell: the NIC's DMA read must not
                // overtake the posted write-backs (there is no ordering
                // between pool writes and the MMIO doorbell otherwise).
                self.core.mfence(pool);
                self.core.publish_fenced(pool, addr, bytes.len() as u64);
            }
            BufferPlacement::LocalDdr => self.core.local_write(addr, bytes),
        }
    }

    /// Read a frame out of an RX buffer, invalidating pool lines afterward.
    fn read_buf(&mut self, pool: &mut CxlPool, addr: u64, out: &mut [u8]) {
        match self.placement {
            BufferPlacement::CxlPool => {
                self.core.expect_fresh(pool, addr, out.len() as u64);
                self.core.read_flush(pool, addr, out);
            }
            BufferPlacement::LocalDdr => self.core.local_read(addr, out),
        }
    }

    /// One polling round: instance TX → NIC, NIC completions → instances.
    /// Returns egress frames for the pod to forward.
    pub fn step(
        &mut self,
        pool: &mut CxlPool,
        nic: &mut Nic,
        instances: &mut [Instance],
    ) -> Vec<(SimTime, Frame)> {
        self.core.advance(self.cfg.driver_loop_ns);

        // Instance TX.
        for slot in 0..self.insts.len() {
            let inst_idx = self.insts[slot].inst_idx;
            instances[inst_idx].tick(self.core.clock);
            for _ in 0..super::engine_net::POLL_BATCH {
                let Some(frame) = instances[inst_idx].pop_tx(self.core.clock) else {
                    break;
                };
                self.core.advance(self.cfg.ipc_cost_ns);
                let Some(buf) = self.tx_area.alloc() else {
                    self.stats.tx_drops += 1;
                    continue;
                };
                let bytes = frame.bytes().to_vec();
                self.write_buf(pool, buf, &bytes);
                let cookie = self.next_cookie;
                self.next_cookie += 1;
                if nic.post_tx(TxDesc {
                    mem: self.mem_ref(buf),
                    len: bytes.len() as u32,
                    cookie,
                }) {
                    self.stats.tx_packets += 1;
                    self.tx_inflight.insert(cookie, buf);
                } else {
                    self.stats.tx_drops += 1;
                    self.tx_area.free(buf);
                }
            }
        }

        // Drive the NIC.
        let clock = self.core.clock;
        let egress = {
            let (local, port, costs) = self.core.dma_parts();
            let mut dma = MixedDma {
                pool,
                local,
                port,
                dma_ddr_ns: costs.dma_ddr_ns,
                dma_cxl_ns: costs.dma_cxl_ns,
            };
            nic.process(clock, &mut dma)
        };

        // Completions.
        for c in nic.poll_tx_completions(self.core.clock) {
            if let Some(buf) = self.tx_inflight.remove(&c.cookie) {
                self.tx_area.free(buf);
            }
        }
        for c in nic.poll_rx_completions(self.core.clock) {
            let addr = match c.mem {
                MemRef::Pool(a) | MemRef::HostLocal(a) => a,
            };
            self.rx_posted.remove(&c.cookie);
            let mut pkt = vec![0u8; c.len as usize];
            self.read_buf(pool, addr, &mut pkt);
            self.rx_area.free(addr);
            let frame = Frame(bytes::Bytes::from(pkt));
            let target = match c.tag {
                Some(tag) => self
                    .insts
                    .iter()
                    .find(|i| instances[i.inst_idx].id == tag)
                    .map(|i| i.inst_idx),
                None => frame
                    .dst_ip()
                    .and_then(|ip| self.insts.iter().find(|i| i.ip == ip))
                    .map(|i| i.inst_idx),
            };
            match target {
                Some(idx) => {
                    self.core.advance(self.cfg.ipc_cost_ns);
                    self.stats.rx_packets += 1;
                    instances[idx].deliver(self.core.clock, &frame);
                }
                None => self.stats.rx_unknown += 1,
            }
        }

        // Keep the RX ring stocked.
        while nic.rx_free_count() < self.cfg.rx_ring_target {
            let Some(buf) = self.rx_area.alloc() else {
                break;
            };
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            self.rx_posted.insert(cookie, buf);
            if !nic.post_rx(RxDesc {
                mem: self.mem_ref(buf),
                capacity: self.rx_area.buf_size() as u32,
                cookie,
            }) {
                self.rx_posted.remove(&cookie);
                self.rx_area.free(buf);
                break;
            }
        }

        egress
    }

    /// Earliest time this driver has real work to do assuming no new
    /// external input: due instance TX/TCP timers, NIC events, or an
    /// under-stocked RX ring. `None` when idle indefinitely. Steps that end
    /// strictly before this time only advance the polling clock, which is
    /// what lets the pod park the driver
    /// ([`crate::engine::DeviceEngine::idle_round`]).
    pub fn next_work_time(&self, nic: &Nic, instances: &[Instance]) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut consider = |x: SimTime| t = Some(t.map_or(x, |cur: SimTime| cur.min(x)));
        if nic.rx_free_count() < self.cfg.rx_ring_target {
            consider(SimTime::ZERO);
        }
        if let Some(x) = nic.next_event_at() {
            consider(x);
        }
        for li in &self.insts {
            if let Some(x) = instances[li.inst_idx].next_event() {
                consider(x);
            }
        }
        t
    }

    /// [`crate::engine::DeviceEngine::idle_round`] of the baseline: it polls
    /// no channel, so an idle round is the loop's clock step and nothing
    /// else, until [`Self::next_work_time`].
    pub(crate) fn idle_round(
        &self,
        pool: &CxlPool,
        nic: &Nic,
        instances: &[Instance],
    ) -> Option<IdleRound> {
        let no_channels = (std::iter::empty(), std::iter::empty());
        let due = self.next_work_time(nic, instances).unwrap_or(SimTime::MAX);
        empty_round(&self.core, pool, self.cfg.driver_loop_ns, no_channels, due)
    }
}

impl Snapshottable for LocalDriver {
    /// The baseline carries both roles in one driver: clock, counters, the
    /// instance table (identity-checked on restore), cookie maps sorted by
    /// cookie, and both buffer-area free lists.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        let s = &self.stats;
        for v in [s.tx_packets, s.tx_drops, s.rx_packets, s.rx_unknown] {
            w.put_u64(v);
        }
        w.put_u64(self.next_cookie);
        w.put_u64(self.insts.len() as u64);
        for i in &self.insts {
            w.put_u64(i.inst_idx as u64);
            w.put_u32(u32::from_le_bytes(i.ip.0));
        }
        let mut cookies: Vec<u64> = self.tx_inflight.keys().copied().collect();
        cookies.sort_unstable();
        w.put_u64(cookies.len() as u64);
        for c in cookies {
            if let Some(&buf) = self.tx_inflight.get(&c) {
                w.put_u64(c);
                w.put_u64(buf);
            }
        }
        let mut cookies: Vec<u64> = self.rx_posted.keys().copied().collect();
        cookies.sort_unstable();
        w.put_u64(cookies.len() as u64);
        for c in cookies {
            if let Some(&buf) = self.rx_posted.get(&c) {
                w.put_u64(c);
                w.put_u64(buf);
            }
        }
        self.tx_area.snapshot_state(w);
        self.rx_area.snapshot_state(w);
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.core.clock = SimTime(r.u64("baseline clock")?);
        self.stats.tx_packets = r.u64("baseline tx_packets")?;
        self.stats.tx_drops = r.u64("baseline tx_drops")?;
        self.stats.rx_packets = r.u64("baseline rx_packets")?;
        self.stats.rx_unknown = r.u64("baseline rx_unknown")?;
        self.next_cookie = r.u64("baseline next cookie")?;
        let n = r.u64("baseline instance count")?;
        if n != self.insts.len() as u64 {
            return Err(SnapshotError::Corrupt("baseline instance count"));
        }
        for i in &self.insts {
            let idx = r.u64("baseline instance idx")?;
            let ip = Ipv4Addr(r.u32("baseline instance ip")?.to_le_bytes());
            if idx != i.inst_idx as u64 || ip != i.ip {
                return Err(SnapshotError::Corrupt("baseline instance identity"));
            }
        }
        let n = r.u64("baseline tx-inflight count")?;
        self.tx_inflight.clear();
        for _ in 0..n {
            let cookie = r.u64("baseline tx-inflight cookie")?;
            let buf = r.u64("baseline tx-inflight buf")?;
            self.tx_inflight.insert(cookie, buf);
        }
        let n = r.u64("baseline rx-posted count")?;
        self.rx_posted.clear();
        for _ in 0..n {
            let cookie = r.u64("baseline rx-posted cookie")?;
            let buf = r.u64("baseline rx-posted buf")?;
            self.rx_posted.insert(cookie, buf);
        }
        self.tx_area.restore_state(r)?;
        self.rx_area.restore_state(r)?;
        Ok(())
    }
}
