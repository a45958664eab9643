//! Simulated NIC with DPDK-like queue pairs.
//!
//! The backend driver programs this NIC the way DPDK programs a ConnectX-5:
//! post a TX work-queue entry carrying a buffer pointer ([`TxDesc`]), poll TX
//! completions, keep the RX ring stocked with free buffers ([`RxDesc`]), and
//! poll RX completions. Two properties of the real device matter to Oasis
//! and are modelled faithfully:
//!
//! * **DMA bypasses CPU caches** (DDIO disabled, §3.2.1): buffer reads and
//!   writes go through [`DmaMemory`], which resolves to pool memory or
//!   host-local DRAM directly — never through a `HostCtx` cache.
//! * **Flow tagging** (§3.3.1): `rte_flow`-style exact-match rules on the
//!   destination IP attach a tag to RX completions so the backend driver can
//!   route a packet to its instance *without inspecting the payload*.
//!
//! Bandwidth is modelled by serialization delay at the configured line rate;
//! link state supports the §5.3 failure injection (switch-port disable
//! drops carrier).

use std::collections::VecDeque;

use oasis_cxl::dma::{DmaMemory, MemRef};
use oasis_sim::time::{SimDuration, SimTime};

use crate::addr::{Ipv4Addr, MacAddr};
use crate::packet::{Frame, ETH_HLEN};
use crate::WIRE_OVERHEAD_BYTES;

/// A TX work-queue entry: transmit `len` bytes from `mem`.
#[derive(Clone, Copy, Debug)]
pub struct TxDesc {
    /// Frame bytes to transmit.
    pub mem: MemRef,
    /// Frame length.
    pub len: u32,
    /// Opaque driver cookie returned in the completion.
    pub cookie: u64,
}

/// Completion of a TX descriptor.
#[derive(Clone, Copy, Debug)]
pub struct TxCompletion {
    /// The descriptor's cookie.
    pub cookie: u64,
    /// False if the frame was dropped (link down).
    pub ok: bool,
    /// When the transmit finished on the wire.
    pub done_at: SimTime,
}

/// A free RX buffer posted to the NIC.
#[derive(Clone, Copy, Debug)]
pub struct RxDesc {
    /// Where the NIC may DMA a received frame.
    pub mem: MemRef,
    /// Buffer capacity in bytes.
    pub capacity: u32,
    /// Opaque driver cookie returned in the completion.
    pub cookie: u64,
}

/// Completion of a received frame.
#[derive(Clone, Debug)]
pub struct RxCompletion {
    /// Cookie of the RX descriptor consumed.
    pub cookie: u64,
    /// Buffer holding the frame.
    pub mem: MemRef,
    /// Frame length.
    pub len: u32,
    /// Flow tag if a flow rule matched the destination IP (§3.3.1).
    pub tag: Option<u32>,
    /// When the DMA write completed.
    pub at: SimTime,
}

/// Static NIC configuration.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Line rate in Gbit/s (the paper's testbed: 100).
    pub bandwidth_gbps: f64,
    /// RX descriptor ring capacity.
    pub rx_ring: usize,
    /// TX queue capacity.
    pub tx_ring: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            bandwidth_gbps: 100.0,
            rx_ring: 1024,
            tx_ring: 1024,
        }
    }
}

/// Drop / traffic counters.
#[derive(Clone, Debug, Default)]
pub struct NicStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Bytes transmitted (L2).
    pub tx_bytes: u64,
    /// Frames received and delivered to the driver.
    pub rx_frames: u64,
    /// Bytes received (L2).
    pub rx_bytes: u64,
    /// TX descriptors failed because the link was down.
    pub tx_dropped_link: u64,
    /// Arrived frames dropped because no RX descriptor was available.
    pub rx_dropped_no_desc: u64,
    /// Arrived frames dropped because the link was down.
    pub rx_dropped_link: u64,
    /// TX descriptors rejected because the TX queue was full.
    pub tx_rejected_full: u64,
    /// TX descriptors failed because they were shorter than an Ethernet
    /// header (never put on the wire).
    pub tx_dropped_runt: u64,
}

/// The simulated NIC.
pub struct Nic {
    mac: MacAddr,
    cfg: NicConfig,
    link_up: bool,
    tx_queue: VecDeque<TxDesc>,
    tx_completions: VecDeque<TxCompletion>,
    rx_free: VecDeque<RxDesc>,
    rx_completions: VecDeque<RxCompletion>,
    /// Frames delivered by the switch, with their arrival time.
    inbound: VecDeque<(SimTime, Frame)>,
    flow_table: Vec<(Ipv4Addr, u32)>,
    /// When the transmit serializer is next free.
    tx_free_at: SimTime,
    /// Traffic and drop counters.
    pub stats: NicStats,
}

impl Nic {
    /// A NIC with the given MAC and configuration, link up.
    pub fn new(mac: MacAddr, cfg: NicConfig) -> Self {
        Nic {
            mac,
            cfg,
            link_up: true,
            tx_queue: VecDeque::new(),
            tx_completions: VecDeque::new(),
            rx_free: VecDeque::new(),
            rx_completions: VecDeque::new(),
            inbound: VecDeque::new(),
            flow_table: Vec::new(),
            tx_free_at: SimTime::ZERO,
            stats: NicStats::default(),
        }
    }

    /// The NIC's burned-in MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Line rate in Gbit/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.cfg.bandwidth_gbps
    }

    /// Current carrier state. The backend driver monitors this to detect
    /// hardware faults, cable disconnections, and switch linecard issues
    /// (§3.3.3).
    pub fn link_up(&self) -> bool {
        self.link_up
    }

    /// Set carrier state (failure injection / recovery).
    pub fn set_link(&mut self, up: bool) {
        self.link_up = up;
    }

    /// Install an `rte_flow`-style rule: packets to `dst_ip` are tagged
    /// with `tag` in their RX completion.
    pub fn add_flow(&mut self, dst_ip: Ipv4Addr, tag: u32) {
        self.remove_flow(dst_ip);
        self.flow_table.push((dst_ip, tag));
    }

    /// Remove the flow rule for `dst_ip`, if any.
    pub fn remove_flow(&mut self, dst_ip: Ipv4Addr) {
        self.flow_table.retain(|(ip, _)| *ip != dst_ip);
    }

    /// Number of installed flow rules.
    pub fn flow_count(&self) -> usize {
        self.flow_table.len()
    }

    /// Post a TX work-queue entry. Returns `false` if the TX queue is full.
    pub fn post_tx(&mut self, desc: TxDesc) -> bool {
        if self.tx_queue.len() >= self.cfg.tx_ring {
            self.stats.tx_rejected_full += 1;
            return false;
        }
        self.tx_queue.push_back(desc);
        true
    }

    /// Post a free RX buffer. Returns `false` if the RX ring is full.
    pub fn post_rx(&mut self, desc: RxDesc) -> bool {
        if self.rx_free.len() >= self.cfg.rx_ring {
            return false;
        }
        self.rx_free.push_back(desc);
        true
    }

    /// Free RX descriptors currently posted.
    pub fn rx_free_count(&self) -> usize {
        self.rx_free.len()
    }

    /// Called by the switch fabric to hand the NIC a frame arriving at
    /// `at`.
    pub fn deliver(&mut self, at: SimTime, frame: Frame) {
        self.inbound.push_back((at, frame));
    }

    /// Serialization time of a frame at line rate (includes preamble, FCS,
    /// and inter-frame gap).
    fn serialize_ns(&self, len: u64) -> u64 {
        let bits = (len + WIRE_OVERHEAD_BYTES) * 8;
        (bits as f64 / self.cfg.bandwidth_gbps).ceil() as u64
    }

    /// Process queued TX descriptors and arrived frames up to `now`.
    /// Returns frames put on the wire as `(egress_complete_time, frame)`;
    /// the caller forwards them to the switch.
    pub fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory) -> Vec<(SimTime, Frame)> {
        let mut egress = Vec::new();

        // --- TX path ---
        while let Some(desc) = self.tx_queue.pop_front() {
            let runt = (desc.len as usize) < ETH_HLEN;
            if runt || !self.link_up {
                if runt {
                    self.stats.tx_dropped_runt += 1;
                } else {
                    self.stats.tx_dropped_link += 1;
                }
                self.tx_completions.push_back(TxCompletion {
                    cookie: desc.cookie,
                    ok: false,
                    done_at: now,
                });
                continue;
            }
            let mut buf = vec![0u8; desc.len as usize];
            dma.dma_read(now, desc.mem, &mut buf);
            let dma_ns = dma.dma_latency_ns(desc.mem);
            // The DMA fetch pipelines with serialization of earlier frames:
            // a frame starts on the wire once its data has arrived AND the
            // serializer is free.
            let start = (now + SimDuration::from_nanos(dma_ns)).max(self.tx_free_at);
            let done = start + SimDuration::from_nanos(self.serialize_ns(desc.len as u64));
            self.tx_free_at = done;
            self.stats.tx_frames += 1;
            self.stats.tx_bytes += desc.len as u64;
            self.tx_completions.push_back(TxCompletion {
                cookie: desc.cookie,
                ok: true,
                done_at: done,
            });
            egress.push((done, Frame(bytes::Bytes::from(buf))));
        }

        // --- RX path ---
        while let Some(&(at, _)) = self.inbound.front() {
            if at > now {
                break;
            }
            let (at, frame) = self.inbound.pop_front().unwrap();
            if !self.link_up {
                self.stats.rx_dropped_link += 1;
                continue;
            }
            let Some(desc) = self.rx_free.front().copied() else {
                self.stats.rx_dropped_no_desc += 1;
                continue;
            };
            if (desc.capacity as usize) < frame.len() {
                // Oversized for the posted buffer: drop, keep the
                // descriptor (mirrors MTU misconfiguration behaviour).
                self.stats.rx_dropped_no_desc += 1;
                continue;
            }
            self.rx_free.pop_front();
            let tag = frame
                .dst_ip()
                .and_then(|ip| self.flow_table.iter().find(|(r, _)| *r == ip))
                .map(|&(_, tag)| tag);
            dma.dma_write(at, desc.mem, frame.bytes());
            let dma_ns = dma.dma_latency_ns(desc.mem);
            self.stats.rx_frames += 1;
            self.stats.rx_bytes += frame.len() as u64;
            self.rx_completions.push_back(RxCompletion {
                cookie: desc.cookie,
                mem: desc.mem,
                len: frame.len() as u32,
                tag,
                at: at + SimDuration::from_nanos(dma_ns),
            });
        }

        egress
    }

    /// Drain TX completions that finished by `now`.
    pub fn poll_tx_completions(&mut self, now: SimTime) -> Vec<TxCompletion> {
        let mut out = Vec::new();
        while let Some(c) = self.tx_completions.front() {
            if c.done_at > now {
                break;
            }
            out.push(self.tx_completions.pop_front().unwrap());
        }
        out
    }

    /// Drain RX completions that finished by `now`.
    pub fn poll_rx_completions(&mut self, now: SimTime) -> Vec<RxCompletion> {
        let mut out = Vec::new();
        while let Some(c) = self.rx_completions.front() {
            if c.at > now {
                break;
            }
            out.push(self.rx_completions.pop_front().unwrap());
        }
        out
    }

    /// Earliest time at which this NIC has pending work to surface (for
    /// scheduler wake-up planning). `None` when fully idle.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut consider = |x: SimTime| t = Some(t.map_or(x, |cur: SimTime| cur.min(x)));
        if let Some(c) = self.tx_completions.front() {
            consider(c.done_at);
        }
        if let Some(c) = self.rx_completions.front() {
            consider(c.at);
        }
        if let Some(&(at, _)) = self.inbound.front() {
            consider(at);
        }
        if !self.tx_queue.is_empty() {
            consider(SimTime::ZERO);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::UdpPacket;
    use bytes::Bytes;
    use oasis_cxl::dma::FlatMem;

    fn test_frame(dst_ip: Ipv4Addr, payload_len: usize) -> Frame {
        UdpPacket {
            src_mac: MacAddr::client(0),
            dst_mac: MacAddr::nic(0),
            src_ip: Ipv4Addr::client(0),
            dst_ip,
            src_port: 9,
            dst_port: 7,
            payload: Bytes::from(vec![0u8; payload_len]),
        }
        .encode()
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn runt_descriptors_complete_failed_and_never_egress() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem {
            mem: vec![0xab; 64],
        };
        for len in 0..ETH_HLEN as u32 {
            assert!(nic.post_tx(TxDesc {
                mem: MemRef::Pool(0),
                len,
                cookie: len as u64,
            }));
        }
        assert!(nic.process(t(0), &mut mem).is_empty(), "a runt went out");
        let comps = nic.poll_tx_completions(t(0));
        let cookies: Vec<u64> = comps.iter().map(|c| c.cookie).collect();
        assert_eq!(cookies, (0..ETH_HLEN as u64).collect::<Vec<_>>());
        assert!(comps.iter().all(|c| !c.ok));
        assert_eq!(nic.stats.tx_dropped_runt, ETH_HLEN as u64);
        assert_eq!((nic.stats.tx_frames, nic.stats.tx_bytes), (0, 0));
    }

    #[test]
    fn tx_roundtrip_with_serialization_delay() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 4096] };
        let frame = test_frame(Ipv4Addr::instance(0), 100);
        mem.mem[..frame.len()].copy_from_slice(frame.bytes());
        assert!(nic.post_tx(TxDesc {
            mem: MemRef::Pool(0),
            len: frame.len() as u32,
            cookie: 42,
        }));
        let egress = nic.process(t(0), &mut mem);
        assert_eq!(egress.len(), 1);
        let (done, out) = &egress[0];
        assert_eq!(out, &frame);
        // dma 850ns + serialization of (142+24)*8 bits at 100G = ~14ns.
        assert_eq!(done.as_nanos(), 850 + 14);
        // Completion visible only after done.
        assert!(nic.poll_tx_completions(t(100)).is_empty());
        let comps = nic.poll_tx_completions(*done);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].ok);
        assert_eq!(comps[0].cookie, 42);
    }

    #[test]
    fn tx_serializer_backpressure() {
        // Two 1500 B frames: the second's egress starts after the first's
        // serialization finishes.
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 8192] };
        let frame = test_frame(Ipv4Addr::instance(0), 1458);
        mem.mem[..frame.len()].copy_from_slice(frame.bytes());
        for c in 0..2 {
            nic.post_tx(TxDesc {
                mem: MemRef::Pool(0),
                len: frame.len() as u32,
                cookie: c,
            });
        }
        let egress = nic.process(t(0), &mut mem);
        let gap = egress[1].0.as_nanos() - egress[0].0.as_nanos();
        let ser = ((frame.len() as u64 + 24) * 8) as f64 / 100.0;
        assert_eq!(gap, ser.ceil() as u64);
    }

    #[test]
    fn link_down_fails_tx() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 256] };
        nic.set_link(false);
        nic.post_tx(TxDesc {
            mem: MemRef::Pool(0),
            len: 64,
            cookie: 1,
        });
        let egress = nic.process(t(0), &mut mem);
        assert!(egress.is_empty());
        let comps = nic.poll_tx_completions(t(0));
        assert_eq!(comps.len(), 1);
        assert!(!comps[0].ok);
        assert_eq!(nic.stats.tx_dropped_link, 1);
    }

    #[test]
    fn rx_delivery_with_flow_tag() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 4096] };
        let ip = Ipv4Addr::instance(5);
        nic.add_flow(ip, 99);
        nic.post_rx(RxDesc {
            mem: MemRef::Pool(1024),
            capacity: 2048,
            cookie: 7,
        });
        let frame = test_frame(ip, 64);
        nic.deliver(t(100), frame.clone());
        nic.process(t(200), &mut mem);
        let comps = nic.poll_rx_completions(t(100 + 850));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].tag, Some(99));
        assert_eq!(comps[0].cookie, 7);
        assert_eq!(comps[0].len as usize, frame.len());
        // Frame bytes actually DMA'd into the buffer.
        assert_eq!(&mem.mem[1024..1024 + frame.len()], frame.bytes());
    }

    #[test]
    fn rx_without_matching_flow_untagged() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 4096] };
        nic.add_flow(Ipv4Addr::instance(1), 1);
        nic.post_rx(RxDesc {
            mem: MemRef::Pool(0),
            capacity: 2048,
            cookie: 0,
        });
        nic.deliver(t(0), test_frame(Ipv4Addr::instance(2), 64));
        nic.process(t(0), &mut mem);
        let comps = nic.poll_rx_completions(t(10_000));
        assert_eq!(comps[0].tag, None);
    }

    #[test]
    fn rx_drop_when_no_descriptor() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 256] };
        nic.deliver(t(0), test_frame(Ipv4Addr::instance(0), 64));
        nic.process(t(0), &mut mem);
        assert_eq!(nic.stats.rx_dropped_no_desc, 1);
        assert!(nic.poll_rx_completions(t(10_000)).is_empty());
    }

    #[test]
    fn rx_not_processed_before_arrival() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let mut mem = FlatMem { mem: vec![0; 4096] };
        nic.post_rx(RxDesc {
            mem: MemRef::Pool(0),
            capacity: 2048,
            cookie: 0,
        });
        nic.deliver(t(500), test_frame(Ipv4Addr::instance(0), 64));
        nic.process(t(100), &mut mem);
        assert_eq!(nic.stats.rx_frames, 0);
        nic.process(t(500), &mut mem);
        assert_eq!(nic.stats.rx_frames, 1);
    }

    #[test]
    fn flow_replace_and_remove() {
        let mut nic = Nic::new(MacAddr::nic(0), NicConfig::default());
        let ip = Ipv4Addr::instance(1);
        nic.add_flow(ip, 1);
        nic.add_flow(ip, 2); // replace
        assert_eq!(nic.flow_count(), 1);
        nic.remove_flow(ip);
        assert_eq!(nic.flow_count(), 0);
    }

    #[test]
    fn tx_ring_capacity_enforced() {
        let mut nic = Nic::new(
            MacAddr::nic(0),
            NicConfig {
                tx_ring: 1,
                ..Default::default()
            },
        );
        assert!(nic.post_tx(TxDesc {
            mem: MemRef::Pool(0),
            len: 64,
            cookie: 0,
        }));
        assert!(!nic.post_tx(TxDesc {
            mem: MemRef::Pool(0),
            len: 64,
            cookie: 1,
        }));
        assert_eq!(nic.stats.tx_rejected_full, 1);
    }
}
