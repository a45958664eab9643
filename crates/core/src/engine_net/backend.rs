//! The network-engine backend driver (§3.3).

use oasis_channel::{Receiver, Sender};
use oasis_cxl::dma::MemRef;
use oasis_cxl::{CxlPool, HostCtx};
use oasis_net::addr::Ipv4Addr;
use oasis_net::nic::{Nic, RxDesc, TxDesc};
use oasis_net::packet::Frame;
use oasis_sim::detmap::DetMap;
use oasis_sim::time::SimTime;

use crate::config::OasisConfig;
use crate::datapath::{empty_round, BufferArea, Link, PoolDma};
use crate::msg::{NetMsg, NetOp};
use crate::park::IdleRound;
use crate::snapshot::Snapshottable;

use super::POLL_BATCH;

/// Backend counters.
#[derive(Clone, Debug, Default)]
pub struct BackendStats {
    /// TX descriptors posted to the NIC.
    pub tx_posted: u64,
    /// TX requests dropped (NIC queue full).
    pub tx_drop_full: u64,
    /// RX packets forwarded to frontends.
    pub rx_forwarded: u64,
    /// RX packets whose flow tag missed and required payload inspection
    /// (§3.3.1 footnote 6).
    pub rx_tag_miss: u64,
    /// RX packets dropped: destination instance unknown.
    pub rx_unknown: u64,
    /// RX packets dropped: frontend channel full.
    pub rx_drop_channel: u64,
    /// Link-failure reports sent to the allocator.
    pub failures_reported: u64,
    /// Telemetry records sent.
    pub telemetry_sent: u64,
}

#[derive(Clone, Copy, Debug)]
struct Registration {
    ip: Ipv4Addr,
    tag: u32,
    fe_host: usize,
}

/// The backend driver: runs only on hosts with a local NIC (§3.3), one
/// dedicated busy-polling core.
pub struct BackendDriver {
    /// The NIC this backend drives.
    pub nic_id: usize,
    /// The host the NIC (and this backend) is attached to.
    pub host: usize,
    /// The dedicated polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: BackendStats,
    cfg: OasisConfig,
    rx_area: BufferArea,
    /// Channel pairs to the frontend drivers (`peer` = frontend host).
    links: Vec<Link>,
    to_alloc: Sender,
    from_alloc: Receiver,
    registrations: Vec<Registration>,
    /// Cookie → (buffer, instance ip, frontend host) for in-flight TX.
    tx_inflight: DetMap<u64, (u64, Ipv4Addr, usize)>,
    next_cookie: u64,
    /// Cookie → buffer for posted RX descriptors.
    rx_posted: DetMap<u64, u64>,
    next_link_check: SimTime,
    next_telemetry: SimTime,
    link_failure_reported: bool,
    bytes_at_last_telemetry: u64,
}

impl BackendDriver {
    /// Create a backend for `nic_id` on `host` with its per-NIC RX buffer
    /// area and allocator channel pair.
    pub fn new(
        nic_id: usize,
        host: usize,
        core: HostCtx,
        cfg: OasisConfig,
        rx_area: BufferArea,
        to_alloc: Sender,
        from_alloc: Receiver,
    ) -> Self {
        BackendDriver {
            nic_id,
            host,
            core,
            stats: BackendStats::default(),
            cfg,
            rx_area,
            links: Vec::new(),
            to_alloc,
            from_alloc,
            registrations: Vec::new(),
            tx_inflight: DetMap::default(),
            next_cookie: 0,
            rx_posted: DetMap::default(),
            next_link_check: SimTime::ZERO,
            next_telemetry: SimTime::ZERO,
            link_failure_reported: false,
            bytes_at_last_telemetry: 0,
        }
    }

    /// Wire a channel pair to a frontend driver (pod boot).
    pub fn add_frontend_link(&mut self, fe_host: usize, to: Sender, from: Receiver) {
        self.links.push(Link {
            peer: fe_host,
            to,
            from,
        });
    }

    /// Register an instance with this backend: allocate a flow tag and
    /// install the NIC flow rule so RX packets are matched without payload
    /// inspection (§3.3.1). Called at instance launch — including for the
    /// backup NIC, so failover needs no registration step (§3.3.3).
    pub fn register_instance(&mut self, nic: &mut Nic, ip: Ipv4Addr, tag: u32, fe_host: usize) {
        self.registrations.retain(|r| r.ip != ip);
        self.registrations.push(Registration { ip, tag, fe_host });
        nic.add_flow(ip, tag);
    }

    /// Remove an instance's registration (graceful migration completion).
    pub fn unregister_instance(&mut self, nic: &mut Nic, ip: Ipv4Addr) {
        self.registrations.retain(|r| r.ip != ip);
        nic.remove_flow(ip);
    }

    /// Registered instance count.
    pub fn registration_count(&self) -> usize {
        self.registrations.len()
    }

    /// Clear the reported-failure latch after repair (operator action).
    pub fn clear_failure_latch(&mut self) {
        self.link_failure_reported = false;
    }

    fn find_by_tag(&self, tag: u32) -> Option<Registration> {
        self.registrations.iter().copied().find(|r| r.tag == tag)
    }

    fn find_by_ip(&self, ip: Ipv4Addr) -> Option<Registration> {
        self.registrations.iter().copied().find(|r| r.ip == ip)
    }

    /// One busy-polling round. Drains frontend channels into the NIC,
    /// services NIC completions, keeps the RX ring stocked, monitors link
    /// state, and reports telemetry. Returns frames put on the wire as
    /// `(egress_time, frame)` for the pod to forward through the switch.
    pub fn step(&mut self, pool: &mut CxlPool, nic: &mut Nic) -> Vec<(SimTime, Frame)> {
        self.core.advance(self.cfg.driver_loop_ns);
        let mut buf16 = [0u8; 16];

        // 1. Frontend channels: TX requests, RX completions, migrations.
        for li in 0..self.links.len() {
            for _ in 0..POLL_BATCH {
                let got = self.links[li]
                    .from
                    .try_recv(&mut self.core, pool, &mut buf16);
                if !got {
                    break;
                }
                let Some(msg) = NetMsg::decode(&buf16) else {
                    continue;
                };
                match msg.op {
                    NetOp::Tx => {
                        // Post the WQE with the buffer pointer; never read
                        // the payload (§3.2.1).
                        let cookie = self.next_cookie;
                        self.next_cookie += 1;
                        let ok = nic.post_tx(TxDesc {
                            mem: MemRef::Pool(msg.ptr),
                            len: msg.size as u32,
                            cookie,
                        });
                        if ok {
                            self.stats.tx_posted += 1;
                            self.tx_inflight
                                .insert(cookie, (msg.ptr, msg.ip, self.links[li].peer));
                        } else {
                            self.stats.tx_drop_full += 1;
                            // Complete immediately so the buffer is freed.
                            let fe = self.links[li].peer;
                            self.send_tx_complete(pool, fe, msg.ptr, msg.ip);
                        }
                    }
                    NetOp::RxComplete => {
                        self.rx_area.free(msg.ptr);
                    }
                    NetOp::Register => {
                        // Graceful-migration registration (§3.3.4); the
                        // frontend is identified by the channel it used.
                        let fe_host = self.links[li].peer;
                        self.register_instance(nic, msg.ip, msg.size as u32, fe_host);
                    }
                    NetOp::Unregister => {
                        self.unregister_instance(nic, msg.ip);
                    }
                    _ => {}
                }
            }
        }

        // 2. Drive the NIC (DMA engine, serialization).
        let egress = {
            let mut dma = PoolDma::new(pool, &self.core);
            nic.process(self.core.clock, &mut dma)
        };

        // 3. TX completions → frontends.
        for c in nic.poll_tx_completions(self.core.clock) {
            if let Some((ptr, ip, fe_host)) = self.tx_inflight.remove(&c.cookie) {
                self.send_tx_complete(pool, fe_host, ptr, ip);
            }
        }

        // 4. RX completions → frontends.
        for c in nic.poll_rx_completions(self.core.clock) {
            let MemRef::Pool(ptr) = c.mem else { continue };
            self.rx_posted.remove(&c.cookie);
            let reg = match c.tag {
                Some(tag) => self.find_by_tag(tag),
                None => {
                    // Flow-tag miss: inspect the headers, then invalidate
                    // the lines we pulled into this core's cache (§3.3.1
                    // footnote 6). ARP requests (broadcast, no IP header)
                    // route by their target protocol address.
                    self.stats.rx_tag_miss += 1;
                    let mut hdr = [0u8; 42];
                    let n = (c.len as usize).min(42);
                    self.core.read(pool, ptr, &mut hdr[..n]);
                    self.core.clflushopt_range(pool, ptr, n as u64);
                    let ethertype = u16::from_be_bytes([hdr[12], hdr[13]]);
                    let dst = if ethertype == oasis_net::packet::ETHERTYPE_ARP && n >= 42 {
                        Ipv4Addr([hdr[38], hdr[39], hdr[40], hdr[41]])
                    } else {
                        Ipv4Addr([hdr[30], hdr[31], hdr[32], hdr[33]])
                    };
                    self.find_by_ip(dst)
                }
            };
            match reg {
                Some(reg) => {
                    let msg = NetMsg {
                        ptr,
                        size: c.len as u16,
                        op: NetOp::Rx,
                        ip: reg.ip,
                    };
                    let Some(li) = Link::find(&self.links, reg.fe_host) else {
                        self.rx_area.free(ptr);
                        self.stats.rx_unknown += 1;
                        continue;
                    };
                    let link = &mut self.links[li];
                    if link
                        .to
                        .try_send(&mut self.core, pool, &msg.encode())
                        .unwrap_or(false)
                    {
                        self.stats.rx_forwarded += 1;
                    } else {
                        self.stats.rx_drop_channel += 1;
                        self.rx_area.free(ptr);
                    }
                }
                None => {
                    self.stats.rx_unknown += 1;
                    self.rx_area.free(ptr);
                }
            }
        }

        // 5. Keep the RX ring stocked from the per-NIC RX area.
        while nic.rx_free_count() < self.cfg.rx_ring_target {
            let Some(buf) = self.rx_area.alloc() else {
                break;
            };
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            self.rx_posted.insert(cookie, buf);
            if !nic.post_rx(RxDesc {
                mem: MemRef::Pool(buf),
                capacity: self.rx_area.buf_size() as u32,
                cookie,
            }) {
                self.rx_posted.remove(&cookie);
                self.rx_area.free(buf);
                break;
            }
        }

        // 6. Link monitoring (§3.3.3): detect hardware faults, cable
        // disconnections, and switch linecard issues via link status.
        if self.core.clock >= self.next_link_check {
            self.next_link_check = self.core.clock + self.cfg.link_check_period;
            if !nic.link_up() && !self.link_failure_reported {
                self.link_failure_reported = true;
                self.stats.failures_reported += 1;
                let msg = NetMsg {
                    ptr: self.nic_id as u64,
                    size: 0,
                    op: NetOp::LinkFailed,
                    ip: Ipv4Addr::UNSPECIFIED,
                };
                let _ = self.to_alloc.try_send(&mut self.core, pool, &msg.encode());
            }
        }

        // 7. Telemetry every 100 ms (§3.5).
        if self.core.clock >= self.next_telemetry {
            self.next_telemetry = self.core.clock + self.cfg.telemetry_period;
            let total = nic.stats.tx_bytes + nic.stats.rx_bytes;
            let delta = total - self.bytes_at_last_telemetry;
            self.bytes_at_last_telemetry = total;
            self.stats.telemetry_sent += 1;
            let msg = NetMsg {
                ptr: delta,
                size: nic.link_up() as u16,
                op: NetOp::Telemetry,
                ip: Ipv4Addr::from_u32(self.nic_id as u32),
            };
            let _ = self.to_alloc.try_send(&mut self.core, pool, &msg.encode());
        }

        // 8. Flush partial channel lines; publish consumed counters.
        for link in &mut self.links {
            link.to.flush(&mut self.core, pool);
            link.from.publish_consumed(&mut self.core, pool);
        }
        self.to_alloc.flush(&mut self.core, pool);
        self.from_alloc.publish_consumed(&mut self.core, pool);

        egress
    }

    /// [`crate::engine::DeviceEngine::idle_round`] of the backend: one empty
    /// poll per frontend channel (the allocator never writes to a backend,
    /// so that channel is not polled), an RX ring that needs no refill, and
    /// the NIC's next event, the link check and telemetry as the timers.
    pub(crate) fn idle_round(&self, pool: &CxlPool, nic: &Nic) -> Option<IdleRound> {
        if nic.rx_free_count() < self.cfg.rx_ring_target && self.rx_area.free_count() > 0 {
            return None;
        }
        let nic_event = nic.next_event_at().unwrap_or(SimTime::MAX);
        let due = self.next_link_check.min(self.next_telemetry).min(nic_event);
        let (rx, tx) = Link::channels(&self.links);
        let tx = std::iter::once(&self.to_alloc).chain(tx);
        empty_round(&self.core, pool, self.cfg.driver_loop_ns, (rx, tx), due)
    }

    /// The receivers a round polls, in polling order.
    pub(crate) fn receivers_mut(&mut self) -> impl Iterator<Item = &mut Receiver> {
        self.links.iter_mut().map(|l| &mut l.from)
    }

    /// Debug view of per-frontend channel counters:
    /// `(fe_host, messages_sent, messages_received)`.
    pub fn channel_debug(&self) -> Vec<(usize, u64, u64)> {
        self.links
            .iter()
            .map(|l| (l.peer, l.to.sent(), l.from.consumed()))
            .collect()
    }

    fn send_tx_complete(&mut self, pool: &mut CxlPool, fe_host: usize, ptr: u64, ip: Ipv4Addr) {
        let msg = NetMsg {
            ptr,
            size: 0,
            op: NetOp::TxComplete,
            ip,
        };
        if let Some(li) = Link::find(&self.links, fe_host) {
            let link = &mut self.links[li];
            let _ = link.to.try_send(&mut self.core, pool, &msg.encode());
        }
    }
}

impl Snapshottable for BackendDriver {
    /// Serialized per-NIC state: clock and timers, counters, the flow
    /// registration table, in-flight TX / posted RX cookie maps (sorted by
    /// cookie — `DetMap` iteration order is not the byte order), and the RX
    /// free list.
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        w.put_u64(self.next_link_check.as_nanos());
        w.put_u64(self.next_telemetry.as_nanos());
        let s = &self.stats;
        for v in [
            s.tx_posted,
            s.tx_drop_full,
            s.rx_forwarded,
            s.rx_tag_miss,
            s.rx_unknown,
            s.rx_drop_channel,
            s.failures_reported,
            s.telemetry_sent,
        ] {
            w.put_u64(v);
        }
        w.put_bool(self.link_failure_reported);
        w.put_u64(self.bytes_at_last_telemetry);
        w.put_u64(self.next_cookie);
        w.put_u64(self.registrations.len() as u64);
        for reg in &self.registrations {
            w.put_u32(u32::from_le_bytes(reg.ip.0));
            w.put_u32(reg.tag);
            w.put_u64(reg.fe_host as u64);
        }
        let mut cookies: Vec<u64> = self.tx_inflight.keys().copied().collect();
        cookies.sort_unstable();
        w.put_u64(cookies.len() as u64);
        for c in cookies {
            if let Some(&(ptr, ip, fe_host)) = self.tx_inflight.get(&c) {
                w.put_u64(c);
                w.put_u64(ptr);
                w.put_u32(u32::from_le_bytes(ip.0));
                w.put_u64(fe_host as u64);
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
        self.rx_area.snapshot_state(w);
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.core.clock = SimTime(r.u64("net-be clock")?);
        self.next_link_check = SimTime(r.u64("net-be link-check timer")?);
        self.next_telemetry = SimTime(r.u64("net-be telemetry timer")?);
        self.stats.tx_posted = r.u64("net-be tx_posted")?;
        self.stats.tx_drop_full = r.u64("net-be tx_drop_full")?;
        self.stats.rx_forwarded = r.u64("net-be rx_forwarded")?;
        self.stats.rx_tag_miss = r.u64("net-be rx_tag_miss")?;
        self.stats.rx_unknown = r.u64("net-be rx_unknown")?;
        self.stats.rx_drop_channel = r.u64("net-be rx_drop_channel")?;
        self.stats.failures_reported = r.u64("net-be failures_reported")?;
        self.stats.telemetry_sent = r.u64("net-be telemetry_sent")?;
        self.link_failure_reported = r.bool("net-be failure latch")?;
        self.bytes_at_last_telemetry = r.u64("net-be telemetry bytes")?;
        self.next_cookie = r.u64("net-be next cookie")?;
        let n = r.u64("net-be registration count")?;
        self.registrations.clear();
        for _ in 0..n {
            let ip = Ipv4Addr(r.u32("net-be registration ip")?.to_le_bytes());
            let tag = r.u32("net-be registration tag")?;
            let fe_host = r.u64("net-be registration fe")? as usize;
            self.registrations.push(Registration { ip, tag, fe_host });
        }
        let n = r.u64("net-be tx-inflight count")?;
        self.tx_inflight.clear();
        for _ in 0..n {
            let cookie = r.u64("net-be tx-inflight cookie")?;
            let ptr = r.u64("net-be tx-inflight buf")?;
            let ip = Ipv4Addr(r.u32("net-be tx-inflight ip")?.to_le_bytes());
            let fe_host = r.u64("net-be tx-inflight fe")? as usize;
            self.tx_inflight.insert(cookie, (ptr, ip, fe_host));
        }
        let n = r.u64("net-be rx-posted count")?;
        self.rx_posted.clear();
        for _ in 0..n {
            let cookie = r.u64("net-be rx-posted cookie")?;
            let buf = r.u64("net-be rx-posted buf")?;
            self.rx_posted.insert(cookie, buf);
        }
        self.rx_area.restore_state(r)?;
        Ok(())
    }
}
