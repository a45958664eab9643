//! The network-engine frontend driver (§3.3).

use oasis_channel::{Receiver, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_net::addr::Ipv4Addr;
use oasis_net::packet::Frame;
use oasis_sim::time::SimTime;

use crate::config::OasisConfig;
use crate::datapath::{empty_round, BufferArea, Link};
use crate::instance::Instance;
use crate::msg::{NetMsg, NetOp};
use crate::park::IdleRound;
use crate::snapshot::Snapshottable;

use super::POLL_BATCH;

/// Frontend counters.
#[derive(Clone, Debug, Default)]
pub struct FrontendStats {
    /// TX packets forwarded to backends.
    pub tx_packets: u64,
    /// TX packets dropped: no free TX buffer.
    pub tx_drop_nobuf: u64,
    /// TX packets dropped: channel full.
    pub tx_drop_channel: u64,
    /// TX packets policed: over the instance's bandwidth lease.
    pub tx_policed: u64,
    /// RX packets copied to instances.
    pub rx_packets: u64,
    /// RX packets for unknown instances.
    pub rx_unknown: u64,
    /// Reroute commands handled (failover).
    pub reroutes: u64,
    /// Graceful migrations started.
    pub migrations: u64,
}

struct FeInstance {
    inst_idx: usize,
    ip: Ipv4Addr,
    tx_area: BufferArea,
    serving_nic: usize,
    backup_nic: Option<usize>,
    /// Graceful migration: `(old_nic, unregister_deadline)` (§3.3.4).
    migrating_from: Option<(usize, SimTime)>,
    /// Token-bucket policer enforcing the allocator's bandwidth lease
    /// (bytes of credit; `None` disables enforcement).
    policer: Option<TokenBucket>,
}

/// Byte-granular token bucket (PicNIC-style lease enforcement).
struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    fn new(rate_mbps: u32, burst_bytes: f64) -> Self {
        TokenBucket {
            rate_bytes_per_sec: rate_mbps as f64 * 1e6 / 8.0,
            burst_bytes,
            tokens: burst_bytes,
            last_refill: SimTime::ZERO,
        }
    }

    /// Take `bytes` of credit at `now`; `false` = over the lease.
    fn admit(&mut self, now: SimTime, bytes: f64) -> bool {
        let dt = (now - self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
        if self.tokens >= bytes {
            self.tokens -= bytes;
            true
        } else {
            false
        }
    }
}

/// The frontend driver: one busy-polling core per host.
pub struct FrontendDriver {
    /// The host this frontend runs on.
    pub host: usize,
    /// The dedicated polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: FrontendStats,
    cfg: OasisConfig,
    /// Channel pairs to the backend drivers (`peer` = NIC).
    links: Vec<Link>,
    to_alloc: Sender,
    from_alloc: Receiver,
    insts: Vec<FeInstance>,
    /// Next liveness heartbeat to the allocator (ISSUE 2 detection).
    next_heartbeat: SimTime,
}

impl FrontendDriver {
    /// Create a frontend on `host` with its allocator channel pair.
    pub fn new(
        host: usize,
        core: HostCtx,
        cfg: OasisConfig,
        to_alloc: Sender,
        from_alloc: Receiver,
    ) -> Self {
        FrontendDriver {
            host,
            core,
            stats: FrontendStats::default(),
            cfg,
            links: Vec::new(),
            to_alloc,
            from_alloc,
            insts: Vec::new(),
            next_heartbeat: SimTime::ZERO,
        }
    }

    /// Wire a channel pair to a backend driver (done once at pod boot).
    pub fn add_backend_link(&mut self, nic: usize, to: Sender, from: Receiver) {
        self.links.push(Link {
            peer: nic,
            to,
            from,
        });
    }

    /// Attach a local instance with its TX buffer area and NIC assignment
    /// from the pod-wide allocator.
    pub fn attach_instance(
        &mut self,
        inst_idx: usize,
        ip: Ipv4Addr,
        tx_area: BufferArea,
        serving_nic: usize,
        backup_nic: Option<usize>,
    ) {
        self.insts.push(FeInstance {
            inst_idx,
            ip,
            tx_area,
            serving_nic,
            backup_nic,
            migrating_from: None,
            policer: None,
        });
    }

    /// Enforce the allocator's bandwidth lease for `ip` with a token-bucket
    /// policer (frames over the lease are dropped and counted in
    /// [`FrontendStats::tx_policed`]).
    pub fn enforce_lease(&mut self, ip: Ipv4Addr, lease_mbps: u32, burst_bytes: u64) {
        if let Some(inst) = self.insts.iter_mut().find(|i| i.ip == ip) {
            inst.policer = Some(TokenBucket::new(lease_mbps, burst_bytes as f64));
        }
    }

    /// Drop every attached instance. Used by host-failure reclaim: the pod
    /// frees the instances' buffer areas, and a restarted host boots with
    /// no instances (a real cloud re-places them elsewhere).
    pub fn detach_all_instances(&mut self) {
        self.insts.clear();
    }

    /// The NIC currently serving an instance (tests and the allocator's
    /// bookkeeping).
    pub fn serving_nic(&self, ip: Ipv4Addr) -> Option<usize> {
        self.insts
            .iter()
            .find(|i| i.ip == ip)
            .map(|i| i.serving_nic)
    }

    /// The backup NIC an instance was pre-registered with at launch
    /// (§3.3.3), if any.
    pub fn backup_nic(&self, ip: Ipv4Addr) -> Option<usize> {
        self.insts
            .iter()
            .find(|i| i.ip == ip)
            .and_then(|i| i.backup_nic)
    }

    /// Transmit one frame from an instance through its serving NIC: write
    /// the payload into a TX buffer in shared CXL memory, write it back
    /// from CPU caches, and signal the backend (§3.3.1).
    ///
    /// The Ethernet source MAC is rewritten to `src_mac` (the instance's
    /// *current* MAC): frames queued before a graceful migration would
    /// otherwise carry the old NIC's MAC out of the new NIC and re-teach
    /// the switch that MAC on the wrong port — black-holing every other
    /// instance behind the old NIC. (Failover's deliberate MAC borrowing
    /// is unaffected: there the instance keeps the failed NIC's MAC.)
    fn tx_frame(
        &mut self,
        pool: &mut CxlPool,
        slot: usize,
        frame: &Frame,
        src_mac: oasis_net::addr::MacAddr,
    ) {
        // Lease enforcement first: a policed frame consumes no buffer.
        let now = self.core.clock;
        if let Some(p) = self.insts[slot].policer.as_mut() {
            if !p.admit(now, frame.len() as f64 + 24.0) {
                self.stats.tx_policed += 1;
                return;
            }
        }
        let Some(buf) = self.insts[slot].tx_area.alloc() else {
            self.stats.tx_drop_nobuf += 1;
            return;
        };
        let mut patched;
        let bytes: &[u8] = if frame.src_mac() == src_mac {
            frame.bytes()
        } else {
            patched = frame.bytes().to_vec();
            patched[6..12].copy_from_slice(&src_mac.0);
            &patched
        };
        self.core.write(pool, buf, bytes);
        self.core.clwb_range(pool, buf, bytes.len() as u64);
        self.core.publish(pool, buf, bytes.len() as u64);
        let nic = self.insts[slot].serving_nic;
        let msg = NetMsg {
            ptr: buf,
            size: bytes.len() as u16,
            op: NetOp::Tx,
            ip: self.insts[slot].ip,
        };
        let Some(li) = Link::find(&self.links, nic) else {
            self.insts[slot].tx_area.free(buf);
            self.stats.tx_drop_channel += 1;
            return;
        };
        let link = &mut self.links[li];
        if link
            .to
            .try_send(&mut self.core, pool, &msg.encode())
            .unwrap_or(false)
        {
            self.stats.tx_packets += 1;
        } else {
            self.insts[slot].tx_area.free(buf);
            self.stats.tx_drop_channel += 1;
        }
    }

    fn handle_alloc_msg(
        &mut self,
        pool: &mut CxlPool,
        instances: &mut [Instance],
        msg: NetMsg,
        nic_macs: &[oasis_net::addr::MacAddr],
    ) {
        match msg.op {
            NetOp::Reroute => {
                // Failover (§3.3.3): switch TX to the backup NIC and borrow
                // the failed NIC's MAC so the switch re-points RX to the
                // backup immediately. The instance keeps its old MAC.
                self.stats.reroutes += 1;
                let new_nic = msg.ptr as usize;
                if let Some(slot) = self.insts.iter().position(|i| i.ip == msg.ip) {
                    self.insts[slot].serving_nic = new_nic;
                    let inst_idx = self.insts[slot].inst_idx;
                    let mac = instances[inst_idx].mac();
                    let borrow = oasis_net::packet::GarpPacket {
                        sender_mac: mac,
                        sender_ip: msg.ip,
                    }
                    .encode();
                    self.tx_frame(pool, slot, &borrow, mac);
                }
            }
            NetOp::Migrate => {
                // Graceful migration (§3.3.4): register with the new NIC's
                // backend *first* (over the same channel the GARP's TX will
                // use, so FIFO ordering guarantees the registration lands
                // before any packet), then announce the new MAC via GARP;
                // keep receiving from both NICs until the grace period
                // expires.
                self.stats.migrations += 1;
                let new_nic = msg.ptr as usize;
                if let Some(slot) = self.insts.iter().position(|i| i.ip == msg.ip) {
                    let old = self.insts[slot].serving_nic;
                    if old == new_nic {
                        return;
                    }
                    let inst_idx = self.insts[slot].inst_idx;
                    if let Some(li) = Link::find(&self.links, new_nic) {
                        let reg = NetMsg {
                            ptr: 0,
                            size: inst_idx as u16, // flow tag
                            op: NetOp::Register,
                            ip: msg.ip,
                        };
                        let link = &mut self.links[li];
                        let _ = link.to.try_send(&mut self.core, pool, &reg.encode());
                    }
                    self.insts[slot].serving_nic = new_nic;
                    self.insts[slot].migrating_from =
                        Some((old, self.core.clock + self.cfg.migration_grace));
                    instances[inst_idx].set_mac(self.core.clock, nic_macs[new_nic], true);
                }
            }
            _ => {}
        }
    }

    /// One busy-polling round: drain allocator messages, forward instance
    /// TX, drain backend channels (RX packets + completions), and run
    /// migration timers. Returns `true` if any work was done.
    pub fn step(
        &mut self,
        pool: &mut CxlPool,
        instances: &mut [Instance],
        nic_macs: &[oasis_net::addr::MacAddr],
    ) -> bool {
        let mut worked = false;
        self.core.advance(self.cfg.driver_loop_ns);

        // 0. Liveness heartbeat to the allocator (§3.5 telemetry path).
        // Missing three consecutive heartbeats marks this host failed.
        if self.core.clock >= self.next_heartbeat {
            let hb = NetMsg {
                ptr: self.host as u64,
                size: 0,
                op: NetOp::Heartbeat,
                ip: Ipv4Addr([0, 0, 0, 0]),
            };
            let _ = self.to_alloc.try_send(&mut self.core, pool, &hb.encode());
            self.next_heartbeat = self.core.clock + self.cfg.heartbeat_period;
        }

        // 1. Allocator control messages.
        let mut buf16 = [0u8; 16];
        for _ in 0..POLL_BATCH {
            if !self.from_alloc.try_recv(&mut self.core, pool, &mut buf16) {
                break;
            }
            worked = true;
            if let Some(msg) = NetMsg::decode(&buf16) {
                self.handle_alloc_msg(pool, instances, msg, nic_macs);
            }
        }

        // 2. Instance TX (IPC poll, §3.3.1).
        for slot in 0..self.insts.len() {
            let inst_idx = self.insts[slot].inst_idx;
            instances[inst_idx].tick(self.core.clock);
            let current_mac = instances[inst_idx].mac();
            for _ in 0..POLL_BATCH {
                let Some(frame) = instances[inst_idx].pop_tx(self.core.clock) else {
                    break;
                };
                worked = true;
                self.core.advance(self.cfg.ipc_cost_ns);
                self.tx_frame(pool, slot, &frame, current_mac);
            }
        }

        // 3. Backend channels: RX packets and TX completions.
        for li in 0..self.links.len() {
            for _ in 0..POLL_BATCH {
                let got = self.links[li]
                    .from
                    .try_recv(&mut self.core, pool, &mut buf16);
                if !got {
                    break;
                }
                worked = true;
                let Some(msg) = NetMsg::decode(&buf16) else {
                    continue;
                };
                match msg.op {
                    NetOp::Rx => {
                        // Copy the packet out of the shared RX buffer into
                        // instance-local memory (isolation, §3.3.2), then
                        // invalidate the RX buffer lines so the next use
                        // reads fresh DMA data (§3.3.1).
                        let len = msg.size as usize;
                        let mut pkt = vec![0u8; len];
                        self.core.expect_fresh(pool, msg.ptr, len as u64);
                        self.core.read_flush(pool, msg.ptr, &mut pkt);
                        self.core.advance(self.cfg.ipc_cost_ns);
                        if let Some(fe_inst) = self.insts.iter().find(|i| i.ip == msg.ip) {
                            self.stats.rx_packets += 1;
                            let frame = Frame(bytes::Bytes::from(pkt));
                            instances[fe_inst.inst_idx].deliver(self.core.clock, &frame);
                        } else {
                            self.stats.rx_unknown += 1;
                        }
                        // Recycle the RX buffer at the backend.
                        let done = NetMsg {
                            ptr: msg.ptr,
                            size: 0,
                            op: NetOp::RxComplete,
                            ip: msg.ip,
                        };
                        let link = &mut self.links[li];
                        let _ = link.to.try_send(&mut self.core, pool, &done.encode());
                    }
                    NetOp::TxComplete => {
                        // Reclaim the TX buffer into its owner's area.
                        if let Some(inst) = self
                            .insts
                            .iter_mut()
                            .find(|i| i.tx_area.region().contains(msg.ptr))
                        {
                            inst.tx_area.free(msg.ptr);
                        }
                    }
                    _ => {}
                }
            }
        }

        // 4. Migration grace expiry: unregister from the old NIC (§3.3.4).
        for slot in 0..self.insts.len() {
            if let Some((old_nic, deadline)) = self.insts[slot].migrating_from {
                if self.core.clock >= deadline {
                    self.insts[slot].migrating_from = None;
                    let ip = self.insts[slot].ip;
                    if let Some(li) = Link::find(&self.links, old_nic) {
                        let msg = NetMsg {
                            ptr: 0,
                            size: 0,
                            op: NetOp::Unregister,
                            ip,
                        };
                        let link = &mut self.links[li];
                        let _ = link.to.try_send(&mut self.core, pool, &msg.encode());
                    }
                    worked = true;
                }
            }
        }

        // 5. Flush partially filled channel lines so low-rate messages do
        // not linger invisibly in this core's cache (§3.2.2).
        for link in &mut self.links {
            link.to.flush(&mut self.core, pool);
        }
        self.to_alloc.flush(&mut self.core, pool);
        // Let senders reuse our consumed slots promptly.
        for link in &mut self.links {
            link.from.publish_consumed(&mut self.core, pool);
        }
        self.from_alloc.publish_consumed(&mut self.core, pool);

        worked
    }

    /// [`crate::engine::DeviceEngine::idle_round`] of the frontend: one
    /// empty poll of the allocator channel and of each backend channel, with
    /// the heartbeat, the instances' TX / TCP timers and migration grace
    /// periods as the timers that bound it.
    pub(crate) fn idle_round(&self, pool: &CxlPool, instances: &[Instance]) -> Option<IdleRound> {
        let deadline = self.next_deadline(instances).unwrap_or(SimTime::MAX);
        let due = self.next_heartbeat.min(deadline);
        let (rx, tx) = Link::channels(&self.links);
        let rx = std::iter::once(&self.from_alloc).chain(rx);
        let tx = std::iter::once(&self.to_alloc).chain(tx);
        empty_round(&self.core, pool, self.cfg.driver_loop_ns, (rx, tx), due)
    }

    /// The receivers a round polls, in polling order.
    pub(crate) fn receivers_mut(&mut self) -> impl Iterator<Item = &mut Receiver> {
        std::iter::once(&mut self.from_alloc).chain(self.links.iter_mut().map(|l| &mut l.from))
    }

    /// Earliest pending local deadline (instance timers, migration grace);
    /// used by tests that step the frontend manually.
    pub fn next_deadline(&self, instances: &[Instance]) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut consider = |x: SimTime| t = Some(t.map_or(x, |cur: SimTime| cur.min(x)));
        for fi in &self.insts {
            if let Some((_, dl)) = fi.migrating_from {
                consider(dl);
            }
            if let Some(e) = instances[fi.inst_idx].next_event() {
                consider(e);
            }
        }
        t
    }

    /// Debug view of per-backend channel counters:
    /// `(nic, messages_sent, messages_received)`.
    pub fn channel_debug(&self) -> Vec<(usize, u64, u64)> {
        self.links
            .iter()
            .map(|l| (l.peer, l.to.sent(), l.from.consumed()))
            .collect()
    }
}

impl Snapshottable for FrontendDriver {
    /// Logical state only: clock, timers, counters, per-instance NIC
    /// assignment / migration / policer state, and TX free lists. Links and
    /// channel endpoints are topology, rebuilt by the pod builder. Policer
    /// floats are serialized via `to_bits` (this path is outside the
    /// float-determinism policed set; the bits round-trip exactly).
    fn snapshot_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        w.put_u64(self.next_heartbeat.as_nanos());
        let s = &self.stats;
        for v in [
            s.tx_packets,
            s.tx_drop_nobuf,
            s.tx_drop_channel,
            s.tx_policed,
            s.rx_packets,
            s.rx_unknown,
            s.reroutes,
            s.migrations,
        ] {
            w.put_u64(v);
        }
        w.put_u64(self.insts.len() as u64);
        for i in &self.insts {
            w.put_u64(i.inst_idx as u64);
            w.put_u32(u32::from_le_bytes(i.ip.0));
            w.put_u64(i.serving_nic as u64);
            match i.backup_nic {
                Some(nic) => {
                    w.put_bool(true);
                    w.put_u64(nic as u64);
                }
                None => w.put_bool(false),
            }
            match i.migrating_from {
                Some((old, deadline)) => {
                    w.put_bool(true);
                    w.put_u64(old as u64);
                    w.put_u64(deadline.as_nanos());
                }
                None => w.put_bool(false),
            }
            match &i.policer {
                Some(p) => {
                    w.put_bool(true);
                    w.put_u64(p.rate_bytes_per_sec.to_bits());
                    w.put_u64(p.burst_bytes.to_bits());
                    w.put_u64(p.tokens.to_bits());
                    w.put_u64(p.last_refill.as_nanos());
                }
                None => w.put_bool(false),
            }
            i.tx_area.snapshot_state(w);
        }
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        self.core.clock = SimTime(r.u64("net-fe clock")?);
        self.next_heartbeat = SimTime(r.u64("net-fe heartbeat timer")?);
        self.stats.tx_packets = r.u64("net-fe tx_packets")?;
        self.stats.tx_drop_nobuf = r.u64("net-fe tx_drop_nobuf")?;
        self.stats.tx_drop_channel = r.u64("net-fe tx_drop_channel")?;
        self.stats.tx_policed = r.u64("net-fe tx_policed")?;
        self.stats.rx_packets = r.u64("net-fe rx_packets")?;
        self.stats.rx_unknown = r.u64("net-fe rx_unknown")?;
        self.stats.reroutes = r.u64("net-fe reroutes")?;
        self.stats.migrations = r.u64("net-fe migrations")?;
        let n = r.u64("net-fe instance count")?;
        if n != self.insts.len() as u64 {
            return Err(SnapshotError::Corrupt("net-fe instance count"));
        }
        for i in self.insts.iter_mut() {
            let idx = r.u64("net-fe instance idx")?;
            let ip = Ipv4Addr(r.u32("net-fe instance ip")?.to_le_bytes());
            if idx != i.inst_idx as u64 || ip != i.ip {
                return Err(SnapshotError::Corrupt("net-fe instance identity"));
            }
            i.serving_nic = r.u64("net-fe serving nic")? as usize;
            i.backup_nic = if r.bool("net-fe backup flag")? {
                Some(r.u64("net-fe backup nic")? as usize)
            } else {
                None
            };
            i.migrating_from = if r.bool("net-fe migrating flag")? {
                let old = r.u64("net-fe migrating old nic")? as usize;
                let deadline = SimTime(r.u64("net-fe migrating deadline")?);
                Some((old, deadline))
            } else {
                None
            };
            i.policer = if r.bool("net-fe policer flag")? {
                Some(TokenBucket {
                    rate_bytes_per_sec: f64::from_bits(r.u64("net-fe policer rate")?),
                    burst_bytes: f64::from_bits(r.u64("net-fe policer burst")?),
                    tokens: f64::from_bits(r.u64("net-fe policer tokens")?),
                    last_refill: SimTime(r.u64("net-fe policer refill")?),
                })
            } else {
                None
            };
            i.tx_area.restore_state(r)?;
        }
        Ok(())
    }
}
