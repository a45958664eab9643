//! UDP echo server and load-generating client.
//!
//! The client is the workhorse of the evaluation: fixed-gap and Poisson
//! pacing drive the Fig. 10/11 overhead sweeps and the Fig. 13 failover
//! run; trace-replay pacing drives the Fig. 12 multiplexing experiment by
//! replaying the §2.2 rack traces ("we use two clients to generate matching
//! UDP traffic to two hosts; each host echoes the packets back").

use std::collections::VecDeque;

use oasis_core::instance::{UdpApp, UdpResponse};
use oasis_core::pod::Endpoint;
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{ArpPacket, Frame, GarpPacket, UdpPacket};
use oasis_sim::rng::SimRng;
use oasis_sim::time::{SimDuration, SimTime};

use crate::stats::StatsHandle;

/// UDP echo server application with a fixed service time.
pub struct EchoServer {
    /// Per-request service time.
    pub service: SimDuration,
}

impl EchoServer {
    /// Echo with the given service time (the paper's echo server replies
    /// "immediately"; a small service time models the instance stack).
    pub fn new(service: SimDuration) -> Self {
        EchoServer { service }
    }
}

impl UdpApp for EchoServer {
    fn on_datagram(
        &mut self,
        _now: SimTime,
        src: (Ipv4Addr, u16),
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<UdpResponse> {
        vec![UdpResponse {
            delay: self.service,
            dst: src,
            src_port: dst_port,
            payload: payload.to_vec(),
        }]
    }
}

/// How the client spaces its requests.
pub enum Pacing {
    /// Fixed inter-request gap, `count` requests (open loop).
    FixedGap {
        /// Gap between sends.
        gap: SimDuration,
        /// Requests to send.
        count: u64,
    },
    /// Poisson arrivals at `rate_rps` until `until`.
    Poisson {
        /// Mean request rate, requests/second.
        rate_rps: f64,
        /// Stop sending at this time.
        until: SimTime,
    },
    /// Replay `(send_ns, frame_bytes)` events (a `oasis-trace` packet
    /// trace). Frame bytes below the minimum UDP frame are clamped.
    Replay(Vec<(u64, u16)>),
    /// Closed loop: keep `outstanding` requests in flight until `count`
    /// have been issued (a 10 ms timeout abandons a lost slot so failures
    /// don't deadlock the loop).
    Closed {
        /// Requests kept in flight.
        outstanding: u64,
        /// Total requests to issue.
        count: u64,
    },
}

/// A UDP echo client endpoint.
pub struct UdpClient {
    mac: MacAddr,
    ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    payload_len: usize,
    pacing: Pacing,
    stats: StatsHandle,
    rng: SimRng,
    start: SimTime,
    /// Whether the first poll after resolution has computed the schedule.
    /// Until then `next_send` is unknown; after it, `None` means the
    /// schedule is empty or exhausted.
    scheduled: bool,
    next_send: Option<SimTime>,
    replay_idx: usize,
    /// Next ARP retry while the destination MAC is unresolved.
    next_arp: SimTime,
    /// Closed-loop slots written off after the loss timeout.
    abandoned: u64,
    /// Closed-loop: last time progress was made (send or receive).
    last_progress: SimTime,
    inbox: VecDeque<(SimTime, Frame)>,
}

impl UdpClient {
    /// Create a client sending `payload_len`-byte requests to
    /// `(dst_ip, dst_mac)`.
    #[expect(
        clippy::too_many_arguments,
        reason = "constructor mirrors the experiment-config fields one-to-one; a builder would \
                  just restate them"
    )]
    pub fn new(
        id: u64,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload_len: usize,
        pacing: Pacing,
        start: SimTime,
        stats: StatsHandle,
    ) -> Self {
        UdpClient {
            mac: MacAddr::client(id),
            ip: Ipv4Addr::client(id as u32),
            dst_mac,
            dst_ip,
            dst_port,
            payload_len: payload_len.max(8),
            pacing,
            stats,
            rng: SimRng::new(0x5eed ^ id),
            start,
            scheduled: false,
            next_send: None,
            replay_idx: 0,
            next_arp: start,
            abandoned: 0,
            last_progress: start,
            inbox: VecDeque::new(),
        }
    }

    /// Create a client that resolves the destination MAC itself with ARP
    /// before sending (no out-of-band MAC configuration).
    pub fn new_resolving(
        id: u64,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload_len: usize,
        pacing: Pacing,
        start: SimTime,
        stats: StatsHandle,
    ) -> Self {
        Self::new(
            id,
            MacAddr::ZERO,
            dst_ip,
            dst_port,
            payload_len,
            pacing,
            start,
            stats,
        )
    }

    fn resolved(&self) -> bool {
        self.dst_mac != MacAddr::ZERO
    }

    fn compute_next_send(&mut self, after: SimTime) -> Option<SimTime> {
        match &self.pacing {
            Pacing::FixedGap { gap, count } => {
                if self.stats.borrow().sent >= *count {
                    None
                } else if self.stats.borrow().sent == 0 {
                    Some(self.start)
                } else {
                    Some(after + *gap)
                }
            }
            Pacing::Poisson { rate_rps, until } => {
                let gap = self.rng.exp(1e9 / rate_rps);
                let t = if self.stats.borrow().sent == 0 {
                    self.start
                } else {
                    after + SimDuration::from_nanos(gap as u64)
                };
                if t > *until {
                    None
                } else {
                    Some(t)
                }
            }
            Pacing::Replay(events) => events
                .get(self.replay_idx)
                .map(|&(ns, _)| self.start + SimDuration::from_nanos(ns)),
            Pacing::Closed { .. } => None, // driven by responses, not time
        }
    }

    fn closed_in_flight(&self) -> u64 {
        let s = self.stats.borrow();
        (s.sent - s.received).saturating_sub(self.abandoned)
    }

    fn frame_payload_len(&self) -> usize {
        match &self.pacing {
            Pacing::Replay(events) => {
                // Frame size from the trace: strip Ethernet+IP+UDP headers.
                let frame_bytes = events
                    .get(self.replay_idx)
                    .map(|&(_, b)| b as usize)
                    .unwrap_or(64);
                frame_bytes.saturating_sub(14 + 20 + 8).max(8)
            }
            _ => self.payload_len,
        }
    }
}

impl Endpoint for UdpClient {
    fn next_time(&self) -> SimTime {
        let mut t = if self.resolved() {
            if let Pacing::Closed { outstanding, count } = self.pacing {
                // One stats lock for both reads: `closed_in_flight` locks
                // the cell itself, so it must not run under a held guard.
                let sent = self.stats.borrow().sent;
                let inflight = self.closed_in_flight();
                if sent >= count {
                    if inflight == 0 {
                        SimTime::MAX
                    } else {
                        // Drain: wake at the loss timeout to write off
                        // responses that will never come.
                        self.last_progress + SimDuration::from_millis(10)
                    }
                } else if inflight < outstanding {
                    // A send is possible right away.
                    self.start.max(self.last_progress)
                } else {
                    // Full window: wake at the loss timeout.
                    self.last_progress + SimDuration::from_millis(10)
                }
            } else if self.scheduled {
                self.next_send.unwrap_or(SimTime::MAX)
            } else {
                // First poll bootstraps the schedule.
                self.start
            }
        } else {
            self.next_arp
        };
        if let Some(&(at, _)) = self.inbox.front() {
            t = t.min(at);
        }
        t
    }

    fn poll(&mut self, now: SimTime) -> Vec<Frame> {
        // Resolve the destination MAC first (retrying every millisecond);
        // pacing starts once resolution succeeds.
        if !self.resolved() {
            // Drain the inbox looking for the reply.
            while let Some(&(at, _)) = self.inbox.front() {
                if at > now {
                    break;
                }
                let (_, frame) = self.inbox.pop_front().unwrap();
                if let Some(garp) = GarpPacket::parse(&frame) {
                    if garp.sender_ip == self.dst_ip {
                        self.dst_mac = garp.sender_mac;
                    }
                }
            }
            if !self.resolved() {
                if now >= self.next_arp {
                    self.next_arp = now + SimDuration::from_millis(1);
                    return vec![ArpPacket::request(self.mac, self.ip, self.dst_ip).encode()];
                }
                return Vec::new();
            }
            // Resolution done: begin pacing from now.
            self.start = self.start.max(now);
        }
        // Bootstrap the first send time lazily.
        if !self.scheduled {
            self.scheduled = true;
            self.next_send = self.compute_next_send(now);
        }
        // Receive echoes (and GARP migrations).
        while let Some(&(at, _)) = self.inbox.front() {
            if at > now {
                break;
            }
            let (at, frame) = self.inbox.pop_front().unwrap();
            if let Some(garp) = GarpPacket::parse(&frame) {
                if garp.sender_ip == self.dst_ip {
                    self.dst_mac = garp.sender_mac;
                }
                continue;
            }
            if let Some(udp) = UdpPacket::parse(&frame) {
                if udp.dst_ip == self.ip && udp.payload.len() >= 8 {
                    let seq = u64::from_le_bytes(udp.payload[..8].try_into().unwrap());
                    self.stats.borrow_mut().on_response(seq, at);
                    self.last_progress = at;
                }
            }
        }
        // Send requests due now.
        let mut out = Vec::new();
        if let Pacing::Closed { outstanding, count } = self.pacing {
            // Abandon a lost slot after the timeout so the loop never
            // deadlocks across failures (one write-off per timeout tick).
            if self.closed_in_flight() > 0
                && now >= self.last_progress + SimDuration::from_millis(10)
            {
                self.abandoned += 1;
                self.last_progress = now;
            }
            loop {
                // Read, then drop, the stats guard before `closed_in_flight`
                // takes its own lock on the same cell.
                let sent = self.stats.borrow().sent;
                if sent >= count || self.closed_in_flight() >= outstanding {
                    break;
                }
                let len = self.payload_len;
                let mut payload = vec![0u8; len];
                let seq = self.stats.borrow_mut().on_send(now);
                payload[..8].copy_from_slice(&seq.to_le_bytes());
                out.push(
                    UdpPacket {
                        src_mac: self.mac,
                        dst_mac: self.dst_mac,
                        src_ip: self.ip,
                        dst_ip: self.dst_ip,
                        src_port: 40000,
                        dst_port: self.dst_port,
                        payload: bytes::Bytes::from(payload),
                    }
                    .encode(),
                );
                self.last_progress = now;
            }
            return out;
        }
        while let Some(due) = self.next_send {
            if due > now {
                break;
            }
            let len = self.frame_payload_len();
            let mut payload = vec![0u8; len];
            let seq = self.stats.borrow_mut().on_send(now);
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            out.push(
                UdpPacket {
                    src_mac: self.mac,
                    dst_mac: self.dst_mac,
                    src_ip: self.ip,
                    dst_ip: self.dst_ip,
                    src_port: 40000,
                    dst_port: self.dst_port,
                    payload: bytes::Bytes::from(payload),
                }
                .encode(),
            );
            if let Pacing::Replay(_) = self.pacing {
                self.replay_idx += 1;
            }
            self.next_send = self.compute_next_send(now);
        }
        out
    }

    fn deliver(&mut self, at: SimTime, frame: Frame) {
        self.inbox.push_back((at, frame));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ClientStats;
    use oasis_core::config::OasisConfig;
    use oasis_core::instance::AppKind;
    use oasis_core::pod::PodBuilder;

    fn echo_pod_rtts(payload: usize, count: u64) -> (u64, u64, u64) {
        let mut b = PodBuilder::new(OasisConfig::default());
        let host_a = b.add_host();
        let _host_b = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(
            host_a,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        let stats = ClientStats::handle();
        let client = UdpClient::new(
            1,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            payload,
            Pacing::FixedGap {
                gap: SimDuration::from_micros(60),
                count,
            },
            SimTime::from_micros(20),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
        pod.run(SimTime::from_millis(6));
        let s = stats.borrow();
        (s.sent, s.received, s.rtt.percentile(50.0))
    }

    #[test]
    fn oasis_echo_all_requests_answered() {
        let (sent, received, p50) = echo_pod_rtts(64, 50);
        assert_eq!(sent, 50);
        assert_eq!(received, 50);
        // Single-switch testbed: microseconds, not millis.
        assert!(p50 > 2_000 && p50 < 40_000, "p50 {p50}ns");
    }

    #[test]
    fn rtt_mostly_independent_of_packet_size() {
        // Fig. 10: overhead is the same for 75B and 1500B packets.
        let (_, _, small) = echo_pod_rtts(75, 40);
        let (_, _, big) = echo_pod_rtts(1400, 40);
        assert!(big < small + 8_000, "small {small} big {big}");
    }

    #[test]
    fn poisson_pacing_stops_at_deadline() {
        let stats = ClientStats::handle();
        let mut client = UdpClient::new(
            2,
            MacAddr::nic(0),
            Ipv4Addr::instance(1),
            7,
            64,
            Pacing::Poisson {
                rate_rps: 1e6,
                until: SimTime::from_micros(100),
            },
            SimTime::ZERO,
            stats.clone(),
        );
        let mut now;
        for _ in 0..1000 {
            let t = client.next_time();
            if t == SimTime::MAX {
                break;
            }
            now = t;
            client.poll(now);
        }
        let sent = stats.borrow().sent;
        assert!((50..=200).contains(&sent), "sent {sent} in 100us at 1M rps");
    }

    #[test]
    fn replay_pacing_follows_trace() {
        let stats = ClientStats::handle();
        let events = vec![(0u64, 100u16), (1_000, 1500), (50_000, 200)];
        let mut client = UdpClient::new(
            3,
            MacAddr::nic(0),
            Ipv4Addr::instance(1),
            7,
            64,
            Pacing::Replay(events),
            SimTime::from_micros(1),
            stats.clone(),
        );
        let mut frames = Vec::new();
        while client.next_time() != SimTime::MAX {
            let t = client.next_time();
            frames.extend(client.poll(t));
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(stats.borrow().sent, 3);
        // Frame sizes track the trace (clamped to the minimum).
        assert_eq!(frames[1].len(), 1500);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a helper thread, so a livelocked run fails the test at the timeout"
    )]
    fn empty_replay_schedule_lets_the_pod_finish() {
        // An empty schedule sends nothing, so the client must report no
        // next event rather than its start time forever.
        let (tx, rx) = std::sync::mpsc::channel();
        // A helper thread, so a livelocked run fails the test at the
        // timeout instead of hanging the suite.
        let run = std::thread::spawn(move || {
            let mut b = PodBuilder::new(OasisConfig::default());
            let host_a = b.add_host();
            let _host_b = b.add_nic_host();
            let mut pod = b.build();
            let inst = pod.launch_instance(
                host_a,
                AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
                10_000,
            );
            let stats = ClientStats::handle();
            let client = UdpClient::new(
                1,
                pod.instance_mac(inst),
                pod.instance_ip(inst),
                7,
                64,
                Pacing::Replay(Vec::new()),
                SimTime::from_micros(20),
                stats.clone(),
            );
            pod.add_endpoint(Box::new(client));
            pod.run(SimTime::from_millis(1));
            let sent = stats.borrow().sent;
            let _ = tx.send(sent);
        });
        let sent = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pod run with an empty replay schedule returns");
        run.join().expect("pod thread");
        assert_eq!(sent, 0);
    }

    #[test]
    fn arp_resolution_through_pod() {
        // A client given only the instance's IP resolves the serving NIC's
        // MAC via ARP (the instance answers), then echoes normally.
        let mut b = PodBuilder::new(OasisConfig::default());
        let host_a = b.add_host();
        let _host_b = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(
            host_a,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        let stats = ClientStats::handle();
        let client = UdpClient::new_resolving(
            1,
            pod.instance_ip(inst),
            7,
            64,
            Pacing::FixedGap {
                gap: SimDuration::from_micros(50),
                count: 20,
            },
            SimTime::from_micros(20),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
        pod.run(SimTime::from_millis(8));
        let s = stats.borrow();
        assert_eq!(s.sent, 20, "pacing started after resolution");
        assert_eq!(s.received, 20, "all echoes received");
    }

    #[test]
    fn closed_loop_keeps_window_full_and_completes() {
        let mut b = PodBuilder::new(OasisConfig::default());
        let host_a = b.add_host();
        let _n = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(
            host_a,
            AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
            10_000,
        );
        let stats = ClientStats::handle();
        let client = UdpClient::new(
            1,
            pod.instance_mac(inst),
            pod.instance_ip(inst),
            7,
            64,
            Pacing::Closed {
                outstanding: 4,
                count: 200,
            },
            SimTime::from_micros(20),
            stats.clone(),
        );
        pod.add_endpoint(Box::new(client));
        pod.run(SimTime::from_millis(20));
        let s = stats.borrow();
        assert_eq!(s.sent, 200);
        assert_eq!(s.received, 200);
        // Closed loop at 4 outstanding over ~8us RTT: ~0.5 rps/us; the run
        // must take roughly 200/4 * rtt, i.e. finish well inside 20ms.
        assert!(s.rtt.percentile(99.0) < 30_000);
    }

    #[test]
    fn garp_updates_destination_mac() {
        let stats = ClientStats::handle();
        let mut client = UdpClient::new(
            4,
            MacAddr::nic(0),
            Ipv4Addr::instance(1),
            7,
            64,
            Pacing::FixedGap {
                gap: SimDuration::from_micros(10),
                count: 2,
            },
            SimTime::ZERO,
            stats,
        );
        let garp = GarpPacket {
            sender_mac: MacAddr::nic(9),
            sender_ip: Ipv4Addr::instance(1),
        }
        .encode();
        client.deliver(SimTime::ZERO, garp);
        let frames = client.poll(SimTime::ZERO);
        assert_eq!(frames[0].dst_mac(), MacAddr::nic(9));
    }
}
