//! Container instances and their small network stack.
//!
//! An instance in the paper is an unmodified Linux binary running under the
//! Junction container runtime; the runtime gives it a packet I/O interface
//! over IPC channels in local DDR, and the Oasis frontend driver sits on
//! the other end (§4). Here an instance is an application behind the same
//! packet interface: the frontend `deliver`s RX frames; the instance's
//! UDP/TCP-lite stack runs the application callback and queues response
//! frames for the frontend to `pop_tx`.
//!
//! Instances are reactive (servers). Open-loop load generators live in
//! `oasis-apps` as client endpoints attached directly to the switch.

use std::collections::VecDeque;

use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{ArpOp, ArpPacket, Frame, GarpPacket, TcpSegment, UdpPacket};
use oasis_sim::detmap::DetMap;
use oasis_sim::time::{SimDuration, SimTime};

use crate::tcp::{TcpConfig, TcpConn};

/// A UDP response produced by an application callback.
#[derive(Clone, Debug)]
pub struct UdpResponse {
    /// Service time before the response hits the wire.
    pub delay: SimDuration,
    /// Destination (usually the request's source).
    pub dst: (Ipv4Addr, u16),
    /// Source port of the response.
    pub src_port: u16,
    /// Payload.
    pub payload: Vec<u8>,
}

/// A UDP server application (echo, DNS-style request/response, ...).
pub trait UdpApp {
    /// Handle one datagram; return zero or more responses.
    fn on_datagram(
        &mut self,
        now: SimTime,
        src: (Ipv4Addr, u16),
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<UdpResponse>;
}

/// A TCP response produced by an application callback.
#[derive(Clone, Debug)]
pub struct TcpResponse {
    /// Service time before the bytes are handed to TCP.
    pub delay: SimDuration,
    /// Response bytes (appended to the connection's stream).
    pub bytes: Vec<u8>,
}

/// A TCP server application (memcached-like, HTTP-like).
pub trait TcpApp {
    /// Handle newly delivered stream bytes from a peer.
    fn on_data(&mut self, now: SimTime, peer: (Ipv4Addr, u16), data: &[u8]) -> Vec<TcpResponse>;
}

/// The application attached to an instance.
///
/// Apps are `Send` so whole pods can migrate between the sharded runner's
/// worker threads (`oasis_sim::shard`); each pod is still driven by exactly
/// one thread at a time.
pub enum AppKind {
    /// No application (traffic sink).
    None,
    /// UDP server.
    Udp(Box<dyn UdpApp + Send>),
    /// TCP server.
    Tcp(Box<dyn TcpApp + Send>),
}

struct TcpPeer {
    conn: TcpConn,
    peer_mac: MacAddr,
    /// Responses whose service time has not elapsed yet.
    pending: Vec<(SimTime, Vec<u8>)>,
}

/// Traffic counters.
#[derive(Clone, Debug, Default)]
pub struct InstanceStats {
    /// Frames delivered to the instance.
    pub rx_frames: u64,
    /// Frames emitted by the instance.
    pub tx_frames: u64,
    /// Datagrams the UDP app handled.
    pub udp_datagrams: u64,
    /// Stream bytes the TCP app handled.
    pub tcp_bytes: u64,
}

/// A container instance.
pub struct Instance {
    /// Dense instance id (also its flow tag).
    pub id: u32,
    /// The instance's IP.
    pub ip: Ipv4Addr,
    /// Host the instance runs on.
    pub host: usize,
    /// Counters.
    pub stats: InstanceStats,
    app: AppKind,
    tcp_cfg: TcpConfig,
    tcp_peers: DetMap<(u32, u16), TcpPeer>,
    /// Response frames ready for the frontend at their timestamp.
    tx_queue: VecDeque<(SimTime, Frame)>,
    /// Source MAC for emitted frames: the MAC of the NIC currently serving
    /// this instance (§3.3.1 — instances share the host NIC's MAC).
    mac: MacAddr,
    /// Well-known server port used as the source of TCP responses.
    pub server_port: u16,
}

impl Instance {
    /// Create an instance; `mac` is assigned at registration time.
    pub fn new(id: u32, ip: Ipv4Addr, host: usize, app: AppKind) -> Self {
        Instance {
            id,
            ip,
            host,
            stats: InstanceStats::default(),
            app,
            tcp_cfg: TcpConfig::default(),
            tcp_peers: DetMap::default(),
            tx_queue: VecDeque::new(),
            mac: MacAddr::ZERO,
            server_port: 0,
        }
    }

    /// The MAC this instance currently sources frames with.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Set the serving NIC's MAC. With `announce`, broadcasts a GARP so
    /// switches and peers update their mappings — the §3.3.4 graceful
    /// migration flow.
    pub fn set_mac(&mut self, now: SimTime, mac: MacAddr, announce: bool) {
        self.mac = mac;
        if announce {
            let garp = GarpPacket {
                sender_mac: mac,
                sender_ip: self.ip,
            }
            .encode();
            self.tx_queue.push_back((now, garp));
        }
    }

    /// Frontend hands the instance an RX frame; the stack dispatches to the
    /// application and enqueues responses.
    pub fn deliver(&mut self, now: SimTime, frame: &Frame) {
        self.stats.rx_frames += 1;
        if let Some(udp) = UdpPacket::parse(frame) {
            if udp.dst_ip != self.ip {
                return; // not ours (mis-tagged); drop
            }
            let AppKind::Udp(app) = &mut self.app else {
                return;
            };
            self.stats.udp_datagrams += 1;
            let responses =
                app.on_datagram(now, (udp.src_ip, udp.src_port), udp.dst_port, &udp.payload);
            for r in responses {
                let reply = UdpPacket {
                    src_mac: self.mac,
                    dst_mac: udp.src_mac,
                    src_ip: self.ip,
                    dst_ip: r.dst.0,
                    src_port: r.src_port,
                    dst_port: r.dst.1,
                    payload: bytes::Bytes::from(r.payload),
                }
                .encode();
                self.tx_queue.push_back((now + r.delay, reply));
            }
        } else if let Some(seg) = TcpSegment::parse(frame) {
            if seg.dst_ip != self.ip {
                return;
            }
            let key = (seg.src_ip.to_u32(), seg.src_port);
            let cfg = self.tcp_cfg;
            let peer = self.tcp_peers.entry(key).or_insert_with(|| TcpPeer {
                conn: TcpConn::new(cfg),
                peer_mac: seg.src_mac,
                pending: Vec::new(),
            });
            peer.peer_mac = seg.src_mac;
            peer.conn.on_segment(now, seg.seq, seg.ack, &seg.payload);
            let data = peer.conn.take_received();
            if !data.is_empty() {
                self.stats.tcp_bytes += data.len() as u64;
                if let AppKind::Tcp(app) = &mut self.app {
                    for r in app.on_data(now, (seg.src_ip, seg.src_port), &data) {
                        peer.pending.push((now + r.delay, r.bytes));
                    }
                }
            }
            self.flush_tcp(now);
        } else if let Some(arp) = ArpPacket::parse(frame) {
            // Answer who-has requests for our IP with the serving NIC's
            // MAC (how clients resolve instances without out-of-band
            // configuration).
            if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                let reply =
                    ArpPacket::reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip).encode();
                self.tx_queue.push_back((now, reply));
            }
        }
    }

    /// Run TCP timers and move due segments into the TX queue. The
    /// frontend calls this every polling round.
    pub fn tick(&mut self, now: SimTime) {
        self.flush_tcp(now);
    }

    fn flush_tcp(&mut self, now: SimTime) {
        let ip = self.ip;
        let mac = self.mac;
        let mut keys: Vec<(u32, u16)> = self.tcp_peers.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let Some(peer) = self.tcp_peers.get_mut(&key) else {
                continue;
            };
            // Release app responses whose service time elapsed.
            let mut due: Vec<(SimTime, Vec<u8>)> = Vec::new();
            peer.pending.retain(|(at, bytes)| {
                if *at <= now {
                    due.push((*at, bytes.clone()));
                    false
                } else {
                    true
                }
            });
            due.sort_by_key(|(at, _)| *at);
            for (_, bytes) in due {
                peer.conn.send(&bytes);
            }
            // Emit segments (new data, retransmits, ACKs).
            for seg in peer.conn.poll(now) {
                let frame = TcpSegment {
                    src_mac: mac,
                    dst_mac: peer.peer_mac,
                    src_ip: ip,
                    dst_ip: Ipv4Addr::from_u32(key.0),
                    src_port: 0, // filled below
                    dst_port: key.1,
                    seq: seg.seq,
                    ack: seg.ack,
                    flags: oasis_net::packet::TcpFlags {
                        ack: true,
                        psh: !seg.payload.is_empty(),
                        ..Default::default()
                    },
                    window: 0xffff,
                    payload: bytes::Bytes::from(seg.payload),
                };
                // Server port convention: reuse the port the peer targeted.
                // We do not track it per-connection; experiments use one
                // well-known port per instance, stored in `server_port`.
                let mut frame = frame;
                frame.src_port = self.server_port;
                self.tx_queue.push_back((now, frame.encode()));
            }
        }
    }

    /// Pop the next TX frame that is ready at `now`.
    pub fn pop_tx(&mut self, now: SimTime) -> Option<Frame> {
        // The queue is not strictly sorted (different service delays), so
        // find the earliest due frame.
        let idx = self
            .tx_queue
            .iter()
            .enumerate()
            .filter(|(_, (at, _))| *at <= now)
            .min_by_key(|(_, (at, _))| *at)
            .map(|(i, _)| i)?;
        let (_, frame) = self.tx_queue.remove(idx)?;
        self.stats.tx_frames += 1;
        Some(frame)
    }

    /// Earliest timestamp in the TX queue or TCP timers (what bounds how
    /// long the serving driver may stay parked).
    pub fn next_event(&self) -> Option<SimTime> {
        let mut t = self.tx_queue.iter().map(|(at, _)| *at).min();
        for peer in self.tcp_peers.values() {
            if let Some(rto) = peer.conn.next_timer() {
                t = Some(t.map_or(rto, |cur| cur.min(rto)));
            }
            for (at, _) in &peer.pending {
                t = Some(t.map_or(*at, |cur| cur.min(*at)));
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    struct Echo;
    impl UdpApp for Echo {
        fn on_datagram(
            &mut self,
            _now: SimTime,
            src: (Ipv4Addr, u16),
            dst_port: u16,
            payload: &[u8],
        ) -> Vec<UdpResponse> {
            vec![UdpResponse {
                delay: SimDuration::from_micros(1),
                dst: src,
                src_port: dst_port,
                payload: payload.to_vec(),
            }]
        }
    }

    fn udp_frame(dst_ip: Ipv4Addr, payload: &[u8]) -> Frame {
        UdpPacket {
            src_mac: MacAddr::client(1),
            dst_mac: MacAddr::nic(0),
            src_ip: Ipv4Addr::client(1),
            dst_ip,
            src_port: 5555,
            dst_port: 7,
            payload: Bytes::copy_from_slice(payload),
        }
        .encode()
    }

    #[test]
    fn udp_echo_flow() {
        let ip = Ipv4Addr::instance(1);
        let mut inst = Instance::new(1, ip, 0, AppKind::Udp(Box::new(Echo)));
        inst.set_mac(SimTime::ZERO, MacAddr::nic(0), false);
        inst.deliver(SimTime::ZERO, &udp_frame(ip, b"ping"));
        // Response not ready before the service delay.
        assert!(inst.pop_tx(SimTime::ZERO).is_none());
        let frame = inst.pop_tx(SimTime::from_micros(1)).unwrap();
        let reply = UdpPacket::parse(&frame).unwrap();
        assert_eq!(reply.payload.as_ref(), b"ping");
        assert_eq!(reply.dst_ip, Ipv4Addr::client(1));
        assert_eq!(reply.dst_port, 5555);
        assert_eq!(reply.src_port, 7);
        assert_eq!(reply.src_mac, MacAddr::nic(0));
        assert_eq!(reply.dst_mac, MacAddr::client(1));
    }

    #[test]
    fn frames_for_other_ips_dropped() {
        let mut inst = Instance::new(1, Ipv4Addr::instance(1), 0, AppKind::Udp(Box::new(Echo)));
        inst.deliver(SimTime::ZERO, &udp_frame(Ipv4Addr::instance(2), b"x"));
        assert!(inst.pop_tx(SimTime::from_secs(1)).is_none());
        assert_eq!(inst.stats.udp_datagrams, 0);
    }

    #[test]
    fn garp_emitted_on_mac_change() {
        let ip = Ipv4Addr::instance(3);
        let mut inst = Instance::new(3, ip, 0, AppKind::None);
        inst.set_mac(SimTime::ZERO, MacAddr::nic(0), false);
        inst.set_mac(SimTime::from_secs(1), MacAddr::nic(1), true);
        let frame = inst.pop_tx(SimTime::from_secs(1)).unwrap();
        let garp = GarpPacket::parse(&frame).unwrap();
        assert_eq!(garp.sender_mac, MacAddr::nic(1));
        assert_eq!(garp.sender_ip, ip);
        assert_eq!(inst.mac(), MacAddr::nic(1));
    }

    struct Upper;
    impl TcpApp for Upper {
        fn on_data(
            &mut self,
            _now: SimTime,
            _peer: (Ipv4Addr, u16),
            data: &[u8],
        ) -> Vec<TcpResponse> {
            vec![TcpResponse {
                delay: SimDuration::from_micros(2),
                bytes: data.to_ascii_uppercase(),
            }]
        }
    }

    #[test]
    fn tcp_request_response_flow() {
        let ip = Ipv4Addr::instance(5);
        let mut inst = Instance::new(5, ip, 0, AppKind::Tcp(Box::new(Upper)));
        inst.server_port = 11211;
        inst.set_mac(SimTime::ZERO, MacAddr::nic(0), false);
        // Client-side connection.
        let mut client = TcpConn::new(TcpConfig::default());
        client.send(b"get foo");
        let segs = client.poll(SimTime::ZERO);
        for s in segs {
            let frame = TcpSegment {
                src_mac: MacAddr::client(2),
                dst_mac: MacAddr::nic(0),
                src_ip: Ipv4Addr::client(2),
                dst_ip: ip,
                src_port: 40000,
                dst_port: 11211,
                seq: s.seq,
                ack: s.ack,
                flags: Default::default(),
                window: 0xffff,
                payload: Bytes::from(s.payload),
            }
            .encode();
            inst.deliver(SimTime::ZERO, &frame);
        }
        assert_eq!(inst.stats.tcp_bytes, 7);
        // Response after the 2us service time: pure ACK may come first.
        inst.tick(SimTime::from_micros(3));
        let mut payload_seen = Vec::new();
        while let Some(f) = inst.pop_tx(SimTime::from_micros(3)) {
            let seg = TcpSegment::parse(&f).unwrap();
            assert_eq!(seg.src_port, 11211);
            assert_eq!(seg.dst_ip, Ipv4Addr::client(2));
            client.on_segment(SimTime::from_micros(3), seg.seq, seg.ack, &seg.payload);
            payload_seen.extend_from_slice(&seg.payload);
        }
        assert_eq!(client.take_received(), b"GET FOO".to_vec());
        assert_eq!(payload_seen, b"GET FOO".to_vec());
    }

    #[test]
    fn arp_request_answered_with_serving_mac() {
        let ip = Ipv4Addr::instance(4);
        let mut inst = Instance::new(4, ip, 0, AppKind::None);
        inst.set_mac(SimTime::ZERO, MacAddr::nic(2), false);
        let req = ArpPacket::request(MacAddr::client(9), Ipv4Addr::client(9), ip).encode();
        inst.deliver(SimTime::ZERO, &req);
        let frame = inst.pop_tx(SimTime::ZERO).unwrap();
        let reply = ArpPacket::parse(&frame).unwrap();
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_mac, MacAddr::nic(2));
        assert_eq!(reply.sender_ip, ip);
        assert_eq!(reply.dst_mac, MacAddr::client(9));
        // Requests for other IPs are ignored.
        let other = ArpPacket::request(
            MacAddr::client(9),
            Ipv4Addr::client(9),
            Ipv4Addr::instance(5),
        )
        .encode();
        inst.deliver(SimTime::ZERO, &other);
        assert!(inst.pop_tx(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn next_event_tracks_pending_work() {
        let ip = Ipv4Addr::instance(1);
        let mut inst = Instance::new(1, ip, 0, AppKind::Udp(Box::new(Echo)));
        assert!(inst.next_event().is_none());
        inst.deliver(SimTime::ZERO, &udp_frame(ip, b"hi"));
        assert_eq!(inst.next_event(), Some(SimTime::from_micros(1)));
    }
}
