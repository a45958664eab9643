//! Generic TCP request/response client endpoint.
//!
//! Drives a single long-lived TCP-lite connection to a pod instance,
//! pacing requests open-loop and matching responses to requests in FIFO
//! order (TCP delivers in order). The response framing is pluggable:
//! memcached text protocol or length-prefixed web responses.

use std::collections::VecDeque;

use oasis_core::pod::Endpoint;
use oasis_core::tcp::{TcpConfig, TcpConn};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{Frame, GarpPacket, TcpFlags, TcpSegment};
use oasis_sim::time::{SimDuration, SimTime};

use crate::stats::StatsHandle;

/// Recognizes complete responses in the receive stream. `Send` because the
/// owning endpoint migrates between shard worker threads
/// (`oasis_sim::shard`) with its pod.
pub trait ResponseFramer: Send {
    /// If `buf` starts with one complete response, return its length.
    fn complete(&mut self, buf: &[u8]) -> Option<usize>;
}

/// Builds request bytes for a sequence number. `Send` for the same reason
/// as [`ResponseFramer`].
pub trait RequestBuilder: Send {
    /// Serialize request `seq`.
    fn build(&mut self, seq: u64) -> Vec<u8>;
}

/// The client endpoint.
pub struct TcpRequestClient {
    mac: MacAddr,
    ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    conn: TcpConn,
    gap: SimDuration,
    count: u64,
    stats: StatsHandle,
    request: Box<dyn RequestBuilder>,
    framer: Box<dyn ResponseFramer>,
    outstanding: VecDeque<u64>,
    rx_buf: Vec<u8>,
    next_send: Option<SimTime>,
    inbox: VecDeque<(SimTime, Frame)>,
}

impl TcpRequestClient {
    /// Create a client issuing `count` requests, one every `gap`.
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
        gap: SimDuration,
        count: u64,
        start: SimTime,
        tcp: TcpConfig,
        request: Box<dyn RequestBuilder>,
        framer: Box<dyn ResponseFramer>,
        stats: StatsHandle,
    ) -> Self {
        TcpRequestClient {
            mac: MacAddr::client(id),
            ip: Ipv4Addr::client(id as u32),
            dst_mac,
            dst_ip,
            dst_port,
            conn: TcpConn::new(tcp),
            gap,
            count,
            stats,
            request,
            framer,
            outstanding: VecDeque::new(),
            rx_buf: Vec::new(),
            next_send: Some(start),
            inbox: VecDeque::new(),
        }
    }
}

impl Endpoint for TcpRequestClient {
    fn next_time(&self) -> SimTime {
        let mut t = SimTime::MAX;
        if self.stats.borrow().sent < self.count {
            t = t.min(self.next_send.unwrap_or(SimTime::MAX));
        }
        if let Some(&(at, _)) = self.inbox.front() {
            t = t.min(at);
        }
        if let Some(rto) = self.conn.next_timer() {
            t = t.min(rto);
        }
        t
    }

    fn poll(&mut self, now: SimTime) -> Vec<Frame> {
        // Receive segments.
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
            if let Some(seg) = TcpSegment::parse(&frame) {
                if seg.dst_ip != self.ip {
                    continue;
                }
                self.conn.on_segment(at, seg.seq, seg.ack, &seg.payload);
                let data = self.conn.take_received();
                self.rx_buf.extend_from_slice(&data);
                while let Some(n) = self.framer.complete(&self.rx_buf) {
                    self.rx_buf.drain(..n);
                    if let Some(seq) = self.outstanding.pop_front() {
                        self.stats.borrow_mut().on_response(seq, at);
                    }
                }
            }
        }

        // Send due requests.
        while let Some(due) = self.next_send {
            if due > now || self.stats.borrow().sent >= self.count {
                break;
            }
            let seq = self.stats.borrow_mut().on_send(now);
            let bytes = self.request.build(seq);
            self.conn.send(&bytes);
            self.outstanding.push_back(seq);
            self.next_send = Some(due + self.gap);
        }

        // Emit TCP segments (data, retransmits, ACKs).
        self.conn
            .poll(now)
            .into_iter()
            .map(|s| {
                TcpSegment {
                    src_mac: self.mac,
                    dst_mac: self.dst_mac,
                    src_ip: self.ip,
                    dst_ip: self.dst_ip,
                    src_port: 40000,
                    dst_port: self.dst_port,
                    seq: s.seq,
                    ack: s.ack,
                    flags: TcpFlags {
                        ack: true,
                        psh: !s.payload.is_empty(),
                        ..Default::default()
                    },
                    window: 0xffff,
                    payload: bytes::Bytes::from(s.payload),
                }
                .encode()
            })
            .collect()
    }

    fn deliver(&mut self, at: SimTime, frame: Frame) {
        self.inbox.push_back((at, frame));
    }
}
