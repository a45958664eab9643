//! Ethernet / ARP / IPv4 / UDP / TCP packet codecs.
//!
//! Frames on the simulated wire are real byte buffers with real headers and
//! checksums; the Oasis network engine and the instance network stacks parse
//! them the way a kernel-bypass stack parses DMA'd packets. Keeping the wire
//! format honest means the engine's "never inspect the payload at the
//! backend" rule (§3.2.1) is actually observable: the backend driver can
//! forward a packet it never decoded.

use bytes::{BufMut, Bytes, BytesMut};

use crate::addr::{Ipv4Addr, MacAddr};

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;

/// IPv4 protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;
/// IPv4 protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;

/// Ethernet header length.
pub const ETH_HLEN: usize = 14;
/// IPv4 header length (no options).
pub const IPV4_HLEN: usize = 20;
/// UDP header length.
pub const UDP_HLEN: usize = 8;
/// TCP header length (no options).
pub const TCP_HLEN: usize = 20;

/// An Ethernet frame on the simulated wire.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame(pub Bytes);

impl Frame {
    /// Total frame length in bytes (L2 payload, excluding preamble/FCS/IFG).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a degenerate empty frame.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Destination MAC.
    pub fn dst_mac(&self) -> MacAddr {
        MacAddr(self.0[0..6].try_into().unwrap())
    }

    /// Source MAC.
    pub fn src_mac(&self) -> MacAddr {
        MacAddr(self.0[6..12].try_into().unwrap())
    }

    /// EtherType.
    pub fn ethertype(&self) -> u16 {
        u16::from_be_bytes([self.0[12], self.0[13]])
    }

    /// Destination IPv4 address, if this is an IPv4 frame.
    pub fn dst_ip(&self) -> Option<Ipv4Addr> {
        if self.ethertype() != ETHERTYPE_IPV4 || self.0.len() < ETH_HLEN + IPV4_HLEN {
            return None;
        }
        Some(Ipv4Addr(
            self.0[ETH_HLEN + 16..ETH_HLEN + 20].try_into().unwrap(),
        ))
    }

    /// Source IPv4 address, if this is an IPv4 frame.
    pub fn src_ip(&self) -> Option<Ipv4Addr> {
        if self.ethertype() != ETHERTYPE_IPV4 || self.0.len() < ETH_HLEN + IPV4_HLEN {
            return None;
        }
        Some(Ipv4Addr(
            self.0[ETH_HLEN + 12..ETH_HLEN + 16].try_into().unwrap(),
        ))
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for Frame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Frame({} -> {}, type {:#06x}, {} B)",
            self.src_mac(),
            self.dst_mac(),
            self.ethertype(),
            self.len()
        )
    }
}

/// RFC 1071 internet checksum.
///
/// Sums big-endian 32-bit words into a 64-bit accumulator and folds at the
/// end: one's-complement sums do not depend on order or word width, so this
/// equals the 16-bit word-by-word sum bit for bit. A chunk of odd length
/// leaves its last byte as the high half of a word the next chunk completes.
pub fn internet_checksum(chunks: &[&[u8]]) -> u16 {
    let mut sum: u64 = 0;
    let mut carry: Option<u8> = None;
    for &chunk in chunks {
        let mut rest = chunk;
        if let Some(hi) = carry {
            let Some((&lo, tail)) = rest.split_first() else {
                continue;
            };
            sum += u64::from(u16::from_be_bytes([hi, lo]));
            rest = tail;
        }
        let mut words = rest.chunks_exact(4);
        for w in &mut words {
            sum += u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]]));
        }
        let mut halves = words.remainder().chunks_exact(2);
        for h in &mut halves {
            sum += u64::from(u16::from_be_bytes([h[0], h[1]]));
        }
        carry = halves.remainder().first().copied();
    }
    if let Some(hi) = carry {
        sum += u64::from(u16::from_be_bytes([hi, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A parsed UDP datagram view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdpPacket {
    /// Ethernet source MAC.
    pub src_mac: MacAddr,
    /// Ethernet destination MAC.
    pub dst_mac: MacAddr,
    /// IPv4 source.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination.
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpPacket {
    /// Encode into a wire frame (Ethernet + IPv4 + UDP, checksums filled).
    pub fn encode(&self) -> Frame {
        let udp_len = UDP_HLEN + self.payload.len();
        let ip_len = IPV4_HLEN + udp_len;
        let mut buf = BytesMut::with_capacity(ETH_HLEN + ip_len);
        buf.put_slice(&self.dst_mac.0);
        buf.put_slice(&self.src_mac.0);
        buf.put_u16(ETHERTYPE_IPV4);
        encode_ipv4_header(&mut buf, self.src_ip, self.dst_ip, IPPROTO_UDP, ip_len);
        // UDP header.
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(udp_len as u16);
        let cksum_at = buf.len();
        buf.put_u16(0);
        buf.put_slice(&self.payload);
        let cksum = l4_checksum(
            self.src_ip,
            self.dst_ip,
            IPPROTO_UDP,
            &buf[ETH_HLEN + IPV4_HLEN..],
        );
        // UDP uses 0xffff to represent a computed zero checksum.
        let cksum = if cksum == 0 { 0xffff } else { cksum };
        buf[cksum_at..cksum_at + 2].copy_from_slice(&cksum.to_be_bytes());
        Frame(buf.freeze())
    }

    /// Parse a frame as UDP/IPv4. Returns `None` for non-UDP frames or
    /// malformed packets (bad lengths or checksums).
    pub fn parse(frame: &Frame) -> Option<UdpPacket> {
        let b = frame.bytes();
        if frame.ethertype() != ETHERTYPE_IPV4 || b.len() < ETH_HLEN + IPV4_HLEN + UDP_HLEN {
            return None;
        }
        let ip = &b[ETH_HLEN..];
        if ip[9] != IPPROTO_UDP || !verify_ipv4_header(ip) {
            return None;
        }
        let udp = &ip[IPV4_HLEN..];
        let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
        if udp_len < UDP_HLEN || udp_len > udp.len() {
            return None;
        }
        let src_ip = Ipv4Addr(ip[12..16].try_into().unwrap());
        let dst_ip = Ipv4Addr(ip[16..20].try_into().unwrap());
        if l4_checksum(src_ip, dst_ip, IPPROTO_UDP, &udp[..udp_len]) != 0 {
            return None;
        }
        Some(UdpPacket {
            src_mac: frame.src_mac(),
            dst_mac: frame.dst_mac(),
            src_ip,
            dst_ip,
            src_port: u16::from_be_bytes([udp[0], udp[1]]),
            dst_port: u16::from_be_bytes([udp[2], udp[3]]),
            payload: frame
                .0
                .slice(ETH_HLEN + IPV4_HLEN + UDP_HLEN..ETH_HLEN + IPV4_HLEN + udp_len),
        })
    }
}

/// TCP header flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A parsed TCP segment view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Ethernet source MAC.
    pub src_mac: MacAddr,
    /// Ethernet destination MAC.
    pub dst_mac: MacAddr,
    /// IPv4 source.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination.
    pub dst_ip: Ipv4Addr,
    /// TCP source port.
    pub src_port: u16,
    /// TCP destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Encode into a wire frame (Ethernet + IPv4 + TCP, checksums filled).
    pub fn encode(&self) -> Frame {
        let tcp_len = TCP_HLEN + self.payload.len();
        let ip_len = IPV4_HLEN + tcp_len;
        let mut buf = BytesMut::with_capacity(ETH_HLEN + ip_len);
        buf.put_slice(&self.dst_mac.0);
        buf.put_slice(&self.src_mac.0);
        buf.put_u16(ETHERTYPE_IPV4);
        encode_ipv4_header(&mut buf, self.src_ip, self.dst_ip, IPPROTO_TCP, ip_len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8((TCP_HLEN as u8 / 4) << 4); // data offset, no options
        buf.put_u8(self.flags.to_byte());
        buf.put_u16(self.window);
        let cksum_at = buf.len();
        buf.put_u16(0); // checksum
        buf.put_u16(0); // urgent pointer
        buf.put_slice(&self.payload);
        let cksum = l4_checksum(
            self.src_ip,
            self.dst_ip,
            IPPROTO_TCP,
            &buf[ETH_HLEN + IPV4_HLEN..],
        );
        buf[cksum_at..cksum_at + 2].copy_from_slice(&cksum.to_be_bytes());
        Frame(buf.freeze())
    }

    /// Parse a frame as TCP/IPv4; `None` for other traffic or corruption.
    pub fn parse(frame: &Frame) -> Option<TcpSegment> {
        let b = frame.bytes();
        if frame.ethertype() != ETHERTYPE_IPV4 || b.len() < ETH_HLEN + IPV4_HLEN + TCP_HLEN {
            return None;
        }
        let ip = &b[ETH_HLEN..];
        if ip[9] != IPPROTO_TCP || !verify_ipv4_header(ip) {
            return None;
        }
        let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
        if total_len < IPV4_HLEN + TCP_HLEN || total_len > ip.len() {
            return None;
        }
        let tcp = &ip[IPV4_HLEN..total_len];
        let src_ip = Ipv4Addr(ip[12..16].try_into().unwrap());
        let dst_ip = Ipv4Addr(ip[16..20].try_into().unwrap());
        if l4_checksum(src_ip, dst_ip, IPPROTO_TCP, tcp) != 0 {
            return None;
        }
        let data_off = ((tcp[12] >> 4) as usize) * 4;
        if data_off < TCP_HLEN || data_off > tcp.len() {
            return None;
        }
        Some(TcpSegment {
            src_mac: frame.src_mac(),
            dst_mac: frame.dst_mac(),
            src_ip,
            dst_ip,
            src_port: u16::from_be_bytes([tcp[0], tcp[1]]),
            dst_port: u16::from_be_bytes([tcp[2], tcp[3]]),
            seq: u32::from_be_bytes(tcp[4..8].try_into().unwrap()),
            ack: u32::from_be_bytes(tcp[8..12].try_into().unwrap()),
            flags: TcpFlags::from_byte(tcp[13]),
            window: u16::from_be_bytes([tcp[14], tcp[15]]),
            payload: frame
                .0
                .slice(ETH_HLEN + IPV4_HLEN + data_off..ETH_HLEN + total_len),
        })
    }
}

/// ARP operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// An ARP packet (IPv4 over Ethernet). Requests resolve an instance's MAC;
/// gratuitous replies announce a changed mapping (§3.3.4's migration GARP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Ethernet source of the frame.
    pub src_mac: MacAddr,
    /// Ethernet destination of the frame (broadcast for requests/GARP).
    pub dst_mac: MacAddr,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A broadcast who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            src_mac: sender_mac,
            dst_mac: MacAddr::BROADCAST,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// A unicast is-at reply to `to_mac`/`to_ip`.
    pub fn reply(
        sender_mac: MacAddr,
        sender_ip: Ipv4Addr,
        to_mac: MacAddr,
        to_ip: Ipv4Addr,
    ) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            src_mac: sender_mac,
            dst_mac: to_mac,
            sender_mac,
            sender_ip,
            target_mac: to_mac,
            target_ip: to_ip,
        }
    }

    /// Encode into a wire frame.
    pub fn encode(&self) -> Frame {
        let mut buf = BytesMut::with_capacity(ETH_HLEN + 28);
        buf.put_slice(&self.dst_mac.0);
        buf.put_slice(&self.src_mac.0);
        buf.put_u16(ETHERTYPE_ARP);
        buf.put_u16(1); // htype ethernet
        buf.put_u16(ETHERTYPE_IPV4); // ptype
        buf.put_u8(6); // hlen
        buf.put_u8(4); // plen
        buf.put_u16(match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        });
        buf.put_slice(&self.sender_mac.0);
        buf.put_slice(&self.sender_ip.0);
        buf.put_slice(&self.target_mac.0);
        buf.put_slice(&self.target_ip.0);
        Frame(buf.freeze())
    }

    /// Parse an ARP frame.
    pub fn parse(frame: &Frame) -> Option<ArpPacket> {
        let b = frame.bytes();
        if frame.ethertype() != ETHERTYPE_ARP || b.len() < ETH_HLEN + 28 {
            return None;
        }
        let arp = &b[ETH_HLEN..];
        let op = match u16::from_be_bytes([arp[6], arp[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpPacket {
            op,
            src_mac: frame.src_mac(),
            dst_mac: frame.dst_mac(),
            sender_mac: MacAddr(arp[8..14].try_into().unwrap()),
            sender_ip: Ipv4Addr(arp[14..18].try_into().unwrap()),
            target_mac: MacAddr(arp[18..24].try_into().unwrap()),
            target_ip: Ipv4Addr(arp[24..28].try_into().unwrap()),
        })
    }

    /// Is this a gratuitous announcement (reply with target == sender)?
    pub fn is_gratuitous(&self) -> bool {
        self.op == ArpOp::Reply && self.target_ip == self.sender_ip
    }
}

/// A (gratuitous) ARP announcement — §3.3.4 uses GARP to migrate an
/// instance's traffic to a new NIC's MAC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GarpPacket {
    /// The MAC being announced.
    pub sender_mac: MacAddr,
    /// The IP whose mapping is being announced.
    pub sender_ip: Ipv4Addr,
}

impl GarpPacket {
    /// Encode as a broadcast ARP reply (the classic GARP form).
    pub fn encode(&self) -> Frame {
        ArpPacket {
            op: ArpOp::Reply,
            src_mac: self.sender_mac,
            dst_mac: MacAddr::BROADCAST,
            sender_mac: self.sender_mac,
            sender_ip: self.sender_ip,
            target_mac: self.sender_mac,
            target_ip: self.sender_ip,
        }
        .encode()
    }

    /// Parse an ARP frame as a mapping announcement: any ARP reply carries
    /// a usable sender mapping.
    pub fn parse(frame: &Frame) -> Option<GarpPacket> {
        let arp = ArpPacket::parse(frame)?;
        if arp.op != ArpOp::Reply {
            return None;
        }
        Some(GarpPacket {
            sender_mac: arp.sender_mac,
            sender_ip: arp.sender_ip,
        })
    }
}

fn encode_ipv4_header(
    buf: &mut BytesMut,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    total_len: usize,
) {
    let start = buf.len();
    buf.put_u8(0x45); // version 4, ihl 5
    buf.put_u8(0); // tos
    buf.put_u16(total_len as u16);
    buf.put_u16(0); // id
    buf.put_u16(0x4000); // don't fragment
    buf.put_u8(64); // ttl
    buf.put_u8(proto);
    buf.put_u16(0); // checksum placeholder
    buf.put_slice(&src.0);
    buf.put_slice(&dst.0);
    let cksum = internet_checksum(&[&buf[start..start + IPV4_HLEN]]);
    buf[start + 10..start + 12].copy_from_slice(&cksum.to_be_bytes());
}

fn verify_ipv4_header(ip: &[u8]) -> bool {
    ip.len() >= IPV4_HLEN && ip[0] == 0x45 && internet_checksum(&[&ip[..IPV4_HLEN]]) == 0
}

/// L4 checksum over the IPv4 pseudo-header plus the segment.
fn l4_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
    let len = (segment.len() as u16).to_be_bytes();
    let pseudo = [
        src.0[0], src.0[1], src.0[2], src.0[3], dst.0[0], dst.0[1], dst.0[2], dst.0[3], 0, proto,
        len[0], len[1],
    ];
    internet_checksum(&[&pseudo, segment])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn udp(payload: &[u8]) -> UdpPacket {
        UdpPacket {
            src_mac: MacAddr::nic(1),
            dst_mac: MacAddr::nic(2),
            src_ip: Ipv4Addr::instance(1),
            dst_ip: Ipv4Addr::instance(2),
            src_port: 1234,
            dst_port: 80,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn udp_roundtrip() {
        let p = udp(b"hello oasis");
        let frame = p.encode();
        assert_eq!(frame.dst_mac(), MacAddr::nic(2));
        assert_eq!(frame.src_mac(), MacAddr::nic(1));
        assert_eq!(frame.dst_ip(), Some(Ipv4Addr::instance(2)));
        assert_eq!(frame.src_ip(), Some(Ipv4Addr::instance(1)));
        let q = UdpPacket::parse(&frame).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn udp_empty_payload() {
        let p = udp(b"");
        let q = UdpPacket::parse(&p.encode()).unwrap();
        assert_eq!(q.payload.len(), 0);
    }

    #[test]
    fn corrupted_udp_rejected() {
        let frame = udp(b"payload").encode();
        let mut bytes = frame.bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(UdpPacket::parse(&Frame(Bytes::from(bytes))).is_none());
    }

    #[test]
    fn corrupted_ip_header_rejected() {
        let frame = udp(b"x").encode();
        let mut bytes = frame.bytes().to_vec();
        bytes[ETH_HLEN + 8] = 63; // flip TTL without fixing the checksum
        assert!(UdpPacket::parse(&Frame(Bytes::from(bytes))).is_none());
    }

    #[test]
    fn tcp_roundtrip_with_flags() {
        let seg = TcpSegment {
            src_mac: MacAddr::nic(3),
            dst_mac: MacAddr::client(1),
            src_ip: Ipv4Addr::instance(3),
            dst_ip: Ipv4Addr::client(1),
            src_port: 11211,
            dst_port: 50000,
            seq: 0xdead_beef,
            ack: 0x1234_5678,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 65535,
            payload: Bytes::from_static(b"VALUE k 0 3\r\nabc\r\nEND\r\n"),
        };
        let q = TcpSegment::parse(&seg.encode()).unwrap();
        assert_eq!(seg, q);
    }

    #[test]
    fn tcp_parse_rejects_udp_frame() {
        let frame = udp(b"not tcp").encode();
        assert!(TcpSegment::parse(&frame).is_none());
    }

    #[test]
    fn garp_roundtrip_and_broadcast() {
        let g = GarpPacket {
            sender_mac: MacAddr::nic(7),
            sender_ip: Ipv4Addr::instance(9),
        };
        let frame = g.encode();
        assert!(frame.dst_mac().is_broadcast());
        assert_eq!(frame.src_mac(), MacAddr::nic(7));
        assert_eq!(GarpPacket::parse(&frame).unwrap(), g);
        assert!(UdpPacket::parse(&frame).is_none());
    }

    #[test]
    fn arp_request_reply_roundtrip() {
        let req = ArpPacket::request(
            MacAddr::client(1),
            Ipv4Addr::client(1),
            Ipv4Addr::instance(7),
        );
        let frame = req.encode();
        assert!(frame.dst_mac().is_broadcast());
        let parsed = ArpPacket::parse(&frame).unwrap();
        assert_eq!(parsed, req);
        assert!(!parsed.is_gratuitous());

        let rep = ArpPacket::reply(
            MacAddr::nic(0),
            Ipv4Addr::instance(7),
            MacAddr::client(1),
            Ipv4Addr::client(1),
        );
        let parsed = ArpPacket::parse(&rep.encode()).unwrap();
        assert_eq!(parsed, rep);
        assert!(!parsed.is_gratuitous());
        // A GARP is gratuitous and parses via both views.
        let garp = GarpPacket {
            sender_mac: MacAddr::nic(3),
            sender_ip: Ipv4Addr::instance(3),
        };
        assert!(ArpPacket::parse(&garp.encode()).unwrap().is_gratuitous());
    }

    #[test]
    fn arp_requests_are_not_garps() {
        let req = ArpPacket::request(
            MacAddr::client(1),
            Ipv4Addr::client(1),
            Ipv4Addr::instance(7),
        );
        assert!(GarpPacket::parse(&req.encode()).is_none());
    }

    #[test]
    fn internet_checksum_known_vector() {
        // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2,
        // checksum !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&[&data]), 0x220d);
    }

    #[test]
    fn internet_checksum_odd_length() {
        // Odd final byte is padded with zero.
        let even = internet_checksum(&[&[0xab, 0x00]]);
        let odd = internet_checksum(&[&[0xab]]);
        assert_eq!(even, odd);
    }

    #[test]
    fn checksum_split_across_chunks() {
        let whole = internet_checksum(&[&[1, 2, 3, 4, 5, 6]]);
        let split = internet_checksum(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(whole, split);
    }

    /// The byte-at-a-time RFC 1071 sum: the reference the word-wise
    /// [`internet_checksum`] must equal on every input.
    fn checksum_bytewise(chunks: &[&[u8]]) -> u16 {
        let mut sum: u32 = 0;
        let mut leftover: Option<u8> = None;
        for chunk in chunks {
            for &b in chunk.iter() {
                match leftover.take() {
                    None => leftover = Some(b),
                    Some(hi) => sum += u32::from(u16::from_be_bytes([hi, b])),
                }
            }
        }
        if let Some(hi) = leftover {
            sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    proptest! {
        #[test]
        fn checksum_matches_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(0usize..3000, 0..6),
            all_ones in any::<bool>(),
        ) {
            let data = if all_ones { vec![0xff; data.len()] } else { data };
            // Random split points (repeats give empty chunks).
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut at = 0;
            for c in cuts {
                chunks.push(&data[at..c]);
                at = c;
            }
            chunks.push(&data[at..]);
            prop_assert_eq!(internet_checksum(&chunks), checksum_bytewise(&chunks));
            prop_assert_eq!(internet_checksum(&[&data]), checksum_bytewise(&[&data]));
        }
    }

    #[test]
    fn parsed_payload_is_the_frames_bytes() {
        let frame = udp(b"zero copy").encode();
        let q = UdpPacket::parse(&frame).unwrap();
        assert_eq!(&q.payload[..], b"zero copy");
        let seg = TcpSegment {
            src_mac: MacAddr::nic(3),
            dst_mac: MacAddr::client(1),
            src_ip: Ipv4Addr::instance(3),
            dst_ip: Ipv4Addr::client(1),
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 1,
            payload: Bytes::from_static(b"abc"),
        };
        // Trailing bytes past the IPv4 total length are not payload.
        let mut bytes = seg.encode().bytes().to_vec();
        bytes.extend_from_slice(&[0xee; 6]);
        let q = TcpSegment::parse(&Frame(Bytes::from(bytes))).unwrap();
        assert_eq!(&q.payload[..], b"abc");
    }

    #[test]
    fn max_mtu_frame() {
        let payload = vec![0x5a; 1500 - IPV4_HLEN - UDP_HLEN];
        let p = udp(&payload);
        let frame = p.encode();
        assert_eq!(frame.len(), ETH_HLEN + 1500);
        assert_eq!(
            UdpPacket::parse(&frame).unwrap().payload.len(),
            payload.len()
        );
    }
}
