//! Malformed frames never panic a parser.
//!
//! Every truncation and every single-bit flip of valid UDP, TCP, ARP and
//! GARP encodings, and a deterministic stream of random 0–80 B strings, go
//! through every parser and every `Frame` accessor. Each parses to `None`
//! or to a packet; none panics. A strict truncation of a valid encoding
//! parses to `None` with every parser: each one checks the length before it
//! reads a field.

use bytes::Bytes;
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{ArpOp, ArpPacket, Frame, GarpPacket, TcpFlags, TcpSegment, UdpPacket};

/// Every parser and accessor on one frame; `true` when any parser took it.
fn parse_all(frame: &Frame) -> bool {
    let _ = (frame.dst_mac(), frame.src_mac(), frame.ethertype());
    let _ = (frame.dst_ip(), frame.src_ip(), format!("{frame:?}"));
    let udp = UdpPacket::parse(frame).is_some();
    let tcp = TcpSegment::parse(frame).is_some();
    let arp = ArpPacket::parse(frame).is_some();
    let garp = GarpPacket::parse(frame).is_some();
    udp || tcp || arp || garp
}

fn valid_encodings() -> Vec<Frame> {
    let (src_mac, dst_mac) = (MacAddr::client(3), MacAddr::nic(1));
    let (src_ip, dst_ip) = (Ipv4Addr::client(3), Ipv4Addr::instance(1));
    let udp = |len: usize| UdpPacket {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port: 9,
        dst_port: 7,
        payload: Bytes::from((0..len).map(|i| i as u8).collect::<Vec<_>>()),
    };
    let tcp = |len: usize, flags| TcpSegment {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port: 40_000,
        dst_port: 11_211,
        seq: 0x0102_0304,
        ack: 0x0a0b_0c0d,
        flags,
        window: 65_535,
        payload: Bytes::from(vec![b'x'; len]),
    };
    let syn = TcpFlags {
        syn: true,
        ..TcpFlags::default()
    };
    let ack = TcpFlags {
        ack: true,
        ..TcpFlags::default()
    };
    let arp = |op| ArpPacket {
        op,
        src_mac,
        dst_mac: MacAddr::BROADCAST,
        sender_mac: src_mac,
        sender_ip: src_ip,
        target_mac: MacAddr::ZERO,
        target_ip: dst_ip,
    };
    let garp = GarpPacket {
        sender_mac: dst_mac,
        sender_ip: dst_ip,
    };
    vec![
        udp(0).encode(),
        udp(1).encode(),
        udp(37).encode(),
        tcp(0, syn).encode(),
        tcp(21, ack).encode(),
        arp(ArpOp::Request).encode(),
        arp(ArpOp::Reply).encode(),
        garp.encode(),
    ]
}

#[test]
fn truncations_parse_to_none() {
    for valid in valid_encodings() {
        assert!(parse_all(&valid), "{valid:?} does not parse");
        let bytes = valid.bytes();
        for len in 0..bytes.len() {
            let cut = Frame(Bytes::copy_from_slice(&bytes[..len]));
            assert!(!parse_all(&cut), "{valid:?} cut to {len} B parses");
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    for valid in valid_encodings() {
        let bytes = valid.bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            parse_all(&Frame(Bytes::from(flipped)));
        }
    }
}

#[test]
fn random_short_strings_never_panic() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as u8
    };
    for _ in 0..20_000 {
        let len = next() as usize % 81;
        let mut bytes: Vec<u8> = (0..len).map(|_| next()).collect();
        // Half of them claim to be IPv4 or ARP, so the parsers get past the
        // EtherType and into the headers.
        if len >= 14 && next() % 2 == 0 {
            bytes[12..14].copy_from_slice(if next() % 2 == 0 {
                &[0x08, 0x00]
            } else {
                &[0x08, 0x06]
            });
        }
        parse_all(&Frame(Bytes::from(bytes)));
    }
}
