//! The network engine's 16 B channel message (§3.3.1).
//!
//! "The frontend driver ... signals the corresponding backend driver by
//! sending a 16 B message that contains an 8 B TX buffer pointer, a 2 B
//! packet size, a 1 B opcode, and a 4 B instance IP." The remaining byte
//! carries the channel's epoch bit (MSB) and is owned by `oasis-channel`.
//!
//! Layout: `[0..8) ptr | [8..10) size | [10] opcode | [11..15) ip |
//! [15] epoch/flags`.

use oasis_net::addr::Ipv4Addr;

/// Operations carried over frontend↔backend channels. Data-path opcodes
/// follow §3.3.1; control opcodes carry registration, telemetry, and
/// failover signaling (§3.3.3, §3.5), which the paper also routes over the
/// message channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOp {
    /// Frontend → backend: transmit the packet at `ptr`.
    Tx,
    /// Backend → frontend: TX buffer at `ptr` completed; reclaim it.
    TxComplete,
    /// Backend → frontend: RX packet for `ip` at `ptr`.
    Rx,
    /// Frontend → backend: RX buffer at `ptr` consumed; recycle it.
    RxComplete,
    /// Frontend → backend: register instance `ip` (flow tag in `size`).
    Register,
    /// Frontend → backend: unregister instance `ip`.
    Unregister,
    /// Backend → allocator: link failure detected on NIC `ptr`.
    LinkFailed,
    /// Backend → allocator: telemetry record (load in `ptr`, see
    /// [`crate::allocator`]).
    Telemetry,
    /// Allocator → frontend: reroute instance `ip` to NIC id `ptr`.
    Reroute,
    /// Allocator → frontend: begin graceful migration of `ip` to NIC
    /// `ptr` (§3.3.4 load balancing).
    Migrate,
    /// Frontend → allocator: liveness heartbeat from host `ptr` (ISSUE 2
    /// failure detection; missing heartbeats mark the host failed).
    Heartbeat,
}

impl NetOp {
    fn to_byte(self) -> u8 {
        match self {
            NetOp::Tx => 1,
            NetOp::TxComplete => 2,
            NetOp::Rx => 3,
            NetOp::RxComplete => 4,
            NetOp::Register => 5,
            NetOp::Unregister => 6,
            NetOp::LinkFailed => 7,
            NetOp::Telemetry => 8,
            NetOp::Reroute => 9,
            // 10 and 11 are retired: every other opcode keeps its byte.
            NetOp::Migrate => 12,
            NetOp::Heartbeat => 13,
        }
    }

    fn from_byte(b: u8) -> Option<NetOp> {
        Some(match b {
            1 => NetOp::Tx,
            2 => NetOp::TxComplete,
            3 => NetOp::Rx,
            4 => NetOp::RxComplete,
            5 => NetOp::Register,
            6 => NetOp::Unregister,
            7 => NetOp::LinkFailed,
            8 => NetOp::Telemetry,
            9 => NetOp::Reroute,
            12 => NetOp::Migrate,
            13 => NetOp::Heartbeat,
            _ => return None,
        })
    }
}

/// A decoded 16 B network-engine message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetMsg {
    /// Buffer pointer (pool address) or opcode-specific payload.
    pub ptr: u64,
    /// Packet size in bytes, or opcode-specific small payload.
    pub size: u16,
    /// Operation.
    pub op: NetOp,
    /// Instance IP this message concerns.
    pub ip: Ipv4Addr,
}

impl NetMsg {
    /// Encode into a 16 B channel message (epoch byte left clear).
    pub fn encode(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&self.ptr.to_le_bytes());
        b[8..10].copy_from_slice(&self.size.to_le_bytes());
        b[10] = self.op.to_byte();
        b[11..15].copy_from_slice(&self.ip.0);
        b
    }

    /// Decode a 16 B channel message. `None` for unknown opcodes and for a
    /// set byte 15, which [`Self::encode`] leaves clear.
    pub fn decode(b: &[u8; 16]) -> Option<NetMsg> {
        if b[15] != 0 {
            return None;
        }
        #[inline]
        fn sub<const N: usize>(b: &[u8; 16], off: usize) -> [u8; N] {
            let mut out = [0u8; N];
            out.copy_from_slice(&b[off..off + N]);
            out
        }
        Some(NetMsg {
            ptr: u64::from_le_bytes(sub(b, 0)),
            size: u16::from_le_bytes(sub(b, 8)),
            op: NetOp::from_byte(b[10])?,
            ip: Ipv4Addr(sub(b, 11)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_opcodes() {
        for op in [
            NetOp::Tx,
            NetOp::TxComplete,
            NetOp::Rx,
            NetOp::RxComplete,
            NetOp::Register,
            NetOp::Unregister,
            NetOp::LinkFailed,
            NetOp::Telemetry,
            NetOp::Reroute,
            NetOp::Migrate,
            NetOp::Heartbeat,
        ] {
            let m = NetMsg {
                ptr: 0x0102_0304_0506_0708,
                size: 1500,
                op,
                ip: Ipv4Addr::instance(300),
            };
            let enc = m.encode();
            assert_eq!(enc[15] & 0x80, 0, "epoch byte clear");
            assert_eq!(NetMsg::decode(&enc), Some(m));
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; 16];
        b[10] = 99;
        assert!(NetMsg::decode(&b).is_none());
    }

    #[test]
    fn field_offsets_match_paper_layout() {
        let m = NetMsg {
            ptr: u64::MAX,
            size: 0xABCD,
            op: NetOp::Tx,
            ip: Ipv4Addr([1, 2, 3, 4]),
        };
        let b = m.encode();
        assert_eq!(&b[0..8], &[0xff; 8]); // 8 B pointer
        assert_eq!(&b[8..10], &0xABCDu16.to_le_bytes()); // 2 B size
        assert_eq!(b[10], 1); // 1 B opcode
        assert_eq!(&b[11..15], &[1, 2, 3, 4]); // 4 B instance IP
        assert_eq!(b[15], 0); // epoch byte
    }
}
