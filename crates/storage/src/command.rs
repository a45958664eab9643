//! 64 B NVMe-style command and completion codecs.
//!
//! §3.4: "Each 64 B message mirrors the fields of a 64 B NVMe command." The
//! storage engine moves these structs verbatim through 64 B Oasis message
//! channels, so the layout leaves the final byte's MSB free for the channel
//! epoch bit.
//!
//! Layout (little-endian):
//!
//! ```text
//! [0]      opcode          [1]      flags (reserved)
//! [2..4)   cid             [4..8)   nsid
//! [8..16)  data pointer (CXL pool address, PRP1 analog)
//! [16..24) starting LBA    [24..28) number of blocks
//! [28..32) frontend id     [32..63) reserved
//! [63]     channel epoch/flags byte (must stay clear here)
//! ```

/// NVMe opcode subset used by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NvmeOpcode {
    /// Flush volatile write cache.
    Flush,
    /// Write blocks.
    Write,
    /// Read blocks.
    Read,
}

impl NvmeOpcode {
    fn to_byte(self) -> u8 {
        match self {
            NvmeOpcode::Flush => 0x00,
            NvmeOpcode::Write => 0x01,
            NvmeOpcode::Read => 0x02,
        }
    }

    fn from_byte(b: u8) -> Option<NvmeOpcode> {
        match b {
            0x00 => Some(NvmeOpcode::Flush),
            0x01 => Some(NvmeOpcode::Write),
            0x02 => Some(NvmeOpcode::Read),
            _ => None,
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NvmeStatus {
    /// Command completed successfully.
    Success,
    /// LBA range exceeded the namespace.
    LbaOutOfRange,
    /// Invalid field (bad opcode / nsid).
    InvalidField,
    /// Unrecovered media error on a read (transient in an injected fault
    /// window; the frontend retries).
    MediaError,
    /// The device has failed (Oasis propagates this to the guest, §3.4).
    DeviceFailure,
}

impl NvmeStatus {
    /// Status byte as it appears in an encoded completion (also used by
    /// the snapshot layer to serialize completion caches).
    pub const fn to_byte(self) -> u8 {
        match self {
            NvmeStatus::Success => 0x00,
            NvmeStatus::LbaOutOfRange => 0x80,
            NvmeStatus::InvalidField => 0x02,
            NvmeStatus::MediaError => 0x81,
            NvmeStatus::DeviceFailure => 0x06,
        }
    }

    /// Inverse of [`NvmeStatus::to_byte`]; unknown bytes degrade to
    /// [`NvmeStatus::DeviceFailure`].
    pub fn from_byte(b: u8) -> NvmeStatus {
        match b {
            0x00 => NvmeStatus::Success,
            0x80 => NvmeStatus::LbaOutOfRange,
            0x02 => NvmeStatus::InvalidField,
            0x81 => NvmeStatus::MediaError,
            _ => NvmeStatus::DeviceFailure,
        }
    }

    /// Did the command succeed?
    pub fn is_ok(self) -> bool {
        self == NvmeStatus::Success
    }
}

/// Fixed-width little-endian field at `off` in a 64 B message; bounds are
/// checked at compile time through the const generic, so no fallible
/// `try_into` is needed on the decode path.
#[inline]
fn sub<const N: usize>(b: &[u8; 64], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&b[off..off + N]);
    out
}

/// Whether every byte of `b` is zero: the bytes an encoder leaves clear.
#[inline]
fn clear(b: &[u8]) -> bool {
    b.iter().all(|&x| x == 0)
}

/// A 64 B NVMe-style I/O command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeCommand {
    /// Operation.
    pub opcode: NvmeOpcode,
    /// Command id, echoed in the completion.
    pub cid: u16,
    /// Namespace id.
    pub nsid: u32,
    /// Data buffer address in CXL pool memory.
    pub data_ptr: u64,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks.
    pub nlb: u32,
    /// Originating frontend driver (Oasis routing field in a reserved
    /// area).
    pub frontend: u32,
}

impl NvmeCommand {
    /// Encode into a 64 B message (epoch byte left clear).
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = self.opcode.to_byte();
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        b[8..16].copy_from_slice(&self.data_ptr.to_le_bytes());
        b[16..24].copy_from_slice(&self.slba.to_le_bytes());
        b[24..28].copy_from_slice(&self.nlb.to_le_bytes());
        b[28..32].copy_from_slice(&self.frontend.to_le_bytes());
        b
    }

    /// Decode from a 64 B message. `None` if the opcode is unknown or a
    /// byte [`Self::encode`] leaves clear is set.
    pub fn decode(b: &[u8; 64]) -> Option<NvmeCommand> {
        if b[1] != 0 || !clear(&b[32..]) {
            return None;
        }
        Some(NvmeCommand {
            opcode: NvmeOpcode::from_byte(b[0])?,
            cid: u16::from_le_bytes(sub(b, 2)),
            nsid: u32::from_le_bytes(sub(b, 4)),
            data_ptr: u64::from_le_bytes(sub(b, 8)),
            slba: u64::from_le_bytes(sub(b, 16)),
            nlb: u32::from_le_bytes(sub(b, 24)),
            frontend: u32::from_le_bytes(sub(b, 28)),
        })
    }

    /// Bytes of data this command transfers.
    pub fn transfer_bytes(&self) -> u64 {
        match self.opcode {
            NvmeOpcode::Flush => 0,
            _ => self.nlb as u64 * crate::BLOCK_SIZE,
        }
    }
}

/// A completion entry, also encodable into a 64 B channel message
/// (completions travel backend → frontend over the reverse channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeCompletion {
    /// Command id being completed.
    pub cid: u16,
    /// Status.
    pub status: NvmeStatus,
    /// Originating frontend driver.
    pub frontend: u32,
}

impl NvmeCompletion {
    /// Encode into a 64 B message (epoch byte left clear).
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = 0xfe; // distinguishes completions from commands
        b[1] = self.status.to_byte();
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[28..32].copy_from_slice(&self.frontend.to_le_bytes());
        b
    }

    /// Decode from a 64 B message. `None` if it is not a completion: an
    /// unknown status, or a byte [`Self::encode`] leaves clear is set.
    pub fn decode(b: &[u8; 64]) -> Option<NvmeCompletion> {
        let status = NvmeStatus::from_byte(b[1]);
        if b[0] != 0xfe || status.to_byte() != b[1] || !clear(&b[4..28]) || !clear(&b[32..]) {
            return None;
        }
        Some(NvmeCompletion {
            cid: u16::from_le_bytes(sub(b, 2)),
            status,
            frontend: u32::from_le_bytes(sub(b, 28)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip() {
        let cmd = NvmeCommand {
            opcode: NvmeOpcode::Write,
            cid: 0xBEEF,
            nsid: 3,
            data_ptr: 0x1234_5678_9abc,
            slba: 1_000_000,
            nlb: 8,
            frontend: 2,
        };
        let enc = cmd.encode();
        assert_eq!(enc[63] & 0x80, 0, "epoch byte clear");
        assert_eq!(NvmeCommand::decode(&enc), Some(cmd));
    }

    #[test]
    fn completion_roundtrip_and_discrimination() {
        let c = NvmeCompletion {
            cid: 7,
            status: NvmeStatus::LbaOutOfRange,
            frontend: 5,
        };
        let enc = c.encode();
        assert_eq!(NvmeCompletion::decode(&enc), Some(c));
        // A completion is not decodable as a command and vice versa.
        assert!(NvmeCommand::decode(&enc).is_none());
        let cmd = NvmeCommand {
            opcode: NvmeOpcode::Read,
            cid: 1,
            nsid: 1,
            data_ptr: 0,
            slba: 0,
            nlb: 1,
            frontend: 0,
        };
        assert!(NvmeCompletion::decode(&cmd.encode()).is_none());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; 64];
        b[0] = 0x77;
        assert!(NvmeCommand::decode(&b).is_none());
    }

    #[test]
    fn transfer_bytes_by_opcode() {
        let mut cmd = NvmeCommand {
            opcode: NvmeOpcode::Read,
            cid: 0,
            nsid: 1,
            data_ptr: 0,
            slba: 0,
            nlb: 4,
            frontend: 0,
        };
        assert_eq!(cmd.transfer_bytes(), 4 * crate::BLOCK_SIZE);
        cmd.opcode = NvmeOpcode::Flush;
        assert_eq!(cmd.transfer_bytes(), 0);
    }

    #[test]
    fn status_byte_roundtrip() {
        for s in [
            NvmeStatus::Success,
            NvmeStatus::LbaOutOfRange,
            NvmeStatus::InvalidField,
            NvmeStatus::MediaError,
            NvmeStatus::DeviceFailure,
        ] {
            assert_eq!(NvmeStatus::from_byte(s.to_byte()), s);
        }
        assert!(NvmeStatus::Success.is_ok());
        assert!(!NvmeStatus::DeviceFailure.is_ok());
    }
}
