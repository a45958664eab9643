//! 64 B accelerator job-descriptor and completion codecs.
//!
//! The accel engine reuses the storage engine's wire discipline: fixed 64 B
//! descriptors through Oasis message channels, with the final byte's MSB
//! left free for the channel epoch bit. A job names its input and output
//! buffers by CXL pool address — the backend never touches the payload, the
//! device DMAs it directly (§3.2.1).
//!
//! Layout (little-endian):
//!
//! ```text
//! [0]      opcode          [1]      flags (reserved)
//! [2..4)   cid             [4..8)   op argument (scale factor etc.)
//! [8..16)  input pointer (CXL pool address)
//! [16..24) output pointer (CXL pool address)
//! [24..28) input length in bytes
//! [28..32) frontend id     [32..63) reserved
//! [63]     channel epoch/flags byte (must stay clear here)
//! ```

/// Offload operation subset used by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccelOp {
    /// FNV-1a checksum over the input; 8 B digest written to the output
    /// buffer and echoed in the completion.
    Checksum,
    /// Byte-wise wrapping multiply of the input by `arg`, written to the
    /// output buffer.
    Scale,
}

impl AccelOp {
    fn to_byte(self) -> u8 {
        match self {
            AccelOp::Checksum => 0x01,
            AccelOp::Scale => 0x02,
        }
    }

    fn from_byte(b: u8) -> Option<AccelOp> {
        match b {
            0x01 => Some(AccelOp::Checksum),
            0x02 => Some(AccelOp::Scale),
            _ => None,
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccelStatus {
    /// Job completed successfully.
    Success,
    /// Invalid field (bad opcode or zero-length job).
    InvalidField,
    /// Input length exceeds the device's job-size limit.
    LenOutOfRange,
    /// Transient compute fault (parity trip in an injected fault window;
    /// the frontend retries).
    ComputeError,
    /// The device has failed; propagated to the guest like a failed SSD
    /// (§3.4 — no transparent failover for stateful devices).
    DeviceFailure,
}

impl AccelStatus {
    /// Status byte as it appears in an encoded completion (also used by
    /// the snapshot layer to serialize completion caches).
    pub const fn to_byte(self) -> u8 {
        match self {
            AccelStatus::Success => 0x00,
            AccelStatus::InvalidField => 0x02,
            AccelStatus::LenOutOfRange => 0x80,
            AccelStatus::ComputeError => 0x81,
            AccelStatus::DeviceFailure => 0x06,
        }
    }

    /// Inverse of [`AccelStatus::to_byte`]; unknown bytes degrade to
    /// [`AccelStatus::DeviceFailure`].
    pub fn from_byte(b: u8) -> AccelStatus {
        match b {
            0x00 => AccelStatus::Success,
            0x02 => AccelStatus::InvalidField,
            0x80 => AccelStatus::LenOutOfRange,
            0x81 => AccelStatus::ComputeError,
            _ => AccelStatus::DeviceFailure,
        }
    }

    /// Did the job succeed?
    pub fn is_ok(self) -> bool {
        self == AccelStatus::Success
    }
}

/// A 64 B accelerator job descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccelCommand {
    /// Operation.
    pub op: AccelOp,
    /// Command id, echoed in the completion.
    pub cid: u16,
    /// Operation argument (scale factor for [`AccelOp::Scale`]).
    pub arg: u32,
    /// Input buffer address in CXL pool memory.
    pub input_ptr: u64,
    /// Output buffer address in CXL pool memory.
    pub output_ptr: u64,
    /// Input length in bytes.
    pub input_len: u32,
    /// Originating frontend driver (Oasis routing field).
    pub frontend: u32,
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

impl AccelCommand {
    /// Encode into a 64 B message (epoch byte left clear).
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = self.op.to_byte();
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[4..8].copy_from_slice(&self.arg.to_le_bytes());
        b[8..16].copy_from_slice(&self.input_ptr.to_le_bytes());
        b[16..24].copy_from_slice(&self.output_ptr.to_le_bytes());
        b[24..28].copy_from_slice(&self.input_len.to_le_bytes());
        b[28..32].copy_from_slice(&self.frontend.to_le_bytes());
        b
    }

    /// Decode from a 64 B message. `None` if the opcode is unknown or a
    /// byte [`Self::encode`] leaves clear is set.
    pub fn decode(b: &[u8; 64]) -> Option<AccelCommand> {
        if b[1] != 0 || !clear(&b[32..]) {
            return None;
        }
        Some(AccelCommand {
            op: AccelOp::from_byte(b[0])?,
            cid: u16::from_le_bytes(sub(b, 2)),
            arg: u32::from_le_bytes(sub(b, 4)),
            input_ptr: u64::from_le_bytes(sub(b, 8)),
            output_ptr: u64::from_le_bytes(sub(b, 16)),
            input_len: u32::from_le_bytes(sub(b, 24)),
            frontend: u32::from_le_bytes(sub(b, 28)),
        })
    }

    /// Bytes the device moves for this job (input DMA'd in, result out).
    pub fn transfer_bytes(&self) -> u64 {
        self.input_len as u64
    }
}

/// A completion entry, also encodable into a 64 B channel message
/// (completions travel backend → frontend over the reverse channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccelCompletion {
    /// Command id being completed.
    pub cid: u16,
    /// Status.
    pub status: AccelStatus,
    /// Operation result (checksum digest; zero for scale jobs).
    pub result: u64,
    /// Originating frontend driver.
    pub frontend: u32,
}

impl AccelCompletion {
    /// Encode into a 64 B message (epoch byte left clear).
    pub fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = 0xfd; // distinguishes completions from job descriptors
        b[1] = self.status.to_byte();
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[8..16].copy_from_slice(&self.result.to_le_bytes());
        b[28..32].copy_from_slice(&self.frontend.to_le_bytes());
        b
    }

    /// Decode from a 64 B message. `None` if it is not a completion: an
    /// unknown status, or a byte [`Self::encode`] leaves clear is set.
    pub fn decode(b: &[u8; 64]) -> Option<AccelCompletion> {
        let status = AccelStatus::from_byte(b[1]);
        let clear_gaps = clear(&b[4..8]) && clear(&b[16..28]) && clear(&b[32..]);
        if b[0] != 0xfd || status.to_byte() != b[1] || !clear_gaps {
            return None;
        }
        Some(AccelCompletion {
            cid: u16::from_le_bytes(sub(b, 2)),
            status,
            result: u64::from_le_bytes(sub(b, 8)),
            frontend: u32::from_le_bytes(sub(b, 28)),
        })
    }
}

/// FNV-1a over a byte slice — the checksum kernel the device implements.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip() {
        let cmd = AccelCommand {
            op: AccelOp::Scale,
            cid: 0xBEEF,
            arg: 3,
            input_ptr: 0x1234_5678_9abc,
            output_ptr: 0xdef0_0000,
            input_len: 4096,
            frontend: 2,
        };
        let enc = cmd.encode();
        assert_eq!(enc[63] & 0x80, 0, "epoch byte clear");
        assert_eq!(AccelCommand::decode(&enc), Some(cmd));
    }

    #[test]
    fn completion_roundtrip_and_discrimination() {
        let c = AccelCompletion {
            cid: 7,
            status: AccelStatus::LenOutOfRange,
            result: 0xfeed_beef,
            frontend: 5,
        };
        let enc = c.encode();
        assert_eq!(AccelCompletion::decode(&enc), Some(c));
        // A completion is not decodable as a command and vice versa.
        assert!(AccelCommand::decode(&enc).is_none());
        let cmd = AccelCommand {
            op: AccelOp::Checksum,
            cid: 1,
            arg: 0,
            input_ptr: 0,
            output_ptr: 64,
            input_len: 64,
            frontend: 0,
        };
        assert!(AccelCompletion::decode(&cmd.encode()).is_none());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; 64];
        b[0] = 0x77;
        assert!(AccelCommand::decode(&b).is_none());
    }

    #[test]
    fn status_byte_roundtrip() {
        for s in [
            AccelStatus::Success,
            AccelStatus::InvalidField,
            AccelStatus::LenOutOfRange,
            AccelStatus::ComputeError,
            AccelStatus::DeviceFailure,
        ] {
            assert_eq!(AccelStatus::from_byte(s.to_byte()), s);
        }
        assert!(AccelStatus::Success.is_ok());
        assert!(!AccelStatus::DeviceFailure.is_ok());
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Deterministic and content-sensitive.
        assert_ne!(fnv1a(b"oasis"), fnv1a(b"oasiT"));
    }
}
