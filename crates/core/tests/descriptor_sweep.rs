//! Truncation and bit-flip sweeps over every channel descriptor decoder.
//!
//! A receiver hands `WireDescriptor::decode_from` whatever bytes a slot
//! holds (its epoch bit cleared). For every descriptor type, every
//! truncation and every single-bit flip of a valid encoding must decode to
//! `None` or to a descriptor that re-encodes to exactly those bytes, and
//! no byte string may make a decoder panic.

use std::fmt::Debug;

use oasis_accel::{AccelCommand, AccelCompletion, AccelOp, AccelStatus};
use oasis_core::engine::WireDescriptor;
use oasis_core::msg::{NetMsg, NetOp};
use oasis_net::addr::Ipv4Addr;
use oasis_storage::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use proptest::prelude::*;

fn encode<D: WireDescriptor>(d: &D) -> Vec<u8> {
    let mut wire = vec![0u8; D::WIRE_SIZE];
    d.encode_into(&mut wire);
    wire
}

/// `bytes` decode to nothing, or to exactly what their first `WIRE_SIZE`
/// bytes encode.
fn decodes_exactly_or_not_at_all<D: WireDescriptor + Debug>(bytes: &[u8]) {
    if let Some(d) = D::decode_from(bytes) {
        assert!(
            bytes.len() >= D::WIRE_SIZE,
            "{bytes:?} is short yet decoded"
        );
        assert_eq!(
            encode(&d),
            &bytes[..D::WIRE_SIZE],
            "{bytes:?} decoded as {d:?}"
        );
    }
}

/// Every proper truncation and every single-bit flip of `bytes`.
fn mutations(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.to_vec();
            m[i] ^= 1 << bit;
            out.push(m);
        }
    }
    out
}

fn sweep<D: WireDescriptor + PartialEq + Debug>(samples: &[D]) {
    for d in samples {
        let wire = encode(d);
        assert_eq!(wire[D::WIRE_SIZE - 1] & 0x80, 0, "{d:?} sets the epoch bit");
        assert_eq!(D::decode_from(&wire).as_ref(), Some(d));
        for m in mutations(&wire) {
            decodes_exactly_or_not_at_all::<D>(&m);
        }
    }
}

fn net_msgs() -> Vec<NetMsg> {
    let ip = Ipv4Addr([10, 0, 3, 7]);
    [
        NetOp::Tx,
        NetOp::TxComplete,
        NetOp::Rx,
        NetOp::RxComplete,
        NetOp::Register,
        NetOp::Telemetry,
        NetOp::Heartbeat,
    ]
    .into_iter()
    .map(|op| NetMsg {
        ptr: 0x0012_3456_789a_bcde,
        size: 1500,
        op,
        ip,
    })
    .collect()
}

fn nvme_commands() -> Vec<NvmeCommand> {
    [NvmeOpcode::Flush, NvmeOpcode::Write, NvmeOpcode::Read]
        .into_iter()
        .map(|opcode| NvmeCommand {
            opcode,
            cid: 0xBEEF,
            nsid: 3,
            data_ptr: 0x1234_5678_9abc,
            slba: 1_000_000,
            nlb: 8,
            frontend: 2,
        })
        .collect()
}

fn nvme_completions() -> Vec<NvmeCompletion> {
    [
        NvmeStatus::Success,
        NvmeStatus::LbaOutOfRange,
        NvmeStatus::InvalidField,
        NvmeStatus::MediaError,
        NvmeStatus::DeviceFailure,
    ]
    .into_iter()
    .map(|status| NvmeCompletion {
        cid: 7,
        status,
        frontend: 5,
    })
    .collect()
}

fn accel_commands() -> Vec<AccelCommand> {
    [AccelOp::Checksum, AccelOp::Scale]
        .into_iter()
        .map(|op| AccelCommand {
            op,
            cid: 0x0102,
            arg: 3,
            input_ptr: 0x10_0000,
            output_ptr: 0x20_0000,
            input_len: 65_536,
            frontend: 1,
        })
        .collect()
}

fn accel_completions() -> Vec<AccelCompletion> {
    [
        AccelStatus::Success,
        AccelStatus::InvalidField,
        AccelStatus::LenOutOfRange,
        AccelStatus::ComputeError,
        AccelStatus::DeviceFailure,
    ]
    .into_iter()
    .map(|status| AccelCompletion {
        cid: 9,
        status,
        result: 0xcbf2_9ce4_8422_2325,
        frontend: 4,
    })
    .collect()
}

#[test]
fn net_msg_sweep() {
    sweep(&net_msgs());
}

#[test]
fn nvme_command_sweep() {
    sweep(&nvme_commands());
}

#[test]
fn nvme_completion_sweep() {
    sweep(&nvme_completions());
}

#[test]
fn accel_command_sweep() {
    sweep(&accel_commands());
}

#[test]
fn accel_completion_sweep() {
    sweep(&accel_completions());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        decodes_exactly_or_not_at_all::<NetMsg>(&bytes);
        decodes_exactly_or_not_at_all::<NvmeCommand>(&bytes);
        decodes_exactly_or_not_at_all::<NvmeCompletion>(&bytes);
        decodes_exactly_or_not_at_all::<AccelCommand>(&bytes);
        decodes_exactly_or_not_at_all::<AccelCompletion>(&bytes);
    }
}
