//! The generic device-engine abstraction.
//!
//! §3.1's central claim is that pooling any PCIe device class decomposes
//! into the same three pieces: a **frontend** driver per consuming host, a
//! **backend** driver per device-attached host, and typed fixed-size
//! descriptors flowing between them over Oasis message channels. This
//! module captures that contract in traits so the pod runtime can step
//! every engine — network, storage, accelerator, and the Junction baseline
//! — through one uniform actor interface instead of per-engine special
//! cases.
//!
//! * [`WireDescriptor`] — a fixed-size command/completion codec whose wire
//!   size sizes the channel slots (16 B net descriptors, 64 B NVMe-style
//!   and accel descriptors).
//! * [`DeviceEngine`] — a polling core with a local clock: the scheduler
//!   asks [`DeviceEngine::next_time`], dispatches [`DeviceEngine::poll`]
//!   (or, while [`DeviceEngine::idle_round`] proves the rounds empty, parks
//!   the engine and charges them by count), and routes host-level faults
//!   through [`DeviceEngine::on_fault`].
//!
//! The command/completion descriptor pair of a request/response device
//! class is bound by [`crate::engine_req::ReqClass`], whose generic
//! frontend and backend implement [`DeviceEngine`] once for every such
//! class (storage, accel); the net engine and the Junction baseline
//! implement it below.
//!
//! [`EngineWorld`] is the slice of pod state an engine may touch during a
//! poll: the pool, the instances, and the NICs. Everything else (switch,
//! endpoints, allocator) is reached only through frames and channel
//! messages, which is what keeps the engines composable.

use oasis_channel::Receiver;
use oasis_cxl::{CxlPool, HostCtx};
use oasis_net::addr::MacAddr;
use oasis_net::nic::Nic;
use oasis_net::packet::Frame;
use oasis_sim::time::SimTime;

use crate::baseline::LocalDriver;
use crate::engine_net::{BackendDriver, FrontendDriver};
use crate::instance::Instance;
use crate::metrics as m;
use crate::park::IdleRound;

/// A fixed-size descriptor that travels through an Oasis message channel.
///
/// The wire size doubles as the channel slot size (see
/// [`crate::datapath::alloc_descriptor_channel`]), so a frontend/backend
/// pair agrees on the layout by construction. Encodings must leave the
/// final byte's MSB clear — the channel uses it as the epoch bit.
pub trait WireDescriptor: Sized {
    /// Encoded size in bytes; equals the channel slot size.
    const WIRE_SIZE: usize;
    /// The wire contract, checked at compile time for every implementing
    /// type whose channel is allocated: the descriptor fits in one 64 B
    /// cache line, divides it evenly (so slots never straddle lines), and
    /// is at least a word wide.
    const FITS_A_LINE: () = assert!(
        Self::WIRE_SIZE >= 8 && Self::WIRE_SIZE <= 64 && 64 % Self::WIRE_SIZE == 0,
        "a WireDescriptor must be 8..=64 bytes and divide a 64 B line"
    );
    /// Encode into `buf` (exactly `WIRE_SIZE` bytes).
    fn encode_into(&self, buf: &mut [u8]);
    /// Decode from `buf`; `None` when the bytes are not this descriptor —
    /// `buf` shorter than `WIRE_SIZE`, or anything [`Self::encode_into`]
    /// does not write (the epoch bit is the receiver's, cleared before
    /// decoding).
    fn decode_from(buf: &[u8]) -> Option<Self>;
}

impl WireDescriptor for crate::msg::NetMsg {
    const WIRE_SIZE: usize = oasis_channel::MSG16;
    fn encode_into(&self, buf: &mut [u8]) {
        debug_assert!(buf.len() >= Self::WIRE_SIZE, "encode buffer too small");
        buf[..16].copy_from_slice(&self.encode());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        Self::decode(buf.get(..16)?.try_into().ok()?)
    }
}

impl WireDescriptor for oasis_storage::command::NvmeCommand {
    const WIRE_SIZE: usize = oasis_channel::MSG64;
    fn encode_into(&self, buf: &mut [u8]) {
        debug_assert!(buf.len() >= Self::WIRE_SIZE, "encode buffer too small");
        buf[..64].copy_from_slice(&self.encode());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        Self::decode(buf.get(..64)?.try_into().ok()?)
    }
}

impl WireDescriptor for oasis_storage::command::NvmeCompletion {
    const WIRE_SIZE: usize = oasis_channel::MSG64;
    fn encode_into(&self, buf: &mut [u8]) {
        debug_assert!(buf.len() >= Self::WIRE_SIZE, "encode buffer too small");
        buf[..64].copy_from_slice(&self.encode());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        Self::decode(buf.get(..64)?.try_into().ok()?)
    }
}

impl WireDescriptor for oasis_accel::AccelCommand {
    const WIRE_SIZE: usize = oasis_channel::MSG64;
    fn encode_into(&self, buf: &mut [u8]) {
        debug_assert!(buf.len() >= Self::WIRE_SIZE, "encode buffer too small");
        buf[..64].copy_from_slice(&self.encode());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        Self::decode(buf.get(..64)?.try_into().ok()?)
    }
}

impl WireDescriptor for oasis_accel::AccelCompletion {
    const WIRE_SIZE: usize = oasis_channel::MSG64;
    fn encode_into(&self, buf: &mut [u8]) {
        debug_assert!(buf.len() >= Self::WIRE_SIZE, "encode buffer too small");
        buf[..64].copy_from_slice(&self.encode());
    }
    fn decode_from(buf: &[u8]) -> Option<Self> {
        Self::decode(buf.get(..64)?.try_into().ok()?)
    }
}

/// A host-level fault delivered to every engine core on the affected host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFault {
    /// The host crashed: the engine's core stops polling (the pod marks the
    /// host dead and parks the actor; caches are dropped).
    HostCrash,
    /// The host booted again: cold caches, clock bumped to the restart
    /// time; engines with in-flight state replay it.
    HostRestart,
}

/// The slice of pod state an engine may touch while polling.
pub struct EngineWorld<'a> {
    /// The shared CXL memory pool.
    pub pool: &'a mut CxlPool,
    /// All instances in the pod (frontends deliver into / drain from
    /// instances on their own host).
    pub instances: &'a mut Vec<Instance>,
    /// MAC address of each NIC (frontends stamp outbound frames).
    pub nic_macs: &'a [MacAddr],
    /// The pod's NICs (net backends drive `nics[self.nic_id]`; storage
    /// and accel backends own their device).
    pub nics: &'a mut [Nic],
}

/// A polling engine core the pod runtime schedules as one actor.
///
/// The contract with the scheduler:
///
/// * [`next_time`](Self::next_time) is monotone — polling never rewinds the
///   core's clock, though faults may jump it forward.
/// * [`poll`](Self::poll) runs one driver loop iteration at the core's
///   clock and returns any frames to inject into the switch (tagged with
///   their egress times); non-NIC engines return none.
/// * [`on_fault`](Self::on_fault) is invoked *after* the pod has dropped
///   the core's cache and bumped its clock, so recovery work (e.g. command
///   replay) executes at the post-fault clock.
///
/// Every engine is also [`Snapshottable`](crate::snapshot::Snapshottable):
/// its logical state (clock, counters, queues, in-flight descriptors,
/// retry/dedup sequence state) serializes byte-stably, which is what makes
/// pod checkpoints and instance migration (DESIGN.md §15) possible without
/// per-engine special cases.
pub trait DeviceEngine: crate::snapshot::Snapshottable {
    /// The host this core polls on.
    fn host(&self) -> usize;
    /// The polling core's memory context.
    fn core(&self) -> &HostCtx;
    /// Mutable access to the polling core's memory context.
    fn core_mut(&mut self) -> &mut HostCtx;

    /// When this engine next wants to run (its local clock).
    fn next_time(&self) -> SimTime {
        self.core().clock
    }

    /// The NIC whose port carries this engine's emitted frames, if any.
    fn egress_nic(&self) -> Option<usize> {
        None
    }

    /// Run one driver-loop iteration; returns frames for the switch.
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)>;

    /// A host-level fault reached this engine's host.
    fn on_fault(&mut self, _fault: EngineFault, _pool: &mut CxlPool) {}

    /// Prove that the round [`Self::poll`] would run at the engine's clock is
    /// a steady-state empty one ([`IdleRound`]), and until when the rounds
    /// after it are too. The pod then *parks* the engine: it leaves the run
    /// queue until the first round not covered, and the rounds in between
    /// are charged by count ([`crate::park`]) — so the proof has to be
    /// exact, and `None`, the answer in any doubtful state, only costs the
    /// real round. Input from outside (a write-back posted into a polled
    /// ring, a frame for the engine's NIC, a fault, a `Pod` call) ends the
    /// park; the proof need only cover the engine's own timers.
    fn idle_round(
        &self,
        _pool: &CxlPool,
        _nics: &[Nic],
        _instances: &[Instance],
    ) -> Option<IdleRound> {
        None
    }

    /// The receivers one round polls, in polling order (none for a driver
    /// that polls no channel). Called only while [`Self::idle_round`]
    /// holds: to watch their rings and to settle elided rounds.
    fn polled(&mut self, _each: &mut dyn FnMut(&mut Receiver)) {}

    /// Export this engine's lifetime tallies into `sink` under the names
    /// registered in [`crate::metrics`]. Always compiled — the figure
    /// binaries source their numbers from the resulting snapshots with
    /// `obs` both on and off — and pure-observer: exporting must not
    /// change engine state or timing. Engines also export their polling
    /// core's memory-system counters via
    /// [`oasis_cxl::obs::export_host_metrics`] so every core reports cache
    /// behaviour uniformly.
    fn on_metrics(&self, _sink: &mut oasis_obs::MetricSink) {}
}

// ---------------------------------------------------------------------------
// Network engine (§3.3)
// ---------------------------------------------------------------------------

impl DeviceEngine for FrontendDriver {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)> {
        self.step(world.pool, world.instances, world.nic_macs);
        Vec::new()
    }
    fn idle_round(&self, pool: &CxlPool, _: &[Nic], instances: &[Instance]) -> Option<IdleRound> {
        self.idle_round(pool, instances)
    }
    fn polled(&mut self, each: &mut dyn FnMut(&mut Receiver)) {
        self.receivers_mut().for_each(each);
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let t = self.host as u32;
        sink.set(m::NET_FE_TX_PACKETS, t, self.stats.tx_packets);
        sink.set(m::NET_FE_TX_DROP_NOBUF, t, self.stats.tx_drop_nobuf);
        sink.set(m::NET_FE_TX_DROP_CHANNEL, t, self.stats.tx_drop_channel);
        sink.set(m::NET_FE_TX_POLICED, t, self.stats.tx_policed);
        sink.set(m::NET_FE_RX_PACKETS, t, self.stats.rx_packets);
        sink.set(m::NET_FE_RX_UNKNOWN, t, self.stats.rx_unknown);
        sink.set(m::NET_FE_REROUTES, t, self.stats.reroutes);
        sink.set(m::NET_FE_MIGRATIONS, t, self.stats.migrations);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

impl DeviceEngine for BackendDriver {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn egress_nic(&self) -> Option<usize> {
        Some(self.nic_id)
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)> {
        self.step(world.pool, &mut world.nics[self.nic_id])
    }
    fn idle_round(&self, pool: &CxlPool, nics: &[Nic], _: &[Instance]) -> Option<IdleRound> {
        self.idle_round(pool, &nics[self.nic_id])
    }
    fn polled(&mut self, each: &mut dyn FnMut(&mut Receiver)) {
        self.receivers_mut().for_each(each);
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let t = self.nic_id as u32;
        sink.set(m::NET_BE_TX_POSTED, t, self.stats.tx_posted);
        sink.set(m::NET_BE_TX_DROP_FULL, t, self.stats.tx_drop_full);
        sink.set(m::NET_BE_RX_FORWARDED, t, self.stats.rx_forwarded);
        sink.set(m::NET_BE_RX_TAG_MISS, t, self.stats.rx_tag_miss);
        sink.set(m::NET_BE_RX_UNKNOWN, t, self.stats.rx_unknown);
        sink.set(m::NET_BE_RX_DROP_CHANNEL, t, self.stats.rx_drop_channel);
        sink.set(m::NET_BE_FAILURES_REPORTED, t, self.stats.failures_reported);
        sink.set(m::NET_BE_TELEMETRY_SENT, t, self.stats.telemetry_sent);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

// ---------------------------------------------------------------------------
// Junction-style baseline (one combined driver, local NIC)
// ---------------------------------------------------------------------------

impl DeviceEngine for LocalDriver {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn egress_nic(&self) -> Option<usize> {
        Some(self.nic_id)
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, Frame)> {
        self.step(world.pool, &mut world.nics[self.nic_id], world.instances)
    }
    fn idle_round(&self, pool: &CxlPool, nics: &[Nic], inst: &[Instance]) -> Option<IdleRound> {
        self.idle_round(pool, &nics[self.nic_id], inst)
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let t = self.host as u32;
        sink.set(m::LOCAL_TX_PACKETS, t, self.stats.tx_packets);
        sink.set(m::LOCAL_TX_DROPS, t, self.stats.tx_drops);
        sink.set(m::LOCAL_RX_PACKETS, t, self.stats.rx_packets);
        sink.set(m::LOCAL_RX_UNKNOWN, t, self.stats.rx_unknown);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_channel_slots() {
        assert_eq!(<crate::msg::NetMsg as WireDescriptor>::WIRE_SIZE, 16);
        assert_eq!(
            <oasis_storage::command::NvmeCommand as WireDescriptor>::WIRE_SIZE,
            64
        );
        assert_eq!(<oasis_accel::AccelCommand as WireDescriptor>::WIRE_SIZE, 64);
    }

    #[test]
    fn trait_codec_roundtrips() {
        let cmd = oasis_accel::AccelCommand {
            op: oasis_accel::AccelOp::Checksum,
            cid: 12,
            arg: 0,
            input_ptr: 4096,
            output_ptr: 8192,
            input_len: 64,
            frontend: 1,
        };
        let mut buf = [0u8; 64];
        cmd.encode_into(&mut buf);
        assert_eq!(oasis_accel::AccelCommand::decode_from(&buf), Some(cmd));
        // A completion does not decode as a command.
        let comp = oasis_accel::AccelCompletion {
            cid: 12,
            status: oasis_accel::AccelStatus::Success,
            result: 7,
            frontend: 1,
        };
        comp.encode_into(&mut buf);
        assert_eq!(oasis_accel::AccelCommand::decode_from(&buf), None);
        assert_eq!(oasis_accel::AccelCompletion::decode_from(&buf), Some(comp));
    }
}
