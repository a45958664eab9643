//! The shell around the pod's [`ControlActor`]: the allocator service's
//! core and its channels. It turns channel traffic into the actor's
//! inputs and carries out the effects; every decision is the actor's.

use oasis_channel::{Receiver, Sender};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_sim::time::{SimDuration, SimTime};

use crate::allocator::{
    Check, ControlActor, ControlEffects, ControlInput, FleetCommand, Order, OrderKind,
};
use crate::config::OasisConfig;
use crate::msg::{NetMsg, NetOp};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

/// The shell around the [`ControlActor`]: the allocator service's core
/// and its channels to every frontend and backend.
pub struct PodAllocator {
    /// The core the allocator service runs on.
    pub core: HostCtx,
    /// The decisions.
    pub actor: ControlActor,
    /// (host, sender) per frontend.
    to_frontends: Vec<(usize, Sender)>,
    from_frontends: Vec<Receiver>,
    /// (nic, receiver) per backend.
    from_backends: Vec<(u32, Receiver)>,
    /// Polling period (it is not a busy-polling data-path core).
    poll: SimDuration,
}

impl PodAllocator {
    /// A shell on `core` around a fresh [`ControlActor`].
    pub fn new(core: HostCtx, cfg: OasisConfig) -> Self {
        PodAllocator {
            core,
            actor: ControlActor::new(cfg.clone()),
            to_frontends: Vec::new(),
            from_frontends: Vec::new(),
            from_backends: Vec::new(),
            poll: cfg.allocator_poll,
        }
    }

    /// Wire the channel pair for a frontend on `host`.
    pub fn add_frontend(&mut self, host: usize, to: Sender, from: Receiver) {
        self.to_frontends.push((host, to));
        self.from_frontends.push(from);
    }

    /// Wire the receive channel from a backend for `nic`.
    pub fn add_backend(&mut self, nic: u32, from: Receiver) {
        self.from_backends.push((nic, from));
    }

    /// Log a device registration at pod build.
    pub(crate) fn register(&mut self, cmd: &FleetCommand) {
        self.actor.execute(self.core.clock, cmd);
    }

    /// Have the actor decide on `input` at the core's clock, then send its
    /// orders one by one; each order the frontend takes goes back to the
    /// actor as [`ControlInput::Accepted`]. Returns the rest of the
    /// decision's effects.
    pub fn handle(&mut self, pool: &mut CxlPool, input: ControlInput) -> ControlEffects {
        let mut fx = self.actor.process(self.core.clock, input);
        for order in std::mem::take(&mut fx.orders) {
            let sent_at = self.core.clock;
            if self.send(pool, order) {
                let accepted = ControlInput::Accepted { order, sent_at };
                self.actor.process(self.core.clock, accepted);
            }
        }
        fx
    }

    /// Send `order` to its host's frontend. True when the frontend took it.
    fn send(&mut self, pool: &mut CxlPool, order: Order) -> bool {
        let host = order.host as usize;
        let Some((_, tx)) = self.to_frontends.iter_mut().find(|(h, _)| *h == host) else {
            return false;
        };
        let op = match order.kind {
            OrderKind::Reroute => NetOp::Reroute,
            OrderKind::Migrate | OrderKind::Rebalance => NetOp::Migrate,
        };
        let msg = NetMsg {
            ptr: order.nic as u64,
            size: 0,
            op,
            ip: order.ip,
        };
        let sent = tx
            .try_send(&mut self.core, pool, &msg.encode())
            .unwrap_or(false);
        if sent {
            tx.flush(&mut self.core, pool);
        }
        sent
    }

    /// One control-plane polling round: drain the backends, act on their
    /// reports, run the NIC and rebalance checks, drain the frontends, run
    /// the host check, publish, after advancing the clock by the polling
    /// period. Every channel operation charges the core, and each input is
    /// stamped with the clock it is handled at. Returns the hosts declared
    /// failed.
    pub fn step(&mut self, pool: &mut CxlPool) -> Vec<u32> {
        self.core.advance(self.poll.as_nanos());
        let mut buf = [0u8; 16];

        // Telemetry decides nothing, so it is taken as it arrives; link
        // failures once every backend is drained.
        let mut inputs = Vec::new();
        for (nic, rx) in &mut self.from_backends {
            while rx.try_recv(&mut self.core, pool, &mut buf) {
                match NetMsg::decode(&buf) {
                    Some(m) if m.op == NetOp::LinkFailed => {
                        inputs.push(ControlInput::LinkFailed { nic: m.ptr as u32 });
                    }
                    Some(m) if m.op == NetOp::Telemetry => {
                        let report = ControlInput::Telemetry {
                            nic: *nic,
                            load_bytes: m.ptr,
                        };
                        self.actor.process(self.core.clock, report);
                    }
                    _ => {}
                }
            }
        }
        inputs.push(ControlInput::Tick(Check::Nics));
        inputs.push(ControlInput::Tick(Check::Rebalance));
        for input in inputs {
            self.handle(pool, input);
        }

        for rx in &mut self.from_frontends {
            while rx.try_recv(&mut self.core, pool, &mut buf) {
                if let Some(m) = NetMsg::decode(&buf).filter(|m| m.op == NetOp::Heartbeat) {
                    let beat = ControlInput::Heartbeat { host: m.ptr as u32 };
                    self.actor.process(self.core.clock, beat);
                }
            }
        }
        let failed = self.handle(pool, ControlInput::Tick(Check::Hosts));

        // Publish consumed counters so producers can reuse slots.
        for (_, rx) in &mut self.from_backends {
            rx.publish_consumed(&mut self.core, pool);
        }
        for rx in &mut self.from_frontends {
            rx.publish_consumed(&mut self.core, pool);
        }
        failed.failed_hosts
    }
}

impl Snapshottable for PodAllocator {
    /// The service core's clock, then the actor.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        self.actor.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.core.clock = SimTime(r.u64("alloc clock")?);
        self.actor.restore_state(r)
    }
}
