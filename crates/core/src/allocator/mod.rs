//! The allocator (§3.5): one replicated control-plane state machine.
//!
//! A logically centralized control-plane service that owns the mapping
//! from instances to hosts and PCIe devices. It is never on the data path.
//! State mutations are [`FleetCommand`]s through a Raft log (`oasis-raft`)
//! — the paper replicates the allocator with Raft over the message
//! channels; the runtime runs it with a single replica (commands commit
//! immediately), and [`replicated`] exercises the same state machine
//! across a multi-node cluster.
//!
//! There is one machine, [`FleetState`] behind a [`FleetAllocator`]. It
//! holds the pod books — pod capacities, links and instances — and the
//! device books ([`DeviceBooks`]). A [`Fleet`](crate::fleet::Fleet) runs
//! it with fleet commands to place instances across pods, spilling device
//! backends to topologically-near neighbors when local devices strand
//! ([`fleet`]). Every pod's control actor, [`ControlActor`], runs one
//! with device commands, and decides everything in one method,
//! [`ControlActor::process`]; the pod's shell feeds it and carries out
//! its effects:
//!
//! * **Device allocation**: local-first, then least-loaded (§3.5).
//! * **Monitoring**: backends send telemetry every 100 ms; records renew
//!   the leases of instances served by that device.
//! * **Failure management**: `LinkFailed` reports — or missing telemetry,
//!   which is how *host* failures are inferred — revoke the device's
//!   leases and reroute affected instances to the pod's backup NIC.
//!
//! A pod summarizes its allocatable capacity for the fleet with
//! [`DeviceBooks::capacity_summary`].

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod command;
pub mod devices;
pub mod fleet;
pub mod migrate;
pub mod replicated;
pub mod service;

pub use command::{FleetCommand, TransferPath, ANY_POD};
pub use devices::{AccelInfo, DeviceBooks, InstanceInfo, NicInfo, SsdInfo, VolumeInfo};
pub use fleet::{
    FleetAllocator, FleetInstance, FleetResponse, FleetState, FleetStateReport, MigrationTicket,
    PodCapacity, PodUtilization,
};
pub use migrate::{MigrationOutcome, PrecopyModel};
pub use service::{
    Check, ControlActor, ControlEffects, ControlInput, Order, OrderKind, Placed, RebalancePolicy,
};
