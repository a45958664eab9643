//! The pod-wide allocator (§3.5).
//!
//! A logically centralized control-plane service that owns the mapping from
//! instances to PCIe devices. It is never on the data path. State mutations
//! are commands through a Raft log (`oasis-raft`) — the paper replicates
//! the allocator with Raft over the message channels; the pod runtime runs
//! it with a single replica (commands commit immediately), and
//! [`replicated`] exercises the same state machine across a multi-node
//! cluster.
//!
//! Responsibilities implemented:
//!
//! * **Device allocation**: local-first, then least-loaded (§3.5).
//! * **Monitoring**: backends send telemetry every 100 ms; records renew
//!   the leases of instances served by that device.
//! * **Failure management**: `LinkFailed` reports — or missing telemetry,
//!   which is how *host* failures are inferred — revoke the device's
//!   leases and reroute affected instances to the pod's backup NIC.
//!
//! Above the pod sits the fleet layer ([`fleet`]): pods summarize their
//! allocatable capacity ([`AllocState::capacity_summary`]) and a
//! [`FleetAllocator`] places instances across pods, spilling device
//! backends to topologically-near neighbors when local devices strand.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod command;
pub mod fleet;
pub mod migrate;
pub mod replicated;
pub mod service;

pub use command::{AllocCommand, FleetCommand, TransferPath, ANY_POD};
pub use fleet::{
    FleetAllocator, FleetInstance, FleetResponse, FleetState, FleetStateReport, MigrationTicket,
    PodCapacity, PodUtilization,
};
pub use migrate::{MigrationOutcome, PrecopyModel};
pub use service::{
    AllocState, InstanceInfo, NicInfo, PodAllocator, RebalancePolicy, SsdInfo, VolumeInfo,
};
