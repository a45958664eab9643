//! # Oasis: pooling PCIe devices in software over CXL memory pools
//!
//! This crate is the system described in *"Oasis: Pooling PCIe Devices Over
//! CXL to Boost Utilization"* (SOSP '25): a common datapath over
//! non-coherent shared CXL memory, per-device-class engines, and a pod-wide
//! control plane, letting any host in a CXL pod use any PCIe device attached
//! to any other host.
//!
//! ## Architecture (paper §3)
//!
//! * [`datapath`] — I/O buffer areas in shared CXL memory plus message
//!   channels (from `oasis-channel`) between frontend and backend drivers.
//!   Coherence operations are minimized by keeping device DMA out of CPU
//!   caches (§3.2.1).
//! * [`engine_net`] — the network engine (§3.3): a frontend driver per host
//!   exposing packet I/O to instances, and a backend driver per NIC-attached
//!   host driving the NIC's queue pairs. Includes NIC failover via a pod
//!   backup NIC with MAC borrowing (§3.3.3) and graceful migration with
//!   GARP (§3.3.4).
//! * [`engine_req`] — the one request/response engine: a generic frontend
//!   and backend (submit, retry with backoff, restart replay, dedup,
//!   complete) over 64 B descriptors, parameterised by a small
//!   [`engine_req::ReqClass`] per device class.
//! * [`engine_storage`] — the storage class (§3.4): block I/O as 64 B
//!   NVMe-mirroring messages; drive failures propagate as I/O errors.
//! * [`engine_accel`] — the compute-offload class: DMA job submission to
//!   pooled accelerators over the same engine, past NICs and SSDs.
//! * [`engine`] — the device-engine contract every polling core (net,
//!   request/response, baseline) implements; the pod runtime schedules
//!   each as an actor on `oasis_sim::Scheduler`.
//! * [`allocator`] — the pod-wide allocator (§3.5): leases, 100 ms
//!   telemetry, local-first placement, failure management; replicable with
//!   Raft from `oasis-raft`.
//! * [`snapshot`] — schema-versioned, byte-stable serialization of engine
//!   and allocator state (DESIGN.md §15): the substrate for
//!   checkpoint/resume and live migration over the pool.
//! * [`pod`] — the pod runtime: wires hosts, cores, NICs, SSDs, switch,
//!   instances, and client endpoints into one deterministic co-simulation.
//! * [`fleet`] — multi-pod fleets joined by Ethernet uplinks; each pod runs
//!   as one shard under `oasis_sim::shard`'s conservative-window runner,
//!   in parallel when `OASIS_SHARD_THREADS` allows, with byte-identical
//!   output at any thread count.
//! * [`baseline`] — the Junction-style baseline (instance served by its
//!   local NIC) used by the paper's overhead comparisons, with a
//!   buffers-in-CXL variant for the Fig. 11 breakdown.
//! * [`instance`] / [`tcp`] — container instances with a small UDP/TCP-lite
//!   network stack, shared by Oasis instances and external client
//!   endpoints.

pub mod allocator;
pub mod baseline;
pub mod config;
pub mod datapath;
pub mod engine;
pub mod engine_accel;
pub mod engine_net;
pub mod engine_req;
pub mod engine_storage;
pub mod error;
pub mod fleet;
pub mod instance;
pub mod metrics;
pub mod msg;
pub mod park;
pub mod pod;
pub mod snapshot;
pub mod tcp;

pub use config::OasisConfig;
pub use fleet::Fleet;
pub use pod::{Pod, PodBuilder};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};
