//! Raft consensus for the Oasis pod-wide allocator.
//!
//! §3.5: "The allocator itself is replicated with Raft, using RPCs
//! transmitted over the message channels." This crate implements the Raft
//! core (leader election, log replication, commit, apply) as a pure state
//! machine driven by the discrete-event simulation: the embedding (the
//! allocator service in `oasis-core`) delivers messages between nodes over
//! Oasis message channels and calls [`RaftNode::tick`] on its polling
//! cadence.
//!
//! The implementation follows the TLA⁺-checked algorithm of Ongaro &
//! Ousterhout's "In Search of an Understandable Consensus Algorithm"
//! (§5.1–5.4 of that paper): single-round voting with term monotonicity,
//! log-matching via `prev_log_index`/`prev_log_term`, commit only of
//! current-term entries, and apply in log order.

// Replicated and exported state is integer-only, so every replica and
// every thread count computes the same bytes (DESIGN.md §14).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod node;

pub use node::{LogEntry, RaftConfig, RaftMessage, RaftNode, Role};

#[cfg(test)]
mod cluster_tests;
