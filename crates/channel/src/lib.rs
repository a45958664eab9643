//! Oasis message channels over non-coherent shared CXL memory (§3.2.2).
//!
//! A channel is a single-producer single-consumer circular buffer of
//! fixed-size messages (16 B for the network engine, 64 B for the storage
//! engine) living in shared CXL memory, plus an 8 B *consumed counter* the
//! receiver publishes so the sender never overwrites unread slots. The most
//! significant bit of each message is an *epoch bit* that the sender toggles
//! every lap around the ring; the receiver uses it to detect whether a slot
//! holds a new message.
//!
//! Because the pool is not cache-coherent, the receiver's polling strategy
//! determines both correctness and performance. The paper evaluates four
//! designs (Fig. 6), all implemented here as [`Policy`]:
//!
//! 1. [`Policy::BypassCache`] — invalidate + fence before every poll
//!    (prior work's approach; ≈ 3 MOp/s).
//! 2. [`Policy::NaivePrefetch`] — cache the ring, software-prefetch ahead,
//!    invalidate the current line only after an empty poll (≈ 8.6 MOp/s —
//!    stale lines from the previous lap block prefetching).
//! 3. [`Policy::InvalidateConsumed`] — additionally invalidate each line
//!    once fully consumed so the next lap's prefetches work (≈ 87 MOp/s,
//!    but with a latency spike at moderate load from stale *prefetched*
//!    lines).
//! 4. [`Policy::InvalidatePrefetched`] — additionally invalidate the
//!    speculatively prefetched window after an empty poll, fixing the
//!    latency spike (the design Oasis ships).
//!
//! [`runner`] co-simulates a sender and a receiver on two hosts to measure
//! one-way throughput and latency exactly as the paper's two-socket
//! microbenchmark does.

// A crashed driver must degrade, not abort the whole simulated pod
// (DESIGN.md §14); `clippy.toml` lets tests unwrap, expect and panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod error;
pub mod layout;
pub mod metrics;
pub mod obs;
pub mod receiver;
pub mod reliable;
pub mod runner;
pub mod sender;

pub use error::ChannelError;
pub use layout::ChannelLayout;
pub use receiver::{Policy, Receiver};
pub use reliable::{RetryPolicy, RetryState, SeqWindow};
pub use runner::{run_offered_load, run_offered_load_snap, PairReport};
pub use sender::Sender;

/// Message size used by the network engine (§3.3): 8 B buffer pointer, 2 B
/// size, 1 B opcode, 4 B instance IP, 1 B epoch/flags.
pub const MSG16: usize = 16;

/// Message size used by the storage engine (§3.4): mirrors a 64 B NVMe
/// command.
pub const MSG64: usize = 64;

/// Default number of slots per channel (§3.2.2).
pub const DEFAULT_SLOTS: u64 = 8192;

/// The epoch bit lives in the most significant bit of the last byte of each
/// message.
pub const EPOCH_MASK: u8 = 0x80;

/// Epoch bit value for a given lap around the ring. Lap 0 uses `1` so that
/// zero-initialized slots are never mistaken for valid messages.
#[inline]
pub fn epoch_bit(lap: u64) -> u8 {
    if lap & 1 == 0 {
        EPOCH_MASK
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_alternates_and_lap0_is_nonzero() {
        assert_eq!(epoch_bit(0), EPOCH_MASK);
        assert_eq!(epoch_bit(1), 0);
        assert_eq!(epoch_bit(2), EPOCH_MASK);
        // Zeroed memory (epoch bits 0) must not look valid on lap 0.
        assert_ne!(epoch_bit(0), 0);
    }
}
