//! Shared helpers for the Oasis experiment binaries.
//!
//! Each table and figure of the paper has a binary in `src/bin/`; this
//! library holds the pieces they share (pod assembly shortcuts, sweep
//! helpers, output formatting).

pub mod chaos;
pub mod fig13;
pub mod harness;
pub mod metrics;
pub mod sweep;

pub use harness::Mode;
pub use sweep::SweepRunner;
