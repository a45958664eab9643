//! Typed errors for pod control-plane operations.
//!
//! Runtime paths in the pod previously panicked (`unwrap`/`expect`) on
//! conditions a caller can actually hit — a full pod, an unknown host, a
//! missing device. Those now surface as [`PodError`] so experiment
//! harnesses can handle placement failure the way a cloud control plane
//! would: by reporting it, not by aborting the simulation.

use oasis_channel::ChannelError;

/// Why a pod control-plane operation could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodError {
    /// No NIC in the pod has spare capacity for another instance.
    NoNicCapacity,
    /// The named host does not exist in this pod.
    NoSuchHost(usize),
    /// The named host exists but is not running the engine the operation
    /// needs (e.g. an accel job on a host with no accel frontend).
    EngineMissing {
        /// Host that was addressed.
        host: usize,
        /// Engine that is absent ("net", "storage", "accel").
        engine: &'static str,
    },
    /// The named device index does not exist.
    NoSuchDevice {
        /// Device class ("nic", "ssd", "accel").
        class: &'static str,
        /// Index that was addressed.
        index: usize,
    },
    /// A message-channel operation failed (corrupted descriptor, bad
    /// size).
    Channel(ChannelError),
    /// A snapshot could not be restored ([`crate::pod::Pod::restore`]).
    Snapshot(crate::snapshot::SnapshotError),
}

impl From<ChannelError> for PodError {
    fn from(e: ChannelError) -> Self {
        PodError::Channel(e)
    }
}

impl std::fmt::Display for PodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PodError::NoNicCapacity => write!(f, "no NIC with spare capacity in the pod"),
            PodError::NoSuchHost(h) => write!(f, "no host {h} in this pod"),
            PodError::EngineMissing { host, engine } => {
                write!(f, "host {host} has no {engine} engine")
            }
            PodError::NoSuchDevice { class, index } => {
                write!(f, "no {class} {index} in this pod")
            }
            PodError::Channel(e) => write!(f, "channel error: {e:?}"),
            PodError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PodError {}

/// Why a fleet control-plane operation could not complete.
///
/// Fleet-level failures are distinct from [`PodError`]: they concern pod
/// membership, cross-pod links, and fleet-scoped instance ids rather than
/// any single pod's devices. Placement *rejection* (no capacity anywhere)
/// is not an error — it is a counted outcome of a `CreateInstance`
/// command — so it does not appear here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// Two pods were registered with the same `PodBuilder::site` value.
    /// Sites feed the upper bits of every simulated MAC address, so a
    /// collision silently corrupts uplink switch learning; it must be
    /// rejected at `Fleet::add_pod` time.
    DuplicateSite {
        /// The colliding site id.
        site: u32,
        /// The already-registered pod that owns it.
        pod: usize,
    },
    /// A pod cannot be linked to itself.
    SelfLink {
        /// The pod on both ends of the rejected link.
        pod: usize,
    },
    /// The two pods are already connected (in either direction).
    DuplicateLink {
        /// Lower pod index of the existing link.
        a: usize,
        /// Higher pod index of the existing link.
        b: usize,
    },
    /// The named pod does not exist in this fleet.
    NoSuchPod(usize),
    /// The named fleet instance id does not exist or was already killed.
    NoSuchInstance(u64),
    /// No pod in the requested scope can take the instance (the command
    /// is still logged; this surfaces the rejection to a caller who asked
    /// for a live launch).
    NoCapacity,
    /// `RegisterPod` / `AddLink` must arrive via `Fleet::add_pod` /
    /// `Fleet::connect`, which wire the uplink switches alongside the
    /// log; executing them directly would desync the data plane.
    TopologyManaged,
    /// The replicated allocator service refused the command (e.g. the
    /// Raft leader is unavailable).
    NotLeader,
    /// The instance already has an open migration ticket; a second
    /// migration (or a resize) must wait for `FinishMigration`.
    MigrationInProgress(u64),
    /// `FinishMigration` addressed an instance with no open ticket —
    /// the exactly-once guard against double commit/rollback.
    NotMigrating(u64),
    /// The requested target pod cannot reserve the instance's resources
    /// (or is the pod the instance already runs on).
    MigrationInfeasible {
        /// Fleet instance id.
        id: u64,
        /// The rejected target pod.
        dst_pod: usize,
    },
    /// A pod-local launch failed after fleet-level placement succeeded.
    Pod(PodError),
}

impl From<PodError> for FleetError {
    fn from(e: PodError) -> Self {
        FleetError::Pod(e)
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::DuplicateSite { site, pod } => {
                write!(f, "site {site} is already used by pod {pod}")
            }
            FleetError::SelfLink { pod } => write!(f, "pod {pod} cannot be linked to itself"),
            FleetError::DuplicateLink { a, b } => {
                write!(f, "pods {a} and {b} are already connected")
            }
            FleetError::NoSuchPod(p) => write!(f, "no pod {p} in this fleet"),
            FleetError::NoSuchInstance(id) => write!(f, "no fleet instance {id}"),
            FleetError::NoCapacity => write!(f, "no pod in scope can place the instance"),
            FleetError::TopologyManaged => {
                write!(f, "topology commands flow through add_pod/connect")
            }
            FleetError::NotLeader => write!(f, "allocator service is not the leader"),
            FleetError::MigrationInProgress(id) => {
                write!(f, "instance {id} already has an open migration ticket")
            }
            FleetError::NotMigrating(id) => {
                write!(f, "instance {id} has no open migration ticket")
            }
            FleetError::MigrationInfeasible { id, dst_pod } => {
                write!(f, "pod {dst_pod} cannot reserve instance {id}'s resources")
            }
            FleetError::Pod(e) => write!(f, "pod error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_message() {
        // `Pod::launch_instance` panics with this exact text; the typed
        // error must render identically so the panic wrapper stays
        // message-compatible.
        assert_eq!(
            PodError::NoNicCapacity.to_string(),
            "no NIC with spare capacity in the pod"
        );
    }

    #[test]
    fn channel_errors_convert() {
        let e: PodError = ChannelError::EpochBitSet.into();
        assert_eq!(e, PodError::Channel(ChannelError::EpochBitSet));
    }
}
