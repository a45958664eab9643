//! Allocator state-machine commands (the Raft log payload).

use oasis_net::addr::Ipv4Addr;

/// Wire-schema version of [`FleetCommand`]. Variant order assigns the
/// tag bytes, so appending, reordering, or renaming a variant is a schema
/// change: bump this and re-pin `core/tests/schema_golden.rs`, whose
/// exhaustive tag match stops compiling on an appended variant. v2
/// appended `MigrateInstance` and `FinishMigration`; v3 appended the
/// eleven device commands (tags 9–19) when the pod allocator's command
/// set folded in.
pub const FLEET_SCHEMA_VERSION: u32 = 3;

/// How a live migration moves instance state to the target pod.
///
/// Variant order assigns the wire bytes inside [`FleetCommand`], so this
/// enum is golden-pinned alongside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferPath {
    /// Pre-copy through the shared CXL pool: the source writes dirty state
    /// into pooled memory the target maps directly (§3.2's fabric reused
    /// as a migration channel).
    Cxl,
    /// Pre-copy over the NIC datapath, TCP-style, consuming the source
    /// instance's leased bandwidth.
    Nic,
}

impl TransferPath {
    /// Wire byte (also the `oasis-obs` tag the migration metrics carry).
    pub fn to_byte(self) -> u8 {
        match self {
            TransferPath::Cxl => 0,
            TransferPath::Nic => 1,
        }
    }

    /// Inverse of [`to_byte`](Self::to_byte). `None` on unknown bytes —
    /// a migration command with an unknown path must be rejected, never
    /// guessed.
    pub fn from_byte(b: u8) -> Option<TransferPath> {
        match b {
            0 => Some(TransferPath::Cxl),
            1 => Some(TransferPath::Nic),
            _ => None,
        }
    }
}

/// Sequential little-endian reader over one encoded command. A decode ends
/// with [`end`](Self::end), which refuses trailing bytes, and bools must be
/// 0 or 1: a decoder accepts exactly the bytes its encoder writes.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn ip(&mut self) -> Option<Ipv4Addr> {
        self.take().map(Ipv4Addr)
    }

    fn end<T>(self, decoded: T) -> Option<T> {
        self.0.is_empty().then_some(decoded)
    }
}

/// One fixed-width little-endian field of an encoded command: the
/// writing half of [`Fields`].
trait Field {
    fn put(&self, b: &mut Vec<u8>);
}

impl Field for u32 {
    fn put(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.to_le_bytes());
    }
}

impl Field for u64 {
    fn put(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.to_le_bytes());
    }
}

impl Field for bool {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self as u8);
    }
}

impl Field for Ipv4Addr {
    fn put(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.0);
    }
}

impl Field for TransferPath {
    fn put(&self, b: &mut Vec<u8>) {
        b.push(self.to_byte());
    }
}

/// A tag byte followed by the fields in order (statically dispatched:
/// every command the log carries is encoded once).
macro_rules! encoded {
    ($tag:expr $(, $field:expr)*) => {{
        let mut b = Vec::with_capacity(32);
        b.push($tag);
        $(Field::put($field, &mut b);)*
        b
    }};
}

/// Home-pod value meaning "place anywhere in the fleet".
pub const ANY_POD: u32 = u32::MAX;

/// A command applied to the replicated allocator state: the one log of
/// the control plane.
///
/// This is the typed control-plane API. A fleet's harnesses and the trace
/// replayer drive it with the fleet-scope commands (tags 1–8); a pod's
/// control actor drives its device books with the device commands (tags
/// 9–19). Every state-changing command is appended to the allocator's
/// Raft log before it is applied. Timestamps are embedded in the commands
/// (not taken from the applying replica) so replicas replaying the same
/// log compute byte-identical state, spill-traffic accounting included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetCommand {
    /// Register pod `pod` (must arrive in index order) with its local
    /// capacity summary.
    RegisterPod {
        /// Pod index (sequential).
        pod: u32,
        /// Hosts in the pod.
        hosts: u32,
        /// vCPUs per host.
        vcpus_per_host: u32,
        /// Memory per host in GB.
        mem_gb_per_host: u32,
        /// Pod-wide allocatable NIC bandwidth in Mbit/s (backup excluded).
        nic_mbps: u64,
        /// Pod-wide allocatable SSD capacity (GB in the synthetic
        /// replay; a live pod registers whatever unit its SSDs lease in).
        ssd_cap: u64,
    },
    /// Register a cross-pod uplink. Spill orders are derived from the
    /// link set.
    AddLink {
        /// One endpoint pod.
        a: u32,
        /// Other endpoint pod.
        b: u32,
        /// One-way uplink latency in nanoseconds.
        latency_ns: u64,
    },
    /// Place a new instance; its id is the number of `CreateInstance`
    /// commands applied before it.
    CreateInstance {
        /// Simulation time of the request in nanoseconds.
        at: u64,
        /// vCPUs requested.
        vcpus: u32,
        /// Memory requested in GB.
        mem_gb: u32,
        /// SSD capacity requested (same unit the pods registered).
        ssd: u32,
        /// NIC bandwidth lease requested in Mbit/s.
        nic_mbps: u32,
        /// Pod whose hosts may run the instance, or [`ANY_POD`].
        home_pod: u32,
    },
    /// Change a live instance's device leases (its host does not move).
    ResizeInstance {
        /// Simulation time of the request in nanoseconds.
        at: u64,
        /// Fleet instance id.
        id: u64,
        /// New NIC bandwidth lease in Mbit/s.
        nic_mbps: u32,
        /// New SSD capacity (same unit the pods registered).
        ssd: u32,
    },
    /// Tear an instance down, releasing its host and device capacity and
    /// closing its spill-traffic accounting.
    KillInstance {
        /// Simulation time of the teardown in nanoseconds.
        at: u64,
        /// Fleet instance id.
        id: u64,
    },
    /// Read back the fleet-wide utilization report. Read-only: executed
    /// against the current state without an entry in the Raft log.
    QueryFleetState,
    /// Begin a live migration: reserve capacity for `id` on `dst_pod` and
    /// open a migration ticket. The instance keeps running on its source
    /// host while pre-copy rounds drain dirty state over `path`; the
    /// migration ends with a [`FinishMigration`](Self::FinishMigration).
    MigrateInstance {
        /// Simulation time of the request in nanoseconds.
        at: u64,
        /// Fleet instance id.
        id: u64,
        /// Target pod.
        dst_pod: u32,
        /// Transfer path for the pre-copy stream.
        path: TransferPath,
    },
    /// Close a migration ticket. `commit = true` lands the instance on the
    /// target (source capacity released); `commit = false` rolls back,
    /// releasing the target reservation while the instance keeps running
    /// on the source — the compensating half of exactly-once migration.
    FinishMigration {
        /// Simulation time of the decision in nanoseconds.
        at: u64,
        /// Fleet instance id.
        id: u64,
        /// Commit (land on target) vs abort (stay on source).
        commit: bool,
    },
    /// Register a NIC attached to `host` with `capacity_mbps` of
    /// allocatable bandwidth.
    RegisterNic {
        /// NIC id.
        nic: u32,
        /// Host the NIC is attached to.
        host: u32,
        /// Allocatable bandwidth in Mbit/s.
        capacity_mbps: u32,
        /// Reserved as the pod's failover backup (§3.3.3).
        backup: bool,
    },
    /// Assign an instance to a NIC with a bandwidth lease.
    Assign {
        /// Instance IP.
        ip: Ipv4Addr,
        /// Instance host.
        host: u32,
        /// Serving NIC.
        nic: u32,
        /// Leased bandwidth in Mbit/s.
        lease_mbps: u32,
    },
    /// Remove an instance's assignment.
    Unassign {
        /// Instance IP.
        ip: Ipv4Addr,
    },
    /// Mark a NIC failed; its leases are revoked by the state machine.
    MarkFailed {
        /// NIC id.
        nic: u32,
    },
    /// Mark a NIC healthy again after repair.
    MarkRepaired {
        /// NIC id.
        nic: u32,
    },
    /// Register an SSD attached to `host` with allocatable capacity.
    RegisterSsd {
        /// SSD id.
        ssd: u32,
        /// Host the SSD is attached to.
        host: u32,
        /// Allocatable capacity in whole blocks.
        capacity_blocks: u32,
    },
    /// Carve a volume for an instance out of an SSD.
    AssignVolume {
        /// Owning instance IP.
        ip: Ipv4Addr,
        /// SSD the volume lives on.
        ssd: u32,
        /// First block of the volume.
        base_block: u32,
        /// Volume length in blocks.
        blocks: u32,
    },
    /// Release an instance's volumes (instance teardown; local NVMe is
    /// ephemeral, as §3.4 notes).
    ReleaseVolumes {
        /// Owning instance IP.
        ip: Ipv4Addr,
    },
    /// Declare a frontend host dead (heartbeat detection). The state
    /// machine revokes every lease and volume owned by instances on that
    /// host so nothing leaks while it is down.
    MarkHostFailed {
        /// Host id.
        host: u32,
    },
    /// A failed host heartbeated again after restarting.
    MarkHostRestarted {
        /// Host id.
        host: u32,
    },
    /// Register a compute-offload accelerator attached to `host`.
    RegisterAccel {
        /// Accelerator id.
        accel: u32,
        /// Host the accelerator is attached to.
        host: u32,
    },
}

// The largest variant (`RegisterPod`) sets the size; the device variants
// fit inside it.
const _: () = assert!(std::mem::size_of::<FleetCommand>() == 40);

impl FleetCommand {
    /// Serialize for the Raft log.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            FleetCommand::RegisterPod {
                pod,
                hosts,
                vcpus_per_host,
                mem_gb_per_host,
                nic_mbps,
                ssd_cap,
            } => encoded!(
                1,
                pod,
                hosts,
                vcpus_per_host,
                mem_gb_per_host,
                nic_mbps,
                ssd_cap
            ),
            FleetCommand::AddLink { a, b, latency_ns } => encoded!(2, a, b, latency_ns),
            FleetCommand::CreateInstance {
                at,
                vcpus,
                mem_gb,
                ssd,
                nic_mbps,
                home_pod,
            } => encoded!(3, at, vcpus, mem_gb, ssd, nic_mbps, home_pod),
            FleetCommand::ResizeInstance {
                at,
                id,
                nic_mbps,
                ssd,
            } => encoded!(4, at, id, nic_mbps, ssd),
            FleetCommand::KillInstance { at, id } => encoded!(5, at, id),
            FleetCommand::QueryFleetState => encoded!(6),
            FleetCommand::MigrateInstance {
                at,
                id,
                dst_pod,
                path,
            } => encoded!(7, at, id, dst_pod, path),
            FleetCommand::FinishMigration { at, id, commit } => encoded!(8, at, id, commit),
            FleetCommand::RegisterNic {
                nic,
                host,
                capacity_mbps,
                backup,
            } => encoded!(9, nic, host, capacity_mbps, backup),
            FleetCommand::Assign {
                ip,
                host,
                nic,
                lease_mbps,
            } => encoded!(10, ip, host, nic, lease_mbps),
            FleetCommand::Unassign { ip } => encoded!(11, ip),
            FleetCommand::MarkFailed { nic } => encoded!(12, nic),
            FleetCommand::MarkRepaired { nic } => encoded!(13, nic),
            FleetCommand::RegisterSsd {
                ssd,
                host,
                capacity_blocks,
            } => encoded!(14, ssd, host, capacity_blocks),
            FleetCommand::AssignVolume {
                ip,
                ssd,
                base_block,
                blocks,
            } => encoded!(15, ip, ssd, base_block, blocks),
            FleetCommand::ReleaseVolumes { ip } => encoded!(16, ip),
            FleetCommand::MarkHostFailed { host } => encoded!(17, host),
            FleetCommand::MarkHostRestarted { host } => encoded!(18, host),
            FleetCommand::RegisterAccel { accel, host } => encoded!(19, accel, host),
        }
    }

    /// Deserialize from the Raft log. `None` on malformed input: anything
    /// but the exact bytes [`encode`](Self::encode) writes for a command.
    pub fn decode(b: &[u8]) -> Option<FleetCommand> {
        let mut f = Fields(b);
        let cmd = match f.u8()? {
            1 => FleetCommand::RegisterPod {
                pod: f.u32()?,
                hosts: f.u32()?,
                vcpus_per_host: f.u32()?,
                mem_gb_per_host: f.u32()?,
                nic_mbps: f.u64()?,
                ssd_cap: f.u64()?,
            },
            2 => FleetCommand::AddLink {
                a: f.u32()?,
                b: f.u32()?,
                latency_ns: f.u64()?,
            },
            3 => FleetCommand::CreateInstance {
                at: f.u64()?,
                vcpus: f.u32()?,
                mem_gb: f.u32()?,
                ssd: f.u32()?,
                nic_mbps: f.u32()?,
                home_pod: f.u32()?,
            },
            4 => FleetCommand::ResizeInstance {
                at: f.u64()?,
                id: f.u64()?,
                nic_mbps: f.u32()?,
                ssd: f.u32()?,
            },
            5 => FleetCommand::KillInstance {
                at: f.u64()?,
                id: f.u64()?,
            },
            6 => FleetCommand::QueryFleetState,
            7 => FleetCommand::MigrateInstance {
                at: f.u64()?,
                id: f.u64()?,
                dst_pod: f.u32()?,
                path: TransferPath::from_byte(f.u8()?)?,
            },
            8 => FleetCommand::FinishMigration {
                at: f.u64()?,
                id: f.u64()?,
                commit: f.bool()?,
            },
            9 => FleetCommand::RegisterNic {
                nic: f.u32()?,
                host: f.u32()?,
                capacity_mbps: f.u32()?,
                backup: f.bool()?,
            },
            10 => FleetCommand::Assign {
                ip: f.ip()?,
                host: f.u32()?,
                nic: f.u32()?,
                lease_mbps: f.u32()?,
            },
            11 => FleetCommand::Unassign { ip: f.ip()? },
            12 => FleetCommand::MarkFailed { nic: f.u32()? },
            13 => FleetCommand::MarkRepaired { nic: f.u32()? },
            14 => FleetCommand::RegisterSsd {
                ssd: f.u32()?,
                host: f.u32()?,
                capacity_blocks: f.u32()?,
            },
            15 => FleetCommand::AssignVolume {
                ip: f.ip()?,
                ssd: f.u32()?,
                base_block: f.u32()?,
                blocks: f.u32()?,
            },
            16 => FleetCommand::ReleaseVolumes { ip: f.ip()? },
            17 => FleetCommand::MarkHostFailed { host: f.u32()? },
            18 => FleetCommand::MarkHostRestarted { host: f.u32()? },
            19 => FleetCommand::RegisterAccel {
                accel: f.u32()?,
                host: f.u32()?,
            },
            _ => return None,
        };
        f.end(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_commands() {
        let cmds = vec![
            FleetCommand::RegisterNic {
                nic: 3,
                host: 1,
                capacity_mbps: 100_000,
                backup: true,
            },
            FleetCommand::Assign {
                ip: Ipv4Addr::instance(9),
                host: 2,
                nic: 0,
                lease_mbps: 10_000,
            },
            FleetCommand::Unassign {
                ip: Ipv4Addr::instance(9),
            },
            FleetCommand::MarkFailed { nic: 7 },
            FleetCommand::MarkRepaired { nic: 7 },
            FleetCommand::RegisterSsd {
                ssd: 2,
                host: 1,
                capacity_blocks: 4096,
            },
            FleetCommand::AssignVolume {
                ip: Ipv4Addr::instance(9),
                ssd: 2,
                base_block: 128,
                blocks: 256,
            },
            FleetCommand::ReleaseVolumes {
                ip: Ipv4Addr::instance(9),
            },
            FleetCommand::MarkHostFailed { host: 4 },
            FleetCommand::MarkHostRestarted { host: 4 },
            FleetCommand::RegisterAccel { accel: 1, host: 3 },
        ];
        for c in cmds {
            assert_eq!(FleetCommand::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(FleetCommand::decode(&[]).is_none());
        assert!(FleetCommand::decode(&[99]).is_none());
        assert!(FleetCommand::decode(&[9, 0]).is_none());
    }

    #[test]
    fn roundtrip_all_fleet_commands() {
        let cmds = vec![
            FleetCommand::RegisterPod {
                pod: 63,
                hosts: 8,
                vcpus_per_host: 96,
                mem_gb_per_host: 512,
                nic_mbps: 700_000,
                ssd_cap: 98_304,
            },
            FleetCommand::AddLink {
                a: 0,
                b: 63,
                latency_ns: 2_000,
            },
            FleetCommand::CreateInstance {
                at: u64::MAX / 3,
                vcpus: 16,
                mem_gb: 64,
                ssd: 512,
                nic_mbps: 10_000,
                home_pod: ANY_POD,
            },
            FleetCommand::ResizeInstance {
                at: 7,
                id: 100_001,
                nic_mbps: 45_000,
                ssd: 2_048,
            },
            FleetCommand::KillInstance { at: 9, id: 100_001 },
            FleetCommand::QueryFleetState,
            FleetCommand::MigrateInstance {
                at: 11,
                id: 42,
                dst_pod: 63,
                path: TransferPath::Cxl,
            },
            FleetCommand::MigrateInstance {
                at: 12,
                id: 43,
                dst_pod: 0,
                path: TransferPath::Nic,
            },
            FleetCommand::FinishMigration {
                at: 13,
                id: 42,
                commit: true,
            },
            FleetCommand::FinishMigration {
                at: 14,
                id: 43,
                commit: false,
            },
        ];
        for c in cmds {
            assert_eq!(FleetCommand::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn unknown_transfer_path_rejected() {
        let mut bytes = FleetCommand::MigrateInstance {
            at: 1,
            id: 2,
            dst_pod: 3,
            path: TransferPath::Nic,
        }
        .encode();
        *bytes.last_mut().unwrap() = 9;
        assert!(FleetCommand::decode(&bytes).is_none());
        assert!(TransferPath::from_byte(2).is_none());
    }

    #[test]
    fn malformed_fleet_rejected() {
        assert!(FleetCommand::decode(&[]).is_none());
        assert!(FleetCommand::decode(&[77]).is_none());
        assert!(FleetCommand::decode(&[3, 1, 2]).is_none());
        // Truncated RegisterPod: header plus only one u32.
        let mut short = FleetCommand::RegisterPod {
            pod: 0,
            hosts: 1,
            vcpus_per_host: 96,
            mem_gb_per_host: 512,
            nic_mbps: 1,
            ssd_cap: 1,
        }
        .encode();
        short.truncate(5);
        assert!(FleetCommand::decode(&short).is_none());
    }
}
