//! The device books: a pod's NICs, SSDs, accelerators and the leases and
//! volumes carved out of them (§3.5).
//!
//! They are the device half of the one replicated [`FleetState`]: a pod's
//! control actor ([`super::ControlActor`]) picks a device with the
//! `pick_*` queries here and logs the choice as a device
//! [`FleetCommand`]; [`FleetState::apply`] hands those commands to
//! [`DeviceBooks::apply`]. Nothing here reads a clock: telemetry times and
//! lease expiries are the actor's own, so a replayed log reproduces the
//! books exactly.
//!
//! [`FleetState`]: super::FleetState
//! [`FleetState::apply`]: super::FleetState::apply

use oasis_net::addr::Ipv4Addr;

use super::command::FleetCommand;
use super::fleet::FleetResponse;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// A NIC known to the allocator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NicInfo {
    /// Host the NIC is attached to.
    pub host: u32,
    /// Allocatable bandwidth, Mbit/s.
    pub capacity_mbps: u32,
    /// Currently leased bandwidth, Mbit/s.
    pub allocated_mbps: u32,
    /// Reserved as the pod's failover backup.
    pub backup: bool,
    /// Marked failed.
    pub failed: bool,
}

/// An instance's NIC lease.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Instance IP.
    pub ip: Ipv4Addr,
    /// Instance host.
    pub host: u32,
    /// Serving NIC.
    pub nic: u32,
    /// Leased bandwidth, Mbit/s.
    pub lease_mbps: u32,
}

/// An SSD known to the allocator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsdInfo {
    /// Host the SSD is attached to.
    pub host: u32,
    /// Allocatable capacity in blocks.
    pub capacity_blocks: u32,
    /// Next unallocated block (volumes are carved bump-style; released
    /// capacity is reclaimed only when the SSD drains, like real
    /// ephemeral-store slabs).
    pub next_block: u32,
    /// Blocks currently leased.
    pub allocated_blocks: u32,
}

/// A compute-offload accelerator known to the allocator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccelInfo {
    /// Host the accelerator is attached to.
    pub host: u32,
}

/// A block volume carved for an instance (§3.4: local NVMe is ephemeral).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeInfo {
    /// Owning instance IP.
    pub ip: Ipv4Addr,
    /// SSD the volume lives on.
    pub ssd: u32,
    /// First block.
    pub base_block: u32,
    /// Length in blocks.
    pub blocks: u32,
}

/// The device books of one pod: every table a device command mutates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceBooks {
    /// NICs by id.
    pub nics: Vec<Option<NicInfo>>,
    /// NIC leases, one per instance.
    pub instances: Vec<InstanceInfo>,
    /// SSDs by id.
    pub ssds: Vec<Option<SsdInfo>>,
    /// Accelerators by id.
    pub accels: Vec<Option<AccelInfo>>,
    /// Volumes.
    pub volumes: Vec<VolumeInfo>,
    /// Hosts currently declared dead, sorted ascending.
    pub failed_hosts: Vec<u32>,
}

/// Put `value` in slot `id`, growing the table with empty slots.
fn put<T>(table: &mut Vec<Option<T>>, id: u32, value: T) {
    let idx = id as usize;
    if table.len() <= idx {
        table.resize_with(idx + 1, || None);
    }
    table[idx] = Some(value);
}

/// `(id, entry)` for every occupied slot of a device table.
pub(super) fn present<T>(table: &[Option<T>]) -> impl Iterator<Item = (usize, &T)> {
    table
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
}

impl DeviceBooks {
    /// Apply a committed device command. The fleet-scope commands are
    /// [`FleetState::apply`](super::FleetState::apply)'s own and never
    /// reach here.
    pub(super) fn apply(&mut self, cmd: &FleetCommand) -> FleetResponse {
        match *cmd {
            FleetCommand::RegisterNic {
                nic,
                host,
                capacity_mbps,
                backup,
            } => put(
                &mut self.nics,
                nic,
                NicInfo {
                    host,
                    capacity_mbps,
                    allocated_mbps: 0,
                    backup,
                    failed: false,
                },
            ),
            FleetCommand::Assign {
                ip,
                host,
                nic,
                lease_mbps,
            } => {
                // Release any previous assignment first.
                self.release(ip);
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.allocated_mbps = n.allocated_mbps.saturating_add(lease_mbps);
                }
                self.instances.push(InstanceInfo {
                    ip,
                    host,
                    nic,
                    lease_mbps,
                });
            }
            FleetCommand::Unassign { ip } => self.release(ip),
            FleetCommand::MarkFailed { nic } => {
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.failed = true;
                }
            }
            FleetCommand::MarkRepaired { nic } => {
                if let Some(Some(n)) = self.nics.get_mut(nic as usize) {
                    n.failed = false;
                }
            }
            FleetCommand::RegisterSsd {
                ssd,
                host,
                capacity_blocks,
            } => put(
                &mut self.ssds,
                ssd,
                SsdInfo {
                    host,
                    capacity_blocks,
                    next_block: 0,
                    allocated_blocks: 0,
                },
            ),
            FleetCommand::AssignVolume {
                ip,
                ssd,
                base_block,
                blocks,
            } => {
                // Saturating: applying a logged command cannot fail, and
                // `pick_ssd` never proposes a volume that overflows.
                if let Some(Some(s)) = self.ssds.get_mut(ssd as usize) {
                    s.next_block = s.next_block.max(base_block.saturating_add(blocks));
                    s.allocated_blocks = s.allocated_blocks.saturating_add(blocks);
                }
                self.volumes.push(VolumeInfo {
                    ip,
                    ssd,
                    base_block,
                    blocks,
                });
            }
            FleetCommand::ReleaseVolumes { ip } => self.release_volumes(ip),
            FleetCommand::MarkHostFailed { host } => {
                if let Err(at) = self.failed_hosts.binary_search(&host) {
                    self.failed_hosts.insert(at, host);
                }
                // Everything the dead host's instances held goes back to
                // the pool of allocatable resources: NIC leases and
                // volumes. Nothing may leak while the host is down.
                let dead: Vec<Ipv4Addr> = self
                    .instances
                    .iter()
                    .filter(|i| i.host == host)
                    .map(|i| i.ip)
                    .collect();
                for ip in dead {
                    self.release(ip);
                    self.release_volumes(ip);
                }
            }
            FleetCommand::MarkHostRestarted { host } => {
                if let Ok(at) = self.failed_hosts.binary_search(&host) {
                    self.failed_hosts.remove(at);
                }
            }
            FleetCommand::RegisterAccel { accel, host } => {
                put(&mut self.accels, accel, AccelInfo { host })
            }
            FleetCommand::RegisterPod { .. }
            | FleetCommand::AddLink { .. }
            | FleetCommand::CreateInstance { .. }
            | FleetCommand::ResizeInstance { .. }
            | FleetCommand::KillInstance { .. }
            | FleetCommand::QueryFleetState
            | FleetCommand::MigrateInstance { .. }
            | FleetCommand::FinishMigration { .. } => return FleetResponse::Rejected,
        }
        FleetResponse::Booked
    }

    fn release_volumes(&mut self, ip: Ipv4Addr) {
        let mut freed: Vec<(u32, u32)> = Vec::new();
        self.volumes.retain(|v| {
            if v.ip == ip {
                freed.push((v.ssd, v.blocks));
                false
            } else {
                true
            }
        });
        for (ssd, blocks) in freed {
            if let Some(Some(s)) = self.ssds.get_mut(ssd as usize) {
                s.allocated_blocks = s.allocated_blocks.saturating_sub(blocks);
                if s.allocated_blocks == 0 {
                    s.next_block = 0;
                }
            }
        }
    }

    fn release(&mut self, ip: Ipv4Addr) {
        if let Some(pos) = self.instances.iter().position(|i| i.ip == ip) {
            let inst = self.instances.remove(pos);
            if let Some(Some(n)) = self.nics.get_mut(inst.nic as usize) {
                n.allocated_mbps = n.allocated_mbps.saturating_sub(inst.lease_mbps);
            }
        }
    }

    /// Local-first, then least-loaded placement (§3.5). Backup NICs are
    /// kept underutilized: only instances local to the backup's host use it
    /// (§3.3.3).
    pub fn pick_nic(&self, host: u32, lease_mbps: u32) -> Option<u32> {
        let usable = |id: usize, n: &NicInfo, local: bool| {
            !n.failed
                && n.allocated_mbps.saturating_add(lease_mbps) <= n.capacity_mbps
                && (!n.backup || (local && n.host == host))
                && id < u32::MAX as usize
        };
        // Local first.
        if let Some((id, _)) =
            present(&self.nics).find(|&(i, n)| n.host == host && usable(i, n, true))
        {
            return Some(id as u32);
        }
        // Otherwise least allocated.
        present(&self.nics)
            .filter(|&(i, n)| usable(i, n, false))
            .min_by_key(|&(_, n)| n.allocated_mbps)
            .map(|(i, _)| i as u32)
    }

    /// The designated backup NIC, if registered and healthy.
    pub fn backup_nic(&self) -> Option<u32> {
        present(&self.nics)
            .find(|(_, n)| n.backup && !n.failed)
            .map(|(i, _)| i as u32)
    }

    /// Pick an SSD for a volume: local-first, then the SSD with the most
    /// free contiguous space (§3.5's local-first policy applied to the
    /// storage dimension; pooling makes remote capacity usable, which is
    /// the Fig. 2 benefit). A volume whose end would overflow the block
    /// address space fits nowhere.
    pub fn pick_ssd(&self, host: u32, blocks: u32) -> Option<u32> {
        let fits = |s: &SsdInfo| {
            s.next_block
                .checked_add(blocks)
                .is_some_and(|end| end <= s.capacity_blocks)
        };
        if let Some((id, _)) = present(&self.ssds).find(|(_, s)| s.host == host && fits(s)) {
            return Some(id as u32);
        }
        present(&self.ssds)
            .filter(|(_, s)| fits(s))
            .max_by_key(|(_, s)| s.capacity_blocks - s.next_block)
            .map(|(i, _)| i as u32)
    }

    /// Pick an accelerator for a host's jobs: local-first, then the
    /// lowest-numbered remote device (§3.5's local-first policy applied to
    /// the compute dimension; pooling makes remote accelerators usable at
    /// all).
    pub fn pick_accel(&self, host: u32) -> Option<u32> {
        if let Some((id, _)) = present(&self.accels).find(|(_, a)| a.host == host) {
            return Some(id as u32);
        }
        present(&self.accels).next().map(|(i, _)| i as u32)
    }

    /// Instances currently served by `nic`.
    pub fn instances_on(&self, nic: u32) -> Vec<InstanceInfo> {
        self.instances
            .iter()
            .filter(|i| i.nic == nic)
            .cloned()
            .collect()
    }

    /// The pod-local capacity summary the fleet layer places against:
    /// `(nic_mbps, ssd_blocks)` of allocatable capacity. The backup NIC is
    /// excluded — it is reserved for failover (§3.3.3), not for leases —
    /// and failed devices don't count.
    pub fn capacity_summary(&self) -> (u64, u64) {
        let nic_mbps = self
            .nics
            .iter()
            .flatten()
            .filter(|n| !n.backup && !n.failed)
            .map(|n| n.capacity_mbps as u64)
            .sum();
        let ssd_blocks = self
            .ssds
            .iter()
            .flatten()
            .map(|s| s.capacity_blocks as u64)
            .sum();
        (nic_mbps, ssd_blocks)
    }

    /// Write the books in the layout of a pod snapshot's allocator
    /// section. `nic_extra` and `lease_extra` append the pod actor's own
    /// fields right after each NIC and each lease (a fleet checkpoint
    /// appends nothing).
    pub(super) fn write(
        &self,
        w: &mut SnapshotWriter,
        mut nic_extra: impl FnMut(&mut SnapshotWriter, usize),
        mut lease_extra: impl FnMut(&mut SnapshotWriter, Ipv4Addr),
    ) {
        w.put_slots(&self.nics, |w, id, n| {
            w.put_u32(n.host);
            w.put_u32(n.capacity_mbps);
            w.put_u32(n.allocated_mbps);
            w.put_bool(n.backup);
            w.put_bool(n.failed);
            nic_extra(w, id);
        });
        w.put_list(&self.instances, |w, i| {
            w.put_u32(u32::from_le_bytes(i.ip.0));
            w.put_u32(i.host);
            w.put_u32(i.nic);
            w.put_u32(i.lease_mbps);
            lease_extra(w, i.ip);
        });
        w.put_slots(&self.ssds, |w, _, d| {
            w.put_u32(d.host);
            w.put_u32(d.capacity_blocks);
            w.put_u32(d.next_block);
            w.put_u32(d.allocated_blocks);
        });
        w.put_slots(&self.accels, |w, _, a| w.put_u32(a.host));
        w.put_list(&self.volumes, |w, v| {
            w.put_u32(u32::from_le_bytes(v.ip.0));
            w.put_u32(v.ssd);
            w.put_u32(v.base_block);
            w.put_u32(v.blocks);
        });
        w.put_list(&self.failed_hosts, |w, &h| w.put_u32(h));
    }

    /// Inverse of [`write`](Self::write), with the matching readers for
    /// the actor's fields.
    pub(super) fn read<'r>(
        r: &mut SnapshotReader<'r>,
        mut nic_extra: impl FnMut(&mut SnapshotReader<'r>, usize) -> Result<(), SnapshotError>,
        mut lease_extra: impl FnMut(&mut SnapshotReader<'r>, Ipv4Addr) -> Result<(), SnapshotError>,
    ) -> Result<DeviceBooks, SnapshotError> {
        let nics = r.slots("alloc nic", |r, id| {
            let nic = NicInfo {
                host: r.u32("alloc nic host")?,
                capacity_mbps: r.u32("alloc nic capacity")?,
                allocated_mbps: r.u32("alloc nic allocated")?,
                backup: r.bool("alloc nic backup")?,
                failed: r.bool("alloc nic failed")?,
            };
            nic_extra(r, id)?;
            Ok(nic)
        })?;
        let instances = r.list("alloc instance", |r| {
            let lease = InstanceInfo {
                ip: Ipv4Addr(r.u32("alloc instance ip")?.to_le_bytes()),
                host: r.u32("alloc instance host")?,
                nic: r.u32("alloc instance nic")?,
                lease_mbps: r.u32("alloc instance lease")?,
            };
            lease_extra(r, lease.ip)?;
            Ok(lease)
        })?;
        let ssds = r.slots("alloc ssd", |r, _| {
            Ok(SsdInfo {
                host: r.u32("alloc ssd host")?,
                capacity_blocks: r.u32("alloc ssd capacity")?,
                next_block: r.u32("alloc ssd next")?,
                allocated_blocks: r.u32("alloc ssd allocated")?,
            })
        })?;
        let accels = r.slots("alloc accel", |r, _| {
            Ok(AccelInfo {
                host: r.u32("alloc accel host")?,
            })
        })?;
        let volumes = r.list("alloc volume", |r| {
            Ok(VolumeInfo {
                ip: Ipv4Addr(r.u32("alloc volume ip")?.to_le_bytes()),
                ssd: r.u32("alloc volume ssd")?,
                base_block: r.u32("alloc volume base")?,
                blocks: r.u32("alloc volume blocks")?,
            })
        })?;
        Ok(DeviceBooks {
            nics,
            instances,
            ssds,
            accels,
            volumes,
            failed_hosts: r.list("alloc failed host", |r| r.u32("alloc failed host"))?,
        })
    }
}
