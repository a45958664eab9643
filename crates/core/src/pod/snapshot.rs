//! Checkpoints: a pod's logical state as one schema-versioned snapshot.

use super::*;

impl Pod {
    /// Every snapshot-bearing component in canonical order: the allocator,
    /// then per-host drivers, net backends, storage frontends, storage
    /// backends, accel frontends, accel backends. [`Pod::snapshot`] and
    /// [`Pod::restore`] both walk this order, so the two stay in lockstep
    /// by construction.
    fn snapshot_parts(&self) -> Vec<&dyn Snapshottable> {
        let mut v: Vec<&dyn Snapshottable> = vec![&self.allocator];
        v.extend(self.engines().map(|(_, e)| e as &dyn Snapshottable));
        v
    }

    /// Mutable view of the same components, in the same order.
    fn snapshot_parts_mut(&mut self) -> Vec<&mut dyn Snapshottable> {
        let Pod {
            allocator,
            drivers,
            backends,
            storage,
            accel,
            ..
        } = self;
        let mut v: Vec<&mut dyn Snapshottable> = vec![allocator];
        v.extend(engines_mut(drivers, backends, storage, accel).map(|e| e as _));
        v
    }

    /// Serialize the pod's logical state into a schema-versioned snapshot:
    /// a `Meta` section (sim-time, crashed-host set, component count)
    /// followed by one `Engine` section per [`Snapshottable`] component in
    /// canonical order (allocator first, then every device engine).
    ///
    /// Channel ring contents, NIC/SSD/accel device queues, and endpoint
    /// state are *topology*, not snapshot state: checkpoints are taken at
    /// quiesce points (between [`Pod::run`] windows, after in-flight
    /// traffic drains) and restored into a pod built from the same
    /// configuration, exactly like `fleet_replay --checkpoint/--resume`.
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(self.parked_settled(), "observed in the middle of a run");
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::Meta);
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.dead_host.len() as u64);
        for &dead in &self.dead_host {
            w.put_bool(dead);
        }
        let parts = self.snapshot_parts();
        w.put_u64(parts.len() as u64);
        w.end_section();
        for part in parts {
            w.begin_section(SnapshotSection::Engine);
            part.snapshot_state(&mut w);
            w.end_section();
        }
        w.finish()
    }

    /// Restore a snapshot produced by [`Pod::snapshot`] on an identically
    /// built pod. On any error the pod is left partially restored and must
    /// be discarded; the snapshot bytes themselves are never modified.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        match self.apply(PodInput::Restore(bytes)) {
            Err(PodError::Snapshot(e)) => Err(e),
            _ => Ok(()),
        }
    }

    /// [`Pod::restore`]'s state replacement; nobody is parked any more.
    pub(super) fn restore_state(&mut self, bytes: &[u8]) -> Result<Option<u16>, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        let mut meta = r.section(SnapshotSection::Meta)?;
        let now = SimTime(meta.u64("pod sim-time")?);
        let hosts = meta.u64("pod host count")?;
        if hosts != self.dead_host.len() as u64 {
            return Err(SnapshotError::Corrupt("pod host count"));
        }
        let mut dead_host = Vec::with_capacity(hosts as usize);
        for _ in 0..hosts {
            dead_host.push(meta.bool("pod dead-host flag")?);
        }
        let parts_expected = meta.u64("pod component count")?;
        self.now = now;
        self.dead_host = dead_host;
        let mut restored = 0u64;
        for part in self.snapshot_parts_mut() {
            let mut er = r.section(SnapshotSection::Engine)?;
            part.restore_state(&mut er)?;
            restored += 1;
        }
        if restored != parts_expected {
            return Err(SnapshotError::Corrupt("pod component count"));
        }
        Ok(None)
    }
}
