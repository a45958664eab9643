//! Chaos harness: run a pod under a seeded [`FaultPlan`] and check the
//! end-to-end recovery invariants from §5.3.
//!
//! One run builds a four-host pod (allocator + echo + storage driver on
//! host 0, a crashable victim on host 1, the serving NIC + pooled SSD on
//! host 2, the backup NIC on host 3), installs a randomized fault schedule
//! drawn from all five fault classes, drives network and storage traffic
//! through the faults, lets the pod settle, and then audits:
//!
//! 1. **Exactly-once storage completion** — every accepted command id
//!    completes exactly once, even through SSD timeouts and retries.
//! 2. **No stale reads** — every successful read returns the last
//!    acknowledged write for that block.
//! 3. **No leaked pool regions** — outstanding pool bytes equal the
//!    baseline minus exactly the regions of reclaimed instances.
//! 4. **Allocator/raft consistency** — the service state machine replays
//!    from the committed log prefix.
//! 5. **Bounded failover windows** — host-failure detection latency stays
//!    within the heartbeat deadline plus scheduling slack, and the pod
//!    serves traffic again after the last fault (probe liveness).
//! 7. **Migration exactly-once** (ISSUE 10) — a seeded storm of live
//!    migrations against the replicated fleet state machine, where every
//!    open ticket is resolved by a crash-recovery outcome drawn from the
//!    same seed: commit, rollback, or a host crash mid-copy whose
//!    recovery retries the finishing command. After every command the
//!    capacity books must equal what the instance table plus open
//!    tickets derive (an instance's resources are held on exactly the
//!    pods the protocol says — never leaked on both sides, never
//!    dropped), and a duplicate `FinishMigration` delivery must degrade
//!    to a `Rejected` no-op that leaves the state byte-identical.
//!
//! Invariant 6 is the coherence sanitizer, which every chaos pod runs
//! (`PodBuilder::sanitize`): zero coherence errors, parked polling rounds
//! included. Everything is keyed off one seed, so a violation reproduces
//! exactly.

use std::fmt::Write as _;

use oasis_sim::detmap::DetMap;

use oasis_apps::stats::ClientStats;
use oasis_apps::udp::{EchoServer, Pacing, UdpClient};
use oasis_core::allocator::{
    FleetAllocator, FleetCommand, FleetResponse, FleetState, TransferPath,
};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_sim::fault::{FaultKind, FaultMix, FaultPlan};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_sim::SimRng;
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

/// Volume size in blocks; the write pattern touches each LBA at most once.
const VOL_BLOCKS: u64 = 512;

/// Everything a chaos run observed, sufficient to print a report and to
/// assert determinism (same seed ⇒ identical report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// The seed the fault plan (and nothing else) was drawn from.
    pub seed: u64,
    /// Fault classes present in the plan (labels from `FaultPlan::classes`).
    pub classes: Vec<&'static str>,
    /// Scheduled fault events.
    pub events: usize,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// Host-failure detections as `(host, silent_since_ns, detected_at_ns)`.
    pub detections: Vec<(u32, u64, u64)>,
    /// Storage commands accepted at submit time.
    pub storage_submitted: usize,
    /// Frontend retransmissions (timeout or media-error retries).
    pub storage_retries: u64,
    /// Commands that exhausted their retry budget (surfaced as errors).
    pub storage_retry_exhausted: u64,
    /// Replayed commands the backend answered from its dedup cache.
    pub storage_replays_answered: u64,
    /// Probe-phase echo traffic (sent, received) — liveness after recovery.
    pub probe: (u64, u64),
    /// Migration-storm tallies as `(started, committed, rolled back)`.
    pub migrations: (u64, u64, u64),
    /// Empty polls charged to parked engines that the sanitizer checked.
    pub charged_polls: u64,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Detection latencies (detected − last heartbeat) in nanoseconds.
    pub fn detection_latencies_ns(&self) -> Vec<u64> {
        self.detections.iter().map(|&(_, s, d)| d - s).collect()
    }

    /// Render a one-run human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "seed {:>4}: {} events [{}]",
            self.seed,
            self.events,
            self.classes.join(", ")
        )
        .unwrap();
        writeln!(
            out,
            "  storage: {} submitted, {} retries, {} exhausted, {} replays answered",
            self.storage_submitted,
            self.storage_retries,
            self.storage_retry_exhausted,
            self.storage_replays_answered
        )
        .unwrap();
        for &(host, silent, detected) in &self.detections {
            writeln!(
                out,
                "  detection: host {} silent at {:.4}s, detected at {:.4}s ({:.1} ms)",
                host,
                silent as f64 / 1e9,
                detected as f64 / 1e9,
                (detected - silent) as f64 / 1e6
            )
            .unwrap();
        }
        writeln!(out, "  probe: {}/{} echoed", self.probe.1, self.probe.0).unwrap();
        writeln!(
            out,
            "  migrations: {} started, {} committed, {} rolled back (exactly-once audit)",
            self.migrations.0, self.migrations.1, self.migrations.2
        )
        .unwrap();
        if self.passed() {
            writeln!(out, "  PASS").unwrap();
        } else {
            for v in &self.violations {
                writeln!(out, "  VIOLATION: {v}").unwrap();
            }
        }
        out
    }
}

/// One block's worth of a deterministic byte pattern for `tag`.
fn pattern(tag: u8) -> Vec<u8> {
    (0..BLOCK_SIZE as usize).map(|i| tag ^ (i as u8)).collect()
}

enum Io {
    Write { lba: u64, tag: u8 },
    Read { lba: u64 },
}

/// Recompute every pod's capacity books from first principles — the live
/// instance table plus the open migration tickets — and compare against
/// the incrementally maintained books. This is the "never both, never
/// neither" check: an instance holds CPU/memory on exactly its source host
/// plus (while a ticket is open) the ticket's reserved target host, and
/// device leases on exactly its device pod plus the ticket's target pod.
fn audit_migration_books(st: &FleetState) -> Option<String> {
    let mut vcpus: Vec<Vec<u32>> = st.pods.iter().map(|p| vec![0; p.hosts()]).collect();
    let mut mem: Vec<Vec<u32>> = st.pods.iter().map(|p| vec![0; p.hosts()]).collect();
    let mut nic: Vec<u64> = vec![0; st.pods.len()];
    let mut ssd: Vec<u64> = vec![0; st.pods.len()];
    for (id, slot) in st.instances.iter().enumerate() {
        let Some(inst) = slot else { continue };
        vcpus[inst.pod as usize][inst.host as usize] += inst.vcpus;
        mem[inst.pod as usize][inst.host as usize] += inst.mem_gb;
        nic[inst.device_pod as usize] += inst.nic_mbps as u64;
        ssd[inst.device_pod as usize] += inst.ssd as u64;
        if let Some(t) = st.migration(id as u64) {
            vcpus[t.dst_pod as usize][t.dst_host as usize] += inst.vcpus;
            mem[t.dst_pod as usize][t.dst_host as usize] += inst.mem_gb;
            nic[t.dst_pod as usize] += inst.nic_mbps as u64;
            ssd[t.dst_pod as usize] += inst.ssd as u64;
        }
    }
    for (p, pc) in st.pods.iter().enumerate() {
        if pc.host_vcpus_used != vcpus[p] || pc.host_mem_used != mem[p] {
            return Some(format!(
                "pod {p} CPU/mem books diverged: have {:?}/{:?}, derived {:?}/{:?}",
                pc.host_vcpus_used, pc.host_mem_used, vcpus[p], mem[p]
            ));
        }
        if pc.nic_mbps_used != nic[p] || pc.ssd_used != ssd[p] {
            return Some(format!(
                "pod {p} device books diverged: have nic {} ssd {}, derived nic {} ssd {}",
                pc.nic_mbps_used, pc.ssd_used, nic[p], ssd[p]
            ));
        }
    }
    None
}

/// Invariant 7: a seeded storm of live migrations against the replicated
/// fleet state machine, auditing that every migration is exactly-once.
///
/// Each round opens a ticket through the validated command API and then
/// resolves it with a crash-recovery outcome drawn from the seed:
///
/// * commit (the copy finished; the instance lands on the target),
/// * rollback (the copy was abandoned; the source keeps the instance), or
/// * **host crash mid-copy**: recovery decides the outcome once, and the
///   restarted driver then *re-delivers the identical `FinishMigration`*.
///   The duplicate must degrade to a `Rejected` no-op that leaves the
///   state byte-identical — completing on the target *and* rolling back
///   on the source would double-release, which the books audit catches.
///
/// After every command the capacity books are recomputed from the
/// instance table plus open tickets, and at the end the state must still
/// replay from the committed raft log. Returns
/// `(started, committed, aborted)`.
fn migration_storm(seed: u64, violations: &mut Vec<String>) -> (u64, u64, u64) {
    let mut alloc = FleetAllocator::new();
    let hosts = 4u32;
    for pod in 0..2u32 {
        let resp = alloc.execute(
            SimTime::ZERO,
            &FleetCommand::RegisterPod {
                pod,
                hosts,
                vcpus_per_host: 96,
                mem_gb_per_host: 512,
                nic_mbps: hosts as u64 * 100_000,
                ssd_cap: hosts as u64 * 12_288,
            },
        );
        assert!(resp.is_ok(), "pod registration cannot fail on a fresh log");
    }
    alloc
        .execute(
            SimTime::ZERO,
            &FleetCommand::AddLink {
                a: 0,
                b: 1,
                latency_ns: 1_000,
            },
        )
        .expect("first uplink");

    // A population of instances spread across both pods; leases are small
    // enough that either pod can always host a migrating twin.
    let mut ids: Vec<u64> = Vec::new();
    for i in 0..8u32 {
        match alloc.execute(
            SimTime::from_micros(i as u64),
            &FleetCommand::CreateInstance {
                at: i as u64 * 1_000,
                vcpus: 8 + (i % 3) * 4,
                mem_gb: 32,
                ssd: 1_024,
                nic_mbps: 10_000,
                home_pod: i % 2,
            },
        ) {
            Ok(FleetResponse::Created { id, .. }) => ids.push(id),
            other => panic!("seed population must place: {other:?}"),
        }
    }

    let mut rng = SimRng::new(seed ^ 0x4D16_7A7E);
    let mut at = 1_000_000u64; // command-time ns, strictly increasing
    for round in 0..24u64 {
        at += 1_000 + rng.range_u64(0, 5_000);
        let id = ids[rng.range_usize(0, ids.len())];
        let Some(Some(inst)) = alloc.state.instances.get(id as usize).copied() else {
            continue;
        };
        let dst_pod = 1 - inst.pod; // always migrate to the other pod
        let path = if rng.chance(0.5) {
            TransferPath::Cxl
        } else {
            TransferPath::Nic
        };
        let open = FleetCommand::MigrateInstance {
            at,
            id,
            dst_pod,
            path,
        };
        if alloc.execute(SimTime::from_nanos(at), &open).is_err() {
            continue; // target momentarily full — not a fault, try next round
        }
        if let Some(v) = audit_migration_books(&alloc.state) {
            violations.push(format!("migration round {round} (ticket open): {v}"));
        }

        at += 1_000 + rng.range_u64(0, 5_000);
        let scenario = rng.range_u64(0, 3);
        // Scenario 2 is the host crash mid-copy: recovery still decides a
        // single outcome (whatever the log's FinishMigration says), and
        // the restarted driver re-delivers that same command afterwards.
        let commit = match scenario {
            0 => true,
            1 => false,
            _ => rng.chance(0.5),
        };
        let finish = FleetCommand::FinishMigration { at, id, commit };
        match alloc.execute(SimTime::from_nanos(at), &finish) {
            Ok(FleetResponse::MigrationFinished { committed, .. }) if committed == commit => {}
            other => violations.push(format!(
                "migration round {round}: finish({commit}) answered {other:?}"
            )),
        }
        if scenario == 2 {
            let before = alloc.state.clone();
            let dup = alloc.state.apply(&finish);
            if dup != FleetResponse::Rejected {
                violations.push(format!(
                    "migration round {round}: duplicate finish answered {dup:?}, want Rejected"
                ));
            }
            if alloc.state != before {
                violations.push(format!(
                    "migration round {round}: duplicate finish mutated the fleet state"
                ));
            }
        }
        if let Some(v) = audit_migration_books(&alloc.state) {
            violations.push(format!("migration round {round} (ticket closed): {v}"));
        }
    }

    // One migration interrupted by a kill: the racing KillInstance must
    // release both sides (source resources and the target reservation).
    let id = ids[rng.range_usize(0, ids.len())];
    if let Some(Some(inst)) = alloc.state.instances.get(id as usize).copied() {
        at += 1_000;
        let open = FleetCommand::MigrateInstance {
            at,
            id,
            dst_pod: 1 - inst.pod,
            path: TransferPath::Cxl,
        };
        if alloc.execute(SimTime::from_nanos(at), &open).is_ok() {
            at += 1_000;
            alloc
                .execute(
                    SimTime::from_nanos(at),
                    &FleetCommand::KillInstance { at, id },
                )
                .expect("a live instance can always be killed");
            if alloc.state.migration(id).is_some() {
                violations.push("migration ticket survived a racing kill".into());
            }
            if let Some(v) = audit_migration_books(&alloc.state) {
                violations.push(format!("migration (kill racing copy): {v}"));
            }
        }
    }

    if !alloc.state.migrations.is_empty() {
        violations.push(format!(
            "migration tickets leaked open: {:?}",
            alloc.state.migrations
        ));
    }
    let st = &alloc.state;
    if st.migrations_started != st.migrations_committed + st.migrations_aborted {
        violations.push(format!(
            "migration counters unbalanced: {} started != {} committed + {} aborted",
            st.migrations_started, st.migrations_committed, st.migrations_aborted
        ));
    }
    if !alloc.consistent_with_log() {
        violations.push("fleet state diverged from the raft log after the migration storm".into());
    }
    (
        st.migrations_started,
        st.migrations_committed,
        st.migrations_aborted,
    )
}

/// Run one seeded chaos schedule to completion and audit the invariants.
pub fn run_chaos(seed: u64) -> ChaosReport {
    run_chaos_sharded(seed, None).0
}

/// [`run_chaos`] with an explicit shard worker-thread count (`None` keeps
/// the process-wide `OASIS_SHARD_THREADS` setting), also returning the
/// pod's final [`oasis_obs::MetricsSnapshot`] as JSON. The snapshot is the
/// associative merge the observability exporter performs, so comparing the
/// JSON across thread counts asserts the whole sanitized stack — not just
/// the invariant audit — is thread-count-invariant.
pub fn run_chaos_sharded(seed: u64, threads: Option<usize>) -> (ChaosReport, String) {
    let cfg = OasisConfig::default();
    let mut b = PodBuilder::new(cfg.clone());
    let h0 = b.add_host(); // echo instance + storage driver (never crashed)
    let h1 = b.add_host(); // victim instance (crash target)
    let h2 = b.add_nic_host(); // serving NIC 0
    let h3 = b.add_nic_host(); // backup NIC 1
    b.add_ssd(h2, SsdConfig::default()); // pooled SSD 0
    let mut pod = b.backup_nic_on(h3).sanitize().build();
    if let Some(n) = threads {
        pod.set_shard_threads(n);
    }

    let echo = pod.launch_instance(
        h0,
        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
        10_000,
    );
    let before_victim = pod.pool_outstanding();
    let victim = pod.launch_instance(
        h1,
        AppKind::Udp(Box::new(EchoServer::new(SimDuration::from_micros(1)))),
        10_000,
    );
    let victim_bytes = pod.pool_outstanding() - before_victim;
    let baseline_outstanding = pod.pool_outstanding();
    let vol = pod
        .create_volume(echo, VOL_BLOCKS)
        .expect("volume capacity");

    // Steady traffic through the fault window, to both instances.
    let main_stats = ClientStats::handle();
    pod.add_endpoint(Box::new(UdpClient::new(
        1,
        pod.instance_mac(echo),
        pod.instance_ip(echo),
        7,
        75 - 42,
        Pacing::FixedGap {
            gap: SimDuration::from_micros(500),
            count: 4_000, // 1ms .. ~2s
        },
        SimTime::from_millis(1),
        main_stats.clone(),
    )));
    let victim_stats = ClientStats::handle();
    pod.add_endpoint(Box::new(UdpClient::new(
        2,
        pod.instance_mac(victim),
        pod.instance_ip(victim),
        7,
        75 - 42,
        Pacing::FixedGap {
            gap: SimDuration::from_millis(1),
            count: 2_000, // 1ms .. ~2s
        },
        SimTime::from_millis(1),
        victim_stats.clone(),
    )));
    // Post-recovery liveness probe: fires well after the last fault has
    // been repaired and every failover has settled.
    let probe_stats = ClientStats::handle();
    pod.add_endpoint(Box::new(UdpClient::new(
        3,
        pod.instance_mac(echo),
        pod.instance_ip(echo),
        7,
        75 - 42,
        Pacing::FixedGap {
            gap: SimDuration::from_micros(200),
            count: 2_500, // 3s .. 3.5s
        },
        SimTime::from_secs(3),
        probe_stats.clone(),
    )));

    // Five fault classes over a 2-second horizon. NIC 1 stays out of the
    // mix so the pod always has a working backup; the allocator host
    // (core 0) is excluded by construction.
    let horizon = SimDuration::from_secs(2);
    let mix = FaultMix {
        hosts: vec![h1],
        nics: vec![0],
        ssds: vec![0],
        accels: vec![],
        events: 6,
    };
    let plan = FaultPlan::randomized(seed, horizon, &mix);
    let classes = plan.classes();
    let events = plan.events.len();
    pod.install_fault_plan(&plan);

    // Flapped ports come back at the link level, but re-admitting the NIC
    // for placement is an operator action — schedule it off the plan.
    let mut repairs: Vec<(SimTime, usize)> = plan
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::PortFlap { nic, down_for } => Some((
                ev.at + down_for + cfg.link_detect + SimDuration::from_millis(10),
                nic,
            )),
            _ => None,
        })
        .collect();
    repairs.sort_by_key(|&(at, nic)| (at, nic));
    repairs.reverse(); // pop() yields earliest first

    let mut violations: Vec<String> = Vec::new();
    let mut pending: DetMap<u16, Io> = DetMap::default();
    let mut completions: DetMap<u16, u32> = DetMap::default();
    let mut shadow: DetMap<u64, u8> = DetMap::default();
    let mut acked: Vec<u64> = Vec::new();
    let mut submitted = 0usize;

    let slice = SimDuration::from_millis(10);
    let submit_until = SimTime::from_millis(2_400);
    let end = SimTime::from_millis(3_600);
    let mut now = SimTime::ZERO;
    let mut round = 0u64;
    while now < end {
        now += slice;
        while let Some(&(at, nic)) = repairs.last() {
            if at > now {
                break;
            }
            repairs.pop();
            pod.apply(PodInput::MarkNicRepaired(nic)).unwrap();
        }
        if now <= submit_until {
            // One write to a never-before-written LBA (rounds < VOL_BLOCKS,
            // so the shadow copy is unambiguous even with I/O in flight) …
            let lba = round % VOL_BLOCKS;
            let tag = (seed as u8) ^ (round as u8);
            if let Some(cid) = pod.volume_write(vol, lba, &pattern(tag)) {
                pending.insert(cid, Io::Write { lba, tag });
                submitted += 1;
            }
            // … and one read of a previously acknowledged LBA.
            if !acked.is_empty() {
                let lba = acked[(round as usize * 7 + seed as usize) % acked.len()];
                if let Some(cid) = pod.volume_read(vol, lba, 1) {
                    pending.insert(cid, Io::Read { lba });
                    submitted += 1;
                }
            }
            round += 1;
        }
        pod.run(now);
        for r in pod.take_storage_completions(h0) {
            *completions.entry(r.cid).or_insert(0) += 1;
            match pending.remove(&r.cid) {
                Some(Io::Write { lba, tag }) if r.status.is_ok() => {
                    shadow.insert(lba, tag);
                    acked.push(lba);
                }
                Some(Io::Read { lba }) if r.status.is_ok() => {
                    let expect = pattern(shadow[&lba]);
                    if r.data.as_deref() != Some(&expect[..]) {
                        violations.push(format!("stale read at lba {lba} (cid {})", r.cid));
                    }
                }
                // Errored commands carry no data; duplicate completions
                // (None) are counted above and flagged at the end.
                Some(_) | None => {}
            }
        }
    }

    // 1. Exactly-once completion for every accepted command.
    if !pending.is_empty() {
        let mut cids: Vec<u16> = pending.keys().copied().collect();
        cids.sort_unstable();
        violations.push(format!("commands never completed: {cids:?}"));
    }
    let mut dups: Vec<(u16, u32)> = completions
        .iter()
        .filter(|&(_, &n)| n != 1)
        .map(|(&cid, &n)| (cid, n))
        .collect();
    dups.sort_unstable();
    if !dups.is_empty() {
        violations.push(format!("commands completed more than once: {dups:?}"));
    }

    // 3. No leaked pool regions: outstanding bytes equal the baseline
    // minus exactly the reclaimed victim regions.
    let detections: Vec<(u32, u64, u64)> = pod
        .allocator
        .actor
        .host_failure_detections
        .iter()
        .map(|&(h, s, d)| (h, s.as_nanos(), d.as_nanos()))
        .collect();
    let victim_reclaimed = detections.iter().any(|&(h, _, _)| h as usize == h1);
    let expected = baseline_outstanding - if victim_reclaimed { victim_bytes } else { 0 };
    if pod.pool_outstanding() != expected {
        violations.push(format!(
            "pool regions leaked: outstanding {} != expected {expected}",
            pod.pool_outstanding()
        ));
    }

    // 4. Allocator state must replay from the committed raft log.
    if !pod.allocator.actor.consistent_with_log() {
        violations.push("allocator state diverged from the raft log".into());
    }

    // 5a. Bounded failover windows: detection latency within the heartbeat
    // deadline plus one heartbeat period (pre-crash silence) and slack.
    let deadline = cfg.heartbeat_period * 3 + cfg.allocator_poll * 2;
    let ceiling = deadline + cfg.heartbeat_period + SimDuration::from_millis(50);
    for &(host, silent, detected) in &detections {
        let lat = detected - silent;
        if lat <= deadline.as_nanos() || lat > ceiling.as_nanos() {
            violations.push(format!(
                "host {host} detection latency {:.1} ms outside ({:.1}, {:.1}] ms",
                lat as f64 / 1e6,
                deadline.as_nanos() as f64 / 1e6,
                ceiling.as_nanos() as f64 / 1e6
            ));
        }
    }

    // 5b. Probe liveness: the surviving instance answers after recovery.
    let probe = {
        let s = probe_stats.borrow();
        (s.sent, s.received)
    };
    if probe.1 == 0 {
        violations.push("no echo traffic after recovery (probe starved)".into());
    }

    // 6. Coherence protocol: the drivers' declared publish/acquire points
    // and the parked engines' charged polls must stay clean through every
    // injected fault — crashes included.
    let san = pod.pool.sanitizer().expect("the chaos pod is sanitized");
    if san.error_count() > 0 {
        violations.push(format!("coherence sanitizer: {}", san.summary()));
        for r in san.reports().iter().take(10) {
            violations.push(format!("  {r}"));
        }
    }
    let charged_polls = san.charged_polls();

    // 7. Migration exactly-once: the seeded storm against the fleet state
    // machine, with crash-retry duplicate deliveries and a books audit
    // after every command.
    let migrations = migration_storm(seed, &mut violations);

    // Storage accounting comes out of the pod's canonical metrics snapshot
    // rather than poking engine fields directly, so the chaos report prints
    // the same numbers the observability exporter would.
    let snap = pod.metrics_snapshot();
    use oasis_core::metrics as m;
    let report = ChaosReport {
        seed,
        classes,
        events,
        violations,
        detections,
        storage_submitted: submitted,
        storage_retries: snap.counter(m::STORAGE_FE_RETRIES, h0 as u32),
        storage_retry_exhausted: snap.counter(m::STORAGE_FE_RETRY_EXHAUSTED, h0 as u32),
        storage_replays_answered: snap.counter(m::STORAGE_BE_REPLAYS_ANSWERED, 0),
        probe,
        migrations,
        charged_polls,
    };
    (report, snap.to_json())
}
