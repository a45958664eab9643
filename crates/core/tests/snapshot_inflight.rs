//! Pod snapshot bytes pinned **with work in flight** (ISSUE 22).
//!
//! `tests/data/snapshot_v1.bin` pins a quiesced, storage-only pod. This
//! test stops a pod with an SSD *and* an accelerator mid-flight — commands
//! pending with burnt retry attempts, dedup caches populated, completions
//! the caller has not drained — and holds `Pod::snapshot()` to a digest
//! recorded by running this same file at the parent commit (dc1ae6a, the
//! hand-written storage and accel engines), so the one generic
//! request/response engine provably writes the two old engines' bytes.
//! The same snapshot then goes through every truncation and a seeded set
//! of single-bit flips: `Pod::restore` answers `Ok` or a typed
//! `SnapshotError`, never a panic or an allocation abort.

use oasis_accel::{AccelConfig, AccelOp};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::metrics as m;
use oasis_core::pod::{Pod, PodBuilder};
use oasis_sim::fault::{FaultKind, FaultPlan, SsdFaultMode};
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

/// FNV-1a of the mid-flight snapshot, recorded at the parent commit. The
/// `issued` timestamp of a pending command is real with `obs` and zero
/// without (same length either way), hence one constant per build.
const PARENT_DIGEST: u64 = if cfg!(feature = "obs") {
    0xb273_5726_f6a4_beb2
} else {
    0x1034_90c9_e561_178d
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag ^ (i as u8)).collect()
}

/// Two consuming hosts and one device host carrying a NIC, an SSD and an
/// accelerator. Source and restore target are both built here.
fn build() -> (Pod, [usize; 2]) {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let h1 = b.add_host();
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);
    pod.launch_instance(h1, AppKind::None, 1_000);
    (pod, [h0, h1])
}

/// Drive the pod to the pinned mid-flight state.
fn midflight() -> (Pod, [usize; 2]) {
    let (mut pod, hosts) = build();
    let [h0, h1] = hosts;
    let v0 = pod.create_volume(0, 64).expect("capacity");
    let v1 = pod.create_volume(1, 64).expect("capacity");
    // The SSD swallows everything submitted in [1 ms, 4 ms].
    pod.install_fault_plan(&FaultPlan::seeded(22).at(
        SimTime::from_millis(1),
        FaultKind::SsdFault {
            ssd: 0,
            mode: SsdFaultMode::Timeout,
            duration: SimDuration::from_millis(3),
        },
    ));

    // Phase 1, no fault: writes and jobs complete and are *not* drained,
    // so `done` queues and the backends' dedup caches hold entries.
    for lba in 0..6u64 {
        let data = payload(lba as u8, BLOCK_SIZE as usize);
        pod.volume_write(v0, lba, &data).expect("write accepted");
    }
    pod.volume_write(v1, 0, &payload(0xB1, 2 * BLOCK_SIZE as usize))
        .expect("write accepted");
    for tag in 0..3u8 {
        pod.submit_accel_job(h0, AccelOp::Checksum, 0, &payload(tag, 64 << 10))
            .expect("accel engine")
            .expect("not backpressured");
    }
    pod.submit_accel_job(h1, AccelOp::Scale, 3, &payload(0x51, 4096))
        .expect("accel engine")
        .expect("not backpressured");
    pod.run(SimTime::from_micros(900));

    // Phase 2, inside the swallow window: reads time out once (2 ms) and
    // are resubmitted, so they sit in `pending` with two attempts burnt.
    pod.run(SimTime::from_micros(1_100));
    for lba in 0..4u64 {
        pod.volume_read(v0, lba, 2).expect("read accepted");
    }
    pod.volume_read(v1, 0, 1).expect("read accepted");
    pod.run(SimTime::from_micros(3_300));

    // Phase 3: fresh 64 KiB jobs and a write, stopped before they finish.
    for tag in 8..11u8 {
        pod.submit_accel_job(h0, AccelOp::Checksum, 0, &payload(tag, 64 << 10))
            .expect("accel engine")
            .expect("not backpressured");
    }
    pod.volume_write(v1, 9, &payload(0xB9, BLOCK_SIZE as usize))
        .expect("write accepted");
    pod.run(SimTime::from_micros(3_304));
    (pod, hosts)
}

#[test]
fn midflight_snapshot_matches_the_parent_commit() {
    let (pod, [h0, h1]) = midflight();
    let (h0, h1) = (h0 as u32, h1 as u32);
    let ms = pod.metrics_snapshot();
    // The state really is mid-flight: pending on both engines, retries
    // burnt, completions delivered but undrained, dedup caches filled.
    assert_eq!(ms.counter(m::STORAGE_FE_INFLIGHT, h0), 4);
    assert_eq!(ms.counter(m::STORAGE_FE_INFLIGHT, h1), 2);
    assert_eq!(ms.counter(m::STORAGE_FE_RETRIES, h0), 4);
    assert_eq!(ms.counter(m::STORAGE_FE_COMPLETED, h0), 6);
    assert_eq!(ms.counter(m::ACCEL_FE_INFLIGHT, h0), 3);
    assert_eq!(ms.counter(m::ACCEL_FE_COMPLETED, h0), 3);
    assert_eq!(ms.counter(m::ACCEL_FE_COMPLETED, h1), 1);
    assert_eq!(ms.counter(m::STORAGE_BE_COMPLETIONS, 0), 7);
    assert_eq!(ms.counter(m::ACCEL_BE_COMPLETIONS, 0), 4);

    let snap = pod.snapshot();
    assert_eq!(
        fnv1a(&snap),
        PARENT_DIGEST,
        "{} snapshot bytes, digest {:#018x}: the engine sections moved",
        snap.len(),
        fnv1a(&snap)
    );

    // It restores into an identically built pod byte for byte.
    let (mut dst, _) = build();
    dst.restore(&snap).expect("restore succeeds");
    assert_eq!(dst.snapshot(), snap);
    // Device queues are outside the snapshot, so the restored frontends'
    // retry timers resubmit what was in flight; everything completes once.
    dst.run(SimTime::from_millis(30));
    let ios = dst.take_storage_completions(h0 as usize);
    assert_eq!(ios.len(), 6 + 4);
    assert!(ios.iter().all(|r| r.status.is_ok()));
    let jobs = dst.take_accel_completions(h0 as usize);
    assert_eq!(jobs.len(), 3 + 3);
    assert!(jobs.iter().all(|r| r.status.is_ok()));
    assert_eq!(dst.take_storage_completions(h1 as usize).len(), 1 + 2);
    assert_eq!(dst.take_accel_completions(h1 as usize).len(), 1);
}

#[test]
fn no_truncation_or_bit_flip_of_the_midflight_snapshot_panics() {
    let (pod, _) = midflight();
    let snap = pod.snapshot();
    // One long-lived target absorbs every half-applied corrupt restore
    // (as in `snapshot_version_skew.rs`): the no-panic contract cannot
    // depend on a pristine target.
    let (mut dst, _) = build();
    for len in 0..snap.len() {
        assert!(
            dst.restore(&snap[..len]).is_err(),
            "truncation to {len} bytes must fail with a typed error"
        );
    }
    // Seeded single-bit flips (splitmix64): `Ok` when the bit was
    // don't-care, a typed error otherwise.
    let mut state = 0xA515_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut bad = snap.clone();
    for _ in 0..4096 {
        let r = next();
        let (at, bit) = ((r >> 3) as usize % snap.len(), (r & 7) as u8);
        bad[at] ^= 1 << bit;
        let _ = dst.restore(&bad);
        bad[at] = snap[at];
    }
}
