//! Version-skew goldens for the snapshot container (ISSUE 10).
//!
//! `tests/data/snapshot_v1.bin` is a *committed* v1 pod snapshot: the
//! deterministic pod built below, serialized by the v1 writer (payload
//! layout unchanged since; the container version byte says 1). The
//! current decoder must either upgrade it in place or reject it with a
//! typed [`SnapshotError`] — it must never panic across schema bumps
//! (the runtime crates deny `clippy::panic`).
//!
//! Regenerate after an *intentional* v1-compatible layout change with:
//! `cargo test -p oasis-core --test snapshot_version_skew -- --ignored`

use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder, VolumeHandle};
use oasis_core::snapshot::{SnapshotError, SNAPSHOT_MIN_VERSION, SNAPSHOT_SCHEMA_VERSION};
use oasis_sim::time::SimTime;
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/snapshot_v1.bin");

/// Offset of the little-endian u32 container version (after the magic).
const VERSION_OFFSET: usize = 8;

fn block(tag: u8) -> Vec<u8> {
    (0..BLOCK_SIZE as usize).map(|i| tag ^ (i as u8)).collect()
}

/// The fixture pod: identical to the one the committed snapshot was taken
/// from (the sim is deterministic, so rebuilding it reproduces the exact
/// quiesced state the snapshot holds).
fn build_fixture_pod() -> (Pod, usize, VolumeHandle) {
    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host();
    let host_b = b.add_nic_host();
    b.add_ssd(host_b, SsdConfig::default());
    let mut pod = b.build();
    pod.launch_instance(host_a, AppKind::None, 1_000);
    let vol = pod.create_volume(0, 32).expect("capacity");
    for lba in 0..4 {
        pod.volume_write(vol, lba, &block(lba as u8)).unwrap();
    }
    pod.run(SimTime::from_millis(3));
    assert_eq!(pod.take_storage_completions(host_a).len(), 4);
    (pod, host_a, vol)
}

fn read_fixture() -> Vec<u8> {
    std::fs::read(FIXTURE).expect("committed fixture tests/data/snapshot_v1.bin")
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(
        bytes[VERSION_OFFSET..VERSION_OFFSET + 4]
            .try_into()
            .unwrap(),
    )
}

fn with_version(bytes: &[u8], v: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[VERSION_OFFSET..VERSION_OFFSET + 4].copy_from_slice(&v.to_le_bytes());
    out
}

/// Writes the committed fixture: today's serialization with the container
/// version set back to 1 (the payload sections a pod writes are unchanged
/// since v1; v2 only *added* the FleetState/ReplayCursor section kinds).
#[test]
#[ignore = "regenerates the committed fixture; run explicitly"]
fn regenerate_v1_fixture() {
    let (pod, _, _) = build_fixture_pod();
    let v1 = with_version(&pod.snapshot(), 1);
    std::fs::write(FIXTURE, &v1).expect("write fixture");
}

#[test]
fn committed_fixture_is_v1() {
    let fixture = read_fixture();
    assert_eq!(version_of(&fixture), 1);
    assert!(
        (SNAPSHOT_MIN_VERSION..=SNAPSHOT_SCHEMA_VERSION).contains(&version_of(&fixture)),
        "the fixture version must stay inside the decoder's accepted range"
    );
}

#[test]
fn v1_fixture_restores_and_upgrades() {
    let fixture = read_fixture();
    let (mut pod, host, vol) = build_fixture_pod();
    pod.restore(&fixture)
        .expect("the v1 snapshot still decodes");

    // Re-snapshotting writes the current container version around the
    // same payload — the in-place upgrade path.
    let upgraded = pod.snapshot();
    assert_eq!(version_of(&upgraded), SNAPSHOT_SCHEMA_VERSION);
    assert_eq!(
        upgraded[VERSION_OFFSET + 4..],
        fixture[VERSION_OFFSET + 4..],
        "payload is version-independent for the sections a pod writes"
    );

    // And the upgraded pod still serves I/O from the restored sequence
    // state (media contents are device state outside the snapshot).
    pod.volume_write(vol, 9, &block(7)).unwrap();
    pod.run(SimTime::from_millis(6));
    let done = pod.take_storage_completions(host);
    assert_eq!(done.len(), 1);
    assert!(done[0].status.is_ok());
}

#[test]
fn future_version_is_rejected_with_a_typed_error() {
    let fixture = read_fixture();
    let (mut pod, _, _) = build_fixture_pod();
    let future = SNAPSHOT_SCHEMA_VERSION + 1;
    assert_eq!(
        pod.restore(&with_version(&fixture, future)),
        Err(SnapshotError::UnsupportedVersion(future))
    );
}

#[test]
fn pre_v1_version_is_rejected_with_a_typed_error() {
    let fixture = read_fixture();
    let (mut pod, _, _) = build_fixture_pod();
    assert_eq!(
        pod.restore(&with_version(&fixture, 0)),
        Err(SnapshotError::UnsupportedVersion(0))
    );
}

#[test]
fn no_truncation_of_the_fixture_panics() {
    let fixture = read_fixture();
    let (mut pod, _, _) = build_fixture_pod();
    for len in 0..fixture.len() {
        assert!(
            pod.restore(&fixture[..len]).is_err(),
            "truncation to {len} bytes must fail with a typed error"
        );
    }
}

#[test]
fn no_single_byte_corruption_of_the_fixture_panics() {
    let fixture = read_fixture();
    // Every single-byte flip must produce Ok (the byte was truly
    // don't-care) or a typed error — never a panic or an abort. One
    // long-lived target pod absorbs all the half-applied corrupt
    // restores: the decoder's no-panic contract cannot depend on the
    // target being pristine (building a pod per flip is also ~100x the
    // whole sweep's cost).
    let (mut pod, _, _) = build_fixture_pod();
    for i in 0..fixture.len() {
        let mut bad = fixture.clone();
        bad[i] ^= 0xA5;
        let _ = pod.restore(&bad);
    }
}
