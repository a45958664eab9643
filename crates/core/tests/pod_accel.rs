//! Pod-level accel-engine integration: pooled compute offload over the same
//! CXL pool, with deterministic fault injection exercising the retry and
//! replay paths — the end-to-end proof that the generic engine abstraction
//! carries a third device class.

use oasis_accel::{fnv1a, AccelConfig, AccelOp, AccelStatus};
use oasis_core::config::OasisConfig;
use oasis_core::error::PodError;
use oasis_core::instance::AppKind;
use oasis_core::pod::{PodBuilder, PodInput};
use oasis_sim::fault::{AccelFaultMode, FaultKind, FaultPlan};
use oasis_sim::time::{SimDuration, SimTime};

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag ^ (i as u8)).collect()
}

#[test]
fn host_without_local_accel_offloads_to_remote_device() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let host_a = b.add_host(); // instance host, no devices
    let host_b = b.add_nic_host(); // device host
    b.add_accel(host_b, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(host_a, AppKind::None, 1_000);

    // The allocator picks the remote accelerator (pooling makes it usable).
    let input = payload(0x5a, 4096);
    let cid = pod
        .submit_accel_job(host_a, AccelOp::Checksum, 0, &input)
        .expect("accel engine present")
        .expect("not backpressured");
    pod.run(SimTime::from_millis(2));
    let done = pod.take_accel_completions(host_a);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].cid, cid);
    assert!(done[0].status.is_ok());
    // The device DMA'd the input out of the pool and computed over the same
    // bytes the guest staged.
    assert_eq!(done[0].result, fnv1a(&input));
    assert_eq!(
        done[0].output.as_deref(),
        Some(&fnv1a(&input).to_le_bytes()[..])
    );
    assert_eq!(pod.accel_jobs_in_flight(host_a), 0);
}

#[test]
fn scale_jobs_transform_data_in_pool_memory() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);

    let input = payload(0x11, 512);
    pod.submit_accel_job(h0, AccelOp::Scale, 3, &input)
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(2));
    let done = pod.take_accel_completions(h0);
    assert_eq!(done.len(), 1);
    let expect: Vec<u8> = input.iter().map(|b| b.wrapping_mul(3)).collect();
    assert_eq!(done[0].output.as_deref(), Some(&expect[..]));
}

#[test]
fn two_hosts_share_one_accelerator() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let h1 = b.add_host();
    let dev = b.add_nic_host();
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);
    pod.launch_instance(h1, AppKind::None, 1_000);

    let in0 = payload(0xaa, 2048);
    let in1 = payload(0xbb, 2048);
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &in0)
        .unwrap()
        .unwrap();
    pod.submit_accel_job(h1, AccelOp::Checksum, 0, &in1)
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(2));
    let d0 = pod.take_accel_completions(h0);
    let d1 = pod.take_accel_completions(h1);
    assert_eq!(d0.len(), 1);
    assert_eq!(d1.len(), 1);
    assert_eq!(d0[0].result, fnv1a(&in0));
    assert_eq!(d1[0].result, fnv1a(&in1));
}

#[test]
fn injected_fault_windows_are_survived_by_retries() {
    // A timeout window swallows jobs whole and a compute-error window
    // completes them with a transient error; both are escaped by the paced
    // retry deadline. They must be invisible to the caller except as
    // latency.
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);

    let plan = FaultPlan::empty()
        .at(
            SimTime::from_micros(10),
            FaultKind::AccelFault {
                accel: 0,
                mode: AccelFaultMode::Timeout,
                duration: SimDuration::from_micros(600),
            },
        )
        .at(
            SimTime::from_millis(4),
            FaultKind::AccelFault {
                accel: 0,
                mode: AccelFaultMode::ComputeError,
                duration: SimDuration::from_micros(600),
            },
        );
    pod.install_fault_plan(&plan);

    // Land one job inside each fault window.
    pod.run(SimTime::from_micros(100));
    let in0 = payload(0x42, 1024);
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &in0)
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(4) + SimDuration::from_micros(100));
    let in1 = payload(0x43, 1024);
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &in1)
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(12));

    let done = pod.take_accel_completions(h0);
    assert_eq!(
        done.len(),
        2,
        "both jobs complete despite the fault windows"
    );
    assert!(done.iter().all(|r| r.status.is_ok()));
    let results: Vec<u64> = done.iter().map(|r| r.result).collect();
    assert!(results.contains(&fnv1a(&in0)));
    assert!(results.contains(&fnv1a(&in1)));
    let fe = pod.accel.frontends[h0].as_ref().unwrap();
    assert!(
        fe.stats.retries > 0,
        "the fault windows forced resubmission"
    );
    assert_eq!(fe.stats.retry_exhausted, 0);
}

#[test]
fn host_restart_replays_in_flight_jobs_exactly_once() {
    // Crash the consuming host with a job in flight; on restart the
    // frontend replays it and the backend's dedup cache keeps execution
    // exactly-once.
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);

    let input = payload(0x77, 4096);
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &input)
        .unwrap()
        .unwrap();
    // Crash almost immediately — before the completion can drain — and
    // restart shortly after.
    pod.schedule(SimTime::from_micros(2), PodInput::FailHost(h0));
    pod.schedule(SimTime::from_micros(500), PodInput::RestartHost(h0));
    pod.run(SimTime::from_millis(10));

    let done = pod.take_accel_completions(h0);
    assert_eq!(done.len(), 1);
    assert!(done[0].status.is_ok());
    assert_eq!(done[0].result, fnv1a(&input));
    assert_eq!(pod.accel_jobs_in_flight(h0), 0);
    // Exactly-once: the device executed the job once or answered the replay
    // from its dedup cache — never computed a second, conflicting result.
    assert!(pod.accel.backends[0].device.stats.jobs <= 2);
}

#[test]
fn failed_device_propagates_error_status() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    let dev = b.add_nic_host();
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);

    pod.apply(PodInput::AccelFailed(0, true)).unwrap();
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &payload(1, 256))
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(2));
    let done = pod.take_accel_completions(h0);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, AccelStatus::DeviceFailure);
    assert!(done[0].output.is_none());

    // Repair and verify the engine recovers.
    pod.apply(PodInput::AccelFailed(0, false)).unwrap();
    let input = payload(2, 256);
    pod.submit_accel_job(h0, AccelOp::Checksum, 0, &input)
        .unwrap()
        .unwrap();
    pod.run(SimTime::from_millis(4));
    let done = pod.take_accel_completions(h0);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].result, fnv1a(&input));
}

#[test]
fn pods_without_accelerators_report_typed_errors() {
    let mut b = PodBuilder::new(OasisConfig::default());
    let h0 = b.add_host();
    b.add_nic_host();
    let mut pod = b.build();
    pod.launch_instance(h0, AppKind::None, 1_000);

    let err = pod
        .submit_accel_job(h0, AccelOp::Checksum, 0, &payload(1, 64))
        .unwrap_err();
    assert_eq!(
        err,
        PodError::NoSuchDevice {
            class: "accel",
            index: 0
        }
    );
    assert_eq!(
        pod.submit_accel_job(99, AccelOp::Checksum, 0, &[1])
            .unwrap_err(),
        PodError::NoSuchHost(99)
    );
    // Draining a host that does not exist, or has no accel frontend, is
    // empty rather than a panic — same answer as the storage drain.
    assert!(pod.take_accel_completions(99).is_empty());
    assert!(pod.take_accel_completions(h0).is_empty());
    assert_eq!(pod.accel_jobs_in_flight(99), 0);
}
