//! The accel class on the two-core harness (`ReqPair<AccelClass>`): the
//! generic harness serves a second production class as it stands, and the
//! class's one behavioural difference from storage — a transient error is
//! left to the retry deadline, not resent at once — is visible without a
//! pod.

use oasis_accel::{fnv1a, AccelConfig, AccelDevice, AccelOp};
use oasis_core::config::OasisConfig;
use oasis_core::engine_accel::AccelClass;
use oasis_core::engine_req::{ReqClass, ReqPair};
use oasis_sim::time::SimTime;

fn pair() -> ReqPair<AccelClass> {
    let dev = AccelDevice::new(AccelConfig::default());
    ReqPair::new(OasisConfig::default(), dev, AccelClass::BUF_SIZE)
}

#[test]
fn checksum_and_scale_jobs_roundtrip_across_hosts() {
    let mut p = pair();
    let input: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let sum = p
        .frontend
        .submit_job(&mut p.pool, 0, AccelOp::Checksum, 0, &input)
        .expect("accepted");
    let scale = p
        .frontend
        .submit_job(&mut p.pool, 0, AccelOp::Scale, 3, &input)
        .expect("accepted");
    let done = p.run_until_completions(2, SimTime::from_millis(5));
    assert!(done.iter().all(|r| r.status.is_ok()));
    let by = |cid| done.iter().find(|r| r.cid == cid).expect("completed");
    assert_eq!(by(sum).result, fnv1a(&input));
    assert_eq!(
        by(sum).output.as_deref(),
        Some(&fnv1a(&input).to_le_bytes()[..])
    );
    let scaled: Vec<u8> = input.iter().map(|b| b.wrapping_mul(3)).collect();
    assert_eq!(by(scale).output.as_deref(), Some(&scaled[..]));
    // An empty job is inadmissible: refused before it takes a buffer.
    let empty = p
        .frontend
        .submit_job(&mut p.pool, 0, AccelOp::Checksum, 0, &[]);
    assert_eq!((empty, p.frontend.stats.refused), (None, 1));
}

#[test]
fn compute_error_window_is_outlasted_by_the_paced_deadline() {
    let mut p = pair();
    // Errors complete in ~1 µs: were they resent at once, six attempts
    // would burn long before the 300 µs window closes.
    p.backend
        .device
        .inject_compute_errors_until(SimTime::from_micros(300));
    let input = [7u8; 512];
    p.frontend
        .submit_job(&mut p.pool, 0, AccelOp::Checksum, 0, &input)
        .expect("accepted");
    let done = p.run_until_completions(1, SimTime::from_millis(10));
    assert!(done[0].status.is_ok(), "{:?}", done[0].status);
    assert_eq!(done[0].result, fnv1a(&input));
    assert_eq!(
        p.frontend.stats.retries, 1,
        "one resend, at the 1 ms deadline"
    );
    assert_eq!(p.frontend.stats.retry_exhausted, 0);
}
