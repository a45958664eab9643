//! NIC failover (§3.3.3) and graceful migration (§3.3.4) integration tests.
//!
//! The §5.3 failure injection is reproduced exactly: the switch port of the
//! serving NIC is disabled; the NIC reports loss of carrier `link_detect`
//! later; the backend's link monitor tells the allocator over message
//! channels; the allocator reroutes affected instances to the pod's backup
//! NIC; the frontend borrows the failed NIC's MAC so the switch re-points
//! RX immediately. Timings are scaled down (5 ms detection instead of the
//! production 35 ms) to keep the debug-mode test fast; the full-scale
//! timeline is measured by the `fig13_failover_udp` experiment binary.

use std::collections::VecDeque;

use oasis_core::config::OasisConfig;
use oasis_core::instance::{AppKind, UdpApp, UdpResponse};
use oasis_core::pod::{Endpoint, HostDriver, PodBuilder, PodInput};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{Frame, GarpPacket, UdpPacket};
use oasis_sim::time::{SimDuration, SimTime};

struct Echo;
impl UdpApp for Echo {
    fn on_datagram(
        &mut self,
        _now: SimTime,
        src: (Ipv4Addr, u16),
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<UdpResponse> {
        vec![UdpResponse {
            delay: SimDuration::from_micros(1),
            dst: src,
            src_port: dst_port,
            payload: payload.to_vec(),
        }]
    }
}

/// Minimal paced echo client tracking per-request outcomes.
struct Client {
    mac: MacAddr,
    ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    gap: SimDuration,
    until: SimTime,
    next_send: SimTime,
    sent_at: Vec<SimTime>,
    answered: Vec<bool>,
    inbox: VecDeque<(SimTime, Frame)>,
}

impl Client {
    fn new(dst_mac: MacAddr, dst_ip: Ipv4Addr, gap: SimDuration, until: SimTime) -> Self {
        Client {
            mac: MacAddr::client(1),
            ip: Ipv4Addr::client(1),
            dst_mac,
            dst_ip,
            gap,
            until,
            next_send: SimTime::from_micros(100),
            sent_at: Vec::new(),
            answered: Vec::new(),
            inbox: VecDeque::new(),
        }
    }

    fn loss_window(&self) -> Option<(SimTime, SimTime)> {
        let lost: Vec<SimTime> = self
            .sent_at
            .iter()
            .zip(&self.answered)
            .filter(|(_, &a)| !a)
            .map(|(&t, _)| t)
            .collect();
        Some((*lost.first()?, *lost.last()?))
    }
}

impl Endpoint for Client {
    fn next_time(&self) -> SimTime {
        let mut t = if self.next_send <= self.until {
            self.next_send
        } else {
            SimTime::MAX
        };
        if let Some(&(at, _)) = self.inbox.front() {
            t = t.min(at);
        }
        t
    }

    fn poll(&mut self, now: SimTime) -> Vec<Frame> {
        while let Some(&(at, _)) = self.inbox.front() {
            if at > now {
                break;
            }
            let (_, frame) = self.inbox.pop_front().unwrap();
            if let Some(garp) = GarpPacket::parse(&frame) {
                if garp.sender_ip == self.dst_ip {
                    self.dst_mac = garp.sender_mac;
                }
                continue;
            }
            if let Some(udp) = UdpPacket::parse(&frame) {
                if udp.dst_ip == self.ip && udp.payload.len() >= 8 {
                    let seq = u64::from_le_bytes(udp.payload[..8].try_into().unwrap());
                    self.answered[seq as usize] = true;
                }
            }
        }
        let mut out = Vec::new();
        while self.next_send <= now && self.next_send <= self.until {
            let seq = self.sent_at.len() as u64;
            self.sent_at.push(now);
            self.answered.push(false);
            let mut payload = vec![0u8; 64];
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            out.push(
                UdpPacket {
                    src_mac: self.mac,
                    dst_mac: self.dst_mac,
                    src_ip: self.ip,
                    dst_ip: self.dst_ip,
                    src_port: 40000,
                    dst_port: 7,
                    payload: bytes::Bytes::from(payload),
                }
                .encode(),
            );
            self.next_send += self.gap;
        }
        out
    }

    fn deliver(&mut self, at: SimTime, frame: Frame) {
        self.inbox.push_back((at, frame));
    }
}

fn test_cfg() -> OasisConfig {
    OasisConfig {
        link_detect: SimDuration::from_millis(5),
        migration_grace: SimDuration::from_millis(20),
        ..Default::default()
    }
}

#[test]
fn failover_to_backup_nic_with_mac_borrowing() {
    let mut b = PodBuilder::new(test_cfg());
    let host_a = b.add_host(); // instance host
    let host_b = b.add_nic_host(); // serving NIC (nic 0)
    let host_c = b.add_nic_host(); // backup NIC (nic 1)
    let mut pod = b.backup_nic_on(host_c).build();

    let inst = pod.launch_instance(host_a, AppKind::Udp(Box::new(Echo)), 10_000);
    assert_eq!(pod.instance_mac(inst), pod.nic_mac(0), "served by nic 0");

    let fail_at = SimTime::from_millis(20);
    let end = SimTime::from_millis(60);
    let client = Client::new(
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        SimDuration::from_micros(200),
        end - SimDuration::from_millis(5),
    );
    let cid = pod.add_endpoint(Box::new(client));
    pod.schedule(fail_at, PodInput::DisableNicPort(0));
    pod.run(end);

    // The failover happened: allocator marked nic 0 failed and rerouted.
    assert!(pod.allocator.actor.books().nics[0].as_ref().unwrap().failed);
    assert_eq!(pod.allocator.actor.failovers, 1);
    assert_eq!(pod.allocator.actor.reroutes_sent, 1);
    let HostDriver::Oasis(fe) = &pod.drivers[host_a] else {
        unreachable!()
    };
    assert_eq!(fe.stats.reroutes, 1);
    assert_eq!(fe.serving_nic(pod.instance_ip(inst)), Some(1));

    // Loss is confined to a window starting at the failure and ending
    // within detection time plus control-plane slack.
    let ep = &pod.endpoints[cid];
    let _ = ep;
    // (Read the client back out through a raw pointer-free path: we kept no
    // handle, so recompute from a second, identical run below instead.)
    let _ = host_b;
}

#[test]
fn failover_loss_window_matches_detection_time() {
    // Same scenario, but keep a stats view by re-running with a handle-less
    // client we can interrogate through Pod::endpoints using Any-free
    // composition: store results in thread-local-free fashion via a probe.
    // Simplest: rebuild the client inline and move measurement into this
    // scope using a raw Box + pointer.
    let mut b = PodBuilder::new(test_cfg());
    let host_a = b.add_host();
    let _host_b = b.add_nic_host();
    let host_c = b.add_nic_host();
    let mut pod = b.backup_nic_on(host_c).build();
    let inst = pod.launch_instance(host_a, AppKind::Udp(Box::new(Echo)), 10_000);

    let fail_at = SimTime::from_millis(20);
    let end = SimTime::from_millis(80);
    let client = Box::new(Client::new(
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        SimDuration::from_micros(200),
        end - SimDuration::from_millis(5),
    ));
    let client_ptr: *const Client = &*client;
    pod.add_endpoint(client);
    pod.schedule(fail_at, PodInput::DisableNicPort(0));
    pod.run(end);

    // Safety: the pod owns the box; it is alive until `pod` drops, and we
    // only read after `run` returned (single-threaded).
    let client: &Client = unsafe { &*client_ptr };
    let sent = client.sent_at.len();
    let answered = client.answered.iter().filter(|&&a| a).count();
    assert!(sent > 250, "sent {sent}");
    let (first_loss, last_loss) = client.loss_window().expect("failure must lose packets");
    assert!(
        first_loss >= fail_at - SimDuration::from_millis(1),
        "losses must not precede the failure: {first_loss}"
    );
    let window = last_loss - first_loss;
    // Interruption ~= link_detect (5ms) + control plane slack; §5.3 measures
    // 38ms with the production 35ms detection time.
    assert!(
        window >= SimDuration::from_millis(4),
        "window {window} too short for 5ms detection"
    );
    assert!(
        window <= SimDuration::from_millis(9),
        "window {window} too long: failover stalled"
    );
    // Traffic fully recovers after the failover.
    let lost_after = client
        .sent_at
        .iter()
        .zip(&client.answered)
        .filter(|(&t, &a)| t > last_loss && !a)
        .count();
    assert_eq!(lost_after, 0, "no loss after recovery");
    // Overall: everything outside the window was answered.
    let expected_lost = ((window.as_nanos() / 200_000) as usize).max(1);
    let lost = sent - answered;
    assert!(
        lost <= expected_lost + 10,
        "lost {lost} vs window-expected {expected_lost}"
    );
}

#[test]
fn graceful_migration_no_packet_loss() {
    let mut b = PodBuilder::new(test_cfg());
    let host_a = b.add_host();
    let _host_b = b.add_nic_host(); // nic 0 (serving)
    let _host_c = b.add_nic_host(); // nic 1 (target)
    let mut pod = b.build();
    let inst = pod.launch_instance(host_a, AppKind::Udp(Box::new(Echo)), 10_000);
    assert_eq!(pod.instance_mac(inst), pod.nic_mac(0));

    let end = SimTime::from_millis(70);
    let client = Box::new(Client::new(
        pod.instance_mac(inst),
        pod.instance_ip(inst),
        SimDuration::from_micros(200),
        end - SimDuration::from_millis(10),
    ));
    let client_ptr: *const Client = &*client;
    pod.add_endpoint(client);
    pod.schedule(
        SimTime::from_millis(20),
        PodInput::Migrate(pod.instance_ip(inst), 1),
    );
    pod.run(end);

    let client: &Client = unsafe { &*client_ptr };
    let lost = client.answered.iter().filter(|&&a| !a).count();
    assert_eq!(lost, 0, "graceful migration must not lose packets (§3.3.4)");

    // The instance now answers on nic 1's MAC, announced via GARP.
    assert_eq!(pod.instance_mac(inst), pod.nic_mac(1));
    assert_eq!(client.dst_mac, pod.nic_mac(1), "client learned the new MAC");
    let HostDriver::Oasis(fe) = &pod.drivers[host_a] else {
        unreachable!()
    };
    assert_eq!(fe.stats.migrations, 1);
    assert_eq!(fe.serving_nic(pod.instance_ip(inst)), Some(1));
    // After the grace period the old NIC's registration was dropped.
    assert_eq!(pod.backends[0].registration_count(), 0);
    assert_eq!(pod.backends[1].registration_count(), 1);
}
