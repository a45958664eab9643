//! A pod holds only the host memory its model uses: Oasis cores keep every
//! buffer in the pool and get no private DRAM, and a baseline core's DRAM is
//! exactly the buffer areas its placement carves from it.

use oasis_accel::AccelConfig;
use oasis_core::config::{BufferPlacement, OasisConfig};
use oasis_core::pod::{HostDriver, Pod, PodBuilder};
use oasis_cxl::host::HostCtx;
use oasis_storage::ssd::SsdConfig;

fn oasis_core_ddr(pod: &Pod) -> Vec<u64> {
    let mut cores: Vec<&HostCtx> = Vec::new();
    for d in &pod.drivers {
        if let HostDriver::Oasis(fe) = d {
            cores.push(&fe.core);
        }
    }
    cores.extend(pod.backends.iter().map(|be| &be.core));
    cores.extend(pod.storage.frontends.iter().flatten().map(|fe| &fe.core));
    cores.extend(pod.storage.backends.iter().map(|be| &be.core));
    cores.extend(pod.accel.frontends.iter().flatten().map(|fe| &fe.core));
    cores.extend(pod.accel.backends.iter().map(|be| &be.core));
    cores.iter().map(|c| c.local_size()).collect()
}

#[test]
fn oasis_cores_have_no_private_ddr() {
    // The benchmark fleet's pod: one NIC host and two tenants.
    let mut b = PodBuilder::new(OasisConfig::default()).site(3);
    b.add_nic_host();
    b.add_host();
    b.add_host();
    let pod = b.build();
    // A frontend on each of the three hosts, one backend on the NIC host.
    assert_eq!(oasis_core_ddr(&pod), vec![0; 4]);

    // With devices, the storage and accel cores too.
    let mut b = PodBuilder::new(OasisConfig::default());
    let dev = b.add_nic_host();
    b.add_host();
    b.add_ssd(dev, SsdConfig::default());
    b.add_accel(dev, AccelConfig::default());
    let pod = b.build();
    // Per class (net, storage, accel): two frontends and one backend.
    assert_eq!(oasis_core_ddr(&pod), vec![0; 3 * 3]);
}

#[test]
fn baseline_ddr_is_its_buffer_areas() {
    let cfg = OasisConfig::default();
    let areas = cfg.tx_area_per_instance + cfg.rx_area_per_nic;
    let mut b = PodBuilder::new(cfg);
    let local = b.add_baseline_host(BufferPlacement::LocalDdr);
    let pooled = b.add_baseline_host(BufferPlacement::CxlPool);
    let pod = b.build();
    let ddr = |host: usize| match &pod.drivers[host] {
        HostDriver::Local(ld) => ld.core.local_size(),
        HostDriver::Oasis(_) => panic!("host {host} is a baseline host"),
    };
    assert_eq!(ddr(local), areas);
    assert_eq!(ddr(pooled), 0);
}
