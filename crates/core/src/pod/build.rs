//! Wiring: [`PodBuilder`] declares hosts, NICs and devices, and `build`
//! lays out the pool, the channels and every engine once.

use super::*;

impl<C: ReqClass> EngineSet<C> {
    /// One backend per device, one frontend per Oasis host (only when the
    /// pod has devices of the class), fully meshed with 64 B descriptor
    /// channels named by the class's initial (`sfe0->sbe0`).
    fn build(
        cfg: &OasisConfig,
        hosts: &[(bool, Option<BufferPlacement>)],
        devices: Vec<(usize, C::Device)>,
        pool: &mut CxlPool,
        ra: &mut RegionAllocator,
    ) -> Self {
        let name = C::NAME;
        let tag = &name[..1];
        let mut backends: Vec<ReqBackend<C>> = devices
            .into_iter()
            .enumerate()
            .map(|(id, (host, dev))| {
                ReqBackend::new(id, host, HostCtx::new(PortId(host), 0), cfg, dev)
            })
            .collect();
        let mut frontends = Vec::new();
        for (host, &(_, baseline)) in hosts.iter().enumerate() {
            if backends.is_empty() || baseline.is_some() {
                frontends.push(None);
                continue;
            }
            let data_region = ra.alloc(
                pool,
                format!("host{host}.{name}_data"),
                C::BUF_SIZE * C::BUFS_PER_HOST,
                TrafficClass::Payload,
            );
            let area = BufferArea::new(data_region, C::BUF_SIZE);
            let mut fe = ReqFrontend::new(host, HostCtx::new(PortId(host), 0), cfg, area);
            for (id, be) in backends.iter_mut().enumerate() {
                let cmd = format!("{tag}fe{host}->{tag}be{id}");
                let cmd = alloc_descriptor_channel::<C::Command>(pool, ra, &cmd, 1024);
                let cpl = format!("{tag}be{id}->{tag}fe{host}");
                let cpl = alloc_descriptor_channel::<C::Completion>(pool, ra, &cpl, 1024);
                fe.add_link(id, cmd.sender, cpl.receiver);
                be.add_link(host, cpl.sender, cmd.receiver);
            }
            frontends.push(Some(fe));
        }
        EngineSet {
            frontends,
            backends,
        }
    }
}

/// Builds a [`Pod`]. Hosts and NICs are declared first; instances and
/// endpoints are added to the built pod.
pub struct PodBuilder {
    cfg: OasisConfig,
    pool_bytes: u64,
    site: u32,
    /// (has_nic, baseline placement or None for Oasis).
    hosts: Vec<(bool, Option<BufferPlacement>)>,
    backup_nic_host: Option<usize>,
    /// (host, config) per SSD.
    ssds: Vec<(usize, SsdConfig)>,
    /// (host, config) per accelerator.
    accels: Vec<(usize, AccelConfig)>,
    never_park: bool,
    sanitize: bool,
}

impl PodBuilder {
    /// Start building with a configuration.
    pub fn new(cfg: OasisConfig) -> Self {
        PodBuilder {
            cfg,
            pool_bytes: 64 << 20,
            site: 0,
            hosts: Vec::new(),
            backup_nic_host: None,
            ssds: Vec::new(),
            accels: Vec::new(),
            never_park: false,
            sanitize: false,
        }
    }

    /// The reference the park twin tests compare against: a pod that never
    /// parks an engine and so walks every polling round.
    #[doc(hidden)]
    pub fn never_park(mut self) -> Self {
        self.never_park = true;
        self
    }

    /// Run the coherence sanitizer over the pod's pool
    /// ([`CxlPool::sanitized`]): every access, parked polling rounds
    /// included, is checked against the drivers' coherence discipline. A
    /// pure observer: it costs wall time, never a simulated byte.
    pub fn sanitize(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Override the pool size (default 64 MiB of simulated CXL memory).
    pub fn pool_bytes(mut self, bytes: u64) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Site number for multi-pod fleets ([`crate::fleet::Fleet`]). NIC MACs
    /// and instance IPs are numbered within the site, so pods that share an
    /// L2 domain over uplinks must use distinct sites (up to 255 instances
    /// per site); a standalone pod can leave the default 0.
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// Add an Oasis host without a local NIC. Returns the host index.
    pub fn add_host(&mut self) -> usize {
        self.hosts.push((false, None));
        self.hosts.len() - 1
    }

    /// Add an Oasis host with a local NIC (and backend driver).
    pub fn add_nic_host(&mut self) -> usize {
        self.hosts.push((true, None));
        self.hosts.len() - 1
    }

    /// Add a baseline (Junction) host with a local NIC and the given buffer
    /// placement.
    pub fn add_baseline_host(&mut self, placement: BufferPlacement) -> usize {
        self.hosts.push((true, Some(placement)));
        self.hosts.len() - 1
    }

    /// Attach an SSD to `host` (drives the storage engine, §3.4). Returns
    /// the SSD id.
    pub fn add_ssd(&mut self, host: usize, cfg: SsdConfig) -> usize {
        assert!(host < self.hosts.len(), "add hosts before their SSDs");
        self.ssds.push((host, cfg));
        self.ssds.len() - 1
    }

    /// Attach a compute-offload accelerator to `host` (drives the accel
    /// engine — the third device class, proving the [`crate::engine`]
    /// abstraction generalizes). Returns the accelerator id.
    pub fn add_accel(&mut self, host: usize, cfg: AccelConfig) -> usize {
        assert!(
            host < self.hosts.len(),
            "add hosts before their accelerators"
        );
        self.accels.push((host, cfg));
        self.accels.len() - 1
    }

    /// Reserve the NIC of `host` as the pod's failover backup (§3.3.3).
    pub fn backup_nic_on(mut self, host: usize) -> Self {
        self.backup_nic_host = Some(host);
        self
    }

    /// Assemble the pod.
    pub fn build(self) -> Pod {
        let n_hosts = self.hosts.len();
        let mut pool = CxlPool::new(self.pool_bytes, n_hosts);
        if self.sanitize {
            pool = pool.sanitized();
        }
        let mut ra = RegionAllocator::new(&pool);
        let mut switch = Switch::new(0);
        let mut nics = Vec::new();
        let mut nic_macs = Vec::new();
        let mut nic_host = Vec::new();
        let mut nic_port = Vec::new();
        let mut backend_of_nic: Vec<Option<usize>> = Vec::new();
        let mut backends: Vec<BackendDriver> = Vec::new();
        let mut port_owner = Vec::new();

        // Allocator service core (control plane; port 0's host).
        let alloc_core = HostCtx::new(PortId(0), 0);
        let mut allocator = PodAllocator::new(alloc_core, self.cfg.clone());

        // Create NICs and backend drivers.
        let mut oasis_nic_ids = Vec::new();
        for (host, &(has_nic, baseline)) in self.hosts.iter().enumerate() {
            if !has_nic {
                continue;
            }
            let nic_id = nics.len();
            let mac = MacAddr::nic(((self.site as u64) << 16) | nic_id as u64);
            let nic = Nic::new(mac, NicConfig::default());
            let port = switch.add_port();
            port_owner.push(PortOwner::Nic(nic_id));
            if baseline.is_none() {
                // Only a NIC with an Oasis backend is pooled: a baseline
                // (Junction) NIC sends no telemetry and serves only its
                // own host.
                allocator.register(&FleetCommand::RegisterNic {
                    nic: nic_id as u32,
                    host: host as u32,
                    capacity_mbps: (nic.bandwidth_gbps() * 1000.0) as u32,
                    backup: self.backup_nic_host == Some(host),
                });
                // Oasis backend: RX area + allocator channel.
                let rx_region = ra.alloc(
                    &mut pool,
                    format!("nic{nic_id}.rx_area"),
                    self.cfg.rx_area_per_nic,
                    TrafficClass::Payload,
                );
                let pair =
                    alloc_net_channel(&mut pool, &mut ra, &format!("be{nic_id}->alloc"), 256);
                allocator.add_backend(nic_id as u32, pair.receiver);
                let be_to_alloc = pair.sender;
                let be_core = HostCtx::new(PortId(host), 0);
                // Backends do not receive from the allocator in this
                // implementation; give them an inert receiver on a tiny
                // private channel.
                let inert =
                    alloc_net_channel(&mut pool, &mut ra, &format!("alloc->be{nic_id}"), 16);
                let backend = BackendDriver::new(
                    nic_id,
                    host,
                    be_core,
                    self.cfg.clone(),
                    BufferArea::new(rx_region, self.cfg.buf_size),
                    be_to_alloc,
                    inert.receiver,
                );
                backend_of_nic.push(Some(backends.len()));
                backends.push(backend);
                oasis_nic_ids.push(nic_id);
            } else {
                backend_of_nic.push(None);
            }
            nic_macs.push(mac);
            nic_host.push(host);
            nic_port.push(port);
            nics.push(nic);
        }

        // Create host drivers.
        let mut drivers = Vec::new();
        for (host, &(_, baseline)) in self.hosts.iter().enumerate() {
            match baseline {
                Some(placement) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "pod construction, not a runtime path: a baseline placement \
                                  without a NIC is a config error caught at build"
                    )]
                    let nic_id = nic_host
                        .iter()
                        .position(|&h| h == host)
                        .expect("baseline host has a NIC");
                    // Local DRAM holds exactly the two buffer areas a
                    // `LocalDdr` driver carves from it; pool-placed buffers
                    // need none.
                    let ddr = match placement {
                        BufferPlacement::LocalDdr => {
                            self.cfg.tx_area_per_instance + self.cfg.rx_area_per_nic
                        }
                        BufferPlacement::CxlPool => 0,
                    };
                    let core = HostCtx::new(PortId(host), ddr);
                    let ld = LocalDriver::new(
                        host,
                        nic_id,
                        core,
                        self.cfg.clone(),
                        placement,
                        &mut pool,
                        &mut ra,
                    );
                    drivers.push(HostDriver::Local(ld));
                }
                None => {
                    let fe_core = HostCtx::new(PortId(host), 0);
                    let fe_alloc_tx =
                        alloc_net_channel(&mut pool, &mut ra, &format!("fe{host}->alloc"), 256);
                    let alloc_fe =
                        alloc_net_channel(&mut pool, &mut ra, &format!("alloc->fe{host}"), 256);
                    allocator.add_frontend(host, alloc_fe.sender, fe_alloc_tx.receiver);
                    let mut fe = FrontendDriver::new(
                        host,
                        fe_core,
                        self.cfg.clone(),
                        fe_alloc_tx.sender,
                        alloc_fe.receiver,
                    );
                    // Channel pairs to every Oasis backend.
                    for &nic_id in &oasis_nic_ids {
                        let fe_be = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("fe{host}->be{nic_id}"),
                            self.cfg.channel_slots,
                        );
                        let be_fe = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("be{nic_id}->fe{host}"),
                            self.cfg.channel_slots,
                        );
                        fe.add_backend_link(nic_id, fe_be.sender, be_fe.receiver);
                        #[expect(
                            clippy::unwrap_used,
                            reason = "pod construction: every Oasis NIC id was assigned a \
                                      backend in the loop above"
                        )]
                        let be_idx = backend_of_nic[nic_id].unwrap();
                        backends[be_idx].add_frontend_link(host, be_fe.sender, fe_be.receiver);
                    }
                    drivers.push(HostDriver::Oasis(fe));
                }
            }
        }

        // Storage and accel engines: the same generic drivers, wired the
        // same way (storage first, so its regions and channels keep their
        // addresses).
        let mut ssds = Vec::new();
        for (ssd_id, (host, ssd_cfg)) in self.ssds.iter().enumerate() {
            allocator.register(&FleetCommand::RegisterSsd {
                ssd: ssd_id as u32,
                host: *host as u32,
                capacity_blocks: ssd_cfg.blocks_per_ns as u32 * ssd_cfg.namespaces,
            });
            ssds.push((*host, Ssd::new(ssd_cfg.clone())));
        }
        let storage = EngineSet::build(&self.cfg, &self.hosts, ssds, &mut pool, &mut ra);
        let mut accels = Vec::new();
        for (dev_id, (host, accel_cfg)) in self.accels.iter().enumerate() {
            allocator.register(&FleetCommand::RegisterAccel {
                accel: dev_id as u32,
                host: *host as u32,
            });
            accels.push((*host, AccelDevice::new(accel_cfg.clone())));
        }
        let accel = EngineSet::build(&self.cfg, &self.hosts, accels, &mut pool, &mut ra);

        Pod {
            cfg: self.cfg,
            pool,
            switch,
            nics,
            drivers,
            backends,
            instances: Vec::new(),
            allocator,
            endpoints: Vec::new(),
            storage,
            accel,
            nic_macs,
            nic_host,
            nic_port,
            backend_of_nic,
            endpoint_port: Vec::new(),
            port_owner,
            site: self.site,
            uplink_port: Vec::new(),
            uplink_out: Vec::new(),
            shard_runner: None,
            window_sched: Scheduler::new(),
            window_kinds: Vec::new(),
            pending: EventQueue::new(),
            ra,
            inst_region: Vec::new(),
            dead_host: vec![false; n_hosts],
            now: SimTime::ZERO,
            park: ParkTable::default(),
            never_park: self.never_park,
            endpoint_hit: false,
            nic_hit: Vec::new(),
            obs: PodObs::default(),
        }
    }
}
