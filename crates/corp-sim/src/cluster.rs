//! Environment profiles and the VM fleet.
//!
//! Two profiles mirror the paper's testbeds (Section IV):
//!
//! * [`EnvironmentProfile::palmetto_cluster`] — 50 HP SL230 servers
//!   (16-core E5-2665, 64 GB RAM), 720 GB disk, 1 GB/s network; each server
//!   hosts several VMs ("we simulated a logic disk as a VM").
//! * [`EnvironmentProfile::amazon_ec2`] — 30 HP ProLiant ML110 G5 nodes
//!   (2660 MIPS ≈ 2 cores, 4 GB RAM), 720 GB disk; "each node is simulated
//!   as a VM", and the communication overhead per scheduling operation is
//!   higher than in the dedicated cluster (the entire difference between
//!   paper Figs. 10 and 14).

use crate::resources::ResourceVector;

/// Describes the hardware and communication characteristics of a testbed.
#[derive(Debug, Clone)]
pub struct EnvironmentProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Number of physical machines (`N_p`, Table II: 30-50).
    pub num_pms: usize,
    /// VMs carved out of each PM.
    pub vms_per_pm: usize,
    /// Capacity of each PM `[cpu cores, mem GB, storage GB]`.
    pub pm_capacity: ResourceVector,
    /// Modeled communication latency per scheduling message, microseconds.
    /// Covers the control-plane round trip of placing or adjusting one
    /// job's allocation.
    pub comm_latency_us: f64,
    /// Network bandwidth per server in MB/s (1 GB/s in both testbeds).
    pub bandwidth_mbps: f64,
}

impl EnvironmentProfile {
    /// The Palmetto-cluster profile (50 HP SL230 servers).
    pub fn palmetto_cluster() -> Self {
        EnvironmentProfile {
            name: "palmetto-cluster".to_string(),
            num_pms: 50,
            vms_per_pm: 4,
            pm_capacity: ResourceVector::new([16.0, 64.0, 720.0]),
            // LAN control-plane round trip inside one datacenter rack.
            comm_latency_us: 100.0,
            bandwidth_mbps: 1000.0,
        }
    }

    /// The Amazon EC2 profile (30 ML110 G5 nodes, one VM per node).
    pub fn amazon_ec2() -> Self {
        EnvironmentProfile {
            name: "amazon-ec2".to_string(),
            num_pms: 30,
            vms_per_pm: 1,
            pm_capacity: ResourceVector::new([2.0, 4.0, 720.0]),
            // Cloud control plane: API + cross-AZ hops; an order of
            // magnitude above the rack-local cluster.
            comm_latency_us: 1200.0,
            bandwidth_mbps: 1000.0,
        }
    }

    /// Capacity of one VM under this profile (PM capacity split evenly).
    pub(crate) fn vm_capacity(&self) -> ResourceVector {
        self.pm_capacity.scaled(1.0 / self.vms_per_pm as f64)
    }

    /// Total number of VMs (`N_v`, Table II: 100-400).
    pub(crate) fn num_vms(&self) -> usize {
        self.num_pms * self.vms_per_pm
    }

    /// A copy with a different PM count (experiments vary `N_p` 30-50).
    pub fn with_num_pms(mut self, num_pms: usize) -> Self {
        self.num_pms = num_pms;
        self
    }
}

/// One virtual machine's static description.
#[derive(Debug, Clone)]
pub struct VmDescriptor {
    /// VM index.
    pub id: usize,
    /// Hosting PM index.
    pub pm: usize,
    /// Total capacity `C_ij` per resource type.
    pub capacity: ResourceVector,
}

/// The fleet of PMs and VMs for one simulation run.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The profile this fleet was built from.
    pub profile: EnvironmentProfile,
    /// All VM descriptors, id-indexed.
    pub vms: Vec<VmDescriptor>,
}

impl Cluster {
    /// Materializes the fleet from a profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile describes zero machines.
    pub fn from_profile(profile: EnvironmentProfile) -> Self {
        assert!(profile.num_pms > 0, "need at least one PM");
        assert!(profile.vms_per_pm > 0, "need at least one VM per PM");
        let vm_capacity = profile.vm_capacity();
        let mut vms = Vec::with_capacity(profile.num_vms());
        for pm in 0..profile.num_pms {
            for _ in 0..profile.vms_per_pm {
                vms.push(VmDescriptor {
                    id: vms.len(),
                    pm,
                    capacity: vm_capacity,
                });
            }
        }
        Cluster { profile, vms }
    }

    /// Per-resource maximum capacity among all VMs — the `C'` reference
    /// vector of Eq. 22.
    pub fn max_vm_capacity(&self) -> ResourceVector {
        let mut out = ResourceVector::ZERO;
        for vm in &self.vms {
            for k in 0..3 {
                out[k] = out[k].max(vm.capacity[k]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palmetto_matches_paper_hardware() {
        let p = EnvironmentProfile::palmetto_cluster();
        assert_eq!(p.num_pms, 50);
        assert_eq!(p.pm_capacity.as_array(), &[16.0, 64.0, 720.0]);
        assert_eq!(p.num_vms(), 200);
        // Table II: N_v in 100-400.
        assert!((100..=400).contains(&p.num_vms()));
    }

    #[test]
    fn ec2_matches_paper_hardware() {
        let p = EnvironmentProfile::amazon_ec2();
        assert_eq!(p.num_pms, 30);
        assert_eq!(p.vms_per_pm, 1, "each EC2 node is simulated as a VM");
        assert_eq!(p.pm_capacity.as_array(), &[2.0, 4.0, 720.0]);
    }

    #[test]
    fn ec2_has_higher_comm_latency_than_cluster() {
        assert!(
            EnvironmentProfile::amazon_ec2().comm_latency_us
                > EnvironmentProfile::palmetto_cluster().comm_latency_us,
            "Fig. 14 vs Fig. 10 depends on this"
        );
    }

    #[test]
    fn vm_capacity_splits_pm_evenly() {
        let p = EnvironmentProfile::palmetto_cluster();
        let vm = p.vm_capacity();
        assert_eq!(vm.as_array(), &[4.0, 16.0, 180.0]);
    }

    #[test]
    fn cluster_materializes_all_vms() {
        let c = Cluster::from_profile(EnvironmentProfile::palmetto_cluster());
        assert_eq!(c.vms.len(), 200);
        assert_eq!(c.vms[0].id, 0);
        assert_eq!(c.vms[199].id, 199);
        assert_eq!(c.vms[7].pm, 1, "4 VMs per PM -> VM 7 on PM 1");
    }

    #[test]
    fn max_vm_capacity_is_componentwise_max() {
        let c = Cluster::from_profile(EnvironmentProfile::amazon_ec2());
        assert_eq!(c.max_vm_capacity().as_array(), &[2.0, 4.0, 720.0]);
    }

    #[test]
    fn with_num_pms_scales_fleet() {
        let c = Cluster::from_profile(EnvironmentProfile::palmetto_cluster().with_num_pms(30));
        assert_eq!(c.vms.len(), 120);
    }
}
