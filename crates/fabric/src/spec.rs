//! Parameterized fabric construction shared by the CLI, server,
//! campaign, and bench surfaces.

use crate::topology::ClusteredBuses;
use crate::FabricError;
use mbus_workload::{HierarchicalModel, Hierarchy, RequestMatrix, RequestModel};
use serde::{Deserialize, Serialize};

/// Aggregate ring shares for a depth-`levels` hierarchy from a single
/// locality knob `ℓ ∈ [0, 1]`: share `i` of the traffic stays at ring
/// `i` with geometric decay `ℓ(1 − ℓ)ⁱ`, and the outermost ring absorbs
/// the remainder. `ℓ = 1` keeps every request on the processor's own
/// favorite memory; `ℓ = 0` pushes every request to the outermost ring
/// (pure-remote traffic, the degraded-mode worst case).
///
/// The returned vector has `levels + 1` entries and sums to exactly 1,
/// ready for [`HierarchicalModel::with_aggregate_shares`].
pub fn locality_shares(levels: usize, locality: f64) -> Vec<f64> {
    let locality = locality.clamp(0.0, 1.0);
    let mut shares = Vec::with_capacity(levels + 1);
    let mut rest = 1.0;
    for _ in 0..levels {
        let share = locality * rest;
        shares.push(share);
        rest -= share;
    }
    shares.push(rest);
    shares
}

/// Everything needed to stand up a fabric experiment: the cluster tree
/// shape, link widths, and a locality knob for the matching
/// hierarchical workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Branching factors `k₁ ⋯ kₙ` of the paired hierarchy
    /// (`N = M = ∏ kᵢ`).
    pub ks: Vec<usize>,
    /// Buses in every leaf's local group.
    pub local_buses: usize,
    /// Channels on every uplink.
    pub uplink_width: usize,
    /// Locality knob fed to [`locality_shares`].
    pub locality: f64,
}

impl FabricSpec {
    /// Builds the [`ClusteredBuses`] fabric and its matching
    /// hierarchical request matrix.
    ///
    /// # Errors
    ///
    /// [`FabricError::BadFabric`] for a non-probability locality, plus
    /// everything [`ClusteredBuses::new`] and the hierarchy/workload
    /// constructors reject.
    pub fn build(&self) -> Result<(ClusteredBuses, RequestMatrix), FabricError> {
        if !self.locality.is_finite() || !(0.0..=1.0).contains(&self.locality) {
            return Err(FabricError::BadFabric {
                reason: format!("locality {} is not a probability in [0, 1]", self.locality),
            });
        }
        let hierarchy = Hierarchy::paired(&self.ks)?;
        let topo = ClusteredBuses::new(hierarchy.clone(), self.local_buses, self.uplink_width)?;
        let shares = locality_shares(topo.depth(), self.locality);
        let model = HierarchicalModel::with_aggregate_shares(hierarchy, &shares)?;
        Ok((topo, model.matrix()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricTopology;

    #[test]
    fn shares_sum_to_one_and_respect_the_extremes() {
        for levels in 1..=4 {
            for locality in [0.0, 0.3, 0.7, 1.0] {
                let shares = locality_shares(levels, locality);
                assert_eq!(shares.len(), levels + 1);
                assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-15);
                assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
            }
            let local = locality_shares(levels, 1.0);
            assert_eq!(local[0], 1.0);
            let remote = locality_shares(levels, 0.0);
            assert_eq!(remote[levels], 1.0);
        }
    }

    #[test]
    fn spec_builds_a_consistent_pair() {
        let spec = FabricSpec {
            ks: vec![4, 4],
            local_buses: 2,
            uplink_width: 1,
            locality: 0.7,
        };
        let (topo, matrix) = spec.build().unwrap();
        assert_eq!(topo.processors(), 16);
        assert_eq!(matrix.processors(), 16);
        assert_eq!(matrix.memories(), 16);
        assert_eq!(topo.links().len(), 8);
    }

    #[test]
    fn spec_rejects_bad_locality() {
        let spec = FabricSpec {
            ks: vec![4, 4],
            local_buses: 2,
            uplink_width: 1,
            locality: 1.5,
        };
        assert!(matches!(spec.build(), Err(FabricError::BadFabric { .. })));
    }
}
