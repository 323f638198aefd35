//! Parameter sweeps and the derived ratios quoted in the paper's §IV.
//!
//! Sweep points are independent, so [`bus_sweep`] evaluates them over the
//! worker pool via [`mbus_stats::parallel::parallel_map_dynamic`] —
//! per-point cost grows with `B`, and workers claiming one point at a time
//! keep the tail of a sweep from serializing on one worker. Results come back in input order, and errors are reported for
//! the *first failing point* in input order regardless of which thread hit
//! one first, keeping the function deterministic.

use crate::{bandwidth, AnalysisError};
use mbus_stats::parallel::{available_workers, parallel_map_dynamic};
use mbus_topology::{BusNetwork, ConnectionScheme, TopologyError};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};

/// One point of a bus sweep: bandwidth at a given bus count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of buses `B`.
    pub buses: usize,
    /// Effective memory bandwidth at that `B`.
    pub bandwidth: f64,
}

/// Builds the scheme instance to use at a given bus count during a sweep.
///
/// Sweeps vary `B`, but some schemes' parameters depend on `B` (a balanced
/// single assignment, `K = B` classes, …), so the sweep asks this factory at
/// every point. Factories must be `Sync`: sweep points are evaluated on
/// multiple threads.
pub type SchemeFactory<'a> = dyn Fn(usize) -> Result<ConnectionScheme, TopologyError> + Sync + 'a;

/// Sweeps the analytical bandwidth over bus counts `bus_counts` for an
/// `n × m` network whose scheme at each `B` is produced by `factory`,
/// evaluating the points across all available cores.
///
/// # Errors
///
/// Scheme/network construction failures surface as
/// [`AnalysisError::Topology`]; bandwidth errors are propagated as-is. When
/// several points fail, the error of the first failing point (in
/// `bus_counts` order) is returned.
pub fn bus_sweep(
    n: usize,
    m: usize,
    bus_counts: &[usize],
    factory: &SchemeFactory<'_>,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<Vec<SweepPoint>, AnalysisError> {
    bus_sweep_with_workers(n, m, bus_counts, factory, matrix, r, available_workers())
}

/// [`bus_sweep`] with an explicit worker-thread budget (`workers <= 1`
/// evaluates serially on the calling thread). Exposed for benchmarking the
/// parallel speedup and for callers that manage their own thread budget.
///
/// # Errors
///
/// Same contract as [`bus_sweep`].
pub fn bus_sweep_with_workers(
    n: usize,
    m: usize,
    bus_counts: &[usize],
    factory: &SchemeFactory<'_>,
    matrix: &RequestMatrix,
    r: f64,
    workers: usize,
) -> Result<Vec<SweepPoint>, AnalysisError> {
    let points = parallel_map_dynamic(bus_counts.to_vec(), workers, |b| {
        let net = BusNetwork::new(n, m, b, factory(b)?)?;
        Ok(SweepPoint {
            buses: b,
            bandwidth: bandwidth::memory_bandwidth(&net, matrix, r)?,
        })
    });
    points.into_iter().collect()
}

/// The §IV "bus halving" ratio: bandwidth with `N` buses divided by
/// bandwidth with `N/2` buses, for a single-connection network.
///
/// The paper reports ≈1.5 (uniform, r = 1), ≈1.2 (uniform, r = 0.5),
/// ≈1.6 (hierarchical, r = 1), and ≈1.28 (hierarchical, r = 0.5).
///
/// # Errors
///
/// Propagates bandwidth-computation errors.
pub fn single_connection_halving_ratio(
    n: usize,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<f64, AnalysisError> {
    let at = |b: usize| -> Result<f64, AnalysisError> {
        let net = BusNetwork::new(n, n, b, ConnectionScheme::balanced_single(n, b)?)?;
        bandwidth::memory_bandwidth(&net, matrix, r)
    };
    Ok(at(n)? / at(n / 2)?)
}

/// Finds the smallest bus count whose full-connection bandwidth reaches
/// `fraction` of the crossbar bandwidth — the paper's "how many buses do you
/// actually need" question (§IV: N/2 buses suffice when r = 0.5).
///
/// # Errors
///
/// Propagates bandwidth-computation errors.
pub fn buses_for_crossbar_fraction(
    n: usize,
    matrix: &RequestMatrix,
    r: f64,
    fraction: f64,
) -> Result<usize, AnalysisError> {
    if !(0.0..=1.0).contains(&fraction) || !fraction.is_finite() {
        return Err(AnalysisError::InvalidProbability {
            name: "crossbar fraction",
            value: fraction,
        });
    }
    let xbar = {
        let net =
            BusNetwork::new(n, n, n, ConnectionScheme::Crossbar).map_err(AnalysisError::from)?;
        bandwidth::memory_bandwidth(&net, matrix, r)?
    };
    for b in 1..=n {
        let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(AnalysisError::from)?;
        if bandwidth::memory_bandwidth(&net, matrix, r)? >= fraction * xbar {
            return Ok(b);
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    fn unif(n: usize) -> RequestMatrix {
        UniformModel::new(n, n).unwrap().matrix()
    }

    #[test]
    fn sweep_is_monotone_in_buses() {
        let matrix = hier(16);
        let points = bus_sweep(
            16,
            16,
            &[1, 2, 4, 8, 16],
            &|_| Ok(ConnectionScheme::Full),
            &matrix,
            1.0,
        )
        .unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].bandwidth >= pair[0].bandwidth - 1e-12);
        }
        assert_eq!(points[0].buses, 1);
        assert!(
            (points[0].bandwidth - 1.0).abs() < 1e-9,
            "one bus saturates"
        );
    }

    #[test]
    fn paper_halving_ratios() {
        // §IV quotes "nearly 1.5", "1.2", "almost 1.6", "1.28" for the
        // single-connection network. The precise values implied by the
        // paper's own Table IV at N = 32 are 20.41/13.90 = 1.468,
        // 12.67/10.16 = 1.247, 23.48/14.87 = 1.579, 13.69/10.76 = 1.272.
        let cases = [
            (unif(32), 1.0, 1.468, 0.01),
            (unif(32), 0.5, 1.247, 0.01),
            (hier(32), 1.0, 1.579, 0.01),
            (hier(32), 0.5, 1.272, 0.01),
        ];
        for (matrix, r, expected, tol) in cases {
            let ratio = single_connection_halving_ratio(32, &matrix, r).unwrap();
            assert!(
                (ratio - expected).abs() < tol,
                "r={r}: ratio {ratio} vs paper's ~{expected}"
            );
        }
    }

    #[test]
    fn half_the_buses_suffice_at_half_rate() {
        // §IV: "for r = 0.5 … the network with B = N/2 buses performs close
        // to that of network with B = N buses."
        // "Close" in the paper's Table III sense: B = 8 reaches ~95% of the
        // crossbar at r = 0.5 (6.52 of 6.87) but only ~68% at r = 1.0.
        let n = 16;
        let needed = buses_for_crossbar_fraction(n, &hier(n), 0.5, 0.94).unwrap();
        assert!(needed <= n / 2, "needed {needed} buses");
        // At r = 1.0 that is no longer true.
        let needed_full_rate = buses_for_crossbar_fraction(n, &hier(n), 1.0, 0.94).unwrap();
        assert!(needed_full_rate > n / 2);
    }

    #[test]
    fn factory_errors_are_reported() {
        let matrix = hier(8);
        let result = bus_sweep(
            8,
            8,
            &[3],
            &|b| ConnectionScheme::balanced_single(8, b),
            &matrix,
            1.0,
        );
        assert!(result.is_ok());
        // A factory that demands indivisible groups fails cleanly, with the
        // underlying topology error preserved (not remapped to a bogus
        // dimension mismatch).
        let result = bus_sweep(
            8,
            8,
            &[3],
            &|_| Ok(ConnectionScheme::PartialGroups { groups: 2 }),
            &matrix,
            1.0,
        );
        assert!(matches!(
            result,
            Err(AnalysisError::Topology(
                mbus_topology::TopologyError::GroupsDontDivide { .. }
            ))
        ));
    }

    #[test]
    fn first_failing_point_wins_deterministically() {
        // Two bad points (B = 3 and B = 100): the error must belong to the
        // earliest one in input order, however the threads interleave.
        let matrix = hier(8);
        let result = bus_sweep(
            8,
            8,
            &[2, 3, 4, 100],
            &|_| Ok(ConnectionScheme::PartialGroups { groups: 2 }),
            &matrix,
            1.0,
        );
        match result {
            Err(AnalysisError::Topology(mbus_topology::TopologyError::GroupsDontDivide {
                buses,
                ..
            })) => assert_eq!(buses, 3),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let matrix = hier(16);
        let counts = [1, 2, 3, 4, 6, 8, 12, 16];
        let factory: &SchemeFactory<'_> = &|_| Ok(ConnectionScheme::Full);
        let serial = bus_sweep_with_workers(16, 16, &counts, factory, &matrix, 0.75, 1).unwrap();
        let parallel = bus_sweep_with_workers(16, 16, &counts, factory, &matrix, 0.75, 8).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fraction_validation() {
        assert!(buses_for_crossbar_fraction(8, &hier(8), 1.0, 1.5).is_err());
    }
}
