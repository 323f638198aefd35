//! Degraded-mode analytical bandwidth: the paper's equations evaluated
//! through a [`FaultMask`].
//!
//! The paper motivates every multiple-bus scheme with its *degree* of fault
//! tolerance (Table I) but never quantifies what a failure costs. This
//! module closes that gap: it re-derives the eq (2)–(6)/(9)/(12) bandwidth
//! structure for a network observed through a fault mask, matching the
//! simulator's degraded semantics exactly:
//!
//! * requests aimed at memories with no alive bus are **dropped** (they
//!   contribute to `unreachable_load`, not to bandwidth, and they do not
//!   interfere with other memories — per-memory arbitration is
//!   independent);
//! * full connection serves `E[min(D, alive buses)]`;
//! * single connection sums busy probabilities over alive buses only;
//! * partial groups become independent subnetworks with their *surviving*
//!   bus counts;
//! * K-class networks assign each class's winners top-down over the alive
//!   buses of the class's range, so an alive bus `i` carries a class-`c`
//!   contender with probability `P(D_c > A_c(i))` where `A_c(i)` counts the
//!   alive buses above `i` that class `c` can also reach. With no failures
//!   `A_c(i)` equals the paper's eq (11) allowance `j − a`, and the whole
//!   computation reduces to [`crate::bandwidth::analyze`] (asserted in the
//!   tests).
//!
//! The same independence approximation as the healthy-mode analysis
//! applies: per-memory request indicators are treated as independent across
//! modules. The cross-validation suite pins the result against
//! fault-scheduled simulation.
//!
//! # Prepared model, per-mask evaluation
//!
//! A fault campaign evaluates one `(network, workload, r)` under thousands
//! of masks, so the evaluation is split in two. [`DegradedModel::new`]
//! validates the inputs once and computes everything the mask cannot
//! change: the per-memory probabilities `X_j`, the offered load, the
//! full-connection requested-count distribution, the per-group
//! distributions, the single-connection per-bus busy probabilities, and for
//! K classes the table `P(D_c > a)` for every allowance `a` a class can
//! see. [`DegradedModel::evaluate`] then does only the mask-dependent work
//! (reachability, the dropped load, alive counts, the K-class cross-class
//! tie split) and allocates nothing beyond the vectors it returns.
//! [`degraded_analyze`] is exactly `DegradedModel::new(..)?.evaluate(mask)`,
//! so the one-shot and the prepared paths are one code path.
//!
//! Every hoisted value is computed by the same floating-point operations in
//! the same order as a per-mask evaluation would, and the mask-dependent
//! sums keep their order, so results are bit-identical whichever way a mask
//! is evaluated and however many masks share a model.

use crate::bandwidth::{poisson_binomial, validate};
use crate::AnalysisError;
use mbus_stats::prob::{check, PoissonBinomial};
use mbus_topology::{BusNetwork, ConnectionScheme, DegradedView, FaultMask, SchemeKind};
use mbus_workload::RequestMatrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A degraded-mode bandwidth result with its derived quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedBreakdown {
    /// Effective memory bandwidth under the mask: expected successful
    /// requests per cycle.
    pub bandwidth: f64,
    /// Offered load `Σ_p r·Σ_j prob(p,j)`: expected issued requests per
    /// cycle (unchanged by faults — processors keep issuing).
    pub offered_load: f64,
    /// Probability a request is accepted, `bandwidth / offered_load`
    /// (1 when nothing is offered).
    pub acceptance: f64,
    /// Expected requests per cycle aimed at unreachable memories (dropped
    /// before arbitration) — the analytical counterpart of the simulator's
    /// `unreachable_rate`.
    pub unreachable_load: f64,
    /// Number of memories still reachable under the mask.
    pub accessible_memories: usize,
    /// Fraction of memories still reachable, in `[0, 1]`.
    pub accessible_fraction: f64,
    /// Per-bus busy probabilities, length `B`; failed buses report 0. For
    /// full-connection networks the scheme's round-robin arbiter spreads
    /// load symmetrically over the alive buses, so each alive bus gets the
    /// mean; the crossbar (no shared buses) reports an empty vector.
    pub per_bus_busy: Vec<f64>,
    /// For K-class networks: expected requests served per cycle *per
    /// class*, `C_1` first. `None` for other schemes. Class `C_j` reaches
    /// exactly 0 once all `j + B − K` of its buses are failed, while higher
    /// classes stay positive — Table I's "flexible" fault tolerance made
    /// quantitative.
    pub per_class_bandwidth: Option<Vec<f64>>,
}

/// Degraded-mode effective memory bandwidth of `net` under `mask`.
///
/// # Errors
///
/// Same as [`degraded_analyze`].
pub fn degraded_bandwidth(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
) -> Result<f64, AnalysisError> {
    Ok(degraded_analyze(net, matrix, r, mask)?.bandwidth)
}

/// Full degraded-mode breakdown of `net` under the workload `matrix` at
/// request rate `r`, observed through `mask`.
///
/// With an all-alive mask this agrees with
/// [`crate::bandwidth::analyze`] to floating-point noise. To evaluate many
/// masks of one network, build a [`DegradedModel`] once instead.
///
/// # Errors
///
/// * network/workload dimension mismatch →
///   [`AnalysisError::DimensionMismatch`];
/// * `r ∉ [0, 1]` → [`AnalysisError::InvalidRate`];
/// * mask covering a different bus count than the network →
///   [`AnalysisError::Topology`];
/// * schemes outside the paper's five → [`AnalysisError::UnsupportedScheme`].
pub fn degraded_analyze(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
    mask: &FaultMask,
) -> Result<DegradedBreakdown, AnalysisError> {
    DegradedModel::new(net, matrix, r)?.evaluate(mask)
}

/// A network, workload and request rate prepared for degraded-mode
/// evaluation under any number of fault masks.
///
/// `new` does the mask-independent work once; [`DegradedModel::evaluate`]
/// is then cheap, allocation-free apart from its result, and `&self`, so
/// one model can be shared by every worker of a campaign.
///
/// # Examples
///
/// ```
/// use mbus_analysis::degraded::{degraded_analyze, DegradedModel};
/// use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask};
/// use mbus_workload::{HierarchicalModel, RequestModel};
///
/// let scheme = ConnectionScheme::uniform_classes(8, 4)?;
/// let net = BusNetwork::new(8, 8, 4, scheme)?;
/// let matrix = HierarchicalModel::two_level_paired(8, 4, [0.6, 0.3, 0.1])?.matrix();
/// let model = DegradedModel::new(&net, &matrix, 1.0)?;
/// for failed in 0..4 {
///     let mask = FaultMask::with_failures(4, &[failed])?;
///     let prepared = model.evaluate(&mask)?;
///     assert_eq!(prepared, degraded_analyze(&net, &matrix, 1.0, &mask)?);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DegradedModel<'a> {
    net: &'a BusNetwork,
    matrix: &'a RequestMatrix,
    r: f64,
    offered_load: f64,
    scheme: Prepared,
}

/// The mask-independent part of each scheme's evaluation.
#[derive(Debug, Clone)]
enum Prepared {
    /// `Σ_j X_j`: the crossbar has no shared buses to fail.
    Crossbar { bandwidth: f64 },
    /// The requested-count distribution over every memory.
    Full { pb: PoissonBinomial },
    /// Each bus's healthy busy probability `1 − Π_{j on bus}(1 − X_j)`.
    Single { busy: Vec<f64> },
    /// One requested-count distribution per group of `per_group_bus` buses.
    Partial {
        per_group_bus: usize,
        pbs: Vec<PoissonBinomial>,
    },
    /// `contender[c][a] = P(D_c > a)` for every allowance `a` below class
    /// `c`'s bus count: the probability that an alive bus with `a` alive
    /// buses of the class above it holds a class-`c` winner.
    KClasses { contender: Vec<Vec<f64>> },
}

/// Per-thread K-class scratch, reused by every mask the thread evaluates.
struct KClassScratch {
    /// `alive_below[j]`: alive buses among `0..j`.
    alive_below: Vec<usize>,
    /// The contender probabilities of the current bus, one per class.
    row: Vec<f64>,
    /// The pmf of the number of *other* contending classes.
    others: Vec<f64>,
}

thread_local! {
    static KCLASS_SCRATCH: RefCell<KClassScratch> = const {
        RefCell::new(KClassScratch {
            alive_below: Vec::new(),
            row: Vec::new(),
            others: Vec::new(),
        })
    };
}

impl<'a> DegradedModel<'a> {
    /// Validates `net`, `matrix` and `r` and precomputes everything the
    /// degraded evaluation does not take from the mask.
    ///
    /// # Errors
    ///
    /// * network/workload dimension mismatch →
    ///   [`AnalysisError::DimensionMismatch`];
    /// * `r ∉ [0, 1]` → [`AnalysisError::InvalidRate`];
    /// * schemes outside the paper's five →
    ///   [`AnalysisError::UnsupportedScheme`];
    /// * a per-memory or K-class contender probability outside `[0, 1]` →
    ///   [`AnalysisError::InvalidProbability`].
    pub fn new(
        net: &'a BusNetwork,
        matrix: &'a RequestMatrix,
        r: f64,
    ) -> Result<Self, AnalysisError> {
        validate(net, matrix)?;
        if !r.is_finite() || !(0.0..=1.0).contains(&r) {
            return Err(AnalysisError::InvalidRate { value: r });
        }
        let xs = matrix.memory_request_probs(r)?;
        let offered_load = matrix.offered_load(r);
        let b = net.buses();
        let scheme = match net.scheme() {
            ConnectionScheme::Crossbar => Prepared::Crossbar {
                bandwidth: xs.iter().sum(),
            },
            ConnectionScheme::Full => Prepared::Full {
                pb: poisson_binomial(&xs)?,
            },
            // A bus is busy iff any of its own modules is requested.
            ConnectionScheme::Single { .. } => Prepared::Single {
                busy: (0..b)
                    .map(|bus| {
                        let idle: f64 = net.memories_of_bus(bus).map(|j| 1.0 - xs[j]).product();
                        1.0 - idle
                    })
                    .collect(),
            },
            ConnectionScheme::PartialGroups { groups } => {
                let g = *groups;
                let per_group_mem = net.memories() / g;
                Prepared::Partial {
                    per_group_bus: b / g,
                    pbs: (0..g)
                        .map(|q| poisson_binomial(&xs[q * per_group_mem..(q + 1) * per_group_mem]))
                        .collect::<Result<_, _>>()?,
                }
            }
            // Class c reaches buses 0..kclass_bus_count(c), so the alive
            // buses above any of them number fewer than that count.
            ConnectionScheme::KClasses { class_sizes } => Prepared::KClasses {
                contender: (0..class_sizes.len())
                    .map(|c| {
                        // lint:allow(no_panic, class ranges exist for every class index; BusNetwork::new validated the K-class layout)
                        let range = net.memories_of_class(c).expect("validated K-class");
                        let pb = poisson_binomial(&xs[range])?;
                        let pmf = pb.pmf_slice();
                        // P(D_c ≤ above), summed like the healthy path so
                        // the no-fault case reproduces it to float parity.
                        let table: Vec<f64> = (0..net.kclass_bus_count(c))
                            .map(|above| {
                                let cdf: f64 = pmf.iter().take(above + 1).sum();
                                1.0 - cdf.min(1.0)
                            })
                            .collect();
                        // Every per-mask contender probability is one of
                        // these or 0, so checking them here validates each
                        // tie-split Poisson-binomial's inputs.
                        match table
                            .iter()
                            .find(|p| !p.is_finite() || !(0.0..=1.0).contains(*p))
                        {
                            Some(&value) => Err(AnalysisError::InvalidProbability {
                                name: "K-class contender probability",
                                value,
                            }),
                            None => Ok(table),
                        }
                    })
                    .collect::<Result<_, AnalysisError>>()?,
            },
            other => {
                return Err(AnalysisError::UnsupportedScheme {
                    scheme: other.kind().to_string(),
                })
            }
        };
        Ok(Self {
            net,
            matrix,
            r,
            offered_load,
            scheme,
        })
    }

    /// The degraded-mode breakdown of the prepared network under `mask`.
    ///
    /// # Errors
    ///
    /// A mask covering a different bus count than the network →
    /// [`AnalysisError::Topology`].
    pub fn evaluate(&self, mask: &FaultMask) -> Result<DegradedBreakdown, AnalysisError> {
        let net = self.net;
        let view = DegradedView::new(net, mask)?;

        // Requests to unreachable memories are dropped before arbitration;
        // the expected dropped load is the per-processor traffic into those
        // columns. Reachable memories keep their exact X_j: dropping a
        // request removes it from *its own* (dead) memory's arbitration only.
        let mut unreachable_load = 0.0;
        let mut accessible_memories = 0;
        for j in 0..net.memories() {
            if view.is_memory_accessible(j) {
                accessible_memories += 1;
            } else {
                for p in 0..net.processors() {
                    unreachable_load += self.r * self.matrix.prob(p, j);
                }
            }
        }
        let accessible_fraction = accessible_memories as f64 / net.memories() as f64;

        let b = net.buses();
        let (bandwidth, per_bus_busy, per_class_bandwidth) = match &self.scheme {
            Prepared::Crossbar { bandwidth } => (*bandwidth, Vec::new(), None),
            // Full connection: every memory rides any alive bus, so the
            // network behaves like a healthy one with `alive` buses.
            Prepared::Full { pb } => {
                let alive = mask.alive_count();
                if alive == 0 {
                    (0.0, vec![0.0; b], None)
                } else {
                    let total = pb.expected_min_with(alive);
                    // Round-robin rotation spreads grants evenly over alive
                    // buses; failed buses carry nothing.
                    let share = total / alive as f64;
                    let busy = (0..b)
                        .map(|bus| if mask.is_alive(bus) { share } else { 0.0 })
                        .collect();
                    (total, busy, None)
                }
            }
            // Single connection: a failed bus's modules are unreachable.
            Prepared::Single { busy } => {
                let busy: Vec<f64> = busy
                    .iter()
                    .enumerate()
                    .map(|(bus, &p)| if mask.is_failed(bus) { 0.0 } else { p })
                    .collect();
                (busy.iter().sum(), busy, None)
            }
            // Partial groups: independent subnetworks, each serving
            // E[min(D_q, alive_q)] on its surviving buses.
            Prepared::Partial { per_group_bus, pbs } => {
                let mut total = 0.0;
                let mut busy = vec![0.0; b];
                for (q, pb) in pbs.iter().enumerate() {
                    let group_buses = q * per_group_bus..(q + 1) * per_group_bus;
                    let alive = group_buses.clone().filter(|&i| mask.is_alive(i)).count();
                    if alive == 0 {
                        continue;
                    }
                    let group_bw = pb.expected_min_with(alive);
                    total += group_bw;
                    let share = group_bw / alive as f64;
                    for i in group_buses.filter(|&i| mask.is_alive(i)) {
                        busy[i] = share;
                    }
                }
                (total, busy, None)
            }
            // K classes: top-down assignment over each class's alive buses.
            Prepared::KClasses { contender } => {
                let (busy, per_class) = kclass_service(contender, mask);
                (busy.iter().sum(), busy, Some(per_class))
            }
        };

        let acceptance = if self.offered_load > 0.0 {
            bandwidth / self.offered_load
        } else {
            1.0
        };
        check::assert_probability("degraded acceptance probability", acceptance);
        check::assert_probability("accessible memory fraction", accessible_fraction);
        check::assert_probabilities("degraded per-bus busy probabilities", &per_bus_busy);
        // A degraded network serves at most min(alive buses, N, M) requests
        // per cycle (the crossbar has no shared buses to fail, so it keeps
        // min(N, M)).
        let alive_capacity = match net.kind() {
            SchemeKind::Crossbar => net.capacity(),
            _ => mask.alive_count(),
        };
        check::assert_bandwidth_bounds(bandwidth, alive_capacity, net.processors(), net.memories());
        Ok(DegradedBreakdown {
            bandwidth,
            offered_load: self.offered_load,
            acceptance,
            unreachable_load,
            accessible_memories,
            accessible_fraction,
            per_bus_busy,
            per_class_bandwidth,
        })
    }
}

/// Per-bus busy probabilities and per-class service of a K-class network
/// under `mask`, from the prepared `P(D_c > a)` tables.
///
/// An alive bus `i` holds a class-`c` winner with probability
/// `p_c(i) = P(D_c > A_c(i))`, `A_c(i)` the alive buses above `i` within
/// class `c`'s range. Class `c` wins the bus with probability
/// `p_c(i)·E[1/(1+T)]`, `T` the number of *other* classes contending at `i`
/// (cross-class ties broken uniformly by the arbiter).
fn kclass_service(contender: &[Vec<f64>], mask: &FaultMask) -> (Vec<f64>, Vec<f64>) {
    let k = contender.len();
    let b = mask.buses();
    let mut busy = vec![0.0; b];
    let mut per_class = vec![0.0f64; k];
    KCLASS_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.alive_below.clear();
        scratch.alive_below.push(0);
        let mut alive = 0;
        for bus in 0..b {
            alive += usize::from(mask.is_alive(bus));
            scratch.alive_below.push(alive);
        }
        scratch.row.resize(k, 0.0);
        scratch.others.resize(k, 0.0);
        let (alive_below, row) = (&scratch.alive_below, &mut scratch.row);
        for (i, busy_i) in busy.iter_mut().enumerate() {
            if mask.is_failed(i) {
                continue;
            }
            for (p, table) in row.iter_mut().zip(contender) {
                *p = match table.len() {
                    top if i < top => table[alive_below[top] - alive_below[i + 1]],
                    _ => 0.0,
                };
            }
            let idle: f64 = row.iter().map(|&p| 1.0 - p).product();
            *busy_i = 1.0 - idle;
            for c in 0..k {
                let p_c = row[c];
                if p_c == 0.0 {
                    continue;
                }
                let pmf = others_pmf(row, c, &mut scratch.others);
                let win: f64 = pmf
                    .iter()
                    .enumerate()
                    .map(|(extra, &p)| p / (extra as f64 + 1.0))
                    .sum();
                per_class[c] += p_c * win;
            }
        }
    });
    debug_assert!(
        (per_class.iter().sum::<f64>() - busy.iter().sum::<f64>()).abs() < 1e-9,
        "per-class decomposition must resum to total bandwidth"
    );
    (busy, per_class)
}

/// The pmf of how many entries of `row` other than `skip` succeed, built
/// in `scratch` (length `row.len()`) by the `PoissonBinomial::new` DP,
/// operation for operation, over the entries in order. The entries are
/// validated probabilities (`DegradedModel::new` checks the tables they
/// come from).
///
/// Zero entries are left out and the pmf is returned only up to the
/// nonzero ones' count. That is exact: a zero trial multiplies every pmf
/// term by `1.0` and adds `+0.0`, and every term above the support is
/// `+0.0` (all terms are non-negative), so it adds nothing to a sum.
fn others_pmf<'s>(row: &[f64], skip: usize, scratch: &'s mut [f64]) -> &'s [f64] {
    scratch.fill(0.0);
    scratch[0] = 1.0;
    let mut n = 0;
    for (_, &p) in row
        .iter()
        .enumerate()
        .filter(|&(o, &p)| o != skip && p != 0.0)
    {
        for k in (1..=n + 1).rev() {
            scratch[k] = scratch[k] * (1.0 - p) + scratch[k - 1] * p;
        }
        scratch[0] *= 1.0 - p;
        n += 1;
    }
    &scratch[..=n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::analyze;
    use mbus_workload::{HierarchicalModel, RequestModel, UniformModel};

    fn hier_matrix(n: usize) -> RequestMatrix {
        HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
            .unwrap()
            .matrix()
    }

    fn schemes(n: usize, b: usize) -> Vec<(&'static str, ConnectionScheme)> {
        vec![
            ("full", ConnectionScheme::Full),
            ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
            ("partial", ConnectionScheme::PartialGroups { groups: 2 }),
            ("kclass", ConnectionScheme::uniform_classes(n, b).unwrap()),
        ]
    }

    #[test]
    fn no_fault_mask_reproduces_healthy_analysis() {
        let n = 16;
        let b = 4;
        let matrix = hier_matrix(n);
        for (name, scheme) in schemes(n, b) {
            let net = BusNetwork::new(n, n, b, scheme).unwrap();
            for r in [1.0, 0.6] {
                let healthy = analyze(&net, &matrix, r).unwrap();
                let degraded = degraded_analyze(&net, &matrix, r, &FaultMask::none(b)).unwrap();
                assert!(
                    (healthy.bandwidth - degraded.bandwidth).abs() < 1e-9,
                    "{name}/r={r}: {} vs {}",
                    healthy.bandwidth,
                    degraded.bandwidth
                );
                assert_eq!(degraded.unreachable_load, 0.0);
                assert_eq!(degraded.accessible_memories, n);
                assert!((degraded.acceptance - healthy.acceptance).abs() < 1e-9);
                if let Some(busy) = &healthy.per_bus_busy {
                    for (a, d) in busy.iter().zip(&degraded.per_bus_busy) {
                        assert!((a - d).abs() < 1e-12, "{name}: per-bus busy diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn full_with_failures_equals_smaller_network() {
        let n = 16;
        let matrix = hier_matrix(n);
        let net = BusNetwork::new(n, n, 6, ConnectionScheme::Full).unwrap();
        for failed in 1..=5usize {
            let mask = FaultMask::with_failures(6, &(0..failed).collect::<Vec<_>>()).unwrap();
            let degraded = degraded_bandwidth(&net, &matrix, 1.0, &mask).unwrap();
            let shrunk = BusNetwork::new(n, n, 6 - failed, ConnectionScheme::Full).unwrap();
            let healthy = analyze(&shrunk, &matrix, 1.0).unwrap().bandwidth;
            assert!(
                (degraded - healthy).abs() < 1e-12,
                "{failed} failures: {degraded} vs B-{failed} healthy {healthy}"
            );
        }
        // All buses dead: zero.
        let mask = FaultMask::with_failures(6, &[0, 1, 2, 3, 4, 5]).unwrap();
        let dead = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert_eq!(dead.bandwidth, 0.0);
        assert_eq!(dead.accessible_memories, 0);
        assert!((dead.unreachable_load - dead.offered_load).abs() < 1e-12);
    }

    #[test]
    fn single_failed_bus_drops_exactly_its_modules() {
        let n = 8;
        let matrix = UniformModel::new(n, n).unwrap().matrix();
        let net =
            BusNetwork::new(n, n, 4, ConnectionScheme::balanced_single(n, 4).unwrap()).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap();
        let mask = FaultMask::with_failures(4, &[0]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        // Uniform traffic over a balanced placement: losing 1 of 4 buses
        // loses exactly a quarter of the busy probability mass.
        assert!((degraded.bandwidth - healthy.bandwidth * 0.75).abs() < 1e-12);
        assert_eq!(degraded.per_bus_busy[0], 0.0);
        assert_eq!(degraded.accessible_memories, 6);
        // 8 processors each sending 1/4 of their traffic to dead modules.
        assert!((degraded.unreachable_load - 8.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn partial_group_loss_halves_symmetric_network() {
        let n = 8;
        let matrix = UniformModel::new(n, n).unwrap().matrix();
        let net = BusNetwork::new(n, n, 4, ConnectionScheme::PartialGroups { groups: 2 }).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap().bandwidth;
        let mask = FaultMask::with_failures(4, &[0, 1]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert!((degraded.bandwidth - healthy / 2.0).abs() < 1e-12);
        assert_eq!(degraded.accessible_memories, 4);
    }

    #[test]
    fn kclass_class_dies_after_its_bus_count_fails() {
        // N = M = 8, B = K = 4: class C_j (1-based) reaches buses 0..j, so
        // it dies exactly once buses 0..j−1 (j of them? no: j + B − K = j
        // buses) are down.
        let n = 8;
        let b = 4;
        let matrix = hier_matrix(n);
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        for f in 0..=b {
            let mask = FaultMask::with_failures(b, &(0..f).collect::<Vec<_>>()).unwrap();
            let breakdown = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
            let per_class = breakdown.per_class_bandwidth.unwrap();
            for (c, &bw) in per_class.iter().enumerate() {
                let class_buses = net.kclass_bus_count(c);
                if f >= class_buses {
                    assert_eq!(bw, 0.0, "f={f}: class C_{} must be dead", c + 1);
                } else {
                    assert!(bw > 0.0, "f={f}: class C_{} must survive", c + 1);
                }
            }
        }
    }

    #[test]
    fn kclass_high_bus_failures_are_absorbed() {
        // Failing the top bus costs bandwidth but disconnects nobody;
        // failing the bottom bus kills class C_1.
        let n = 8;
        let b = 4;
        let matrix = hier_matrix(n);
        let net =
            BusNetwork::new(n, n, b, ConnectionScheme::uniform_classes(n, b).unwrap()).unwrap();
        let high = degraded_analyze(
            &net,
            &matrix,
            1.0,
            &FaultMask::with_failures(b, &[3]).unwrap(),
        )
        .unwrap();
        let low = degraded_analyze(
            &net,
            &matrix,
            1.0,
            &FaultMask::with_failures(b, &[0]).unwrap(),
        )
        .unwrap();
        assert_eq!(high.accessible_memories, n);
        assert_eq!(high.unreachable_load, 0.0);
        assert_eq!(low.accessible_memories, n - 2);
        assert!(low.unreachable_load > 0.0);
        assert!(high.bandwidth > low.bandwidth);
    }

    #[test]
    fn crossbar_ignores_masks() {
        let n = 8;
        let matrix = hier_matrix(n);
        let net = BusNetwork::new(n, n, 1, ConnectionScheme::Crossbar).unwrap();
        let healthy = analyze(&net, &matrix, 1.0).unwrap().bandwidth;
        let mask = FaultMask::with_failures(1, &[0]).unwrap();
        let degraded = degraded_analyze(&net, &matrix, 1.0, &mask).unwrap();
        assert!((degraded.bandwidth - healthy).abs() < 1e-12);
        assert_eq!(degraded.unreachable_load, 0.0);
    }

    #[test]
    fn others_pmf_matches_poisson_binomial_bit_for_bit() {
        let rows: [&[f64]; 5] = [
            &[0.3, 0.0, 0.7, 1.0, 0.25],
            &[0.0, 0.0, 0.0],
            &[0.9],
            &[1.0, 1.0, 0.5, 0.0, 0.125, 0.0, 0.6],
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        ];
        for row in rows {
            let mut scratch = vec![f64::NAN; row.len()];
            for skip in 0..row.len() {
                let others: Vec<f64> = (0..row.len())
                    .filter(|&o| o != skip)
                    .map(|o| row[o])
                    .collect();
                let reference = PoissonBinomial::new(&others).unwrap();
                let pmf = others_pmf(row, skip, &mut scratch);
                let (head, tail) = reference.pmf_slice().split_at(pmf.len());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(pmf), bits(head), "{row:?} without {skip}");
                assert!(tail.iter().all(|&p| p.to_bits() == 0), "{row:?}: {tail:?}");
                let win = |v: &[f64]| -> f64 {
                    v.iter()
                        .enumerate()
                        .map(|(extra, &p)| p / (extra as f64 + 1.0))
                        .sum()
                };
                assert_eq!(win(pmf).to_bits(), win(reference.pmf_slice()).to_bits());
            }
        }
    }

    #[test]
    fn validation_errors() {
        let matrix = hier_matrix(8);
        let net = BusNetwork::new(8, 8, 4, ConnectionScheme::Full).unwrap();
        // Wrong mask width.
        assert!(matches!(
            degraded_analyze(&net, &matrix, 1.0, &FaultMask::none(3)),
            Err(AnalysisError::Topology(_))
        ));
        // Bad rate.
        assert!(matches!(
            degraded_analyze(&net, &matrix, 2.0, &FaultMask::none(4)),
            Err(AnalysisError::InvalidRate { .. })
        ));
        // Dimension mismatch.
        let wrong_net = BusNetwork::new(4, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            degraded_analyze(&wrong_net, &matrix, 1.0, &FaultMask::none(4)),
            Err(AnalysisError::DimensionMismatch { .. })
        ));
    }
}
