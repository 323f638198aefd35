//! Symmetry-**lumped** exact resubmission chain.
//!
//! The unlumped chain in [`crate::markov`] tracks *which* processor holds
//! *which* pending request — `(M+1)^N` states, confining it to toy systems
//! (N ≤ 3 at M = 8 under its `MAX_STATES` budget). But the hierarchical
//! requesting model (paper eq (1)) makes processors within a cluster
//! exchangeable, and when **all** rows are identical the chain's dynamics
//! are equivariant under every processor permutation: the per-memory
//! pending **counts** `(c_1, …, c_M)` form an exactly lumped chain
//! (Kemeny–Snell lumpability — every state of an orbit has the same
//! aggregate transition probability into each other orbit). Winner
//! identities integrate out: a served memory with `t` requesters simply
//! drops to `t − 1` pending.
//!
//! Two lumping tiers, picked automatically:
//!
//! * **processor-lumped** (identical rows, labeled memories): states are
//!   count vectors, at most `C(N+M, M)` and usually far fewer reachable;
//! * **orbit-lumped** (uniform rows, `q_j = 1/M`): the chain is *also*
//!   equivariant under memory permutations (full/crossbar arbiters are
//!   memory-symmetric), so states collapse to sorted count multisets —
//!   partitions — reaching `N = 16, M = 8` in under a thousand states
//!   where the unlumped chain needs `9^16 ≈ 1.8·10^15`.
//!
//! Both tiers run one builder, which splits every transition the way
//! eq (2)'s request model does:
//!
//! 1. **Arrival stage.** A DFS over fresh-arrival counts (multinomial:
//!    idle `1 − r`, memory `j` w.p. `r·q_j`; the orbit tier enumerates
//!    non-increasing counts within each class of equal pending count and
//!    multiplies by the class permutation multiplicity) accumulates the
//!    weight of every *post-arrival totals* vector (sorted, in the orbit
//!    tier).
//! 2. **Service stage.** A uniform `S = min(D, B)`-subset of the `D`
//!    requested memories is served (multivariate hypergeometric:
//!    `Π_t C(d_t, s_t) / C(D, S)`), the same idealized arbiter as the
//!    unlumped chain. The split depends only on the totals, not on the
//!    state or on `r`, so each distinct totals vector's *service kernel* —
//!    its `(next state, probability)` list — is computed once per call and
//!    every row is `Σ_post w_post · kernel(post)`.
//!
//! Binomials and powers come from per-call tables filled by `choose_f64`
//! and `powi` themselves. Rows are gathered in a dense accumulator and
//! stored as CSR for the power iteration. New states are interned in
//! sorted key order, so state numbering — and with it every output bit —
//! is the same on every call. Outputs are validated against
//! [`crate::markov`] wherever both fit (see `tests/differential.rs`).

use crate::markov::{subsets_of_size, ResubmissionSteadyState, MAX_STATES};
use crate::ExactError;
use mbus_stats::prob::{check, choose_f64};
use mbus_topology::{BusNetwork, SchemeKind};
use mbus_workload::RequestMatrix;
use std::collections::HashMap;

/// A lumped state: per-memory pending counts (sorted descending in orbit
/// mode). Post-arrival totals share the representation.
type State = Vec<u16>;

/// Sparse chain in CSR form — row `s` is
/// `entries[offsets[s]..offsets[s + 1]]`, `(target, p)` sorted by target —
/// plus expected service and pending total per state.
struct Chain {
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
    served: Vec<f64>,
    pending: Vec<usize>,
}

/// Exact steady state of the resubmission chain for exchangeable
/// processors, by symmetry lumping — same semantics and outputs as
/// [`crate::markov::resubmission_steady_state`], reachable for systems
/// orders of magnitude beyond the unlumped `(M+1)^N` bound.
///
/// # Errors
///
/// * schemes other than full connection / crossbar →
///   [`ExactError::UnsupportedShape`];
/// * non-identical workload rows (processors not exchangeable) →
///   [`ExactError::UnsupportedShape`];
/// * more than [`MAX_STATES`] reachable lumped states →
///   [`ExactError::TooLarge`];
/// * invalid rate / dimensions → [`ExactError::Analysis`].
pub fn lumped_steady_state(
    net: &BusNetwork,
    matrix: &RequestMatrix,
    r: f64,
) -> Result<ResubmissionSteadyState, ExactError> {
    if !matches!(net.kind(), SchemeKind::Full | SchemeKind::Crossbar) {
        return Err(ExactError::UnsupportedShape {
            reason: "the lumped resubmission model covers full connection and crossbar",
        });
    }
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::InvalidRate { value: r },
        ));
    }
    let n = net.processors();
    let m = net.memories();
    if n != matrix.processors() || m != matrix.memories() {
        return Err(ExactError::Analysis(
            mbus_analysis::AnalysisError::DimensionMismatch {
                what: "memories",
                network: m,
                workload: matrix.memories(),
            },
        ));
    }
    let groups = matrix.groups();
    if groups.len() != 1 {
        return Err(ExactError::UnsupportedShape {
            reason: "the lumped chain needs exchangeable processors: all workload rows identical",
        });
    }
    let row = matrix.row(0);
    // Uniform rows add memory-exchangeability: lump over memory
    // permutations too (exact fp equality; the uniform generator emits
    // identical 1/M entries).
    let orbit = m > 1 && row.iter().all(|&q| q.to_bits() == row[0].to_bits());
    let chain = build_chain(net, n, row, r, orbit)?;
    solve_steady_state(net, n, m, r, &chain)
}

/// Largest `n` whose binomials are tabulated. Rows past it — reached only
/// by chains with over a hundred processors — call `choose_f64` directly,
/// so the table never outgrows `129²` entries.
const CHOOSE_TABLE_N: usize = 128;

/// Per-call weight tables. Every entry comes from `choose_f64` or `powi`
/// itself, so the tabulated weights equal the direct calls bit for bit.
struct Weights {
    /// Row stride: `min(max(N, M), CHOOSE_TABLE_N) + 1`.
    width: usize,
    /// `C(n, k)` at `n * width + k`.
    choose: Vec<f64>,
    /// `(r·q_j)^a` at `j * (N + 1) + a`.
    fresh: Vec<f64>,
    /// `(1 − r)^a`.
    idle: Vec<f64>,
}

impl Weights {
    fn new(n: usize, q: &[f64], r: f64, orbit: bool) -> Self {
        let m = q.len();
        let width = n.max(m).min(CHOOSE_TABLE_N) + 1;
        let choose = (0..width * width)
            .map(|i| choose_f64((i / width) as u64, (i % width) as u64))
            .collect();
        let pow = |base: f64| (0..=n).map(move |a| base.powi(i32::try_from(a).unwrap_or(i32::MAX)));
        let fresh = q
            .iter()
            .flat_map(|&q_j| pow(if orbit { r / m as f64 } else { r * q_j }))
            .collect();
        Weights {
            width,
            choose,
            fresh,
            idle: pow(1.0 - r).collect(),
        }
    }

    fn choose(&self, n: usize, k: usize) -> f64 {
        if n < self.width {
            self.choose[n * self.width + k]
        } else {
            choose_f64(n as u64, k as u64)
        }
    }

    fn fresh(&self, j: usize, a: usize) -> f64 {
        self.fresh[j * self.idle.len() + a]
    }
}

/// Dense accumulator over ids with a touched list, so gathering a sparse
/// vector costs only the entries it writes.
#[derive(Default)]
struct Accumulator {
    values: Vec<f64>,
    live: Vec<bool>,
    touched: Vec<usize>,
}

impl Accumulator {
    fn add(&mut self, id: usize, w: f64) {
        if id >= self.values.len() {
            self.values.resize(id + 1, 0.0);
            self.live.resize(id + 1, false);
        }
        if !self.live[id] {
            self.live[id] = true;
            self.touched.push(id);
        }
        self.values[id] += w;
    }

    /// Appends the touched `(id, value)` pairs in ascending id order and
    /// resets the accumulator.
    fn drain_sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        self.touched.sort_unstable();
        for &id in &self.touched {
            out.push((id, self.values[id]));
            self.values[id] = 0.0;
            self.live[id] = false;
        }
        self.touched.clear();
    }
}

/// The chain under construction: reachable states, the call-local
/// service-kernel table, and the arrival DFS scratch.
struct Builder {
    orbit: bool,
    capacity: usize,
    weights: Weights,
    index: HashMap<State, usize>,
    states: Vec<State>,
    /// Post-arrival totals → kernel id.
    kernel_index: HashMap<State, usize>,
    /// Totals whose kernels the current row discovered but has not built.
    kernel_fresh: Vec<State>,
    /// `S = min(D, B)` per kernel.
    kernel_served: Vec<usize>,
    /// Kernel `k` is `kernel_entries[kernel_offsets[k]..kernel_offsets[k + 1]]`.
    kernel_offsets: Vec<usize>,
    kernel_entries: Vec<(usize, f64)>,
    /// Arrival DFS scratch: per-memory post-arrival totals, and their
    /// sorted copy (the orbit tier's key).
    post: Vec<u16>,
    key: Vec<u16>,
    /// Kernel id → accumulated arrival weight for the current row.
    arrivals: Accumulator,
}

/// Builds the lumped chain: the orbit tier when `orbit`, else the
/// processor-lumped tier over labeled memories with request row `q`.
fn build_chain(
    net: &BusNetwork,
    n: usize,
    q: &[f64],
    r: f64,
    orbit: bool,
) -> Result<Chain, ExactError> {
    let m = q.len();
    let mut b = Builder {
        orbit,
        capacity: net.capacity(),
        weights: Weights::new(n, q, r, orbit),
        index: HashMap::new(),
        states: Vec::new(),
        kernel_index: HashMap::new(),
        kernel_fresh: Vec::new(),
        kernel_served: Vec::new(),
        kernel_offsets: vec![0],
        kernel_entries: Vec::new(),
        post: vec![0; m],
        key: vec![0; m],
        arrivals: Accumulator::default(),
    };
    b.intern(vec![0; m])?;

    let mut chain = Chain {
        offsets: vec![0],
        entries: Vec::new(),
        served: Vec::new(),
        pending: Vec::new(),
    };
    let mut row = Accumulator::default();
    let mut weighted = Vec::new();
    let mut s = 0;
    while s < b.states.len() {
        let state = b.states[s].clone();
        let pending: usize = state.iter().map(|&c| usize::from(c)).sum();
        b.arrive(&state, 0, usize::MAX, n - pending, 1.0);
        b.build_fresh_kernels()?;

        weighted.clear();
        b.arrivals.drain_sorted_into(&mut weighted);
        let mut served = 0.0;
        for &(k, w) in &weighted {
            served += w * b.kernel_served[k] as f64;
            for &(t, p) in &b.kernel_entries[b.kernel_offsets[k]..b.kernel_offsets[k + 1]] {
                row.add(t, w * p);
            }
        }
        let start = chain.entries.len();
        row.drain_sorted_into(&mut chain.entries);
        debug_assert!(
            (chain.entries[start..].iter().map(|&(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-9,
            "lumped transition row must be stochastic"
        );
        chain.offsets.push(chain.entries.len());
        chain.served.push(served);
        chain.pending.push(pending);
        s += 1;
    }
    Ok(chain)
}

impl Builder {
    /// Interns `state`, growing the reachable set; errs past the state
    /// budget.
    fn intern(&mut self, state: State) -> Result<usize, ExactError> {
        if let Some(&id) = self.index.get(&state) {
            return Ok(id);
        }
        let id = self.states.len();
        if id >= MAX_STATES {
            return Err(ExactError::TooLarge {
                memories: state.len(),
                limit: MAX_STATES,
            });
        }
        self.index.insert(state.clone(), id);
        self.states.push(state);
        Ok(id)
    }

    /// Arrival-stage DFS over per-memory fresh-arrival counts: memory `i`
    /// receives `a` of the `rem` idle processors' requests with weight
    /// `C(rem, a)·(r·q_i)^a`, and the processors left over stay idle with
    /// `(1 − r)^{rem}` (the telescoping-binomial form of eq (2)'s
    /// independent draws). In the orbit tier, counts are non-increasing
    /// within each class of equal pending count (`prev` is the previous
    /// member's count), so each memory orbit is enumerated once.
    fn arrive(&mut self, state: &[u16], i: usize, prev: usize, rem: usize, weight: f64) {
        if weight == 0.0 {
            return;
        }
        if i == state.len() {
            let mut leaf = weight * self.weights.idle[rem];
            if self.orbit {
                leaf *= orbit_multiplicity(state, &self.post, &self.weights);
            }
            self.record(leaf);
            return;
        }
        let bound = if self.orbit && i > 0 && state[i] == state[i - 1] {
            prev.min(rem)
        } else {
            rem
        };
        for a in 0..=bound {
            let w = weight * self.weights.choose(rem, a) * self.weights.fresh(i, a);
            if w == 0.0 && a > 0 {
                break;
            }
            self.post[i] = state[i] + a as u16;
            self.arrive(state, i + 1, a, rem - a, w);
        }
    }

    /// Adds one arrival outcome's weight to its post-arrival totals'
    /// kernel, registering the kernel on first sight.
    fn record(&mut self, weight: f64) {
        if weight == 0.0 {
            return;
        }
        let key: &[u16] = if self.orbit {
            self.key.copy_from_slice(&self.post);
            self.key.sort_unstable_by(|a, b| b.cmp(a));
            &self.key
        } else {
            &self.post
        };
        let id = match self.kernel_index.get(key) {
            Some(&id) => id,
            None => {
                let id = self.kernel_index.len();
                self.kernel_index.insert(key.to_vec(), id);
                self.kernel_fresh.push(key.to_vec());
                id
            }
        };
        self.arrivals.add(id, weight);
    }

    /// Service stage for every kernel the last DFS discovered, in
    /// discovery order; each kernel's next states are interned in sorted
    /// key order so numbering never depends on hash iteration.
    fn build_fresh_kernels(&mut self) -> Result<(), ExactError> {
        let mut outcomes = Vec::new();
        for totals in std::mem::take(&mut self.kernel_fresh) {
            let served = if self.orbit {
                orbit_service(&totals, self.capacity, &self.weights, &mut outcomes)
            } else {
                labeled_service(&totals, self.capacity, &mut outcomes)
            };
            outcomes.sort_unstable_by(|a: &(State, f64), b| a.0.cmp(&b.0));
            for (next, p) in outcomes.drain(..) {
                let id = self.intern(next)?;
                self.kernel_entries.push((id, p));
            }
            self.kernel_served.push(served);
            self.kernel_offsets.push(self.kernel_entries.len());
        }
        Ok(())
    }
}

/// Orbit tier: how many labeled arrival assignments share this outcome —
/// per class of equal pending count, `class_size! / Π_a (run of a)!`, as
/// a product of binomials over the runs.
fn orbit_multiplicity(state: &[u16], post: &[u16], weights: &Weights) -> f64 {
    let mut perm = 1.0;
    let mut seen = 0;
    let mut run = 0;
    for i in 0..state.len() {
        run += 1;
        let class_ends = i + 1 == state.len() || state[i + 1] != state[i];
        if class_ends || post[i + 1] != post[i] {
            seen += run;
            perm *= weights.choose(seen, run);
            run = 0;
            if class_ends {
                seen = 0;
            }
        }
    }
    perm
}

/// Labeled service kernel: a uniform `min(D, B)`-subset of the requested
/// memories is served; each served memory's count drops by one. Returns
/// the number served.
fn labeled_service(totals: &[u16], capacity: usize, out: &mut Vec<(State, f64)>) -> usize {
    let requested: Vec<usize> = (0..totals.len()).filter(|&j| totals[j] > 0).collect();
    let s_count = requested.len().min(capacity);
    let subsets = subsets_of_size(&requested, s_count);
    let share = 1.0 / subsets.len() as f64;
    for subset in &subsets {
        let mut next = totals.to_vec();
        for &j in subset {
            next[j] -= 1;
        }
        out.push((next, share));
    }
    s_count
}

/// Orbit service kernel for sorted-descending `totals`: the uniform
/// `S`-subset splits multivariate-hypergeometrically across equal-total
/// classes (`Π_t C(d_t, s_t) / C(D, S)`). Returns the number served.
fn orbit_service(
    totals: &[u16],
    capacity: usize,
    weights: &Weights,
    out: &mut Vec<(State, f64)>,
) -> usize {
    // (t, d_t) for t > 0, ascending in t.
    let mut classes: Vec<(u16, usize)> = Vec::new();
    for &t in totals.iter().rev().filter(|&&t| t > 0) {
        match classes.last_mut() {
            Some((value, count)) if *value == t => *count += 1,
            _ => classes.push((t, 1)),
        }
    }
    let d: usize = classes.iter().map(|&(_, c)| c).sum();
    let s_count = d.min(capacity);
    let start = out.len();
    let mut split = vec![0; classes.len()];
    orbit_split(0, s_count, 1.0, &classes, &mut split, weights, out);
    let denominator = weights.choose(d, s_count);
    for (next, p) in &mut out[start..] {
        // Idle memories (total 0) sort last.
        next.resize(totals.len(), 0);
        *p /= denominator;
    }
    s_count
}

/// DFS over service splits `{s_t}` with `Σ s_t = S`, `0 ≤ s_t ≤ d_t`,
/// emitting each next state's requested part (sorted descending) with
/// weight `Π_t C(d_t, s_t)`.
fn orbit_split(
    ti: usize,
    remaining: usize,
    weight: f64,
    classes: &[(u16, usize)],
    split: &mut [usize],
    weights: &Weights,
    out: &mut Vec<(State, f64)>,
) {
    if ti == classes.len() {
        if remaining > 0 {
            return;
        }
        let mut next: State = Vec::new();
        for (&(t, d_t), &s_t) in classes.iter().zip(split.iter()) {
            next.extend(std::iter::repeat_n(t - 1, s_t));
            next.extend(std::iter::repeat_n(t, d_t - s_t));
        }
        next.sort_unstable_by(|a, b| b.cmp(a));
        out.push((next, weight));
        return;
    }
    let (_, d_t) = classes[ti];
    // Feasibility: later classes must be able to absorb the rest.
    let later_capacity: usize = classes[ti + 1..].iter().map(|&(_, c)| c).sum();
    for s_t in 0..=d_t.min(remaining) {
        if remaining - s_t > later_capacity {
            continue;
        }
        split[ti] = s_t;
        let w = weight * weights.choose(d_t, s_t);
        orbit_split(ti + 1, remaining - s_t, w, classes, split, weights, out);
    }
}

/// Power iteration + Little's-law outputs, identical in form to the
/// unlumped solver.
fn solve_steady_state(
    net: &BusNetwork,
    n: usize,
    m: usize,
    r: f64,
    chain: &Chain,
) -> Result<ResubmissionSteadyState, ExactError> {
    let state_count = chain.served.len();
    let mut pi = vec![1.0 / state_count as f64; state_count];
    let mut next = vec![0.0f64; state_count];
    for _ in 0..20_000 {
        next.iter_mut().for_each(|v| *v = 0.0);
        for (&mass, bounds) in pi.iter().zip(chain.offsets.windows(2)) {
            if mass == 0.0 {
                continue;
            }
            for &(t, p) in &chain.entries[bounds[0]..bounds[1]] {
                next[t] += mass * p;
            }
        }
        let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if delta < 1e-13 {
            break;
        }
    }

    check::assert_distribution_sums_to_one("lumped stationary distribution pi", &pi);
    let throughput: f64 = pi.iter().zip(&chain.served).map(|(&p, &e)| p * e).sum();
    check::assert_bandwidth_bounds(throughput, net.capacity(), n, m);
    let mean_pending: f64 = pi
        .iter()
        .zip(&chain.pending)
        .map(|(&p, &c)| p * c as f64)
        .sum();
    let mean_fresh: f64 = pi
        .iter()
        .zip(&chain.pending)
        .map(|(&p, &c)| p * (n - c) as f64 * r)
        .sum();
    let mean_active = mean_pending + mean_fresh;
    let mean_wait = if throughput > 0.0 {
        mean_active / throughput - 1.0
    } else {
        0.0
    };
    Ok(ResubmissionSteadyState {
        states: state_count,
        throughput,
        mean_pending,
        mean_active,
        mean_wait: mean_wait.max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::resubmission_steady_state;
    use mbus_topology::ConnectionScheme;
    use mbus_workload::{RequestModel, UniformModel};

    #[test]
    fn matches_unlumped_uniform() {
        // 3×3, B = 1, uniform: both engines fit; the orbit tier must agree.
        let matrix = UniformModel::new(3, 3).unwrap().matrix();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        for r in [0.3, 0.8, 1.0] {
            let a = resubmission_steady_state(&net, &matrix, r).unwrap();
            let b = lumped_steady_state(&net, &matrix, r).unwrap();
            assert!(
                (a.throughput - b.throughput).abs() < 1e-9,
                "r={r}: {} vs {}",
                a.throughput,
                b.throughput
            );
            assert!((a.mean_pending - b.mean_pending).abs() < 1e-9);
            assert!((a.mean_wait - b.mean_wait).abs() < 1e-9);
            assert!(b.states < a.states, "lumping must shrink the chain");
        }
    }

    #[test]
    fn matches_unlumped_identical_nonuniform_rows() {
        // Identical but non-uniform rows exercise the labeled tier.
        let matrix = mbus_workload::RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 3]).unwrap();
        let net = BusNetwork::new(3, 3, 1, ConnectionScheme::Full).unwrap();
        let a = resubmission_steady_state(&net, &matrix, 0.9).unwrap();
        let b = lumped_steady_state(&net, &matrix, 0.9).unwrap();
        assert!((a.throughput - b.throughput).abs() < 1e-9);
        assert!((a.mean_wait - b.mean_wait).abs() < 1e-9);
    }

    #[test]
    fn reaches_sizes_the_unlumped_chain_rejects() {
        // N = 16, M = 8: (M+1)^N ≈ 1.8e15 states unlumped — rejected — but
        // well under a thousand orbit-lumped states.
        let matrix = UniformModel::new(16, 8).unwrap().matrix();
        let net = BusNetwork::new(16, 8, 4, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            resubmission_steady_state(&net, &matrix, 1.0),
            Err(ExactError::TooLarge { .. })
        ));
        let ss = lumped_steady_state(&net, &matrix, 1.0).unwrap();
        assert!(ss.states <= MAX_STATES);
        // r = 1 with N ≫ B: the four buses nearly saturate (all 16 requests
        // landing on < 4 distinct memories keeps throughput a hair under B).
        assert!(
            ss.throughput > 3.99 && ss.throughput <= 4.0 + 1e-9,
            "throughput {}",
            ss.throughput
        );
        // All 16 processors are always active at r = 1.
        assert!((ss.mean_active - 16.0).abs() < 1e-9);
        assert!(ss.mean_wait > 1.0);
    }

    /// Solves with the tier forced, bypassing the automatic choice.
    fn solve_tier(n: usize, m: usize, b: usize, r: f64, orbit: bool) -> ResubmissionSteadyState {
        let matrix = UniformModel::new(n, m).unwrap().matrix();
        let net = BusNetwork::new(n, m, b, ConnectionScheme::Full).unwrap();
        let chain = build_chain(&net, n, matrix.row(0), r, orbit).unwrap();
        solve_steady_state(&net, n, m, r, &chain).unwrap()
    }

    #[test]
    fn labeled_tier_matches_orbit_tier_beyond_the_unlumped_chain() {
        // Uniform rows admit both tiers; the labeled tier keeps memory
        // labels, so agreement checks the orbit multiplicities and sorted
        // service splits at sizes the unlumped oracle cannot reach.
        for (n, m, b) in [(8, 4, 2), (10, 5, 3), (12, 4, 3)] {
            for r in [0.3, 0.7, 1.0] {
                let labeled = solve_tier(n, m, b, r, false);
                let orbit = solve_tier(n, m, b, r, true);
                assert!(orbit.states < labeled.states, "{n}x{m}x{b} r={r}");
                for (label, a, o) in [
                    ("throughput", labeled.throughput, orbit.throughput),
                    ("mean_pending", labeled.mean_pending, orbit.mean_pending),
                    ("mean_active", labeled.mean_active, orbit.mean_active),
                    ("mean_wait", labeled.mean_wait, orbit.mean_wait),
                ] {
                    assert!(
                        (a - o).abs() < 1e-9,
                        "{n}x{m}x{b} r={r} {label}: labeled {a} vs orbit {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        // State numbering, row order and summation order must not depend
        // on hash iteration order: both tiers, eight calls each.
        let cases = [
            (
                UniformModel::new(10, 5).unwrap().matrix(),
                BusNetwork::new(10, 5, 3, ConnectionScheme::Full).unwrap(),
            ),
            (
                mbus_workload::RequestMatrix::from_rows(vec![vec![0.5, 0.3, 0.2]; 4]).unwrap(),
                BusNetwork::new(4, 3, 2, ConnectionScheme::Full).unwrap(),
            ),
        ];
        let bits = |s: &ResubmissionSteadyState| {
            (
                s.states,
                s.throughput.to_bits(),
                s.mean_pending.to_bits(),
                s.mean_active.to_bits(),
                s.mean_wait.to_bits(),
            )
        };
        for (matrix, net) in &cases {
            let first = bits(&lumped_steady_state(net, matrix, 0.7).unwrap());
            for _ in 1..8 {
                assert_eq!(bits(&lumped_steady_state(net, matrix, 0.7).unwrap()), first);
            }
        }
    }

    #[test]
    fn saturated_single_bus_hand_check() {
        // Uniform 4×2, B = 1, r = 1: the bus is always busy once warm.
        let matrix = UniformModel::new(4, 2).unwrap().matrix();
        let net = BusNetwork::new(4, 2, 1, ConnectionScheme::Full).unwrap();
        let ss = lumped_steady_state(&net, &matrix, 1.0).unwrap();
        assert!((ss.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn processor_counts_past_the_binomial_table_hand_check() {
        // N = 200 > CHOOSE_TABLE_N exercises the direct `choose_f64` rows.
        // One memory, one bus, r = 1: all N processors request every cycle
        // and one is served, so the chain settles at N − 1 pending.
        let n = 200;
        let matrix = UniformModel::new(n, 1).unwrap().matrix();
        let net = BusNetwork::new(n, 1, 1, ConnectionScheme::Full).unwrap();
        let ss = lumped_steady_state(&net, &matrix, 1.0).unwrap();
        assert_eq!(ss.states, 2);
        assert!((ss.throughput - 1.0).abs() < 1e-9);
        assert!((ss.mean_pending - (n - 1) as f64).abs() < 1e-9);
        assert!((ss.mean_wait - (n - 1) as f64).abs() < 1e-9);
    }

    #[test]
    fn crossbar_uniform_never_queues_less_than_drop() {
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Crossbar).unwrap();
        let a = resubmission_steady_state(&net, &matrix, 0.7).unwrap();
        let b = lumped_steady_state(&net, &matrix, 0.7).unwrap();
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_is_trivial() {
        let matrix = UniformModel::new(8, 4).unwrap().matrix();
        let net = BusNetwork::new(8, 4, 2, ConnectionScheme::Full).unwrap();
        let ss = lumped_steady_state(&net, &matrix, 0.0).unwrap();
        assert_eq!(ss.states, 1);
        assert_eq!(ss.throughput, 0.0);
        assert_eq!(ss.mean_wait, 0.0);
    }

    #[test]
    fn shape_guards() {
        let matrix = UniformModel::new(4, 4).unwrap().matrix();
        let single =
            BusNetwork::new(4, 4, 2, ConnectionScheme::balanced_single(4, 2).unwrap()).unwrap();
        assert!(matches!(
            lumped_steady_state(&single, &matrix, 1.0),
            Err(ExactError::UnsupportedShape { .. })
        ));
        // Non-exchangeable processors.
        let mixed =
            mbus_workload::RequestMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        assert!(matches!(
            lumped_steady_state(&net, &mixed, 1.0),
            Err(ExactError::UnsupportedShape { .. })
        ));
        let net = BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap();
        assert!(lumped_steady_state(&net, &matrix, f64::NAN).is_err());
    }
}
