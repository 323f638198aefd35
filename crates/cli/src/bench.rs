//! `mbus bench` — the workspace throughput harness.
//!
//! Six measurements, reported to stdout and written as JSON:
//!
//! 1. **Engine throughput**: simulated cycles/sec of the optimized
//!    [`Simulator`] against the frozen pre-optimization
//!    [`ReferenceSimulator`], on the 32×32×8 full-connection network under
//!    hierarchical traffic with resubmission — the configuration the
//!    zero-allocation work targets. Both engines must produce the *same*
//!    report (they share RNG draw order), so the harness doubles as an
//!    end-to-end equivalence check.
//! 2. **Sweep throughput**: analytical sweep points/sec of
//!    [`bus_sweep_with_workers`] serial (1 worker) vs parallel (all cores)
//!    on a 64-point full-connection sweep at N = 64. On a single-core
//!    machine the parallel run would just repeat the serial measurement, so
//!    it is skipped and no speedup is reported.
//! 3. **Campaign throughput**: fault-mask evaluations/sec of
//!    [`run_campaign`] on two K-class networks (the `paper` benchmark's
//!    16×16×8 and a 64×64×16 four-class network), serial vs all cores, with
//!    the machine it ran on. The two reports must be equal.
//!
//!    The sweep and campaign legs take under a millisecond per call on small
//!    shapes, so each of their timed samples repeats the call for at least
//!    20 ms; otherwise thread start-up would be most of what they measure.
//! 4. **Replication scaling** (`--scaling` runs only this section):
//!    replications/sec of the batched SoA lane engine against the scalar
//!    engine on a single worker — the per-replication amortization the
//!    batching work targets — plus the batched engine's throughput at
//!    1, 2, 4, … workers (the worker pool's scaling curve; one
//!    point on a single-core machine). The two engines follow different
//!    sampling specs, so the gate is statistical agreement of the mean
//!    bandwidth, plus bit-exact determinism of the batched reports
//!    across worker counts.
//! 5. **Fabric** (`--fabric` runs only this section): routed fabric
//!    simulator cycles/sec at tree depths 2 and 3 against the flat engine
//!    on each fabric's flattened equivalent network, with the analytic
//!    decomposition's bandwidth gap per depth; plus batched replications
//!    under full vs aggregate-only collection (`CollectMode`) — the cost
//!    of per-grant accounting when only scalar summaries are wanted.
//! 6. **Exact engines** (`--exact` runs only this section): the
//!    subset-transform requested-set pmf against the retained
//!    per-processor DP on a 256×16 hierarchical workload (identical
//!    results, `O(G·2^M + 2^M·M)` vs `O(N·2^M·M)` work), and the lumped
//!    Markov chain solving a 16×8×4 resubmission model the unlumped chain
//!    rejects as too large.
//!
//! Timings take the best of `--reps` repetitions, with the two sides of each
//! comparison interleaved rep by rep so background load on a shared machine
//! penalizes both alike rather than whichever happened to run second.

use crate::args::Args;
use mbus_core::analysis::sweep::bus_sweep_with_workers;
use mbus_core::exact;
use mbus_core::prelude::*;
use mbus_core::sim::reference::ReferenceSimulator;
use mbus_core::sim::runner::{run_replications_scalar_with_workers, run_replications_with_workers};
use mbus_core::stats::parallel::available_workers;
use std::time::Instant;

/// Shortest wall time of one timed sample of a sub-millisecond measurement
/// (the sweep and campaign legs): long enough that thread start-up and
/// timer resolution are noise next to the work.
const MIN_SAMPLE_SECONDS: f64 = 0.02;

/// Wall seconds per call of `f` over one sample, which calls `f` back to
/// back until it has lasted at least `min_sample` seconds (once for 0).
fn seconds_per_call<F: FnMut()>(min_sample: f64, f: &mut F) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_sample {
            return elapsed / f64::from(calls);
        }
    }
}

/// Best-of-`reps` wall times per call of `a` and `b`, interleaved (a, b,
/// a, b, …) so background load on a shared machine hits both measurements
/// alike instead of skewing whichever ran second. Each sample lasts at
/// least `min_sample` seconds.
fn best_seconds_interleaved<A: FnMut(), B: FnMut()>(
    reps: usize,
    min_sample: f64,
    mut a: A,
    mut b: B,
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best_a = best_a.min(seconds_per_call(min_sample, &mut a));
        best_b = best_b.min(seconds_per_call(min_sample, &mut b));
    }
    (best_a, best_b)
}

/// Best-of-`reps` wall time per call of a single measurement, each sample
/// lasting at least `min_sample` seconds.
fn best_seconds<F: FnMut()>(reps: usize, min_sample: f64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        best = best.min(seconds_per_call(min_sample, &mut f));
    }
    best
}

struct EngineResult {
    total_cycles: u64,
    optimized_cps: f64,
    reference_cps: f64,
}

/// Times the optimized engine against the frozen reference engine.
fn engine_benchmark(
    n: usize,
    b: usize,
    cycles: u64,
    seed: u64,
    reps: usize,
) -> Result<EngineResult, String> {
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let config = SimConfig::new(cycles)
        .with_warmup(cycles / 20)
        .with_seed(seed)
        .with_resubmission(true);
    let total_cycles = cycles + cycles / 20;

    let mut optimized = Simulator::build(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    let mut reference = ReferenceSimulator::build(&net, &matrix, 1.0).map_err(|e| e.to_string())?;

    // The engines must agree exactly before their speeds are worth
    // comparing; `run` reseeds from the config, so this does not perturb
    // the timed runs below.
    let opt_report = optimized.run(&config).map_err(|e| e.to_string())?;
    let ref_report = reference.run(&config).map_err(|e| e.to_string())?;
    if opt_report != ref_report {
        return Err("optimized and reference engines diverged — benchmark void".into());
    }

    let (opt_secs, ref_secs) = best_seconds_interleaved(
        reps,
        0.0,
        || {
            // lint:allow(no_panic, the same run succeeded in the divergence check above; timing closures must stay Result-free)
            optimized.run(&config).expect("checked above");
        },
        || {
            // lint:allow(no_panic, the same run succeeded in the divergence check above; timing closures must stay Result-free)
            reference.run(&config).expect("checked above");
        },
    );
    Ok(EngineResult {
        total_cycles,
        optimized_cps: total_cycles as f64 / opt_secs,
        reference_cps: total_cycles as f64 / ref_secs,
    })
}

struct SweepResult {
    points: usize,
    /// Worker threads detected via `std::thread::available_parallelism`
    /// (reported even when the parallel measurement is skipped).
    workers: usize,
    serial_pps: f64,
    /// `None` on a single-core machine: a "parallel" run with one worker
    /// is the serial run again, and its ≈1.0x "speedup" is pure noise, so
    /// the measurement is skipped rather than reported.
    parallel_pps: Option<f64>,
}

/// Times a full-connection analytical bus sweep serially and — when more
/// than one worker is available — in parallel. A whole sweep takes well
/// under a millisecond, so each sample repeats it for at least
/// [`MIN_SAMPLE_SECONDS`]; the two sides are compared once, up front.
fn sweep_benchmark(n: usize, reps: usize) -> Result<SweepResult, String> {
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let bus_counts: Vec<usize> = (1..=n).collect();
    let factory = |_| Ok(ConnectionScheme::Full);
    let workers = available_workers();
    let sweep = |workers| {
        bus_sweep_with_workers(n, n, &bus_counts, &factory, &matrix, 1.0, workers)
            .map_err(|e| e.to_string())
    };

    let serial = sweep(1)?;
    let timed = |workers| {
        move || {
            // lint:allow(no_panic, the same sweep succeeded above; timing closures must stay Result-free)
            sweep(workers).unwrap();
        }
    };
    let points = bus_counts.len() as f64;
    if workers <= 1 {
        let serial_secs = best_seconds(reps, MIN_SAMPLE_SECONDS, timed(1));
        return Ok(SweepResult {
            points: bus_counts.len(),
            workers,
            serial_pps: points / serial_secs,
            parallel_pps: None,
        });
    }

    if serial != sweep(workers)? {
        return Err("serial and parallel sweeps diverged — benchmark void".into());
    }
    let (serial_secs, parallel_secs) =
        best_seconds_interleaved(reps, MIN_SAMPLE_SECONDS, timed(1), timed(workers));
    Ok(SweepResult {
        points: bus_counts.len(),
        workers,
        serial_pps: points / serial_secs,
        parallel_pps: Some(points / parallel_secs),
    })
}

/// One fault campaign of the `campaign` section: a K-class `n×n×b`
/// network with `classes` classes at r = 1.
struct CampaignCase {
    n: usize,
    b: usize,
    classes: usize,
    workload: &'static str,
    /// Masks one campaign evaluates.
    masks: usize,
    serial_mps: f64,
    /// Masks/sec at `available_workers()`; `None` on a single core.
    parallel_mps: Option<f64>,
}

/// The machine a section ran on.
struct Machine {
    cores: usize,
    cpu: String,
    profile: &'static str,
    revision: String,
}

impl Machine {
    fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cores: available_workers(),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            revision,
        }
    }
}

/// The `campaign` section's networks as `(n, b, classes, workload)`: the
/// `paper` benchmark's K-class 16×16×8 under hierarchical traffic, and a
/// 64×64×16 four-class network under uniform traffic (65 536 masks).
const CAMPAIGN_SHAPES: [(usize, usize, usize, &str); 2] =
    [(16, 8, 8, "hierarchical"), (64, 16, 4, "uniform")];

/// Times K-class fault campaigns, which evaluate every mask (no symmetry
/// collapse applies), serially and at `available_workers()`. The serial and
/// parallel reports must be equal before either is timed.
fn campaign_benchmark(
    shapes: &[(usize, usize, usize, &'static str)],
    reps: usize,
) -> Result<Vec<CampaignCase>, String> {
    let workers = available_workers();
    let mut cases = Vec::with_capacity(shapes.len());
    for &(n, b, classes, workload) in shapes {
        let scheme = ConnectionScheme::uniform_classes(n, classes).map_err(|e| e.to_string())?;
        let net = BusNetwork::new(n, n, b, scheme).map_err(|e| e.to_string())?;
        let matrix = match workload {
            "hierarchical" => paper_params::hierarchical(n)
                .map_err(|e| e.to_string())?
                .matrix(),
            _ => UniformModel::new(n, n).map_err(|e| e.to_string())?.matrix(),
        };
        let config = |workers| CampaignConfig {
            workers,
            exhaustive_limit: 70_000,
            ..CampaignConfig::default()
        };
        let (serial_config, parallel_config) = (config(1), config(workers));
        let run = |config: &CampaignConfig| {
            run_campaign(&net, &matrix, 1.0, config).map_err(|e| e.to_string())
        };
        let serial = run(&serial_config)?;
        let masks: usize = serial.levels.iter().map(|l| l.combos_evaluated).sum();
        let timed = |config| {
            move || {
                // lint:allow(no_panic, the same campaign succeeded above; timing closures must stay Result-free)
                run(config).unwrap();
            }
        };
        let (serial_mps, parallel_mps) = if workers > 1 {
            if serial != run(&parallel_config)? {
                return Err("serial and parallel campaigns diverged — benchmark void".into());
            }
            let (serial_secs, parallel_secs) = best_seconds_interleaved(
                reps,
                MIN_SAMPLE_SECONDS,
                timed(&serial_config),
                timed(&parallel_config),
            );
            (
                masks as f64 / serial_secs,
                Some(masks as f64 / parallel_secs),
            )
        } else {
            let serial_secs = best_seconds(reps, MIN_SAMPLE_SECONDS, timed(&serial_config));
            (masks as f64 / serial_secs, None)
        };
        cases.push(CampaignCase {
            n,
            b,
            classes,
            workload,
            masks,
            serial_mps,
            parallel_mps,
        });
    }
    Ok(cases)
}

struct ScalingResult {
    replications: usize,
    /// Cycles per replication (including warmup).
    total_cycles: u64,
    /// Scalar engine, one worker.
    scalar_rps: f64,
    /// Batched SoA engine, one worker.
    batched_rps: f64,
    /// Batched replications/sec at each measured worker count,
    /// ascending; the first entry is always `(1, batched_rps)`.
    curve: Vec<(usize, f64)>,
}

impl ScalingResult {
    /// Single-worker batched-over-scalar speedup — the headline number.
    fn speedup(&self) -> f64 {
        self.batched_rps / self.scalar_rps
    }
}

/// Times replicated runs on the batched SoA engine against the scalar
/// engine (one worker each), then walks the batched engine up the worker
/// counts. Worker counts double from 1 and always include the detected
/// maximum.
fn scaling_benchmark(
    n: usize,
    b: usize,
    cycles: u64,
    seed: u64,
    replications: usize,
    reps: usize,
) -> Result<ScalingResult, String> {
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let config = SimConfig::new(cycles)
        .with_warmup(cycles / 20)
        .with_seed(seed);
    let total_cycles = cycles + cycles / 20;

    // Gates before timing: the engines follow different sampling specs,
    // so the cross-check is statistical (mean bandwidth) rather than
    // bit-exact; batched reports, however, must be deterministic across
    // worker counts.
    let batched = run_replications_with_workers(&net, &matrix, 1.0, &config, replications, 1)
        .map_err(|e| e.to_string())?;
    let scalar = run_replications_scalar_with_workers(&net, &matrix, 1.0, &config, replications, 1)
        .map_err(|e| e.to_string())?;
    if batched.engine != "batched" || scalar.engine != "scalar" {
        return Err("engine selection gate failed — benchmark void".into());
    }
    if (batched.bandwidth.mean() - scalar.bandwidth.mean()).abs() > 0.05 {
        return Err(format!(
            "batched ({}) and scalar ({}) means diverged — benchmark void",
            batched.bandwidth.mean(),
            scalar.bandwidth.mean()
        ));
    }

    let (batched_secs, scalar_secs) = best_seconds_interleaved(
        reps,
        0.0,
        || {
            run_replications_with_workers(&net, &matrix, 1.0, &config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
        || {
            run_replications_scalar_with_workers(&net, &matrix, 1.0, &config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
    );
    let batched_rps = replications as f64 / batched_secs;

    let mut curve = vec![(1usize, batched_rps)];
    let max_workers = available_workers();
    let mut counts: Vec<usize> = std::iter::successors(Some(2usize), |w| Some(w * 2))
        .take_while(|&w| w < max_workers)
        .collect();
    if max_workers > 1 {
        counts.push(max_workers);
    }
    for workers in counts {
        let wide =
            run_replications_with_workers(&net, &matrix, 1.0, &config, replications, workers)
                .map_err(|e| e.to_string())?;
        if wide.reports != batched.reports {
            return Err(format!(
                "batched reports changed at {workers} workers — benchmark void"
            ));
        }
        let secs = best_seconds(reps, 0.0, || {
            run_replications_with_workers(&net, &matrix, 1.0, &config, replications, workers)
                // lint:allow(no_panic, the same run succeeded in the determinism gate above; timing closures must stay Result-free)
                .expect("checked above");
        });
        curve.push((workers, replications as f64 / secs));
    }

    Ok(ScalingResult {
        replications,
        total_cycles,
        scalar_rps: replications as f64 / scalar_secs,
        batched_rps,
        curve,
    })
}

struct FabricBenchEntry {
    shape: String,
    links: usize,
    /// Cycles per run (including warmup).
    total_cycles: u64,
    /// Routed fabric simulator, cycles/sec.
    fabric_cps: f64,
    /// Flat [`Simulator`] on the flattened equivalent network, cycles/sec.
    flat_cps: f64,
    /// Analytic decomposition bandwidth.
    analytic_bw: f64,
    /// Simulated mean bandwidth.
    sim_bw: f64,
}

impl FabricBenchEntry {
    /// `|analytic − sim| / sim`: the cross-validation gap.
    fn rel_gap(&self) -> f64 {
        if self.sim_bw == 0.0 {
            0.0
        } else {
            (self.analytic_bw - self.sim_bw).abs() / self.sim_bw
        }
    }
}

/// Times the routed fabric simulator at depths 2 and 3 against the flat
/// engine on each fabric's flattened equivalent network (same processors,
/// same workload, all local buses pooled), and records the analytic
/// decomposition's bandwidth gap at each depth.
fn fabric_benchmark(cycles: u64, seed: u64, reps: usize) -> Result<Vec<FabricBenchEntry>, String> {
    use mbus_core::fabric::{analyze_fabric, FabricSimulator, FabricSpec, FabricTopology};
    const RATE: f64 = 0.5;
    const LOCALITY: f64 = 0.6;
    let mut entries = Vec::new();
    for ks in [vec![4usize, 4], vec![4, 2, 2]] {
        let spec = FabricSpec {
            ks: ks.clone(),
            local_buses: 2,
            uplink_width: 1,
            locality: LOCALITY,
        };
        let (topo, matrix) = spec.build().map_err(|e| e.to_string())?;
        let config = SimConfig::new(cycles)
            .with_warmup(cycles / 10)
            .with_seed(seed);
        let total_cycles = cycles + cycles / 10;

        let mut fabric_sim =
            FabricSimulator::build(&topo, &matrix, RATE).map_err(|e| e.to_string())?;
        let report = fabric_sim.run(&config).map_err(|e| e.to_string())?;
        let analysis = analyze_fabric(&topo, &matrix, RATE, &[]).map_err(|e| e.to_string())?;

        let flat_net = topo.flat_equivalent().map_err(|e| e.to_string())?;
        let mut flat = Simulator::build(&flat_net, &matrix, RATE).map_err(|e| e.to_string())?;
        flat.run(&config).map_err(|e| e.to_string())?;

        let (fabric_secs, flat_secs) = best_seconds_interleaved(
            reps,
            0.0,
            || {
                // lint:allow(no_panic, the same run succeeded in the setup pass above; timing closures must stay Result-free)
                fabric_sim.run(&config).expect("checked above");
            },
            || {
                // lint:allow(no_panic, the same run succeeded in the setup pass above; timing closures must stay Result-free)
                flat.run(&config).expect("checked above");
            },
        );
        entries.push(FabricBenchEntry {
            shape: ks
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("x"),
            links: topo.links().len(),
            total_cycles,
            fabric_cps: total_cycles as f64 / fabric_secs,
            flat_cps: total_cycles as f64 / flat_secs,
            analytic_bw: analysis.bandwidth,
            sim_bw: report.bandwidth.mean(),
        });
    }
    Ok(entries)
}

struct CollectResult {
    replications: usize,
    /// Batched engine with full per-unit accounting, replications/sec.
    full_rps: f64,
    /// Batched engine with aggregate-only collection, replications/sec.
    aggregate_rps: f64,
}

/// Times batched replications with full per-unit accounting against
/// aggregate-only collection ([`CollectMode::Aggregate`]) — the residue the
/// per-grant accumulation costs when only the scalar summary is wanted.
fn collect_benchmark(
    n: usize,
    b: usize,
    cycles: u64,
    seed: u64,
    replications: usize,
    reps: usize,
) -> Result<CollectResult, String> {
    use mbus_core::sim::CollectMode;
    let net = BusNetwork::new(n, n, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let matrix = paper_params::hierarchical(n)
        .map_err(|e| e.to_string())?
        .matrix();
    let full_config = SimConfig::new(cycles)
        .with_warmup(cycles / 20)
        .with_seed(seed);
    let agg_config = full_config.clone().with_collect(CollectMode::Aggregate);

    // Gate: aggregate collection must not change any scalar of any report.
    let full = run_replications_with_workers(&net, &matrix, 1.0, &full_config, replications, 1)
        .map_err(|e| e.to_string())?;
    let agg = run_replications_with_workers(&net, &matrix, 1.0, &agg_config, replications, 1)
        .map_err(|e| e.to_string())?;
    if full.bandwidth != agg.bandwidth {
        return Err("aggregate collection changed the bandwidth — benchmark void".into());
    }

    let (full_secs, agg_secs) = best_seconds_interleaved(
        reps,
        0.0,
        || {
            run_replications_with_workers(&net, &matrix, 1.0, &full_config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
        || {
            run_replications_with_workers(&net, &matrix, 1.0, &agg_config, replications, 1)
                // lint:allow(no_panic, the same run succeeded in the agreement gate above; timing closures must stay Result-free)
                .expect("checked above");
        },
    );
    Ok(CollectResult {
        replications,
        full_rps: replications as f64 / full_secs,
        aggregate_rps: replications as f64 / agg_secs,
    })
}

struct ExactResult {
    n: usize,
    m: usize,
    b: usize,
    groups: usize,
    dp_seconds: f64,
    transform_seconds: f64,
    lumped_n: usize,
    lumped_m: usize,
    lumped_b: usize,
    lumped_states: usize,
    lumped_throughput: f64,
    lumped_seconds: f64,
    unlumped_rejected: bool,
    /// Cross-sweep pmf memo counters at the end of the run.
    pmf_cache: mbus_core::stats::cache::CacheStats,
    /// Served-set lookup-table memo counters at the end of the run.
    served_cache: mbus_core::stats::cache::CacheStats,
}

impl ExactResult {
    fn speedup(&self) -> f64 {
        self.dp_seconds / self.transform_seconds
    }
}

/// Times the subset-transform enumeration against the retained DP, and the
/// lumped Markov chain on a size the unlumped chain rejects.
fn exact_benchmark(reps: usize) -> Result<ExactResult, String> {
    // Transform vs DP: 256 processors over 16 memories, hierarchical
    // workload with 16 clusters of 16 (G = 16 distinct rows), full
    // connection with 8 buses.
    let (n, m, b) = (256usize, 16usize, 8usize);
    let hierarchy = Hierarchy::shared(&[16, 16], 1).map_err(|e| e.to_string())?;
    let model = HierarchicalModel::with_aggregate_shares(hierarchy, &[0.6, 0.4])
        .map_err(|e| e.to_string())?;
    let matrix = model.matrix();
    let groups = matrix.groups().len();
    let net = BusNetwork::new(n, m, b, ConnectionScheme::Full).map_err(|e| e.to_string())?;

    // Both engines must agree exactly before their speeds are compared.
    let dp_bw =
        exact::enumerate::exact_bandwidth_dp(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    let tf_bw =
        exact::transform::transform_bandwidth(&net, &matrix, 1.0).map_err(|e| e.to_string())?;
    if (dp_bw - tf_bw).abs() > 1e-9 {
        return Err(format!(
            "transform ({tf_bw}) and DP ({dp_bw}) engines diverged — benchmark void"
        ));
    }

    // Time the pmf construction (the entire asymptotic difference); the
    // transform side calls the uncached entry point so the cross-sweep
    // cache cannot flatter the measurement.
    let (dp_seconds, transform_seconds) = best_seconds_interleaved(
        reps,
        0.0,
        || {
            // lint:allow(no_panic, the same computation succeeded in the divergence check above; timing closures must stay Result-free)
            exact::enumerate::requested_set_pmf_dp(&matrix, 1.0).expect("checked above");
        },
        || {
            // lint:allow(no_panic, the same computation succeeded in the divergence check above; timing closures must stay Result-free)
            exact::transform::requested_set_pmf(&matrix, 1.0).expect("checked above");
        },
    );

    // Lumped Markov chain: a 16×8×4 uniform resubmission model. The
    // unlumped chain needs (M+1)^N states and must reject it; the lumped
    // chain solves it from occupancy counts.
    let (ln, lm, lb) = (16usize, 8usize, 4usize);
    let lu_net = BusNetwork::new(ln, lm, lb, ConnectionScheme::Full).map_err(|e| e.to_string())?;
    let lu_matrix = UniformModel::new(ln, lm)
        .map_err(|e| e.to_string())?
        .matrix();
    let unlumped_rejected = matches!(
        exact::markov::resubmission_steady_state(&lu_net, &lu_matrix, 1.0),
        Err(exact::ExactError::TooLarge { .. })
    );
    let steady =
        exact::lumped::lumped_steady_state(&lu_net, &lu_matrix, 1.0).map_err(|e| e.to_string())?;
    let lumped_seconds = best_seconds(reps, 0.0, || {
        // lint:allow(no_panic, the same chain solved successfully above; timing closures must stay Result-free)
        exact::lumped::lumped_steady_state(&lu_net, &lu_matrix, 1.0).expect("solved above");
    });

    Ok(ExactResult {
        n,
        m,
        b,
        groups,
        dp_seconds,
        transform_seconds,
        lumped_n: ln,
        lumped_m: lm,
        lumped_b: lb,
        lumped_states: steady.states,
        lumped_throughput: steady.throughput,
        lumped_seconds,
        unlumped_rejected,
        pmf_cache: exact::transform::pmf_cache_stats(),
        served_cache: exact::memo::served_table_cache_stats(),
    })
}

/// The `"engine"` JSON section.
fn engine_json(n: usize, b: usize, cycles: u64, seed: u64, engine: &EngineResult) -> String {
    format!(
        "  \"engine\": {{\n    \"n\": {n},\n    \"m\": {n},\n    \"b\": {b},\n    \
         \"scheme\": \"full\",\n    \"workload\": \"hierarchical\",\n    \"rate\": 1.0,\n    \
         \"resubmission\": true,\n    \"cycles\": {cycles},\n    \"seed\": {seed},\n    \
         \"total_cycles_per_run\": {total},\n    \
         \"optimized_cycles_per_sec\": {ocps:.1},\n    \
         \"reference_cycles_per_sec\": {rcps:.1},\n    \
         \"speedup\": {espeed:.3}\n  }}",
        total = engine.total_cycles,
        ocps = engine.optimized_cps,
        rcps = engine.reference_cps,
        espeed = engine.optimized_cps / engine.reference_cps,
    )
}

/// The `"sweep"` JSON section. With one worker the parallel measurement is
/// skipped, so neither `parallel_points_per_sec` nor `speedup` is emitted.
fn sweep_json(sweep_n: usize, sweep: &SweepResult) -> String {
    let parallel = match sweep.parallel_pps {
        Some(ppps) => format!(
            ",\n    \"parallel_points_per_sec\": {ppps:.2},\n    \
             \"speedup\": {sspeed:.3}",
            sspeed = ppps / sweep.serial_pps,
        ),
        None => String::new(),
    };
    format!(
        "  \"sweep\": {{\n    \"n\": {sweep_n},\n    \"points\": {points},\n    \
         \"workers\": {workers},\n    \
         \"serial_points_per_sec\": {spps:.2}{parallel}\n  }}",
        points = sweep.points,
        workers = sweep.workers,
        spps = sweep.serial_pps,
    )
}

/// The `"campaign"` JSON section, stamped with the machine it ran on. With
/// one worker the parallel rate and the speedup are omitted.
fn campaign_json(machine: &Machine, cases: &[CampaignCase]) -> String {
    let cases = cases
        .iter()
        .map(|case| {
            let parallel = match case.parallel_mps {
                Some(pmps) => format!(
                    ", \"workers\": {workers}, \"parallel_masks_per_sec\": {pmps:.1}, \
                     \"speedup\": {speedup:.3}",
                    workers = machine.cores,
                    speedup = pmps / case.serial_mps,
                ),
                None => String::new(),
            };
            format!(
                "      {{ \"scheme\": \"kclass\", \"n\": {n}, \"m\": {n}, \"b\": {b}, \
                 \"classes\": {classes}, \"workload\": \"{workload}\", \"rate\": 1.0, \
                 \"masks\": {masks}, \"serial_masks_per_sec\": {smps:.1}{parallel} }}",
                n = case.n,
                b = case.b,
                classes = case.classes,
                workload = case.workload,
                masks = case.masks,
                smps = case.serial_mps,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let quoted = |text: &str| text.replace(['"', '\\'], "'");
    format!(
        "  \"campaign\": {{\n    \"machine\": {{ \"cores\": {cores}, \"cpu\": \"{cpu}\", \
         \"profile\": \"{profile}\", \"revision\": \"{revision}\" }},\n    \
         \"min_sample_seconds\": {MIN_SAMPLE_SECONDS},\n    \"cases\": [\n{cases}\n    ]\n  }}",
        cores = machine.cores,
        cpu = quoted(&machine.cpu),
        profile = machine.profile,
        revision = quoted(&machine.revision),
    )
}

/// The `"scaling"` JSON section.
fn scaling_json(n: usize, b: usize, seed: u64, scaling: &ScalingResult) -> String {
    let curve = scaling
        .curve
        .iter()
        .map(|&(workers, rps)| {
            format!("      {{ \"workers\": {workers}, \"replications_per_sec\": {rps:.2} }}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"scaling\": {{\n    \"n\": {n},\n    \"m\": {n},\n    \"b\": {b},\n    \
         \"scheme\": \"full\",\n    \"workload\": \"hierarchical\",\n    \"rate\": 1.0,\n    \
         \"resubmission\": false,\n    \"seed\": {seed},\n    \
         \"replications\": {reps},\n    \"total_cycles_per_replication\": {total},\n    \
         \"scalar_replications_per_sec\": {srps:.2},\n    \
         \"batched_replications_per_sec\": {brps:.2},\n    \
         \"single_worker_speedup\": {speedup:.3},\n    \
         \"workers\": [\n{curve}\n    ]\n  }}",
        reps = scaling.replications,
        total = scaling.total_cycles,
        srps = scaling.scalar_rps,
        brps = scaling.batched_rps,
        speedup = scaling.speedup(),
    )
}

/// The `"fabric"` JSON section: one entry per tree depth plus the
/// collect-mode comparison.
fn fabric_json(
    cycles: u64,
    seed: u64,
    entries: &[FabricBenchEntry],
    collect: &CollectResult,
) -> String {
    let depths = entries
        .iter()
        .map(|entry| {
            format!(
                "      {{ \"shape\": \"{shape}\", \"links\": {links}, \
                 \"total_cycles_per_run\": {total}, \
                 \"fabric_cycles_per_sec\": {fcps:.1}, \
                 \"flat_cycles_per_sec\": {xcps:.1}, \
                 \"routing_cost\": {cost:.3}, \
                 \"analytic_bandwidth\": {abw:.6}, \
                 \"sim_bandwidth\": {sbw:.6}, \
                 \"rel_gap\": {gap:.6} }}",
                shape = entry.shape,
                links = entry.links,
                total = entry.total_cycles,
                fcps = entry.fabric_cps,
                xcps = entry.flat_cps,
                cost = entry.flat_cps / entry.fabric_cps,
                abw = entry.analytic_bw,
                sbw = entry.sim_bw,
                gap = entry.rel_gap(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  \"fabric\": {{\n    \"locality\": 0.6,\n    \"rate\": 0.5,\n    \
         \"cycles\": {cycles},\n    \"seed\": {seed},\n    \
         \"depths\": [\n{depths}\n    ],\n    \
         \"collect\": {{ \"replications\": {creps}, \
         \"full_replications_per_sec\": {frps:.2}, \
         \"aggregate_replications_per_sec\": {arps:.2}, \
         \"speedup\": {cspeed:.3} }}\n  }}",
        creps = collect.replications,
        frps = collect.full_rps,
        arps = collect.aggregate_rps,
        cspeed = collect.aggregate_rps / collect.full_rps,
    )
}

/// The `"exact"` JSON section.
fn exact_json(exact: &ExactResult) -> String {
    format!(
        "  \"exact\": {{\n    \"transform\": {{\n      \"n\": {n},\n      \"m\": {m},\n      \
         \"b\": {b},\n      \"workload\": \"hierarchical\",\n      \"groups\": {groups},\n      \
         \"rate\": 1.0,\n      \"dp_seconds\": {dps:.6},\n      \
         \"transform_seconds\": {tfs:.6},\n      \"speedup\": {speedup:.1}\n    }},\n    \
         \"lumped\": {{\n      \"n\": {ln},\n      \"m\": {lm},\n      \"b\": {lb},\n      \
         \"workload\": \"uniform\",\n      \"rate\": 1.0,\n      \"states\": {states},\n      \
         \"throughput\": {tp:.6},\n      \"seconds\": {ls:.6},\n      \
         \"unlumped_rejected\": {rejected}\n    }},\n    \
         \"caches\": {{\n      \"pmf\": {{ \"hits\": {ph}, \"misses\": {pm}, \
         \"inserts\": {pi}, \"entries\": {pl} }},\n      \
         \"served_tables\": {{ \"hits\": {sh}, \"misses\": {sm}, \
         \"inserts\": {si}, \"entries\": {sl} }}\n    }}\n  }}",
        n = exact.n,
        m = exact.m,
        b = exact.b,
        groups = exact.groups,
        dps = exact.dp_seconds,
        tfs = exact.transform_seconds,
        speedup = exact.speedup(),
        ln = exact.lumped_n,
        lm = exact.lumped_m,
        lb = exact.lumped_b,
        states = exact.lumped_states,
        tp = exact.lumped_throughput,
        ls = exact.lumped_seconds,
        rejected = exact.unlumped_rejected,
        ph = exact.pmf_cache.hits,
        pm = exact.pmf_cache.misses,
        pi = exact.pmf_cache.inserts,
        pl = exact.pmf_cache.len,
        sh = exact.served_cache.hits,
        sm = exact.served_cache.misses,
        si = exact.served_cache.inserts,
        sl = exact.served_cache.len,
    )
}

/// Joins the present sections into the top-level JSON object.
fn render_json(sections: &[String]) -> String {
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// `mbus bench`.
pub fn bench(args: &Args) -> Result<(), String> {
    let n = args.get_or("n", 32usize)?;
    let b = args.get_or("b", 8usize)?;
    let cycles = args.get_or("cycles", 200_000u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let reps = args.get_or("reps", 5usize)?;
    let sweep_n = args.get_or("sweep-n", 64usize)?;
    let replications = args.get_or("replications", 64usize)?;
    let scaling_cycles = args.get_or("scaling-cycles", 20_000u64)?;
    let out = args.get_or("out", "BENCH_sim.json".to_owned())?;
    let exact_only = args.flag("exact");
    let scaling_only = args.flag("scaling");
    let fabric_only = args.flag("fabric");

    let mut sections = Vec::new();

    if !exact_only && !scaling_only && !fabric_only {
        println!("engine: {n}x{n}x{b} full, hierarchical, r = 1.0, resubmission, {cycles} cycles");
        let engine = engine_benchmark(n, b, cycles, seed, reps)?;
        println!(
            "  optimized: {:>12.0} cycles/sec\n  reference: {:>12.0} cycles/sec\n  speedup:   {:>12.2}x",
            engine.optimized_cps,
            engine.reference_cps,
            engine.optimized_cps / engine.reference_cps
        );
        sections.push(engine_json(n, b, cycles, seed, &engine));

        println!(
            "\nsweep: {sweep_n} full-connection points at N = {sweep_n}, hierarchical, r = 1.0"
        );
        let sweep = sweep_benchmark(sweep_n, reps)?;
        match sweep.parallel_pps {
            Some(ppps) => println!(
                "  serial:    {:>12.1} points/sec\n  parallel:  {:>12.1} points/sec ({} workers)\n  speedup:   {:>12.2}x",
                sweep.serial_pps,
                ppps,
                sweep.workers,
                ppps / sweep.serial_pps
            ),
            None => println!(
                "  serial:    {:>12.1} points/sec\n  parallel:  skipped (1 worker detected)",
                sweep.serial_pps
            ),
        }
        sections.push(sweep_json(sweep_n, &sweep));

        println!("\ncampaign: every-mask K-class fault campaigns, serial vs all workers");
        let campaigns = campaign_benchmark(&CAMPAIGN_SHAPES, reps)?;
        for case in &campaigns {
            println!(
                "  kclass {n}x{n}x{b}, K = {k}, {w}, r = 1.0: {masks} masks",
                n = case.n,
                b = case.b,
                k = case.classes,
                w = case.workload,
                masks = case.masks
            );
            match case.parallel_mps {
                Some(pmps) => println!(
                    "    serial:    {:>12.0} masks/sec\n    parallel:  {:>12.0} masks/sec ({} workers, {:.2}x)",
                    case.serial_mps,
                    pmps,
                    available_workers(),
                    pmps / case.serial_mps
                ),
                None => println!(
                    "    serial:    {:>12.0} masks/sec\n    parallel:  skipped (1 worker detected)",
                    case.serial_mps
                ),
            }
        }
        sections.push(campaign_json(&Machine::detect(), &campaigns));
    }

    if fabric_only || (!exact_only && !scaling_only) {
        println!(
            "\nfabric: routed sim vs flat equivalent at depths 2 and 3, \
             locality 0.6, r = 0.5, {scaling_cycles} cycles"
        );
        let entries = fabric_benchmark(scaling_cycles, seed, reps)?;
        for entry in &entries {
            println!(
                "  {:<6} {:>12.0} cycles/sec routed, {:>12.0} flat ({:.2}x routing cost), \
                 analytic {:.4} vs sim {:.4} ({:.1}% gap)",
                entry.shape,
                entry.fabric_cps,
                entry.flat_cps,
                entry.flat_cps / entry.fabric_cps,
                entry.analytic_bw,
                entry.sim_bw,
                100.0 * entry.rel_gap(),
            );
        }
        let collect = collect_benchmark(8, 4, scaling_cycles, seed, replications, reps)?;
        println!(
            "  collect:   {:>12.1} replications/sec full, {:>12.1} aggregate ({:.2}x)",
            collect.full_rps,
            collect.aggregate_rps,
            collect.aggregate_rps / collect.full_rps
        );
        sections.push(fabric_json(scaling_cycles, seed, &entries, &collect));
    }

    if fabric_only {
        let json = render_json(&sections);
        std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("\nwrote {out}");
        return Ok(());
    }

    if !exact_only {
        let sn = 8usize;
        let sb = 4usize;
        println!(
            "\nscaling: {replications} replications of {sn}x{sn}x{sb} full, hierarchical, \
             r = 1.0, {scaling_cycles} cycles, batched vs scalar"
        );
        let scaling = scaling_benchmark(sn, sb, scaling_cycles, seed, replications, reps)?;
        println!(
            "  scalar:    {:>12.1} replications/sec (1 worker)\n  \
             batched:   {:>12.1} replications/sec (1 worker)\n  \
             speedup:   {:>12.2}x",
            scaling.scalar_rps,
            scaling.batched_rps,
            scaling.speedup()
        );
        for &(workers, rps) in scaling.curve.iter().skip(1) {
            println!(
                "  batched:   {:>12.1} replications/sec ({workers} workers, {:.2}x vs 1)",
                rps,
                rps / scaling.batched_rps
            );
        }
        sections.push(scaling_json(sn, sb, seed, &scaling));
    }

    if scaling_only {
        let json = render_json(&sections);
        std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("\nwrote {out}");
        return Ok(());
    }

    println!("\nexact: transform vs DP on 256x16 hierarchical; lumped Markov on 16x8x4 uniform");
    let exact = exact_benchmark(reps)?;
    println!(
        "  dp:        {:>12.4} sec/pmf\n  transform: {:>12.4} sec/pmf ({} groups)\n  speedup:   {:>12.1}x",
        exact.dp_seconds,
        exact.transform_seconds,
        exact.groups,
        exact.speedup()
    );
    println!(
        "  lumped:    {:>12} states, throughput {:.4}, {:.4} sec (unlumped rejected: {})",
        exact.lumped_states, exact.lumped_throughput, exact.lumped_seconds, exact.unlumped_rejected
    );
    println!(
        "  caches:    pmf {}/{} hits ({:.0}% hit rate, {} entries), served tables {}/{} hits ({} entries)",
        exact.pmf_cache.hits,
        exact.pmf_cache.hits + exact.pmf_cache.misses,
        exact.pmf_cache.hit_rate() * 100.0,
        exact.pmf_cache.len,
        exact.served_cache.hits,
        exact.served_cache.hits + exact.served_cache.misses,
        exact.served_cache.len,
    );
    sections.push(exact_json(&exact));

    let json = render_json(&sections);
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_benchmark_runs_and_engines_agree() {
        // Tiny run: the point is the equivalence check and the plumbing,
        // not the numbers.
        let result = engine_benchmark(8, 4, 500, 7, 1).unwrap();
        assert_eq!(result.total_cycles, 525);
        assert!(result.optimized_cps > 0.0);
        assert!(result.reference_cps > 0.0);
    }

    #[test]
    fn sweep_benchmark_runs_and_sweeps_agree() {
        let result = sweep_benchmark(8, 1).unwrap();
        assert_eq!(result.points, 8);
        assert!(result.serial_pps > 0.0);
        // On multi-core CI the parallel leg runs; on a single core it is
        // skipped but the detected worker count is still reported.
        assert!(result.workers >= 1);
        if result.workers > 1 {
            assert!(result.parallel_pps.is_some());
        } else {
            assert!(result.parallel_pps.is_none());
        }
    }

    #[test]
    fn campaign_benchmark_runs_and_reports_agree() {
        // Small shapes: the serial/parallel gate and the mask counts are
        // the point, not the rates.
        let cases =
            campaign_benchmark(&[(8, 4, 4, "hierarchical"), (8, 4, 2, "uniform")], 1).unwrap();
        assert_eq!(cases.len(), 2);
        assert!(cases.iter().all(|case| case.masks == 16));
        assert!(cases.iter().all(|case| case.serial_mps > 0.0));
        let parallel_expected = available_workers() > 1;
        assert!(cases
            .iter()
            .all(|case| case.parallel_mps.is_some() == parallel_expected));
    }

    #[test]
    fn campaign_json_is_stamped_and_omits_a_single_worker_speedup() {
        let machine = Machine {
            cores: 2,
            cpu: "Some \"quoted\" CPU".to_owned(),
            profile: "release",
            revision: "abc1234".to_owned(),
        };
        let case = |parallel_mps| CampaignCase {
            n: 16,
            b: 8,
            classes: 8,
            workload: "hierarchical",
            masks: 256,
            serial_mps: 400_000.0,
            parallel_mps,
        };
        let json = render_json(&[campaign_json(
            &machine,
            &[case(Some(500_000.0)), case(None)],
        )]);
        assert!(json.contains("\"cores\": 2, \"cpu\": \"Some 'quoted' CPU\""));
        assert!(json.contains("\"revision\": \"abc1234\""));
        assert!(json.contains("\"serial_masks_per_sec\": 400000.0"));
        assert!(json.contains("\"parallel_masks_per_sec\": 500000.0, \"speedup\": 1.250"));
        assert_eq!(json.matches("speedup").count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn short_calls_are_repeated_to_fill_a_sample() {
        let mut calls = 0u32;
        let per_call = seconds_per_call(0.005, &mut || calls += 1);
        assert!(calls > 1, "a no-op call must be repeated");
        assert!(per_call > 0.0 && per_call * f64::from(calls) >= 0.005);
        let mut once = 0u32;
        seconds_per_call(0.0, &mut || once += 1);
        assert_eq!(once, 1, "no minimum means one call");
    }

    #[test]
    fn scaling_benchmark_runs_and_gates_hold() {
        // Tiny run: the agreement + determinism gates and the plumbing are
        // the point, not the throughput numbers.
        let result = scaling_benchmark(8, 4, 400, 7, 8, 1).unwrap();
        assert_eq!(result.replications, 8);
        assert_eq!(result.total_cycles, 420);
        assert!(result.scalar_rps > 0.0);
        assert!(result.batched_rps > 0.0);
        assert_eq!(result.curve[0].0, 1);
        assert_eq!(result.curve.last().unwrap().0, available_workers().max(1));
    }

    #[test]
    fn scaling_json_records_curve_and_speedup() {
        let scaling = ScalingResult {
            replications: 64,
            total_cycles: 21_000,
            scalar_rps: 100.0,
            batched_rps: 300.0,
            curve: vec![(1, 300.0), (2, 580.0), (4, 1100.0)],
        };
        let json = render_json(&[scaling_json(8, 4, 42, &scaling)]);
        assert!(json.contains("\"single_worker_speedup\": 3.000"));
        assert!(json.contains("\"replications\": 64"));
        assert!(json.contains("{ \"workers\": 4, \"replications_per_sec\": 1100.00 }"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let engine = EngineResult {
            total_cycles: 210_000,
            optimized_cps: 2.0e6,
            reference_cps: 1.0e6,
        };
        let sweep = SweepResult {
            points: 64,
            workers: 8,
            serial_pps: 10.0,
            parallel_pps: Some(40.0),
        };
        let json = render_json(&[
            engine_json(32, 8, 200_000, 42, &engine),
            sweep_json(64, &sweep),
        ]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"speedup\": 4.000"));
        assert!(json.contains("\"optimized_cycles_per_sec\": 2000000.0"));
    }

    #[test]
    fn single_worker_sweep_json_omits_speedup() {
        let sweep = SweepResult {
            points: 64,
            workers: 1,
            serial_pps: 10.0,
            parallel_pps: None,
        };
        let json = render_json(&[sweep_json(64, &sweep)]);
        assert!(json.contains("\"workers\": 1"), "detected value reported");
        assert!(!json.contains("speedup"), "no misleading 1.00x speedup");
        assert!(!json.contains("parallel_points_per_sec"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exact_json_has_both_subsections() {
        let exact = ExactResult {
            n: 256,
            m: 16,
            b: 8,
            groups: 16,
            dp_seconds: 0.8,
            transform_seconds: 0.02,
            lumped_n: 16,
            lumped_m: 8,
            lumped_b: 4,
            lumped_states: 481,
            lumped_throughput: 3.9963,
            lumped_seconds: 0.01,
            unlumped_rejected: true,
            pmf_cache: mbus_core::stats::cache::CacheStats {
                hits: 3,
                misses: 2,
                inserts: 2,
                len: 2,
            },
            served_cache: mbus_core::stats::cache::CacheStats {
                hits: 10,
                misses: 1,
                inserts: 1,
                len: 1,
            },
        };
        let json = render_json(&[exact_json(&exact)]);
        assert!(json.contains("\"speedup\": 40.0"));
        assert!(json.contains("\"unlumped_rejected\": true"));
        assert!(json.contains("\"states\": 481"));
        assert!(json.contains("\"pmf\": { \"hits\": 3, \"misses\": 2"));
        assert!(json.contains("\"served_tables\": { \"hits\": 10"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exact_benchmark_measures_a_real_separation() {
        // One rep keeps this test cheap; the structural claims (agreement
        // gate passed, unlumped rejection observed, transform faster) are
        // what matter, not the exact ratio.
        let result = exact_benchmark(1).unwrap();
        assert_eq!(result.groups, 16);
        assert!(result.unlumped_rejected, "old engine must reject 16x8");
        assert!(result.lumped_states > 0);
        assert!(result.lumped_throughput > 3.9 && result.lumped_throughput <= 4.0 + 1e-9);
        assert!(
            result.speedup() > 1.0,
            "transform slower than DP: {:.3}s vs {:.3}s",
            result.transform_seconds,
            result.dp_seconds
        );
    }
}
