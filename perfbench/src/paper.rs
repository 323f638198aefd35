//! The `paper` workload: the regenerated paper, end to end.
//!
//! One pass regenerates Tables II–VI through `core::tables`, evaluates
//! the analysis-vs-exact validation grid over the five schemes, runs the
//! subset transform and the lumped resubmission chain, and runs a fault
//! campaign on a K-class network, which the bus-permutation collapse does
//! not cover, so every C(B, f) mask is evaluated as its own tiny task.
//!
//! The exact engines keep process-global caches keyed by workload and
//! rate. Every pass after the first would otherwise be answered from them,
//! so each pass draws fresh rates from the seed; the share of transform
//! lookups that still hit is reported as `exact.pmf_cache_hit_ratio`.
//! Tables II–VI have fixed inputs, so passes after the first reuse the
//! paper-grid matrices cached by `core::tables`, as any long-lived process
//! would.

use crate::span::Tracer;
use crate::util::{median, ms, quantile, timed, us, Digest, Rng};
use crate::Report;
use mbus_core::analysis::bandwidth::analyze;
use mbus_core::exact::lumped::lumped_steady_state;
use mbus_core::exact::transform::{pmf_cache_stats, transform_bandwidth};
use mbus_core::prelude::{
    degraded_analyze, paper_params, run_campaign, tables, BusNetwork, CampaignConfig,
    ConnectionScheme, FaultMask, RequestMatrix, RequestModel, System, UniformModel,
};
use mbus_core::stats::parallel::parallel_map_dynamic;
use std::time::{Duration, Instant};

/// The paper's print precision bound on |computed − paper|.
pub const MAX_DEV: f64 = 0.011;

/// The inputs of one pass, drawn from `(seed, pass)`.
pub struct Inputs {
    grid: Vec<BusNetwork>,
    grid_matrix: RequestMatrix,
    grid_rate: f64,
    transform: Vec<(BusNetwork, RequestMatrix, f64)>,
    lumped: (BusNetwork, RequestMatrix, f64),
    campaign: (BusNetwork, RequestMatrix, f64),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn inputs(seed: u64, pass: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed, 0x5041_5045 + pass);
    let n = 8;
    let b = n / 2;
    let grid = [
        ConnectionScheme::Full,
        ConnectionScheme::balanced_single(n, b).map_err(err)?,
        ConnectionScheme::PartialGroups { groups: 2 },
        ConnectionScheme::uniform_classes(n, b).map_err(err)?,
        ConnectionScheme::Crossbar,
    ]
    .into_iter()
    .map(|scheme| BusNetwork::new(n, n, b, scheme))
    .collect::<Result<Vec<_>, _>>()
    .map_err(err)?;
    let hier12 = paper_params::hierarchical(12).map_err(err)?.matrix();
    Ok(Inputs {
        grid,
        grid_matrix: paper_params::hierarchical(n).map_err(err)?.matrix(),
        grid_rate: rng.decimal(0.5, 1.0, 6),
        transform: vec![
            (
                BusNetwork::new(12, 12, 6, ConnectionScheme::Full).map_err(err)?,
                hier12,
                rng.decimal(0.3, 1.0, 6),
            ),
            (
                BusNetwork::new(48, 12, 6, ConnectionScheme::Full).map_err(err)?,
                UniformModel::new(48, 12).map_err(err)?.matrix(),
                rng.decimal(0.3, 1.0, 6),
            ),
        ],
        lumped: (
            BusNetwork::new(10, 5, 3, ConnectionScheme::Full).map_err(err)?,
            UniformModel::new(10, 5).map_err(err)?.matrix(),
            rng.decimal(0.3, 1.0, 6),
        ),
        campaign: (
            BusNetwork::new(
                16,
                16,
                8,
                ConnectionScheme::uniform_classes(16, 8).map_err(err)?,
            )
            .map_err(err)?,
            paper_params::hierarchical(16).map_err(err)?.matrix(),
            rng.decimal(0.3, 1.0, 6),
        ),
    })
}

/// Runs one pass, adding its outputs to `digest`. Returns whether every
/// check passed and the largest table deviation.
fn pass(
    inputs: &Inputs,
    digest: &mut Digest,
    mut t: Option<&mut Tracer>,
    id: u64,
) -> Result<(bool, f64), String> {
    let mut ok = true;
    let mut op = |name: &'static str, f: &mut dyn FnMut() -> Result<bool, String>| {
        let good = match t.as_deref_mut() {
            Some(t) => t.span(name, id, |_| f()),
            None => f(),
        }?;
        ok &= good;
        Ok::<(), String>(())
    };
    let mut max_dev: f64 = 0.0;
    let regenerate: [fn() -> tables::PaperTable; 5] = [
        tables::table2,
        tables::table3,
        tables::table4,
        tables::table5,
        tables::table6,
    ];
    op("paper.tables", &mut || {
        let mut ok = true;
        for table in regenerate {
            let table = table();
            let dev = table.max_abs_deviation();
            max_dev = max_dev.max(dev);
            ok &= dev <= MAX_DEV;
            digest.add_debug(&table);
        }
        Ok(ok)
    })?;
    op("paper.validate", &mut || {
        let mut ok = true;
        for net in &inputs.grid {
            let system =
                System::from_matrix(net.clone(), inputs.grid_matrix.clone(), inputs.grid_rate)
                    .map_err(err)?;
            let analytic = system.analytic().map_err(err)?.bandwidth;
            let exact = system.exact().map_err(err)?;
            digest.add_debug(&(analytic, exact));
            ok &= analytic.is_finite() && exact > 0.0 && exact <= net.capacity() as f64 + 1e-9;
        }
        Ok(ok)
    })?;
    for (net, matrix, rate) in &inputs.transform {
        op("paper.transform", &mut || {
            let bw = transform_bandwidth(net, matrix, *rate).map_err(err)?;
            digest.add_debug(&bw);
            Ok(bw > 0.0 && bw <= net.capacity() as f64 + 1e-9)
        })?;
    }
    let (net, matrix, rate) = &inputs.lumped;
    op("paper.lumped", &mut || {
        let steady = lumped_steady_state(net, matrix, *rate).map_err(err)?;
        digest.add_debug(&steady);
        Ok(steady.throughput > 0.0 && steady.throughput <= net.capacity() as f64 + 1e-9)
    })?;
    let (net, matrix, rate) = &inputs.campaign;
    op("paper.campaign", &mut || {
        let config = CampaignConfig {
            workers: crate::util::nproc(),
            ..CampaignConfig::default()
        };
        let report = run_campaign(net, matrix, *rate, &config).map_err(err)?;
        digest.add_debug(&report);
        let healthy = report.levels.first().map(|l| l.mean_bandwidth);
        Ok(healthy == Some(report.healthy_bandwidth) && report.levels.len() == net.buses() + 1)
    })?;
    Ok((ok, max_dev))
}

/// Set-up: builds pass 0's inputs and runs it, the first and so the cold
/// pass of the process (thread start-up, the paper-grid matrices of
/// `core::tables`, the exact engines' empty caches). Returns its digest,
/// its time in seconds, and a gate message if it failed its checks.
fn setup(seed: u64) -> Result<(Digest, f64, Option<String>), String> {
    let mut digest = Digest::default();
    let (outcome, took) = timed(|| inputs(seed, 0).and_then(|i| pass(&i, &mut digest, None, 0)));
    let (ok, max_dev) = outcome?;
    let gate = (!ok).then(|| format!("set-up pass failed its checks (max dev {max_dev})"));
    Ok((digest, took.as_secs_f64(), gate))
}

/// One set-up on its own, for a `setup_s` sample, in seconds.
pub fn setup_sample(seed: u64) -> Result<f64, String> {
    setup(seed).map(|(_, secs, _)| secs)
}

/// Runs passes on fresh inputs until `budget` elapses; one pass is one
/// operation.
fn passes(
    seed: u64,
    budget: Duration,
    mut t: Option<&mut Tracer>,
    report: &mut Report,
    prefix: &str,
) -> Result<(), String> {
    let mut latencies = Vec::new();
    let (mut ok, mut max_dev) = (0u64, 0.0f64);
    let start = Instant::now();
    for k in 1.. {
        if k > 1 && start.elapsed() >= budget {
            break;
        }
        let inputs = inputs(seed, k)?;
        let mut scratch = Digest::default();
        let (outcome, took) = match t.as_deref_mut() {
            Some(t) => t.span("paper.pass", k, |t| {
                timed(|| pass(&inputs, &mut scratch, Some(t), k))
            }),
            None => timed(|| pass(&inputs, &mut scratch, None, k)),
        };
        let (good, dev) = outcome?;
        latencies.push(ms(took));
        ok += u64::from(good);
        max_dev = max_dev.max(dev);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let attempted = latencies.len() as u64;
    let n = |s: &str| format!("{prefix}{s}");
    report.put(&n("p50_ms"), median(&latencies), "ms");
    report.put(&n("p99_ms"), quantile(&latencies, 0.99), "ms");
    report.put(&n("goodput_rps"), ok as f64 / elapsed, "1/s");
    report.attempted += attempted;
    report.failed += attempted - ok;
    if max_dev > MAX_DEV {
        report
            .gates
            .push(format!("paper_max_dev {max_dev} exceeds {MAX_DEV}"));
    }
    if prefix.is_empty() {
        report.put("passes_run", attempted as f64, "count");
        report.put(
            "fail_ratio",
            (attempted - ok) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.put("wall_s", median(&latencies) / 1e3, "s");
        report.put("paper_max_dev", max_dev, "abs");
        report.put(
            "exact.pmf_cache_hit_ratio",
            pmf_cache_stats().hit_rate(),
            "ratio",
        );
    }
    Ok(())
}

/// The untraced run. Returns its set-up time in seconds.
pub fn run(seed: u64, seconds: u64, report: &mut Report) -> Result<f64, String> {
    let (digest, secs, gate) = setup(seed)?;
    report.gates.extend(gate);
    report.digest = digest.hex();
    passes(seed, Duration::from_secs(seconds), None, report, "")?;
    Ok(secs)
}

pub fn traced(
    seed: u64,
    budget: Duration,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (_, _, gate) = setup(seed)?;
    report.gates.extend(gate);
    passes(seed, budget, Some(t), report, "traced.")
}

/// Per-layer costs of analysis, the exact engines, the campaign engine,
/// table regeneration and the scheduler's per-task overhead. Inputs come
/// from passes the workload itself never draws (`1000 + i`), so the
/// exact engines' caches cannot answer them. On the home workload every
/// probe repeats three times; elsewhere once.
pub fn layers(seed: u64, home: bool, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let reps: u64 = if home { 3 } else { 1 };
    let (
        mut analyze_us,
        mut degraded_us,
        mut transform_ms,
        mut lumped_ms,
        mut masks_per_s,
        mut regen_ms,
    ) = (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut tasks = 0usize;
    for i in 0..reps {
        let inputs = inputs(seed, 1000 + i)?;
        let failed = FaultMask::with_failures(inputs.grid[0].buses(), &[0]).map_err(err)?;
        for net in &inputs.grid {
            let (a, took) = t.span("analysis.analyze", i, |_| {
                timed(|| analyze(net, &inputs.grid_matrix, inputs.grid_rate))
            });
            std::hint::black_box(a.map_err(err)?);
            analyze_us.push(us(took));
            let (d, took) = t.span("analysis.degraded", i, |_| {
                timed(|| degraded_analyze(net, &inputs.grid_matrix, inputs.grid_rate, &failed))
            });
            std::hint::black_box(d.map_err(err)?);
            degraded_us.push(us(took));
        }
        for (net, matrix, rate) in &inputs.transform {
            let (bw, took) = t.span("exact.transform", i, |_| {
                timed(|| transform_bandwidth(net, matrix, *rate))
            });
            std::hint::black_box(bw.map_err(err)?);
            transform_ms.push(ms(took));
        }
        let (net, matrix, rate) = &inputs.lumped;
        let (steady, took) = t.span("exact.lumped", i, |_| {
            timed(|| lumped_steady_state(net, matrix, *rate))
        });
        std::hint::black_box(steady.map_err(err)?);
        lumped_ms.push(ms(took));
        let (net, matrix, rate) = &inputs.campaign;
        let config = CampaignConfig {
            workers: crate::util::nproc(),
            ..CampaignConfig::default()
        };
        let (campaign, took) = t.span("campaign.run", i, |_| {
            timed(|| run_campaign(net, matrix, *rate, &config))
        });
        let campaign = campaign.map_err(err)?;
        tasks = campaign.levels.iter().map(|l| l.combos_evaluated).sum();
        masks_per_s.push(tasks as f64 / took.as_secs_f64());
        let (all, took) = t.span("tables.regen", i, |_| timed(tables::all_bandwidth_tables));
        std::hint::black_box(all);
        regen_ms.push(ms(took));
    }
    report.put("analysis.analyze_us", median(&analyze_us), "us");
    report.put("analysis.degraded_us", median(&degraded_us), "us");
    report.put("exact.transform_ms", median(&transform_ms), "ms");
    report.put("exact.lumped_ms", median(&lumped_ms), "ms");
    report.put(
        "exact.pmf_cache_hit_ratio",
        pmf_cache_stats().hit_rate(),
        "ratio",
    );
    report.put("campaign.masks_per_s", median(&masks_per_s), "1/s");
    report.put("tables.regen_ms", median(&regen_ms), "ms");
    // The scheduler's own cost: empty tasks, as many as the campaign has.
    let workers = crate::util::nproc();
    let mut per_task = Vec::new();
    for i in 0..5 * reps {
        let (out, took) = t.span("parallel.empty_tasks", i, |_| {
            timed(|| parallel_map_dynamic(vec![(); tasks.max(1)], workers, std::hint::black_box))
        });
        std::hint::black_box(out);
        per_task.push(took.as_nanos() as f64 / tasks.max(1) as f64);
    }
    report.put("parallel.ns_per_task", median(&per_task), "ns");
    Ok(())
}
