//! The `replicate` workload: in-process replicated simulation over a
//! fixed job list, with no server, cache or analytic layer on the path.
//!
//! The list spans every scheme, resubmission on and off, one fault
//! schedule, batched jobs inside the 64-lane envelope (128 replications,
//! so the scheduler sees two coarse tasks per job), one N > 64 job that
//! the scalar engine runs, and routed fabrics of depth 2 and 3. The seed
//! draws the simulation seeds; the list and its rates are fixed, so the
//! work per job does not depend on the seed.

use crate::span::Tracer;
use crate::util::{self, median, quantile, timed, Digest, Rng};
use crate::Report;
use mbus_core::fabric::{
    analyze_fabric, ClusteredBuses, FabricReport, FabricSimulator, FabricSpec,
};
use mbus_core::prelude::{
    paper_params, BusNetwork, ConnectionScheme, RequestMatrix, RequestModel, SimConfig,
    UniformModel,
};
use mbus_core::sim::runner::{run_replications, run_replications_with_workers, ReplicationReport};
use mbus_core::sim::{FaultEvent, FaultEventKind, FaultSchedule, Simulator};
use mbus_core::workload::WorkloadSampler;
use rand::SeedableRng;
use std::time::{Duration, Instant};

enum Engine {
    Replicated {
        net: BusNetwork,
        matrix: RequestMatrix,
        replications: usize,
    },
    Fabric {
        topo: ClusteredBuses,
        matrix: RequestMatrix,
        sim: Box<FabricSimulator>,
    },
}

pub struct Job {
    name: &'static str,
    rate: f64,
    config: SimConfig,
    engine: Engine,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Replicated(ReplicationReport),
    Fabric(Box<FabricReport>),
}

impl Job {
    /// Simulated cycles one run of the job covers, warm-up included.
    fn cycles(&self) -> f64 {
        let per_run = (self.config.cycles + self.config.warmup) as f64;
        match &self.engine {
            Engine::Replicated { replications, .. } => per_run * *replications as f64,
            Engine::Fabric { .. } => per_run,
        }
    }

    /// Runs the job; `workers` applies to replicated jobs (`None` = the
    /// default, every available core).
    fn run(&mut self, workers: Option<usize>) -> Result<Output, String> {
        match &mut self.engine {
            Engine::Replicated {
                net,
                matrix,
                replications,
            } => {
                let report = match workers {
                    None => run_replications(net, matrix, self.rate, &self.config, *replications),
                    Some(w) => run_replications_with_workers(
                        net,
                        matrix,
                        self.rate,
                        &self.config,
                        *replications,
                        w,
                    ),
                };
                report
                    .map(Output::Replicated)
                    .map_err(|e| format!("{}: {e}", self.name))
            }
            Engine::Fabric { sim, .. } => sim
                .run(&self.config)
                .map(|report| Output::Fabric(Box::new(report)))
                .map_err(|e| format!("{}: {e}", self.name)),
        }
    }
}

fn replicated(
    name: &'static str,
    net: BusNetwork,
    matrix: RequestMatrix,
    rate: f64,
    config: SimConfig,
    replications: usize,
) -> Job {
    Job {
        name,
        rate,
        config,
        engine: Engine::Replicated {
            net,
            matrix,
            replications,
        },
    }
}

fn fabric(name: &'static str, ks: &[usize], rate: f64, config: SimConfig) -> Result<Job, String> {
    let spec = FabricSpec {
        ks: ks.to_vec(),
        local_buses: 2,
        uplink_width: 1,
        locality: 0.6,
    };
    let (topo, matrix) = spec.build().map_err(|e| e.to_string())?;
    let sim = Box::new(FabricSimulator::build(&topo, &matrix, rate).map_err(|e| e.to_string())?);
    Ok(Job {
        name,
        rate,
        config,
        engine: Engine::Fabric { topo, matrix, sim },
    })
}

/// The job list for `seed` (this is the workload's set-up).
pub fn jobs(seed: u64) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(seed, 0x5245_504C);
    let e = |err: &dyn std::fmt::Display| err.to_string();
    let hier = |n: usize| {
        paper_params::hierarchical(n)
            .map(|m| m.matrix())
            .map_err(|x| e(&x))
    };
    let unif = |n: usize, m: usize| {
        UniformModel::new(n, m)
            .map(|u| u.matrix())
            .map_err(|x| e(&x))
    };
    let mut config = |cycles: u64| {
        SimConfig::new(cycles)
            .with_warmup(cycles / 10)
            .with_seed(rng.next_u64() % 1_000_000)
    };
    let (c1, c2, c3, c4, c5, c6, c7) = (
        config(800),
        config(500),
        config(500),
        config(200),
        config(200),
        config(1500),
        config(1500),
    );
    let fault = FaultSchedule::from_events(vec![FaultEvent {
        cycle: 250,
        bus: 0,
        kind: FaultEventKind::Fail,
    }])
    .map_err(|x| e(&x))?;
    let net = |n: usize, m: usize, b: usize, scheme: ConnectionScheme| {
        BusNetwork::new(n, m, b, scheme).map_err(|x| e(&x))
    };
    Ok(vec![
        replicated(
            "full-8x8x4",
            net(8, 8, 4, ConnectionScheme::Full)?,
            hier(8)?,
            1.0,
            c1,
            128,
        ),
        replicated(
            "single-16x16x4-resub",
            net(
                16,
                16,
                4,
                ConnectionScheme::balanced_single(16, 4).map_err(|x| e(&x))?,
            )?,
            hier(16)?,
            0.6,
            c2.with_resubmission(true),
            128,
        ),
        replicated(
            "kclass-16x16x4-fault",
            net(
                16,
                16,
                4,
                ConnectionScheme::uniform_classes(16, 4).map_err(|x| e(&x))?,
            )?,
            unif(16, 16)?,
            0.8,
            c3.with_faults(fault),
            128,
        ),
        replicated(
            "partial-32x32x8",
            net(32, 32, 8, ConnectionScheme::PartialGroups { groups: 2 })?,
            hier(32)?,
            0.5,
            c4,
            128,
        ),
        replicated(
            "full-96x96x16-scalar",
            net(96, 96, 16, ConnectionScheme::Full)?,
            unif(96, 96)?,
            0.7,
            c5,
            2,
        ),
        fabric("fabric-depth2", &[4, 4], 0.9, c6)?,
        fabric("fabric-depth3", &[2, 4, 4], 0.6, c7)?,
    ])
}

/// The job list, its set-up pass's outputs and the set-up time.
type Prepared = (Vec<Job>, Vec<Output>, f64);

/// Set-up: builds the job list and runs it once, the first and so the
/// cold pass of the process (thread start-up, first-touch allocation).
/// Returns the jobs, their outputs (the reference every measured pass
/// must reproduce) and the time taken in seconds.
pub fn setup(seed: u64) -> Result<Prepared, String> {
    let (built, took) = timed(|| {
        let mut jobs = jobs(seed)?;
        let outputs = jobs
            .iter_mut()
            .map(|job| job.run(None))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((jobs, outputs))
    });
    let (jobs, outputs) = built?;
    Ok((jobs, outputs, took.as_secs_f64()))
}

/// Runs the job list pass after pass until `budget` elapses, checking
/// every job's output against the set-up pass. Spans go to `t` when
/// given.
fn passes(
    jobs: &mut [Job],
    reference: &[Output],
    budget: Duration,
    mut t: Option<&mut Tracer>,
    report: &mut Report,
    prefix: &str,
) -> Result<(), String> {
    let mut latencies = Vec::new();
    let mut pass_times = Vec::new();
    let (mut ok, mut failed, mut cycles) = (0u64, 0u64, 0.0);
    let start = Instant::now();
    'outer: loop {
        let pass_start = Instant::now();
        for (job, expected) in jobs.iter_mut().zip(reference) {
            if start.elapsed() >= budget && !latencies.is_empty() {
                break 'outer;
            }
            let id = latencies.len() as u64;
            let (out, took) = match t.as_deref_mut() {
                Some(t) => t.span(job.name, id, |_| timed(|| job.run(None))),
                None => timed(|| job.run(None)),
            };
            latencies.push(util::ms(took));
            cycles += job.cycles();
            if out? == *expected {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        pass_times.push(pass_start.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = |s: &str| format!("{prefix}{s}");
    report.put(&n("p50_ms"), median(&latencies), "ms");
    report.put(&n("p99_ms"), quantile(&latencies, 0.99), "ms");
    report.put(&n("goodput_rps"), ok as f64 / elapsed, "1/s");
    report.attempted += ok + failed;
    report.failed += failed;
    if prefix.is_empty() {
        report.put("jobs_run", (ok + failed) as f64, "count");
        report.put(
            "fail_ratio",
            failed as f64 / (ok + failed).max(1) as f64,
            "ratio",
        );
        report.put("sim_mcycles_per_s", cycles / elapsed / 1e6, "Mcycles/s");
        report.put("wall_s", median(&pass_times), "s");
        let mut digest = Digest::default();
        for out in reference {
            digest.add_debug(out);
        }
        report.digest = digest.hex();
    }
    Ok(())
}

/// The untraced run. Returns its set-up time in seconds.
pub fn run(seed: u64, seconds: u64, report: &mut Report) -> Result<f64, String> {
    let (mut jobs, reference, secs) = setup(seed)?;
    passes(
        &mut jobs,
        &reference,
        Duration::from_secs(seconds),
        None,
        report,
        "",
    )?;
    Ok(secs)
}

pub fn traced(
    seed: u64,
    budget: Duration,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (mut jobs, reference, _) = setup(seed)?;
    passes(&mut jobs, &reference, budget, Some(t), report, "traced.")
}

/// Median over `reps` calls of `f`, each returning `(value, work)`: the
/// per-unit cost in nanoseconds.
fn ns_per<F: FnMut() -> Result<f64, String>>(reps: usize, mut f: F) -> Result<f64, String> {
    let mut values = Vec::new();
    for _ in 0..reps {
        values.push(f()?);
    }
    Ok(median(&values))
}

/// Per-layer costs of the engines: issue, arbitration, the scalar and
/// batched engines, the scheduler's speed-up and the fabric. On the home
/// workload (`home`) every probe repeats three times; elsewhere once.
/// Also gates that every replicated job's report is identical at one
/// worker and at every core.
pub fn layers(seed: u64, home: bool, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let reps = if home { 3 } else { 1 };
    let mut jobs = jobs(seed)?;
    let big = jobs
        .iter()
        .position(|j| j.name == "full-96x96x16-scalar")
        .ok_or("no scalar job")?;
    let (net, matrix, rate, cycles) = match &jobs[big].engine {
        Engine::Replicated { net, matrix, .. } => {
            (net.clone(), matrix.clone(), jobs[big].rate, 2000u64)
        }
        Engine::Fabric { .. } => return Err("scalar job is not replicated".into()),
    };

    let sampler = WorkloadSampler::new(&matrix, rate).map_err(|e| e.to_string())?;
    let issue = ns_per(reps, || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let ((), took) = t.span("sim.issue", 0, |_| {
            timed(|| {
                for _ in 0..cycles {
                    sampler.sample_cycle(&mut rng, &mut out);
                    std::hint::black_box(&out);
                }
            })
        });
        Ok(took.as_nanos() as f64 / cycles as f64)
    })?;
    report.put("sim.issue_ns_per_cycle", issue, "ns");

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sampled: Vec<Vec<Option<usize>>> = (0..cycles)
        .map(|_| {
            let mut out = Vec::new();
            sampler.sample_cycle(&mut rng, &mut out);
            out
        })
        .collect();
    let arbitrate = ns_per(reps, || {
        let mut sim = Simulator::build(&net, &matrix, rate).map_err(|e| e.to_string())?;
        let ((), took) = t.span("sim.arbitrate", 0, |_| {
            timed(|| {
                for requests in &sampled {
                    std::hint::black_box(sim.step_with_requests(requests));
                }
            })
        });
        Ok(took.as_nanos() as f64 / cycles as f64)
    })?;
    report.put("sim.arbitrate_ns_per_cycle", arbitrate, "ns");

    let scalar = ns_per(reps, || {
        let mut sim = Simulator::build(&net, &matrix, rate).map_err(|e| e.to_string())?;
        let config = SimConfig::new(cycles)
            .with_warmup(cycles / 10)
            .with_seed(seed);
        let (out, took) = t.span("sim.scalar", 0, |_| timed(|| sim.run(&config)));
        std::hint::black_box(out.map_err(|e| e.to_string())?);
        Ok(took.as_nanos() as f64 / (cycles + cycles / 10) as f64)
    })?;
    report.put("sim.scalar_ns_per_cycle", scalar, "ns");

    let batched_job = &mut jobs[0];
    let lane_cycles = batched_job.cycles();
    let batched = ns_per(reps, || {
        let (out, took) = t.span("batched.run", 0, |_| timed(|| batched_job.run(Some(1))));
        std::hint::black_box(out?);
        Ok(took.as_nanos() as f64 / lane_cycles)
    })?;
    report.put("batched.ns_per_lane_cycle", batched, "ns");

    // Scheduler speed-up and the worker-count determinism gate.
    let workers = util::nproc();
    let (mut one, mut all) = (Duration::ZERO, Duration::ZERO);
    for (id, job) in jobs.iter_mut().enumerate() {
        if !matches!(job.engine, Engine::Replicated { .. }) {
            continue;
        }
        let (serial, t1) = t.span("parallel.one_worker", id as u64, |_| {
            timed(|| job.run(Some(1)))
        });
        let (wide, tn) = t.span("parallel.all_workers", id as u64, |_| {
            timed(|| job.run(Some(workers)))
        });
        one += t1;
        all += tn;
        report.attempted += 1;
        if serial? != wide? {
            report.failed += 1;
            report.gates.push(format!(
                "{}: report differs at 1 and {workers} workers",
                job.name
            ));
        }
    }
    report.put(
        "parallel.speedup",
        one.as_secs_f64() / all.as_secs_f64(),
        "ratio",
    );

    let mut fabric_ns = Vec::new();
    let mut analytic_us = Vec::new();
    let mut iterations = 0.0;
    for job in jobs.iter_mut() {
        let per_run = (job.config.cycles + job.config.warmup) as f64;
        let config = job.config.clone();
        let rate = job.rate;
        let name = job.name;
        if let Engine::Fabric { topo, matrix, sim } = &mut job.engine {
            for _ in 0..reps {
                let (out, took) = t.span("fabric.run", 0, |_| timed(|| sim.run(&config)));
                std::hint::black_box(out.map_err(|e| format!("{name}: {e}"))?);
                fabric_ns.push(took.as_nanos() as f64 / per_run);
                let (analysis, took) = t.span("fabric.analytic", 0, |_| {
                    timed(|| analyze_fabric(topo, matrix, rate, &[]))
                });
                let analysis = analysis.map_err(|e| format!("{name}: {e}"))?;
                analytic_us.push(util::us(took));
                iterations = analysis.iterations as f64;
            }
        }
    }
    report.put("fabric.ns_per_cycle", median(&fabric_ns), "ns");
    report.put("fabric.analytic_us", median(&analytic_us), "us");
    report.put("fabric.iterations", iterations, "count");
    Ok(())
}
