//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-churn|replicate|paper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the traced
//! run (`--trace 1`). Exits 1 when a correctness gate fails. See
//! `README.md` beside this crate for the metric definitions.

mod gen;
mod paper;
mod replicate;
mod serve;
mod span;
mod util;

use span::Tracer;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`. The
/// other metrics a run prints (`goodput_rps`, `p99_ms`, peak memory,
/// failure ratio, generator lag, simulated cycles per second, pass wall
/// time, table deviation) either apply to some workloads only or move too
/// much between runs on a shared two-core machine to carry a bound, so
/// they are printed and stamped but not bounded.
const END_TO_END: [&str; 2] = ["p50_ms", "setup_s"];

/// `setup_s` is the median of this process's own set-up and of one set-up
/// in each of several fresh child processes, so that every sample pays
/// the cold cost (thread start-up, empty process-global caches) that a
/// user pays once per process. Children run one after another until
/// `SETUP_SAMPLING` has passed, at least `MIN_CHILD_SETUPS` and at most
/// `MAX_CHILD_SETUPS` of them: cheap set-ups get more samples.
const SETUP_SAMPLING: Duration = Duration::from_secs(4);
const MIN_CHILD_SETUPS: usize = 8;
const MAX_CHILD_SETUPS: usize = 256;

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload measures its own layers on its own inputs; the layers it
/// bypasses are measured by short probes on the inputs of the workload
/// that exercises them, so every value is measured on every run.
const PER_LAYER: [&str; 38] = [
    "server.transport_p50_us",
    "server.shed",
    "http.parse_us",
    "http.write_us",
    "service.parse_us",
    "service.key_us",
    "json.render_us",
    "evaluate.bandwidth_us",
    "evaluate.exact_us",
    "evaluate.simulate_us",
    "evaluate.degraded_us",
    "evaluate.fabric_us",
    "cache.hit_ratio",
    "cache.hit_ratio_phase0",
    "cache.hit_ratio_after_shift",
    "cache.rejected_inserts",
    "cache.len",
    "cache.lookup_us",
    "gen.lag_p99_ms",
    "sim.issue_ns_per_cycle",
    "sim.arbitrate_ns_per_cycle",
    "sim.scalar_ns_per_cycle",
    "batched.ns_per_lane_cycle",
    "parallel.speedup",
    "parallel.ns_per_task",
    "fabric.ns_per_cycle",
    "fabric.analytic_us",
    "fabric.iterations",
    "analysis.analyze_us",
    "analysis.degraded_us",
    "exact.transform_ms",
    "exact.lumped_ms",
    "exact.pmf_cache_hit_ratio",
    "campaign.masks_per_s",
    "tables.regen_ms",
    "traced.p50_ms",
    "traced.p99_ms",
    "traced.goodput_rps",
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric measured, in the order first put.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Digest of the workload's computed statistics (fixed per seed).
    pub digest: String,
    /// Correctness gates that failed, one message each.
    pub gates: Vec<String>,
}

impl Report {
    /// Sets a metric, replacing an earlier value of the same name.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.metrics.push((name.to_owned(), value, unit)),
        }
    }

    fn get(&self, name: &str) -> Option<&(String, f64, &'static str)> {
        self.metrics.iter().find(|(n, _, _)| n == name)
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.gates.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeChurn,
    Replicate,
    Paper,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("serve-hot", Workload::ServeHot),
        ("serve-churn", Workload::ServeChurn),
        ("replicate", Workload::Replicate),
        ("paper", Workload::Paper),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The traced run. Each workload spends most of the budget on its own
/// layers; the short probes of the other layers follow.
fn traced(args: &Args, t: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let secs = Duration::from_secs(args.seconds);
    let seed = args.seed;
    let probe = Duration::from_secs(1);
    match args.workload {
        Workload::ServeHot | Workload::ServeChurn => {
            let kind = if args.workload == Workload::ServeHot {
                serve::Kind::Hot
            } else {
                serve::Kind::Churn
            };
            serve::traced(kind, seed, secs / 2, t, report, true)?;
            replicate::layers(seed, false, t, report)?;
            paper::layers(seed, false, t, report)
        }
        Workload::Replicate => {
            replicate::traced(seed, secs * 2 / 5, t, report)?;
            replicate::layers(seed, true, t, report)?;
            serve::traced(serve::Kind::Hot, seed, probe, t, report, false)?;
            paper::layers(seed, false, t, report)
        }
        Workload::Paper => {
            paper::traced(seed, secs * 2 / 5, t, report)?;
            paper::layers(seed, true, t, report)?;
            serve::traced(serve::Kind::Hot, seed, probe, t, report, false)?;
            replicate::layers(seed, false, t, report)
        }
    }
}

/// One set-up of `workload` on its own, in seconds: the body of a
/// `--setup-sample` child.
fn setup_sample(workload: Workload, seed: u64) -> Result<f64, String> {
    match workload {
        Workload::ServeHot => serve::setup_sample(serve::Kind::Hot, seed),
        Workload::ServeChurn => serve::setup_sample(serve::Kind::Churn, seed),
        Workload::Replicate => replicate::setup(seed).map(|(_, _, secs)| secs),
        Workload::Paper => paper::setup_sample(seed),
    }
}

/// Set-up times of child processes, run one after another, each timing
/// its own set-up.
fn child_setups(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = seed.to_string();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_CHILD_SETUPS
        || (times.len() < MAX_CHILD_SETUPS && start.elapsed() < SETUP_SAMPLING)
    {
        let out = Command::new(&exe)
            .args([
                "--setup-sample",
                "--workload",
                workload.name(),
                "--seed",
                &seed,
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a set-up sample: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up sample exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        times.push(
            text.trim()
                .parse()
                .map_err(|_| format!("set-up sample printed {text:?}"))?,
        );
    }
    Ok(times)
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn metrics_json(report: &Report, names: &[&str]) -> String {
    let fields: Vec<String> = names
        .iter()
        .filter_map(|name| report.get(name))
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                util::json_str(name),
                util::json_num(*value),
                util::json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn run(args: &Args) -> Result<i32, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    if args.trace {
        traced(args, &mut tracer, &mut report)?;
    } else {
        let own = match args.workload {
            Workload::ServeHot => {
                serve::run(serve::Kind::Hot, args.seed, args.seconds, &mut report)?
            }
            Workload::ServeChurn => {
                serve::run(serve::Kind::Churn, args.seed, args.seconds, &mut report)?
            }
            Workload::Replicate => replicate::run(args.seed, args.seconds, &mut report)?,
            Workload::Paper => paper::run(args.seed, args.seconds, &mut report)?,
        };
        // The children run after the measurement, when the machine has
        // been busy for a while: a shared machine runs the first burst of
        // work after an idle spell up to twice as slow, which would land
        // on set-up samples taken first and not on the measurement.
        let mut setups = child_setups(args.workload, args.seed)?;
        setups.push(own);
        report.put("setup_s", util::median(&setups), "s");
        report.put("setup_samples", setups.len() as f64, "count");
        report.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !report.get(n).is_some_and(|(_, v, _)| v.is_finite()))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }

    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if !report.digest.is_empty() {
        println!(
            "{:<32} {:>16} (digest of computed statistics)",
            "digest", report.digest
        );
    }
    if args.trace {
        println!("\nself time by span (us):");
        for (name, st) in tracer.self_times() {
            println!(
                "  {name:<30} calls {:>8}  total {:>14.1}  self {:>14.1}",
                st.calls, st.total_us, st.self_us
            );
        }
    }
    for gate in &report.gates {
        println!("GATE FAILED: {gate}");
    }

    let header = format!(
        "\"workload\":{},\"trace\":{},\"seconds\":{},{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":{},\"gates\":[{}],\"metrics\":{}",
        util::json_str(args.workload.name()),
        args.trace,
        args.seconds,
        util::stamp_json(args.seed),
        report.correct(),
        report.attempted,
        report.failed,
        util::json_str(&report.digest),
        report.gates.iter().map(|g| util::json_str(g)).collect::<Vec<_>>().join(","),
        metrics_json(&report, &report.metrics.iter().map(|(n, _, _)| n.as_str()).collect::<Vec<_>>())
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result_path = dir.join(format!("{stem}.json"));
    std::fs::write(&result_path, format!("{{{header}}}\n")).map_err(|e| e.to_string())?;
    println!("results: {}", result_path.display());
    if args.trace {
        let spans_path = dir.join(format!("{stem}-spans.json"));
        std::fs::write(&spans_path, tracer.to_json(&header)).map_err(|e| e.to_string())?;
        println!("spans:   {}", spans_path.display());
    }

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics_json(&report, names)
    );
    Ok(if report.correct() { 0 } else { 1 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--setup-sample") {
        let code = match parse_args(&args[1..]).and_then(|a| setup_sample(a.workload, a.seed)) {
            Ok(secs) => {
                println!("{secs}");
                0
            }
            Err(message) => {
                eprintln!("perfbench: set-up sample: {message}");
                2
            }
        };
        std::process::exit(code);
    }
    let code = match parse_args(&args).and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_server::json::{self, Json};

    fn names(doc: &Json, list: &str) -> Vec<String> {
        doc.get(list)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    /// The metric lists printed here must be exactly those the benchmark
    /// definition names, in the same order.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        let workloads = names(&doc, "workloads");
        assert_eq!(workloads, Workload::ALL.map(|(n, _)| n));
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload paper --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Paper, 3, 5, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload paper --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
