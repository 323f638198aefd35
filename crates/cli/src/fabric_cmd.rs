//! The `mbus fabric` subcommand: hierarchical cluster-of-buses
//! evaluation — analytic decomposition, routed simulation, and the
//! depth/branching/locality sweep.

use crate::args::Args;
use mbus_core::fabric::{
    analyze_fabric, FabricAnalysis, FabricReport, FabricSimulator, FabricSpec, FabricTopology,
    LinkKind,
};
use mbus_core::sim::{FaultEvent, FaultEventKind, FaultSchedule, SimConfig};
use std::fmt::Write as _;

/// Parses a comma-separated list such as `--ks 4,4` or `--failed 2,5`.
fn parse_list<T: std::str::FromStr>(raw: &str, key: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{part}'"))
        })
        .collect()
}

/// The fabric experiment requested on the command line.
struct FabricRequest {
    spec: FabricSpec,
    rate: f64,
    cycles: u64,
    warmup: u64,
    seed: u64,
    failed: Vec<usize>,
}

fn request_from(args: &Args) -> Result<FabricRequest, String> {
    let ks = match args.get("ks") {
        Some(raw) => parse_list(raw, "ks")?,
        None => vec![4, 4],
    };
    let cycles = args.get_or("cycles", 20_000u64)?;
    Ok(FabricRequest {
        spec: FabricSpec {
            ks,
            local_buses: args.get_or("buses", 2usize)?,
            uplink_width: args.get_or("uplink", 1usize)?,
            locality: args.get_or("locality", 0.6f64)?,
        },
        rate: args.get_or("rate", 0.5f64)?,
        cycles,
        warmup: args.get_or("warmup", cycles / 10)?,
        seed: args.get_or("seed", 42u64)?,
        failed: match args.get("failed") {
            Some(raw) => parse_list(raw, "failed")?,
            None => Vec::new(),
        },
    })
}

/// Fails every listed link from cycle 0, matching the analytic model's
/// whole-run `failed_links` semantics.
fn schedule_from(failed: &[usize]) -> Result<FaultSchedule, String> {
    FaultSchedule::from_events(
        failed
            .iter()
            .map(|&link| FaultEvent {
                cycle: 0,
                bus: link,
                kind: FaultEventKind::Fail,
            })
            .collect(),
    )
    .map_err(|e| e.to_string())
}

fn sim_config(request: &FabricRequest) -> Result<SimConfig, String> {
    Ok(SimConfig::new(request.cycles)
        .with_warmup(request.warmup)
        .with_seed(request.seed)
        .with_faults(schedule_from(&request.failed)?))
}

fn link_label(kind: LinkKind) -> String {
    match kind {
        LinkKind::Local { leaf } => format!("local({leaf})"),
        LinkKind::Uplink { level, node } => format!("uplink(L{level}.{node})"),
    }
}

/// `mbus fabric` / `mbus fabric --sweep` / `mbus fabric --campaign`.
pub fn fabric(args: &Args) -> Result<(), String> {
    // `--sweep` and `--campaign` are bare flags; a stray value (e.g.
    // `--sweep locality`) would otherwise parse as a non-"true" option
    // and silently fall through to a single run.
    for mode in ["sweep", "campaign"] {
        if let Some(value) = args.get(mode) {
            if value != "true" {
                return Err(format!(
                    "--{mode} takes no value (got '{value}'); the sweep grids \
                     depth x locality from --n/--max-depth/--localities"
                ));
            }
        }
    }
    if args.flag("sweep") {
        return sweep(args);
    }
    if args.flag("campaign") {
        return campaign(args);
    }
    let request = request_from(args)?;
    let (topo, matrix) = request.spec.build().map_err(|e| e.to_string())?;
    let analysis =
        analyze_fabric(&topo, &matrix, request.rate, &request.failed).map_err(|e| e.to_string())?;
    let report = if request.cycles > 0 {
        let mut sim =
            FabricSimulator::build(&topo, &matrix, request.rate).map_err(|e| e.to_string())?;
        let config = sim_config(&request)?;
        Some(match args.get("trace") {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create trace file '{path}': {e}"))?;
                let (report, file) = sim
                    .run_traced(&config, std::io::BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
                file.into_inner()
                    .map_err(|e| format!("flushing trace file: {e}"))?
                    .sync_all()
                    .map_err(|e| e.to_string())?;
                report
            }
            None => sim.run(&config).map_err(|e| e.to_string())?,
        })
    } else {
        None
    };
    if args.flag("json") {
        print!(
            "{}",
            render_json(&request, &topo, &analysis, report.as_ref())
        );
    } else {
        print!(
            "{}",
            render_markdown(&request, &topo, &analysis, report.as_ref())
        );
    }
    Ok(())
}

fn shape_string(ks: &[usize]) -> String {
    ks.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn render_markdown(
    request: &FabricRequest,
    topo: &mbus_core::fabric::ClusteredBuses,
    analysis: &FabricAnalysis,
    report: Option<&FabricReport>,
) -> String {
    let mut out = String::new();
    let links = topo.links();
    let uplinks = links
        .iter()
        .filter(|link| matches!(link.kind, LinkKind::Uplink { .. }))
        .count();
    let _ = writeln!(out, "# Fabric evaluation\n");
    let _ = writeln!(
        out,
        "shape {} (N = M = {}), {} leaves, {} local buses/leaf, uplink width {}, \
         locality {:.2}, rate {:.3}",
        shape_string(&request.spec.ks),
        topo.processors(),
        topo.leaves(),
        topo.local_buses(),
        topo.uplink_width(),
        request.spec.locality,
        request.rate,
    );
    let failed: Vec<String> = request.failed.iter().map(usize::to_string).collect();
    let _ = writeln!(
        out,
        "links: {} ({} local + {} uplink), failed: {{{}}}\n",
        links.len(),
        topo.leaves(),
        uplinks,
        failed.join(","),
    );
    let _ = writeln!(out, "## Analytic decomposition\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| bandwidth (req/cycle) | {:.4} |", analysis.bandwidth);
    let _ = writeln!(out, "| offered load | {:.4} |", analysis.offered_load);
    let _ = writeln!(
        out,
        "| acceptance probability | {:.4} |",
        analysis.acceptance
    );
    let _ = writeln!(
        out,
        "| unreachable rate | {:.4} |",
        analysis.unreachable_rate
    );
    let _ = writeln!(
        out,
        "| mean hops per delivery | {:.3} |",
        analysis.mean_hops
    );
    let _ = writeln!(out, "| fixed-point iterations | {} |", analysis.iterations);
    let _ = writeln!(
        out,
        "\n| link | offered | carried | acceptance | utilization |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (id, load) in analysis.links.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} |",
            link_label(links[id].kind),
            load.offered,
            load.carried,
            load.acceptance,
            load.utilization,
        );
    }
    let clusters: Vec<String> = analysis
        .cluster_bandwidth
        .iter()
        .map(|bw| format!("{bw:.4}"))
        .collect();
    let _ = writeln!(out, "\nper-cluster bandwidth: [{}]", clusters.join(", "));
    if let Some(report) = report {
        let _ = writeln!(
            out,
            "\n## Simulation ({} cycles, warmup {}, seed {})\n",
            report.cycles, report.warmup, request.seed
        );
        let _ = writeln!(out, "| metric | analytic | simulated | gap |");
        let _ = writeln!(out, "|---|---|---|---|");
        let sim_bw = report.bandwidth.mean();
        let _ = writeln!(
            out,
            "| bandwidth | {:.4} | {:.4} ± {:.4} | {:+.4} |",
            analysis.bandwidth,
            sim_bw,
            report.bandwidth.half_width(),
            analysis.bandwidth - sim_bw,
        );
        let _ = writeln!(
            out,
            "| acceptance | {:.4} | {:.4} | {:+.4} |",
            analysis.acceptance,
            report.acceptance,
            analysis.acceptance - report.acceptance,
        );
        let _ = writeln!(
            out,
            "| mean hops | {:.3} | {:.3} | {:+.3} |",
            analysis.mean_hops,
            report.mean_hops,
            analysis.mean_hops - report.mean_hops,
        );
        if !report.link_utilization.is_empty() {
            let _ = writeln!(
                out,
                "\n| link | util (sim) | util (analytic) | carried | blocked | alive cycles |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
            for (id, link) in links.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "| {} | {:.4} | {:.4} | {} | {} | {} |",
                    link_label(link.kind),
                    report.link_utilization[id],
                    analysis.links[id].utilization,
                    report.link_carried[id],
                    report.link_blocked[id],
                    report.link_alive_cycles[id],
                );
            }
        }
    }
    out
}

fn render_json(
    request: &FabricRequest,
    topo: &mbus_core::fabric::ClusteredBuses,
    analysis: &FabricAnalysis,
    report: Option<&FabricReport>,
) -> String {
    let mut out = String::new();
    let ks: Vec<String> = request.spec.ks.iter().map(usize::to_string).collect();
    let failed: Vec<String> = request.failed.iter().map(usize::to_string).collect();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"spec\": {{\"ks\": [{}], \"local_buses\": {}, \"uplink_width\": {}, \
         \"locality\": {}, \"rate\": {}, \"processors\": {}, \"links\": {}, \
         \"failed_links\": [{}]}},",
        ks.join(", "),
        request.spec.local_buses,
        request.spec.uplink_width,
        request.spec.locality,
        request.rate,
        topo.processors(),
        topo.links().len(),
        failed.join(", "),
    );
    let _ = writeln!(out, "  \"analytic\": {{");
    let _ = writeln!(out, "    \"bandwidth\": {:.6},", analysis.bandwidth);
    let _ = writeln!(out, "    \"offered_load\": {:.6},", analysis.offered_load);
    let _ = writeln!(out, "    \"acceptance\": {:.6},", analysis.acceptance);
    let _ = writeln!(
        out,
        "    \"unreachable_rate\": {:.6},",
        analysis.unreachable_rate
    );
    let _ = writeln!(out, "    \"mean_hops\": {:.6},", analysis.mean_hops);
    let _ = writeln!(out, "    \"iterations\": {},", analysis.iterations);
    let link_utils: Vec<String> = analysis
        .links
        .iter()
        .map(|load| format!("{:.6}", load.utilization))
        .collect();
    let _ = writeln!(out, "    \"link_utilization\": [{}]", link_utils.join(", "));
    let _ = write!(out, "  }}");
    if let Some(report) = report {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"simulated\": {{");
        let _ = writeln!(out, "    \"cycles\": {},", report.cycles);
        let _ = writeln!(out, "    \"seed\": {},", request.seed);
        let _ = writeln!(out, "    \"bandwidth\": {:.6},", report.bandwidth.mean());
        let _ = writeln!(
            out,
            "    \"bandwidth_half_width\": {:.6},",
            report.bandwidth.half_width()
        );
        let _ = writeln!(out, "    \"acceptance\": {:.6},", report.acceptance);
        let _ = writeln!(out, "    \"mean_hops\": {:.6},", report.mean_hops);
        let utils: Vec<String> = report
            .link_utilization
            .iter()
            .map(|u| format!("{u:.6}"))
            .collect();
        let _ = writeln!(out, "    \"link_utilization\": [{}],", utils.join(", "));
        let _ = writeln!(
            out,
            "    \"analytic_gap\": {:.6}",
            analysis.bandwidth - report.bandwidth.mean()
        );
        let _ = writeln!(out, "  }}");
    } else {
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "}}");
    out
}

/// `mbus fabric --campaign`: degraded-mode uplink-failure sweep — analytic
/// bandwidth over every (or a sample of every) f-uplink failure combo,
/// availability-weighted expectation, and the per-cluster decay table.
fn campaign(args: &Args) -> Result<(), String> {
    let request = request_from(args)?;
    if !request.failed.is_empty() {
        return Err("--failed conflicts with --campaign (the campaign sweeps failures)".into());
    }
    let (topo, matrix) = request.spec.build().map_err(|e| e.to_string())?;
    let config = mbus_core::campaign::CampaignConfig {
        max_failures: match args.get("max-failures") {
            Some(raw) => Some(
                raw.parse()
                    .map_err(|_| format!("--max-failures: cannot parse '{raw}'"))?,
            ),
            None => None,
        },
        exhaustive_limit: args.get_or("limit", 5_000u128)?,
        samples: args.get_or("samples", 512usize)?,
        seed: request.seed,
        bus_failure_prob: args.get_or("q", 0.05f64)?,
        ..mbus_core::campaign::CampaignConfig::default()
    };
    let report = mbus_core::campaign::run_fabric_campaign(&topo, &matrix, request.rate, &config)
        .map_err(|e| e.to_string())?;
    if args.flag("json") {
        print!("{}", mbus_core::campaign::render_fabric_json(&report));
    } else {
        print!("{}", mbus_core::campaign::render_fabric_markdown(&report));
    }
    Ok(())
}

/// Splits `n` into `parts` factors, each at least 2, as balanced as the
/// divisor structure of `n` allows (used to derive the sweep's deeper
/// shapes from `--n`). Returns `None` when no such factorization exists.
fn balanced_factors(n: usize, parts: usize) -> Option<Vec<usize>> {
    if parts == 1 {
        return (n >= 2).then(|| vec![n]);
    }
    let target = (n as f64).powf(1.0 / parts as f64).round() as usize;
    let mut candidates: Vec<usize> = (2..=n).filter(|d| n % d == 0).collect();
    // Ties around the target break toward the larger divisor so shapes
    // come out non-increasing ([4, 2, 2], not [2, 2, 4]), matching the
    // branching-vector convention used everywhere else.
    candidates.sort_by_key(|&d| (d.abs_diff(target), std::cmp::Reverse(d)));
    for head in candidates {
        if let Some(mut rest) = balanced_factors(n / head, parts - 1) {
            let mut shape = vec![head];
            shape.append(&mut rest);
            return Some(shape);
        }
    }
    None
}

/// `mbus fabric --sweep`: analytic-vs-simulated bandwidth over a grid of
/// tree depths (derived from `--n`) and locality values.
fn sweep(args: &Args) -> Result<(), String> {
    let n = args.get_or("n", 16usize)?;
    let rate = args.get_or("rate", 0.5f64)?;
    let cycles = args.get_or("cycles", 10_000u64)?;
    let seed = args.get_or("seed", 42u64)?;
    let local_buses = args.get_or("buses", 2usize)?;
    let uplink_width = args.get_or("uplink", 1usize)?;
    let localities: Vec<f64> = match args.get("localities") {
        Some(raw) => parse_list(raw, "localities")?,
        None => vec![0.9, 0.6, 0.3, 0.0],
    };
    let max_depth = args.get_or("max-depth", 3usize)?;
    let shapes: Vec<Vec<usize>> = (1..=max_depth)
        .filter_map(|depth| balanced_factors(n, depth))
        .collect();
    if shapes.is_empty() {
        return Err(format!("--n {n}: no factorization into clusters"));
    }
    let json = args.flag("json");
    if json {
        println!("[");
    } else {
        println!("| shape | locality | analytic | simulated | ±CI | gap | mean hops |");
        println!("|---|---|---|---|---|---|---|");
    }
    let points = shapes.len() * localities.len();
    let mut emitted = 0usize;
    for shape in &shapes {
        for &locality in &localities {
            let spec = FabricSpec {
                ks: shape.clone(),
                local_buses,
                uplink_width,
                locality,
            };
            let (topo, matrix) = spec.build().map_err(|e| e.to_string())?;
            let analysis = analyze_fabric(&topo, &matrix, rate, &[]).map_err(|e| e.to_string())?;
            let mut sim =
                FabricSimulator::build(&topo, &matrix, rate).map_err(|e| e.to_string())?;
            let config = SimConfig::new(cycles)
                .with_warmup(cycles / 10)
                .with_seed(seed);
            let report = sim.run(&config).map_err(|e| e.to_string())?;
            let sim_bw = report.bandwidth.mean();
            emitted += 1;
            if json {
                println!(
                    "  {{\"shape\": \"{}\", \"locality\": {:.2}, \"analytic\": {:.6}, \
                     \"simulated\": {:.6}, \"half_width\": {:.6}, \"gap\": {:.6}, \
                     \"mean_hops\": {:.6}}}{}",
                    shape_string(shape),
                    locality,
                    analysis.bandwidth,
                    sim_bw,
                    report.bandwidth.half_width(),
                    analysis.bandwidth - sim_bw,
                    report.mean_hops,
                    if emitted == points { "" } else { "," },
                );
            } else {
                println!(
                    "| {} | {:.2} | {:.4} | {:.4} | {:.4} | {:+.4} | {:.3} |",
                    shape_string(shape),
                    locality,
                    analysis.bandwidth,
                    sim_bw,
                    report.bandwidth.half_width(),
                    analysis.bandwidth - sim_bw,
                    report.mean_hops,
                );
            }
        }
    }
    if json {
        println!("]");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_factors_cover_the_depths() {
        assert_eq!(balanced_factors(16, 1), Some(vec![16]));
        assert_eq!(balanced_factors(16, 2), Some(vec![4, 4]));
        assert_eq!(balanced_factors(16, 3), Some(vec![4, 2, 2]));
        assert_eq!(balanced_factors(64, 3), Some(vec![4, 4, 4]));
        assert_eq!(balanced_factors(7, 2), None);
        assert_eq!(balanced_factors(1, 1), None);
    }

    #[test]
    fn parse_list_handles_spaces_and_rejects_garbage() {
        assert_eq!(parse_list::<usize>("4, 2,2", "ks").unwrap(), vec![4, 2, 2]);
        assert!(parse_list::<usize>("4,x", "ks").is_err());
    }
}
