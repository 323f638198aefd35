//! `mbus serve` and `mbus loadgen` — the serving layer's CLI face.
//!
//! `serve` binds the [`mbus_server::Server`] on a TCP address and runs it
//! until SIGTERM/SIGINT (graceful drain: accepted connections finish, the
//! cache and metrics are reported on the way out). `loadgen` drives a
//! running server with the deterministic mixed-endpoint grid from
//! [`mbus_server::loadgen`] and writes `BENCH_server.json`, the serving
//! counterpart of `mbus bench`'s `BENCH_sim.json`.

use crate::args::Args;
use mbus_server::server::{Server, ServerConfig};
use mbus_server::service::ServiceLimits;
use mbus_core::stats::parallel::available_workers;
use mbus_server::{loadgen, signal};

/// Builds the [`ServerConfig`] of `mbus serve` from `--addr --workers
/// --cache-cap --queue-cap --max-cycles`.
fn serve_config_from(args: &Args) -> Result<ServerConfig, String> {
    let config = ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7700".to_owned())?,
        workers: args.threads_or("workers", available_workers())?,
        cache_capacity: args.get_or("cache-cap", 256usize)?,
        queue_capacity: args.get_or("queue-cap", 64usize)?,
        service_limits: ServiceLimits {
            max_cycles: args.get_or("max-cycles", ServiceLimits::default().max_cycles)?,
            ..ServiceLimits::default()
        },
        ..ServerConfig::default()
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    Ok(config)
}

/// `mbus serve`.
pub fn serve(args: &Args) -> Result<(), String> {
    let config = serve_config_from(args)?;
    let server = Server::bind(config.clone()).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve local address: {e}"))?;
    let handle = server.handle();

    println!(
        "mbus serve: listening on {addr} ({} workers, queue {}, cache {} entries)",
        config.workers, config.queue_capacity, config.cache_capacity
    );
    println!("endpoints: POST /v1/{{bandwidth,exact,simulate,degraded,fabric}}, GET /metrics");
    if signal::install() {
        println!("stop with SIGTERM or ctrl-c (graceful drain)");
    } else {
        println!("note: no signal handler on this platform; stop by killing the process");
    }

    server
        .run_until(signal::requested)
        .map_err(|e| format!("server failed: {e}"))?;

    let stats = handle.cache_stats();
    println!(
        "mbus serve: drained and stopped — {} responses ({} shed, {} 5xx), cache {:.1}% hit rate ({} entries)",
        handle.responses(),
        handle.shed(),
        handle.server_errors(),
        stats.hit_rate() * 100.0,
        stats.len
    );
    Ok(())
}

/// Builds the [`loadgen::LoadgenConfig`] of `mbus loadgen` from `--addr
/// --concurrency --requests --passes`.
fn loadgen_config_from(args: &Args) -> Result<loadgen::LoadgenConfig, String> {
    Ok(loadgen::LoadgenConfig {
        addr: args.get_or("addr", "127.0.0.1:7700".to_owned())?,
        concurrency: args.threads_or("concurrency", 4)?,
        requests: args.get_or("requests", 256usize)?,
        passes: args.get_or("passes", 2usize)?,
    })
}

/// `mbus loadgen`.
pub fn loadgen_cmd(args: &Args) -> Result<(), String> {
    let config = loadgen_config_from(args)?;
    let out = args.get_or("out", "BENCH_server.json".to_owned())?;

    println!(
        "loadgen: {} requests x {} passes at concurrency {} against {}",
        config.requests, config.passes, config.concurrency, config.addr
    );
    let report = loadgen::run(&config)?;

    for (i, pass) in report.passes.iter().enumerate() {
        let label = if i == 0 { "cold" } else { "warm" };
        println!(
            "  pass {i} ({label}): {:>8.1} req/sec, {:>4} ok / {:>3} shed / {:>3} err / {:>3} transport, \
             {:>4} cache hits, mean {:>8.0} us, p95 {:>8} us",
            pass.throughput(),
            pass.ok,
            pass.shed,
            pass.errors,
            pass.transport_errors,
            pass.cache_hits,
            pass.latency_us.mean(),
            pass.latency_us
                .quantile(0.95)
                .map(|q| q.to_string())
                .unwrap_or_else(|| "-".to_owned()),
        );
    }
    match report.cache_speedup() {
        Some(speedup) => println!("  cache-hit speedup: {speedup:.2}x (cold/warm mean latency)"),
        None => println!("  cache-hit speedup: not measurable (need two passes with answered requests)"),
    }
    if report.hard_failures() > 0 {
        println!(
            "  WARNING: {} hard failures (non-shed errors + transport)",
            report.hard_failures()
        );
    }

    std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");

    if report.passes.iter().all(|p| p.ok == 0) {
        return Err(format!(
            "no request succeeded — is a server running at {}? (start one with 'mbus serve')",
            config.addr
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    // Only the parse-and-reject path runs here: no server is bound and no
    // thread is started.

    #[test]
    fn serve_workers_are_bounded() {
        let err = serve_config_from(&args("serve --workers 257")).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = serve_config_from(&args("serve --workers 0")).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let config = serve_config_from(&args("serve --workers 1")).unwrap();
        assert_eq!(config.workers, 1);
    }

    #[test]
    fn loadgen_concurrency_is_bounded() {
        let err = loadgen_config_from(&args("loadgen --concurrency 257")).unwrap_err();
        assert!(err.contains("--concurrency"), "{err}");
        for concurrency in [0, 1] {
            let config =
                loadgen_config_from(&args(&format!("loadgen --concurrency {concurrency}")));
            assert_eq!(config.unwrap().concurrency, concurrency);
        }
    }
}
