//! Closed-loop load generator for `mbus serve`.
//!
//! Drives a running server with a deterministic grid of mixed-endpoint
//! queries from `concurrency` client threads (via
//! [`mbus_stats::parallel::parallel_map_dynamic`], the same worker pool
//! the engines use — request latencies vary by endpoint and cache state,
//! so a client that finishes early claims the next request instead of
//! waiting out the slowest). Each client issues its requests
//! back-to-back — a closed loop, so offered load adapts to service rate
//! instead of overrunning it.
//!
//! The grid is deterministic and repeats across passes: pass 1 populates
//! the server's memoization cache (cold), pass 2 re-issues the identical
//! queries (warm), and [`LoadReport::cache_speedup`] reports the
//! cold/warm latency ratio — the measurable cache-hit speedup recorded in
//! `BENCH_server.json`.

use crate::json::{obj, Json};
use crate::metrics::MAX_LATENCY_US;
use crate::service::Endpoint;
use mbus_stats::parallel::parallel_map_dynamic;
use mbus_stats::Histogram;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7700`.
    pub addr: String,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Requests per pass.
    pub requests: usize,
    /// Passes over the identical query grid (≥ 2 measures cache warmth).
    pub passes: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7700".to_owned(),
            concurrency: 4,
            requests: 256,
            passes: 2,
        }
    }
}

/// Outcome of a single request.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// HTTP response received: status, whether the envelope said `cached`,
    /// and the request latency.
    Answered {
        status: u16,
        cached: bool,
        latency: Duration,
    },
    /// The transport failed before a response arrived.
    Transport,
}

/// Aggregated results of one pass over the query grid.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Requests issued.
    pub requests: usize,
    /// 200 responses.
    pub ok: usize,
    /// 429 (shed) responses.
    pub shed: usize,
    /// Other 4xx/5xx responses.
    pub errors: usize,
    /// Requests with no HTTP response at all.
    pub transport_errors: usize,
    /// Responses whose envelope reported a cache hit.
    pub cache_hits: usize,
    /// Wall-clock seconds for the pass.
    pub seconds: f64,
    /// Latency distribution in microseconds. Samples beyond
    /// [`MAX_LATENCY_US`] are excluded (counted in
    /// [`PassReport::latency_saturated`] instead), mirroring the server's
    /// own metrics: a clamped sample must not masquerade as a quantile.
    pub latency_us: Histogram,
    /// Responses whose latency saturated the one-second bound.
    pub latency_saturated: usize,
}

impl PassReport {
    /// Requests per second over the pass.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Results of a full load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// One report per pass, in order (pass 0 is cold).
    pub passes: Vec<PassReport>,
}

impl LoadReport {
    /// Cold/warm mean-latency ratio: pass 0 over the *median* of all later
    /// passes. `None` until two passes have answered requests.
    ///
    /// The median — not the best — warm pass: a single lucky warm pass
    /// (scheduler tailwind, page-cache hit) would otherwise inflate the
    /// reported speedup, and with one cold and one warm pass the old
    /// one-over-one ratio was pure noise. With an even number of warm
    /// passes the two middle means are averaged.
    pub fn cache_speedup(&self) -> Option<f64> {
        let cold = self.passes.first()?;
        let mut warm: Vec<f64> = self
            .passes
            .get(1..)?
            .iter()
            .map(|p| p.latency_us.mean())
            .filter(|mean| *mean > 0.0)
            .collect();
        if warm.is_empty() {
            return None;
        }
        warm.sort_by(f64::total_cmp);
        let mid = warm.len() / 2;
        let median = if warm.len() % 2 == 1 {
            warm[mid]
        } else {
            (warm[mid - 1] + warm[mid]) / 2.0
        };
        let c = cold.latency_us.mean();
        if c > 0.0 {
            Some(c / median)
        } else {
            None
        }
    }

    /// Passes counted as warm by [`LoadReport::cache_speedup`] (later
    /// passes with at least one measured latency).
    pub fn warm_passes(&self) -> usize {
        self.passes
            .get(1..)
            .map(|rest| rest.iter().filter(|p| p.latency_us.mean() > 0.0).count())
            .unwrap_or(0)
    }

    /// Total 5xx + transport failures across all passes (the "zero 5xx
    /// under capacity" acceptance number).
    pub fn hard_failures(&self) -> usize {
        self.passes
            .iter()
            .map(|p| p.errors + p.transport_errors)
            .sum()
    }

    /// Renders the run as a JSON document (for `BENCH_server.json`).
    pub fn to_json(&self) -> String {
        let passes: Vec<Json> = self
            .passes
            .iter()
            .map(|p| {
                let q = |x: f64| {
                    p.latency_us
                        .quantile(x)
                        .map(|v| Json::Num(v as f64))
                        .unwrap_or(Json::Null)
                };
                obj(vec![
                    ("requests", Json::Num(p.requests as f64)),
                    ("ok", Json::Num(p.ok as f64)),
                    ("shed", Json::Num(p.shed as f64)),
                    ("errors", Json::Num(p.errors as f64)),
                    ("transport_errors", Json::Num(p.transport_errors as f64)),
                    ("cache_hits", Json::Num(p.cache_hits as f64)),
                    ("seconds", Json::Num(p.seconds)),
                    ("requests_per_second", Json::Num(p.throughput())),
                    ("latency_us_mean", Json::Num(p.latency_us.mean())),
                    ("latency_us_p50", q(0.5)),
                    ("latency_us_p95", q(0.95)),
                    ("latency_us_p99", q(0.99)),
                    ("latency_saturated", Json::Num(p.latency_saturated as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("passes", Json::Arr(passes)),
            (
                "cold_passes",
                Json::Num(f64::from(u8::from(!self.passes.is_empty()))),
            ),
            ("warm_passes", Json::Num(self.warm_passes() as f64)),
            (
                "cache_hit_speedup",
                self.cache_speedup().map(Json::Num).unwrap_or(Json::Null),
            ),
        ])
        .render()
    }
}

/// The deterministic query grid: request `i` of any pass always carries
/// the same body to the same endpoint, so later passes re-hit the same
/// cache keys. Mixes every endpoint over 8 parameter variants (two
/// network sizes × four request rates) — 40 distinct cache keys, so a
/// short first pass is genuinely cold.
pub fn grid_request(i: usize) -> (Endpoint, String) {
    let endpoint = Endpoint::ALL[i % Endpoint::ALL.len()];
    let variant = (i / Endpoint::ALL.len()) % 8;
    let n = [8.0, 16.0][variant / 4];
    let rate = [1.0, 0.75, 0.5, 0.25][variant % 4];
    if endpoint == Endpoint::Fabric {
        // Fabric speaks its own key set (a cluster tree, not n x m x b);
        // mirror the two network sizes as leaf counts.
        let fields = vec![
            ("ks", Json::Arr(vec![Json::Num(n / 4.0), Json::Num(4.0)])),
            ("rate", Json::Num(rate)),
            ("cycles", Json::Num(4_000.0)),
            ("seed", Json::Num(7.0)),
        ];
        return (endpoint, obj(fields).render());
    }
    let mut fields = vec![
        ("n", Json::Num(n)),
        ("b", Json::Num(4.0)),
        ("rate", Json::Num(rate)),
    ];
    match endpoint {
        Endpoint::Simulate => {
            fields.push(("cycles", Json::Num(20_000.0)));
            fields.push(("warmup", Json::Num(1_000.0)));
            fields.push(("seed", Json::Num(7.0)));
        }
        Endpoint::Degraded => {
            fields.push((
                "failed_buses",
                Json::Arr(vec![Json::Num((variant % 4) as f64)]),
            ));
        }
        Endpoint::Bandwidth | Endpoint::Exact | Endpoint::Fabric => {}
    }
    (endpoint, obj(fields).render())
}

/// Issues one request and reads the full response (the server closes the
/// connection after answering).
fn issue(addr: &str, endpoint: Endpoint, body: &str) -> Outcome {
    let start = Instant::now();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Outcome::Transport;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let request = format!(
        "POST /v1/{} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        endpoint.name(),
        addr,
        body.len(),
        body
    );
    if stream.write_all(request.as_bytes()).is_err() {
        return Outcome::Transport;
    }
    let mut response = Vec::new();
    if stream.read_to_end(&mut response).is_err() {
        return Outcome::Transport;
    }
    let latency = start.elapsed();
    let text = String::from_utf8_lossy(&response);
    let Some(status) = parse_status(&text) else {
        return Outcome::Transport;
    };
    let cached = text.contains("\"cached\":true");
    Outcome::Answered {
        status,
        cached,
        latency,
    }
}

/// Extracts the status code from an `HTTP/1.1 NNN …` status line.
fn parse_status(response: &str) -> Option<u16> {
    let rest = response.strip_prefix("HTTP/1.1 ")?;
    rest.get(..3)?.parse().ok()
}

/// Runs `config.passes` passes of the deterministic grid against the
/// server at `config.addr`.
///
/// # Errors
///
/// Returns a message when the configuration is degenerate (zero requests
/// or passes). Per-request transport failures are *not* errors — they are
/// counted in the report.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, String> {
    if config.requests == 0 || config.passes == 0 {
        return Err("loadgen needs at least one request and one pass".to_owned());
    }
    let mut passes = Vec::with_capacity(config.passes);
    for _ in 0..config.passes {
        let indices: Vec<usize> = (0..config.requests).collect();
        let addr = config.addr.clone();
        let start = Instant::now();
        let outcomes = parallel_map_dynamic(indices, config.concurrency.max(1), move |i| {
            let (endpoint, body) = grid_request(i);
            issue(&addr, endpoint, &body)
        });
        let seconds = start.elapsed().as_secs_f64();
        let mut report = PassReport {
            requests: outcomes.len(),
            ok: 0,
            shed: 0,
            errors: 0,
            transport_errors: 0,
            cache_hits: 0,
            seconds,
            latency_us: Histogram::new(),
            latency_saturated: 0,
        };
        for outcome in outcomes {
            match outcome {
                Outcome::Answered {
                    status,
                    cached,
                    latency,
                } => {
                    match status {
                        200 => report.ok += 1,
                        429 => report.shed += 1,
                        _ => report.errors += 1,
                    }
                    if cached {
                        report.cache_hits += 1;
                    }
                    let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
                    if us > MAX_LATENCY_US {
                        report.latency_saturated += 1;
                    } else {
                        report.latency_us.record(us as usize);
                    }
                }
                Outcome::Transport => report.transport_errors += 1,
            }
        }
        passes.push(report);
    }
    Ok(LoadReport { passes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_mixed() {
        let (e0, b0) = grid_request(0);
        let (e0b, b0b) = grid_request(0);
        assert_eq!((e0, b0.clone()), (e0b, b0b));
        assert_eq!(e0, Endpoint::Bandwidth);
        assert_eq!(grid_request(1).0, Endpoint::Exact);
        assert_eq!(grid_request(2).0, Endpoint::Simulate);
        assert_eq!(grid_request(3).0, Endpoint::Degraded);
        assert_eq!(grid_request(4).0, Endpoint::Fabric);
        // Variants change the rate then the size, repeating with period 40.
        assert_ne!(grid_request(0).1, grid_request(5).1);
        assert_ne!(grid_request(0).1, grid_request(20).1, "n differs");
        assert_eq!(grid_request(0).1, grid_request(40).1);
        // Every body parses and targets known fields.
        for i in 0..40 {
            let (_endpoint, body) = grid_request(i);
            assert!(crate::json::parse(&body).is_ok(), "grid body {i} parses");
        }
    }

    #[test]
    fn status_line_parsing() {
        assert_eq!(parse_status("HTTP/1.1 200 OK\r\n"), Some(200));
        assert_eq!(
            parse_status("HTTP/1.1 429 Too Many Requests\r\n"),
            Some(429)
        );
        assert_eq!(parse_status("garbage"), None);
        assert_eq!(parse_status("HTTP/1.1 xx"), None);
    }

    #[test]
    fn speedup_needs_two_measured_passes() {
        let mut h_cold = Histogram::new();
        h_cold.record(1000);
        let mut h_warm = Histogram::new();
        h_warm.record(100);
        let pass = |h: Histogram, seconds: f64| PassReport {
            requests: 1,
            ok: 1,
            shed: 0,
            errors: 0,
            transport_errors: 0,
            cache_hits: 0,
            seconds,
            latency_us: h,
            latency_saturated: 0,
        };
        let single = LoadReport {
            passes: vec![pass(h_cold.clone(), 1.0)],
        };
        assert_eq!(single.cache_speedup(), None);
        let both = LoadReport {
            passes: vec![pass(h_cold, 1.0), pass(h_warm, 0.1)],
        };
        assert!((both.cache_speedup().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(both.hard_failures(), 0);
        assert_eq!(both.warm_passes(), 1);
        let rendered = both.to_json();
        assert!(crate::json::parse(&rendered).is_ok());
        assert!(rendered.contains("\"cache_hit_speedup\":10"));
        assert!(rendered.contains("\"cold_passes\":1"));
        assert!(rendered.contains("\"warm_passes\":1"));
        assert!(rendered.contains("\"latency_saturated\":0"));
    }

    #[test]
    fn speedup_uses_the_median_warm_pass() {
        let sample = |us: usize| {
            let mut h = Histogram::new();
            h.record(us);
            h
        };
        let pass = |h: Histogram| PassReport {
            requests: 1,
            ok: 1,
            shed: 0,
            errors: 0,
            transport_errors: 0,
            cache_hits: 0,
            seconds: 1.0,
            latency_us: h,
            latency_saturated: 0,
        };
        // Warm means 100 / 200 / 400: the best pass would claim 10×, the
        // median claims 5×.
        let report = LoadReport {
            passes: vec![
                pass(sample(1000)),
                pass(sample(400)),
                pass(sample(100)),
                pass(sample(200)),
            ],
        };
        assert!((report.cache_speedup().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(report.warm_passes(), 3);
        // Even warm-pass count: middle two (100, 200) average to 150.
        let report = LoadReport {
            passes: vec![pass(sample(1500)), pass(sample(100)), pass(sample(200))],
        };
        assert!((report.cache_speedup().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_samples_stay_out_of_pass_quantiles() {
        let mut h = Histogram::new();
        h.record(500);
        let report = LoadReport {
            passes: vec![PassReport {
                requests: 2,
                ok: 2,
                shed: 0,
                errors: 0,
                transport_errors: 0,
                cache_hits: 0,
                seconds: 2.0,
                latency_us: h,
                latency_saturated: 1,
            }],
        };
        let rendered = report.to_json();
        assert!(crate::json::parse(&rendered).is_ok());
        assert!(rendered.contains("\"latency_saturated\":1"));
        assert!(rendered.contains("\"latency_us_p99\":500"));
    }
}
