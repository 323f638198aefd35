//! The `serve-hot` and `serve-churn` workloads: an in-process server with
//! its default configuration, driven by the open-loop generator.
//!
//! * `serve-hot` draws uniformly from 40 mixed-endpoint keys, all warmed
//!   during set-up, so every request is a cache hit: the time goes to
//!   accept, queueing, HTTP framing, parsing, keying and writing.
//! * `serve-churn` draws Zipf-ranked keys from a space five times the
//!   default cache capacity, leaning toward the simulate, exact and fabric
//!   endpoints, and re-ranks the keys at every phase, so evaluation
//!   dominates and the cache must take in new keys as the hot set moves.
//!
//! Every 200 response's `result` must be byte-equal to
//! `service::evaluate(&query).render()` for its key. The clients keep each
//! result's length and digest; the expected results are computed in this
//! process after the live run, so the server's process-global engine
//! caches start as cold as a fresh server's would.

use crate::gen::{self, Arrival, Outcome, ScheduleSpec};
use crate::span::Tracer;
use crate::util::{self, median, quantile, Digest, Rng};
use crate::Report;
use mbus_core::stats::cache::MemoCache;
use mbus_server::http::{self, Response};
use mbus_server::service::{self, Endpoint, QueryKey, ServiceLimits};
use mbus_server::{Server, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

/// Offered load of `serve-hot`, requests per second: below what two
/// blocking clients sustain at the seed, so the backlog stays bounded.
const HOT_RATE: f64 = 200.0;
/// Offered load of `serve-churn`, requests per second.
const CHURN_RATE: f64 = 120.0;
/// Latency limits a request must meet to count toward goodput.
const HOT_LIMIT: Duration = Duration::from_millis(50);
const CHURN_LIMIT: Duration = Duration::from_millis(250);
/// Keys per endpoint in the hot set (5 endpoints, far below the cache).
const HOT_KEYS_PER_ENDPOINT: usize = 8;
/// Churn key space as a multiple of the default cache capacity.
const CHURN_SPACE_FACTOR: usize = 5;
/// Churn keys warmed during set-up: the top of the first phase.
const CHURN_WARM: usize = 64;
/// Simulated processor-cycles per simulate / fabric key: the simulated
/// cycle count is this over the processor count, so keys cost about the
/// same (one to two milliseconds) and the latency tail does not hinge on which
/// few heavy keys a seed happens to make popular.
const SIM_PROCESSOR_CYCLES: u64 = 32_000;
const FABRIC_PROCESSOR_CYCLES: u64 = 24_000;
/// The server's cache shard count (a private constant of the server),
/// needed to give the traced run's replica cache the same geometry. The
/// traced run fails a gate if the replica and the server disagree.
const SERVER_CACHE_SHARDS: usize = 4;

/// One distinct query: an endpoint and a JSON body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    pub endpoint: Endpoint,
    pub body: String,
}

impl Key {
    pub fn path(&self) -> String {
        format!("/v1/{}", self.endpoint.name())
    }
}

pub fn churn_key_count() -> usize {
    CHURN_SPACE_FACTOR * ServerConfig::default().cache_capacity
}

pub fn spec(kind: Kind, duration: Duration) -> ScheduleSpec {
    match kind {
        Kind::Hot => ScheduleSpec {
            rate: HOT_RATE,
            duration,
            keys: HOT_KEYS_PER_ENDPOINT * Endpoint::ALL.len(),
            phases: 2,
            zipf: 0.0,
        },
        Kind::Churn => ScheduleSpec {
            rate: CHURN_RATE,
            duration,
            keys: churn_key_count(),
            phases: 4,
            zipf: 0.8,
        },
    }
}

fn flat_body(rng: &mut Rng, endpoint: Endpoint) -> String {
    // The hierarchical workload needs four clusters of at least two.
    let n = rng.pick(&[8usize, 12, 16]);
    let scheme = rng.pick(&["full", "single", "partial", "kclass", "crossbar"]);
    let b = match scheme {
        "partial" | "kclass" => rng.pick(&[2usize, 4]),
        _ => rng.pick(&[2usize, 3, 4]),
    };
    let workload = match rng.below(3) {
        0 => "\"workload\":\"hier\"".to_owned(),
        1 => "\"workload\":\"uniform\"".to_owned(),
        _ => format!(
            "\"workload\":\"favorite\",\"alpha\":{}",
            rng.decimal(0.2, 0.9, 2)
        ),
    };
    let rate = rng.decimal(0.2, 1.0, 3);
    let mut body =
        format!("{{\"n\":{n},\"b\":{b},\"scheme\":\"{scheme}\",{workload},\"rate\":{rate}");
    match endpoint {
        Endpoint::Simulate => {
            // Cycles scale inversely with the processor count so every
            // simulate key costs about the same to evaluate.
            let cycles = SIM_PROCESSOR_CYCLES / n as u64;
            let replications = 1usize;
            body.push_str(&format!(
                ",\"cycles\":{},\"warmup\":100,\"seed\":{},\"resubmission\":{},\"replications\":{replications}",
                cycles / replications as u64,
                rng.below(1000),
                rng.below(2) == 1
            ));
        }
        Endpoint::Degraded => {
            let failed = rng.below(b);
            let mut buses = rng.permutation(b)[..failed].to_vec();
            buses.sort_unstable();
            let list: Vec<String> = buses.iter().map(ToString::to_string).collect();
            body.push_str(&format!(",\"failed_buses\":[{}]", list.join(",")));
        }
        _ => {}
    }
    body.push('}');
    body
}

fn fabric_body(rng: &mut Rng) -> String {
    let (ks, processors) = rng.pick(&[
        ("[2,4]", 8u64),
        ("[4,2]", 8),
        ("[4,4]", 16),
        ("[2,2,2]", 8),
        ("[2,2,4]", 16),
    ]);
    format!(
        "{{\"ks\":{ks},\"buses\":{},\"uplink\":{},\"rate\":{},\"locality\":{},\"cycles\":{},\"warmup\":100,\"seed\":{}}}",
        rng.pick(&[1usize, 2]),
        rng.pick(&[1usize, 2]),
        rng.decimal(0.2, 0.9, 3),
        rng.decimal(0.3, 0.8, 2),
        FABRIC_PROCESSOR_CYCLES / processors,
        rng.below(1000)
    )
}

/// The seeded key set: distinct bodies, with the endpoint mix of the
/// workload.
pub fn keys(kind: Kind, seed: u64) -> Vec<Key> {
    let mut rng = Rng::new(seed, 0x4B45_5953 + kind as u64);
    let endpoints: Vec<Endpoint> = match kind {
        Kind::Hot => Endpoint::ALL
            .iter()
            .flat_map(|&e| std::iter::repeat_n(e, HOT_KEYS_PER_ENDPOINT))
            .collect(),
        Kind::Churn => (0..churn_key_count())
            .map(|_| {
                let u = rng.unit();
                // Leans toward the evaluation-heavy endpoints.
                if u < 0.35 {
                    Endpoint::Simulate
                } else if u < 0.60 {
                    Endpoint::Exact
                } else if u < 0.85 {
                    Endpoint::Fabric
                } else if u < 0.93 {
                    Endpoint::Bandwidth
                } else {
                    Endpoint::Degraded
                }
            })
            .collect(),
    };
    let mut seen = HashSet::new();
    endpoints
        .into_iter()
        .map(|endpoint| loop {
            let body = match endpoint {
                Endpoint::Fabric => fabric_body(&mut rng),
                flat => flat_body(&mut rng, flat),
            };
            let key = Key { endpoint, body };
            if seen.insert(key.clone()) {
                break key;
            }
        })
        .collect()
}

/// Keys warmed during set-up, by index.
fn warm_set(kind: Kind, seed: u64) -> Vec<usize> {
    let spec = spec(kind, Duration::ZERO);
    match kind {
        Kind::Hot => (0..spec.keys).collect(),
        Kind::Churn => gen::ranking(seed, &spec, 0)[..CHURN_WARM].to_vec(),
    }
}

/// `evaluate(..).render()` for one key, or an error message.
pub fn evaluate_rendered(key: &Key) -> Result<String, String> {
    let body = service::parse_body(key.body.as_bytes()).map_err(|e| e.message)?;
    let query = service::parse_query(key.endpoint, &body, &ServiceLimits::default())
        .map_err(|e| e.message)?;
    Ok(service::evaluate(&query).map_err(|e| e.message)?.render())
}

/// The expected result of a key, kept as its length and digest rather
/// than its bytes so that the benchmark's own memory stays small and
/// does not vary with the key set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    len: usize,
    digest: u64,
}

impl Expected {
    fn of(result: &str) -> Expected {
        let mut digest = Digest::default();
        digest.add(result.as_bytes());
        Expected {
            len: result.len(),
            digest: digest.value(),
        }
    }
}

/// Expected results of the `used` key indices, computed in this process
/// on as many threads as the load has clients.
fn expected_results(
    keys: &[Key],
    used: &BTreeSet<usize>,
) -> Result<BTreeMap<usize, Expected>, String> {
    let used: Vec<usize> = used.iter().copied().collect();
    let chunk = used.len().div_ceil(util::nproc()).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = used
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&k| {
                            evaluate_rendered(&keys[k])
                                .map(|result| (k, Expected::of(&result)))
                                .map_err(|e| format!("key {k} does not evaluate: {e}"))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut expected = BTreeMap::new();
        for worker in workers {
            expected.extend(
                worker
                    .join()
                    .map_err(|_| "check thread panicked".to_owned())??,
            );
        }
        Ok(expected)
    })
}

/// A server running on its own thread.
struct Running {
    handle: ServerHandle,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run_until(|| flag.load(Ordering::SeqCst)));
        Ok(Running {
            handle,
            addr,
            stop,
            thread,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.shutdown();
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Sends each warm key once, from as many threads as the load has clients.
fn warm(addr: SocketAddr, keys: &[Key], warm: &[usize]) -> Result<(), String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..util::nproc())
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        // Relaxed: the counter hands out indices only.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&k) = warm.get(i) else {
                            return Ok(());
                        };
                        let request = gen::post_bytes(&keys[k].path(), &keys[k].body);
                        match gen::exchange(addr, &request) {
                            Ok((200, _)) => {}
                            Ok((status, _)) => return Err(format!("warm-up got {status}")),
                            Err(e) => return Err(format!("warm-up: {e}")),
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "warm-up thread panicked".to_owned())?)
    })
}

/// The `result` of a response envelope, its endpoint and cached flag.
fn split_envelope(body: &[u8]) -> Option<(&str, bool, &str)> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix("{\"endpoint\":\"")?;
    let (endpoint, rest) = rest.split_once("\",\"cached\":")?;
    let (cached, rest) = if let Some(r) = rest.strip_prefix("true,\"result\":") {
        (true, r)
    } else {
        (false, rest.strip_prefix("false,\"result\":")?)
    };
    Some((endpoint, cached, rest.strip_suffix('}')?))
}

/// What a client kept of one response.
#[derive(Debug, Clone, Copy)]
struct Reply {
    /// HTTP status; 0 on a transport error.
    status: u16,
    /// The envelope names the key's endpoint.
    endpoint_ok: bool,
    /// The envelope's `cached` flag.
    cached: bool,
    /// Length and digest of the envelope's `result`, if it parsed.
    result: Option<Expected>,
}

/// The verdict on one response, given after the run.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// 200, right endpoint, and `result` equal to
    /// `evaluate(..).render()` for its key (length and digest).
    ok: bool,
    /// The envelope's `cached` flag.
    cached: bool,
}

/// Everything one serve run measured.
struct Live {
    /// Seconds to bind the server and warm its cache.
    setup: f64,
    outcomes: Vec<Outcome<Verdict>>,
    /// From the schedule's start to the last response.
    window: Duration,
    cache: mbus_core::stats::cache::CacheStats,
    shed: u64,
    digest: Digest,
    keys: Vec<Key>,
    warm: Vec<usize>,
    arrivals: Vec<Arrival>,
    spec: ScheduleSpec,
}

/// Set-up: binds a server with the default configuration and warms its
/// cache with the `warm` keys. Returns the running server and the time
/// taken in seconds.
fn start_warm(keys: &[Key], warm_keys: &[usize]) -> Result<(Running, f64), String> {
    let start = Instant::now();
    let running = Running::start()?;
    warm(running.addr, keys, warm_keys)?;
    Ok((running, start.elapsed().as_secs_f64()))
}

/// One set-up on its own, for a `setup_s` sample: the time to bind a
/// server and warm it, in seconds.
pub fn setup_sample(kind: Kind, seed: u64) -> Result<f64, String> {
    let (running, secs) = start_warm(&keys(kind, seed), &warm_set(kind, seed))?;
    running.stop()?;
    Ok(secs)
}

fn live(kind: Kind, seed: u64, duration: Duration) -> Result<Live, String> {
    let spec = spec(kind, duration);
    let arrivals = gen::schedule(seed, &spec);
    let keys = keys(kind, seed);
    let warm_keys = warm_set(kind, seed);
    let (server, setup) = start_warm(&keys, &warm_keys)?;
    let requests: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| gen::post_bytes(&k.path(), &k.body))
        .collect();
    let keep = |arrival: &Arrival, reply: Option<(u16, &[u8])>| {
        let Some((status, body)) = reply else {
            return Reply {
                status: 0,
                endpoint_ok: false,
                cached: false,
                result: None,
            };
        };
        let parsed = split_envelope(body);
        Reply {
            status,
            endpoint_ok: parsed
                .is_some_and(|(endpoint, _, _)| endpoint == keys[arrival.key].endpoint.name()),
            cached: parsed.is_some_and(|(_, cached, _)| cached),
            result: parsed.map(|(_, _, result)| Expected::of(result)),
        }
    };
    let replies = gen::run_open_loop(server.addr, &requests, &arrivals, util::nproc(), &keep);
    let cache = server.handle.cache_stats();
    let shed = server.handle.shed();
    server.stop()?;

    // The check: every key used, evaluated here after the run.
    let used: BTreeSet<usize> = arrivals
        .iter()
        .map(|a| a.key)
        .chain(warm_keys.iter().copied())
        .collect();
    let expected = expected_results(&keys, &used)?;
    let mut digest = Digest::default();
    for e in expected.values() {
        digest.add(&e.digest.to_le_bytes());
    }
    let outcomes: Vec<Outcome<Verdict>> = replies
        .into_iter()
        .zip(&arrivals)
        .map(|(o, arrival)| {
            let r = o.verdict;
            let ok = r.status == 200
                && r.endpoint_ok
                && r.result.is_some()
                && r.result.as_ref() == expected.get(&arrival.key);
            Outcome {
                verdict: Verdict {
                    ok,
                    cached: r.cached,
                },
                lag: o.lag,
                latency: o.latency,
                due_at: o.due_at,
                done_at: o.done_at,
            }
        })
        .collect();
    let window = match (outcomes.first(), arrivals.first()) {
        (Some(first), Some(arrival)) => outcomes
            .iter()
            .map(|o| o.done_at)
            .max()
            .unwrap_or(first.done_at)
            .saturating_duration_since(first.due_at - arrival.due),
        _ => return Err("empty schedule".into()),
    };
    Ok(Live {
        setup,
        outcomes,
        window,
        cache,
        shed,
        digest,
        keys,
        warm: warm_keys,
        arrivals,
        spec,
    })
}

fn limit(kind: Kind) -> Duration {
    match kind {
        Kind::Hot => HOT_LIMIT,
        Kind::Churn => CHURN_LIMIT,
    }
}

fn hit_ratio(l: &Live, phases: impl Fn(usize) -> bool) -> f64 {
    let (mut hits, mut total) = (0usize, 0usize);
    for (o, a) in l.outcomes.iter().zip(&l.arrivals) {
        if phases(a.phase) {
            total += 1;
            hits += usize::from(o.verdict.cached);
        }
    }
    if total == 0 {
        f64::NAN
    } else {
        hits as f64 / total as f64
    }
}

/// Fills the end-to-end numbers of a live run into `report` under
/// `prefix` (empty for the untraced run, `traced.` for the traced one).
fn end_to_end(kind: Kind, l: &Live, report: &mut Report, prefix: &str) {
    let latencies: Vec<f64> = l.outcomes.iter().map(|o| util::ms(o.latency)).collect();
    let lags: Vec<f64> = l.outcomes.iter().map(|o| util::ms(o.lag)).collect();
    let good = l
        .outcomes
        .iter()
        .filter(|o| o.verdict.ok && o.latency <= limit(kind))
        .count();
    let failed = l.outcomes.iter().filter(|o| !o.verdict.ok).count() as u64;
    let attempted = l.outcomes.len() as u64;
    let n = |s: &str| format!("{prefix}{s}");
    report.put(&n("p50_ms"), median(&latencies), "ms");
    report.put(&n("p99_ms"), quantile(&latencies, 0.99), "ms");
    report.put(
        &n("goodput_rps"),
        good as f64 / l.window.as_secs_f64(),
        "1/s",
    );
    if prefix.is_empty() {
        report.attempted += attempted;
        report.failed += failed;
        report.put("requests", attempted as f64, "count");
        report.put("offered_rps", l.spec.rate, "1/s");
        report.put("latency_limit_ms", util::ms(limit(kind)), "ms");
        report.put(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.put("gen_lag_p99_ms", quantile(&lags, 0.99), "ms");
        report.put("cache.hit_ratio", l.cache.hit_rate(), "ratio");
        report.put("cache.hit_ratio_phase0", hit_ratio(l, |p| p == 0), "ratio");
        report.put(
            "cache.hit_ratio_after_shift",
            hit_ratio(l, |p| p > 0),
            "ratio",
        );
        report.put(
            "cache.rejected_inserts",
            (l.cache.misses - l.cache.inserts) as f64,
            "count",
        );
        report.put("server.shed", l.shed as f64, "count");
        report.digest = l.digest.hex();
    } else {
        report.put("gen.lag_p99_ms", quantile(&lags, 0.99), "ms");
    }
}

/// The untraced run. Returns its set-up time in seconds.
pub fn run(kind: Kind, seed: u64, seconds: u64, report: &mut Report) -> Result<f64, String> {
    let l = live(kind, seed, Duration::from_secs(seconds))?;
    end_to_end(kind, &l, report, "");
    Ok(l.setup)
}

fn evaluate_span(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Bandwidth => "evaluate.bandwidth",
        Endpoint::Exact => "evaluate.exact",
        Endpoint::Simulate => "evaluate.simulate",
        Endpoint::Degraded => "evaluate.degraded",
        Endpoint::Fabric => "evaluate.fabric",
    }
}

/// Replays one request through the layers the server calls, in the
/// server's order, recording a span per call.
fn replay_one(
    t: &mut Tracer,
    id: u64,
    raw: &[u8],
    cache: &MemoCache<QueryKey, String>,
) -> Result<(), String> {
    let limits = ServiceLimits::default();
    t.span("handler", id, |t| {
        let (endpoint, body) = t.span("http.parse", id, |_| {
            let head_end = raw
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .ok_or("no head")?;
            let head = http::parse_request_head(&raw[..head_end]).map_err(|e| e.reason())?;
            let length = http::content_length(&head)
                .map_err(|e| e.reason())?
                .unwrap_or(0);
            let endpoint = Endpoint::from_path(&head.path).ok_or("unknown path")?;
            let body = raw
                .get(head_end + 4..head_end + 4 + length)
                .ok_or("short body")?;
            Ok::<_, String>((endpoint, body))
        })?;
        let query = t.span("service.parse", id, |_| {
            let json = service::parse_body(body)?;
            service::parse_query(endpoint, &json, &limits)
        });
        let query = query.map_err(|e| e.message)?;
        let key = t.span("service.key", id, |_| query.key());
        let result = match t.span("cache.lookup", id, |_| cache.get(&key)) {
            Some(hit) => hit,
            None => {
                let json = t
                    .span(evaluate_span(endpoint), id, |_| service::evaluate(&query))
                    .map_err(|e| e.message)?;
                let rendered = t.span("json.render", id, |_| json.render());
                cache.get_or_insert_with(key, move || rendered)
            }
        };
        let envelope = format!(
            "{{\"endpoint\":\"{}\",\"cached\":true,\"result\":{}}}",
            endpoint.name(),
            result
        );
        let bytes = t.span("http.write", id, |_| {
            Response::json(200, envelope).to_bytes()
        });
        std::hint::black_box(bytes);
        Ok(())
    })
}

/// Ids of warm-up replays, disjoint from request indices.
const WARM_ID_BASE: u64 = 1 << 40;

/// The traced serve run: a live run, then a replay of its warm-up and
/// every request through the layer functions on a replica cache of the
/// server's geometry. The replay of request `i` shares id `i` with the
/// live request's span, and `transport = latency − replayed handler`.
/// The replica must end with the server's retained entries and inserts,
/// or the replay no longer mirrors the server and a gate fails.
pub fn traced(
    kind: Kind,
    seed: u64,
    live_for: Duration,
    t: &mut Tracer,
    report: &mut Report,
    home: bool,
) -> Result<(), String> {
    let l = live(kind, seed, live_for)?;
    if home {
        end_to_end(kind, &l, report, "traced.");
        report.attempted += l.outcomes.len() as u64;
        report.failed += l.outcomes.iter().filter(|o| !o.verdict.ok).count() as u64;
    } else if l.outcomes.iter().any(|o| !o.verdict.ok) {
        report
            .gates
            .push("serve probe: a response failed its check".to_owned());
    }
    for (i, o) in l.outcomes.iter().enumerate() {
        t.record("request", i as u64, o.due_at, o.done_at);
    }
    let capacity = ServerConfig::default().cache_capacity;
    let cache = MemoCache::new(SERVER_CACHE_SHARDS, (capacity / SERVER_CACHE_SHARDS).max(1));
    let raw = |k: usize| gen::post_bytes(&l.keys[k].path(), &l.keys[k].body);
    for &k in &l.warm {
        replay_one(t, WARM_ID_BASE + k as u64, &raw(k), &cache)?;
    }
    for (i, arrival) in l.arrivals.iter().enumerate() {
        replay_one(t, i as u64, &raw(arrival.key), &cache)?;
    }
    // The cache only fills, so which keys each shard retains does not
    // depend on the order concurrent requests reached it; hits and
    // misses do (two racing requests for one cold key both miss), so
    // they are not compared.
    let replica = cache.stats();
    if (replica.inserts, replica.len) != (l.cache.inserts, l.cache.len) {
        report.gates.push(format!(
            "replica cache (inserts {}, len {}) disagrees with the server's (inserts {}, len {})",
            replica.inserts, replica.len, l.cache.inserts, l.cache.len
        ));
    }
    let handler = t.total_us_by_id("handler");
    let transport: Vec<f64> = l
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| handler.get(&(i as u64)).map(|h| util::us(o.latency) - h))
        .collect();
    let med = |name: &str| median(&t.durations_us(name));
    report.put("server.transport_p50_us", median(&transport), "us");
    report.put("server.shed", l.shed as f64, "count");
    report.put("http.parse_us", med("http.parse"), "us");
    report.put("http.write_us", med("http.write"), "us");
    report.put("service.parse_us", med("service.parse"), "us");
    report.put("service.key_us", med("service.key"), "us");
    report.put("json.render_us", med("json.render"), "us");
    for endpoint in Endpoint::ALL {
        let name = evaluate_span(endpoint);
        report.put(&format!("{name}_us"), med(name), "us");
    }
    report.put("cache.hit_ratio", l.cache.hit_rate(), "ratio");
    report.put("cache.hit_ratio_phase0", hit_ratio(&l, |p| p == 0), "ratio");
    report.put(
        "cache.hit_ratio_after_shift",
        hit_ratio(&l, |p| p > 0),
        "ratio",
    );
    report.put(
        "cache.rejected_inserts",
        (l.cache.misses - l.cache.inserts) as f64,
        "count",
    );
    report.put("cache.len", l.cache.len as f64, "count");
    report.put("cache.lookup_us", med("cache.lookup"), "us");
    if !home {
        let lags: Vec<f64> = l.outcomes.iter().map(|o| util::ms(o.lag)).collect();
        report.put("gen.lag_p99_ms", quantile(&lags, 0.99), "ms");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_keys(keys: &[Key]) -> HashSet<QueryKey> {
        keys.iter()
            .map(|k| {
                let body = service::parse_body(k.body.as_bytes()).unwrap();
                service::parse_query(k.endpoint, &body, &ServiceLimits::default())
                    .unwrap_or_else(|e| panic!("{:?} {}: {}", k.endpoint, k.body, e.message))
                    .key()
            })
            .collect()
    }

    #[test]
    fn churn_key_space_is_at_least_four_caches() {
        let capacity = ServerConfig::default().cache_capacity;
        assert!(churn_key_count() >= 4 * capacity);
        for seed in [0, 1, 7] {
            let keys = keys(Kind::Churn, seed);
            assert_eq!(keys.len(), churn_key_count());
            // Distinct bodies must also be distinct cache keys.
            assert_eq!(query_keys(&keys).len(), keys.len());
        }
    }

    #[test]
    fn hot_keys_fit_the_cache_and_cover_every_endpoint() {
        let keys = keys(Kind::Hot, 5);
        assert_eq!(query_keys(&keys).len(), keys.len());
        assert!(keys.len() * 4 <= ServerConfig::default().cache_capacity);
        for endpoint in Endpoint::ALL {
            assert!(keys.iter().any(|k| k.endpoint == endpoint));
        }
    }

    #[test]
    fn key_sets_are_deterministic_per_seed() {
        assert_eq!(keys(Kind::Churn, 3), keys(Kind::Churn, 3));
        assert_ne!(keys(Kind::Churn, 3), keys(Kind::Churn, 4));
        assert_ne!(keys(Kind::Hot, 3), keys(Kind::Hot, 4));
    }

    #[test]
    fn hot_keys_evaluate() {
        for key in keys(Kind::Hot, 1) {
            evaluate_rendered(&key).unwrap_or_else(|e| panic!("{}: {e}", key.body));
        }
    }

    #[test]
    fn churn_keys_evaluate() {
        for key in keys(Kind::Churn, 2).iter().step_by(7) {
            evaluate_rendered(key).unwrap_or_else(|e| panic!("{}: {e}", key.body));
        }
    }

    #[test]
    fn envelope_split() {
        let body = br#"{"endpoint":"exact","cached":true,"result":{"bandwidth":1.5}}"#;
        assert_eq!(
            split_envelope(body),
            Some(("exact", true, r#"{"bandwidth":1.5}"#))
        );
        assert_eq!(split_envelope(b"{}"), None);
    }
}
