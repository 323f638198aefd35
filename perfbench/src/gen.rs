//! The benchmark's own open-loop load generator.
//!
//! Arrivals come one per `1 / rate` slot, at a seeded uniform point of
//! the slot, and are fixed before the run starts; a request is sent when it is due whether or not earlier ones
//! have been answered, and its latency runs from the due time to the last byte of
//! the response, so a stall also charges the requests queued behind it.
//! Clients are plain `std::thread`s with blocking `TcpStream`s (one
//! connection per request, as the server closes after each response);
//! they share nothing with the workspace's own scheduler or load
//! generator, so a change to either cannot move the load.

use crate::util::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Shape of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleSpec {
    /// Offered rate in requests per second.
    pub rate: f64,
    pub duration: Duration,
    /// Size of the key space requests draw from.
    pub keys: usize,
    /// Equal-length phases; each ranks the keys by its own permutation,
    /// so the popular keys change at every phase boundary.
    pub phases: usize,
    /// Zipf exponent of key popularity by rank (0 = uniform).
    pub zipf: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time as an offset from the start of the run.
    pub due: Duration,
    pub key: usize,
    pub phase: usize,
}

/// The keys of `spec` ranked by popularity in `phase` (most popular
/// first) — the same ranking [`schedule`] draws from.
pub fn ranking(seed: u64, spec: &ScheduleSpec, phase: usize) -> Vec<usize> {
    Rng::new(seed, 0x5048_4153 + phase as u64).permutation(spec.keys)
}

/// The seeded arrival schedule: `rate × duration` arrivals, one at a
/// uniformly drawn point of each `1 / rate` slot, each with a key drawn
/// by Zipf rank from its phase's ranking. One arrival per slot (rather
/// than Poisson bursts) keeps two blocking clients from falling behind
/// their own schedule, so latency reflects the server and not the
/// generator; the draw within the slot keeps the arrivals from locking
/// onto any periodic behaviour of the server, such as a polling loop
/// whose period divides the slot.
pub fn schedule(seed: u64, spec: &ScheduleSpec) -> Vec<Arrival> {
    let mut cumulative = Vec::with_capacity(spec.keys);
    let mut total = 0.0;
    for rank in 0..spec.keys {
        total += 1.0 / ((rank + 1) as f64).powf(spec.zipf);
        cumulative.push(total);
    }
    let rankings: Vec<Vec<usize>> = (0..spec.phases).map(|p| ranking(seed, spec, p)).collect();
    let seconds = spec.duration.as_secs_f64();
    let mut rng = Rng::new(seed, 0x4152_5256);
    let count = (spec.rate * seconds).round() as usize;
    (0..count)
        .map(|i| {
            let t = (i as f64 + rng.unit()) / spec.rate;
            let phase = ((t * spec.phases as f64 / seconds) as usize).min(spec.phases - 1);
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(spec.keys - 1);
            Arrival {
                due: Duration::from_secs_f64(t),
                key: rankings[phase][rank],
                phase,
            }
        })
        .collect()
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// How late the request was sent against its due time.
    pub lag: Duration,
    /// Due time to the last response byte.
    pub latency: Duration,
    /// Absolute due time and completion time, for the traced run's spans.
    pub due_at: Instant,
    pub done_at: Instant,
    /// The caller's verdict on the response, taken on the client thread
    /// so that response bodies need not be kept.
    pub verdict: T,
}

/// A `POST` request for `path` with a JSON `body`, as raw bytes.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One blocking request/response exchange on a fresh connection.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a head"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

/// A caller's check of one reply: status and body, or `None` on a
/// transport error.
pub type Check<'a, T> = dyn Fn(&Arrival, Option<(u16, &[u8])>) -> T + Sync + 'a;

/// Plays `arrivals` against `addr` from `clients` threads. `requests[k]`
/// is the raw request for key `k`; `check` judges each reply (status and
/// body, or `None` on a transport error). Returns one outcome per
/// arrival, in schedule order.
pub fn run_open_loop<T: Send>(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    arrivals: &[Arrival],
    clients: usize,
    check: &Check<'_, T>,
) -> Vec<Outcome<T>> {
    // A short lead lets every client thread start before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Outcome<T>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed is enough: the counter only hands out
                        // distinct indices and publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = arrivals.get(i) else {
                            return mine;
                        };
                        let due_at = start + arrival.due;
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let reply = exchange(addr, &requests[arrival.key]);
                        let done_at = Instant::now();
                        let verdict = match &reply {
                            Ok((status, body)) => check(arrival, Some((*status, body))),
                            Err(_) => check(arrival, None),
                        };
                        mine.push((
                            i,
                            Outcome {
                                lag: sent.saturating_duration_since(due_at),
                                latency: done_at.saturating_duration_since(due_at),
                                due_at,
                                done_at,
                                verdict,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn spec() -> ScheduleSpec {
        ScheduleSpec {
            rate: 200.0,
            duration: Duration::from_secs(4),
            keys: 1000,
            phases: 4,
            zipf: 1.0,
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(11, &spec());
        assert_eq!(a, schedule(11, &spec()));
        assert_ne!(a, schedule(12, &spec()));
        assert_eq!(a.len(), 800);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.windows(2).all(|w| w[0].phase <= w[1].phase));
        assert_eq!(a.last().map(|x| x.phase), Some(3));
        assert_eq!(ranking(11, &spec(), 2), ranking(11, &spec(), 2));
    }

    #[test]
    fn zipf_draws_favour_each_phase_top_rank() {
        let arrivals = schedule(3, &spec());
        for phase in 0..4 {
            let top = ranking(3, &spec(), phase)[0];
            let in_phase: Vec<_> = arrivals.iter().filter(|a| a.phase == phase).collect();
            let hits = in_phase.iter().filter(|a| a.key == top).count();
            // Rank 1 of a Zipf(1) over 1000 keys carries about 13%.
            assert!(
                hits * 20 > in_phase.len(),
                "phase {phase}: {hits}/{}",
                in_phase.len()
            );
        }
    }

    /// A one-connection-at-a-time server that answers after `delay`.
    fn slow_server(delay: Duration, count: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..count {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf).unwrap();
                std::thread::sleep(delay);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let delay = Duration::from_millis(40);
        let (addr, server) = slow_server(delay, 2);
        // Two requests due 1 ms apart on one client: the second cannot be
        // sent until the first returns, and that wait counts.
        let arrivals = [
            Arrival {
                due: Duration::ZERO,
                key: 0,
                phase: 0,
            },
            Arrival {
                due: Duration::from_millis(1),
                key: 0,
                phase: 0,
            },
        ];
        let requests = vec![post_bytes("/x", "{}")];
        let check = |_: &Arrival, reply: Option<(u16, &[u8])>| reply == Some((200, &b"ok"[..]));
        let out = run_open_loop(addr, &requests, &arrivals, 1, &check);
        server.join().unwrap();
        assert!(out.iter().all(|o| o.verdict));
        assert!(out[0].latency >= delay);
        assert!(
            out[1].lag >= delay - Duration::from_millis(2),
            "{:?}",
            out[1].lag
        );
        assert!(
            out[1].latency >= 2 * delay - Duration::from_millis(2),
            "{:?}",
            out[1].latency
        );
        assert_eq!(out[1].latency, out[1].done_at - out[1].due_at);
    }

    /// The generator must stay independent of the workspace's scheduler
    /// and load generator, so that rewriting those cannot move the load.
    #[test]
    fn generator_uses_only_std_threads() {
        for (file, source) in [
            ("gen.rs", include_str!("gen.rs")),
            ("serve.rs", include_str!("serve.rs")),
        ] {
            let code = source.split("#[cfg(test)]").next().unwrap();
            for banned in ["parallel_map", "stats::parallel", "loadgen"] {
                assert!(!code.contains(banned), "{file} uses {banned}");
            }
        }
    }
}
