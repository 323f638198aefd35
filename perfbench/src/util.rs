//! Small shared pieces: a seeded generator, quantiles, digests, timing,
//! and the machine stamp every result file carries.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so workload inputs depend
/// only on the seed and never on a library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// consumers of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// A value in `[lo, hi)` rounded to `decimals` places, so it renders
    /// identically in a JSON body and in the parsed query.
    pub fn decimal(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + (hi - lo) * self.unit()) * scale).round() / scale
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
        items
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule;
/// `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as milliseconds / microseconds / nanoseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// FNV-1a over a stream of byte chunks: the digest of a workload's
/// computed statistics, printed so that a speed-only change can be seen to
/// leave them bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        // Chunk separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
    }

    /// Adds a value through its `Debug` rendering, which prints every
    /// field and every `f64` with round-trip precision.
    pub fn add_debug(&mut self, value: &impl std::fmt::Debug) {
        self.add(format!("{value:?}").as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `HEAD` of the repository holding this crate. The search for `.git`
/// stops at the repository root, so a checkout that is not a git
/// repository reads as such and nothing outside it is looked at.
fn git_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(std::path::Path::new("."));
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(outside) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", outside);
    }
    git.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// The machine stamp written into every result file, as JSON fields.
pub fn stamp_json(seed: u64) -> String {
    format!(
        "\"stamp\":{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\"git_revision\":{},\"seed\":{}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_revision()),
        seed
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn rng_is_deterministic_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut rng = Rng::new(1, 0);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
