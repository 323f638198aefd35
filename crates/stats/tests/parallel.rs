//! Stress tests for the atomic-cursor pool behind `parallel_map_dynamic`.
//!
//! These run under three harnesses: plain `cargo test`, the CI
//! `opt-checked` profile (release speed with `debug_assertions` alive),
//! and the nightly Miri job (`cargo miri test -p mbus-stats`), which
//! checks the cursor, the slot mutexes and the scoped-thread hand-off
//! against the weak memory model.

use mbus_stats::parallel::parallel_map_dynamic;

/// Miri executes a few hundred times slower than native; scale the task
/// counts down so the nightly job stays in budget while still exercising
/// every interleaving class.
const SCALE: usize = if cfg!(miri) { 16 } else { 1 };

#[test]
fn pool_handles_randomized_task_sizes() {
    // Deterministic pseudo-random task costs spanning ~4 orders of
    // magnitude, the regime dynamic claiming exists for. The result must
    // match a plain serial map bit for bit.
    let tasks = 512 / SCALE;
    let items: Vec<u64> = (0..tasks as u64).collect();
    let work = |x: u64| {
        let mut state = x.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let spins = (state % 10_000) as usize / SCALE;
        for _ in 0..spins {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        (x, state)
    };
    let serial: Vec<_> = items.iter().copied().map(work).collect();
    assert_eq!(parallel_map_dynamic(items, 8, work), serial);
}

#[test]
fn pool_survives_repeated_small_maps() {
    // Many tiny pools in sequence: exercises setup/teardown (thread scope,
    // slot claims) rather than steady-state claiming.
    for round in 0..(60 / SCALE).max(4) {
        let n = round % 7 + 2;
        let out = parallel_map_dynamic((0..n).collect::<Vec<usize>>(), 4, |x| x + round);
        assert_eq!(out, (0..n).map(|x| x + round).collect::<Vec<_>>());
    }
}
