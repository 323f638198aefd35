//! Concurrency contract of `mbus_stats::cache::MemoCache`: many worker
//! threads hammering one cache must produce exactly the cold-computation
//! results, and nested lookups must not deadlock.

use mbus_stats::cache::MemoCache;
use mbus_stats::parallel::parallel_map_dynamic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A deliberately non-trivial pure function to memoize.
fn cold(key: u64) -> u64 {
    (0..=key).fold(1u64, |acc, k| acc.wrapping_mul(2 * k + 1) ^ k)
}

#[test]
fn parallel_hammering_matches_cold_computation() {
    let cache: Arc<MemoCache<u64, u64>> = Arc::new(MemoCache::new(4, 64));
    // 256 lookups over 16 overlapping keys, from 8 worker threads.
    let items: Vec<u64> = (0..256).map(|i| i % 16).collect();
    let results = parallel_map_dynamic(items.clone(), 8, {
        let cache = Arc::clone(&cache);
        move |key| *cache.get_or_insert_with(key, || cold(key))
    });
    for (key, value) in items.iter().zip(&results) {
        assert_eq!(*value, cold(*key), "key {key}");
    }
    // Every distinct key is retained (capacity 4 × 64 ≫ 16), and the cache
    // answered far more lookups than it computed.
    assert_eq!(cache.len(), 16);
    assert!(cache.hits() >= 256 - 16 * 8, "hits {}", cache.hits());
    assert!(cache.misses() >= 16);
}

#[test]
fn racing_threads_converge_on_one_canonical_value() {
    // All workers race on the SAME cold key: whatever interleaving happens,
    // every caller must observe the same Arc afterwards.
    let cache: Arc<MemoCache<u64, u64>> = Arc::new(MemoCache::new(1, 8));
    let computations = Arc::new(AtomicUsize::new(0));
    let results = parallel_map_dynamic((0..32).collect::<Vec<u64>>(), 8, {
        let cache = Arc::clone(&cache);
        let computations = Arc::clone(&computations);
        move |_| {
            cache.get_or_insert_with(99, || {
                computations.fetch_add(1, Ordering::Relaxed);
                cold(99)
            })
        }
    });
    let canonical = cache.get(&99).expect("retained");
    for r in &results {
        assert_eq!(**r, cold(99));
        assert!(Arc::ptr_eq(r, &canonical), "all callers share the winner");
    }
    // Racing threads may each compute once, but never more than the worker
    // count (and usually just once).
    let computed = computations.load(Ordering::Relaxed);
    assert!((1..=8).contains(&computed), "computed {computed} times");
}

#[test]
fn nested_lookups_under_parallel_load_do_not_deadlock() {
    // Single shard forces every key onto one RwLock; each outer computation
    // performs a nested lookup on the same cache. A lock held during
    // compute would deadlock here.
    let cache: Arc<MemoCache<u64, u64>> = Arc::new(MemoCache::new(1, 64));
    let items: Vec<u64> = (0..64).map(|i| i % 8).collect();
    let results = parallel_map_dynamic(items.clone(), 8, {
        let cache = Arc::clone(&cache);
        move |key| {
            let inner = *cache.get_or_insert_with(key + 100, || cold(key + 100));
            *cache.get_or_insert_with(key, || cold(key) ^ inner) ^ inner
        }
    });
    for (key, value) in items.iter().zip(&results) {
        let inner = cold(key + 100);
        assert_eq!(*value, (cold(*key) ^ inner) ^ inner);
    }
}
