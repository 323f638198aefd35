//! A prepared [`DegradedModel`] shared across masks must give the same bits
//! as a fresh model per mask: its per-thread K-class scratch must not carry
//! state from one mask, or one model, to the next.

use mbus_analysis::degraded::{degraded_analyze, DegradedBreakdown, DegradedModel};
use mbus_topology::{BusNetwork, ConnectionScheme, FaultMask};
use mbus_workload::{HierarchicalModel, RequestMatrix, RequestModel};

fn hier_matrix(n: usize) -> RequestMatrix {
    HierarchicalModel::two_level_paired(n, 4, [0.6, 0.3, 0.1])
        .unwrap()
        .matrix()
}

/// Every mask of `b` buses, in a seeded Fisher–Yates order.
fn shuffled_masks(b: usize, seed: u64) -> Vec<FaultMask> {
    let mut masks: Vec<FaultMask> = (0..1u32 << b)
        .map(|bits| {
            let failed: Vec<usize> = (0..b).filter(|i| bits >> i & 1 == 1).collect();
            FaultMask::with_failures(b, &failed).unwrap()
        })
        .collect();
    let mut state = seed;
    for i in (1..masks.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        masks.swap(i, (state % (i as u64 + 1)) as usize);
    }
    masks
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(shared: &DegradedBreakdown, fresh: &DegradedBreakdown, what: &str) {
    assert_eq!(
        shared.bandwidth.to_bits(),
        fresh.bandwidth.to_bits(),
        "{what}: bandwidth"
    );
    assert_eq!(
        bits(&shared.per_bus_busy),
        bits(&fresh.per_bus_busy),
        "{what}: per-bus busy"
    );
    assert_eq!(
        shared.per_class_bandwidth.as_deref().map(bits),
        fresh.per_class_bandwidth.as_deref().map(bits),
        "{what}: per-class bandwidth"
    );
    assert_eq!(
        shared.unreachable_load.to_bits(),
        fresh.unreachable_load.to_bits(),
        "{what}: unreachable load"
    );
    assert_eq!(shared, fresh, "{what}: breakdown");
}

#[test]
fn shared_model_matches_a_fresh_model_per_mask_on_every_scheme() {
    let (n, b) = (16, 8);
    let matrix = hier_matrix(n);
    let schemes = [
        ("full", ConnectionScheme::Full),
        ("single", ConnectionScheme::balanced_single(n, b).unwrap()),
        ("partial", ConnectionScheme::PartialGroups { groups: 2 }),
        (
            "kclass 1/2/3/4/6",
            ConnectionScheme::KClasses {
                class_sizes: vec![1, 2, 3, 4, 6],
            },
        ),
        ("crossbar", ConnectionScheme::Crossbar),
    ];
    for (seed, (name, scheme)) in (1u64..).zip(schemes) {
        let net = BusNetwork::new(n, n, b, scheme).unwrap();
        for r in [1.0, 0.45] {
            let shared = DegradedModel::new(&net, &matrix, r).unwrap();
            for mask in shuffled_masks(b, seed) {
                let fresh = DegradedModel::new(&net, &matrix, r)
                    .unwrap()
                    .evaluate(&mask)
                    .unwrap();
                let what = format!("{name} r={r} mask {mask:?}");
                assert_same_bits(&shared.evaluate(&mask).unwrap(), &fresh, &what);
                assert_same_bits(
                    &degraded_analyze(&net, &matrix, r, &mask).unwrap(),
                    &fresh,
                    &what,
                );
            }
        }
    }
}

#[test]
fn interleaved_kclass_models_of_different_widths_share_the_thread_scratch() {
    // Two K-class models with different class counts and bus counts,
    // evaluated alternately on one thread: each mask must see none of the
    // other model's scratch contents or sizes.
    let n = 16;
    let matrix = hier_matrix(n);
    let wide =
        BusNetwork::new(n, n, 10, ConnectionScheme::uniform_classes(n, 10).unwrap()).unwrap();
    let narrow = BusNetwork::new(
        n,
        n,
        8,
        ConnectionScheme::KClasses {
            class_sizes: vec![7, 1, 5, 3],
        },
    )
    .unwrap();
    let wide_model = DegradedModel::new(&wide, &matrix, 0.8).unwrap();
    let narrow_model = DegradedModel::new(&narrow, &matrix, 0.8).unwrap();
    let narrow_masks = shuffled_masks(8, 99);
    for (i, wide_mask) in shuffled_masks(10, 7).iter().enumerate() {
        let narrow_mask = &narrow_masks[i % narrow_masks.len()];
        let fresh_narrow = degraded_analyze(&narrow, &matrix, 0.8, narrow_mask).unwrap();
        let fresh_wide = degraded_analyze(&wide, &matrix, 0.8, wide_mask).unwrap();
        assert_same_bits(
            &wide_model.evaluate(wide_mask).unwrap(),
            &fresh_wide,
            &format!("wide {wide_mask:?}"),
        );
        assert_same_bits(
            &narrow_model.evaluate(narrow_mask).unwrap(),
            &fresh_narrow,
            &format!("narrow {narrow_mask:?}"),
        );
    }
}
