//! Property-based tests for the IMCAT core invariants.

use imcat_core::imca::{cluster_tag_aggregator, relatedness_matrix, PositiveMask};
use imcat_core::irm::{hard_assignment, soft_assignment, target_distribution};
use imcat_core::isa::SimilarSets;
use imcat_tensor::{normal, Csr, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_item_tags(items: usize, tags: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..tags as u32, 0..tags.min(6)),
        items,
    )
    .prop_map(move |sets| {
        let adj: Vec<Vec<u32>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        Csr::from_adjacency(items, tags, &adj)
    })
}

/// The values of the tape's soft assignment at `η = 1`.
fn soft_assignment_values(tags: Tensor, centers: Tensor) -> Tensor {
    let mut tape = Tape::new();
    let tv = tape.constant(tags);
    let cv = tape.constant(centers);
    let q = soft_assignment(&mut tape, tv, cv, 1.0);
    tape.value(q).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Q rows are on the simplex and hard assignments point at the maximum.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn soft_assignment_simplex_and_argmax(seed in 0u64..2000, t in 2usize..12, k in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = normal(t, 6, 1.0, &mut rng);
        let centers = normal(k, 6, 1.0, &mut rng);
        let q = soft_assignment_values(tags, centers);
        let hard = hard_assignment(&q);
        for l in 0..t {
            let s: f32 = q.row(l).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            let max = q.row(l).iter().cloned().fold(f32::MIN, f32::max);
            prop_assert!((q.get(l, hard[l]) - max).abs() < 1e-7);
        }
    }

    /// The target distribution keeps rows on the simplex.
    #[test]
    fn target_distribution_simplex(seed in 0u64..2000, t in 2usize..10, k in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tags = normal(t, 4, 1.0, &mut rng);
        let centers = normal(k, 4, 1.0, &mut rng);
        let q = soft_assignment_values(tags, centers);
        let qhat = target_distribution(&q);
        for l in 0..t {
            let s: f32 = qhat.row(l).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {l} sums to {s}");
            prop_assert!(qhat.row(l).iter().all(|&x| x >= 0.0));
        }
    }

    /// Cluster aggregators only reference tags of the right cluster, rows sum
    /// to one (or are empty), and the per-cluster aggregators partition the
    /// item-tag incidence.
    #[test]
    fn cluster_aggregators_partition(it in random_item_tags(8, 10), k in 2usize..4) {
        let assignment: Vec<usize> = (0..10).map(|t| t % k).collect();
        let mut covered = 0usize;
        for kk in 0..k {
            let agg = cluster_tag_aggregator(&it, &assignment, kk);
            covered += agg.nnz();
            for j in 0..agg.rows() {
                let s: f32 = agg.row_values(j).iter().sum();
                if agg.row_nnz(j) > 0 {
                    prop_assert!((s - 1.0).abs() < 1e-5);
                }
                for &t in agg.row_indices(j) {
                    prop_assert_eq!(assignment[t as usize], kk);
                    prop_assert!(it.contains(j as u32, t));
                }
            }
        }
        prop_assert_eq!(covered, it.nnz());
    }

    /// Relatedness rows are softmax distributions favoring the cluster with
    /// the most tags.
    #[test]
    fn relatedness_softmax(it in random_item_tags(8, 10), k in 2usize..4) {
        let assignment: Vec<usize> = (0..10).map(|t| t % k).collect();
        let m = relatedness_matrix(&it, &assignment, k);
        for j in 0..8 {
            let s: f32 = m.row(j).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            // argmax of M == argmax of counts.
            let mut counts = vec![0usize; k];
            for &t in it.row_indices(j) {
                counts[assignment[t as usize]] += 1;
            }
            let best_count = *counts.iter().max().unwrap();
            let best_m = m.row(j).iter().cloned().fold(f32::MIN, f32::max);
            let arg_count: Vec<usize> =
                (0..k).filter(|&c| counts[c] == best_count).collect();
            let arg_m = (0..k).find(|&c| (m.get(j, c) - best_m).abs() < 1e-7).unwrap();
            prop_assert!(arg_count.contains(&arg_m));
        }
    }

    /// ISA similar sets are symmetric and threshold-monotone.
    #[test]
    fn similar_sets_symmetric_and_monotone(it in random_item_tags(8, 10)) {
        let assignment: Vec<usize> = (0..10).map(|t| t % 2).collect();
        let loose = SimilarSets::build(&it, &assignment, 2, 0.2);
        let strict = SimilarSets::build(&it, &assignment, 2, 0.8);
        for k in 0..2 {
            for j in 0..8 {
                for &o in loose.of(k, j) {
                    prop_assert!(loose.of(k, o as usize).contains(&(j as u32)));
                }
                // Strict sets are subsets of loose sets.
                for &o in strict.of(k, j) {
                    prop_assert!(loose.of(k, j).contains(&o));
                }
            }
        }
    }

    /// Positive masks: forward rows with positives sum to one; backward rows
    /// re-normalize.
    #[test]
    fn positive_mask_row_normalized(
        lists in proptest::collection::vec(
            proptest::collection::btree_set(0usize..12, 0..4), 6),
    ) {
        let positives: Vec<Vec<usize>> =
            lists.into_iter().map(|s| s.into_iter().collect()).collect();
        let mask = PositiveMask::from_lists(6, 12, &positives);
        for (j, pos) in positives.iter().enumerate() {
            let s: f32 = mask.forward().row(j).iter().sum();
            if pos.is_empty() {
                prop_assert_eq!(s, 0.0);
            } else {
                prop_assert!((s - 1.0).abs() < 1e-5);
            }
        }
        let back = mask.backward();
        for r in 0..back.rows() {
            let s: f32 = back.row(r).iter().sum();
            prop_assert!(s == 0.0 || (s - 1.0).abs() < 1e-5);
        }
    }
}
