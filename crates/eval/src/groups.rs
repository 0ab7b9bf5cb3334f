//! Long-tail and cold-start decompositions (paper Figs. 7 and 8).
//!
//! * Fig. 7 splits items into five equal-size popularity groups `G1..G5`
//!   (interaction count ascending) and reports each group's *contribution*
//!   to the overall Recall@20: hits restricted to the group, so the per-group
//!   values sum to the overall recall.
//! * Fig. 8 evaluates the sparse-user population (fewer than 10 training
//!   interactions).

use imcat_data::SplitDataset;
use imcat_tensor::Tensor;

use crate::metrics::{rank_users, EvalSpec};

/// Assigns items to `n_groups` equal-size popularity groups by ascending
/// training-interaction count (`G1` = least popular).
pub fn item_popularity_groups(data: &SplitDataset, n_groups: usize) -> Vec<usize> {
    imcat_graph::degree_groups(&data.train.col_degrees(), n_groups)
}

/// Per-group contribution to Recall@N: `result[g]` is the mean over users of
/// `|top_N ∩ test ∩ G_g| / |test|`. The contributions sum to overall recall.
pub fn group_recall_contribution(
    score_fn: &mut dyn FnMut(&[u32]) -> Tensor,
    data: &SplitDataset,
    n: usize,
    groups: &[usize],
    n_groups: usize,
) -> Vec<f64> {
    assert_eq!(groups.len(), data.n_items());
    let mut contrib = vec![0f64; n_groups];
    let mut users = 0usize;
    rank_users(score_fn, data, &EvalSpec::at(n), |_, top, truth| {
        users += 1;
        for &j in top {
            if truth.contains(&j) {
                contrib[groups[j as usize]] += 1.0 / truth.len() as f64;
            }
        }
    });
    if users > 0 {
        for c in &mut contrib {
            *c /= users as f64;
        }
    }
    contrib
}

/// Users with fewer than `threshold` training interactions (and a non-empty
/// test set) — the cold-start population of Fig. 8.
pub fn cold_start_users(data: &SplitDataset, threshold: usize) -> Vec<u32> {
    (0..data.n_users() as u32)
        .filter(|&u| {
            data.train_items(u as usize).len() < threshold && !data.test[u as usize].is_empty()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_data::{generate, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn split() -> SplitDataset {
        let data = generate(&SynthConfig::tiny(), 9);
        let mut rng = StdRng::seed_from_u64(1);
        data.dataset.split((0.7, 0.1, 0.2), &mut rng)
    }

    #[test]
    fn groups_are_balanced_and_ordered() {
        let data = split();
        let groups = item_popularity_groups(&data, 5);
        let mut counts = vec![0usize; 5];
        for &g in &groups {
            counts[g] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 5, "unbalanced groups: {counts:?}");
        // Mean degree must rise from G1 to G5.
        let degs = data.train.col_degrees();
        let mean = |g: usize| {
            let (s, c) = degs
                .iter()
                .zip(&groups)
                .filter(|(_, &gg)| gg == g)
                .fold((0usize, 0usize), |(s, c), (&d, _)| (s + d, c + 1));
            s as f64 / c.max(1) as f64
        };
        assert!(mean(0) < mean(4));
    }

    #[test]
    fn group_contributions_sum_to_overall_recall() {
        let data = split();
        let mut rng = StdRng::seed_from_u64(2);
        // Random but fixed scores.
        let table = imcat_tensor::normal(data.n_users(), data.n_items(), 1.0, &mut rng);
        let mut score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), data.n_items());
            for (r, &u) in users.iter().enumerate() {
                t.row_mut(r).copy_from_slice(table.row(u as usize));
            }
            t
        };
        let groups = item_popularity_groups(&data, 5);
        let contrib = group_recall_contribution(&mut score_fn, &data, 20, &groups, 5);
        let overall = crate::metrics::evaluate(&mut score_fn, &data, &EvalSpec::at(20));
        let sum: f64 = contrib.iter().sum();
        assert!(
            (sum - overall.recall).abs() < 1e-9,
            "contributions {sum} != overall {}",
            overall.recall
        );
    }

    #[test]
    fn cold_users_have_few_interactions() {
        let data = split();
        let cold = cold_start_users(&data, 10);
        assert!(!cold.is_empty(), "tiny config should produce cold users");
        for &u in &cold {
            assert!(data.train_items(u as usize).len() < 10);
        }
    }

    #[test]
    fn subset_evaluation_restricts_population() {
        let data = split();
        let mut score_fn = |users: &[u32]| Tensor::zeros(users.len(), data.n_items());
        let cold = cold_start_users(&data, 10);
        let m =
            crate::evaluate_per_user(&mut score_fn, &data, &EvalSpec::at(20).users(cold.clone()));
        assert_eq!(m.users.len(), cold.len());
    }
}
