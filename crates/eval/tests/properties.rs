//! Property-based tests for metric invariants, and the selection oracle:
//! `top_n_masked_with` against the materialise-everything selection it
//! replaced.

use imcat_data::{Dataset, SplitDataset};
use imcat_eval::{evaluate, paired_t_test, top_n_masked, top_n_masked_with, EvalSpec, TopKScratch};
use imcat_tensor::{Csr, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_split(seed: u64, users: usize, items: usize) -> SplitDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let adj: Vec<Vec<u32>> = (0..users)
        .map(|u| {
            let mut v: Vec<u32> = (0..items as u32)
                .filter(|i| !(u as u32 * 31 + i * 17 + seed as u32).is_multiple_of(3))
                .collect();
            v.truncate(10);
            v
        })
        .collect();
    let it: Vec<Vec<u32>> = (0..items).map(|i| vec![(i % 3) as u32]).collect();
    let data = Dataset::new(
        "prop",
        Csr::from_adjacency(users, items, &adj),
        Csr::from_adjacency(items, 3, &it),
    );
    data.split((0.7, 0.1, 0.2), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Metrics live in [0, 1] for arbitrary score matrices.
    #[test]
    fn metrics_bounded(seed in 0u64..500, n in 1usize..30) {
        let split = random_split(seed, 6, 20);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = imcat_tensor::normal(6, 20, 1.0, &mut rng);
        let mut score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 20);
            for (r, &u) in users.iter().enumerate() {
                t.row_mut(r).copy_from_slice(table.row(u as usize));
            }
            t
        };
        let m = evaluate(&mut score_fn, &split, &EvalSpec::at(n));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.ndcg));
    }

    /// Recall@N is monotonically non-decreasing in N.
    #[test]
    fn recall_monotone_in_n(seed in 0u64..500) {
        let split = random_split(seed, 6, 20);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let table = imcat_tensor::normal(6, 20, 1.0, &mut rng);
        let mut score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 20);
            for (r, &u) in users.iter().enumerate() {
                t.row_mut(r).copy_from_slice(table.row(u as usize));
            }
            t
        };
        let mut last = 0.0;
        for n in [1usize, 5, 10, 20] {
            let m = evaluate(&mut score_fn, &split, &EvalSpec::at(n));
            prop_assert!(m.recall >= last - 1e-12, "recall not monotone in N");
            last = m.recall;
        }
    }

    /// top_n_masked returns distinct, unmasked indices in descending score order.
    #[test]
    fn top_n_masked_invariants(
        scores in proptest::collection::vec(-10.0f32..10.0, 5..30),
        n in 1usize..10,
    ) {
        let mask: Vec<u32> = (0..scores.len() as u32).filter(|i| i % 4 == 0).collect();
        let top = top_n_masked(&scores, &mask, n);
        prop_assert!(top.len() <= n);
        let mut seen = std::collections::HashSet::new();
        let mut last = f32::INFINITY;
        for &j in &top {
            prop_assert!(mask.binary_search(&j).is_err(), "masked item leaked");
            prop_assert!(seen.insert(j), "duplicate item in ranking");
            prop_assert!(scores[j as usize] <= last + 1e-6, "not descending");
            last = scores[j as usize];
        }
    }

    /// Scratch reuse never changes the ranking: a shared `TopKScratch`
    /// driven through many calls matches the allocating wrapper bit-for-bit.
    #[test]
    fn scratch_reuse_matches_fresh(
        scores in proptest::collection::vec(-10.0f32..10.0, 5..30),
        n in 1usize..10,
    ) {
        let mask: Vec<u32> = (0..scores.len() as u32).filter(|i| i % 5 == 1).collect();
        let mut scratch = TopKScratch::default();
        // Warm the scratch with unrelated content first.
        let _ = top_n_masked_with(&scores, &[], scores.len(), &mut scratch);
        let shared = top_n_masked_with(&scores, &mask, n, &mut scratch).to_vec();
        prop_assert_eq!(shared, top_n_masked(&scores, &mask, n));
    }

    /// t-test symmetry: swapping the samples negates t and keeps p.
    #[test]
    fn t_test_antisymmetric(
        diffs in proptest::collection::vec(-0.5f64..0.5, 3..20),
    ) {
        let a: Vec<f64> = diffs.iter().map(|d| 0.5 + d).collect();
        let b = vec![0.5; a.len()];
        let fwd = paired_t_test(&a, &b);
        let rev = paired_t_test(&b, &a);
        if fwd.t.is_finite() {
            prop_assert!((fwd.t + rev.t).abs() < 1e-9);
            prop_assert!((fwd.p - rev.p).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&fwd.p));
        }
    }
}

/// The selection as it was before it became one pass, kept as the oracle:
/// materialise every unmasked `(index, score)` pair, `select_nth` under the
/// canonical (score descending, index ascending) order, sort the head.
fn oracle_top_n_masked(scores: &[f32], mask: &[u32], n: usize) -> Vec<u32> {
    let mut ranked: Vec<(u32, f32)> = scores
        .iter()
        .copied()
        .enumerate()
        .map(|(j, s)| (j as u32, s))
        .filter(|(j, _)| mask.binary_search(j).is_err())
        .collect();
    let canon = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let n = n.min(ranked.len());
    if n > 0 {
        ranked.select_nth_unstable_by(n - 1, canon);
        ranked[..n].sort_unstable_by(canon);
    }
    ranked[..n].iter().map(|&(j, _)| j).collect()
}

/// Score rows that stress a running floor: heavy ties (at most four distinct
/// values, so the index tie-break decides nearly everything), the values
/// `total_cmp` orders specially, and sorted rows — ascending is the worst
/// case (every score clears the floor), descending the best (none does).
fn oracle_rows(gen: &mut Gen, len: usize) -> Vec<(&'static str, Vec<f32>)> {
    const SPECIAL: [f32; 8] =
        [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.5, -1.5];
    let mut draw = |values: &[f32]| -> Vec<f32> {
        (0..len).map(|_| values[gen.below(values.len() as u64) as usize]).collect()
    };
    let mut rows = vec![
        ("one value", draw(&[0.25])),
        ("two values", draw(&[0.25, -3.0])),
        ("four values", draw(&[0.25, -3.0, 7.5, 0.0])),
        ("nan/inf/zeros", draw(&SPECIAL)),
    ];
    let distinct: Vec<f32> = (0..len).map(|j| j as f32 * 0.5 - 3.0).collect();
    rows.push(("ascending", distinct.clone()));
    rows.push(("descending", distinct.iter().rev().copied().collect()));
    let mut tied = draw(&[0.25, -3.0, 7.5, 0.0]);
    tied.sort_by(f32::total_cmp);
    rows.push(("ascending with ties", tied.clone()));
    tied.reverse();
    rows.push(("descending with ties", tied));
    rows.push(("uniform", (0..len).map(|_| gen.unit_f64() as f32 * 20.0 - 10.0).collect()));
    rows.extend(seam_rows(len));
    rows
}

/// Rows built against the chunked floor test (chunks of 16 scores): the
/// first 32 scores all equal a floor value, so a floor exists by the third
/// chunk for every cutoff up to 16; every later score is below it — a chunk
/// the test may skip whole — except one hidden score at the start or end of
/// the third chunk or at the end of the row (a ragged last chunk at most
/// lengths). The hidden score is one only the per-element `total_cmp` test
/// gets right: `+0.0` under a `-0.0` floor (IEEE-equal, yet it outranks the
/// floor), a NaN (unordered, yet it outranks every number), or a score equal
/// to the floor (it loses the index tie-break and must be dropped).
fn seam_rows(len: usize) -> Vec<(&'static str, Vec<f32>)> {
    let cases = [
        ("+0 hidden under a -0 floor", -0.0f32, -1.0f32, 0.0f32),
        ("NaN hidden under the floor", 2.5, 0.5, f32::NAN),
        ("floor value hidden under the floor", 2.5, 0.5, 2.5),
    ];
    let mut at: Vec<usize> =
        [32, 47, len.saturating_sub(1)].into_iter().filter(|&p| (32..len).contains(&p)).collect();
    at.dedup();
    let mut rows = Vec::new();
    for (shape, floor, below, hidden) in cases {
        for &p in &at {
            let mut row: Vec<f32> = (0..len).map(|j| if j < 32 { floor } else { below }).collect();
            row[p] = hidden;
            rows.push((shape, row));
        }
    }
    rows
}

/// The one-pass selection returns the oracle's list, element for element,
/// on every combination of row shape, mask shape and cutoff — including the
/// masks a bounded buffer gets wrong if it admits masked candidates and
/// filters them at the end (a mask over exactly the head starves the list),
/// and the [`seam_rows`] a chunked floor test gets wrong if it skips a chunk
/// on anything weaker than IEEE `s < floor` for every score.
#[test]
fn one_pass_selection_matches_the_materialising_oracle() {
    let mut gen = Gen::new(0x5e1ec7);
    let mut scratch = TopKScratch::default();
    let mut compared = 0usize;
    // Around the 16-score chunk of the floor test (whole, one short, one
    // over, and a ragged last chunk), and the lengths from before it.
    for len in [0usize, 1, 2, 3, 9, 15, 16, 17, 31, 32, 33, 40, 100, 257] {
        for (shape, scores) in oracle_rows(&mut gen, len) {
            let all: Vec<u32> = (0..len as u32).collect();
            let mut masks: Vec<(&str, Vec<u32>)> = vec![
                ("empty", Vec::new()),
                ("everything", all.clone()),
                ("random third", all.iter().copied().filter(|_| gen.below(3) == 0).collect()),
                ("all but one", all.iter().copied().filter(|&j| j as usize != len / 2).collect()),
            ];
            for head in [1usize, 4, 10] {
                let mut best = oracle_top_n_masked(&scores, &[], head);
                best.sort_unstable();
                masks.push(("exactly the head", best));
            }
            for (mask_shape, mask) in &masks {
                let unmasked = len - mask.len();
                for n in [0, 1, 4, 10, unmasked, unmasked + 5, len] {
                    let want = oracle_top_n_masked(&scores, mask, n);
                    let got = top_n_masked_with(&scores, mask, n, &mut scratch);
                    assert_eq!(
                        got, want,
                        "len={len} scores={shape} mask={mask_shape} n={n}\nscores={scores:?}\nmask={mask:?}"
                    );
                    assert_eq!(got.len(), n.min(unmasked));
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 3000, "the sweep shrank to {compared} cases");
}

/// `n == 0` asks for nothing and gets it, whatever the scratch held before.
#[test]
fn zero_cutoff_is_empty() {
    let scores = [3.0f32, 1.0, 2.0];
    let mut scratch = TopKScratch::default();
    assert_eq!(top_n_masked_with(&scores, &[], 3, &mut scratch), &[0, 2, 1]);
    assert!(top_n_masked_with(&scores, &[], 0, &mut scratch).is_empty());
    assert!(top_n_masked_with(&scores, &[1], 0, &mut scratch).is_empty());
    assert!(top_n_masked(&[], &[], 0).is_empty());
}

/// The doc requires a strictly ascending mask; debug builds now check it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "strictly ascending")]
fn unsorted_mask_is_caught_in_debug_builds() {
    let _ = top_n_masked(&[1.0, 2.0, 3.0], &[2, 0], 1);
}
