//! Ranking metrics: Recall@N and NDCG@N under the paper's protocol (§V-B):
//! full ranking over all items with the user's training items masked out.
//!
//! The ranking primitive is [`top_n_masked_with`]: one pass over a score row
//! that keeps a running floor under the canonical (score descending, index
//! ascending) order, so a row of any length is selected from in O(`n`)
//! memory and nearly every score costs one lane of a branch-free
//! 16-score comparison.

use imcat_data::SplitDataset;
use imcat_tensor::Tensor;

/// Which held-out set to evaluate against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalTarget {
    /// The validation split (used for early stopping / tuning).
    Validation,
    /// The test split (used for reported numbers).
    Test,
}

/// Aggregate metrics over a user population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankingMetrics {
    /// Mean Recall@N.
    pub recall: f64,
    /// Mean NDCG@N.
    pub ndcg: f64,
    /// Number of users the means were taken over. `0` means *no* user had a
    /// held-out item (degenerate split) — the means are then defined as 0.0
    /// rather than NaN, and an `eval.empty` event is emitted so the condition
    /// is visible in telemetry instead of silently poisoning report JSON.
    pub evaluated_users: usize,
}

/// Per-user metric detail, used for paired significance tests.
#[derive(Clone, Debug, Default)]
pub struct PerUserMetrics {
    /// Evaluated user ids (users with a non-empty target set).
    pub users: Vec<u32>,
    /// Recall@N per user, parallel to `users`.
    pub recall: Vec<f64>,
    /// NDCG@N per user, parallel to `users`.
    pub ndcg: Vec<f64>,
}

impl PerUserMetrics {
    /// Aggregates into means. An empty population yields zeroed metrics with
    /// `evaluated_users == 0` (never NaN) and reports itself via telemetry.
    pub fn aggregate(&self) -> RankingMetrics {
        let n = self.users.len();
        if n == 0 {
            if imcat_obs::enabled() {
                imcat_obs::counter_add("eval.empty", 1);
                imcat_obs::emit("eval.empty", Vec::new());
            }
            return RankingMetrics::default();
        }
        RankingMetrics {
            recall: self.recall.iter().sum::<f64>() / n as f64,
            ndcg: self.ndcg.iter().sum::<f64>() / n as f64,
            evaluated_users: n,
        }
    }
}

fn held_out(data: &SplitDataset, target: EvalTarget, u: usize) -> &[u32] {
    match target {
        EvalTarget::Validation => &data.val[u],
        EvalTarget::Test => &data.test[u],
    }
}

/// Declarative description of one evaluation run, replacing the old
/// positional `(n, target)` argument pairs (and their same-typed-args-in-the-
/// wrong-order hazards) with named fields and builder methods:
///
/// ```
/// use imcat_eval::EvalSpec;
/// let spec = EvalSpec::at(20).validation();
/// let cold = EvalSpec::at(10).users(vec![3, 7, 11]);
/// ```
#[derive(Clone, Debug)]
pub struct EvalSpec {
    /// Ranking cutoff `N` for Recall@N / NDCG@N.
    pub k: usize,
    /// Which held-out split supplies the ground truth.
    pub target: EvalTarget,
    /// Restrict evaluation to this user subset (`None` = all users). Users
    /// without a held-out item in `target` are skipped either way.
    pub users: Option<Vec<u32>>,
    /// Mask each user's training items out of the ranking (the paper's
    /// protocol). Disable only for diagnostics.
    pub mask_train: bool,
}

impl Default for EvalSpec {
    fn default() -> Self {
        Self { k: 20, target: EvalTarget::Test, users: None, mask_train: true }
    }
}

impl EvalSpec {
    /// Test-split evaluation at cutoff `k` with training items masked.
    pub fn at(k: usize) -> Self {
        Self { k, ..Self::default() }
    }

    /// Evaluates against the validation split.
    pub fn validation(mut self) -> Self {
        self.target = EvalTarget::Validation;
        self
    }

    /// Evaluates against the test split.
    pub fn test(mut self) -> Self {
        self.target = EvalTarget::Test;
        self
    }

    /// Restricts evaluation to a user subset (e.g. a cold-start group).
    pub fn users(mut self, users: Vec<u32>) -> Self {
        self.users = Some(users);
        self
    }

    /// Ranks over *all* items, training interactions included.
    pub fn unmasked(mut self) -> Self {
        self.mask_train = false;
        self
    }

    /// The items ranked out of user `u`'s list: their training items, or
    /// none when unmasked.
    fn mask<'a>(&self, data: &'a SplitDataset, u: u32) -> &'a [u32] {
        if self.mask_train {
            data.train_items(u as usize)
        } else {
            &[]
        }
    }

    fn select_users(&self, data: &SplitDataset) -> Vec<u32> {
        let nonempty = |u: u32| !held_out(data, self.target, u as usize).is_empty();
        match &self.users {
            Some(sel) => sel.iter().copied().filter(|&u| nonempty(u)).collect(),
            None => (0..data.n_users() as u32).filter(|&u| nonempty(u)).collect(),
        }
    }
}

/// Reusable ranking buffers. One scratch per worker lets a stream of users be
/// ranked without any per-user allocation; reuse never changes results — the
/// selection runs on identical contents regardless of buffer history. The
/// buffers hold O(`n`) entries, not one per scored item.
#[derive(Default)]
pub struct TopKScratch {
    ranked: Vec<(u32, f32)>,
    top: Vec<u32>,
}

/// Scores [`top_n_masked_with`] tests against its floor in one go.
const FLOOR_CHUNK: usize = 16;

/// Whether every score in `chunk` is IEEE-less than `floor`, with no branch
/// per score (the fixed width lets it compile to a few vector compares).
///
/// IEEE `s < f` holds only when neither side is NaN and `s` is numerically
/// below `f` — never for `+0.0` against `-0.0` — and then `total_cmp` puts
/// `s` below `f` as well. So every score of a chunk this accepts is one the
/// per-element floor test would have dropped.
#[inline]
fn all_below(chunk: &[f32; FLOOR_CHUNK], floor: f32) -> bool {
    chunk.iter().fold(true, |all, &s| all & (s < floor))
}

/// The top-`n` unmasked item indices of one score row, reusing `scratch`.
/// `mask` must be strictly ascending (training-item lists are).
///
/// Ranking uses the *canonical* order (score descending, then index
/// ascending): a strict total order with no ties, so the selected head is a
/// pure function of the `(index, score)` candidate *set* — independent of
/// candidate enumeration order, and monotone under supersets: any candidate
/// subset that contains the canonical head selects exactly that head. This
/// is what lets distributed rankers (per-shard top-K in `imcat-net`, ANN
/// shortlists) re-rank a union of partial results bit-identically to one
/// full scan.
///
/// The same property makes the selection one pass with a running *floor*.
/// Unmasked candidates collect in a buffer of `2n` entries; when it fills,
/// `select_nth` cuts it back to its best `n` and the worst of those becomes
/// the floor. From then on `n` unmasked candidates are known to outrank
/// anything at or below the floor, so such a score cannot make the head and
/// is dropped on one comparison — it is never stored, and the mask is
/// consulted only for the few scores that clear the floor. Dropping a
/// candidate that is not in the head leaves a set that still contains the
/// head, so the list is the one a full sort would give.
///
/// Once a floor exists, the row is tested 16 scores at a time, with no
/// branch per score: a chunk whose every score is IEEE-less than the floor
/// is dropped whole, since each of those scores is one the per-element
/// `total_cmp` test would drop (and the floor only rises). A chunk holding a
/// survivor, a NaN, a score equal to the floor or a `+0.0` over a `-0.0`
/// floor — and a ragged last chunk — goes through the per-element test
/// unchanged. On a random 100k-score row (k = 10, one thread) that took the
/// selection from 64–80 µs to 14 µs. The worst case is an ascending row,
/// where every chunk has a survivor and each score pays one extra compare:
/// 1.56 ms against 1.51 ms (medians of seven, +3 %), nearly all of it the
/// buffer cuts.
pub fn top_n_masked_with<'a>(
    scores: &[f32],
    mask: &[u32],
    n: usize,
    scratch: &'a mut TopKScratch,
) -> &'a [u32] {
    debug_assert!(mask.windows(2).all(|w| w[0] < w[1]), "mask must be strictly ascending");
    let TopKScratch { ranked, top } = scratch;
    ranked.clear();
    top.clear();
    if n == 0 {
        return top;
    }
    let canon = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    let full = n.saturating_mul(2);
    // Indices ascend, so a later score that merely equals the floor's loses
    // the index tie-break: clearing the floor means a strictly greater score.
    let mut floor: Option<f32> = None;
    for (c, chunk) in scores.chunks(FLOOR_CHUNK).enumerate() {
        if let (Some(f), Ok(whole)) = (floor, <&[f32; FLOOR_CHUNK]>::try_from(chunk)) {
            if all_below(whole, f) {
                continue;
            }
        }
        for (off, &s) in chunk.iter().enumerate() {
            let j = c * FLOOR_CHUNK + off;
            if floor.is_some_and(|f| s.total_cmp(&f).is_le())
                || mask.binary_search(&(j as u32)).is_ok()
            {
                continue;
            }
            ranked.push((j as u32, s));
            if ranked.len() == full {
                ranked.select_nth_unstable_by(n - 1, canon);
                ranked.truncate(n);
                floor = Some(ranked[n - 1].1);
            }
        }
    }
    // Exact ordering of the head, under the same tie-free comparator.
    if ranked.len() > n {
        ranked.select_nth_unstable_by(n - 1, canon);
        ranked.truncate(n);
    }
    ranked.sort_unstable_by(canon);
    top.extend(ranked.iter().map(|&(j, _)| j));
    top
}

/// The top-`n` unmasked item indices of one score row (allocating
/// convenience wrapper over [`top_n_masked_with`]).
pub fn top_n_masked(scores: &[f32], mask: &[u32], n: usize) -> Vec<u32> {
    let mut scratch = TopKScratch::default();
    top_n_masked_with(scores, mask, n, &mut scratch).to_vec()
}

/// Users scored per `score_fn` call: bounds the score matrix held at once.
const SCORE_CHUNK: usize = 256;

/// Users one worker ranks per slice of the fan-out.
const RANK_SLICE: usize = 32;

/// The one ranking pass behind every metric of this crate: ranks each of
/// the spec's users (those with a held-out item in `spec.target`) under the
/// paper's protocol and hands `fold(user, top, truth)` the user's top-`k`
/// list and held-out items, in user order.
///
/// `score_fn(users)` must return `[users.len(), n_items]` relevance scores;
/// users are scored in chunks to bound peak memory. Scoring stays on the
/// calling thread (`score_fn` is `FnMut`); the per-user ranking fans out,
/// each user into its own slot, so every top list — and every fold over
/// them — is thread-count independent.
///
/// Non-finite scores outside the mask (a diverged model) still rank, under
/// `total_cmp`; the pass counts them into `guard.nonfinite_score` and emits
/// one `nonfinite_scores` event, so the divergence shows in telemetry.
pub(crate) fn rank_users(
    score_fn: &mut dyn FnMut(&[u32]) -> Tensor,
    data: &SplitDataset,
    spec: &EvalSpec,
    mut fold: impl FnMut(u32, &[u32], &[u32]),
) {
    let users = spec.select_users(data);
    let pool = imcat_par::global();
    // One (top list, non-finite count) slot per user of a chunk, reused
    // across chunks.
    let mut ranked: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut nonfinite = 0u64;
    for chunk in users.chunks(SCORE_CHUNK) {
        let scores = score_fn(chunk);
        assert_eq!(scores.rows(), chunk.len());
        ranked.resize_with(chunk.len(), Default::default);
        pool.parallel_chunks_mut(&mut ranked, RANK_SLICE, |ci, slots| {
            // One scratch per worker slice: every user in it reuses the same
            // ranking buffers instead of allocating fresh ones.
            let mut scratch = TopKScratch::default();
            for (off, (top, bad)) in slots.iter_mut().enumerate() {
                let i = ci * RANK_SLICE + off;
                let mask = spec.mask(data, chunk[i]);
                let row = scores.row(i);
                *bad = nonfinite_unmasked(row, mask);
                top.clear();
                top.extend_from_slice(top_n_masked_with(row, mask, spec.k, &mut scratch));
            }
        });
        for (&u, (top, bad)) in chunk.iter().zip(&ranked) {
            nonfinite += bad;
            fold(u, top, held_out(data, spec.target, u as usize));
        }
    }
    if nonfinite > 0 && imcat_obs::enabled() {
        imcat_obs::counter_add("guard.nonfinite_score", nonfinite);
        imcat_obs::emit(
            "nonfinite_scores",
            vec![("elements", imcat_obs::Json::Num(nonfinite as f64))],
        );
    }
}

/// Non-finite scores outside `mask`. Only a non-finite score is looked up
/// in the mask, so a finite row costs one test per score.
fn nonfinite_unmasked(scores: &[f32], mask: &[u32]) -> u64 {
    let outside = |j: usize| mask.binary_search(&(j as u32)).is_err();
    scores.iter().enumerate().filter(|&(j, s)| !s.is_finite() && outside(j)).count() as u64
}

/// One user's Recall@`n` and NDCG@`n` from their top list.
pub(crate) fn recall_ndcg(top: &[u32], truth: &[u32], n: usize) -> (f64, f64) {
    let mut hits = 0usize;
    let mut dcg = 0.0f64;
    for (rank, j) in top.iter().enumerate() {
        if truth.contains(j) {
            hits += 1;
            dcg += 1.0 / ((rank + 2) as f64).log2();
        }
    }
    let ideal: f64 = (0..truth.len().min(n)).map(|r| 1.0 / ((r + 2) as f64).log2()).sum();
    (hits as f64 / truth.len() as f64, if ideal > 0.0 { dcg / ideal } else { 0.0 })
}

/// Per-user Recall@N and NDCG@N for every selected user with a non-empty
/// target set (see [`EvalSpec`]); `score_fn` as for the ranking pass.
pub fn evaluate_per_user(
    score_fn: &mut dyn FnMut(&[u32]) -> Tensor,
    data: &SplitDataset,
    spec: &EvalSpec,
) -> PerUserMetrics {
    let mut out = PerUserMetrics::default();
    rank_users(score_fn, data, spec, |u, top, truth| {
        let (recall, ndcg) = recall_ndcg(top, truth, spec.k);
        out.users.push(u);
        out.recall.push(recall);
        out.ndcg.push(ndcg);
    });
    out
}

/// Aggregate Recall@N / NDCG@N.
pub fn evaluate(
    score_fn: &mut dyn FnMut(&[u32]) -> Tensor,
    data: &SplitDataset,
    spec: &EvalSpec,
) -> RankingMetrics {
    evaluate_per_user(score_fn, data, spec).aggregate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_data::Dataset;
    use imcat_tensor::Csr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One user, ten items; items 0..7 in train-candidates, test = {3, 5}.
    fn fixed_split() -> SplitDataset {
        let ui = Csr::from_adjacency(1, 10, &[(0..10).collect()]);
        let it = Csr::from_adjacency(10, 2, &(0..10).map(|i| vec![i % 2]).collect::<Vec<_>>());
        let d = Dataset::new("fixed", ui, it);
        let mut rng = StdRng::seed_from_u64(0);
        d.split((0.7, 0.1, 0.2), &mut rng)
    }

    #[test]
    fn perfect_scores_give_perfect_metrics() {
        let data = fixed_split();
        let test_items = data.test[0].clone();
        let mut score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 10);
            for r in 0..users.len() {
                for &j in &test_items {
                    t.set(r, j as usize, 10.0);
                }
            }
            t
        };
        let m = evaluate(&mut score_fn, &data, &EvalSpec::at(5));
        assert!((m.recall - 1.0).abs() < 1e-9);
        assert!((m.ndcg - 1.0).abs() < 1e-9);
        assert_eq!(m.evaluated_users, 1);
    }

    /// Regression: aggregating an empty population (every user filtered out,
    /// e.g. a degenerate cold-start split) must yield zeroed metrics with
    /// `evaluated_users == 0`, never NaN.
    #[test]
    fn empty_population_aggregates_to_zero_not_nan() {
        let empty = PerUserMetrics::default();
        let m = empty.aggregate();
        assert!(!m.recall.is_nan() && !m.ndcg.is_nan());
        assert_eq!(m, RankingMetrics::default());
        assert_eq!(m.evaluated_users, 0);

        // End-to-end: a split where no user has a test item.
        let ui = Csr::from_adjacency(2, 6, &[vec![0, 1], vec![2, 3]]);
        let it = Csr::from_adjacency(6, 2, &(0..6).map(|i| vec![i % 2]).collect::<Vec<_>>());
        let d = Dataset::new("no-test", ui, it);
        let split = SplitDataset {
            name: d.name.clone(),
            train: d.user_item.clone(),
            val: vec![Vec::new(); 2],
            test: vec![Vec::new(); 2],
            item_tag: d.item_tag.clone(),
        };
        let mut score_fn = |users: &[u32]| Tensor::zeros(users.len(), 6);
        let m = evaluate(&mut score_fn, &split, &EvalSpec::at(5));
        assert_eq!(m.evaluated_users, 0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.ndcg, 0.0);
    }

    #[test]
    fn training_items_are_masked() {
        let data = fixed_split();
        let train = data.train_items(0).to_vec();
        // Give training items the highest scores; they must be excluded, so
        // recall depends only on the remaining ranking.
        let score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 10);
            for r in 0..users.len() {
                for &j in &train {
                    t.set(r, j as usize, 100.0);
                }
            }
            t
        };
        let top = {
            let s = score_fn(&[0]);
            top_n_masked(s.row(0), &train, 5)
        };
        for j in &top {
            assert!(!train.contains(j), "masked item {j} leaked into ranking");
        }
    }

    #[test]
    fn worst_scores_give_zero_recall() {
        let data = fixed_split();
        let test_items = data.test[0].clone();
        let mut score_fn = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 10);
            for r in 0..users.len() {
                for &j in &test_items {
                    t.set(r, j as usize, -10.0);
                }
            }
            t
        };
        // Only `n` below (candidates - test size) can exclude the test items.
        let m = evaluate(&mut score_fn, &data, &EvalSpec::at(1));
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.ndcg, 0.0);
    }

    #[test]
    fn ndcg_rewards_earlier_hits() {
        let data = fixed_split();
        let test_items = data.test[0].clone();
        let t0 = test_items[0] as usize;
        // Hit at rank 0 vs hit at the last rank. All other items get strictly
        // decreasing scores so no tie-break ambiguity can reorder the hits.
        let mut early = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 10);
            for j in 0..10 {
                t.set(0, j, -(j as f32));
            }
            t.set(0, t0, 5.0);
            t
        };
        let mut late = |users: &[u32]| {
            let mut t = Tensor::zeros(users.len(), 10);
            for j in 0..10 {
                t.set(0, j, -(j as f32));
            }
            t.set(0, t0, -100.0);
            t
        };
        let m_early = evaluate(&mut early, &data, &EvalSpec::at(8));
        let m_late = evaluate(&mut late, &data, &EvalSpec::at(8));
        assert!(m_early.ndcg > m_late.ndcg);
    }

    #[test]
    fn top_n_masked_orders_descending() {
        let scores = vec![0.1, 0.9, 0.5, 0.7, 0.3];
        let top = top_n_masked(&scores, &[], 3);
        assert_eq!(top, vec![1, 3, 2]);
        let masked = top_n_masked(&scores, &[1, 3], 3);
        assert_eq!(masked, vec![2, 4, 0]);
    }

    /// Reusing one scratch across many rankings must give exactly the same
    /// results as a fresh scratch (or the allocating wrapper) per call.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        let rows = imcat_tensor::normal(40, 25, 1.0, &mut rng);
        let mut reused = TopKScratch::default();
        for r in 0..rows.rows() {
            let mask: Vec<u32> = (0..25).filter(|j| (j + r) % 3 == 0).map(|j| j as u32).collect();
            let n = 1 + r % 12;
            let fresh = top_n_masked(rows.row(r), &mask, n);
            let shared = top_n_masked_with(rows.row(r), &mask, n, &mut reused);
            assert_eq!(fresh, shared, "row {r} diverged under scratch reuse");
        }
        // Degenerate case: everything masked -> empty list, no panic.
        let all: Vec<u32> = (0..25).collect();
        assert!(top_n_masked_with(rows.row(0), &all, 5, &mut reused).is_empty());
    }
}
