//! Intent-aware Representation Modeling (paper §IV-A).
//!
//! User and item embeddings are *viewed* as `K` concatenated sub-embeddings
//! (Eq. 3) — column slices of the `d`-dimensional tables, so the parameter
//! count matches intent-unaware baselines. The semantic meaning of intent `k`
//! is pinned by tag cluster `k`, learned end-to-end: a Student-t soft
//! assignment `Q` of tags to learnable cluster centers (Eq. 4), a sharpened
//! target distribution `Q̂` (Eq. 5), and a KL self-supervision loss (Eq. 6).
//!
//! `Q` has one implementation, [`soft_assignment`] on the autodiff tape. The
//! training step takes `Q̂` from the value of the same node it differentiates,
//! and the periodic hard-assignment refresh runs it on a throwaway tape, so
//! the clusters the model trains against and the ones it refreshes to come
//! from one function.

use imcat_tensor::{Tape, Tensor, Var};
use rand::Rng;

/// Student-t soft assignment `Q` on the tape (differentiable w.r.t. both tag
/// embeddings and centers). `tags` is `[T, d]`, `centers` `[K, d]`; the
/// result is `[T, K]` with rows on the simplex (Eq. 4).
pub fn soft_assignment(tape: &mut Tape, tags: Var, centers: Var, eta: f32) -> Var {
    let d2 = tape.sq_dist(tags, centers);
    let scaled = tape.scale(d2, 1.0 / eta);
    let base = tape.add_scalar(scaled, 1.0);
    let q_un = tape.powf(base, -(eta + 1.0) / 2.0);
    tape.row_normalize(q_un)
}

/// Sharpened target distribution `Q̂` (Eq. 5). Treated as a constant during
/// back-propagation, as in the paper's self-training scheme.
#[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
pub fn target_distribution(q: &Tensor) -> Tensor {
    let (t, k) = q.shape();
    // f_k = Σ_l Q_lk (cluster soft frequencies).
    let mut f = vec![0f32; k];
    for l in 0..t {
        for (j, fj) in f.iter_mut().enumerate() {
            *fj += q.get(l, j);
        }
    }
    let mut out = Tensor::zeros(t, k);
    for l in 0..t {
        let mut sum = 0.0;
        for j in 0..k {
            let v = if f[j] > 0.0 { q.get(l, j) * q.get(l, j) / f[j] } else { 0.0 };
            out.set(l, j, v);
            sum += v;
        }
        if sum > 0.0 {
            for j in 0..k {
                let v = out.get(l, j) / sum;
                out.set(l, j, v);
            }
        }
    }
    out
}

/// `KL(Q̂ ‖ Q)` on the tape with `Q̂` constant (Eq. 6). The returned scalar
/// includes the constant `Σ Q̂ ln Q̂` term so its *value* is the true KL,
/// while gradients flow only through `ln Q`.
pub fn kl_loss(tape: &mut Tape, q: Var, target: &Tensor) -> Var {
    assert_eq!(tape.value(q).shape(), target.shape(), "KL shape mismatch");
    let entropy: f32 =
        target.as_slice().iter().map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 }).sum();
    let lnq = tape.ln(q, 1e-12);
    let tgt = tape.constant(target.clone());
    let cross = tape.mul(tgt, lnq);
    let s = tape.sum_all(cross);
    let neg = tape.neg(s);
    tape.add_scalar(neg, entropy)
}

/// Hard cluster index per tag: `argmax_k Q_lk`.
pub fn hard_assignment(q: &Tensor) -> Vec<usize> {
    (0..q.rows())
        .map(|l| {
            q.row(l)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, _)| k)
                .unwrap_or(0)
        })
        .collect()
}

/// Lloyd k-means over tag embeddings, used to initialize the cluster centers
/// when the clustering phase activates (after pre-training).
///
/// Delegates to the workspace-shared implementation in `imcat-ann` — the same
/// routine that trains the IVF coarse quantizer for serving — so the intent
/// clustering and the retrieval index can never drift apart. The shared
/// routine preserves this function's historical RNG draw sequence and
/// accumulation orders bit-exactly (checkpoints from earlier versions resume
/// unchanged).
pub fn kmeans_centers(tags: &Tensor, k: usize, iters: usize, rng: &mut impl Rng) -> Tensor {
    imcat_ann::kmeans_centers(tags, k, iters, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_tensor::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clustered_tags(rng: &mut StdRng) -> Tensor {
        // Two well-separated blobs of 5 tags each in 3-D.
        let mut t = Tensor::zeros(10, 3);
        let noise = normal(10, 3, 0.05, rng);
        for i in 0..10 {
            let center = if i < 5 { [3.0, 0.0, 0.0] } else { [-3.0, 0.0, 0.0] };
            for (j, (o, &n)) in t.row_mut(i).iter_mut().zip(noise.row(i)).enumerate() {
                *o = center[j] + n;
            }
        }
        t
    }

    #[test]
    fn soft_assignment_rows_are_simplex() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let tags = tape.constant(clustered_tags(&mut rng));
        let centers = tape.constant(Tensor::from_vec(2, 3, vec![3.0, 0.0, 0.0, -3.0, 0.0, 0.0]));
        let q = soft_assignment(&mut tape, tags, centers, 1.0);
        let q = tape.value(q);
        for l in 0..10 {
            let s: f32 = q.row(l).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Blob membership recovered.
        let hard = hard_assignment(q);
        assert!(hard[..5].iter().all(|&k| k == 0));
        assert!(hard[5..].iter().all(|&k| k == 1));
    }

    #[test]
    fn target_sharpens_assignments() {
        // Balanced clusters: sharpening dominates.
        let q = Tensor::from_vec(2, 2, vec![0.7, 0.3, 0.3, 0.7]);
        let t = target_distribution(&q);
        for l in 0..2 {
            let s: f32 = t.row(l).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(t.get(0, 0) > q.get(0, 0));
        assert!(t.get(1, 1) > q.get(1, 1));
    }

    #[test]
    fn target_balances_cluster_frequencies() {
        // Eq. 5 divides by soft cluster frequencies: mass assigned to an
        // over-popular cluster is *reduced*, preventing collapse.
        let q = Tensor::from_vec(2, 2, vec![0.7, 0.3, 0.6, 0.4]);
        let t = target_distribution(&q);
        // Cluster 0 holds most soft mass (1.3 vs 0.7); the weaker row's
        // cluster-0 share must shrink.
        assert!(t.get(1, 0) < q.get(1, 0));
    }

    #[test]
    fn kl_is_zero_iff_equal() {
        let q = Tensor::from_vec(2, 2, vec![0.5, 0.5, 0.2, 0.8]);
        let mut tape = Tape::new();
        let qv = tape.constant(q.clone());
        let kl_same = kl_loss(&mut tape, qv, &q);
        assert!(tape.value(kl_same).item().abs() < 1e-5);
        let other = Tensor::from_vec(2, 2, vec![0.9, 0.1, 0.5, 0.5]);
        let qv2 = tape.constant(q);
        let kl_diff = kl_loss(&mut tape, qv2, &other);
        assert!(tape.value(kl_diff).item() > 0.01);
    }

    #[test]
    fn kl_training_pulls_tags_toward_targets() {
        // Minimizing KL(Q̂ ‖ Q) against a *fixed* target must reduce the KL.
        use imcat_tensor::{Adam, AdamConfig, ParamStore};
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let tags = store.add("tags", normal(8, 3, 1.0, &mut rng));
        let centers = store.add("centers", normal(2, 3, 1.0, &mut rng));
        let target = {
            let mut tape = Tape::new();
            let tv = tape.leaf(&store, tags);
            let cv = tape.leaf(&store, centers);
            let q0 = soft_assignment(&mut tape, tv, cv, 1.0);
            target_distribution(tape.value(q0))
        };
        let cfg = AdamConfig { lr: 0.05, weight_decay: 0.0, ..Default::default() };
        let mut adam = Adam::new(cfg, &store);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let tv = tape.leaf(&store, tags);
            let cv = tape.leaf(&store, centers);
            let q = soft_assignment(&mut tape, tv, cv, 1.0);
            let loss = kl_loss(&mut tape, q, &target);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        assert!(last < first.unwrap() * 0.5, "KL did not decrease: {first:?} -> {last}");
    }

    #[test]
    fn kmeans_recovers_blobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let tags = clustered_tags(&mut rng);
        let centers = kmeans_centers(&tags, 2, 10, &mut rng);
        // One center near +3, one near -3 on the first axis.
        let mut xs: Vec<f32> = (0..2).map(|j| centers.get(j, 0)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        assert!(xs[0] < -2.0, "centers: {xs:?}");
        assert!(xs[1] > 2.0, "centers: {xs:?}");
    }
}
