//! RippleNet baseline (Wang et al. 2018): propagating user preferences over
//! the knowledge graph rooted at the user's history.
//!
//! In the tag-enhanced setting the 1-hop ripple set of a user is the set of
//! tags attached to her training items. For a candidate item `v`, attention
//! `softmax_t(v · t)` over the ripple set produces a preference read-out
//! `o_u(v)`, and the score is `(u + o_u(v)) · v` — preference mass flows from
//! history through KG links toward the candidate, RippleNet's defining
//! mechanism. Simplification: one hop with fixed-size sampled ripple sets
//! (the original uses 2–3 hops with sampled sets of the same flavor).

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{xavier_uniform, Csr, ParamId, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{bpr_loss, EmbeddingCore, EpochStats, RecModel, Scorer, TrainConfig};

/// Ripple-set size sampled per user per step.
const RIPPLE: usize = 8;
/// Ripple-set cap used at evaluation time.
const EVAL_RIPPLE: usize = 16;

/// RippleNet-style preference propagation recommender.
pub struct RippleNet {
    core: EmbeddingCore,
    cfg: TrainConfig,
    sampler: BprSampler,
    tag_emb: ParamId,
    /// Per-user candidate ripple tags (tags of the user's training items).
    user_tags: Vec<Vec<u32>>,
    n_items: usize,
}

impl RippleNet {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let tag_emb = core.store.add("tag_emb", xavier_uniform(data.n_tags(), cfg.dim, rng));
        core.rebuild_optimizer();
        let ut = data.train.forward().matmul_csr(data.item_tag.forward());
        let user_tags: Vec<Vec<u32>> =
            (0..data.n_users()).map(|u| ut.row_indices(u).to_vec()).collect();
        Self {
            core,
            cfg,
            sampler: BprSampler::for_user_items(data),
            tag_emb,
            user_tags,
            n_items: data.n_items(),
        }
    }

    /// Samples a fixed-size ripple set for each batch user (with
    /// replacement; users without tags fall back to tag 0, which contributes
    /// a constant read-out).
    fn sample_ripples(&self, users: &[u32], rng: &mut impl Rng) -> Vec<u32> {
        let mut flat = Vec::with_capacity(users.len() * RIPPLE);
        for &u in users {
            let tags = &self.user_tags[u as usize];
            for _ in 0..RIPPLE {
                flat.push(if tags.is_empty() { 0 } else { tags[rng.gen_range(0..tags.len())] });
            }
        }
        flat
    }

    /// Attention read-out `o_u(v)` on the tape: `[B, d]`.
    fn readout(&self, tape: &mut Tape, ripple_tags: &[u32], v: Var, b: usize) -> Var {
        let t_emb = tape.gather(&self.core.store, self.tag_emb, ripple_tags); // [B*R, d]
                                                                              // Repeat each candidate item embedding RIPPLE times.
        let rep_ids: Vec<u32> =
            (0..b as u32).flat_map(|i| std::iter::repeat_n(i, RIPPLE)).collect();
        let v_rep = tape.gather_rows(v, &rep_ids); // [B*R, d]
        let logits = tape.rowwise_dot(t_emb, v_rep); // [B*R, 1]
        let logits = tape.reshape(logits, b, RIPPLE);
        let att = tape.softmax_rows(logits);
        let att_flat = tape.reshape(att, b * RIPPLE, 1);
        let weighted = tape.mul_col_vec(t_emb, att_flat); // [B*R, d]
                                                          // Block-sum back to [B, d].
        let block = block_sum_csr(b, RIPPLE);
        let block_t = Rc::new(block.transpose());
        tape.spmm(&Rc::new(block), &block_t, weighted)
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let b = batch.len();
        let ripples = self.sample_ripples(&batch.anchors, rng);
        let mut tape = Tape::new();
        let u = tape.gather(&self.core.store, self.core.user_emb, &batch.anchors);
        let vp = tape.gather(&self.core.store, self.core.item_emb, &batch.positives);
        let vn = tape.gather(&self.core.store, self.core.item_emb, &batch.negatives);
        let op = self.readout(&mut tape, &ripples, vp, b);
        let on = self.readout(&mut tape, &ripples, vn, b);
        let up = tape.add(u, op);
        let un = tape.add(u, on);
        let sp = tape.rowwise_dot(up, vp);
        let sn = tape.rowwise_dot(un, vn);
        let loss = bpr_loss(&mut tape, sp, sn);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

/// `[b, b*r]` CSR summing each block of `r` consecutive rows.
fn block_sum_csr(b: usize, r: usize) -> Csr {
    let triplets: Vec<(u32, u32, f32)> = (0..b as u32)
        .flat_map(|i| (0..r as u32).map(move |j| (i, i * r as u32 + j, 1.0)))
        .collect();
    Csr::from_triplets(b, b * r, &triplets)
}

impl RecModel for RippleNet {
    fn name(&self) -> String {
        "RippleNet".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        let batches = self.sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn scorer(&self) -> Scorer<'_> {
        Box::new(move |users| {
            let ue = self.core.store.value(self.core.user_emb);
            let ve = self.core.store.value(self.core.item_emb);
            let te = self.core.store.value(self.tag_emb);
            let d = self.core.dim;
            let mut out = Tensor::zeros(users.len(), self.n_items);
            for (row, &u) in users.iter().enumerate() {
                let tags: Vec<u32> =
                    self.user_tags[u as usize].iter().copied().take(EVAL_RIPPLE).collect();
                let urow = ue.row(u as usize);
                if tags.is_empty() {
                    // Pure dot-product fallback.
                    for j in 0..self.n_items {
                        let s: f32 = urow.iter().zip(ve.row(j)).map(|(a, b)| a * b).sum();
                        out.set(row, j, s);
                    }
                    continue;
                }
                let mut t_sel = Tensor::zeros(tags.len(), d);
                for (i, &t) in tags.iter().enumerate() {
                    t_sel.row_mut(i).copy_from_slice(te.row(t as usize));
                }
                // [n_items, |T|] attention logits, softmax per item row.
                let mut logits = ve.matmul_nt(&t_sel);
                for j in 0..self.n_items {
                    let rowj = logits.row_mut(j);
                    let m = rowj.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
                    let mut s = 0.0;
                    for x in rowj.iter_mut() {
                        *x = (*x - m).exp();
                        s += *x;
                    }
                    for x in rowj.iter_mut() {
                        *x /= s;
                    }
                }
                let o = logits.matmul(&t_sel); // [n_items, d]
                for j in 0..self.n_items {
                    let s: f32 = urow
                        .iter()
                        .zip(o.row(j))
                        .zip(ve.row(j))
                        .map(|((&uu, &oo), &vv)| (uu + oo) * vv)
                        .sum();
                    out.set(row, j, s);
                }
            }
            out
        })
    }

    fn num_params(&self) -> usize {
        self.core.store.num_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_split, training_improves_recall};
    use rand::SeedableRng;

    #[test]
    fn block_sum_csr_sums_blocks() {
        let c = block_sum_csr(2, 3);
        let x = Tensor::from_vec(6, 1, vec![1., 2., 3., 10., 20., 30.]);
        let y = c.spmm(&x);
        assert_eq!(y.as_slice(), &[6., 60.]);
    }

    #[test]
    fn loss_decreases() {
        let data = tiny_split(101);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = RippleNet::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..20 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(102);
        let mut rng = StdRng::seed_from_u64(0);
        let model = RippleNet::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn every_user_has_ripple_candidates() {
        let data = tiny_split(103);
        let mut rng = StdRng::seed_from_u64(0);
        let model = RippleNet::new(&data, TrainConfig::default(), &mut rng);
        let with_tags = model.user_tags.iter().filter(|t| !t.is_empty()).count();
        assert!(with_tags as f64 > 0.95 * data.n_users() as f64);
    }
}
