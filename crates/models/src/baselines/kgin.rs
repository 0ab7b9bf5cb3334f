//! KGIN baseline (Wang et al. 2021): learning user intents behind
//! interactions as attentive combinations of KG relations.
//!
//! In the tag-enhanced setting each tag plays the role of a KG relation.
//! KGIN's defining mechanisms preserved here:
//!
//! 1. `P` latent intents, each an attention-weighted combination of relation
//!    (tag) embeddings: `e_p = softmax(w_p) · T`.
//! 2. Intent-aware relational aggregation: items absorb their relation (tag)
//!    context, the joint user–item graph is propagated (relational path
//!    aggregation), and each user's representation receives a residual
//!    modulated by her personal intent attention `β(u, p) = softmax(u · e_p)`.
//! 3. An independence regularizer keeping intents disentangled (we use the
//!    pairwise squared-cosine penalty, one of the options in the paper).

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{xavier_uniform, Csr, ParamId, Tape, Tensor, Var};
use rand::rngs::StdRng;

use imcat_graph::joint_normalized_adjacency;

use crate::common::{bpr_loss, EmbeddingCore, EpochStats, RecModel, TrainConfig};

/// Number of latent intents (the paper's KGIN uses 4 by default).
const INTENTS: usize = 4;

/// Knowledge graph intent network.
pub struct Kgin {
    core: EmbeddingCore,
    cfg: TrainConfig,
    sampler: BprSampler,
    tag_emb: ParamId,
    intent_logits: ParamId,
    /// Mean aggregation item → tags.
    it_agg: Rc<Csr>,
    it_agg_t: Rc<Csr>,
    /// Symmetric normalized joint user–item adjacency for relational
    /// propagation.
    adj: Rc<Csr>,
    /// Weight of the intent-independence penalty.
    pub ind_weight: f32,
}

impl Kgin {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let tag_emb = core.store.add("tag_emb", xavier_uniform(data.n_tags(), cfg.dim, rng));
        let intent_logits =
            core.store.add("intent_logits", xavier_uniform(INTENTS, data.n_tags(), rng));
        core.rebuild_optimizer();
        let it = data.item_tag.row_mean_aggregator();
        let it_t = it.transpose();
        let adj = joint_normalized_adjacency(&data.train);
        Self {
            core,
            cfg,
            sampler: BprSampler::for_user_items(data),
            tag_emb,
            intent_logits,
            it_agg: Rc::new(it),
            it_agg_t: Rc::new(it_t),
            adj: Rc::new(adj),
            ind_weight: 0.1,
        }
    }

    /// Intent embeddings `[P, d]` from relation attention.
    fn intents(&self, tape: &mut Tape) -> Var {
        let logits = tape.leaf(&self.core.store, self.intent_logits);
        let att = tape.softmax_rows(logits);
        let tags = tape.leaf(&self.core.store, self.tag_emb);
        tape.matmul(att, tags)
    }

    /// Full resolved user and item representations on the tape: items absorb
    /// their relation (tag) context, the joint graph is propagated
    /// LightGCN-style (the paper's relational path aggregation), and user
    /// representations receive an intent-modulated residual.
    fn represent(&self, tape: &mut Tape) -> (Var, Var) {
        let u0 = tape.leaf(&self.core.store, self.core.user_emb);
        let v0 = tape.leaf(&self.core.store, self.core.item_emb);
        let t0 = tape.leaf(&self.core.store, self.tag_emb);
        // Items absorb relation (tag) context before propagation.
        let v_ctx = tape.spmm(&self.it_agg, &self.it_agg_t, t0);
        let v_sum = tape.add(v0, v_ctx);
        let v_init = tape.scale(v_sum, 0.5);
        // Relational path aggregation over the joint graph.
        let x0 = tape.concat_rows(&[u0, v_init]);
        let nodes = crate::common::propagate_mean(tape, &self.adj, x0, self.cfg.gnn_layers);
        let n_users = self.core.store.value(self.core.user_emb).rows();
        let n_items = self.core.store.value(self.core.item_emb).rows();
        let user_ids: Vec<u32> = (0..n_users as u32).collect();
        let item_ids: Vec<u32> = (n_users as u32..(n_users + n_items) as u32).collect();
        let u_prop = tape.gather_rows(nodes, &user_ids);
        let v = tape.gather_rows(nodes, &item_ids);
        // Intent-modulated residual on the user side.
        let e_p = self.intents(tape); // [P, d]
        let beta_logits = tape.matmul_nt(u_prop, e_p); // [U, P]
        let beta = tape.softmax_rows(beta_logits);
        let mixed_intent = tape.matmul(beta, e_p); // [U, d]
        let modulated = tape.mul(mixed_intent, u_prop);
        let modulated = tape.scale(modulated, 0.5);
        let u = tape.add(u_prop, modulated);
        (u, v)
    }

    /// Pairwise squared-cosine independence penalty over intents.
    fn independence(&self, tape: &mut Tape) -> Var {
        let e_p = self.intents(tape);
        let e_n = tape.l2_normalize_rows(e_p, 1e-12);
        let gram = tape.matmul_nt(e_n, e_n); // [P, P]
        let sq = tape.mul(gram, gram);
        let total = tape.sum_all(sq);
        // Subtract the diagonal (always P) and average the off-diagonal mass.
        let p = INTENTS as f32;
        let shifted = tape.add_scalar(total, -p);
        tape.scale(shifted, 1.0 / (p * (p - 1.0)))
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let (u_all, v_all) = self.represent(&mut tape);
        let u = tape.gather_rows(u_all, &batch.anchors);
        let vp = tape.gather_rows(v_all, &batch.positives);
        let vn = tape.gather_rows(v_all, &batch.negatives);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let cf = bpr_loss(&mut tape, sp, sn);
        let ind = self.independence(&mut tape);
        let ind = tape.scale(ind, self.ind_weight);
        let loss = tape.add(cf, ind);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }

    /// Gradient-free resolved embeddings for evaluation.
    fn represent_tensor(&self) -> (Tensor, Tensor) {
        let store = &self.core.store;
        let u0 = store.value(self.core.user_emb);
        let v0 = store.value(self.core.item_emb);
        let t0 = store.value(self.tag_emb);
        let mut v_init = self.it_agg.spmm(t0);
        v_init.add_assign(v0);
        let v_init = v_init.map(|x| x * 0.5);
        // Stack [users; items] and propagate.
        let n_users = u0.rows();
        let n_items = v_init.rows();
        let d = u0.cols();
        let mut x0 = Tensor::zeros(n_users + n_items, d);
        for r in 0..n_users {
            x0.row_mut(r).copy_from_slice(u0.row(r));
        }
        for r in 0..n_items {
            x0.row_mut(n_users + r).copy_from_slice(v_init.row(r));
        }
        let nodes = crate::common::propagate_mean_tensor(&self.adj, &x0, self.cfg.gnn_layers);
        let mut u_prop = Tensor::zeros(n_users, d);
        let mut v = Tensor::zeros(n_items, d);
        for r in 0..n_users {
            u_prop.row_mut(r).copy_from_slice(nodes.row(r));
        }
        for r in 0..n_items {
            v.row_mut(r).copy_from_slice(nodes.row(n_users + r));
        }
        // Intents.
        let logits = store.value(self.intent_logits);
        let mut att = logits.clone();
        for r in 0..att.rows() {
            let row = att.row_mut(r);
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
            let mut s = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                s += *x;
            }
            for x in row.iter_mut() {
                *x /= s;
            }
        }
        let e_p = att.matmul(t0);
        let mut beta = u_prop.matmul_nt(&e_p);
        for r in 0..beta.rows() {
            let row = beta.row_mut(r);
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
            let mut s = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                s += *x;
            }
            for x in row.iter_mut() {
                *x /= s;
            }
        }
        let mixed = beta.matmul(&e_p);
        let mut u = Tensor::zeros(n_users, d);
        for r in 0..u.rows() {
            for ((o, &p), &m) in u.row_mut(r).iter_mut().zip(u_prop.row(r)).zip(mixed.row(r)) {
                *o = p + 0.5 * m * p;
            }
        }
        (u, v)
    }
}

impl RecModel for Kgin {
    fn name(&self) -> String {
        "KGIN".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        let batches = self.sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn export_embeddings(&self) -> Option<(Tensor, Tensor)> {
        Some(self.represent_tensor())
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
    fn tape_and_tensor_representations_agree() {
        let data = tiny_split(121);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgin::new(&data, TrainConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let (u, v) = model.represent(&mut tape);
        let (ut, vt) = model.represent_tensor();
        assert!(tape.value(u).approx_eq(&ut, 1e-4));
        assert!(tape.value(v).approx_eq(&vt, 1e-4));
    }

    #[test]
    fn loss_decreases() {
        let data = tiny_split(122);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Kgin::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..15 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(123);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgin::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 30);
    }

    #[test]
    fn independence_penalty_is_bounded() {
        let data = tiny_split(124);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgin::new(&data, TrainConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let ind = model.independence(&mut tape);
        let v = tape.value(ind).item();
        assert!((0.0..=1.0 + 1e-5).contains(&v), "penalty {v} out of range");
    }
}
