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
use imcat_tensor::{xavier_uniform, Csr, ParamId, Tape, Var};
use rand::rngs::StdRng;

use imcat_graph::joint_normalized_adjacency;

use crate::common::{
    bpr_loss, propagate_mean, split_nodes, EmbeddingCore, EpochStats, RecModel, TrainConfig,
};

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
        let nodes = propagate_mean(tape, &self.adj, x0, self.cfg.gnn_layers);
        let n_users = self.core.store.value(self.core.user_emb).rows();
        let n_items = self.core.store.value(self.core.item_emb).rows();
        let (u_prop, v) = split_nodes(tape, nodes, n_users, n_items);
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

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        Some(self.represent(tape))
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
