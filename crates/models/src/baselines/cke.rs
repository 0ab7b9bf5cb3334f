//! CKE baseline (Zhang et al. 2016): collaborative filtering regularized by
//! TransR structural knowledge embedding.
//!
//! In the tag-enhanced setting (paper §II-B) tags are entities connected to
//! items by a single "has-tag" relation. The TransR objective projects items
//! and tags into the relation space and asks `proj(v) + r ≈ proj(t)` for
//! observed assignments, ranked against corrupted tags — this regularization
//! of the shared item embedding is CKE's defining mechanism.

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{xavier_uniform, ParamId, Tape, Var};
use rand::rngs::StdRng;

use crate::common::{bpr_loss, EmbeddingCore, EpochStats, RecModel, TrainConfig};

/// Collaborative knowledge-base embedding.
pub struct Cke {
    core: EmbeddingCore,
    cfg: TrainConfig,
    ui_sampler: BprSampler,
    it_sampler: BprSampler,
    tag_emb: ParamId,
    rel_emb: ParamId,
    rel_proj: ParamId,
    /// Weight of the TransR loss.
    pub kg_weight: f32,
}

impl Cke {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let d = cfg.dim;
        let tag_emb = core.store.add("tag_emb", xavier_uniform(data.n_tags(), d, rng));
        let rel_emb = core.store.add("rel_emb", xavier_uniform(1, d, rng));
        let rel_proj = core.store.add("rel_proj", xavier_uniform(d, d, rng));
        core.rebuild_optimizer();
        Self {
            core,
            cfg,
            ui_sampler: BprSampler::for_user_items(data),
            it_sampler: BprSampler::for_item_tags(data),
            tag_emb,
            rel_emb,
            rel_proj,
            kg_weight: 0.5,
        }
    }

    /// TransR energy `||W v + r - W t||²` per row, `[B, 1]`.
    fn transr_energy(&self, tape: &mut Tape, items: Var, tags: Var) -> Var {
        let w = tape.leaf(&self.core.store, self.rel_proj);
        let r = tape.leaf(&self.core.store, self.rel_emb);
        let pv = tape.matmul(items, w);
        let pt = tape.matmul(tags, w);
        let diff = tape.sub(pv, pt);
        let shifted = tape.add_row_vec(diff, r);
        let sq = tape.mul(shifted, shifted);
        tape.sum_rows(sq)
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        // CF part.
        let batch = self.ui_sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let u = tape.gather(&self.core.store, self.core.user_emb, &batch.anchors);
        let vp = tape.gather(&self.core.store, self.core.item_emb, &batch.positives);
        let vn = tape.gather(&self.core.store, self.core.item_emb, &batch.negatives);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let cf = bpr_loss(&mut tape, sp, sn);
        // TransR part on item-tag triples.
        let kg = self.it_sampler.sample(self.cfg.batch_size, rng);
        let items = tape.gather(&self.core.store, self.core.item_emb, &kg.anchors);
        let tp = tape.gather(&self.core.store, self.tag_emb, &kg.positives);
        let tn = tape.gather(&self.core.store, self.tag_emb, &kg.negatives);
        let e_pos = self.transr_energy(&mut tape, items, tp);
        let e_neg = self.transr_energy(&mut tape, items, tn);
        // Lower energy for observed triples: BPR on (-e_pos) vs (-e_neg).
        let kg_loss = bpr_loss(&mut tape, e_neg, e_pos);
        let kg_loss = tape.scale(kg_loss, self.kg_weight);
        let loss = tape.add(cf, kg_loss);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

impl RecModel for Cke {
    fn name(&self) -> String {
        "CKE".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        let batches = self.ui_sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        let u = tape.leaf(&self.core.store, self.core.user_emb);
        Some((u, tape.leaf(&self.core.store, self.core.item_emb)))
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
        let data = tiny_split(91);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Cke::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..20 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(92);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Cke::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 100);
    }

    #[test]
    fn transr_prefers_observed_triples_after_training() {
        let data = tiny_split(93);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Cke::new(&data, TrainConfig::default(), &mut rng);
        for _ in 0..40 {
            model.train_epoch(&mut rng);
        }
        // Average TransR energy of observed vs corrupted triples.
        let kg = model.it_sampler.sample(256, &mut rng);
        let mut tape = Tape::new();
        let items = tape.gather(&model.core.store, model.core.item_emb, &kg.anchors);
        let tp = tape.gather(&model.core.store, model.tag_emb, &kg.positives);
        let tn = tape.gather(&model.core.store, model.tag_emb, &kg.negatives);
        let e_pos = model.transr_energy(&mut tape, items, tp);
        let e_neg = model.transr_energy(&mut tape, items, tn);
        let mean_pos = tape.value(e_pos).sum() / 256.0;
        let mean_neg = tape.value(e_neg).sum() / 256.0;
        assert!(
            mean_pos < mean_neg,
            "observed triples should have lower energy: {mean_pos} vs {mean_neg}"
        );
    }
}
