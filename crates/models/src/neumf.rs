//! NeuMF backbone (He et al. 2017): a GMF branch plus an MLP branch over
//! user/item embeddings, fused into one relevance score.
//!
//! Simplification vs. the original: the two branches share one embedding
//! table per side (the "shared-embedding" NeuMF variant) so the total
//! parameter budget matches the other backbones, as the paper requires for
//! fair comparison (§IV-A.1). The defining mechanism — non-linear feature
//! interaction through an MLP fused with a generalized inner product — is
//! preserved.

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{xavier_uniform, Tape, Tensor, Var};
use rand::rngs::StdRng;

use crate::common::{
    bpr_loss, Backbone, EmbeddingCore, EpochStats, Mlp, RecModel, Scorer, TrainConfig,
};

/// Neural collaborative filtering with GMF + MLP fusion, trained with BPR.
pub struct Neumf {
    core: EmbeddingCore,
    cfg: TrainConfig,
    sampler: BprSampler,
    gmf_w: imcat_tensor::ParamId,
    mlp: Mlp,
    n_items: usize,
}

impl Neumf {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let d = cfg.dim;
        let gmf_w = core.store.add("gmf_w", xavier_uniform(d, 1, rng));
        let mlp = Mlp::new(&mut core.store, "neumf_mlp", &[2 * d, d, 1], rng);
        core.rebuild_optimizer();
        let sampler = BprSampler::for_user_items(data);
        Self { core, cfg, sampler, gmf_w, mlp, n_items: data.n_items() }
    }

    /// Differentiable fused score for already-gathered embedding rows.
    fn fuse(&self, tape: &mut Tape, u: Var, v: Var) -> Var {
        let prod = tape.mul(u, v);
        let w = tape.leaf(&self.core.store, self.gmf_w);
        let gmf = tape.matmul(prod, w);
        let cat = tape.concat_cols(&[u, v]);
        let mlp = self.mlp.forward(tape, &self.core.store, cat);
        tape.add(gmf, mlp)
    }

    fn bpr_step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let u = tape.gather(&self.core.store, self.core.user_emb, &batch.anchors);
        let vp = tape.gather(&self.core.store, self.core.item_emb, &batch.positives);
        let vn = tape.gather(&self.core.store, self.core.item_emb, &batch.negatives);
        let sp = self.fuse(&mut tape, u, vp);
        let sn = self.fuse(&mut tape, u, vn);
        let loss = bpr_loss(&mut tape, sp, sn);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

impl RecModel for Neumf {
    fn name(&self) -> String {
        "NeuMF".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        let batches = self.sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.bpr_step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    /// Every item's training `fuse` score, one tape per user: the user's
    /// row tiled against the whole item table.
    fn scorer(&self) -> Scorer<'_> {
        Box::new(move |users| {
            let mut out = Tensor::zeros(users.len(), self.n_items);
            for (row, &u) in users.iter().enumerate() {
                let mut tape = Tape::new();
                let uv = tape.gather(&self.core.store, self.core.user_emb, &vec![u; self.n_items]);
                let vv = tape.leaf(&self.core.store, self.core.item_emb);
                let s = self.fuse(&mut tape, uv, vv);
                out.row_mut(row).copy_from_slice(tape.value(s).as_slice());
            }
            out
        })
    }

    fn num_params(&self) -> usize {
        self.core.store.num_weights()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.core.save_state())
    }

    fn load_state(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.core.load_state(bytes)
    }
}

impl Backbone for Neumf {
    fn core(&self) -> &EmbeddingCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EmbeddingCore {
        &mut self.core
    }

    fn embed_all(&self, tape: &mut Tape) -> (Var, Var) {
        let u = tape.leaf(&self.core.store, self.core.user_emb);
        let v = tape.leaf(&self.core.store, self.core.item_emb);
        (u, v)
    }

    fn score_pairs(
        &self,
        tape: &mut Tape,
        all_users: Var,
        users: &[u32],
        all_items: Var,
        items: &[u32],
    ) -> Var {
        let u = tape.gather_rows(all_users, users);
        let v = tape.gather_rows(all_items, items);
        self.fuse(tape, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_split, training_improves_recall};
    use rand::SeedableRng;

    #[test]
    fn loss_decreases() {
        let data = tiny_split(21);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Neumf::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..20 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(22);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Neumf::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn eval_scores_match_tape_scores() {
        let data = tiny_split(23);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Neumf::new(&data, TrainConfig::default(), &mut rng);
        let dense = model.score_users(&[2]);
        let mut tape = Tape::new();
        let (au, ai) = model.embed_all(&mut tape);
        let items: Vec<u32> = (0..data.n_items() as u32).collect();
        let users = vec![2u32; items.len()];
        let s = model.score_pairs(&mut tape, au, &users, ai, &items);
        for j in 0..data.n_items() {
            assert!(
                (dense.get(0, j) - tape.value(s).get(j, 0)).abs() < 1e-4,
                "item {j}: {} vs {}",
                dense.get(0, j),
                tape.value(s).get(j, 0)
            );
        }
    }
}
