//! BPRMF backbone: matrix factorization trained with the pairwise BPR loss
//! (Rendle et al. 2009; paper baseline "BPRMF", Eq. 1).

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{Tape, Var};
use rand::rngs::StdRng;

use crate::common::{bpr_loss, Backbone, EmbeddingCore, EpochStats, RecModel, TrainConfig};

/// Matrix-factorization recommender with BPR ranking loss.
pub struct Bprmf {
    core: EmbeddingCore,
    cfg: TrainConfig,
    sampler: BprSampler,
}

impl Bprmf {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let sampler = BprSampler::for_user_items(data);
        Self { core, cfg, sampler }
    }

    /// Shared BPR step on raw embedding tables with sparse gathers.
    fn bpr_step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let u = tape.gather(&self.core.store, self.core.user_emb, &batch.anchors);
        let vp = tape.gather(&self.core.store, self.core.item_emb, &batch.positives);
        let vn = tape.gather(&self.core.store, self.core.item_emb, &batch.negatives);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let loss = bpr_loss(&mut tape, sp, sn);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

impl RecModel for Bprmf {
    fn name(&self) -> String {
        "BPRMF".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        let batches = self.sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.bpr_step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        Some(self.embed_all(tape))
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

impl Backbone for Bprmf {
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
        tape.rowwise_dot(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_split, training_improves_recall};
    use rand::SeedableRng;

    #[test]
    fn loss_decreases_over_epochs() {
        let data = tiny_split(11);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..20 {
            model.train_epoch(&mut rng);
        }
        let last = model.train_epoch(&mut rng).loss;
        assert!(last < first, "BPR loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(42);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn score_matrix_shape() {
        let data = tiny_split(13);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let s = model.score_users(&[0, 3, 5]);
        assert_eq!(s.shape(), (3, data.n_items()));
    }

    #[test]
    fn backbone_pair_scores_match_dot() {
        let data = tiny_split(14);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let (au, ai) = model.embed_all(&mut tape);
        let s = model.score_pairs(&mut tape, au, &[1, 2], ai, &[0, 4]);
        let expect0: f32 = model
            .core
            .store
            .value(model.core.user_emb)
            .row(1)
            .iter()
            .zip(model.core.store.value(model.core.item_emb).row(0))
            .map(|(a, b)| a * b)
            .sum();
        assert!((tape.value(s).get(0, 0) - expect0).abs() < 1e-6);
    }
}
