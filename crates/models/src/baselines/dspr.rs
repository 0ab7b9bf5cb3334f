//! DSPR baseline (Xu et al. 2016): a deep-semantic similarity model with a
//! *shared* MLP translating tag-based user and item profiles into one
//! embedding space, ranked by cosine similarity.

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{Adam, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;

use crate::baselines::profiles::{item_tag_profiles, select_rows, user_tag_profiles};
use crate::common::{bpr_loss, EpochStats, Mlp, RecModel, TrainConfig};

/// Deep-semantic similarity over shared-parameter tag profiles.
pub struct Dspr {
    store: ParamStore,
    adam: Adam,
    cfg: TrainConfig,
    sampler: BprSampler,
    user_profiles: Tensor,
    item_profiles: Tensor,
    tower: Mlp,
}

impl Dspr {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let tower = Mlp::new(&mut store, "dspr.tower", &[data.n_tags(), cfg.dim, cfg.dim], rng);
        let adam = Adam::new(cfg.adam(), &store);
        Self {
            store,
            adam,
            sampler: BprSampler::for_user_items(data),
            user_profiles: user_tag_profiles(data),
            item_profiles: item_tag_profiles(data),
            tower,
            cfg,
        }
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let pu = tape.constant(select_rows(&self.user_profiles, &batch.anchors));
        let pp = tape.constant(select_rows(&self.item_profiles, &batch.positives));
        let pn = tape.constant(select_rows(&self.item_profiles, &batch.negatives));
        let fu = self.tower.forward(&mut tape, &self.store, pu);
        let fp = self.tower.forward(&mut tape, &self.store, pp);
        let fn_ = self.tower.forward(&mut tape, &self.store, pn);
        let fu = tape.l2_normalize_rows(fu, 1e-12);
        let fp = tape.l2_normalize_rows(fp, 1e-12);
        let fn_ = tape.l2_normalize_rows(fn_, 1e-12);
        let sp = tape.rowwise_dot(fu, fp);
        let sn = tape.rowwise_dot(fu, fn_);
        // Sharpen cosine scores so the ranking loss has gradient signal.
        let sp = tape.scale(sp, 5.0);
        let sn = tape.scale(sn, 5.0);
        let loss = bpr_loss(&mut tape, sp, sn);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.store);
        self.adam.step(&mut self.store);
        value
    }
}

impl RecModel for Dspr {
    fn name(&self) -> String {
        "DSPR".into()
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
        let pu = tape.constant(self.user_profiles.clone());
        let pv = tape.constant(self.item_profiles.clone());
        let fu = self.tower.forward(tape, &self.store, pu);
        let fv = self.tower.forward(tape, &self.store, pv);
        Some((tape.l2_normalize_rows(fu, 1e-12), tape.l2_normalize_rows(fv, 1e-12)))
    }

    fn num_params(&self) -> usize {
        self.store.num_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_split, training_improves_recall};
    use rand::SeedableRng;

    #[test]
    fn loss_decreases() {
        let data = tiny_split(61);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Dspr::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..25 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(62);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Dspr::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn scores_are_cosine_bounded() {
        let data = tiny_split(63);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Dspr::new(&data, TrainConfig::default(), &mut rng);
        let s = model.score_users(&[0, 1]);
        assert!(s.as_slice().iter().all(|&x| (-1.01..=1.01).contains(&x)));
    }
}
