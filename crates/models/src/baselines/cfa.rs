//! CFA baseline (Zuo et al. 2016): a sparse autoencoder over tag-based user
//! profiles whose latent code drives collaborative filtering.
//!
//! The defining mechanism preserved here: user representations come from an
//! autoencoder compressing the tag profile (reconstruction objective), and
//! recommendation is scored in the latent space against learned item
//! embeddings with a ranking loss.

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{Tape, Tensor, Var};
use rand::rngs::StdRng;

use crate::baselines::profiles::{select_rows, user_tag_profiles};
use crate::common::{bpr_loss, EmbeddingCore, EpochStats, Linear, RecModel, TrainConfig};

/// Tag-profile autoencoder CF.
pub struct Cfa {
    core: EmbeddingCore,
    cfg: TrainConfig,
    sampler: BprSampler,
    profiles: Tensor,
    encoder: Linear,
    decoder: Linear,
    /// Weight of the reconstruction loss.
    pub recon_weight: f32,
}

impl Cfa {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let mut core = EmbeddingCore::new(data.n_users(), data.n_items(), &cfg, rng);
        let n_tags = data.n_tags();
        let encoder = Linear::new(&mut core.store, "cfa.enc", n_tags, cfg.dim, Some(0.1), rng);
        let decoder = Linear::new(&mut core.store, "cfa.dec", cfg.dim, n_tags, None, rng);
        core.rebuild_optimizer();
        let sampler = BprSampler::for_user_items(data);
        let profiles = user_tag_profiles(data);
        Self { core, cfg, sampler, profiles, encoder, decoder, recon_weight: 0.5 }
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let p = tape.constant(select_rows(&self.profiles, &batch.anchors));
        let latent = self.encoder.forward(&mut tape, &self.core.store, p);
        // Ranking in latent space.
        let vp = tape.gather(&self.core.store, self.core.item_emb, &batch.positives);
        let vn = tape.gather(&self.core.store, self.core.item_emb, &batch.negatives);
        let sp = tape.rowwise_dot(latent, vp);
        let sn = tape.rowwise_dot(latent, vn);
        let rank = bpr_loss(&mut tape, sp, sn);
        // Autoencoder reconstruction.
        let recon = self.decoder.forward(&mut tape, &self.core.store, latent);
        let diff = tape.sub(recon, p);
        let sq = tape.mul(diff, diff);
        let mse = tape.mean_all(sq);
        let mse_w = tape.scale(mse, self.recon_weight);
        let loss = tape.add(rank, mse_w);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

impl RecModel for Cfa {
    fn name(&self) -> String {
        "CFA".into()
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
        let p = tape.constant(self.profiles.clone());
        let latent = self.encoder.forward(tape, &self.core.store, p);
        Some((latent, tape.leaf(&self.core.store, self.core.item_emb)))
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
        let data = tiny_split(51);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Cfa::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..20 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(52);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Cfa::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 40);
    }
}
