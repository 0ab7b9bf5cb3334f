//! LightGCN backbone (He et al. 2020): linear propagation over the
//! symmetrically normalized user–item graph, averaging all layer outputs.
//! The paper uses it as its strongest backbone ("L-IMCAT") with 2 layers.

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_graph::joint_normalized_adjacency;
use imcat_tensor::{Csr, Tape, Var};
use rand::rngs::StdRng;

use crate::common::{
    bpr_loss, propagate_mean, split_nodes, Backbone, EmbeddingCore, EpochStats, RecModel,
    TrainConfig,
};

/// LightGCN recommender. One embedding table covers the `n_users + n_items`
/// joint node set (`EmbeddingCore::joint`); users occupy rows `0..n_users`.
pub struct LightGcn {
    core: EmbeddingCore,
    adj: Rc<Csr>,
    cfg: TrainConfig,
    sampler: BprSampler,
    n_users: usize,
    n_items: usize,
}

impl LightGcn {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let n_users = data.n_users();
        let n_items = data.n_items();
        let core = EmbeddingCore::joint(n_users + n_items, &cfg, rng);
        let adj = Rc::new(joint_normalized_adjacency(&data.train));
        let sampler = BprSampler::for_user_items(data);
        Self { core, adj, cfg, sampler, n_users, n_items }
    }

    /// Propagated `[n_users + n_items, d]` node matrix on the tape.
    fn propagate(&self, tape: &mut Tape) -> Var {
        // A joint core's `user_emb` names the whole node table.
        let x0 = tape.leaf(&self.core.store, self.core.user_emb);
        propagate_mean(tape, &self.adj, x0, self.cfg.gnn_layers)
    }

    fn bpr_step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let nodes = self.propagate(&mut tape);
        let u = tape.gather_rows(nodes, &batch.anchors);
        let pos_ids: Vec<u32> = batch.positives.iter().map(|&i| i + self.n_users as u32).collect();
        let neg_ids: Vec<u32> = batch.negatives.iter().map(|&i| i + self.n_users as u32).collect();
        let vp = tape.gather_rows(nodes, &pos_ids);
        let vn = tape.gather_rows(nodes, &neg_ids);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let loss = bpr_loss(&mut tape, sp, sn);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.core.store);
        self.core.adam.step(&mut self.core.store);
        value
    }
}

impl RecModel for LightGcn {
    fn name(&self) -> String {
        "LightGCN".into()
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

impl Backbone for LightGcn {
    fn core(&self) -> &EmbeddingCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EmbeddingCore {
        &mut self.core
    }

    fn embed_all(&self, tape: &mut Tape) -> (Var, Var) {
        let nodes = self.propagate(tape);
        split_nodes(tape, nodes, self.n_users, self.n_items)
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
    fn loss_decreases() {
        let data = tiny_split(31);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = LightGcn::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..15 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(32);
        let mut rng = StdRng::seed_from_u64(0);
        let model = LightGcn::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 30);
    }

    #[test]
    fn embed_all_splits_correctly() {
        let data = tiny_split(34);
        let mut rng = StdRng::seed_from_u64(0);
        let model = LightGcn::new(&data, TrainConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let (u, v) = model.embed_all(&mut tape);
        assert_eq!(tape.value(u).shape(), (data.n_users(), 32));
        assert_eq!(tape.value(v).shape(), (data.n_items(), 32));
        let nodes = model.propagate(&mut tape);
        assert_eq!(tape.value(u).row(3), tape.value(nodes).row(3));
        assert_eq!(tape.value(v).row(5), tape.value(nodes).row(data.n_users() + 5));
    }
}
