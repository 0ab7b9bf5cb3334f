//! SGL baseline (Wu et al. 2021): self-supervised graph learning for
//! recommendation — LightGCN plus node self-discrimination between two
//! edge-dropout views of the interaction graph.

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_graph::{joint_normalized_adjacency, Bipartite};
use imcat_tensor::{xavier_uniform, Adam, Csr, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

use crate::common::{
    bpr_loss, dedup_ids, info_nce, propagate_mean, split_nodes, EpochStats, RecModel, TrainConfig,
};

/// Self-supervised graph learning recommender.
pub struct Sgl {
    store: ParamStore,
    adam: Adam,
    node_emb: ParamId,
    adj: Rc<Csr>,
    view1: Rc<Csr>,
    view2: Rc<Csr>,
    train_graph: Bipartite,
    cfg: TrainConfig,
    sampler: BprSampler,
    n_users: usize,
    n_items: usize,
    /// Edge dropout probability for the augmented views.
    pub drop_rate: f32,
    /// Weight of the self-supervised loss. The SGL paper grid-searches
    /// λ ∈ [0.005, 0.5] per dataset; on this crate's small, dense synthetic
    /// graphs the sweep lands at the low end (see EXPERIMENTS.md).
    pub ssl_weight: f32,
    /// InfoNCE temperature.
    pub tau: f32,
}

impl Sgl {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let n_users = data.n_users();
        let n_items = data.n_items();
        let mut store = ParamStore::new();
        let node_emb = store.add("node_emb", xavier_uniform(n_users + n_items, cfg.dim, rng));
        let adam = Adam::new(cfg.adam(), &store);
        let adj = Rc::new(joint_normalized_adjacency(&data.train));
        let mut model = Self {
            store,
            adam,
            node_emb,
            adj: Rc::clone(&adj),
            view1: Rc::clone(&adj),
            view2: adj,
            train_graph: data.train.clone(),
            cfg,
            sampler: BprSampler::for_user_items(data),
            n_users,
            n_items,
            drop_rate: 0.1,
            ssl_weight: 0.005,
            tau: 1.0,
        };
        model.refresh_views(rng);
        model
    }

    /// Rebuilds the two augmented graph views (once per epoch).
    pub fn refresh_views(&mut self, rng: &mut StdRng) {
        let v1 = Bipartite::new(self.train_graph.forward().drop_edges(self.drop_rate, rng));
        let v2 = Bipartite::new(self.train_graph.forward().drop_edges(self.drop_rate, rng));
        self.view1 = Rc::new(joint_normalized_adjacency(&v1));
        self.view2 = Rc::new(joint_normalized_adjacency(&v2));
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let x0 = tape.leaf(&self.store, self.node_emb);
        let nodes = propagate_mean(&mut tape, &self.adj, x0, self.cfg.gnn_layers);
        let pos: Vec<u32> = batch.positives.iter().map(|&v| v + self.n_users as u32).collect();
        let neg: Vec<u32> = batch.negatives.iter().map(|&v| v + self.n_users as u32).collect();
        let u = tape.gather_rows(nodes, &batch.anchors);
        let vp = tape.gather_rows(nodes, &pos);
        let vn = tape.gather_rows(nodes, &neg);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let cf = bpr_loss(&mut tape, sp, sn);
        // SSL: node self-discrimination between the two views, for the batch
        // users and positive items. Duplicates are removed — a duplicated
        // node would appear as its own (unseparable) negative.
        let uniq_users = dedup_ids(&batch.anchors);
        let uniq_items = dedup_ids(&pos);
        let n1 = propagate_mean(&mut tape, &self.view1, x0, self.cfg.gnn_layers);
        let n2 = propagate_mean(&mut tape, &self.view2, x0, self.cfg.gnn_layers);
        let u1 = tape.gather_rows(n1, &uniq_users);
        let u2 = tape.gather_rows(n2, &uniq_users);
        let i1 = tape.gather_rows(n1, &uniq_items);
        let i2 = tape.gather_rows(n2, &uniq_items);
        let ssl_u = info_nce(&mut tape, u1, u2, self.tau, None);
        let ssl_i = info_nce(&mut tape, i1, i2, self.tau, None);
        let ssl = tape.add(ssl_u, ssl_i);
        let ssl = tape.scale(ssl, self.ssl_weight);
        let loss = tape.add(cf, ssl);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.store);
        self.adam.step(&mut self.store);
        value
    }
}

impl RecModel for Sgl {
    fn name(&self) -> String {
        "SGL".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        self.refresh_views(rng);
        let batches = self.sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        let x0 = tape.leaf(&self.store, self.node_emb);
        let nodes = propagate_mean(tape, &self.adj, x0, self.cfg.gnn_layers);
        Some(split_nodes(tape, nodes, self.n_users, self.n_items))
    }

    fn num_params(&self) -> usize {
        self.store.num_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{small_split, tiny_split, training_improves_recall};
    use rand::SeedableRng;

    #[test]
    fn views_differ_from_base_graph() {
        let data = tiny_split(131);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Sgl::new(&data, TrainConfig::default(), &mut rng);
        assert!(model.view1.nnz() < model.adj.nnz());
        assert!(model.view2.nnz() < model.adj.nnz());
        assert_ne!(model.view1.nnz(), 0);
    }

    #[test]
    fn loss_decreases() {
        let data = tiny_split(132);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sgl::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..15 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        // SSL self-discrimination needs enough distinct nodes per batch to be
        // informative, so this smoke test runs at 3x the tiny scale.
        let data = small_split(133);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Sgl::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 60);
    }
}
