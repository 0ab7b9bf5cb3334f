//! KGCL baseline (Yang et al. 2022): knowledge-graph contrastive learning —
//! cross-view contrastive signals between the collaborative-filtering graph
//! and the knowledge (item–tag) graph, on top of a LightGCN encoder.
//!
//! Mechanisms preserved: (1) a CF view from edge-dropout LightGCN
//! propagation; (2) a knowledge view where item representations absorb their
//! tag context; (3) cross-view InfoNCE on items plus a dual-dropout-view
//! contrast on users; (4) BPR for ranking. Simplification: the original's
//! knowledge-guided (consistency-weighted) edge dropout is replaced with
//! uniform dropout.

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_graph::{joint_normalized_adjacency, Bipartite};
use imcat_tensor::{xavier_uniform, Adam, Csr, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

use crate::common::{
    bpr_loss, dedup_ids, info_nce, info_nce_one_way, propagate_mean, split_nodes, EpochStats,
    RecModel, TrainConfig,
};

/// Knowledge graph contrastive learning recommender.
pub struct Kgcl {
    store: ParamStore,
    adam: Adam,
    node_emb: ParamId,
    tag_emb: ParamId,
    adj: Rc<Csr>,
    view1: Rc<Csr>,
    view2: Rc<Csr>,
    it_agg: Rc<Csr>,
    it_agg_t: Rc<Csr>,
    train_graph: Bipartite,
    cfg: TrainConfig,
    sampler: BprSampler,
    n_users: usize,
    n_items: usize,
    /// Edge dropout probability.
    pub drop_rate: f32,
    /// Weight of the contrastive losses.
    pub ssl_weight: f32,
    /// InfoNCE temperature.
    pub tau: f32,
    /// Relative scale of the cross-view item contrast. Items sharing tags
    /// have near-identical knowledge views, so this term needs a gentler
    /// weight than the user dual-view contrast.
    pub item_ssl_scale: f32,
}

impl Kgcl {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let n_users = data.n_users();
        let n_items = data.n_items();
        let mut store = ParamStore::new();
        let node_emb = store.add("node_emb", xavier_uniform(n_users + n_items, cfg.dim, rng));
        let tag_emb = store.add("tag_emb", xavier_uniform(data.n_tags(), cfg.dim, rng));
        let adam = Adam::new(cfg.adam(), &store);
        let adj = Rc::new(joint_normalized_adjacency(&data.train));
        let it = data.item_tag.row_mean_aggregator();
        let it_t = it.transpose();
        let mut model = Self {
            store,
            adam,
            node_emb,
            tag_emb,
            adj: Rc::clone(&adj),
            view1: Rc::clone(&adj),
            view2: adj,
            it_agg: Rc::new(it),
            it_agg_t: Rc::new(it_t),
            train_graph: data.train.clone(),
            cfg,
            sampler: BprSampler::for_user_items(data),
            n_users,
            n_items,
            drop_rate: 0.1,
            ssl_weight: 0.005,
            tau: 1.0,
            item_ssl_scale: 0.25,
        };
        model.refresh_views(rng);
        model
    }

    /// Rebuilds the dropout views (once per epoch).
    pub fn refresh_views(&mut self, rng: &mut StdRng) {
        let v1 = Bipartite::new(self.train_graph.forward().drop_edges(self.drop_rate, rng));
        let v2 = Bipartite::new(self.train_graph.forward().drop_edges(self.drop_rate, rng));
        self.view1 = Rc::new(joint_normalized_adjacency(&v1));
        self.view2 = Rc::new(joint_normalized_adjacency(&v2));
    }

    /// Knowledge view of item embeddings: `0.5 (v + mean_tags(v))`, `[V, d]`.
    fn knowledge_view(&self, tape: &mut Tape, item_rows: Var) -> Var {
        let tags = tape.leaf(&self.store, self.tag_emb);
        let ctx = tape.spmm(&self.it_agg, &self.it_agg_t, tags); // [V, d]
        let sum = tape.add(item_rows, ctx);
        tape.scale(sum, 0.5)
    }

    fn item_rows(&self, tape: &mut Tape, nodes: Var) -> Var {
        let ids: Vec<u32> = (self.n_users as u32..(self.n_users + self.n_items) as u32).collect();
        tape.gather_rows(nodes, &ids)
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
        // Cross-view item contrast: CF view vs knowledge view. Duplicates
        // are removed — a duplicated node would appear as its own
        // (unseparable) negative.
        let uniq_users = dedup_ids(&batch.anchors);
        let uniq_items = dedup_ids(&batch.positives);
        let n1 = propagate_mean(&mut tape, &self.view1, x0, self.cfg.gnn_layers);
        let items_cf = self.item_rows(&mut tape, n1);
        let items_kg = self.knowledge_view(&mut tape, items_cf);
        let i_cf = tape.gather_rows(items_cf, &uniq_items);
        let i_kg = tape.gather_rows(items_kg, &uniq_items);
        // One-way: anchors are the (possibly near-duplicate) knowledge views,
        // negatives the distinct CF views.
        let ssl_items = info_nce_one_way(&mut tape, i_kg, i_cf, 1.0);
        let ssl_items = tape.scale(ssl_items, self.item_ssl_scale);
        // Dual-view user contrast.
        let n2 = propagate_mean(&mut tape, &self.view2, x0, self.cfg.gnn_layers);
        let u1 = tape.gather_rows(n1, &uniq_users);
        let u2 = tape.gather_rows(n2, &uniq_users);
        let ssl_users = info_nce(&mut tape, u1, u2, self.tau, None);
        let ssl = tape.add(ssl_items, ssl_users);
        let ssl = tape.scale(ssl, self.ssl_weight);
        let loss = tape.add(cf, ssl);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.store);
        self.adam.step(&mut self.store);
        value
    }
}

impl RecModel for Kgcl {
    fn name(&self) -> String {
        "KGCL".into()
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
    fn knowledge_view_mixes_tag_context() {
        let data = tiny_split(141);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgcl::new(&data, TrainConfig::default(), &mut rng);
        let mut tape = Tape::new();
        let x0 = tape.leaf(&model.store, model.node_emb);
        let items = model.item_rows(&mut tape, x0);
        let kg = model.knowledge_view(&mut tape, items);
        assert_eq!(tape.value(kg).shape(), (data.n_items(), 32));
        // The knowledge view must differ from the raw item embeddings for
        // items that have tags.
        let raw = tape.value(items).clone();
        let kgv = tape.value(kg);
        let mut differs = 0;
        for j in 0..data.n_items() {
            let diff: f32 = raw.row(j).iter().zip(kgv.row(j)).map(|(a, b)| (a - b).abs()).sum();
            if diff > 1e-6 {
                differs += 1;
            }
        }
        assert!(differs > data.n_items() / 2);
    }

    #[test]
    fn loss_decreases() {
        let data = tiny_split(142);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Kgcl::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..15 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = small_split(143);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgcl::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 60);
    }
}
