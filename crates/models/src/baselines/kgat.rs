//! KGAT baseline (Wang et al. 2019): attentive graph convolution over the
//! collaborative knowledge graph, with TransR-style relation modeling.
//!
//! The unified user–item–tag graph carries four relation types (interact,
//! interacted-by, has-tag, tag-of). Edge attention
//! `π(h, r, t) = LeakyReLU(e_t · tanh(e_h + e_r))`, normalized per head node,
//! modulates message passing; a TransR ranking loss trains the relation
//! space. Simplification: attention coefficients are recomputed from the
//! current embeddings at each epoch and treated as constants within the
//! epoch (the original back-propagates through them); the relation projection
//! is identity. The defining mechanism — relation-aware attention weighting
//! of propagation, trained jointly with a TransR objective — is preserved.

use std::rc::Rc;

use imcat_data::{BprSampler, SplitDataset};
use imcat_tensor::{xavier_uniform, Adam, Csr, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;

use crate::baselines::unified::UnifiedLayout;
use crate::common::{bpr_loss, split_nodes, EpochStats, RecModel, TrainConfig};

const REL_UI: usize = 0;
const REL_IU: usize = 1;
const REL_IT: usize = 2;
const REL_TI: usize = 3;

/// Knowledge graph attention network.
pub struct Kgat {
    store: ParamStore,
    adam: Adam,
    node_emb: ParamId,
    rel_emb: ParamId,
    /// Directed edges `(head, tail, relation)` of the unified graph.
    edges: Vec<(u32, u32, usize)>,
    att_adj: Rc<Csr>,
    att_adj_t: Rc<Csr>,
    layout: UnifiedLayout,
    cfg: TrainConfig,
    ui_sampler: BprSampler,
    it_sampler: BprSampler,
    /// TransR loss weight.
    pub kg_weight: f32,
}

impl Kgat {
    /// Builds the model on a training split.
    pub fn new(data: &SplitDataset, cfg: TrainConfig, rng: &mut StdRng) -> Self {
        let layout = UnifiedLayout::of(data);
        let mut store = ParamStore::new();
        let node_emb = store.add("node_emb", xavier_uniform(layout.total(), cfg.dim, rng));
        let rel_emb = store.add("rel_emb", xavier_uniform(4, cfg.dim, rng));
        let adam = Adam::new(cfg.adam(), &store);
        let mut edges = Vec::new();
        for (u, v, _) in data.train.forward().iter() {
            edges.push((u, layout.item(v), REL_UI));
            edges.push((layout.item(v), u, REL_IU));
        }
        for (v, t, _) in data.item_tag.forward().iter() {
            edges.push((layout.item(v), layout.tag(t), REL_IT));
            edges.push((layout.tag(t), layout.item(v), REL_TI));
        }
        let mut model = Self {
            store,
            adam,
            node_emb,
            rel_emb,
            edges,
            att_adj: Rc::new(Csr::empty(layout.total(), layout.total())),
            att_adj_t: Rc::new(Csr::empty(layout.total(), layout.total())),
            layout,
            cfg,
            ui_sampler: BprSampler::for_user_items(data),
            it_sampler: BprSampler::for_item_tags(data),
            kg_weight: 0.5,
        };
        model.refresh_attention();
        model
    }

    /// Recomputes the attention-weighted adjacency from current embeddings.
    pub fn refresh_attention(&mut self) {
        let emb = self.store.value(self.node_emb);
        let rel = self.store.value(self.rel_emb);
        let n = self.layout.total();
        // Raw scores per edge.
        let mut scores: Vec<f32> = Vec::with_capacity(self.edges.len());
        for &(h, t, r) in &self.edges {
            let eh = emb.row(h as usize);
            let et = emb.row(t as usize);
            let er = rel.row(r);
            let s: f32 = et
                .iter()
                .zip(eh.iter().zip(er))
                .map(|(&tt, (&hh, &rr))| tt * (hh + rr).tanh())
                .sum();
            scores.push(if s > 0.0 { s } else { 0.1 * s }); // LeakyReLU
        }
        // Softmax per head node.
        let mut max_per_head = vec![f32::NEG_INFINITY; n];
        for (k, &(h, _, _)) in self.edges.iter().enumerate() {
            max_per_head[h as usize] = max_per_head[h as usize].max(scores[k]);
        }
        let mut sum_per_head = vec![0f32; n];
        let mut exps = vec![0f32; self.edges.len()];
        for (k, &(h, _, _)) in self.edges.iter().enumerate() {
            let e = (scores[k] - max_per_head[h as usize]).exp();
            exps[k] = e;
            sum_per_head[h as usize] += e;
        }
        let triplets: Vec<(u32, u32, f32)> = self
            .edges
            .iter()
            .enumerate()
            .map(|(k, &(h, t, _))| (h, t, exps[k] / sum_per_head[h as usize]))
            .collect();
        let adj = Csr::from_triplets(n, n, &triplets);
        self.att_adj_t = Rc::new(adj.transpose());
        self.att_adj = Rc::new(adj);
    }

    fn propagate(&self, tape: &mut Tape) -> Var {
        let mut x = tape.leaf(&self.store, self.node_emb);
        let mut acc = x;
        for _ in 0..self.cfg.gnn_layers {
            x = tape.spmm(&self.att_adj, &self.att_adj_t, x);
            acc = tape.add(acc, x);
        }
        tape.scale(acc, 1.0 / (self.cfg.gnn_layers as f32 + 1.0))
    }

    /// TransR energy with identity projection: `||e_h + e_r - e_t||²`.
    fn transr_energy(&self, tape: &mut Tape, heads: Var, tails: Var, rel: usize) -> Var {
        let r_all = tape.leaf(&self.store, self.rel_emb);
        let r = tape.gather_rows(r_all, &[rel as u32]);
        let diff = tape.sub(heads, tails);
        let shifted = broadcast_add_row(tape, diff, r);
        let sq = tape.mul(shifted, shifted);
        tape.sum_rows(sq)
    }

    fn step(&mut self, rng: &mut StdRng) -> f32 {
        let batch = self.ui_sampler.sample(self.cfg.batch_size, rng);
        let mut tape = Tape::new();
        let nodes = self.propagate(&mut tape);
        let pos: Vec<u32> = batch.positives.iter().map(|&v| self.layout.item(v)).collect();
        let neg: Vec<u32> = batch.negatives.iter().map(|&v| self.layout.item(v)).collect();
        let u = tape.gather_rows(nodes, &batch.anchors);
        let vp = tape.gather_rows(nodes, &pos);
        let vn = tape.gather_rows(nodes, &neg);
        let sp = tape.rowwise_dot(u, vp);
        let sn = tape.rowwise_dot(u, vn);
        let cf = bpr_loss(&mut tape, sp, sn);
        // TransR on raw embeddings for item-tag triples.
        let kg = self.it_sampler.sample(self.cfg.batch_size, rng);
        let raw = tape.leaf(&self.store, self.node_emb);
        let items: Vec<u32> = kg.anchors.iter().map(|&v| self.layout.item(v)).collect();
        let tp: Vec<u32> = kg.positives.iter().map(|&t| self.layout.tag(t)).collect();
        let tn: Vec<u32> = kg.negatives.iter().map(|&t| self.layout.tag(t)).collect();
        let hv = tape.gather_rows(raw, &items);
        let tpv = tape.gather_rows(raw, &tp);
        let tnv = tape.gather_rows(raw, &tn);
        let e_pos = self.transr_energy(&mut tape, hv, tpv, REL_IT);
        let hv2 = tape.gather_rows(raw, &items);
        let e_neg = self.transr_energy(&mut tape, hv2, tnv, REL_IT);
        let kg_loss = bpr_loss(&mut tape, e_neg, e_pos);
        let kg_loss = tape.scale(kg_loss, self.kg_weight);
        let loss = tape.add(cf, kg_loss);
        let value = tape.value(loss).item();
        tape.backward(loss, &mut self.store);
        self.adam.step(&mut self.store);
        value
    }
}

/// Adds row-vector `row` (`[1, d]` Var) to every row of `x`, keeping both
/// differentiable. Implemented as `x + ones ⊗ row` via matmul.
fn broadcast_add_row(tape: &mut Tape, x: Var, row: Var) -> Var {
    let b = tape.value(x).rows();
    let ones = tape.constant(Tensor::full(b, 1, 1.0));
    let tiled = tape.matmul(ones, row);
    tape.add(x, tiled)
}

impl RecModel for Kgat {
    fn name(&self) -> String {
        "KGAT".into()
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        self.refresh_attention();
        let batches = self.ui_sampler.batches_per_epoch(self.cfg.batch_size);
        let mut total = 0.0;
        for _ in 0..batches {
            total += self.step(rng);
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        let nodes = self.propagate(tape);
        Some(split_nodes(tape, nodes, self.layout.n_users, self.layout.n_items))
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
    fn attention_rows_sum_to_one() {
        let data = tiny_split(111);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgat::new(&data, TrainConfig::default(), &mut rng);
        for r in 0..model.layout.total() {
            let s: f32 = model.att_adj.row_values(r).iter().sum();
            if model.att_adj.row_nnz(r) > 0 {
                assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            }
        }
    }

    #[test]
    fn loss_decreases() {
        let data = tiny_split(112);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Kgat::new(&data, TrainConfig::default(), &mut rng);
        let first = model.train_epoch(&mut rng).loss;
        for _ in 0..15 {
            model.train_epoch(&mut rng);
        }
        assert!(model.train_epoch(&mut rng).loss < first);
    }

    #[test]
    fn training_beats_random_ranking() {
        let data = tiny_split(113);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Kgat::new(&data, TrainConfig::default(), &mut rng);
        training_improves_recall(model, &data, 30);
    }
}
