//! Shared model machinery: the [`RecModel`] trait every method implements,
//! the [`Backbone`] trait IMCAT plugs into, training configuration, loss
//! helpers (BPR, bidirectional InfoNCE), an MLP block, and LightGCN-style
//! propagation.

use std::rc::Rc;

use imcat_data::SplitDataset;
use imcat_tensor::{xavier_uniform, Adam, AdamConfig, Csr, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// Hyper-parameters shared by every model (§V-D of the paper; scaled-down
/// defaults for CPU runs).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Total embedding dimension `d` (paper: 64).
    pub dim: usize,
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Learning rate (paper: 1e-3).
    pub lr: f32,
    /// Decoupled weight decay (paper: 1e-3).
    pub weight_decay: f32,
    /// Number of propagation layers for GNN models (paper: 2).
    pub gnn_layers: usize,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { dim: 32, batch_size: 512, lr: 1e-3, weight_decay: 1e-3, gnn_layers: 2, seed: 0 }
    }
}

impl TrainConfig {
    /// Builds the Adam configuration for this run.
    pub fn adam(&self) -> AdamConfig {
        AdamConfig { lr: self.lr, weight_decay: self.weight_decay, ..AdamConfig::default() }
    }
}

/// Summary of one training epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Mean loss over the epoch's batches.
    pub loss: f32,
    /// Number of batches run.
    pub batches: usize,
}

/// Scores a batch of users against every item (see [`RecModel::scorer`]).
pub type Scorer<'a> = Box<dyn FnMut(&[u32]) -> Tensor + 'a>;

/// A trainable top-N recommender.
pub trait RecModel {
    /// Model name as reported in the paper's tables.
    fn name(&self) -> String;

    /// Runs one epoch of optimization.
    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats;

    /// Records the model's resolved user and item embeddings (`[n_users, d]`,
    /// `[n_items, d]`) on `tape` with the very forward it trains through, such
    /// that user `u`'s relevance for item `j` is exactly `users[u] · items[j]`.
    /// For GNN models this runs propagation; for factorization models it is
    /// the raw tables. Models whose scoring is not a user×item dot product
    /// (NeuMF's fused MLP head, RippleNet's per-user tag attention) keep the
    /// `None` default and override [`RecModel::scorer`] instead.
    fn forward_embeddings(&self, _tape: &mut Tape) -> Option<(Var, Var)> {
        None
    }

    /// The values of [`RecModel::forward_embeddings`], taken from a throwaway
    /// tape that is never differentiated — the frozen inference surface
    /// behind both [`RecModel::scorer`] and [`RecModel::export_artifact`].
    /// Not meant to be overridden: evaluation and serving score with exactly
    /// the function that was trained.
    fn export_embeddings(&self) -> Option<(Tensor, Tensor)> {
        let mut tape = Tape::new();
        let (users, items) = self.forward_embeddings(&mut tape)?;
        Some((tape.value(users).clone(), tape.value(items).clone()))
    }

    /// The scorer for one evaluation: called with a batch of users, it
    /// returns their full-ranking scores `[users.len(), n_items]`
    /// (training-item masking is the evaluator's job). The provided default
    /// runs [`RecModel::export_embeddings`] once, here, and scores every
    /// batch against that pair, so an evaluation costs one forward however
    /// many batches it scores. Only models without a dot-product
    /// decomposition implement this directly.
    fn scorer(&self) -> Scorer<'_> {
        let (user_emb, item_emb) = self.export_embeddings().unwrap_or_else(|| {
            panic!("{}: implement forward_embeddings or override scorer", self.name())
        });
        Box::new(move |users| dot_score_all(&user_emb, &item_emb, users))
    }

    /// Full-ranking scores of `users` from a fresh [`RecModel::scorer`].
    fn score_users(&self, users: &[u32]) -> Tensor {
        (self.scorer())(users)
    }

    /// Freezes the model into a serving artifact: the resolved embeddings of
    /// [`RecModel::export_embeddings`] plus each user's sorted training-item
    /// mask, ready for `imcat-serve`. `None` when the model has no
    /// dot-product inference surface.
    fn export_artifact(&self, data: &SplitDataset) -> Option<imcat_ckpt::Artifact> {
        let (user_emb, item_emb) = self.export_embeddings()?;
        let masks = (0..data.n_users()).map(|u| data.train_items(u).to_vec()).collect();
        Some(imcat_ckpt::Artifact::new(self.name(), user_emb, item_emb, masks))
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize;

    /// Serializes the model's full mutable training state — parameters,
    /// optimizer moments, and any internal counters — for crash-safe
    /// checkpointing, or `None` when the model does not support resume (the
    /// default; the trainer then skips checkpointing with a telemetry event).
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`RecModel::save_state`] into a model built
    /// with the identical configuration and dataset. Implementations must
    /// validate before mutating: on error the model is unchanged.
    fn load_state(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("{} does not support checkpoint resume", self.name()),
        ))
    }
}

/// A backbone exposes differentiable user/item embeddings so IMCAT's
/// alignment losses (Eqs. 11–13, 16–17) can be attached on top of its own
/// ranking objective.
pub trait Backbone: RecModel {
    /// The parameter store and optimizer IMCAT registers its own parameters
    /// on and steps together with the backbone's.
    fn core(&self) -> &EmbeddingCore;

    /// Mutable [`Backbone::core`].
    fn core_mut(&mut self) -> &mut EmbeddingCore;

    /// Records the *resolved* full user and item embedding matrices on the
    /// tape (`[n_users, d]`, `[n_items, d]`). For GNN backbones this runs
    /// propagation; for factorization backbones it is the raw tables.
    fn embed_all(&self, tape: &mut Tape) -> (Var, Var);

    /// Differentiable relevance scores `[B, 1]` for user/item index pairs
    /// drawn against the embeddings returned by [`Backbone::embed_all`].
    fn score_pairs(
        &self,
        tape: &mut Tape,
        all_users: Var,
        users: &[u32],
        all_items: Var,
        items: &[u32],
    ) -> Var;
}

/// User/item embedding tables plus the Adam state that covers the store.
pub struct EmbeddingCore {
    /// Parameter store holding every trainable tensor of the model.
    pub store: ParamStore,
    /// Optimizer over `store`.
    pub adam: Adam,
    /// User embedding table id.
    pub user_emb: ParamId,
    /// Item embedding table id.
    pub item_emb: ParamId,
    /// Embedding dimension.
    pub dim: usize,
    adam_cfg: AdamConfig,
}

impl EmbeddingCore {
    /// Xavier-initialized user/item tables.
    pub fn new(n_users: usize, n_items: usize, cfg: &TrainConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let user_emb = store.add("user_emb", xavier_uniform(n_users, cfg.dim, rng));
        let item_emb = store.add("item_emb", xavier_uniform(n_items, cfg.dim, rng));
        Self::over(store, user_emb, item_emb, cfg)
    }

    /// One Xavier-initialized `[n_nodes, d]` table for models that propagate
    /// over the joint user/item graph: `user_emb` and `item_emb` both name
    /// it, users in rows `0..n_users`, items after.
    pub(crate) fn joint(n_nodes: usize, cfg: &TrainConfig, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let nodes = store.add("node_emb", xavier_uniform(n_nodes, cfg.dim, rng));
        Self::over(store, nodes, nodes, cfg)
    }

    fn over(store: ParamStore, user_emb: ParamId, item_emb: ParamId, cfg: &TrainConfig) -> Self {
        let adam_cfg = cfg.adam();
        let adam = Adam::new(adam_cfg, &store);
        Self { store, adam, user_emb, item_emb, dim: cfg.dim, adam_cfg }
    }

    /// Recreates the optimizer after registering extra parameters.
    pub fn rebuild_optimizer(&mut self) {
        self.adam = Adam::new(self.adam_cfg, &self.store);
    }

    /// Checkpoint payload: every parameter plus the full Adam state.
    pub fn save_state(&self) -> Vec<u8> {
        imcat_ckpt::encode_backbone_state(&self.store, &self.adam)
    }

    /// Restores a payload written by [`EmbeddingCore::save_state`].
    pub fn load_state(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        imcat_ckpt::restore_backbone_state(&mut self.store, &mut self.adam, bytes)
    }
}

/// BPR pairwise ranking loss `-mean(log σ(s⁺ - s⁻))` (paper Eq. 1/2).
pub fn bpr_loss(tape: &mut Tape, score_pos: Var, score_neg: Var) -> Var {
    let diff = tape.sub(score_pos, score_neg);
    let ls = tape.log_sigmoid(diff);
    let m = tape.mean_all(ls);
    tape.neg(m)
}

/// Bidirectional in-batch InfoNCE between row-aligned views `a` and `b`
/// (`[B, d]` each): positives on the diagonal, all other batch rows as
/// negatives, with optional per-row weights (the relatedness `M` of Eq. 9).
/// Matches the `(L_u2it + L_it2u) / 2` structure of Eq. 11.
pub fn info_nce(tape: &mut Tape, a: Var, b: Var, tau: f32, weights: Option<Var>) -> Var {
    let an = tape.l2_normalize_rows(a, 1e-12);
    let bn = tape.l2_normalize_rows(b, 1e-12);
    let logits = tape.matmul_nt(an, bn);
    let logits = tape.scale(logits, 1.0 / tau);
    let ls_ab = tape.log_softmax_rows(logits);
    let d_ab = tape.take_diag(ls_ab);
    let logits_t = tape.transpose(logits);
    let ls_ba = tape.log_softmax_rows(logits_t);
    let d_ba = tape.take_diag(ls_ba);
    let both = tape.add(d_ab, d_ba);
    let both = match weights {
        Some(w) => tape.mul(both, w),
        None => both,
    };
    let n = tape.value(both).rows() as f32;
    let s = tape.sum_all(both);
    tape.scale(s, -0.5 / n)
}

/// One-directional in-batch InfoNCE: anchors attract their row-aligned
/// target and repel the other targets. Use when only one side's rows are
/// guaranteed distinct (e.g. contrasting near-duplicate knowledge views
/// against distinct CF views).
pub fn info_nce_one_way(tape: &mut Tape, anchors: Var, targets: Var, tau: f32) -> Var {
    let an = tape.l2_normalize_rows(anchors, 1e-12);
    let tn = tape.l2_normalize_rows(targets, 1e-12);
    let logits = tape.matmul_nt(an, tn);
    let logits = tape.scale(logits, 1.0 / tau);
    let ls = tape.log_softmax_rows(logits);
    let d = tape.take_diag(ls);
    let n = tape.value(d).rows() as f32;
    let s = tape.sum_all(d);
    tape.scale(s, -1.0 / n)
}

/// LightGCN propagation: `layers` rounds of `x ← Â x`, returning the average
/// of all layer outputs including the input (He et al. 2020; `adj` must be
/// symmetric so it serves as its own transpose).
pub fn propagate_mean(tape: &mut Tape, adj: &Rc<Csr>, x0: Var, layers: usize) -> Var {
    let mut acc = x0;
    let mut x = x0;
    for _ in 0..layers {
        x = tape.spmm(adj, adj, x);
        acc = tape.add(acc, x);
    }
    tape.scale(acc, 1.0 / (layers as f32 + 1.0))
}

/// A fully connected block `x @ W + b` with optional LeakyReLU, parameters
/// registered on a shared store.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Negative slope; `None` means no activation.
    pub activation: Option<f32>,
}

impl Linear {
    /// Registers a `[d_in, d_out]` layer on `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        activation: Option<f32>,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), xavier_uniform(d_in, d_out, rng));
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, d_out));
        Self { w, b, activation }
    }

    /// Differentiable forward pass.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.leaf(store, self.w);
        let b = tape.leaf(store, self.b);
        let h = tape.matmul(x, w);
        let h = tape.add_row_vec(h, b);
        match self.activation {
            Some(alpha) => tape.leaky_relu(h, alpha),
            None => h,
        }
    }
}

/// Stack of [`Linear`] layers.
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds layers `dims[0] -> dims[1] -> ... -> dims[n]`, LeakyReLU(0.1)
    /// on all but the last layer.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        let layers = (0..dims.len() - 1)
            .map(|i| {
                let act = if i + 2 < dims.len() { Some(0.1) } else { None };
                Linear::new(store, &format!("{name}.{i}"), dims[i], dims[i + 1], act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Differentiable forward pass.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, mut x: Var) -> Var {
        for l in &self.layers {
            x = l.forward(tape, store, x);
        }
        x
    }
}

/// Sorted, deduplicated copy of an id list (for contrastive batches where a
/// duplicated node would appear as its own unseparable negative).
pub fn dedup_ids(ids: &[u32]) -> Vec<u32> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Splits a stacked node matrix — users in rows `0..n_users`, items in the
/// `n_items` rows after them, any other node type (tags) after that — into
/// user and item matrices on the tape: the shared epilogue of every model
/// that propagates over a joint graph.
pub fn split_nodes(tape: &mut Tape, nodes: Var, n_users: usize, n_items: usize) -> (Var, Var) {
    let user_ids: Vec<u32> = (0..n_users as u32).collect();
    let item_ids: Vec<u32> = (n_users as u32..(n_users + n_items) as u32).collect();
    (tape.gather_rows(nodes, &user_ids), tape.gather_rows(nodes, &item_ids))
}

/// Dense `[B, n_items]` scores as `users_emb[users] @ items_emb^T` — the
/// shared evaluation path of every dot-product model.
pub fn dot_score_all(user_emb: &Tensor, item_emb: &Tensor, users: &[u32]) -> Tensor {
    user_emb.matmul_nt_rows(users, item_emb)
}

/// Uniformly samples `n` negatives not present in `graph` row `anchor`.
pub fn sample_negatives(
    graph: &imcat_graph::Bipartite,
    anchor: u32,
    n: usize,
    rng: &mut impl Rng,
) -> Vec<u32> {
    let cols = graph.n_cols();
    (0..n)
        .map(|_| {
            for _ in 0..64 {
                let c = rng.gen_range(0..cols) as u32;
                if !graph.forward().contains(anchor, c) {
                    return c;
                }
            }
            rng.gen_range(0..cols) as u32
        })
        .collect()
}

/// Builds the `[n_items, n_users]`-shaped *mean over interacting users*
/// aggregation CSR from the training split (Eq. 7's operator), plus its
/// transpose, both ready for `spmm`.
pub fn item_user_mean_aggregator(data: &SplitDataset) -> (Rc<Csr>, Rc<Csr>) {
    let agg = data.train.col_mean_aggregator();
    let agg_t = agg.transpose();
    (Rc::new(agg), Rc::new(agg_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bpr_loss_decreases_with_better_separation() {
        let mut tape = Tape::new();
        let good_p = tape.constant(Tensor::from_vec(2, 1, vec![5.0, 5.0]));
        let good_n = tape.constant(Tensor::from_vec(2, 1, vec![-5.0, -5.0]));
        let bad_p = tape.constant(Tensor::from_vec(2, 1, vec![0.1, 0.1]));
        let bad_n = tape.constant(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let good = bpr_loss(&mut tape, good_p, good_n);
        let bad = bpr_loss(&mut tape, bad_p, bad_n);
        assert!(tape.value(good).item() < tape.value(bad).item());
        assert!(tape.value(good).item() > 0.0);
    }

    #[test]
    fn info_nce_prefers_aligned_views() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = xavier_uniform(6, 8, &mut rng);
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let av2 = tape.constant(a.clone());
        let aligned = info_nce(&mut tape, av, av2, 0.2, None);
        let b = xavier_uniform(6, 8, &mut rng);
        let av3 = tape.constant(a);
        let bv = tape.constant(b);
        let misaligned = info_nce(&mut tape, av3, bv, 0.2, None);
        assert!(tape.value(aligned).item() < tape.value(misaligned).item());
    }

    #[test]
    fn one_way_infonce_prefers_aligned_views() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = xavier_uniform(6, 8, &mut rng);
        let b = xavier_uniform(6, 8, &mut rng);
        let mut tape = Tape::new();
        let a1 = tape.constant(a.clone());
        let a2 = tape.constant(a.clone());
        let aligned = info_nce_one_way(&mut tape, a1, a2, 0.5);
        let a3 = tape.constant(a);
        let bv = tape.constant(b);
        let mis = info_nce_one_way(&mut tape, a3, bv, 0.5);
        assert!(tape.value(aligned).item() < tape.value(mis).item());
    }

    #[test]
    fn dedup_ids_sorts_and_removes_duplicates() {
        assert_eq!(dedup_ids(&[3, 1, 3, 2, 1]), vec![1, 2, 3]);
        assert_eq!(dedup_ids(&[]), Vec::<u32>::new());
        assert_eq!(dedup_ids(&[7]), vec![7]);
    }

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[6, 8, 3], &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(Tensor::zeros(4, 6));
        let yv = mlp.forward(&mut tape, &store, xv);
        assert_eq!(tape.value(yv).shape(), (4, 3));
    }

    #[test]
    fn dot_score_all_selects_rows() {
        let u = Tensor::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        let v = Tensor::from_vec(2, 2, vec![2., 0., 0., 3.]);
        let s = dot_score_all(&u, &v, &[2, 0]);
        assert_eq!(s.as_slice(), &[2., 3., 2., 0.]);
    }
}
