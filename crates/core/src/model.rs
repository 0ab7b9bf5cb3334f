//! The IMCAT plug-in model (paper §IV): wraps any [`Backbone`] and trains the
//! joint objective of Eq. 18,
//! `L = L_UV + α·L_VT + β·L_CA* + γ·L_KL` (+ intent independence),
//! with the pre-training schedule, periodic hard-assignment refresh, and all
//! ablation switches of §V-F.

use std::rc::Rc;

use imcat_data::{BprBatch, BprSampler, ItemBatcher, SplitDataset};
use imcat_graph::Bipartite;
use imcat_models::{bpr_loss, Backbone, EpochStats, RecModel, Scorer};
use imcat_tensor::{xavier_uniform, Csr, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AlignMode, ClusteringMode, ImcatConfig};
use crate::imca::{cluster_tag_aggregator, masked_info_nce, relatedness_matrix, PositiveMask};
use crate::irm::{hard_assignment, kl_loss, kmeans_centers, soft_assignment, target_distribution};
use crate::isa::SimilarSets;

/// Cluster-dependent derived state, rebuilt at every hard-assignment refresh.
struct ClusterState {
    assignment: Vec<usize>,
    /// Per-intent tag mean-aggregators (Eq. 8) and their transposes.
    aggs: Vec<(Rc<Csr>, Rc<Csr>)>,
    /// Intent relatedness `M` (Eq. 9), `[n_items, K]`.
    m: Tensor,
    /// ISA similar sets (§IV-C); empty when ISA is disabled.
    similar: Option<SimilarSets>,
}

/// Per-epoch sums of the scaled terms of Eq. 18. The scaled contributions
/// add up to the total epoch loss exactly, so telemetry consumers can verify
/// the decomposition (`uv + vt + ca + kl + independence == total`).
#[derive(Clone, Copy, Debug, Default)]
struct TermSums {
    uv: f64,
    vt: f64,
    ca: f64,
    kl: f64,
    independence: f64,
}

impl TermSums {
    fn total(&self) -> f64 {
        self.uv + self.vt + self.ca + self.kl + self.independence
    }
}

/// IMCAT wrapped around a recommendation backbone.
pub struct Imcat<B: Backbone> {
    backbone: B,
    cfg: ImcatConfig,
    batch_size: usize,
    dk: usize,
    tag_emb: ParamId,
    centers: ParamId,
    /// Per-intent `(W₀ᵏ, b₀ᵏ)` tag projections (Eq. 10).
    proj: Vec<(ParamId, ParamId)>,
    /// Per-intent `(W₁ᵏ, b₁ᵏ, W₂ᵏ)` non-linear heads (Eq. 14).
    nlt: Vec<(ParamId, ParamId, ParamId)>,
    ui_sampler: BprSampler,
    vt_sampler: BprSampler,
    batcher: ItemBatcher,
    pending_item_batches: Vec<Vec<u32>>,
    /// Item → interacting-users mean aggregation (Eq. 7); batch-restricted
    /// row subsets (and their transposes) are derived from it per step.
    item_user_agg: Rc<Csr>,
    item_tag: Bipartite,
    state: Option<ClusterState>,
    epoch: usize,
    steps_since_refresh: usize,
    refresh_count: u64,
    terms: TermSums,
}

impl<B: Backbone> Imcat<B> {
    /// Wraps `backbone`, registering IMCAT's parameters in its store.
    pub fn new(mut backbone: B, data: &SplitDataset, cfg: ImcatConfig, rng: &mut StdRng) -> Self {
        let d = backbone.core().dim;
        cfg.validate(d);
        let dk = d / cfg.k_intents;
        {
            let store = &mut backbone.core_mut().store;
            let tag_emb = store.add("imcat.tag_emb", xavier_uniform(data.n_tags(), d, rng));
            let centers = store.add("imcat.centers", xavier_uniform(cfg.k_intents, d, rng));
            let mut proj = Vec::with_capacity(cfg.k_intents);
            let mut nlt = Vec::with_capacity(cfg.k_intents);
            for k in 0..cfg.k_intents {
                let w0 = store.add(format!("imcat.proj{k}.w"), xavier_uniform(d, dk, rng));
                let b0 = store.add(format!("imcat.proj{k}.b"), Tensor::zeros(1, dk));
                proj.push((w0, b0));
                let w1 = store.add(format!("imcat.nlt{k}.w1"), xavier_uniform(dk, dk, rng));
                let b1 = store.add(format!("imcat.nlt{k}.b1"), Tensor::zeros(1, dk));
                let w2 = store.add(format!("imcat.nlt{k}.w2"), xavier_uniform(dk, dk, rng));
                nlt.push((w1, b1, w2));
            }
            backbone.core_mut().rebuild_optimizer();
            let agg = data.train.col_mean_aggregator();
            let batch_size = cfg.bpr_batch;
            let align_batch = cfg.align_batch;
            Self {
                cfg,
                batch_size,
                dk,
                tag_emb,
                centers,
                proj,
                nlt,
                ui_sampler: BprSampler::for_user_items(data),
                vt_sampler: BprSampler::for_item_tags(data),
                batcher: ItemBatcher::new(data.n_items(), align_batch),
                pending_item_batches: Vec::new(),
                item_user_agg: Rc::new(agg),
                item_tag: data.item_tag.clone(),
                state: None,
                epoch: 0,
                steps_since_refresh: 0,
                refresh_count: 0,
                terms: TermSums::default(),
                backbone,
            }
        }
    }

    /// Immutable access to the wrapped backbone.
    pub fn backbone(&self) -> &B {
        &self.backbone
    }

    /// The parameter store shared by the backbone and IMCAT's heads.
    fn store(&self) -> &ParamStore {
        &self.backbone.core().store
    }

    /// The current hard tag-cluster assignment, if clustering has activated.
    pub fn cluster_assignment(&self) -> Option<&[usize]> {
        self.state.as_ref().map(|s| s.assignment.as_slice())
    }

    /// The intent-relatedness matrix `M` (Eq. 9), if available.
    pub fn relatedness(&self) -> Option<&Tensor> {
        self.state.as_ref().map(|s| &s.m)
    }

    /// Whether the model is still in the pre-training phase.
    pub fn pretraining(&self) -> bool {
        self.epoch < self.cfg.pretrain_epochs
    }

    /// Current configuration.
    pub fn config(&self) -> &ImcatConfig {
        &self.cfg
    }

    /// Tags assigned to an item (sorted ascending).
    pub fn item_tags(&self, item: u32) -> Vec<u32> {
        self.item_tag.forward().row_indices(item as usize).to_vec()
    }

    /// Initializes cluster centers by k-means on the current tag embeddings
    /// (invoked automatically when pre-training ends).
    pub fn init_clusters(&mut self, rng: &mut StdRng) {
        // The k-means seeding is timed separately from refresh_clusters, which
        // opens its own `phase.refresh` span — nesting the same span would
        // double-count the refresh time.
        let centers = {
            let _sp = imcat_obs::span("phase.refresh");
            kmeans_centers(self.store().value(self.tag_emb), self.cfg.k_intents, 10, rng)
        };
        *self.backbone.core_mut().store.value_mut(self.centers) = centers;
        self.refresh_clusters();
    }

    /// Recomputes hard assignments and all cluster-derived structures
    /// (paper: every 10 iterations). In the periodic-k-means design ablation
    /// the centers themselves are recomputed here instead of being learned.
    pub fn refresh_clusters(&mut self) {
        let _sp = imcat_obs::span("phase.refresh");
        if _sp.active() {
            imcat_obs::counter_add("cluster.refreshes", 1);
        }
        if self.cfg.clustering == ClusteringMode::PeriodicKmeans {
            self.refresh_count += 1;
            let mut rng = StdRng::seed_from_u64(self.refresh_count);
            let centers =
                kmeans_centers(self.store().value(self.tag_emb), self.cfg.k_intents, 5, &mut rng);
            *self.backbone.core_mut().store.value_mut(self.centers) = centers;
        }
        let mut tape = Tape::new();
        let q = self.soft_assignment(&mut tape);
        let assignment = hard_assignment(tape.value(q));
        self.rebuild_derived(assignment);
        self.steps_since_refresh = 0;
    }

    /// Tag-to-cluster soft assignment `Q` (Eq. 4) over the current tag
    /// embeddings and centers, recorded on `tape`.
    fn soft_assignment(&self, tape: &mut Tape) -> Var {
        let tags = tape.leaf(self.store(), self.tag_emb);
        let centers = tape.leaf(self.store(), self.centers);
        soft_assignment(tape, tags, centers, self.cfg.eta)
    }

    /// Rebuilds every cluster-derived structure (aggregators, relatedness,
    /// ISA similar sets) from a given hard assignment. All of it is a
    /// deterministic, RNG-free function of `(assignment, item_tag, cfg)`, so
    /// a checkpoint only needs to persist the assignment itself.
    fn rebuild_derived(&mut self, assignment: Vec<usize>) {
        let aggs = (0..self.cfg.k_intents)
            .map(|k| {
                let a = cluster_tag_aggregator(self.item_tag.forward(), &assignment, k);
                let at = a.transpose();
                (Rc::new(a), Rc::new(at))
            })
            .collect();
        let m = relatedness_matrix(self.item_tag.forward(), &assignment, self.cfg.k_intents);
        let similar = if self.cfg.use_isa {
            Some(SimilarSets::build(
                self.item_tag.forward(),
                &assignment,
                self.cfg.k_intents,
                self.cfg.delta,
            ))
        } else {
            None
        };
        self.state = Some(ClusterState { assignment, aggs, m, similar });
    }

    fn next_item_batch(&mut self, rng: &mut StdRng) -> Vec<u32> {
        if self.pending_item_batches.is_empty() {
            self.pending_item_batches = self.batcher.epoch(rng);
        }
        self.pending_item_batches.pop().unwrap_or_default()
    }

    /// Non-linear head of intent `k` (Eq. 14): `W₂·LeakyReLU(W₁·x + b₁)`.
    fn nlt_forward(&self, tape: &mut Tape, k: usize, x: Var) -> Var {
        let (w1, b1, w2) = self.nlt[k];
        let store = self.store();
        let w1v = tape.leaf(store, w1);
        let b1v = tape.leaf(store, b1);
        let w2v = tape.leaf(store, w2);
        let h = tape.matmul(x, w1v);
        let h = tape.add_row_vec(h, b1v);
        let h = tape.leaky_relu(h, 0.1);
        tape.matmul(h, w2v)
    }

    /// One pre-training step: `L_UV + α·L_VT` only.
    fn step_pretrain(&mut self, rng: &mut StdRng) -> f32 {
        // Sampling runs before the `phase.forward` span opens so the two
        // phases stay disjoint in the telemetry breakdown.
        let ui = self.ui_sampler.sample(self.batch_size, rng);
        let vt = self.vt_sampler.sample(self.batch_size, rng);
        let mut tape = Tape::new();
        let sp_fwd = imcat_obs::span("phase.forward");
        let (u_all, v_all) = self.backbone.embed_all(&mut tape);
        let loss = self.ranking_losses(&mut tape, u_all, v_all, &ui, &vt);
        let value = tape.value(loss).item();
        drop(sp_fwd);
        let core = self.backbone.core_mut();
        tape.backward(loss, &mut core.store);
        core.adam.step(&mut core.store);
        value
    }

    /// `L_UV + α·L_VT` on an existing tape, over pre-drawn triplet batches.
    fn ranking_losses(
        &mut self,
        tape: &mut Tape,
        u_all: Var,
        v_all: Var,
        batch: &BprBatch,
        vt: &BprBatch,
    ) -> Var {
        let sp = self.backbone.score_pairs(tape, u_all, &batch.anchors, v_all, &batch.positives);
        let sn = self.backbone.score_pairs(tape, u_all, &batch.anchors, v_all, &batch.negatives);
        let l_uv = bpr_loss(tape, sp, sn);
        let store = self.store();
        let t_all = tape.leaf(store, self.tag_emb);
        let vi = tape.gather_rows(v_all, &vt.anchors);
        let tp = tape.gather_rows(t_all, &vt.positives);
        let tn = tape.gather_rows(t_all, &vt.negatives);
        let sp_t = tape.rowwise_dot(vi, tp);
        let sn_t = tape.rowwise_dot(vi, tn);
        let l_vt = bpr_loss(tape, sp_t, sn_t);
        let l_vt = tape.scale(l_vt, self.cfg.alpha);
        self.terms.uv += tape.value(l_uv).item() as f64;
        self.terms.vt += tape.value(l_vt).item() as f64;
        tape.add(l_uv, l_vt)
    }

    /// The intent-aware contrastive alignment `L_CA*` for one item batch.
    fn alignment_loss(
        &self,
        tape: &mut Tape,
        u_all: Var,
        v_all: Var,
        items: &[u32],
        rng: &mut StdRng,
    ) -> Option<Var> {
        if items.len() < 2 || self.cfg.align == AlignMode::None {
            return None;
        }
        let state = self.state.as_ref()?;
        let store = self.store();
        let t_all = tape.leaf(store, self.tag_emb);
        // Batch-restricted user aggregator (Eq. 7): SpMM cost scales with the
        // batch's interaction count, not the item-set size.
        let batch_user_agg = Rc::new(self.item_user_agg.select_rows(items));
        let batch_user_agg_t = Rc::new(batch_user_agg.transpose());
        let mut total: Option<Var> = None;
        for k in 0..self.cfg.k_intents {
            // ISA positives: extend the target list with similar items.
            let mut targets: Vec<u32> = items.to_vec();
            let mut positives: Vec<Vec<usize>> = Vec::with_capacity(items.len());
            if let Some(similar) = state.similar.as_ref() {
                for (pos, &j) in items.iter().enumerate() {
                    let mut cols = vec![pos];
                    for extra in similar.sample(k, j as usize, self.cfg.isa_max_pos, rng) {
                        let col = match targets.iter().position(|&t| t == extra) {
                            Some(c) => c,
                            None => {
                                targets.push(extra);
                                targets.len() - 1
                            }
                        };
                        cols.push(col);
                    }
                    positives.push(cols);
                }
            } else {
                positives = (0..items.len()).map(|p| vec![p]).collect();
            }
            let mask = PositiveMask::from_lists(items.len(), targets.len(), &positives);

            // Anchors: per-intent aggregated user representations (Eq. 7).
            let lo = k * self.dk;
            let hi = lo + self.dk;
            let u_k = tape.slice_cols(u_all, lo, hi);
            let anchors = tape.spmm(&batch_user_agg, &batch_user_agg_t, u_k);

            // Targets: z = L2(t̂) ⊕ L2(v^k) per the alignment mode.
            let v_k = tape.slice_cols(v_all, lo, hi);
            let v_rows = tape.gather_rows(v_k, &targets);
            let z = match self.cfg.align {
                AlignMode::NoTags => v_rows,
                AlignMode::Full | AlignMode::NoItems => {
                    let (agg, _) = &state.aggs[k];
                    let target_agg = Rc::new(agg.select_rows(&targets));
                    let target_agg_t = Rc::new(target_agg.transpose());
                    let t_rows = tape.spmm(&target_agg, &target_agg_t, t_all); // [N, d]
                    let (w0, b0) = self.proj[k];
                    let w0v = tape.leaf(store, w0);
                    let b0v = tape.leaf(store, b0);
                    let t_hat = tape.matmul(t_rows, w0v);
                    let t_hat = tape.add_row_vec(t_hat, b0v);
                    if self.cfg.align == AlignMode::NoItems {
                        t_hat
                    } else {
                        let tn = tape.l2_normalize_rows(t_hat, 1e-12);
                        let vn = tape.l2_normalize_rows(v_rows, 1e-12);
                        tape.add(tn, vn)
                    }
                }
                AlignMode::None => unreachable!(),
            };
            let (anchors, z) = if self.cfg.use_nlt {
                (self.nlt_forward(tape, k, anchors), self.nlt_forward(tape, k, z))
            } else {
                (anchors, z)
            };
            // Relatedness weights.
            let mut aw = Tensor::zeros(items.len(), 1);
            for (i, &j) in items.iter().enumerate() {
                aw.set(i, 0, state.m.get(j as usize, k));
            }
            let mut tw = Tensor::zeros(targets.len(), 1);
            for (i, &j) in targets.iter().enumerate() {
                tw.set(i, 0, state.m.get(j as usize, k));
            }
            let l_k = masked_info_nce(tape, anchors, z, &mask, &aw, &tw, self.cfg.tau);
            total = Some(match total {
                Some(t) => tape.add(t, l_k),
                None => l_k,
            });
        }
        total.map(|t| tape.scale(t, 1.0 / self.cfg.k_intents as f32))
    }

    /// Independence regularizer over cluster centers: mean squared cosine of
    /// distinct center pairs (§V-D, following KGIN's intent independence).
    fn independence_loss(&self, tape: &mut Tape) -> Option<Var> {
        if self.cfg.k_intents < 2 || self.cfg.independence_weight == 0.0 {
            return None;
        }
        let c = tape.leaf(self.store(), self.centers);
        let cn = tape.l2_normalize_rows(c, 1e-12);
        let gram = tape.matmul_nt(cn, cn);
        let sq = tape.mul(gram, gram);
        let total = tape.sum_all(sq);
        let p = self.cfg.k_intents as f32;
        let off = tape.add_scalar(total, -p);
        Some(tape.scale(off, 1.0 / (p * (p - 1.0))))
    }

    /// One full training step of Eq. 18.
    fn step_full(&mut self, rng: &mut StdRng) -> f32 {
        let items = self.next_item_batch(rng);
        let ui = self.ui_sampler.sample(self.batch_size, rng);
        let vt = self.vt_sampler.sample(self.batch_size, rng);
        let mut tape = Tape::new();
        let sp_fwd = imcat_obs::span("phase.forward");
        let (u_all, v_all) = self.backbone.embed_all(&mut tape);
        let mut loss = self.ranking_losses(&mut tape, u_all, v_all, &ui, &vt);
        if self.cfg.beta > 0.0 {
            if let Some(l_ca) = self.alignment_loss(&mut tape, u_all, v_all, &items, rng) {
                let l_ca = tape.scale(l_ca, self.cfg.beta);
                self.terms.ca += tape.value(l_ca).item() as f64;
                loss = tape.add(loss, l_ca);
            }
        }
        if self.cfg.gamma > 0.0 && self.cfg.clustering == ClusteringMode::EndToEnd {
            let q = self.soft_assignment(&mut tape);
            let target = target_distribution(tape.value(q));
            let l_kl = kl_loss(&mut tape, q, &target);
            let l_kl = tape.scale(l_kl, self.cfg.gamma);
            self.terms.kl += tape.value(l_kl).item() as f64;
            loss = tape.add(loss, l_kl);
        }
        if let Some(ind) = self.independence_loss(&mut tape) {
            let ind = tape.scale(ind, self.cfg.independence_weight);
            self.terms.independence += tape.value(ind).item() as f64;
            loss = tape.add(loss, ind);
        }
        let value = tape.value(loss).item();
        drop(sp_fwd);
        let core = self.backbone.core_mut();
        tape.backward(loss, &mut core.store);
        core.adam.step(&mut core.store);
        self.steps_since_refresh += 1;
        if self.steps_since_refresh >= self.cfg.refresh_every {
            self.refresh_clusters();
        }
        value
    }
}

impl<B: Backbone> RecModel for Imcat<B> {
    fn name(&self) -> String {
        let backbone_name = self.backbone.name();
        let prefix = match backbone_name.as_str() {
            "BPRMF" => "B",
            "NeuMF" => "N",
            "LightGCN" => "L",
            other => other,
        };
        format!("{prefix}-IMCAT")
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        self.terms = TermSums::default();
        let batches = self.ui_sampler.batches_per_epoch(self.batch_size);
        let mut total = 0.0;
        if self.pretraining() {
            for _ in 0..batches {
                total += self.step_pretrain(rng);
            }
        } else {
            if self.state.is_none() {
                self.init_clusters(rng);
            }
            for _ in 0..batches {
                total += self.step_full(rng);
            }
        }
        let epoch = self.epoch;
        self.epoch += 1;
        if imcat_obs::enabled() {
            let n = batches as f64;
            let t = self.terms;
            imcat_obs::gauge_set("loss.uv", t.uv / n);
            imcat_obs::gauge_set("loss.vt", t.vt / n);
            imcat_obs::gauge_set("loss.ca", t.ca / n);
            imcat_obs::gauge_set("loss.kl", t.kl / n);
            imcat_obs::gauge_set("loss.independence", t.independence / n);
            imcat_obs::emit(
                "loss_terms",
                vec![
                    ("epoch", imcat_obs::Json::Num(epoch as f64)),
                    ("model", imcat_obs::Json::Str(self.name())),
                    ("uv", imcat_obs::Json::Num(t.uv / n)),
                    ("vt", imcat_obs::Json::Num(t.vt / n)),
                    ("ca", imcat_obs::Json::Num(t.ca / n)),
                    ("kl", imcat_obs::Json::Num(t.kl / n)),
                    ("independence", imcat_obs::Json::Num(t.independence / n)),
                    ("total", imcat_obs::Json::Num(t.total() / n)),
                ],
            );
        }
        EpochStats { loss: total / batches as f32, batches }
    }

    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        self.backbone.forward_embeddings(tape)
    }

    fn scorer(&self) -> Scorer<'_> {
        self.backbone.scorer()
    }

    fn num_params(&self) -> usize {
        self.backbone.num_params()
    }

    /// Serializes the full mutable training state: every parameter plus the
    /// Adam state (via the backbone's store), the epoch / refresh counters,
    /// the current hard cluster assignment, and the pending item-batch queue.
    /// The cluster-derived structures (aggregators, relatedness matrix, ISA
    /// sets) are rebuilt on load from the saved assignment — recomputing the
    /// assignment itself from the restored embeddings would *not* be
    /// equivalent, because refreshes happen mid-epoch against older
    /// embeddings.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut enc = imcat_ckpt::Encoder::new();
        enc.put_u64(self.epoch as u64);
        enc.put_u64(self.steps_since_refresh as u64);
        enc.put_u64(self.refresh_count);
        enc.put_bytes(&self.backbone.core().save_state());
        match &self.state {
            Some(s) => {
                enc.put_u32(1);
                let assignment: Vec<u64> = s.assignment.iter().map(|&a| a as u64).collect();
                enc.put_u64s(&assignment);
            }
            None => enc.put_u32(0),
        }
        enc.put_u32(self.pending_item_batches.len() as u32);
        for batch in &self.pending_item_batches {
            enc.put_u32s(batch);
        }
        Some(enc.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut dec = imcat_ckpt::Decoder::new(bytes);
        let epoch = dec.u64()? as usize;
        let steps_since_refresh = dec.u64()? as usize;
        let refresh_count = dec.u64()?;
        let backbone_bytes = dec.bytes()?;
        let assignment = if dec.u32()? == 1 {
            Some(dec.u64s()?.into_iter().map(|a| a as usize).collect::<Vec<_>>())
        } else {
            None
        };
        let n_batches = dec.u32()? as usize;
        let mut pending = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            pending.push(dec.u32s()?);
        }
        dec.finish()?;
        // Validate everything against this model's configuration before any
        // mutation, so a mismatched checkpoint leaves the model untouched.
        if let Some(a) = &assignment {
            let n_tags = self.store().value(self.tag_emb).shape().0;
            if a.len() != n_tags {
                return Err(invalid(format!(
                    "checkpoint assignment covers {} tags, model has {n_tags}",
                    a.len()
                )));
            }
            if let Some(&k) = a.iter().find(|&&k| k >= self.cfg.k_intents) {
                return Err(invalid(format!(
                    "checkpoint assignment uses intent {k}, model has {}",
                    self.cfg.k_intents
                )));
            }
        }
        self.backbone.core_mut().load_state(backbone_bytes)?;
        self.epoch = epoch;
        self.refresh_count = refresh_count;
        match assignment {
            Some(a) => self.rebuild_derived(a),
            None => self.state = None,
        }
        // After rebuild_derived, which does not touch the step counter.
        self.steps_since_refresh = steps_since_refresh;
        self.pending_item_batches = pending;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_models::test_util::{tiny_split, training_improves_recall};
    use imcat_models::{Bprmf, LightGcn, Neumf, TrainConfig};
    use rand::SeedableRng;

    fn quick_cfg() -> ImcatConfig {
        ImcatConfig { pretrain_epochs: 3, ..Default::default() }
    }

    #[test]
    fn pretraining_phase_transitions() {
        let data = tiny_split(201);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let mut model = Imcat::new(bb, &data, quick_cfg(), &mut rng);
        assert!(model.pretraining());
        assert!(model.cluster_assignment().is_none());
        for _ in 0..4 {
            model.train_epoch(&mut rng);
        }
        assert!(!model.pretraining());
        assert!(model.cluster_assignment().is_some());
        let a = model.cluster_assignment().unwrap();
        assert_eq!(a.len(), data.n_tags());
        assert!(a.iter().all(|&k| k < 4));
    }

    #[test]
    fn b_imcat_improves_over_training() {
        let data = tiny_split(232);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let model = Imcat::new(bb, &data, quick_cfg(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn n_imcat_improves_over_training() {
        let data = tiny_split(203);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Neumf::new(&data, TrainConfig::default(), &mut rng);
        let model = Imcat::new(bb, &data, quick_cfg(), &mut rng);
        training_improves_recall(model, &data, 40);
    }

    #[test]
    fn l_imcat_improves_over_training() {
        let data = tiny_split(204);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = LightGcn::new(&data, TrainConfig::default(), &mut rng);
        let model = Imcat::new(bb, &data, quick_cfg(), &mut rng);
        training_improves_recall(model, &data, 30);
    }

    #[test]
    fn names_follow_paper_convention() {
        let data = tiny_split(205);
        let mut rng = StdRng::seed_from_u64(0);
        let b = Imcat::new(
            Bprmf::new(&data, TrainConfig::default(), &mut rng),
            &data,
            quick_cfg(),
            &mut rng,
        );
        assert_eq!(b.name(), "B-IMCAT");
        let n = Imcat::new(
            Neumf::new(&data, TrainConfig::default(), &mut rng),
            &data,
            quick_cfg(),
            &mut rng,
        );
        assert_eq!(n.name(), "N-IMCAT");
        let l = Imcat::new(
            LightGcn::new(&data, TrainConfig::default(), &mut rng),
            &data,
            quick_cfg(),
            &mut rng,
        );
        assert_eq!(l.name(), "L-IMCAT");
    }

    #[test]
    fn all_ablations_run_a_full_epoch() {
        let data = tiny_split(206);
        for cfg in [
            quick_cfg().without_uit(),
            quick_cfg().without_ut(),
            quick_cfg().without_ui(),
            quick_cfg().without_nlt(),
            quick_cfg().without_isa(),
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
            let mut model =
                Imcat::new(bb, &data, ImcatConfig { pretrain_epochs: 1, ..cfg }, &mut rng);
            for _ in 0..3 {
                let stats = model.train_epoch(&mut rng);
                assert!(stats.loss.is_finite(), "ablation produced NaN loss");
            }
        }
    }

    #[test]
    fn relatedness_matches_item_count() {
        let data = tiny_split(207);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let mut model =
            Imcat::new(bb, &data, ImcatConfig { pretrain_epochs: 0, ..quick_cfg() }, &mut rng);
        model.train_epoch(&mut rng);
        let m = model.relatedness().unwrap();
        assert_eq!(m.shape(), (data.n_items(), 4));
        for j in 0..data.n_items() {
            let s: f32 = m.row(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
