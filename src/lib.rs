//! # imcat
//!
//! A from-scratch Rust reproduction of **IMCAT** — *Intent-aware Multi-source
//! Contrastive Alignment for Tag-enhanced Recommendation* (Wu et al., ICDE
//! 2023) — including its training substrate, the three backbones it plugs
//! into, all eleven comparison baselines, the evaluation stack, and an
//! experiment harness regenerating every table and figure of the paper.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`tensor`] — dense tensors, reverse-mode autodiff, sparse-aware Adam.
//! * [`graph`] — CSR bipartite graphs, normalized adjacency, Jaccard sets.
//! * [`data`] — dataset model, synthetic intent-driven generators, loaders.
//! * [`models`] — BPRMF / NeuMF / LightGCN backbones and the baselines.
//! * [`core`] — IMCAT itself (IRM + IMCA + ISA + joint trainer).
//! * [`eval`] — Recall@N / NDCG@N, long-tail and cold-start analyses.
//! * [`ckpt`] — checksummed checkpoints and the frozen inference artifact.
//! * [`serve`] / [`net`] / [`obs`] — the cached/batched/ANN engine over an
//!   artifact, its HTTP front-end (`imcat serve`), and the telemetry both
//!   report to.
//!
//! ## Quickstart
//!
//! ```
//! use imcat::prelude::*;
//!
//! // Generate a small intent-driven dataset and split it 7:1:2.
//! let mut rng = StdRng::seed_from_u64(42);
//! let synth = generate(&SynthConfig::tiny(), 42);
//! let split = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
//!
//! // Wrap a LightGCN backbone with IMCAT and train briefly.
//! let backbone = LightGcn::new(&split, TrainConfig::default(), &mut rng);
//! let mut model = Imcat::new(
//!     backbone,
//!     &split,
//!     ImcatConfig { pretrain_epochs: 1, ..Default::default() },
//!     &mut rng,
//! );
//! for _ in 0..3 {
//!     model.train_epoch(&mut rng);
//! }
//!
//! // Evaluate Recall@20 / NDCG@20 on the held-out test items.
//! let metrics = evaluate_model(&model, &split, &EvalSpec::at(20)).aggregate();
//! assert!(metrics.recall >= 0.0 && metrics.recall <= 1.0);
//! ```

#![warn(missing_docs)]

pub use imcat_ckpt as ckpt;
pub use imcat_core as core;
pub use imcat_data as data;
pub use imcat_eval as eval;
pub use imcat_graph as graph;
pub use imcat_models as models;
pub use imcat_net as net;
pub use imcat_obs as obs;
pub use imcat_serve as serve;
pub use imcat_tensor as tensor;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use imcat_core::{evaluate_model, trainer, AlignMode, Imcat, ImcatConfig, TrainerConfig};
    pub use imcat_data::{generate, BprSampler, Dataset, FilterConfig, SplitDataset, SynthConfig};
    pub use imcat_eval::{
        cold_start_users, evaluate, evaluate_per_user, group_recall_contribution,
        item_popularity_groups, paired_t_test, EvalSpec, EvalTarget,
    };
    pub use imcat_graph::{degree_groups, Bipartite, ClusterTagSets};
    pub use imcat_models::{
        Backbone, Bprmf, Cfa, Cke, Dspr, Kgat, Kgcl, Kgin, LightGcn, Neumf, RecModel, RippleNet,
        Sgl, Tgcn, TrainConfig,
    };
    pub use imcat_tensor::{Csr, ParamStore, Tape, Tensor};
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}
