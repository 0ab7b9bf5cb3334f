//! # imcat-models
//!
//! Recommendation backbones and comparison baselines for the IMCAT
//! reproduction (paper §V-C):
//!
//! * **Backbones** (plug-in targets for IMCAT): [`Bprmf`], [`Neumf`],
//!   [`LightGcn`] — all implementing [`Backbone`].
//! * **Tag-enhanced baselines**: [`Cfa`], [`Dspr`], [`Tgcn`].
//! * **KG-enhanced baselines** (tags treated as KG entities, §II-B):
//!   [`Cke`], [`RippleNet`], [`Kgat`], [`Kgin`].
//! * **SSL-based baselines**: [`Sgl`], [`Kgcl`].
//!
//! Every model implements [`RecModel`] (train an epoch, score users) and is
//! unit-tested for loss descent plus recall improvement over random ranking.
//!
//! Each model writes its forward pass once, on the autodiff [`Tape`]:
//! evaluation, artifact export and IMCAT's cluster refresh run that same
//! forward on a throwaway tape that is never differentiated
//! ([`RecModel::forward_embeddings`] → [`RecModel::export_embeddings`]), so
//! the scores evaluated and served are those of the function that was
//! trained, bit for bit. There is no gradient-free twin to drift from it.
//!
//! [`Tape`]: imcat_tensor::Tape

#![warn(missing_docs)]

pub mod baselines;
pub mod common;
pub mod test_util;

mod bprmf;
mod lightgcn;
mod neumf;

pub use baselines::{Cfa, Cke, Dspr, Kgat, Kgcl, Kgin, RippleNet, Sgl, Tgcn};
pub use bprmf::Bprmf;
pub use common::{
    bpr_loss, dot_score_all, info_nce, propagate_mean, Backbone, EmbeddingCore, EpochStats, Linear,
    Mlp, RecModel, Scorer, TrainConfig,
};
pub use lightgcn::LightGcn;
pub use neumf::Neumf;
