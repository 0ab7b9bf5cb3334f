//! # imcat-eval
//!
//! Evaluation stack for the IMCAT reproduction: full-ranking Recall@N and
//! NDCG@N with train-item masking (paper §V-B), long-tail popularity-group
//! decomposition (Fig. 7), cold-start user subsets (Fig. 8), and the paired
//! t-test behind Table II's significance markers.

#![warn(missing_docs)]

mod extended;
mod groups;
mod metrics;
mod stats;

pub use extended::{evaluate_extended, intra_list_diversity, ExtendedMetrics};
pub use groups::{cold_start_users, group_recall_contribution, item_popularity_groups};
pub use metrics::{
    evaluate, evaluate_per_user, top_n_masked, top_n_masked_with, EvalSpec, EvalTarget,
    PerUserMetrics, RankingMetrics, TopKScratch,
};
pub use stats::{incomplete_beta, ln_gamma, mean, paired_t_test, std_dev, two_tailed_p, TTest};
