//! Intent-level explanation of recommendations.
//!
//! The paper motivates intent disentanglement with interpretability: each
//! sub-embedding pair `(u^k, v^k)` captures one factor behind an interaction
//! (§IV-A), and tag cluster `k` names that factor. This module decomposes a
//! user–item relevance score into per-intent contributions and surfaces the
//! tags that ground each intent, turning the learned structure into
//! human-readable evidence ("recommended mainly for intent 2: tags 7, 13").

use imcat_models::Backbone;
use imcat_tensor::Tape;

use crate::model::Imcat;

/// One intent's share of a user–item relevance score.
#[derive(Clone, Debug)]
pub struct IntentContribution {
    /// Intent index `k`.
    pub intent: usize,
    /// Inner product of the intent sub-embeddings `u^k · v^k`.
    pub score: f32,
    /// The item's relatedness `M[item][k]` to this intent (Eq. 9).
    pub item_relatedness: f32,
    /// Tags of the item that belong to this intent's cluster.
    pub supporting_tags: Vec<u32>,
}

/// A decomposed explanation of one recommendation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explained user.
    pub user: u32,
    /// The explained item.
    pub item: u32,
    /// Total relevance (sum of intent scores; equals the dot product of the
    /// resolved embeddings for dot-product backbones).
    pub total: f32,
    /// Per-intent breakdown, sorted by descending score.
    pub contributions: Vec<IntentContribution>,
}

impl Explanation {
    /// The index of the strongest intent.
    pub fn dominant_intent(&self) -> usize {
        self.contributions.first().map_or(0, |c| c.intent)
    }
}

impl<B: Backbone> Imcat<B> {
    /// Decomposes the relevance of `(user, item)` into per-intent
    /// contributions. Requires clustering to be active (i.e. pre-training
    /// finished); returns `None` before that.
    pub fn explain(&self, user: u32, item: u32) -> Option<Explanation> {
        let assignment = self.cluster_assignment()?.to_vec();
        let m = self.relatedness()?.clone();
        let k_intents = self.config().k_intents;
        let d = self.backbone().core().dim;
        let dk = d / k_intents;
        // Resolved embeddings (propagated for GNN backbones).
        let mut tape = Tape::new();
        let (u_all, v_all) = self.backbone().embed_all(&mut tape);
        let u_row = tape.value(u_all).row(user as usize).to_vec();
        let v_row = tape.value(v_all).row(item as usize).to_vec();
        let item_tags = self.item_tags(item);
        let mut contributions: Vec<IntentContribution> = (0..k_intents)
            .map(|k| {
                let lo = k * dk;
                let score: f32 =
                    u_row[lo..lo + dk].iter().zip(&v_row[lo..lo + dk]).map(|(a, b)| a * b).sum();
                let supporting_tags: Vec<u32> =
                    item_tags.iter().copied().filter(|&t| assignment[t as usize] == k).collect();
                IntentContribution {
                    intent: k,
                    score,
                    item_relatedness: m.get(item as usize, k),
                    supporting_tags,
                }
            })
            .collect();
        let total = contributions.iter().map(|c| c.score).sum();
        contributions.sort_by(|a, b| b.score.total_cmp(&a.score));
        Some(Explanation { user, item, total, contributions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImcatConfig;
    use imcat_models::test_util::tiny_split;
    use imcat_models::{Bprmf, RecModel, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model() -> (Imcat<Bprmf>, imcat_data::SplitDataset) {
        let data = tiny_split(401);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let mut model = Imcat::new(
            bb,
            &data,
            ImcatConfig { pretrain_epochs: 2, ..Default::default() },
            &mut rng,
        );
        for _ in 0..6 {
            model.train_epoch(&mut rng);
        }
        (model, data)
    }

    #[test]
    fn explanation_unavailable_before_clustering() {
        let data = tiny_split(402);
        let mut rng = StdRng::seed_from_u64(0);
        let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let model = Imcat::new(
            bb,
            &data,
            ImcatConfig { pretrain_epochs: 10, ..Default::default() },
            &mut rng,
        );
        assert!(model.explain(0, 0).is_none());
    }

    #[test]
    fn intent_scores_sum_to_total_dot_product() {
        let (model, _) = trained_model();
        let e = model.explain(0, 3).expect("clustering active");
        assert_eq!(e.contributions.len(), 4);
        let sum: f32 = e.contributions.iter().map(|c| c.score).sum();
        assert!((sum - e.total).abs() < 1e-5);
        // For BPRMF, total must equal the model's own relevance score.
        let scores = model.score_users(&[0]);
        assert!((scores.get(0, 3) - e.total).abs() < 1e-4);
    }

    #[test]
    fn contributions_sorted_and_tags_respect_clusters() {
        let (model, data) = trained_model();
        let assignment = model.cluster_assignment().unwrap().to_vec();
        let e = model.explain(2, 5).unwrap();
        for w in e.contributions.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let item_tags: Vec<u32> = data.item_tag.forward().row_indices(5).to_vec();
        for c in &e.contributions {
            for &t in &c.supporting_tags {
                assert_eq!(assignment[t as usize], c.intent);
                assert!(item_tags.contains(&t));
            }
        }
        // Every tag of the item appears in exactly one intent's evidence.
        let total_tags: usize = e.contributions.iter().map(|c| c.supporting_tags.len()).sum();
        assert_eq!(total_tags, item_tags.len());
        assert!(e.dominant_intent() < 4);
    }
}
