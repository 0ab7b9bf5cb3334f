//! Latent-intent synthetic dataset generator.
//!
//! The IMCAT paper evaluates on seven public datasets we cannot redistribute,
//! so this module generates datasets with the *structural properties its
//! claims rest on* (see DESIGN.md §1):
//!
//! 1. **Ground-truth intents.** A fixed number `k_true` of latent intents
//!    drives both tag semantics and interactions. Each tag belongs to one
//!    intent cluster; each item has a sparse Dirichlet mixture over intents;
//!    each user has a sparse Dirichlet preference over intents. A user
//!    interacts with an item with probability proportional to popularity ×
//!    intent match. Tag information therefore genuinely predicts
//!    interactions *through intents* — exactly the structure IRM/IMCA exploit.
//! 2. **Power-law popularity.** Item popularity is Zipf-distributed, creating
//!    the long tail analysed in Fig. 7.
//! 3. **Cold users.** A configurable fraction of users receives fewer than 10
//!    interactions, the population analysed in Fig. 8.
//!
//! Presets are calibrated to the *shape* of Table I (relative sizes,
//! densities, degrees) at laptop scale; `SynthConfig::scaled` grows them.

use std::collections::HashSet;

use imcat_tensor::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// Configuration for the synthetic generator.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Dataset name (presets use the paper's names with a "(synthetic)" tag).
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of tags.
    pub n_tags: usize,
    /// Ground-truth latent intents.
    pub k_true: usize,
    /// Target number of user–item interactions.
    pub target_ui: usize,
    /// Mean tags per item (Poisson).
    pub tags_per_item: f64,
    /// Zipf exponent for item popularity (larger = heavier head).
    pub zipf_exponent: f64,
    /// Zipf exponent for user activity.
    pub user_activity_exponent: f64,
    /// Probability an interaction ignores intents (uniform random item).
    pub interaction_noise: f64,
    /// Probability a tag assignment ignores the item's intent mixture.
    pub tag_noise: f64,
    /// Dirichlet concentration for user/item intent distributions
    /// (smaller = sparser, more clearly separated intents).
    pub intent_concentration: f64,
    /// Fraction of users forced into the cold regime (3–9 interactions).
    pub cold_user_frac: f64,
    /// Minimum interactions per non-cold user (paper filters at 10).
    pub min_interactions: usize,
}

impl SynthConfig {
    /// Multiplies entity counts and interaction targets by `factor`
    /// (sub-linear for tags, which saturate in real datasets).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.n_users = ((self.n_users as f64 * factor) as usize).max(20);
        self.n_items = ((self.n_items as f64 * factor) as usize).max(30);
        self.n_tags = ((self.n_tags as f64 * factor.sqrt()) as usize).max(12);
        self.target_ui = ((self.target_ui as f64 * factor) as usize).max(200);
        self
    }

    /// HetRec2011-MovieLens shape: very dense interactions, ~10 tags/item.
    pub fn hetrec_mv() -> Self {
        Self {
            name: "HetRec-MV (synthetic)".into(),
            n_users: 420,
            n_items: 780,
            n_tags: 260,
            k_true: 4,
            target_ui: 42_000,
            tags_per_item: 10.0,
            zipf_exponent: 0.9,
            user_activity_exponent: 0.6,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.05,
            min_interactions: 12,
        }
    }

    /// HetRec2011-Last.fm artists: moderate density, rich tagging.
    pub fn hetrec_fm() -> Self {
        Self {
            name: "HetRec-FM (synthetic)".into(),
            n_users: 460,
            n_items: 1_400,
            n_tags: 300,
            k_true: 4,
            target_ui: 9_500,
            tags_per_item: 13.0,
            zipf_exponent: 1.0,
            user_activity_exponent: 0.7,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.06,
            min_interactions: 10,
        }
    }

    /// HetRec2011-Delicious: sparsest interactions, largest tag vocabulary
    /// (the paper notes it needs a larger K — we give it more true intents).
    pub fn hetrec_del() -> Self {
        Self {
            name: "HetRec-Del (synthetic)".into(),
            n_users: 500,
            n_items: 1_400,
            n_tags: 520,
            k_true: 8,
            target_ui: 6_500,
            tags_per_item: 12.0,
            zipf_exponent: 0.8,
            user_activity_exponent: 0.6,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.25,
            cold_user_frac: 0.08,
            min_interactions: 10,
        }
    }

    /// CiteULike-t: sparse, few tags, many items.
    pub fn citeulike() -> Self {
        Self {
            name: "CiteULike (synthetic)".into(),
            n_users: 480,
            n_items: 1_800,
            n_tags: 200,
            k_true: 4,
            target_ui: 9_000,
            tags_per_item: 10.0,
            zipf_exponent: 0.9,
            user_activity_exponent: 0.7,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.08,
            min_interactions: 10,
        }
    }

    /// Last.fm-Tag tracks subset.
    pub fn lastfm_tag() -> Self {
        Self {
            name: "Last.fm-Tag (synthetic)".into(),
            n_users: 540,
            n_items: 1_100,
            n_tags: 350,
            k_true: 4,
            target_ui: 12_500,
            tags_per_item: 7.0,
            zipf_exponent: 1.0,
            user_activity_exponent: 0.7,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.06,
            min_interactions: 10,
        }
    }

    /// Amazon-Book with tags: sparse interactions, moderate tagging.
    pub fn amzbook_tag() -> Self {
        Self {
            name: "AMZBook-Tag (synthetic)".into(),
            n_users: 600,
            n_items: 1_000,
            n_tags: 180,
            k_true: 4,
            target_ui: 7_200,
            tags_per_item: 11.0,
            zipf_exponent: 1.1,
            user_activity_exponent: 0.8,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.1,
            min_interactions: 10,
        }
    }

    /// Yelp 2018 businesses: densest item–tag matrix of the seven.
    pub fn yelp_tag() -> Self {
        Self {
            name: "Yelp-Tag (synthetic)".into(),
            n_users: 560,
            n_items: 900,
            n_tags: 120,
            k_true: 4,
            target_ui: 10_500,
            tags_per_item: 21.0,
            zipf_exponent: 1.0,
            user_activity_exponent: 0.7,
            interaction_noise: 0.15,
            tag_noise: 0.1,
            intent_concentration: 0.3,
            cold_user_frac: 0.07,
            min_interactions: 10,
        }
    }

    /// All seven presets in the paper's Table I order.
    pub fn all_presets() -> Vec<Self> {
        vec![
            Self::hetrec_mv(),
            Self::hetrec_fm(),
            Self::hetrec_del(),
            Self::citeulike(),
            Self::lastfm_tag(),
            Self::amzbook_tag(),
            Self::yelp_tag(),
        ]
    }

    /// The seven Table I dataset keys of [`SynthConfig::by_key`], in the
    /// paper's order.
    pub const PAPER_KEYS: [&'static str; 7] = ["mv", "fm", "del", "cite", "lastfm", "amz", "yelp"];

    /// The preset behind a dataset key, case-insensitive: a short key of
    /// [`SynthConfig::PAPER_KEYS`] or its long form (`hetrec-mv`,
    /// `citeulike`, `last.fm-tag`, ...), or `tiny`.
    pub fn by_key(key: &str) -> Option<Self> {
        match key.to_ascii_lowercase().as_str() {
            "mv" | "hetrec-mv" => Some(Self::hetrec_mv()),
            "fm" | "hetrec-fm" => Some(Self::hetrec_fm()),
            "del" | "hetrec-del" => Some(Self::hetrec_del()),
            "cite" | "citeulike" => Some(Self::citeulike()),
            "lastfm" | "last.fm-tag" => Some(Self::lastfm_tag()),
            "amz" | "amzbook-tag" => Some(Self::amzbook_tag()),
            "yelp" | "yelp-tag" => Some(Self::yelp_tag()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            name: "tiny (synthetic)".into(),
            n_users: 60,
            n_items: 90,
            n_tags: 24,
            k_true: 3,
            target_ui: 1_400,
            tags_per_item: 5.0,
            zipf_exponent: 1.1,
            user_activity_exponent: 0.7,
            interaction_noise: 0.1,
            tag_noise: 0.1,
            intent_concentration: 0.15,
            cold_user_frac: 0.08,
            min_interactions: 8,
        }
    }
}

/// Ground-truth latent structure behind a generated dataset. Exposed so tests
/// and examples can verify that models recover it.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// Intent id of each tag.
    pub tag_intent: Vec<usize>,
    /// Per-user intent preference distributions (`n_users x k_true`).
    pub user_pref: Vec<Vec<f32>>,
    /// Per-item intent mixtures (`n_items x k_true`).
    pub item_mix: Vec<Vec<f32>>,
    /// Item popularity weights (unnormalized Zipf).
    pub item_pop: Vec<f32>,
}

/// A generated dataset plus its generating latent structure.
#[derive(Clone, Debug)]
pub struct SynthData {
    /// The observable dataset (what models see).
    pub dataset: Dataset,
    /// The hidden generating process (for diagnostics only).
    pub truth: GroundTruth,
}

/// Generates a dataset from `cfg` with the given seed.
pub fn generate(cfg: &SynthConfig, seed: u64) -> SynthData {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = cfg.k_true;

    // 1. Tag clusters: uniform assignment, every cluster non-empty.
    let mut tag_intent: Vec<usize> = (0..cfg.n_tags).map(|t| t % k).collect();
    shuffle(&mut tag_intent, &mut rng);
    let mut tag_pools: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (t, &i) in tag_intent.iter().enumerate() {
        tag_pools[i].push(t as u32);
    }

    // 2. Item intent mixtures + Zipf popularity.
    let item_mix: Vec<Vec<f32>> =
        (0..cfg.n_items).map(|_| dirichlet(k, cfg.intent_concentration, &mut rng)).collect();
    let mut ranks: Vec<usize> = (0..cfg.n_items).collect();
    shuffle(&mut ranks, &mut rng);
    let mut item_pop = vec![0f32; cfg.n_items];
    for (j, &r) in ranks.iter().enumerate() {
        item_pop[j] = 1.0 / ((r + 1) as f32).powf(cfg.zipf_exponent as f32);
    }

    // 3. Item tags: Poisson count, intent-conditional tag choice.
    let mut item_tags: Vec<Vec<u32>> = Vec::with_capacity(cfg.n_items);
    for mix in &item_mix {
        let count = poisson(cfg.tags_per_item, &mut rng).max(1);
        let mut tags = HashSet::with_capacity(count);
        let mut attempts = 0;
        while tags.len() < count && attempts < count * 20 {
            attempts += 1;
            let tag = if rng.gen_bool(cfg.tag_noise) {
                rng.gen_range(0..cfg.n_tags) as u32
            } else {
                let intent = sample_categorical(mix, &mut rng);
                let pool = &tag_pools[intent];
                pool[rng.gen_range(0..pool.len())]
            };
            tags.insert(tag);
        }
        let mut tags: Vec<u32> = tags.into_iter().collect();
        tags.sort_unstable();
        item_tags.push(tags);
    }

    // 4. User intent preferences.
    let user_pref: Vec<Vec<f32>> =
        (0..cfg.n_users).map(|_| dirichlet(k, cfg.intent_concentration, &mut rng)).collect();

    // 5. Per-intent item sampling tables: weight = popularity * intent share.
    let tables: Vec<CumTable> = (0..k)
        .map(|intent| {
            let w: Vec<f32> = (0..cfg.n_items).map(|j| item_pop[j] * item_mix[j][intent]).collect();
            CumTable::new(&w)
        })
        .collect();
    let uniform_table = CumTable::new(&vec![1.0; cfg.n_items]);

    // 6. Interaction quotas: Zipf user activity, cold users overridden.
    let mut user_ranks: Vec<usize> = (0..cfg.n_users).collect();
    shuffle(&mut user_ranks, &mut rng);
    let weights: Vec<f64> = user_ranks
        .iter()
        .map(|&r| 1.0 / ((r + 1) as f64).powf(cfg.user_activity_exponent))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let n_cold = (cfg.n_users as f64 * cfg.cold_user_frac) as usize;
    let mut quotas: Vec<usize> = weights
        .iter()
        .map(|w| ((cfg.target_ui as f64 * w / wsum).round() as usize).max(cfg.min_interactions))
        .collect();
    // The coldest users (largest rank) are capped under 10 interactions.
    let mut by_rank: Vec<usize> = (0..cfg.n_users).collect();
    by_rank.sort_by_key(|&u| std::cmp::Reverse(user_ranks[u]));
    for &u in by_rank.iter().take(n_cold) {
        quotas[u] = rng.gen_range(3..10);
    }

    // 7. Sample interactions.
    let mut adjacency: Vec<Vec<u32>> = Vec::with_capacity(cfg.n_users);
    for u in 0..cfg.n_users {
        let quota = quotas[u].min(cfg.n_items - 1);
        let mut items = HashSet::with_capacity(quota);
        let mut attempts = 0;
        while items.len() < quota && attempts < quota * 30 {
            attempts += 1;
            let j = if rng.gen_bool(cfg.interaction_noise) {
                uniform_table.sample(&mut rng)
            } else {
                let intent = sample_categorical(&user_pref[u], &mut rng);
                tables[intent].sample(&mut rng)
            };
            items.insert(j as u32);
        }
        let mut items: Vec<u32> = items.into_iter().collect();
        items.sort_unstable();
        adjacency.push(items);
    }

    let user_item = Csr::from_adjacency(cfg.n_users, cfg.n_items, &adjacency);
    let item_tag = Csr::from_adjacency(cfg.n_items, cfg.n_tags, &item_tags);
    SynthData {
        dataset: Dataset::new(cfg.name.clone(), user_item, item_tag),
        truth: GroundTruth { tag_intent, user_pref, item_mix, item_pop },
    }
}

/// Cumulative-sum sampling table (O(log n) per draw).
struct CumTable {
    cum: Vec<f32>,
}

impl CumTable {
    fn new(weights: &[f32]) -> Self {
        let mut cum = Vec::with_capacity(weights.len());
        let mut s = 0.0;
        for &w in weights {
            s += w.max(0.0);
            cum.push(s);
        }
        assert!(s > 0.0, "sampling table needs positive total weight");
        Self { cum }
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cum.last().unwrap();
        let x = rng.gen_range(0.0..total);
        match self.cum.binary_search_by(|&c| c.total_cmp(&x)) {
            Ok(i) => (i + 1).min(self.cum.len() - 1),
            Err(i) => i,
        }
    }
}

fn sample_categorical(p: &[f32], rng: &mut impl Rng) -> usize {
    let total: f32 = p.iter().sum();
    let mut x = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    for (i, &w) in p.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    p.len() - 1
}

fn dirichlet(k: usize, alpha: f64, rng: &mut impl Rng) -> Vec<f32> {
    let mut g: Vec<f64> = (0..k).map(|_| gamma(alpha, rng)).collect();
    let s: f64 = g.iter().sum();
    if s <= 0.0 {
        // Degenerate draw: fall back to a one-hot on a random coordinate.
        let mut v = vec![0.0f32; k];
        v[rng.gen_range(0..k)] = 1.0;
        return v;
    }
    g.iter_mut().for_each(|x| *x /= s);
    g.into_iter().map(|x| x as f32).collect()
}

/// Marsaglia–Tsang gamma sampler (shape `alpha`, scale 1).
fn gamma(alpha: f64, rng: &mut impl Rng) -> f64 {
    if alpha < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = std_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

fn std_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Knuth Poisson sampler (fine for the small means used here).
fn poisson(lambda: f64, rng: &mut impl Rng) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // guard against pathological lambda
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_keys_resolve_in_table1_order() {
        let names: Vec<String> =
            SynthConfig::PAPER_KEYS.iter().map(|k| SynthConfig::by_key(k).unwrap().name).collect();
        let want: Vec<String> = SynthConfig::all_presets().into_iter().map(|c| c.name).collect();
        assert_eq!(names, want);
        assert_eq!(SynthConfig::by_key("HetRec-Del").unwrap().name, SynthConfig::hetrec_del().name);
        assert_eq!(SynthConfig::by_key("tiny").unwrap().name, SynthConfig::tiny().name);
        assert!(SynthConfig::by_key("bogus").is_none());
    }

    #[test]
    fn tiny_generation_has_expected_shape() {
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 42);
        let s = data.dataset.stats();
        assert_eq!(s.n_users, 60);
        assert_eq!(s.n_items, 90);
        assert_eq!(s.n_tags, 24);
        assert!(s.n_ui > 800, "too few interactions: {}", s.n_ui);
        assert!(s.n_it >= 90, "every item needs at least one tag");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SynthConfig::tiny();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a.dataset.user_item.forward(), b.dataset.user_item.forward());
        assert_eq!(a.dataset.item_tag.forward(), b.dataset.item_tag.forward());
        let c = generate(&cfg, 8);
        assert_ne!(a.dataset.user_item.forward(), c.dataset.user_item.forward());
    }

    #[test]
    fn every_cluster_nonempty_and_assignment_total() {
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 1);
        let mut counts = vec![0usize; cfg.k_true];
        for &i in &data.truth.tag_intent {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        assert_eq!(data.truth.tag_intent.len(), cfg.n_tags);
    }

    #[test]
    fn popularity_is_long_tailed() {
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 3);
        let mut degs = data.dataset.user_item.col_degrees();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = degs.iter().take(degs.len() / 10).sum();
        let total: usize = degs.iter().sum();
        // Top 10% of items should hold well over 10% of interactions.
        assert!(head as f64 > 0.22 * total as f64, "head share too small: {head}/{total}");
    }

    #[test]
    fn cold_users_exist() {
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 4);
        let cold = data.dataset.user_item.row_degrees().iter().filter(|&&d| d < 10).count();
        assert!(cold >= 2, "expected some cold users, found {cold}");
    }

    #[test]
    fn interactions_follow_intents() {
        // Users should interact with items whose mixtures match their
        // preferences far more often than random.
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 5);
        let mut matched = 0.0f64;
        let mut count = 0usize;
        for (u, j, _) in data.dataset.user_item.forward().iter() {
            let pref = &data.truth.user_pref[u as usize];
            let mix = &data.truth.item_mix[j as usize];
            matched += pref.iter().zip(mix).map(|(&a, &b)| (a * b) as f64).sum::<f64>();
            count += 1;
        }
        let avg_match = matched / count as f64;
        // Random pairing baseline: E[pref . mix] = 1/k for Dirichlet pairs.
        let baseline = 1.0 / cfg.k_true as f64;
        assert!(
            avg_match > baseline * 1.25,
            "interactions carry no intent signal: {avg_match} vs baseline {baseline}"
        );
    }

    #[test]
    fn item_tags_follow_item_mixture() {
        let cfg = SynthConfig::tiny();
        let data = generate(&cfg, 6);
        let mut matched = 0.0f64;
        let mut count = 0usize;
        for (j, t, _) in data.dataset.item_tag.forward().iter() {
            let mix = &data.truth.item_mix[j as usize];
            matched += mix[data.truth.tag_intent[t as usize]] as f64;
            count += 1;
        }
        let avg = matched / count as f64;
        assert!(avg > 1.3 / cfg.k_true as f64, "tags not aligned with mixtures: {avg}");
    }

    #[test]
    fn presets_all_generate() {
        for cfg in SynthConfig::all_presets() {
            let small = cfg.scaled(0.1);
            let data = generate(&small, 0);
            let s = data.dataset.stats();
            assert!(s.n_users >= 20 && s.n_items >= 30, "preset {} too small", s.name);
            assert!(s.n_ui > 0 && s.n_it > 0);
        }
    }

    #[test]
    fn scaled_grows_counts() {
        let base = SynthConfig::hetrec_mv();
        let big = base.clone().scaled(2.0);
        assert!(big.n_users > base.n_users);
        assert!(big.target_ui > base.target_ui);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let d = dirichlet(4, 0.3, &mut rng);
            let s: f32 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(d.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn poisson_mean_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 3000;
        let total: usize = (0..n).map(|_| poisson(6.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.3, "poisson mean {mean}");
    }
}
