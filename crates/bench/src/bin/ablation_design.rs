//! Design-choice ablations called out in DESIGN.md beyond the paper's
//! Table III:
//!
//! 1. **Clustering strategy** (§IV-A.2): end-to-end Student-t/KL clustering
//!    vs the naive periodic k-means re-clustering.
//! 2. **Relatedness weighting** (Eq. 9): with vs without the `M` weights
//!    (approximated by a single-intent run where `M` is constant 1).
//! 3. **ISA positive budget**: 1 vs 3 sampled set-to-set positives.
//!
//! Usage: `cargo run --release -p imcat-bench --bin ablation_design`

use imcat_bench::{logln, run_trials, write_json, Env, ExpLog, ModelKind};
use imcat_core::ImcatConfig;
use imcat_data::SynthConfig;

struct Row {
    variant: String,
    dataset: String,
    recall: f64,
    ndcg: f64,
}
imcat_obs::impl_to_json!(Row { variant, dataset, recall, ndcg });

fn main() {
    let env = Env::from_env();
    let variants: Vec<(&str, ImcatConfig)> = vec![
        ("end-to-end clustering", env.imcat_config()),
        ("periodic k-means", env.imcat_config().with_periodic_kmeans()),
        ("isa_max_pos = 3", ImcatConfig { isa_max_pos: 3, ..env.imcat_config() }),
        ("no independence reg", ImcatConfig { independence_weight: 0.0, ..env.imcat_config() }),
        ("tau = 0.2", ImcatConfig { tau: 0.2, ..env.imcat_config() }),
    ];
    let mut log = ExpLog::new("ablation_design");
    let mut rows = Vec::new();
    logln!(log, "Design ablations for L-IMCAT (R@20 / N@20, %)\n");
    for key in ["del", "cite"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        logln!(log, "== {} ==", data.name);
        for (name, icfg) in &variants {
            let (results, _) = run_trials(ModelKind::LImcat, &data, &env, icfg);
            let recall = imcat_bench::mean_of(&results, |r| r.recall);
            let ndcg = imcat_bench::mean_of(&results, |r| r.ndcg);
            logln!(log, "{name:<24} {:>8.2} {:>8.2}", recall * 100.0, ndcg * 100.0);
            rows.push(Row { variant: name.to_string(), dataset: data.name.clone(), recall, ndcg });
        }
        logln!(log);
    }
    let path = write_json("ablation_design", &rows);
    logln!(log, "wrote {}", path.display());
}
