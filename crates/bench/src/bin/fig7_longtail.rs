//! Fig. 7 — long-tail analysis: per-popularity-group (G1 least popular … G5
//! most popular) contribution to R@20 for the GNN-based models, normalized
//! within each group by the best model (as in the paper).
//!
//! Usage: `cargo run --release -p imcat-bench --bin fig7_longtail`

use imcat_bench::{logln, write_json, Env, ExpLog, ModelKind};
use imcat_core::train;
use imcat_data::SynthConfig;
use imcat_eval::{group_recall_contribution, item_popularity_groups};

struct Row {
    model: String,
    dataset: String,
    /// Absolute contribution of G1..G5 to overall R@20.
    contributions: Vec<f64>,
    /// Contributions normalized by the per-group best model.
    normalized: Vec<f64>,
}
imcat_obs::impl_to_json!(Row { model, dataset, contributions, normalized });

fn main() {
    let env = Env::from_env();
    let models = [
        ModelKind::LightGcn,
        ModelKind::Tgcn,
        ModelKind::Kgin,
        ModelKind::Sgl,
        ModelKind::Kgcl,
        ModelKind::LImcat,
    ];
    let mut log = ExpLog::new("fig7_longtail");
    let mut rows = Vec::new();
    logln!(log, "Fig. 7: per-popularity-group contribution to R@20\n");
    for key in ["del", "cite"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        let groups = item_popularity_groups(&data, 5);
        logln!(log, "== {} ==", data.name);
        logln!(log, "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}", "model", "G1", "G2", "G3", "G4", "G5");
        let mut dataset_rows: Vec<Row> = Vec::new();
        for kind in models {
            let icfg = env.imcat_config();
            let mut model = kind.build(&data, &env.train_config(), &icfg, 1);
            train(model.as_mut(), &data, &env.trainer_config(7));
            let contributions =
                group_recall_contribution(&mut model.scorer(), &data, 20, &groups, 5);
            dataset_rows.push(Row {
                model: kind.name().to_string(),
                dataset: data.name.clone(),
                contributions,
                normalized: Vec::new(),
            });
        }
        // Per-group normalization by the best model.
        for g in 0..5 {
            let best =
                dataset_rows.iter().map(|r| r.contributions[g]).fold(0.0f64, f64::max).max(1e-12);
            for r in &mut dataset_rows {
                r.normalized.push(r.contributions[g] / best);
            }
        }
        for r in &dataset_rows {
            let mut line = format!("{:<10}", r.model);
            for g in 0..5 {
                line.push_str(&format!(" {:>8.3}", r.normalized[g]));
            }
            logln!(
                log,
                "{line}   (abs: {:?})",
                r.contributions.iter().map(|c| (c * 1000.0).round() / 10.0).collect::<Vec<_>>()
            );
        }
        logln!(log);
        rows.extend(dataset_rows);
    }
    let path = write_json("fig7_longtail", &rows);
    logln!(log, "wrote {}", path.display());
}
