//! Fig. 8 — cold-start analysis: R@20 over users with fewer than 10 training
//! interactions, normalized per dataset by the best model (as in the paper),
//! on CiteULike and AMZBook-Tag.
//!
//! Usage: `cargo run --release -p imcat-bench --bin fig8_coldstart`

use imcat_bench::{logln, write_json, Env, ExpLog, ModelKind};
use imcat_core::{evaluate_model, train};
use imcat_data::SynthConfig;
use imcat_eval::{cold_start_users, EvalSpec};

struct Row {
    model: String,
    dataset: String,
    cold_users: usize,
    recall: f64,
    ndcg: f64,
    normalized_recall: f64,
}
imcat_obs::impl_to_json!(Row { model, dataset, cold_users, recall, ndcg, normalized_recall });

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
    let mut log = ExpLog::new("fig8_coldstart");
    let mut rows = Vec::new();
    logln!(log, "Fig. 8: cold-start users (< 10 training interactions)\n");
    for key in ["cite", "amz"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        let cold = cold_start_users(&data, 10);
        logln!(log, "== {} ({} cold users) ==", data.name, cold.len());
        logln!(log, "{:<10} {:>8} {:>8} {:>11}", "model", "R@20", "N@20", "normalized");
        let mut dataset_rows: Vec<Row> = Vec::new();
        for kind in models {
            let icfg = env.imcat_config();
            let mut model = kind.build(&data, &env.train_config(), &icfg, 1);
            train(model.as_mut(), &data, &env.trainer_config(7));
            let m = evaluate_model(model.as_ref(), &data, &EvalSpec::at(20).users(cold.clone()))
                .aggregate();
            dataset_rows.push(Row {
                model: kind.name().to_string(),
                dataset: data.name.clone(),
                cold_users: cold.len(),
                recall: m.recall,
                ndcg: m.ndcg,
                normalized_recall: 0.0,
            });
        }
        let best = dataset_rows.iter().map(|r| r.recall).fold(0.0f64, f64::max).max(1e-12);
        for r in &mut dataset_rows {
            r.normalized_recall = r.recall / best;
            logln!(
                log,
                "{:<10} {:>8.2} {:>8.2} {:>11.3}",
                r.model,
                r.recall * 100.0,
                r.ndcg * 100.0,
                r.normalized_recall
            );
        }
        logln!(log);
        rows.extend(dataset_rows);
    }
    let path = write_json("fig8_coldstart", &rows);
    logln!(log, "wrote {}", path.display());
}
