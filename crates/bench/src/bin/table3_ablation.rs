//! Table III — ablation of the IMCA module designs: w/o UIT, w/o UT, w/o UI,
//! w/o NLT, for N-IMCAT and L-IMCAT on HetRec-Del, CiteULike, and Yelp-Tag.
//!
//! Usage: `cargo run --release -p imcat-bench --bin table3_ablation`
//! Environment: `IMCAT_SCALE`, `IMCAT_EPOCHS`, `IMCAT_TRIALS`, `IMCAT_DIM`.

use imcat_bench::{logln, run_trials, write_json, Env, ExpLog, ModelKind};
use imcat_core::ImcatConfig;
use imcat_data::SynthConfig;

struct Row {
    model: String,
    variant: String,
    dataset: String,
    recall: f64,
    ndcg: f64,
}
imcat_obs::impl_to_json!(Row { model, variant, dataset, recall, ndcg });

/// A named configuration transformer.
type Variant = (&'static str, fn(ImcatConfig) -> ImcatConfig);

fn main() {
    let env = Env::from_env();
    let variants: Vec<Variant> = vec![
        ("full", |c| c),
        ("w/o UIT", ImcatConfig::without_uit),
        ("w/o UT", ImcatConfig::without_ut),
        ("w/o UI", ImcatConfig::without_ui),
        ("w/o NLT", ImcatConfig::without_nlt),
    ];
    let mut log = ExpLog::new("table3_ablation");
    let mut rows = Vec::new();
    logln!(log, "Table III: IMCA design ablations (R@20 / N@20, %)\n");
    for key in ["del", "cite", "yelp"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        logln!(log, "== {} ==", data.name);
        logln!(log, "{:<10} {:<9} {:>8} {:>8}", "model", "variant", "R@20", "N@20");
        for kind in [ModelKind::NImcat, ModelKind::LImcat] {
            for (vname, make) in &variants {
                let icfg = make(env.imcat_config());
                let (results, _) = run_trials(kind, &data, &env, &icfg);
                let recall = imcat_bench::mean_of(&results, |r| r.recall);
                let ndcg = imcat_bench::mean_of(&results, |r| r.ndcg);
                logln!(
                    log,
                    "{:<10} {:<9} {:>8.2} {:>8.2}",
                    kind.name(),
                    vname,
                    recall * 100.0,
                    ndcg * 100.0
                );
                rows.push(Row {
                    model: kind.name().to_string(),
                    variant: vname.to_string(),
                    dataset: data.name.clone(),
                    recall,
                    ndcg,
                });
            }
        }
        logln!(log);
    }
    let path = write_json("table3_ablation", &rows);
    logln!(log, "wrote {}", path.display());
}
