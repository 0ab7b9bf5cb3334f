//! Fig. 5 — impact of the number of intents `K ∈ {1, 2, 4, 8, 16}` on
//! N-IMCAT and L-IMCAT (three datasets).
//!
//! Usage: `cargo run --release -p imcat-bench --bin fig5_intents`
//! Note: `K` must divide `IMCAT_DIM` (default 32, so all five K values work).

use imcat_bench::{logln, run_trials, write_json, Env, ExpLog, ModelKind};
use imcat_core::ImcatConfig;
use imcat_data::SynthConfig;

struct Point {
    model: String,
    dataset: String,
    k: usize,
    recall: f64,
    ndcg: f64,
}
imcat_obs::impl_to_json!(Point { model, dataset, k, recall, ndcg });

fn main() {
    let env = Env::from_env();
    let ks = [1usize, 2, 4, 8, 16];
    let mut log = ExpLog::new("fig5_intents");
    let mut points = Vec::new();
    logln!(log, "Fig. 5: impact of the number of intents K (R@20, %)\n");
    for key in ["fm", "del", "cite"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        logln!(log, "== {} ==", data.name);
        for kind in [ModelKind::NImcat, ModelKind::LImcat] {
            let mut line = format!("{:<10}", kind.name());
            for &k in &ks {
                if !env.dim.is_multiple_of(k) {
                    line.push_str(&format!(" {:>7}", "-"));
                    continue;
                }
                let icfg = ImcatConfig { k_intents: k, ..env.imcat_config() };
                let (results, _) = run_trials(kind, &data, &env, &icfg);
                let recall = imcat_bench::mean_of(&results, |r| r.recall);
                let ndcg = imcat_bench::mean_of(&results, |r| r.ndcg);
                line.push_str(&format!(" {:>7.2}", recall * 100.0));
                points.push(Point {
                    model: kind.name().to_string(),
                    dataset: data.name.clone(),
                    k,
                    recall,
                    ndcg,
                });
            }
            logln!(log, "{line}   (K = {ks:?})");
        }
        logln!(log);
    }
    let path = write_json("fig5_intents", &points);
    logln!(log, "wrote {}", path.display());
}
