//! Fig. 6 — effect of the ISA threshold δ ∈ {0.1, 0.3, 0.5, 0.7, 0.9},
//! reported as the ratio of each setting's R@20 to the R@20 obtained
//! *without* the ISA module (values > 1 mean ISA helps).
//!
//! Usage: `cargo run --release -p imcat-bench --bin fig6_threshold`

use imcat_bench::{logln, run_trials, write_json, Env, ExpLog, ModelKind};
use imcat_core::ImcatConfig;
use imcat_data::SynthConfig;

struct Point {
    model: String,
    dataset: String,
    delta: f64,
    recall: f64,
    ratio_vs_no_isa: f64,
}
imcat_obs::impl_to_json!(Point { model, dataset, delta, recall, ratio_vs_no_isa });

fn main() {
    let env = Env::from_env();
    let deltas = [0.1f32, 0.3, 0.5, 0.7, 0.9];
    let mut log = ExpLog::new("fig6_threshold");
    let mut points = Vec::new();
    logln!(log, "Fig. 6: ISA threshold δ sweep (R@20 ratio vs no-ISA)\n");
    for key in ["del", "cite"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        logln!(log, "== {} ==", data.name);
        for kind in [ModelKind::NImcat, ModelKind::LImcat] {
            let base_cfg = env.imcat_config().without_isa();
            let (base_results, _) = run_trials(kind, &data, &env, &base_cfg);
            let base = imcat_bench::mean_of(&base_results, |r| r.recall);
            let mut line =
                format!("{:<10} (no-ISA R@20 {:.2}%) ratios:", kind.name(), base * 100.0);
            for &delta in &deltas {
                let icfg = ImcatConfig { delta, use_isa: true, ..env.imcat_config() };
                let (results, _) = run_trials(kind, &data, &env, &icfg);
                let recall = imcat_bench::mean_of(&results, |r| r.recall);
                let ratio = if base > 0.0 { recall / base } else { 0.0 };
                line.push_str(&format!(" {ratio:>6.3}"));
                points.push(Point {
                    model: kind.name().to_string(),
                    dataset: data.name.clone(),
                    delta: delta as f64,
                    recall,
                    ratio_vs_no_isa: ratio,
                });
            }
            logln!(log, "{line}   (δ = {deltas:?})");
        }
        logln!(log);
    }
    let path = write_json("fig6_threshold", &points);
    logln!(log, "wrote {}", path.display());
}
