//! Table II — overall performance comparison: R@20 / N@20 for all 15 methods
//! across the seven datasets, with a paired t-test of L-IMCAT against the
//! best non-IMCAT baseline.
//!
//! Usage:
//!   cargo run --release -p imcat-bench --bin table2_overall [-- --datasets mv,del --models BPRMF,L-IMCAT]
//! Environment: `IMCAT_SCALE`, `IMCAT_EPOCHS`, `IMCAT_TRIALS`, `IMCAT_DIM`.

use imcat_bench::{logln, run_trials, write_json, Env, ExpLog, ModelKind};
use imcat_data::SynthConfig;
use imcat_eval::paired_t_test;

struct Cell {
    model: String,
    dataset: String,
    recall: f64,
    ndcg: f64,
    train_seconds: f64,
    epochs: f64,
    trials: usize,
}

struct Report {
    cells: Vec<Cell>,
    significance: Vec<Significance>,
}

struct Significance {
    dataset: String,
    best_baseline: String,
    t: f64,
    p: f64,
}

imcat_obs::impl_to_json!(Cell { model, dataset, recall, ndcg, train_seconds, epochs, trials });
imcat_obs::impl_to_json!(Report { cells, significance });
imcat_obs::impl_to_json!(Significance { dataset, best_baseline, t, p });

fn parse_list(args: &[String], flag: &str) -> Option<Vec<String>> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').map(str::to_string).collect())
}

fn main() {
    imcat_bench::obs_init(false);
    let args: Vec<String> = std::env::args().collect();
    let env = Env::from_env();
    let datasets: Vec<String> = parse_list(&args, "--datasets")
        .unwrap_or_else(|| SynthConfig::PAPER_KEYS.iter().map(|s| s.to_string()).collect());
    let models: Vec<ModelKind> = parse_list(&args, "--models")
        .map(|names| {
            names
                .iter()
                .map(|n| ModelKind::parse(n).unwrap_or_else(|| panic!("unknown model {n}")))
                .collect()
        })
        .unwrap_or_else(ModelKind::all);

    let icfg = env.imcat_config();
    let mut log = ExpLog::new("table2_overall");
    let mut cells = Vec::new();
    let mut significance = Vec::new();
    logln!(
        log,
        "Table II: R@20 / N@20 (%) — scale {}, {} epochs max, {} trial(s)\n",
        env.scale,
        env.max_epochs,
        env.trials
    );
    for key in &datasets {
        let preset = SynthConfig::by_key(key).unwrap_or_else(|| panic!("unknown dataset {key}"));
        let data = env.dataset(&preset);
        logln!(log, "== {} ==", data.name);
        logln!(
            log,
            "{:<12} {:>8} {:>8} {:>10} {:>7}",
            "model",
            "R@20",
            "N@20",
            "time(s)",
            "epochs"
        );
        let mut best_baseline: Option<(ModelKind, f64, Vec<f64>)> = None;
        let mut imcat_pool: Option<Vec<f64>> = None;
        for &kind in &models {
            let (results, pooled) = run_trials(kind, &data, &env, &icfg);
            let recall = imcat_bench::mean_of(&results, |r| r.recall);
            let ndcg = imcat_bench::mean_of(&results, |r| r.ndcg);
            let secs = imcat_bench::mean_of(&results, |r| r.train_seconds);
            let epochs = imcat_bench::mean_of(&results, |r| r.epochs as f64);
            logln!(
                log,
                "{:<12} {:>8.2} {:>8.2} {:>10.2} {:>7.0}",
                kind.name(),
                recall * 100.0,
                ndcg * 100.0,
                secs,
                epochs
            );
            if !kind.is_imcat() {
                if best_baseline.as_ref().is_none_or(|(_, r, _)| recall > *r) {
                    best_baseline = Some((kind, recall, pooled.clone()));
                }
            } else if kind == ModelKind::LImcat {
                imcat_pool = Some(pooled.clone());
            }
            cells.push(Cell {
                model: kind.name().to_string(),
                dataset: data.name.clone(),
                recall,
                ndcg,
                train_seconds: secs,
                epochs,
                trials: env.trials,
            });
        }
        if let (Some((bk, _, base_pool)), Some(pool)) = (best_baseline, imcat_pool) {
            if pool.len() == base_pool.len() && pool.len() >= 2 {
                let tt = paired_t_test(&pool, &base_pool);
                logln!(
                    log,
                    "paired t-test L-IMCAT vs {} (best baseline): t = {:.3}, p = {:.4}",
                    bk.name(),
                    tt.t,
                    tt.p
                );
                significance.push(Significance {
                    dataset: data.name.clone(),
                    best_baseline: bk.name().to_string(),
                    t: tt.t,
                    p: tt.p,
                });
            }
        }
        logln!(log);
    }
    let path = write_json("table2_overall", &Report { cells, significance });
    logln!(log, "wrote {}", path.display());
    imcat_bench::obs_finish();
}
