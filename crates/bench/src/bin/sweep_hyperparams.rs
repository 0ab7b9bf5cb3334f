//! Grid search over IMCAT's scaling factors, following the paper's tuning
//! protocol (§V-D: α, β, γ from {1e-3, 1e-2, 1e-1, 1, 5, 10}, selected on
//! validation Recall@20).
//!
//! Usage:
//!   cargo run --release -p imcat-bench --bin sweep_hyperparams -- \
//!       [--dataset del] [--model L-IMCAT] [--grid coarse|paper]
//!
//! `coarse` (default) sweeps a 12-point subgrid; `paper` sweeps the full
//! 6×6×6 grid (216 training runs — budget accordingly).

use imcat_bench::{logln, write_json, Env, ExpLog, ModelKind};
use imcat_core::{train, ImcatConfig};
use imcat_data::SynthConfig;

#[derive(Clone)]
struct SweepPoint {
    alpha: f32,
    beta: f32,
    gamma: f32,
    val_recall: f64,
    epochs: usize,
    train_seconds: f64,
}
imcat_obs::impl_to_json!(SweepPoint { alpha, beta, gamma, val_recall, epochs, train_seconds });

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let env = Env::from_env();
    let dataset_key = flag(&args, "--dataset").unwrap_or_else(|| "del".into());
    let model_name = flag(&args, "--model").unwrap_or_else(|| "L-IMCAT".into());
    let kind =
        ModelKind::parse(&model_name).unwrap_or_else(|| panic!("unknown model {model_name}"));
    assert!(kind.is_imcat(), "the sweep only applies to IMCAT variants");
    let grid_kind = flag(&args, "--grid").unwrap_or_else(|| "coarse".into());
    let (alphas, betas, gammas): (Vec<f32>, Vec<f32>, Vec<f32>) = match grid_kind.as_str() {
        "paper" => {
            let full = vec![1e-3, 1e-2, 1e-1, 1.0, 5.0, 10.0];
            (full.clone(), full.clone(), full)
        }
        _ => (vec![0.1, 1.0], vec![0.01, 0.1, 1.0], vec![0.01, 0.1]),
    };

    let data = env.dataset(&SynthConfig::by_key(&dataset_key).unwrap());
    let mut log = ExpLog::new("sweep_hyperparams");
    logln!(
        log,
        "sweeping {} on {} ({} grid: {} points)\n",
        kind.name(),
        data.name,
        grid_kind,
        alphas.len() * betas.len() * gammas.len()
    );
    logln!(log, "{:>8} {:>8} {:>8} {:>10} {:>7}", "alpha", "beta", "gamma", "val R@20", "epochs");
    let mut points = Vec::new();
    let mut best: Option<SweepPoint> = None;
    for &alpha in &alphas {
        for &beta in &betas {
            for &gamma in &gammas {
                let icfg = ImcatConfig { alpha, beta, gamma, ..env.imcat_config() };
                let mut model = kind.build(&data, &env.train_config(), &icfg, 1);
                let report = train(model.as_mut(), &data, &env.trainer_config(7));
                logln!(
                    log,
                    "{:>8} {:>8} {:>8} {:>10.4} {:>7}",
                    alpha,
                    beta,
                    gamma,
                    report.best_val_recall,
                    report.epochs_run
                );
                let p = SweepPoint {
                    alpha,
                    beta,
                    gamma,
                    val_recall: report.best_val_recall,
                    epochs: report.epochs_run,
                    train_seconds: report.train_seconds,
                };
                if best.as_ref().is_none_or(|b| p.val_recall > b.val_recall) {
                    best = Some(p.clone());
                }
                points.push(p);
            }
        }
    }
    if let Some(b) = &best {
        logln!(
            log,
            "\nbest: alpha={} beta={} gamma={} (val R@20 {:.4})",
            b.alpha,
            b.beta,
            b.gamma,
            b.val_recall
        );
    }
    let path = write_json("sweep_hyperparams", &points);
    logln!(log, "wrote {}", path.display());
}
