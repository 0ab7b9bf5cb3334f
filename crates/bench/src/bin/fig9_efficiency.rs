//! Fig. 9 — training efficiency vs recommendation quality: wall-clock
//! training time (to early stop) against test R@20 for the main methods on
//! two datasets. The paper's headline: N-IMCAT reaches GNN-level quality in a
//! fraction of the training time.
//!
//! Also emits a thread-scaling table: the evaluation hot path (dense scoring
//! matmul + per-user ranking) timed at 1/2/4/8 pool threads, with a
//! bit-identity check that the metrics do not depend on the thread count.
//!
//! Usage: `cargo run --release -p imcat-bench --bin fig9_efficiency`

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, run_one, write_json, Env, ExpLog};
use imcat_core::evaluate_model;
use imcat_data::SynthConfig;
use imcat_eval::EvalSpec;
use std::time::Instant;

struct Point {
    model: String,
    dataset: String,
    train_seconds: f64,
    epochs: usize,
    recall: f64,
    seconds_per_epoch: f64,
}

imcat_obs::impl_to_json!(Point {
    model,
    dataset,
    train_seconds,
    epochs,
    recall,
    seconds_per_epoch
});

struct ScalePoint {
    dataset: String,
    threads: usize,
    seconds: f64,
    speedup_vs_1: f64,
    recall_bits: u64,
    ndcg_bits: u64,
}

imcat_obs::impl_to_json!(ScalePoint {
    dataset,
    threads,
    seconds,
    speedup_vs_1,
    recall_bits,
    ndcg_bits
});

/// Time the evaluation hot path (batched scoring matmuls + per-user ranking
/// fan-out) at several pool sizes and verify the metrics are bit-identical.
fn thread_scaling(env: &Env, log: &mut ExpLog) -> Vec<ScalePoint> {
    let data = env.dataset(&SynthConfig::by_key("amz").unwrap());
    let icfg = env.imcat_config();
    // An untrained BPR-MF is enough: the workload (dense scoring matmul plus
    // the ranking fan-out) is identical to the trained case.
    let model = ModelKind::Bprmf.build(&data, &env.train_config(), &icfg, 1);
    let reps = 3usize;

    logln!(log, "== thread scaling ({}; eval hot path, {reps} reps) ==", data.name);
    logln!(log, "{:>7} {:>9} {:>9}", "threads", "time(s)", "speedup");
    let mut rows: Vec<ScalePoint> = Vec::new();
    let mut base_secs = 0.0f64;
    let mut base_bits: Option<(u64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        imcat_par::set_threads(threads);
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..reps {
            last = Some(evaluate_model(model.as_ref(), &data, &EvalSpec::at(20)).aggregate());
        }
        let secs = t0.elapsed().as_secs_f64();
        let m = last.unwrap();
        let bits = (m.recall.to_bits(), m.ndcg.to_bits());
        match base_bits {
            None => {
                base_secs = secs;
                base_bits = Some(bits);
            }
            Some(b) => {
                assert_eq!(b, bits, "metrics must be bit-identical regardless of thread count")
            }
        }
        let speedup = if secs > 0.0 { base_secs / secs } else { 0.0 };
        logln!(log, "{threads:>7} {secs:>9.3} {speedup:>9.2}");
        rows.push(ScalePoint {
            dataset: data.name.clone(),
            threads,
            seconds: secs,
            speedup_vs_1: speedup,
            recall_bits: bits.0,
            ndcg_bits: bits.1,
        });
    }
    imcat_par::set_threads(imcat_par::default_threads());
    logln!(log);
    rows
}

fn main() {
    // The efficiency figure is about where training time goes, so telemetry
    // (and its per-phase breakdown events) is always on here.
    obs_init(true);
    let env = Env::from_env();
    let models = [
        ModelKind::Neumf,
        ModelKind::LightGcn,
        ModelKind::Tgcn,
        ModelKind::Kgat,
        ModelKind::Kgin,
        ModelKind::Kgcl,
        ModelKind::NImcat,
        ModelKind::LImcat,
    ];
    let mut log = ExpLog::new("fig9_efficiency");
    let mut points = Vec::new();
    logln!(log, "Fig. 9: training time vs quality\n");
    for key in ["del", "cite"] {
        let data = env.dataset(&SynthConfig::by_key(key).unwrap());
        logln!(log, "== {} ==", data.name);
        logln!(
            log,
            "{:<10} {:>9} {:>7} {:>8} {:>9}",
            "model",
            "time(s)",
            "epochs",
            "R@20",
            "s/epoch"
        );
        for kind in models {
            let icfg = env.imcat_config();
            let (r, _) = run_one(kind, &data, &env, &icfg, 1);
            logln!(
                log,
                "{:<10} {:>9.2} {:>7} {:>8.2} {:>9.3}",
                r.model,
                r.train_seconds,
                r.epochs,
                r.recall * 100.0,
                r.train_seconds / r.epochs.max(1) as f64
            );
            points.push(Point {
                model: r.model.clone(),
                dataset: r.dataset.clone(),
                train_seconds: r.train_seconds,
                epochs: r.epochs,
                recall: r.recall,
                seconds_per_epoch: r.train_seconds / r.epochs.max(1) as f64,
            });
        }
        logln!(log);
    }
    let path = write_json("fig9_efficiency", &points);
    logln!(log, "wrote {}", path.display());

    let scaling = thread_scaling(&env, &mut log);
    let spath = write_json("fig9_thread_scaling", &scaling);
    logln!(log, "wrote {}", spath.display());
    obs_finish();
}
