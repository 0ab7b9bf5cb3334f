//! Serving benchmark: replays a Zipf-distributed synthetic request stream
//! against frozen inference artifacts produced by the trainer's best-epoch
//! export, and emits a throughput/latency table for the `imcat-serve`
//! engine's single-request and batched paths.
//!
//! For each of BPR-MF, LightGCN, and B-IMCAT the binary trains a short run
//! with [`imcat_core::TrainerConfig::artifact_path`] set, loads the artifact
//! from disk through [`imcat_serve::Engine::load`], and measures:
//!
//! * **single** — one `recommend(user, k)` call per request (LRU cache hot
//!   for popular Zipf heads);
//! * **batch** — requests grouped into fixed-size ticks, each tick answered
//!   by one scoring matmul over the deduplicated cache misses.
//!
//! Latency quantiles come from the engine's log-bucket histogram (matching
//! `imcat-obs`); QPS is requests over replay wall-clock. Environment knobs:
//!
//! * `IMCAT_SERVE_REQUESTS` — stream length (default 2000)
//! * `IMCAT_SERVE_ZIPF`     — Zipf exponent `s` (default 1.1)
//! * `IMCAT_SERVE_K`        — ranking cutoff (default 20)
//! * `IMCAT_SERVE_BATCH`    — requests per tick in batch mode (default 32)
//! * `IMCAT_SERVE_CACHE`    — LRU capacity in lists (default 256)
//!
//! The engine behind a socket is `imcat serve`; its wire numbers are the
//! repository benchmark's `wire_hot`/`wire_cold` workloads
//! (`crates/bench/src/bin/perf`), not this binary's.
//!
//! Usage: `cargo run --release -p imcat-bench --bin serve_bench`

use std::path::PathBuf;
use std::time::Instant;

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, sample_zipf, write_json, zipf_cdf, Env, ExpLog};
use imcat_core::train;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_obs::{knob_f64, knob_usize};
use imcat_serve::{Engine, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 7;

struct Row {
    model: String,
    mode: String,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    cache_hit_rate: f64,
    cached_lists: usize,
}

imcat_obs::impl_to_json!(Row {
    model,
    mode,
    requests,
    qps,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
    cache_hit_rate,
    cached_lists
});

fn replay(
    engine: &mut Engine,
    stream: &[(u32, usize)],
    batch: usize,
    model: &str,
    mode: &str,
) -> Row {
    let t0 = Instant::now();
    if batch <= 1 {
        for &(u, k) in stream {
            let recs = engine.recommend(u, k).expect("in-range request must be served");
            assert!(!recs.is_empty(), "served an empty list for user {u}");
        }
    } else {
        for tick in stream.chunks(batch) {
            let out = engine.recommend_batch(tick);
            assert_eq!(out.len(), tick.len());
            assert!(out.iter().all(Result::is_ok), "in-range batch request rejected");
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let total = (stats.cache_hits + stats.cache_misses).max(1);
    Row {
        model: model.to_string(),
        mode: mode.to_string(),
        requests: stream.len(),
        qps: stream.len() as f64 / wall.max(1e-9),
        p50_us: stats.p50_seconds * 1e6,
        p95_us: stats.p95_seconds * 1e6,
        p99_us: stats.p99_seconds * 1e6,
        mean_us: stats.mean_seconds * 1e6,
        cache_hit_rate: stats.cache_hits as f64 / total as f64,
        cached_lists: engine.cached_lists(),
    }
}

fn main() {
    obs_init(true);
    let mut log = ExpLog::new("serve_bench");
    let env = Env::from_env();

    let n_requests = knob_usize("IMCAT_SERVE_REQUESTS", 2000);
    let zipf_s = knob_f64("IMCAT_SERVE_ZIPF", 1.1);
    let k = knob_usize("IMCAT_SERVE_K", 20);
    let batch = knob_usize("IMCAT_SERVE_BATCH", 32).max(2);
    let cache = knob_usize("IMCAT_SERVE_CACHE", 256);

    let data: SplitDataset = {
        let cfg = SynthConfig::tiny().scaled(env.scale);
        let d = generate(&cfg, 11);
        let mut rng = StdRng::seed_from_u64(12);
        d.dataset.split((0.7, 0.1, 0.2), &mut rng)
    };
    logln!(
        log,
        "serve_bench: {} users x {} items, {} requests, zipf s={zipf_s}, k={k}, \
         batch={batch}, cache={cache}",
        data.n_users(),
        data.n_items(),
        n_requests
    );

    // Pre-draw the request stream once so every model serves identical load.
    let cdf = zipf_cdf(data.n_users(), zipf_s);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21f);
    let stream: Vec<(u32, usize)> =
        (0..n_requests).map(|_| (sample_zipf(&cdf, &mut rng), k)).collect();

    let art_dir = PathBuf::from("target/experiments/serve_artifacts");
    std::fs::create_dir_all(&art_dir).expect("cannot create artifact dir");

    let kinds = [ModelKind::Bprmf, ModelKind::LightGcn, ModelKind::BImcat];
    let mut rows: Vec<Row> = Vec::new();
    logln!(
        log,
        "{:<9} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "model",
        "mode",
        "qps",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "mean(us)",
        "hit%"
    );
    for kind in kinds {
        let artifact_path = art_dir.join(format!("{}.artifact", kind.name()));
        let mut model = kind.build(&data, &env.train_config(), &env.imcat_config(), SEED);
        let base = env.trainer_config(SEED);
        let tcfg = imcat_core::TrainerConfig {
            artifact_path: Some(artifact_path.clone()),
            // Evaluate often enough that even a short IMCAT_EPOCHS run hits
            // at least one best-epoch export.
            eval_every: base.eval_every.min(base.max_epochs).max(1),
            ..base
        };
        let report = train(model.as_mut(), &data, &tcfg);
        let exported = report.artifact.as_ref().expect("dot-product model must export artifact");
        logln!(
            log,
            "{}: trained {} epochs, best val R@20 {:.4}, artifact {}",
            kind.name(),
            report.epochs_run,
            report.best_val_recall,
            exported.display()
        );

        let cfg = ServeConfig { cache_capacity: cache, ..Default::default() };
        for (mode, batch_size) in [("single", 1usize), ("batch", batch)] {
            let mut engine = Engine::load(&artifact_path, cfg.clone()).expect("artifact must load");
            let row = replay(&mut engine, &stream, batch_size, kind.name(), mode);
            logln!(
                log,
                "{:<9} {:<7} {:>9.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>5.1}%",
                row.model,
                row.mode,
                row.qps,
                row.p50_us,
                row.p95_us,
                row.p99_us,
                row.mean_us,
                row.cache_hit_rate * 100.0
            );
            rows.push(row);
        }
    }

    let path = write_json("serve_bench", &rows);
    logln!(log, "report written to {}", path.display());

    obs_finish();
}
