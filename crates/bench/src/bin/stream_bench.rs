//! Streaming ingestion benchmark: live recommend traffic interleaved with
//! cold-user/cold-item registration, fold-in, and a mid-stream background
//! index rebuild that must swap generations without failing a request.
//!
//! The binary trains BPR-MF on the scaled synthetic catalog and loads the
//! exported artifact into a mutable serving engine (ANN on). It then picks
//! the warmest `IMCAT_INGEST_USERS` users as donors, registers one cold
//! user per donor, and replays a Zipf recommend stream while ingesting the
//! first half of each donor's history as the cold user's live interactions,
//! in `IMCAT_INGEST_BATCH`-sized slices with periodic fold ticks. At
//! `IMCAT_REBUILD_AT` of the stream it spawns the background log-replay
//! rebuild and keeps serving until the worker finishes, then commits the
//! new generation and continues — the acceptance criterion is **zero**
//! failed requests across the swap.
//!
//! The report (`target/experiments/stream_bench.json`) carries the serving
//! QPS under ingest load, ingest throughput, rebuild wall time, requests
//! answered while the rebuild ran, and the cold-user quality signal: mean
//! recall@10 of the folded cold users against their donors' held-out
//! second half (must beat zero — the fold-in lands in the donor's
//! neighborhood, not at a random point). Consumed by the `stream-smoke`
//! CI job.
//!
//! Environment knobs:
//!
//! * `IMCAT_STREAM_REQUESTS` — recommend-request count (default 2000)
//! * `IMCAT_INGEST_USERS`    — cold users registered live (default 32)
//! * `IMCAT_INGEST_BATCH`    — interactions per ingest slice (default 8)
//! * `IMCAT_REBUILD_AT`      — stream fraction triggering the rebuild
//!   (default 0.5)
//!
//! Usage: `cargo run --release -p imcat-bench --bin stream_bench`

use std::path::PathBuf;
use std::time::Instant;

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, sample_zipf, write_json, zipf_cdf, Env, ExpLog};
use imcat_core::config::knobs::{knob_f64, knob_str, knob_usize};
use imcat_core::train;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_serve::{AnnConfig, AnnKind, Engine, Interaction, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 17;
const K: usize = 10;

struct Row {
    ann_kind: String,
    requests: usize,
    failed_requests: usize,
    qps: f64,
    ingest_events: usize,
    ingest_per_sec: f64,
    cold_users: usize,
    cold_items: usize,
    cold_recall_at10: f64,
    cold_hit_fraction: f64,
    rebuild_seconds: f64,
    requests_during_rebuild: usize,
    generation: u64,
    fold_ticks: usize,
}

imcat_obs::impl_to_json!(Row {
    ann_kind,
    requests,
    failed_requests,
    qps,
    ingest_events,
    ingest_per_sec,
    cold_users,
    cold_items,
    cold_recall_at10,
    cold_hit_fraction,
    rebuild_seconds,
    requests_during_rebuild,
    generation,
    fold_ticks
});

fn main() {
    obs_init(true);
    let mut log = ExpLog::new("stream_bench");
    let env = Env::from_env();

    let n_requests = knob_usize("IMCAT_STREAM_REQUESTS", 2000);
    let n_cold = knob_usize("IMCAT_INGEST_USERS", 32);
    let slice = knob_usize("IMCAT_INGEST_BATCH", 8).max(1);
    let rebuild_at = knob_f64("IMCAT_REBUILD_AT", 0.5).clamp(0.0, 1.0);

    let data: SplitDataset = {
        let cfg = SynthConfig::citeulike().scaled(env.scale);
        let d = generate(&cfg, 11);
        let mut rng = StdRng::seed_from_u64(12);
        d.dataset.split((0.7, 0.1, 0.2), &mut rng)
    };
    logln!(
        log,
        "stream_bench: {} users x {} items, {} requests, {} cold users, slice {}, rebuild at {:.0}%",
        data.n_users(),
        data.n_items(),
        n_requests,
        n_cold,
        slice,
        rebuild_at * 100.0
    );

    // Train and export the artifact through the trainer's best-epoch hook.
    let art_dir = PathBuf::from("target/experiments/stream_artifacts");
    std::fs::create_dir_all(&art_dir).expect("cannot create artifact dir");
    let artifact_path = art_dir.join("bprmf.artifact");
    let kind = ModelKind::Bprmf;
    let mut model = kind.build(&data, &env.train_config(), &env.imcat_config(), SEED);
    let base = env.trainer_config(SEED);
    let tcfg = imcat_core::TrainerConfig {
        artifact_path: Some(artifact_path.clone()),
        eval_every: base.eval_every.min(base.max_epochs).max(1),
        ..base
    };
    let report = train(model.as_mut(), &data, &tcfg);
    logln!(
        log,
        "bprmf: trained {} epochs, best val R@20 {:.4}",
        report.epochs_run,
        report.best_val_recall
    );

    // IMCAT_ANN_KIND selects the live index backend (ivf, brute, or hnsw)
    // so the same streaming run — live inserts, mid-traffic rebuild swap —
    // exercises whichever retrieval path is under test.
    let ann_kind = knob_str("IMCAT_ANN_KIND")
        .map(|v| AnnKind::parse(&v).unwrap_or_else(|| panic!("unknown IMCAT_ANN_KIND: {v}")))
        .unwrap_or(AnnKind::Ivf);
    logln!(log, "ann backend: {}", ann_kind.name());
    let cfg = ServeConfig {
        cache_capacity: 256,
        ann: Some(AnnConfig { kind: ann_kind, ..AnnConfig::default() }),
        ..Default::default()
    };
    let mut engine = Engine::load(&artifact_path, cfg).expect("artifact must load");
    let n_warm = engine.n_users();

    // Donors: the warmest users. Each cold user replays the first half of
    // their donor's history live; the second half is the recall holdout.
    let mut by_mass: Vec<usize> = (0..n_warm).collect();
    by_mass.sort_unstable_by_key(|&u| std::cmp::Reverse(engine.artifact().masks[u].len()));
    let donors: Vec<usize> = by_mass
        .into_iter()
        .take(n_cold)
        .filter(|&u| engine.artifact().masks[u].len() >= 4)
        .collect();
    let mut scripts: Vec<(u32, Vec<u32>, Vec<u32>)> = Vec::new(); // (cold id, seen, holdout)
    for &donor in &donors {
        let history = engine.artifact().masks[donor].clone();
        let (seen, holdout) = history.split_at(history.len() / 2);
        let cold = engine.register_user();
        scripts.push((cold, seen.to_vec(), holdout.to_vec()));
    }
    // A handful of cold items, fed interactions from warm users so the next
    // fold tick gives them nonzero rows and inserts them into the index.
    let n_cold_items = (n_cold / 4).max(1);
    let cold_items: Vec<u32> = (0..n_cold_items).map(|_| engine.register_item()).collect();

    // Flatten the cold-user scripts into one arrival-ordered ingest tape,
    // round-robin across users, plus warm evidence for each cold item.
    let mut tape: Vec<Interaction> = Vec::new();
    let longest = scripts.iter().map(|(_, seen, _)| seen.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (cold, seen, _) in &scripts {
            if let Some(&item) = seen.get(i) {
                tape.push(Interaction { user: *cold, item });
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5a5a);
    for &item in &cold_items {
        for _ in 0..4 {
            tape.push(Interaction { user: rng.gen_range(0..n_warm as u32), item });
        }
    }

    // Interleave: spread the whole tape over the first 80% of the stream so
    // the rebuild and the tail of the run see folded cold users.
    let n_slices = tape.len().div_ceil(slice);
    let ingest_window = n_requests * 4 / 5;
    let ingest_every = (ingest_window / n_slices.max(1)).max(1);
    let cdf = zipf_cdf(n_warm, 1.1);
    let rebuild_step = ((n_requests as f64) * rebuild_at) as usize;

    let mut served = 0usize;
    let mut failed = 0usize;
    let mut ingested = 0usize;
    let mut fold_ticks = 0usize;
    let mut during_rebuild = 0usize;
    let mut rebuild_wall = 0.0f64;
    let mut task = None;
    let mut rebuild_t0 = None;
    let mut next_slice = 0usize;
    let t0 = Instant::now();
    for step in 0..n_requests {
        if step % ingest_every == 0 && next_slice < n_slices {
            let lo = next_slice * slice;
            let hi = (lo + slice).min(tape.len());
            for &x in &tape[lo..hi] {
                engine.ingest(x).expect("tape interactions are in range");
                ingested += 1;
            }
            next_slice += 1;
            // Fold every fourth slice so cold entities become servable
            // while the stream is still running.
            if next_slice.is_multiple_of(4) || next_slice == n_slices {
                engine.fold_pending();
                fold_ticks += 1;
            }
        }
        if step == rebuild_step {
            task = Some(engine.spawn_rebuild(None).expect("spawn rebuild"));
            rebuild_t0 = Some(Instant::now());
        }
        if let Some(t) = &task {
            during_rebuild += 1;
            if t.is_finished() {
                rebuild_wall = rebuild_t0.take().expect("rebuild timer").elapsed().as_secs_f64();
                engine.commit_rebuild(task.take().expect("task present")).expect("commit rebuild");
            }
        }
        let user = sample_zipf(&cdf, &mut rng);
        served += 1;
        if engine.recommend(user, K).is_err() {
            failed += 1;
        }
    }
    // A short stream can end before the worker does: keep serving until the
    // swap lands so the zero-failures claim always covers the full rebuild.
    if let Some(t) = task.take() {
        while !t.is_finished() {
            let user = sample_zipf(&cdf, &mut rng);
            served += 1;
            if engine.recommend(user, K).is_err() {
                failed += 1;
            }
            during_rebuild += 1;
        }
        rebuild_wall = rebuild_t0.take().expect("rebuild timer").elapsed().as_secs_f64();
        engine.commit_rebuild(t).expect("commit rebuild");
    }
    let wall = t0.elapsed().as_secs_f64();
    engine.fold_pending();

    // Cold-user quality: recall@10 against the donor's held-out half.
    let mut recall_sum = 0.0f64;
    let mut with_hit = 0usize;
    for (cold, _, holdout) in &scripts {
        let recs = engine.recommend(*cold, K).expect("cold user must be servable");
        let hits = recs.iter().filter(|r| holdout.contains(&r.item)).count();
        recall_sum += hits as f64 / holdout.len().clamp(1, K) as f64;
        with_hit += (hits > 0) as usize;
    }
    let cold_recall = recall_sum / scripts.len().max(1) as f64;
    let hit_fraction = with_hit as f64 / scripts.len().max(1) as f64;

    let row = Row {
        ann_kind: ann_kind.name().into(),
        requests: served,
        failed_requests: failed,
        qps: served as f64 / wall.max(1e-9),
        ingest_events: ingested,
        ingest_per_sec: ingested as f64 / wall.max(1e-9),
        cold_users: scripts.len(),
        cold_items: cold_items.len(),
        cold_recall_at10: cold_recall,
        cold_hit_fraction: hit_fraction,
        rebuild_seconds: rebuild_wall,
        requests_during_rebuild: during_rebuild,
        generation: engine.generation(),
        fold_ticks,
    };
    logln!(
        log,
        "served {} requests at {:.0} qps ({} failed), {} ingests ({:.0}/s), {} fold ticks",
        row.requests,
        row.qps,
        row.failed_requests,
        row.ingest_events,
        row.ingest_per_sec,
        row.fold_ticks
    );
    logln!(
        log,
        "rebuild: {:.3}s wall, {} requests served during it, generation now {}",
        row.rebuild_seconds,
        row.requests_during_rebuild,
        row.generation
    );
    logln!(
        log,
        "cold users: {} folded, recall@10 {:.4}, {:.0}% with >=1 holdout hit",
        row.cold_users,
        row.cold_recall_at10,
        row.cold_hit_fraction * 100.0
    );

    if imcat_obs::enabled() {
        use imcat_obs::Json;
        imcat_obs::emit(
            "stream_bench",
            vec![
                ("ann_kind", Json::Str(row.ann_kind.clone())),
                ("qps", Json::Num(row.qps)),
                ("ingest_per_sec", Json::Num(row.ingest_per_sec)),
                ("failed_requests", Json::Num(row.failed_requests as f64)),
                ("cold_recall_at10", Json::Num(row.cold_recall_at10)),
                ("rebuild_seconds", Json::Num(row.rebuild_seconds)),
                ("requests_during_rebuild", Json::Num(row.requests_during_rebuild as f64)),
                ("generation", Json::Num(row.generation as f64)),
            ],
        );
        imcat_obs::gauge_set("stream.cold_recall_at10", row.cold_recall_at10);
        imcat_obs::gauge_set("stream.failed_requests", row.failed_requests as f64);
        imcat_obs::gauge_set("stream.rebuild_seconds", row.rebuild_seconds);
    }

    let path = write_json("stream_bench", &row);
    logln!(log, "report written to {}", path.display());
    obs_finish();
}
