//! The IVF / HNSW recall-versus-QPS frontier on a *trained* catalogue — the
//! one serving measurement `perf` (synthetic embeddings) does not make.
//!
//! The binary trains BPR-MF on the largest synthetic catalog
//! (`SynthConfig::citeulike`, scaled by `IMCAT_SCALE`) with best-epoch
//! artifact export, takes every user's exact top-50 from a brute-force
//! engine as ground truth, then serves each backend at each probe width —
//! IVF over `nprobe`, HNSW over `ef_search` — with the result cache off, so
//! the table measures retrieval, not caching. Probe width is query-time: the
//! first row of a sweep persists the `ann.*` sections next to the artifact
//! and every later `Engine::load` reuses them, so each backend builds once.
//!
//! Both approximate paths re-rank candidates with exact f32 dot products, so
//! recall is the *only* quality axis (`crates/ann/tests/hnsw.rs` and
//! `crates/serve/tests/ann_parity.rs` hold the score bits). Each row reports
//! the share of the catalog a probe surfaces as candidates, recall@10 and
//! recall@50 against the exact lists — each at its own cutoff's operating
//! point — and QPS over one pre-drawn Zipf request stream; rows land in
//! `target/experiments/frontier.json`.
//!
//! The exit code is the gate: non-zero when either backend's default-width
//! row has recall@10 below [`RECALL_FLOOR`] (CI's `bench-smoke` runs it at
//! `IMCAT_SCALE=8 IMCAT_EPOCHS=12`). Throughput with bounds and a compared
//! baseline comes from `perf` (`wire_cold`, `stream_mixed`), not from here.
//!
//! Usage: `cargo run --release -p imcat-bench --bin frontier`

use std::path::PathBuf;
use std::time::Instant;

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, sample_zipf, write_json, zipf_cdf, Env, ExpLog};
use imcat_core::train;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_serve::{AnnConfig, AnnKind, Engine, ProbeScratch, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 7;
/// Length of the replayed request stream.
const REQUESTS: usize = 2000;
/// Serving cutoff in the replay.
const K: usize = 10;
/// Zipf exponent of the user stream.
const ZIPF_S: f64 = 1.1;
/// Recall@10 either backend must reach at its auto-resolved width.
const RECALL_FLOOR: f64 = 0.95;

struct Row {
    mode: &'static str,
    width: usize,
    frac_candidates: f64,
    recall_at10: f64,
    recall_at50: f64,
    qps: f64,
    is_default: bool,
}

imcat_obs::impl_to_json!(Row {
    mode,
    width,
    frac_candidates,
    recall_at10,
    recall_at50,
    qps,
    is_default
});

/// Replays the stream uncached and returns the QPS.
fn replay(engine: &mut Engine, stream: &[u32]) -> f64 {
    let t0 = Instant::now();
    for &u in stream {
        let recs = engine.recommend(u, K).expect("in-range request must be served");
        debug_assert!(recs.len() <= K);
    }
    stream.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Mean recall@`k` of the serving *system* (probe + fallback) against the
/// exact per-user top-`k` lists, measured with `k`-cutoff requests — the
/// same operating point a real client of that cutoff would see.
fn recall_at(engine: &mut Engine, truth: &[Vec<u32>], k: usize) -> f64 {
    let mut recall = 0.0f64;
    let mut counted = 0usize;
    for (u, exact) in truth.iter().enumerate() {
        let exact = &exact[..exact.len().min(k)];
        if exact.is_empty() {
            continue;
        }
        let got = engine.recommend(u as u32, k).expect("in-range request");
        let hit = exact.iter().filter(|&&i| got.iter().any(|r| r.item == i)).count();
        recall += hit as f64 / exact.len() as f64;
        counted += 1;
    }
    recall / counted.max(1) as f64
}

/// Mean fraction of the catalog surfaced as candidates per probe through
/// the kind-agnostic [`imcat_serve::AnnIndex`] trait (direct probes,
/// mask-free — the pool the exact re-rank scores): the lists IVF scans, the
/// nodes HNSW's beam keeps.
fn candidate_fraction(engine: &Engine, width: usize) -> f64 {
    let idx = engine.ann_backend().expect("ann engine");
    let art = engine.artifact();
    let items = &art.item_emb;
    let mut scratch = ProbeScratch::default();
    let mut total = 0usize;
    for u in 0..art.user_emb.rows() {
        idx.probe(art.user_emb.row(u), items, &[], K, width, &mut scratch);
        total += scratch.candidates().len();
    }
    total as f64 / (art.user_emb.rows() * items.rows()) as f64
}

/// Powers of two from `from` while below `below`, plus `extra`, ascending.
fn sweep(from: usize, below: usize, extra: &[usize]) -> Vec<usize> {
    let mut widths: Vec<usize> =
        std::iter::successors(Some(from), |w| Some(w * 2)).take_while(|&w| w < below).collect();
    widths.extend_from_slice(extra);
    widths.sort_unstable();
    widths.dedup();
    widths
}

fn main() {
    obs_init(false);
    let mut log = ExpLog::new("frontier");
    let env = Env::from_env();

    let data: SplitDataset = {
        let cfg = SynthConfig::citeulike().scaled(env.scale);
        let d = generate(&cfg, 11);
        let mut rng = StdRng::seed_from_u64(12);
        d.dataset.split((0.7, 0.1, 0.2), &mut rng)
    };
    let n_items = data.n_items();
    let n_users = data.n_users();
    logln!(
        log,
        "frontier: {n_users} users x {n_items} items, {REQUESTS} requests, k={K}, zipf s={ZIPF_S}"
    );

    // Train and export the artifact through the trainer's best-epoch hook.
    let art_dir = PathBuf::from("target/experiments/frontier_artifacts");
    std::fs::create_dir_all(&art_dir).expect("cannot create artifact dir");
    let artifact_path = art_dir.join("bprmf.artifact");
    let mut model = ModelKind::Bprmf.build(&data, &env.train_config(), &env.imcat_config(), SEED);
    let base = env.trainer_config(SEED);
    let tcfg = imcat_core::TrainerConfig {
        artifact_path: Some(artifact_path.clone()),
        eval_every: base.eval_every.min(base.max_epochs).max(1),
        ..base
    };
    let report = train(model.as_mut(), &data, &tcfg);
    let (epochs, best) = (report.epochs_run, report.best_val_recall);
    logln!(log, "bprmf: trained {epochs} epochs, best val R@20 {best:.4}");

    // Pre-draw one request stream served identically by every engine.
    let cdf = zipf_cdf(data.n_users(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21f);
    let stream: Vec<u32> = (0..REQUESTS).map(|_| sample_zipf(&cdf, &mut rng)).collect();

    let load = |ann: Option<AnnConfig>| {
        let cfg = ServeConfig { cache_capacity: 0, ann };
        Engine::load(&artifact_path, cfg).expect("artifact must load")
    };

    // Brute-force baseline + exact per-user top-50 ground truth.
    let mut brute = load(None);
    let truth: Vec<Vec<u32>> = (0..data.n_users() as u32)
        .map(|u| brute.recommend(u, 50).expect("in-range request").iter().map(|r| r.item).collect())
        .collect();
    let brute_qps = replay(&mut brute, &stream);
    let mut rows = vec![Row {
        mode: "brute",
        width: 0,
        frac_candidates: 1.0,
        recall_at10: 1.0,
        recall_at50: 1.0,
        qps: brute_qps,
        is_default: false,
    }];

    // IVF: powers of two up to nlist, plus nlist itself (the brute-parity
    // anchor). HNSW: powers of two from 16, capped below the catalog, where
    // the probe degenerates to brute force. Both plus the auto default.
    for kind in [AnnKind::Ivf, AnnKind::Hnsw] {
        let base = AnnConfig::for_kind(kind);
        let described = base.describe(n_items);
        let (mode, default) = (kind.name(), described.probe_width());
        let widths = match kind {
            AnnKind::Hnsw => sweep(16, n_items.min(1025), &[default]),
            _ => sweep(1, described.nlist, &[described.nlist, default]),
        };
        logln!(log, "{}", described.to_json().render());
        for width in widths {
            let mut engine = load(Some(match kind {
                AnnKind::Hnsw => AnnConfig { ef_search: width, ..base },
                _ => AnnConfig { nprobe: width, ..base },
            }));
            let qps = replay(&mut engine, &stream);
            rows.push(Row {
                mode,
                width,
                frac_candidates: candidate_fraction(&engine, width),
                recall_at10: recall_at(&mut engine, &truth, 10),
                recall_at50: recall_at(&mut engine, &truth, 50),
                qps,
                is_default: width == default,
            });
        }
    }

    logln!(log, "mode    width   cand%     R@10     R@50       qps  speedup");
    for r in &rows {
        let Row { mode, width, recall_at10: r10, recall_at50: r50, qps, .. } = r;
        let (pct, speedup) = (r.frac_candidates * 100.0, qps / brute_qps.max(1e-9));
        let mark = if r.is_default { "  <- default" } else { "" };
        logln!(
            log,
            "{mode:<6} {width:>6} {pct:>7.1} {r10:>8.4} {r50:>8.4} {qps:>9.0} {speedup:>8.2}{mark}"
        );
    }
    let path = write_json("frontier", &rows);
    logln!(log, "report written to {}", path.display());
    obs_finish();
    let below_floor: Vec<String> = rows
        .iter()
        .filter(|r| r.is_default && r.recall_at10 < RECALL_FLOOR)
        .map(|r| format!("{} width {}: {:.4}", r.mode, r.width, r.recall_at10))
        .collect();
    if !below_floor.is_empty() {
        eprintln!("recall@10 below {RECALL_FLOOR} at a default width: {}", below_floor.join("; "));
        std::process::exit(1);
    }
}
