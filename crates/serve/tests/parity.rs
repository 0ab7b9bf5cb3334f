//! Serving/evaluation parity: for every user, `Engine::recommend` must
//! return exactly the masked top-K list the offline evaluator ranks — same
//! items, same order, bit-identical scores — at any `IMCAT_THREADS` setting,
//! and the batched path must agree with the single-request path — also off
//! the scan's block grid, at any tick size, and for a user whose every score
//! ties.

use std::sync::{Mutex, OnceLock};

use imcat_ckpt::Artifact;
use imcat_core::{Imcat, ImcatConfig};
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_eval::top_n_masked;
use imcat_models::{Bprmf, LightGcn, RecModel, TrainConfig};
use imcat_serve::{Engine, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_split(seed: u64) -> SplitDataset {
    let synth = generate(&SynthConfig::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    synth.dataset.split((0.7, 0.1, 0.2), &mut rng)
}

/// The pool is process-global, so tests that reconfigure it must not overlap.
fn pool_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    imcat_par::set_threads(threads);
    let out = f();
    imcat_par::set_threads(imcat_par::default_threads());
    out
}

fn trained_bprmf(data: &SplitDataset) -> Bprmf {
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Bprmf::new(data, TrainConfig::default(), &mut rng);
    for _ in 0..3 {
        model.train_epoch(&mut rng);
    }
    model
}

/// Every user's served list vs the evaluator's ranking of the model's own
/// score row, plus the raw (item, score-bits) fingerprint for cross-thread
/// comparison.
fn serve_fingerprint(model: &dyn RecModel, data: &SplitDataset, k: usize) -> Vec<(u32, u32)> {
    let artifact = model.export_artifact(data).expect("dot-product model exports");
    let mut engine = Engine::new(artifact, ServeConfig::default()).unwrap();
    let mut fp = Vec::new();
    for u in 0..data.n_users() as u32 {
        let recs = engine.recommend(u, k).unwrap();
        let scores = model.score_users(&[u]);
        let expected = top_n_masked(scores.row(0), data.train_items(u as usize), k);
        let got: Vec<u32> = recs.iter().map(|r| r.item).collect();
        assert_eq!(got, expected, "user {u}: served list != evaluator ranking");
        for r in &recs {
            assert_eq!(
                r.score.to_bits(),
                scores.row(0)[r.item as usize].to_bits(),
                "user {u}: served score differs from model score"
            );
            fp.push((r.item, r.score.to_bits()));
        }
    }
    fp
}

#[test]
fn bprmf_serving_matches_evaluator_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(21);
    let model = trained_bprmf(&data);
    let serial = with_threads(1, || serve_fingerprint(&model, &data, 20));
    let parallel = with_threads(4, || serve_fingerprint(&model, &data, 20));
    assert_eq!(serial, parallel, "served lists must be bit-identical across thread counts");
}

#[test]
fn lightgcn_serving_matches_evaluator_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(22);
    let mut rng = StdRng::seed_from_u64(12);
    let mut model = LightGcn::new(&data, TrainConfig::default(), &mut rng);
    for _ in 0..2 {
        model.train_epoch(&mut rng);
    }
    let serial = with_threads(1, || serve_fingerprint(&model, &data, 20));
    let parallel = with_threads(4, || serve_fingerprint(&model, &data, 20));
    assert_eq!(serial, parallel);
}

#[test]
fn imcat_model_serving_matches_evaluator() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(23);
    let mut rng = StdRng::seed_from_u64(13);
    let backbone = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    let mut model = Imcat::new(
        backbone,
        &data,
        ImcatConfig { pretrain_epochs: 1, ..Default::default() },
        &mut rng,
    );
    model.train_epoch(&mut rng);
    let serial = with_threads(1, || serve_fingerprint(&model, &data, 10));
    let parallel = with_threads(4, || serve_fingerprint(&model, &data, 10));
    assert_eq!(serial, parallel);
}

#[test]
fn batch_path_matches_single_request_path() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(24);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();

    // Batched engine answers a tick with repeats and mixed cutoffs; an
    // uncached single-request engine answers the same requests one by one.
    let mut batched = Engine::new(artifact.clone(), ServeConfig::default()).unwrap();
    let mut single =
        Engine::new(artifact, ServeConfig { cache_capacity: 0, ..Default::default() }).unwrap();
    let n = data.n_users() as u32;
    let requests: Vec<(u32, usize)> =
        (0..40u32).map(|i| (i % n, if i % 3 == 0 { 5 } else { 20 })).collect();
    let tick = batched.recommend_batch(&requests);
    assert_eq!(tick.len(), requests.len());
    for (out, &(u, k)) in tick.iter().zip(&requests) {
        assert_eq!(
            out.as_ref().unwrap(),
            &single.recommend(u, k).unwrap(),
            "batch ({u}, {k}) diverged"
        );
    }
    // Repeats within the tick were deduplicated into cache hits or shared
    // scoring rows; the stats must still count every request.
    assert_eq!(batched.stats().served, requests.len() as u64);
}

/// The exact rankers — `Engine::recommend` (a tick of one),
/// `recommend_batch` (one blocked `matmul_nt_rows` over every user) and the
/// evaluator's selection over a per-pair `imcat_simd::dot` row — agree list
/// for list and bit for bit when nothing lines up: 293 items (two 128-row
/// blocks and a 37-row tail, not a multiple of the kernel's four rows in
/// flight either). User 4 is cold (all-zero): every score ties at +0.0, so the
/// canonical order hands it the `k` lowest unmasked ids.
#[test]
fn exact_paths_agree_off_the_block_grid() {
    let _guard = pool_lock().lock().unwrap();
    const K: usize = 10;
    let (n_users, n_items, d) = (9usize, 293usize, 64usize);
    let mut rng = StdRng::seed_from_u64(31);
    let mut user_emb = imcat_tensor::normal(n_users, d, 1.0, &mut rng);
    user_emb.row_mut(4).fill(0.0);
    let item_emb = imcat_tensor::normal(n_items, d, 1.0, &mut rng);
    let masks: Vec<Vec<u32>> = (0..n_users as u32)
        .map(|u| (0..n_items as u32).filter(|j| (j * 7 + u * 3) % 11 == 0).collect())
        .collect();
    let artifact = Artifact::new("off-grid", user_emb, item_emb, masks);

    // The reference: a per-pair dot row through the evaluator's selection.
    let expected: Vec<Vec<(u32, u32)>> = (0..n_users)
        .map(|u| {
            let row: Vec<f32> = (0..n_items)
                .map(|j| imcat_simd::dot(artifact.user_emb.row(u), artifact.item_emb.row(j)))
                .collect();
            let top = top_n_masked(&row, &artifact.masks[u], K);
            top.iter().map(|&j| (j, row[j as usize].to_bits())).collect()
        })
        .collect();
    let lowest_unmasked: Vec<u32> =
        (0..n_items as u32).filter(|j| !artifact.masks[4].contains(j)).take(K).collect();
    let cold: Vec<u32> = expected[4].iter().map(|&(j, _)| j).collect();
    assert_eq!(cold, lowest_unmasked, "an all-tie row ranks by ascending id");
    assert!(expected[4].iter().all(|&(_, bits)| bits == 0.0f32.to_bits()));

    let fingerprint = |recs: &[imcat_serve::Recommendation]| -> Vec<(u32, u32)> {
        recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
    };
    let requests: Vec<(u32, usize)> = (0..n_users as u32).map(|u| (u, K)).collect();
    for threads in [1, 4] {
        let what = format!("threads={threads}");
        with_threads(threads, || {
            let cfg = ServeConfig { cache_capacity: 0, ann: None };
            let mut engine = Engine::new(artifact.clone(), cfg).unwrap();
            let tick = engine.recommend_batch(&requests);
            for (u, want) in expected.iter().enumerate() {
                let single = engine.recommend(u as u32, K).unwrap();
                assert_eq!(&fingerprint(&single), want, "{what}: single path, user {u}");
                let batched = tick[u].as_ref().unwrap();
                assert_eq!(&fingerprint(batched), want, "{what}: batch path, user {u}");
            }
        });
    }
}

#[test]
fn cache_hits_return_identical_lists() {
    let data = tiny_split(25);
    let model = trained_bprmf(&data);
    let mut engine =
        Engine::new(model.export_artifact(&data).unwrap(), ServeConfig::default()).unwrap();
    let cold = engine.recommend(3, 20).unwrap();
    let warm = engine.recommend(3, 20).unwrap();
    assert_eq!(cold, warm);
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.served, 2);
}

#[test]
fn reload_invalidates_cache_and_serves_new_artifact() {
    let data = tiny_split(26);
    let model_a = trained_bprmf(&data);
    let mut rng = StdRng::seed_from_u64(99);
    let mut model_b = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    for _ in 0..5 {
        model_b.train_epoch(&mut rng);
    }
    let art_a = model_a.export_artifact(&data).unwrap();
    let art_b = model_b.export_artifact(&data).unwrap();

    let mut engine = Engine::new(art_a, ServeConfig::default()).unwrap();
    // Warm the cache for every user under artifact A.
    let lists_a: Vec<_> =
        (0..data.n_users() as u32).map(|u| engine.recommend(u, 20).unwrap()).collect();
    assert!(engine.cached_lists() > 0);

    engine.reload(art_b).unwrap();
    assert_eq!(engine.cached_lists(), 0, "reload must drop every cached list");

    // Served lists now reflect artifact B exactly — no stale A lists.
    let mut fresh_b =
        Engine::new(model_b.export_artifact(&data).unwrap(), ServeConfig::default()).unwrap();
    let mut any_changed = false;
    for u in 0..data.n_users() as u32 {
        let served = engine.recommend(u, 20).unwrap();
        assert_eq!(served, fresh_b.recommend(u, 20).unwrap(), "user {u} served a stale list");
        any_changed |= served != lists_a[u as usize];
    }
    assert!(any_changed, "artifacts A and B should rank at least one user differently");
}

/// Malformed requests come back as typed errors — never panics — and a bad
/// request mixed into a tick leaves every other answer untouched.
#[test]
fn malformed_requests_are_rejected_not_fatal() {
    let data = tiny_split(28);
    let model = trained_bprmf(&data);
    let mut engine =
        Engine::new(model.export_artifact(&data).unwrap(), ServeConfig::default()).unwrap();
    let n = data.n_users() as u32;

    assert_eq!(engine.recommend(n, 10), Err(ServeError::UserOutOfRange { user: n, n_users: n }));
    assert_eq!(
        engine.recommend(u32::MAX, 10).unwrap_err(),
        ServeError::UserOutOfRange { user: u32::MAX, n_users: n }
    );
    assert_eq!(engine.recommend(0, 0), Err(ServeError::ZeroK));

    // A poisoned tick: stale user ids and a zero cutoff interleaved with
    // valid requests. The valid ones must be answered exactly as if the bad
    // ones were never sent.
    let tick = engine.recommend_batch(&[(0, 5), (n, 5), (1, 0), (2, 5), (n + 7, 3), (3, 5)]);
    assert_eq!(tick.len(), 6);
    assert_eq!(tick[1], Err(ServeError::UserOutOfRange { user: n, n_users: n }));
    assert_eq!(tick[2], Err(ServeError::ZeroK));
    assert_eq!(tick[4], Err(ServeError::UserOutOfRange { user: n + 7, n_users: n }));
    let mut clean =
        Engine::new(model.export_artifact(&data).unwrap(), ServeConfig::default()).unwrap();
    for (slot, u) in [(0usize, 0u32), (3, 2), (5, 3)] {
        assert_eq!(tick[slot].as_ref().unwrap(), &clean.recommend(u, 5).unwrap());
    }
    // Rejections never pollute the cache or the served count.
    assert_eq!((engine.stats().served, engine.cached_lists()), (3, 3));
}

#[test]
fn invalid_reload_keeps_old_artifact_live() {
    let data = tiny_split(27);
    let model = trained_bprmf(&data);
    let mut engine =
        Engine::new(model.export_artifact(&data).unwrap(), ServeConfig::default()).unwrap();
    let before = engine.recommend(0, 10).unwrap();

    let mut bad = model.export_artifact(&data).unwrap();
    bad.user_emb.row_mut(0)[0] = f32::NAN;
    assert!(engine.reload(bad).is_err());
    assert_eq!(engine.recommend(0, 10).unwrap(), before, "failed reload must not disturb serving");
}
