//! ANN serving contract: with `nprobe == nlist` the IVF path is
//! bit-identical to brute force (tie order included); with partial probes
//! every returned score is still an exact dot product; fallbacks cover cold
//! and fully-masked users; config swaps invalidate the cache exactly like
//! reloads; and a corrupted persisted index can never poison the engine.

use std::sync::{Mutex, OnceLock};

use imcat_ann::ivf::SEC_ANN_LISTS;
use imcat_ann::DEFAULT_BUILD_SEED;
use imcat_ckpt::Checkpoint;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_models::{Bprmf, RecModel, TrainConfig};
use imcat_serve::{AnnConfig, AnnKind, Engine, Interaction, Recommendation, ServeConfig};
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

fn ann_cfg(nlist: usize, nprobe: usize) -> ServeConfig {
    ServeConfig {
        cache_capacity: 0,
        ann: Some(AnnConfig { nlist, nprobe, quantized: false, ..AnnConfig::default() }),
    }
}

/// Acceptance criterion: probing *every* list must reproduce brute force
/// bit-identically — same items, same order (ties included), same score
/// bits — because the compact candidate arrays then equal the full ones.
#[test]
fn nprobe_equals_nlist_is_bit_identical_to_brute_force() {
    let data = tiny_split(31);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let nlist = 12;
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut ivf = Engine::new(artifact, ann_cfg(nlist, nlist)).unwrap();
    for u in 0..data.n_users() as u32 {
        for k in [1, 7, 20] {
            let b = brute.recommend(u, k).unwrap();
            let a = ivf.recommend(u, k).unwrap();
            assert_eq!(a.len(), b.len(), "user {u} k {k}: list lengths differ");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.item, y.item, "user {u} k {k}: item order differs");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "user {u} k {k}: score bits differ"
                );
            }
        }
    }
}

/// With ties injected deliberately, full-probe IVF must preserve brute
/// force's tie order exactly.
#[test]
fn tie_order_survives_full_probe() {
    let data = tiny_split(32);
    let model = trained_bprmf(&data);
    let mut artifact = model.export_artifact(&data).unwrap();
    // Make several items exact duplicates so their scores tie bitwise for
    // every user.
    let dup = artifact.item_emb.row(5).to_vec();
    for j in [9usize, 23, 41] {
        artifact.item_emb.row_mut(j).copy_from_slice(&dup);
    }
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut ivf = Engine::new(artifact, ann_cfg(8, 8)).unwrap();
    for u in 0..data.n_users() as u32 {
        assert_eq!(
            ivf.recommend(u, 30).unwrap(),
            brute.recommend(u, 30).unwrap(),
            "user {u}: tie order diverged"
        );
    }
}

/// Partial probes trade recall, never correctness: every returned item's
/// score must still be the exact dot product, the list must be sorted, and
/// recall against brute force should be high on this easy catalog.
#[test]
fn partial_probe_scores_are_exact_and_recall_is_high() {
    let data = tiny_split(33);
    // Train well past the other tests' 3 epochs: recall under partial probes
    // depends on the embeddings actually having cluster structure.
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    for _ in 0..25 {
        model.train_epoch(&mut rng);
    }
    let artifact = model.export_artifact(&data).unwrap();
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut ivf = Engine::new(artifact, ann_cfg(8, 4)).unwrap();
    let k = 10;
    let mut hits = 0usize;
    let mut total = 0usize;
    for u in 0..data.n_users() as u32 {
        let exact = brute.recommend(u, k).unwrap();
        let approx = ivf.recommend(u, k).unwrap();
        let scores = model.score_users(&[u]);
        for w in approx.windows(2) {
            assert!(w[0].score >= w[1].score, "user {u}: ANN list not sorted");
        }
        for r in &approx {
            assert_eq!(
                r.score.to_bits(),
                scores.row(0)[r.item as usize].to_bits(),
                "user {u}: ANN returned a non-exact score"
            );
        }
        let truth: Vec<u32> = exact.iter().map(|r| r.item).collect();
        hits += approx.iter().filter(|r| truth.contains(&r.item)).count();
        total += truth.len();
    }
    // The tiny 60x90 catalog is a worst case for IVF (per-user top-10s
    // scatter across lists that hold ~11 items each); the production-scale
    // recall bar is the `frontier` bin's exit code (CI's bench-smoke). Here
    // we only require that half the lists recover well over half the true
    // top-10.
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.6, "recall@10 {recall:.3} unexpectedly low at nprobe=nlist/2");
}

/// Batched requests must stay bit-identical to the single-request path when
/// ANN is active (both go through the same probe-or-fallback computation).
#[test]
fn batch_matches_single_under_ann() {
    let data = tiny_split(34);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let mut batched = Engine::new(
        artifact.clone(),
        ServeConfig {
            ann: Some(AnnConfig { nlist: 10, nprobe: 3, quantized: false, ..AnnConfig::default() }),
            ..Default::default()
        },
    )
    .unwrap();
    let mut single = Engine::new(artifact, ann_cfg(10, 3)).unwrap();
    let n = data.n_users() as u32;
    let requests: Vec<(u32, usize)> =
        (0..40u32).map(|i| (i % n, if i % 3 == 0 { 5 } else { 15 })).collect();
    let tick = batched.recommend_batch(&requests);
    for (out, &(u, k)) in tick.iter().zip(&requests) {
        assert_eq!(
            out.as_ref().unwrap(),
            &single.recommend(u, k).unwrap(),
            "batch ({u}, {k}) diverged"
        );
    }
    assert_eq!(batched.stats().served, requests.len() as u64);
}

/// Regression: a list cached under one retrieval configuration must not
/// survive an ANN config swap — `set_ann` clears the cache like `reload`.
#[test]
fn set_ann_invalidates_cached_lists() {
    let data = tiny_split(35);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let mut engine = Engine::new(artifact, ServeConfig::default()).unwrap();
    let brute_list = engine.recommend(2, 10).unwrap();
    assert!(engine.cached_lists() > 0, "list should be cached");

    // Swap in a deliberately lossy config (probe 1 list of many).
    engine.set_ann(Some(AnnConfig {
        nlist: 16,
        nprobe: 1,
        quantized: false,
        ..AnnConfig::default()
    }));
    assert_eq!(engine.cached_lists(), 0, "set_ann must drop every cached list");
    let ann_list = engine.recommend(2, 10).unwrap();
    // Whatever it returns must be freshly computed under the new config: an
    // uncached engine with the same config agrees exactly.
    let mut fresh = Engine::new(
        engine.artifact().clone(),
        ServeConfig {
            cache_capacity: 0,
            ann: Some(AnnConfig { nlist: 16, nprobe: 1, quantized: false, ..AnnConfig::default() }),
        },
    )
    .unwrap();
    assert_eq!(
        ann_list,
        fresh.recommend(2, 10).unwrap(),
        "stale cached list served after config swap"
    );

    // Swapping back off restores brute-force answers.
    engine.set_ann(None);
    assert_eq!(engine.cached_lists(), 0);
    assert_eq!(engine.recommend(2, 10).unwrap(), brute_list);
}

/// Cold users (all-zero embedding) and fully-masked users take the brute
/// fallback and still produce correct (deterministic / empty) answers.
#[test]
fn cold_and_fully_masked_users_fall_back() {
    let data = tiny_split(36);
    let model = trained_bprmf(&data);
    let mut artifact = model.export_artifact(&data).unwrap();
    for x in artifact.user_emb.row_mut(0) {
        *x = 0.0;
    }
    let n_items = artifact.n_items() as u32;
    artifact.masks[1] = (0..n_items).collect();
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut ivf = Engine::new(artifact, ann_cfg(8, 2)).unwrap();
    // Cold user: identical to brute force (the fallback *is* brute force).
    assert_eq!(ivf.recommend(0, 10).unwrap(), brute.recommend(0, 10).unwrap());
    // Fully-masked user: empty list, no panic.
    assert_eq!(ivf.recommend(1, 10).unwrap(), vec![]);
    fallbacks_inside_a_tick_answer_like_brute_force(&mut ivf, &mut brute);
}

/// One tick that mixes the cold user 0 and the fully-masked user 1 with
/// probed users, a duplicate key and user 3 at two cutoffs: every slot is
/// the single-request answer, and each fallback slot is the brute-force
/// engine's, bit for bit — a fallback is a row of the tick's exact product.
fn fallbacks_inside_a_tick_answer_like_brute_force(ann: &mut Engine, brute: &mut Engine) {
    let bits = |recs: &[Recommendation]| -> Vec<(u32, u32)> {
        recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
    };
    let tick = [(2, 10), (0, 10), (3, 5), (1, 10), (0, 10), (3, 10), (4, 7)];
    for (&(user, k), answer) in tick.iter().zip(ann.recommend_batch(&tick)) {
        let answer = bits(&answer.unwrap());
        assert_eq!(answer, bits(&ann.recommend(user, k).unwrap()), "user {user} k={k}: tick");
        if user <= 1 {
            assert_eq!(answer, bits(&brute.recommend(user, k).unwrap()), "user {user} k={k}");
        }
    }
}

/// `Engine::load` persists the lazily built index into the artifact file
/// (atomically, alongside the artifact sections) and reuses it on the next
/// load; a corrupted index section is rejected and rebuilt without ever
/// poisoning the served answers.
#[test]
fn lazy_persistence_and_corrupt_index_recovery() {
    let data = tiny_split(37);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let dir = std::env::temp_dir().join(format!("imcat-ann-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.artifact");
    artifact.save(&path).unwrap();
    let cfg = ann_cfg(8, 8);

    // First load builds and persists the index.
    let before = Checkpoint::load(&path).unwrap();
    assert!(before.get(SEC_ANN_LISTS).is_none());
    let mut e1 = Engine::load(&path, cfg.clone()).unwrap();
    let after = Checkpoint::load(&path).unwrap();
    assert!(after.get(SEC_ANN_LISTS).is_some(), "index sections not persisted");
    let expected: Vec<_> =
        (0..data.n_users() as u32).map(|u| e1.recommend(u, 10).unwrap()).collect();

    // Second load reuses the persisted index byte-for-byte.
    let bytes_once = std::fs::read(&path).unwrap();
    let mut e2 = Engine::load(&path, cfg.clone()).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes_once, "reload rewrote a fresh index");
    for (u, want) in expected.iter().enumerate() {
        assert_eq!(&e2.recommend(u as u32, 10).unwrap(), want, "persisted index changed answers");
    }

    // Corrupt the index payload semantically (duplicate id): load must
    // reject it, rebuild, and serve the exact same answers.
    let mut ck = Checkpoint::load(&path).unwrap();
    let mut dec = imcat_ckpt::Decoder::new(ck.get(SEC_ANN_LISTS).unwrap());
    let offsets = dec.u32s().unwrap();
    let mut entries = dec.u32s().unwrap();
    entries[1] = entries[0];
    let mut enc = imcat_ckpt::Encoder::new();
    enc.put_u32s(&offsets);
    enc.put_u32s(&entries);
    ck.insert(SEC_ANN_LISTS, enc.into_bytes());
    ck.save(&path).unwrap();
    let mut e3 = Engine::load(&path, cfg).unwrap();
    for (u, want) in expected.iter().enumerate() {
        assert_eq!(&e3.recommend(u as u32, 10).unwrap(), want, "corrupt index poisoned serving");
    }
    std::fs::remove_file(&path).ok();
}

/// Quantized storage may only shrink the candidate pool — the final
/// ordering and scores come from the exact f32 re-rank. At full probe on
/// this catalog the shortlist comfortably covers the true top-K, so the
/// answers must match the non-quantized engine exactly.
#[test]
fn quantized_rerank_returns_exact_scores() {
    let data = tiny_split(38);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let mut exact = Engine::new(artifact.clone(), ann_cfg(8, 8)).unwrap();
    let mut quant = Engine::new(
        artifact,
        ServeConfig {
            cache_capacity: 0,
            ann: Some(AnnConfig { nlist: 8, nprobe: 8, quantized: true, ..AnnConfig::default() }),
        },
    )
    .unwrap();
    let scores_of = |m: &Bprmf, u: u32| m.score_users(&[u]);
    for u in 0..data.n_users() as u32 {
        let q = quant.recommend(u, 10).unwrap();
        let s = scores_of(&model, u);
        for r in &q {
            assert_eq!(
                r.score.to_bits(),
                s.row(0)[r.item as usize].to_bits(),
                "user {u}: quantized path returned a non-exact score"
            );
        }
        assert_eq!(q, exact.recommend(u, 10).unwrap(), "user {u}: quantized top-K diverged");
    }
}

/// The certified int8 skip path: on a catalog engineered so approximate
/// scores are separated far beyond the quantization error bounds, the probe
/// must actually take the skip (proving the bound is usable, not just
/// safe), and both the direct probe result and the full engine answer must
/// stay bit-identical to the forced re-rank / brute-force paths.
#[test]
fn certified_skip_is_taken_and_bit_identical_to_rerank() {
    let data = tiny_split(41);
    let model = trained_bprmf(&data);
    let mut artifact = model.export_artifact(&data).unwrap();
    // Same-direction items with geometrically decaying magnitudes: every
    // user's score gaps dwarf any int8 quantization error, so top-K
    // certification succeeds deterministically.
    let d = artifact.item_emb.cols();
    let dir: Vec<f32> = (0..d).map(|j| 0.3 + 0.1 * (j % 5) as f32).collect();
    for i in 0..artifact.n_items() {
        let m = 1.3f32.powi(-(i as i32));
        for (slot, &x) in artifact.item_emb.row_mut(i).iter_mut().zip(&dir) {
            *slot = x * m;
        }
    }
    for u in 0..artifact.n_users() {
        let m = 0.5 + (u % 7) as f32 * 0.25;
        for (slot, &x) in artifact.user_emb.row_mut(u).iter_mut().zip(&dir) {
            *slot = x * m;
        }
    }
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut quant = Engine::new(
        artifact.clone(),
        ServeConfig {
            cache_capacity: 0,
            ann: Some(AnnConfig { nlist: 6, nprobe: 6, quantized: true, ..AnnConfig::default() }),
        },
    )
    .unwrap();
    // Engine answers: quantized (with skips enabled) == brute, bitwise.
    for u in 0..data.n_users() as u32 {
        let q = quant.recommend(u, 5).unwrap();
        let b = brute.recommend(u, 5).unwrap();
        assert_eq!(q.len(), b.len(), "user {u}: lengths differ");
        for (x, y) in q.iter().zip(&b) {
            assert_eq!(x.item, y.item, "user {u}: item order differs");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {u}: score bits differ");
        }
    }
    // Direct probe: skips actually fire, and skip == forced re-rank through
    // the evaluator's selection.
    // The same bits the engine built: the build is a pure function of
    // `(items, cfg, seed)`.
    let cfg = AnnConfig { nlist: 6, nprobe: 6, quantized: true, ..AnnConfig::default() };
    let idx = &imcat_serve::IvfIndex::build(&artifact.item_emb, &cfg, DEFAULT_BUILD_SEED);
    let mut fast = imcat_serve::ProbeScratch::default();
    let mut slow = imcat_serve::ProbeScratch::default();
    let mut top = imcat_eval::TopKScratch::default();
    let mut skips = 0usize;
    for u in 0..data.n_users() {
        let u_row = artifact.user_emb.row(u);
        let mask = &artifact.masks[u];
        idx.probe(u_row, &artifact.item_emb, mask, 5, 6, &mut fast);
        idx.probe_rerank(u_row, &artifact.item_emb, mask, 5, 6, &mut slow);
        assert!(!slow.certified_skip());
        skips += fast.certified_skip() as usize;
        let rank = |s: &imcat_serve::ProbeScratch, top: &mut imcat_eval::TopKScratch| {
            imcat_eval::top_n_masked_with(s.scores(), s.mask(), 5, top)
                .iter()
                .map(|&ci| (s.candidates()[ci as usize], s.scores()[ci as usize].to_bits()))
                .collect::<Vec<_>>()
        };
        let got = rank(&fast, &mut top);
        let want = rank(&slow, &mut top);
        assert_eq!(got, want, "user {u}: skip path diverged from re-rank");
    }
    assert!(skips > 0, "no probe certified a skip on an engineered-easy catalog");
}

/// ANN serving is thread-count invariant: the whole pipeline (k-means,
/// list build, probe, exact re-rank) is bit-identical at 1 and 4 threads.
#[test]
fn ann_serving_bit_identical_across_thread_counts() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(39);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let fingerprint = |threads: usize| {
        with_threads(threads, || {
            let mut engine = Engine::new(artifact.clone(), ann_cfg(10, 3)).unwrap();
            let mut fp: Vec<(u32, u32)> = Vec::new();
            for u in 0..data.n_users() as u32 {
                for r in engine.recommend(u, 10).unwrap() {
                    fp.push((r.item, r.score.to_bits()));
                }
            }
            fp
        })
    };
    assert_eq!(fingerprint(1), fingerprint(4), "ANN serving depends on thread count");
}

fn hnsw_cfg(ef_search: usize) -> ServeConfig {
    ServeConfig {
        cache_capacity: 0,
        ann: Some(AnnConfig { kind: AnnKind::Hnsw, ef_search, ..AnnConfig::default() }),
    }
}

/// Acceptance criterion for the graph backend: at `ef_search >= n` the
/// HNSW path must reproduce brute force bit-identically — same items, same
/// order (ties included), same score bits — for every user and cutoff.
#[test]
fn hnsw_exhaustive_ef_is_bit_identical_to_brute_force() {
    let data = tiny_split(51);
    let model = trained_bprmf(&data);
    let mut artifact = model.export_artifact(&data).unwrap();
    // Inject exact duplicates so the comparison covers tie order too.
    let dup = artifact.item_emb.row(5).to_vec();
    for j in [9usize, 23, 41] {
        artifact.item_emb.row_mut(j).copy_from_slice(&dup);
    }
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut hnsw = Engine::new(artifact, hnsw_cfg(4096)).unwrap();
    for u in 0..data.n_users() as u32 {
        for k in [1, 7, 30] {
            let b = brute.recommend(u, k).unwrap();
            let a = hnsw.recommend(u, k).unwrap();
            assert_eq!(a.len(), b.len(), "user {u} k {k}: list lengths differ");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.item, y.item, "user {u} k {k}: item order differs");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "user {u} k {k}: score bits differ"
                );
            }
        }
    }
}

/// Lossy graph traversal trades recall, never correctness: every returned
/// score is the exact dot product, lists stay sorted, and recall against
/// brute force is high on this easy catalog.
#[test]
fn hnsw_partial_ef_scores_are_exact_and_recall_is_high() {
    let data = tiny_split(52);
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    for _ in 0..25 {
        model.train_epoch(&mut rng);
    }
    let artifact = model.export_artifact(&data).unwrap();
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut hnsw = Engine::new(artifact, hnsw_cfg(32)).unwrap();
    let k = 10;
    let mut hits = 0usize;
    let mut total = 0usize;
    for u in 0..data.n_users() as u32 {
        let exact = brute.recommend(u, k).unwrap();
        let approx = hnsw.recommend(u, k).unwrap();
        let scores = model.score_users(&[u]);
        for w in approx.windows(2) {
            assert!(w[0].score >= w[1].score, "user {u}: HNSW list not sorted");
        }
        for r in &approx {
            assert_eq!(
                r.score.to_bits(),
                scores.row(0)[r.item as usize].to_bits(),
                "user {u}: HNSW returned a non-exact score"
            );
        }
        let truth: Vec<u32> = exact.iter().map(|r| r.item).collect();
        hits += approx.iter().filter(|r| truth.contains(&r.item)).count();
        total += truth.len();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.6, "recall@10 {recall:.3} unexpectedly low at ef_search=32");
}

/// Cold users (all-zero embedding) and fully-masked users take the brute
/// fallback on the graph backend too.
#[test]
fn hnsw_cold_and_fully_masked_users_fall_back() {
    let data = tiny_split(53);
    let model = trained_bprmf(&data);
    let mut artifact = model.export_artifact(&data).unwrap();
    for x in artifact.user_emb.row_mut(0) {
        *x = 0.0;
    }
    let n_items = artifact.n_items() as u32;
    artifact.masks[1] = (0..n_items).collect();
    let mut brute =
        Engine::new(artifact.clone(), ServeConfig { cache_capacity: 0, ..Default::default() })
            .unwrap();
    let mut hnsw = Engine::new(artifact, hnsw_cfg(16)).unwrap();
    assert_eq!(hnsw.recommend(0, 10).unwrap(), brute.recommend(0, 10).unwrap());
    assert_eq!(hnsw.recommend(1, 10).unwrap(), vec![]);
    fallbacks_inside_a_tick_answer_like_brute_force(&mut hnsw, &mut brute);
}

/// Streaming contract: a cold item folded mid-stream is inserted into the
/// *live* graph (no rebuild), grows the backend's catalog, and at
/// exhaustive width the extended graph still matches brute force bitwise.
#[test]
fn hnsw_cold_items_enter_the_live_graph() {
    let data = tiny_split(54);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let n_before = artifact.n_items();
    let mut engine = Engine::new(artifact, hnsw_cfg(4096)).unwrap();
    let cold = engine.register_item();
    assert_eq!(cold as usize, n_before);
    // The unfolded item is registered but unreachable; probes must not see
    // it yet and requests must keep working.
    assert_eq!(engine.ann_backend().unwrap().n_items(), n_before);
    engine.recommend(0, 10).unwrap();
    // Warm evidence, then fold: the item gets a nonzero row and a live
    // graph insert.
    for u in 0..4u32 {
        engine.ingest(Interaction { user: u, item: cold }).unwrap();
    }
    engine.fold_pending();
    assert_eq!(engine.ann_backend().unwrap().n_items(), n_before + 1, "fold skipped the insert");
    let desc = engine.ann_descriptor().unwrap();
    assert_eq!(desc.kind, "hnsw");
    assert_eq!(desc.n_items, n_before + 1);
    // Post-fold parity: brute force over the grown artifact agrees bitwise.
    let mut brute = Engine::new(
        engine.artifact().clone(),
        ServeConfig { cache_capacity: 0, ..Default::default() },
    )
    .unwrap();
    for u in 0..engine.n_users() as u32 {
        assert_eq!(
            engine.recommend(u, 10).unwrap(),
            brute.recommend(u, 10).unwrap(),
            "user {u}: grown graph diverged from brute force"
        );
    }
}

/// HNSW serving is thread-count invariant end to end (build, traversal,
/// exact re-rank) at a lossy width.
#[test]
fn hnsw_serving_bit_identical_across_thread_counts() {
    let _guard = pool_lock().lock().unwrap();
    let data = tiny_split(55);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let fingerprint = |threads: usize| {
        with_threads(threads, || {
            let mut engine = Engine::new(artifact.clone(), hnsw_cfg(24)).unwrap();
            let mut fp: Vec<(u32, u32)> = Vec::new();
            for u in 0..data.n_users() as u32 {
                for r in engine.recommend(u, 10).unwrap() {
                    fp.push((r.item, r.score.to_bits()));
                }
            }
            fp
        })
    };
    assert_eq!(fingerprint(1), fingerprint(4), "HNSW serving depends on thread count");
}

/// The descriptor reports the active backend and its resolved parameters.
#[test]
fn ann_descriptor_reports_resolved_parameters() {
    let data = tiny_split(56);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let n = artifact.n_items();

    let plain = Engine::new(artifact.clone(), ServeConfig::default()).unwrap();
    assert!(plain.ann_descriptor().is_none(), "no ANN state must mean no descriptor");

    let ivf = Engine::new(artifact.clone(), ann_cfg(8, 3)).unwrap();
    let d = ivf.ann_descriptor().unwrap();
    assert_eq!((d.kind, d.n_items, d.nlist, d.nprobe), ("ivf", n, 8, 3));
    assert_eq!((d.m, d.ef_construction, d.ef_search), (0, 0, 0));

    let hnsw = Engine::new(artifact, hnsw_cfg(0)).unwrap();
    let d = hnsw.ann_descriptor().unwrap();
    let cfg = AnnConfig::for_kind(AnnKind::Hnsw);
    assert_eq!((d.kind, d.n_items), ("hnsw", n));
    assert_eq!(d.m, cfg.resolved_m(n));
    assert_eq!(d.ef_construction, cfg.resolved_ef_construction(n));
    assert_eq!(d.ef_search, cfg.resolved_ef_search(n));
    assert_eq!((d.nlist, d.nprobe), (0, 0));
}

/// The build itself is deterministic: two engines over the same artifact
/// serve identical lists under lossy configs (no hidden RNG, no
/// time-dependent state). Uses the fixed default build seed.
#[test]
fn engine_index_builds_are_reproducible() {
    let data = tiny_split(40);
    let model = trained_bprmf(&data);
    let artifact = model.export_artifact(&data).unwrap();
    let idx_a = Engine::new(artifact.clone(), ann_cfg(12, 2)).unwrap();
    let idx_b = Engine::new(artifact, ann_cfg(12, 2)).unwrap();
    let a = idx_a.ann_backend().unwrap();
    let b = idx_b.ann_backend().unwrap();
    let cfg = ann_cfg(12, 2).ann.unwrap();
    assert!(a.matches(&cfg, idx_a.n_items(), idx_a.artifact().dim(), DEFAULT_BUILD_SEED));
    let ser = |i: &dyn imcat_serve::AnnIndex| {
        let mut ck = Checkpoint::new();
        i.save_sections(&mut ck);
        ck.to_bytes()
    };
    assert_eq!(ser(a), ser(b), "two builds over the same artifact differ");
}
