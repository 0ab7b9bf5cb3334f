//! Streaming ingestion contracts:
//!
//! * interleaved ingest/registration/fold traffic never perturbs an
//!   untouched user's recommendations (bit-for-bit, ANN path included);
//! * the background log-replay rebuild is byte-identical to the same
//!   replay run offline — at 1 and 4 threads;
//! * the two-save generation swap is crash-safe: a loader between the
//!   stage and the commit sees the *old* generation, after the commit the
//!   new one — with requests answered while the worker runs, on IVF and on
//!   HNSW, and the ingest / rebuild / swap telemetry moving;
//! * cold users fold into useful embeddings (their interacted items'
//!   neighborhood ranks above the rest) under every retrieval backend;
//! * a fold tick evicts only the users it refolded (all lists when an item
//!   froze), and the log-length and generation gauges follow the state;
//! * the live artifact after each of a fixed stream's fold ticks is pinned
//!   by hash at 1 and 4 threads.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use imcat_ckpt::{fnv1a64, Checkpoint};
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_models::{Bprmf, RecModel, TrainConfig};
use imcat_serve::{
    rebuild_artifact, AnnConfig, AnnKind, Artifact, Engine, Interaction, ServeConfig,
};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn trained_artifact(seed: u64) -> Artifact {
    let data = tiny_split(seed);
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    for _ in 0..3 {
        model.train_epoch(&mut rng);
    }
    model.export_artifact(&data).unwrap()
}

fn lists_bits(recs: &[imcat_serve::Recommendation]) -> Vec<(u32, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// Property: whatever traffic other users generate — interactions, new
/// users joining and interacting, fold ticks — a user nobody touched gets
/// bit-identical recommendations throughout the generation.
#[test]
fn untouched_users_survive_interleaved_ingest_bitwise() {
    let _guard = pool_lock().lock().unwrap();
    let artifact = trained_artifact(41);
    let n_users = artifact.user_emb.rows() as u32;
    let n_items = artifact.item_emb.rows() as u32;
    let cfg = ServeConfig {
        cache_capacity: 64,
        ann: Some(AnnConfig { nlist: 8, nprobe: 4, ..AnnConfig::default() }),
    };
    let mut engine = Engine::new(artifact, cfg).unwrap();
    // First quarter of the trained users are the untouched controls.
    let controls: Vec<u32> = (0..n_users / 4).collect();
    let touched_lo = n_users / 4;
    let baseline: Vec<Vec<(u32, u32)>> =
        controls.iter().map(|&u| lists_bits(&engine.recommend(u, 10).unwrap())).collect();
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for round in 0..30 {
        match rng.gen_range(0..10u32) {
            0 => {
                let u = engine.register_user();
                assert!(u >= n_users);
            }
            1..=2 => {
                engine.fold_pending();
            }
            _ => {
                let hi = engine.n_users() as u32;
                let user = rng.gen_range(touched_lo..hi);
                let item = rng.gen_range(0..n_items);
                engine.ingest(Interaction { user, item }).unwrap();
            }
        }
        if round % 5 == 4 {
            for (i, &u) in controls.iter().enumerate() {
                let now = lists_bits(&engine.recommend(u, 10).unwrap());
                assert_eq!(now, baseline[i], "round {round}: untouched user {u} list changed");
            }
        }
    }
    engine.fold_pending();
    for (i, &u) in controls.iter().enumerate() {
        let now = lists_bits(&engine.recommend(u, 10).unwrap());
        assert_eq!(now, baseline[i], "untouched user {u} list changed after final fold");
    }
}

/// Drives one full streaming scenario against `engine` and returns the log
/// it generated. Deterministic in `seed`.
fn drive_stream(engine: &mut Engine, seed: u64) {
    let base_items = engine.n_items() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..120 {
        match rng.gen_range(0..12u32) {
            0 => {
                engine.register_user();
            }
            1 => {
                engine.register_item();
            }
            2..=3 => {
                engine.fold_pending();
            }
            _ => {
                let user = rng.gen_range(0..engine.n_users() as u32);
                let lo_bias = rng.gen_range(0..4u32);
                // Bias toward the trained catalog so cold items also get
                // evidence from warm users, but keep cold-cold pairs in.
                let item = if lo_bias == 0 && engine.n_items() as u32 > base_items {
                    rng.gen_range(base_items..engine.n_items() as u32)
                } else {
                    rng.gen_range(0..base_items)
                };
                engine.ingest(Interaction { user, item }).unwrap();
            }
        }
        if step % 40 == 39 {
            // Live traffic must keep flowing mid-stream.
            let u = rng.gen_range(0..engine.n_users() as u32);
            engine.recommend(u, 5).unwrap();
        }
    }
}

fn artifact_bytes(a: &Artifact) -> Vec<u8> {
    a.to_checkpoint().to_bytes()
}

/// Acceptance criterion: replaying the stream log offline through
/// `rebuild_artifact` produces a byte-identical artifact to the background
/// rebuild the engine commits — at 1 and at 4 threads, and identical
/// *across* the two thread counts.
#[test]
fn replay_rebuild_is_bit_identical_to_offline_build_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let run = |threads: usize| -> (Vec<u8>, Vec<u8>) {
        with_threads(threads, || {
            let artifact = trained_artifact(43);
            let base = artifact.clone();
            let cfg = ServeConfig {
                cache_capacity: 16,
                ann: Some(AnnConfig { nlist: 8, nprobe: 8, ..AnnConfig::default() }),
            };
            let mut engine = Engine::new(artifact, cfg).unwrap();
            drive_stream(&mut engine, 0xabcd);
            let log = engine.stream_log().to_vec();
            let offline = rebuild_artifact(&base, &log, &engine.fold_options()).unwrap();
            let task = engine.spawn_rebuild(None).unwrap();
            let gen_before = engine.generation();
            engine.commit_rebuild(task).unwrap();
            assert!(engine.generation() > gen_before, "commit did not bump the generation");
            assert!(engine.stream_log().is_empty(), "commit did not consume the log");
            (artifact_bytes(engine.artifact()), artifact_bytes(&offline))
        })
    };
    let (live_1, offline_1) = run(1);
    assert_eq!(live_1, offline_1, "1 thread: rebuild != offline replay");
    let (live_4, offline_4) = run(4);
    assert_eq!(live_4, offline_4, "4 threads: rebuild != offline replay");
    assert_eq!(live_1, live_4, "rebuild bytes differ across thread counts");
}

/// Crash-injection for the two-save generation swap: after the worker
/// stages the next generation (save #1) but before the engine commits
/// (save #2), a loader must recover the *old* generation, complete and
/// consistent. After the commit it must see the new one. Requests keep
/// succeeding throughout — on IVF lists and on a live HNSW graph alike — and
/// the stream leaves its trail in telemetry: every ingest, rebuild and swap
/// counter moves and the backend's probe histogram gains samples (deltas,
/// because the registry is process-global).
#[test]
fn generation_swap_is_crash_safe_between_stage_and_commit() {
    let _guard = pool_lock().lock().unwrap();
    let _obs = imcat_obs::exclusive(true);
    let backends = [
        (AnnConfig { nlist: 8, nprobe: 8, ..AnnConfig::default() }, "ann.probe.seconds"),
        (AnnConfig::for_kind(AnnKind::Hnsw), "ann.hnsw.probe.seconds"),
    ];
    for (ann, probe_hist) in backends {
        let kind = ann.kind.name();
        let dir =
            std::env::temp_dir().join(format!("imcat_stream_swap_{kind}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.imck");
        let artifact = trained_artifact(47);
        artifact.save(&path).unwrap();
        let cfg = ServeConfig { cache_capacity: 16, ann: Some(ann) };
        let before = imcat_obs::snapshot();
        let mut engine = Engine::load(&path, cfg.clone()).unwrap();
        let old_bytes = artifact_bytes(engine.artifact());
        drive_stream(&mut engine, 0x1337);
        let gen_before = engine.generation();
        let task = engine.spawn_rebuild(Some(path.clone())).unwrap();
        // Serving continues while the worker runs: a request counts once it
        // has been answered with the worker still going.
        let mut during_rebuild = 0u32;
        loop {
            engine.recommend(during_rebuild % engine.n_users() as u32, 5).unwrap();
            if task.is_finished() {
                break;
            }
            during_rebuild += 1;
        }
        assert!(during_rebuild > 0, "{kind}: no request was answered while the rebuild ran");
        // Crash point: staged but not committed. A fresh load recovers the old
        // generation bit-for-bit (the staged gen sections are simply ignored).
        {
            let recovered = Engine::load(&path, cfg.clone()).unwrap();
            assert_eq!(
                artifact_bytes(recovered.artifact()),
                old_bytes,
                "{kind}: loader between stage and commit did not recover the old generation"
            );
        }
        engine.commit_rebuild(task).unwrap();
        assert!(engine.generation() > gen_before, "{kind}: commit did not bump the generation");
        let new_bytes = artifact_bytes(engine.artifact());
        assert_ne!(new_bytes, old_bytes, "{kind}: a nonempty log should change the artifact");
        // After the commit the pointer names the new generation.
        {
            let ck = Checkpoint::load(&path).unwrap();
            let committed = ck.generation().unwrap();
            assert!(committed.is_some(), "{kind}: commit did not write a generation pointer");
            let recovered = Engine::load(&path, cfg).unwrap();
            assert_eq!(
                artifact_bytes(recovered.artifact()),
                new_bytes,
                "{kind}: loader after commit did not see the new generation"
            );
        }
        let after = imcat_obs::snapshot();
        for counter in [
            "ingest.events",
            "ingest.users",
            "ingest.folds",
            "serve.rebuilds",
            "serve.rebuild.commits",
            "serve.generation.swaps",
        ] {
            assert!(
                after.counter(counter) > before.counter(counter),
                "{kind}: {counter} did not move across the stream and the swap"
            );
        }
        assert!(
            after.hist_count(probe_hist) > before.hist_count(probe_hist),
            "{kind}: {probe_hist} gained no samples"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A cold user who interacts with a warm item neighborhood folds into an
/// embedding that ranks that neighborhood's remaining items highly — and
/// their own interacted items are masked out of their recommendations.
/// Whatever retrieves the candidates: the exact scan, IVF lists, an HNSW
/// graph.
#[test]
fn cold_user_fold_in_reaches_their_neighborhood() {
    let _guard = pool_lock().lock().unwrap();
    let hnsw = AnnConfig::for_kind(AnnKind::Hnsw);
    for ann in [None, Some(AnnConfig::default()), Some(hnsw)] {
        let kind = ann.map_or("exact", |a| a.kind.name());
        let artifact = trained_artifact(53);
        let cfg = ServeConfig { cache_capacity: 0, ann };
        let mut engine = Engine::new(artifact, cfg).unwrap();
        // Pick the warm user with the most training items; the cold user
        // mimics half their history.
        let donor =
            (0..engine.n_users()).max_by_key(|&u| engine.artifact().masks[u].len()).unwrap();
        let history: Vec<u32> = engine.artifact().masks[donor].clone();
        assert!(history.len() >= 4, "synthetic data gave no usable donor");
        let (seen, holdout) = history.split_at(history.len() / 2);
        let cold = engine.register_user();
        for &item in seen {
            engine.ingest(Interaction { user: cold, item }).unwrap();
        }
        engine.fold_pending();
        let emb: &[f32] = engine.artifact().user_emb.row(cold as usize);
        assert!(emb.iter().any(|&x| x != 0.0), "{kind}: fold-in left the cold user at zero");
        let recs = engine.recommend(cold, 10).unwrap();
        assert!(!recs.is_empty(), "{kind}: nothing recommended");
        for r in &recs {
            assert!(!seen.contains(&r.item), "{kind}: recommended an item already consumed");
        }
        // Recall@10 against the donor's holdout must beat zero: the fold-in
        // embedding points into the right neighborhood.
        let hits = recs.iter().filter(|r| holdout.contains(&r.item)).count();
        assert!(hits > 0, "{kind}: cold-user fold-in found none of the donor's holdout items");
    }
}

/// A fold tick evicts what it changed and nothing else: a cold user the
/// tick brought nothing keeps their cached list (a hit, no tick), a cold
/// user with new evidence is evicted and re-served from their new row, and
/// a finalized item still clears every list. The `ingest.log.len` gauge
/// follows the log at every tick and `generation.id` every swap; `fold.lag`
/// is the events each tick consumed and `generation.age` the seconds since
/// the engine was built or last swapped.
#[test]
fn fold_ticks_evict_only_users_with_new_evidence() {
    let _guard = pool_lock().lock().unwrap();
    let _obs = imcat_obs::exclusive(true);
    let counter = |name: &str| imcat_obs::snapshot().counter(name);
    let gauge = |name: &str| {
        let snap = imcat_obs::snapshot();
        snap.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    };
    let cfg = ServeConfig { cache_capacity: 16, ..Default::default() };
    let built = Instant::now();
    let mut engine = Engine::new(dyadic_artifact(6, 9, 6), cfg).unwrap();
    let reader = engine.cache_reader();
    let x = |user, item| Interaction { user, item };
    let (quiet, busy) = (engine.register_user(), engine.register_user());
    for i in [x(quiet, 1), x(quiet, 2), x(busy, 3)] {
        engine.ingest(i).unwrap();
    }
    assert_eq!(engine.fold_pending(), 2);
    assert_eq!(gauge("ingest.log.len"), Some(5.0));
    assert_eq!(gauge("fold.lag"), Some(5.0), "two registrations and three interactions");
    let age = gauge("generation.age").expect("the tick sets the generation age");
    assert!(age >= 0.0 && age <= built.elapsed().as_secs_f64(), "age {age}");
    let quiet_list = engine.recommend(quiet, 4).unwrap();
    let busy_list = engine.recommend(busy, 4).unwrap();

    // New evidence for `busy` and for a warm user only.
    engine.ingest(x(busy, 4)).unwrap();
    engine.ingest(x(0, 5)).unwrap();
    assert_eq!(engine.fold_pending(), 1, "only `busy` refolds");
    assert_eq!(gauge("ingest.log.len"), Some(7.0));
    assert_eq!(gauge("fold.lag"), Some(2.0));
    assert!(gauge("generation.age").unwrap() >= age, "the age went back within a generation");
    let (hits, ticks) = (counter("serve.cache.hits"), counter("serve.ticks"));
    assert_eq!(reader.lookup(quiet, 4), Some(quiet_list), "the quiet user's list was evicted");
    assert_eq!(counter("serve.cache.hits") - hits, 1);
    assert_eq!(counter("serve.ticks") - ticks, 0);
    assert_eq!(reader.lookup(busy, 4), None, "the refolded user's list survived their fold");
    let busy_now = engine.recommend(busy, 4).unwrap();
    let fresh =
        Engine::new(engine.artifact().clone(), ServeConfig::default()).unwrap().recommend(busy, 4);
    assert_eq!(lists_bits(&busy_now), lists_bits(&fresh.unwrap()), "not served from the new row");
    assert_ne!(lists_bits(&busy_now), lists_bits(&busy_list));

    // A registered item: a list ranked before its fold is stale after it.
    engine.register_item();
    engine.recommend(quiet, 4).unwrap();
    assert!(reader.lookup(quiet, 4).is_some());
    engine.fold_pending();
    assert_eq!(engine.cached_lists(), 0, "a finalized item left a list cached");
    assert_eq!(gauge("ingest.log.len"), Some(8.0));
    assert_eq!(gauge("fold.lag"), Some(1.0));

    assert_eq!(gauge("generation.id"), None, "no swap yet");
    let task = engine.spawn_rebuild(None).unwrap();
    let swapped = Instant::now();
    engine.commit_rebuild(task).unwrap();
    assert_eq!(gauge("generation.id"), Some(1.0));
    engine.fold_pending();
    assert_eq!(gauge("fold.lag"), Some(0.0), "the swap consumed the log");
    let age = gauge("generation.age").unwrap();
    assert!(age <= swapped.elapsed().as_secs_f64(), "age {age} predates the swap");
    engine.set_ann(None);
    assert_eq!(gauge("generation.id"), Some(engine.generation() as f64));
    assert_eq!(engine.generation(), 2);
    assert_eq!(gauge("ingest.log.len"), Some(0.0), "the swap consumed the log");
}

/// An untrained artifact whose every value is an exactly representable
/// dyadic rational: no libm, no RNG, identical on every machine.
fn dyadic_artifact(n_users: usize, n_items: usize, dim: usize) -> Artifact {
    let grid = |rows: usize, salt: usize| {
        let cell = |i: usize| ((i * 5 + salt * 3) % 13) as f32 * 0.125 - 0.75;
        Tensor::from_vec(rows, dim, (0..rows * dim).map(cell).collect())
    };
    let masks = (0..n_users)
        .map(|u| (0..n_items as u32).filter(|&i| (u + i as usize) % 4 == 1).collect())
        .collect();
    Artifact::new("dyadic", grid(n_users, 1), grid(n_items, 2), masks)
}

/// The live artifact after each tick of a fixed stream with seven
/// `fold_pending` ticks: a warm-only window, windows with and without
/// cold-user evidence, a cold item registered mid-stream, a cold item
/// frozen with no evidence, repeated interactions and an empty window.
/// Recorded at 1 and 4 threads before fold ticks became incremental.
#[test]
fn live_artifact_bytes_across_fold_ticks_are_pinned_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let pins: [u64; 7] = [
        0x36f0_bd60_a2ba_b08a,
        0x5846_6335_0087_d21b,
        0xed75_f913_3ad3_71c4,
        0x667c_97c8_5e5c_80d9,
        0xf424_7103_ee2b_494e,
        0xf92a_9d06_a0ac_5b58,
        0xf92a_9d06_a0ac_5b58,
    ];
    let x = |user, item| Interaction { user, item };
    for threads in [1usize, 4] {
        let got: Vec<u64> = with_threads(threads, || {
            let cfg =
                ServeConfig { cache_capacity: 8, ann: Some(AnnConfig::for_kind(AnnKind::Hnsw)) };
            let mut engine = Engine::new(dyadic_artifact(6, 9, 6), cfg).unwrap();
            let mut ticks = Vec::new();
            let mut tick = |engine: &mut Engine| {
                engine.fold_pending();
                ticks.push(fnv1a64(&artifact_bytes(engine.artifact())));
            };
            // 1: warm users only, one interaction repeated.
            for i in [x(0, 3), x(1, 4), x(0, 3)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 2: cold user 6 arrives with a repeated interaction.
            assert_eq!(engine.register_user(), 6);
            for i in [x(6, 1), x(6, 1), x(6, 5), x(2, 7)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 3: cold user 7 and cold item 9 mid-stream, with warm and cold
            // evidence for the item; user 6 gets nothing.
            assert_eq!(engine.register_user(), 7);
            engine.ingest(x(3, 2)).unwrap();
            assert_eq!(engine.register_item(), 9);
            for i in [x(2, 9), x(7, 9), x(7, 0), x(4, 9)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 4: cold users present, warm evidence only (one on item 9).
            for i in [x(5, 8), x(1, 9)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 5: item 10 freezes with no evidence; user 6 learns of item 9.
            assert_eq!(engine.register_item(), 10);
            for i in [x(6, 9), x(6, 1)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 6: evidence for the zero row of item 10, cold and warm.
            for i in [x(7, 10), x(0, 10)] {
                engine.ingest(i).unwrap();
            }
            tick(&mut engine);
            // 7: nothing happened since the last tick.
            tick(&mut engine);
            ticks
        });
        assert_eq!(got, pins, "threads={threads}: live artifact bytes drifted");
    }
}
