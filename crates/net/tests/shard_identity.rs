//! Sharded-merge exactness: a [`ShardedEngine`] must be **bit-identical**
//! to one unsharded [`Engine`] — same items, same order, same score bits —
//! at every shard count and every `IMCAT_THREADS` setting, and it must
//! reject malformed requests with the same typed errors instead of ever
//! panicking.

use std::sync::{Mutex, OnceLock};

use imcat_ckpt::Artifact;
use imcat_data::{generate, SynthConfig};
use imcat_models::{Bprmf, RecModel, TrainConfig};
use imcat_net::ShardedEngine;
use imcat_serve::{
    AnnConfig, Engine, Interaction, Recommendation, ServeConfig, ServeError, ServeStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pool is process-global, so tests that reconfigure it must not
/// overlap.
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

/// One trained artifact shared by every test (60 users x 90 items).
fn artifact() -> &'static Artifact {
    static ART: OnceLock<Artifact> = OnceLock::new();
    ART.get_or_init(|| {
        let synth = generate(&SynthConfig::tiny(), 31);
        let mut rng = StdRng::seed_from_u64(31 ^ 0x5eed);
        let data = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
        let mut rng = StdRng::seed_from_u64(17);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        for _ in 0..3 {
            model.train_epoch(&mut rng);
        }
        model.export_artifact(&data).expect("bprmf exports an artifact")
    })
}

fn assert_bit_identical(got: &[Recommendation], want: &[Recommendation], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.item, w.item, "{ctx}: item diverged");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: score bits diverged");
    }
}

/// The acceptance gate: every user, several cutoffs (including one past the
/// catalog size), 1/2/4 shards x 1/4 threads, all against one unsharded
/// reference — ties and score bits included.
#[test]
fn sharded_merge_bit_identical_at_1_2_4_shards_and_1_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let cfg = ServeConfig::default();
    let n_users = art.n_users() as u32;
    let ks = [1usize, 7, art.n_items() + 5];

    let mut reference = Engine::new(art.clone(), cfg.clone()).unwrap();
    let mut expected = Vec::new();
    for u in 0..n_users {
        for &k in &ks {
            expected.push(reference.recommend(u, k).unwrap());
        }
    }

    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let got = with_threads(threads, || {
                let mut sharded = ShardedEngine::new(art, &cfg, shards).unwrap();
                let mut out = Vec::new();
                for u in 0..n_users {
                    for &k in &ks {
                        out.push(sharded.recommend(u, k).unwrap());
                    }
                }
                out
            });
            for (g, w) in got.iter().zip(&expected) {
                assert_bit_identical(g, w, &format!("shards={shards} threads={threads}"));
            }
        }
    }
}

/// `(served, cache_hits, cache_misses)` per replica.
fn footprint(sharded: &ShardedEngine) -> Vec<(u64, u64, u64)> {
    let of = |s: ServeStats| (s.served, s.cache_hits, s.cache_misses);
    sharded.shard_stats().into_iter().map(of).collect()
}

/// The hit lane's reader: silent until every replica holds the key, then
/// reader == batcher == unsharded, bit for bit, at 1/2/4 shards — and each
/// replica accounts the reader's hit as one of its own.
#[test]
fn reader_matches_batcher_and_unsharded_at_1_2_4_shards() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let cfg = ServeConfig::default();
    let ks = [1usize, 7, art.n_items() + 5];
    let mut reference = Engine::new(art.clone(), cfg.clone()).unwrap();
    for shards in [1usize, 2, 4] {
        let mut sharded = ShardedEngine::new(art, &cfg, shards).unwrap();
        let mut reader = sharded.reader();
        for u in 0..art.n_users() as u32 {
            for &k in &ks {
                let ctx = format!("shards={shards} user={u} k={k}");
                assert!(reader.lookup(u, k).is_none(), "{ctx}: a hit before any answer");
                let batcher = sharded.recommend(u, k).unwrap();
                let read = reader.lookup(u, k).expect("every replica holds the key now");
                assert_bit_identical(&read, &batcher, &ctx);
                assert_bit_identical(&read, &reference.recommend(u, k).unwrap(), &ctx);
            }
        }
        // Per key and replica: the batcher's miss and the reader's hit. The
        // lookups that found nothing, and these two that never can, count
        // nowhere.
        assert!(reader.lookup(0, 0).is_none() && reader.lookup(u32::MAX, 7).is_none());
        let keys = (art.n_users() * ks.len()) as u64;
        assert_eq!(footprint(&sharded), vec![(2 * keys, keys, keys); shards], "shards={shards}");
    }
}

/// A partial hit — the ingest removed the owning replica's entry, the others
/// still hold theirs — is no hit: the reader stays silent and leaves no
/// footprint, the batcher answers (a hit on the replicas that kept the list,
/// a miss on the owner), and every replica has counted the request once.
#[test]
fn a_partial_hit_falls_through_and_is_counted_once() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let cfg = ServeConfig::default();
    for shards in [1usize, 2, 4] {
        let mut reference = Engine::new(art.clone(), cfg.clone()).unwrap();
        let mut sharded = ShardedEngine::new(art, &cfg, shards).unwrap();
        let mut reader = sharded.reader();
        let (user, k) = (5u32, 10usize);
        let top = sharded.recommend(user, k).unwrap()[0].item;
        assert!(reader.lookup(user, k).is_some());
        assert_eq!(footprint(&sharded), vec![(2, 1, 1); shards]);

        sharded.ingest(Interaction { user, item: top }).unwrap();
        reference.ingest(Interaction { user, item: top }).unwrap();
        let before = footprint(&sharded);
        assert!(reader.lookup(user, k).is_none(), "shards={shards}: a partial hit was answered");
        assert_eq!(footprint(&sharded), before, "shards={shards}: a failed lookup left a mark");

        let ctx = format!("shards={shards} after ingest");
        let batcher = sharded.recommend(user, k).unwrap();
        assert!(batcher.iter().all(|r| r.item != top), "{ctx}: {top} still served");
        assert_bit_identical(&batcher, &reference.recommend(user, k).unwrap(), &ctx);
        let after = footprint(&sharded);
        let owner = after.iter().position(|s| s.2 == 2).expect("the owner recomputed");
        for (s, (now, was)) in after.iter().zip(&before).enumerate() {
            let (hit, miss) = if s == owner { (0, 1) } else { (1, 0) };
            assert_eq!((now.0 - was.0, now.1 - was.1, now.2 - was.2), (1, hit, miss), "{ctx}");
        }
        assert_bit_identical(&reader.lookup(user, k).expect("whole again"), &batcher, &ctx);
    }
}

/// With per-shard IVF lists probed exhaustively (`nprobe == nlist`), the
/// sharded ANN path must still reproduce the unsharded *brute-force*
/// answer bit-for-bit: the probe is exact, the merge is exact.
#[test]
fn sharded_exhaustive_ann_probe_matches_unsharded_brute_force() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let brute = ServeConfig::default();
    let ann = ServeConfig {
        ann: Some(AnnConfig { nlist: 4, nprobe: 4, quantized: false, ..AnnConfig::default() }),
        ..Default::default()
    };
    let mut reference = Engine::new(art.clone(), brute).unwrap();
    for shards in [2usize, 4] {
        let mut sharded = ShardedEngine::new(art, &ann, shards).unwrap();
        for u in 0..art.n_users() as u32 {
            let got = sharded.recommend(u, 10).unwrap();
            let want = reference.recommend(u, 10).unwrap();
            assert_bit_identical(&got, &want, &format!("ann shards={shards} user={u}"));
        }
    }
}

/// The graph backend under the same gate: per-shard HNSW graphs probed at
/// exhaustive width (`ef_search >= n`) reproduce the unsharded brute-force
/// answer bit-for-bit at every shard count and thread count, and the
/// front-end surfaces one "hnsw" descriptor per shard.
#[test]
fn sharded_exhaustive_hnsw_probe_matches_unsharded_brute_force() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let ann = ServeConfig {
        ann: Some(AnnConfig {
            kind: imcat_serve::AnnKind::Hnsw,
            ef_search: 4096,
            ..AnnConfig::default()
        }),
        ..Default::default()
    };
    let mut reference = Engine::new(art.clone(), ServeConfig::default()).unwrap();
    for shards in [2usize, 4] {
        for threads in [1usize, 4] {
            with_threads(threads, || {
                let mut sharded = ShardedEngine::new(art, &ann, shards).unwrap();
                for d in sharded.ann_descriptors() {
                    assert_eq!(d.expect("descriptor per shard").kind, "hnsw");
                }
                for u in 0..art.n_users() as u32 {
                    let got = sharded.recommend(u, 10).unwrap();
                    let want = reference.recommend(u, 10).unwrap();
                    assert_bit_identical(
                        &got,
                        &want,
                        &format!("hnsw shards={shards} threads={threads} user={u}"),
                    );
                }
            });
        }
    }
}

/// Malformed requests are typed rejections on the sharded path too, and a
/// poisoned tick leaves the valid slots untouched.
#[test]
fn sharded_rejects_malformed_requests_without_panicking() {
    let _guard = pool_lock().lock().unwrap();
    let art = artifact();
    let cfg = ServeConfig::default();
    let n = art.n_users() as u32;
    let mut sharded = ShardedEngine::new(art, &cfg, 3).unwrap();
    assert_eq!(sharded.recommend(n, 5), Err(ServeError::UserOutOfRange { user: n, n_users: n }));
    assert_eq!(
        sharded.recommend(u32::MAX, 5),
        Err(ServeError::UserOutOfRange { user: u32::MAX, n_users: n })
    );
    assert_eq!(sharded.recommend(0, 0), Err(ServeError::ZeroK));

    let tick = sharded.recommend_batch(&[(0, 5), (n, 5), (1, 0), (2, 5)]);
    assert_eq!(tick[1], Err(ServeError::UserOutOfRange { user: n, n_users: n }));
    assert_eq!(tick[2], Err(ServeError::ZeroK));
    let mut reference = Engine::new(art.clone(), cfg).unwrap();
    assert_bit_identical(tick[0].as_ref().unwrap(), &reference.recommend(0, 5).unwrap(), "slot 0");
    assert_bit_identical(tick[3].as_ref().unwrap(), &reference.recommend(2, 5).unwrap(), "slot 3");
}

/// Shard counts outside `[1, n_items]` are input errors, not panics.
#[test]
fn invalid_shard_counts_are_errors() {
    let art = artifact();
    let cfg = ServeConfig::default();
    assert!(ShardedEngine::new(art, &cfg, 0).is_err());
    assert!(ShardedEngine::new(art, &cfg, art.n_items() + 1).is_err());
    // One shard per item is legal, if absurd.
    assert!(ShardedEngine::new(art, &cfg, art.n_items()).is_ok());
}

proptest! {
    /// Arbitrary `(user, k)` mixes — stale ids past the user range and
    /// zero cutoffs included — never panic, and every slot (answers *and*
    /// rejections) matches the unsharded engine exactly.
    #[test]
    fn batched_requests_never_panic_and_match_unsharded(
        requests in proptest::collection::vec((0u32..150, 0usize..40), 0..48),
        shards in 1usize..5,
    ) {
        let _guard = pool_lock().lock().unwrap();
        let art = artifact();
        let cfg = ServeConfig::default();
        let mut sharded = ShardedEngine::new(art, &cfg, shards).unwrap();
        let mut single = Engine::new(art.clone(), cfg).unwrap();
        let tick = sharded.recommend_batch(&requests);
        prop_assert_eq!(tick.len(), requests.len());
        for (out, &(u, k)) in tick.iter().zip(&requests) {
            match (out, single.recommend(u, k)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.item, w.item);
                        prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                    }
                }
                (Err(got), Err(want)) => prop_assert_eq!(*got, want),
                _ => prop_assert!(false, "sharded and unsharded disagree on request validity"),
            }
        }
    }
}
