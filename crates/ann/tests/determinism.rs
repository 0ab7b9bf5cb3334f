//! Thread-count invariance: the shared k-means, the IVF index build, and the
//! probe path must all be bit-identical at `IMCAT_THREADS` 1 and 4 — the
//! same discipline every other parallel hot path in the workspace follows.

use std::sync::{Mutex, OnceLock};

use imcat_ann::hnsw::{SEC_HNSW_LEVELS, SEC_HNSW_LINKS};
use imcat_ann::{
    kmeans_centers, AnnConfig, AnnKind, HnswIndex, IvfIndex, ProbeScratch, DEFAULT_BUILD_SEED,
};
use imcat_ckpt::{fnv1a64, Checkpoint};
use imcat_simd::Backend;
use imcat_tensor::{normal, Tensor};
use proptest::prelude::Gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn kmeans_centroids_bit_identical_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let data = normal(300, 16, 1.0, &mut rng);
    let run = |threads| {
        with_threads(threads, || {
            let mut r = StdRng::seed_from_u64(42);
            kmeans_centers(&data, 12, 8, &mut r)
        })
    };
    let serial = run(1);
    let parallel = run(4);
    let a: Vec<u32> = serial.as_slice().iter().map(|x| x.to_bits()).collect();
    let b: Vec<u32> = parallel.as_slice().iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b, "k-means centroids depend on the thread count");
}

/// Builds at both thread counts and compares the *serialized* indices, which
/// covers centroids, offsets, entries, and the quantization arrays in one
/// byte-for-byte comparison.
#[test]
fn ivf_index_build_bit_identical_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let items = normal(400, 12, 1.0, &mut rng);
    for quantized in [false, true] {
        let cfg = AnnConfig { nlist: 24, nprobe: 6, quantized, ..AnnConfig::default() };
        let bytes = |threads| {
            with_threads(threads, || {
                let idx = IvfIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
                let mut ck = Checkpoint::new();
                idx.add_to_checkpoint(&mut ck);
                ck.to_bytes()
            })
        };
        assert_eq!(
            bytes(1),
            bytes(4),
            "serialized index differs across thread counts (quantized={quantized})"
        );
    }
}

#[test]
fn probe_results_bit_identical_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let items = normal(500, 8, 1.0, &mut rng);
    let queries = normal(6, 8, 1.0, &mut rng);
    let cfg = AnnConfig { nlist: 20, nprobe: 5, quantized: false, ..AnnConfig::default() };
    let mask: Vec<u32> = vec![3, 17, 250, 499];
    let run = |threads: usize| {
        with_threads(threads, || {
            let idx = IvfIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
            let mut scratch = ProbeScratch::default();
            let mut fp: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = Vec::new();
            for q in 0..queries.rows() {
                idx.probe(queries.row(q), &items, &mask, 10, cfg.nprobe, &mut scratch);
                fp.push((
                    scratch.candidates().to_vec(),
                    scratch.scores().iter().map(|s| s.to_bits()).collect(),
                    scratch.mask().to_vec(),
                ));
            }
            fp
        })
    };
    assert_eq!(run(1), run(4), "probe output depends on the thread count");
}

/// A matrix whose every value is a multiple of 1/64 in `[-2, 2]`, drawn from
/// an integer generator — no libm, so it is the same matrix on every machine
/// (`normal` goes through `ln`/`cos`), and everything the build does to it
/// (add, multiply, divide, `sqrt`) is correctly rounded.
fn dyadic(rows: usize, cols: usize, salt: u64) -> Tensor {
    let mut gen = Gen::new(salt);
    let data = (0..rows * cols).map(|_| gen.below(257) as f32 / 64.0 - 2.0).collect();
    Tensor::from_vec(rows, cols, data)
}

/// FNV-1a64 over the index's sections, concatenated in a fixed order.
fn index_fnv(idx: &IvfIndex) -> u64 {
    let mut ck = Checkpoint::new();
    idx.add_to_checkpoint(&mut ck);
    let mut bytes = Vec::new();
    for name in ["ann.meta", "ann.centroids", "ann.lists", "ann.codes"] {
        bytes.extend_from_slice(ck.get(name).unwrap_or_default());
    }
    fnv1a64(&bytes)
}

/// The index bytes are a format: a parent-built `ann.*` section must load
/// into this build without a rebuild, so `IvfIndex::build` may get faster but
/// never different. Hashes recorded at the commit before the assignment step
/// moved onto `imcat_simd::l2_sq_cols`; they hold at any thread count and
/// under either `IMCAT_SIMD` backend (CI runs this crate under both). A
/// mismatch means `ANN_VERSION` must be bumped — or, likelier, a bug.
#[test]
fn ivf_build_bytes_are_pinned() {
    let _guard = pool_lock().lock().unwrap();
    // More lists than one kernel block and not a multiple of it; then the
    // auto `nlist` (37) over an odd width with the int8 arrays included.
    let plain = (dyadic(600, 12, 1), AnnConfig { nlist: 40, ..AnnConfig::default() });
    let coded = (dyadic(350, 7, 2), AnnConfig { quantized: true, ..AnnConfig::default() });
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let idx = IvfIndex::build(&plain.0, &plain.1, DEFAULT_BUILD_SEED);
            assert_eq!(
                index_fnv(&idx),
                0x5e99_cf05_1a91_8385,
                "threads={threads}: unquantized build drifted"
            );
            let idx = IvfIndex::build(&coded.0, &coded.1, 0xfeed);
            assert_eq!(
                index_fnv(&idx),
                0xd8b5_4144_2237_681c,
                "threads={threads}: quantized build drifted"
            );
        });
    }
}

/// Like [`dyadic`], but multiples of 1/1000 in `[-1, 1]`: still the same
/// matrix on every machine, but sums of their squares round, so the two SIMD
/// backends' summation orders give different distance bits (over dyadic
/// values both are exact and would pin the same graph).
fn decimal(rows: usize, cols: usize, salt: u64) -> Tensor {
    let mut gen = Gen::new(salt);
    let data = (0..rows * cols).map(|_| gen.below(2001) as f32 / 1000.0 - 1.0).collect();
    Tensor::from_vec(rows, cols, data)
}

/// FNV-1a64 over the graph's structure sections, levels then links.
fn graph_fnv(idx: &HnswIndex) -> u64 {
    let mut ck = Checkpoint::new();
    idx.add_to_checkpoint(&mut ck);
    let mut bytes = Vec::new();
    for name in [SEC_HNSW_LEVELS, SEC_HNSW_LINKS] {
        bytes.extend_from_slice(ck.get(name).unwrap_or_default());
    }
    fnv1a64(&bytes)
}

/// Probes `idx` with a fixed query set at two lossy widths and returns the
/// FNV-1a64 of every probe's candidates and score bits, plus the `hops` and
/// `visited` totals the probes reported.
fn probe_pins(idx: &HnswIndex, items: &Tensor, salt: u64) -> (u64, u64, u64) {
    let queries = decimal(16, items.cols(), salt);
    let mut scratch = ProbeScratch::default();
    let mut bytes = Vec::new();
    let _obs = imcat_obs::exclusive(true);
    for q in 0..queries.rows() {
        for ef in [10usize, 40] {
            idx.probe(queries.row(q), items, &[], 10, ef, &mut scratch);
            for (&id, s) in scratch.candidates().iter().zip(scratch.scores()) {
                bytes.extend_from_slice(&id.to_le_bytes());
                bytes.extend_from_slice(&s.to_bits().to_le_bytes());
            }
        }
    }
    let snap = imcat_obs::snapshot();
    (fnv1a64(&bytes), snap.counter("ann.hnsw.hops"), snap.counter("ann.hnsw.visited"))
}

/// The graph bytes are a format too, and the traversal is part of what a
/// probe returns: a faster `HnswIndex` must build the same graph and walk it
/// the same way. Values recorded at the commit before the graph moved onto a
/// flat level-0 adjacency and `imcat_simd::l2_sq_gather`, once per SIMD
/// backend (graph distances and probe scores run on the process backend; the
/// graphs happen to agree here, the score bits do not), and re-recorded only
/// at a parent commit. `hops` and `visited` count frontier pops and distance
/// evaluations, so a traversal that offers the same nodes in another order
/// moves them even where the candidates survive. A small explicit `m` whose
/// level-0 lists overflow all the time, then the auto `m` (16 past 1024
/// items) over a width with whole 8-lane chunks and a tail.
///
/// The graph pin covers `ann.hnsw.levels` + `ann.hnsw.links` only: format
/// version 2 dropped the `ann.hnsw.vecs` section and changed the version word
/// in `ann.hnsw.meta`, so the pin over all four sections could not hold. The
/// two-section values were recorded at the version-1 commit, before the
/// graph stopped copying the vectors; the probe pins are unchanged.
#[test]
fn hnsw_graph_and_probes_are_pinned() {
    let _guard = pool_lock().lock().unwrap();
    let small = (
        decimal(300, 13, 4),
        AnnConfig { kind: AnnKind::Hnsw, m: 3, ef_construction: 12, ..AnnConfig::default() },
    );
    let auto = (decimal(1100, 20, 5), AnnConfig::for_kind(AnnKind::Hnsw));
    // (graph FNV, (probe FNV, hops, visited)) for `small`, then `auto`.
    let pins = match imcat_simd::backend() {
        Backend::Avx2 => [
            (0x6dec_f9fd_1b24_8968, (0x124d_e08f_f5c5_10a1, 1044, 2955)),
            (0x96da_9dfa_c996_a411, (0xc862_c8a5_5648_3882, 977, 12837)),
        ],
        Backend::Scalar => [
            (0x6dec_f9fd_1b24_8968, (0x041e_03e2_ecbc_b9e5, 1044, 2955)),
            (0x96da_9dfa_c996_a411, (0x5df4_dc93_1b7a_2b01, 977, 12837)),
        ],
    };
    for (((items, cfg), salt), (graph, probes)) in [small, auto].iter().zip([6, 7]).zip(pins) {
        for threads in [1usize, 4] {
            with_threads(threads, || {
                let idx = HnswIndex::build(items, cfg, DEFAULT_BUILD_SEED);
                let m = idx.m();
                assert_eq!(graph_fnv(&idx), graph, "m={m} threads={threads}: graph bytes drifted");
                assert_eq!(
                    probe_pins(&idx, items, salt),
                    probes,
                    "m={m} threads={threads}: probe output or traversal drifted"
                );
            });
        }
    }
}

/// Same pin for the shared k-means at the intent module's shape: a handful
/// of centres (fewer than one kernel block) over tag embeddings.
#[test]
fn kmeans_centres_are_pinned_at_irm_shape() {
    let _guard = pool_lock().lock().unwrap();
    let tags = dyadic(90, 16, 3);
    for threads in [1usize, 4] {
        let centres =
            with_threads(threads, || kmeans_centers(&tags, 4, 10, &mut StdRng::seed_from_u64(5)));
        let bytes: Vec<u8> = centres.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(fnv1a64(&bytes), 0x8122_db64_3fa0_a083, "threads={threads}: centres drifted");
    }
}
