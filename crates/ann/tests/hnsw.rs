//! HNSW contract tests: bit-identical builds across thread counts,
//! incremental inserts equal to a batch rebuild, brute-force parity at
//! exhaustive search width, exact probe scores at lossy widths, and
//! all-or-nothing persistence of the `ann.hnsw.*` sections.

use std::sync::{Mutex, OnceLock};

use imcat_ann::hnsw::{SEC_HNSW_LEVELS, SEC_HNSW_LINKS, SEC_HNSW_META};
use imcat_ann::{
    AnnConfig, AnnIndex, AnnKind, BruteIndex, HnswIndex, ProbeScratch, DEFAULT_BUILD_SEED,
};
use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_tensor::{normal, Tensor};
use proptest::prelude::*;
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

fn hnsw_cfg(m: usize, efc: usize, efs: usize) -> AnnConfig {
    AnnConfig {
        kind: AnnKind::Hnsw,
        m,
        ef_construction: efc,
        ef_search: efs,
        ..AnnConfig::default()
    }
}

fn serialize(idx: &HnswIndex) -> Vec<u8> {
    let mut ck = Checkpoint::new();
    idx.add_to_checkpoint(&mut ck);
    ck.to_bytes()
}

/// Probe fingerprint: compact candidate ids, score bits, remapped mask.
fn fingerprint(scratch: &ProbeScratch) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    (
        scratch.candidates().to_vec(),
        scratch.scores().iter().map(|s| s.to_bits()).collect(),
        scratch.mask().to_vec(),
    )
}

/// The graph build is serial by design, so the serialized index — vectors,
/// levels, adjacency, entry point — must be byte-for-byte identical at any
/// pool width; only the exact re-rank fans out.
#[test]
fn hnsw_build_bit_identical_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let items = normal(400, 12, 1.0, &mut rng);
    let cfg = hnsw_cfg(8, 32, 0);
    let bytes = |threads| {
        with_threads(threads, || {
            let idx = HnswIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
            serialize(&idx)
        })
    };
    assert_eq!(bytes(1), bytes(4), "serialized HNSW graph differs across thread counts");
}

#[test]
fn hnsw_probe_bit_identical_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let items = normal(500, 8, 1.0, &mut rng);
    let queries = normal(6, 8, 1.0, &mut rng);
    let cfg = hnsw_cfg(8, 32, 0);
    let mask: Vec<u32> = vec![3, 17, 250, 499];
    let run = |threads: usize| {
        with_threads(threads, || {
            let idx = HnswIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
            let mut scratch = ProbeScratch::default();
            let mut fp = Vec::new();
            for q in 0..queries.rows() {
                // One lossy width, one exhaustive (brute bypass) width.
                for ef in [24usize, 500] {
                    idx.probe(queries.row(q), &items, &mask, 10, ef, &mut scratch);
                    fp.push(fingerprint(&scratch));
                }
            }
            fp
        })
    };
    assert_eq!(run(1), run(4), "HNSW probe output depends on the thread count");
}

/// Streaming contract: growing a prefix graph by `insert` must land on the
/// same graph bytes as one batch build over the full catalog — levels are a
/// pure function of `(seed, id, m)` and the link path is identical. The
/// max-norm row sits in the prefix so the frozen `phi2` matches the batch
/// build's.
#[test]
fn incremental_inserts_equal_batch_build() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut items = normal(120, 6, 1.0, &mut rng);
    // Pin the norm ceiling to row 0, inside every prefix.
    for x in items.row_mut(0) {
        *x *= 10.0;
    }
    let cfg = hnsw_cfg(6, 24, 0);
    let batch = HnswIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
    for split in [1usize, 60, 119] {
        let prefix = Tensor::from_vec(split, 6, items.as_slice()[..split * 6].to_vec());
        let mut grown = HnswIndex::build(&prefix, &cfg, DEFAULT_BUILD_SEED);
        for id in split..items.rows() {
            grown.insert(id as u32, &items).unwrap();
        }
        assert_eq!(
            serialize(&grown),
            serialize(&batch),
            "prefix {split} + inserts differs from the batch build"
        );
    }
}

/// `items` with `row` appended.
fn grown_by(items: &Tensor, row: &[f32]) -> Tensor {
    let mut rows = items.as_slice().to_vec();
    rows.extend_from_slice(row);
    Tensor::from_vec(items.rows() + 1, row.len(), rows)
}

#[test]
fn insert_rejects_malformed_rows() {
    let mut rng = StdRng::seed_from_u64(22);
    let items = normal(20, 4, 1.0, &mut rng);
    let mut idx = HnswIndex::build(&items, &hnsw_cfg(4, 16, 0), DEFAULT_BUILD_SEED);
    let narrow = Tensor::from_vec(21, 2, vec![1.0; 42]);
    assert!(idx.insert(20, &narrow).is_err(), "dim mismatch accepted");
    assert!(idx.insert(25, &grown_by(&items, &[1.0; 4])).is_err(), "non-dense id accepted");
    assert!(idx.insert(20, &items).is_err(), "id past the table accepted");
    assert!(idx.insert(20, &grown_by(&items, &[f32::NAN; 4])).is_err(), "nonfinite row accepted");
    assert_eq!(idx.n_items(), 20, "failed inserts must not grow the index");
    idx.insert(20, &grown_by(&items, &[0.5; 4])).unwrap();
    assert_eq!(idx.n_items(), 21);
}

/// The graph is checked against the table it will serve: a table of another
/// width, one with fewer rows than the graph has nodes, and one with a
/// nonfinite row under a node are each refused as invalid data. A table
/// that runs ahead of the graph (streaming) is served.
#[test]
fn load_refuses_a_table_the_graph_does_not_fit() {
    let mut rng = StdRng::seed_from_u64(24);
    let items = normal(40, 4, 1.0, &mut rng);
    let idx = HnswIndex::build(&items, &hnsw_cfg(4, 16, 0), DEFAULT_BUILD_SEED);
    let mut ck = Checkpoint::new();
    idx.add_to_checkpoint(&mut ck);
    let mut nan = items.clone();
    nan.row_mut(17)[2] = f32::NAN;
    let short = Tensor::from_vec(39, 4, items.as_slice()[..39 * 4].to_vec());
    for (table, what) in
        [(normal(40, 5, 1.0, &mut rng), "width"), (short, "rows"), (nan, "nonfinite row")]
    {
        let err = HnswIndex::from_checkpoint(&ck, &table).err().map(|e| e.kind());
        assert_eq!(err, Some(std::io::ErrorKind::InvalidData), "{what}: table accepted");
    }
    let ahead = grown_by(&items, &[0.25; 4]);
    let back = HnswIndex::from_checkpoint(&ck, &ahead).unwrap().expect("sections present");
    assert_eq!(serialize(&back), serialize(&idx));
}

/// Version 1 carried the index's own copy of the vectors (`ann.hnsw.vecs`).
/// Such a container decodes to a typed error, and `open_index` counts it
/// rejected, rebuilds the graph a fresh build makes, and persists it back as
/// version 2 without the vector section.
#[test]
fn a_version_1_container_is_refused_and_rebuilt() {
    let mut rng = StdRng::seed_from_u64(25);
    let items = normal(50, 4, 1.0, &mut rng);
    let cfg = hnsw_cfg(4, 16, 0);
    let fresh = HnswIndex::build(&items, &cfg, DEFAULT_BUILD_SEED);
    let mut ck = Checkpoint::new();
    fresh.add_to_checkpoint(&mut ck);
    let mut meta = ck.get(SEC_HNSW_META).unwrap().to_vec();
    meta[..4].copy_from_slice(&1u32.to_le_bytes());
    ck.insert(SEC_HNSW_META, meta);
    let mut vecs = Encoder::new();
    vecs.put_tensor(&items);
    ck.insert("ann.hnsw.vecs", vecs.into_bytes());
    let err = HnswIndex::from_checkpoint(&ck, &items).expect_err("version 1 accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 1"), "{err}");

    let dir = std::env::temp_dir().join(format!("imcat-hnsw-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("v1.imck");
    ck.save(&path).unwrap();
    let _obs = imcat_obs::exclusive(true);
    let opened = cfg.open_index(&mut ck, &path, &items, DEFAULT_BUILD_SEED);
    let snap = imcat_obs::snapshot();
    assert_eq!((snap.counter("ann.index.rejected"), snap.counter("ann.index.rebuilds")), (1, 1));
    let mut rebuilt = Checkpoint::new();
    opened.save_sections(&mut rebuilt);
    let mut want = Checkpoint::new();
    fresh.add_to_checkpoint(&mut want);
    assert_eq!(rebuilt.to_bytes(), want.to_bytes(), "the rebuild is not a fresh build");
    let saved = Checkpoint::load(&path).unwrap();
    assert!(HnswIndex::from_checkpoint(&saved, &items).unwrap().is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// A handful of items made bitwise duplicates: at exhaustive width the
/// probe must reproduce brute force's tie order exactly (the heuristic
/// keeps zero-distance neighbors, so duplicates stay reachable — but the
/// acceptance bar is the ef >= n bypass, checked here).
#[test]
fn duplicate_rows_tie_order_matches_brute() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut items = normal(64, 5, 1.0, &mut rng);
    let dup = items.row(7).to_vec();
    for j in [11usize, 30, 55] {
        items.row_mut(j).copy_from_slice(&dup);
    }
    let hnsw = HnswIndex::build(&items, &hnsw_cfg(4, 16, 0), DEFAULT_BUILD_SEED);
    let brute = BruteIndex::build(&items, DEFAULT_BUILD_SEED);
    let query = items.row(7).to_vec();
    let mut a = ProbeScratch::default();
    let mut b = ProbeScratch::default();
    hnsw.probe(&query, &items, &[], 64, 64, &mut a);
    brute.probe(&query, &items, &[], 64, 64, &mut b);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// A finite-valued item matrix drawn from raw bits.
fn finite_items(rows: usize, cols: usize, gen: &mut Gen) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                let raw = f32::from_bits(gen.next_u64() as u32);
                if raw.is_finite() {
                    raw.clamp(-1e30, 1e30)
                } else {
                    gen.below(1000) as f32
                }
            })
            .collect(),
    )
}

fn arbitrary_index(seed: u64) -> (HnswIndex, Tensor) {
    let mut gen = Gen::new(seed);
    let n_items = 2 + gen.below(60) as usize;
    let d = 1 + gen.below(6) as usize;
    let items = finite_items(n_items, d, &mut gen);
    let cfg = hnsw_cfg(2 + gen.below(8) as usize, 8 + gen.below(24) as usize, 0);
    (HnswIndex::build(&items, &cfg, seed ^ 0xa11), items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Acceptance criterion: at `ef_search >= n` the probe is bit-identical
    /// to [`BruteIndex`] — same compact candidates (`0..n`), same score
    /// bits, same remapped mask — for arbitrary finite catalogs and masks.
    #[test]
    fn exhaustive_width_equals_brute_bitwise(seed in 0u64..1_000_000) {
        let (idx, items) = arbitrary_index(seed);
        let brute = BruteIndex::build(&items, DEFAULT_BUILD_SEED);
        let mut gen = Gen::new(seed ^ 0x9e3);
        let query: Vec<f32> =
            (0..items.cols()).map(|_| gen.below(2001) as f32 / 1000.0 - 1.0).collect();
        let mut mask: Vec<u32> = (0..items.rows() as u32)
            .filter(|_| gen.below(4) == 0)
            .collect();
        mask.dedup();
        let mut a = ProbeScratch::default();
        let mut b = ProbeScratch::default();
        let k = 1 + gen.below(12) as usize;
        idx.probe(&query, &items, &mask, k, items.rows(), &mut a);
        brute.probe(&query, &items, &mask, k, items.rows(), &mut b);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// At *any* (lossy) width, returned candidates are sorted ascending,
    /// deduplicated, and every score is bit-identical to the exact dot
    /// product — recall is the only quality axis.
    #[test]
    fn lossy_probe_scores_are_exact(seed in 0u64..1_000_000) {
        let (idx, items) = arbitrary_index(seed);
        let mut gen = Gen::new(seed ^ 0x517);
        let query: Vec<f32> =
            (0..items.cols()).map(|_| gen.below(2001) as f32 / 1000.0 - 1.0).collect();
        let ef = 1 + gen.below(items.rows() as u64) as usize;
        let mut scratch = ProbeScratch::default();
        idx.probe(&query, &items, &[], 5, ef, &mut scratch);
        prop_assert!(!scratch.candidates().is_empty(), "probe found nothing");
        for w in scratch.candidates().windows(2) {
            prop_assert!(w[0] < w[1], "candidates not strictly ascending");
        }
        for (ci, &id) in scratch.candidates().iter().enumerate() {
            let exact = imcat_simd::dot(&query, items.row(id as usize));
            prop_assert_eq!(
                scratch.scores()[ci].to_bits(),
                exact.to_bits(),
                "candidate {} score differs from brute force",
                id
            );
        }
    }

    /// Arbitrary graphs survive the container roundtrip bit-exactly, and the
    /// graph loaded over its table probes exactly like the one built over it
    /// (the tails it recomputes are the build's).
    #[test]
    fn roundtrip_is_bit_exact(seed in 0u64..1_000_000) {
        let (idx, items) = arbitrary_index(seed);
        let bytes = serialize(&idx);
        let ck = Checkpoint::from_bytes(&bytes).unwrap();
        let back = HnswIndex::from_checkpoint(&ck, &items).unwrap().expect("sections present");
        prop_assert_eq!(serialize(&back), bytes);
        let mut gen = Gen::new(seed ^ 0x70b);
        let query: Vec<f32> =
            (0..items.cols()).map(|_| gen.below(2001) as f32 / 1000.0 - 1.0).collect();
        let (mut a, mut b) = (ProbeScratch::default(), ProbeScratch::default());
        let ef = 1 + gen.below(items.rows() as u64) as usize;
        idx.probe(&query, &items, &[], 5, ef, &mut a);
        back.probe(&query, &items, &[], 5, ef, &mut b);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(back.m(), idx.m());
        prop_assert_eq!(back.ef_construction(), idx.ef_construction());
    }

    /// A container with no `ann.hnsw.*` sections is "no index", not an error.
    #[test]
    fn absent_sections_decode_to_none(seed in 0u64..1_000_000) {
        let mut ck = Checkpoint::new();
        ck.insert("unrelated", vec![seed as u8]);
        let items = Tensor::zeros(0, 1);
        prop_assert!(HnswIndex::from_checkpoint(&ck, &items).unwrap().is_none());
    }

    /// Any strict truncation and any single-byte corruption of a
    /// graph-bearing container is rejected at the container layer.
    #[test]
    fn truncation_and_corruption_are_rejected(seed in 0u64..1_000_000) {
        let (idx, _) = arbitrary_index(seed);
        let bytes = serialize(&idx);
        let mut gen = Gen::new(seed ^ 0xfeed);

        let cut = gen.below(bytes.len() as u64) as usize;
        prop_assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "truncation at {} accepted", cut);

        let mut flipped = bytes.clone();
        let at = gen.below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 + gen.below(255) as u8;
        prop_assert!(Checkpoint::from_bytes(&flipped).is_err(), "byte flip at {} accepted", at);
    }

    /// Structurally valid sections whose *content* breaks the graph
    /// invariants decode as errors, never a partial index: a level bump
    /// desyncs the per-node adjacency, a truncated link stream is caught,
    /// and a wrong version is refused outright.
    #[test]
    fn semantic_corruption_is_rejected(seed in 0u64..1_000_000) {
        let (idx, items) = arbitrary_index(seed);

        // Bump a node's level: its adjacency no longer covers level+1 lists.
        let mut ck = Checkpoint::new();
        idx.add_to_checkpoint(&mut ck);
        let mut d = Decoder::new(ck.get(SEC_HNSW_LEVELS).unwrap());
        let mut levels = d.u32s().unwrap();
        levels[0] += 1;
        let mut e = Encoder::new();
        e.put_u32s(&levels);
        ck.insert(SEC_HNSW_LEVELS, e.into_bytes());
        prop_assert!(HnswIndex::from_checkpoint(&ck, &items).is_err(), "level desync accepted");

        // Drop the tail of the adjacency stream.
        let mut ck = Checkpoint::new();
        idx.add_to_checkpoint(&mut ck);
        let mut d = Decoder::new(ck.get(SEC_HNSW_LINKS).unwrap());
        let links = d.u32s().unwrap();
        let mut e = Encoder::new();
        e.put_u32s(&links[..links.len() - 1]);
        ck.insert(SEC_HNSW_LINKS, e.into_bytes());
        prop_assert!(HnswIndex::from_checkpoint(&ck, &items).is_err(), "truncated adjacency accepted");

        // Flip the version tag in the meta header.
        let mut ck = Checkpoint::new();
        idx.add_to_checkpoint(&mut ck);
        let mut meta = ck.get(SEC_HNSW_META).unwrap().to_vec();
        meta[0] ^= 0xff;
        ck.insert(SEC_HNSW_META, meta);
        prop_assert!(HnswIndex::from_checkpoint(&ck, &items).is_err(), "wrong version accepted");

        // A degree bound outside `[2, 128]`: one past the `resolved_m` clamp,
        // one that would size a vast adjacency, one whose `2 * m` overflows.
        // The meta header is a u32 version, a u64 seed, then `m` and
        // `ef_construction` as u64s; the beam is raised with the bound, so
        // the `ef_construction >= m` check cannot be what rejects it.
        for bad_m in [129u64, 1 << 62, (1 << 63) + 1] {
            let mut ck = Checkpoint::new();
            idx.add_to_checkpoint(&mut ck);
            let mut meta = ck.get(SEC_HNSW_META).unwrap().to_vec();
            meta[12..20].copy_from_slice(&bad_m.to_le_bytes());
            meta[20..28].copy_from_slice(&bad_m.to_le_bytes());
            ck.insert(SEC_HNSW_META, meta);
            let err = HnswIndex::from_checkpoint(&ck, &items).err();
            prop_assert_eq!(
                err.map(|e| e.kind()),
                Some(std::io::ErrorKind::InvalidData),
                "m = {} not rejected as invalid data",
                bad_m
            );
        }
    }
}
