//! IVF-Flat index with exact re-rank.
//!
//! Top-K retrieval is *maximum inner product* search, and k-means is an L2
//! quantizer, so the index first applies the standard MIPS-to-L2 reduction
//! (Bachrach et al., 2014): each item `x` is augmented to
//! `[x, sqrt(Φ² − ‖x‖²)]` with `Φ = max_i ‖x_i‖`, and the query to
//! `[q, 0]`. In the augmented space
//! `‖q̃ − x̃‖² = ‖q‖² + Φ² − 2·(q·x)` — monotone decreasing in the inner
//! product — so nearest-centroid clustering and probe ranking are both
//! geometry-correct for dot-product scoring, norms included.
//!
//! The index partitions the augmented item matrix into `nlist` inverted
//! lists by nearest k-means centroid (the same shared k-means the intent
//! module uses, see [`crate::kmeans`]). A query probes the `nprobe`
//! centroids closest (augmented L2) to the user embedding, scans only their
//! lists, and scores every surviving candidate **exactly** with the same
//! sequential dot-product accumulation the brute-force path uses.
//! Candidates come back as a compact, ascending-id slice plus a remapped
//! mask, so the caller can re-rank through the evaluator's own
//! `top_n_masked_with` selection: when every item is a candidate
//! (`nprobe == nlist`) the compact arrays *are* the brute-force arrays and
//! the output is bit-identical, tie order included.
//!
//! An optional int8 scalar-quantized list storage (`AnnConfig::quantized`)
//! scans candidates through per-item-scaled i8 codes (4x smaller memory
//! traffic for memory-bound catalogs), shortlists by approximate score, and
//! then re-scores the shortlist from f32 — quantization can only affect
//! which candidates survive the shortlist, never the final ordering of the
//! returned list.
//!
//! ## Error-bounded int8 scoring
//!
//! Each quantized entry also persists a *unit error bound*: the maximum
//! per-coordinate dequantization error `max_d |x_d − scale·code_d|` plus a
//! float-summation slack (`8·d·ε·max|x|`) that dominates the rounding error
//! of both the int8 and the f32 dot products. Multiplying by the query's L1
//! norm bounds `|exact − approx|` for that entry. [`IvfIndex::probe`] uses
//! this to *certify* the top-K straight from int8 scores: when the ranked
//! approximate scores of the K winners are pairwise separated — and
//! separated from every remaining candidate — by more than the summed
//! bounds, the exact ranking provably equals the approximate one, and the
//! probe skips the shortlist re-rank, exact-scoring only the K winners (so
//! returned scores are still exact f32 bits). Any overlap — including every
//! exact-score tie, whose margin is zero — falls back to the full shortlist
//! re-rank, which is also available unconditionally as
//! [`IvfIndex::probe_rerank`]. The two paths return bit-identical results;
//! `ann_parity` and the quantization proptests assert it.

use std::io;

use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hnsw::M_RANGE;
use crate::index::{bad, check_insert, mips_tail, norm2};
use crate::kmeans::{assign_nearest, assign_tailed, kmeans_tailed};

/// Section holding the index geometry, build seed, and storage flavor.
pub const SEC_ANN_META: &str = "ann.meta";
/// Section holding the `[nlist, d+1]` coarse-quantizer centroids (trained
/// in the MIPS-augmented space, hence the extra column).
pub const SEC_ANN_CENTROIDS: &str = "ann.centroids";
/// Section holding the inverted lists (offsets + item-id entries).
pub const SEC_ANN_LISTS: &str = "ann.lists";
/// Section holding the optional int8 codes, per-item scales, and per-item
/// quantization-error bounds.
pub const SEC_ANN_CODES: &str = "ann.codes";

/// Index format version inside [`SEC_ANN_META`]. Version 2 added persisted
/// per-entry error bounds to [`SEC_ANN_CODES`]; version 3 added the frozen
/// MIPS-augmentation constant `Φ²` so streamed items can be inserted into
/// the lists with the same geometry the index was built under. Older
/// versions are rejected at decode (the engine then rebuilds and counts
/// `ann.index.rebuilds`).
const ANN_VERSION: u32 = 3;
/// Lloyd iterations used when training the coarse quantizer.
const BUILD_ITERS: usize = 10;
/// Candidates per parallel exact-scoring chunk.
const SCORE_GRAIN: usize = 256;
/// Default RNG seed for index builds: fixed so a rebuild from the same
/// embedding matrix is bit-identical across processes and machines.
pub const DEFAULT_BUILD_SEED: u64 = 0x1517_ACE5;

/// ANN retrieval configuration.
///
/// Every numeric field at `0` means "auto". For IVF: `nlist` defaults to
/// roughly `2·√n_items` (finer partitions than the classic `√n` rule, which
/// at these catalog scales buys a better recall/latency frontier), and
/// `nprobe` to `nlist / 8` — the knee of the measured recall/QPS frontier on
/// the largest synthetic catalog (recall@10 ≈ 0.97 at ≈ 5× brute-force QPS;
/// see EXPERIMENTS.md). Raise `nprobe` for recall, lower it for speed.
///
/// For HNSW ([`crate::index::AnnKind::Hnsw`]): `m` / `ef_construction` /
/// `ef_search` at `0` auto-tune from the catalog size (see the `resolved_*`
/// methods). `ef_search` is query-time only — sweeping it reuses one graph,
/// exactly like `nprobe` reuses one set of lists.
///
/// Every `resolved_*` method is a pure function of `(self, n_items)`: the
/// serving engine calls them on the request path, and whether a persisted
/// index [`crate::index::AnnIndex::matches`] must not depend on the
/// loader's environment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnnConfig {
    /// Which concrete backend to build (IVF-Flat by default; see
    /// [`crate::index::AnnKind`]).
    pub kind: crate::index::AnnKind,
    /// Number of inverted lists (0 = auto). IVF only.
    pub nlist: usize,
    /// Lists probed per query (0 = auto). Query-time only: sweeping `nprobe`
    /// reuses one index. IVF only.
    pub nprobe: usize,
    /// Store int8 scalar-quantized list codes and shortlist through them
    /// before the exact f32 re-rank. IVF only.
    pub quantized: bool,
    /// HNSW max neighbors per node per level (level 0 holds `2·m`); 0 =
    /// auto.
    pub m: usize,
    /// HNSW construction-time beam width; 0 = auto.
    pub ef_construction: usize,
    /// HNSW query-time beam width; 0 = auto. At `ef_search >= n_items` the
    /// probe is exhaustive and bit-identical to
    /// [`crate::index::BruteIndex`].
    pub ef_search: usize,
}

impl AnnConfig {
    /// The default configuration of one backend: every parameter auto, the
    /// IVF lists unquantized. What `imcat serve --ann <kind>` runs.
    pub fn for_kind(kind: crate::index::AnnKind) -> Self {
        Self { kind, ..Self::default() }
    }

    /// The list count this configuration resolves to for an `n_items`
    /// catalog (auto: `~2·√n_items`, clamped to `[1, n_items]`).
    pub fn resolved_nlist(&self, n_items: usize) -> usize {
        let raw = if self.nlist > 0 {
            self.nlist
        } else {
            (2.0 * (n_items.max(1) as f64).sqrt()).round() as usize
        };
        raw.clamp(1, n_items.max(1))
    }

    /// The probe count this configuration resolves to (auto: `nlist / 8`,
    /// minimum 1, clamped to the resolved `nlist`).
    pub fn resolved_nprobe(&self, n_items: usize) -> usize {
        let nlist = self.resolved_nlist(n_items);
        let raw = if self.nprobe > 0 { self.nprobe } else { (nlist / 8).max(1) };
        raw.clamp(1, nlist)
    }

    /// The HNSW degree bound this configuration resolves to: the explicit
    /// field, else auto (8 below ~1k items, 16 above — small catalogs don't
    /// earn dense graphs), clamped to `[2, 128]`.
    pub fn resolved_m(&self, n_items: usize) -> usize {
        let auto = if n_items < 1024 { 8 } else { 16 };
        (if self.m > 0 { self.m } else { auto }).clamp(*M_RANGE.start(), *M_RANGE.end())
    }

    /// The HNSW construction beam this configuration resolves to: the
    /// explicit field, else `8·m` (at the auto `m = 16` that is the
    /// conventional 128), never below `m`.
    pub fn resolved_ef_construction(&self, n_items: usize) -> usize {
        let m = self.resolved_m(n_items);
        (if self.ef_construction > 0 { self.ef_construction } else { 8 * m }).max(m)
    }

    /// The HNSW search beam this configuration resolves to: the explicit
    /// field, else `√n_items` clamped to `[48, 128]` — wide enough for
    /// recall@10 ≥ 0.95 on the measured frontier, far below the
    /// `nlist/8`-of-the-catalog an IVF probe scans. Values at or above
    /// `n_items` make the probe exhaustive (brute-force bit-identity), so
    /// tiny catalogs resolve to exact search.
    pub fn resolved_ef_search(&self, n_items: usize) -> usize {
        if self.ef_search > 0 {
            self.ef_search
        } else {
            ((n_items.max(1) as f64).sqrt().round() as usize).clamp(48, 128)
        }
    }

    /// The probe width the serving engine should pass to
    /// [`crate::index::AnnIndex::probe`] for this configuration's kind:
    /// `nprobe` for the list-based backends, `ef_search` for the graph.
    pub fn resolved_probe_width(&self, n_items: usize) -> usize {
        match self.kind {
            crate::index::AnnKind::Hnsw => self.resolved_ef_search(n_items),
            _ => self.resolved_nprobe(n_items),
        }
    }
}

/// Reusable probe buffers plus the compact result of the last probe. One
/// scratch per engine serializes per-query allocation away; reuse never
/// changes results (every buffer is fully overwritten per probe).
#[derive(Default)]
pub struct ProbeScratch {
    /// `(score, centroid)` ranking buffer.
    order: Vec<(f32, u32)>,
    /// Candidate item ids, ascending — the compact index space.
    cand: Vec<u32>,
    /// Entry positions aligned with `cand` while shortlisting (quantized).
    approx: Vec<(f32, u32, u32)>,
    /// Unmasked entries ranked by approximate score while attempting a
    /// certified skip (quantized).
    ranked: Vec<(f32, u32, u32)>,
    /// Exact scores aligned with `cand`.
    scores: Vec<f32>,
    /// The caller's mask remapped into compact candidate indices.
    mask: Vec<u32>,
    /// Whether the last probe certified its top-K from int8 scores and
    /// skipped the shortlist re-rank.
    certified: bool,
    /// Graph-traversal state for [`crate::hnsw::HnswIndex`] probes (visited
    /// bitset, frontier heaps); unused by the list-based backends.
    pub(crate) graph: crate::hnsw::GraphSearch,
}

impl ProbeScratch {
    /// Candidate item ids of the last probe, ascending.
    pub fn candidates(&self) -> &[u32] {
        &self.cand
    }

    /// Exact dot-product scores aligned with [`ProbeScratch::candidates`].
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// The query mask remapped to compact candidate indices (ascending).
    pub fn mask(&self) -> &[u32] {
        &self.mask
    }

    /// True when the last probe certified its top-K entirely from int8
    /// scores and skipped the shortlist re-rank ([`IvfIndex::probe`] on a
    /// quantized index only; always false after
    /// [`IvfIndex::probe_rerank`]).
    pub fn certified_skip(&self) -> bool {
        self.certified
    }

    /// Fills the scratch with the exhaustive candidate set `0..n_items`,
    /// exact scores (one `imcat_simd::dot_rows` call per pooled chunk of
    /// contiguous rows, whose every element is `imcat_simd::dot`'s bits — so
    /// bit-identical to the IVF re-rank at `nprobe == nlist`), and the mask
    /// verbatim (candidate index == item id). The whole probe of
    /// [`crate::index::BruteIndex`].
    pub(crate) fn set_brute(&mut self, query: &[f32], items: &Tensor, mask: &[u32]) {
        self.certified = false;
        let n = items.rows();
        let d = items.cols();
        self.cand.clear();
        self.cand.extend(0..n as u32);
        self.scores.clear();
        self.scores.resize(n, 0.0);
        imcat_par::global().parallel_chunks_mut(&mut self.scores, SCORE_GRAIN, |ci, slots| {
            let first = ci * SCORE_GRAIN * d;
            imcat_simd::dot_rows(query, &items.as_slice()[first..first + slots.len() * d], slots);
        });
        self.mask.clear();
        self.mask.extend_from_slice(mask);
    }

    /// Fills the scratch from an explicit candidate id set (any order,
    /// duplicate-free): ids are sorted ascending into the compact index
    /// space, exact-scored with the same pooled `imcat_simd::dot` fan-out
    /// the other paths use, and the caller's `mask` is remapped to compact
    /// candidate indices. The back half of a graph probe.
    pub(crate) fn set_candidates(
        &mut self,
        ids: &[u32],
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
    ) {
        self.certified = false;
        self.cand.clear();
        self.cand.extend_from_slice(ids);
        self.cand.sort_unstable();
        self.scores.clear();
        self.scores.resize(self.cand.len(), 0.0);
        let cand = &self.cand;
        imcat_par::global().parallel_chunks_mut(&mut self.scores, SCORE_GRAIN, |ci, slots| {
            for (off, slot) in slots.iter_mut().enumerate() {
                let id = cand[ci * SCORE_GRAIN + off] as usize;
                *slot = imcat_simd::dot(query, items.row(id));
            }
        });
        self.mask.clear();
        let mut m = 0usize;
        for (ci, &id) in self.cand.iter().enumerate() {
            while m < mask.len() && mask[m] < id {
                m += 1;
            }
            if m < mask.len() && mask[m] == id {
                self.mask.push(ci as u32);
            }
        }
    }
}

/// An IVF-Flat index over one frozen item-embedding matrix.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    dim: usize,
    n_items: usize,
    seed: u64,
    quantized: bool,
    /// The squared MIPS-augmentation constant `Φ² = max_i ‖x_i‖²` frozen at
    /// build time. Streamed inserts augment against this value (clamping the
    /// completion coordinate at 0 for items that out-norm the build set) so
    /// their list assignment lives in the same geometry as the build.
    phi2: f64,
    /// `[nlist, dim + 1]` coarse-quantizer centroids in the MIPS-augmented
    /// space (last column is the norm-completion coordinate).
    centroids: Tensor,
    /// `nlist + 1` prefix offsets into `entries`.
    offsets: Vec<u32>,
    /// Item ids, grouped by list, ascending within each list. The lists
    /// partition `0..n_items`: every id appears exactly once.
    entries: Vec<u32>,
    /// Int8 codes aligned with `entries` (`entries.len() * dim`), empty when
    /// not quantized.
    codes: Vec<i8>,
    /// Per-entry dequantization scales, empty when not quantized.
    scales: Vec<f32>,
    /// Per-entry unit error bounds (multiply by the query's L1 norm to bound
    /// `|exact − approx|`), empty when not quantized. Computed once at build
    /// time and persisted with the codes.
    bounds: Vec<f32>,
}

impl IvfIndex {
    /// Trains the coarse quantizer and buckets every item. Deterministic: the
    /// same `(items, cfg, seed)` produces a bit-identical index at any
    /// `IMCAT_THREADS` setting.
    pub fn build(items: &Tensor, cfg: &AnnConfig, seed: u64) -> Self {
        let sp = imcat_obs::span("ann.build.seconds");
        let (n_items, dim) = items.shape();
        if n_items == 0 {
            // Degenerate catalog: a single zero centroid with an empty list,
            // so probes produce an empty candidate set instead of panicking.
            // Streamed inserts still work (everything lands in list 0).
            drop(sp);
            imcat_obs::counter_add("ann.builds", 1);
            return Self {
                dim,
                n_items: 0,
                seed,
                quantized: cfg.quantized,
                phi2: 0.0,
                centroids: Tensor::zeros(1, dim + 1),
                offsets: vec![0, 0],
                entries: Vec::new(),
                codes: Vec::new(),
                scales: Vec::new(),
                bounds: Vec::new(),
            };
        }
        let nlist = cfg.resolved_nlist(n_items);
        // MIPS-to-L2 augmentation: [x, sqrt(Φ² − ‖x‖²)] equalizes norms so
        // L2 k-means clusters by inner-product relevance, not just
        // direction. The completion coordinate rides beside the catalogue as
        // a virtual column; the augmented rows are never materialized.
        let norms2: Vec<f64> = items.rows_iter().map(norm2).collect();
        let max2 = norms2.iter().fold(0f64, |m, &v| m.max(v));
        let tails: Vec<f32> = norms2.iter().map(|&n2| mips_tail(max2, n2)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids = kmeans_tailed(items, Some(&tails), nlist, BUILD_ITERS, &mut rng);
        let assign = assign_tailed(items, Some(&tails), &centroids);
        let mut counts = vec![0u32; nlist];
        for &a in &assign {
            counts[a] += 1;
        }
        let mut offsets = Vec::with_capacity(nlist + 1);
        offsets.push(0u32);
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let mut cursor: Vec<u32> = offsets[..nlist].to_vec();
        let mut entries = vec![0u32; n_items];
        // Ascending item order per list falls out of the ascending scan.
        for (i, &a) in assign.iter().enumerate() {
            entries[cursor[a] as usize] = i as u32;
            cursor[a] += 1;
        }
        let (codes, scales, bounds) = if cfg.quantized {
            let mut codes = vec![0i8; n_items * dim];
            let mut scales = vec![0f32; n_items];
            let mut bounds = vec![0f32; n_items];
            for (pos, &id) in entries.iter().enumerate() {
                let row = items.row(id as usize);
                let max_abs = row.iter().fold(0f32, |m, &x| m.max(x.abs()));
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
                scales[pos] = scale;
                if scale > 0.0 {
                    for (c, &x) in codes[pos * dim..(pos + 1) * dim].iter_mut().zip(row) {
                        *c = (x / scale).round().clamp(-127.0, 127.0) as i8;
                    }
                }
                // Unit error bound: the worst per-coordinate dequantization
                // error, plus a summation slack that dominates the f32
                // rounding error of both the int8 and the exact dot product
                // (each is a length-`dim` accumulation of terms no larger
                // than `max_abs·|q_d|`, so `8·dim·ε·max_abs` per unit of
                // query L1 mass covers both with a wide margin). Multiplied
                // by `‖q‖₁` at probe time this bounds `|exact − approx|`.
                let eps = codes[pos * dim..(pos + 1) * dim]
                    .iter()
                    .zip(row)
                    .map(|(&c, &x)| (x - scale * c as f32).abs())
                    .fold(0f32, f32::max);
                bounds[pos] = eps + 8.0 * dim as f32 * f32::EPSILON * max_abs;
            }
            (codes, scales, bounds)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        drop(sp);
        imcat_obs::counter_add("ann.builds", 1);
        Self {
            dim,
            n_items,
            seed,
            quantized: cfg.quantized,
            phi2: max2,
            centroids,
            offsets,
            entries,
            codes,
            scales,
            bounds,
        }
    }

    /// Appends one item to the index without retraining the coarse
    /// quantizer: the embedding is MIPS-augmented against the frozen build
    /// `Φ²`, assigned to its nearest centroid, and appended to that list
    /// (its id is the current maximum, so ascending list order is
    /// preserved). On a quantized index the int8 code, scale, and certified
    /// error bound are recomputed with the identical per-row formulas the
    /// build uses, so certified-skip stays exact for streamed items.
    ///
    /// Ids stay dense: `id` must equal the current catalog size, and the
    /// embedding is row `id` of `items`, the table later probes score from.
    /// Items whose norm exceeds the build `Φ` get a clamped completion
    /// coordinate of 0 — list assignment degrades gracefully and probe
    /// scoring stays exact (candidates are always re-scored from f32); a
    /// background rebuild restores the invariant.
    pub fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()> {
        let embedding = check_insert(self.dim, self.n_items, id, items)?;
        // The Φ-augmented row, assigned by the build's own definition of
        // "nearest centroid" (ties to the lower list id).
        let mut row = embedding.to_vec();
        row.push(mips_tail(self.phi2, norm2(embedding)));
        let best = assign_nearest(&Tensor::from_vec(1, self.dim + 1, row), &self.centroids)[0];
        let pos = self.offsets[best + 1] as usize;
        self.entries.insert(pos, id);
        for o in &mut self.offsets[best + 1..] {
            *o += 1;
        }
        if self.quantized {
            let max_abs = embedding.iter().fold(0f32, |m, &x| m.max(x.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
            let mut code = vec![0i8; self.dim];
            if scale > 0.0 {
                for (c, &x) in code.iter_mut().zip(embedding) {
                    *c = (x / scale).round().clamp(-127.0, 127.0) as i8;
                }
            }
            let eps = code
                .iter()
                .zip(embedding)
                .map(|(&c, &x)| (x - scale * c as f32).abs())
                .fold(0f32, f32::max);
            let bound = eps + 8.0 * self.dim as f32 * f32::EPSILON * max_abs;
            self.codes.splice(pos * self.dim..pos * self.dim, code);
            self.scales.insert(pos, scale);
            self.bounds.insert(pos, bound);
        }
        self.n_items += 1;
        imcat_obs::counter_add("ann.inserts", 1);
        Ok(())
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Catalog size the index was built over.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension the index was built over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the lists carry int8 scalar-quantized codes.
    pub fn quantized(&self) -> bool {
        self.quantized
    }

    /// The build seed (part of the identity checked by
    /// [`IvfIndex::matches`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when this index is exactly what [`IvfIndex::build`] would produce
    /// for `cfg` over an `n_items`-catalog with `seed` — the staleness check
    /// used when deciding whether a persisted index can be reused.
    pub fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        self.n_items == n_items
            && self.dim == dim
            && self.seed == seed
            && self.quantized == cfg.quantized
            && self.nlist() == cfg.resolved_nlist(n_items)
    }

    /// Probes the `nprobe` best lists for `query` and scores every candidate
    /// exactly against `items` (the f32 matrix the index was built from),
    /// leaving a compact ascending-id candidate set, exact scores, and the
    /// remapped `mask` in `scratch`.
    ///
    /// Candidate scoring uses the identical `imcat_simd::dot` kernel as
    /// brute force and fans out over the `imcat-par` pool bit-identically.
    /// With `nprobe >= nlist` on a non-quantized index the compact arrays
    /// equal the full brute-force score row and mask, so downstream
    /// `top_n_masked_with` selection is bit-identical, tie order included.
    ///
    /// On a quantized index this entry point may take the certified skip
    /// path (see the module docs): when the int8 error bounds prove the
    /// exact top-`k` unmasked candidates and their order, only those `k`
    /// are exact-scored and left in `scratch` — downstream selection of the
    /// top `k` then returns bit-identical ids and scores to the full
    /// re-rank, proven by `ann_parity` and the quantization proptests.
    /// [`ProbeScratch::certified_skip`] reports which path ran.
    pub fn probe(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut ProbeScratch,
    ) {
        self.probe_impl(query, items, mask, k, nprobe, scratch, true);
    }

    /// [`IvfIndex::probe`] with the certified int8 skip disabled: quantized
    /// indices always shortlist + exact re-rank, exactly the historical
    /// behavior. The reference path the skip is verified against.
    pub fn probe_rerank(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut ProbeScratch,
    ) {
        self.probe_impl(query, items, mask, k, nprobe, scratch, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_impl(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut ProbeScratch,
        allow_skip: bool,
    ) {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        // The item matrix may run *ahead* of the index during streaming
        // (items registered but not yet folded into the lists are simply
        // unreachable through the probe until they are inserted); it can
        // never run behind.
        assert!(
            items.rows() >= self.n_items && items.cols() == self.dim,
            "item matrix {:?} smaller than index ({}, {})",
            items.shape(),
            self.n_items,
            self.dim
        );
        let sp = imcat_obs::span("ann.probe.seconds");
        let nprobe = nprobe.clamp(1, self.nlist());
        scratch.certified = false;
        // Rank centroids by L2 distance to the augmented query `[q, 0]`
        // (ascending, ties to lower id) — in the augmented space, closer
        // means higher attainable inner product.
        scratch.order.clear();
        for c in 0..self.nlist() {
            let crow = self.centroids.row(c);
            let tail = crow[self.dim];
            let acc = imcat_simd::l2_sq(query, &crow[..self.dim]) + tail * tail;
            scratch.order.push((acc, c as u32));
        }
        scratch.order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Gather candidate entries from the probed lists; quantized lists
        // are scanned entirely in int8 through the fused kernel.
        scratch.cand.clear();
        scratch.approx.clear();
        for &(_, c) in scratch.order.iter().take(nprobe) {
            let lo = self.offsets[c as usize] as usize;
            let hi = self.offsets[c as usize + 1] as usize;
            if self.quantized {
                for pos in lo..hi {
                    let id = self.entries[pos];
                    let approx = imcat_simd::dot_i8_scaled(
                        &self.codes[pos * self.dim..(pos + 1) * self.dim],
                        query,
                        self.scales[pos],
                    );
                    scratch.approx.push((approx, id, pos as u32));
                }
            } else {
                scratch.cand.extend_from_slice(&self.entries[lo..hi]);
            }
        }
        if self.quantized {
            if allow_skip && k > 0 && self.try_certified_skip(query, mask, k, scratch) {
                scratch.cand.sort_unstable();
                self.exact_scores(query, items, scratch);
                // All certified candidates are unmasked by construction.
                scratch.mask.clear();
                scratch.certified = true;
                drop(sp);
                if imcat_obs::enabled() {
                    imcat_obs::counter_add("ann.probes", 1);
                    imcat_obs::counter_add("ann.rerank_skips", 1);
                    imcat_obs::observe("ann.candidates", scratch.cand.len() as f64);
                }
                return;
            }
            if allow_skip {
                imcat_obs::counter_add("ann.reranks", 1);
            }
            // Shortlist by approximate score (descending, ties to lower id),
            // sized so the exact re-rank still has k unmasked survivors with
            // margin; the final ordering comes from exact f32 scores only.
            let masked = scratch
                .approx
                .iter()
                .filter(|&&(_, id, _)| mask.binary_search(&id).is_ok())
                .count();
            let shortlist = (4 * k + masked + 32).min(scratch.approx.len());
            if shortlist > 0 && shortlist < scratch.approx.len() {
                scratch.approx.select_nth_unstable_by(shortlist - 1, |a, b| {
                    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
                });
                scratch.approx.truncate(shortlist);
            }
            scratch.cand.extend(scratch.approx.iter().map(|&(_, id, _)| id));
        }
        // Compact index space: ascending item ids (lists are disjoint, so no
        // duplicates). When every list is probed this is exactly 0..n_items.
        scratch.cand.sort_unstable();

        self.exact_scores(query, items, scratch);

        // Remap the (ascending) mask into compact candidate indices.
        scratch.mask.clear();
        let mut m = 0usize;
        for (ci, &id) in scratch.cand.iter().enumerate() {
            while m < mask.len() && mask[m] < id {
                m += 1;
            }
            if m < mask.len() && mask[m] == id {
                scratch.mask.push(ci as u32);
            }
        }
        drop(sp);
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ann.probes", 1);
            imcat_obs::observe("ann.candidates", scratch.cand.len() as f64);
        }
    }

    /// Attempts to certify the exact top-`k` unmasked candidates from the
    /// int8 scores in `scratch.approx` alone. On success, `scratch.cand`
    /// holds exactly those `k` ids (unsorted) and the method returns true.
    ///
    /// Soundness: `|exact_i − approx_i| ≤ err_i = bounds[pos_i]·‖q‖₁`. If
    /// adjacent ranked winners satisfy `approxⱼ − errⱼ > approxⱼ₊₁ +
    /// errⱼ₊₁`, their exact scores are strictly ordered the same way; if
    /// the last winner clears every remaining candidate's `approx + err`
    /// the same way, no outsider can reach the top `k`. All inequalities
    /// are strict, so exact-score ties (margin 0) always fail and fall back
    /// to the re-rank — certification never has to break a tie.
    fn try_certified_skip(
        &self,
        query: &[f32],
        mask: &[u32],
        k: usize,
        scratch: &mut ProbeScratch,
    ) -> bool {
        let l1q = imcat_simd::l1_norm(query);
        if !l1q.is_finite() {
            return false;
        }
        scratch.ranked.clear();
        scratch
            .ranked
            .extend(scratch.approx.iter().filter(|&&(_, id, _)| mask.binary_search(&id).is_err()));
        let top = k.min(scratch.ranked.len());
        if top == 0 {
            return false;
        }
        // Rank by approximate score (descending, ties to lower id): the
        // candidate exact ordering the margins below certify.
        if top < scratch.ranked.len() {
            scratch
                .ranked
                .select_nth_unstable_by(top - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        scratch.ranked[..top].sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let err = |e: &(f32, u32, u32)| self.bounds[e.2 as usize] * l1q;
        // Comparisons are phrased as "strictly greater, else refuse" so NaN
        // anywhere (incomparable) also falls back to the re-rank.
        for w in scratch.ranked[..top].windows(2) {
            let separated = w[0].0 - err(&w[0]) > w[1].0 + err(&w[1]);
            if !separated {
                return false;
            }
        }
        let last = scratch.ranked[top - 1];
        let floor = last.0 - err(&last);
        if !scratch.ranked[top..].iter().all(|e| floor > e.0 + err(e)) {
            return false;
        }
        scratch.cand.clear();
        scratch.cand.extend(scratch.ranked[..top].iter().map(|&(_, id, _)| id));
        true
    }

    /// Exact f32 scores for `scratch.cand`, the same `imcat_simd::dot`
    /// kernel as brute force, sharded over the pool (each slot is one
    /// candidate).
    fn exact_scores(&self, query: &[f32], items: &Tensor, scratch: &mut ProbeScratch) {
        scratch.scores.clear();
        scratch.scores.resize(scratch.cand.len(), 0.0);
        let cand = &scratch.cand;
        imcat_par::global().parallel_chunks_mut(&mut scratch.scores, SCORE_GRAIN, |ci, slots| {
            for (off, slot) in slots.iter_mut().enumerate() {
                let id = cand[ci * SCORE_GRAIN + off] as usize;
                *slot = imcat_simd::dot(query, items.row(id));
            }
        });
    }

    /// Structural validation mirroring `Artifact::validate`: consistent
    /// shapes, finite centroids, offsets that tile `entries`, lists that are
    /// strictly increasing and partition `0..n_items`, and quantization
    /// arrays sized and finite. Decode goes through this, so an index that
    /// loads is an index the engine can trust blindly.
    pub fn validate(&self) -> io::Result<()> {
        let nlist = self.centroids.rows();
        if nlist == 0 || self.centroids.cols() != self.dim + 1 {
            return Err(bad(format!(
                "index centroids shape {:?} invalid for dim {} (+1 augmented)",
                self.centroids.shape(),
                self.dim
            )));
        }
        if self.centroids.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(bad("index centroids contain nonfinite values"));
        }
        if self.offsets.len() != nlist + 1
            || self.offsets[0] != 0
            || *self.offsets.last().unwrap() as usize != self.entries.len()
        {
            return Err(bad("index offsets do not tile the entry array"));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("index offsets are not monotone"));
        }
        if self.entries.len() != self.n_items {
            return Err(bad(format!(
                "index holds {} entries for {} items",
                self.entries.len(),
                self.n_items
            )));
        }
        let mut seen = vec![false; self.n_items];
        for w in self.offsets.windows(2) {
            let list = &self.entries[w[0] as usize..w[1] as usize];
            if !list.windows(2).all(|p| p[0] < p[1]) {
                return Err(bad("an inverted list is not strictly increasing"));
            }
            for &id in list {
                let slot = seen
                    .get_mut(id as usize)
                    .ok_or_else(|| bad(format!("list entry {id} out of range")))?;
                if *slot {
                    return Err(bad(format!("item {id} appears in two lists")));
                }
                *slot = true;
            }
        }
        // entries.len() == n_items and no duplicates => full coverage.
        if self.quantized {
            if self.codes.len() != self.n_items * self.dim {
                return Err(bad("quantized codes length mismatch"));
            }
            if self.scales.len() != self.n_items {
                return Err(bad("quantization scales length mismatch"));
            }
            if self.scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return Err(bad("quantization scales must be finite and non-negative"));
            }
            if self.bounds.len() != self.n_items {
                return Err(bad("quantization error bounds length mismatch"));
            }
            if self.bounds.iter().any(|b| !b.is_finite() || *b < 0.0) {
                return Err(bad("quantization error bounds must be finite and non-negative"));
            }
        } else if !self.codes.is_empty() || !self.scales.is_empty() || !self.bounds.is_empty() {
            return Err(bad("non-quantized index carries quantization arrays"));
        }
        Ok(())
    }

    /// Serializes the index into named `ann.*` sections of `ck`, alongside
    /// whatever (artifact) sections it already holds.
    pub fn add_to_checkpoint(&self, ck: &mut Checkpoint) {
        let mut meta = Encoder::new();
        meta.put_u32(ANN_VERSION);
        meta.put_u64(self.seed);
        meta.put_u64(self.nlist() as u64);
        meta.put_u64(self.dim as u64);
        meta.put_u64(self.n_items as u64);
        meta.put_u32(self.quantized as u32);
        meta.put_u64(self.phi2.to_bits());
        ck.insert(SEC_ANN_META, meta.into_bytes());
        let mut ce = Encoder::new();
        ce.put_tensor(&self.centroids);
        ck.insert(SEC_ANN_CENTROIDS, ce.into_bytes());
        let mut le = Encoder::new();
        le.put_u32s(&self.offsets);
        le.put_u32s(&self.entries);
        ck.insert(SEC_ANN_LISTS, le.into_bytes());
        if self.quantized {
            let mut qe = Encoder::new();
            let raw: Vec<u8> = self.codes.iter().map(|&c| c as u8).collect();
            qe.put_bytes(&raw);
            qe.put_u64(self.scales.len() as u64);
            for &s in &self.scales {
                qe.put_f32(s);
            }
            qe.put_u64(self.bounds.len() as u64);
            for &b in &self.bounds {
                qe.put_f32(b);
            }
            ck.insert(SEC_ANN_CODES, qe.into_bytes());
        }
    }

    /// Decodes and validates the `ann.*` sections of `ck`, resolving each
    /// name through the container's committed generation (if any).
    /// `Ok(None)` when the container carries no index; any malformed,
    /// truncated, or semantically invalid section is an error — nothing
    /// partial escapes.
    pub fn from_checkpoint(ck: &Checkpoint) -> io::Result<Option<Self>> {
        let Some(meta_bytes) = ck.resolve(SEC_ANN_META) else {
            return Ok(None);
        };
        let mut meta = Decoder::new(meta_bytes);
        let version = meta.u32()?;
        if version != ANN_VERSION {
            return Err(bad(format!("unsupported ann index version {version}")));
        }
        let seed = meta.u64()?;
        let nlist = meta.u64()? as usize;
        let dim = meta.u64()? as usize;
        let n_items = meta.u64()? as usize;
        let quantized = match meta.u32()? {
            0 => false,
            1 => true,
            v => return Err(bad(format!("invalid quantized flag {v}"))),
        };
        let phi2 = f64::from_bits(meta.u64()?);
        if !phi2.is_finite() || phi2 < 0.0 {
            return Err(bad("index Φ² must be finite and non-negative"));
        }
        meta.finish()?;
        let mut ce = Decoder::new(ck.require_resolved(SEC_ANN_CENTROIDS)?);
        let centroids = ce.tensor()?;
        ce.finish()?;
        if centroids.shape() != (nlist, dim + 1) {
            return Err(bad(format!(
                "index centroid shape {:?} contradicts meta ({nlist}, {} augmented)",
                centroids.shape(),
                dim + 1
            )));
        }
        let mut le = Decoder::new(ck.require_resolved(SEC_ANN_LISTS)?);
        let offsets = le.u32s()?;
        let entries = le.u32s()?;
        le.finish()?;
        let (codes, scales, bounds) = if quantized {
            let mut qe = Decoder::new(ck.require_resolved(SEC_ANN_CODES)?);
            let codes: Vec<i8> = qe.bytes()?.iter().map(|&b| b as i8).collect();
            let n = qe.u64()? as usize;
            // Overflow-proof form of `4 * n > remaining` (scales are 4-byte f32s).
            if n > qe.remaining() / 4 {
                return Err(bad("quantization scales exceed remaining section bytes"));
            }
            let mut scales = Vec::with_capacity(n);
            for _ in 0..n {
                scales.push(qe.f32()?);
            }
            let nb = qe.u64()? as usize;
            if nb > qe.remaining() / 4 {
                return Err(bad("quantization bounds exceed remaining section bytes"));
            }
            let mut bounds = Vec::with_capacity(nb);
            for _ in 0..nb {
                bounds.push(qe.f32()?);
            }
            qe.finish()?;
            (codes, scales, bounds)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let idx = Self {
            dim,
            n_items,
            seed,
            quantized,
            phi2,
            centroids,
            offsets,
            entries,
            codes,
            scales,
            bounds,
        };
        idx.validate()?;
        Ok(Some(idx))
    }
}
