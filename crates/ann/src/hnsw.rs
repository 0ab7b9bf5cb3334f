//! Hierarchical navigable small-world (HNSW) index with exact re-rank.
//!
//! The graph backend of [`crate::index::AnnIndex`]: items are nodes in a
//! multi-layer proximity graph (Malkov & Yashunin, 2016). Each node draws a
//! geometric level from a seeded xoshiro stream keyed by `(seed, id)` — a
//! *pure function* of the identity, so a graph grown incrementally through
//! [`HnswIndex::insert`] assigns exactly the levels a batch rebuild would.
//! A query descends the sparse upper layers greedily, then runs a best-first
//! beam of width `ef_search` over the dense base layer; the surviving
//! candidates go through the **same** compact-candidate contract as IVF
//! (ascending ids, exact f32 `imcat_simd::dot` scores, remapped mask), so
//! downstream `top_n_masked_with` selection and the serving engine are
//! backend-blind.
//!
//! Geometry is the IVF module's MIPS-to-L2 reduction: item `x` becomes
//! `[x, sqrt(Φ² − ‖x‖²)]` with `Φ² = max_i ‖x_i‖²` frozen at build time
//! (norms accumulated in f64), the query `[q, 0]`. Graph distances are
//! squared L2 in that augmented space — monotone decreasing in the inner
//! product — computed as `l2_sq(q, x) + (q_tail − x_tail)²` so no augmented
//! copy of the query is ever materialized. The index keeps its own copy of
//! the base vectors plus tails (the classic HNSW memory model): that makes
//! streamed inserts and checkpoint loads self-contained, at the cost of one
//! extra catalog-sized matrix.
//!
//! ## Determinism
//!
//! Construction is a serial insert loop in ascending id order — there is
//! nothing thread-shaped in it, so builds are bit-identical at any
//! `IMCAT_THREADS` by construction (the determinism suite asserts it at 1
//! and 4). Search visits candidates through heaps ordered by the canonical
//! `(distance asc, id asc)` **total** order (`DistId`'s `Ord` uses
//! `total_cmp`), so frontier expansion, result eviction, and the final
//! candidate set are all deterministic; only the exact re-rank fans out over
//! the `imcat-par` pool, with the same fixed grain the other backends use.
//! At `ef_search >= n_items` the probe bypasses the graph entirely and takes
//! the `ProbeScratch::set_brute` path, making it bit-identical
//! to [`crate::index::BruteIndex`] — scores *and* tie order — which the
//! proptests exercise. Cold (`n = 0`) and unbuilt graphs fall back the same
//! way.
//!
//! ## Persistence
//!
//! Four versioned sections — `ann.hnsw.meta` / `ann.hnsw.vecs` /
//! `ann.hnsw.levels` / `ann.hnsw.links` — ride the artifact container with
//! the same all-or-nothing discipline as `ann.*`: decode re-validates every
//! structural invariant (degree caps, id ranges, level monotonicity, entry
//! point identity, finite geometry) and any violation rejects the whole
//! index, which the engine then rebuilds under `.prev` rotation.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io;

use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::index::{bad, check_insert, mips_tail, norm2, AnnKind};
use crate::ivf::AnnConfig;

/// Section holding the graph geometry, build parameters, and entry point.
pub const SEC_HNSW_META: &str = "ann.hnsw.meta";
/// Section holding the index's own copy of the base vectors plus the
/// MIPS-augmentation tail coordinates.
pub const SEC_HNSW_VECS: &str = "ann.hnsw.vecs";
/// Section holding the per-node top level.
pub const SEC_HNSW_LEVELS: &str = "ann.hnsw.levels";
/// Section holding the adjacency lists, flattened level-major per node.
pub const SEC_HNSW_LINKS: &str = "ann.hnsw.links";

/// Format version inside [`SEC_HNSW_META`]. Bumps reject-and-rebuild.
const HNSW_VERSION: u32 = 1;
/// Hard ceiling on node levels: a level-30 node implies ~`16^30` items.
const MAX_LEVEL: u32 = 30;
/// Sentinel entry point of an empty graph.
const NO_ENTRY: u32 = u32::MAX;

/// `(distance, id)` under the canonical total order: distance ascending
/// (`total_cmp`, so NaN sorts deterministically too), ties to the lower id.
/// Everything the search touches — frontier pops, worst-result eviction,
/// final ordering — goes through this `Ord`, which is what makes graph
/// traversal bit-deterministic.
#[derive(Clone, Copy, Debug)]
struct DistId {
    d: f32,
    id: u32,
}

impl PartialEq for DistId {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for DistId {}

impl PartialOrd for DistId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DistId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d.total_cmp(&other.d).then(self.id.cmp(&other.id))
    }
}

/// Immutable view of the graph geometry a traversal needs: the vector store,
/// the augmentation tails, and the query point (`qtail = 0` for real
/// queries, the node's own tail during construction).
struct Ctx<'a> {
    vecs: &'a [f32],
    tails: &'a [f32],
    dim: usize,
    q: &'a [f32],
    qtail: f32,
}

impl Ctx<'_> {
    /// Squared augmented-L2 distance from the query to item `id`.
    #[inline]
    fn dist(&self, id: u32) -> f32 {
        let i = id as usize;
        let dt = self.qtail - self.tails[i];
        imcat_simd::l2_sq(self.q, &self.vecs[i * self.dim..(i + 1) * self.dim]) + dt * dt
    }
}

/// Squared augmented-L2 distance between items `a` and `b`.
#[inline]
fn dist_items(vecs: &[f32], tails: &[f32], dim: usize, a: u32, b: u32) -> f32 {
    let (ia, ib) = (a as usize, b as usize);
    let dt = tails[ia] - tails[ib];
    imcat_simd::l2_sq(&vecs[ia * dim..(ia + 1) * dim], &vecs[ib * dim..(ib + 1) * dim]) + dt * dt
}

/// The heuristic neighbor selection of the HNSW paper (algorithm 4):
/// walk `cands` in canonical `(dist asc, id asc)` order, keep a candidate
/// only if it is strictly closer to the query than to every neighbor already
/// kept (so the kept set spreads across directions instead of clustering),
/// then fill any remaining capacity from the pruned ones in the same order
/// (`keepPrunedConnections` — it keeps duplicate-heavy catalogs connected:
/// all-equal distances never prune).
fn select_neighbors(
    vecs: &[f32],
    tails: &[f32],
    dim: usize,
    cands: &[(f32, u32)],
    cap: usize,
    out: &mut Vec<u32>,
) {
    out.clear();
    let mut pruned: Vec<u32> = Vec::new();
    for &(d, c) in cands {
        if out.len() >= cap {
            break;
        }
        let diversified = out.iter().all(|&s| dist_items(vecs, tails, dim, c, s) >= d);
        if diversified {
            out.push(c);
        } else {
            pruned.push(c);
        }
    }
    for &c in &pruned {
        if out.len() >= cap {
            break;
        }
        out.push(c);
    }
}

/// Reusable graph-traversal state: visited stamps, the best-first frontier
/// (min-heap), the bounded result set (max-heap of size `ef`), and the
/// drained, canonically ordered output. One per probe scratch (and one kept
/// inside the index for construction/inserts); reuse never changes results —
/// stamps invalidate wholesale, heaps and buffers are cleared per search.
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphSearch {
    /// Per-node visited stamp; a node is visited iff `seen[id] == stamp`.
    stamp: u32,
    seen: Vec<u32>,
    /// Frontier, popped nearest-first (canonical order via [`DistId`]).
    cand: BinaryHeap<Reverse<DistId>>,
    /// Running best `ef` results, worst on top for O(log ef) eviction.
    found: BinaryHeap<DistId>,
    /// Result of the last `search_layer`, sorted `(dist asc, id asc)`.
    out: Vec<(f32, u32)>,
    /// Candidate-id staging buffer for the probe handoff.
    ids: Vec<u32>,
    /// Nodes expanded (frontier pops + greedy steps) since the last reset.
    hops: u64,
    /// Distance evaluations since the last reset.
    visited: u64,
}

impl GraphSearch {
    /// Invalidates all visited marks for a graph of `n` nodes.
    fn reset_marks(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        if self.stamp == u32::MAX {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Marks `id` visited; false if it already was.
    #[inline]
    fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.seen[id as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }

    /// Greedy descent at one level: repeatedly move to the canonically
    /// smallest `(dist, id)` among the current node's neighbors until no
    /// neighbor improves on the current position. Moving strictly decreases
    /// the canonical pair, so the walk terminates; scanning every neighbor
    /// before moving makes the result independent of link storage order.
    fn greedy(
        &mut self,
        ctx: &Ctx<'_>,
        links: &[Vec<Vec<u32>>],
        level: usize,
        start: (f32, u32),
    ) -> (f32, u32) {
        let (mut bd, mut bi) = start;
        loop {
            self.hops += 1;
            let mut improved = false;
            for &nb in &links[bi as usize][level] {
                self.visited += 1;
                let d = ctx.dist(nb);
                if d.total_cmp(&bd).then(nb.cmp(&bi)) == Ordering::Less {
                    bd = d;
                    bi = nb;
                    improved = true;
                }
            }
            if !improved {
                return (bd, bi);
            }
        }
    }

    /// Best-first beam search at one level from entry points `eps`
    /// (pre-scored), keeping the `ef` canonically best nodes seen. Leaves
    /// the results in `self.out` sorted `(dist asc, id asc)`.
    fn search_layer(
        &mut self,
        ctx: &Ctx<'_>,
        links: &[Vec<Vec<u32>>],
        level: usize,
        ef: usize,
        eps: &[(f32, u32)],
    ) {
        self.reset_marks(links.len());
        self.cand.clear();
        self.found.clear();
        for &(d, id) in eps {
            if !self.mark(id) {
                continue;
            }
            self.offer(DistId { d, id }, ef);
        }
        while let Some(Reverse(c)) = self.cand.pop() {
            if self.found.len() >= ef {
                let worst = *self.found.peek().expect("found nonempty when full");
                if worst < c {
                    break;
                }
            }
            self.hops += 1;
            for &nb in &links[c.id as usize][level] {
                if !self.mark(nb) {
                    continue;
                }
                self.visited += 1;
                self.offer(DistId { d: ctx.dist(nb), id: nb }, ef);
            }
        }
        self.out.clear();
        while let Some(e) = self.found.pop() {
            self.out.push((e.d, e.id));
        }
        self.out.reverse();
    }

    /// Offers one scored node to the bounded result set (and, if accepted,
    /// to the frontier). Eviction compares through the canonical total
    /// order, so ties break to the lower id deterministically.
    #[inline]
    fn offer(&mut self, e: DistId, ef: usize) {
        if self.found.len() < ef {
            self.found.push(e);
            self.cand.push(Reverse(e));
        } else {
            let worst = *self.found.peek().expect("found nonempty when full");
            if e < worst {
                self.found.pop();
                self.found.push(e);
                self.cand.push(Reverse(e));
            }
        }
    }
}

/// An HNSW graph index over one frozen item-embedding matrix.
#[derive(Clone, Debug)]
pub struct HnswIndex {
    dim: usize,
    n_items: usize,
    seed: u64,
    /// Degree bound per node per level; level 0 holds up to `2·m`.
    m: usize,
    /// Construction-time beam width.
    ef_construction: usize,
    /// The squared MIPS-augmentation constant frozen at build time; streamed
    /// inserts clamp their completion coordinate at 0 against it, exactly
    /// like [`crate::ivf::IvfIndex::insert`].
    phi2: f64,
    /// Row-major copy of the base vectors (`n_items × dim`).
    vecs: Vec<f32>,
    /// Per-item augmentation tails `sqrt(Φ² − ‖x‖²)`.
    tails: Vec<f32>,
    /// Per-item top level.
    levels: Vec<u32>,
    /// `links[id][level]` = neighbor ids, insertion-ordered (the order is
    /// part of the deterministic build and is persisted verbatim).
    links: Vec<Vec<Vec<u32>>>,
    /// Entry node ([`NO_ENTRY`] when the graph is empty). Always a node of
    /// the maximal level.
    entry: u32,
    /// Level of the entry node (0 when empty).
    max_level: u32,
    /// Construction scratch, reused across inserts. Not part of the
    /// persisted identity.
    scratch: GraphSearch,
}

impl HnswIndex {
    /// Builds the graph by inserting every item in ascending id order
    /// through the same greedy-search + link path streamed inserts use.
    /// Deterministic: the loop is serial (nothing in it fans out), so the
    /// same `(items, cfg, seed)` produces a bit-identical graph at any
    /// `IMCAT_THREADS` setting.
    pub fn build(items: &Tensor, cfg: &AnnConfig, seed: u64) -> Self {
        let sp = imcat_obs::span("ann.hnsw.build.seconds");
        let (n_items, dim) = items.shape();
        let m = cfg.resolved_m(n_items);
        let ef_construction = cfg.resolved_ef_construction(n_items);
        let norms2: Vec<f64> = items.rows_iter().map(norm2).collect();
        let phi2 = norms2.iter().fold(0f64, |acc, &v| acc.max(v));
        let mut idx = Self {
            dim,
            n_items: 0,
            seed,
            m,
            ef_construction,
            phi2,
            vecs: Vec::with_capacity(n_items * dim),
            tails: Vec::with_capacity(n_items),
            levels: Vec::with_capacity(n_items),
            links: Vec::with_capacity(n_items),
            entry: NO_ENTRY,
            max_level: 0,
            scratch: GraphSearch::default(),
        };
        let mut search = GraphSearch::default();
        for (i, &n2) in norms2.iter().enumerate() {
            idx.push_node(items.row(i), mips_tail(phi2, n2), &mut search);
        }
        idx.scratch = search;
        drop(sp);
        imcat_obs::counter_add("ann.builds", 1);
        idx
    }

    /// The geometric level of node `id`: `floor(−ln(u) / ln(m))` with `u`
    /// drawn from a xoshiro stream keyed by `(seed, id)` — a pure function
    /// of the identity, so incremental growth and batch rebuild assign the
    /// same levels to the same ids.
    fn level_for(seed: u64, id: u32, m: usize) -> u32 {
        let key = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1);
        let mut rng = StdRng::seed_from_u64(key);
        // 53 uniform bits mapped into (0, 1]: never 0, so ln(u) is finite.
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let ml = 1.0 / (m as f64).ln();
        ((-u.ln() * ml) as u32).min(MAX_LEVEL)
    }

    /// Appends one node (vector copy, tail, level, empty lists) and links it
    /// into the graph. The single write path shared by [`HnswIndex::build`]
    /// and [`HnswIndex::insert`].
    fn push_node(&mut self, row: &[f32], tail: f32, search: &mut GraphSearch) {
        let id = self.n_items as u32;
        let level = Self::level_for(self.seed, id, self.m);
        self.vecs.extend_from_slice(row);
        self.tails.push(tail);
        self.levels.push(level);
        self.links.push(vec![Vec::new(); level as usize + 1]);
        self.n_items += 1;
        self.link_node(id, search);
    }

    /// Wires node `id` into the graph: greedy-descend the layers above its
    /// level, then per layer from its level down run an
    /// `ef_construction`-wide beam, pick up to `m` diversified forward
    /// neighbors, and add the reverse links (re-selecting any neighbor whose
    /// list overflows its degree cap).
    fn link_node(&mut self, id: u32, search: &mut GraphSearch) {
        let Self { dim, m, ef_construction, vecs, tails, levels, links, entry, max_level, .. } =
            self;
        let (dim, m, efc) = (*dim, *m, *ef_construction);
        let vecs: &[f32] = vecs;
        let tails: &[f32] = tails;
        let node_level = levels[id as usize];
        if *entry == NO_ENTRY {
            *entry = id;
            *max_level = node_level;
            return;
        }
        let i = id as usize;
        let ctx = Ctx { vecs, tails, dim, q: &vecs[i * dim..(i + 1) * dim], qtail: tails[i] };
        let mut ep = {
            let e = *entry;
            (ctx.dist(e), e)
        };
        let mut lev = *max_level;
        while lev > node_level {
            ep = search.greedy(&ctx, links, lev as usize, ep);
            lev -= 1;
        }
        let mut eps = vec![ep];
        let mut sel: Vec<u32> = Vec::new();
        for lev in (0..=node_level.min(*max_level)).rev() {
            let lev = lev as usize;
            search.search_layer(&ctx, links, lev, efc, &eps);
            select_neighbors(vecs, tails, dim, &search.out, m, &mut sel);
            let cap = if lev == 0 { 2 * m } else { m };
            for &nb in &sel {
                let lst = &mut links[nb as usize][lev];
                lst.push(id);
                if lst.len() > cap {
                    // Degree overflow: re-run the selection heuristic from
                    // the neighbor's point of view over its whole list.
                    let mut cands: Vec<(f32, u32)> =
                        lst.iter().map(|&x| (dist_items(vecs, tails, dim, nb, x), x)).collect();
                    cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let mut kept = Vec::new();
                    select_neighbors(vecs, tails, dim, &cands, cap, &mut kept);
                    links[nb as usize][lev] = kept;
                }
            }
            links[i][lev] = std::mem::take(&mut sel);
            eps.clear();
            eps.extend_from_slice(&search.out);
        }
        if node_level > *max_level {
            *entry = id;
            *max_level = node_level;
        }
    }

    /// Appends one item to the live graph through the same greedy-search +
    /// link path the build uses: the embedding is MIPS-augmented against the
    /// frozen build `Φ²` (completion coordinate clamped at 0 for items that
    /// out-norm the build set — reachability degrades gracefully, probe
    /// scores stay exact, a background rebuild restores the invariant), its
    /// level comes from the same seeded stream a rebuild would draw, and it
    /// is immediately reachable by probes.
    ///
    /// Ids stay dense: `id` must equal the current catalog size.
    pub fn insert(&mut self, id: u32, embedding: &[f32]) -> io::Result<()> {
        check_insert(self.dim, self.n_items, id, embedding)?;
        let tail = mips_tail(self.phi2, norm2(embedding));
        let mut search = std::mem::take(&mut self.scratch);
        self.push_node(embedding, tail, &mut search);
        self.scratch = search;
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ann.inserts", 1);
            imcat_obs::counter_add("ann.hnsw.inserts", 1);
        }
        Ok(())
    }

    /// Catalog size currently covered by the graph.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension the index was built over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build seed (part of the identity checked by
    /// [`HnswIndex::matches`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The resolved degree bound the graph was built with.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The resolved construction beam width the graph was built with.
    pub fn ef_construction(&self) -> usize {
        self.ef_construction
    }

    /// True when this graph is exactly what [`HnswIndex::build`] would
    /// produce for `cfg` over an `n_items`-catalog with `seed`. `ef_search`
    /// is deliberately absent — it is query-time only, so one persisted
    /// graph serves a whole `ef_search` sweep, mirroring how `nprobe` never
    /// invalidates an IVF index.
    pub fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        self.n_items == n_items
            && self.dim == dim
            && self.seed == seed
            && self.m == cfg.resolved_m(n_items)
            && self.ef_construction == cfg.resolved_ef_construction(n_items)
    }

    /// Probes the graph for the top candidates of `query`: greedy descent
    /// through the upper layers, an `ef`-wide beam at the base layer
    /// (`ef = max(nprobe, k)`, where the engine passes the resolved
    /// `ef_search` as `nprobe`), then the shared exact-re-rank contract —
    /// ascending candidate ids, exact f32 scores, remapped mask.
    ///
    /// `ef >= n_items` (and the empty graph) bypasses traversal for the
    /// exhaustive `ProbeScratch::set_brute` path, bit-identical
    /// to [`crate::index::BruteIndex`] — including its scan of items the
    /// matrix holds *ahead* of the index during streaming.
    pub fn probe(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut crate::ivf::ProbeScratch,
    ) {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        assert!(
            items.rows() >= self.n_items && items.cols() == self.dim,
            "item matrix {:?} smaller than index ({}, {})",
            items.shape(),
            self.n_items,
            self.dim
        );
        let sp = imcat_obs::span("ann.hnsw.probe.seconds");
        let ef = nprobe.max(k).max(1);
        if self.entry == NO_ENTRY || ef >= self.n_items {
            scratch.set_brute(query, items, mask);
            drop(sp);
            if imcat_obs::enabled() {
                imcat_obs::counter_add("ann.probes", 1);
                imcat_obs::observe("ann.candidates", items.rows() as f64);
            }
            return;
        }
        let search = &mut scratch.graph;
        search.hops = 0;
        search.visited = 0;
        let ctx = Ctx { vecs: &self.vecs, tails: &self.tails, dim: self.dim, q: query, qtail: 0.0 };
        let mut ep = (ctx.dist(self.entry), self.entry);
        for lev in (1..=self.max_level).rev() {
            ep = search.greedy(&ctx, &self.links, lev as usize, ep);
        }
        search.search_layer(&ctx, &self.links, 0, ef, &[ep]);
        let mut ids = std::mem::take(&mut search.ids);
        ids.clear();
        ids.extend(search.out.iter().map(|&(_, id)| id));
        let (hops, visited) = (search.hops, search.visited);
        scratch.set_candidates(&ids, query, items, mask);
        scratch.graph.ids = ids;
        drop(sp);
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ann.probes", 1);
            imcat_obs::counter_add("ann.hnsw.hops", hops);
            imcat_obs::counter_add("ann.hnsw.visited", visited);
            imcat_obs::observe("ann.candidates", scratch.candidates().len() as f64);
        }
    }

    /// Structural validation mirroring [`crate::ivf::IvfIndex::validate`]:
    /// consistent array lengths, finite geometry, levels under the ceiling,
    /// degree caps respected, neighbor ids in range / non-self / reachable
    /// at their level, and a coherent entry point. Decode goes through this,
    /// so a graph that loads is a graph the engine can trust blindly.
    pub fn validate(&self) -> io::Result<()> {
        if self.m < 2 {
            return Err(bad(format!("hnsw degree bound m = {} below minimum 2", self.m)));
        }
        if self.ef_construction < self.m {
            return Err(bad("hnsw ef_construction below m"));
        }
        if !self.phi2.is_finite() || self.phi2 < 0.0 {
            return Err(bad("hnsw Φ² must be finite and non-negative"));
        }
        if self.vecs.len() != self.n_items * self.dim {
            return Err(bad("hnsw vector store length mismatch"));
        }
        if self.vecs.iter().any(|v| !v.is_finite()) {
            return Err(bad("hnsw vector store contains nonfinite values"));
        }
        if self.tails.len() != self.n_items {
            return Err(bad("hnsw tails length mismatch"));
        }
        if self.tails.iter().any(|t| !t.is_finite() || *t < 0.0) {
            return Err(bad("hnsw tails must be finite and non-negative"));
        }
        if self.levels.len() != self.n_items || self.links.len() != self.n_items {
            return Err(bad("hnsw level/link arrays do not cover the catalog"));
        }
        if self.n_items == 0 {
            if self.entry != NO_ENTRY || self.max_level != 0 {
                return Err(bad("empty hnsw graph carries an entry point"));
            }
            return Ok(());
        }
        if self.entry as usize >= self.n_items {
            return Err(bad(format!("hnsw entry point {} out of range", self.entry)));
        }
        let top = self.levels.iter().copied().max().unwrap_or(0);
        if self.max_level != top || self.levels[self.entry as usize] != top {
            return Err(bad("hnsw entry point is not at the maximal level"));
        }
        for (id, (lists, &level)) in self.links.iter().zip(&self.levels).enumerate() {
            if level > MAX_LEVEL {
                return Err(bad(format!("hnsw node {id} level {level} above ceiling")));
            }
            if lists.len() != level as usize + 1 {
                return Err(bad(format!("hnsw node {id} link arrays contradict its level")));
            }
            for (lev, lst) in lists.iter().enumerate() {
                let cap = if lev == 0 { 2 * self.m } else { self.m };
                if lst.len() > cap {
                    return Err(bad(format!("hnsw node {id} exceeds its level-{lev} degree cap")));
                }
                for (pos, &nb) in lst.iter().enumerate() {
                    if nb as usize >= self.n_items {
                        return Err(bad(format!("hnsw neighbor {nb} out of range")));
                    }
                    if nb as usize == id {
                        return Err(bad(format!("hnsw node {id} links to itself")));
                    }
                    if (self.levels[nb as usize] as usize) < lev {
                        return Err(bad(format!(
                            "hnsw node {id} links to {nb} above that node's level"
                        )));
                    }
                    if lst[..pos].contains(&nb) {
                        return Err(bad(format!("hnsw node {id} holds duplicate neighbor {nb}")));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the graph into the named `ann.hnsw.*` sections of `ck`,
    /// alongside whatever (artifact) sections it already holds.
    pub fn add_to_checkpoint(&self, ck: &mut Checkpoint) {
        let mut meta = Encoder::new();
        meta.put_u32(HNSW_VERSION);
        meta.put_u64(self.seed);
        meta.put_u64(self.m as u64);
        meta.put_u64(self.ef_construction as u64);
        meta.put_u64(self.dim as u64);
        meta.put_u64(self.n_items as u64);
        meta.put_u64(self.phi2.to_bits());
        meta.put_u32(self.entry);
        meta.put_u32(self.max_level);
        ck.insert(SEC_HNSW_META, meta.into_bytes());
        let mut ve = Encoder::new();
        ve.put_tensor(&Tensor::from_vec(self.n_items, self.dim, self.vecs.clone()));
        ve.put_u64(self.tails.len() as u64);
        for &t in &self.tails {
            ve.put_f32(t);
        }
        ck.insert(SEC_HNSW_VECS, ve.into_bytes());
        let mut le = Encoder::new();
        le.put_u32s(&self.levels);
        ck.insert(SEC_HNSW_LEVELS, le.into_bytes());
        // Adjacency, flattened level-major per node: for every node, for
        // every level 0..=levels[id], a count then that many neighbor ids —
        // insertion order preserved verbatim (it is part of the identity).
        let mut flat: Vec<u32> = Vec::new();
        for lists in &self.links {
            for lst in lists {
                flat.push(lst.len() as u32);
                flat.extend_from_slice(lst);
            }
        }
        let mut ge = Encoder::new();
        ge.put_u32s(&flat);
        ck.insert(SEC_HNSW_LINKS, ge.into_bytes());
    }

    /// Decodes and validates the `ann.hnsw.*` sections of `ck`, resolving
    /// each name through the container's committed generation (if any).
    /// `Ok(None)` when the container carries no graph; any malformed,
    /// truncated, or semantically invalid section is an error — nothing
    /// partial escapes.
    pub fn from_checkpoint(ck: &Checkpoint) -> io::Result<Option<Self>> {
        let Some(meta_bytes) = ck.resolve(SEC_HNSW_META) else {
            return Ok(None);
        };
        let mut meta = Decoder::new(meta_bytes);
        let version = meta.u32()?;
        if version != HNSW_VERSION {
            return Err(bad(format!("unsupported hnsw index version {version}")));
        }
        let seed = meta.u64()?;
        let m = meta.u64()? as usize;
        let ef_construction = meta.u64()? as usize;
        let dim = meta.u64()? as usize;
        let n_items = meta.u64()? as usize;
        let phi2 = f64::from_bits(meta.u64()?);
        let entry = meta.u32()?;
        let max_level = meta.u32()?;
        meta.finish()?;
        if dim == 0 {
            return Err(bad("zero-dim hnsw index"));
        }
        let mut ve = Decoder::new(ck.require_resolved(SEC_HNSW_VECS)?);
        let vt = ve.tensor()?;
        if vt.shape() != (n_items, dim) {
            return Err(bad(format!(
                "hnsw vector store shape {:?} contradicts meta ({n_items}, {dim})",
                vt.shape()
            )));
        }
        let nt = ve.u64()? as usize;
        // Overflow-proof form of `4 * nt > remaining` (tails are 4-byte f32s).
        if nt > ve.remaining() / 4 {
            return Err(bad("hnsw tails exceed remaining section bytes"));
        }
        let mut tails = Vec::with_capacity(nt);
        for _ in 0..nt {
            tails.push(ve.f32()?);
        }
        ve.finish()?;
        let mut le = Decoder::new(ck.require_resolved(SEC_HNSW_LEVELS)?);
        let levels = le.u32s()?;
        le.finish()?;
        if levels.len() != n_items {
            return Err(bad("hnsw levels do not cover the catalog"));
        }
        let mut ge = Decoder::new(ck.require_resolved(SEC_HNSW_LINKS)?);
        let flat = ge.u32s()?;
        ge.finish()?;
        let mut links = Vec::with_capacity(n_items);
        let mut cursor = 0usize;
        for &level in &levels {
            if level > MAX_LEVEL {
                return Err(bad(format!("hnsw level {level} above ceiling")));
            }
            let mut lists = Vec::with_capacity(level as usize + 1);
            for _ in 0..=level {
                let count =
                    *flat.get(cursor).ok_or_else(|| bad("hnsw adjacency stream truncated"))?
                        as usize;
                cursor += 1;
                if cursor + count > flat.len() {
                    return Err(bad("hnsw adjacency stream truncated"));
                }
                lists.push(flat[cursor..cursor + count].to_vec());
                cursor += count;
            }
            links.push(lists);
        }
        if cursor != flat.len() {
            return Err(bad("hnsw adjacency stream carries trailing data"));
        }
        let idx = Self {
            dim,
            n_items,
            seed,
            m,
            ef_construction,
            phi2,
            vecs: vt.as_slice().to_vec(),
            tails,
            levels,
            links,
            entry,
            max_level,
            scratch: GraphSearch::default(),
        };
        idx.validate()?;
        Ok(Some(idx))
    }
}

impl crate::index::AnnIndex for HnswIndex {
    fn kind(&self) -> AnnKind {
        AnnKind::Hnsw
    }

    fn n_items(&self) -> usize {
        self.n_items()
    }

    fn dim(&self) -> usize {
        self.dim()
    }

    fn probe(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut crate::ivf::ProbeScratch,
    ) {
        HnswIndex::probe(self, query, items, mask, k, nprobe, scratch);
    }

    fn insert(&mut self, id: u32, embedding: &[f32]) -> io::Result<()> {
        HnswIndex::insert(self, id, embedding)
    }

    fn save_sections(&self, ck: &mut Checkpoint) {
        self.add_to_checkpoint(ck);
    }

    fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        cfg.kind == AnnKind::Hnsw && HnswIndex::matches(self, cfg, n_items, dim, seed)
    }
}
