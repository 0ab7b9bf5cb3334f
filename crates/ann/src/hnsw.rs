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
//! copy of the query is ever materialized.
//!
//! ## Memory model and adjacency layout
//!
//! The index holds structure, not vectors. Every call that measures a
//! distance — build, [`HnswIndex::insert`], probe, checkpoint load — takes
//! the item table the caller serves from (the artifact's `item_emb`) and
//! reads node `id`'s coordinates as row `id` of it, so a serving generation
//! holds its catalogue once. The one per-node geometry the index keeps is
//! the augmentation tail, a function of the row and the frozen `Φ²`, which
//! a load recomputes from the table instead of reading it. Items fold once
//! (`imcat-serve`), so the rows under the graph never change while it lives.
//! Next to the tails sits the adjacency, in two shapes:
//!
//! - **Level 0**, which every node has and where a probe spends nearly all
//!   of its time, is flat `u32` rows with a fixed stride of `2m + 2` words
//!   per node: a neighbour count, then `2m + 1` slots — the `2m` degree cap
//!   plus room for the one transient overflow link that triggers a
//!   re-selection. Expanding a node is one contiguous read, not three
//!   dependent pointer loads through nested `Vec`s. The rows sit in
//!   fixed-size blocks of `BLOCK_NODES` (512) nodes (one small, always-cached
//!   table of block pointers in front): a streamed insert past the last
//!   block allocates one more block and never moves a row. A single array
//!   would have to be copied whole when it outgrows its capacity — on the
//!   first insert after a build — and that copy made peak RSS depend on
//!   where the allocator found room.
//! - **Upper levels** (a node reaches level `l ≥ 1` with probability
//!   `m^-l`, ~6 % of nodes at `m = 16`) stay nested: `upper[id][l − 1]`.
//!
//! Per node that is 4 (tail) + 4 (level) + `4·(2m + 2)` (level 0) + 24 (the
//! empty upper-level `Vec` most nodes carry) bytes, plus the rare upper lists
//! and the unused rows of the last block: ~168 B at `m = 16`, whatever the
//! dimension. The persisted `ann.hnsw.links` stream is the same per-node,
//! level-major list it always was; the rows are only how memory holds it.
//!
//! ## Batched scoring keeps the traversal order
//!
//! Every distance goes through `imcat_simd::l2_sq_gather`, which returns
//! `l2_sq`'s own bits per pair, and the `dt²` tail is added after it exactly
//! as before, so a batch changes how fast a distance is computed, never its
//! value. Expanding a node collects its unvisited neighbours *in link order*
//! (marking them visited as before), scores them with one gather call, then
//! offers them to the result set in that same order — the pushes, evictions
//! and frontier contents of one-at-a-time scoring, so the final candidates
//! and the `hops` / `visited` counts are unchanged by construction. (Link
//! order is the simple choice, not a fragile one: the result set after a
//! batch is the best `ef` of it plus the batch in any order, and the extra
//! frontier entry another order can leave — a node accepted, then evicted
//! within the batch — sorts behind the worst result, so it can only end the
//! search, never be expanded.) The greedy descent (a minimum over the
//! batch), the diversity check of the neighbour selection (groups of four,
//! stopping at the first group with a violation) and the degree-overflow
//! re-selection score the same way.
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
//! Three versioned sections — `ann.hnsw.meta` / `ann.hnsw.levels` /
//! `ann.hnsw.links` — ride the artifact container with the same
//! all-or-nothing discipline as `ann.*`: decode re-validates every
//! structural invariant (degree bound and caps, id ranges, level
//! monotonicity, entry point identity) and checks the graph against the item
//! table it will serve (dimension, coverage, finite rows), and any violation
//! rejects the whole index, which the engine then rebuilds under `.prev`
//! rotation. The degree bound is checked before it sizes anything. Version 1
//! carried a fourth section, `ann.hnsw.vecs`, with the index's own copy of
//! the vectors and tails; a version-1 container is refused and rebuilt.

use std::cmp::Reverse;
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
/// Section holding the per-node top level.
pub const SEC_HNSW_LEVELS: &str = "ann.hnsw.levels";
/// Section holding the adjacency lists, flattened level-major per node.
pub const SEC_HNSW_LINKS: &str = "ann.hnsw.links";

/// Format version inside [`SEC_HNSW_META`]. Bumps reject-and-rebuild.
/// Version 2 dropped the `ann.hnsw.vecs` vector copy: the graph reads the
/// caller's item table.
const HNSW_VERSION: u32 = 2;
/// Hard ceiling on node levels: a level-30 node implies ~`16^30` items.
const MAX_LEVEL: u32 = 30;
/// Sentinel entry point of an empty graph.
const NO_ENTRY: u32 = u32::MAX;
/// The degree bounds a graph may have: what
/// [`AnnConfig::resolved_m`] clamps to, and what decode accepts.
pub(crate) const M_RANGE: std::ops::RangeInclusive<usize> = 2..=128;
/// Nodes per level-0 block (a power of two, so locating a row is a shift
/// and a mask): 70 KiB of rows at `m = 16`, so the spare rows of a graph's
/// last block stay a small fraction of it.
const BLOCK_NODES: usize = 512;
/// Neighbours the diversity check scores per gather call.
const DIVERSITY_GROUP: usize = 4;

/// `(distance, id)` under the canonical total order: distance ascending
/// (`total_cmp`, so NaN sorts deterministically too), ties to the lower id.
/// Everything the search touches — frontier pops, worst-result eviction,
/// final ordering — goes through this `Ord`, which is what makes graph
/// traversal bit-deterministic.
///
/// Packed into one `u64` whose integer order *is* that order: the high half
/// is the distance's `total_cmp` key (the sign-magnitude bits turned two's
/// complement, then offset to unsigned), the low half the id. A heap
/// comparison is then one integer compare instead of two branches, and the
/// distance comes back out bit for bit (the key map is a bijection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DistId(u64);

impl DistId {
    #[inline]
    fn new(d: f32, id: u32) -> Self {
        // `f32::total_cmp`'s own key: flip the magnitude bits of negatives.
        let bits = d.to_bits() as i32;
        let key = bits ^ (((bits >> 31) as u32) >> 1) as i32;
        Self(u64::from((key as u32) ^ (1 << 31)) << 32 | u64::from(id))
    }

    #[inline]
    fn d(self) -> f32 {
        let key = ((self.0 >> 32) as u32 ^ (1 << 31)) as i32;
        f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
    }

    #[inline]
    fn id(self) -> u32 {
        self.0 as u32
    }
}

/// Immutable view of the graph geometry a traversal needs: the item table's
/// rows (row-major, `dim` per node), the augmentation tails, and the query
/// point (`qtail = 0` for real queries, the node's own tail during
/// construction).
struct Ctx<'a> {
    vecs: &'a [f32],
    tails: &'a [f32],
    q: &'a [f32],
    qtail: f32,
}

impl<'a> Ctx<'a> {
    /// The query anchored at stored node `id`: distances between items, as
    /// construction measures them.
    fn at_node(vecs: &'a [f32], tails: &'a [f32], dim: usize, id: u32) -> Self {
        let i = id as usize;
        Ctx { vecs, tails, q: &vecs[i * dim..(i + 1) * dim], qtail: tails[i] }
    }

    /// Squared augmented-L2 distance from the query to item `id`.
    #[inline]
    fn dist(&self, id: u32) -> f32 {
        let i = id as usize;
        let dim = self.q.len();
        let dt = self.qtail - self.tails[i];
        imcat_simd::l2_sq(self.q, &self.vecs[i * dim..(i + 1) * dim]) + dt * dt
    }

    /// [`Ctx::dist`] of every id into `out` (one gather call; the same bits
    /// pair for pair).
    #[inline]
    fn dists(&self, ids: &[u32], out: &mut [f32]) {
        imcat_simd::l2_sq_gather(self.q, self.vecs, ids, out);
        for (o, &id) in out.iter_mut().zip(ids) {
            let dt = self.qtail - self.tails[id as usize];
            *o += dt * dt;
        }
    }

    /// [`Ctx::dists`] into a reused buffer, sized to `ids`.
    #[inline]
    fn dists_into<'b>(&self, ids: &[u32], buf: &'b mut Vec<f32>) -> &'b [f32] {
        buf.resize(ids.len(), 0.0);
        self.dists(ids, buf);
        buf
    }
}

/// Graph adjacency: level 0 as fixed-stride rows in fixed-size blocks, upper
/// levels nested (layout and reasoning in the module docs). Insertion order
/// is kept at every level — it is part of the deterministic build and is
/// persisted verbatim.
#[derive(Clone, Debug)]
struct Links {
    /// Words per level-0 row: a count, then `2m + 1` neighbour slots.
    stride: usize,
    /// Level-0 rows, [`BLOCK_NODES`] per block: node `id`'s row is
    /// `base[id / BLOCK_NODES][(id % BLOCK_NODES) * stride..][..stride]`.
    base: Vec<Box<[u32]>>,
    /// `upper[id][l - 1]` = node `id`'s level-`l` list; `upper[id].len()` is
    /// the node's level.
    upper: Vec<Vec<Vec<u32>>>,
}

impl Links {
    /// An empty adjacency for degree bound `m`, with room for `nodes`.
    fn with_capacity(m: usize, nodes: usize) -> Self {
        let base = Vec::with_capacity(nodes.div_ceil(BLOCK_NODES));
        Self { stride: 2 * m + 2, base, upper: Vec::with_capacity(nodes) }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.upper.len()
    }

    /// Appends a node of top level `level` with every list empty.
    fn push_node(&mut self, level: u32) {
        if self.upper.len() == self.base.len() * BLOCK_NODES {
            self.base.push(vec![0; BLOCK_NODES * self.stride].into_boxed_slice());
        }
        self.upper.push(vec![Vec::new(); level as usize]);
    }

    /// Node `id`'s level-0 row: the count, then the slots.
    #[inline]
    fn row(&self, id: u32) -> &[u32] {
        let i = id as usize;
        &self.base[i / BLOCK_NODES][i % BLOCK_NODES * self.stride..][..self.stride]
    }

    #[inline]
    fn row_mut(&mut self, id: u32) -> &mut [u32] {
        let i = id as usize;
        &mut self.base[i / BLOCK_NODES][i % BLOCK_NODES * self.stride..][..self.stride]
    }

    /// Node `id`'s neighbours at `level`, in insertion order.
    #[inline]
    fn get(&self, id: u32, level: usize) -> &[u32] {
        if level == 0 {
            let row = self.row(id);
            &row[1..=row[0] as usize]
        } else {
            &self.upper[id as usize][level - 1]
        }
    }

    /// Appends `nb` to node `id`'s list at `level`; returns the new length.
    /// At level 0 the list may reach `2m + 1` (one past the cap) and no
    /// further — the caller re-selects an overflowing list at once.
    fn push(&mut self, id: u32, level: usize, nb: u32) -> usize {
        if level == 0 {
            let row = self.row_mut(id);
            let len = row[0] as usize + 1;
            row[len] = nb;
            row[0] = len as u32;
            len
        } else {
            let lst = &mut self.upper[id as usize][level - 1];
            lst.push(nb);
            lst.len()
        }
    }

    /// Replaces node `id`'s list at `level` with `nbs` (at level 0, at most
    /// `2m + 1` of them).
    fn set(&mut self, id: u32, level: usize, nbs: &[u32]) {
        if level == 0 {
            let row = self.row_mut(id);
            row[1..=nbs.len()].copy_from_slice(nbs);
            row[0] = nbs.len() as u32;
        } else {
            let lst = &mut self.upper[id as usize][level - 1];
            lst.clear();
            lst.extend_from_slice(nbs);
        }
    }

    /// Hints the cache to fetch node `id`'s level-0 row ahead of its
    /// expansion (x86_64 only; a no-op elsewhere). Never reads through the
    /// hint; an id out of range is ignored.
    #[inline]
    fn prefetch(&self, id: u32) {
        let i = id as usize;
        let Some(row) =
            self.base.get(i / BLOCK_NODES).and_then(|b| b.get(i % BLOCK_NODES * self.stride..))
        else {
            return;
        };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a hint — it never faults and reads
        // nothing the program observes — and the pointer is the start of a
        // live slice of a block. SSE is part of the x86_64 baseline.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(row.as_ptr() as *const i8);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = row;
    }
}

/// The heuristic neighbor selection of the HNSW paper (algorithm 4):
/// walk `cands` in canonical `(dist asc, id asc)` order, keep a candidate
/// only if it is strictly closer to the query than to every neighbor already
/// kept (so the kept set spreads across directions instead of clustering),
/// then fill any remaining capacity from the pruned ones in the same order
/// (`keepPrunedConnections` — it keeps duplicate-heavy catalogs connected:
/// all-equal distances never prune). The kept neighbours are scored against
/// a candidate [`DIVERSITY_GROUP`] at a time, and the check stops at the
/// first group holding a violation — the same verdict as stopping at the
/// violation itself, since every distance is what a lone call returns.
/// `pruned` is scratch for the set-aside candidates.
fn select_neighbors(
    vecs: &[f32],
    tails: &[f32],
    dim: usize,
    cands: &[DistId],
    cap: usize,
    out: &mut Vec<u32>,
    pruned: &mut Vec<u32>,
) {
    out.clear();
    pruned.clear();
    let mut group = [0.0f32; DIVERSITY_GROUP];
    for &e in cands {
        if out.len() >= cap {
            break;
        }
        let (d, c) = (e.d(), e.id());
        let ctx = Ctx::at_node(vecs, tails, dim, c);
        let diversified = out.chunks(DIVERSITY_GROUP).all(|kept| {
            let ds = &mut group[..kept.len()];
            ctx.dists(kept, ds);
            ds.iter().all(|&x| x >= d)
        });
        if diversified {
            out.push(c);
        } else {
            pruned.push(c);
        }
    }
    for &c in pruned.iter() {
        if out.len() >= cap {
            break;
        }
        out.push(c);
    }
}

/// Reusable graph-traversal state: visited stamps, the best-first frontier
/// (min-heap), the bounded result set (max-heap of size `ef`), the batch
/// buffers, and the drained, canonically ordered output. One per probe
/// scratch (and one kept inside the index for construction/inserts); reuse
/// never changes results — stamps invalidate wholesale, heaps and buffers are
/// cleared per search.
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphSearch {
    /// Per-node visited stamp; a node is visited iff `seen[id] == stamp`.
    stamp: u32,
    seen: Vec<u32>,
    /// Frontier, popped nearest-first (canonical order via `DistId`).
    cand: BinaryHeap<Reverse<DistId>>,
    /// Running best `ef` results, worst on top for O(log ef) eviction.
    found: BinaryHeap<DistId>,
    /// Unvisited neighbours of the node being expanded, in link order.
    batch: Vec<u32>,
    /// Distances aligned with `batch` (or with a greedy step's neighbours).
    dists: Vec<f32>,
    /// Result of the last `search_layer`, in canonical order.
    out: Vec<DistId>,
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

    /// Greedy descent at one level: repeatedly move to the canonically
    /// smallest `(dist, id)` among the current node's neighbors until no
    /// neighbor improves on the current position. Moving strictly decreases
    /// the canonical pair, so the walk terminates; scanning every neighbor
    /// before moving makes the result independent of link storage order.
    fn greedy(&mut self, ctx: &Ctx<'_>, links: &Links, level: usize, start: DistId) -> DistId {
        let mut best = start;
        loop {
            self.hops += 1;
            let nbs = links.get(best.id(), level);
            self.visited += nbs.len() as u64;
            let here = best;
            for (&nb, &d) in nbs.iter().zip(ctx.dists_into(nbs, &mut self.dists)) {
                best = best.min(DistId::new(d, nb));
            }
            if best == here {
                return best;
            }
        }
    }

    /// Best-first beam search at one level from entry points `eps`
    /// (pre-scored), keeping the `ef` canonically best nodes seen. Leaves
    /// the results in `self.out`, best first.
    fn search_layer(
        &mut self,
        ctx: &Ctx<'_>,
        links: &Links,
        level: usize,
        ef: usize,
        eps: &[DistId],
    ) {
        self.reset_marks(links.len());
        let Self { stamp, seen, cand, found, batch, dists, out, hops, visited, .. } = self;
        let stamp = *stamp;
        cand.clear();
        found.clear();
        for &e in eps {
            let slot = &mut seen[e.id() as usize];
            if *slot != stamp {
                *slot = stamp;
                offer(found, cand, e, ef);
            }
        }
        while let Some(Reverse(c)) = cand.pop() {
            if found.len() >= ef {
                let worst = *found.peek().expect("found nonempty when full");
                if worst < c {
                    break;
                }
            }
            if let Some(Reverse(next)) = cand.peek() {
                links.prefetch(next.id());
            }
            *hops += 1;
            batch.clear();
            for &nb in links.get(c.id(), level) {
                let slot = &mut seen[nb as usize];
                if *slot != stamp {
                    *slot = stamp;
                    batch.push(nb);
                }
            }
            *visited += batch.len() as u64;
            for (&id, &d) in batch.iter().zip(ctx.dists_into(batch, dists)) {
                offer(found, cand, DistId::new(d, id), ef);
            }
        }
        // The set `found` holds is what the search produced; sorting it is
        // the pop order reversed, without a sift per element.
        out.clear();
        out.extend(found.drain());
        out.sort_unstable();
    }
}

/// Offers one scored node to the bounded result set (and, if accepted, to
/// the frontier). Eviction compares through the canonical total order, so
/// ties break to the lower id deterministically; replacing the worst in
/// place leaves the same set as a pop and a push.
#[inline]
fn offer(
    found: &mut BinaryHeap<DistId>,
    cand: &mut BinaryHeap<Reverse<DistId>>,
    e: DistId,
    ef: usize,
) {
    if found.len() < ef {
        found.push(e);
        cand.push(Reverse(e));
    } else if let Some(mut worst) = found.peek_mut() {
        if e < *worst {
            *worst = e;
            cand.push(Reverse(e));
        }
    }
}

/// Reusable buffers of [`HnswIndex::link_node`]: the search itself, then
/// the per-level entry points, selections and overflow re-selection.
#[derive(Clone, Debug, Default)]
struct LinkScratch {
    search: GraphSearch,
    eps: Vec<DistId>,
    sel: Vec<u32>,
    kept: Vec<u32>,
    /// An overflowing list, scored from its owner.
    cands: Vec<DistId>,
    pruned: Vec<u32>,
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
    /// Per-item augmentation tails `sqrt(Φ² − ‖x‖²)` of the table's rows.
    tails: Vec<f32>,
    /// Per-item top level.
    levels: Vec<u32>,
    /// The adjacency lists of every node at every level it has.
    links: Links,
    /// Entry node ([`NO_ENTRY`] when the graph is empty). Always a node of
    /// the maximal level.
    entry: u32,
    /// Level of the entry node (0 when empty).
    max_level: u32,
    /// Construction scratch, reused across inserts. Not part of the
    /// persisted identity.
    scratch: LinkScratch,
}

impl HnswIndex {
    /// Builds the graph by inserting every item in ascending id order
    /// through the same greedy-search + link path streamed inserts use.
    /// Deterministic: the loop is serial (nothing in it fans out), so the
    /// same `(items, cfg, seed)` produces a bit-identical graph at any
    /// `IMCAT_THREADS` setting. The graph keeps no copy of `items`: later
    /// probes and inserts must pass the same table (grown, never changed).
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
            tails: Vec::with_capacity(n_items),
            levels: Vec::with_capacity(n_items),
            links: Links::with_capacity(m, n_items),
            entry: NO_ENTRY,
            max_level: 0,
            scratch: LinkScratch::default(),
        };
        for &n2 in &norms2 {
            idx.push_node(items.as_slice(), mips_tail(phi2, n2));
        }
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

    /// Appends the next node (tail, level, empty lists) and links it into
    /// the graph, reading coordinates from `vecs`, the item table's rows. The
    /// single write path shared by [`HnswIndex::build`] and
    /// [`HnswIndex::insert`].
    fn push_node(&mut self, vecs: &[f32], tail: f32) {
        let id = self.n_items as u32;
        let level = Self::level_for(self.seed, id, self.m);
        self.tails.push(tail);
        self.levels.push(level);
        self.links.push_node(level);
        self.n_items += 1;
        self.link_node(vecs, id);
    }

    /// Wires node `id` into the graph: greedy-descend the layers above its
    /// level, then per layer from its level down run an
    /// `ef_construction`-wide beam, pick up to `m` diversified forward
    /// neighbors, and add the reverse links (re-selecting any neighbor whose
    /// list overflows its degree cap).
    fn link_node(&mut self, vecs: &[f32], id: u32) {
        let Self {
            dim, m, ef_construction, tails, levels, links, entry, max_level, scratch, ..
        } = self;
        let (dim, m, efc) = (*dim, *m, *ef_construction);
        let tails: &[f32] = tails;
        let node_level = levels[id as usize];
        if *entry == NO_ENTRY {
            *entry = id;
            *max_level = node_level;
            return;
        }
        let LinkScratch { search, eps, sel, kept, cands, pruned } = scratch;
        let ctx = Ctx::at_node(vecs, tails, dim, id);
        let mut ep = DistId::new(ctx.dist(*entry), *entry);
        let mut lev = *max_level;
        while lev > node_level {
            ep = search.greedy(&ctx, links, lev as usize, ep);
            lev -= 1;
        }
        eps.clear();
        eps.push(ep);
        for lev in (0..=node_level.min(*max_level)).rev() {
            let lev = lev as usize;
            search.search_layer(&ctx, links, lev, efc, eps);
            select_neighbors(vecs, tails, dim, &search.out, m, sel, pruned);
            let cap = if lev == 0 { 2 * m } else { m };
            for &nb in sel.iter() {
                if links.push(nb, lev, id) > cap {
                    // Degree overflow: re-run the selection heuristic from
                    // the neighbor's point of view over its whole list.
                    let lst = links.get(nb, lev);
                    let owner = Ctx::at_node(vecs, tails, dim, nb);
                    let ds = owner.dists_into(lst, &mut search.dists);
                    cands.clear();
                    cands.extend(lst.iter().zip(ds).map(|(&x, &d)| DistId::new(d, x)));
                    cands.sort_unstable();
                    select_neighbors(vecs, tails, dim, cands, cap, kept, pruned);
                    links.set(nb, lev, kept);
                }
            }
            links.set(id, lev, sel);
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
    /// Ids stay dense: `id` must equal the current catalog size, and the
    /// embedding is row `id` of `items` — the table the graph was built over,
    /// grown by the rows inserted since.
    pub fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()> {
        let embedding = check_insert(self.dim, self.n_items, id, items)?;
        let tail = mips_tail(self.phi2, norm2(embedding));
        self.push_node(items.as_slice(), tail);
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
        let ctx = Ctx { vecs: items.as_slice(), tails: &self.tails, q: query, qtail: 0.0 };
        let mut ep = DistId::new(ctx.dist(self.entry), self.entry);
        for lev in (1..=self.max_level).rev() {
            ep = search.greedy(&ctx, &self.links, lev as usize, ep);
        }
        search.search_layer(&ctx, &self.links, 0, ef, &[ep]);
        let mut ids = std::mem::take(&mut search.ids);
        ids.clear();
        ids.extend(search.out.iter().map(|e| e.id()));
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
    /// a degree bound in range, consistent array lengths, finite tails,
    /// levels under the ceiling, degree caps respected, neighbor ids in range
    /// / non-self / reachable at their level, and a coherent entry point.
    /// Decode goes through this (after checking the item table), so a graph
    /// that loads is a graph the engine can trust blindly.
    pub fn validate(&self) -> io::Result<()> {
        if !M_RANGE.contains(&self.m) {
            return Err(bad(format!("hnsw degree bound m = {} outside {M_RANGE:?}", self.m)));
        }
        if self.ef_construction < self.m {
            return Err(bad("hnsw ef_construction below m"));
        }
        if !self.phi2.is_finite() || self.phi2 < 0.0 {
            return Err(bad("hnsw Φ² must be finite and non-negative"));
        }
        if self.tails.len() != self.n_items {
            return Err(bad("hnsw tails length mismatch"));
        }
        if self.tails.iter().any(|t| !t.is_finite() || *t < 0.0) {
            return Err(bad("hnsw tails must be finite and non-negative"));
        }
        if self.levels.len() != self.n_items
            || self.links.len() != self.n_items
            || self.links.stride != 2 * self.m + 2
        {
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
        for (id, &level) in self.levels.iter().enumerate() {
            if level > MAX_LEVEL {
                return Err(bad(format!("hnsw node {id} level {level} above ceiling")));
            }
            if self.links.upper[id].len() != level as usize {
                return Err(bad(format!("hnsw node {id} link arrays contradict its level")));
            }
            for lev in 0..=level as usize {
                let lst = self.links.get(id as u32, lev);
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
        let mut le = Encoder::new();
        le.put_u32s(&self.levels);
        ck.insert(SEC_HNSW_LEVELS, le.into_bytes());
        // Adjacency, flattened level-major per node: for every node, for
        // every level 0..=levels[id], a count then that many neighbor ids —
        // insertion order preserved verbatim (it is part of the identity).
        let mut flat: Vec<u32> = Vec::new();
        for (id, &level) in self.levels.iter().enumerate() {
            for lev in 0..=level as usize {
                let lst = self.links.get(id as u32, lev);
                flat.push(lst.len() as u32);
                flat.extend_from_slice(lst);
            }
        }
        let mut ge = Encoder::new();
        ge.put_u32s(&flat);
        ck.insert(SEC_HNSW_LINKS, ge.into_bytes());
    }

    /// Decodes and validates the `ann.hnsw.*` sections of `ck`, resolving
    /// each name through the container's committed generation (if any),
    /// against `items`, the table the graph will serve: it must have the
    /// graph's dimension, cover its nodes (it may run ahead of them, as
    /// during streaming) with finite rows, and the tails are recomputed from
    /// those rows and the persisted `Φ²`. `Ok(None)` when the container
    /// carries no graph; any malformed, truncated, or semantically invalid
    /// section — a version-1 container included — is an error, nothing
    /// partial escapes.
    pub fn from_checkpoint(ck: &Checkpoint, items: &Tensor) -> io::Result<Option<Self>> {
        let Some(meta_bytes) = ck.resolve(SEC_HNSW_META) else {
            return Ok(None);
        };
        let mut meta = Decoder::new(meta_bytes);
        let version = meta.u32()?;
        if version != HNSW_VERSION {
            return Err(bad(format!("unsupported hnsw index version {version}")));
        }
        let seed = meta.u64()?;
        let m = meta.u64()?;
        let ef_construction = meta.u64()? as usize;
        let dim = meta.u64()? as usize;
        let n_items = meta.u64()? as usize;
        let phi2 = f64::from_bits(meta.u64()?);
        let entry = meta.u32()?;
        let max_level = meta.u32()?;
        meta.finish()?;
        // Before `m` sizes the adjacency (or overflows `2 * m`).
        let m = usize::try_from(m)
            .ok()
            .filter(|m| M_RANGE.contains(m))
            .ok_or_else(|| bad(format!("hnsw degree bound m = {m} outside {M_RANGE:?}")))?;
        if dim == 0 {
            return Err(bad("zero-dim hnsw index"));
        }
        if items.cols() != dim || items.rows() < n_items {
            return Err(bad(format!(
                "hnsw graph of ({n_items}, {dim}) does not fit item table {:?}",
                items.shape()
            )));
        }
        let rows = &items.as_slice()[..n_items * dim];
        if rows.iter().any(|v| !v.is_finite()) {
            return Err(bad("hnsw item table contains nonfinite values"));
        }
        let tails = rows.chunks_exact(dim).map(|row| mips_tail(phi2, norm2(row))).collect();
        let mut le = Decoder::new(ck.require_resolved(SEC_HNSW_LEVELS)?);
        let levels = le.u32s()?;
        le.finish()?;
        if levels.len() != n_items {
            return Err(bad("hnsw levels do not cover the catalog"));
        }
        let mut ge = Decoder::new(ck.require_resolved(SEC_HNSW_LINKS)?);
        let flat = ge.u32s()?;
        ge.finish()?;
        let links = Links::from_stream(&flat, &levels, m)?;
        let idx = Self {
            dim,
            n_items,
            seed,
            m,
            ef_construction,
            phi2,
            tails,
            levels,
            links,
            entry,
            max_level,
            scratch: LinkScratch::default(),
        };
        idx.validate()?;
        Ok(Some(idx))
    }
}

impl Links {
    /// The adjacency the persisted stream describes: for every node of
    /// `levels`, for every level it has, a count then that many ids. The
    /// stream must hold a count per node per level before anything is
    /// allocated, and every count must fit its degree cap before it is
    /// copied into the fixed-stride rows; ids are left to
    /// [`HnswIndex::validate`].
    fn from_stream(flat: &[u32], levels: &[u32], m: usize) -> io::Result<Self> {
        let mut counts = 0usize;
        for &level in levels {
            if level > MAX_LEVEL {
                return Err(bad(format!("hnsw level {level} above ceiling")));
            }
            counts += level as usize + 1;
        }
        if counts > flat.len() {
            return Err(bad("hnsw adjacency stream truncated"));
        }
        let mut links = Self::with_capacity(m, levels.len());
        let mut cursor = 0usize;
        for (id, &level) in levels.iter().enumerate() {
            links.push_node(level);
            for lev in 0..=level as usize {
                let count =
                    *flat.get(cursor).ok_or_else(|| bad("hnsw adjacency stream truncated"))?
                        as usize;
                cursor += 1;
                if count > if lev == 0 { 2 * m } else { m } {
                    return Err(bad(format!("hnsw node {id} exceeds its level-{lev} degree cap")));
                }
                let lst = flat
                    .get(cursor..cursor + count)
                    .ok_or_else(|| bad("hnsw adjacency stream truncated"))?;
                links.set(id as u32, lev, lst);
                cursor += count;
            }
        }
        if cursor != flat.len() {
            return Err(bad("hnsw adjacency stream carries trailing data"));
        }
        Ok(links)
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

    fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()> {
        HnswIndex::insert(self, id, items)
    }

    fn save_sections(&self, ck: &mut Checkpoint) {
        self.add_to_checkpoint(ck);
    }

    fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        cfg.kind == AnnKind::Hnsw && HnswIndex::matches(self, cfg, n_items, dim, seed)
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::{Ctx, DistId};

    /// The unpacked order, kept as the oracle: `total_cmp` on the distance,
    /// ties to the lower id.
    fn oracle(a: (f32, u32), b: (f32, u32)) -> Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    /// A batch of graph distances is the one-at-a-time expression, bit for
    /// bit: `l2_sq(q, x) + dt * dt`, with `dt²` rounded on its own before
    /// the add — from a stored node and from a query, over ids in any order.
    #[test]
    fn batched_distances_are_the_per_pair_expression() {
        let (dim, n) = (13, 40);
        let vecs: Vec<f32> =
            (0..n * dim).map(|i| ((i * 7919) % 2001) as f32 / 1000.0 - 1.0).collect();
        let tails: Vec<f32> = (0..n).map(|i| ((i * 104_729) % 997) as f32 / 997.0 * 3.0).collect();
        let ids: Vec<u32> = (0..n as u32).rev().chain([5, 5, 0]).collect();
        let query = Ctx { vecs: &vecs, tails: &tails, q: &vecs[..dim], qtail: 0.0 };
        for ctx in [Ctx::at_node(&vecs, &tails, dim, 3), query] {
            let mut out = vec![f32::NAN; ids.len()];
            ctx.dists(&ids, &mut out);
            for (&id, &o) in ids.iter().zip(&out) {
                let i = id as usize;
                let dt = ctx.qtail - tails[i];
                let want = imcat_simd::l2_sq(ctx.q, &vecs[i * dim..(i + 1) * dim]) + dt * dt;
                assert_eq!(o.to_bits(), want.to_bits(), "id {id}");
                assert_eq!(ctx.dist(id).to_bits(), want.to_bits(), "id {id}");
            }
        }
    }

    #[test]
    fn packed_order_is_total_cmp_then_id_and_round_trips() {
        let ds = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            0.0,
            -0.0,
            1.0e-40,
            -1.0e-40,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            3.5,
        ];
        let ids = [0u32, 1, 7, u32::MAX - 1, u32::MAX];
        let pairs: Vec<(f32, u32)> =
            ds.iter().flat_map(|&d| ids.iter().map(move |&id| (d, id))).collect();
        for &a in &pairs {
            let packed = DistId::new(a.0, a.1);
            assert_eq!((packed.d().to_bits(), packed.id()), (a.0.to_bits(), a.1), "{a:?}");
            for &b in &pairs {
                assert_eq!(packed.cmp(&DistId::new(b.0, b.1)), oracle(a, b), "{a:?} vs {b:?}");
            }
        }
    }
}
