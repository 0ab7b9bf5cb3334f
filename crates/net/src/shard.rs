//! Item-axis sharding: N engine replicas over contiguous item ranges, with
//! a merge layer whose output is bit-identical to one unsharded engine.
//!
//! ## Why this is exact
//!
//! [`imcat_eval::top_n_masked_with`] ranks under the *canonical* order
//! (score descending, then item id ascending) — a strict total order with
//! no ties. The selected head is therefore a pure function of the candidate
//! **set**: any superset of the canonical global top-K selects exactly that
//! top-K. Each shard returns its own canonical top-`k` over a disjoint item
//! range, so the union of the per-shard lists always contains the global
//! head; re-ranking the union through the same selection path reproduces
//! the unsharded answer exactly — same items, same order, same score bits —
//! at any shard count and any `IMCAT_THREADS` setting.
//!
//! With ANN enabled, each replica builds its configured index (IVF lists or
//! an HNSW graph) over its own item slice. Exactness then carries whatever
//! recall contract the per-shard probes have: at exhaustive probe settings
//! (`nprobe == nlist`, `ef_search == n`) the guarantee above holds
//! bit-exactly; at lossy probe settings the union is still re-ranked with
//! exact scores, so any deviation is pure recall loss, never a wrong score.

use std::io;

use imcat_ckpt::Artifact;
use imcat_eval::{top_n_masked_with, TopKScratch};
use imcat_serve::{
    AnnDescriptor, CacheReader, Engine, Interaction, Recommendation, ServeConfig, ServeError,
    ServeStats,
};
use imcat_tensor::Tensor;

/// Splits `n_items` into `n_shards` contiguous, near-equal `[lo, hi)`
/// ranges covering the whole catalog in order.
pub fn shard_ranges(n_items: usize, n_shards: usize) -> Vec<(usize, usize)> {
    (0..n_shards).map(|s| (s * n_items / n_shards, (s + 1) * n_items / n_shards)).collect()
}

/// Restricts an artifact to the item range `[lo, hi)`: item embedding rows
/// are sliced, and every user mask is filtered to the range and shifted to
/// shard-local ids. User embeddings are carried whole — each replica must
/// be able to score any user against its item slice.
pub fn shard_artifact(artifact: &Artifact, lo: usize, hi: usize) -> Artifact {
    let dim = artifact.dim();
    let item_emb =
        Tensor::from_vec(hi - lo, dim, artifact.item_emb.as_slice()[lo * dim..hi * dim].to_vec());
    let masks = artifact
        .masks
        .iter()
        .map(|mask| {
            // Masks are sorted ascending, so the in-range run is contiguous.
            let a = mask.partition_point(|&x| (x as usize) < lo);
            let b = mask.partition_point(|&x| (x as usize) < hi);
            mask[a..b].iter().map(|&x| x - lo as u32).collect()
        })
        .collect();
    Artifact { model: artifact.model.clone(), user_emb: artifact.user_emb.clone(), item_emb, masks }
}

struct Shard {
    /// First global item id held by this replica.
    base: u32,
    engine: Engine,
    /// Per-tick answer scratch, filled by the parallel fan-out.
    out: Vec<Result<Vec<Recommendation>, ServeError>>,
}

/// N engine replicas sharded on the item axis behind a merge layer.
///
/// In-process stand-in for a scale-out deployment where each replica would
/// live on its own machine: requests fan out to every shard over the
/// [`imcat_par`] pool and per-shard top-K lists are merged exactly (see the
/// module docs for why the merge is bit-identical to one unsharded engine).
pub struct ShardedEngine {
    shards: Vec<Shard>,
    n_users: u32,
    n_items: usize,
    merge: Merge,
}

/// The merge and its buffers: one per [`ShardedEngine`], one per
/// [`ShardReader`].
#[derive(Default)]
struct Merge {
    scratch: TopKScratch,
    /// `(global item id, score)` union of per-shard lists.
    union: Vec<(u32, f32)>,
    scores: Vec<f32>,
}

impl Merge {
    /// Unions per-shard lists — `(first global item id, shard-local list)`
    /// pairs — and re-ranks through the evaluator's canonical selection.
    fn top_k<'a>(
        &mut self,
        lists: impl Iterator<Item = (u32, &'a [Recommendation])>,
        k: usize,
    ) -> Vec<Recommendation> {
        self.union.clear();
        for (base, recs) in lists {
            self.union.extend(recs.iter().map(|r| (base + r.item, r.score)));
        }
        // `top_n_masked_with` indexes candidates by position, so present the
        // union in ascending global-id order — exactly the enumeration order
        // an unsharded scan would use. (Order only matters for reading the
        // ids back out: the canonical ranking itself is order-independent.)
        self.union.sort_unstable_by_key(|&(item, _)| item);
        self.scores.clear();
        self.scores.extend(self.union.iter().map(|&(_, s)| s));
        let top = top_n_masked_with(&self.scores, &[], k, &mut self.scratch);
        top.iter()
            .map(|&ci| {
                let (item, score) = self.union[ci as usize];
                Recommendation { item, score }
            })
            .collect()
    }
}

/// Answers a request from the replicas' result caches alone, on the calling
/// thread: the hit lane of [`crate::Server`]'s connection workers. It
/// answers only when **every** replica holds the key — after an ingest the
/// owning replica's entry is gone, and the lists of the others are not an
/// answer without its — and then merges exactly as
/// [`ShardedEngine::recommend_batch`] does, so the list is the one the
/// engine would return, bit for bit.
pub struct ShardReader {
    /// First global item id of each replica, in shard order.
    bases: Vec<u32>,
    /// In shard order, which is the one order their locks are taken in.
    caches: Vec<CacheReader>,
    merge: Merge,
}

impl ShardReader {
    /// The cached answer to `(user, k)`, each replica's hit accounted as the
    /// engine accounts its own; `None`, with no footprint on any replica,
    /// when any of them has to compute.
    pub fn lookup(&mut self, user: u32, k: usize) -> Option<Vec<Recommendation>> {
        let lists = CacheReader::lookup_all(&self.caches, user, k)?;
        Some(self.merge.top_k(self.bases.iter().copied().zip(lists.iter().map(Vec::as_slice)), k))
    }
}

impl ShardedEngine {
    /// Builds `n_shards` replicas over `artifact`. Every replica gets the
    /// shared `cfg` (cache, ANN); with ANN active each replica builds its
    /// configured index over its own item slice.
    pub fn new(artifact: &Artifact, cfg: &ServeConfig, n_shards: usize) -> io::Result<Self> {
        let n_items = artifact.n_items();
        if n_shards == 0 || n_shards > n_items {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("n_shards must be in [1, {n_items}], got {n_shards}"),
            ));
        }
        let shards = shard_ranges(n_items, n_shards)
            .into_iter()
            .map(|(lo, hi)| {
                let engine = Engine::new(shard_artifact(artifact, lo, hi), cfg.clone())?;
                Ok(Shard { base: lo as u32, engine, out: Vec::new() })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self { shards, n_users: artifact.n_users() as u32, n_items, merge: Merge::default() })
    }

    /// A reader over every replica's result cache, with merge buffers of
    /// its own: one per thread that answers hits.
    pub fn reader(&self) -> ShardReader {
        ShardReader {
            bases: self.shards.iter().map(|s| s.base).collect(),
            caches: self.shards.iter().map(|s| s.engine.cache_reader()).collect(),
            merge: Merge::default(),
        }
    }

    /// Number of replicas.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Users servable by every replica.
    pub fn n_users(&self) -> usize {
        self.n_users as usize
    }

    /// Global catalogue size (sum of the shard ranges).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Per-replica serving statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.engine.stats()).collect()
    }

    /// Per-replica ANN backend descriptors, in shard order (`None` for a
    /// replica serving brute force without an index). Surfaced through the
    /// front-end's `/stats` route so operators can see which backend is
    /// live on each shard and what parameters it resolved to.
    pub fn ann_descriptors(&self) -> Vec<Option<AnnDescriptor>> {
        self.shards.iter().map(|s| s.engine.ann_descriptor()).collect()
    }

    /// The shard owning global item id `item` (bases are ascending, so the
    /// owner is the last shard whose base is `<= item`).
    fn owner_of(&self, item: u32) -> usize {
        self.shards.partition_point(|s| s.base <= item) - 1
    }

    /// Registers a cold user on **every** replica (user embeddings are
    /// carried whole per shard, so ids stay aligned) and returns the new
    /// global id.
    pub fn register_user(&mut self) -> u32 {
        let id = self.n_users;
        for shard in &mut self.shards {
            shard.engine.register_user();
        }
        self.n_users += 1;
        id
    }

    /// Registers a cold item and returns its global id. Item ranges are
    /// contiguous, so the new tail id belongs to the **last** replica; the
    /// others never learn it exists (their slices are unchanged).
    pub fn register_item(&mut self) -> u32 {
        let id = self.n_items as u32;
        self.shards.last_mut().expect("at least one shard").engine.register_item();
        self.n_items += 1;
        id
    }

    /// Ingests one interaction, routing it to the replica owning the item
    /// (shard-local id). Validation is global, so a rejected interaction
    /// reports global ranges.
    pub fn ingest(&mut self, x: Interaction) -> Result<(), ServeError> {
        if x.user >= self.n_users {
            return Err(ServeError::UserOutOfRange { user: x.user, n_users: self.n_users });
        }
        if x.item as usize >= self.n_items {
            return Err(ServeError::ItemOutOfRange { item: x.item, n_items: self.n_items as u32 });
        }
        let s = self.owner_of(x.item);
        let local = Interaction { user: x.user, item: x.item - self.shards[s].base };
        self.shards[s].engine.ingest(local)
    }

    /// Ingests a batch in order, one result per interaction.
    pub fn ingest_batch(&mut self, xs: &[Interaction]) -> Vec<Result<(), ServeError>> {
        xs.iter().map(|&x| self.ingest(x)).collect()
    }

    /// Folds pending cold entities on every replica. With more than one
    /// shard, a cold user folds per replica from the evidence that replica
    /// holds — the honest in-process stand-in for scale-out, where each
    /// machine folds from the interactions it has seen. At the default
    /// single shard this is exactly [`Engine::fold_pending`]. Returns the
    /// total embeddings written across replicas.
    pub fn fold_pending(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.engine.fold_pending()).sum()
    }

    /// Answers one request through the full fan-out/merge path.
    pub fn recommend(&mut self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        self.recommend_batch(&[(user, k)]).pop().unwrap_or(Err(ServeError::ZeroK))
    }

    /// Answers a tick of requests: the whole tick fans out to every replica
    /// in parallel (`recommend_batch` per replica), then each slot's
    /// per-shard lists are merged. Output order matches `requests`; a
    /// malformed request yields its own `Err` slot (every replica rejects
    /// it identically) and never disturbs the rest of the tick.
    pub fn recommend_batch(
        &mut self,
        requests: &[(u32, usize)],
    ) -> Vec<Result<Vec<Recommendation>, ServeError>> {
        // Fan out: one task per replica. Nested dispatch inside each
        // engine's own scoring path degrades to inline serial, so results
        // are independent of the pool's thread count.
        imcat_par::global().parallel_chunks_mut(&mut self.shards, 1, |_, chunk| {
            for shard in chunk {
                shard.out = shard.engine.recommend_batch(requests);
            }
        });
        (0..requests.len()).map(|i| self.merge_slot(i, requests[i].1)).collect()
    }

    /// Merges request slot `i` of the replicas' answers.
    fn merge_slot(&mut self, i: usize, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        // Validation is artifact-global (user range, k), so every replica
        // rejects a malformed request identically.
        if let Some(e) = self.shards.iter().find_map(|s| s.out[i].as_ref().err()) {
            return Err(*e);
        }
        // No `Err` is left, so the default is never taken.
        let lists = self.shards.iter().map(|s| (s.base, s.out[i].as_deref().unwrap_or_default()));
        Ok(self.merge.top_k(lists, k))
    }
}
