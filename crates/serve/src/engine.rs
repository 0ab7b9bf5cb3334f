//! The serving engine: frozen-artifact top-K retrieval with an LRU cache
//! and request batching.
//!
//! ## Parity contract
//!
//! A `recommend(user, k)` answer is bit-identical to what the offline
//! evaluator would rank for that user: scores are the same `imcat_simd::dot`
//! bits `imcat_tensor::Tensor::matmul_nt` produces, and the top-K selection
//! is the evaluator's own `imcat_eval::top_n_masked_with` with the
//! artifact's training-item mask. There is one read path: a single request
//! is a tick of one, and every exact scan of a tick — no index, or a miss
//! the probe cannot answer — is a row of the tick's one `matmul_nt_rows`
//! over its unique exact-miss users. Every element of that product is one
//! `dot`, however the pool splits it (by users, or — for a tick of one —
//! by whole item blocks), so the result does not depend on
//! `IMCAT_THREADS`, on the tick's size, or on which requests shared it.
//!
//! ## ANN retrieval
//!
//! With [`ServeConfig::ann`] set, requests go through an `imcat-ann` probe
//! (whichever backend `AnnConfig::kind` selects — IVF-Flat lists, the HNSW
//! graph, or exhaustive brute force) instead of scoring the whole catalog:
//! only the probed candidates are scanned, candidates are scored with the
//! *same* exact dot products, and the final list is re-ranked through the
//! same `top_n_masked_with` path — any error is pure recall loss, never a
//! wrong score or ordering; `nprobe == nlist` (IVF) and `ef_search == n`
//! (HNSW) are bit-identical to brute force.
//! The engine falls back to brute force (counted as `ann.fallbacks`) for
//! cold users (all-zero embedding, where centroid ranking is meaningless),
//! fully-masked users, and probes too sparse to fill the requested `k`; a
//! fallback is one more row of the tick's exact product.
//!
//! ## The shared cache
//!
//! The result cache is the one thing the engine shares with other threads:
//! it sits behind an `Arc<Mutex<LruCache>>`, and [`Engine::cache_reader`]
//! hands out [`CacheReader`]s that answer an already-cached `(user, k)`
//! without the engine — `imcat-net`'s connection workers do. The rules:
//!
//! * **One hit path.** `Engine::recommend`, `Engine::recommend_batch` and
//!   the reader answer a cached key through the same function: a counted
//!   `get` (same LRU promotion, same hit counter) and `serve.cache.hits`.
//!   Each then accounts its answered requests (`serve.requests`, one
//!   `serve.request.seconds` sample apiece) after releasing the lock, so
//!   `served == cache_hits + cache_misses` and `serve.requests ==
//!   serve.cache.hits + serve.cache.misses` hold whichever thread answered.
//! * **A reader's miss is nobody's miss.** A lookup that does not hit
//!   touches nothing — no counter, no LRU order, no trace id. The request
//!   goes on to the engine, which counts the miss once.
//! * **Lock discipline.** The engine takes the lock once for a tick's
//!   lookups and once for its puts, never across a scan, a probe or a
//!   fold, and never holds two engines'
//!   locks; a reader over several replicas takes all of theirs in one fixed
//!   order ([`CacheReader::lookup_all`]). Nothing that can panic on request
//!   data runs under it, and a poisoned lock is recovered, not propagated.
//! * **Coherence.** Only the engine's thread puts, and every invalidation
//!   (`apply`: per-user removal or clear; `fold_pending`; every generation
//!   swap) happens under the lock inside the mutating call, on that thread.
//!   So once a mutation has *returned* — and a server only acknowledges a
//!   write after that — no list computed before it can be served by anyone.
//!   A read concurrent with a write may be ordered before it, exactly as
//!   two requests racing into one tick already are.
//!
//! ## Telemetry
//!
//! Every request mints a trace id through `imcat_obs::trace` — sampled
//! requests (and every batch tick) collect their span breakdown (scoring,
//! ANN probe, pool dispatch) into the live trace store served at
//! `/trace/<id>`; unsampled requests still surface as span-less exemplars
//! when they exceed the slow threshold. Hot-path counters
//! (`serve.requests`, `serve.cache.hits`/`misses`, `serve.ticks`) and the
//! latency histograms go through pre-interned [`imcat_obs::Counter`] /
//! [`imcat_obs::Hist`] handles so the per-request overhead stays in the
//! tens of nanoseconds.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use imcat_ann::{AnnConfig, AnnDescriptor, AnnIndex, ProbeScratch, DEFAULT_BUILD_SEED};
use imcat_ckpt::{Artifact, Checkpoint};
use imcat_eval::{top_n_masked_with, TopKScratch};
use imcat_tensor::Tensor;

use crate::cache::{CacheKey, LruCache};
use crate::foldin::FoldOptions;
use crate::rebuild::{self, RebuildTask};
use crate::stream::{Interaction, StreamEvent, StreamState};

static OBS_REQUESTS: imcat_obs::Counter = imcat_obs::Counter::new("serve.requests");
static OBS_REQUEST_SECONDS: imcat_obs::Hist = imcat_obs::Hist::new("serve.request.seconds");
static OBS_TICKS: imcat_obs::Counter = imcat_obs::Counter::new("serve.ticks");
static OBS_TICK_SECONDS: imcat_obs::Hist = imcat_obs::Hist::new("serve.tick.seconds");
static OBS_CACHE_HITS: imcat_obs::Counter = imcat_obs::Counter::new("serve.cache.hits");
static OBS_CACHE_MISSES: imcat_obs::Counter = imcat_obs::Counter::new("serve.cache.misses");
static OBS_REJECTS: imcat_obs::Counter = imcat_obs::Counter::new("serve.rejects");
static OBS_INGESTS: imcat_obs::Counter = imcat_obs::Counter::new("ingest.events");

/// A request the engine refuses to answer — *never* by panicking.
///
/// The serving paths used to `assert!` on malformed requests, which is fine
/// for an in-process library and fatal for a network worker: one stale or
/// malicious `(user, k)` pair mid-batch would take the whole process down.
/// Every request is now validated up front and rejected with a typed error
/// (counted as `serve.rejects`) while the rest of the tick proceeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The requested user id is outside the artifact's user range.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// Number of users the live artifact serves.
        n_users: u32,
    },
    /// The referenced item id is outside the live catalog (ingestion only —
    /// recommendations never name items).
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// Number of items in the live catalog.
        n_items: u32,
    },
    /// `k == 0` requests an empty ranking; rejected so a zero cutoff can
    /// never pollute the cache or divide downstream metrics by zero.
    ZeroK,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range (artifact has {n_users} users)")
            }
            Self::ItemOutOfRange { item, n_items } => {
                write!(f, "item {item} out of range (catalog has {n_items} items)")
            }
            Self::ZeroK => write!(f, "k must be at least 1"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum number of `(user, k)` top-K lists kept hot (0 disables the
    /// cache).
    pub cache_capacity: usize,
    /// ANN retrieval configuration; `None` serves brute force.
    pub ann: Option<AnnConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { cache_capacity: 1024, ann: None }
    }
}

/// Live ANN retrieval state: the index (whichever backend
/// the config selects) plus its reusable probe buffers.
struct AnnState {
    cfg: AnnConfig,
    index: Box<dyn AnnIndex>,
    scratch: ProbeScratch,
}

impl AnnState {
    fn new(cfg: AnnConfig, index: Box<dyn AnnIndex>) -> Self {
        Self { cfg, index, scratch: ProbeScratch::default() }
    }

    fn build(cfg: AnnConfig, items: &Tensor) -> Self {
        Self::new(cfg, cfg.build_index(items, DEFAULT_BUILD_SEED))
    }
}

/// One ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Item id.
    pub item: u32,
    /// Dot-product relevance score.
    pub score: f32,
}

/// Lifetime serving statistics, read off the cache's own counters (request
/// latency is the `serve.request.seconds` histogram in `imcat-obs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests answered (cache hits included): `cache_hits + cache_misses`.
    pub served: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
}

/// The hit path — the only one: [`Engine::recommend`],
/// [`Engine::recommend_batch`] and [`CacheReader`] all answer a cached key
/// here. One counted `get` (LRU promotion, `hits`), a copy of the list and
/// `serve.cache.hits`. `None` is a miss the cache has counted: the engine
/// calls this for a request it will then compute; a reader looks first.
fn hit(cache: &mut LruCache, key: CacheKey) -> Option<Vec<Recommendation>> {
    let out = cache.get(key)?.to_vec();
    OBS_CACHE_HITS.add(1);
    Some(out)
}

/// Accounts `requests` answered requests that each took `seconds`: one
/// `serve.requests` increment and one `serve.request.seconds` sample apiece.
/// Runs with the cache lock released.
fn account(requests: u64, seconds: f64) {
    OBS_REQUESTS.add(requests);
    for _ in 0..requests {
        OBS_REQUEST_SECONDS.observe(seconds);
    }
}

/// The trace of one answered request, on whichever thread answers it.
fn request_trace() -> imcat_obs::trace::RequestTrace {
    imcat_obs::trace::request("serve.request", "serve.request.seconds", false)
}

/// A panic elsewhere on a thread that holds the guard cannot leave the
/// cache half-updated (its methods do not panic on valid state), so a
/// poisoned lock is recovered: a panicking connection worker must not take
/// the batcher down with it.
fn lock(cache: &Mutex<LruCache>) -> MutexGuard<'_, LruCache> {
    cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A clonable, `Send` read handle on an engine's result cache: answers a
/// request the engine has already answered, from another thread, without
/// the engine. See the module docs ("The shared cache") for what makes that
/// safe beside a writer.
#[derive(Clone)]
pub struct CacheReader(Arc<Mutex<LruCache>>);

impl CacheReader {
    /// The cached answer to `(user, k)`, accounted exactly like a hit inside
    /// [`Engine::recommend`]. `None` leaves no footprint.
    pub fn lookup(&self, user: u32, k: usize) -> Option<Vec<Recommendation>> {
        Self::lookup_all(std::slice::from_ref(self), user, k)?.pop()
    }

    /// One list per reader, in order — or `None`, with no footprint on any
    /// of them, unless **every** reader holds `(user, k)`: a replica whose
    /// entry a write removed must recompute, and the lists of the others
    /// are only an answer together with its. All locks are taken, in slice
    /// order, before the first is read, so every caller must pass replicas
    /// in one global order (engines never hold two, so there is no cycle).
    pub fn lookup_all(
        readers: &[CacheReader],
        user: u32,
        k: usize,
    ) -> Option<Vec<Vec<Recommendation>>> {
        let mut guards: Vec<_> = readers.iter().map(|r| lock(&r.0)).collect();
        if !guards.iter().all(|g| g.contains((user, k))) {
            return None;
        }
        // One trace per replica, as `Engine::recommend` on each would open;
        // they close once the locks are released.
        let _traces: Vec<_> = readers.iter().map(|_| request_trace()).collect();
        let t0 = Instant::now();
        let lists = guards.iter_mut().map(|g| hit(g, (user, k))).collect();
        drop(guards);
        account(readers.len() as u64, t0.elapsed().as_secs_f64());
        lists
    }
}

/// Top-K retrieval engine over one [`Artifact`] generation: the read path
/// (validate → cache → probe → exact scan → cache put → account) plus the
/// generation swap.
///
/// Everything that *mutates* a generation — streamed interactions,
/// cold-entity registration, fold-in, log replay — is `StreamState`'s
/// (`stream.rs`); the mutators here only forward an event and invalidate
/// what the cache and the index hold over the changed state. The log is
/// canonical: `rebuild_artifact(base, log)` run offline is bit-identical to
/// the artifact the background rebuild swaps in.
pub struct Engine {
    stream: StreamState,
    cfg: ServeConfig,
    /// Shared with every [`CacheReader`]; never locked across a scan
    /// (module docs, "The shared cache").
    cache: Arc<Mutex<LruCache>>,
    scratch: TopKScratch,
    ann: Option<AnnState>,
    generation: u64,
    /// When the serving state was last swapped (or the engine built): the
    /// origin of the `generation.age` gauge.
    swapped_at: Instant,
}

impl Engine {
    fn assemble(artifact: Artifact, cfg: ServeConfig, ann: Option<AnnState>) -> Self {
        Self {
            stream: StreamState::new(artifact, FoldOptions::from_env()),
            cache: Arc::new(Mutex::new(LruCache::new(cfg.cache_capacity))),
            cfg,
            scratch: TopKScratch::default(),
            ann,
            generation: 0,
            swapped_at: Instant::now(),
        }
    }

    fn cache(&self) -> MutexGuard<'_, LruCache> {
        lock(&self.cache)
    }

    /// A read handle on this engine's result cache, for other threads.
    pub fn cache_reader(&self) -> CacheReader {
        CacheReader(self.cache.clone())
    }

    /// Builds an engine over a validated artifact. When [`ServeConfig::ann`]
    /// is set the index is built here (deterministically, from the item
    /// embeddings alone).
    pub fn new(artifact: Artifact, cfg: ServeConfig) -> io::Result<Self> {
        artifact.validate()?;
        let ann = cfg.ann.map(|c| AnnState::build(c, &artifact.item_emb));
        Ok(Self::assemble(artifact, cfg, ann))
    }

    /// Loads an artifact from disk (with the container's `.prev` fallback)
    /// and builds an engine over it. With [`ServeConfig::ann`] set, the
    /// index comes from [`AnnConfig::open_index`]: the `ann.*` sections
    /// persisted in the same container when they validate and match the
    /// requested configuration, else a fresh build persisted back lazily so
    /// the next load is instant.
    pub fn load(path: impl AsRef<Path>, cfg: ServeConfig) -> io::Result<Self> {
        let mut ck = Checkpoint::load(&path)?;
        let artifact = Artifact::from_checkpoint(&ck)?;
        let ann = cfg.ann.map(|c| {
            let items = &artifact.item_emb;
            AnnState::new(c, c.open_index(&mut ck, path.as_ref(), items, DEFAULT_BUILD_SEED))
        });
        Ok(Self::assemble(artifact, cfg, ann))
    }

    /// The live ANN backend behind the [`AnnIndex`] trait, whatever its
    /// kind.
    pub fn ann_backend(&self) -> Option<&dyn AnnIndex> {
        self.ann.as_ref().map(|s| s.index.as_ref())
    }

    /// Operator-facing description of the live ANN backend: its kind plus
    /// the build/probe parameters the configuration resolves to for the
    /// catalog the index covers. `None` when serving brute force without an
    /// index. Served per shard by the front-end's `/stats` route.
    pub fn ann_descriptor(&self) -> Option<AnnDescriptor> {
        self.ann.as_ref().map(|s| s.cfg.describe(s.index.n_items()))
    }

    /// The artifact currently being served.
    pub fn artifact(&self) -> &Artifact {
        self.stream.artifact()
    }

    /// Monotonic generation counter: bumps on every swap — `reload`,
    /// `set_ann`, `commit_rebuild`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The mutation log accumulated since this generation's base artifact,
    /// in arrival order.
    pub fn stream_log(&self) -> &[StreamEvent] {
        self.stream.log()
    }

    /// The fold-in options live ingestion uses (defaults read from the
    /// `IMCAT_INGEST_FOLD_LAMBDA` knob at construction).
    pub fn fold_options(&self) -> FoldOptions {
        self.stream.fold_options
    }

    /// Every swap of the serving state funnels through here: new artifact
    /// and/or ANN state in, cache out, generation bumped (the
    /// `generation.id` gauge), one counter per caller. Replacing the
    /// artifact starts a fresh stream state — the incoming artifact *is* the
    /// next generation's base and the old log is consumed (rebuild) or
    /// superseded (reload).
    fn swap_generation(
        &mut self,
        artifact: Option<Artifact>,
        ann: Option<AnnState>,
        counter: &'static str,
    ) -> io::Result<()> {
        if let Some(artifact) = artifact {
            artifact.validate()?;
            self.stream = StreamState::new(artifact, self.stream.fold_options);
        }
        self.ann = ann;
        self.cache().clear();
        self.generation += 1;
        self.swapped_at = Instant::now();
        imcat_obs::gauge_set("generation.id", self.generation as f64);
        imcat_obs::counter_add(counter, 1);
        imcat_obs::counter_add("serve.generation.swaps", 1);
        Ok(())
    }

    /// Swaps in a new artifact. The cache is cleared so no stale list from
    /// the previous generation can ever be served, and the ANN index (if
    /// active) is rebuilt over the new item embeddings before the swap; on a
    /// validation error the old artifact, index, cache, and stream log all
    /// stay live.
    pub fn reload(&mut self, artifact: Artifact) -> io::Result<()> {
        artifact.validate()?;
        let ann = self.cfg.ann.map(|c| AnnState::build(c, &artifact.item_emb));
        self.swap_generation(Some(artifact), ann, "serve.reloads")
    }

    /// Switches ANN retrieval on, off, or to a different configuration,
    /// rebuilding the index as needed. Pending cold entities are folded
    /// first so the fresh index covers exactly the finalized catalog; the
    /// result cache is cleared exactly like [`Engine::reload`] does.
    pub fn set_ann(&mut self, ann: Option<AnnConfig>) {
        self.fold_pending();
        self.cfg.ann = ann;
        let state = ann.map(|c| AnnState::build(c, &self.artifact().item_emb));
        let _ = self.swap_generation(None, state, "serve.ann_swaps");
    }

    /// The live mutation path: one event into the stream state, then drop
    /// whatever the cache ranked over the state it changed. A rejected
    /// interaction is counted (`serve.rejects`) and changes nothing.
    fn apply(&mut self, ev: StreamEvent) -> Result<(), ServeError> {
        if let Err(e) = self.stream.apply(ev) {
            OBS_REJECTS.add(1);
            return Err(e);
        }
        match ev {
            StreamEvent::RegisterUser => imcat_obs::counter_add("ingest.users", 1),
            StreamEvent::RegisterItem => {
                // Cached lists ranked a smaller catalog.
                self.cache().clear();
                imcat_obs::counter_add("ingest.items", 1);
            }
            StreamEvent::Interaction(x) => {
                self.cache().remove_user(x.user);
                OBS_INGESTS.add(1);
            }
        }
        Ok(())
    }

    /// Registers a cold user and returns their id (the next dense user id).
    /// The new row is all-zero until a fold tick gives it evidence-backed
    /// coordinates; recommendations for it fall back to brute force
    /// meanwhile (cold-user fallback).
    pub fn register_user(&mut self) -> u32 {
        let id = self.n_users() as u32;
        let _ = self.apply(StreamEvent::RegisterUser); // registrations are never rejected
        id
    }

    /// Registers a cold item and returns its id (the next dense item id).
    /// The item scores zero for everyone until its first fold tick freezes
    /// an embedding and inserts it into the ANN index.
    pub fn register_item(&mut self) -> u32 {
        let id = self.n_items() as u32;
        let _ = self.apply(StreamEvent::RegisterItem); // registrations are never rejected
        id
    }

    /// Ingests one interaction: validates both ids against the live ranges,
    /// updates the user's mask immediately (the item disappears from their
    /// recommendations *now*), appends the event to the log as fold-in
    /// evidence, and invalidates only that user's cached lists. Embeddings
    /// move at the next [`Engine::fold_pending`] tick, off the request path.
    pub fn ingest(&mut self, x: Interaction) -> Result<(), ServeError> {
        self.apply(StreamEvent::Interaction(x))
    }

    /// Ingests a batch, one result per interaction in order; a rejected
    /// interaction never aborts the rest of the batch.
    pub fn ingest_batch(&mut self, xs: &[Interaction]) -> Vec<Result<(), ServeError>> {
        xs.iter().map(|&x| self.ingest(x)).collect()
    }

    /// One fold tick (`StreamState::fold`) over the events since the last
    /// one: finalizes every registered-but-cold item and inserts it into the
    /// ANN index, then refolds the post-base users with new evidence from
    /// the updated item matrix. Items fold **once** — their embeddings and
    /// int8 codes stay frozen until the next generation, which is what keeps
    /// the certified-skip bound sound. A finalized item clears the result
    /// cache; otherwise only the refolded users' lists are evicted, so a
    /// user the tick brought nothing keeps their cached answers. Sets the
    /// `ingest.log.len` gauge, `fold.lag` (the events this tick consumed) and
    /// `generation.age` (seconds since the last swap). Returns the number of
    /// embeddings written.
    pub fn fold_pending(&mut self) -> usize {
        let tick = self.stream.fold();
        if let Some(state) = &mut self.ann {
            // Ascending id, after the tick: the inserts phase A would have
            // made as it went (see `StreamState::fold`), reading the rows
            // from the table the index serves.
            let items = &self.stream.artifact().item_emb;
            for id in tick.items.clone() {
                if state.index.insert(id, items).is_err() {
                    // A failed insert costs ANN recall for this item, never
                    // correctness: probes simply cannot reach it until the
                    // next full rebuild re-indexes the catalog.
                    imcat_obs::counter_add("ingest.insert_failures", 1);
                }
            }
        }
        let mut cache = self.cache();
        if !tick.items.is_empty() {
            cache.clear();
        } else {
            for u in tick.users {
                cache.remove_user(u);
            }
        }
        drop(cache);
        imcat_obs::counter_add("ingest.folds", tick.folds as u64);
        imcat_obs::gauge_set("ingest.log.len", self.stream.log().len() as f64);
        imcat_obs::gauge_set("fold.lag", tick.events as f64);
        imcat_obs::gauge_set("generation.age", self.swapped_at.elapsed().as_secs_f64());
        tick.folds
    }

    /// Spawns a background full rebuild over a snapshot of this
    /// generation's `(base, log)`: the base is assembled here from the live
    /// prefix and the base masks' pre-images and moved into the worker. The
    /// worker replays the log as [`crate::rebuild_artifact`] does, builds a
    /// fresh index, and — when `persist` names a container — *stages* the
    /// next generation on disk (atomic save, committed pointer untouched,
    /// crash-safe). The engine keeps serving and ingesting; hand the task
    /// back to [`Engine::commit_rebuild`] when [`RebuildTask::is_finished`].
    pub fn spawn_rebuild(&self, persist: Option<PathBuf>) -> io::Result<RebuildTask> {
        let (base, log) = self.stream.snapshot();
        rebuild::spawn(base, log, self.stream.fold_options, self.cfg.ann, persist)
    }

    /// Joins a finished rebuild and swaps the new generation in: the
    /// rebuilt artifact becomes the base, events ingested after the
    /// snapshot are replayed onto it through the live mutation path, and —
    /// when the worker staged the generation on disk — the committed
    /// pointer is flipped with a second atomic save. In-memory swap happens
    /// first: requests between the two steps already serve the new
    /// generation, and a crash before the flip recovers to the old one.
    pub fn commit_rebuild(&mut self, task: RebuildTask) -> io::Result<()> {
        let out = task.handle.join().map_err(|_| io::Error::other("rebuild worker panicked"))??;
        let suffix = self.stream.log().get(task.snap_len..).unwrap_or_default().to_vec();
        let ann = self.cfg.ann.zip(out.index).map(|(cfg, index)| AnnState::new(cfg, index));
        self.swap_generation(Some(out.artifact), ann, "serve.rebuild.commits")?;
        // The events were valid when first ingested and the rebuilt artifact
        // contains every registration the snapshot saw, so they stay valid.
        for ev in suffix {
            let _ = self.apply(ev);
        }
        if let Some((path, gen)) = out.staged {
            let mut ck = Checkpoint::load(&path)?;
            ck.commit_generation(gen);
            ck.save(&path)?;
        }
        Ok(())
    }

    /// Number of users the current artifact can serve.
    pub fn n_users(&self) -> usize {
        self.artifact().n_users()
    }

    /// Catalogue size of the current artifact.
    pub fn n_items(&self) -> usize {
        self.artifact().n_items()
    }

    fn top_k(&mut self, user: u32, k: usize, scores: &[f32]) -> Vec<Recommendation> {
        let mask = &self.stream.artifact().masks[user as usize];
        let top = top_n_masked_with(scores, mask, k, &mut self.scratch);
        top.iter().map(|&j| Recommendation { item: j, score: scores[j as usize] }).collect()
    }

    /// ANN path for one request. `None` means "score it exactly": no index,
    /// or a fallback the caller counts — cold user (all-zero embedding: every
    /// dot product is 0 and centroid ranking is meaningless), fully-masked
    /// user, or a probe whose unmasked candidates cannot fill the requested
    /// `k`.
    fn ann_recommend(&mut self, user: u32, k: usize) -> Option<Vec<Recommendation>> {
        let state = self.ann.as_mut()?;
        let artifact = self.stream.artifact();
        let n_items = artifact.item_emb.rows();
        let mask = &artifact.masks[user as usize];
        if mask.len() >= n_items {
            return None;
        }
        let u_row = artifact.user_emb.row(user as usize);
        if u_row.iter().all(|&x| x == 0.0) {
            return None;
        }
        // `nprobe` for the list backends, `ef_search` for the graph — the
        // probe-width knob of whichever backend is live.
        let width = state.cfg.resolved_probe_width(n_items);
        state.index.probe(u_row, &artifact.item_emb, mask, k, width, &mut state.scratch);
        let unmasked = state.scratch.candidates().len() - state.scratch.mask().len();
        if unmasked < k.min(n_items - mask.len()) {
            return None;
        }
        // Re-rank the compact candidate set through the evaluator's own
        // selection path — identical scores, identical tie discipline.
        let top =
            top_n_masked_with(state.scratch.scores(), state.scratch.mask(), k, &mut self.scratch);
        Some(
            top.iter()
                .map(|&ci| Recommendation {
                    item: state.scratch.candidates()[ci as usize],
                    score: state.scratch.scores()[ci as usize],
                })
                .collect(),
        )
    }

    /// Validates one request against the live artifact. Rejections are
    /// counted (`serve.rejects`) but cost no scoring work and leave no cache
    /// or latency footprint.
    fn validate_request(&self, user: u32, k: usize) -> Result<(), ServeError> {
        let n_users = self.n_users() as u32;
        let err = if user >= n_users {
            ServeError::UserOutOfRange { user, n_users }
        } else if k == 0 {
            ServeError::ZeroK
        } else {
            return Ok(());
        };
        OBS_REJECTS.add(1);
        Err(err)
    }

    /// The read path — the only one; [`Engine::recommend`] is a tick of one.
    /// Every request is validated and looked up through the hit path; with
    /// an index each unique miss is probed, and every miss left — all of
    /// them without an index, the fallbacks with one — is a row of *one*
    /// `matmul_nt_rows` over the unique users (a user asked at two cutoffs
    /// shares a row), ranked by `top_n_masked_with`. Fresh answers land in
    /// the cache in miss order; answered requests are accounted once the
    /// lock is released. Output order matches `requests`.
    fn answer(
        &mut self,
        requests: &[(u32, usize)],
    ) -> Vec<Result<Vec<Recommendation>, ServeError>> {
        let t0 = Instant::now();
        // `None` = a validated cache miss, answered from `fresh` below.
        let mut outputs: Vec<Option<Result<Vec<Recommendation>, ServeError>>> =
            Vec::with_capacity(requests.len());
        let mut miss_keys: Vec<CacheKey> = Vec::new();
        let mut miss_index: HashMap<CacheKey, usize> = HashMap::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut cache = self.cache();
        for &(user, k) in requests {
            if let Err(e) = self.validate_request(user, k) {
                outputs.push(Some(Err(e)));
            } else if let Some(cached) = hit(&mut cache, (user, k)) {
                hits += 1;
                outputs.push(Some(Ok(cached)));
            } else {
                misses += 1;
                outputs.push(None);
                if let Entry::Vacant(slot) = miss_index.entry((user, k)) {
                    slot.insert(miss_keys.len());
                    miss_keys.push((user, k));
                }
            }
        }
        drop(cache);
        account(hits, t0.elapsed().as_secs_f64());
        let probed: Vec<Option<Vec<Recommendation>>> =
            miss_keys.iter().map(|&(user, k)| self.ann_recommend(user, k)).collect();
        let mut users: Vec<u32> = miss_keys
            .iter()
            .zip(&probed)
            .filter_map(|(&(u, _), p)| p.is_none().then_some(u))
            .collect();
        if self.ann.is_some() && !users.is_empty() {
            imcat_obs::counter_add("ann.fallbacks", users.len() as u64);
        }
        users.sort_unstable();
        users.dedup();
        // No exact miss, no product: an empty table has no row to read.
        let scores = if users.is_empty() {
            Tensor::zeros(0, 0)
        } else {
            let artifact = self.artifact();
            artifact.user_emb.matmul_nt_rows(&users, &artifact.item_emb)
        };
        let fresh: Vec<Vec<Recommendation>> = miss_keys
            .iter()
            .zip(probed)
            .map(|(&(user, k), probed)| {
                // `users` is sorted and holds the user of every unprobed key.
                probed.unwrap_or_else(|| {
                    self.top_k(user, k, scores.row(users.partition_point(|&u| u < user)))
                })
            })
            .collect();
        let mut cache = self.cache();
        for (&key, recs) in miss_keys.iter().zip(&fresh) {
            cache.put(key, recs.clone());
        }
        drop(cache);
        let answers = outputs
            .into_iter()
            .zip(requests)
            .map(|(slot, key)| slot.unwrap_or_else(|| Ok(fresh[miss_index[key]].clone())))
            .collect();
        account(misses, t0.elapsed().as_secs_f64());
        OBS_CACHE_MISSES.add(misses);
        answers
    }

    /// Answers one request: the top `k` unseen items for `user`, best first.
    /// A malformed request (out-of-range user, `k == 0`) is rejected with a
    /// typed [`ServeError`] — the engine never panics on request data.
    ///
    /// Mints a per-request trace id; sampled requests collect their span
    /// breakdown into the live trace store (`/trace/<id>`).
    pub fn recommend(&mut self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        let _trace = request_trace();
        // A tick of one request has one answer.
        self.answer(&[(user, k)]).swap_remove(0)
    }

    /// Answers a tick's worth of concurrent requests. Cache misses are
    /// deduplicated and the exact ones scored with a *single*
    /// `matmul_nt_rows` over their unique users, then ranked per row;
    /// results land in the cache before the tick returns. Output order
    /// matches `requests`, and every answer — including each rejection — is
    /// identical to what [`Engine::recommend`] returns for the same request:
    /// a malformed request yields its own `Err` slot (and, as there, no
    /// cache or latency footprint) while the rest of the tick is answered
    /// normally, so one bad request can never abort a batch or take down a
    /// worker.
    pub fn recommend_batch(
        &mut self,
        requests: &[(u32, usize)],
    ) -> Vec<Result<Vec<Recommendation>, ServeError>> {
        // Ticks are rare and information-dense, so their traces are always
        // sampled: the tick's matmul/probe/dispatch spans all attach.
        let _trace = imcat_obs::trace::request("serve.tick", "serve.tick.seconds", true);
        let t0 = Instant::now();
        let answers = self.answer(requests);
        OBS_TICKS.add(1);
        OBS_TICK_SECONDS.observe(t0.elapsed().as_secs_f64());
        answers
    }

    /// Lifetime serving statistics.
    pub fn stats(&self) -> ServeStats {
        let cache = self.cache();
        let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
        ServeStats { served: cache_hits + cache_misses, cache_hits, cache_misses }
    }

    /// Number of currently cached top-K lists.
    pub fn cached_lists(&self) -> usize {
        self.cache().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that dies holding the cache lock must not take the engine's
    /// thread, or any other reader, down with it.
    #[test]
    fn a_poisoned_cache_lock_is_recovered() {
        let artifact = Artifact::new(
            "poison",
            Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Tensor::from_vec(3, 2, vec![0.5, 0.1, 0.2, 0.9, 0.7, 0.7]),
            vec![vec![], vec![1]],
        );
        let mut engine = Engine::new(artifact, ServeConfig::default()).unwrap();
        let want = engine.recommend(0, 2).unwrap();
        let cache = engine.cache.clone();
        let died = std::thread::spawn(move || {
            let _guard = cache.lock().unwrap();
            panic!("a worker dies under the lock");
        })
        .join();
        assert!(died.is_err() && engine.cache.is_poisoned());
        assert_eq!(engine.recommend(0, 2).unwrap(), want);
        assert_eq!(engine.cache_reader().lookup(0, 2), Some(want));
        assert_eq!(engine.stats().cache_hits, 2);
    }
}
