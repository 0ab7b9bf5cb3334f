//! The mutable-index trait behind which every ANN backend serves.
//!
//! `imcat-serve` used to talk to [`IvfIndex`] concretely, with a hand-rolled
//! brute-force branch next to it. This module extracts the surface both
//! share — probe, streamed insert, section persistence, staleness check —
//! into [`AnnIndex`], selected by [`AnnConfig::kind`]: the engine holds a
//! `Box<dyn AnnIndex>` and neither knows nor cares whether it is IVF-Flat,
//! the trivial [`BruteIndex`] fallback, or the graph-based
//! [`crate::hnsw::HnswIndex`].
//! Everything that picks the concrete type stays on [`AnnConfig`], and it
//! is the whole lifecycle a caller needs: [`AnnConfig::build_index`] (fresh
//! build), [`AnnConfig::open_index`] (reuse the persisted index when it is
//! exactly what a build would produce, else rebuild and persist back) and
//! [`AnnConfig::describe`] (what is this index running with).
//!
//! Every implementation keeps the workspace contracts: exact f32 scores in
//! the probe output (approximation may only cost recall), bit-determinism at
//! any `IMCAT_THREADS`, and dense append-only ids for [`AnnIndex::insert`].

use std::io;
use std::path::Path;

use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_obs::Json;
use imcat_tensor::Tensor;

use crate::ivf::{AnnConfig, IvfIndex, ProbeScratch};

/// Section holding the [`BruteIndex`] identity (so a brute "index" round-
/// trips through the same container machinery as a real one).
pub const SEC_ANN_BRUTE: &str = "ann.brute";

/// Format version inside [`SEC_ANN_BRUTE`].
const BRUTE_VERSION: u32 = 1;

/// Which concrete index an [`AnnConfig`] builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AnnKind {
    /// IVF-Flat with exact re-rank ([`IvfIndex`]) — the default.
    #[default]
    Ivf,
    /// Exhaustive scan ([`BruteIndex`]): every item is a candidate, every
    /// score exact. The reference the approximate backends are verified
    /// against, and the fallback for catalogs too small to partition.
    Brute,
    /// Hierarchical navigable small-world graph
    /// ([`crate::hnsw::HnswIndex`]): greedy multi-layer graph descent with a
    /// beam search at the base layer, then the same exact f32 re-rank as the
    /// other backends. Wins the recall/QPS frontier at high recall targets.
    Hnsw,
}

impl AnnKind {
    /// Parses a backend name as `imcat serve --ann` spells it
    /// (`"ivf"`, `"brute"`, `"hnsw"`, case-insensitive). `None` for anything
    /// else.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "ivf" => Some(AnnKind::Ivf),
            "brute" => Some(AnnKind::Brute),
            "hnsw" => Some(AnnKind::Hnsw),
            _ => None,
        }
    }

    /// The lowercase name [`AnnKind::parse`] accepts, for logs and `/stats`.
    pub fn name(&self) -> &'static str {
        match self {
            AnnKind::Ivf => "ivf",
            AnnKind::Brute => "brute",
            AnnKind::Hnsw => "hnsw",
        }
    }
}

/// One frozen-geometry retrieval index over a dense item catalog.
///
/// A probe leaves a compact ascending-id candidate set with **exact** f32
/// scores and a remapped mask in the scratch, exactly like
/// [`IvfIndex::probe`] always has; `insert` appends the next dense id
/// without retraining; `save_sections` serializes into named `ann.*`
/// sections; `matches` is the staleness check deciding whether a persisted
/// index can be reused for a config/catalog/seed triple.
pub trait AnnIndex: Send {
    /// Which backend this is.
    fn kind(&self) -> AnnKind;

    /// Catalog size currently covered by the index.
    fn n_items(&self) -> usize;

    /// Embedding dimension the index was built over.
    fn dim(&self) -> usize;

    /// Probes for the top-`k` candidates of `query`, leaving ascending
    /// candidate ids, exact scores, and the remapped `mask` in `scratch`.
    fn probe(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        k: usize,
        nprobe: usize,
        scratch: &mut ProbeScratch,
    );

    /// Appends item `id` (which must equal the current catalog size — ids
    /// stay dense), whose embedding is row `id` of `items`, without
    /// retraining. `items` is the table probes score from; an index keeps
    /// no copy of it.
    fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()>;

    /// Serializes the index into named `ann.*` sections of `ck`.
    fn save_sections(&self, ck: &mut Checkpoint);

    /// True when this index is exactly what a fresh build would produce for
    /// `(cfg, n_items, dim, seed)` — the reuse check on load.
    fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool;
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The preconditions every backend's [`AnnIndex::insert`] shares: the
/// table has the index's dimension, `id` is the next dense id and a row of
/// the table, and every coordinate of that row is finite. Returns the row.
pub(crate) fn check_insert(
    dim: usize,
    n_items: usize,
    id: u32,
    items: &Tensor,
) -> io::Result<&[f32]> {
    if items.cols() != dim {
        return Err(bad(format!("insert embedding dim {} != index dim {dim}", items.cols())));
    }
    if id as usize != n_items {
        return Err(bad(format!("ids are dense: insert expected id {n_items} got {id}")));
    }
    if n_items >= items.rows() {
        return Err(bad(format!("insert id {id} is not a row of a {}-row table", items.rows())));
    }
    let embedding = items.row(n_items);
    if embedding.iter().any(|x| !x.is_finite()) {
        return Err(bad("insert embedding contains nonfinite values"));
    }
    Ok(embedding)
}

/// Squared L2 norm accumulated in f64: squared f32 magnitudes can overflow
/// f32 while their square roots are still representable.
pub(crate) fn norm2(row: &[f32]) -> f64 {
    row.iter().map(|&x| x as f64 * x as f64).sum()
}

/// The MIPS→L2 completion coordinate `sqrt(Φ² − ‖x‖²)` of a row with squared
/// norm `n2`, clamped at 0 for rows that out-norm the frozen build `Φ`
/// (streamed inserts) so the geometry degrades gracefully instead of going
/// NaN.
pub(crate) fn mips_tail(phi2: f64, n2: f64) -> f32 {
    (phi2 - n2).max(0.0).sqrt() as f32
}

impl AnnIndex for IvfIndex {
    fn kind(&self) -> AnnKind {
        AnnKind::Ivf
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
        scratch: &mut ProbeScratch,
    ) {
        IvfIndex::probe(self, query, items, mask, k, nprobe, scratch);
    }

    fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()> {
        IvfIndex::insert(self, id, items)
    }

    fn save_sections(&self, ck: &mut Checkpoint) {
        self.add_to_checkpoint(ck);
    }

    fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        cfg.kind == AnnKind::Ivf && IvfIndex::matches(self, cfg, n_items, dim, seed)
    }
}

/// The exhaustive-scan "index": no structure at all, every probe scans the
/// whole catalog with exact scores. Trivial by design — it exists so the
/// brute-force fallback is an [`AnnIndex`] implementation instead of a
/// special case inside the engine, and so tests can diff any approximate
/// backend against it through the same trait calls.
#[derive(Clone, Copy, Debug)]
pub struct BruteIndex {
    dim: usize,
    n_items: usize,
    seed: u64,
}

impl BruteIndex {
    /// "Builds" the index: records the catalog shape. An empty catalog is
    /// fine — probes simply return an empty candidate set.
    pub fn build(items: &Tensor, seed: u64) -> Self {
        let (n_items, dim) = items.shape();
        Self { dim, n_items, seed }
    }

    /// Decodes the [`SEC_ANN_BRUTE`] identity section (generation-resolved).
    /// `Ok(None)` when the container carries none.
    pub fn from_checkpoint(ck: &Checkpoint) -> io::Result<Option<Self>> {
        let Some(bytes) = ck.resolve(SEC_ANN_BRUTE) else {
            return Ok(None);
        };
        let mut d = Decoder::new(bytes);
        let version = d.u32()?;
        if version != BRUTE_VERSION {
            return Err(bad(format!("unsupported brute index version {version}")));
        }
        let seed = d.u64()?;
        let dim = d.u64()? as usize;
        let n_items = d.u64()? as usize;
        d.finish()?;
        if dim == 0 {
            return Err(bad("zero-dim brute index"));
        }
        Ok(Some(Self { dim, n_items, seed }))
    }
}

impl AnnIndex for BruteIndex {
    fn kind(&self) -> AnnKind {
        AnnKind::Brute
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn probe(
        &self,
        query: &[f32],
        items: &Tensor,
        mask: &[u32],
        _k: usize,
        _nprobe: usize,
        scratch: &mut ProbeScratch,
    ) {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        // Brute force is exhaustive over the *live* catalog: items
        // registered after the build are scanned too (the matrix may run
        // ahead of `n_items` during streaming, never behind).
        assert!(
            items.rows() >= self.n_items && items.cols() == self.dim,
            "item matrix {:?} smaller than index ({}, {})",
            items.shape(),
            self.n_items,
            self.dim
        );
        scratch.set_brute(query, items, mask);
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ann.probes", 1);
            imcat_obs::observe("ann.candidates", items.rows() as f64);
        }
    }

    fn insert(&mut self, id: u32, items: &Tensor) -> io::Result<()> {
        check_insert(self.dim, self.n_items, id, items)?;
        self.n_items += 1;
        imcat_obs::counter_add("ann.inserts", 1);
        Ok(())
    }

    fn save_sections(&self, ck: &mut Checkpoint) {
        let mut e = Encoder::new();
        e.put_u32(BRUTE_VERSION);
        e.put_u64(self.seed);
        e.put_u64(self.dim as u64);
        e.put_u64(self.n_items as u64);
        ck.insert(SEC_ANN_BRUTE, e.into_bytes());
    }

    fn matches(&self, cfg: &AnnConfig, n_items: usize, dim: usize, seed: u64) -> bool {
        cfg.kind == AnnKind::Brute
            && self.n_items == n_items
            && self.dim == dim
            && self.seed == seed
    }
}

/// Which ANN backend is live and the parameters its configuration resolves
/// to for the catalog it covers — the operator-facing answer to "what index
/// is this shard actually running?". Fields that do not apply to the active
/// kind are zero/false (e.g. `nlist` under HNSW).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnDescriptor {
    /// Backend name as [`AnnKind::name`] spells it: `ivf`, `brute`, `hnsw`.
    pub kind: &'static str,
    /// Catalog size the index currently covers.
    pub n_items: usize,
    /// Resolved inverted-list count (IVF).
    pub nlist: usize,
    /// Resolved probed-list count (IVF).
    pub nprobe: usize,
    /// Resolved degree bound (HNSW).
    pub m: usize,
    /// Resolved construction beam width (HNSW).
    pub ef_construction: usize,
    /// Resolved search beam width (HNSW).
    pub ef_search: usize,
    /// Whether the lists carry int8 codes (IVF).
    pub quantized: bool,
}

impl AnnDescriptor {
    /// The width a probe of this index takes: `ef_search` for the graph and
    /// `nprobe` for the lists, each what [`AnnConfig::resolved_probe_width`]
    /// resolves to, and 0 for brute force, which ignores it. A method, not a
    /// field, so the `/stats` rendering is unchanged.
    pub fn probe_width(&self) -> usize {
        if self.m > 0 {
            self.ef_search
        } else {
            self.nprobe
        }
    }

    /// The `/stats` rendering: `kind` and `n_items`, then exactly the
    /// parameters that apply to the kind (the ones [`AnnConfig::describe`]
    /// resolved; an applicable list count or degree bound is never zero).
    pub fn to_json(&self) -> Json {
        let num = |v: usize| Json::Num(v as f64);
        let mut fields =
            vec![("kind", Json::Str(self.kind.into())), ("n_items", num(self.n_items))];
        if self.nlist > 0 {
            fields.extend([
                ("nlist", num(self.nlist)),
                ("nprobe", num(self.nprobe)),
                ("quantized", Json::Bool(self.quantized)),
            ]);
        }
        if self.m > 0 {
            fields.extend([
                ("m", num(self.m)),
                ("ef_construction", num(self.ef_construction)),
                ("ef_search", num(self.ef_search)),
            ]);
        }
        Json::obj(fields)
    }
}

impl AnnConfig {
    /// Builds the concrete index this configuration selects. Deterministic:
    /// the same `(items, cfg, seed)` produces a bit-identical index at any
    /// `IMCAT_THREADS` setting.
    pub fn build_index(&self, items: &Tensor, seed: u64) -> Box<dyn AnnIndex> {
        match self.kind {
            AnnKind::Ivf => Box::new(IvfIndex::build(items, self, seed)),
            AnnKind::Brute => Box::new(BruteIndex::build(items, seed)),
            AnnKind::Hnsw => Box::new(crate::hnsw::HnswIndex::build(items, self, seed)),
        }
    }

    /// Decodes whichever index sections the container holds for this
    /// configuration's kind (generation-resolved), for serving over `items`
    /// (the graph reads its rows and is checked against them). `Ok(None)`
    /// when the container carries no index of that kind.
    pub fn load_index(
        &self,
        ck: &Checkpoint,
        items: &Tensor,
    ) -> io::Result<Option<Box<dyn AnnIndex>>> {
        fn boxed<I: AnnIndex + 'static>(index: Option<I>) -> Option<Box<dyn AnnIndex>> {
            index.map(|i| Box::new(i) as Box<dyn AnnIndex>)
        }
        Ok(match self.kind {
            AnnKind::Ivf => boxed(IvfIndex::from_checkpoint(ck)?),
            AnnKind::Brute => boxed(BruteIndex::from_checkpoint(ck)?),
            AnnKind::Hnsw => boxed(crate::hnsw::HnswIndex::from_checkpoint(ck, items)?),
        })
    }

    /// The index for `items` out of the container `ck` loaded from `path`:
    /// the persisted `ann.*` sections when they decode, validate and
    /// [`AnnIndex::matches`] this configuration; otherwise a fresh build,
    /// persisted back next to the artifact it was built from (atomic save,
    /// `.prev` rotation preserved) so the next open is instant. A corrupt
    /// or stale persisted index is counted (`ann.index.rejected`) and
    /// rebuilt (`ann.index.rebuilds`) — it can never poison the caller. A
    /// failed persist (`ann.index.persist_failed`) is non-fatal: the fresh
    /// in-memory index is returned all the same.
    pub fn open_index(
        &self,
        ck: &mut Checkpoint,
        path: &Path,
        items: &Tensor,
        seed: u64,
    ) -> Box<dyn AnnIndex> {
        let loaded = self.load_index(ck, items).unwrap_or_else(|_| {
            imcat_obs::counter_add("ann.index.rejected", 1);
            None
        });
        if let Some(index) = loaded.filter(|i| i.matches(self, items.rows(), items.cols(), seed)) {
            return index;
        }
        imcat_obs::counter_add("ann.index.rebuilds", 1);
        let index = self.build_index(items, seed);
        // Under the committed generation's prefix when the container is
        // generation-versioned, bare otherwise.
        match ck.generation().ok().flatten() {
            Some(gen) => {
                let mut staged = Checkpoint::new();
                index.save_sections(&mut staged);
                ck.stage_generation(gen, &staged);
            }
            None => index.save_sections(ck),
        }
        if ck.save(path).is_err() {
            imcat_obs::counter_add("ann.index.persist_failed", 1);
        }
        index
    }

    /// What an index built from this configuration over `n_items` items is
    /// running with: the one place that knows which parameters belong to
    /// which kind.
    pub fn describe(&self, n_items: usize) -> AnnDescriptor {
        let mut d = AnnDescriptor {
            kind: self.kind.name(),
            n_items,
            nlist: 0,
            nprobe: 0,
            m: 0,
            ef_construction: 0,
            ef_search: 0,
            quantized: false,
        };
        match self.kind {
            AnnKind::Ivf => {
                d.nlist = self.resolved_nlist(n_items);
                d.nprobe = self.resolved_nprobe(n_items);
                d.quantized = self.quantized;
            }
            AnnKind::Hnsw => {
                d.m = self.resolved_m(n_items);
                d.ef_construction = self.resolved_ef_construction(n_items);
                d.ef_search = self.resolved_ef_search(n_items);
            }
            AnnKind::Brute => {}
        }
        d
    }
}
