//! # imcat-serve
//!
//! A CPU top-K recommendation serving engine for the IMCAT reproduction.
//!
//! Training ends with [`imcat_ckpt::Artifact`] — resolved post-propagation
//! user/item embeddings plus each user's training-item mask, frozen into the
//! crash-safe `imcat-ckpt` container by the trainer at every best-validation
//! epoch. This crate answers `recommend(user, k)` requests against that
//! artifact without touching the tape, autodiff, or optimizer:
//!
//! * **Parity** — answers are bit-identical to the offline evaluator's
//!   masked top-K ranking at any `IMCAT_THREADS` setting.
//! * **Panic-proof requests** — malformed requests (out-of-range user,
//!   `k == 0`) are rejected with a typed [`ServeError`], never an assert:
//!   request data can't take down a serving worker mid-batch.
//! * **Caching** — a bounded LRU keeps hot users' lists with hit/miss
//!   accounting; it is the one state the engine shares, and a
//!   [`CacheReader`] answers a cached request from another thread through
//!   the engine's own hit path.
//! * **Batching** — a tick of concurrent requests costs one `matmul_nt_rows`
//!   over its exact misses; a single request is a tick of one.
//! * **ANN retrieval** — [`ServeConfig::ann`] fronts scoring with an
//!   `imcat-ann` index behind the [`AnnIndex`] trait (exact re-rank,
//!   brute-force fallback), turning per-request cost sublinear in catalog
//!   size.
//! * **Streaming ingestion** — [`Engine::ingest`] appends live
//!   interactions, [`Engine::register_user`]/[`Engine::register_item`] add
//!   cold entities, [`Engine::fold_pending`] folds them in (ridge
//!   least-squares against the frozen opposite side) and extends the ANN
//!   index incrementally, and [`Engine::spawn_rebuild`] /
//!   [`Engine::commit_rebuild`] swap a full log-replay rebuild in
//!   atomically — bit-identical to the same replay run offline
//!   ([`rebuild_artifact`]).
//! * **Telemetry** — request latency histograms (one sample per answered
//!   request) and counters flow through `imcat-obs`.

//!
//! ## Module map
//!
//! * `engine` — the read path (validate → cache → probe → exact scan →
//!   account)
//!   and the generation swap; its mutators only forward events and
//!   invalidate the cache/index.
//! * `stream` — the one rule from `(base artifact, event log)` to serving
//!   state: apply one [`StreamEvent`], run one two-phase fold tick,
//!   [`rebuild_artifact`] = "replay, fold once" over those two.
//! * `rebuild` — the background worker and the crash-safe two-save staging.
//! * `foldin` — the ridge fold-in solve. `cache` — the LRU, with per-user
//!   chains so that invalidating a user costs that user's entries.
//!
//! The ANN lifecycle (build, open-or-rebuild-and-persist, describe) lives
//! behind `imcat-ann`'s [`AnnConfig`]; nothing here knows which backend is
//! live.

#![warn(missing_docs)]

mod cache;
mod engine;
mod foldin;
mod rebuild;
mod stream;

pub use cache::LruCache;
pub use engine::{CacheReader, Engine, Recommendation, ServeConfig, ServeError, ServeStats};
pub use foldin::{fold_embedding, FoldOptions};
pub use imcat_ann::{
    AnnConfig, AnnDescriptor, AnnIndex, AnnKind, BruteIndex, IvfIndex, ProbeScratch,
    DEFAULT_BUILD_SEED,
};
pub use imcat_ckpt::Artifact;
pub use rebuild::RebuildTask;
pub use stream::{rebuild_artifact, Interaction, StreamEvent};
