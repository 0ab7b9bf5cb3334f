//! `imcat-ann`: sublinear top-K retrieval for the serving path.
//!
//! Four pieces live here:
//!
//! * [`kmeans`] — the workspace's single, shared, deterministic Lloyd
//!   k-means. IMCAT's Intent Representation Module seeds its learnable
//!   cluster centers with it, and the IVF index trains its coarse quantizer
//!   with it, so the intent machinery and the retrieval machinery share one
//!   code path by construction.
//! * [`index`] — the [`AnnIndex`] trait every backend serves behind:
//!   probe, streamed [`AnnIndex::insert`], section persistence, staleness
//!   check. [`AnnConfig::build_index`] / [`AnnConfig::open_index`] /
//!   [`AnnConfig::describe`] are the whole lifecycle and the only places
//!   that select the concrete type ([`AnnKind`]); [`BruteIndex`] is the
//!   trivial exhaustive-scan implementation the approximate backends are
//!   verified against.
//! * [`ivf`] — an IVF-Flat index over the frozen item-embedding matrix:
//!   k-means partitions items into `nlist` inverted lists; a query probes
//!   the `nprobe` closest lists and re-ranks the surviving candidates with
//!   **exact** f32 dot products, so any error is pure recall loss — returned
//!   scores and orderings are always the brute-force ones, and with
//!   `nprobe == nlist` the whole result is bit-identical to brute force.
//! * [`hnsw`] — a hierarchical navigable small-world graph over the same
//!   frozen matrix: greedy multi-layer descent plus an `ef_search`-wide
//!   base-layer beam, the same MIPS→L2 geometry and exact f32 re-rank, and
//!   live streamed inserts through the build's own link path. Wins the
//!   recall/QPS frontier over IVF at high recall targets; at
//!   `ef_search >= n_items` it is bit-identical to brute force.
//!
//! Every index serializes into `ann.*` named sections of an `imcat-ckpt`
//! container (living alongside the serving `Artifact` sections in the same
//! file), and `imcat-serve` consumes it behind `AnnConfig` with brute-force
//! fallback. See the README "ANN retrieval" section for the operational
//! knobs and `crates/bench/src/bin/frontier.rs` for the recall/QPS
//! frontier methodology.

#![warn(missing_docs)]

pub mod hnsw;
pub mod index;
pub mod ivf;
pub mod kmeans;

pub use hnsw::HnswIndex;
pub use index::{AnnDescriptor, AnnIndex, AnnKind, BruteIndex};
pub use ivf::{AnnConfig, IvfIndex, ProbeScratch, DEFAULT_BUILD_SEED};
pub use kmeans::{assign_nearest, kmeans_centers};
