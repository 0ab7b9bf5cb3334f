//! Network serving front-end: a from-scratch TCP/HTTP/1.1 layer over
//! item-sharded [`imcat_serve::Engine`] replicas.
//!
//! The crate has two layers, each usable on its own:
//!
//! * [`ShardedEngine`] — N engine replicas, each holding a contiguous slice
//!   of the item axis (and its own IVF lists when ANN is configured). A
//!   request fans out to every replica and the per-shard top-K lists are
//!   merged through the evaluator's own canonical ranking, so the merged
//!   answer is **bit-identical** to a single unsharded engine at any shard
//!   count — same items, same order, same score bits.
//! * [`Server`] — a dependency-free HTTP/1.1 front-end: one acceptor thread,
//!   a bounded admission queue, a pool of connection workers, and a single
//!   batcher thread that folds concurrent requests into micro-batch ticks
//!   ([`imcat_serve::Engine::recommend_batch`] per replica). A request every
//!   replica has cached never reaches the batcher: the worker answers it
//!   through a [`ShardReader`]. Overload is shed with a fast `503` and
//!   counted (`serve.shed`) rather than queued without bound.
//!
//! The process that runs a [`Server`] is `imcat serve --artifact FILE --addr
//! HOST:PORT`; its load is measured by the repository benchmark
//! (`crates/bench/src/bin/perf`, workloads `wire_hot` and `wire_cold`).
//!
//! Everything is `std`-only. The HTTP plumbing ([`http::Conn`], bounded
//! heads and bodies, total per-request deadlines) is `imcat_obs::http`, the
//! workspace's one HTTP implementation, shared with the telemetry listener
//! and re-exported here as [`http`].

mod server;
mod shard;

pub use imcat_obs::http;
pub use server::{NetConfig, NetStats, Server};
pub use shard::{shard_artifact, shard_ranges, ShardReader, ShardedEngine};
