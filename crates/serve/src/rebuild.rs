//! Background full rebuild: log replay → fold-in → fresh index →
//! generation-staged persistence.
//!
//! ## The canonical rebuild function
//!
//! The worker runs [`rebuild_artifact`]'s replay (`stream.rs`), a *pure,
//! deterministic* function of the generation base artifact and its
//! [`StreamEvent`] log: a fresh stream state over the base, every event
//! applied, one fold tick. The engine assembles the base once (its live
//! prefix plus the base masks' pre-images) and hands it over by value; the
//! replay grows it in place into the next generation's artifact, and the
//! fresh index is built over that. There is no second copy of that rule here: the
//! live engine mutates through the same two functions, so the background
//! rebuild, an offline build over the same `(base, log)`, and a live engine
//! that applied the log and folded once are bit-identical by construction —
//! asserted byte-for-byte at 1 and 4 threads in `tests/streaming.rs` and
//! `tests/replay.rs`.
//!
//! ## Crash-safe generation swap
//!
//! When a persistence path is given, the rebuild worker *stages* the next
//! generation: every `artifact.*`/`ann.*` section is written under a
//! `gen<N>.` prefix while the container's committed-generation pointer still
//! names the old sections, and the whole file is saved atomically
//! (tmp+fsync+rename). The engine commits only after swapping its in-memory
//! state, with a second atomic save that flips the pointer and prunes the
//! superseded sections. A crash between the two saves recovers to the *old*
//! generation — complete and consistent; a crash after the second recovers
//! to the new one. There is no instant at which a loader can observe half a
//! generation.

use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;

use imcat_ann::{AnnConfig, AnnIndex, DEFAULT_BUILD_SEED};
use imcat_ckpt::{Artifact, Checkpoint};

use crate::foldin::FoldOptions;
use crate::stream::{replay, StreamEvent};

/// Everything the background worker hands back on success.
pub(crate) struct RebuildOutput {
    pub artifact: Artifact,
    pub index: Option<Box<dyn AnnIndex>>,
    /// `(path, generation)` when the new generation was staged on disk.
    pub staged: Option<(PathBuf, u64)>,
}

/// A rebuild running off the request path. Poll [`RebuildTask::is_finished`]
/// between ticks and hand the task to `Engine::commit_rebuild` when ready
/// (committing blocks on the remaining work, which is nothing once the poll
/// reports finished).
pub struct RebuildTask {
    pub(crate) handle: JoinHandle<io::Result<RebuildOutput>>,
    /// Length of the engine log captured in the rebuild snapshot; events
    /// past it are replayed onto the new generation at commit.
    pub(crate) snap_len: usize,
}

impl RebuildTask {
    /// Whether the worker thread has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// Spawns the rebuild worker over a snapshot of the engine's streaming
/// state, whose base it consumes. With `persist`, the worker also stages the
/// next generation into the container at that path (atomic save, committed
/// pointer untouched).
pub(crate) fn spawn(
    base: Artifact,
    log: Vec<StreamEvent>,
    opts: FoldOptions,
    ann: Option<AnnConfig>,
    persist: Option<PathBuf>,
) -> io::Result<RebuildTask> {
    let snap_len = log.len();
    imcat_obs::counter_add("serve.rebuilds", 1);
    let handle = std::thread::Builder::new().name("imcat-rebuild".into()).spawn(move || {
        let sp = imcat_obs::span("serve.rebuild.seconds");
        let artifact = replay(base, &log, &opts)?;
        let index = ann.map(|c| c.build_index(&artifact.item_emb, DEFAULT_BUILD_SEED));
        let staged = match persist {
            None => None,
            Some(path) => {
                let mut ck = match Checkpoint::load(&path) {
                    Ok(ck) => ck,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Checkpoint::new(),
                    Err(e) => return Err(e),
                };
                let gen = ck.generation()?.unwrap_or(0) + 1;
                let mut staged_ck = artifact.to_checkpoint();
                if let Some(ix) = &index {
                    ix.save_sections(&mut staged_ck);
                }
                ck.stage_generation(gen, &staged_ck);
                // Atomic save #1: the new generation's sections exist, the
                // committed pointer still names the old one. A crash from
                // here until commit recovers to the old generation.
                ck.save(&path)?;
                Some((path, gen))
            }
        };
        drop(sp);
        Ok(RebuildOutput { artifact, index, staged })
    })?;
    Ok(RebuildTask { handle, snap_len })
}
