//! Stream state: the one rule that turns `(base artifact, event log)` into
//! serving state.
//!
//! Every mutation a generation accepts after its base — registering a cold
//! user or item, appending one user→item interaction — is a [`StreamEvent`].
//! [`StreamState`] owns the live artifact, the arrival-ordered log and the
//! fold-in options, and holds the *only* implementations of "apply one
//! event" ([`StreamState::apply`]) and "run one two-phase fold tick"
//! ([`StreamState::fold`]). The live engine's mutators, the suffix replay
//! after a generation swap, and the offline [`rebuild_artifact`] all go
//! through them, so replaying a log offline is bit-identical to what the
//! live engine serves *by construction* — the property `tests/streaming.rs`
//! and `tests/replay.rs` assert at 1 and 4 threads.
//!
//! ## The base is the live prefix
//!
//! A generation holds its artifact once. The base the log replays over is
//! not kept beside it, because no mutation writes a base row: registrations
//! append rows, phase A of a fold writes only items past the frozen prefix,
//! and phase B only post-base users. So the base's embedding tables are the
//! first rows of the live ones, bit for bit (`tests/generation.rs` pins
//! it). The only base state a mutation overwrites is a base user's mask, and
//! the state keeps its pre-image, taken the first time an interaction
//! changes it. [`StreamState::snapshot`] assembles the base from the two —
//! prefix rows plus pre-images — when a rebuild asks for it, and hands it to
//! the worker by value. Serving a generation, and writing to it, never copies
//! the catalogue.
//!
//! The invariant that keeps ANN certified-skip sound is **items fold once**:
//! an index covers exactly the items finalized into the item matrix
//! (`frozen_items`); a registered item's embedding is written at its first
//! fold tick, which reports it (`FoldTick::items`) for the caller's index
//! insert, and is never touched again until the next generation. Users are
//! not indexed, so they refold whenever their evidence grows.
//!
//! A fold tick costs what changed since the last one. The state keeps a
//! cursor over the log prefix earlier ticks consumed and, for every post-base
//! user, the item ids of their interactions in arrival order (4 B each). A
//! tick reads only the log past the cursor and refolds only the users it
//! names. That is the same artifact, bit for bit, as refolding every user
//! from the whole log: items fold once and before users, so each evidence
//! row of a user the window does not name is the row it was at their last
//! fold, and [`fold_embedding`] of the same rows in the same order returns
//! the same bits. A test keeps the whole-log tick as the oracle.

use std::collections::HashMap;
use std::io;
use std::ops::Range;

use imcat_ckpt::Artifact;
use imcat_tensor::Tensor;

use crate::engine::ServeError;
use crate::foldin::{fold_embedding, FoldOptions};

/// One streamed user→item interaction (the user consumed/clicked/rated the
/// item at serve time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interaction {
    /// User id (registered: either trained into the artifact or
    /// [`crate::Engine::register_user`]ed).
    pub user: u32,
    /// Item id (in the live catalog).
    pub item: u32,
}

/// One entry of the generation's mutation log, in arrival order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// A cold user joined; their id is the user count at that point.
    RegisterUser,
    /// A cold item joined the catalog; its id is the item count at that
    /// point.
    RegisterItem,
    /// One interaction was appended (mask update + fold-in evidence).
    Interaction(Interaction),
}

/// Appends an all-zero row in place (amortized `O(d)`: the buffer grows like
/// any `Vec`).
fn push_zero_row(t: &mut Tensor) {
    let (n, d) = t.shape();
    let mut v = std::mem::replace(t, Tensor::zeros(0, d)).into_vec();
    v.resize((n + 1) * d, 0.0);
    *t = Tensor::from_vec(n + 1, d, v);
}

/// The first `rows` rows of `t`, copied.
fn prefix(t: &Tensor, rows: usize) -> Tensor {
    Tensor::from_vec(rows, t.cols(), t.as_slice()[..rows * t.cols()].to_vec())
}

/// What one fold tick changed, for whoever caches answers over the state.
pub(crate) struct FoldTick {
    /// Embeddings written from evidence (evidence-less cold items excluded).
    pub folds: usize,
    /// Log events the tick consumed (the window's length).
    pub events: usize,
    /// The items the tick finalized, ascending: the caller's index inserts,
    /// in this order. Empty when no item was waiting.
    pub items: Range<u32>,
    /// Users whose embedding was (re)written — exactly the post-base users
    /// with an interaction since the last tick — ascending.
    pub users: Vec<u32>,
}

/// One generation's streaming state (see the module docs).
pub(crate) struct StreamState {
    /// The artifact being served, mutated in place.
    artifact: Artifact,
    /// Users and items the generation's base holds: the prefix of the live
    /// tables no mutation writes.
    base_users: usize,
    base_items: usize,
    /// The base mask of every base user an interaction has changed, taken
    /// before the first change.
    base_masks: HashMap<u32, Vec<u32>>,
    /// Arrival-ordered mutations since the base.
    log: Vec<StreamEvent>,
    /// `log[..folded]` has been consumed by fold ticks.
    folded: usize,
    /// `evidence[u - base_users]`: the items post-base user `u` interacted
    /// with in `log[..folded]`, in arrival order, duplicates kept.
    evidence: Vec<Vec<u32>>,
    /// Items `0..frozen_items` have final embeddings (and are covered by the
    /// caller's index); items past it are registered but still cold (zero
    /// row) until the next fold tick.
    frozen_items: usize,
    pub fold_options: FoldOptions,
}

impl StreamState {
    /// A fresh generation over `artifact`, which becomes its base.
    pub fn new(artifact: Artifact, fold_options: FoldOptions) -> Self {
        Self {
            base_users: artifact.n_users(),
            base_items: artifact.n_items(),
            frozen_items: artifact.n_items(),
            artifact,
            base_masks: HashMap::new(),
            log: Vec::new(),
            folded: 0,
            evidence: Vec::new(),
            fold_options,
        }
    }

    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    pub fn log(&self) -> &[StreamEvent] {
        &self.log
    }

    /// The generation's `(base, log)`: everything a rebuild needs. The base
    /// is assembled here, once — the live tables' base prefix and the base
    /// users' masks as they stood before the generation's first interaction
    /// changed them — and is the caller's to consume.
    pub fn snapshot(&self) -> (Artifact, Vec<StreamEvent>) {
        let live = &self.artifact;
        let masks = (0..self.base_users)
            .map(|u| self.base_masks.get(&(u as u32)).unwrap_or(&live.masks[u]).clone())
            .collect();
        let base = Artifact::new(
            live.model.clone(),
            prefix(&live.user_emb, self.base_users),
            prefix(&live.item_emb, self.base_items),
            masks,
        );
        (base, self.log.clone())
    }

    /// Applies one event: validates an interaction's ids against the live
    /// ranges, then grows the matrices (registration; the new row is zero
    /// until a fold tick) or the user's mask (interaction; the item leaves
    /// their recommendations *now* — a base user's mask keeps its pre-image
    /// first), and appends the event to the log as fold-in evidence. A
    /// rejected event changes nothing.
    pub fn apply(&mut self, ev: StreamEvent) -> Result<(), ServeError> {
        let art = &mut self.artifact;
        match ev {
            StreamEvent::RegisterUser => {
                push_zero_row(&mut art.user_emb);
                art.masks.push(Vec::new());
            }
            StreamEvent::RegisterItem => push_zero_row(&mut art.item_emb),
            StreamEvent::Interaction(x) => {
                let n_users = art.n_users() as u32;
                let n_items = art.n_items() as u32;
                if x.user >= n_users {
                    return Err(ServeError::UserOutOfRange { user: x.user, n_users });
                }
                if x.item >= n_items {
                    return Err(ServeError::ItemOutOfRange { item: x.item, n_items });
                }
                let mask = &mut art.masks[x.user as usize];
                if let Err(pos) = mask.binary_search(&x.item) {
                    if (x.user as usize) < self.base_users {
                        self.base_masks.entry(x.user).or_insert_with(|| mask.clone());
                    }
                    mask.insert(pos, x.item);
                }
            }
        }
        self.log.push(ev);
        Ok(())
    }

    /// One fold tick over the events since the last one (the window), in two
    /// ordered phases. **A:** every registered-but-cold item is finalized in
    /// ascending id — ridge fold-in ([`fold_embedding`]) against its
    /// interacting users' rows as they stand (a still-cold user is a zero
    /// row and contributes nothing), zero row if it has no evidence — and
    /// reported in [`FoldTick::items`] for the caller's index. Such an item
    /// was registered inside the window, so all of its evidence is too.
    /// **B:** every post-base user with an interaction in the window
    /// refolds, in ascending id, from their whole evidence list against the
    /// item matrix with the phase-A rows in place. Evidence rows are visited
    /// in log-arrival order, duplicates kept (a repeated interaction is
    /// weighted evidence). Users the window does not name keep their rows:
    /// those are already the fold of the same rows (module docs).
    ///
    /// Inserting the finalized items into an index after the tick is the
    /// same as inserting each as phase A writes it: phase A reads only user
    /// rows, and phase B writes no item row.
    pub fn fold(&mut self) -> FoldTick {
        let n_items = self.artifact.n_items();
        let mut tick = FoldTick {
            folds: 0,
            events: self.log.len() - self.folded,
            items: self.frozen_items as u32..n_items as u32,
            users: Vec::new(),
        };
        if tick.events == 0 && tick.items.is_empty() {
            return tick;
        }
        let _sp = imcat_obs::span("serve.fold.seconds");
        let art = &mut self.artifact;
        let dim = art.dim();
        let mut item_users: Vec<Vec<u32>> = vec![Vec::new(); n_items - self.frozen_items];
        self.evidence.resize_with(art.n_users() - self.base_users, Vec::new);
        for ev in &self.log[self.folded..] {
            if let StreamEvent::Interaction(x) = *ev {
                let (user, item) = (x.user as usize, x.item as usize);
                if item >= self.frozen_items {
                    item_users[item - self.frozen_items].push(x.user);
                }
                if user >= self.base_users {
                    self.evidence[user - self.base_users].push(x.item);
                    tick.users.push(x.user);
                }
            }
        }
        self.folded = self.log.len();
        for (id, evidence) in (self.frozen_items..n_items).zip(&item_users) {
            let rows: Vec<&[f32]> =
                evidence.iter().map(|&u| art.user_emb.row(u as usize)).collect();
            let emb = fold_embedding(&rows, dim, &self.fold_options);
            tick.folds += !rows.is_empty() as usize;
            art.item_emb.row_mut(id).copy_from_slice(&emb);
        }
        self.frozen_items = n_items;
        tick.users.sort_unstable();
        tick.users.dedup();
        for &u in &tick.users {
            let rows: Vec<&[f32]> = self.evidence[u as usize - self.base_users]
                .iter()
                .map(|&i| art.item_emb.row(i as usize))
                .collect();
            let emb = fold_embedding(&rows, dim, &self.fold_options);
            art.user_emb.row_mut(u as usize).copy_from_slice(&emb);
        }
        tick.folds += tick.users.len();
        tick
    }
}

/// Replays `log` over `base` into a fresh artifact and folds every cold
/// entity in once — the live engine's own `StreamState::apply` and
/// `StreamState::fold` over a fresh state, so there is nothing to keep in
/// step. Pure and deterministic: the same `(base, log, opts)` produces a
/// bit-identical artifact at any `IMCAT_THREADS` setting. A log that names
/// an entity it never registered is a typed `InvalidData` error.
pub fn rebuild_artifact(
    base: &Artifact,
    log: &[StreamEvent],
    opts: &FoldOptions,
) -> io::Result<Artifact> {
    replay(base.clone(), log, opts)
}

/// [`rebuild_artifact`] over a base the caller hands over: the replay
/// mutates it in place into the output, so a rebuild holds one artifact.
pub(crate) fn replay(
    base: Artifact,
    log: &[StreamEvent],
    opts: &FoldOptions,
) -> io::Result<Artifact> {
    let mut state = StreamState::new(base, *opts);
    for &ev in log {
        state.apply(ev).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("corrupt stream log: {e}"))
        })?;
    }
    state.fold();
    state.artifact.validate()?;
    Ok(state.artifact)
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use imcat_ann::{AnnConfig, DEFAULT_BUILD_SEED};
    use proptest::prelude::*;

    use super::*;

    /// The fold tick before it became incremental, kept as the oracle: it
    /// rescans the whole log and refolds every post-base user with evidence.
    fn oracle_fold(state: &mut StreamState, mut on_item: impl FnMut(u32, &[f32])) -> FoldTick {
        let n_items = state.artifact.n_items();
        let mut tick = FoldTick {
            folds: 0,
            events: 0,
            items: state.frozen_items as u32..n_items as u32,
            users: Vec::new(),
        };
        if state.log.is_empty() && tick.items.is_empty() {
            return tick;
        }
        let art = &mut state.artifact;
        let dim = art.dim();
        let mut item_users: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut user_items: HashMap<u32, Vec<u32>> = HashMap::new();
        for ev in &state.log {
            if let StreamEvent::Interaction(x) = *ev {
                if (x.item as usize) >= state.frozen_items {
                    item_users.entry(x.item).or_default().push(x.user);
                }
                if (x.user as usize) >= state.base_users {
                    user_items.entry(x.user).or_default().push(x.item);
                }
            }
        }
        for id in state.frozen_items..n_items {
            let evidence = item_users.get(&(id as u32)).map(Vec::as_slice).unwrap_or(&[]);
            let rows: Vec<&[f32]> =
                evidence.iter().map(|&u| art.user_emb.row(u as usize)).collect();
            let emb = fold_embedding(&rows, dim, &state.fold_options);
            tick.folds += !rows.is_empty() as usize;
            art.item_emb.row_mut(id).copy_from_slice(&emb);
            on_item(id as u32, &emb);
        }
        state.frozen_items = n_items;
        tick.users = user_items.keys().copied().collect();
        tick.users.sort_unstable();
        for &u in &tick.users {
            let rows: Vec<&[f32]> =
                user_items[&u].iter().map(|&i| art.item_emb.row(i as usize)).collect();
            let emb = fold_embedding(&rows, dim, &state.fold_options);
            art.user_emb.row_mut(u as usize).copy_from_slice(&emb);
        }
        tick.folds += tick.users.len();
        tick
    }

    /// An untrained artifact of exactly representable dyadic values.
    fn hand_built(n_users: usize, n_items: usize, dim: usize) -> Artifact {
        let grid = |rows: usize, salt: usize| {
            let cell = |i: usize| ((i * 7 + salt * 3) % 11) as f32 * 0.125 - 0.5;
            Tensor::from_vec(rows, dim, (0..rows * dim).map(cell).collect())
        };
        let masks = (0..n_users)
            .map(|u| (0..n_items as u32).filter(|&i| (u + i as usize) & 3 == 0).collect())
            .collect();
        Artifact::new("hand-built", grid(n_users, 1), grid(n_items, 2), masks)
    }

    fn bytes(state: &StreamState) -> Vec<u8> {
        state.artifact().to_checkpoint().to_bytes()
    }

    fn bits(emb: &[f32]) -> Vec<u32> {
        emb.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random logs with fold ticks at random points, with and without an
        /// index taking the items' inserts: after every tick the incremental
        /// state holds the oracle's bytes, has handed the index the same
        /// items with the same bits, and refolded exactly the post-base
        /// users with an interaction since the last tick; and the base a
        /// snapshot assembles is the starting artifact, byte for byte.
        #[test]
        fn incremental_fold_equals_the_whole_log_oracle(seed in 0u64..1_000_000) {
            let mut gen = Gen::new(seed);
            let base = hand_built(
                1 + gen.below(5) as usize,
                2 + gen.below(8) as usize,
                1 + gen.below(6) as usize,
            );
            let base_users = base.n_users() as u32;
            let mut index = (gen.below(2) == 0)
                .then(|| AnnConfig { nlist: 2, ..AnnConfig::default() })
                .map(|cfg| cfg.build_index(&base.item_emb, DEFAULT_BUILD_SEED));
            let opts = FoldOptions::default();
            let base_bytes = base.to_checkpoint().to_bytes();
            let mut live = StreamState::new(base.clone(), opts);
            let mut oracle = StreamState::new(base, opts);
            let mut window = BTreeSet::new();
            let steps = gen.below(60);
            for step in 0..=steps {
                let ev = match gen.below(10) {
                    _ if step == steps => None,
                    0 => Some(StreamEvent::RegisterUser),
                    1 => Some(StreamEvent::RegisterItem),
                    2 | 3 => None,
                    _ => Some(StreamEvent::Interaction(Interaction {
                        user: gen.below(live.artifact().n_users() as u64) as u32,
                        item: gen.below(live.artifact().n_items() as u64) as u32,
                    })),
                };
                if let Some(ev) = ev {
                    live.apply(ev).unwrap();
                    oracle.apply(ev).unwrap();
                    if let StreamEvent::Interaction(x) = ev {
                        if x.user >= base_users {
                            window.insert(x.user);
                        }
                    }
                    continue;
                }
                let tick = live.fold();
                let items = &live.artifact().item_emb;
                let mut inserted = Vec::new();
                for id in tick.items.clone() {
                    inserted.push((id, bits(items.row(id as usize))));
                    if let Some(index) = index.as_mut() {
                        index.insert(id, items).unwrap();
                    }
                }
                let mut want_inserted = Vec::new();
                let want =
                    oracle_fold(&mut oracle, |id, emb| want_inserted.push((id, bits(emb))));
                prop_assert!(bytes(&live) == bytes(&oracle), "step {step}: bytes differ");
                let (snap_base, snap_log) = live.snapshot();
                prop_assert!(snap_base.to_checkpoint().to_bytes() == base_bytes, "step {step}");
                prop_assert_eq!(snap_log.as_slice(), live.log());
                prop_assert_eq!(&inserted, &want_inserted, "step {}", step);
                prop_assert_eq!(&tick.items, &want.items);
                let window: Vec<u32> = std::mem::take(&mut window).into_iter().collect();
                prop_assert_eq!(&tick.users, &window, "step {}: refolded users", step);
                prop_assert_eq!(tick.folds - tick.users.len(), want.folds - want.users.len());
                if let Some(index) = &index {
                    prop_assert_eq!(index.n_items(), live.artifact().n_items());
                }
            }
        }
    }
}
