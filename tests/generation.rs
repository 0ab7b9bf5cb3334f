//! One generation, one copy of each table: the invariant the stream state's
//! base rests on, pinned end to end through the engine.
//!
//! The engine keeps no base artifact beside the live one. A rebuild's base is
//! the live tables' first rows plus the masks base users had before the
//! generation changed them, so no mutation may ever write a base row:
//! registrations append, a fold finalizes only items past the frozen prefix
//! (phase A) and refolds only users past the base (phase B). Seeded
//! interleavings of `register_user`, `register_item`, `ingest` and
//! `fold_pending` — warm users ingest most — run on an IVF engine and an
//! HNSW engine over two generations, and after every step the live
//! artifact's base rows must equal the generation's starting rows bit for
//! bit (masks excepted: an interaction masks its item at once). After
//! `spawn_rebuild(None)` and `commit_rebuild` the engine must hold exactly
//! `rebuild_artifact(start, log)` and serve what a fresh engine over that
//! artifact serves, ids and score bits.

use imcat::serve::{
    rebuild_artifact, AnnConfig, AnnKind, Artifact, Engine, Interaction, Recommendation,
    ServeConfig,
};
use imcat::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 30;
const ITEMS: usize = 80;
const DIM: usize = 8;
/// Mutations per generation.
const STEPS: usize = 120;

/// A fixed artifact: coordinates in `[-1, 1)` from a seeded stream, a few
/// masked items per user.
fn start_artifact(seed: u64) -> Artifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = |rows: usize| {
        let data = (0..rows * DIM).map(|_| rng.gen_range(0..2048) as f32 / 1024.0 - 1.0).collect();
        Tensor::from_vec(rows, DIM, data)
    };
    let (users, items) = (table(USERS), table(ITEMS));
    let masks = (0..USERS as u32)
        .map(|u| (0..ITEMS as u32).filter(|&i| (u * 7 + i * 3) % 11 == 0).collect())
        .collect();
    Artifact::new("generation", users, items, masks)
}

fn config(kind: AnnKind) -> ServeConfig {
    let ann = AnnConfig {
        kind,
        nlist: 6,
        nprobe: 3,
        m: 4,
        ef_construction: 16,
        ef_search: 12,
        ..AnnConfig::default()
    };
    ServeConfig { cache_capacity: 16, ann: Some(ann) }
}

fn bits(t: &Tensor, rows: usize) -> Vec<u32> {
    t.as_slice()[..rows * t.cols()].iter().map(|x| x.to_bits()).collect()
}

fn bytes(artifact: &Artifact) -> Vec<u8> {
    artifact.to_checkpoint().to_bytes()
}

fn answer_bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// The live base rows of both tables against `start`'s, bit for bit.
fn assert_base_rows_hold(engine: &Engine, start: &Artifact, at: &str) {
    let live = engine.artifact();
    assert_eq!(
        bits(&live.user_emb, start.n_users()),
        bits(&start.user_emb, start.n_users()),
        "{at}: a base user row was written"
    );
    assert_eq!(
        bits(&live.item_emb, start.n_items()),
        bits(&start.item_emb, start.n_items()),
        "{at}: a base item row was written"
    );
}

/// One seeded mutation: warm users interact most, cold users and items
/// join, and a fold tick runs now and then. Reads ride along so the cache
/// and the index are live.
fn step(engine: &mut Engine, base_users: u32, rng: &mut StdRng) {
    let n_users = engine.n_users() as u32;
    let n_items = engine.n_items() as u32;
    match rng.gen_range(0..20) {
        0 => {
            engine.register_user();
        }
        1 => {
            engine.register_item();
        }
        2 | 3 => {
            engine.fold_pending();
        }
        4..=11 => {
            let user = rng.gen_range(0..base_users);
            let item = rng.gen_range(0..n_items);
            engine.ingest(Interaction { user, item }).unwrap();
        }
        _ => {
            let user = rng.gen_range(0..n_users);
            let item = rng.gen_range(0..n_items);
            engine.ingest(Interaction { user, item }).unwrap();
        }
    }
    let reader = rng.gen_range(0..n_users);
    engine.recommend(reader, 5).unwrap();
}

#[test]
fn mutations_never_write_a_base_row_and_the_rebuild_is_the_offline_replay() {
    for kind in [AnnKind::Ivf, AnnKind::Hnsw] {
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6e);
            let mut start = start_artifact(seed);
            let mut engine = Engine::new(start.clone(), config(kind)).unwrap();
            for generation in 0..2 {
                let at = format!("{} seed {seed} generation {generation}", kind.name());
                let base_users = start.n_users() as u32;
                for i in 0..STEPS {
                    step(&mut engine, base_users, &mut rng);
                    assert_base_rows_hold(&engine, &start, &format!("{at} step {i}"));
                }
                let log = engine.stream_log().to_vec();
                let want = rebuild_artifact(&start, &log, &engine.fold_options()).unwrap();
                let task = engine.spawn_rebuild(None).unwrap();
                engine.commit_rebuild(task).unwrap();
                assert!(engine.stream_log().is_empty(), "{at}: the commit left a log");
                assert!(bytes(engine.artifact()) == bytes(&want), "{at}: rebuilt artifact differs");
                let mut fresh = Engine::new(want.clone(), config(kind)).unwrap();
                for user in 0..engine.n_users() as u32 {
                    assert_eq!(
                        answer_bits(&engine.recommend(user, 10).unwrap()),
                        answer_bits(&fresh.recommend(user, 10).unwrap()),
                        "{at}: user {user} served differently from a fresh engine"
                    );
                }
                start = want;
            }
        }
    }
}
