//! Tests that can *see* the stream-state refactor:
//!
//! * the artifact `rebuild_artifact` produces for a hand-built base and a
//!   fixed log is pinned by hash (so the function cannot drift while the
//!   replay==offline suite keeps comparing it with itself);
//! * a live engine applying any valid log followed by one `fold_pending`
//!   equals `rebuild_artifact(base, log)` byte for byte;
//! * a corrupt offline log is a typed `InvalidData` error, never a panic.

use std::sync::{Mutex, OnceLock};

use imcat_ckpt::fnv1a64;
use imcat_serve::{
    rebuild_artifact, AnnConfig, Artifact, Engine, FoldOptions, Interaction, ServeConfig,
    StreamEvent,
};
use imcat_tensor::Tensor;
use proptest::prelude::*;

/// The pool is process-global, so tests that reconfigure it must not overlap.
fn pool_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    imcat_par::set_threads(threads);
    let out = f();
    imcat_par::set_threads(imcat_par::default_threads());
    out
}

/// An untrained artifact whose every value is an exactly representable
/// dyadic rational — no libm, no RNG, identical on every machine.
fn hand_built(n_users: usize, n_items: usize, dim: usize) -> Artifact {
    let grid = |rows: usize, salt: usize| {
        Tensor::from_vec(
            rows,
            dim,
            (0..rows * dim).map(|i| ((i * 7 + salt * 3) % 11) as f32 * 0.125 - 0.5).collect(),
        )
    };
    let masks = (0..n_users)
        .map(|u| (0..n_items as u32).filter(|&i| (u + i as usize) & 3 == 0).collect())
        .collect();
    Artifact::new("hand-built", grid(n_users, 1), grid(n_items, 2), masks)
}

fn artifact_bytes(a: &Artifact) -> Vec<u8> {
    a.to_checkpoint().to_bytes()
}

/// Cold users (6, 7), cold items (9, 10, 11 — the last without evidence),
/// warm→cold, cold→warm and cold→cold pairs, and repeated interactions.
fn fixed_log() -> Vec<StreamEvent> {
    let x = |user, item| StreamEvent::Interaction(Interaction { user, item });
    vec![
        x(0, 3),
        StreamEvent::RegisterUser,
        StreamEvent::RegisterItem,
        x(6, 1),
        x(6, 1),
        x(2, 9),
        x(6, 9),
        StreamEvent::RegisterItem,
        StreamEvent::RegisterUser,
        x(7, 10),
        x(1, 10),
        x(1, 10),
        x(7, 4),
        x(7, 9),
        StreamEvent::RegisterItem,
        x(5, 0),
        x(6, 8),
    ]
}

/// Pinned *before* `rebuild.rs` was rewritten onto the shared stream state:
/// the same bytes must come out at 1 and 4 threads, before and after.
#[test]
fn rebuild_artifact_bytes_are_pinned_at_1_and_4_threads() {
    let _guard = pool_lock().lock().unwrap();
    let base = hand_built(6, 9, 4);
    for threads in [1usize, 4] {
        let rebuilt = with_threads(threads, || {
            rebuild_artifact(&base, &fixed_log(), &FoldOptions::default())
        })
        .unwrap();
        assert_eq!((rebuilt.n_users(), rebuilt.n_items()), (8, 12));
        assert_eq!(
            fnv1a64(&artifact_bytes(&rebuilt)),
            0x17df_a832_bbea_2a33,
            "threads={threads}: rebuild_artifact output drifted"
        );
    }
}

/// An offline log that names an entity it never registered is rejected with
/// a typed error — replay validates exactly like live ingestion does.
#[test]
fn corrupt_offline_log_is_invalid_data_not_a_panic() {
    let base = hand_built(3, 5, 2);
    let x = |user, item| StreamEvent::Interaction(Interaction { user, item });
    for log in [vec![x(3, 0)], vec![x(0, 5)], vec![StreamEvent::RegisterUser, x(3, 6)]] {
        let err = rebuild_artifact(&base, &log, &FoldOptions::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}

/// A valid random log over `base`: registrations interleaved with
/// interactions that only ever name live ids (duplicates welcome).
fn arbitrary_log(base: &Artifact, gen: &mut Gen) -> Vec<StreamEvent> {
    let (mut n_users, mut n_items) = (base.n_users() as u64, base.n_items() as u64);
    (0..gen.below(40))
        .map(|_| match gen.below(8) {
            0 => {
                n_users += 1;
                StreamEvent::RegisterUser
            }
            1 => {
                n_items += 1;
                StreamEvent::RegisterItem
            }
            _ => StreamEvent::Interaction(Interaction {
                user: gen.below(n_users) as u32,
                item: gen.below(n_items) as u32,
            }),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live application of a log + one fold tick == offline replay, byte for
    /// byte, with and without an index riding along.
    #[test]
    fn live_log_then_one_fold_equals_offline_rebuild(seed in 0u64..1_000_000) {
        let mut gen = Gen::new(seed);
        let base = hand_built(
            1 + gen.below(5) as usize,
            2 + gen.below(8) as usize,
            1 + gen.below(4) as usize,
        );
        let log = arbitrary_log(&base, &mut gen);
        let ann = (gen.below(2) == 0).then(|| AnnConfig { nlist: 2, ..AnnConfig::default() });
        let mut engine =
            Engine::new(base.clone(), ServeConfig { ann, ..Default::default() }).unwrap();
        for &ev in &log {
            match ev {
                StreamEvent::RegisterUser => drop(engine.register_user()),
                StreamEvent::RegisterItem => drop(engine.register_item()),
                StreamEvent::Interaction(x) => engine.ingest(x).unwrap(),
            }
        }
        prop_assert_eq!(engine.stream_log(), log.as_slice());
        engine.fold_pending();
        let offline = rebuild_artifact(&base, &log, &engine.fold_options()).unwrap();
        prop_assert_eq!(artifact_bytes(engine.artifact()), artifact_bytes(&offline));
    }
}
