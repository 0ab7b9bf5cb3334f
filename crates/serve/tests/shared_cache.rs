//! The result cache shared between one engine thread and reader threads:
//! read-your-writes, no list the engine did not compute, and one set of
//! books whichever thread answered. (Alone in its binary: the telemetry
//! registry and the thread pool are process-wide.)

use std::collections::{HashMap, HashSet};
use std::sync::{Barrier, Mutex};

use imcat_serve::{Artifact, Engine, Interaction, Recommendation, ServeConfig};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: u32 = 16;
const ITEMS: u32 = 60;
const CUTOFFS: [usize; 2] = [3, 8];
const READERS: usize = 3;
const ROUNDS: usize = 60;
const WRITES_PER_ROUND: usize = 6;
const LOOKUPS_PER_ROUND: usize = 150;

fn artifact() -> Artifact {
    let grid = |rows: u32, salt: u32| {
        let cell = |i: u32| ((i * 7 + salt) % 13) as f32 * 0.25 - 1.5;
        Tensor::from_vec(rows as usize, 4, (0..rows * 4).map(cell).collect())
    };
    let masks = (0..USERS).map(|u| if u % 3 == 0 { vec![u, u + 30] } else { vec![] }).collect();
    Artifact::new("shared-cache", grid(USERS, 1), grid(ITEMS, 5), masks)
}

/// `(item, score bits)`: what "the same list" means.
type Bits = Vec<(u32, u32)>;

fn bits(recs: &[Recommendation]) -> Bits {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// What one reader thread saw. Checked after the join: a reader that
/// panicked mid-round would leave the others waiting at the barrier.
#[derive(Default)]
struct Seen {
    lists: Vec<((u32, usize), Bits)>,
    /// `(user, item)` served after that interaction's `ingest` had returned.
    stale: Vec<(u32, u32)>,
}

/// One engine thread works through a seeded stream of `ingest` /
/// `register_item` / `fold_pending` / `recommend_batch` while reader threads
/// look keys up through the handle; a barrier per round keeps the two sides
/// overlapping for the whole budget.
fn run(seed: u64) {
    let _obs = imcat_obs::exclusive(true);
    let mut engine =
        Engine::new(artifact(), ServeConfig { cache_capacity: 24, ..Default::default() }).unwrap();
    let reader = engine.cache_reader();
    // Interactions whose `ingest` has returned, in order.
    let acknowledged: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
    let round_start = Barrier::new(READERS + 1);

    let (computed, asked, seen) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (reader, acknowledged, round_start) =
                    (reader.clone(), &acknowledged, &round_start);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 100 + r as u64);
                    let mut seen = Seen::default();
                    for _ in 0..ROUNDS {
                        round_start.wait();
                        for _ in 0..LOOKUPS_PER_ROUND {
                            let key = (rng.gen_range(0..USERS), CUTOFFS[rng.gen_range(0..2usize)]);
                            let known = acknowledged.lock().unwrap().len();
                            let Some(list) = reader.lookup(key.0, key.1) else { continue };
                            // Read-your-writes: what was acknowledged before
                            // the lookup began is not in its answer.
                            for &(user, item) in &acknowledged.lock().unwrap()[..known] {
                                if user == key.0 && list.iter().any(|r| r.item == item) {
                                    seen.stale.push((user, item));
                                }
                            }
                            seen.lists.push((key, bits(&list)));
                        }
                    }
                    seen
                })
            })
            .collect();

        // The engine thread: this one.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut computed: HashMap<(u32, usize), HashSet<Bits>> = HashMap::new();
        let mut asked = 0u64;
        for _ in 0..ROUNDS {
            round_start.wait();
            for _ in 0..WRITES_PER_ROUND {
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let n_items = engine.n_items() as u32;
                        let x = Interaction {
                            user: rng.gen_range(0..USERS),
                            item: rng.gen_range(0..n_items),
                        };
                        engine.ingest(x).expect("ids are in range");
                        acknowledged.lock().unwrap().push((x.user, x.item));
                    }
                    4 => drop(engine.register_item()),
                    5 => drop(engine.fold_pending()),
                    _ => {
                        let tick: Vec<(u32, usize)> = (0..5)
                            .map(|_| (rng.gen_range(0..USERS), CUTOFFS[rng.gen_range(0..2usize)]))
                            .collect();
                        asked += tick.len() as u64;
                        for (key, answer) in tick.iter().zip(engine.recommend_batch(&tick)) {
                            computed.entry(*key).or_default().insert(bits(&answer.unwrap()));
                        }
                    }
                }
            }
        }
        let seen: Vec<Seen> = readers.into_iter().map(|h| h.join().expect("reader")).collect();
        (computed, asked, seen)
    });

    let stale: Vec<_> = seen.iter().flat_map(|s| &s.stale).collect();
    assert!(stale.is_empty(), "(user, item) served after the ingest returned: {stale:?}");
    // Every list a reader got is one the engine computed for that key.
    let read: u64 = seen.iter().map(|s| s.lists.len() as u64).sum();
    assert!(read > 0, "no reader ever hit: the test checked nothing");
    for (key, list) in seen.iter().flat_map(|s| &s.lists) {
        assert!(
            computed.get(key).is_some_and(|lists| lists.contains(list)),
            "a reader got a list for {key:?} the engine never returned: {list:?}"
        );
    }
    // One set of books: the engine's requests and the readers' hits.
    let (stats, obs) = (engine.stats(), imcat_obs::snapshot());
    assert_eq!(stats.served, asked + read);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.served);
    assert_eq!(obs.counter("serve.requests"), stats.served);
    assert_eq!(obs.counter("serve.cache.hits"), stats.cache_hits);
    assert_eq!(obs.counter("serve.cache.misses"), stats.cache_misses);
    assert!(stats.cache_hits >= read, "{stats:?} with {read} reader hits");
}

#[test]
fn readers_beside_a_writer_at_1_and_4_pool_threads() {
    for (threads, seed) in [(1usize, 11u64), (4, 12)] {
        imcat_par::set_threads(threads);
        run(seed);
    }
    imcat_par::set_threads(imcat_par::default_threads());
}
