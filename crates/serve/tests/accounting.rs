//! Batch accounting == single-request accounting: a rejected request leaves
//! no footprint in `stats()` or the `serve.*` counters whichever path it
//! arrived on, and every answered request is one `serve.request.seconds`
//! sample. (Alone in its binary: the telemetry registry is process-wide.)

use imcat_serve::{Artifact, Engine, ServeConfig};
use imcat_tensor::Tensor;

fn artifact() -> Artifact {
    let grid = |rows: usize, salt: usize| {
        Tensor::from_vec(
            rows,
            3,
            (0..rows * 3).map(|i| ((i * 5 + salt) % 7) as f32 - 3.0).collect(),
        )
    };
    Artifact::new("accounting", grid(4, 1), grid(9, 2), vec![vec![0], vec![], vec![2, 5], vec![8]])
}

const COUNTERS: [&str; 4] =
    ["serve.requests", "serve.cache.hits", "serve.cache.misses", "serve.rejects"];

/// `(served, cache_hits, cache_misses)` plus the obs counters after sending
/// `requests` twice (cold, then warm) through `send`.
fn footprint(send: impl Fn(&mut Engine, &[(u32, usize)])) -> ((u64, u64, u64), Vec<u64>) {
    // Distinct keys, so batching cannot dedupe what single requests would
    // have answered from the cache; users 4 and 9 and `k == 0` are rejected.
    let requests = [(0, 3), (4, 3), (1, 2), (2, 0), (3, 4), (9, 1), (1, 5)];
    let _obs = imcat_obs::exclusive(true);
    let mut engine = Engine::new(artifact(), ServeConfig::default()).unwrap();
    send(&mut engine, &requests);
    send(&mut engine, &requests);
    let (stats, obs) = (engine.stats(), imcat_obs::snapshot());
    // A tick of several misses is several answered requests, each with its
    // own latency sample, exactly as if they had arrived one by one.
    assert_eq!(
        obs.hist_count("serve.request.seconds"),
        obs.counter("serve.requests"),
        "serve.request.seconds samples vs serve.requests"
    );
    (
        (stats.served, stats.cache_hits, stats.cache_misses),
        COUNTERS.iter().map(|name| obs.counter(name)).collect(),
    )
}

#[test]
fn mixed_good_and_bad_requests_account_the_same_singly_and_batched() {
    let singly = footprint(|engine, requests| {
        for &(user, k) in requests {
            let _ = engine.recommend(user, k);
        }
    });
    let batched = footprint(|engine, requests| {
        let answers = engine.recommend_batch(requests);
        assert_eq!(answers.iter().filter(|a| a.is_err()).count(), 3);
    });
    assert_eq!(singly, batched, "(served, hits, misses) + {COUNTERS:?}");
    // 4 valid requests, sent cold then warm; 3 rejections each time.
    assert_eq!(singly, ((8, 4, 4), vec![8, 4, 4, 6]));
}
