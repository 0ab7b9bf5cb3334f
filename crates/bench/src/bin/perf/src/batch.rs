//! `batch_scan`: the engine in process with no cache and no index, so every
//! tick is one `matmul_nt_rows` over the whole 100k-item table plus a top-k
//! selection per row. The wire, the index and the cache are bypassed: a
//! kernel or layout change shows here and nothing else should.

use std::hint::black_box;
use std::time::Instant;

use imcat_ckpt::Artifact;
use imcat_eval::{top_n_masked_with, TopKScratch};
use imcat_serve::{Engine, Recommendation, ServeConfig};

use crate::check::{self, List};
use crate::gen::{self, Catalog, Rng};
use crate::layers;
use crate::procstat;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{self, Round};
use crate::streams;
use crate::{K, RECALL_USERS, ROUNDS, SAMPLE_EVERY};

pub const CATALOG: Catalog = Catalog { users: 20_000, items: 100_000 };
/// Distinct users per `recommend_batch` call.
pub const TICK_USERS: usize = 8;
/// Ticks per second of `--seconds`, frozen (see `wire::Wire::rate`).
const RATE: usize = 60;

pub fn round_ticks(seconds: u64) -> usize {
    (RATE * seconds as usize / ROUNDS).max(SAMPLE_EVERY / TICK_USERS)
}

pub fn header(seconds: u64) -> String {
    format!(
        "catalog={}x{}x{} cache=0 tick_users={TICK_USERS} ticks_per_round={} ann=none",
        CATALOG.users,
        CATALOG.items,
        gen::DIM,
        round_ticks(seconds)
    )
}

pub fn engine(artifact: &Artifact) -> Engine {
    let cfg = ServeConfig { cache_capacity: 0, ann: None, ..ServeConfig::default() };
    Engine::new(artifact.clone(), cfg).expect("generated artifact is valid")
}

pub fn as_requests(users: &[u32]) -> Vec<(u32, usize)> {
    users.iter().map(|&u| (u, K)).collect()
}

pub fn as_list(recs: &[Recommendation]) -> List {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// Runs `ticks` through the engine, one latency sample per tick. Once the
/// clock has stopped, one answered row in [`SAMPLE_EVERY`] is checked.
fn round(
    engine: &mut Engine,
    ticks: &[Vec<u32>],
    artifact: &Artifact,
    outcome: &mut Outcome,
) -> Round {
    let requests: Vec<Vec<(u32, usize)>> = ticks.iter().map(|t| as_requests(t)).collect();
    let mut latencies_ms = Vec::with_capacity(ticks.len());
    let mut sampled: Vec<(u32, List)> = Vec::new();
    let mut row = 0usize;
    let cpu0 = procstat::cpu_seconds();
    let t0 = Instant::now();
    for (users, reqs) in ticks.iter().zip(&requests) {
        let tick0 = Instant::now();
        let answers = engine.recommend_batch(reqs);
        latencies_ms.push(tick0.elapsed().as_secs_f64() * 1e3);
        for (&user, answer) in users.iter().zip(&answers) {
            match answer {
                Ok(recs) if row % SAMPLE_EVERY == 0 => sampled.push((user, as_list(recs))),
                Ok(_) => {}
                Err(e) => outcome.fail(format!("user {user}: {e}")),
            }
            row += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_seconds() - cpu0;
    outcome.passed(row as u64);
    for (user, list) in &sampled {
        if let Err(e) = check::verify(artifact, *user, K, list) {
            outcome.fail(e);
        }
    }
    Round { wall_s, cpu_s, ops: row as u64, latencies_ms }
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let generated = gen::artifact(seed, CATALOG);
    let artifact = &generated.artifact;

    // Every set-up starts the tick stream over.
    let n = round_ticks(seconds);
    let one_round = |(engine, rng): &mut (Engine, Rng), outcome: &mut Outcome| {
        let ticks = streams::distinct_ticks(rng, CATALOG.users, n, TICK_USERS);
        round(engine, &ticks, artifact, outcome)
    };
    let ((mut engine, _), rounds) = crate::measure(
        &mut outcome,
        |outcome| {
            let mut system = (engine(artifact), Rng::new(seed, 20));
            one_round(&mut system, outcome);
            system
        },
        one_round,
    );
    outcome.set("peak_rss_mb", procstat::vm_hwm_mb());
    crate::set_timing(&mut outcome, &stats::timing(&rounds), "tick");

    let recall_users =
        streams::sample_distinct(&mut Rng::new(seed, 21), CATALOG.users, RECALL_USERS);
    let mut hits = 0;
    for tick in recall_users.chunks(TICK_USERS) {
        for (&user, answer) in tick.iter().zip(engine.recommend_batch(&as_requests(tick))) {
            let truth = check::truth(artifact, user, K);
            outcome.check(match answer {
                Ok(recs) if as_list(&recs) == truth => {
                    hits += K;
                    Ok(())
                }
                Ok(_) => Err(format!("user {user}: served list differs from the brute-force list")),
                Err(e) => Err(format!("user {user}: {e}")),
            });
        }
    }
    crate::set_recall(&mut outcome, hits, recall_users.len() * K, false);
    outcome
}

/// Ticks of the traced round (and of the untraced one it is compared with).
const TRACE_TICKS: usize = 64;

/// The traced run: one round of ticks with the program's telemetry and the
/// span recorder on, each tick followed by a replay of what the engine does
/// inside it — one `matmul_nt_rows` for the tick's users, one top-k
/// selection per row — through the kernels' public functions.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let generated = gen::artifact(seed, CATALOG);
    let artifact = &generated.artifact;

    imcat_obs::set_enabled(true);
    let t0 = Instant::now();
    let mut engine = engine(artifact);
    out.set("serve.engine_new_s", t0.elapsed().as_secs_f64());
    let mut rng = Rng::new(seed, 22);
    let mut ticks = || streams::distinct_ticks(&mut rng, CATALOG.users, TRACE_TICKS, TICK_USERS);

    imcat_obs::set_enabled(false);
    round(&mut engine, &ticks(), artifact, &mut out);
    let untraced = round(&mut engine, &ticks(), artifact, &mut out);
    let untraced_qps = untraced.ops as f64 / untraced.wall_s;

    imcat_obs::set_enabled(true);
    let mut rec = Recorder::new();
    let mut topk = TopKScratch::default();
    let mut traced_s = 0.0;
    for (i, users) in ticks().iter().enumerate() {
        let requests = as_requests(users);
        let (root, answers) =
            rec.time("serve.recommend_batch", i as u32, None, || engine.recommend_batch(&requests));
        traced_s += rec.spans[root as usize].duration_ns() as f64 * 1e-9;
        out.check(if answers.iter().all(Result::is_ok) {
            Ok(())
        } else {
            Err(format!("traced tick {i} was not answered in full"))
        });
        // The engine scores the tick's users in ascending order. Replayed on
        // the engine's own copy of the tables: the same memory, so that where
        // a copy happens to lie does not tell the replay from the tick.
        let live = engine.artifact();
        let mut sorted = users.clone();
        sorted.sort_unstable();
        let (_, scores) = rec.time("tensor.matmul_nt_rows", i as u32, Some(root), || {
            live.user_emb.matmul_nt_rows(&sorted, &live.item_emb)
        });
        for (r, &u) in sorted.iter().enumerate() {
            rec.time("eval.topk", i as u32, Some(root), || {
                black_box(
                    top_n_masked_with(scores.row(r), &live.masks[u as usize], K, &mut topk).len(),
                )
            });
        }
    }
    let stats = engine.stats();
    out.set("trace.untraced_qps", untraced_qps);
    out.set(
        "obs.trace_overhead_share",
        1.0 - (TRACE_TICKS * TICK_USERS) as f64 / traced_s / untraced_qps,
    );
    out.set("serve.batch_tick_us", rec.median_us("serve.recommend_batch"));
    out.set("serve.batch_self_us", rec.median_self_us("serve.recommend_batch"));
    out.set("serve.cache_hit_ratio", layers::ratio(stats.cache_hits, stats.served));
    out.set("eval.topk_us", rec.median_us("eval.topk"));
    out.set("trace.requests", TRACE_TICKS as f64);
    out.set("trace.spans", rec.spans.len() as f64);
    out.set("trace.root_us", rec.median_us("serve.recommend_batch"));
    // A tick is one matmul and a selection per row and little else.
    crate::set_trace_ratios(&mut out, &rec, Some("serve.recommend_batch"));

    layers::measure(artifact, "batch_scan", &mut out);
    let path = layers::trace_dir().join("batch_scan.trace.jsonl");
    rec.write_jsonl(&path).expect("write the trace");
    println!(
        "trace: {} spans of {TRACE_TICKS} ticks written to {}",
        rec.spans.len(),
        path.display()
    );
    out
}
