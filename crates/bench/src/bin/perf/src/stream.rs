//! `stream_mixed`: the engine in process on the HNSW backend, with writes
//! beside reads. One tick is what `imcat-net`'s batcher does with a batch
//! that holds both: `ingest_batch`, `fold_pending` (here on every eighth
//! tick), then `recommend_batch`.
//!
//! ## Why the stream is shaped as it is
//!
//! `Engine::fold_pending` re-solves every cold user of the generation from
//! the whole event log on every call, so its cost grows with the number of
//! cold users and with their evidence. Rounds are only comparable — and the
//! second-best-round estimator only meaningful — if that state is about the
//! same in every round. So cold users register, and receive most of their
//! evidence, during set-up; the measured rounds add a trickle of cold-user
//! evidence, a steady supply of cold items (which fold once, on the first
//! fold tick after they registered, through a live HNSW insert), and
//! interactions of warm users, which mask an item and invalidate that user's
//! cached list.

use std::time::Instant;

use imcat_serve::{AnnConfig, AnnKind, Engine, Interaction, ProbeScratch, ServeConfig};

use crate::batch::{as_list, as_requests};
use crate::check::{self, List};
use crate::gen::{self, Catalog, Generated, Rng, CENTRES};
use crate::layers::{self, index_build_seconds, ratio};
use crate::procstat;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{self, Round};
use crate::streams::{self, Zipf, ZIPF_S};
use crate::{INDEXED_RECALL_USERS, K, ROUNDS, SAMPLE_EVERY};

pub const CATALOG: Catalog = Catalog { users: 20_000, items: 20_000 };
pub const CACHE_CAPACITY: usize = 256;
pub const TICK_READS: usize = 16;
pub const TICK_WRITES: usize = 4;
/// `fold_pending` runs on every tick whose number is a multiple of this.
pub const FOLD_EVERY: usize = 8;
/// Warm users that read and write; cold users join them.
const WARM_READERS: usize = 2048;
/// Cold users registered during set-up, and the evidence each starts with.
const COLD_USERS: usize = 12;
const COLD_USER_EVIDENCE: usize = 16;
/// One write in this many is evidence for a cold user.
const COLD_USER_WRITE_EVERY: usize = 512;
/// Cold items registered per round, evenly spaced.
const COLD_ITEMS_PER_ROUND: usize = 8;
/// Ticks per second of `--seconds`, frozen (see `wire::Wire::rate`).
const RATE: usize = 1400;

pub fn round_ticks(seconds: u64) -> usize {
    (RATE * seconds as usize / ROUNDS).max(FOLD_EVERY * COLD_ITEMS_PER_ROUND)
}

/// Whether a cold item registers before tick `t` of a round of `ticks`:
/// [`COLD_ITEMS_PER_ROUND`] times, evenly spaced.
fn registers_item(t: usize, ticks: usize) -> bool {
    let every = ticks / COLD_ITEMS_PER_ROUND;
    t % every == 0 && t / every < COLD_ITEMS_PER_ROUND
}

pub fn ann() -> AnnConfig {
    AnnConfig { kind: AnnKind::Hnsw, ..AnnConfig::default() }
}

pub fn header(seconds: u64) -> String {
    format!(
        "catalog={}x{}x{} cache={CACHE_CAPACITY} tick={TICK_WRITES}w+{TICK_READS}r fold_every={FOLD_EVERY} ticks_per_round={} cold_users={COLD_USERS} cold_items_per_round={COLD_ITEMS_PER_ROUND} ann={}",
        CATALOG.users,
        CATALOG.items,
        gen::DIM,
        round_ticks(seconds),
        crate::describe_ann(Some(ann()), CATALOG.items)
    )
}

/// The engine and everything the event generator knows about its state.
pub struct Stream<'a> {
    pub engine: Engine,
    generated: &'a Generated,
    rng: Rng,
    /// Readers in popularity order: warm users with the cold ones among them.
    pub readers: Vec<u32>,
    zipf: Zipf,
    /// Warm readers by primary cluster.
    cluster_readers: Vec<Vec<u32>>,
    /// Cold users with the cluster their evidence comes from.
    cold_users: Vec<(u32, usize)>,
    /// The cold item registered since the last fold tick, with its cluster.
    pending_item: Option<(u32, usize)>,
    ticks_done: usize,
    writes_done: usize,
}

/// What one tick took, by call.
pub struct TickTimes {
    pub ingest: (Instant, Instant),
    pub fold: Option<(Instant, Instant, usize)>,
    pub recommend: (Instant, Instant),
}

impl<'a> Stream<'a> {
    /// Builds the engine and brings it to the state the rounds start from:
    /// cold users registered, given their starting evidence, and folded.
    pub fn start(generated: &'a Generated, seed: u64) -> Self {
        let cfg = ServeConfig {
            cache_capacity: CACHE_CAPACITY,
            ann: Some(ann()),
            ..ServeConfig::default()
        };
        let mut engine =
            Engine::new(generated.artifact.clone(), cfg).expect("generated artifact is valid");
        let mut rng = Rng::new(seed, 30);
        let mut readers = streams::sample_distinct(&mut rng, CATALOG.users, WARM_READERS);
        let mut cluster_readers = vec![Vec::new(); CENTRES];
        for &u in &readers {
            cluster_readers[generated.user_cluster[u as usize] as usize].push(u);
        }
        let mut cold_users = Vec::with_capacity(COLD_USERS);
        for i in 0..COLD_USERS {
            let user = engine.register_user();
            let cluster = rng.below(CENTRES);
            cold_users.push((user, cluster));
            // Every tenth rank from the tenth: cold users are read often.
            readers.insert(10 * (i + 1), user);
            let pool = &generated.cluster_items[cluster];
            let evidence: Vec<Interaction> = (0..COLD_USER_EVIDENCE)
                .map(|_| Interaction { user, item: pool[rng.below(pool.len())] })
                .collect();
            assert!(engine.ingest_batch(&evidence).iter().all(Result::is_ok), "set-up evidence");
        }
        engine.fold_pending();
        let zipf = Zipf::new(readers.len(), ZIPF_S);
        Self {
            engine,
            generated,
            rng,
            readers,
            zipf,
            cluster_readers,
            cold_users,
            pending_item: None,
            ticks_done: 0,
            writes_done: 0,
        }
    }

    fn cluster_item(&mut self, cluster: usize) -> u32 {
        let pool = &self.generated.cluster_items[cluster];
        pool[self.rng.below(pool.len())]
    }

    /// A warm user of the reader set, uniformly.
    fn warm_user(&mut self) -> u32 {
        loop {
            let u = self.readers[self.rng.below(self.readers.len())];
            if (u as usize) < CATALOG.users {
                return u;
            }
        }
    }

    fn next_write(&mut self, slot: usize) -> Interaction {
        self.writes_done += 1;
        if self.writes_done % COLD_USER_WRITE_EVERY == 0 {
            let (user, cluster) =
                self.cold_users[self.writes_done / COLD_USER_WRITE_EVERY % self.cold_users.len()];
            return Interaction { user, item: self.cluster_item(cluster) };
        }
        // The last write of a tick goes to the cold item waiting for its
        // fold, from a reader whose intent it matches.
        if let (true, Some((item, cluster))) = (slot + 1 == TICK_WRITES, self.pending_item) {
            let pool = &self.cluster_readers[cluster];
            return Interaction { user: pool[self.rng.below(pool.len())], item };
        }
        let user = self.warm_user();
        let cluster = self.generated.user_cluster[user as usize] as usize;
        Interaction { user, item: self.cluster_item(cluster) }
    }

    /// Registers the next cold item, in the cluster of some warm reader; its
    /// evidence arrives until the next fold tick freezes it.
    pub fn register_item(&mut self) -> (Instant, Instant) {
        let t0 = Instant::now();
        let item = self.engine.register_item();
        let t1 = Instant::now();
        let reader = self.warm_user();
        self.pending_item = Some((item, self.generated.user_cluster[reader as usize] as usize));
        (t0, t1)
    }

    /// One tick. Returns the reads with their answers checked to be `Ok`.
    pub fn tick(&mut self, outcome: &mut Outcome) -> (TickTimes, Vec<(u32, List)>) {
        self.ticks_done += 1;
        let writes: Vec<Interaction> = (0..TICK_WRITES).map(|slot| self.next_write(slot)).collect();
        let reads: Vec<u32> =
            (0..TICK_READS).map(|_| self.readers[self.zipf.sample(&mut self.rng)]).collect();
        let requests = as_requests(&reads);

        let t0 = Instant::now();
        let ingested = self.engine.ingest_batch(&writes);
        let t1 = Instant::now();
        let fold = (self.ticks_done % FOLD_EVERY == 0).then(|| {
            let folded = self.engine.fold_pending();
            self.pending_item = None;
            (t1, Instant::now(), folded)
        });
        let t2 = Instant::now();
        let answers = self.engine.recommend_batch(&requests);
        let t3 = Instant::now();

        outcome.passed((TICK_WRITES + TICK_READS) as u64);
        for (w, r) in writes.iter().zip(&ingested) {
            if let Err(e) = r {
                outcome.fail(format!("ingest of {w:?}: {e}"));
            }
        }
        let mut lists = Vec::with_capacity(TICK_READS);
        for (&user, answer) in reads.iter().zip(&answers) {
            match answer {
                Ok(recs) => lists.push((user, as_list(recs))),
                Err(e) => outcome.fail(format!("user {user}: {e}")),
            }
        }
        (TickTimes { ingest: (t0, t1), fold, recommend: (t2, t3) }, lists)
    }

    /// One round of `ticks` ticks, cold items registered evenly through it.
    /// A latency sample is one tick; registrations count in the round's wall
    /// time and CPU, as the rare, expensive writes they are.
    pub fn round(&mut self, ticks: usize, outcome: &mut Outcome) -> Round {
        let mut latencies_ms = Vec::with_capacity(ticks);
        let mut reads_seen = 0usize;
        let cpu0 = procstat::cpu_seconds();
        let t0 = Instant::now();
        for t in 0..ticks {
            if registers_item(t, ticks) {
                self.register_item();
            }
            let (times, lists) = self.tick(outcome);
            latencies_ms.push((times.recommend.1 - times.ingest.0).as_secs_f64() * 1e3);
            // Checked against the state the lists were served from; the next
            // tick's writes change it.
            for (user, list) in &lists {
                if reads_seen % SAMPLE_EVERY == 0 {
                    if let Err(e) = check::verify(self.engine.artifact(), *user, K, list) {
                        outcome.fail(e);
                    }
                }
                reads_seen += 1;
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procstat::cpu_seconds() - cpu0;
        Round { wall_s, cpu_s, ops: (ticks * (TICK_WRITES + TICK_READS)) as u64, latencies_ms }
    }

    /// Recall@K of the engine's lists against brute force over the live
    /// artifact, on a sample of the readers.
    pub fn recall(&mut self, seed: u64, outcome: &mut Outcome) {
        let mut sample = self.readers.clone();
        Rng::new(seed, 31).shuffle(&mut sample);
        sample.truncate(INDEXED_RECALL_USERS);
        let mut hits = 0;
        for tick in sample.chunks(TICK_READS) {
            let answers = self.engine.recommend_batch(&as_requests(tick));
            for (&user, answer) in tick.iter().zip(answers) {
                let truth = check::truth(self.engine.artifact(), user, K);
                outcome.check(match answer {
                    Ok(recs) => {
                        let list = as_list(&recs);
                        hits += check::overlap(&list, &truth);
                        check::verify(self.engine.artifact(), user, K, &list)
                    }
                    Err(e) => Err(format!("user {user}: {e}")),
                });
            }
        }
        crate::set_recall(outcome, hits, sample.len() * K, true);
    }
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let generated = gen::artifact(seed, CATALOG);

    let ticks = round_ticks(seconds);
    // Every set-up starts the event stream over, so a round meets the same
    // state on each of them.
    let (mut stream, rounds) = crate::measure(
        &mut outcome,
        |outcome| {
            let mut stream = Stream::start(&generated, seed);
            stream.round(ticks, outcome);
            stream
        },
        |stream, outcome| stream.round(ticks, outcome),
    );
    outcome.set("peak_rss_mb", procstat::vm_hwm_mb());
    crate::set_timing(&mut outcome, &stats::timing(&rounds), "tick");
    stream.recall(seed, &mut outcome);
    outcome
}

/// The traced run: one round with the program's telemetry and the span
/// recorder on — a tick's three calls are timed where they are made, so its
/// spans nest for real — then the swap phase: a background rebuild of the
/// generation while ticks go on, its commit, and one more round on the new
/// generation.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let generated = gen::artifact(seed, CATALOG);
    let ticks = round_ticks(crate::RUN_SECONDS);

    imcat_obs::set_enabled(true);
    let before = imcat_obs::snapshot();
    let t0 = Instant::now();
    let mut stream = Stream::start(&generated, seed);
    out.set("serve.engine_new_s", t0.elapsed().as_secs_f64());
    out.set(
        "ann.build_s",
        index_build_seconds(&imcat_obs::snapshot()) - index_build_seconds(&before),
    );

    imcat_obs::set_enabled(false);
    stream.round(ticks, &mut out);
    let untraced = stream.round(ticks, &mut out);
    let untraced_qps = untraced.ops as f64 / untraced.wall_s;

    imcat_obs::set_enabled(true);
    let mut rec = Recorder::new();
    let mut register_us = Vec::new();
    let mut probe_us = Vec::new();
    let mut scratch = ProbeScratch::default();
    let (mut folded, mut fold_ticks, mut candidates) = (0usize, 0usize, 0usize);
    let width = ann().resolved_probe_width(CATALOG.items);
    let (stats0, obs0) = (stream.engine.stats(), imcat_obs::snapshot());
    let mut traced_s = 0.0;
    for t in 0..ticks {
        if registers_item(t, ticks) {
            let (t0, t1) = stream.register_item();
            register_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        let (times, lists) = stream.tick(&mut out);
        let id = t as u32;
        let root = rec.record("stream.tick", id, None, times.ingest.0, times.recommend.1);
        traced_s += rec.spans[root as usize].duration_ns() as f64 * 1e-9;
        rec.record("serve.ingest_batch", id, Some(root), times.ingest.0, times.ingest.1);
        if let Some((t0, t1, n)) = times.fold {
            rec.record("serve.fold_pending", id, Some(root), t0, t1);
            folded += n;
            fold_ticks += 1;
        }
        rec.record("serve.recommend_batch", id, Some(root), times.recommend.0, times.recommend.1);
        // Every read of every eighth tick, probed again on the state it was
        // served from. Cold users with no evidence yet have no direction to
        // probe in; the engine answers them by scanning.
        if t % FOLD_EVERY != 0 {
            continue;
        }
        let (artifact, index) = (stream.engine.artifact(), stream.engine.ann_backend());
        let index = index.expect("the workload serves from an index");
        for (user, _) in &lists {
            let row = artifact.user_emb.row(*user as usize);
            if row.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mask = &artifact.masks[*user as usize];
            let t0 = Instant::now();
            index.probe(row, &artifact.item_emb, mask, K, width, &mut scratch);
            probe_us.push(t0.elapsed().as_secs_f64() * 1e6);
            candidates += scratch.candidates().len();
        }
    }
    let (stats1, obs1) = (stream.engine.stats(), imcat_obs::snapshot());
    let delta = |name: &str| obs1.counter(name) - obs0.counter(name);
    let (hits, misses) =
        (stats1.cache_hits - stats0.cache_hits, stats1.cache_misses - stats0.cache_misses);
    // The replayed probes ran with telemetry on and count as probes too.
    let engine_probes = delta("ann.probes") - probe_us.len() as u64;

    out.set("trace.untraced_qps", untraced_qps);
    out.set(
        "obs.trace_overhead_share",
        1.0 - (ticks * (TICK_WRITES + TICK_READS)) as f64 / traced_s / untraced_qps,
    );
    out.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    out.set("serve.ann_fallback_ratio", ratio(delta("ann.fallbacks"), misses));
    out.set("serve.rejects", delta("serve.rejects") as f64);
    out.set("serve.register_us", stats::median(&register_us));
    out.set("serve.ingest_batch_us", rec.median_us("serve.ingest_batch"));
    out.set("serve.fold_pending_us", rec.median_us("serve.fold_pending"));
    out.set("serve.folded_per_tick", folded as f64 / fold_ticks.max(1) as f64);
    out.set("serve.batch_tick_us", rec.median_us("serve.recommend_batch"));
    out.set("ann.candidates_mean", candidates as f64 / probe_us.len().max(1) as f64);
    out.set("ann.scan_share", candidates as f64 / (probe_us.len().max(1) * CATALOG.items) as f64);
    out.set("ann.probe_us", stats::median(&probe_us));
    out.set("ann.hnsw.visited_per_probe", ratio(delta("ann.hnsw.visited"), delta("ann.probes")));
    out.set("ann.hnsw.hops_per_probe", ratio(delta("ann.hnsw.hops"), delta("ann.probes")));
    out.set("ann.hnsw.inserts", delta("ann.hnsw.inserts") as f64);
    out.set("ann.insert_failures", delta("ingest.insert_failures") as f64);
    out.set("ann.rerank_skip_ratio", ratio(delta("ann.rerank_skips"), engine_probes));
    out.set("trace.requests", ticks as f64);
    out.set("trace.spans", rec.spans.len() as f64);
    out.set("trace.root_us", rec.median_us("stream.tick"));
    // A tick is its three calls; their spans nest for real.
    crate::set_trace_ratios(&mut out, &rec, Some("stream.tick"));

    swap_phase(&mut stream, ticks, seed, &mut out);

    layers::measure(&generated.artifact, "stream_mixed", &mut out);
    let path = layers::trace_dir().join("stream_mixed.trace.jsonl");
    rec.write_jsonl(&path).expect("write the trace");
    println!("trace: {} spans of {ticks} ticks written to {}", rec.spans.len(), path.display());
    out
}

/// Rebuilds the generation in the background while ticks go on, commits it,
/// runs one more round and checks what the new generation serves.
fn swap_phase(stream: &mut Stream, ticks: usize, seed: u64, out: &mut Outcome) {
    let dir = layers::trace_dir();
    std::fs::create_dir_all(&dir).expect("create target/perf");
    let container = dir.join("stream_mixed.generation.imck");
    layers::remove_container(&container);
    let mut swap = Outcome::default();

    let t0 = Instant::now();
    let task = stream.engine.spawn_rebuild(Some(container.clone())).expect("spawn the rebuild");
    let mut during = 0usize;
    while !task.is_finished() {
        stream.tick(&mut swap);
        during += 1;
    }
    out.set("serve.rebuild_s", t0.elapsed().as_secs_f64());
    out.set("serve.ticks_during_rebuild", during as f64);
    let t0 = Instant::now();
    let committed = stream.engine.commit_rebuild(task);
    out.set("serve.commit_ms", t0.elapsed().as_secs_f64() * 1e3);
    if let Err(e) = committed {
        swap.fail(format!("commit of the rebuilt generation: {e}"));
    }
    stream.round(ticks, &mut swap);
    stream.recall(seed, &mut swap);
    layers::remove_container(&container);

    out.set("serve.swap_failed_requests", swap.failed as f64);
    out.attempted += swap.attempted;
    out.failed += swap.failed;
    out.errors.extend(swap.errors);
}
