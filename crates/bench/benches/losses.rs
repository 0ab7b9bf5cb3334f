//! Criterion microbenches for the per-step cost of each loss term of Eq. 18:
//! `L_UV` (BPR), `L_VT` (tag BPR), `L_CA*` (intent-aware masked InfoNCE) and
//! `L_KL` (Student-t clustering). These are the per-iteration costs behind
//! the Fig. 9 efficiency comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use imcat_core::imca::{masked_info_nce, PositiveMask};
use imcat_core::irm::{kl_loss, soft_assignment, target_distribution};
use imcat_data::{generate, BprSampler, SynthConfig};
use imcat_models::{bpr_loss, info_nce};
use imcat_tensor::{normal, xavier_uniform, ParamStore, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bpr_step(c: &mut Criterion) {
    let data = generate(&SynthConfig::hetrec_del(), 7).dataset;
    let mut rng = StdRng::seed_from_u64(0);
    let split = data.split((0.7, 0.1, 0.2), &mut rng);
    let sampler = BprSampler::for_user_items(&split);
    let mut store = ParamStore::new();
    let user = store.add("u", xavier_uniform(split.n_users(), 32, &mut rng));
    let item = store.add("v", xavier_uniform(split.n_items(), 32, &mut rng));
    c.bench_function("loss_bpr_batch512_forward_backward", |b| {
        b.iter(|| {
            let batch = sampler.sample(512, &mut rng);
            let mut tape = Tape::new();
            let u = tape.gather(&store, user, &batch.anchors);
            let vp = tape.gather(&store, item, &batch.positives);
            let vn = tape.gather(&store, item, &batch.negatives);
            let sp = tape.rowwise_dot(u, vp);
            let sn = tape.rowwise_dot(u, vn);
            let loss = bpr_loss(&mut tape, sp, sn);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

fn bench_infonce(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let a = store.add("a", xavier_uniform(128, 8, &mut rng));
    let b2 = store.add("b", xavier_uniform(128, 8, &mut rng));
    c.bench_function("loss_infonce_128x128_d8", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let av = tape.leaf(&store, a);
            let bv = tape.leaf(&store, b2);
            let loss = info_nce(&mut tape, av, bv, 1.0, None);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

fn bench_masked_infonce_with_isa(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let anchors = store.add("anchors", xavier_uniform(128, 8, &mut rng));
    let targets = store.add("targets", xavier_uniform(192, 8, &mut rng));
    // Each anchor has itself + one extra ISA positive.
    let positives: Vec<Vec<usize>> = (0..128).map(|j| vec![j, 128 + (j % 64)]).collect();
    let mask = PositiveMask::from_lists(128, 192, &positives);
    let aw = Tensor::full(128, 1, 0.25);
    let tw = Tensor::full(192, 1, 0.25);
    c.bench_function("loss_masked_infonce_isa_128x192_d8", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let av = tape.leaf(&store, anchors);
            let tv = tape.leaf(&store, targets);
            let loss = masked_info_nce(&mut tape, av, tv, &mask, &aw, &tw, 1.0);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

fn bench_kl_clustering(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let tags = store.add("tags", normal(450, 32, 0.5, &mut rng));
    let centers = store.add("centers", normal(4, 32, 0.5, &mut rng));
    c.bench_function("loss_kl_clustering_450tags_k4", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let tv = tape.leaf(&store, tags);
            let cv = tape.leaf(&store, centers);
            let q = soft_assignment(&mut tape, tv, cv, 1.0);
            let target = target_distribution(tape.value(q));
            let loss = kl_loss(&mut tape, q, &target);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

criterion_group!(
    name = losses;
    config = Criterion::default().sample_size(20);
    targets = bench_bpr_step, bench_infonce, bench_masked_infonce_with_isa, bench_kl_clustering
);
criterion_main!(losses);
