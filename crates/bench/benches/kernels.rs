//! Criterion microbenches for the substrate kernels that dominate training
//! cost (backing the Fig. 9 efficiency analysis at the kernel level):
//! dense matmul, sparse SpMM, embedding gather + sparse backward, and
//! LightGCN propagation.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imcat_data::{generate, SynthConfig};
use imcat_graph::joint_normalized_adjacency;
use imcat_tensor::{normal, xavier_uniform, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 128, 256] {
        let a = normal(n, n, 1.0, &mut rng);
        let b = normal(n, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul(&b)));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul_nt(&b)));
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let data = generate(&SynthConfig::hetrec_del(), 7).dataset;
    let mut rng = StdRng::seed_from_u64(1);
    let split = data.split((0.7, 0.1, 0.2), &mut rng);
    let adj = joint_normalized_adjacency(&split.train);
    let n = adj.rows();
    let x = normal(n, 32, 1.0, &mut rng);
    c.bench_function("spmm_joint_adjacency_d32", |b| {
        b.iter(|| std::hint::black_box(adj.spmm(&x)));
    });
    let agg = split.train.col_mean_aggregator();
    let u = normal(split.n_users(), 32, 1.0, &mut rng);
    c.bench_function("spmm_mean_aggregation_d32", |b| {
        b.iter(|| std::hint::black_box(agg.spmm(&u)));
    });
    let items: Vec<u32> = (0..128).collect();
    c.bench_function("csr_select_rows_128", |b| {
        b.iter(|| std::hint::black_box(agg.select_rows(&items)));
    });
}

fn bench_gather_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let table = store.add("emb", xavier_uniform(5000, 32, &mut rng));
    let rows: Vec<u32> = (0..512).map(|i| (i * 7) % 5000).collect();
    c.bench_function("gather512_square_backward", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let g = tape.gather(&store, table, &rows);
            let sq = tape.mul(g, g);
            let loss = tape.mean_all(sq);
            tape.backward(loss, &mut store);
            store.zero_grads();
        });
    });
}

fn bench_propagation(c: &mut Criterion) {
    let data = generate(&SynthConfig::hetrec_del(), 7).dataset;
    let mut rng = StdRng::seed_from_u64(3);
    let split = data.split((0.7, 0.1, 0.2), &mut rng);
    let adj = Rc::new(joint_normalized_adjacency(&split.train));
    let n = adj.rows();
    let x0 = normal(n, 32, 1.0, &mut rng);
    c.bench_function("lightgcn_propagate_2layers_d32", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(x0.clone());
            let out = imcat_models::propagate_mean(&mut tape, &adj, x, 2);
            std::hint::black_box(tape.value(out).rows())
        });
    });
}

fn bench_jaccard_sets(c: &mut Criterion) {
    let data = generate(&SynthConfig::hetrec_del(), 7).dataset;
    let assignment: Vec<usize> = (0..data.n_tags()).map(|t| t % 4).collect();
    c.bench_function("isa_similar_sets_delta0.7", |b| {
        b.iter(|| {
            std::hint::black_box(imcat_core::isa::SimilarSets::build(
                data.item_tag.forward(),
                &assignment,
                4,
                0.7,
            ))
        });
    });
}

fn bench_log_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let t = normal(128, 512, 1.0, &mut rng);
    c.bench_function("log_softmax_rows_128x512", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let v = tape.constant(t.clone());
            std::hint::black_box(tape.log_softmax_rows(v));
        });
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul,
        bench_spmm,
        bench_gather_backward,
        bench_propagation,
        bench_jaccard_sets,
        bench_log_softmax
);
criterion_main!(kernels);
