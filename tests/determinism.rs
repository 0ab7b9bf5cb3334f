//! Thread-count invariance: the whole point of `imcat-par` is that the pool
//! parallelizes over disjoint output partitions whose boundaries and
//! per-partition accumulation order never depend on the number of workers, so
//! training losses and evaluation metrics must be *bit-identical* between a
//! serial run and any parallel run.

use imcat::prelude::*;
use std::sync::{Mutex, OnceLock};

fn tiny_split(seed: u64) -> SplitDataset {
    let synth = generate(&SynthConfig::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    synth.dataset.split((0.7, 0.1, 0.2), &mut rng)
}

/// The pool is process-global, so tests that reconfigure it must not overlap.
fn pool_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` under a pool of exactly `threads` workers, restoring the default
/// pool afterwards, and returns the result.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    imcat_par::set_threads(threads);
    let out = f();
    imcat_par::set_threads(imcat_par::default_threads());
    out
}

/// Train losses (bitwise) and per-user eval metrics (bitwise) for BPR-MF.
fn bprmf_fingerprint() -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let split = tiny_split(2);
    let mut rng = StdRng::seed_from_u64(3);
    let mut model = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let mut losses = Vec::new();
    for _ in 0..3 {
        losses.push(model.train_epoch(&mut rng).loss.to_bits());
    }
    let per_user = evaluate_model(&model, &split, &EvalSpec::at(20));
    let recall_bits = per_user.recall.iter().map(|r| r.to_bits()).collect();
    let ndcg_bits = per_user.ndcg.iter().map(|n| n.to_bits()).collect();
    (losses, recall_bits, ndcg_bits)
}

/// Same fingerprint for the full IMCAT model (backbone + alignment losses).
fn imcat_fingerprint() -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let split = tiny_split(4);
    let mut rng = StdRng::seed_from_u64(5);
    let backbone = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let mut model = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 1, ..Default::default() },
        &mut rng,
    );
    let mut losses = Vec::new();
    for _ in 0..3 {
        losses.push(model.train_epoch(&mut rng).loss.to_bits());
    }
    let per_user = evaluate_model(&model, &split, &EvalSpec::at(20));
    let recall_bits = per_user.recall.iter().map(|r| r.to_bits()).collect();
    let ndcg_bits = per_user.ndcg.iter().map(|n| n.to_bits()).collect();
    (losses, recall_bits, ndcg_bits)
}

#[test]
fn bprmf_training_and_eval_are_thread_count_invariant() {
    let _guard = pool_lock().lock().unwrap();
    let serial = with_threads(1, bprmf_fingerprint);
    let parallel = with_threads(4, bprmf_fingerprint);
    assert_eq!(serial.0, parallel.0, "training losses must be bit-identical");
    assert_eq!(serial.1, parallel.1, "per-user recall must be bit-identical");
    assert_eq!(serial.2, parallel.2, "per-user NDCG must be bit-identical");
}

#[test]
fn imcat_training_and_eval_are_thread_count_invariant() {
    let _guard = pool_lock().lock().unwrap();
    let serial = with_threads(1, imcat_fingerprint);
    let parallel = with_threads(4, imcat_fingerprint);
    assert_eq!(serial.0, parallel.0, "training losses must be bit-identical");
    assert_eq!(serial.1, parallel.1, "per-user recall must be bit-identical");
    assert_eq!(serial.2, parallel.2, "per-user NDCG must be bit-identical");
}

#[test]
fn two_thread_pool_matches_wider_pools() {
    let _guard = pool_lock().lock().unwrap();
    let two = with_threads(2, bprmf_fingerprint);
    let eight = with_threads(8, bprmf_fingerprint);
    assert_eq!(two, eight, "any two pool widths must agree bit-for-bit");
}
