//! Cross-crate integration tests: the full pipeline from data generation
//! through training to evaluation, exercised through the public facade.

use imcat::prelude::*;

fn tiny_split(seed: u64) -> SplitDataset {
    let synth = generate(&SynthConfig::tiny(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    synth.dataset.split((0.7, 0.1, 0.2), &mut rng)
}

#[test]
fn full_pipeline_l_imcat() {
    let split = tiny_split(1);
    let mut rng = StdRng::seed_from_u64(1);
    let backbone = LightGcn::new(&split, TrainConfig::default(), &mut rng);
    let mut model = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 2, ..Default::default() },
        &mut rng,
    );
    let report = trainer::train(
        &mut model,
        &split,
        &TrainerConfig { max_epochs: 25, eval_every: 5, patience: 2, ..Default::default() },
    );
    assert_eq!(report.model, "L-IMCAT");
    assert!(report.best_val_recall > 0.1, "implausibly low: {}", report.best_val_recall);
    let m = evaluate_model(&model, &split, &EvalSpec::at(20)).aggregate();
    assert!(m.recall > 0.1);
    assert!(m.ndcg > 0.0);
    assert_eq!(m.evaluated_users, split.test_users().len());
}

#[test]
fn training_is_deterministic_given_seeds() {
    let run = || {
        let split = tiny_split(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Bprmf::new(&split, TrainConfig::default(), &mut rng);
        for _ in 0..5 {
            model.train_epoch(&mut rng);
        }
        model.score_users(&[0, 1, 2])
    };
    let a = run();
    let b = run();
    assert!(a.approx_eq(&b, 0.0), "identical seeds must reproduce identical models");
}

#[test]
fn imcat_beats_its_backbone_when_tags_matter() {
    // With strongly intent-driven data and a weak backbone, the alignment
    // signal should produce a visible improvement.
    let split = tiny_split(14);
    let cfg = TrainerConfig { max_epochs: 60, eval_every: 10, patience: 6, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(15);
    let mut plain = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let base = trainer::train(&mut plain, &split, &cfg);
    let mut rng = StdRng::seed_from_u64(15);
    let backbone = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let mut wrapped = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 5, ..Default::default() },
        &mut rng,
    );
    let plus = trainer::train(&mut wrapped, &split, &cfg);
    assert!(
        plus.best_val_recall >= base.best_val_recall * 0.95,
        "B-IMCAT ({:.4}) fell well below BPRMF ({:.4})",
        plus.best_val_recall,
        base.best_val_recall
    );
}

#[test]
fn ablations_preserve_training_stability() {
    let split = tiny_split(6);
    for cfg in [
        ImcatConfig { pretrain_epochs: 1, ..Default::default() }.without_uit(),
        ImcatConfig { pretrain_epochs: 1, ..Default::default() }.without_ut(),
        ImcatConfig { pretrain_epochs: 1, ..Default::default() }.without_ui(),
        ImcatConfig { pretrain_epochs: 1, ..Default::default() }.without_nlt(),
        ImcatConfig { pretrain_epochs: 1, ..Default::default() }.without_isa(),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let backbone = Bprmf::new(&split, TrainConfig::default(), &mut rng);
        let mut model = Imcat::new(backbone, &split, cfg, &mut rng);
        for _ in 0..4 {
            let stats = model.train_epoch(&mut rng);
            assert!(stats.loss.is_finite());
        }
        let scores = model.score_users(&[0]);
        assert!(scores.as_slice().iter().all(|x| x.is_finite()));
    }
}

#[test]
fn group_and_cold_analyses_compose() {
    let split = tiny_split(8);
    let mut rng = StdRng::seed_from_u64(9);
    let mut model = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    for _ in 0..10 {
        model.train_epoch(&mut rng);
    }
    let groups = item_popularity_groups(&split, 5);
    let contrib = group_recall_contribution(&mut model.scorer(), &split, 20, &groups, 5);
    let overall = evaluate_model(&model, &split, &EvalSpec::at(20)).aggregate();
    let sum: f64 = contrib.iter().sum();
    assert!((sum - overall.recall).abs() < 1e-9);
    let cold = cold_start_users(&split, 10);
    let cold_m = evaluate_model(&model, &split, &EvalSpec::at(20).users(cold.clone())).aggregate();
    assert!(cold_m.evaluated_users == cold.len());
}

#[test]
fn paired_t_test_on_model_comparison() {
    let split = tiny_split(20);
    let mut rng = StdRng::seed_from_u64(21);
    let mut good = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    for _ in 0..120 {
        good.train_epoch(&mut rng);
    }
    let untrained = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let pg = evaluate_model(&good, &split, &EvalSpec::at(20));
    let pb = evaluate_model(&untrained, &split, &EvalSpec::at(20));
    let t = paired_t_test(&pg.recall, &pb.recall);
    assert!(t.t > 0.0, "trained model should win: t = {}", t.t);
    assert!(t.p < 0.05, "difference should be significant: p = {}", t.p);
}

#[test]
fn checkpoint_roundtrip_preserves_scores() {
    let split = tiny_split(12);
    let mut rng = StdRng::seed_from_u64(13);
    let backbone = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    let mut model = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 1, ..Default::default() },
        &mut rng,
    );
    for _ in 0..5 {
        model.train_epoch(&mut rng);
    }
    let before = model.score_users(&[0, 1, 2]);
    let path = std::env::temp_dir().join(format!("imcat_ckpt_{}.bin", std::process::id()));
    trainer::save_model(&model, 13, &path).unwrap();

    // A freshly initialized model scores differently; loading the checkpoint
    // must restore the exact trained scores.
    let mut rng2 = StdRng::seed_from_u64(99);
    let backbone2 = Bprmf::new(&split, TrainConfig::default(), &mut rng2);
    let mut fresh = Imcat::new(
        backbone2,
        &split,
        ImcatConfig { pretrain_epochs: 1, ..Default::default() },
        &mut rng2,
    );
    assert!(!fresh.score_users(&[0, 1, 2]).approx_eq(&before, 1e-6));
    trainer::load_model(&mut fresh, 13, &path).unwrap();
    let after = fresh.score_users(&[0, 1, 2]);
    let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&after), bits(&before));
    assert_eq!(fresh.cluster_assignment(), model.cluster_assignment());
    std::fs::remove_file(&path).ok();
}
