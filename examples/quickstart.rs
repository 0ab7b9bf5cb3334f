//! Quickstart: generate a tag-enhanced dataset, train L-IMCAT, and evaluate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use imcat::prelude::*;

fn main() {
    // 1. Data: a synthetic dataset whose interactions are driven by latent
    //    intents that also shape the item tags (see imcat-data docs).
    let mut rng = StdRng::seed_from_u64(42);
    let synth = generate(&SynthConfig::tiny().scaled(2.0), 42);
    let split = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
    println!("{}", synth.dataset.stats());

    // 2. Model: LightGCN backbone wrapped with IMCAT (intent-aware
    //    multi-source contrastive alignment, K = 4 intents).
    let backbone = LightGcn::new(&split, TrainConfig::default(), &mut rng);
    let mut model = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 5, ..Default::default() },
        &mut rng,
    );

    // 3. Train with validation-based early stopping.
    let report = trainer::train(
        &mut model,
        &split,
        &TrainerConfig { max_epochs: 60, eval_every: 5, patience: 3, ..Default::default() },
    );
    println!(
        "trained {} for {} epochs in {:.1}s (best validation R@20 = {:.4})",
        report.model, report.epochs_run, report.train_seconds, report.best_val_recall
    );

    // 4. Evaluate on the held-out test interactions.
    let test = evaluate_model(&model, &split, &EvalSpec::at(20)).aggregate();
    println!(
        "test Recall@20 = {:.4}, NDCG@20 = {:.4} over {} users",
        test.recall, test.ndcg, test.evaluated_users
    );

    // 5. Produce top-5 recommendations for one user.
    let user = 0u32;
    let scores = model.score_users(&[user]);
    let top = imcat::eval::top_n_masked(scores.row(0), split.train_items(user as usize), 5);
    println!("top-5 items for user {user}: {top:?}");
}
