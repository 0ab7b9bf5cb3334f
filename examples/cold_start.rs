//! Cold-start study (paper Fig. 8): compare LightGCN against L-IMCAT on the
//! users with fewer than 10 training interactions. IMCAT's set-to-set
//! alignment routes extra supervision to sparsely-observed entities.
//!
//! ```sh
//! cargo run --release --example cold_start
//! ```

use imcat::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let synth = generate(&SynthConfig::citeulike().scaled(0.6), 11);
    let split = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
    let cold = cold_start_users(&split, 10);
    println!(
        "{} — {} users total, {} cold (<10 training interactions)\n",
        split.name,
        split.n_users(),
        cold.len()
    );

    let trainer_cfg =
        TrainerConfig { max_epochs: 80, eval_every: 10, patience: 3, ..Default::default() };

    // Plain LightGCN.
    let mut lightgcn = LightGcn::new(&split, TrainConfig::default(), &mut rng);
    let r1 = trainer::train(&mut lightgcn, &split, &trainer_cfg);
    let all1 = evaluate_model(&lightgcn, &split, &EvalSpec::at(20)).aggregate();
    let cold1 =
        evaluate_model(&lightgcn, &split, &EvalSpec::at(20).users(cold.clone())).aggregate();

    // L-IMCAT.
    let backbone = LightGcn::new(&split, TrainConfig::default(), &mut rng);
    let mut limcat = Imcat::new(
        backbone,
        &split,
        ImcatConfig { pretrain_epochs: 5, ..Default::default() },
        &mut rng,
    );
    let r2 = trainer::train(&mut limcat, &split, &trainer_cfg);
    let all2 = evaluate_model(&limcat, &split, &EvalSpec::at(20)).aggregate();
    let cold2 = evaluate_model(&limcat, &split, &EvalSpec::at(20).users(cold)).aggregate();

    println!("{:<10} {:>14} {:>14} {:>8}", "model", "R@20 (all)", "R@20 (cold)", "epochs");
    println!(
        "{:<10} {:>14.4} {:>14.4} {:>8}",
        "LightGCN", all1.recall, cold1.recall, r1.epochs_run
    );
    println!("{:<10} {:>14.4} {:>14.4} {:>8}", "L-IMCAT", all2.recall, cold2.recall, r2.epochs_run);

    let lift = |a: f64, b: f64| if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 };
    println!(
        "\nL-IMCAT vs LightGCN: {:+.1}% overall, {:+.1}% on cold users",
        lift(all2.recall, all1.recall),
        lift(cold2.recall, cold1.recall)
    );
}
