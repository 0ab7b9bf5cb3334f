//! Backbone compatibility demo (paper §V-C): IMCAT is model-agnostic — this
//! example trains all three backbones with and without the IMCAT plug-in and
//! reports the uplift, mirroring the B-/N-/L-IMCAT rows of Table II.
//!
//! ```sh
//! cargo run --release --example backbone_comparison
//! ```

use imcat::prelude::*;

fn train_and_test(model: &mut dyn RecModel, split: &SplitDataset) -> (f64, usize, f64) {
    let cfg = TrainerConfig { max_epochs: 80, eval_every: 10, patience: 3, ..Default::default() };
    let report = trainer::train(model, split, &cfg);
    let m = evaluate_model(model, split, &EvalSpec::at(20)).aggregate();
    (m.recall, report.epochs_run, report.train_seconds)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let synth = generate(&SynthConfig::hetrec_del().scaled(0.6), 5);
    let split = synth.dataset.split((0.7, 0.1, 0.2), &mut rng);
    println!("{}\n", synth.dataset.stats());
    println!("{:<12} {:>8} {:>8} {:>10}", "model", "R@20", "epochs", "time(s)");

    let icfg = ImcatConfig { pretrain_epochs: 5, ..Default::default() };
    let tcfg = TrainConfig::default;

    // BPRMF and B-IMCAT.
    let mut bprmf = Bprmf::new(&split, tcfg(), &mut rng);
    let (r, e, t) = train_and_test(&mut bprmf, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "BPRMF", r, e, t);
    let mut b_imcat =
        Imcat::new(Bprmf::new(&split, tcfg(), &mut rng), &split, icfg.clone(), &mut rng);
    let (r, e, t) = train_and_test(&mut b_imcat, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "B-IMCAT", r, e, t);

    // NeuMF and N-IMCAT.
    let mut neumf = Neumf::new(&split, tcfg(), &mut rng);
    let (r, e, t) = train_and_test(&mut neumf, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "NeuMF", r, e, t);
    let mut n_imcat =
        Imcat::new(Neumf::new(&split, tcfg(), &mut rng), &split, icfg.clone(), &mut rng);
    let (r, e, t) = train_and_test(&mut n_imcat, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "N-IMCAT", r, e, t);

    // LightGCN and L-IMCAT.
    let mut lightgcn = LightGcn::new(&split, tcfg(), &mut rng);
    let (r, e, t) = train_and_test(&mut lightgcn, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "LightGCN", r, e, t);
    let mut l_imcat = Imcat::new(LightGcn::new(&split, tcfg(), &mut rng), &split, icfg, &mut rng);
    let (r, e, t) = train_and_test(&mut l_imcat, &split);
    println!("{:<12} {:>8.4} {:>8} {:>10.1}", "L-IMCAT", r, e, t);
}
