//! Resume-determinism harness for CI: proves that killing a training run at
//! an epoch boundary and resuming it from the checkpoint produces final
//! metrics **bit-identical** to an uninterrupted run.
//!
//! Three modes, driven by the first argument:
//!
//! * `full <out.json>`              — train B-IMCAT for all epochs with no
//!   checkpointing and write the deterministic fingerprint.
//! * `interrupt <ckpt_dir>`         — train the *same* configuration but stop
//!   at the halfway point, checkpointing every epoch (simulates a kill at an
//!   epoch boundary). Writes nothing.
//! * `resume <ckpt_dir> <out.json>` — rerun the full configuration against
//!   the same checkpoint directory; the trainer resumes mid-training and the
//!   fingerprint is written. The process exits non-zero if the run did *not*
//!   actually resume from a checkpoint.
//!
//! The fingerprint holds only run-deterministic fields — metric `f64::to_bits`
//! values, epoch counts, and the validation-recall trajectory — never
//! wall-clock times, so CI can `cmp` the JSON files byte-for-byte across
//! `full` and `interrupt`+`resume`, at any `IMCAT_THREADS`.
//!
//! Usage: `cargo run --release -p imcat-bench --bin resume_check -- <mode> ...`

use std::path::PathBuf;

use imcat_bench::ModelKind;
use imcat_core::{evaluate_model, train, ImcatConfig, TrainerConfig};
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_eval::EvalSpec;
use imcat_models::TrainConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FULL_EPOCHS: usize = 8;
const INTERRUPT_AT: usize = 4;
const SEED: u64 = 7;

fn dataset() -> SplitDataset {
    let d = generate(&SynthConfig::tiny(), 11);
    let mut rng = StdRng::seed_from_u64(12);
    d.dataset.split((0.7, 0.1, 0.2), &mut rng)
}

fn trainer_config(max_epochs: usize, ckpt_dir: Option<PathBuf>) -> TrainerConfig {
    TrainerConfig {
        max_epochs,
        // Large enough that early stopping never truncates this short run,
        // so `full` and `interrupt`+`resume` cover identical epoch ranges.
        patience: 100,
        eval_every: 2,
        eval_at: 20,
        seed: SEED,
        checkpoint_every: if ckpt_dir.is_some() { 1 } else { 0 },
        checkpoint_dir: ckpt_dir,
        artifact_path: None,
    }
}

/// Trains B-IMCAT for `max_epochs` and returns `(report, recall_bits,
/// ndcg_bits)` with the test metrics evaluated bit-exactly.
fn run(max_epochs: usize, ckpt_dir: Option<PathBuf>) -> (imcat_core::TrainReport, u64, u64) {
    let data = dataset();
    let tcfg = TrainConfig { dim: 16, ..TrainConfig::default() };
    let icfg = ImcatConfig { pretrain_epochs: 1, ..ImcatConfig::default() };
    let mut model = ModelKind::BImcat.build(&data, &tcfg, &icfg, SEED);
    let report = train(model.as_mut(), &data, &trainer_config(max_epochs, ckpt_dir));
    let agg = evaluate_model(model.as_ref(), &data, &EvalSpec::at(20)).aggregate();
    (report, agg.recall.to_bits(), agg.ndcg.to_bits())
}

/// Renders the deterministic fingerprint: every field is an integer (metric
/// bits, epochs), so the serialization itself is byte-stable.
fn fingerprint(report: &imcat_core::TrainReport, recall_bits: u64, ndcg_bits: u64) -> String {
    let curve: Vec<String> = report
        .curve
        .iter()
        .map(|(epoch, recall)| format!("[{epoch},{}]", recall.to_bits()))
        .collect();
    format!(
        "{{\n  \"model\": \"{}\",\n  \"seed\": {SEED},\n  \"epochs_run\": {},\n  \
         \"best_val_recall_bits\": {},\n  \"final_loss_bits\": {},\n  \
         \"recall_bits\": {recall_bits},\n  \"ndcg_bits\": {ndcg_bits},\n  \
         \"curve\": [{}]\n}}\n",
        report.model,
        report.epochs_run,
        report.best_val_recall.to_bits(),
        report.final_loss.to_bits(),
        curve.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: resume_check full <out.json> | interrupt <ckpt_dir> | \
                 resume <ckpt_dir> <out.json>";
    match args.first().map(String::as_str) {
        Some("full") => {
            let out = args.get(1).expect(usage);
            let (report, recall_bits, ndcg_bits) = run(FULL_EPOCHS, None);
            std::fs::write(out, fingerprint(&report, recall_bits, ndcg_bits))
                .expect("cannot write fingerprint");
            println!("full: {} epochs, recall_bits={recall_bits}", report.epochs_run);
        }
        Some("interrupt") => {
            let dir = PathBuf::from(args.get(1).expect(usage));
            let (report, ..) = run(INTERRUPT_AT, Some(dir));
            assert!(report.resumed_from.is_none(), "interrupt segment must start fresh");
            println!("interrupted after epoch {}", report.epochs_run);
        }
        Some("resume") => {
            let dir = PathBuf::from(args.get(1).expect(usage));
            let out = args.get(2).expect(usage);
            let (report, recall_bits, ndcg_bits) = run(FULL_EPOCHS, Some(dir));
            assert_eq!(
                report.resumed_from,
                Some(INTERRUPT_AT),
                "resume segment must pick up from the interrupt checkpoint"
            );
            std::fs::write(out, fingerprint(&report, recall_bits, ndcg_bits))
                .expect("cannot write fingerprint");
            println!(
                "resumed from epoch {} to {}, recall_bits={recall_bits}",
                INTERRUPT_AT, report.epochs_run
            );
        }
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
