//! Checkpoint/resume integration: killing a run at an epoch boundary and
//! resuming from the checkpoint must reproduce the uninterrupted run's final
//! state **bit-for-bit** — report metrics, validation trajectory, and the
//! full ranking scores — at any `IMCAT_THREADS`. Also covers the `.prev`
//! fallback after corruption and the graceful skip for models that do not
//! support resume.

use std::path::PathBuf;

use imcat_core::{trainer, Imcat, ImcatConfig, TrainReport, TrainerConfig};
use imcat_models::test_util::tiny_split;
use imcat_models::{Bprmf, EpochStats, RecModel, Scorer, TrainConfig};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fresh per-test scratch directory under the target dir (no tempfile crate).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ckpt_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(max_epochs: usize, dir: Option<PathBuf>) -> TrainerConfig {
    TrainerConfig {
        max_epochs,
        patience: 100,
        eval_every: 2,
        eval_at: 10,
        seed: 7,
        checkpoint_every: if dir.is_some() { 1 } else { 0 },
        checkpoint_dir: dir,
        artifact_path: None,
    }
}

fn fresh_imcat(data: &imcat_data::SplitDataset) -> Imcat<Bprmf> {
    let mut rng = StdRng::seed_from_u64(5);
    let bb = Bprmf::new(data, TrainConfig { dim: 8, ..TrainConfig::default() }, &mut rng);
    Imcat::new(bb, data, ImcatConfig { pretrain_epochs: 1, ..Default::default() }, &mut rng)
}

/// The deterministic parts of a finished run: everything except wall-clock.
fn det_fields(r: &TrainReport) -> (usize, u64, u32, Vec<(usize, u64)>) {
    (
        r.epochs_run,
        r.best_val_recall.to_bits(),
        r.final_loss.to_bits(),
        r.curve.iter().map(|&(e, v)| (e, v.to_bits())).collect(),
    )
}

fn assert_scores_bit_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: score shapes differ");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: scores not bit-identical");
    }
}

#[test]
fn imcat_kill_and_resume_is_bit_identical() {
    let data = tiny_split(601);
    let users: Vec<u32> = (0..data.n_users() as u32).collect();

    // Uninterrupted reference run: 6 epochs, no checkpointing.
    let mut full = fresh_imcat(&data);
    let full_report = trainer::train(&mut full, &data, &config(6, None));
    assert_eq!(full_report.resumed_from, None);

    // "Killed" run: identical config, stopped at epoch 3 with checkpoints.
    let dir = scratch("imcat_resume");
    let mut first = fresh_imcat(&data);
    let first_report = trainer::train(&mut first, &data, &config(3, Some(dir.clone())));
    assert_eq!(first_report.epochs_run, 3);
    assert!(dir.join("trainer.ckpt").exists());
    drop(first); // the process is gone; only the checkpoint survives

    // Resume: a freshly built model picks up at epoch 4 and finishes.
    let mut resumed = fresh_imcat(&data);
    let resumed_report = trainer::train(&mut resumed, &data, &config(6, Some(dir)));
    assert_eq!(resumed_report.resumed_from, Some(3));

    assert_eq!(det_fields(&full_report), det_fields(&resumed_report));
    assert_scores_bit_equal(&full.score_users(&users), &resumed.score_users(&users), "IMCAT");
}

#[test]
fn bprmf_backbone_resumes_bit_identically() {
    let data = tiny_split(602);
    let users: Vec<u32> = (0..data.n_users() as u32).collect();
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Bprmf::new(&data, TrainConfig { dim: 8, ..TrainConfig::default() }, &mut rng)
    };

    let mut full = build(9);
    let full_report = trainer::train(&mut full, &data, &config(4, None));

    let dir = scratch("bprmf_resume");
    let mut first = build(9);
    trainer::train(&mut first, &data, &config(2, Some(dir.clone())));
    let mut resumed = build(9);
    let resumed_report = trainer::train(&mut resumed, &data, &config(4, Some(dir)));

    assert_eq!(resumed_report.resumed_from, Some(2));
    assert_eq!(det_fields(&full_report), det_fields(&resumed_report));
    assert_scores_bit_equal(&full.score_users(&users), &resumed.score_users(&users), "BPRMF");
}

/// A truncated `trainer.ckpt` must not poison the run: the trainer falls
/// back to the rotated `.prev` checkpoint (one save older) and still resumes.
#[test]
fn corrupted_checkpoint_falls_back_to_prev() {
    let data = tiny_split(603);
    let dir = scratch("fallback");
    let mut first = fresh_imcat(&data);
    trainer::train(&mut first, &data, &config(3, Some(dir.clone())));
    let primary = dir.join("trainer.ckpt");
    let prev = primary.with_extension("ckpt.prev");
    assert!(prev.exists(), "rotation should have left a .prev checkpoint");

    // Simulate a crash mid-write after the rename: truncate the primary.
    let bytes = std::fs::read(&primary).unwrap();
    std::fs::write(&primary, &bytes[..bytes.len() / 2]).unwrap();

    let mut resumed = fresh_imcat(&data);
    let report = trainer::train(&mut resumed, &data, &config(5, Some(dir)));
    // `.prev` holds the epoch-2 state (primary held epoch 3).
    assert_eq!(report.resumed_from, Some(2));
    assert_eq!(report.epochs_run, 5);
}

/// Minimal model that keeps the trait's default (no-resume) checkpoint
/// methods: training with checkpointing enabled must complete normally and
/// simply skip the saves.
struct NoCkpt {
    n_items: usize,
}

impl RecModel for NoCkpt {
    fn name(&self) -> String {
        "NoCkpt".into()
    }
    fn train_epoch(&mut self, _rng: &mut StdRng) -> EpochStats {
        EpochStats { loss: 1.0, batches: 1 }
    }
    fn scorer(&self) -> Scorer<'_> {
        Box::new(|users| Tensor::zeros(users.len(), self.n_items))
    }
    fn num_params(&self) -> usize {
        0
    }
}

#[test]
fn unsupported_model_skips_checkpointing_gracefully() {
    let data = tiny_split(604);
    let dir = scratch("skip");
    let mut model = NoCkpt { n_items: data.n_items() };
    let report = trainer::train(&mut model, &data, &config(3, Some(dir.clone())));
    assert_eq!(report.epochs_run, 3);
    assert!(!dir.join("trainer.ckpt").exists(), "no checkpoint for unsupported model");
    // load_state's default is a hard error, so resume never silently no-ops.
    assert!(model.load_state(&[]).is_err());
}

/// A split built straight from adjacency lists: no generator, so nothing
/// but Xavier's `sqrt` and uniform draws goes into a fresh model's bytes.
fn pin_split() -> imcat_data::SplitDataset {
    use imcat_graph::Bipartite;
    use imcat_tensor::Csr;
    let train = Csr::from_adjacency(
        6,
        8,
        &[vec![0, 1, 2], vec![1, 3, 4], vec![2, 5], vec![0, 6, 7], vec![3, 5, 7], vec![1, 4, 6]],
    );
    let item_tag = Csr::from_adjacency(
        8,
        5,
        &[vec![0, 1], vec![1], vec![2, 3], vec![0, 4], vec![3], vec![1, 2], vec![4], vec![0, 3]],
    );
    imcat_data::SplitDataset {
        name: "pin".into(),
        train: Bipartite::new(train),
        val: vec![vec![5], vec![], vec![0], vec![1], vec![], vec![2]],
        test: vec![vec![6], vec![0], vec![1], vec![2], vec![0], vec![3]],
        item_tag: Bipartite::new(item_tag),
    }
}

/// The saved-state bytes of every model `imcat --checkpoint` has taken,
/// fresh from the registry, plus B-IMCAT after `init_clusters` (which adds
/// the hard assignment). Recorded before the CLI, `Backbone` and
/// `EmbeddingCore` were reshaped; the saved format must not move.
#[test]
fn save_state_bytes_are_pinned() {
    use imcat_core::ModelKind;
    let data = pin_split();
    let tcfg = TrainConfig { dim: 8, ..TrainConfig::default() };
    let icfg = ImcatConfig::default();
    let fnv = |m: &dyn RecModel| imcat_ckpt::fnv1a64(&m.save_state().unwrap());
    for (kind, want) in [
        (ModelKind::Bprmf, 0x54385f745c5e2547u64),
        (ModelKind::Neumf, 0x3d3074b336711f72),
        (ModelKind::LightGcn, 0x160f9c313c639ced),
        (ModelKind::BImcat, 0x2ca720bedea397b1),
        (ModelKind::NImcat, 0x15121b43bff92c6b),
        (ModelKind::LImcat, 0x76bc827da787ddee),
    ] {
        let got = fnv(kind.build(&data, &tcfg, &icfg, 3).as_ref());
        assert_eq!(got, want, "{}: save_state FNV {got:#018x}", kind.name());
    }
    let mut rng = StdRng::seed_from_u64(3);
    let bb = Bprmf::new(&data, tcfg, &mut rng);
    let mut clustered = Imcat::new(bb, &data, icfg, &mut rng);
    clustered.init_clusters(&mut StdRng::seed_from_u64(4));
    assert_eq!(clustered.cluster_assignment(), Some(&[1, 2, 1, 0, 3][..]));
    assert_eq!(fnv(&clustered), 0x442ce74cdbb430bf);
}
