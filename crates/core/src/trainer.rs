//! Generic training loop with validation-based early stopping (paper §V-D:
//! up to 3000 epochs, stop when validation Recall@20 has not improved for
//! 100 epochs; both scaled down by default for CPU runs), wall-clock
//! accounting for the efficiency analysis of Fig. 9, and crash-safe
//! checkpoint/resume.
//!
//! ## Checkpointing
//!
//! With [`TrainerConfig::checkpoint_dir`] set and
//! [`TrainerConfig::checkpoint_every`] > 0, the trainer atomically writes
//! `trainer.ckpt` into the directory at every N-th epoch boundary, capturing
//! the *entire* run state: the model's parameters and optimizer moments (via
//! [`RecModel::save_state`]), the exact RNG stream position, the
//! early-stopping bookkeeping, and the epoch counter. [`train`] resumes
//! automatically when a matching checkpoint exists; because the RNG stream
//! position is restored exactly (not reseeded), a resumed run is bit-for-bit
//! identical to an uninterrupted one at any `IMCAT_THREADS` setting. Models
//! that do not implement [`RecModel::save_state`] train normally with a
//! `checkpoint_skip` telemetry event.
//!
//! A finished model is saved in the same format: [`save_model`] writes just
//! the `meta` and `model` sections of a checkpoint, and [`load_model`] reads
//! them back (from either kind of file) into a model built the same way.

use std::path::{Path, PathBuf};
use std::time::Instant;

use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_data::SplitDataset;
use imcat_eval::{EvalSpec, PerUserMetrics};
use imcat_models::RecModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Early-stopping patience in evaluation rounds.
    pub patience: usize,
    /// Evaluate on validation every this many epochs.
    pub eval_every: usize,
    /// Cutoff `N` for validation Recall@N.
    pub eval_at: usize,
    /// RNG seed for sampling during training.
    pub seed: u64,
    /// Write a checkpoint every this many epochs (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Directory for `trainer.ckpt`; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a frozen inference artifact (resolved embeddings + train masks,
    /// see [`imcat_ckpt::Artifact`]) here every time validation recall
    /// improves; `None` disables artifact export. Models whose scoring is not
    /// a user–item dot product skip the export with an `artifact_skip` event.
    pub artifact_path: Option<PathBuf>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            max_epochs: 120,
            patience: 5,
            eval_every: 5,
            eval_at: 20,
            seed: 7,
            checkpoint_every: 0,
            checkpoint_dir: None,
            artifact_path: None,
        }
    }
}

impl TrainerConfig {
    /// The checkpoint file path, when checkpointing is enabled.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        self.checkpoint_dir.as_ref().map(|d| d.join("trainer.ckpt"))
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Model name.
    pub model: String,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Best validation Recall@N seen.
    pub best_val_recall: f64,
    /// Mean training loss of the final epoch.
    pub final_loss: f32,
    /// Total wall-clock training time in seconds (excludes evaluation;
    /// accumulates across resumed segments).
    pub train_seconds: f64,
    /// Validation recall trajectory `(epoch, recall)`.
    pub curve: Vec<(usize, f64)>,
    /// When the run resumed from a checkpoint, the epoch it resumed after.
    pub resumed_from: Option<usize>,
    /// Where the best-epoch inference artifact was written, when
    /// [`TrainerConfig::artifact_path`] was set and the model supports export.
    pub artifact: Option<PathBuf>,
}

/// Evaluates `model` under `spec`: builds the model's scorer once
/// ([`RecModel::scorer`], so one forward per evaluation) and runs
/// `imcat-eval`'s ranking pass over it. Early stopping, the reported test
/// metrics, the figures and the CLI all rank through here, under one rule.
pub fn evaluate_model(
    model: &dyn RecModel,
    data: &SplitDataset,
    spec: &EvalSpec,
) -> PerUserMetrics {
    imcat_eval::evaluate_per_user(&mut model.scorer(), data, spec)
}

/// Mutable loop state captured into (and restored from) a checkpoint.
struct LoopState {
    epoch: usize,
    best: f64,
    since_best: usize,
    final_loss: f32,
    train_seconds: f64,
    curve: Vec<(usize, f64)>,
}

fn encode_trainer_section(s: &LoopState) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(s.epoch as u64);
    enc.put_f64(s.best);
    enc.put_u64(s.since_best as u64);
    enc.put_f32(s.final_loss);
    enc.put_f64(s.train_seconds);
    enc.put_u32(s.curve.len() as u32);
    for &(e, r) in &s.curve {
        enc.put_u64(e as u64);
        enc.put_f64(r);
    }
    enc.into_bytes()
}

fn decode_trainer_section(bytes: &[u8]) -> std::io::Result<LoopState> {
    let mut dec = Decoder::new(bytes);
    let epoch = dec.u64()? as usize;
    let best = dec.f64()?;
    let since_best = dec.u64()? as usize;
    let final_loss = dec.f32()?;
    let train_seconds = dec.f64()?;
    let n = dec.u32()? as usize;
    let mut curve = Vec::with_capacity(n);
    for _ in 0..n {
        let e = dec.u64()? as usize;
        let r = dec.f64()?;
        curve.push((e, r));
    }
    dec.finish()?;
    Ok(LoopState { epoch, best, since_best, final_loss, train_seconds, curve })
}

/// The `meta` section: which model (and seed) a checkpoint holds.
fn encode_meta(model_name: &str, seed: u64) -> Vec<u8> {
    let mut meta = Encoder::new();
    meta.put_str(model_name);
    meta.put_u64(seed);
    meta.into_bytes()
}

fn save_checkpoint(
    path: &Path,
    model_name: &str,
    seed: u64,
    state: &LoopState,
    rng: &StdRng,
    model_bytes: Vec<u8>,
) -> std::io::Result<u64> {
    let mut ck = Checkpoint::new();
    ck.insert("meta", encode_meta(model_name, seed));
    ck.insert("trainer", encode_trainer_section(state));
    let mut rs = Encoder::new();
    rs.put_u64s(&rng.state());
    ck.insert("rng", rs.into_bytes());
    ck.insert("model", model_bytes);
    ck.save(path)
}

/// Checks that a container's `meta` section names `model` and `seed`.
fn check_meta(ck: &Checkpoint, model: &dyn RecModel, seed: u64) -> std::io::Result<()> {
    let mut meta = Decoder::new(ck.require("meta")?);
    let name = meta.str()?;
    if name != model.name() {
        return Err(invalid(format!("checkpoint is for model '{name}', not '{}'", model.name())));
    }
    let saved = meta.u64()?;
    if saved != seed {
        return Err(invalid(format!("checkpoint used seed {saved}, this run uses {seed}")));
    }
    meta.finish()
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Validates and applies a checkpoint; on any error the model and the
/// returned state are untouched (everything is decoded before mutation).
fn resume_from_checkpoint(
    ck: &Checkpoint,
    model: &mut dyn RecModel,
    cfg: &TrainerConfig,
) -> std::io::Result<(LoopState, StdRng)> {
    check_meta(ck, model, cfg.seed)?;
    let state = decode_trainer_section(ck.require("trainer")?)?;
    let mut rng_dec = Decoder::new(ck.require("rng")?);
    let rng_words = rng_dec.u64s()?;
    rng_dec.finish()?;
    let rng_state: [u64; 4] =
        rng_words.as_slice().try_into().map_err(|_| invalid("rng state is not 4 words".into()))?;
    if rng_state == [0; 4] {
        return Err(invalid("rng state is degenerate (all zero)".into()));
    }
    model.load_state(ck.require("model")?)?;
    Ok((state, StdRng::from_state(rng_state)))
}

/// Saves a trained model to `path` in the trainer's checkpoint format: the
/// `meta` section (model name, `seed`) and the `model` section
/// ([`RecModel::save_state`]), written atomically. Returns the bytes
/// written, or `Unsupported` for a model without `save_state`.
pub fn save_model(model: &dyn RecModel, seed: u64, path: &Path) -> std::io::Result<u64> {
    let bytes = model.save_state().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("{} does not support checkpoint resume", model.name()),
        )
    })?;
    let mut ck = Checkpoint::new();
    ck.insert("meta", encode_meta(&model.name(), seed));
    ck.insert("model", bytes);
    ck.save(path)
}

/// Restores a file written by [`save_model`] (or a trainer checkpoint) into
/// `model`, built the same way from the same split: the `meta` section must
/// name this model and `seed`, and [`RecModel::load_state`] leaves the model
/// untouched on any error.
pub fn load_model(model: &mut dyn RecModel, seed: u64, path: &Path) -> std::io::Result<()> {
    let ck = Checkpoint::load(path)?;
    check_meta(&ck, model, seed)?;
    model.load_state(ck.require("model")?)
}

/// Trains `model` until early stopping or `max_epochs`, reporting the best
/// validation recall and wall-clock time. When checkpointing is configured
/// (see [`TrainerConfig::checkpoint_path`]) and a compatible checkpoint
/// exists, the run resumes from it and reproduces the uninterrupted run
/// bit-for-bit; an incompatible or corrupted checkpoint falls back to a
/// fresh start with a warning.
pub fn train(model: &mut dyn RecModel, data: &SplitDataset, cfg: &TrainerConfig) -> TrainReport {
    let telemetry = imcat_obs::enabled();
    let ckpt_path = cfg.checkpoint_path();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best = f64::MIN;
    let mut since_best = 0usize;
    let mut train_seconds = 0.0;
    let mut final_loss = 0.0;
    let mut curve = Vec::new();
    let mut epochs_run = 0;
    let mut start_epoch = 1usize;
    let mut resumed_from = None;
    if let Some(path) = &ckpt_path {
        match Checkpoint::load(path) {
            Ok(ck) => match resume_from_checkpoint(&ck, model, cfg) {
                Ok((state, restored_rng)) => {
                    rng = restored_rng;
                    best = state.best;
                    since_best = state.since_best;
                    train_seconds = state.train_seconds;
                    final_loss = state.final_loss;
                    curve = state.curve;
                    epochs_run = state.epoch;
                    start_epoch = state.epoch + 1;
                    resumed_from = Some(state.epoch);
                    if telemetry {
                        imcat_obs::counter_add("ckpt.resumes", 1);
                        imcat_obs::emit(
                            "resume",
                            vec![
                                ("model", imcat_obs::Json::Str(model.name())),
                                ("from_epoch", imcat_obs::Json::Num(state.epoch as f64)),
                            ],
                        );
                    }
                }
                Err(e) => {
                    eprintln!("trainer: ignoring incompatible checkpoint {}: {e}", path.display());
                    if telemetry {
                        imcat_obs::emit(
                            "checkpoint_mismatch",
                            vec![("error", imcat_obs::Json::Str(e.to_string()))],
                        );
                    }
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("trainer: ignoring unreadable checkpoint {}: {e}", path.display());
            }
        }
    }
    let mut skip_emitted = false;
    let mut artifact_written = ArtifactStatus::NotWritten;
    for epoch in start_epoch..=cfg.max_epochs {
        let t0 = Instant::now();
        let stats = model.train_epoch(&mut rng);
        let epoch_seconds = t0.elapsed().as_secs_f64();
        train_seconds += epoch_seconds;
        final_loss = stats.loss;
        epochs_run = epoch;
        if telemetry {
            if !stats.loss.is_finite() {
                imcat_obs::counter_add("guard.nonfinite_loss", 1);
            }
            imcat_obs::emit(
                "epoch",
                vec![
                    ("epoch", imcat_obs::Json::Num(epoch as f64)),
                    ("loss", imcat_obs::Json::Num(stats.loss as f64)),
                    ("batches", imcat_obs::Json::Num(stats.batches as f64)),
                    ("seconds", imcat_obs::Json::Num(epoch_seconds)),
                ],
            );
        }
        if epoch % cfg.eval_every == 0 {
            let recall = {
                let _sp = imcat_obs::span("phase.eval");
                let spec = EvalSpec::at(cfg.eval_at).validation();
                evaluate_model(model, data, &spec).aggregate().recall
            };
            curve.push((epoch, recall));
            if telemetry {
                imcat_obs::gauge_set("eval.val_recall", recall);
                imcat_obs::emit(
                    "eval",
                    vec![
                        ("epoch", imcat_obs::Json::Num(epoch as f64)),
                        ("recall", imcat_obs::Json::Num(recall)),
                        ("best", imcat_obs::Json::Num(best.max(recall).max(0.0))),
                    ],
                );
            }
            if recall > best {
                best = recall;
                since_best = 0;
                if let Some(path) = &cfg.artifact_path {
                    export_best_artifact(
                        model,
                        data,
                        path,
                        epoch,
                        &mut artifact_written,
                        telemetry,
                    );
                }
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    if telemetry {
                        imcat_obs::emit(
                            "early_stop",
                            vec![
                                ("epoch", imcat_obs::Json::Num(epoch as f64)),
                                ("best_recall", imcat_obs::Json::Num(best.max(0.0))),
                            ],
                        );
                    }
                    break;
                }
            }
        }
        if let Some(path) = &ckpt_path {
            if epoch % cfg.checkpoint_every == 0 {
                match model.save_state() {
                    Some(model_bytes) => {
                        let state = LoopState {
                            epoch,
                            best,
                            since_best,
                            final_loss,
                            train_seconds,
                            curve: curve.clone(),
                        };
                        match save_checkpoint(
                            path,
                            &model.name(),
                            cfg.seed,
                            &state,
                            &rng,
                            model_bytes,
                        ) {
                            Ok(bytes) => {
                                if telemetry {
                                    imcat_obs::emit(
                                        "checkpoint",
                                        vec![
                                            ("epoch", imcat_obs::Json::Num(epoch as f64)),
                                            ("bytes", imcat_obs::Json::Num(bytes as f64)),
                                        ],
                                    );
                                }
                            }
                            Err(e) => {
                                eprintln!(
                                    "trainer: checkpoint save to {} failed: {e}",
                                    path.display()
                                );
                            }
                        }
                    }
                    None => {
                        if !skip_emitted {
                            skip_emitted = true;
                            if telemetry {
                                imcat_obs::counter_add("ckpt.skips", 1);
                                imcat_obs::emit(
                                    "checkpoint_skip",
                                    vec![("model", imcat_obs::Json::Str(model.name()))],
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    TrainReport {
        model: model.name(),
        epochs_run,
        best_val_recall: best.max(0.0),
        final_loss,
        train_seconds,
        curve,
        resumed_from,
        artifact: match artifact_written {
            ArtifactStatus::Written => cfg.artifact_path.clone(),
            _ => None,
        },
    }
}

/// Whether the best-epoch artifact made it to disk during this run.
enum ArtifactStatus {
    NotWritten,
    Written,
    Unsupported,
}

/// Exports the model's frozen inference artifact after a validation-recall
/// improvement. Failures never abort training: an unsupported model logs one
/// `artifact_skip` event, an I/O error is printed and retried at the next
/// improvement.
fn export_best_artifact(
    model: &dyn RecModel,
    data: &SplitDataset,
    path: &Path,
    epoch: usize,
    status: &mut ArtifactStatus,
    telemetry: bool,
) {
    if matches!(status, ArtifactStatus::Unsupported) {
        return;
    }
    let Some(artifact) = model.export_artifact(data) else {
        *status = ArtifactStatus::Unsupported;
        if telemetry {
            imcat_obs::counter_add("artifact.skips", 1);
            imcat_obs::emit("artifact_skip", vec![("model", imcat_obs::Json::Str(model.name()))]);
        }
        return;
    };
    match artifact.save(path) {
        Ok(bytes) => {
            *status = ArtifactStatus::Written;
            if telemetry {
                imcat_obs::emit(
                    "artifact",
                    vec![
                        ("epoch", imcat_obs::Json::Num(epoch as f64)),
                        ("bytes", imcat_obs::Json::Num(bytes as f64)),
                    ],
                );
            }
        }
        Err(e) => {
            eprintln!("trainer: artifact export to {} failed: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_models::test_util::tiny_split;
    use imcat_models::{Bprmf, TrainConfig};

    #[test]
    fn trainer_runs_and_reports() {
        let data = tiny_split(301);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let cfg =
            TrainerConfig { max_epochs: 20, eval_every: 5, patience: 2, ..Default::default() };
        let report = train(&mut model, &data, &cfg);
        assert_eq!(report.model, "BPRMF");
        assert!(report.epochs_run >= 5);
        assert!(report.best_val_recall > 0.0);
        assert!(report.train_seconds > 0.0);
        assert!(!report.curve.is_empty());
    }

    #[test]
    fn early_stopping_triggers() {
        let data = tiny_split(302);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        // Patience 1 with eval every epoch: stops quickly once flat.
        let cfg =
            TrainerConfig { max_epochs: 200, eval_every: 1, patience: 1, ..Default::default() };
        let report = train(&mut model, &data, &cfg);
        assert!(report.epochs_run < 200, "early stopping never fired");
    }

    #[test]
    fn best_epoch_artifact_is_written_and_loadable() {
        let data = tiny_split(304);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let dir = std::env::temp_dir().join("imcat-trainer-artifact-304");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.artifact");
        let cfg = TrainerConfig {
            max_epochs: 10,
            eval_every: 5,
            patience: 2,
            artifact_path: Some(path.clone()),
            ..Default::default()
        };
        let report = train(&mut model, &data, &cfg);
        assert_eq!(report.artifact.as_deref(), Some(path.as_path()));
        let art = imcat_ckpt::Artifact::load(&path).unwrap();
        assert_eq!(art.model, "BPRMF");
        assert_eq!(art.n_users(), data.n_users());
        assert_eq!(art.n_items(), data.n_items());
        for u in 0..data.n_users() {
            assert_eq!(art.masks[u], data.train_items(u));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_dot_product_model_skips_artifact() {
        let data = tiny_split(305);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = imcat_models::Neumf::new(&data, TrainConfig::default(), &mut rng);
        let dir = std::env::temp_dir().join("imcat-trainer-artifact-305");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.artifact");
        let cfg = TrainerConfig {
            max_epochs: 5,
            eval_every: 5,
            patience: 1,
            artifact_path: Some(path.clone()),
            ..Default::default()
        };
        let report = train(&mut model, &data, &cfg);
        assert!(report.artifact.is_none());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_recall_in_unit_range() {
        let data = tiny_split(303);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Bprmf::new(&data, TrainConfig::default(), &mut rng);
        let r = evaluate_model(&model, &data, &EvalSpec::at(20).validation()).aggregate().recall;
        assert!((0.0..=1.0).contains(&r));
    }
}
