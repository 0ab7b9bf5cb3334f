//! Experiment runner: datasets, training, measurement, JSON reporting, and
//! telemetry wiring (per-run phase breakdowns via `imcat-obs`).

use std::path::{Path, PathBuf};

use imcat_ckpt::{Checkpoint, Decoder, Encoder};
use imcat_core::{evaluate_model, ImcatConfig, TrainerConfig};
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_eval::{EvalSpec, PerUserMetrics};
use imcat_models::TrainConfig;
use imcat_obs::{knob_f64, knob_str, knob_usize, Json, ToJson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use imcat_core::ModelKind;

/// The disjoint training-phase spans recorded by the instrumented stack.
/// `phase.eval` (validation passes) is excluded from `train_seconds` by the
/// trainer, and `phase.test` (the final test pass [`run_one`] runs after
/// training) comes after it, so the breakdown reports both separately.
const TRAIN_PHASES: [&str; 5] =
    ["phase.sampling", "phase.forward", "phase.backward", "phase.optimizer", "phase.refresh"];

/// Enables telemetry for a benchmark binary. Honors `IMCAT_OBS` /
/// `IMCAT_OBS_OUT`; pass `force` to switch it on regardless (the efficiency
/// experiments always want the phase breakdown).
pub fn obs_init(force: bool) {
    imcat_obs::init_from_env();
    if force {
        imcat_obs::set_enabled(true);
    }
}

/// Prints the telemetry summary table and writes the JSONL sink if
/// `IMCAT_OBS_OUT` is set. No-op when telemetry is disabled.
pub fn obs_finish() {
    if !imcat_obs::enabled() {
        return;
    }
    // Fold the pool workers' atomic busy-time counters into the registry
    // before the summary is rendered.
    imcat_par::flush_obs();
    println!("{}", imcat_obs::summary());
    if let Some(path) = imcat_obs::finalize() {
        println!("telemetry written to {}", path.display());
    }
}

/// Tees experiment output to stdout *and* `target/experiments/<name>.log`, so
/// binaries leave their logs under `target/` instead of relying on shell
/// redirection into the repository root (see the `logln!` macro).
pub struct ExpLog {
    file: Option<std::fs::File>,
    path: PathBuf,
}

impl ExpLog {
    /// Opens (truncating) `target/experiments/<name>.log`. Failure to create
    /// the file degrades to stdout-only logging.
    pub fn new(name: &str) -> Self {
        let dir = PathBuf::from("target/experiments");
        let path = dir.join(format!("{name}.log"));
        let file =
            std::fs::create_dir_all(&dir).ok().and_then(|()| std::fs::File::create(&path).ok());
        Self { file, path }
    }

    /// Where the log file lives.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Writes one line to stdout and the log file.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        println!("{s}");
        if let Some(f) = &mut self.file {
            use std::io::Write as _;
            let _ = writeln!(f, "{s}");
        }
    }
}

/// `println!` that also appends to an [`ExpLog`].
#[macro_export]
macro_rules! logln {
    ($log:expr) => { $log.line("") };
    ($log:expr, $($arg:tt)*) => { $log.line(format!($($arg)*)) };
}

/// Shared experiment environment, configurable through environment variables:
///
/// * `IMCAT_SCALE`   — multiplier on the preset dataset sizes (default 1.0;
///   presets are already laptop-scale versions of Table I).
/// * `IMCAT_EPOCHS`  — max training epochs (default 60).
/// * `IMCAT_TRIALS`  — trials per cell with different initializations
///   (paper: 5; default 1 for quick runs).
/// * `IMCAT_DIM`     — embedding dimension (default 32; paper uses 64).
/// * `IMCAT_CKPT_DIR`   — enable crash-safe trial resume: each trial
///   checkpoints its trainer state under
///   `<dir>/<model>_<dataset>_<seed>/` and caches its finished result
///   there, so a restarted experiment binary skips completed trials and
///   resumes the interrupted one mid-training.
/// * `IMCAT_CKPT_EVERY` — epochs between trainer checkpoints (default 10;
///   only meaningful with `IMCAT_CKPT_DIR`).
#[derive(Clone, Debug)]
pub struct Env {
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Max epochs per run.
    pub max_epochs: usize,
    /// Trials per (model, dataset) cell.
    pub trials: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Split / generation seed (fixed per the paper: same partition across
    /// trials).
    pub data_seed: u64,
    /// Root directory for per-trial checkpoints; `None` disables resume.
    pub ckpt_dir: Option<PathBuf>,
    /// Epochs between trainer checkpoints.
    pub ckpt_every: usize,
}

impl Default for Env {
    fn default() -> Self {
        Self {
            scale: 1.0,
            max_epochs: 60,
            trials: 1,
            dim: 32,
            data_seed: 2023,
            ckpt_dir: None,
            ckpt_every: 10,
        }
    }
}

impl Env {
    /// Reads overrides from the environment.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            scale: knob_f64("IMCAT_SCALE", d.scale),
            max_epochs: knob_usize("IMCAT_EPOCHS", d.max_epochs),
            trials: knob_usize("IMCAT_TRIALS", d.trials),
            dim: knob_usize("IMCAT_DIM", d.dim),
            ckpt_dir: knob_str("IMCAT_CKPT_DIR").map(PathBuf::from),
            ckpt_every: knob_usize("IMCAT_CKPT_EVERY", d.ckpt_every),
            ..d
        }
    }

    /// Per-trial checkpoint directory `<ckpt_dir>/<model>_<dataset>_<seed>`,
    /// when trial resume is enabled.
    pub fn trial_dir(&self, model: &str, dataset: &str, seed: u64) -> Option<PathBuf> {
        let sanitize = |s: &str| -> String {
            s.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
        };
        self.ckpt_dir
            .as_ref()
            .map(|d| d.join(format!("{}_{}_{seed}", sanitize(model), sanitize(dataset))))
    }

    /// Training hyper-parameters (paper §V-D values, scaled dim).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig { dim: self.dim, ..TrainConfig::default() }
    }

    /// Default IMCAT configuration used across experiments.
    pub fn imcat_config(&self) -> ImcatConfig {
        ImcatConfig { pretrain_epochs: 5, ..ImcatConfig::default() }
    }

    /// Trainer settings (scaled-down version of 3000 epochs / patience 100).
    /// Checkpointing is wired up per trial by [`run_one`], not here.
    pub fn trainer_config(&self, seed: u64) -> TrainerConfig {
        TrainerConfig {
            max_epochs: self.max_epochs,
            patience: 3,
            eval_every: 10,
            eval_at: 20,
            seed,
            ..TrainerConfig::default()
        }
    }

    /// Generates and splits one preset at this environment's scale.
    pub fn dataset(&self, preset: &SynthConfig) -> SplitDataset {
        let cfg = preset.clone().scaled(self.scale);
        let data = generate(&cfg, self.data_seed);
        let mut rng = StdRng::seed_from_u64(self.data_seed ^ 0x517);
        data.dataset.split((0.7, 0.1, 0.2), &mut rng)
    }
}

/// One trained-and-evaluated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Model display name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Initialization seed.
    pub seed: u64,
    /// Test Recall@20.
    pub recall: f64,
    /// Test NDCG@20.
    pub ndcg: f64,
    /// Wall-clock training seconds (excluding evaluation).
    pub train_seconds: f64,
    /// Epochs actually run before early stopping.
    pub epochs: usize,
}

imcat_obs::impl_to_json!(RunResult { model, dataset, seed, recall, ndcg, train_seconds, epochs });

/// Caches a finished trial's result (and per-user detail) next to the
/// trial's trainer checkpoint, so a restarted experiment binary can skip it.
fn save_trial_result(
    path: &Path,
    result: &RunResult,
    per_user: &PerUserMetrics,
) -> std::io::Result<u64> {
    let mut enc = Encoder::new();
    enc.put_str(&result.model);
    enc.put_str(&result.dataset);
    enc.put_u64(result.seed);
    enc.put_f64(result.recall);
    enc.put_f64(result.ndcg);
    enc.put_f64(result.train_seconds);
    enc.put_u64(result.epochs as u64);
    enc.put_u32s(&per_user.users);
    enc.put_f64s(&per_user.recall);
    enc.put_f64s(&per_user.ndcg);
    let mut ck = Checkpoint::new();
    ck.insert("result", enc.into_bytes());
    ck.save(path)
}

/// Loads a cached trial result, verifying it belongs to exactly this
/// `(model, dataset, seed)` cell. Any mismatch or corruption simply means
/// "no cache" — the trial reruns.
fn load_trial_result(
    path: &Path,
    model: &str,
    dataset: &str,
    seed: u64,
) -> Option<(RunResult, PerUserMetrics)> {
    let ck = Checkpoint::load(path).ok()?;
    let mut dec = Decoder::new(ck.get("result")?);
    let decoded = (|| -> std::io::Result<(RunResult, PerUserMetrics)> {
        let result = RunResult {
            model: dec.str()?.to_string(),
            dataset: dec.str()?.to_string(),
            seed: dec.u64()?,
            recall: dec.f64()?,
            ndcg: dec.f64()?,
            train_seconds: dec.f64()?,
            epochs: dec.u64()? as usize,
        };
        let per_user =
            PerUserMetrics { users: dec.u32s()?, recall: dec.f64s()?, ndcg: dec.f64s()? };
        Ok((result, per_user))
    })()
    .ok()?;
    let (result, _) = &decoded;
    if result.model != model || result.dataset != dataset || result.seed != seed {
        return None;
    }
    Some(decoded)
}

/// Trains `kind` on `data` and evaluates test Recall/NDCG@20. With
/// `IMCAT_CKPT_DIR` set, the trial checkpoints its trainer state every
/// `IMCAT_CKPT_EVERY` epochs, resumes mid-training after a kill, and skips
/// entirely once its cached result exists.
pub fn run_one(
    kind: ModelKind,
    data: &SplitDataset,
    env: &Env,
    icfg: &ImcatConfig,
    seed: u64,
) -> (RunResult, PerUserMetrics) {
    let trial_dir = env.trial_dir(kind.name(), &data.name, seed);
    let result_path = trial_dir.as_ref().map(|d| d.join("result.ckpt"));
    if let Some(path) = &result_path {
        if let Some(cached) = load_trial_result(path, kind.name(), &data.name, seed) {
            if imcat_obs::enabled() {
                imcat_obs::counter_add("bench.trial_skips", 1);
                imcat_obs::emit(
                    "trial_skip",
                    vec![
                        ("model", Json::Str(kind.name().to_string())),
                        ("dataset", Json::Str(data.name.clone())),
                        ("seed", Json::Num(seed as f64)),
                    ],
                );
            }
            return cached;
        }
    }
    let tcfg = env.train_config();
    let mut model = kind.build(data, &tcfg, icfg, seed);
    let snap0 = imcat_obs::snapshot();
    let mut trainer_cfg = env.trainer_config(seed);
    if let Some(dir) = &trial_dir {
        trainer_cfg.checkpoint_dir = Some(dir.clone());
        trainer_cfg.checkpoint_every = env.ckpt_every;
    }
    let report = imcat_core::train(model.as_mut(), data, &trainer_cfg);
    let test_span = imcat_obs::span("phase.test");
    let per_user = evaluate_model(model.as_ref(), data, &EvalSpec::at(20));
    drop(test_span);
    if imcat_obs::enabled() {
        // Snapshot delta isolates this run's phase times even when several
        // runs share one process.
        let snap1 = imcat_obs::snapshot();
        let mut fields: Vec<(&str, Json)> = vec![
            ("model", Json::Str(kind.name().to_string())),
            ("dataset", Json::Str(data.name.clone())),
            ("seed", Json::Num(seed as f64)),
            ("train_seconds", Json::Num(report.train_seconds)),
        ];
        let mut accounted = 0.0;
        for phase in TRAIN_PHASES {
            let dt = snap1.hist_sum(phase) - snap0.hist_sum(phase);
            accounted += dt;
            fields.push((phase, Json::Num(dt)));
        }
        fields.push(("phase.other", Json::Num((report.train_seconds - accounted).max(0.0))));
        for phase in ["phase.eval", "phase.test"] {
            fields.push((phase, Json::Num(snap1.hist_sum(phase) - snap0.hist_sum(phase))));
        }
        imcat_obs::emit("run_phase_breakdown", fields);
    }
    let agg = per_user.aggregate();
    let result = RunResult {
        model: kind.name().to_string(),
        dataset: data.name.clone(),
        seed,
        recall: agg.recall,
        ndcg: agg.ndcg,
        train_seconds: report.train_seconds,
        epochs: report.epochs_run,
    };
    if let Some(path) = &result_path {
        if let Err(e) = save_trial_result(path, &result, &per_user) {
            eprintln!("warning: could not cache trial result to {}: {e}", path.display());
        }
    }
    (result, per_user)
}

/// Maps `f` over `items`, fanning the calls out over the `imcat-par` pool
/// when that cannot disturb measurement: telemetry must be off (the global
/// registry is shared across threads, so the per-run snapshot deltas taken by
/// [`run_one`] would mix concurrent runs' phase times together) and the pool
/// must actually have spare threads. Results come back in item order either
/// way, and every run is seeded, so the output is identical between the
/// serial and parallel paths.
pub fn run_parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if imcat_obs::enabled() || !imcat_par::parallelism_available() {
        return items.iter().map(f).collect();
    }
    imcat_par::global().map_chunks(items.len(), 1, |ci, _| f(&items[ci]))
}

/// Runs `env.trials` seeds of a cell (in parallel when telemetry is off),
/// returning all results plus the pooled per-user recall vectors (for paired
/// t-tests across models).
pub fn run_trials(
    kind: ModelKind,
    data: &SplitDataset,
    env: &Env,
    icfg: &ImcatConfig,
) -> (Vec<RunResult>, Vec<f64>) {
    let seeds: Vec<u64> = (0..env.trials).map(|t| 1000 + t as u64).collect();
    let runs = run_parallel(&seeds, |&seed| run_one(kind, data, env, icfg, seed));
    let mut results = Vec::with_capacity(env.trials);
    let mut pooled: Vec<f64> = Vec::new();
    for (r, per_user) in runs {
        results.push(r);
        if pooled.is_empty() {
            pooled = per_user.recall.clone();
        } else {
            for (p, r2) in pooled.iter_mut().zip(&per_user.recall) {
                *p += r2;
            }
        }
    }
    for p in &mut pooled {
        *p /= env.trials as f64;
    }
    (results, pooled)
}

/// Writes a report under `target/experiments/<name>.json`.
pub fn write_json<T: ToJson>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("cannot create target/experiments");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().pretty()).expect("cannot write experiment JSON");
    path
}

/// Mean of per-seed values of one field.
pub fn mean_of(results: &[RunResult], f: impl Fn(&RunResult) -> f64) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

/// Normalized Zipf CDF over `n` ranks: rank `r` (0-based) has weight
/// `1 / (r+1)^s`. The `frontier` bin draws its request stream from it.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

/// Draws one rank from a [`zipf_cdf`]: a uniform draw + binary search.
pub fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> u32 {
    let x: f64 = rng.gen();
    cdf.partition_point(|&p| p < x).min(cdf.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_and_parsing() {
        let e = Env::default();
        assert_eq!(e.dim, 32);
        assert_eq!(e.trials, 1);
    }

    #[test]
    fn run_one_smoke() {
        let env = Env { max_epochs: 3, ..Env::default() };
        let preset = SynthConfig::tiny();
        let cfg = preset.clone();
        let data = {
            let d = generate(&cfg, 1);
            let mut rng = StdRng::seed_from_u64(2);
            d.dataset.split((0.7, 0.1, 0.2), &mut rng)
        };
        let icfg = ImcatConfig { pretrain_epochs: 1, ..Default::default() };
        let (r, per_user) = run_one(ModelKind::Bprmf, &data, &env, &icfg, 7);
        assert_eq!(r.model, "BPRMF");
        assert!(r.recall >= 0.0 && r.recall <= 1.0);
        assert!(r.train_seconds > 0.0);
        assert_eq!(per_user.users.len(), data.test_users().len());
    }

    #[test]
    fn write_json_roundtrip() {
        let path = write_json("unit_test_report", &vec![1, 2, 3]);
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains('2'));
    }

    #[test]
    fn trial_result_cache_roundtrip_and_mismatch() {
        let dir = std::env::temp_dir().join("imcat_trial_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("result.ckpt");
        let result = RunResult {
            model: "BPRMF".into(),
            dataset: "tiny".into(),
            seed: 42,
            recall: 0.125,
            ndcg: 0.0625,
            train_seconds: 1.5,
            epochs: 7,
        };
        let per_user = PerUserMetrics {
            users: vec![0, 3, 9],
            recall: vec![0.1, 0.2, 0.3],
            ndcg: vec![0.05, 0.1, 0.15],
        };
        save_trial_result(&path, &result, &per_user).unwrap();
        let (r2, p2) = load_trial_result(&path, "BPRMF", "tiny", 42).expect("cache hit");
        assert_eq!(r2.recall.to_bits(), result.recall.to_bits());
        assert_eq!(r2.epochs, result.epochs);
        assert_eq!(p2.users, per_user.users);
        assert_eq!(p2.ndcg, per_user.ndcg);
        // A different cell must not reuse the cache, nor a corrupted file.
        assert!(load_trial_result(&path, "NeuMF", "tiny", 42).is_none());
        assert!(load_trial_result(&path, "BPRMF", "tiny", 43).is_none());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let _ = std::fs::remove_file(dir.join("result.ckpt.prev"));
        assert!(load_trial_result(&path, "BPRMF", "tiny", 42).is_none());
    }

    #[test]
    fn trial_dir_sanitizes_names() {
        let env = Env { ckpt_dir: Some(PathBuf::from("/tmp/x")), ..Env::default() };
        let dir = env.trial_dir("B-IMCAT", "HetRec/MV (s=1)", 1000).unwrap();
        assert_eq!(dir, PathBuf::from("/tmp/x/B-IMCAT_HetRec_MV__s_1__1000"));
        assert!(Env::default().trial_dir("a", "b", 0).is_none());
    }
}
