//! `imcat` command-line interface: generate datasets, train any of Table
//! II's 15 models, evaluate, checkpoint, produce recommendations — all on
//! HetRec-style TSV files — and serve a trained model's frozen artifact
//! over HTTP.
//!
//! ```text
//! imcat generate --preset del --seed 7 --out-dir data/
//! imcat stats    --user-item data/user_item.tsv --item-tag data/item_tag.tsv
//! imcat train    --user-item data/user_item.tsv --item-tag data/item_tag.tsv \
//!                --model l-imcat --epochs 80 --checkpoint model.ckpt \
//!                --artifact model.artifact
//! imcat recommend --user-item data/user_item.tsv --item-tag data/item_tag.tsv \
//!                --model l-imcat --checkpoint model.ckpt --user 3 --top 10
//! imcat serve    --artifact model.artifact --addr 127.0.0.1:8080 --ann ivf
//! ```
//!
//! `train` and `recommend` build `--model` through the one registry,
//! [`ModelKind`], and `--checkpoint` is the trainer's own saved-model format
//! (`trainer::save_model` / `trainer::load_model`): the model's full
//! `save_state`, tagged with its name and `--seed`. Models without
//! `save_state` (the nine baselines) train, but cannot be checkpointed.
//!
//! `serve` is the one wiring of `imcat-net` + `imcat-serve` + `imcat-obs`:
//! the front-end reads its `IMCAT_NET_*` knobs and telemetry its
//! `IMCAT_OBS*` knobs from the environment (README, "Environment knobs").

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use imcat::core::{trainer, ImcatConfig, ModelKind};
use imcat::data::{
    generate, load_dataset, save_dataset, Dataset, FilterConfig, SplitDataset, SynthConfig,
};
use imcat::eval::{evaluate_extended, top_n_masked, EvalSpec};
use imcat::models::{RecModel, TrainConfig};
use imcat::net::{NetConfig, Server};
use imcat::serve::{AnnConfig, AnnKind, Artifact, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            let models: Vec<String> =
                ModelKind::all().iter().map(|k| k.name().to_ascii_lowercase()).collect();
            eprintln!("models (any case): {}", models.join(" | "));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  imcat generate  --preset <mv|fm|del|cite|lastfm|amz|yelp|tiny> [--scale F] [--seed N] --out-dir DIR
  imcat stats     --user-item FILE --item-tag FILE [--min-degree N] [--min-tag-items N]
  imcat train     --user-item FILE --item-tag FILE --model NAME [--epochs N] [--dim N]
                  [--intents K] [--seed N] [--checkpoint FILE] [--artifact FILE]
  imcat recommend --user-item FILE --item-tag FILE --model NAME --checkpoint FILE
                  --user ID [--top N] [--dim N] [--intents K] [--seed N]
  imcat serve     --artifact FILE --addr HOST:PORT [--ann ivf|hnsw|brute]
";

/// Parsed `--key value` flags.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
            let value = args.get(i + 1).ok_or_else(|| format!("missing value for --{key}"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "train" => cmd_train(&flags),
        "recommend" => cmd_recommend(&flags),
        "serve" => cmd_serve(&flags),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let name = flags.require("preset")?;
    let cfg = SynthConfig::by_key(name).ok_or_else(|| format!("unknown preset '{name}'"))?;
    let scale: f64 = flags.num("scale", 1.0)?;
    let seed: u64 = flags.num("seed", 0)?;
    let out_dir = PathBuf::from(flags.require("out-dir")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let data = generate(&cfg.scaled(scale), seed);
    let ui = out_dir.join("user_item.tsv");
    let it = out_dir.join("item_tag.tsv");
    save_dataset(&data.dataset, &ui, &it).map_err(|e| e.to_string())?;
    println!("{}", data.dataset.stats());
    println!("wrote {} and {}", ui.display(), it.display());
    Ok(())
}

fn load(flags: &Flags) -> Result<Dataset, String> {
    let filter = FilterConfig {
        min_degree: flags.num("min-degree", 10)?,
        min_tag_items: flags.num("min-tag-items", 5)?,
    };
    load_dataset("cli", flags.require("user-item")?, flags.require("item-tag")?, filter)
        .map_err(|e| e.to_string())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let data = load(flags)?;
    println!("{}", data.stats());
    Ok(())
}

/// The dataset's 7:1:2 split under `--seed`, and the untrained `--model`
/// the registry builds on it from the same seed.
fn split_and_model(
    flags: &Flags,
    data: &Dataset,
) -> Result<(SplitDataset, Box<dyn RecModel>, u64), String> {
    let seed: u64 = flags.num("seed", 0)?;
    let split = data.split((0.7, 0.1, 0.2), &mut StdRng::seed_from_u64(seed));
    let tcfg = TrainConfig { dim: flags.num("dim", 32)?, ..TrainConfig::default() };
    let icfg = ImcatConfig {
        k_intents: flags.num("intents", 4)?,
        pretrain_epochs: 5,
        ..Default::default()
    };
    let name = flags.require("model")?;
    let kind =
        ModelKind::parse(name).ok_or_else(|| format!("unknown model '{name}' (see usage)"))?;
    let model = kind.build(&split, &tcfg, &icfg, seed);
    Ok((split, model, seed))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let data = load(flags)?;
    let epochs: usize = flags.num("epochs", 80)?;
    let (split, mut model, seed) = split_and_model(flags, &data)?;
    println!("{}", data.stats());
    let report = trainer::train(
        model.as_mut(),
        &split,
        &trainer::TrainerConfig {
            max_epochs: epochs,
            // A run shorter than the cadence still gets one validation
            // round: the artifact is exported at the best one.
            eval_every: epochs.clamp(1, 10),
            patience: 3,
            artifact_path: flags.get("artifact").map(PathBuf::from),
            ..Default::default()
        },
    );
    println!(
        "trained {} for {} epochs in {:.1}s (best val R@20 {:.4})",
        report.model, report.epochs_run, report.train_seconds, report.best_val_recall
    );
    let ext = evaluate_extended(&mut model.scorer(), &split, &EvalSpec::at(20));
    println!(
        "test  R@20 {:.4}  N@20 {:.4}  P@20 {:.4}  MAP {:.4}  MRR {:.4}  coverage {:.3}  diversity {:.3}",
        ext.recall,
        ext.ndcg,
        ext.precision,
        ext.map,
        ext.mrr,
        ext.coverage,
        ext.intra_list_diversity
    );
    if let Some(path) = flags.get("checkpoint") {
        trainer::save_model(model.as_ref(), seed, Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("checkpoint written to {path}");
    }
    if let Some(path) = flags.get("artifact") {
        if report.artifact.is_none() {
            return Err(format!("{} exported no artifact to {path}", report.model));
        }
        println!("artifact written to {path}");
    }
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let data = load(flags)?;
    let (split, mut model, seed) = split_and_model(flags, &data)?;
    let path = flags.require("checkpoint")?;
    trainer::load_model(model.as_mut(), seed, Path::new(path))
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let user: u32 = flags.num("user", 0)?;
    if user as usize >= split.n_users() {
        return Err(format!("user {user} out of range (0..{})", split.n_users()));
    }
    let top_n: usize = flags.num("top", 10)?;
    let scores = model.score_users(&[user]);
    let top = top_n_masked(scores.row(0), split.train_items(user as usize), top_n);
    println!("top-{top_n} items for user {user}:");
    for (rank, j) in top.iter().enumerate() {
        let tags = split.item_tag.forward().row_indices(*j as usize);
        println!(
            "  {:>2}. item {:<6} score {:>8.4} tags {:?}",
            rank + 1,
            j,
            scores.get(0, *j as usize),
            tags
        );
    }
    Ok(())
}

/// `imcat serve`: the front door of the serving stack. Loads a frozen
/// artifact, starts the HTTP front-end over it, prints where it listens
/// and parks until killed.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    if let Some(unknown) =
        flags.0.keys().find(|k| !matches!(k.as_str(), "artifact" | "addr" | "ann"))
    {
        return Err(format!("unknown flag --{unknown} for serve"));
    }
    let path = flags.require("artifact")?;
    let addr = flags.require("addr")?;
    // Absent = exact scan over every item.
    let ann = match flags.get("ann") {
        None => None,
        Some(name) => {
            let kind = AnnKind::parse(name)
                .ok_or_else(|| format!("unknown --ann backend '{name}' (ivf | hnsw | brute)"))?;
            Some(AnnConfig::for_kind(kind))
        }
    };
    imcat::obs::init_from_env();
    let artifact = Artifact::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let server = Server::start(
        &artifact,
        &ServeConfig { ann, ..ServeConfig::default() },
        NetConfig::from_env(),
        addr,
    )
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    println!("listening on http://{}", server.addr());
    if let Some(obs) = imcat::obs::http::bound_addr() {
        println!("telemetry on http://{obs}/metrics");
    }
    loop {
        std::thread::park();
    }
}
