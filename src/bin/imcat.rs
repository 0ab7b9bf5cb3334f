//! `imcat` command-line interface: generate datasets, train any of the main
//! models, evaluate, checkpoint, produce recommendations — all on
//! HetRec-style TSV files — and serve a trained model's frozen artifact
//! over HTTP.
//!
//! ```text
//! imcat generate --preset del --seed 7 --out-dir data/
//! imcat stats    --user-item data/user_item.tsv --item-tag data/item_tag.tsv
//! imcat train    --user-item data/user_item.tsv --item-tag data/item_tag.tsv \
//!                --model l-imcat --epochs 80 --checkpoint model.imct \
//!                --artifact model.artifact
//! imcat recommend --user-item data/user_item.tsv --item-tag data/item_tag.tsv \
//!                --model l-imcat --checkpoint model.imct --user 3 --top 10
//! imcat serve    --artifact model.artifact --addr 127.0.0.1:8080 --ann ivf
//! ```
//!
//! `serve` is the one wiring of `imcat-net` + `imcat-serve` + `imcat-obs`:
//! the front-end reads its `IMCAT_NET_*` knobs and telemetry its
//! `IMCAT_OBS*` knobs from the environment (README, "Environment knobs").

use std::collections::HashMap;
use std::process::ExitCode;

use imcat::core::{trainer, Imcat, ImcatConfig};
use imcat::data::{
    generate, load_dataset, save_dataset, Dataset, FilterConfig, SplitDataset, SynthConfig,
};
use imcat::eval::{evaluate, evaluate_extended, top_n_masked, EvalSpec};
use imcat::models::{Backbone, Bprmf, EpochStats, LightGcn, Neumf, RecModel, TrainConfig};
use imcat::net::{NetConfig, Server};
use imcat::serve::{AnnConfig, AnnKind, Artifact, ServeConfig};
use imcat::tensor::Tensor;
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

models: bprmf | neumf | lightgcn | b-imcat | n-imcat | l-imcat";

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

fn preset(name: &str) -> Result<SynthConfig, String> {
    let cfg = match name {
        "mv" => SynthConfig::hetrec_mv(),
        "fm" => SynthConfig::hetrec_fm(),
        "del" => SynthConfig::hetrec_del(),
        "cite" => SynthConfig::citeulike(),
        "lastfm" => SynthConfig::lastfm_tag(),
        "amz" => SynthConfig::amzbook_tag(),
        "yelp" => SynthConfig::yelp_tag(),
        "tiny" => SynthConfig::tiny(),
        other => return Err(format!("unknown preset '{other}'")),
    };
    Ok(cfg)
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let cfg = preset(flags.require("preset")?)?;
    let scale: f64 = flags.num("scale", 1.0)?;
    let seed: u64 = flags.num("seed", 0)?;
    let out_dir = std::path::PathBuf::from(flags.require("out-dir")?);
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

/// Concrete model wrapper giving the CLI checkpoint access without
/// trait-object downcasts.
enum CliModel {
    Bprmf(Bprmf),
    Neumf(Neumf),
    LightGcn(LightGcn),
    BImcat(Imcat<Bprmf>),
    NImcat(Imcat<Neumf>),
    LImcat(Imcat<LightGcn>),
}

impl CliModel {
    fn build(
        name: &str,
        split: &SplitDataset,
        dim: usize,
        intents: usize,
        seed: u64,
    ) -> Result<CliModel, String> {
        let tcfg = TrainConfig { dim, ..TrainConfig::default() };
        let icfg = ImcatConfig { k_intents: intents, pretrain_epochs: 5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(match name {
            "bprmf" => CliModel::Bprmf(Bprmf::new(split, tcfg, &mut rng)),
            "neumf" => CliModel::Neumf(Neumf::new(split, tcfg, &mut rng)),
            "lightgcn" => CliModel::LightGcn(LightGcn::new(split, tcfg, &mut rng)),
            "b-imcat" => CliModel::BImcat(Imcat::new(
                Bprmf::new(split, tcfg, &mut rng),
                split,
                icfg,
                &mut rng,
            )),
            "n-imcat" => CliModel::NImcat(Imcat::new(
                Neumf::new(split, tcfg, &mut rng),
                split,
                icfg,
                &mut rng,
            )),
            "l-imcat" => CliModel::LImcat(Imcat::new(
                LightGcn::new(split, tcfg, &mut rng),
                split,
                icfg,
                &mut rng,
            )),
            other => return Err(format!("unknown model '{other}' (see usage)")),
        })
    }

    fn as_rec_model(&mut self) -> &mut dyn RecModel {
        match self {
            CliModel::Bprmf(m) => m,
            CliModel::Neumf(m) => m,
            CliModel::LightGcn(m) => m,
            CliModel::BImcat(m) => m,
            CliModel::NImcat(m) => m,
            CliModel::LImcat(m) => m,
        }
    }

    fn train_epoch(&mut self, rng: &mut StdRng) -> EpochStats {
        self.as_rec_model().train_epoch(rng)
    }

    fn score_users(&self, users: &[u32]) -> Tensor {
        match self {
            CliModel::Bprmf(m) => m.score_users(users),
            CliModel::Neumf(m) => m.score_users(users),
            CliModel::LightGcn(m) => m.score_users(users),
            CliModel::BImcat(m) => m.score_users(users),
            CliModel::NImcat(m) => m.score_users(users),
            CliModel::LImcat(m) => m.score_users(users),
        }
    }

    fn save(&self, path: &str) -> Result<(), String> {
        let store = match self {
            CliModel::Bprmf(m) => m.store(),
            CliModel::Neumf(m) => m.store(),
            CliModel::LightGcn(m) => m.store(),
            CliModel::BImcat(m) => m.backbone().store(),
            CliModel::NImcat(m) => m.backbone().store(),
            CliModel::LImcat(m) => m.backbone().store(),
        };
        imcat::ckpt::save_store(store, path).map(drop).map_err(|e| e.to_string())
    }

    fn restore(&mut self, path: &str) -> Result<(), String> {
        match self {
            CliModel::BImcat(m) => return m.load_checkpoint(path).map_err(|e| e.to_string()),
            CliModel::NImcat(m) => return m.load_checkpoint(path).map_err(|e| e.to_string()),
            CliModel::LImcat(m) => return m.load_checkpoint(path).map_err(|e| e.to_string()),
            _ => {}
        }
        let store = match self {
            CliModel::Bprmf(m) => m.store_mut(),
            CliModel::Neumf(m) => m.store_mut(),
            CliModel::LightGcn(m) => m.store_mut(),
            _ => unreachable!(),
        };
        imcat::ckpt::load_store(store, path).map_err(|e| e.to_string())
    }
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let data = load(flags)?;
    let seed: u64 = flags.num("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = data.split((0.7, 0.1, 0.2), &mut rng);
    println!("{}", data.stats());
    let dim: usize = flags.num("dim", 32)?;
    let intents: usize = flags.num("intents", 4)?;
    let epochs: usize = flags.num("epochs", 80)?;
    let name = flags.require("model")?;
    let mut model = CliModel::build(name, &split, dim, intents, seed)?;
    let report = trainer::train(
        model.as_rec_model(),
        &split,
        &trainer::TrainerConfig {
            max_epochs: epochs,
            // A run shorter than the cadence still gets one validation
            // round: the artifact is exported at the best one.
            eval_every: epochs.clamp(1, 10),
            patience: 3,
            artifact_path: flags.get("artifact").map(std::path::PathBuf::from),
            ..Default::default()
        },
    );
    println!(
        "trained {} for {} epochs in {:.1}s (best val R@20 {:.4})",
        report.model, report.epochs_run, report.train_seconds, report.best_val_recall
    );
    let mut score_fn = |users: &[u32]| model.score_users(users);
    let m = evaluate(&mut score_fn, &split, &EvalSpec::at(20));
    let ext = evaluate_extended(&mut score_fn, &split, &EvalSpec::at(20));
    println!(
        "test  R@20 {:.4}  N@20 {:.4}  P@20 {:.4}  MAP {:.4}  MRR {:.4}  coverage {:.3}  diversity {:.3}",
        m.recall,
        m.ndcg,
        ext.precision,
        ext.map,
        ext.mrr,
        ext.coverage,
        ext.intra_list_diversity
    );
    if let Some(path) = flags.get("checkpoint") {
        model.save(path)?;
        println!("checkpoint written to {path}");
    }
    if let Some(path) = flags.get("artifact") {
        if report.artifact.is_none() {
            return Err(format!("{name} exported no artifact to {path}"));
        }
        println!("artifact written to {path}");
    }
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let data = load(flags)?;
    let seed: u64 = flags.num("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = data.split((0.7, 0.1, 0.2), &mut rng);
    let dim: usize = flags.num("dim", 32)?;
    let intents: usize = flags.num("intents", 4)?;
    let name = flags.require("model")?;
    let mut model = CliModel::build(name, &split, dim, intents, seed)?;
    // Run one cheap epoch on IMCAT wrappers so cluster state exists, then
    // overwrite all weights from the checkpoint.
    let mut warm_rng = StdRng::seed_from_u64(seed);
    let _ = model.train_epoch(&mut warm_rng);
    model.restore(flags.require("checkpoint")?)?;
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
