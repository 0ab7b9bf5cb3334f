//! The offline model path through the binary: `imcat generate` → `train
//! --checkpoint` → `recommend`. What `recommend` prints must be what the same
//! model, built in process by the registry and restored from the same file,
//! ranks; and every checkpoint it cannot restore is refused with exit code 1
//! and a message, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use imcat::core::{trainer, ImcatConfig, ModelKind};
use imcat::data::{load_dataset, FilterConfig};
use imcat::eval::top_n_masked;
use imcat::models::TrainConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BIN: &str = env!("CARGO_BIN_EXE_imcat");

/// A fresh directory holding the tiny preset at seed 7.
fn dataset(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(BIN)
        .args(["generate", "--preset", "tiny", "--seed", "7", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("run imcat generate");
    succeed(out);
    dir
}

/// `imcat <cmd> --user-item .. --item-tag .. --model <model> <extra..>` on
/// the dataset in `dir`.
fn model_cmd(cmd: &str, dir: &Path, model: &str, extra: &[&str]) -> Output {
    Command::new(BIN)
        .arg(cmd)
        .arg("--user-item")
        .arg(dir.join("user_item.tsv"))
        .arg("--item-tag")
        .arg(dir.join("item_tag.tsv"))
        .args(["--model", model])
        .args(extra)
        .output()
        .expect("run imcat")
}

fn succeed(out: Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Exit code 1 with `want` in the message, and no panic.
fn refuse(out: Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(want) && !stderr.contains("panicked"), "{stderr}");
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// Trains `model` for `epochs` and checkpoints it to `<dir>/<model>.ckpt`.
fn train(dir: &Path, model: &str, epochs: &str) -> PathBuf {
    let ckpt = dir.join(format!("{model}.ckpt"));
    succeed(model_cmd("train", dir, model, &["--epochs", epochs, "--checkpoint", path_str(&ckpt)]));
    ckpt
}

/// User 3's top 10 from the model `kind` builds with the CLI's defaults
/// (seed 0, dim 32, 4 intents), restored from `ckpt`.
fn in_process_top10(dir: &Path, kind: ModelKind, ckpt: &Path) -> Vec<u32> {
    let filter = FilterConfig { min_degree: 10, min_tag_items: 5 };
    let data =
        load_dataset("cli", dir.join("user_item.tsv"), dir.join("item_tag.tsv"), filter).unwrap();
    let split = data.split((0.7, 0.1, 0.2), &mut StdRng::seed_from_u64(0));
    let icfg = ImcatConfig { k_intents: 4, pretrain_epochs: 5, ..Default::default() };
    let mut model =
        kind.build(&split, &TrainConfig { dim: 32, ..TrainConfig::default() }, &icfg, 0);
    trainer::load_model(model.as_mut(), 0, ckpt).expect("restore checkpoint");
    top_n_masked(model.score_users(&[3]).row(0), split.train_items(3), 10)
}

#[test]
fn recommend_prints_what_the_restored_model_ranks() {
    let dir = dataset("recommend");
    for (name, kind) in [("l-imcat", ModelKind::LImcat), ("n-imcat", ModelKind::NImcat)] {
        let ckpt = train(&dir, name, "3");
        let args = ["--checkpoint", path_str(&ckpt), "--user", "3", "--top", "10"];
        let stdout = succeed(model_cmd("recommend", &dir, name, &args));
        let printed: Vec<u32> = stdout
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(2).and_then(|j| j.parse().ok()).expect(l))
            .collect();
        assert_eq!(printed, in_process_top10(&dir, kind, &ckpt), "{name}: {stdout}");
    }
}

#[test]
fn checkpoints_that_cannot_be_restored_are_refused() {
    let dir = dataset("refuse");
    let bprmf = train(&dir, "bprmf", "1");
    let recommend = |model: &str, ckpt: &Path| {
        model_cmd("recommend", &dir, model, &["--checkpoint", path_str(ckpt), "--user", "3"])
    };
    refuse(recommend("l-imcat", &bprmf), "checkpoint is for model 'BPRMF', not 'L-IMCAT'");

    // The baselines have no save_state: nothing to write or read.
    let sgl = dir.join("sgl.ckpt");
    let args = ["--epochs", "1", "--checkpoint", path_str(&sgl)];
    refuse(model_cmd("train", &dir, "SGL", &args), "SGL does not support checkpoint resume");
    assert!(!sgl.exists());

    // A parameters-only container, the retired `--checkpoint` layout.
    let params_only = dir.join("params_only.ckpt");
    let mut ck = imcat::ckpt::Checkpoint::new();
    ck.insert("params", imcat::ckpt::Checkpoint::new().to_bytes());
    ck.save(&params_only).unwrap();
    refuse(recommend("l-imcat", &params_only), "missing section 'meta'");
}
