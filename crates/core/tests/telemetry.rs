//! Telemetry integration: the instrumented trainer must decompose the epoch
//! loss into per-term contributions that add back up to the total, announce
//! every best-epoch artifact export, record nonzero op-level counters, and
//! survive a JSONL round-trip.

use imcat_core::{trainer, Imcat, ImcatConfig, TrainerConfig};
use imcat_models::test_util::tiny_split;
use imcat_models::{Bprmf, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-epoch `loss_terms` events must satisfy `uv + vt + ca + kl +
/// independence == total` (the terms are recorded already scaled), and each
/// best-epoch artifact export emits one `artifact` event.
#[test]
fn loss_terms_sum_to_total() {
    // The obs registry is process-global; the guard serialises the
    // telemetry-asserting tests and resets state around each.
    let _guard = imcat_obs::exclusive(true);
    let data = tiny_split(501);
    let mut rng = StdRng::seed_from_u64(0);
    let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    let mut model =
        Imcat::new(bb, &data, ImcatConfig { pretrain_epochs: 1, ..Default::default() }, &mut rng);
    let dir = std::env::temp_dir().join(format!("imcat-telemetry-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = trainer::train(
        &mut model,
        &data,
        &TrainerConfig {
            max_epochs: 3,
            eval_every: 1,
            patience: 10,
            artifact_path: Some(dir.join("model.artifact")),
            ..Default::default()
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    let events = imcat_obs::events();
    let field = |e: &imcat_obs::Event, k: &str| {
        e.fields
            .iter()
            .find(|(name, _)| name == k)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("{} event missing field {k}", e.kind))
    };
    // One `artifact` event per best-epoch export: exactly the epochs whose
    // validation recall beat every earlier one, each with a non-empty file.
    let mut best = f64::MIN;
    let mut improved = Vec::new();
    for &(epoch, recall) in &report.curve {
        if recall > best {
            best = recall;
            improved.push(epoch as f64);
        }
    }
    let exports: Vec<_> = events.iter().filter(|e| e.kind == "artifact").collect();
    assert!(!improved.is_empty(), "the first evaluation always improves on nothing");
    assert_eq!(exports.iter().map(|e| field(e, "epoch")).collect::<Vec<_>>(), improved);
    assert!(exports.iter().all(|e| field(e, "bytes") > 0.0), "an export wrote an empty artifact");
    let loss_events: Vec<_> = events.iter().filter(|e| e.kind == "loss_terms").collect();
    assert_eq!(loss_events.len(), 3, "one loss_terms event per epoch");
    let mut saw_full_objective = false;
    for e in &loss_events {
        let f = |k: &str| field(e, k);
        let sum = f("uv") + f("vt") + f("ca") + f("kl") + f("independence");
        let total = f("total");
        assert!(
            (sum - total).abs() <= 1e-6 * total.abs().max(1.0),
            "terms {sum} do not add up to total {total}"
        );
        assert!(total.is_finite() && total > 0.0);
        if f("ca") > 0.0 {
            saw_full_objective = true;
        }
    }
    assert!(saw_full_objective, "post-pretrain epochs should include L_CA");
}

/// Training must leave nonzero op counters for the hot tape ops and the
/// backward pass, and per-phase span times must be recorded.
#[test]
fn op_counters_and_phases_are_recorded() {
    let _guard = imcat_obs::exclusive(true);
    let data = tiny_split(502);
    let mut rng = StdRng::seed_from_u64(0);
    let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    let mut model =
        Imcat::new(bb, &data, ImcatConfig { pretrain_epochs: 0, ..Default::default() }, &mut rng);
    trainer::train(
        &mut model,
        &data,
        &TrainerConfig { max_epochs: 2, eval_every: 1, patience: 10, ..Default::default() },
    );
    let snap = imcat_obs::snapshot();
    for c in [
        "op.matmul.count",
        "op.spmm.count",
        "op.spmm.nnz",
        "op.gather.count",
        "op.elementwise.count",
        "op.backward.count",
        "sampler.bpr.batches",
    ] {
        assert!(snap.counter(c) > 0, "counter {c} was never incremented");
    }
    for p in [
        "phase.sampling",
        "phase.forward",
        "phase.backward",
        "phase.optimizer",
        "phase.refresh",
        "phase.eval",
    ] {
        assert!(snap.hist_count(p) > 0, "span {p} never recorded");
        assert!(snap.hist_sum(p) > 0.0, "span {p} has zero accumulated time");
    }
    // The disjoint training phases must account for a sane, positive share of
    // wall time without exceeding it wildly (they are non-overlapping).
    let train_time = snap.hist_sum("phase.sampling")
        + snap.hist_sum("phase.forward")
        + snap.hist_sum("phase.backward")
        + snap.hist_sum("phase.optimizer");
    assert!(train_time > 0.0);
}

/// Telemetry off must record nothing, even while training runs.
#[test]
fn disabled_telemetry_stays_empty() {
    let _guard = imcat_obs::exclusive(false);
    let data = tiny_split(503);
    let mut rng = StdRng::seed_from_u64(0);
    let bb = Bprmf::new(&data, TrainConfig::default(), &mut rng);
    let mut model =
        Imcat::new(bb, &data, ImcatConfig { pretrain_epochs: 1, ..Default::default() }, &mut rng);
    trainer::train(
        &mut model,
        &data,
        &TrainerConfig { max_epochs: 1, eval_every: 1, patience: 10, ..Default::default() },
    );
    let snap = imcat_obs::snapshot();
    assert_eq!(snap.counter("op.matmul.count"), 0);
    assert_eq!(snap.hist_count("phase.forward"), 0);
    assert!(imcat_obs::events().is_empty());
}
