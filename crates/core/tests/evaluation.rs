//! The one evaluation path: [`evaluate_model`] builds a model's scorer once
//! and ranks every user through `imcat-eval`'s single pass, so early stopping
//! and the reported test metrics share one forward per evaluation, one tie
//! rule and one non-finite guard.

use std::cell::Cell;

use imcat_core::{evaluate_model, trainer, TrainerConfig};
use imcat_data::SplitDataset;
use imcat_eval::EvalSpec;
use imcat_graph::Bipartite;
use imcat_models::test_util::tiny_split;
use imcat_models::{EpochStats, RecModel};
use imcat_tensor::{Csr, Tape, Tensor, Var};
use rand::rngs::StdRng;

/// A dot-product model over fixed tables whose forward counts its calls.
struct Fixed {
    users: Tensor,
    items: Tensor,
    forwards: Cell<usize>,
}

impl Fixed {
    fn new(users: Tensor, items: Tensor) -> Self {
        Self { users, items, forwards: Cell::new(0) }
    }
}

impl RecModel for Fixed {
    fn name(&self) -> String {
        "Fixed".into()
    }
    fn train_epoch(&mut self, _rng: &mut StdRng) -> EpochStats {
        EpochStats { loss: 0.0, batches: 1 }
    }
    fn forward_embeddings(&self, tape: &mut Tape) -> Option<(Var, Var)> {
        self.forwards.set(self.forwards.get() + 1);
        Some((tape.constant(self.users.clone()), tape.constant(self.items.clone())))
    }
    fn num_params(&self) -> usize {
        0
    }
}

/// One validation round after one epoch, nothing else.
fn one_validation(eval_at: usize) -> TrainerConfig {
    TrainerConfig { max_epochs: 1, eval_every: 1, eval_at, ..TrainerConfig::default() }
}

/// `n_users` users over 12 items, every user with two training items and a
/// test item, two in three with a validation item.
fn wide_split(n_users: usize) -> SplitDataset {
    let train: Vec<Vec<u32>> = (0..n_users as u32)
        .map(|u| {
            let mut items = vec![u % 12, (u + 5) % 12];
            items.sort_unstable();
            items
        })
        .collect();
    let item_tag: Vec<Vec<u32>> = (0..12).map(|j| vec![j % 3]).collect();
    SplitDataset {
        name: "wide".into(),
        train: Bipartite::new(Csr::from_adjacency(n_users, 12, &train)),
        val: (0..n_users as u32)
            .map(|u| if u % 3 == 0 { vec![] } else { vec![(u + 1) % 12] })
            .collect(),
        test: (0..n_users as u32).map(|u| vec![(u + 2) % 12]).collect(),
        item_tag: Bipartite::new(Csr::from_adjacency(12, 3, &item_tag)),
    }
}

/// Scores come in 256-user chunks; the forward behind them runs once per
/// evaluation, not once per chunk (640 users used to cost three forwards).
#[test]
fn one_evaluation_runs_the_forward_once() {
    let data = wide_split(640);
    let users = Tensor::from_vec(640, 2, (0..1280).map(|i| (i % 7) as f32 - 3.0).collect());
    let items = Tensor::from_vec(12, 2, (0..24).map(|i| (i % 5) as f32 - 2.0).collect());
    let mut model = Fixed::new(users, items);
    let test = evaluate_model(&model, &data, &EvalSpec::at(5));
    assert_eq!(test.users.len(), 640);
    assert_eq!(model.forwards.get(), 1, "one test evaluation");
    trainer::train(&mut model, &data, &one_validation(5));
    assert_eq!(model.forwards.get(), 2, "one validation round");
}

/// Every score ties, so the whole top-`n` is decided by the tie rule.
/// Validation ranks like the test path and serving: score descending, then
/// item index ascending — each user's top list is their first `n` unmasked
/// items.
#[test]
fn validation_breaks_ties_by_index_like_the_test_path() {
    let data = tiny_split(303);
    let n = 20;
    let model = Fixed::new(Tensor::zeros(data.n_users(), 1), Tensor::zeros(data.n_items(), 1));
    let per_user: Vec<f64> = (0..data.n_users())
        .filter(|&u| !data.val[u].is_empty())
        .map(|u| {
            let train = data.train_items(u);
            let top: Vec<u32> =
                (0..data.n_items() as u32).filter(|j| !train.contains(j)).take(n).collect();
            let hits = data.val[u].iter().filter(|j| top.contains(j)).count();
            hits as f64 / data.val[u].len() as f64
        })
        .collect();
    let canonical = per_user.iter().sum::<f64>() / per_user.len() as f64;
    assert!(canonical > 0.0 && canonical < 1.0, "the cutoff must split the ties: {canonical}");

    let test_path = evaluate_model(&model, &data, &EvalSpec::at(n).validation()).aggregate();
    assert_eq!(test_path.recall.to_bits(), canonical.to_bits());
    let mut trained = Fixed::new(model.users.clone(), model.items.clone());
    let report = trainer::train(&mut trained, &data, &one_validation(n));
    assert_eq!(report.curve.len(), 1);
    assert_eq!(report.curve[0].1.to_bits(), canonical.to_bits(), "early stopping's recall");
}

/// A diverged user (NaN embedding) scores NaN against every item. Both the
/// validation round and a test evaluation count its unmasked scores into
/// `guard.nonfinite_score`, with one `nonfinite_scores` event each.
#[test]
fn nonfinite_scores_are_counted_by_validation_and_test_alike() {
    let _guard = imcat_obs::exclusive(true);
    let data = tiny_split(305);
    let bad = (0..data.n_users())
        .find(|&u| !data.val[u].is_empty() && !data.test[u].is_empty())
        .expect("a user with validation and test items");
    let mut users = Tensor::from_vec(
        data.n_users(),
        2,
        (0..2 * data.n_users()).map(|i| (i % 9) as f32 - 4.0).collect(),
    );
    users.row_mut(bad).fill(f32::NAN);
    let items = Tensor::from_vec(
        data.n_items(),
        2,
        (0..2 * data.n_items()).map(|i| (i % 4) as f32).collect(),
    );
    let mut model = Fixed::new(users, items);
    let per_eval = (data.n_items() - data.train_items(bad).len()) as u64;
    let elements = || {
        imcat_obs::events()
            .iter()
            .filter(|e| e.kind == "nonfinite_scores")
            .map(|e| e.fields[0].1.as_f64().unwrap() as u64)
            .collect::<Vec<_>>()
    };

    trainer::train(&mut model, &data, &one_validation(20));
    assert_eq!(imcat_obs::snapshot().counter("guard.nonfinite_score"), per_eval);
    assert_eq!(elements(), vec![per_eval]);

    evaluate_model(&model, &data, &EvalSpec::at(20));
    assert_eq!(imcat_obs::snapshot().counter("guard.nonfinite_score"), 2 * per_eval);
    assert_eq!(elements(), vec![per_eval, per_eval]);
}
