//! One forward per model. Every model of Table II writes its forward pass
//! once, on the autodiff tape; evaluation and artifact export take the values
//! of that forward from a throwaway tape. These tests hold the registry to it
//! after three seeded epochs on the tiny preset:
//!
//! * a dot-product model's `export_embeddings` and `score_users` are its
//!   `forward_embeddings` bit for bit (a hand-written gradient-free twin in
//!   either place fails, even one that agrees to 1e-6);
//! * the backbones' `forward_embeddings` is `Backbone::embed_all`, the
//!   forward IMCAT trains through;
//! * every model's per-epoch training loss and test-user score matrix are
//!   pinned, so a change to either shows as a changed bit.

use std::sync::OnceLock;

use imcat::core::ModelKind;
use imcat::models::test_util::tiny_split;
use imcat::models::{dot_score_all, Backbone};
use imcat::prelude::*;

const EPOCHS: usize = 3;
const SEED: u64 = 7;

/// What one trained model leaves behind, as plain data.
struct Run {
    kind: ModelKind,
    /// `EpochStats::loss` bits, one per epoch.
    losses: Vec<u32>,
    /// FNV-1a64 of `score_users(test_users)`'s bits, row-major.
    score_fnv: u64,
    /// For a dot-product model, the elements of `export_embeddings` and of
    /// `score_users` that differ in any bit from the tape forward's values
    /// (and the dot products of them); `None` when the model has no
    /// dot-product surface.
    differing: Option<usize>,
}

fn differing_bits(a: &Tensor, b: &Tensor) -> usize {
    assert_eq!(a.shape(), b.shape());
    a.as_slice().iter().zip(b.as_slice()).filter(|(x, y)| x.to_bits() != y.to_bits()).count()
}

fn fnv(t: &Tensor) -> u64 {
    let bytes: Vec<u8> = t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    imcat::ckpt::fnv1a64(&bytes)
}

/// Trains each of the 15 models once (models hold `Rc`s, so the runs are
/// shared between tests as plain data).
fn runs() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let split = tiny_split(SEED);
        let users = split.test_users();
        let icfg = ImcatConfig { pretrain_epochs: 1, ..Default::default() };
        ModelKind::all()
            .into_iter()
            .map(|kind| {
                let mut model = kind.build(&split, &TrainConfig::default(), &icfg, SEED);
                let mut rng = StdRng::seed_from_u64(SEED);
                let losses =
                    (0..EPOCHS).map(|_| model.train_epoch(&mut rng).loss.to_bits()).collect();
                let scores = model.score_users(&users);
                let mut tape = Tape::new();
                let differing =
                    match (model.forward_embeddings(&mut tape), model.export_embeddings()) {
                        (Some((fu, fv)), Some((u, v))) => {
                            let (fu, fv) = (tape.value(fu), tape.value(fv));
                            Some(
                                differing_bits(&u, fu)
                                    + differing_bits(&v, fv)
                                    + differing_bits(&scores, &dot_score_all(fu, fv, &users)),
                            )
                        }
                        (None, None) => None,
                        _ => panic!(
                            "{}: forward_embeddings and export_embeddings disagree",
                            kind.name()
                        ),
                    };
                Run { kind, losses, score_fnv: fnv(&scores), differing }
            })
            .collect()
    })
}

#[test]
fn export_and_scores_are_the_training_forward_bit_for_bit() {
    let mut dot_models = 0;
    let mut twins = Vec::new();
    for run in runs() {
        match run.differing {
            Some(0) => dot_models += 1,
            Some(n) => twins.push(format!("{} ({n} elements)", run.kind.name())),
            None => {}
        }
    }
    assert!(twins.is_empty(), "evaluated or exported off the trained forward: {twins:?}");
    // NeuMF and N-IMCAT (fused MLP head) and RippleNet (per-user ripple
    // readout) are the three models without a dot-product surface.
    assert_eq!(dot_models, 12);
}

#[test]
fn backbone_forward_is_what_imcat_trains_through() {
    fn check<B: Backbone>(model: &B) {
        let mut tape = Tape::new();
        let (u, v) = model.embed_all(&mut tape);
        let (eu, ev) = model.export_embeddings().expect("a dot-product backbone");
        assert_eq!(differing_bits(tape.value(u), &eu), 0, "{} users", model.name());
        assert_eq!(differing_bits(tape.value(v), &ev), 0, "{} items", model.name());
    }
    let split = tiny_split(SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    let icfg = ImcatConfig { pretrain_epochs: 1, ..Default::default() };
    let mut lightgcn = LightGcn::new(&split, TrainConfig::default(), &mut rng);
    lightgcn.train_epoch(&mut rng);
    check(&lightgcn);
    let mut bprmf = Bprmf::new(&split, TrainConfig::default(), &mut rng);
    bprmf.train_epoch(&mut rng);
    check(&bprmf);
    let mut l_imcat = Imcat::new(lightgcn, &split, icfg, &mut rng);
    for _ in 0..2 {
        l_imcat.train_epoch(&mut rng);
    }
    // IMCAT scores through its backbone, and its backbone's embed_all is
    // where every one of its losses starts.
    check(l_imcat.backbone());
    let (u, _) = l_imcat.export_embeddings().unwrap();
    let (bu, _) = l_imcat.backbone().export_embeddings().unwrap();
    assert_eq!(differing_bits(&u, &bu), 0);
}

/// Per-epoch training loss bits, recorded before evaluation and export moved
/// onto the tape forward. Training never ran through the removed code, so
/// these hold unedited.
#[test]
fn training_loss_bits_are_pinned() {
    use ModelKind::*;
    let pins: [(ModelKind, [u32; EPOCHS]); 15] = [
        (Bprmf, [0x3f3225d9, 0x3f32ba66, 0x3f319fad]),
        (Neumf, [0x3f3177e9, 0x3f3094e8, 0x3f30c13a]),
        (LightGcn, [0x3f309575, 0x3f30a172, 0x3f307664]),
        (Cfa, [0x3f3233d7, 0x3f32011c, 0x3f31e964]),
        (Dspr, [0x3f2d21eb, 0x3f112622, 0x3f1b7be2]),
        (Tgcn, [0x3f3119c2, 0x3f31242a, 0x3f310b1f]),
        (Cke, [0x3f8ac291, 0x3f88eabc, 0x3f88ac5a]),
        (RippleNet, [0x3f336a8a, 0x3f322d07, 0x3f322c8d]),
        (Kgat, [0x3f85eaf1, 0x3f85beaa, 0x3f857c40]),
        (Kgin, [0x3f44f3da, 0x3f44680c, 0x3f438dfa]),
        (Sgl, [0x3f392f70, 0x3f391f82, 0x3f392654]),
        (Kgcl, [0x3f35f74d, 0x3f35df60, 0x3f35ec59]),
        (BImcat, [0x3fb3200d, 0x3fc56c07, 0x3fc4828c]),
        (NImcat, [0x3fb21b67, 0x3fc4b0ab, 0x3fc3ba74]),
        (LImcat, [0x3fb13d7a, 0x3fc3595e, 0x3fc33122]),
    ];
    let mut wrong = Vec::new();
    for (run, (kind, want)) in runs().iter().zip(pins) {
        assert_eq!(run.kind, kind);
        if run.losses != want {
            wrong.push(format!("{}: {:#010x?}", kind.name(), run.losses));
        }
    }
    assert!(wrong.is_empty(), "training loss bits moved: {wrong:?}");
}

/// FNV-1a64 of every model's score matrix over the tiny preset's 60 test
/// users.
///
/// Eight pins were recorded while each model still had its hand-written
/// evaluation twin and hold unedited: those twins computed the trained
/// forward's bits already. The other seven — LightGCN, L-IMCAT, TGCN, KGAT,
/// KGIN, SGL and KGCL — were re-pinned when the twins went. Their twins
/// divided the layer sum by `L + 1` where the trained propagation multiplies
/// by `1 / (L + 1)`, up to 1 ulp per embedding element apart; the scores are
/// now the trained function's.
#[test]
fn test_user_score_fingerprints_are_pinned() {
    use ModelKind::*;
    let pins: [(ModelKind, u64); 15] = [
        (Bprmf, 0x66017a596d6574fe),
        (Neumf, 0x8f901748212b61a1),
        (LightGcn, 0xccc680aba5c96539),
        (Cfa, 0x2fd49d17a36c0f66),
        (Dspr, 0x6477aaec15cebb0c),
        (Tgcn, 0xb95c5020dd9f69e7),
        (Cke, 0x0c4e6e78d532c938),
        (RippleNet, 0x76892e131c3bd84e),
        (Kgat, 0xea9bbc0d2f7bccb6),
        (Kgin, 0x5fb2e49bb4e6e53a),
        (Sgl, 0x4e6d5b4e25961138),
        (Kgcl, 0x8fffa675e683ef42),
        (BImcat, 0xe21f99eb4e804b24),
        (NImcat, 0x204ee6eaa19af9e2),
        (LImcat, 0xc00ade74ce44f714),
    ];
    let mut wrong = Vec::new();
    for (run, (kind, want)) in runs().iter().zip(pins) {
        assert_eq!(run.kind, kind);
        if run.score_fnv != want {
            wrong.push(format!("{}: {:#018x}", kind.name(), run.score_fnv));
        }
    }
    assert!(wrong.is_empty(), "score fingerprints moved: {wrong:?}");
}
