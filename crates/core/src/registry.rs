//! Model registry: builds any of Table II's 15 methods by name.

use crate::{Imcat, ImcatConfig};
use imcat_data::SplitDataset;
use imcat_models::{
    Bprmf, Cfa, Cke, Dspr, Kgat, Kgcl, Kgin, LightGcn, Neumf, RecModel, RippleNet, Sgl, Tgcn,
    TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All methods of Table II, in the paper's row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// BPRMF backbone (no auxiliary information).
    Bprmf,
    /// NeuMF backbone (no auxiliary information).
    Neumf,
    /// LightGCN backbone (no auxiliary information).
    LightGcn,
    /// CFA (tag-enhanced).
    Cfa,
    /// DSPR (tag-enhanced).
    Dspr,
    /// TGCN (tag-enhanced).
    Tgcn,
    /// CKE (KG-enhanced).
    Cke,
    /// RippleNet (KG-enhanced).
    RippleNet,
    /// KGAT (KG-enhanced).
    Kgat,
    /// KGIN (KG-enhanced).
    Kgin,
    /// SGL (SSL-based).
    Sgl,
    /// KGCL (SSL-based).
    Kgcl,
    /// IMCAT on the BPRMF backbone.
    BImcat,
    /// IMCAT on the NeuMF backbone.
    NImcat,
    /// IMCAT on the LightGCN backbone.
    LImcat,
}

impl ModelKind {
    /// Table II row order.
    pub fn all() -> Vec<ModelKind> {
        use ModelKind::*;
        vec![
            Bprmf, Neumf, LightGcn, Cfa, Dspr, Tgcn, Cke, RippleNet, Kgat, Kgin, Sgl, Kgcl, BImcat,
            NImcat, LImcat,
        ]
    }

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Bprmf => "BPRMF",
            ModelKind::Neumf => "NeuMF",
            ModelKind::LightGcn => "LightGCN",
            ModelKind::Cfa => "CFA",
            ModelKind::Dspr => "DSPR",
            ModelKind::Tgcn => "TGCN",
            ModelKind::Cke => "CKE",
            ModelKind::RippleNet => "RippleNet",
            ModelKind::Kgat => "KGAT",
            ModelKind::Kgin => "KGIN",
            ModelKind::Sgl => "SGL",
            ModelKind::Kgcl => "KGCL",
            ModelKind::BImcat => "B-IMCAT",
            ModelKind::NImcat => "N-IMCAT",
            ModelKind::LImcat => "L-IMCAT",
        }
    }

    /// Parses a display name (case-insensitive).
    pub fn parse(name: &str) -> Option<ModelKind> {
        ModelKind::all().into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// True for the IMCAT variants.
    pub fn is_imcat(&self) -> bool {
        matches!(self, ModelKind::BImcat | ModelKind::NImcat | ModelKind::LImcat)
    }

    /// Builds the model on a split. `icfg` only affects IMCAT variants;
    /// `seed` controls parameter initialization (the paper re-runs with the
    /// same partition but different initializations).
    pub fn build(
        &self,
        data: &SplitDataset,
        tcfg: &TrainConfig,
        icfg: &ImcatConfig,
        seed: u64,
    ) -> Box<dyn RecModel> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            ModelKind::Bprmf => Box::new(Bprmf::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Neumf => Box::new(Neumf::new(data, tcfg.clone(), &mut rng)),
            ModelKind::LightGcn => Box::new(LightGcn::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Cfa => Box::new(Cfa::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Dspr => Box::new(Dspr::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Tgcn => Box::new(Tgcn::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Cke => Box::new(Cke::new(data, tcfg.clone(), &mut rng)),
            ModelKind::RippleNet => Box::new(RippleNet::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Kgat => Box::new(Kgat::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Kgin => Box::new(Kgin::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Sgl => Box::new(Sgl::new(data, tcfg.clone(), &mut rng)),
            ModelKind::Kgcl => Box::new(Kgcl::new(data, tcfg.clone(), &mut rng)),
            ModelKind::BImcat => {
                let bb = Bprmf::new(data, tcfg.clone(), &mut rng);
                Box::new(Imcat::new(bb, data, icfg.clone(), &mut rng))
            }
            ModelKind::NImcat => {
                let bb = Neumf::new(data, tcfg.clone(), &mut rng);
                Box::new(Imcat::new(bb, data, icfg.clone(), &mut rng))
            }
            ModelKind::LImcat => {
                let bb = LightGcn::new(data, tcfg.clone(), &mut rng);
                Box::new(Imcat::new(bb, data, icfg.clone(), &mut rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_data::{generate, SynthConfig};

    #[test]
    fn all_has_15_methods_in_order() {
        let all = ModelKind::all();
        assert_eq!(all.len(), 15);
        assert_eq!(all[0].name(), "BPRMF");
        assert_eq!(all[14].name(), "L-IMCAT");
    }

    #[test]
    fn parse_roundtrip() {
        for k in ModelKind::all() {
            assert_eq!(ModelKind::parse(k.name()), Some(k));
        }
        assert_eq!(ModelKind::parse("l-imcat"), Some(ModelKind::LImcat));
        assert_eq!(ModelKind::parse("nope"), None);
    }

    #[test]
    fn every_model_builds_and_trains_one_epoch() {
        let data = generate(&SynthConfig::tiny(), 5).dataset;
        let mut rng = StdRng::seed_from_u64(0);
        let split = data.split((0.7, 0.1, 0.2), &mut rng);
        let tcfg = TrainConfig::default();
        let icfg = ImcatConfig { pretrain_epochs: 0, ..Default::default() };
        for kind in ModelKind::all() {
            let mut model = kind.build(&split, &tcfg, &icfg, 1);
            let mut rng = StdRng::seed_from_u64(2);
            let stats = model.train_epoch(&mut rng);
            assert!(stats.loss.is_finite(), "{} produced NaN loss", kind.name());
            let scores = model.score_users(&[0, 1]);
            assert_eq!(scores.shape(), (2, split.n_items()));
        }
    }
}
