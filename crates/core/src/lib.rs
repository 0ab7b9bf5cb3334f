//! # imcat-core
//!
//! The IMCAT method (Wu et al., *Intent-aware Multi-source Contrastive
//! Alignment for Tag-enhanced Recommendation*, ICDE 2023), as a plug-in over
//! any [`imcat_models::Backbone`]:
//!
//! * [`irm`] — Intent-aware Representation Modeling: intent sub-embeddings
//!   and self-supervised end-to-end tag clustering (Eqs. 3–6).
//! * [`imca`] — Intent-aware Multi-source Contrastive Alignment: per-intent
//!   multi-source positive construction, intent relatedness `M`, and the
//!   bidirectional (masked) InfoNCE (Eqs. 7–14).
//! * [`isa`] — Intent-aware Set-to-set Alignment: per-intent Jaccard similar
//!   sets enriching positives for long-tail items (Eqs. 15–17).
//! * [`Imcat`] — the joint model optimizing Eq. 18 with pre-training and
//!   periodic cluster refresh; [`trainer`] adds early stopping, timing and
//!   the one saved-model format.
//! * [`ModelKind`] — the registry building any of Table II's 15 methods by
//!   name, shared by the CLI and the experiment harness.
//!
//! ```no_run
//! use imcat_core::{Imcat, ImcatConfig, trainer};
//! use imcat_data::{generate, SynthConfig};
//! use imcat_models::{LightGcn, TrainConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = generate(&SynthConfig::tiny(), 0).dataset;
//! let mut rng = StdRng::seed_from_u64(0);
//! let split = data.split((0.7, 0.1, 0.2), &mut rng);
//! let backbone = LightGcn::new(&split, TrainConfig::default(), &mut rng);
//! let mut model = Imcat::new(backbone, &split, ImcatConfig::default(), &mut rng);
//! let report = trainer::train(&mut model, &split, &trainer::TrainerConfig::default());
//! println!("L-IMCAT best validation recall: {:.4}", report.best_val_recall);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod explain;
pub mod imca;
pub mod irm;
pub mod isa;
mod model;
mod registry;
pub mod trainer;

pub use config::{AlignMode, ClusteringMode, ImcatConfig};
pub use explain::{Explanation, IntentContribution};
pub use model::Imcat;
pub use registry::ModelKind;
pub use trainer::{evaluate_model, train, TrainReport, TrainerConfig};
