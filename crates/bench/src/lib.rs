//! # imcat-bench
//!
//! Experiment harness regenerating every table and figure of the IMCAT paper
//! (see DESIGN.md §3 for the experiment index). Each binary under `src/bin/`
//! prints the paper's rows/series and writes machine-readable JSON under
//! `target/experiments/`.

#![warn(missing_docs)]

pub mod runner;

pub use imcat_core::ModelKind;
pub use runner::{
    mean_of, obs_finish, obs_init, run_one, run_parallel, run_trials, sample_zipf, write_json,
    zipf_cdf, Env, ExpLog, RunResult,
};
