//! # imcat-tensor
//!
//! Training substrate for the IMCAT reproduction: dense 2-D tensors, CSR
//! sparse matrices, a reverse-mode autodiff tape, Xavier initialization, and
//! an Adam optimizer with lazy sparse-row updates.
//!
//! The IMCAT paper (Wu et al., ICDE 2023) trains embedding models with custom
//! contrastive (InfoNCE), ranking (BPR) and clustering (Student-t KL) losses.
//! No mature Rust deep-learning framework covers that combination with sparse
//! embedding gradients, so this crate implements exactly the needed op set —
//! every operator's analytic gradient is validated against central finite
//! differences by property tests (see `tests/gradcheck.rs`).
//!
//! ## Quick tour
//!
//! ```
//! use imcat_tensor::{ParamStore, Tape, Tensor, Adam, AdamConfig};
//!
//! let mut store = ParamStore::new();
//! let emb = store.add("emb", Tensor::from_vec(4, 2, vec![0.5; 8]));
//! let mut adam = Adam::new(AdamConfig::default(), &store);
//!
//! let mut tape = Tape::new();
//! let rows = tape.gather(&store, emb, &[0, 2]);      // embedding lookup
//! let sq = tape.mul(rows, rows);
//! let loss = tape.mean_all(sq);                      // scalar loss
//! tape.backward(loss, &mut store);                   // sparse grads
//! adam.step(&mut store);                             // lazy Adam
//! ```

#![warn(missing_docs)]

mod init;
mod optim;
mod sparse;
mod store;
mod tape;
mod tensor;

pub use init::{normal, uniform, xavier_uniform};
pub use optim::{Adam, AdamConfig};
pub use sparse::Csr;
pub use store::{Param, ParamId, ParamStore};
pub use tape::{Gradients, Tape, Var};
pub use tensor::Tensor;

static OBS_MATMUL_COUNT: imcat_obs::Counter = imcat_obs::Counter::new("op.matmul.count");
static OBS_MATMUL_FLOPS: imcat_obs::Counter = imcat_obs::Counter::new("op.matmul.flops");
static OBS_SPMM_COUNT: imcat_obs::Counter = imcat_obs::Counter::new("op.spmm.count");
static OBS_SPMM_NNZ: imcat_obs::Counter = imcat_obs::Counter::new("op.spmm.nnz");
static OBS_SPMM_FLOPS: imcat_obs::Counter = imcat_obs::Counter::new("op.spmm.flops");

/// Telemetry helper for the dense matmul kernels: times the kernel under
/// `op.matmul` and counts multiply-add FLOPs. Inert unless
/// [`imcat_obs::enabled`]. Uses static [`imcat_obs::Counter`] handles so the
/// hot path skips the per-call name lookup.
#[inline]
pub(crate) fn obs_matmul(m: usize, k: usize, n: usize) -> imcat_obs::Span {
    let sp = imcat_obs::span("op.matmul");
    if sp.active() {
        OBS_MATMUL_COUNT.add(1);
        OBS_MATMUL_FLOPS.add(2 * (m * k * n) as u64);
    }
    sp
}

/// Telemetry helper for SpMM: times under `op.spmm`, counts invocations,
/// processed non-zeros, and multiply-add FLOPs.
#[inline]
pub(crate) fn obs_spmm(nnz: usize, dense_cols: usize) -> imcat_obs::Span {
    let sp = imcat_obs::span("op.spmm");
    if sp.active() {
        OBS_SPMM_COUNT.add(1);
        OBS_SPMM_NNZ.add(nnz as u64);
        OBS_SPMM_FLOPS.add(2 * (nnz * dense_cols) as u64);
    }
    sp
}
