//! Reverse-mode automatic differentiation on a Wengert list.
//!
//! A [`Tape`] is rebuilt for every training step: operations evaluate eagerly
//! (the node stores the result) and record an [`Op`] describing how to push
//! gradients to their parents. [`Tape::backward`] walks the list once in
//! reverse — construction order is already a topological order — and routes
//! leaf gradients into a [`ParamStore`], sparsely for `gather`ed embedding
//! rows and densely for whole-table leaves.
//!
//! The op set is exactly what the IMCAT paper's losses need: BPR (Eq. 1–2),
//! the Student-t clustering KL (Eq. 4–6), mean aggregation via SpMM (Eq. 7–8),
//! linear/nonlinear projections (Eq. 10, 14), and bidirectional InfoNCE over
//! in-batch logits (Eq. 11–13, 16–17).

use std::rc::Rc;

use rand::Rng;

use crate::sparse::Csr;
use crate::store::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

static OBS_GATHER_COUNT: imcat_obs::Counter = imcat_obs::Counter::new("op.gather.count");
static OBS_GATHER_ELEMENTS: imcat_obs::Counter = imcat_obs::Counter::new("op.gather.elements");
static OBS_EW_COUNT: imcat_obs::Counter = imcat_obs::Counter::new("op.elementwise.count");
static OBS_EW_ELEMENTS: imcat_obs::Counter = imcat_obs::Counter::new("op.elementwise.elements");
static OBS_BACKWARD_COUNT: imcat_obs::Counter = imcat_obs::Counter::new("op.backward.count");
static OBS_BACKWARD_NODES: imcat_obs::Counter = imcat_obs::Counter::new("op.backward.nodes");

/// Telemetry for embedding gathers: timed under `op.gather`, with invocation
/// and copied-element counters. Inert unless telemetry is enabled.
#[inline]
fn obs_gather(rows: usize, cols: usize) -> imcat_obs::Span {
    let sp = imcat_obs::span("op.gather");
    if sp.active() {
        OBS_GATHER_COUNT.add(1);
        OBS_GATHER_ELEMENTS.add((rows * cols) as u64);
    }
    sp
}

/// Telemetry for elementwise / row-wise map ops: timed under
/// `op.elementwise` with invocation and element counters.
#[inline]
fn obs_elementwise(elements: usize) -> imcat_obs::Span {
    let sp = imcat_obs::span("op.elementwise");
    if sp.active() {
        OBS_EW_COUNT.add(1);
        OBS_EW_ELEMENTS.add(elements as u64);
    }
    sp
}

enum Op {
    Constant,
    Leaf { pid: ParamId },
    Gather { pid: ParamId, rows: Rc<Vec<u32>> },
    GatherRows { a: Var, rows: Rc<Vec<u32>> },
    Matmul { a: Var, b: Var },
    MatmulNt { a: Var, b: Var },
    Spmm { csr_t: Rc<Csr>, x: Var },
    Add { a: Var, b: Var },
    Sub { a: Var, b: Var },
    Mul { a: Var, b: Var },
    AddRowVec { a: Var, bias: Var },
    MulColVec { a: Var, v: Var },
    RowwiseDot { a: Var, b: Var },
    Scale { a: Var, s: f32 },
    AddScalar { a: Var },
    Neg { a: Var },
    Sigmoid { a: Var },
    LogSigmoid { a: Var },
    LeakyRelu { a: Var, alpha: f32 },
    Tanh { a: Var },
    L2NormalizeRows { a: Var, norms: Vec<f32> },
    SoftmaxRows { a: Var },
    LogSoftmaxRows { a: Var },
    RowNormalize { a: Var, sums: Vec<f32> },
    SumAll { a: Var },
    MeanAll { a: Var },
    SumRows { a: Var },
    SumCols { a: Var },
    ConcatCols { parts: Vec<Var> },
    ConcatRows { parts: Vec<Var> },
    SliceCols { a: Var, lo: usize },
    SqDist { a: Var, b: Var },
    Powf { a: Var, p: f32 },
    Ln { a: Var, eps: f32 },
    Exp { a: Var },
    TakeDiag { a: Var },
    Transpose { a: Var },
    Dropout { a: Var, mask: Vec<f32> },
    Reshape { a: Var },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// Gradients of non-leaf tape nodes, returned by [`Tape::backward`] so tests
/// and diagnostics can inspect intermediate gradients.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if `v` participated in the loss.
    pub fn wrt(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }
}

/// Autodiff tape. Create one per training step.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(64) }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    // ---- leaves -----------------------------------------------------------

    /// Records a constant (no gradient flows into it).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Constant)
    }

    /// Records a whole parameter tensor as a differentiable leaf.
    pub fn leaf(&mut self, store: &ParamStore, pid: ParamId) -> Var {
        self.push(store.value(pid).clone(), Op::Leaf { pid })
    }

    /// Embedding lookup: selects `rows` from parameter `pid` (sparse backward).
    pub fn gather(&mut self, store: &ParamStore, pid: ParamId, rows: &[u32]) -> Var {
        let table = store.value(pid);
        let d = table.cols();
        let _sp = obs_gather(rows.len(), d);
        let mut out = Tensor::zeros(rows.len(), d);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(table.row(r as usize));
        }
        self.push(out, Op::Gather { pid, rows: Rc::new(rows.to_vec()) })
    }

    /// Selects `rows` from an arbitrary tape value (scatter-add backward).
    pub fn gather_rows(&mut self, a: Var, rows: &[u32]) -> Var {
        let src = self.value(a);
        let d = src.cols();
        let _sp = obs_gather(rows.len(), d);
        let mut out = Tensor::zeros(rows.len(), d);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(src.row(r as usize));
        }
        self.push(out, Op::GatherRows { a, rows: Rc::new(rows.to_vec()) })
    }

    // ---- linear algebra ---------------------------------------------------

    /// Dense product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).matmul(self.value(b));
        self.push(out, Op::Matmul { a, b })
    }

    /// Dense product `a @ b^T` (used for all-pairs similarity logits).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).matmul_nt(self.value(b));
        self.push(out, Op::MatmulNt { a, b })
    }

    /// Sparse-dense product `csr @ x`. `csr_t` must be `csr.transpose()`;
    /// callers cache both because the same aggregation matrix is reused for
    /// many steps.
    pub fn spmm(&mut self, csr: &Rc<Csr>, csr_t: &Rc<Csr>, x: Var) -> Var {
        debug_assert_eq!(csr.rows(), csr_t.cols());
        debug_assert_eq!(csr.cols(), csr_t.rows());
        let out = csr.spmm(self.value(x));
        self.push(out, Op::Spmm { csr_t: Rc::clone(csr_t), x })
    }

    /// Transposes a matrix.
    pub fn transpose(&mut self, a: Var) -> Var {
        let out = self.value(a).transposed();
        self.push(out, Op::Transpose { a })
    }

    // ---- elementwise ------------------------------------------------------

    /// Elementwise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let _sp = obs_elementwise(va.len());
        let mut out = va.clone();
        out.add_assign(vb);
        self.push(out, Op::Add { a, b })
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let _sp = obs_elementwise(va.len());
        let mut out = va.clone();
        out.axpy(-1.0, vb);
        self.push(out, Op::Sub { a, b })
    }

    /// Elementwise (Hadamard) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let _sp = obs_elementwise(va.len());
        let data = va.as_slice().iter().zip(vb.as_slice()).map(|(x, y)| x * y).collect();
        let out = Tensor::from_vec(va.rows(), va.cols(), data);
        self.push(out, Op::Mul { a, b })
    }

    /// Adds a `[1, n]` bias row to every row of `a`.
    pub fn add_row_vec(&mut self, a: Var, bias: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(bias));
        assert_eq!(vb.rows(), 1, "bias must be a [1, n] row vector");
        assert_eq!(va.cols(), vb.cols(), "bias width mismatch");
        let mut out = va.clone();
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(vb.as_slice()) {
                *o += b;
            }
        }
        self.push(out, Op::AddRowVec { a, bias })
    }

    /// Scales row `i` of `a` by `v[i]` where `v` is `[m, 1]`.
    pub fn mul_col_vec(&mut self, a: Var, v: Var) -> Var {
        let (va, vv) = (self.value(a), self.value(v));
        assert_eq!(vv.cols(), 1, "v must be a [m, 1] column vector");
        assert_eq!(va.rows(), vv.rows(), "mul_col_vec height mismatch");
        let mut out = va.clone();
        for r in 0..out.rows() {
            let s = vv.get(r, 0);
            for o in out.row_mut(r) {
                *o *= s;
            }
        }
        self.push(out, Op::MulColVec { a, v })
    }

    /// Per-row inner product of two `[m, d]` matrices, giving `[m, 1]`.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "rowwise_dot shape mismatch");
        let mut out = Tensor::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            let d: f32 = va.row(r).iter().zip(vb.row(r)).map(|(x, y)| x * y).sum();
            out.set(r, 0, d);
        }
        self.push(out, Op::RowwiseDot { a, b })
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x * s);
        self.push(out, Op::Scale { a, s })
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x + s);
        self.push(out, Op::AddScalar { a })
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let out = self.value(a).map(|x| -x);
        self.push(out, Op::Neg { a })
    }

    // ---- nonlinearities ---------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let _sp = obs_elementwise(self.value(a).len());
        let out = self.value(a).map(stable_sigmoid);
        self.push(out, Op::Sigmoid { a })
    }

    /// Numerically stable `log(sigmoid(x))`.
    pub fn log_sigmoid(&mut self, a: Var) -> Var {
        let _sp = obs_elementwise(self.value(a).len());
        let out = self.value(a).map(|x| {
            if x >= 0.0 {
                -(1.0 + (-x).exp()).ln()
            } else {
                x - (1.0 + x.exp()).ln()
            }
        });
        self.push(out, Op::LogSigmoid { a })
    }

    /// LeakyReLU with negative slope `alpha` (`alpha = 0` is plain ReLU).
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let _sp = obs_elementwise(self.value(a).len());
        let out = self.value(a).map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(out, Op::LeakyRelu { a, alpha })
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.leaky_relu(a, 0.0)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let _sp = obs_elementwise(self.value(a).len());
        let out = self.value(a).map(f32::tanh);
        self.push(out, Op::Tanh { a })
    }

    /// Divides each row by `sqrt(||row||^2 + eps)` (L2 normalization, used
    /// before the `⊕` fusion of Eq. 10's tag projection and the item intent).
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let va = self.value(a);
        let mut out = va.clone();
        let mut norms = Vec::with_capacity(va.rows());
        for r in 0..va.rows() {
            let n = (va.row(r).iter().map(|x| x * x).sum::<f32>() + eps).sqrt();
            norms.push(n);
            for o in out.row_mut(r) {
                *o /= n;
            }
        }
        self.push(out, Op::L2NormalizeRows { a, norms })
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = va.clone();
        for r in 0..out.rows() {
            softmax_in_place(out.row_mut(r));
        }
        self.push(out, Op::SoftmaxRows { a })
    }

    /// Row-wise log-softmax (stable; used for InfoNCE).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = va.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let m = row.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            for x in row {
                *x -= lse;
            }
        }
        self.push(out, Op::LogSoftmaxRows { a })
    }

    /// Divides each row by its sum (entries assumed non-negative; used for the
    /// Student-t soft assignment of Eq. 4).
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
    pub fn row_normalize(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = va.clone();
        let mut sums = Vec::with_capacity(va.rows());
        for r in 0..out.rows() {
            let s: f32 = out.row(r).iter().sum();
            let s = if s == 0.0 { 1.0 } else { s };
            sums.push(s);
            for x in out.row_mut(r) {
                *x /= s;
            }
        }
        self.push(out, Op::RowNormalize { a, sums })
    }

    // ---- reductions -------------------------------------------------------

    /// Sum of every element, as a `[1, 1]` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let out = Tensor::scalar(self.value(a).sum());
        self.push(out, Op::SumAll { a })
    }

    /// Mean of every element, as a `[1, 1]` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = self.value(a);
        let out = Tensor::scalar(v.sum() / v.len() as f32);
        self.push(out, Op::MeanAll { a })
    }

    /// Per-row sums, `[m, n] -> [m, 1]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = Tensor::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            out.set(r, 0, va.row(r).iter().sum());
        }
        self.push(out, Op::SumRows { a })
    }

    /// Per-column sums, `[m, n] -> [1, n]`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = Tensor::zeros(1, va.cols());
        for r in 0..va.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(va.row(r)) {
                *o += x;
            }
        }
        self.push(out, Op::SumCols { a })
    }

    // ---- shape ops --------------------------------------------------------

    /// Horizontal concatenation of same-height matrices (intent sub-embedding
    /// assembly, Eq. 3).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = Tensor::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.rows(), rows, "concat_cols height mismatch");
            for r in 0..rows {
                out.row_mut(r)[off..off + vp.cols()].copy_from_slice(vp.row(r));
            }
            off += vp.cols();
        }
        self.push(out, Op::ConcatCols { parts: parts.to_vec() })
    }

    /// Vertical concatenation of same-width matrices (e.g. stacking user and
    /// item tables into one node matrix for joint-graph propagation).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut out = Tensor::zeros(total, cols);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.cols(), cols, "concat_rows width mismatch");
            for r in 0..vp.rows() {
                out.row_mut(off + r).copy_from_slice(vp.row(r));
            }
            off += vp.rows();
        }
        self.push(out, Op::ConcatRows { parts: parts.to_vec() })
    }

    /// Column slice `a[:, lo..hi]` (extracting one intent sub-embedding).
    pub fn slice_cols(&mut self, a: Var, lo: usize, hi: usize) -> Var {
        let va = self.value(a);
        assert!(lo < hi && hi <= va.cols(), "bad slice bounds {lo}..{hi}");
        let mut out = Tensor::zeros(va.rows(), hi - lo);
        for r in 0..va.rows() {
            out.row_mut(r).copy_from_slice(&va.row(r)[lo..hi]);
        }
        self.push(out, Op::SliceCols { a, lo })
    }

    /// Pairwise squared Euclidean distances between rows of `a` (`[m, d]`) and
    /// rows of `b` (`[k, d]`), giving `[m, k]` (Student-t clustering, Eq. 4).
    pub fn sq_dist(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.cols(), vb.cols(), "sq_dist dimension mismatch");
        let mut out = Tensor::zeros(va.rows(), vb.rows());
        for i in 0..va.rows() {
            for j in 0..vb.rows() {
                let d: f32 = va.row(i).iter().zip(vb.row(j)).map(|(x, y)| (x - y) * (x - y)).sum();
                out.set(i, j, d);
            }
        }
        self.push(out, Op::SqDist { a, b })
    }

    /// Elementwise power `x^p` (entries must be positive when `p` is not a
    /// non-negative integer).
    pub fn powf(&mut self, a: Var, p: f32) -> Var {
        let out = self.value(a).map(|x| x.powf(p));
        self.push(out, Op::Powf { a, p })
    }

    /// Elementwise `ln(x + eps)`.
    pub fn ln(&mut self, a: Var, eps: f32) -> Var {
        let out = self.value(a).map(|x| (x + eps).ln());
        self.push(out, Op::Ln { a, eps })
    }

    /// Elementwise `exp(x)`.
    pub fn exp(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::exp);
        self.push(out, Op::Exp { a })
    }

    /// Extracts the main diagonal of a square matrix as `[m, 1]` (the positive
    /// logits of in-batch InfoNCE).
    pub fn take_diag(&mut self, a: Var) -> Var {
        let va = self.value(a);
        assert_eq!(va.rows(), va.cols(), "take_diag requires a square matrix");
        let mut out = Tensor::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            out.set(r, 0, va.get(r, r));
        }
        self.push(out, Op::TakeDiag { a })
    }

    /// Reinterprets `a` as a `rows x cols` matrix (same element count, same
    /// row-major order).
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let va = self.value(a);
        assert_eq!(va.len(), rows * cols, "reshape element count mismatch");
        let out = Tensor::from_vec(rows, cols, va.as_slice().to_vec());
        self.push(out, Op::Reshape { a })
    }

    /// Inverted dropout with keep-scaling.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let va = self.value(a);
        let scale = 1.0 / (1.0 - p);
        let mask: Vec<f32> =
            (0..va.len()).map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale }).collect();
        let data: Vec<f32> = va.as_slice().iter().zip(&mask).map(|(&x, &m)| x * m).collect();
        let out = Tensor::from_vec(va.rows(), va.cols(), data);
        self.push(out, Op::Dropout { a, mask })
    }

    // ---- backward ---------------------------------------------------------

    /// Back-propagates from scalar `loss`, accumulating parameter gradients in
    /// `store` and returning the per-node gradients.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be a scalar");
        let _sp = imcat_obs::span("phase.backward");
        if _sp.active() {
            OBS_BACKWARD_COUNT.add(1);
            OBS_BACKWARD_NODES.add(self.nodes.len() as u64);
        }
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            self.apply_backward(i, &g, &mut grads, store);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }

    #[allow(clippy::needless_range_loop)] // backward rules index parallel buffers
    fn apply_backward(
        &self,
        i: usize,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
        store: &mut ParamStore,
    ) {
        let val = |v: Var| &self.nodes[v.0].value;
        let out_val = &self.nodes[i].value;
        let mut acc = |v: Var, delta: Tensor| match &mut grads[v.0] {
            Some(t) => t.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        };
        match &self.nodes[i].op {
            Op::Constant => {}
            Op::Leaf { pid } => store.accum_grad_dense(*pid, g),
            Op::Gather { pid, rows } => {
                for (b, &r) in rows.iter().enumerate() {
                    store.accum_grad_row(*pid, r, g.row(b));
                }
            }
            Op::GatherRows { a, rows } => {
                let src = val(*a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for (b, &r) in rows.iter().enumerate() {
                    for (dst, &x) in da.row_mut(r as usize).iter_mut().zip(g.row(b)) {
                        *dst += x;
                    }
                }
                acc(*a, da);
            }
            Op::Matmul { a, b } => {
                let da = g.matmul_nt(val(*b));
                let db = val(*a).matmul_tn(g);
                acc(*a, da);
                acc(*b, db);
            }
            Op::MatmulNt { a, b } => {
                let da = g.matmul(val(*b));
                let db = g.matmul_tn(val(*a));
                acc(*a, da);
                acc(*b, db);
            }
            Op::Spmm { csr_t, x } => {
                acc(*x, csr_t.spmm(g));
            }
            Op::Add { a, b } => {
                acc(*a, g.clone());
                acc(*b, g.clone());
            }
            Op::Sub { a, b } => {
                acc(*a, g.clone());
                acc(*b, g.map(|x| -x));
            }
            Op::Mul { a, b } => {
                let da = elementwise(g, val(*b), |x, y| x * y);
                let db = elementwise(g, val(*a), |x, y| x * y);
                acc(*a, da);
                acc(*b, db);
            }
            Op::AddRowVec { a, bias } => {
                let mut db = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                acc(*a, g.clone());
                acc(*bias, db);
            }
            Op::MulColVec { a, v } => {
                let vv = val(*v);
                let va = val(*a);
                let mut da = g.clone();
                let mut dv = Tensor::zeros(vv.rows(), 1);
                for r in 0..g.rows() {
                    let s = vv.get(r, 0);
                    let mut dot = 0.0;
                    for ((o, &gg), &aa) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(va.row(r)) {
                        *o = gg * s;
                        dot += gg * aa;
                    }
                    dv.set(r, 0, dot);
                }
                acc(*a, da);
                acc(*v, dv);
            }
            Op::RowwiseDot { a, b } => {
                let (va, vb) = (val(*a), val(*b));
                let mut da = Tensor::zeros(va.rows(), va.cols());
                let mut db = Tensor::zeros(vb.rows(), vb.cols());
                for r in 0..va.rows() {
                    let s = g.get(r, 0);
                    for ((dst, &x), (dst2, &y)) in da
                        .row_mut(r)
                        .iter_mut()
                        .zip(vb.row(r))
                        .zip(db.row_mut(r).iter_mut().zip(va.row(r)))
                    {
                        *dst = s * x;
                        *dst2 = s * y;
                    }
                }
                acc(*a, da);
                acc(*b, db);
            }
            Op::Scale { a, s } => acc(*a, g.map(|x| x * s)),
            Op::AddScalar { a } => acc(*a, g.clone()),
            Op::Neg { a } => acc(*a, g.map(|x| -x)),
            Op::Sigmoid { a } => {
                let da = elementwise(g, out_val, |gg, s| gg * s * (1.0 - s));
                acc(*a, da);
            }
            Op::LogSigmoid { a } => {
                let da = elementwise(g, val(*a), |gg, x| gg * (1.0 - stable_sigmoid(x)));
                acc(*a, da);
            }
            Op::LeakyRelu { a, alpha } => {
                let da = elementwise(g, val(*a), |gg, x| if x > 0.0 { gg } else { gg * alpha });
                acc(*a, da);
            }
            Op::Tanh { a } => {
                let da = elementwise(g, out_val, |gg, t| gg * (1.0 - t * t));
                acc(*a, da);
            }
            Op::L2NormalizeRows { a, norms } => {
                let va = val(*a);
                let mut da = Tensor::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    let n = norms[r];
                    let dot: f32 = g.row(r).iter().zip(va.row(r)).map(|(x, y)| x * y).sum();
                    for ((dst, &gg), &x) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(va.row(r)) {
                        *dst = gg / n - x * dot / (n * n * n);
                    }
                }
                acc(*a, da);
            }
            Op::SoftmaxRows { a } => {
                let s = out_val;
                let mut da = Tensor::zeros(s.rows(), s.cols());
                for r in 0..s.rows() {
                    let dot: f32 = g.row(r).iter().zip(s.row(r)).map(|(x, y)| x * y).sum();
                    for ((dst, &gg), &ss) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(s.row(r)) {
                        *dst = ss * (gg - dot);
                    }
                }
                acc(*a, da);
            }
            Op::LogSoftmaxRows { a } => {
                let ls = out_val;
                let mut da = Tensor::zeros(ls.rows(), ls.cols());
                for r in 0..ls.rows() {
                    let gsum: f32 = g.row(r).iter().sum();
                    for ((dst, &gg), &l) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(ls.row(r)) {
                        *dst = gg - l.exp() * gsum;
                    }
                }
                acc(*a, da);
            }
            Op::RowNormalize { a, sums } => {
                let y = out_val;
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let s = sums[r];
                    let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(x, yy)| x * yy).sum();
                    for (dst, &gg) in da.row_mut(r).iter_mut().zip(g.row(r)) {
                        *dst = (gg - dot) / s;
                    }
                }
                acc(*a, da);
            }
            Op::SumAll { a } => {
                let va = val(*a);
                acc(*a, Tensor::full(va.rows(), va.cols(), g.item()));
            }
            Op::MeanAll { a } => {
                let va = val(*a);
                acc(*a, Tensor::full(va.rows(), va.cols(), g.item() / va.len() as f32));
            }
            Op::SumRows { a } => {
                let va = val(*a);
                let mut da = Tensor::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    let s = g.get(r, 0);
                    da.row_mut(r).iter_mut().for_each(|x| *x = s);
                }
                acc(*a, da);
            }
            Op::SumCols { a } => {
                let va = val(*a);
                let mut da = Tensor::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    da.row_mut(r).copy_from_slice(g.row(0));
                }
                acc(*a, da);
            }
            Op::ConcatCols { parts } => {
                let mut off = 0;
                for &p in parts {
                    let vp = val(p);
                    let mut dp = Tensor::zeros(vp.rows(), vp.cols());
                    for r in 0..vp.rows() {
                        dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + vp.cols()]);
                    }
                    off += vp.cols();
                    acc(p, dp);
                }
            }
            Op::ConcatRows { parts } => {
                let mut off = 0;
                for &p in parts {
                    let vp = val(p);
                    let mut dp = Tensor::zeros(vp.rows(), vp.cols());
                    for r in 0..vp.rows() {
                        dp.row_mut(r).copy_from_slice(g.row(off + r));
                    }
                    off += vp.rows();
                    acc(p, dp);
                }
            }
            Op::SliceCols { a, lo } => {
                let va = val(*a);
                let mut da = Tensor::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    da.row_mut(r)[*lo..*lo + g.cols()].copy_from_slice(g.row(r));
                }
                acc(*a, da);
            }
            Op::SqDist { a, b } => {
                let (va, vb) = (val(*a), val(*b));
                let mut da = Tensor::zeros(va.rows(), va.cols());
                let mut db = Tensor::zeros(vb.rows(), vb.cols());
                for i2 in 0..va.rows() {
                    for j in 0..vb.rows() {
                        let gg = 2.0 * g.get(i2, j);
                        if gg == 0.0 {
                            continue;
                        }
                        for ((dai, dbj), (&x, &y)) in da
                            .row_mut(i2)
                            .iter_mut()
                            .zip(db.row_mut(j))
                            .zip(va.row(i2).iter().zip(vb.row(j)))
                        {
                            *dai += gg * (x - y);
                            *dbj += gg * (y - x);
                        }
                    }
                }
                acc(*a, da);
                acc(*b, db);
            }
            Op::Powf { a, p } => {
                let da = elementwise(g, val(*a), |gg, x| gg * p * x.powf(p - 1.0));
                acc(*a, da);
            }
            Op::Ln { a, eps } => {
                let da = elementwise(g, val(*a), |gg, x| gg / (x + eps));
                acc(*a, da);
            }
            Op::Exp { a } => {
                let da = elementwise(g, out_val, |gg, e| gg * e);
                acc(*a, da);
            }
            Op::TakeDiag { a } => {
                let va = val(*a);
                let mut da = Tensor::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    da.set(r, r, g.get(r, 0));
                }
                acc(*a, da);
            }
            Op::Transpose { a } => acc(*a, g.transposed()),
            Op::Reshape { a } => {
                let va = val(*a);
                acc(*a, Tensor::from_vec(va.rows(), va.cols(), g.as_slice().to_vec()));
            }
            Op::Dropout { a, mask } => {
                let data: Vec<f32> =
                    g.as_slice().iter().zip(mask).map(|(&gg, &m)| gg * m).collect();
                acc(*a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
        }
    }
}

fn elementwise(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape());
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Tensor::from_vec(a.rows(), a.cols(), data)
}

fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn softmax_in_place(row: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
    let mut s = 0.0;
    for x in row.iter_mut() {
        *x = (*x - m).exp();
        s += *x;
    }
    for x in row.iter_mut() {
        *x /= s;
    }
}
