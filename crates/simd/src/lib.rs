//! Runtime-dispatched SIMD kernels for the IMCAT hot paths.
//!
//! Every matmul, batch scorer, and ANN probe in the workspace bottoms out in
//! the same handful of inner loops: f32 `dot` (and [`dot_rows`], the same
//! dot against a contiguous block of rows with several rows in flight, and
//! [`dot_rows2`], two queries against one block),
//! `axpy`, a fused int8 [`dot_i8_scaled`], squared L2 distance (and two
//! one-against-many forms: [`l2_sq_gather`] over rows picked by id,
//! [`l2_sq_cols`] over columns), and an L1 norm. This crate
//! owns those loops and picks one of two backends once per process:
//!
//! - [`Backend::Scalar`] — the plain sequential loops the workspace has
//!   always used, preserved bit-for-bit. `acc += a*b` in order, no fusing,
//!   no reassociation. This is the oracle every other path is tested
//!   against, and what `IMCAT_SIMD=scalar` forces for bit-identity
//!   debugging.
//! - [`Backend::Avx2`] — eight-lane kernels. On x86_64 hosts with AVX2+FMA
//!   these run as `std::arch` intrinsics; everywhere else they run as the
//!   [`portable`] mirror: an 8-lane-unrolled `f32::mul_add` loop with the
//!   exact lane assignment and horizontal-reduction tree of the intrinsics,
//!   so the two implementations of the Avx2 backend are bit-identical to
//!   each other (`fmaf` is correctly rounded, i.e. the same one-rounding
//!   result as the hardware `vfmadd` instruction).
//!
//! The backend is resolved once (first use) from `IMCAT_SIMD=scalar|avx2`,
//! defaulting to Avx2 when the CPU supports it. Avx2 results differ from
//! Scalar only by floating-point summation order; callers that promise
//! bit-identity across *processes* (checkpoint resume, thread-count
//! invariance, sharded serving) are safe because the backend is a pure
//! function of environment + hardware, identical in every process on the
//! same host — and `IMCAT_SIMD=scalar` recovers the historical bits exactly.
//!
//! The block forms [`dot_rows`], [`dot_rows2`] and [`l2_sq_gather`] add no
//! arithmetic of their own: each output is its per-pair kernel's bits on the
//! same backend (`out[j].to_bits() == l2_sq(q, row(ids[j])).to_bits()`), the
//! AVX2 form just keeps four of those chains in flight — eight for
//! [`dot_rows2`], two queries against each row load (see there for input
//! NaN payloads). [`l2_sq_gather`] checks every id against the table before
//! it reads a row; it is the distance kernel of
//! the HNSW graph, where the rows a node's neighbour list names are
//! scattered through the vector store.
//!
//! One kernel stands apart: [`l2_sq_cols`], one point against the columns of
//! a dim-major matrix (the k-means assignment step, centres as columns). It
//! vectorises *across columns* — lane `j` is the pair (point, column `j`)
//! running [`scalar::l2_sq`]'s own operation sequence — so both backends
//! return the **scalar oracle's bits** and `IMCAT_SIMD` only chooses how
//! wide the same loop is compiled. It has no intrinsics: one safe lane-array
//! body, compiled for the baseline ISA and once more under
//! `#[target_feature(enable = "avx2")]`.
//!
//! # Safety
//!
//! Every `unsafe` call in the dispatchers is a call into a
//! `#[target_feature]` function with the feature check
//! ([`avx2_detected`]) on the line above it. For [`l2_sq_cols`] that is the
//! *only* unsafety — the callee's body is safe code. Its `target_feature`
//! list enables `avx2` and deliberately not `fma`: the other kernels promise
//! the fused [`portable`] mirror's bits, this one promises the unfused scalar
//! loop's, and with the feature off there is no instruction a compiler could
//! contract its multiply-then-add into.
//!
//! Each kernel has a `_with(backend, ...)` variant so tests can exercise
//! both paths inside one process.

use std::sync::OnceLock;

/// Kernel implementation family, chosen once per process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Historical sequential loops, bit-identical to the pre-SIMD kernels.
    Scalar,
    /// Eight-lane FMA kernels (AVX2 intrinsics, or their portable mirror).
    Avx2,
}

impl Backend {
    /// Stable lower-case name (`"scalar"` / `"avx2"`), as accepted by the
    /// `IMCAT_SIMD` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// Whether the running CPU supports the AVX2+FMA intrinsic path.
///
/// When this is false the [`Backend::Avx2`] backend still works — it runs
/// the bit-identical [`portable`] mirror instead of intrinsics.
pub fn avx2_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The process-wide backend: `IMCAT_SIMD` if set (panics on other values),
/// otherwise Avx2 when the CPU has AVX2+FMA and Scalar elsewhere.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| match std::env::var("IMCAT_SIMD") {
        Ok(v) if v == "scalar" => Backend::Scalar,
        Ok(v) if v == "avx2" => Backend::Avx2,
        Ok(v) => panic!("IMCAT_SIMD must be `scalar` or `avx2`, got `{v}`"),
        Err(_) => {
            if avx2_detected() {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        }
    })
}

/// `sum_i a[i] * b[i]` under the process backend.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(backend(), a, b)
}

/// [`dot`] under an explicit backend.
#[inline]
pub fn dot_with(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match bk {
        Backend::Scalar => scalar::dot(a, b),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                return unsafe { avx2::dot(a, b) };
            }
            portable::dot(a, b)
        }
    }
}

/// One query against a contiguous block of rows: `out[j] = dot(a, row_j)`
/// with `row_j = rows[j * a.len()..(j + 1) * a.len()]`, under the process
/// backend.
///
/// Every pair runs exactly [`dot`]'s operation sequence, so
/// `out[j].to_bits() == dot(a, row_j).to_bits()` on every input; what the
/// block form buys is speed. The backend is resolved once per call instead
/// of once per pair, the query chunk is loaded once for several rows, and
/// those rows accumulate on independent registers, so the FMA pipeline is
/// not left waiting on one dependent chain per pair. This is the kernel of
/// the brute-force ANN probe, of a single-row `Tensor::matmul_nt{,_rows}`
/// (a serving request alone in its tick, whose item axis the pool splits
/// into chunks of whole blocks) and of an odd last row of a larger one,
/// whose other rows go through [`dot_rows2`].
///
/// Panics unless `rows.len() == a.len() * out.len()`.
#[inline]
pub fn dot_rows(a: &[f32], rows: &[f32], out: &mut [f32]) {
    dot_rows_with(backend(), a, rows, out)
}

/// [`dot_rows`] under an explicit backend.
pub fn dot_rows_with(bk: Backend, a: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(
        Some(rows.len()),
        a.len().checked_mul(out.len()),
        "dot_rows: {} row elements are not {} rows of {} dims",
        rows.len(),
        out.len(),
        a.len()
    );
    match bk {
        Backend::Scalar => scalar::dot_rows(a, rows, out),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                unsafe { avx2::dot_rows(a, rows, out) };
                return;
            }
            portable::dot_rows(a, rows, out)
        }
    }
}

/// Two queries against one contiguous block of rows:
/// `out0[j] = dot(a0, row_j)` and `out1[j] = dot(a1, row_j)`, with `row_j` as
/// in [`dot_rows`], under the process backend.
///
/// Every pair runs exactly [`dot`]'s operation sequence, so both outputs are
/// bit-identical to two [`dot_rows`] calls on every input that holds no NaN
/// — a NaN an operation makes (`inf * 0`, `inf - inf`) is the one default
/// NaN, so those agree too. Where two different input NaNs meet in one FMA
/// or add, which one survives is the compiler's choice of operand order (it
/// may swap the multiplicands of a fused multiply-add): the output is a NaN
/// exactly where [`dot`]'s is, but its sign and payload may differ. Serving
/// never meets that case, since an artifact with a non-finite embedding is
/// refused. What the pairing buys is one load of each row chunk feeding both
/// queries' FMAs: the AVX2 form keeps 2 × 4 independent chains in flight
/// where [`dot_rows`] keeps four, and reads the block from L1 half as often
/// per score. This is the kernel of the multi-row NT product
/// (`Tensor::matmul_nt{,_rows}`: the serving tick, the evaluator's score
/// rows, the contrastive logits).
///
/// Panics, before reading anything, unless `a0.len() == a1.len()`,
/// `out0.len() == out1.len()` and `rows.len() == a0.len() * out0.len()`.
#[inline]
pub fn dot_rows2(a0: &[f32], a1: &[f32], rows: &[f32], out0: &mut [f32], out1: &mut [f32]) {
    dot_rows2_with(backend(), a0, a1, rows, out0, out1)
}

/// [`dot_rows2`] under an explicit backend.
pub fn dot_rows2_with(
    bk: Backend,
    a0: &[f32],
    a1: &[f32],
    rows: &[f32],
    out0: &mut [f32],
    out1: &mut [f32],
) {
    assert!(
        a0.len() == a1.len()
            && out0.len() == out1.len()
            && Some(rows.len()) == a0.len().checked_mul(out0.len()),
        "dot_rows2: queries of {} and {} dims, {} row elements and outputs of {} and {} \
         are not two queries against {} rows of {} dims",
        a0.len(),
        a1.len(),
        rows.len(),
        out0.len(),
        out1.len(),
        out0.len(),
        a0.len()
    );
    match bk {
        Backend::Scalar => scalar::dot_rows2(a0, a1, rows, out0, out1),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                unsafe { avx2::dot_rows2(a0, a1, rows, out0, out1) };
                return;
            }
            portable::dot_rows2(a0, a1, rows, out0, out1)
        }
    }
}

/// `out[j] = dot(a, row_j)` one row after the other: the scalar oracle's
/// and the portable mirror's form of [`dot_rows`] (rows are independent, so
/// how many are in flight never shows in the bits).
fn dot_each_row(dot: impl Fn(&[f32], &[f32]) -> f32, a: &[f32], rows: &[f32], out: &mut [f32]) {
    if a.is_empty() {
        // Zero-width rows (`chunks_exact(0)` panics): every dot is the empty sum.
        out.fill(dot(a, a));
        return;
    }
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(a.len())) {
        *o = dot(a, row);
    }
}

/// `y[i] += s * x[i]` under the process backend.
#[inline]
pub fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(backend(), s, x, y)
}

/// [`axpy`] under an explicit backend.
#[inline]
pub fn axpy_with(bk: Backend, s: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match bk {
        Backend::Scalar => scalar::axpy(s, x, y),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                unsafe { avx2::axpy(s, x, y) };
                return;
            }
            portable::axpy(s, x, y)
        }
    }
}

/// Fused int8 dot: `scale * sum_i codes[i] as f32 * q[i]` under the process
/// backend. This is the quantized ANN scan kernel: codes are per-item int8
/// quantized embeddings, `scale` the item's dequantization factor.
#[inline]
pub fn dot_i8_scaled(codes: &[i8], q: &[f32], scale: f32) -> f32 {
    dot_i8_scaled_with(backend(), codes, q, scale)
}

/// [`dot_i8_scaled`] under an explicit backend.
#[inline]
pub fn dot_i8_scaled_with(bk: Backend, codes: &[i8], q: &[f32], scale: f32) -> f32 {
    assert_eq!(codes.len(), q.len(), "dot_i8_scaled: length mismatch");
    match bk {
        Backend::Scalar => scalar::dot_i8_scaled(codes, q, scale),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                return unsafe { avx2::dot_i8_scaled(codes, q, scale) };
            }
            portable::dot_i8_scaled(codes, q, scale)
        }
    }
}

/// `sum_i (a[i] - b[i])^2` under the process backend.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    l2_sq_with(backend(), a, b)
}

/// [`l2_sq`] under an explicit backend.
#[inline]
pub fn l2_sq_with(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq: length mismatch");
    match bk {
        Backend::Scalar => scalar::l2_sq(a, b),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                return unsafe { avx2::l2_sq(a, b) };
            }
            portable::l2_sq(a, b)
        }
    }
}

/// One query against rows gathered by id: `out[j] = l2_sq(q, row(ids[j]))`
/// with `row(i) = table[i * q.len()..(i + 1) * q.len()]`, under the process
/// backend.
///
/// Every pair runs exactly [`l2_sq`]'s operation sequence, so
/// `out[j].to_bits() == l2_sq(q, row(ids[j])).to_bits()` on every input and
/// backend, whatever the ids: repeated, descending, scattered. It is
/// [`dot_rows`]' idea for rows that are not contiguous — the backend is
/// resolved once per call, and the AVX2 form keeps four rows in flight on
/// independent registers — and it is the distance kernel of the HNSW graph,
/// which scores a node's unvisited neighbours in one call.
///
/// Panics, before reading any row, unless `ids.len() == out.len()` and every
/// id names a whole row of `table`.
#[inline]
pub fn l2_sq_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
    l2_sq_gather_with(backend(), q, table, ids, out)
}

/// [`l2_sq_gather`] under an explicit backend.
#[inline]
pub fn l2_sq_gather_with(bk: Backend, q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "l2_sq_gather: {} ids for {} outputs", ids.len(), out.len());
    if let Some(&top) = ids.iter().max() {
        assert!(
            (top as usize + 1).checked_mul(q.len()).is_some_and(|end| end <= table.len()),
            "l2_sq_gather: row {top} of width {} is outside a table of {} elements",
            q.len(),
            table.len()
        );
    }
    match bk {
        Backend::Scalar => scalar::l2_sq_gather(q, table, ids, out),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                unsafe { avx2::l2_sq_gather(q, table, ids, out) };
                return;
            }
            portable::l2_sq_gather(q, table, ids, out)
        }
    }
}

/// `out[j] = l2_sq(q, row(ids[j]))` one id after the other: the scalar
/// oracle's and the portable mirror's form of [`l2_sq_gather`] (rows are
/// independent, so how many are in flight never shows in the bits). Rows are
/// sliced, so an id the dispatcher would refuse panics here too.
fn l2_sq_each_id(
    l2_sq: impl Fn(&[f32], &[f32]) -> f32,
    q: &[f32],
    table: &[f32],
    ids: &[u32],
    out: &mut [f32],
) {
    let d = q.len();
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = l2_sq(q, &table[id as usize * d..][..d]);
    }
}

/// Columns [`l2_sq_cols`] keeps in flight: one lane each, 32 independent
/// accumulators (four 8-lane registers under AVX2). The matrix it reads is
/// padded to whole blocks of this many columns.
pub const L2_COLS_LANES: usize = 32;

/// One point against the columns of a dim-major matrix:
/// `out[j] = scalar::l2_sq(x, column_j)` with
/// `column_j[c] = cols[c * stride + j]`, on **every** backend.
///
/// This is [`l2_sq`] vectorised across columns instead of across
/// dimensions: lane `j` runs `acc += (x[c] - col_j[c]) * (x[c] - col_j[c])`
/// for `c` ascending, a separate multiply and add — exactly
/// [`scalar::l2_sq`]'s operation sequence for that pair — so
/// `out[j].to_bits() == scalar::l2_sq(x, column_j).to_bits()` whichever
/// backend runs. (Where that is a NaN it is a NaN here too; which payload
/// survives a `NaN + NaN` is the compiler's operand order, not this
/// kernel's, and callers only ever compare distances with `<`.) The lanes
/// are independent pairs, so how many are in flight never shows in the bits;
/// what it buys is that the add chain of one pair no longer serialises the
/// whole scan. The backends differ only in how wide the same loop compiles
/// (see [`avx2::l2_sq_cols`]). This is the assignment kernel of the shared
/// k-means (`imcat_ann::assign_nearest`), with the centres as columns.
///
/// `stride` is a multiple of [`L2_COLS_LANES`], so every block of lanes is
/// whole; the first `out.len()` columns are reported, and the columns from
/// there up to `stride` are padding the kernel may compute on but never
/// writes out. Panics unless `stride % L2_COLS_LANES == 0`,
/// `out.len() <= stride` and `cols.len() == x.len() * stride`.
#[inline]
pub fn l2_sq_cols(x: &[f32], cols: &[f32], stride: usize, out: &mut [f32]) {
    l2_sq_cols_with(backend(), x, cols, stride, out)
}

/// [`l2_sq_cols`] under an explicit backend.
pub fn l2_sq_cols_with(bk: Backend, x: &[f32], cols: &[f32], stride: usize, out: &mut [f32]) {
    assert!(
        stride.checked_next_multiple_of(L2_COLS_LANES) == Some(stride)
            && out.len() <= stride
            && Some(cols.len()) == x.len().checked_mul(stride),
        "l2_sq_cols: {} elements are not {} dims of stride {} (whole {}-lane blocks) holding {} columns",
        cols.len(),
        x.len(),
        stride,
        L2_COLS_LANES,
        out.len()
    );
    match bk {
        // SAFETY: AVX2 presence is checked by the guard (`avx2_detected` is
        // AVX2 and FMA; the callee enables, and so needs, only the former).
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if avx2_detected() => unsafe { avx2::l2_sq_cols(x, cols, stride, out) },
        // The same loop at the baseline width: Scalar, and Avx2 on a host
        // without it (there is no separate `portable` form to mirror).
        _ => scalar::l2_sq_cols(x, cols, stride, out),
    }
}

/// The one body of [`l2_sq_cols`], inlined into a baseline copy
/// ([`scalar::l2_sq_cols`]) and an AVX2 copy ([`avx2::l2_sq_cols`]). Plain
/// lane arrays, no intrinsics, no pointers: the compiler vectorises the
/// fixed-width lane loop, and since lanes never mix and Rust never contracts
/// `a * b + c` into a fused multiply-add on its own, both copies produce the
/// scalar oracle's bits. A shape the dispatcher would refuse panics on a
/// slice bound or reports nonsense; nothing is read out of bounds.
#[inline(always)]
fn l2_sq_cols_body(x: &[f32], cols: &[f32], stride: usize, out: &mut [f32]) {
    const LANES: usize = L2_COLS_LANES;
    for (b, group) in out.chunks_mut(LANES).enumerate() {
        let mut acc = [0.0f32; LANES];
        // `chunks_exact(stride)` yields `x.len()` rows, one per dimension.
        for (&xc, row) in x.iter().zip(cols.chunks_exact(stride)) {
            let lanes: &[f32; LANES] =
                row[b * LANES..][..LANES].try_into().expect("a slice of LANES elements");
            for (a, &v) in acc.iter_mut().zip(lanes) {
                let d = xc - v;
                *a += d * d;
            }
        }
        group.copy_from_slice(&acc[..group.len()]);
    }
}

/// `sum_i |x[i]|` under the process backend (the query-side factor of the
/// quantized-score error bound).
#[inline]
pub fn l1_norm(x: &[f32]) -> f32 {
    l1_norm_with(backend(), x)
}

/// [`l1_norm`] under an explicit backend.
#[inline]
pub fn l1_norm_with(bk: Backend, x: &[f32]) -> f32 {
    match bk {
        Backend::Scalar => scalar::l1_norm(x),
        Backend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_detected() {
                // SAFETY: AVX2+FMA presence was just checked.
                return unsafe { avx2::l1_norm(x) };
            }
            portable::l1_norm(x)
        }
    }
}

/// The historical sequential kernels, preserved bit-for-bit. These are the
/// oracle for every other path and the `IMCAT_SIMD=scalar` escape hatch.
pub mod scalar {
    /// Sequential `acc += a*b` dot, in index order, no fusing.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// [`dot`] against each row of a contiguous block, one row after the
    /// other (`rows.len()` must be `a.len() * out.len()`).
    pub fn dot_rows(a: &[f32], rows: &[f32], out: &mut [f32]) {
        super::dot_each_row(dot, a, rows, out)
    }

    /// [`dot_rows`] for `a0` into `out0`, then for `a1` into `out1` (shapes
    /// as [`super::dot_rows2`] checks them).
    pub fn dot_rows2(a0: &[f32], a1: &[f32], rows: &[f32], out0: &mut [f32], out1: &mut [f32]) {
        dot_rows(a0, rows, out0);
        dot_rows(a1, rows, out1);
    }

    /// Sequential `y[i] += s * x[i]`, no fusing.
    pub fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        for i in 0..x.len() {
            y[i] += s * x[i];
        }
    }

    /// Sequential quantized scan: widen each code, `acc += c * q`, scale at
    /// the end — exactly the loop `imcat-ann` shipped with.
    pub fn dot_i8_scaled(codes: &[i8], q: &[f32], scale: f32) -> f32 {
        let mut acc = 0.0f32;
        for i in 0..codes.len() {
            acc += codes[i] as f32 * q[i];
        }
        scale * acc
    }

    /// Sequential squared L2 distance.
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            let d = a[i] - b[i];
            acc += d * d;
        }
        acc
    }

    /// [`l2_sq`] of `q` against each row `ids` names, one after the other.
    pub fn l2_sq_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
        super::l2_sq_each_id(l2_sq, q, table, ids, out)
    }

    /// [`l2_sq`] of `x` against each of the first `out.len()` columns of a
    /// dim-major matrix, a block of columns at a time, each column on its own
    /// accumulator in [`l2_sq`]'s exact operation order: the baseline-ISA copy
    /// of the loop [`super::l2_sq_cols`] documents (shapes as there, checked by
    /// [`super::l2_sq_cols_with`]).
    pub fn l2_sq_cols(x: &[f32], cols: &[f32], stride: usize, out: &mut [f32]) {
        super::l2_sq_cols_body(x, cols, stride, out)
    }

    /// Sequential `acc += |x|`.
    pub fn l1_norm(x: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for &v in x {
            acc += v.abs();
        }
        acc
    }
}

/// Portable mirror of the AVX2 kernels: 8-lane-unrolled `f32::mul_add`
/// bodies with the same lane assignment (lane `l` accumulates elements `l`,
/// `l+8`, …) and the same horizontal-sum tree as the intrinsic reduction
/// (`((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`), followed by the same scalar
/// `mul_add` tail. Because `f32::mul_add` is correctly rounded — the same
/// single-rounding result the hardware `vfmadd` produces — this module is
/// bit-identical to [`avx2`](self) on every input, which the test suite
/// asserts on AVX2 hosts.
pub mod portable {
    /// Reduction tree matching the SSE `extractf128 / movehl / shuffle`
    /// horizontal sum used by the intrinsic kernels.
    #[inline]
    pub fn hsum8(l: [f32; 8]) -> f32 {
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }

    /// Eight-lane fused dot.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut lanes = [0.0f32; 8];
        for c in 0..chunks {
            let base = c * 8;
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = a[base + l].mul_add(b[base + l], *lane);
            }
        }
        let mut total = hsum8(lanes);
        for i in chunks * 8..n {
            total = a[i].mul_add(b[i], total);
        }
        total
    }

    /// Eight-lane fused [`dot`] against each row of a contiguous block
    /// (`rows.len()` must be `a.len() * out.len()`). The intrinsic kernel
    /// keeps several rows in flight; each row's lanes, reduction tree and
    /// tail are this loop's, so the two agree bitwise.
    pub fn dot_rows(a: &[f32], rows: &[f32], out: &mut [f32]) {
        super::dot_each_row(dot, a, rows, out)
    }

    /// Eight-lane fused [`dot_rows`] for `a0` into `out0`, then for `a1`
    /// into `out1`. The intrinsic kernel interleaves the two queries' chains;
    /// each chain is this loop's, so the two agree bitwise.
    pub fn dot_rows2(a0: &[f32], a1: &[f32], rows: &[f32], out0: &mut [f32], out1: &mut [f32]) {
        dot_rows(a0, rows, out0);
        dot_rows(a1, rows, out1);
    }

    /// Elementwise fused `y[i] = fma(s, x[i], y[i])`.
    pub fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        for i in 0..x.len() {
            y[i] = s.mul_add(x[i], y[i]);
        }
    }

    /// Eight-lane fused quantized scan.
    pub fn dot_i8_scaled(codes: &[i8], q: &[f32], scale: f32) -> f32 {
        let n = codes.len();
        let chunks = n / 8;
        let mut lanes = [0.0f32; 8];
        for c in 0..chunks {
            let base = c * 8;
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = (codes[base + l] as f32).mul_add(q[base + l], *lane);
            }
        }
        let mut total = hsum8(lanes);
        for i in chunks * 8..n {
            total = (codes[i] as f32).mul_add(q[i], total);
        }
        scale * total
    }

    /// Eight-lane fused squared L2 distance.
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut lanes = [0.0f32; 8];
        for c in 0..chunks {
            let base = c * 8;
            for (l, lane) in lanes.iter_mut().enumerate() {
                let d = a[base + l] - b[base + l];
                *lane = d.mul_add(d, *lane);
            }
        }
        let mut total = hsum8(lanes);
        for i in chunks * 8..n {
            let d = a[i] - b[i];
            total = d.mul_add(d, total);
        }
        total
    }

    /// Eight-lane fused [`l2_sq`] against each row `ids` names. The
    /// intrinsic kernel keeps several rows in flight; each row's lanes,
    /// reduction tree and tail are this loop's, so the two agree bitwise.
    pub fn l2_sq_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
        super::l2_sq_each_id(l2_sq, q, table, ids, out)
    }

    /// Eight-lane `|x|` accumulation (plain adds: the intrinsic path uses
    /// `andnot` + `add`, not FMA, so the mirror adds too).
    pub fn l1_norm(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / 8;
        let mut lanes = [0.0f32; 8];
        for c in 0..chunks {
            let base = c * 8;
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane += x[base + l].abs();
            }
        }
        let mut total = hsum8(lanes);
        for &v in &x[chunks * 8..n] {
            total += v.abs();
        }
        total
    }
}

/// AVX2/FMA intrinsic kernels. Callers must guarantee the CPU supports
/// `avx2` and `fma` (the public `_with` wrappers check [`avx2_detected`]).
/// Bit-identical to [`portable`] by construction; asserted by tests.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum matching [`super::portable::hsum8`].
    ///
    /// # Safety
    /// Requires AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256(v: __m256) -> f32 {
        // [l0+l4, l1+l5, l2+l6, l3+l7]
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        // lane0 = (l0+l4)+(l2+l6), lane1 = (l1+l5)+(l3+l7)
        let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01)))
    }

    /// Fused 8-lane dot.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slices must be equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let av = _mm256_loadu_ps(ap.add(c * 8));
            let bv = _mm256_loadu_ps(bp.add(c * 8));
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
        let mut total = hsum256(acc);
        for i in chunks * 8..n {
            total = a[i].mul_add(b[i], total);
        }
        total
    }

    /// Rows the block kernel keeps in flight, one accumulator register each.
    const IN_FLIGHT: usize = 4;

    /// [`dot`] of `a` against each row of a contiguous block, four rows
    /// (`IN_FLIGHT`) at a time: one load of the query chunk feeds that many
    /// independent FMA chains. Each chain is `dot`'s own (same operand
    /// order, chunk order, `hsum256` tree and scalar `mul_add` tail), so
    /// every `out[j]` is bit-identical to `dot(a, row_j)`; rows past the
    /// last full group go through `dot` itself. `rows.len()` must be
    /// `a.len() * out.len()` (rows or outputs beyond the shorter of the two
    /// are ignored, never read out of bounds).
    ///
    /// # Safety
    /// Requires AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_rows(a: &[f32], rows: &[f32], out: &mut [f32]) {
        let d = a.len();
        if d == 0 {
            // `chunks_exact(0)` panics; an empty dot is `hsum256(0) == 0.0`.
            out.fill(0.0);
            return;
        }
        let chunks = d / 8;
        let ap = a.as_ptr();
        let mut blocks = rows.chunks_exact(IN_FLIGHT * d);
        let mut groups = out.chunks_exact_mut(IN_FLIGHT);
        for (block, group) in blocks.by_ref().zip(groups.by_ref()) {
            let bp = block.as_ptr();
            let mut acc = [_mm256_setzero_ps(); IN_FLIGHT];
            for c in 0..chunks {
                // SAFETY (bounds): `c * 8 + 8 <= chunks * 8 <= d == a.len()`,
                // so the eight floats at `ap + c * 8` lie inside `a`; and for
                // `r < IN_FLIGHT` the eight at `bp + r * d + c * 8` end at or
                // before `r * d + d <= IN_FLIGHT * d`, which is `block.len()`
                // exactly (`chunks_exact`). Unaligned loads, so no alignment
                // requirement.
                let av = _mm256_loadu_ps(ap.add(c * 8));
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(r * d + c * 8)), *acc);
                }
            }
            let a_tail = &a[chunks * 8..];
            for (r, (o, acc)) in group.iter_mut().zip(acc).enumerate() {
                let mut total = hsum256(acc);
                for (x, y) in a_tail.iter().zip(&block[r * d + chunks * 8..(r + 1) * d]) {
                    total = x.mul_add(*y, total);
                }
                *o = total;
            }
        }
        super::dot_each_row(|a, row| dot(a, row), a, blocks.remainder(), groups.into_remainder());
    }

    /// [`dot`] of `a0` and of `a1` against each row of a contiguous block,
    /// four rows (`IN_FLIGHT`) at a time: one load of a row chunk feeds one
    /// FMA per query, so 2 × 4 independent chains are in flight. Each chain
    /// is `dot`'s own (same operand order, chunk order, reduction tree — see
    /// `hsum256x4` — and scalar `mul_add` tail), so `out0[j]` and `out1[j]`
    /// are bit-identical to `dot(a0, row_j)` and `dot(a1, row_j)` (input NaN
    /// payloads aside, as [`super::dot_rows2`] says); rows past the last full
    /// group go through `dot` itself. The shapes are
    /// [`super::dot_rows2`]'s: `a1` is sliced to `a0.len()` (so a shorter one
    /// panics), and rows or outputs beyond the shortest of the three are
    /// ignored, never read or written out of bounds.
    ///
    /// # Safety
    /// Requires AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_rows2(
        a0: &[f32],
        a1: &[f32],
        rows: &[f32],
        out0: &mut [f32],
        out1: &mut [f32],
    ) {
        let d = a0.len();
        if d == 0 {
            // As in `dot_rows`: an empty dot is `hsum256(0) == 0.0`.
            out0.fill(0.0);
            out1.fill(0.0);
            return;
        }
        let a1 = &a1[..d];
        let chunks = d / 8;
        let (p0, p1) = (a0.as_ptr(), a1.as_ptr());
        let mut blocks = rows.chunks_exact(IN_FLIGHT * d);
        let mut groups0 = out0.chunks_exact_mut(IN_FLIGHT);
        let mut groups1 = out1.chunks_exact_mut(IN_FLIGHT);
        for ((block, group0), group1) in blocks.by_ref().zip(groups0.by_ref()).zip(groups1.by_ref())
        {
            let bp = block.as_ptr();
            let mut acc0 = [_mm256_setzero_ps(); IN_FLIGHT];
            let mut acc1 = [_mm256_setzero_ps(); IN_FLIGHT];
            for c in 0..chunks {
                // SAFETY (bounds): `c * 8 + 8 <= chunks * 8 <= d`, and `a0`
                // and `a1` are both exactly `d` floats long (`a1` was sliced
                // to `d` above), so the eight floats at `p0 + c * 8` and at
                // `p1 + c * 8` lie inside them; for `r < IN_FLIGHT` the eight
                // at `bp + r * d + c * 8` end at or before
                // `r * d + d <= IN_FLIGHT * d`, which is `block.len()` exactly
                // (`chunks_exact`). Unaligned loads, so no alignment
                // requirement.
                let av0 = _mm256_loadu_ps(p0.add(c * 8));
                let av1 = _mm256_loadu_ps(p1.add(c * 8));
                for r in 0..IN_FLIGHT {
                    let bv = _mm256_loadu_ps(bp.add(r * d + c * 8));
                    acc0[r] = _mm256_fmadd_ps(av0, bv, acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(av1, bv, acc1[r]);
                }
            }
            for (a, acc, group) in [(a0, acc0, group0), (a1, acc1, group1)] {
                let mut sums = [0.0f32; IN_FLIGHT];
                // SAFETY (bounds): `sums` holds exactly the four floats stored.
                _mm_storeu_ps(sums.as_mut_ptr(), hsum256x4(acc));
                for (r, (o, mut total)) in group.iter_mut().zip(sums).enumerate() {
                    for (x, y) in
                        a[chunks * 8..].iter().zip(&block[r * d + chunks * 8..(r + 1) * d])
                    {
                        total = x.mul_add(*y, total);
                    }
                    *o = total;
                }
            }
        }
        let rest = blocks.remainder();
        super::dot_each_row(|a, row| dot(a, row), a0, rest, groups0.into_remainder());
        super::dot_each_row(|a, row| dot(a, row), a1, rest, groups1.into_remainder());
    }

    /// Fused 8-lane `y += s * x`.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slices must be equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let chunks = n / 8;
        let sv = _mm256_set1_ps(s);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        for c in 0..chunks {
            let xv = _mm256_loadu_ps(xp.add(c * 8));
            let yv = _mm256_loadu_ps(yp.add(c * 8));
            _mm256_storeu_ps(yp.add(c * 8), _mm256_fmadd_ps(sv, xv, yv));
        }
        for i in chunks * 8..n {
            y[i] = s.mul_add(x[i], y[i]);
        }
    }

    /// Fused 8-lane int8 scan: widen 8 codes to f32, FMA against the query.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slices must be equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_i8_scaled(codes: &[i8], q: &[f32], scale: f32) -> f32 {
        let n = codes.len();
        let chunks = n / 8;
        let cp = codes.as_ptr();
        let qp = q.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let raw = _mm_loadl_epi64(cp.add(c * 8) as *const __m128i);
            let cv = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
            let qv = _mm256_loadu_ps(qp.add(c * 8));
            acc = _mm256_fmadd_ps(cv, qv, acc);
        }
        let mut total = hsum256(acc);
        for i in chunks * 8..n {
            total = (codes[i] as f32).mul_add(q[i], total);
        }
        scale * total
    }

    /// Fused 8-lane squared L2 distance.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slices must be equal length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(c * 8)), _mm256_loadu_ps(bp.add(c * 8)));
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        let mut total = hsum256(acc);
        for i in chunks * 8..n {
            let d = a[i] - b[i];
            total = d.mul_add(d, total);
        }
        total
    }

    /// [`l2_sq`] of `q` against each row `ids` names, four rows
    /// (`IN_FLIGHT`) at a time: one load of the query chunk feeds that many
    /// independent subtract + FMA chains. Each chain is `l2_sq`'s own (same
    /// `q − row` operand order, chunk order, reduction tree — see
    /// `hsum256x4` — and scalar `mul_add` tail), so every `out[j]` is
    /// bit-identical to `l2_sq(q, row(ids[j]))`. A short last group repeats
    /// its last row to fill the four chains (a few cached loads) and writes
    /// only its own outputs. Rows are sliced out of `table` with bounds
    /// checks, so an id outside it panics instead of reading past it.
    /// `ids.len()` must equal `out.len()` (outputs left over by a mismatch
    /// are not written).
    ///
    /// # Safety
    /// Requires AVX2+FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
        let d = q.len();
        let chunks = d / 8;
        let qp = q.as_ptr();
        for (group, outs) in ids.chunks(IN_FLIGHT).zip(out.chunks_mut(IN_FLIGHT)) {
            let last = group.len() - 1;
            let row = |r: usize| &table[group[r.min(last)] as usize * d..][..d];
            let rows = [row(0), row(1), row(2), row(3)];
            let mut acc = [_mm256_setzero_ps(); IN_FLIGHT];
            for c in 0..chunks {
                // SAFETY (bounds): `c * 8 + 8 <= chunks * 8 <= d`, and `q`
                // and every `rows[r]` are exactly `d` floats long (the slice
                // above checked the row), so each eight-float load at offset
                // `c * 8` lies inside its slice. Unaligned loads, so no
                // alignment requirement.
                let qv = _mm256_loadu_ps(qp.add(c * 8));
                for (acc, row) in acc.iter_mut().zip(rows) {
                    let dv = _mm256_sub_ps(qv, _mm256_loadu_ps(row.as_ptr().add(c * 8)));
                    *acc = _mm256_fmadd_ps(dv, dv, *acc);
                }
            }
            let mut sums = [0.0f32; IN_FLIGHT];
            // SAFETY (bounds): `sums` holds exactly the four floats stored.
            _mm_storeu_ps(sums.as_mut_ptr(), hsum256x4(acc));
            for ((o, mut total), row) in outs.iter_mut().zip(sums).zip(rows) {
                for (x, y) in q[chunks * 8..].iter().zip(&row[chunks * 8..]) {
                    let dv = x - y;
                    total = dv.mul_add(dv, total);
                }
                *o = total;
            }
        }
    }

    /// [`hsum256`] of four registers at once, lane `r` of the result being
    /// `hsum256(v[r])` bit for bit: the same adds with the same operands in
    /// the same order (`lo + hi`, then `(l0+l4) + (l2+l6)` and
    /// `(l1+l5) + (l3+l7)`, then the first of those plus the second), with
    /// the shuffles moved so that one add serves four rows.
    ///
    /// # Safety
    /// Requires AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256x4(v: [__m256; IN_FLIGHT]) -> __m128 {
        // Row r: [l0+l4, l1+l5, l2+l6, l3+l7].
        let s = v.map(|v| _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1)));
        // [s0: (l0+l4)+(l2+l6), s1: same, s0: (l1+l5)+(l3+l7), s1: same].
        let s01 = _mm_add_ps(_mm_unpacklo_ps(s[0], s[1]), _mm_unpackhi_ps(s[0], s[1]));
        let s23 = _mm_add_ps(_mm_unpacklo_ps(s[2], s[3]), _mm_unpackhi_ps(s[2], s[3]));
        _mm_add_ps(_mm_movelh_ps(s01, s23), _mm_movehl_ps(s23, s01))
    }

    /// 8-lane `|x|` accumulation (sign-mask `andnot`, plain adds).
    ///
    /// # Safety
    /// Requires AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_norm(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / 8;
        let xp = x.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign, _mm256_loadu_ps(xp.add(c * 8))));
        }
        let mut total = hsum256(acc);
        for &v in &x[chunks * 8..n] {
            total += v.abs();
        }
        total
    }

    /// [`super::scalar::l2_sq_cols`] compiled for 256-bit registers: the same
    /// safe body, no intrinsics, so each block of columns is four 8-lane
    /// sub / mul / add chains and every output is still the scalar oracle's
    /// bits.
    ///
    /// `fma` is deliberately **not** enabled here, unlike this module's other
    /// kernels: their contract is "equal to the fused [`super::portable`]
    /// mirror", this one's is "equal to the unfused [`super::scalar::l2_sq`]",
    /// and without the feature no compiler setting can turn the loop's
    /// multiply-then-add into one rounding.
    ///
    /// # Safety
    /// Requires AVX2 support. That is the only requirement: the body is safe
    /// code (slices and fixed-size arrays, every index bounds-checked).
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq_cols(x: &[f32], cols: &[f32], stride: usize, out: &mut [f32]) {
        super::l2_sq_cols_body(x, cols, stride, out)
    }
}
