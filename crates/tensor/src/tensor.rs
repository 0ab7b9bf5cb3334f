//! Dense, row-major 2-D tensors.
//!
//! Every value flowing through the autodiff tape is a [`Tensor`]: a `Vec<f32>`
//! interpreted as a `rows x cols` matrix. Vectors are represented as `[n, 1]`
//! (column) or `[1, n]` (row) matrices and scalars as `[1, 1]`, which keeps
//! shape rules explicit — there is no implicit broadcasting anywhere in this
//! crate beyond the documented `*_row` / `*_rowvec` operations.
//!
//! The dense products fan out over the global pool by output rows. The NT
//! product (`matmul_nt`, `matmul_nt_rows`: all-item scoring, contrastive
//! logits, the serving tick) additionally runs **item-major**: the second
//! operand is swept in cache-sized blocks of rows and every output row of a
//! group is scored against a block, two output rows per
//! `imcat_simd::dot_rows2` call, before the next block is loaded — see
//! `Tensor::nt_product`. Every element of every product is the bits of one
//! fixed kernel sequence, so no result depends on the thread count or on
//! the blocking.

use std::fmt;

/// Minimum multiply-add count before a dense kernel pays for a pool dispatch;
/// below this the dispatch overhead exceeds the kernel itself.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 15;

/// Runs `body(row0, out_rows)` over groups of consecutive output rows
/// (`out_rows` holds whole rows, the first of them row `row0`), fanning
/// `groups_per_thread` groups per pool thread out over the global pool when
/// the kernel is large enough.
///
/// Determinism: groups are written to disjoint slices and the grouping only
/// affects scheduling, so as long as `body` computes each row independently
/// of which group it lands in, the result is bit-identical for any thread
/// count (including the serial fallback taken for small kernels, which is
/// one group of all `m` rows).
fn run_row_groups(
    m: usize,
    n: usize,
    flops: usize,
    groups_per_thread: usize,
    out: &mut [f32],
    body: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), m * n);
    if m > 1 && flops >= PAR_MIN_FLOPS && imcat_par::parallelism_available() {
        let pool = imcat_par::global();
        let rows_per = m.div_ceil(pool.threads() * groups_per_thread).max(1);
        pool.parallel_chunks_mut(out, rows_per * n, |ci, chunk| body(ci * rows_per, chunk));
    } else {
        body(0, out);
    }
}

/// [`run_row_groups`] for kernels that compute one output row at a time:
/// runs `body(row, out_row)` for every output row, exactly the serial
/// per-row computation whatever the thread count.
pub(crate) fn run_row_blocked(
    m: usize,
    n: usize,
    flops: usize,
    out: &mut [f32],
    body: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    // Rows of these kernels cost unevenly (zero skips, CSR row lengths):
    // four groups per thread keeps stragglers short without shrinking
    // groups below useful sizes.
    run_row_groups(m, n, flops, 4, out, &|row0, rows| {
        for (off, o_row) in rows.chunks_mut(n).enumerate() {
            body(row0 + off, o_row);
        }
    });
}

/// Floats of the second operand the NT product keeps cache-resident at a
/// time: 32 KB, i.e. 128 rows at the serving width of 64.
const NT_BLOCK_FLOATS: usize = 8192;

/// Rows of the second operand per block of the NT product at inner width
/// `k > 0`: what fits [`NT_BLOCK_FLOATS`], and never so few that a block
/// stops amortising the kernel call.
fn nt_block_rows(k: usize) -> usize {
    (NT_BLOCK_FLOATS / k).max(8)
}

/// A dense, row-major `rows x cols` matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Creates a `[1, 1]` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self { data: vec![value], rows: 1, cols: 1 }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Builds a tensor from nested rows; all rows must share one length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Self { data, rows: r, cols: c }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor. Panics on out-of-bounds in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-bounds in debug builds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols;
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The value of a `[1, 1]` tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a scalar tensor");
        self.data[0]
    }

    /// Returns the transposed matrix (copies).
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), rows: self.rows, cols: self.cols }
    }

    /// In-place `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += s * other`. Shapes must match.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        imcat_simd::axpy(s, &other.data, &mut self.data);
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Dense matrix product `self @ other` (`[m,k] x [k,n] -> [m,n]`).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul inner dimension mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let _sp = crate::obs_matmul(m, k, n);
        let mut out = Tensor::zeros(m, n);
        if n == 0 || k == 0 {
            return out;
        }
        // ikj loop order: streams through `other` and `out` rows contiguously.
        // Output rows are independent, so the row-blocked parallel fan-out
        // below is bit-identical to this serial loop for any thread count.
        let a_data = &self.data;
        let b_data = &other.data;
        let body = |i: usize, o_row: &mut [f32]| {
            let a_row = &a_data[i * k..(i + 1) * k];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                imcat_simd::axpy(a, &b_data[p * n..(p + 1) * n], o_row);
            }
        };
        run_row_blocked(m, n, m * k * n, &mut out.data, &body);
        out
    }

    /// Matrix product with the second operand transposed:
    /// `self @ other^T` (`[m,k] x [n,k]^T -> [m,n]`). Element `(i, j)` is
    /// `imcat_simd::dot(self.row(i), other.row(j))`, bit for bit.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt inner dimension mismatch: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        self.nt_product(self.rows, &|i| i, other)
    }

    /// [`matmul_nt`](Self::matmul_nt) over a selection of `self`'s rows:
    /// `self[rows] @ other^T` (`[r,k] x [n,k]^T -> [r,n]`). Bit-identical to
    /// copying the rows into a fresh tensor and calling `matmul_nt`, without
    /// the copy — this is the serving batch-scorer shape, where `rows` is a
    /// tick's worth of user ids against the full item table.
    pub fn matmul_nt_rows(&self, rows: &[u32], other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt_rows inner dimension mismatch: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        for &r in rows {
            assert!((r as usize) < self.rows, "row {r} out of bounds for {} rows", self.rows);
        }
        self.nt_product(rows.len(), &|i| rows[i] as usize, other)
    }

    /// The one NT body: output row `i` is `self.row(row_of(i))` against every
    /// row of `other`.
    ///
    /// The sweep is item-major. `other` is cut into blocks of
    /// [`nt_block_rows`] rows, small enough to stay in L1, and every output
    /// row of a group is scored against a block before the next block is
    /// touched — so `other` streams from memory once per group of output
    /// rows, not once per output row. Output rows are scored in pairs, one
    /// `imcat_simd::dot_rows2` call per pair and block, so each row chunk
    /// loaded from L1 feeds two queries' FMA chains; an odd last row of a
    /// group takes `imcat_simd::dot_rows`. Both are `dot`, pair for pair and
    /// bit for bit, so which rows share a call never shows. The pool splits
    /// over output rows and each worker sweeps the blocks for its own — but
    /// a single output row (one serving request) has nothing to split, so
    /// its item axis is split instead, in chunks of whole blocks, one
    /// `dot_rows` call per chunk. Every element is one `dot` whatever the
    /// split, so the result does not depend on the thread count.
    fn nt_product(
        &self,
        m: usize,
        row_of: &(dyn Fn(usize) -> usize + Sync),
        other: &Tensor,
    ) -> Tensor {
        let (k, n) = (self.cols, other.rows);
        let _sp = crate::obs_matmul(m, k, n);
        let mut out = Tensor::zeros(m, n);
        if n == 0 || k == 0 {
            return out;
        }
        let block_rows = nt_block_rows(k);
        if m == 1 && k * n >= PAR_MIN_FLOPS && imcat_par::parallelism_available() {
            let (query, chunk) = (self.row(row_of(0)), 8 * block_rows);
            imcat_par::global().parallel_chunks_mut(&mut out.data, chunk, |c, slots| {
                let first = c * chunk * k;
                imcat_simd::dot_rows(query, &other.data[first..first + slots.len() * k], slots);
            });
            return out;
        }
        let body = |row0: usize, o_rows: &mut [f32]| {
            for (b, block) in other.data.chunks(block_rows * k).enumerate() {
                let cols = b * block_rows..b * block_rows + block.len() / k;
                for (p, pair) in o_rows.chunks_mut(2 * n).enumerate() {
                    let i = row0 + 2 * p;
                    if pair.len() == n {
                        imcat_simd::dot_rows(self.row(row_of(i)), block, &mut pair[cols.clone()]);
                        continue;
                    }
                    let (o0, o1) = pair.split_at_mut(n);
                    imcat_simd::dot_rows2(
                        self.row(row_of(i)),
                        self.row(row_of(i + 1)),
                        block,
                        &mut o0[cols.clone()],
                        &mut o1[cols.clone()],
                    );
                }
            }
        };
        // One group per thread: NT rows cost the same, and every further
        // group is one more pass over `other`.
        run_row_groups(m, n, m * k * n, 1, &mut out.data, &body);
        out
    }

    /// Matrix product with the first operand transposed:
    /// `self^T @ other` (`[k,m]^T x [k,n] -> [m,n]`).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn inner dimension mismatch: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let _sp = crate::obs_matmul(m, k, n);
        let mut out = Tensor::zeros(m, n);
        if n == 0 || k == 0 {
            return out;
        }
        if m > 1 && m * k * n >= PAR_MIN_FLOPS && imcat_par::parallelism_available() {
            // Row-blocked variant: each output row accumulates over ascending
            // `p` with the same `a == 0` skip as the serial loop below, so the
            // per-element operation sequence — and therefore every bit of the
            // result — is identical.
            let a_data = &self.data;
            let b_data = &other.data;
            let body = |i: usize, o_row: &mut [f32]| {
                for p in 0..k {
                    let a = a_data[p * m + i];
                    if a == 0.0 {
                        continue;
                    }
                    imcat_simd::axpy(a, &b_data[p * n..(p + 1) * n], o_row);
                }
            };
            run_row_blocked(m, n, m * k * n, &mut out.data, &body);
        } else {
            // Serial pki order streams through `self` and `other` rows
            // contiguously (better locality than the row-blocked variant).
            for p in 0..k {
                let a_row = &self.data[p * m..(p + 1) * m];
                let b_row = &other.data[p * n..(p + 1) * n];
                for (i, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    imcat_simd::axpy(a, b_row, &mut out.data[i * n..(i + 1) * n]);
                }
            }
        }
        out
    }

    /// True when every pairwise difference is within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.rows_iter().enumerate().take(max_rows) {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate().take(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
            if i + 1 == max_rows && self.rows > max_rows {
                writeln!(f, "  ...")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(4, 3, vec![1., 0., 1., 2., 1., 0., 0., 3., 1., 1., 1., 1.]);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transposed());
        assert!(via_nt.approx_eq(&via_t, 1e-6));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        let via_tn = a.matmul_tn(&b);
        let via_t = a.transposed().matmul(&b);
        assert!(via_tn.approx_eq(&via_t, 1e-6));
    }

    /// Both NT products are one `imcat_simd::dot` per element, bit for bit,
    /// at every awkward shape: inner widths around the 8-lane chunk, item
    /// counts one below / at / above a block boundary and off the kernel's
    /// four-row group, output row counts that pair up evenly or leave an odd
    /// row for `dot_rows`, repeated and unsorted row selections — and at pool
    /// sizes 1 and 4, since the split over output rows (and so which rows
    /// share a `dot_rows2` call) must not show. At the serving widths one
    /// more item count is large enough for a single row at 4 threads to be
    /// split over the item axis, with a ragged last chunk.
    #[test]
    fn matmul_nt_rows_matches_copy_then_matmul_nt_bitwise() {
        let fill = |rows: usize, cols: usize, salt: usize| {
            let v = |x: usize| ((x * 37 + salt * 11) % 101) as f32 * 0.173 - 8.0;
            Tensor::from_vec(rows, cols, (0..rows * cols).map(v).collect())
        };
        let same_bits = |x: &Tensor, y: &Tensor, what: &str| {
            assert_eq!(x.shape(), y.shape(), "{what}");
            for (i, (p, q)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}: element {i}");
            }
        };
        for threads in [1, 4] {
            imcat_par::set_threads(threads);
            for k in [1usize, 7, 8, 9, 64, 65] {
                let block = nt_block_rows(k);
                let item_split = (k >= 64).then_some(2 * 8 * block + 3);
                for n in [block - 1, block, block + 1, 2 * block + 3].into_iter().chain(item_split)
                {
                    let a = fill(23, k, 1);
                    let b = fill(n, k, 2);
                    for m in [1usize, 2, 3, 4, 8, 17] {
                        let what = format!("threads={threads} k={k} n={n} m={m}");
                        // Unsorted, with repeats once `m` passes 4.
                        let rows: Vec<u32> =
                            (0..m).map(|i| ((i % 4) * 7 + 3) as u32 % 23).collect();
                        let mut naive = Tensor::zeros(m, n);
                        let mut copied = Tensor::zeros(m, k);
                        for (i, &r) in rows.iter().enumerate() {
                            copied.row_mut(i).copy_from_slice(a.row(r as usize));
                            for j in 0..n {
                                naive.set(i, j, imcat_simd::dot(a.row(r as usize), b.row(j)));
                            }
                        }
                        same_bits(&a.matmul_nt_rows(&rows, &b), &naive, &what);
                        same_bits(&copied.matmul_nt(&b), &naive, &what);
                    }
                }
            }
        }
        imcat_par::set_threads(imcat_par::default_threads());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert!(a.transposed().transposed().approx_eq(&a, 0.0));
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11., 22., 33.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[16., 32., 48.]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn reduction_helpers() {
        let t = Tensor::from_vec(2, 2, vec![1., -2., 3., -4.]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.sq_norm(), 30.0);
        assert_eq!(t.max_abs(), 4.0);
    }
}
