//! Kernel oracle tests.
//!
//! Three contracts, in decreasing strictness:
//! 1. `scalar::*` is bit-identical to the naive historical loops (restated
//!    literally here), at every awkward length.
//! 2. On AVX2 hosts, the intrinsic kernels are bit-identical to their
//!    [`imcat_simd::portable`] mirrors — the mirror IS the spec of the
//!    intrinsics.
//! 3. The Avx2 backend agrees with the Scalar oracle within a forward-error
//!    tolerance, at awkward lengths and under proptest-random inputs.
//! 4. `dot_rows` is `dot`, pair for pair and bit for bit, in all three forms
//!    and at every awkward width and row count; a wrong shape panics.
//! 5. `l2_sq_cols` is `scalar::l2_sq`, pair for pair and bit for bit, on
//!    *both* backends (it is the one kernel whose fast form keeps the scalar
//!    oracle's bits), at awkward column counts and widths, and on special
//!    values; padding is never reported; a wrong shape panics.
//! 6. `l2_sq_gather` is `l2_sq`, pair for pair and bit for bit, in all three
//!    forms, over id lists with repeats, descending runs and the last row, and
//!    on special values; a bad id panics before any row is read.
//! 7. `dot_rows2` is `dot` for both of its queries, pair for pair and bit for
//!    bit, in all three forms and at every awkward width and row count, and on
//!    special values (input NaN payloads: a NaN where `dot`'s is); a wrong
//!    shape panics before anything is read.

use imcat_simd::{portable, scalar, Backend};
use proptest::prelude::*;

/// Lengths that stress every dispatch edge: empty, sub-lane, exactly one
/// lane, lane+1, the serving dims, and a large non-multiple-of-8.
const AWKWARD: &[usize] = &[0, 1, 7, 8, 9, 64, 128, 4095];

/// Deterministic mixed-magnitude test vector.
fn vector(seed: u64, n: usize) -> Vec<f32> {
    let mut gen = Gen::new(seed);
    (0..n)
        .map(|_| {
            let mag = 10f64.powi(gen.below(5) as i32 - 2);
            ((gen.unit_f64() * 2.0 - 1.0) * mag) as f32
        })
        .collect()
}

fn codes(seed: u64, n: usize) -> Vec<i8> {
    let mut gen = Gen::new(seed);
    (0..n).map(|_| (gen.below(255) as i64 - 127) as i8).collect()
}

/// Forward-error tolerance for comparing two summation orders of the same
/// inner product: a few ulps per accumulated term.
fn dot_tol(terms: impl Iterator<Item = f32>, n: usize) -> f32 {
    let l1: f32 = terms.map(|t| t.abs()).sum();
    8.0 * (n as f32 + 8.0) * f32::EPSILON * l1 + 1e-30
}

// ---------------------------------------------------------------------------
// Contract 1: scalar == historical naive loops, bitwise.
// ---------------------------------------------------------------------------

#[test]
fn scalar_matches_naive_loops_bitwise() {
    for &n in AWKWARD {
        let a = vector(0x5eed ^ n as u64, n);
        let b = vector(0xbeef ^ n as u64, n);
        let c = codes(0xc0de ^ n as u64, n);

        let mut naive_dot = 0.0f32;
        for i in 0..n {
            naive_dot += a[i] * b[i];
        }
        assert_eq!(scalar::dot(&a, &b).to_bits(), naive_dot.to_bits(), "dot n={n}");

        let mut y = b.clone();
        let mut naive_y = b.clone();
        scalar::axpy(0.37, &a, &mut y);
        for i in 0..n {
            naive_y[i] += 0.37 * a[i];
        }
        for i in 0..n {
            assert_eq!(y[i].to_bits(), naive_y[i].to_bits(), "axpy n={n} i={i}");
        }

        let mut naive_q = 0.0f32;
        for i in 0..n {
            naive_q += c[i] as f32 * a[i];
        }
        let scale = 0.011_f32;
        assert_eq!(
            scalar::dot_i8_scaled(&c, &a, scale).to_bits(),
            (scale * naive_q).to_bits(),
            "dot_i8_scaled n={n}"
        );

        let mut naive_l2 = 0.0f32;
        for i in 0..n {
            let d = a[i] - b[i];
            naive_l2 += d * d;
        }
        assert_eq!(scalar::l2_sq(&a, &b).to_bits(), naive_l2.to_bits(), "l2_sq n={n}");

        let mut naive_l1 = 0.0f32;
        for &v in &a {
            naive_l1 += v.abs();
        }
        assert_eq!(scalar::l1_norm(&a).to_bits(), naive_l1.to_bits(), "l1_norm n={n}");
    }
}

// ---------------------------------------------------------------------------
// Contract 2: AVX2 intrinsics == portable mirror, bitwise (AVX2 hosts).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_intrinsics_match_portable_mirror_bitwise() {
    if !imcat_simd::avx2_detected() {
        eprintln!("skipping: host has no AVX2+FMA");
        return;
    }
    for &n in AWKWARD {
        for seed in 0..4u64 {
            let a = vector(seed * 7919 + 1 + n as u64, n);
            let b = vector(seed * 104_729 + 2 + n as u64, n);
            let c = codes(seed * 31 + 3 + n as u64, n);
            // SAFETY: avx2_detected() checked above.
            unsafe {
                assert_eq!(
                    imcat_simd::avx2::dot(&a, &b).to_bits(),
                    portable::dot(&a, &b).to_bits(),
                    "dot n={n} seed={seed}"
                );
                let mut y_i = b.clone();
                let mut y_p = b.clone();
                imcat_simd::avx2::axpy(-1.73, &a, &mut y_i);
                portable::axpy(-1.73, &a, &mut y_p);
                for i in 0..n {
                    assert_eq!(y_i[i].to_bits(), y_p[i].to_bits(), "axpy n={n} i={i}");
                }
                assert_eq!(
                    imcat_simd::avx2::dot_i8_scaled(&c, &a, 0.007).to_bits(),
                    portable::dot_i8_scaled(&c, &a, 0.007).to_bits(),
                    "dot_i8_scaled n={n} seed={seed}"
                );
                assert_eq!(
                    imcat_simd::avx2::l2_sq(&a, &b).to_bits(),
                    portable::l2_sq(&a, &b).to_bits(),
                    "l2_sq n={n} seed={seed}"
                );
                assert_eq!(
                    imcat_simd::avx2::l1_norm(&a).to_bits(),
                    portable::l1_norm(&a).to_bits(),
                    "l1_norm n={n} seed={seed}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 3: Avx2 backend vs Scalar oracle, tolerance, every dispatch path.
// ---------------------------------------------------------------------------

#[test]
fn avx2_backend_matches_scalar_oracle_at_awkward_lengths() {
    for &n in AWKWARD {
        let a = vector(0x11 + n as u64, n);
        let b = vector(0x22 + n as u64, n);
        let c = codes(0x33 + n as u64, n);

        let tol = dot_tol(a.iter().zip(&b).map(|(x, y)| x * y), n);
        let exact = imcat_simd::dot_with(Backend::Scalar, &a, &b);
        let fast = imcat_simd::dot_with(Backend::Avx2, &a, &b);
        assert!((exact - fast).abs() <= tol, "dot n={n}: {exact} vs {fast} tol={tol}");

        let mut y_s = b.clone();
        let mut y_v = b.clone();
        imcat_simd::axpy_with(Backend::Scalar, 2.5, &a, &mut y_s);
        imcat_simd::axpy_with(Backend::Avx2, 2.5, &a, &mut y_v);
        for i in 0..n {
            let t = 8.0 * f32::EPSILON * (y_s[i].abs() + (2.5 * a[i]).abs()) + 1e-30;
            assert!((y_s[i] - y_v[i]).abs() <= t, "axpy n={n} i={i}");
        }

        let qt = dot_tol(c.iter().zip(&a).map(|(x, y)| *x as f32 * y), n);
        let q_s = imcat_simd::dot_i8_scaled_with(Backend::Scalar, &c, &a, 0.01);
        let q_v = imcat_simd::dot_i8_scaled_with(Backend::Avx2, &c, &a, 0.01);
        assert!((q_s - q_v).abs() <= 0.01 * qt + 1e-30, "dot_i8 n={n}: {q_s} vs {q_v}");

        let lt = dot_tol(a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)), n);
        let l_s = imcat_simd::l2_sq_with(Backend::Scalar, &a, &b);
        let l_v = imcat_simd::l2_sq_with(Backend::Avx2, &a, &b);
        assert!((l_s - l_v).abs() <= lt, "l2_sq n={n}: {l_s} vs {l_v}");

        let nt = dot_tol(a.iter().copied(), n);
        let n_s = imcat_simd::l1_norm_with(Backend::Scalar, &a);
        let n_v = imcat_simd::l1_norm_with(Backend::Avx2, &a);
        assert!((n_s - n_v).abs() <= nt, "l1_norm n={n}: {n_s} vs {n_v}");
    }
}

#[test]
fn empty_inputs_are_exact_zero_on_both_backends() {
    for bk in [Backend::Scalar, Backend::Avx2] {
        assert_eq!(imcat_simd::dot_with(bk, &[], &[]), 0.0);
        assert_eq!(imcat_simd::dot_i8_scaled_with(bk, &[], &[], 3.0), 0.0);
        assert_eq!(imcat_simd::l2_sq_with(bk, &[], &[]), 0.0);
        assert_eq!(imcat_simd::l1_norm_with(bk, &[]), 0.0);
        imcat_simd::axpy_with(bk, 1.0, &[], &mut []);
    }
}

#[test]
fn process_backend_matches_its_explicit_variant() {
    let a = vector(1, 129);
    let b = vector(2, 129);
    let bk = imcat_simd::backend();
    assert_eq!(imcat_simd::dot(&a, &b).to_bits(), imcat_simd::dot_with(bk, &a, &b).to_bits());
}

// ---------------------------------------------------------------------------
// Contract 4: dot_rows == per-pair dot, bitwise, in every form.
// ---------------------------------------------------------------------------

/// Widths around the 8-lane chunk and the serving width, and a long odd one.
const ROW_DIMS: &[usize] = &[0, 1, 7, 8, 9, 63, 64, 65, 4095];
/// Row counts around the rows-in-flight group (4) and the tensor block (128).
const ROW_COUNTS: &[usize] = &[0, 1, 3, 4, 5, 127, 128, 129];

/// Every (width, row count) shape with a query and a block of rows.
fn row_blocks() -> impl Iterator<Item = (Vec<f32>, Vec<f32>, usize)> {
    ROW_DIMS.iter().flat_map(|&d| {
        ROW_COUNTS.iter().map(move |&n| {
            let seed = (d * 1000 + n) as u64;
            (vector(0xa ^ seed, d), vector(0xb0 ^ seed, d * n), n)
        })
    })
}

/// Row `j` of a block of `d`-wide rows.
fn row(rows: &[f32], d: usize, j: usize) -> &[f32] {
    &rows[j * d..(j + 1) * d]
}

#[test]
fn dot_rows_matches_per_pair_dot_bitwise_on_both_backends() {
    for (a, rows, n) in row_blocks() {
        let d = a.len();
        for bk in [Backend::Scalar, Backend::Avx2] {
            // Poisoned, so an element the kernel skipped cannot pass.
            let mut out = vec![f32::NAN; n];
            imcat_simd::dot_rows_with(bk, &a, &rows, &mut out);
            for (j, o) in out.iter().enumerate() {
                let want = imcat_simd::dot_with(bk, &a, row(&rows, d, j));
                assert_eq!(o.to_bits(), want.to_bits(), "{bk:?} d={d} n={n} row {j}");
            }
        }
        let mut out = vec![f32::NAN; n];
        imcat_simd::dot_rows(&a, &rows, &mut out);
        for (j, o) in out.iter().enumerate() {
            assert_eq!(o.to_bits(), imcat_simd::dot(&a, row(&rows, d, j)).to_bits());
        }
    }
}

#[test]
fn scalar_dot_rows_matches_naive_loop_bitwise() {
    for (a, rows, n) in row_blocks() {
        let d = a.len();
        let mut out = vec![f32::NAN; n];
        scalar::dot_rows(&a, &rows, &mut out);
        for (j, o) in out.iter().enumerate() {
            let mut naive = 0.0f32;
            for i in 0..d {
                naive += a[i] * rows[j * d + i];
            }
            assert_eq!(o.to_bits(), naive.to_bits(), "d={d} n={n} row {j}");
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_dot_rows_matches_portable_mirror_bitwise() {
    if !imcat_simd::avx2_detected() {
        eprintln!("skipping: host has no AVX2+FMA");
        return;
    }
    for (a, rows, n) in row_blocks() {
        let mut intrinsic = vec![f32::NAN; n];
        let mut mirror = vec![f32::NAN; n];
        // SAFETY: avx2_detected() checked above; `rows` is `n` rows of `a.len()`.
        unsafe { imcat_simd::avx2::dot_rows(&a, &rows, &mut intrinsic) };
        portable::dot_rows(&a, &rows, &mut mirror);
        for j in 0..n {
            assert_eq!(intrinsic[j].to_bits(), mirror[j].to_bits(), "d={} n={n} row {j}", a.len());
        }
    }
}

/// NaN payloads and signed zeros/infinities take the same path through the
/// block kernel as through `dot` (same operand order in every FMA).
#[test]
fn dot_rows_matches_dot_bitwise_on_special_values() {
    let special = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.0e-40, -3.5];
    let mut gen = Gen::new(0x5bec1a1);
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n).map(|_| special[gen.below(special.len() as u64) as usize]).collect()
    };
    for d in [1usize, 8, 13, 64] {
        let (a, rows) = (draw(d), draw(d * 9));
        for bk in [Backend::Scalar, Backend::Avx2] {
            let mut out = vec![0.0f32; 9];
            imcat_simd::dot_rows_with(bk, &a, &rows, &mut out);
            for (j, o) in out.iter().enumerate() {
                let want = imcat_simd::dot_with(bk, &a, row(&rows, d, j));
                assert_eq!(o.to_bits(), want.to_bits(), "{bk:?} d={d} row {j}");
            }
        }
    }
}

/// A block that is not `out.len()` rows of `a.len()` — an element short, a
/// row long, a row short, empty — is refused up front on every backend,
/// before any element is read.
#[test]
fn dot_rows_shape_mismatch_panics_with_a_message() {
    let a = vector(1, 8);
    let rows = vector(2, 8 * 4);
    for bk in [Backend::Scalar, Backend::Avx2] {
        for (rows, outs) in [(&rows[..31], 4usize), (&rows[..], 3), (&rows[..], 5), (&rows[..0], 1)]
        {
            let caught = std::panic::catch_unwind(|| {
                let mut out = vec![0.0f32; outs];
                imcat_simd::dot_rows_with(bk, &a, rows, &mut out);
            });
            let msg = caught.expect_err("a wrong shape must panic");
            let msg = msg.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("dot_rows"), "{bk:?}: unhelpful message: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 5: l2_sq_cols == per-column scalar::l2_sq, bitwise, every backend.
// ---------------------------------------------------------------------------

/// Column counts around the 32-lane block, and the serving `nlist`.
const COL_COUNTS: &[usize] = &[1, 31, 32, 33, 400];
/// Widths: empty, one, odd sub-lane, and the augmented serving width.
const COL_DIMS: &[usize] = &[0, 1, 7, 65];

/// Column `j` of a dim-major matrix, gathered into a contiguous vector.
fn column(cols: &[f32], stride: usize, d: usize, j: usize) -> Vec<f32> {
    (0..d).map(|c| cols[c * stride + j]).collect()
}

/// Strides a caller may pass for `k` columns: padded to whole blocks, and
/// padded by a spare block on top.
fn strides(k: usize) -> [usize; 2] {
    let lanes = imcat_simd::L2_COLS_LANES;
    [k.next_multiple_of(lanes), k.next_multiple_of(lanes) + lanes]
}

/// Equal bits — or both NaN: which payload survives `NaN + NaN` is the
/// compiler's operand order in each copy of the loop, not the kernel's.
fn same_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Every backend's `out[j]` is `scalar::l2_sq(x, column_j)`. The output is
/// poisoned with a value no distance can take, so a skipped element fails.
fn assert_cols_are_scalar_l2_sq(x: &[f32], cols: &[f32], stride: usize, k: usize) {
    let d = x.len();
    let want: Vec<f32> = (0..k).map(|j| scalar::l2_sq(x, &column(cols, stride, d, j))).collect();
    let check = |label: &str, out: &[f32]| {
        for j in 0..k {
            assert!(
                same_f32(out[j], want[j]),
                "{label} d={d} k={k} stride={stride} column {j}: {:?} != {:?}",
                out[j],
                want[j]
            );
        }
    };
    for bk in [Backend::Scalar, Backend::Avx2] {
        let mut out = vec![-1.0f32; k];
        imcat_simd::l2_sq_cols_with(bk, x, cols, stride, &mut out);
        check(bk.name(), &out);
    }
    let mut out = vec![-1.0f32; k];
    imcat_simd::l2_sq_cols(x, cols, stride, &mut out);
    check("process", &out);
    #[cfg(target_arch = "x86_64")]
    if imcat_simd::avx2_detected() {
        let mut out = vec![-1.0f32; k];
        // SAFETY: avx2_detected() checked above.
        unsafe { imcat_simd::avx2::l2_sq_cols(x, cols, stride, &mut out) };
        check("avx2 copy", &out);
    }
}

#[test]
fn l2_sq_cols_matches_scalar_l2_sq_bitwise_on_both_backends() {
    for &d in COL_DIMS {
        for &k in COL_COUNTS {
            for stride in strides(k) {
                let seed = (d * 100_000 + k * 100 + stride) as u64;
                let x = vector(0xc01 ^ seed, d);
                // Padding columns carry values like any other: the kernel may
                // read them, and must not let them reach `out`.
                let cols = vector(0xc02 ^ seed, d * stride);
                assert_cols_are_scalar_l2_sq(&x, &cols, stride, k);
            }
        }
    }
    // No columns at all, with and without a stride to skip.
    assert_cols_are_scalar_l2_sq(&vector(1, 5), &[], 0, 0);
    assert_cols_are_scalar_l2_sq(&vector(1, 5), &vector(2, 5 * 64), 64, 0);
}

/// NaN, infinities (whose difference is NaN), signed zeros, subnormals and a
/// magnitude whose square overflows go through every lane as through the
/// scalar loop: same subtraction order, unfused multiply and add.
#[test]
fn l2_sq_cols_matches_scalar_l2_sq_on_special_values() {
    let special = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::MIN_POSITIVE,
        3.0e38,
        -3.5,
        0.1,
    ];
    let mut gen = Gen::new(0x12_5bec1a1);
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n).map(|_| special[gen.below(special.len() as u64) as usize]).collect()
    };
    for d in [1usize, 7, 65] {
        for k in [1usize, 31, 33, 70] {
            for stride in strides(k) {
                let (x, cols) = (draw(d), draw(d * stride));
                assert_cols_are_scalar_l2_sq(&x, &cols, stride, k);
            }
        }
    }
}

/// More outputs than the stride holds, a matrix that is not `x.len()` rows
/// of `stride`, or a stride that is not whole blocks of lanes, is refused up
/// front on every backend.
#[test]
fn l2_sq_cols_shape_mismatch_panics_with_a_message() {
    let x = vector(1, 8);
    let cols = vector(2, 8 * 64);
    for bk in [Backend::Scalar, Backend::Avx2] {
        for (cols, stride, outs) in [
            (&cols[..], 64usize, 65usize),
            (&cols[..511], 64, 40),
            (&cols[..], 32, 32),
            (&cols[..8 * 40], 40, 40),
            (&cols[..0], 64, 1),
        ] {
            let caught = std::panic::catch_unwind(|| {
                let mut out = vec![0.0f32; outs];
                imcat_simd::l2_sq_cols_with(bk, &x, cols, stride, &mut out);
            });
            let msg = caught.expect_err("a wrong shape must panic");
            let msg = msg.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("l2_sq_cols"), "{bk:?}: unhelpful message: {msg}");
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 6: l2_sq_gather == per-pair l2_sq on gathered rows, bitwise.
// ---------------------------------------------------------------------------

/// Widths around the 8-lane chunk and the serving width.
const GATHER_DIMS: &[usize] = &[0, 1, 7, 8, 9, 63, 64, 65];
/// Id counts around the rows-in-flight group (4), and a long odd one.
const GATHER_COUNTS: &[usize] = &[0, 1, 3, 4, 5, 33];
/// Rows in the gathered table.
const GATHER_ROWS: usize = 40;

/// `len` ids into a table of `rows` rows that walk down from the last row,
/// repeat the id before them, jump anywhere and hit row 0 in turn — so a
/// group of four holds descending, repeated and scattered rows at once, and
/// a single id is the last row.
fn gather_ids(seed: u64, len: usize, rows: usize) -> Vec<u32> {
    let mut gen = Gen::new(seed);
    let mut ids: Vec<u32> = Vec::with_capacity(len);
    for j in 0..len {
        let id = match j % 4 {
            0 => rows - 1 - (j / 4) % rows,
            1 => ids[j - 1] as usize,
            2 => gen.below(rows as u64) as usize,
            _ => 0,
        };
        ids.push(id as u32);
    }
    ids
}

/// Every backend's and the process dispatcher's `out[j]` is that backend's
/// `l2_sq(q, row(ids[j]))`, bit for bit, into an output poisoned with a
/// value no distance takes.
fn assert_gather_is_l2_sq(q: &[f32], table: &[f32], ids: &[u32]) {
    let d = q.len();
    for bk in [Backend::Scalar, Backend::Avx2] {
        let mut out = vec![-1.0f32; ids.len()];
        imcat_simd::l2_sq_gather_with(bk, q, table, ids, &mut out);
        for (j, (&id, o)) in ids.iter().zip(&out).enumerate() {
            let want = imcat_simd::l2_sq_with(bk, q, row(table, d, id as usize));
            assert_eq!(o.to_bits(), want.to_bits(), "{bk:?} d={d} ids={ids:?} out {j}");
        }
    }
    let mut out = vec![-1.0f32; ids.len()];
    imcat_simd::l2_sq_gather(q, table, ids, &mut out);
    for (&id, o) in ids.iter().zip(&out) {
        assert_eq!(o.to_bits(), imcat_simd::l2_sq(q, row(table, d, id as usize)).to_bits());
    }
}

#[test]
fn l2_sq_gather_matches_per_pair_l2_sq_bitwise_on_both_backends() {
    for &d in GATHER_DIMS {
        for &len in GATHER_COUNTS {
            let seed = (d * 1000 + len) as u64;
            let (q, table) = (vector(0x9a ^ seed, d), vector(0x9b0 ^ seed, d * GATHER_ROWS));
            assert_gather_is_l2_sq(&q, &table, &gather_ids(seed, len, GATHER_ROWS));
        }
    }
}

#[test]
fn scalar_l2_sq_gather_matches_naive_loop_bitwise() {
    for &d in GATHER_DIMS {
        for &len in GATHER_COUNTS {
            let seed = (d * 1000 + len) as u64;
            let (q, table) = (vector(0x9c ^ seed, d), vector(0x9d0 ^ seed, d * GATHER_ROWS));
            let ids = gather_ids(seed, len, GATHER_ROWS);
            let mut out = vec![f32::NAN; len];
            scalar::l2_sq_gather(&q, &table, &ids, &mut out);
            for (j, &id) in ids.iter().enumerate() {
                let mut naive = 0.0f32;
                for i in 0..d {
                    let diff = q[i] - table[id as usize * d + i];
                    naive += diff * diff;
                }
                assert_eq!(out[j].to_bits(), naive.to_bits(), "d={d} ids={ids:?} out {j}");
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_l2_sq_gather_matches_portable_mirror_bitwise() {
    if !imcat_simd::avx2_detected() {
        eprintln!("skipping: host has no AVX2+FMA");
        return;
    }
    for &d in GATHER_DIMS {
        for &len in GATHER_COUNTS {
            let seed = (d * 1000 + len) as u64;
            let (q, table) = (vector(0x9e ^ seed, d), vector(0x9f0 ^ seed, d * GATHER_ROWS));
            let ids = gather_ids(seed, len, GATHER_ROWS);
            let mut intrinsic = vec![f32::NAN; len];
            let mut mirror = vec![f32::NAN; len];
            // SAFETY: avx2_detected() checked above; every id is a row of `table`.
            unsafe { imcat_simd::avx2::l2_sq_gather(&q, &table, &ids, &mut intrinsic) };
            portable::l2_sq_gather(&q, &table, &ids, &mut mirror);
            for j in 0..len {
                assert_eq!(intrinsic[j].to_bits(), mirror[j].to_bits(), "d={d} ids={ids:?} {j}");
            }
        }
    }
}

/// NaN (both signs), infinities (whose difference is NaN), signed zeros and
/// subnormals take the same path through the gathered chains as through
/// `l2_sq`: same subtraction order, same fused chain, same tail.
#[test]
fn l2_sq_gather_matches_l2_sq_on_special_values() {
    let special = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::MIN_POSITIVE,
        -3.5,
        0.1,
    ];
    let mut gen = Gen::new(0x6a_5bec1a1);
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n).map(|_| special[gen.below(special.len() as u64) as usize]).collect()
    };
    for d in [1usize, 8, 13, 64, 65] {
        for len in [1usize, 4, 5, 33] {
            let (q, table) = (draw(d), draw(d * GATHER_ROWS));
            let ids = gather_ids((d * 100 + len) as u64, len, GATHER_ROWS);
            assert_gather_is_l2_sq(&q, &table, &ids);
            #[cfg(target_arch = "x86_64")]
            if imcat_simd::avx2_detected() {
                let mut intrinsic = vec![-1.0f32; len];
                let mut mirror = vec![-1.0f32; len];
                // SAFETY: avx2_detected() checked above; every id is a row of `table`.
                unsafe { imcat_simd::avx2::l2_sq_gather(&q, &table, &ids, &mut intrinsic) };
                portable::l2_sq_gather(&q, &table, &ids, &mut mirror);
                for j in 0..len {
                    assert!(same_f32(intrinsic[j], mirror[j]), "d={d} ids={ids:?} {j}");
                }
            }
        }
    }
}

/// An id past the table's last row — at the end of a list whose other ids
/// are fine, or `u32::MAX` — and an output of the wrong length are refused
/// on every backend before any row is read: the poisoned output is still
/// untouched after the panic.
#[test]
fn l2_sq_gather_out_of_range_id_panics_before_any_read() {
    let q = vector(1, 8);
    let table = vector(2, 8 * 5);
    for bk in [Backend::Scalar, Backend::Avx2] {
        for (ids, outs) in [
            (vec![0u32, 1, 2, 3, 4, 4, 5], 7usize),
            (vec![u32::MAX], 1),
            (vec![5, 0, 0, 0], 4),
            (vec![0, 1], 3),
        ] {
            let mut out = vec![-1.0f32; outs];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                imcat_simd::l2_sq_gather_with(bk, &q, &table, &ids, &mut out);
            }));
            let msg = caught.expect_err("a bad id or shape must panic");
            let msg = msg.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("l2_sq_gather"), "{bk:?}: unhelpful message: {msg}");
            assert!(out.iter().all(|&o| o == -1.0), "{bk:?} ids={ids:?}: wrote before panicking");
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 7: dot_rows2 == per-pair dot for both queries, bitwise.
// ---------------------------------------------------------------------------

/// Widths around the 8-lane chunk and the serving width.
const PAIR_DIMS: &[usize] = &[0, 1, 7, 8, 9, 63, 64, 65];

/// Every (width, row count) shape with two queries and a block of rows.
fn pair_blocks() -> impl Iterator<Item = (Vec<f32>, Vec<f32>, Vec<f32>, usize)> {
    PAIR_DIMS.iter().flat_map(|&d| {
        ROW_COUNTS.iter().map(move |&n| {
            let seed = (d * 1000 + n) as u64;
            (vector(0x2a ^ seed, d), vector(0x2b ^ seed, d), vector(0x2c0 ^ seed, d * n), n)
        })
    })
}

/// `dot_rows2_with(bk, ..)` into NaN-poisoned outputs (a skipped element
/// cannot pass): both outputs, in order.
fn rows2(bk: Backend, a0: &[f32], a1: &[f32], rows: &[f32], n: usize) -> [Vec<f32>; 2] {
    let (mut out0, mut out1) = (vec![f32::NAN; n], vec![f32::NAN; n]);
    imcat_simd::dot_rows2_with(bk, a0, a1, rows, &mut out0, &mut out1);
    [out0, out1]
}

/// Both of `outs` are `bk`'s per-pair `dot` of their query against every row.
fn assert_rows2_is_dot(bk: Backend, queries: [&[f32]; 2], rows: &[f32], outs: &[Vec<f32>; 2]) {
    for (q, (a, out)) in queries.iter().zip(outs).enumerate() {
        let d = a.len();
        for (j, o) in out.iter().enumerate() {
            let want = imcat_simd::dot_with(bk, a, row(rows, d, j));
            assert_eq!(o.to_bits(), want.to_bits(), "{bk:?} d={d} query {q} row {j}");
        }
    }
}

#[test]
fn dot_rows2_matches_per_pair_dot_bitwise_on_both_backends() {
    for (a0, a1, rows, n) in pair_blocks() {
        for bk in [Backend::Scalar, Backend::Avx2] {
            let outs = rows2(bk, &a0, &a1, &rows, n);
            assert_rows2_is_dot(bk, [&a0, &a1], &rows, &outs);
        }
        let (mut out0, mut out1) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        imcat_simd::dot_rows2(&a0, &a1, &rows, &mut out0, &mut out1);
        assert_rows2_is_dot(imcat_simd::backend(), [&a0, &a1], &rows, &[out0, out1]);
    }
}

#[test]
fn scalar_dot_rows2_matches_naive_loop_bitwise() {
    for (a0, a1, rows, n) in pair_blocks() {
        let d = a0.len();
        let (mut out0, mut out1) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        scalar::dot_rows2(&a0, &a1, &rows, &mut out0, &mut out1);
        for (a, out) in [(&a0, &out0), (&a1, &out1)] {
            for (j, o) in out.iter().enumerate() {
                let mut naive = 0.0f32;
                for i in 0..d {
                    naive += a[i] * rows[j * d + i];
                }
                assert_eq!(o.to_bits(), naive.to_bits(), "d={d} n={n} row {j}");
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_dot_rows2_matches_portable_mirror_bitwise() {
    if !imcat_simd::avx2_detected() {
        eprintln!("skipping: host has no AVX2+FMA");
        return;
    }
    for (a0, a1, rows, n) in pair_blocks() {
        let (mut i0, mut i1) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        let (mut m0, mut m1) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        // SAFETY: avx2_detected() checked above; `rows` is `n` rows of `a0.len()`.
        unsafe { imcat_simd::avx2::dot_rows2(&a0, &a1, &rows, &mut i0, &mut i1) };
        portable::dot_rows2(&a0, &a1, &rows, &mut m0, &mut m1);
        for j in 0..n {
            assert_eq!(i0[j].to_bits(), m0[j].to_bits(), "d={} n={n} query 0 row {j}", a0.len());
            assert_eq!(i1[j].to_bits(), m1[j].to_bits(), "d={} n={n} query 1 row {j}", a0.len());
        }
    }
}

/// Signed zeros and infinities, subnormals, and magnitudes whose products
/// overflow take the same path through each query's chains as through `dot`,
/// bit for bit — including the NaNs `inf * 0` and `inf - inf` make, which are
/// all the one default NaN. Input NaN payloads of both signs come out as a
/// NaN exactly where `dot`'s does; which of two NaNs meeting in one FMA
/// survives is the compiler's operand order (it may swap multiplicands), so
/// only there are the bits not compared. Outputs are poisoned with NaN.
#[test]
fn dot_rows2_matches_dot_bitwise_on_special_values() {
    let finite_or_inf = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -3.0e38,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::MIN_POSITIVE,
        -3.5,
    ];
    let nan_payloads =
        [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_1234), f32::from_bits(0xffa0_0001)];
    let mut gen = Gen::new(0x2_5bec1a1);
    let mut draw = |n: usize, values: &[f32]| -> Vec<f32> {
        (0..n).map(|_| values[gen.below(values.len() as u64) as usize]).collect()
    };
    let with_nans: Vec<f32> = finite_or_inf.iter().chain(&nan_payloads).copied().collect();
    for d in [1usize, 8, 13, 64, 65] {
        for n in [1usize, 4, 9] {
            let (a0, a1, rows) =
                (draw(d, &finite_or_inf), draw(d, &finite_or_inf), draw(d * n, &finite_or_inf));
            for bk in [Backend::Scalar, Backend::Avx2] {
                let outs = rows2(bk, &a0, &a1, &rows, n);
                assert_rows2_is_dot(bk, [&a0, &a1], &rows, &outs);
            }
            let (a0, a1, rows) =
                (draw(d, &with_nans), draw(d, &with_nans), draw(d * n, &with_nans));
            for bk in [Backend::Scalar, Backend::Avx2] {
                let outs = rows2(bk, &a0, &a1, &rows, n);
                for (q, (a, out)) in [&a0, &a1].iter().zip(&outs).enumerate() {
                    for (j, &o) in out.iter().enumerate() {
                        let want = imcat_simd::dot_with(bk, a, row(&rows, d, j));
                        assert!(
                            same_f32(o, want),
                            "{bk:?} d={d} query {q} row {j}: {o:?} != {want:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Queries of different widths, outputs of different lengths, or a block
/// that is not `out0.len()` rows of `a0.len()` are refused up front on every
/// backend: the poisoned outputs are still untouched after the panic.
#[test]
fn dot_rows2_shape_mismatch_panics_with_a_message() {
    let (a, short) = (vector(1, 8), vector(3, 7));
    let rows = vector(2, 8 * 4);
    for bk in [Backend::Scalar, Backend::Avx2] {
        for (a1, rows, outs0, outs1) in [
            (&short[..], &rows[..], 4usize, 4usize),
            (&a[..], &rows[..31], 4, 4),
            (&a[..], &rows[..], 3, 3),
            (&a[..], &rows[..], 4, 3),
            (&a[..], &rows[..], 4, 5),
            (&a[..], &rows[..0], 1, 1),
        ] {
            let (mut out0, mut out1) = (vec![-1.0f32; outs0], vec![-1.0f32; outs1]);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                imcat_simd::dot_rows2_with(bk, &a, a1, rows, &mut out0, &mut out1);
            }));
            let msg = caught.expect_err("a wrong shape must panic");
            let msg = msg.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("dot_rows2"), "{bk:?}: unhelpful message: {msg}");
            assert!(out0.iter().chain(&out1).all(|&o| o == -1.0), "{bk:?}: wrote before panicking");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random shapes: both queries of the paired kernel are `dot`, bit for
    /// bit, on whichever implementation each backend dispatches to.
    #[test]
    fn prop_dot_rows2_is_dot(seed in 0u64..u64::MAX, d in 0usize..200, n in 0usize..40) {
        let (a0, a1) = (vector(seed, d), vector(seed ^ 0xa1, d));
        let rows = vector(seed ^ 0x2dd, d * n);
        for bk in [Backend::Scalar, Backend::Avx2] {
            let outs = rows2(bk, &a0, &a1, &rows, n);
            for (q, (a, out)) in [&a0, &a1].iter().zip(&outs).enumerate() {
                for (j, o) in out.iter().enumerate() {
                    let want = imcat_simd::dot_with(bk, a, row(&rows, d, j));
                    prop_assert_eq!(o.to_bits(), want.to_bits(), "{:?} d={} query {} row {}", bk, d, q, j);
                }
            }
        }
    }

    /// Random widths, id counts and tables: the gathered kernel is `l2_sq`,
    /// bit for bit, on whichever implementation each backend dispatches to.
    #[test]
    fn prop_l2_sq_gather_is_l2_sq(
        seed in 0u64..u64::MAX, d in 0usize..100, len in 0usize..40, rows in 1usize..50,
    ) {
        let ids = gather_ids(seed, len, rows);
        assert_gather_is_l2_sq(&vector(seed, d), &vector(seed ^ 0x6a7, d * rows), &ids);
    }

    /// Random shapes: the block kernel is `dot`, bit for bit, on whichever
    /// implementation each backend dispatches to on this host.
    #[test]
    fn prop_dot_rows_is_dot(seed in 0u64..u64::MAX, d in 0usize..200, n in 0usize..40) {
        let a = vector(seed, d);
        let rows = vector(seed ^ 0x0dd, d * n);
        for bk in [Backend::Scalar, Backend::Avx2] {
            let mut out = vec![f32::NAN; n];
            imcat_simd::dot_rows_with(bk, &a, &rows, &mut out);
            for (j, o) in out.iter().enumerate() {
                let want = imcat_simd::dot_with(bk, &a, row(&rows, d, j));
                prop_assert_eq!(o.to_bits(), want.to_bits(), "{:?} d={} row {}", bk, d, j);
            }
        }
    }

    /// Random shapes and strides: every backend's column kernel is the scalar
    /// per-pair loop, bit for bit.
    #[test]
    fn prop_l2_sq_cols_is_scalar_l2_sq(
        seed in 0u64..u64::MAX, d in 0usize..80, k in 0usize..70, spare in 0usize..2,
    ) {
        let stride = strides(k)[spare];
        assert_cols_are_scalar_l2_sq(&vector(seed, d), &vector(seed ^ 0xc015, d * stride), stride, k);
    }

    /// Random lengths and values: the Avx2 backend (intrinsics or portable,
    /// whichever this host dispatches to) stays within the forward-error
    /// tolerance of the scalar oracle.
    #[test]
    fn prop_dot_backends_agree(seed in 0u64..u64::MAX, n in 0usize..700) {
        let a = vector(seed, n);
        let b = vector(seed ^ 0xffff_ffff, n);
        let tol = dot_tol(a.iter().zip(&b).map(|(x, y)| x * y), n);
        let exact = imcat_simd::dot_with(Backend::Scalar, &a, &b);
        let fast = imcat_simd::dot_with(Backend::Avx2, &a, &b);
        prop_assert!((exact - fast).abs() <= tol, "{exact} vs {fast}, tol {tol}");
    }

    /// Same contract for the fused int8 kernel.
    #[test]
    fn prop_dot_i8_backends_agree(seed in 0u64..u64::MAX, n in 0usize..700) {
        let c = codes(seed, n);
        let q = vector(seed ^ 0xaaaa, n);
        let scale = 0.003 + (seed % 97) as f32 * 1e-4;
        let tol = scale * dot_tol(c.iter().zip(&q).map(|(x, y)| *x as f32 * y), n);
        let exact = imcat_simd::dot_i8_scaled_with(Backend::Scalar, &c, &q, scale);
        let fast = imcat_simd::dot_i8_scaled_with(Backend::Avx2, &c, &q, scale);
        prop_assert!((exact - fast).abs() <= tol + 1e-30, "{exact} vs {fast}, tol {tol}");
    }

    /// axpy agrees elementwise (one fused vs two roundings per element).
    #[test]
    fn prop_axpy_backends_agree(seed in 0u64..u64::MAX, n in 0usize..700) {
        let x = vector(seed, n);
        let mut y_s = vector(seed ^ 1, n);
        let mut y_v = y_s.clone();
        let s = ((seed % 1000) as f32 - 500.0) * 0.01;
        imcat_simd::axpy_with(Backend::Scalar, s, &x, &mut y_s);
        imcat_simd::axpy_with(Backend::Avx2, s, &x, &mut y_v);
        for i in 0..n {
            let t = 8.0 * f32::EPSILON * (y_s[i].abs() + (s * x[i]).abs()) + 1e-30;
            prop_assert!((y_s[i] - y_v[i]).abs() <= t, "i={i}: {} vs {}", y_s[i], y_v[i]);
        }
    }
}
