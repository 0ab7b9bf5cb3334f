//! Fold-in embeddings for cold users and items.
//!
//! A cold entity has no trained embedding, only the interactions it has
//! accumulated at serve time. Fold-in solves the classic regularized
//! least-squares problem against the *frozen opposite side*: for a cold
//! user who interacted with items whose embedding rows form `A` (`m × d`),
//!
//! ```text
//! u* = argmin_u ‖A u − 1‖² + λ‖u‖²  =  (AᵀA + λI)⁻¹ Aᵀ1
//! ```
//!
//! — the user vector whose dot product with every interacted item is pulled
//! toward 1 (implicit-feedback relevance) under a ridge prior. Items fold
//! symmetrically against their interacting users' rows. The normal matrix
//! is accumulated and Cholesky-solved entirely in `f64` (`d` is small), so
//! the result is a deterministic function of the input rows: no RNG, no
//! thread-count dependence, bit-identical everywhere — which is what lets
//! the log-replay rebuild reproduce the live fold bit-for-bit.

/// Fold-in configuration.
#[derive(Clone, Copy, Debug)]
pub struct FoldOptions {
    /// Ridge regularizer λ (`IMCAT_INGEST_FOLD_LAMBDA`, default 0.1).
    pub lambda: f32,
}

impl Default for FoldOptions {
    fn default() -> Self {
        Self { lambda: 0.1 }
    }
}

impl FoldOptions {
    /// Reads the fold knob from the environment (registered in
    /// `imcat_obs::knobs`).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self { lambda: imcat_obs::knob_f32("IMCAT_INGEST_FOLD_LAMBDA", d.lambda).max(1e-6) }
    }
}

/// Solves the ridge fold-in for one cold entity against the `rows` of the
/// frozen opposite side (each `d` long, visited in the given order).
/// Returns the `d`-dimensional embedding; all-zero when `rows` is empty
/// (no evidence — the entity stays cold).
pub fn fold_embedding(rows: &[&[f32]], dim: usize, opts: &FoldOptions) -> Vec<f32> {
    if rows.is_empty() {
        return vec![0.0; dim];
    }
    let lambda = opts.lambda.max(1e-6) as f64;
    // Normal equations in f64: G = AᵀA + λI (d×d, symmetric positive
    // definite), rhs = Aᵀ1 (column sums).
    let mut g = vec![0.0f64; dim * dim];
    let mut rhs = vec![0.0f64; dim];
    for row in rows {
        debug_assert_eq!(row.len(), dim);
        for i in 0..dim {
            let xi = row[i] as f64;
            rhs[i] += xi;
            for j in i..dim {
                g[i * dim + j] += xi * row[j] as f64;
            }
        }
    }
    for i in 0..dim {
        g[i * dim + i] += lambda;
        for j in 0..i {
            g[i * dim + j] = g[j * dim + i];
        }
    }
    cholesky_solve(&mut g, &rhs, dim).iter().map(|&x| x as f32).collect()
}

/// In-place Cholesky factorization + solve of `G x = rhs` (`G` symmetric
/// positive definite — λI guarantees it). Sequential, f64: deterministic by
/// construction.
fn cholesky_solve(g: &mut [f64], rhs: &[f64], d: usize) -> Vec<f64> {
    factor(g, d);
    // Forward substitution L y = rhs.
    let mut y = rhs.to_vec();
    for i in 0..d {
        for k in 0..i {
            y[i] -= g[i * d + k] * y[k];
        }
        y[i] /= g[i * d + i];
    }
    // Back substitution Lᵀ x = y.
    let mut x = y;
    for i in (0..d).rev() {
        for k in i + 1..d {
            x[i] -= g[k * d + i] * x[k];
        }
        x[i] /= g[i * d + i];
    }
    x
}

/// Factors `G = L Lᵀ` in place, storing `L` in the lower triangle.
///
/// `L[i][j]` is `G[i][j]` minus `L[i][k] · L[j][k]` for `k` ascending from
/// 0 to `j`, one chain per entry, each link waiting on the last. Row `i`'s
/// off-diagonal columns go four at a time: the four chains run side by side
/// over the columns before the group, then each column finishes its own
/// chain over the group's earlier columns, in order, since those are the
/// row's entries it has just written. Every entry is the same sequence of
/// operations as in the one-column loop, so the same bits, with four chains
/// in flight instead of one. The diagonal and the columns after the last
/// group of four take that loop.
fn factor(g: &mut [f64], d: usize) {
    for i in 0..d {
        // Rows above `i` are final; row `i` is being written.
        let (done, rest) = g.split_at_mut(i * d);
        let row = &mut rest[..d];
        let mut j0 = 0;
        while j0 + 4 <= i {
            let l = |c: usize| &done[(j0 + c) * d..][..j0 + c + 1];
            let (l0, l1, l2, l3) = (l(0), l(1), l(2), l(3));
            let mut s = [row[j0], row[j0 + 1], row[j0 + 2], row[j0 + 3]];
            for (k, &x) in row[..j0].iter().enumerate() {
                s[0] -= x * l0[k];
                s[1] -= x * l1[k];
                s[2] -= x * l2[k];
                s[3] -= x * l3[k];
            }
            for (c, lj) in [l0, l1, l2, l3].into_iter().enumerate() {
                let j = j0 + c;
                let mut s = s[c];
                for k in j0..j {
                    s -= row[k] * lj[k];
                }
                row[j] = s / lj[j];
            }
            j0 += 4;
        }
        for j in j0..=i {
            let mut s = row[j];
            if j == i {
                for &x in &row[..j] {
                    s -= x * x;
                }
                // λI keeps the pivot strictly positive; clamp guards the
                // pathological all-zero-row case from producing NaN.
                row[i] = s.max(1e-12).sqrt();
            } else {
                let lj = &done[j * d..][..j + 1];
                for k in 0..j {
                    s -= row[k] * lj[k];
                }
                row[j] = s / lj[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_evidence_stays_cold() {
        let opts = FoldOptions::default();
        assert_eq!(fold_embedding(&[], 4, &opts), vec![0.0; 4]);
    }

    #[test]
    fn single_row_recovers_scaled_direction() {
        // One interacted row x: u* = x / (‖x‖² + λ) — colinear with x, and
        // u·x = ‖x‖²/(‖x‖²+λ) just below 1.
        let row = [1.0f32, 2.0, 0.0];
        let opts = FoldOptions { lambda: 0.5 };
        let u = fold_embedding(&[&row], 3, &opts);
        let scale = 1.0 / (5.0 + 0.5);
        for (got, want) in u.iter().zip([1.0 * scale, 2.0 * scale, 0.0]) {
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let rows: Vec<Vec<f32>> =
            (0..6).map(|i| (0..8).map(|j| ((i * 8 + j) as f32 * 0.37).sin()).collect()).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let plain = FoldOptions { lambda: 0.1 };
        let a = fold_embedding(&refs, 8, &plain);
        let b = fold_embedding(&refs, 8, &plain);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "fold-in is not deterministic"
        );
    }

    /// The one-column factor loop [`factor`] replaced, kept as its oracle.
    fn oracle_factor(g: &mut [f64], d: usize) {
        for i in 0..d {
            for j in 0..=i {
                let mut s = g[i * d + j];
                for k in 0..j {
                    s -= g[i * d + k] * g[j * d + k];
                }
                if i == j {
                    g[i * d + i] = s.max(1e-12).sqrt();
                } else {
                    g[i * d + j] = s / g[j * d + j];
                }
            }
        }
    }

    /// The grouped factor writes the oracle's bits at every `d` a group of
    /// four can start, end or be cut short at, on rank-deficient and
    /// full-rank normal matrices of inexact (non-dyadic) values.
    #[test]
    fn factor_matches_the_one_column_oracle_bitwise() {
        for d in 1..=70usize {
            for m in [1, d / 2 + 1, d + 3] {
                let value = |r: usize, j: usize| ((r * 131 + j * 17) as f64 * 0.37).sin();
                let mut g = vec![0.0f64; d * d];
                for r in 0..m {
                    for i in 0..d {
                        for j in i..d {
                            g[i * d + j] += value(r, i) * value(r, j);
                        }
                    }
                }
                for i in 0..d {
                    g[i * d + i] += 0.1;
                    for j in 0..i {
                        g[i * d + j] = g[j * d + i];
                    }
                }
                let mut want = g.clone();
                oracle_factor(&mut want, d);
                factor(&mut g, d);
                let first = g.iter().zip(&want).position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(first, None, "d={d} m={m}: first differing entry (row-major)");
            }
        }
    }

    /// `m` rows of `d` exactly representable dyadic values.
    fn dyadic_rows(m: usize, d: usize) -> Vec<Vec<f32>> {
        let value = |r: usize, j: usize| ((r * 7 + j * 3 + r * j) % 11) as f32 * 0.125 - 0.5;
        (0..m).map(|r| (0..d).map(|j| value(r, j)).collect()).collect()
    }

    /// The fold's output bits per `d`, recorded before the factor loop was
    /// grouped: FNV-1a64 of the little-endian `f32`s over `d / 2 + 3` rows.
    #[test]
    fn fold_embedding_bits_are_pinned() {
        let pins: [(usize, u64); 7] = [
            (1, 0xc125_4807_4954_be8b),
            (3, 0xd517_1092_4de7_28be),
            (4, 0x8646_8b08_cf15_28be),
            (5, 0xd15d_800c_103e_636e),
            (8, 0x1dfd_0d48_79f6_9c1b),
            (64, 0x6d17_4a56_fa58_455f),
            (65, 0xc259_22bc_5da1_fdca),
        ];
        let got: Vec<(usize, u64)> = pins
            .iter()
            .map(|&(d, _)| {
                let rows = dyadic_rows(d / 2 + 3, d);
                let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                let emb = fold_embedding(&refs, d, &FoldOptions::default());
                let bytes: Vec<u8> = emb.iter().flat_map(|x| x.to_le_bytes()).collect();
                (d, imcat_ckpt::fnv1a64(&bytes))
            })
            .collect();
        assert_eq!(got, pins, "fold_embedding bits drifted");
    }

    #[test]
    fn fold_pulls_scores_toward_one() {
        let rows = [[0.8f32, 0.1, 0.0], [0.7, -0.2, 0.1], [0.9, 0.0, -0.1]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let u = fold_embedding(&refs, 3, &FoldOptions { lambda: 0.05 });
        for r in &refs {
            let pred: f32 = u.iter().zip(*r).map(|(a, b)| a * b).sum();
            assert!(pred > 0.5, "fold-in left an interacted item unrelated (score {pred})");
        }
    }
}
