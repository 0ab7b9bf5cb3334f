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
    // Factor G = L Lᵀ, storing L in the lower triangle.
    for i in 0..d {
        for j in 0..=i {
            let mut s = g[i * d + j];
            for k in 0..j {
                s -= g[i * d + k] * g[j * d + k];
            }
            if i == j {
                // λI keeps the pivot strictly positive; clamp guards the
                // pathological all-zero-row case from producing NaN.
                g[i * d + i] = s.max(1e-12).sqrt();
            } else {
                g[i * d + j] = s / g[j * d + j];
            }
        }
    }
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
