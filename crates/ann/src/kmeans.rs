//! Shared deterministic Lloyd k-means.
//!
//! This is the *single* k-means implementation in the workspace: IMCAT's
//! Intent Representation Module seeds its learnable cluster centers with it
//! (`imcat_core::irm::kmeans_centers` delegates here), and the IVF index uses
//! it as its coarse quantizer over item embeddings. Keeping one routine means
//! the intent machinery and the retrieval machinery can never drift apart.
//!
//! ## Determinism
//!
//! The assignment step fans out over the `imcat-par` pool and, within one
//! point, across centres: `imcat_simd::l2_sq_cols` gives every (point,
//! centre) pair its own accumulator lane. Three facts keep that exact. A lane
//! is one pair and lanes never mix; within a pair the coordinates are
//! subtracted, squared and added in ascending order with a separate multiply
//! and add — the historical serial loop's operation sequence, so each
//! distance has the serial loop's bits on every backend; and the argmin scans
//! the centres in ascending order under a strict `<`, so a tie goes to the
//! lower index exactly as before. Each point's result lands in that point's
//! own slot, and the update step folds points in ascending index order on one
//! thread. Centroids are therefore **bit-identical at any `IMCAT_THREADS`
//! setting and under either `IMCAT_SIMD` backend** — the same discipline as
//! every other parallel hot path in the workspace (asserted by
//! `crates/ann/tests/determinism.rs`, which also pins the bytes).

use imcat_simd::L2_COLS_LANES;
use imcat_tensor::Tensor;
use rand::Rng;

/// Points per parallel assignment chunk. Chunk boundaries depend only on the
/// point count, never the thread count, so results are reproducible.
const ASSIGN_GRAIN: usize = 64;

/// Nearest-center index for every row of `data` (squared Euclidean distance,
/// ties to the lower center index). This is the workspace's one definition
/// of "nearest centre": the k-means passes, the IVF list assignment and
/// streamed `IvfIndex::insert` all come through here.
///
/// The centres are transposed once into a dim-major copy, zero-padded to
/// whole kernel blocks, and each point is measured against all of them by one
/// `imcat_simd::l2_sq_cols` call; points fan out over the global pool. Every
/// distance carries the bits of the serial per-pair loop and the argmin reads
/// the `k` real centres only, in ascending order under a strict `<` (see the
/// module docs), so the result depends on neither the thread count nor the
/// SIMD backend.
pub fn assign_nearest(data: &Tensor, centers: &Tensor) -> Vec<usize> {
    assign_tailed(data, None, centers)
}

/// [`assign_nearest`] over points that carry one more, virtual coordinate:
/// point `i` is `[data.row(i), tail[i]]` and every centre has
/// `data.cols() + 1` columns. Each point is assembled in a `d + 1` buffer
/// per chunk and measured by the same `imcat_simd::l2_sq_cols` call as a
/// materialized augmented row, so every distance has that row's bits
/// (`ivf_build_bytes_are_pinned` holds the IVF build to them) while the
/// augmented catalogue is never allocated. `None` is plain `data`.
pub(crate) fn assign_tailed(data: &Tensor, tail: Option<&[f32]>, centers: &Tensor) -> Vec<usize> {
    let t = data.rows();
    let (k, cd) = centers.shape();
    let d = data.cols();
    assert!(k > 0, "need at least one center");
    assert_eq!(d + tail.is_some() as usize, cd, "point/center dims differ");
    assert!(tail.is_none_or(|tail| tail.len() == t), "one tail coordinate per point");
    let stride = k.next_multiple_of(L2_COLS_LANES);
    let mut cols = vec![0.0f32; cd * stride];
    for j in 0..k {
        for (c, &v) in centers.row(j).iter().enumerate() {
            cols[c * stride + j] = v;
        }
    }
    let mut assign = vec![0usize; t];
    imcat_par::global().parallel_chunks_mut(&mut assign, ASSIGN_GRAIN, |ci, slots| {
        // `k` long, not `stride`: a padding lane is a centre at the origin,
        // and must never be a candidate.
        let mut dist = vec![0.0f32; k];
        let first = ci * ASSIGN_GRAIN;
        match tail {
            None => {
                for (off, slot) in slots.iter_mut().enumerate() {
                    imcat_simd::l2_sq_cols(data.row(first + off), &cols, stride, &mut dist);
                    *slot = nearest(&dist);
                }
            }
            Some(tail) => {
                let mut point = vec![0.0f32; cd];
                for (off, slot) in slots.iter_mut().enumerate() {
                    point[..d].copy_from_slice(data.row(first + off));
                    point[d] = tail[first + off];
                    imcat_simd::l2_sq_cols(&point, &cols, stride, &mut dist);
                    *slot = nearest(&dist);
                }
            }
        }
    });
    assign
}

/// Lanes of [`nearest`]'s running minimum.
const MIN_LANES: usize = 8;

/// The index of the smallest distance, ties to the lower centre: the index
/// an ascending scan under a strict `<` from `(0, +inf)` keeps. A lane-wise
/// minimum (which vectorises; a NaN never replaces a lane, as it never wins
/// a `<`) finds the value, then the first index equal to it is the one that
/// scan keeps. When nothing is below `+inf` that scan keeps 0.
#[inline(always)]
fn nearest(dist: &[f32]) -> usize {
    let mut lanes = [f32::INFINITY; MIN_LANES];
    let chunks = dist.chunks_exact(MIN_LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &d2) in lanes.iter_mut().zip(chunk) {
            *m = if d2 < *m { d2 } else { *m };
        }
    }
    let min = lanes.iter().chain(rest).fold(f32::INFINITY, |m, &d2| if d2 < m { d2 } else { m });
    if min == f32::INFINITY {
        return 0;
    }
    dist.iter().position(|&d2| d2 == min).unwrap_or(0)
}

/// Lloyd k-means over the rows of `data`: `iters` assign/update rounds from
/// a random distinct-row initialization drawn from `rng`.
///
/// The RNG draw sequence and all floating-point accumulation orders are
/// identical to the historical serial implementation in `imcat-core`, so
/// seeded runs (and their checkpoints) reproduce exactly.
pub fn kmeans_centers(data: &Tensor, k: usize, iters: usize, rng: &mut impl Rng) -> Tensor {
    kmeans_tailed(data, None, k, iters, rng)
}

/// The one Lloyd body: [`kmeans_centers`] over points with an optional
/// virtual last coordinate (see [`assign_tailed`]), returning
/// `[k, data.cols() + 1]` centres when `tail` is given. The tail column is
/// initialized, summed and averaged exactly as a materialized column would
/// be — the same point order, the same per-column accumulator — so the
/// centres are bit-identical to k-means over the augmented copy.
#[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
pub(crate) fn kmeans_tailed(
    data: &Tensor,
    tail: Option<&[f32]>,
    k: usize,
    iters: usize,
    rng: &mut impl Rng,
) -> Tensor {
    let (t, d) = data.shape();
    assert!(t >= k, "need at least K points");
    let cd = d + tail.is_some() as usize;
    // Init: distinct random rows.
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    while chosen.len() < k {
        let c = rng.gen_range(0..t);
        if !chosen.contains(&c) {
            chosen.push(c);
        }
    }
    let mut centers = Tensor::zeros(k, cd);
    for (j, &c) in chosen.iter().enumerate() {
        centers.row_mut(j)[..d].copy_from_slice(data.row(c));
        if let Some(tail) = tail {
            centers.row_mut(j)[d] = tail[c];
        }
    }
    for _ in 0..iters {
        // Assign (parallel over points and centres, bit-identical to serial).
        let assign = assign_tailed(data, tail, &centers);
        // Update (serial: accumulation order over points is part of the
        // determinism contract).
        let mut sums = Tensor::zeros(k, cd);
        let mut counts = vec![0usize; k];
        for i in 0..t {
            let j = assign[i];
            counts[j] += 1;
            let sum = sums.row_mut(j);
            for (s, &x) in sum.iter_mut().zip(data.row(i)) {
                *s += x;
            }
            if let Some(tail) = tail {
                sum[d] += tail[i];
            }
        }
        for j in 0..k {
            if counts[j] > 0 {
                let inv = 1.0 / counts[j] as f32;
                for (c, &s) in centers.row_mut(j).iter_mut().zip(sums.row(j)) {
                    *c = s * inv;
                }
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcat_tensor::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The historical serial implementation (verbatim from `imcat-core`),
    /// kept as an oracle: the shared routine must reproduce it bit-for-bit.
    #[allow(clippy::needless_range_loop)]
    fn kmeans_serial_oracle(data: &Tensor, k: usize, iters: usize, rng: &mut StdRng) -> Tensor {
        let (t, d) = data.shape();
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let c = rng.gen_range(0..t);
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        let mut centers = Tensor::zeros(k, d);
        for (j, &c) in chosen.iter().enumerate() {
            centers.row_mut(j).copy_from_slice(data.row(c));
        }
        let mut assign = vec![0usize; t];
        for _ in 0..iters {
            for i in 0..t {
                let mut best = (0usize, f32::INFINITY);
                for j in 0..k {
                    let d2: f32 = data
                        .row(i)
                        .iter()
                        .zip(centers.row(j))
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if d2 < best.1 {
                        best = (j, d2);
                    }
                }
                assign[i] = best.0;
            }
            let mut sums = Tensor::zeros(k, d);
            let mut counts = vec![0usize; k];
            for i in 0..t {
                let j = assign[i];
                counts[j] += 1;
                for (s, &x) in sums.row_mut(j).iter_mut().zip(data.row(i)) {
                    *s += x;
                }
            }
            for j in 0..k {
                if counts[j] > 0 {
                    let inv = 1.0 / counts[j] as f32;
                    for (c, &s) in centers.row_mut(j).iter_mut().zip(sums.row(j)) {
                        *c = s * inv;
                    }
                }
            }
        }
        centers
    }

    #[test]
    fn matches_serial_oracle_bitwise() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = normal(57, 8, 1.0, &mut rng);
            let mut r1 = StdRng::seed_from_u64(seed ^ 0xabc);
            let mut r2 = StdRng::seed_from_u64(seed ^ 0xabc);
            let shared = kmeans_centers(&data, 5, 7, &mut r1);
            let oracle = kmeans_serial_oracle(&data, 5, 7, &mut r2);
            let a: Vec<u32> = shared.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = oracle.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "shared k-means diverged from the serial oracle (seed {seed})");
        }
    }

    /// The serial oracle's assignment step on its own.
    fn assign_serial_oracle(data: &Tensor, centers: &Tensor) -> Vec<usize> {
        (0..data.rows())
            .map(|i| {
                let mut best = (0usize, f32::INFINITY);
                for j in 0..centers.rows() {
                    let d2: f32 = data
                        .row(i)
                        .iter()
                        .zip(centers.row(j))
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if d2 < best.1 {
                        best = (j, d2);
                    }
                }
                best.0
            })
            .collect()
    }

    /// Centre counts around the kernel block and widths around nothing in
    /// particular, with every third centre a copy of an earlier one so exact
    /// ties occur: same index as the serial scan, lower twin included.
    #[test]
    fn assign_matches_serial_argmin_with_ties() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in [1usize, 2, 31, 32, 33, 70] {
            for d in [1usize, 7, 65] {
                let data = normal(130, d, 1.0, &mut rng);
                let mut centers = normal(k, d, 1.0, &mut rng);
                for j in (2..k).step_by(3) {
                    let twin = centers.row(j / 2).to_vec();
                    centers.row_mut(j).copy_from_slice(&twin);
                }
                assert_eq!(
                    assign_nearest(&data, &centers),
                    assign_serial_oracle(&data, &centers),
                    "k={k} d={d}"
                );
            }
        }
    }

    /// The scalar argmin `nearest` replaced, kept as the oracle.
    fn oracle_nearest(dist: &[f32]) -> usize {
        let mut best = (0usize, f32::INFINITY);
        for (j, &d2) in dist.iter().enumerate() {
            if d2 < best.1 {
                best = (j, d2);
            }
        }
        best.0
    }

    /// Around the lane count and well past it: planted ties at pairs of
    /// positions spread over the row (a NaN beside them), the minimum in the
    /// remainder, rows of `+inf` alone or with one finite value, and all-NaN
    /// rows (the scan never keeps a NaN).
    #[test]
    fn nearest_is_the_strict_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in [1usize, 7, 8, 9, 31, 32, 33, 400] {
            let base: Vec<f32> = (0..k).map(|_| rng.gen_range(1.0f32..100.0)).collect();
            let mut rows = vec![base.clone(), vec![f32::INFINITY; k], vec![f32::NAN; k]];
            for a in 0..k {
                let mut finite = vec![f32::INFINITY; k];
                finite[a] = 3.0;
                rows.push(finite);
                for b in (a..k).step_by(k.div_ceil(9)) {
                    let mut tied = base.clone();
                    (tied[a], tied[b]) = (0.5, 0.5);
                    rows.push(tied.clone());
                    tied[a.saturating_sub(1)] = f32::NAN;
                    rows.push(tied);
                }
            }
            for row in &rows {
                assert_eq!(nearest(row), oracle_nearest(row), "k={k} row={row:?}");
            }
        }
    }

    /// The transposed centre copy is zero-padded to whole kernel blocks, and a
    /// padding lane is a centre at the origin. A point at (or next to) the
    /// origin is nearer to it than to any real centre, so it would be assigned
    /// index `>= k` if the argmin ever read past the `k` real distances.
    #[test]
    fn padding_lanes_are_never_candidates() {
        for k in [1usize, 5, 31, 33, 40] {
            let d = 3;
            // Centre j sits at (j+1, j+1, j+1): all away from the origin.
            let centers = Tensor::from_vec(k, d, (0..k * d).map(|i| (i / d + 1) as f32).collect());
            let mut data = Tensor::zeros(3, d);
            data.row_mut(1).copy_from_slice(&[0.01, -0.02, 0.0]);
            data.row_mut(2).copy_from_slice(centers.row(k - 1));
            assert_eq!(assign_nearest(&data, &centers), vec![0, 0, k - 1], "k={k}");
        }
    }

    #[test]
    fn recovers_separated_blobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = normal(10, 3, 0.05, &mut rng);
        let mut data = Tensor::zeros(10, 3);
        for i in 0..10 {
            let c = if i < 5 { 3.0 } else { -3.0 };
            data.row_mut(i)[0] = c + noise.row(i)[0];
            data.row_mut(i)[1] = noise.row(i)[1];
            data.row_mut(i)[2] = noise.row(i)[2];
        }
        let centers = kmeans_centers(&data, 2, 10, &mut rng);
        let mut xs: Vec<f32> = (0..2).map(|j| centers.get(j, 0)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        assert!(xs[0] < -2.0 && xs[1] > 2.0, "centers: {xs:?}");
        let assign = assign_nearest(&data, &centers);
        assert!(assign[..5].iter().all(|&a| a == assign[0]));
        assert!(assign[5..].iter().all(|&a| a == assign[5]));
        assert_ne!(assign[0], assign[5]);
    }
}
