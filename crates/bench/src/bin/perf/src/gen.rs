//! Seeded inputs: the benchmark's own random stream and the synthetic
//! serving artifact every workload runs against.
//!
//! The artifact has the structure the paper's model produces — items and
//! users gathered around a few "intent" cluster centres — without a training
//! run: with that structure an IVF or HNSW probe has realistic recall (below
//! 1), and a user's masked items sit among their best-scoring ones, so mask
//! filtering is exercised on every request.

use imcat_ckpt::Artifact;
use imcat_tensor::Tensor;

/// Embedding width of the synthetic artifact.
pub const DIM: usize = 64;
/// Number of intent cluster centres.
pub const CENTRES: usize = 64;
/// Masked (already consumed) items per user.
pub const MASK_LEN: usize = 20;
/// Standard deviation of an item around its centre, per coordinate (centres
/// themselves are unit Gaussian per coordinate). With these two values the
/// clusters overlap enough that default IVF and HNSW probes lose a few of the
/// true top-10 (recall@10 of about 0.97 to 0.99) and stay above the 0.95 gate.
const ITEM_NOISE: f32 = 1.4;
/// Standard deviation of a user around their mixed centre, per coordinate.
const USER_NOISE: f32 = 0.8;

/// xoshiro256** seeded through SplitMix64. The benchmark carries its own
/// generator so that a change to the workspace's `rand` stand-in cannot
/// change the benchmark's inputs.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The stream `stream` of run seed `seed`: independent streams for the
    /// artifact, each request list and each event log, all fixed by `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below 2^-32
    /// for every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f32 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Catalogue size of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Catalog {
    pub users: usize,
    pub items: usize,
}

/// The generated artifact plus what the request and event generators need to
/// know about its structure.
pub struct Generated {
    pub artifact: Artifact,
    /// Item ids of each cluster, ascending.
    pub cluster_items: Vec<Vec<u32>>,
    /// Each user's primary cluster.
    pub user_cluster: Vec<u16>,
}

/// Builds the artifact for `catalog` from `seed`. A pure function of its
/// arguments.
pub fn artifact(seed: u64, catalog: Catalog) -> Generated {
    let mut rng = Rng::new(seed, 1);
    let centres: Vec<f32> = (0..CENTRES * DIM).map(|_| rng.normal()).collect();
    let centre = |c: usize| &centres[c * DIM..(c + 1) * DIM];

    let mut item_emb = Vec::with_capacity(catalog.items * DIM);
    let mut cluster_items = vec![Vec::new(); CENTRES];
    for i in 0..catalog.items {
        let c = rng.below(CENTRES);
        cluster_items[c].push(i as u32);
        item_emb.extend(centre(c).iter().map(|&x| x + ITEM_NOISE * rng.normal()));
    }

    let mut user_emb = Vec::with_capacity(catalog.users * DIM);
    let mut user_cluster = Vec::with_capacity(catalog.users);
    let mut masks = Vec::with_capacity(catalog.users);
    for _ in 0..catalog.users {
        // 1 to 3 intents with decreasing weight; the first is the primary.
        let n_mix = 1 + rng.below(3);
        let mut row = [0f32; DIM];
        let mut primary = 0;
        let mut weight_sum = 0.0;
        for j in 0..n_mix {
            let c = rng.below(CENTRES);
            if j == 0 {
                primary = c;
            }
            let w = 1.0 / (1 << j) as f32;
            weight_sum += w;
            for (r, &x) in row.iter_mut().zip(centre(c)) {
                *r += w * x;
            }
        }
        user_emb.extend(row.iter().map(|&x| x / weight_sum + USER_NOISE * rng.normal()));
        user_cluster.push(primary as u16);
        masks.push(sample_sorted(&mut rng, &cluster_items[primary], MASK_LEN));
    }

    let artifact = Artifact::new(
        "perf-synthetic",
        Tensor::from_vec(catalog.users, DIM, user_emb),
        Tensor::from_vec(catalog.items, DIM, item_emb),
        masks,
    );
    Generated { artifact, cluster_items, user_cluster }
}

/// `n` distinct elements of `pool` (all of it when it is smaller), ascending.
fn sample_sorted(rng: &mut Rng, pool: &[u32], n: usize) -> Vec<u32> {
    let mut picked: Vec<u32> = Vec::with_capacity(n);
    while picked.len() < n.min(pool.len()) {
        let x = pool[rng.below(pool.len())];
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_is_a_pure_function_of_the_seed() {
        let cat = Catalog { users: 50, items: 4000 };
        let (a, b, c) = (artifact(7, cat), artifact(7, cat), artifact(8, cat));
        assert_eq!(a.artifact.item_emb.as_slice(), b.artifact.item_emb.as_slice());
        assert_eq!(a.artifact.user_emb.as_slice(), b.artifact.user_emb.as_slice());
        assert_eq!(a.artifact.masks, b.artifact.masks);
        assert_ne!(a.artifact.item_emb.as_slice(), c.artifact.item_emb.as_slice());
        a.artifact.validate().expect("generated artifact validates");
        assert!(a.artifact.masks.iter().all(|m| m.len() == MASK_LEN));
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(3, 1).next_u64(), Rng::new(3, 2).next_u64());
        let mut r = Rng::new(3, 1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
