//! Request streams: who asks, in what order. Each is a pure function of the
//! random stream it is given, and so of the run's seed.

use crate::gen::Rng;

/// Skew of every Zipf stream: the usual "few users ask most often" shape.
pub const ZIPF_S: f64 = 1.1;

/// Zipf over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)^s`.
pub struct Zipf {
    /// Cumulative weights, normalised so the last is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// `count` draws from `population`, whose order is the popularity order.
pub fn zipf_over(rng: &mut Rng, population: &[u32], count: usize) -> Vec<u32> {
    let zipf = Zipf::new(population.len(), ZIPF_S);
    (0..count).map(|_| population[zipf.sample(rng)]).collect()
}

/// `0..n` in a random order.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut v);
    v
}

/// `count` distinct ids of `0..n`, in random order.
pub fn sample_distinct(rng: &mut Rng, n: usize, count: usize) -> Vec<u32> {
    let mut v = permutation(rng, n);
    v.truncate(count);
    v
}

/// `ticks` batches of `tick_size` users each, uniform over `0..n`, distinct
/// within a batch.
pub fn distinct_ticks(rng: &mut Rng, n: usize, ticks: usize, tick_size: usize) -> Vec<Vec<u32>> {
    (0..ticks)
        .map(|_| {
            let mut tick: Vec<u32> = Vec::with_capacity(tick_size);
            while tick.len() < tick_size {
                let u = rng.below(n) as u32;
                if !tick.contains(&u) {
                    tick.push(u);
                }
            }
            tick
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let population: Vec<u32> = (100..612).collect();
        let draw = |seed| zipf_over(&mut Rng::new(seed, 4), &population, 2000);
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        assert_eq!(permutation(&mut Rng::new(5, 1), 1000), permutation(&mut Rng::new(5, 1), 1000));
        assert_eq!(
            distinct_ticks(&mut Rng::new(5, 2), 5000, 10, 16),
            distinct_ticks(&mut Rng::new(5, 2), 5000, 10, 16)
        );
    }

    #[test]
    fn zipf_prefers_the_head_of_the_population() {
        let population: Vec<u32> = (0..512).collect();
        let draws = zipf_over(&mut Rng::new(1, 1), &population, 20_000);
        let head = draws.iter().filter(|&&u| u < 8).count() as f64 / draws.len() as f64;
        // The first 8 of 512 ranks carry about 48 % of a Zipf(1.1) mass.
        assert!((0.43..0.53).contains(&head), "head share {head}");
        assert!(draws.iter().all(|&u| u < 512));
    }

    #[test]
    fn permutations_and_ticks_hold_distinct_users() {
        let mut p = permutation(&mut Rng::new(9, 1), 777);
        p.sort_unstable();
        assert_eq!(p, (0..777).collect::<Vec<u32>>());
        assert_eq!(sample_distinct(&mut Rng::new(9, 1), 777, 20).len(), 20);
        for tick in distinct_ticks(&mut Rng::new(9, 3), 40, 50, 16) {
            let mut t = tick.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 16);
        }
    }
}
