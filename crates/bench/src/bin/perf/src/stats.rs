//! How a run's numbers are estimated from its rounds.
//!
//! Every measured phase is a fixed number of rounds of identical, frozen
//! work. On a small shared machine interference only ever adds time, so the
//! good rounds estimate the program and the bad ones estimate the neighbours.
//! The single best round can be luck (a run of short ticks), so a run
//! reports the **second-best** round of each timing metric, and prints the
//! median and inter-quartile range across rounds beside it as diagnostics.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Percentiles a tail may be reported at, ascending. Nothing above p95: the
/// p99 of the two thousand latencies a `wire_cold` round collects rests on
/// twenty of them, and moved by a tenth between identical runs.
const TAIL_LADDER: [f64; 5] = [0.50, 0.75, 0.80, 0.90, 0.95];
/// A percentile is supported when at least this many samples lie beyond it.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    let beyond = |p: f64| n - ((p * n as f64).ceil() as usize).min(n);
    TAIL_LADDER.iter().rev().copied().find(|&p| beyond(p) >= MIN_BEYOND).unwrap_or(TAIL_LADDER[0])
}

/// The second-best of `values`; the only one when there is one.
pub fn second_best(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    v[1.min(v.len() - 1)]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// driver's spread is their distance over the median), for two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a share of the median (0 for a single value).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// What one round measured.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    /// One latency per sample (a request on the wire, a tick in process).
    pub latencies_ms: Vec<f64>,
}

/// A per-run value with its across-round diagnostics.
#[derive(Clone, Debug)]
pub struct Estimate {
    pub value: f64,
    pub median: f64,
    pub iqr: f64,
    /// The per-round values, in the order the rounds ran.
    pub per_round: Vec<f64>,
}

impl Estimate {
    fn of(per_round: &[f64], better: Better) -> Self {
        let iqr = if per_round.len() < 2 {
            0.0
        } else {
            let [q1, _, q3] = quartiles(per_round);
            q3 - q1
        };
        Self {
            value: second_best(per_round, better),
            median: median(per_round),
            iqr,
            per_round: per_round.to_vec(),
        }
    }
}

/// The four timing metrics of a measured phase.
pub struct Timing {
    pub qps: Estimate,
    pub p50_ms: Estimate,
    pub tail_ms: Estimate,
    pub cpu_us_per_op: Estimate,
    /// The percentile `tail_ms` is read at, and the samples per round behind it.
    pub tail_p: f64,
    pub samples_per_round: usize,
}

pub fn timing(rounds: &[Round]) -> Timing {
    let samples_per_round = rounds.iter().map(|r| r.latencies_ms.len()).min().unwrap_or(0);
    let tail_p = tail_percentile(samples_per_round);
    let lat: Vec<Vec<f64>> = rounds.iter().map(|r| sorted(&r.latencies_ms)).collect();
    let per_round = |f: &dyn Fn(usize) -> f64| (0..rounds.len()).map(f).collect::<Vec<f64>>();
    Timing {
        qps: Estimate::of(&per_round(&|i| rounds[i].ops as f64 / rounds[i].wall_s), Better::Higher),
        p50_ms: Estimate::of(&per_round(&|i| percentile(&lat[i], 0.5)), Better::Lower),
        tail_ms: Estimate::of(&per_round(&|i| percentile(&lat[i], tail_p)), Better::Lower),
        cpu_us_per_op: Estimate::of(
            &per_round(&|i| rounds[i].cpu_s * 1e6 / rounds[i].ops as f64),
            Better::Lower,
        ),
        tail_p,
        samples_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_best_skips_the_lucky_round() {
        let qps = [410.0, 505.0, 498.0, 380.0, 497.0];
        assert_eq!(second_best(&qps, Better::Higher), 498.0);
        let p50 = [1.9, 1.2, 1.3, 2.4, 1.25];
        assert_eq!(second_best(&p50, Better::Lower), 1.25);
        assert_eq!(second_best(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(58), 0.80);
        assert_eq!(tail_percentile(20), 0.50);
        assert_eq!(tail_percentile(5), 0.50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        assert_eq!(median(&v), 13.5);
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn timing_reads_each_metric_from_its_second_best_round() {
        let round = |wall_s: f64, lat: f64| Round {
            wall_s,
            cpu_s: wall_s * 1.5,
            ops: 1000,
            latencies_ms: vec![lat; 1000],
        };
        let t = timing(&[round(2.0, 1.0), round(1.0, 3.0), round(1.25, 2.0)]);
        assert_eq!(t.qps.value, 800.0);
        assert_eq!(t.p50_ms.value, 2.0);
        assert_eq!(t.tail_p, 0.95);
        assert_eq!(t.cpu_us_per_op.value, 1875.0);
        assert_eq!(t.qps.median, 800.0);
    }
}
