//! The benchmark's span recorder and the self-time fold.
//!
//! Spans are recorded from the benchmark's own files, around calls into a
//! layer's public functions; they stay in memory until the run ends and are
//! then written out as JSON lines. A layer's self time is its span's
//! duration minus its children's. Where a child is timed by replaying the
//! same request through an inner layer's entry point (the benchmark cannot
//! look inside the server), it is a separate execution and may take longer
//! than its parent did: self time is then 0, and the request's self times
//! sum to more than its root. Layers are therefore compared by the medians
//! of their self times, and two ratios say how well the replays reproduce
//! the request: a request's self times over its root
//! ([`Recorder::self_sum_ratio`]), and a span's children over the span
//! ([`Recorder::children_ratio`]) where the children are all it does.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, request, parent, start_ns: ns(start), end_ns: ns(end) });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as a span and hands back its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, request, parent, start, end), out)
    }

    /// Self time of every span, in recording order: its duration minus the
    /// durations of its direct children, never below 0.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p as usize] += span.duration_ns();
            }
        }
        self.spans.iter().zip(children).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Median over the requests of the sum of a request's self times over the
    /// duration of its root span. Self times never go below 0, so this is 1
    /// unless a replayed child outlasted its parent.
    pub fn self_sum_ratio(&self) -> f64 {
        let requests = self.spans.iter().map(|s| s.request as usize + 1).max().unwrap_or(0);
        let (mut sums, mut roots) = (vec![0u64; requests], vec![0u64; requests]);
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            sums[s.request as usize] += t;
            if s.parent.is_none() {
                roots[s.request as usize] = s.duration_ns();
            }
        }
        median(sums.iter().zip(&roots).filter(|(_, &r)| r > 0).map(|(&s, &r)| s as f64 / r as f64))
    }

    /// Median, over the spans called `name`, of the summed duration of a
    /// span's direct children over its own duration (0 when there are no
    /// such spans). Nothing is clipped: it is above 1 when replayed
    /// children take longer than the span they replay, below 1 by what the
    /// span does besides calling them.
    pub fn children_ratio(&self, name: &str) -> f64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p as usize] += span.duration_ns();
            }
        }
        median(
            self.spans
                .iter()
                .zip(children)
                .filter(|(s, _)| s.name == name && s.duration_ns() > 0)
                .map(|(s, c)| c as f64 / s.duration_ns() as f64),
        )
    }

    /// Median duration, in microseconds, of the spans called `name` (0 when
    /// there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        median_us(self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns))
    }

    /// Median self time, in microseconds, of the spans called `name`.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        median_us(self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t))
    }

    /// Median self time of each span name, in microseconds, in the order the
    /// names were first recorded.
    pub fn layer_self_us(&self) -> Vec<(&'static str, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names.into_iter().map(|n| (n, self.median_self_us(n))).collect()
    }

    /// Sum of the median self times of the names `pick` accepts, over the
    /// median duration of the `root` spans. Medians, because a request that
    /// met interference in one replay says nothing about the layers; the
    /// sum is meaningful for names recorded on every request.
    pub fn self_share(&self, root: &str, pick: impl Fn(&str) -> bool) -> f64 {
        let picked: f64 =
            self.layer_self_us().iter().filter(|(n, _)| pick(n)).map(|(_, t)| t).sum();
        // An empty sum is -0.0; the share of nothing is plain 0.
        (picked + 0.0) / self.median_us(root).max(f64::MIN_POSITIVE)
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Upper median; 0 for no values.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

fn median_us(ns: impl Iterator<Item = u64>) -> f64 {
    median(ns.map(|t| t as f64)) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0, 100) → a [10, 50) → b [20, 30); root → c [60, 90); and one
    /// replayed child that ran longer than its parent.
    fn tree() -> Recorder {
        let mut r = Recorder::new();
        let span = |name, request, parent, start_ns, end_ns| Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        };
        r.spans = vec![
            span("root", 0, None, 0, 100),
            span("a", 0, Some(0), 10, 50),
            span("b", 0, Some(1), 20, 30),
            span("c", 0, Some(0), 60, 90),
            span("root", 1, None, 200, 240),
            span("a", 1, Some(4), 300, 350),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        assert_eq!(tree().self_times_ns(), vec![30, 30, 10, 30, 0, 50]);
    }

    #[test]
    fn median_self_times_of_nested_requests_sum_to_the_median_root() {
        let mut r = tree();
        r.spans.truncate(4);
        assert_eq!(r.layer_self_us(), vec![("root", 0.03), ("a", 0.03), ("b", 0.01), ("c", 0.03)]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(r.self_share("root", |_| true), 1.0));
        assert!(close(r.self_share("root", |n| n == "a" || n == "b"), 0.4));
        // The over-long replayed child of request 1 shows as a sum above 1:
        // medians (the upper of two values here) are root 100, selfs 30 50 10 30.
        assert!(close(tree().self_share("root", |_| true), 1.2));
    }

    #[test]
    fn ratios_tell_a_faithful_replay_from_an_over_long_one() {
        // Request 0 nests: its self times are its root, and a's one child
        // covers a quarter of a. Request 1's replayed child ran 50 against a
        // root of 40: self times sum to 0 + 50.
        let r = tree();
        assert_eq!(r.children_ratio("a"), 0.25);
        assert_eq!(r.children_ratio("root"), 1.25); // upper median of 0.7 and 1.25
        assert_eq!(r.children_ratio("b"), 0.0);
        assert_eq!(r.children_ratio("missing"), 0.0);
        assert_eq!(r.self_sum_ratio(), 1.25); // upper median of 1 and 1.25
        let mut nested = tree();
        nested.spans.truncate(4);
        assert_eq!(nested.self_sum_ratio(), 1.0);
        assert_eq!(nested.children_ratio("root"), 0.7);
    }

    #[test]
    fn medians_are_per_name() {
        let r = tree();
        assert_eq!(r.median_us("root"), 0.1);
        assert_eq!(r.median_us("a"), 0.05);
        assert_eq!(r.median_self_us("a"), 0.05);
        assert_eq!(r.median_us("missing"), 0.0);
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let dir = std::env::temp_dir().join(format!("perf-spans-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        tree().write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 6);
        assert_eq!(
            text.lines().nth(2).unwrap(),
            "{\"id\":2,\"name\":\"b\",\"request\":0,\"parent\":1,\"start_ns\":20,\"end_ns\":30}"
        );
    }
}
