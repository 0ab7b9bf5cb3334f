//! # imcat-obs — live concurrent telemetry for the IMCAT stack
//!
//! A zero-dependency observability layer: counters, gauges, fixed-bucket
//! timing histograms with sliding-window percentiles, scoped span timers,
//! per-request traces, structured events, a JSONL sink, a Prometheus-style
//! `/metrics` endpoint, and an end-of-run summary table.
//!
//! ## Design
//!
//! * **Global sharded registry.** Each recording thread owns a shard of
//!   atomic cells ([`registry`]); `snapshot()` merges every shard, so
//!   metrics recorded on `imcat-par` workers or concurrent serve threads are
//!   never lost. Cells are single-writer, so the hot path is a relaxed
//!   load+store — no locks, no read-modify-write (see [`sketch`]).
//! * **Off by default.** Every recording call first checks one process-wide
//!   atomic flag; when disabled the instrumented fast paths stay
//!   branch-predictable and allocation-free. Enable explicitly with
//!   [`set_enabled`] or from the environment with [`init_from_env`]
//!   (`IMCAT_OBS=1`, `IMCAT_OBS_OUT` or `IMCAT_OBS_ADDR` set).
//! * **Static keys.** Metric names are `&'static str` so the hot path never
//!   allocates; the hottest call sites can additionally pre-intern a name
//!   via the [`Counter`]/[`Hist`] handles. Dynamic payloads belong in
//!   [`emit`]ted events.
//! * **Live outputs.** [`init_from_env`] can start an HTTP listener
//!   ([`http`]) serving `/metrics` (Prometheus text) and `/trace/<id>`
//!   (request traces, see [`trace`]) while a run is in flight.
//!
//! ## Test isolation
//!
//! The registry is process-global, so tests that assert on telemetry must
//! hold the [`exclusive`] guard; it serialises such tests and resets state
//! on entry and exit.
//!
//! ## Event schema (JSONL)
//!
//! [`write_jsonl`] writes one JSON object per line:
//!
//! * events: `{"t": seconds_since_process_start, "kind": "...", ...fields}`
//! * counters: `{"kind": "counter", "name": "...", "value": n}`
//! * gauges: `{"kind": "gauge", "name": "...", "value": x}`
//! * histograms: `{"kind": "hist", "name": "...", "count": n, "sum": s,
//!   "mean": m, "min": lo, "max": hi, "p50": q, "p99": q,
//!   "window_count": n, "window_p50": q, "window_p99": q}`

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod expo;
pub mod http;
mod json;
pub mod knobs;
pub mod registry;
pub mod sketch;
pub mod trace;

pub use json::{Json, ToJson};
pub use knobs::{knob_f32, knob_f64, knob_flag, knob_str, knob_u64, knob_usize};
pub use registry::{enabled, register_thread, set_enabled};

/// Histogram bucket upper bounds in seconds: `1µs · 2^i`. Values above the
/// last bound land in an overflow bucket.
pub const BUCKET_BOUNDS: [f64; 26] = {
    let mut b = [0.0; 26];
    let mut i = 0;
    while i < 26 {
        b[i] = 1.0e-6 * (1u64 << i) as f64;
        i += 1;
    }
    b
};

/// Fixed-bucket histogram of seconds.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Bucket counts; `buckets[i]` counts values `<= BUCKET_BOUNDS[i]`, the
    /// final slot is overflow.
    pub buckets: [u64; BUCKET_BOUNDS.len() + 1],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: f64) {
        self.buckets[sketch::bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Folds `other` into `self` (used when merging registry shards).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate, or `None` when the histogram is
    /// empty. The estimate is the upper bound of the bucket containing the
    /// `q`-quantile observation, clamped to the observed `[min, max]` range —
    /// so a histogram holding a single value (or a single occupied bucket)
    /// reports that value exactly instead of an interpolated bucket bound.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = if i < BUCKET_BOUNDS.len() { BUCKET_BOUNDS[i] } else { self.max };
                return Some(bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// [`Histogram::try_quantile`] with a documented `0.0` sentinel for the
    /// empty histogram (keeps downstream reports NaN-free).
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Seconds since process start.
    pub t: f64,
    /// Event kind, e.g. `"epoch"` or `"loss_terms"`.
    pub kind: String,
    /// Event payload.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Renders the event as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t".to_string(), Json::Num(self.t)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
        ];
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }

    /// Parses an event from the JSON object written by [`Event::to_json`].
    pub fn from_json(v: &Json) -> Option<Event> {
        let t = v.get("t")?.as_f64()?;
        let kind = v.get("kind")?.as_str()?.to_string();
        let fields = match v {
            Json::Obj(fields) => {
                fields.iter().filter(|(k, _)| k != "t" && k != "kind").cloned().collect()
            }
            _ => return None,
        };
        Some(Event { t, kind, fields })
    }
}

fn epoch_instant() -> Instant {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Seconds since the first telemetry call of the process.
pub fn now_seconds() -> f64 {
    epoch_instant().elapsed().as_secs_f64()
}

/// Enables recording when `IMCAT_OBS` is truthy or either of
/// `IMCAT_OBS_OUT`, `IMCAT_OBS_ADDR` is set; returns the resulting enabled
/// state. Starts the live HTTP endpoint when its knob is present (a failure
/// is reported, never fatal).
pub fn init_from_env() -> bool {
    let addr = knob_str("IMCAT_OBS_ADDR");
    let on = knob_flag("IMCAT_OBS", false) || out_path().is_some() || addr.is_some();
    if on {
        set_enabled(true);
        if let Some(addr) = addr {
            if let Err(e) = http::start(&addr) {
                eprintln!("imcat-obs: cannot serve /metrics on {addr}: {e}");
            }
        }
    }
    on
}

/// The JSONL sink path from `IMCAT_OBS_OUT`, if set.
pub fn out_path() -> Option<PathBuf> {
    knob_str("IMCAT_OBS_OUT").map(PathBuf::from)
}

/// Clears all recorded metrics, events, and stored traces across every
/// thread's shard (the enabled flag is preserved).
pub fn reset() {
    registry::reset();
    trace::reset();
}

/// Adds `v` to a named counter.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if enabled() {
        registry::counter_add(name, v);
    }
}

/// Sets a named gauge.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if enabled() {
        registry::gauge_set(name, v);
    }
}

/// Records a duration (seconds) into a named histogram.
#[inline]
pub fn observe(name: &'static str, seconds: f64) {
    if enabled() {
        registry::observe(name, seconds);
    }
}

/// Appends a structured event.
pub fn emit(kind: &str, fields: Vec<(&str, Json)>) {
    if enabled() {
        registry::emit(Event {
            t: now_seconds(),
            kind: kind.to_string(),
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
    }
}

/// Pre-interned counter handle for hot call sites. Declare as a `static`;
/// the name is interned on first use, after which [`Counter::add`] skips the
/// name hash entirely (one id-indexed slot load plus the cell bump).
pub struct Counter {
    name: &'static str,
    id: std::sync::OnceLock<u32>,
}

impl Counter {
    /// A handle for counter `name` (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, id: std::sync::OnceLock::new() }
    }

    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            let id = *self.id.get_or_init(|| registry::intern(self.name));
            registry::counter_add_id(id, self.name, v);
        }
    }
}

/// Pre-interned histogram handle for hot call sites; see [`Counter`].
pub struct Hist {
    name: &'static str,
    id: std::sync::OnceLock<u32>,
}

impl Hist {
    /// A handle for histogram `name` (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Hist { name, id: std::sync::OnceLock::new() }
    }

    /// Records a duration (seconds).
    #[inline]
    pub fn observe(&self, seconds: f64) {
        if enabled() {
            let id = *self.id.get_or_init(|| registry::intern(self.name));
            registry::observe_id(id, self.name, seconds);
        }
    }
}

/// Serialises telemetry-asserting tests against the process-global registry:
/// takes the test lock, resets all state, and sets the enabled flag to `on`;
/// dropping the guard disables recording and resets again.
pub fn exclusive(on: bool) -> ObsGuard {
    let guard = registry::lock_test();
    reset();
    set_enabled(on);
    ObsGuard { _lock: guard }
}

/// Guard returned by [`exclusive`].
pub struct ObsGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        set_enabled(false);
        reset();
    }
}

/// Scoped timer: on drop, records elapsed seconds into the histogram named
/// at construction and attaches the span to the in-flight request trace (if
/// one is installed on this thread). Inert (and allocation-free) when
/// recording is disabled. Dropping during a panic unwind still records the
/// duration — the destructor does no allocation-dependent work that could
/// double-panic — so phase breakdowns stay consistent across caught panics.
pub struct Span {
    start: Option<(&'static str, Instant, f64)>,
}

impl Span {
    /// Whether this span is live (recording was enabled at creation).
    #[inline]
    pub fn active(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, t0, start_t)) = self.start.take() {
            let dur = t0.elapsed().as_secs_f64();
            observe(name, dur);
            trace::record_span(name, start_t, dur);
        }
    }
}

/// Opens a [`Span`] recording into histogram `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span { start: if enabled() { Some((name, Instant::now(), now_seconds())) } else { None } }
}

/// Immutable merged copy of every shard's state, used for deltas and
/// reporting.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Cumulative histograms by name.
    pub hists: Vec<(String, Histogram)>,
    /// Sliding-window histograms by name (last `IMCAT_OBS_WINDOW_SECS`
    /// seconds; absent when nothing landed in the window).
    pub windows: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Sliding-window histogram by name.
    pub fn window(&self, name: &str) -> Option<&Histogram> {
        self.windows.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Total seconds recorded into a histogram (0 when absent).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hist(name).map_or(0.0, |h| h.sum)
    }

    /// Number of recordings in a histogram (0 when absent).
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.count)
    }

    /// Sum of `hist_sum` over every histogram whose name starts with
    /// `prefix` (e.g. `"phase."`).
    pub fn prefixed_time(&self, prefix: &str) -> f64 {
        self.hists.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, h)| h.sum).sum()
    }
}

/// Snapshots the merged state of every thread's shard.
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Clones the buffered events.
pub fn events() -> Vec<Event> {
    registry::events()
}

fn hist_json_fields(name: &str, h: &Histogram, window: Option<&Histogram>) -> Json {
    let w = window.cloned().unwrap_or_default();
    Json::obj(vec![
        ("kind", Json::Str("hist".into())),
        ("name", Json::Str(name.to_string())),
        ("count", Json::Num(h.count as f64)),
        ("sum", Json::Num(h.sum)),
        ("mean", Json::Num(h.mean())),
        ("min", Json::Num(if h.count == 0 { 0.0 } else { h.min })),
        ("max", Json::Num(if h.count == 0 { 0.0 } else { h.max })),
        ("p50", Json::Num(h.quantile(0.5))),
        ("p99", Json::Num(h.quantile(0.99))),
        ("window_count", Json::Num(w.count as f64)),
        ("window_p50", Json::Num(w.quantile(0.5))),
        ("window_p99", Json::Num(w.quantile(0.99))),
    ])
}

fn sink_lines(snap: &Snapshot, events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().render());
        out.push('\n');
    }
    for (name, v) in &snap.counters {
        let line = Json::obj(vec![
            ("kind", Json::Str("counter".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(*v as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    for (name, v) in &snap.gauges {
        let line = Json::obj(vec![
            ("kind", Json::Str("gauge".into())),
            ("name", Json::Str(name.clone())),
            ("value", Json::Num(*v)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    for (name, h) in &snap.hists {
        out.push_str(&hist_json_fields(name, h, snap.window(name)).render());
        out.push('\n');
    }
    out
}

/// Writes buffered events plus final counter/gauge/histogram summaries as
/// JSONL to `path`, creating parent directories as needed.
///
/// The write is atomic (temp file + fsync + rename), so a crash mid-write —
/// or a reader racing the writer — never observes a half-written sink: the
/// path holds either the previous complete file or the new one.
pub fn write_jsonl(path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(sink_lines(&snapshot(), &events()).as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Human-readable summary of every recorded metric.
pub fn summary() -> String {
    let snap = snapshot();
    let mut out = String::new();
    if !snap.hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "timer", "count", "total(s)", "mean(s)", "p50(s)", "p99(s)"
        );
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12.6} {:>12.9} {:>12.9} {:>12.9}",
                name,
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
    }
    if !snap.windows.is_empty() {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>12}",
            format!("window({}s)", sketch::window_seconds()),
            "count",
            "p50(s)",
            "p95(s)",
            "p99(s)"
        );
        for (name, w) in &snap.windows {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12.9} {:>12.9} {:>12.9}",
                name,
                w.count,
                w.quantile(0.5),
                w.quantile(0.95),
                w.quantile(0.99),
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "{:<28} {:>16}", "counter", "value");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name:<28} {v:>16}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "{:<28} {:>16}", "gauge", "value");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name:<28} {v:>16.6}");
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// End-of-run hook: when `IMCAT_OBS_OUT` is set, writes the JSONL sink there
/// and returns the path written.
pub fn finalize() -> Option<PathBuf> {
    let path = out_path()?;
    match write_jsonl(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("imcat-obs: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_clean<T>(f: impl FnOnce() -> T) -> T {
        let _guard = exclusive(true);
        f()
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = exclusive(false);
        counter_add("x", 3);
        observe("h", 0.5);
        emit("e", vec![]);
        {
            let s = span("sp");
            assert!(!s.active());
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(events().is_empty());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::default();
        // Exactly on the first bound (1µs) -> bucket 0; just above -> bucket 1.
        h.record(1.0e-6);
        h.record(1.000001e-6 * 1.5);
        // Far beyond the last bound -> overflow bucket.
        h.record(1.0e9);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.count, 3);
        assert!((h.max - 1.0e9).abs() < 1.0);
        // Quantiles resolve to bucket upper bounds (max for overflow).
        assert_eq!(h.quantile(0.01), BUCKET_BOUNDS[0]);
        assert_eq!(h.quantile(1.0), h.max);
        // Bounds double each bucket.
        for i in 1..BUCKET_BOUNDS.len() {
            assert!((BUCKET_BOUNDS[i] / BUCKET_BOUNDS[i - 1] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: documented sentinel, no NaN.
        let h = Histogram::default();
        assert_eq!(h.try_quantile(0.5), None);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        // Single value: every quantile is that value exactly, not the bucket
        // upper bound (0.0003 lands in the (256µs, 512µs] bucket).
        let mut h = Histogram::default();
        h.record(3.0e-4);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.0e-4);
        }
        // Single occupied bucket: estimates clamp to the observed range.
        let mut h = Histogram::default();
        h.record(2.6e-4);
        h.record(3.0e-4);
        for q in [0.5, 0.99] {
            let v = h.quantile(q);
            assert!((2.6e-4..=3.0e-4).contains(&v), "q{q} = {v}");
        }
    }

    #[test]
    fn histogram_merge_combines_everything() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1.0e-6, 5.0e-4, 0.25] {
            a.record(v);
            all.record(v);
        }
        for v in [9.0e-6, 40.0] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, all.count);
        assert_eq!(a.buckets, all.buckets);
        assert_eq!(a.min, all.min);
        assert_eq!(a.max, all.max);
        assert!((a.sum - all.sum).abs() < 1e-12);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a.count, before.count);
        assert_eq!(a.min, before.min);
    }

    #[test]
    fn counters_aggregate_across_spans() {
        with_clean(|| {
            for _ in 0..4 {
                let _s = span("op.test.time");
                counter_add("op.test.flops", 10);
            }
            let snap = snapshot();
            assert_eq!(snap.counter("op.test.flops"), 40);
            assert_eq!(snap.hist_count("op.test.time"), 4);
            assert!(snap.hist_sum("op.test.time") >= 0.0);
            assert_eq!(snap.prefixed_time("op."), snap.hist_sum("op.test.time"));
            // The sliding window covers "now", so fresh records appear there.
            assert_eq!(snap.window("op.test.time").map(|w| w.count), Some(4));
        });
    }

    #[test]
    fn static_handles_hit_the_same_cells_as_names() {
        static REQS: Counter = Counter::new("handle.test.requests");
        static LAT: Hist = Hist::new("handle.test.seconds");
        with_clean(|| {
            REQS.add(2);
            REQS.add(3);
            counter_add("handle.test.requests", 1);
            LAT.observe(0.001);
            observe("handle.test.seconds", 0.002);
            let snap = snapshot();
            assert_eq!(snap.counter("handle.test.requests"), 6);
            assert_eq!(snap.hist_count("handle.test.seconds"), 2);
        });
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        with_clean(|| {
            emit("epoch", vec![("epoch", Json::Num(1.0)), ("loss", Json::Num(0.25))]);
            emit("eval", vec![("recall", Json::Num(0.125))]);
            counter_add("op.matmul.count", 2);
            observe("phase.forward", 0.5);

            let original = events();
            let text = sink_lines(&snapshot(), &original);
            let mut parsed_events = Vec::new();
            let mut saw_counter = false;
            let mut saw_hist = false;
            for line in text.lines() {
                let v = Json::parse(line).expect("each line parses");
                match v.get("kind").and_then(Json::as_str) {
                    Some("counter") => {
                        saw_counter = true;
                        assert_eq!(v.get("name").unwrap().as_str(), Some("op.matmul.count"));
                        assert_eq!(v.get("value").unwrap().as_f64(), Some(2.0));
                    }
                    Some("hist") => {
                        saw_hist = true;
                        assert_eq!(v.get("sum").unwrap().as_f64(), Some(0.5));
                        assert_eq!(v.get("window_count").unwrap().as_f64(), Some(1.0));
                    }
                    _ => parsed_events.push(Event::from_json(&v).expect("event parses")),
                }
            }
            assert!(saw_counter && saw_hist);
            assert_eq!(parsed_events.len(), original.len());
            for (a, b) in original.iter().zip(&parsed_events) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.fields, b.fields);
                assert!((a.t - b.t).abs() < 1e-9);
            }
        });
    }

    #[test]
    fn summary_lists_recorded_names() {
        with_clean(|| {
            counter_add("c1", 7);
            gauge_set("g1", 1.5);
            observe("t1", 0.001);
            let s = summary();
            for needle in ["c1", "g1", "t1"] {
                assert!(s.contains(needle), "summary missing {needle}:\n{s}");
            }
        });
    }
}
