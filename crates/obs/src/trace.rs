//! Per-request tracing: minted trace ids, span propagation, and a bounded
//! ring buffer of finished traces with slow-request exemplars.
//!
//! [`request`] mints a process-unique id for every request when telemetry is
//! on, but only *samples* a fraction of them (default 1 in
//! `IMCAT_OBS_TRACE_SAMPLE`): sampled requests install a [`TraceHandle`] in a
//! thread-local slot so every [`crate::span`] that closes while the request
//! is in flight — including spans on `imcat-par` workers, which re-install
//! the handle via [`enter`] — is attached to the trace. Unsampled requests
//! stay on a ~10 ns fast path that still captures a span-less exemplar when
//! the request turns out slow.
//!
//! "Slow" means the duration exceeded `IMCAT_OBS_SLOW_US` when set, else the
//! live sliding-window p99 of the request-latency histogram (re-evaluated at
//! most once per second), so exemplars self-calibrate to the workload.
//!
//! Finished traces land in a ring buffer (`IMCAT_OBS_TRACE_CAP`, default
//! 512) served live at `/trace/<id>` by [`crate::http`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::{registry, Json};

/// Spans recorded per trace before further spans are counted as dropped.
pub const MAX_SPANS: usize = 512;

/// One closed span attached to a trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Histogram name of the span.
    pub name: &'static str,
    /// Process seconds at span start.
    pub t: f64,
    /// Span duration in seconds.
    pub dur: f64,
}

#[derive(Debug)]
struct TraceShared {
    id: u64,
    kind: &'static str,
    hist: &'static str,
    start: Instant,
    start_t: f64,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

/// Shared handle to an in-flight sampled trace. Clone-cheap; `imcat-par`
/// captures one per job and re-installs it on workers.
#[derive(Clone, Debug)]
pub struct TraceHandle(Arc<TraceShared>);

impl TraceHandle {
    /// The trace id.
    pub fn id(&self) -> u64 {
        self.0.id
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceHandle>> = const { RefCell::new(None) };
}

/// The trace installed on this thread, if any.
pub fn current() -> Option<TraceHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `handle` as this thread's trace until the guard drops (restoring
/// whatever was installed before). Used by worker pools to propagate the
/// submitting thread's trace across the spawn boundary.
pub fn enter(handle: TraceHandle) -> EnterGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(handle));
    EnterGuard { prev }
}

/// Restores the previous thread-local trace on drop.
pub struct EnterGuard {
    prev: Option<TraceHandle>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Attaches a closed span to this thread's trace, if one is installed.
/// Called from [`crate::Span`]'s destructor; must never panic.
#[inline]
pub(crate) fn record_span(name: &'static str, t: f64, dur: f64) {
    CURRENT.with(|c| {
        if let Some(h) = c.borrow().as_ref() {
            let mut spans = lock(&h.0.spans);
            if spans.len() < MAX_SPANS {
                spans.push(SpanRecord { name, t, dur });
            } else {
                h.0.dropped.fetch_add(1, Relaxed);
            }
        }
    });
}

/// A finished request trace as stored in the ring buffer.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// Minted id (monotone across the process).
    pub id: u64,
    /// Request kind, e.g. `"serve.request"` or `"serve.tick"`.
    pub kind: &'static str,
    /// Process seconds at request start.
    pub t: f64,
    /// Request duration in seconds.
    pub dur: f64,
    /// Whether the request exceeded the slow threshold when it finished.
    pub slow: bool,
    /// Spans attached while the request was in flight (empty for unsampled
    /// slow exemplars).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after [`MAX_SPANS`].
    pub dropped: u64,
}

impl FinishedTrace {
    /// Renders the trace as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("kind", Json::Str(self.kind.to_string())),
            ("t", Json::Num(self.t)),
            ("dur", Json::Num(self.dur)),
            ("slow", Json::Bool(self.slow)),
            ("dropped_spans", Json::Num(self.dropped as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.to_string())),
                                ("t", Json::Num(s.t)),
                                ("dur", Json::Num(s.dur)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct CachedThreshold {
    value: f64,
    at: f64,
}

struct Store {
    ring: VecDeque<FinishedTrace>,
    cap: usize,
    total: u64,
    slow: u64,
    latest_id: u64,
    thresholds: Vec<(&'static str, CachedThreshold)>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        let cap = crate::knob_usize("IMCAT_OBS_TRACE_CAP", 512).max(1);
        Mutex::new(Store {
            ring: VecDeque::with_capacity(cap.min(1024)),
            cap,
            total: 0,
            slow: 0,
            latest_id: 0,
            thresholds: Vec::new(),
        })
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn sample_every() -> u64 {
    static EVERY: OnceLock<u64> = OnceLock::new();
    *EVERY.get_or_init(|| crate::knob_u64("IMCAT_OBS_TRACE_SAMPLE", 16))
}

fn slow_us_override() -> Option<f64> {
    static US: OnceLock<Option<f64>> = OnceLock::new();
    *US.get_or_init(|| crate::knob_str("IMCAT_OBS_SLOW_US").and_then(|v| v.parse::<f64>().ok()))
}

/// Slow threshold (seconds) for requests recorded into histogram `hist`:
/// the `IMCAT_OBS_SLOW_US` override, else the cached sliding-window p99.
fn slow_threshold(hist: &'static str) -> f64 {
    if let Some(us) = slow_us_override() {
        return us * 1.0e-6;
    }
    let now = crate::now_seconds();
    let mut s = lock(store());
    if let Some((_, cached)) = s.thresholds.iter().find(|(n, _)| *n == hist) {
        if now - cached.at < 1.0 {
            return cached.value;
        }
    }
    let value = registry::window_quantile(hist, 0.99).unwrap_or(f64::INFINITY);
    match s.thresholds.iter_mut().find(|(n, _)| *n == hist) {
        Some((_, cached)) => *cached = CachedThreshold { value, at: now },
        None => s.thresholds.push((hist, CachedThreshold { value, at: now })),
    }
    value
}

fn push(trace: FinishedTrace) {
    let mut s = lock(store());
    s.total += 1;
    if trace.slow {
        s.slow += 1;
    }
    s.latest_id = s.latest_id.max(trace.id);
    if s.ring.len() == s.cap {
        // Prefer evicting the oldest non-slow trace so exemplars survive a
        // flood of fast requests; fall back to plain FIFO.
        if let Some(i) = s.ring.iter().position(|t| !t.slow) {
            s.ring.remove(i);
        } else {
            s.ring.pop_front();
        }
    }
    s.ring.push_back(trace);
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Live guard for one request. Created by [`request`]; finishing happens in
/// the destructor so early returns and panics still close the trace.
pub enum RequestTrace {
    /// Telemetry disabled: fully inert.
    Off,
    /// Unsampled request: no span collection, slow-exemplar check on drop.
    Fast {
        /// Minted id.
        id: u64,
        /// Request kind.
        kind: &'static str,
        /// Latency histogram used for the slow threshold.
        hist: &'static str,
        /// Request start.
        start: Instant,
        /// Process seconds at start.
        start_t: f64,
    },
    /// Sampled request: spans are collected via the thread-local handle.
    Sampled {
        /// The in-flight trace.
        handle: TraceHandle,
        /// Thread-local handle to restore on drop.
        prev: Option<TraceHandle>,
    },
}

impl RequestTrace {
    /// The minted id (`None` when telemetry is off).
    pub fn id(&self) -> Option<u64> {
        match self {
            RequestTrace::Off => None,
            RequestTrace::Fast { id, .. } => Some(*id),
            RequestTrace::Sampled { handle, .. } => Some(handle.id()),
        }
    }
}

impl Drop for RequestTrace {
    fn drop(&mut self) {
        match self {
            RequestTrace::Off => {}
            RequestTrace::Fast { id, kind, hist, start, start_t } => {
                let dur = start.elapsed().as_secs_f64();
                if dur >= slow_threshold(hist) {
                    push(FinishedTrace {
                        id: *id,
                        kind,
                        t: *start_t,
                        dur,
                        slow: true,
                        spans: Vec::new(),
                        dropped: 0,
                    });
                }
            }
            RequestTrace::Sampled { handle, prev } => {
                let prev = prev.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
                let shared = &handle.0;
                let dur = shared.start.elapsed().as_secs_f64();
                let spans = std::mem::take(&mut *lock(&shared.spans));
                push(FinishedTrace {
                    id: shared.id,
                    kind: shared.kind,
                    t: shared.start_t,
                    dur,
                    slow: dur >= slow_threshold(shared.hist),
                    spans,
                    dropped: shared.dropped.load(Relaxed),
                });
            }
        }
    }
}

/// Opens a request trace of `kind` whose latency lands in histogram `hist`.
/// `force_sample` bypasses the 1-in-N sampling (used for batch ticks, which
/// are rare and information-dense).
pub fn request(kind: &'static str, hist: &'static str, force_sample: bool) -> RequestTrace {
    if !registry::enabled() {
        return RequestTrace::Off;
    }
    let id = NEXT_ID.fetch_add(1, Relaxed) + 1;
    let every = sample_every();
    let sampled = force_sample || (every > 0 && id % every == 0);
    let start = Instant::now();
    let start_t = crate::now_seconds();
    if !sampled {
        return RequestTrace::Fast { id, kind, hist, start, start_t };
    }
    let handle = TraceHandle(Arc::new(TraceShared {
        id,
        kind,
        hist,
        start,
        start_t,
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    }));
    let prev = CURRENT.with(|c| c.borrow_mut().replace(handle.clone()));
    RequestTrace::Sampled { handle, prev }
}

/// Fetches a stored trace by id.
pub fn get(id: u64) -> Option<FinishedTrace> {
    lock(store()).ring.iter().find(|t| t.id == id).cloned()
}

/// The most recent `n` stored traces, newest first.
pub fn recent(n: usize) -> Vec<FinishedTrace> {
    lock(store()).ring.iter().rev().take(n).cloned().collect()
}

/// Highest id stored so far (`None` before the first trace lands).
pub fn latest_id() -> Option<u64> {
    let s = lock(store());
    if s.latest_id == 0 {
        None
    } else {
        Some(s.latest_id)
    }
}

/// `(stored, total_finished, slow_finished)` over the process lifetime.
pub fn stats() -> (usize, u64, u64) {
    let s = lock(store());
    (s.ring.len(), s.total, s.slow)
}

/// Clears the ring buffer and counters (ids keep incrementing).
pub fn reset() {
    let mut s = lock(store());
    s.ring.clear();
    s.total = 0;
    s.slow = 0;
    s.latest_id = 0;
    s.thresholds.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_request_collects_spans_and_resolves_by_id() {
        let _g = crate::exclusive(true);
        std::env::remove_var("IMCAT_OBS_SLOW_US");
        let id = {
            let t = request("test.request", "test.request.seconds", true);
            let id = t.id().expect("enabled => id minted");
            {
                let _s = crate::span("test.phase.inner");
            }
            id
        };
        let trace = get(id).expect("trace stored");
        assert_eq!(trace.kind, "test.request");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "test.phase.inner");
        assert!(trace.dur >= trace.spans[0].dur);
        assert_eq!(latest_id(), Some(id));
    }

    #[test]
    fn disabled_request_is_inert() {
        let _g = crate::exclusive(false);
        let t = request("test.request", "test.request.seconds", true);
        assert!(t.id().is_none());
        drop(t);
        assert!(current().is_none());
    }

    #[test]
    fn enter_guard_restores_previous_handle() {
        let _g = crate::exclusive(true);
        let outer = request("outer", "outer.seconds", true);
        let outer_handle = current().expect("outer installed");
        assert_eq!(Some(outer_handle.id()), outer.id());
        {
            let inner = request("inner", "inner.seconds", true);
            assert_eq!(current().map(|h| h.id()), inner.id());
        }
        assert_eq!(current().map(|h| h.id()), outer.id());
        drop(outer);
        assert!(current().is_none());
    }

    #[test]
    fn ring_evicts_fast_before_slow() {
        let _g = crate::exclusive(true);
        reset();
        let cap = lock(store()).cap;
        push(FinishedTrace {
            id: u64::MAX,
            kind: "slowpoke",
            t: 0.0,
            dur: 10.0,
            slow: true,
            spans: Vec::new(),
            dropped: 0,
        });
        for i in 0..cap as u64 + 8 {
            push(FinishedTrace {
                id: i + 1,
                kind: "fast",
                t: 0.0,
                dur: 1e-6,
                slow: false,
                spans: Vec::new(),
                dropped: 0,
            });
        }
        assert!(get(u64::MAX).is_some(), "slow exemplar survived eviction");
        assert_eq!(lock(store()).ring.len(), cap);
    }
}
