//! Lock-free histogram cells shared between one writer thread and any number
//! of reader threads.
//!
//! Every cell in a registry shard is written by exactly one thread (the shard
//! owner) and read by whoever calls `snapshot()`. That single-writer
//! discipline lets the hot path use plain `load`/`store` pairs with `Relaxed`
//! ordering — no read-modify-write instructions, no locks — while readers
//! see a racy-but-monotonic view that is perfectly adequate for telemetry.
//!
//! Two layers live here:
//!
//! * [`HistCore`] — the atomic twin of [`crate::Histogram`]: 27 log2 buckets
//!   plus count/sum/min/max, mergeable into the plain struct.
//! * [`AtomicHistogram`] — a cumulative [`HistCore`] plus a ring of
//!   [`WINDOW_SLOTS`] epoch-stamped slots so sliding-window percentiles can
//!   be computed over the last `IMCAT_OBS_WINDOW_SECS` seconds.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use crate::{Histogram, BUCKET_BOUNDS};

/// Number of bucket cells: one per bound plus the overflow slot.
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// Number of slots in the sliding-window ring. With the default 60 s window
/// each slot covers 7.5 s; percentile queries merge the slots still inside
/// the window, so readings lag by at most one slot width.
pub const WINDOW_SLOTS: usize = 8;

/// Sliding-window length in seconds (`IMCAT_OBS_WINDOW_SECS`, default 60,
/// clamped to at least [`WINDOW_SLOTS`] so every slot spans ≥ 1 s).
pub fn window_seconds() -> u64 {
    static SECS: OnceLock<u64> = OnceLock::new();
    *SECS.get_or_init(|| crate::knob_u64("IMCAT_OBS_WINDOW_SECS", 60).max(WINDOW_SLOTS as u64))
}

/// Seconds covered by one window slot.
pub fn slot_seconds() -> u64 {
    window_seconds() / WINDOW_SLOTS as u64
}

/// Epoch of the window slot containing the current instant. Offset by one so
/// that 0 always means "slot never written".
pub fn current_slot() -> u64 {
    crate::now_seconds() as u64 / slot_seconds() + 1
}

/// Bucket index for value `v`: exactly the bucket the linear scan
/// `BUCKET_BOUNDS.iter().position(|&b| v <= b)` would pick (overflow bucket
/// when no bound matches, which includes NaN), but O(1) via the exponent.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    let last = BUCKET_BOUNDS.len() - 1;
    if v.is_nan() || v > BUCKET_BOUNDS[last] {
        return BUCKET_BOUNDS.len();
    }
    if v <= BUCKET_BOUNDS[0] {
        return 0;
    }
    // Bounds are 1µs·2^i, so the exponent of v/1µs lands within one bucket of
    // the right answer; the fix-up loops make the result bit-exact with the
    // scan even when the division or log rounds across a boundary.
    let mut i = ((v * 1.0e6).log2().ceil()) as usize;
    i = i.min(last);
    while i > 0 && v <= BUCKET_BOUNDS[i - 1] {
        i -= 1;
    }
    while v > BUCKET_BOUNDS[i] {
        i += 1;
    }
    i
}

/// Atomic histogram cell: single-writer `record`, multi-reader `merge_into`.
#[derive(Debug)]
pub struct HistCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for HistCore {
    fn default() -> Self {
        Self::new()
    }
}

impl HistCore {
    /// Zeroed cell.
    pub fn new() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one value. Must only be called from the owning thread: uses
    /// plain load+store (no RMW), which is only correct with a single writer.
    #[inline]
    pub fn record(&self, v: f64) {
        let idx = bucket_index(v);
        let b = &self.buckets[idx];
        b.store(b.load(Relaxed) + 1, Relaxed);
        let n = self.count.load(Relaxed);
        if n == 0 {
            self.min_bits.store(v.to_bits(), Relaxed);
            self.max_bits.store(v.to_bits(), Relaxed);
        } else {
            let lo = f64::from_bits(self.min_bits.load(Relaxed));
            let hi = f64::from_bits(self.max_bits.load(Relaxed));
            self.min_bits.store(lo.min(v).to_bits(), Relaxed);
            self.max_bits.store(hi.max(v).to_bits(), Relaxed);
        }
        let s = f64::from_bits(self.sum_bits.load(Relaxed));
        self.sum_bits.store((s + v).to_bits(), Relaxed);
        // Count is published last so a reader that sees count > 0 also sees
        // initialised min/max bits.
        self.count.store(n + 1, Relaxed);
    }

    /// Number of recorded values (racy cross-thread read).
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Zeroes every field. Safe to call from any thread; concurrent writers
    /// may lose the bump in flight, which is acceptable for a reset.
    pub fn clear(&self) {
        self.count.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum_bits.store(0, Relaxed);
        self.min_bits.store(0, Relaxed);
        self.max_bits.store(0, Relaxed);
    }

    /// Folds this cell into a plain [`Histogram`] (reader side).
    pub fn merge_into(&self, h: &mut Histogram) {
        let n = self.count.load(Relaxed);
        if n == 0 {
            return;
        }
        let lo = f64::from_bits(self.min_bits.load(Relaxed));
        let hi = f64::from_bits(self.max_bits.load(Relaxed));
        if h.count == 0 {
            h.min = lo;
            h.max = hi;
        } else {
            h.min = h.min.min(lo);
            h.max = h.max.max(hi);
        }
        h.count += n;
        h.sum += f64::from_bits(self.sum_bits.load(Relaxed));
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst += src.load(Relaxed);
        }
    }
}

/// One slot of the sliding-window ring: an epoch stamp plus a cell. Epoch 0
/// means the slot has never been written.
#[derive(Debug, Default)]
pub struct WindowSlot {
    epoch: AtomicU64,
    core: HistCore,
}

/// Cumulative histogram plus a sliding-window ring, one per (shard, name).
#[derive(Debug)]
pub struct AtomicHistogram {
    cum: HistCore,
    slots: [WindowSlot; WINDOW_SLOTS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Zeroed histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            cum: HistCore::new(),
            slots: std::array::from_fn(|_| WindowSlot::default()),
        }
    }

    /// Records `v` into the cumulative cell and the window slot for `slot`
    /// (from [`current_slot`]). Owner thread only.
    #[inline]
    pub fn record(&self, v: f64, slot: u64) {
        self.cum.record(v);
        let w = &self.slots[(slot % WINDOW_SLOTS as u64) as usize];
        if w.epoch.load(Relaxed) != slot {
            // The slot last held an epoch that has since rotated out of the
            // window; clear before stamping so readers never mix epochs.
            w.core.clear();
            w.epoch.store(slot, Relaxed);
        }
        w.core.record(v);
    }

    /// Cumulative recordings in this cell.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cum.count()
    }

    /// Folds the cumulative cell into `h`.
    pub fn merge_cumulative(&self, h: &mut Histogram) {
        self.cum.merge_into(h);
    }

    /// Folds every slot still inside the window ending at `now_slot` into
    /// `h`.
    pub fn merge_window(&self, h: &mut Histogram, now_slot: u64) {
        for w in &self.slots {
            let e = w.epoch.load(Relaxed);
            if e != 0 && e + WINDOW_SLOTS as u64 > now_slot {
                w.core.merge_into(h);
            }
        }
    }

    /// Zeroes the cumulative cell and all window slots.
    pub fn clear(&self) {
        self.cum.clear();
        for w in &self.slots {
            w.epoch.store(0, Relaxed);
            w.core.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_index(v: f64) -> usize {
        BUCKET_BOUNDS.iter().position(|&b| v <= b).unwrap_or(BUCKET_BOUNDS.len())
    }

    #[test]
    fn bucket_index_matches_linear_scan() {
        let mut probes = vec![0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9, 1e9];
        for &b in &BUCKET_BOUNDS {
            probes.extend([b, b * (1.0 - 1e-12), b * (1.0 + 1e-12), b * 1.5]);
        }
        for v in probes {
            assert_eq!(bucket_index(v), scan_index(v), "v = {v}");
        }
    }

    #[test]
    fn core_record_and_merge_roundtrip() {
        let core = HistCore::new();
        let mut reference = Histogram::default();
        for v in [1.0e-6, 3.0e-4, 0.25, 40.0, 1.0e9] {
            core.record(v);
            reference.record(v);
        }
        let mut merged = Histogram::default();
        core.merge_into(&mut merged);
        assert_eq!(merged.count, reference.count);
        assert_eq!(merged.buckets, reference.buckets);
        assert_eq!(merged.min, reference.min);
        assert_eq!(merged.max, reference.max);
        assert!((merged.sum - reference.sum).abs() < 1e-9);
    }

    #[test]
    fn window_slots_expire() {
        let h = AtomicHistogram::new();
        h.record(0.5, 10);
        let mut w = Histogram::default();
        h.merge_window(&mut w, 10);
        assert_eq!(w.count, 1);
        // Advance past the ring length: the old slot falls out of the window.
        let mut w = Histogram::default();
        h.merge_window(&mut w, 10 + WINDOW_SLOTS as u64);
        assert_eq!(w.count, 0);
        // The cumulative cell keeps it.
        let mut c = Histogram::default();
        h.merge_cumulative(&mut c);
        assert_eq!(c.count, 1);
        // Re-using the slot index at a later epoch clears stale contents.
        h.record(0.25, 10 + WINDOW_SLOTS as u64);
        let mut w = Histogram::default();
        h.merge_window(&mut w, 10 + WINDOW_SLOTS as u64);
        assert_eq!(w.count, 1);
        assert_eq!(w.max, 0.25);
    }
}
