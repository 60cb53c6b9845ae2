//! Log-linear (HDR-style) latency histograms with lock-free atomic buckets.
//!
//! Each [`LatencyHisto`] is a fixed-memory, const-constructible histogram
//! recording `u64` samples (nanoseconds by convention). Values are binned
//! into power-of-two octaves, each split into `2^SUB_BITS` linear
//! sub-buckets, so the bucket containing a value `v >= 2^SUB_BITS` has
//! width `<= v / 2^SUB_BITS`: any reported percentile is within a
//! relative error of `2^-SUB_BITS` (6.25% for `SUB_BITS = 4`) of the
//! exact order statistic at the same rank. Values below `2^SUB_BITS`
//! are stored exactly (one bucket per integer).
//!
//! All state is plain `AtomicU64`s bumped with relaxed ordering, so
//! many worker threads can record into one static histogram without a
//! lock, and [`LatencyHisto::merge_from`] folds one histogram (or a
//! drained [`HistSnapshot`]) into another — merge is associative and
//! commutative, which the integration suite checks.
//!
//! Producers never call `record` directly on hot paths; they go through
//! [`timer`] / [`maybe_now`] + [`record_since`], which collapse to a
//! single relaxed load of the global trace gate when tracing is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: the first octave
/// holds values `0..2^SUB_BITS` exactly, and each of the remaining
/// `64 - SUB_BITS` octaves contributes `SUB` buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Map a sample value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    // Highest set bit; v >= 16 so msb >= SUB_BITS.
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    octave * SUB + sub
}

/// Inclusive lower bound of bucket `i` (the smallest value that maps to it).
pub fn bucket_lo(i: usize) -> u64 {
    let octave = i / SUB;
    let sub = (i % SUB) as u64;
    if octave == 0 {
        return sub;
    }
    (SUB as u64 + sub) << (octave - 1)
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_lo(i + 1)
}

/// Midpoint representative reported for a bucket. Exact for the
/// single-integer buckets below `2^SUB_BITS`.
fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_lo(i);
    let hi = bucket_hi(i);
    lo + (hi - lo) / 2
}

/// A fixed-memory log-linear histogram with atomic buckets.
///
/// Const-constructible so instances can live in the static registry
/// alongside the counters; one instance is ~7.7 KiB.
pub struct LatencyHisto {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl LatencyHisto {
    /// Create an empty histogram (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        // `AtomicU64` is not Copy; build the array via a const block.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHisto {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; NUM_BUCKETS],
        }
    }

    /// The registry name, e.g. `core.mine_task_nanos`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample. Lock-free; callers on hot paths should gate on
    /// [`crate::enabled`] (the [`timer`] helpers do this for you).
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold another histogram's contents into this one (cross-worker
    /// merge). Bucket-wise addition plus a max-merge: associative and
    /// commutative.
    pub fn merge_from(&self, other: &LatencyHisto) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Fold a drained snapshot into this histogram.
    pub fn merge_snapshot(&self, snap: &HistSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
        for (i, &c) in snap.buckets.iter().enumerate() {
            if c != 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// Zero all state (between benchmark iterations / test cases).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state out into an owned snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Condensed percentiles for reports and metrics export.
    pub fn summary(&self) -> HistSummary {
        self.snapshot().summary()
    }
}

/// An owned, non-atomic copy of a histogram's state.
#[derive(Clone)]
pub struct HistSnapshot {
    /// The source histogram's registry name.
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Per-bucket sample counts (`NUM_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the sample of rank `ceil(q * count)` (1-based), clamped
    /// to the observed maximum. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_mid(i).min(self.max);
            }
        }
        self.max
    }

    /// Condensed percentiles for reports and metrics export.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            name: self.name,
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

/// The percentile digest exported by metrics snapshots and blackbox
/// reports: p50/p90/p99/p99.9 plus exact count/sum/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSummary {
    /// The source histogram's registry name.
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (log-linear approximation; see module docs for bounds).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

// ---------------------------------------------------------------------------
// Static registry
// ---------------------------------------------------------------------------

/// Per-task mine latency: one first-level item mined to completion, on
/// any worker (`cfp-core`'s `mine_item`).
pub static CORE_MINE_TASK_NANOS: LatencyHisto = LatencyHisto::new("core.mine_task_nanos");
/// Per-watermark emit latency: duration of a `sink.progress(..)` call
/// (includes checkpoint commit when a `CheckpointSink` is attached).
pub static CORE_EMIT_NANOS: LatencyHisto = LatencyHisto::new("core.emit_nanos");
/// Checkpoint commit latency: one atomic manifest save in `ckpt::save`.
pub static CORE_CKPT_COMMIT_NANOS: LatencyHisto = LatencyHisto::new("core.ckpt_commit_nanos");
/// Spill-rung projection latency: project + build + convert for one
/// partition (excludes the disk write).
pub static CORE_SPILL_PROJECT_NANOS: LatencyHisto = LatencyHisto::new("core.spill_project_nanos");
/// Spill-rung per-partition mine latency (includes the partition load).
pub static CORE_SPILL_MINE_NANOS: LatencyHisto = LatencyHisto::new("core.spill_mine_nanos");
/// Spill-partition serialize + atomic-write latency.
pub static DATA_SPILL_WRITE_NANOS: LatencyHisto = LatencyHisto::new("data.spill_write_nanos");
/// Spill-partition read + decode latency.
pub static DATA_SPILL_LOAD_NANOS: LatencyHisto = LatencyHisto::new("data.spill_load_nanos");
/// Double-buffered reader: consumer wait for the next filled buffer.
pub static DATA_BUFFER_WAIT_NANOS: LatencyHisto = LatencyHisto::new("data.buffer_wait_nanos");

/// Every histogram in the registry, sorted by name.
static ALL: &[&LatencyHisto] = &[
    &CORE_CKPT_COMMIT_NANOS,
    &CORE_EMIT_NANOS,
    &CORE_MINE_TASK_NANOS,
    &CORE_SPILL_MINE_NANOS,
    &CORE_SPILL_PROJECT_NANOS,
    &DATA_BUFFER_WAIT_NANOS,
    &DATA_SPILL_LOAD_NANOS,
    &DATA_SPILL_WRITE_NANOS,
];

/// Summaries of every non-empty registry histogram, sorted by name.
pub fn summaries() -> Vec<HistSummary> {
    ALL.iter().filter(|h| h.count() > 0).map(|h| h.summary()).collect()
}

/// Zero every registry histogram.
pub fn reset_all() {
    for h in ALL {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

/// Capture a start time, or `None` when tracing is disabled (one relaxed
/// load; no clock read). Pair with [`record_since`].
#[inline]
pub fn maybe_now() -> Option<Instant> {
    if crate::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record the elapsed nanoseconds since a [`maybe_now`] capture. A `None`
/// start (tracing disabled at capture time) records nothing.
#[inline]
pub fn record_since(h: &LatencyHisto, start: Option<Instant>) {
    if let Some(t0) = start {
        let nanos = t0.elapsed().as_nanos();
        h.record(nanos.min(u64::MAX as u128) as u64);
    }
}

/// RAII variant: records into `h` when dropped. `None` when tracing is
/// disabled, so `let _t = hist::timer(&H);` is free in the off state.
#[inline]
pub fn timer(h: &'static LatencyHisto) -> Option<HistTimer> {
    maybe_now().map(|start| HistTimer { h, start })
}

/// Guard returned by [`timer`].
pub struct HistTimer {
    h: &'static LatencyHisto,
    start: Instant,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos();
        self.h.record(nanos.min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lo(i), v);
            assert_eq!(bucket_hi(i), v + 1);
            assert_eq!(bucket_mid(i), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        let probes = [
            15u64,
            16,
            17,
            31,
            32,
            33,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_lo(i) <= v, "lo {} > v {}", bucket_lo(i), v);
            assert!(
                v <= bucket_hi(i).saturating_sub(1).max(bucket_lo(i)) || bucket_hi(i) == u64::MAX
            );
            if i + 1 < NUM_BUCKETS {
                assert!(v < bucket_hi(i), "v {} >= hi {}", v, bucket_hi(i));
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_at_boundaries() {
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i} maps elsewhere");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1, "pred of bucket {i} lo");
            }
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in SUB..NUM_BUCKETS - 1 {
            let lo = bucket_lo(i);
            let width = bucket_hi(i) - lo;
            assert!(
                (width as f64) / (lo as f64) <= 1.0 / SUB as f64 + 1e-12,
                "bucket {i}: width {width} lo {lo}"
            );
        }
    }

    #[test]
    fn percentiles_and_max() {
        let h = LatencyHisto::new("test");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.percentile(0.5);
        assert!((p50 as f64 - 500.0).abs() / 500.0 <= 1.0 / SUB as f64);
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(s.summary().p999, s.percentile(0.999));
    }

    #[test]
    fn merge_adds() {
        let a = LatencyHisto::new("a");
        let b = LatencyHisto::new("b");
        a.record(5);
        a.record(500);
        b.record(70_000);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 5 + 500 + 70_000);
        assert_eq!(s.max, 70_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHisto::new("empty");
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p999, s.max), (0, 0, 0, 0));
    }
}
