//! Deterministic, allocation-free observability primitives.
//!
//! The fleet engine simulates 10⁵+ adaptive controllers; when something goes
//! wrong mid-study (a controller deadlocks after a regime revert, a scheduler
//! thrashes between full re-sorts), the only tool used to be re-running with
//! printlns. This crate is the metrics plane: the primitive types every layer
//! records into, designed around three constraints the engine already
//! guarantees elsewhere and must not lose here:
//!
//! * **Determinism.** No wall clocks, no atomics racing in time order, no
//!   hash-map iteration. Everything is a plain value updated by whoever owns
//!   it; concurrent collection happens in per-worker shards that the engine
//!   merges *in shard order*, so a metrics snapshot is byte-identical for any
//!   `--threads N`.
//! * **Zero steady-state allocations.** Histograms pre-size their buckets,
//!   the journal is a fixed ring, counters are bare integers. A settled epoch
//!   with metrics enabled still pins at 0 heap allocations
//!   (`crates/analysis/tests/metrics_steady_state.rs`).
//! * **Zero dependencies.** The crate sits below `dsp` in the workspace
//!   graph, so anything — the FFT planner included — can count into it.
//!
//! Three primitives:
//!
//! * [`Counter`] — a monotonic `u64` count.
//! * [`Histogram`] — fixed log-spaced buckets plus count/sum/min/max;
//!   quantiles are interpolated from the bucket the rank lands in, the
//!   constant-space streaming idiom of Chambers et al., *Monitoring
//!   Networked Applications With Incremental Quantile Estimation*.
//! * [`Journal`] — a bounded flight-recorder ring of [`JournalEvent`]s;
//!   when full the oldest event is overwritten and a drop counter keeps the
//!   loss visible.
//!
//! [`json`] is the workspace's one JSON writer: every machine-readable
//! output is appended through it into a *reused* `String` (no per-line
//! allocation).

pub mod json;

/// A monotonic event count. Merging (shard aggregation) is addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Count one event.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// The current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Folds another shard's count into this one.
    #[inline]
    pub fn merge(&mut self, other: Counter) {
        self.0 += other.0;
    }
}

/// Fixed log-spaced buckets with count/sum/min/max and interpolated
/// quantiles — constant space per Chambers et al., deterministic because
/// bucket indices are pure functions of the recorded value.
///
/// Bucket 0 catches everything below `lo` (including zero and negatives);
/// the last bucket catches everything at or above `hi`. In between, bucket
/// edges grow geometrically, so relative quantile error is bounded by the
/// per-bucket growth ratio regardless of how many values stream through.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    /// `1 / ln(ratio)` where `ratio` is the per-bucket growth factor.
    inv_log_ratio: f64,
    log_ratio: f64,
    buckets: Box<[u64]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram spanning `[lo, hi)` with `buckets` geometric buckets
    /// (plus the two catch-all end buckets). `lo` and `hi` must be positive
    /// with `lo < hi`; `buckets >= 1`.
    pub fn log_scale(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "log_scale needs 0 < lo < hi");
        assert!(buckets >= 1, "log_scale needs at least one bucket");
        let log_ratio = (hi / lo).ln() / buckets as f64;
        Histogram {
            lo,
            inv_log_ratio: 1.0 / log_ratio,
            log_ratio,
            buckets: vec![0u64; buckets + 2].into_boxed_slice(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for `value`: 0 for the underflow bucket, `n + 1` for the
    /// overflow bucket.
    #[inline]
    fn bucket_index(&self, value: f64) -> usize {
        // NaN and everything below `lo` (negatives included) land in the
        // underflow bucket.
        if value.partial_cmp(&self.lo).is_none_or(|o| o.is_lt()) {
            return 0;
        }
        let i = ((value / self.lo).ln() * self.inv_log_ratio) as usize + 1;
        i.min(self.buckets.len() - 1)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        let i = self.bucket_index(value);
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Observations recorded since the last [`reset`](Self::reset).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (additions in record order — feed it serially
    /// in a canonical order when byte-stable output matters).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), interpolated within the bucket the
    /// rank lands in and clamped to the observed `[min, max]`. `0.0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in [1, count]: the k-th smallest observation we answer for.
        let rank = (q * (self.count - 1) as f64).floor() as u64 + 1;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Interpolate the rank's position inside this bucket.
                let frac = (rank - seen) as f64 / n as f64;
                let (lo, hi) = self.bucket_bounds(i);
                let est = if i == 0 || i + 1 == self.buckets.len() {
                    // Catch-all buckets have one open end; answer with the
                    // observed extreme rather than an invented edge.
                    if i == 0 {
                        self.min + (lo.min(self.max) - self.min) * frac
                    } else {
                        lo + (self.max - lo) * frac
                    }
                } else {
                    // Geometric interpolation matches the bucket spacing.
                    lo * (hi / lo).powf(frac)
                };
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// `[lower, upper)` value bounds of bucket `i` (catch-alls share the
    /// nearest real edge).
    fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let inner = self.buckets.len() - 2;
        if i == 0 {
            return (self.lo, self.lo);
        }
        if i == inner + 1 {
            let hi = self.lo * ((inner as f64) * self.log_ratio).exp();
            return (hi, hi);
        }
        let lo = self.lo * (((i - 1) as f64) * self.log_ratio).exp();
        let hi = self.lo * ((i as f64) * self.log_ratio).exp();
        (lo, hi)
    }

    /// Folds another histogram into this one. Both must come from the same
    /// `log_scale` call shape.
    ///
    /// # Panics
    /// Panics when the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram merge: bucket layouts differ"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Forget every observation but keep the bucket storage.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

/// One flight-recorder entry: something notable happened to `device` at
/// `epoch`. `kind` is a static tag (no allocation, no lifetime bookkeeping);
/// `value` carries the event's magnitude where one exists (a requested or
/// re-probe rate) and `0.0` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEvent {
    pub epoch: u32,
    pub device: u32,
    pub kind: &'static str,
    pub value: f64,
}

/// A bounded flight-recorder ring. Records are kept newest-last; once the
/// ring is full each push overwrites the oldest record and bumps
/// [`dropped`](Self::dropped) so the loss stays visible. All storage is
/// allocated up front — pushing never touches the heap.
#[derive(Debug, Clone)]
pub struct Journal {
    ring: Vec<JournalEvent>,
    capacity: usize,
    /// Index of the oldest live record.
    head: usize,
    len: usize,
    dropped: u64,
    total: u64,
}

impl Journal {
    /// A ring holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "journal needs a nonzero capacity");
        Journal {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            dropped: 0,
            total: 0,
        }
    }

    /// Record an event, overwriting the oldest one when full.
    pub fn record(&mut self, event: JournalEvent) {
        self.total += 1;
        if self.len < self.capacity {
            // Still filling the preallocated ring: push never reallocates
            // because `ring` was reserved to `capacity` up front.
            self.ring.push(event);
            self.len += 1;
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Live records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &JournalEvent> + '_ {
        let (tail, head) = self.ring.split_at(self.head.min(self.ring.len()));
        head.iter().chain(tail.iter())
    }

    /// The `i`-th oldest live record, by value (`None` past
    /// [`len`](Self::len)). Lets a caller drain the ring while holding a
    /// mutable borrow elsewhere on itself between lookups.
    pub fn get(&self, i: usize) -> Option<JournalEvent> {
        if i >= self.len {
            return None;
        }
        Some(self.ring[(self.head + i) % self.ring.len()])
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events overwritten since the last [`clear`](Self::clear).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever recorded (kept + dropped) since the last clear.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Forget every record but keep the ring storage.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_merges() {
        let mut a = Counter::default();
        for _ in 0..5 {
            a.inc();
        }
        let mut b = Counter::default();
        b.inc();
        b.merge(a);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 6);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::log_scale(0.001, 10.0, 32);
        for v in [0.5, 2.0, 0.25, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 6.75).abs() < 1e-12);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 4.0);
        assert!((h.mean() - 1.6875).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::log_scale(0.001, 100.0, 64);
        let mut x = 0.0017f64;
        for _ in 0..500 {
            h.record(x);
            x *= 1.019;
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= last, "quantiles must be monotone");
            assert!(q >= h.min() && q <= h.max());
            last = q;
        }
        // Geometric stream: the median should land within one bucket's
        // relative width of the true middle sample.
        let true_median = 0.0017 * 1.019f64.powi(250);
        let got = h.quantile(0.5);
        assert!(
            (got / true_median).ln().abs() < (100.0f64 / 0.001).ln() / 64.0 * 1.5,
            "median {got} vs true {true_median}"
        );
    }

    #[test]
    fn histogram_catches_under_and_overflow() {
        let mut h = Histogram::log_scale(1.0, 10.0, 4);
        h.record(0.0);
        h.record(-5.0);
        h.record(1e9);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 1e9);
        assert!(h.quantile(0.0) >= -5.0);
        assert!(h.quantile(1.0) <= 1e9);
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let mut whole = Histogram::log_scale(0.01, 10.0, 16);
        let mut left = Histogram::log_scale(0.01, 10.0, 16);
        let mut right = Histogram::log_scale(0.01, 10.0, 16);
        for i in 0..200 {
            let v = 0.013 * (1 + i % 97) as f64;
            whole.record(v);
            if i < 100 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn histogram_reset_keeps_layout() {
        let mut h = Histogram::log_scale(0.01, 10.0, 16);
        h.record(1.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 2.0);
    }

    #[test]
    fn journal_keeps_newest_and_counts_drops() {
        let mut j = Journal::with_capacity(3);
        for i in 0..5u32 {
            j.record(JournalEvent {
                epoch: i,
                device: i,
                kind: "test",
                value: i as f64,
            });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.total(), 5);
        let epochs: Vec<u32> = j.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4], "oldest first, newest kept");
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn journal_get_matches_iter_order() {
        let mut j = Journal::with_capacity(3);
        for i in 0..5u32 {
            j.record(JournalEvent {
                epoch: i,
                device: i,
                kind: "test",
                value: i as f64,
            });
        }
        let via_iter: Vec<JournalEvent> = j.iter().copied().collect();
        let via_get: Vec<JournalEvent> = (0..j.len()).map(|i| j.get(i).unwrap()).collect();
        assert_eq!(via_get, via_iter);
        assert_eq!(j.get(3), None, "index past len");
        // Partially-filled ring: head is still zero.
        let mut p = Journal::with_capacity(4);
        p.record(JournalEvent {
            epoch: 9,
            device: 1,
            kind: "t",
            value: 0.0,
        });
        assert_eq!(p.get(0).unwrap().epoch, 9);
        assert_eq!(p.get(1), None);
    }

    #[test]
    fn journal_push_does_not_reallocate() {
        let mut j = Journal::with_capacity(8);
        let before = j.ring.capacity();
        for i in 0..100u32 {
            j.record(JournalEvent {
                epoch: i,
                device: 0,
                kind: "x",
                value: 0.0,
            });
        }
        assert_eq!(j.ring.capacity(), before);
    }
}
