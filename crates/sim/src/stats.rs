//! Statistics accumulators used by all simulated components.
//!
//! The Eclipse shells accumulate measurement data in their stream and task
//! tables (paper Section 5.4); these types are the common machinery behind
//! those hardware counters: scalar counters, running mean/min/max/variance
//! (Welford), log-2 bucketed histograms (cheap enough to be "hardware"),
//! and time-weighted averages for occupancy-style quantities such as buffer
//! filling and utilization.

use serde::{Deserialize, Serialize};

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::time::Cycle;

/// Running scalar statistics over a sample stream: count, sum, min, max,
/// mean, and variance via Welford's online algorithm.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl RunningStat {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Ratio of worst-case to average sample — the paper's Section 2.2
    /// irregularity measure ("worst-case versus average load can be as high
    /// as a factor of 10").
    pub fn peak_to_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max() / self.mean
        }
    }

    /// Merge another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Scalar statistics over a [`Histogram`]'s integer samples, computed
/// from its exact integer accumulators. The accessors mirror
/// [`RunningStat`] so report code is interchangeable between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramStat {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramStat {
    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum as f64
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min as f64
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max as f64
        }
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A log2-bucketed histogram of non-negative integer samples, modeling the
/// kind of cheap bucketing counters a hardware shell can afford.
/// Bucket `i` counts samples `x` with `floor(log2(x)) == i - 1`; bucket 0
/// counts zeros.
///
/// The scalar accumulators are exact integers (count/sum/min/max), so
/// checkpoints round-trip them bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` is the "no samples yet" sentinel.
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram able to hold samples up to `2^(buckets-1)`.
    pub fn new(buckets: usize) -> Self {
        Histogram {
            buckets: vec![0; buckets.max(2)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: u64) {
        let idx = if x == 0 {
            0
        } else {
            (64 - x.leading_zeros()) as usize
        };
        let last = self.buckets.len() - 1;
        self.buckets[idx.min(last)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Scalar statistics over the recorded samples.
    pub fn stat(&self) -> HistogramStat {
        HistogramStat {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
        }
    }

    /// Approximate quantile from the bucket boundaries (upper bound of the
    /// bucket containing the q-th sample).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        // The q-th sample is always a real sample: q = 0 targets the
        // first recorded one, not the (possibly empty) zero bucket — an
        // empty bucket 0 must never report a 0-cycle "latency" no sample
        // ever had.
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Bucket i holds samples in [2^(i-1), 2^i - 1]; bucket 0 is {0}.
                return if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 };
            }
        }
        u64::MAX
    }
}

/// Time-weighted average of a piecewise-constant quantity (e.g. buffer
/// filling in bytes, or a busy/idle flag for utilization).
///
/// Call [`TimeWeighted::set`] whenever the value changes; the accumulator
/// integrates value x time between changes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeWeighted {
    first_time: Cycle,
    last_time: Cycle,
    last_value: f64,
    integral: f64,
    started: bool,
    max: f64,
}

impl TimeWeighted {
    /// Fresh accumulator; the value is undefined until the first `set`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the quantity changed to `value` at time `now`.
    ///
    /// Out-of-order timestamps (possible when a step-atomic simulation
    /// model timestamps intra-step events ahead of the calendar) are
    /// clamped to the last recorded time.
    pub fn set(&mut self, now: Cycle, value: f64) {
        if self.started {
            let now = now.max(self.last_time);
            self.integral += self.last_value * (now - self.last_time) as f64;
            self.last_time = now;
            self.last_value = value;
            self.max = self.max.max(value);
            return;
        } else {
            self.started = true;
            self.first_time = now;
        }
        self.last_time = now;
        self.last_value = value;
        self.max = self.max.max(value);
    }

    /// Current (latest) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Largest value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean over `[first set, now]`.
    pub fn mean(&self, now: Cycle) -> f64 {
        if !self.started {
            return 0.0;
        }
        let span = now.saturating_sub(self.first_time) as f64;
        if span == 0.0 {
            return self.last_value;
        }
        let integral = self.integral + self.last_value * now.saturating_sub(self.last_time) as f64;
        integral / span
    }
}

/// A simple saturating busy-cycle counter for utilization measurements.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Utilization {
    /// Cycles spent doing useful work.
    pub busy: Cycle,
    /// Cycles spent stalled waiting for data/room.
    pub stalled: Cycle,
    /// Cycles spent idle (no runnable task).
    pub idle: Cycle,
}

impl Utilization {
    /// Busy fraction of total observed cycles.
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy + self.stalled + self.idle;
        if total == 0 {
            0.0
        } else {
            self.busy as f64 / total as f64
        }
    }

    /// Stalled fraction of total observed cycles.
    pub fn stall_fraction(&self) -> f64 {
        let total = self.busy + self.stalled + self.idle;
        if total == 0 {
            0.0
        } else {
            self.stalled as f64 / total as f64
        }
    }
}

impl Snapshot for RunningStat {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.count);
        w.f64(self.sum);
        w.f64(self.min);
        w.f64(self.max);
        w.f64(self.mean);
        w.f64(self.m2);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.count = r.u64()?;
        self.sum = r.f64()?;
        self.min = r.f64()?;
        self.max = r.f64()?;
        self.mean = r.f64()?;
        self.m2 = r.f64()?;
        Ok(())
    }
}

impl Snapshot for Histogram {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.buckets.len());
        for &c in &self.buckets {
            w.u64(c);
        }
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.min);
        w.u64(self.max);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.buckets.len() {
            return Err(SnapError::Corrupt("histogram bucket count"));
        }
        for c in &mut self.buckets {
            *c = r.u64()?;
        }
        self.count = r.u64()?;
        self.sum = r.u64()?;
        self.min = r.u64()?;
        self.max = r.u64()?;
        Ok(())
    }
}

impl Snapshot for TimeWeighted {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.first_time);
        w.u64(self.last_time);
        w.f64(self.last_value);
        w.f64(self.integral);
        w.bool(self.started);
        w.f64(self.max);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.first_time = r.u64()?;
        self.last_time = r.u64()?;
        self.last_value = r.f64()?;
        self.integral = r.f64()?;
        self.started = r.bool()?;
        self.max = r.f64()?;
        Ok(())
    }
}

impl Snapshot for Utilization {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.busy);
        w.u64(self.stalled);
        w.u64(self.idle);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.busy = r.u64()?;
        self.stalled = r.u64()?;
        self.idle = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stat_basics() {
        let mut s = RunningStat::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn running_stat_empty_is_zero() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.peak_to_mean(), 0.0);
    }

    #[test]
    fn running_stat_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = RunningStat::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn peak_to_mean_measures_irregularity() {
        let mut s = RunningStat::new();
        for _ in 0..9 {
            s.record(1.0);
        }
        s.record(11.0); // one spike
        assert!((s.peak_to_mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new(8);
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        h.record(1000); // clamped to last bucket (7)
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[7], 1);
        assert_eq!(h.stat().count(), 6);
    }

    #[test]
    fn histogram_quantile_upper_bound() {
        let mut h = Histogram::new(10);
        for v in [0u64, 1, 2, 2, 3, 5, 9, 17, 200] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        // Median lands in the bucket for 2..=3.
        assert!(h.quantile_upper_bound(0.5) <= 3);
        // Upper quantiles rise monotonically.
        assert!(h.quantile_upper_bound(0.9) >= h.quantile_upper_bound(0.5));
        let empty = Histogram::new(4);
        assert_eq!(empty.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantile_q0_skips_empty_zero_bucket() {
        // No zero samples: q = 0 must report the first *non-empty*
        // bucket's bound, never a phantom 0-cycle latency.
        let mut h = Histogram::new(10);
        for v in [5u64, 9, 17] {
            h.record(v);
        }
        assert_eq!(h.buckets()[0], 0);
        let q0 = h.quantile_upper_bound(0.0);
        assert_eq!(q0, 7, "first non-empty bucket holds 4..=7");
        // And with an actual zero sample, q = 0 still reports 0.
        h.record(0);
        assert_eq!(h.quantile_upper_bound(0.0), 0);
    }

    #[test]
    fn quantile_single_sample() {
        let mut h = Histogram::new(12);
        h.record(100); // bucket for 64..=127
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_upper_bound(q), 127, "q = {q}");
        }
    }

    #[test]
    fn quantile_all_in_top_bucket() {
        let mut h = Histogram::new(4);
        for _ in 0..5 {
            h.record(1 << 20); // clamped into the last bucket
        }
        let top = (1u64 << 3) - 1;
        assert_eq!(h.quantile_upper_bound(0.0), top);
        assert_eq!(h.quantile_upper_bound(1.0), top);
    }

    #[test]
    fn stats_snapshot_round_trip() {
        use crate::snapshot::{SnapReader, SnapWriter, Snapshot};
        let mut rs = RunningStat::new();
        let mut h = Histogram::new(8);
        let mut tw = TimeWeighted::new();
        let mut u = Utilization::default();
        for i in 0..50u64 {
            rs.record((i as f64).sqrt());
            h.record(i * 3);
        }
        tw.set(5, 2.0);
        tw.set(90, 7.5);
        u.busy = 10;
        u.stalled = 3;
        u.idle = 1;

        let mut w = SnapWriter::new();
        rs.save(&mut w);
        h.save(&mut w);
        tw.save(&mut w);
        u.save(&mut w);
        let bytes = w.into_bytes();

        let mut rs2 = RunningStat::new();
        let mut h2 = Histogram::new(8);
        let mut tw2 = TimeWeighted::new();
        let mut u2 = Utilization::default();
        let mut r = SnapReader::new(&bytes);
        rs2.load(&mut r).unwrap();
        h2.load(&mut r).unwrap();
        tw2.load(&mut r).unwrap();
        u2.load(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);

        assert_eq!(rs2.count(), rs.count());
        assert_eq!(rs2.mean(), rs.mean());
        assert_eq!(rs2.variance(), rs.variance());
        assert_eq!(h2.buckets(), h.buckets());
        assert_eq!(tw2.mean(100), tw.mean(100));
        assert_eq!(tw2.max(), tw.max());
        assert_eq!((u2.busy, u2.stalled, u2.idle), (10, 3, 1));

        // Geometry mismatch is a typed error.
        let mut tiny = Histogram::new(4);
        let mut w2 = SnapWriter::new();
        h.save(&mut w2);
        let b2 = w2.into_bytes();
        assert!(tiny.load(&mut SnapReader::new(&b2)).is_err());
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(0, 10.0);
        tw.set(10, 20.0); // value 10 for 10 cycles
        tw.set(30, 0.0); // value 20 for 20 cycles
                         // mean over [0, 40]: (10*10 + 20*20 + 0*10) / 40 = 12.5
        assert!((tw.mean(40) - 12.5).abs() < 1e-12);
        assert_eq!(tw.max(), 20.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn utilization_fractions() {
        let u = Utilization {
            busy: 60,
            stalled: 30,
            idle: 10,
        };
        assert!((u.busy_fraction() - 0.6).abs() < 1e-12);
        assert!((u.stall_fraction() - 0.3).abs() < 1e-12);
        let z = Utilization::default();
        assert_eq!(z.busy_fraction(), 0.0);
    }
}
