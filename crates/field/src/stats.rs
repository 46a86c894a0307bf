//! Field statistics: moments, extrema, histograms.
//!
//! The probability density function of a derived field's norm (paper Fig. 2)
//! "can be used by scientists to guide the selection of threshold values";
//! it is computed with the same scan strategy as threshold queries.

use crate::scalar::ScalarField;

/// Streaming summary statistics of a scalar sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    pub count: u64,
    pub mean: f64,
    pub rms: f64,
    pub min: f64,
    pub max: f64,
}

impl FieldStats {
    /// Accumulator with no samples.
    pub fn empty() -> Accumulator {
        Accumulator::default()
    }

    /// Statistics of every point of a field.
    pub fn of(field: &ScalarField) -> FieldStats {
        let mut acc = Self::empty();
        acc.extend(field.as_slice().iter().map(|&v| f64::from(v)));
        acc.finish()
    }
}

/// Mergeable accumulator behind [`FieldStats`] — nodes accumulate locally
/// and the mediator merges.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator {
    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds many samples.
    pub fn extend(&mut self, it: impl IntoIterator<Item = f64>) {
        for v in it {
            self.push(v);
        }
    }

    /// Merges another accumulator (distributive aggregation).
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Final statistics.
    ///
    /// # Panics
    /// Panics when no samples were accumulated.
    pub fn finish(&self) -> FieldStats {
        assert!(self.count > 0, "no samples");
        let n = self.count as f64;
        FieldStats {
            count: self.count,
            mean: self.sum / n,
            rms: (self.sum_sq / n).sqrt(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Fixed-width histogram with an unbounded overflow bin, mirroring the
/// paper's Fig. 2 binning (`[0,10) [10,20) … [90,∞)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    origin: f64,
    width: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// `nbins` regular bins of `width` starting at `origin`, plus an
    /// overflow bin; values below `origin` clamp into the first bin.
    pub fn new(origin: f64, width: f64, nbins: usize) -> Self {
        // `push` indexes bins as `u32`
        assert!(width > 0.0 && nbins > 0 && nbins < u32::MAX as usize);
        Self {
            origin,
            width,
            counts: vec![0; nbins + 1],
        }
    }

    /// Number of regular bins (excluding overflow).
    pub fn nbins(&self) -> usize {
        self.counts.len() - 1
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        // the saturating cast sends negatives and NaN to the first bin and
        // truncates — `floor`, from zero up — the rest; to `u32` it is one
        // `cvttsd2si`, to `usize` twice the work
        let i = ((v - self.origin) / self.width) as u32 as usize;
        let i = i.min(self.counts.len() - 1);
        self.counts[i] += 1;
    }

    /// Count in regular bin `i` (or the overflow bin at `i == nbins`).
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All counts, overflow last.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Half-open value range of bin `i`; the overflow bin's end is `+∞`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let lo = self.origin + self.width * i as f64;
        if i + 1 == self.counts.len() {
            (lo, f64::INFINITY)
        } else {
            (lo, lo + self.width)
        }
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Replaces the counts wholesale (cache restore); the slice length
    /// must match the binning.
    pub fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.counts.len(), "bin count mismatch");
        self.counts.copy_from_slice(counts);
    }

    /// Merges another histogram with identical binning.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.origin == other.origin
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "histogram binning mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stats_of_constant_field() {
        let f = ScalarField::from_fn(4, 4, 4, |_, _, _| 3.0);
        let s = FieldStats::of(&f);
        assert_eq!(s.count, 64);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.rms - 3.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (3.0, 3.0));
    }

    #[test]
    fn rms_of_symmetric_values() {
        let mut acc = FieldStats::empty();
        acc.extend([-2.0, 2.0, -2.0, 2.0]);
        let s = acc.finish();
        assert!((s.mean).abs() < 1e-12);
        assert!((s.rms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_paper_binning() {
        // Fig. 2 uses [0,10) ... [90, ..) — 9 regular bins + overflow.
        let mut h = Histogram::new(0.0, 10.0, 9);
        for v in [0.0, 9.999, 10.0, 45.0, 89.9, 90.0, 1000.0] {
            h.push(v);
        }
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.count(8), 1);
        assert_eq!(h.count(9), 2); // overflow
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_range(9).1, f64::INFINITY);
    }

    proptest! {
        #[test]
        fn merge_equals_bulk(mut xs in prop::collection::vec(-100.0f64..100.0, 1..200),
                             split in 0usize..200) {
            let split = split.min(xs.len());
            let (a, b) = xs.split_at(split);
            let mut acc_a = FieldStats::empty();
            acc_a.extend(a.iter().copied());
            let mut acc_b = FieldStats::empty();
            acc_b.extend(b.iter().copied());
            acc_a.merge(&acc_b);
            let merged = acc_a.finish();

            let mut bulk = FieldStats::empty();
            bulk.extend(xs.drain(..));
            let bulk = bulk.finish();
            prop_assert_eq!(merged.count, bulk.count);
            prop_assert!((merged.mean - bulk.mean).abs() < 1e-9);
            prop_assert!((merged.rms - bulk.rms).abs() < 1e-9);
            prop_assert_eq!(merged.min, bulk.min);
            prop_assert_eq!(merged.max, bulk.max);
        }

        #[test]
        fn histogram_total_and_merge(xs in prop::collection::vec(-10.0f64..200.0, 0..100)) {
            let mut whole = Histogram::new(0.0, 10.0, 9);
            let mut h1 = Histogram::new(0.0, 10.0, 9);
            let mut h2 = Histogram::new(0.0, 10.0, 9);
            for (i, &v) in xs.iter().enumerate() {
                whole.push(v);
                if i % 2 == 0 { h1.push(v) } else { h2.push(v) }
            }
            h1.merge(&h2);
            prop_assert_eq!(h1, whole.clone());
            prop_assert_eq!(whole.total(), xs.len() as u64);
        }

        #[test]
        fn push_bins_like_the_floor_and_max_it_dropped(
            origin in -100.0f64..100.0,
            width in 0.001f64..50.0,
            nbins in 1usize..40,
            samples in prop::collection::vec(
                prop_oneof![
                    -1.0e4f64..1.0e4,
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                    Just(-0.0f64),
                    Just(-1.0e300f64),
                    // beyond the overflow bin, beyond `u32` and beyond `u64`
                    Just(1.0e6f64),
                    Just(1.0e12f64),
                    Just(1.0e300f64),
                ],
                1..40,
            ),
            edges in prop::collection::vec(0usize..135, 1..20),
        ) {
            // exact bin edges, and their neighbours one ulp either side
            let edges = edges.into_iter().map(|e| {
                let edge = origin + width * (e / 3) as f64;
                f64::from_bits((edge.to_bits() as i64 + (e % 3) as i64 - 1) as u64)
            });
            for v in samples.into_iter().chain(edges) {
                let old = (((v - origin) / width).floor().max(0.0) as usize).min(nbins);
                let mut h = Histogram::new(origin, width, nbins);
                h.push(v);
                prop_assert_eq!(h.counts().iter().position(|&c| c == 1), Some(old), "sample {}", v);
            }
        }
    }
}
