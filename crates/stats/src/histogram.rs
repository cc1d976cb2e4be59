//! Fixed-bin histograms.

/// A histogram over a fixed range with equal-width bins.
///
/// # Example
///
/// ```
/// use stats::histogram::Histogram;
///
/// let h = Histogram::from_data(&[0.1, 0.2, 0.6, 0.9], 2);
/// assert_eq!(h.counts(), &[2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range is empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram spanning the data range (slightly padded).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `bins == 0`.
    pub fn from_data(xs: &[f64], bins: usize) -> Self {
        assert!(!xs.is_empty(), "histogram of empty sample");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo == hi {
            // Degenerate constant sample: widen artificially.
            let pad = lo.abs().max(1.0) * 1e-9;
            lo -= pad;
            hi += pad;
        }
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Adds one observation. Values outside the range clamp into the edge
    /// bins so that `total` always counts every observation.
    pub fn add(&mut self, x: f64) {
        let n = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * n as f64).floor() as isize).clamp(0, n as isize - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every observation of `other` into this histogram, bin by bin.
    /// Counts are integers, so the result is exactly the histogram of the
    /// combined sample — merging shards is associative, commutative, and
    /// bit-identical to a single-pass histogram over all the data.
    ///
    /// # Panics
    ///
    /// Panics unless both histograms share the exact same range and bin
    /// count: bins of differently configured histograms do not align, and
    /// silently resampling them would corrupt the counts. Wire-facing
    /// merges of payloads from untrusted peers use the fallible
    /// [`Histogram::try_absorb`] instead.
    pub fn absorb(&mut self, other: &Histogram) {
        if self.try_absorb(other).is_err() {
            panic!(
                "histogram configurations differ: [{}, {}] x{} vs [{}, {}] x{}",
                self.lo,
                self.hi,
                self.counts.len(),
                other.lo,
                other.hi,
                other.counts.len()
            );
        }
    }

    /// The fallible form of [`Histogram::absorb`]: refuses with
    /// [`CodecError::Mismatch`](crate::codec::CodecError::Mismatch) when the
    /// two histograms do not share the exact same range (bit-compared) and
    /// bin count, instead of panicking. On `Err` this histogram is
    /// untouched. This is the merge a server applies to sketch bytes it
    /// received over the wire, where a mismatched shard must become an
    /// error response, never a crash.
    ///
    /// # Errors
    ///
    /// [`CodecError::Mismatch`](crate::codec::CodecError::Mismatch) when
    /// range or bin count differ.
    pub fn try_absorb(&mut self, other: &Histogram) -> Result<(), crate::codec::CodecError> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(crate::codec::CodecError::Mismatch(
                "histogram range/bin configurations differ",
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        Ok(())
    }

    /// Lower edge of the binned range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the binned range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Rebuilds a histogram from serialized parts (the byte codec of
    /// `stats::sink::MergeableSink`); the caller has validated the range,
    /// bin count, and that `counts` sums to `total`.
    pub(crate) fn from_parts(lo: f64, hi: f64, counts: Vec<u64>, total: u64) -> Self {
        Histogram {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of bounds");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Probability density estimate per bin (integrates to ~1).
    pub fn density(&self) -> Vec<f64> {
        let norm = self.total.max(1) as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2, 2]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn density_integrates_to_one() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) / 100.0).collect();
        let h = Histogram::from_data(&xs, 20);
        let integral: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_data_does_not_panic() {
        let h = Histogram::from_data(&[2.0; 5], 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn absorb_matches_single_pass_exactly() {
        let xs: Vec<f64> = (0..90).map(|i| f64::from(i) / 9.0).collect();
        let mut whole = Histogram::new(0.0, 10.0, 7);
        for &x in &xs {
            whole.add(x);
        }
        let mut merged = Histogram::new(0.0, 10.0, 7);
        for chunk in xs.chunks(31) {
            let mut shard = Histogram::new(0.0, 10.0, 7);
            for &x in chunk {
                shard.add(x);
            }
            merged.absorb(&shard);
        }
        assert_eq!(merged.counts(), whole.counts());
        assert_eq!(merged.total(), whole.total());
    }

    #[test]
    #[should_panic(expected = "histogram configurations differ")]
    fn absorb_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 5);
        a.absorb(&b);
    }

    #[test]
    fn try_absorb_refuses_mismatches_without_mutating() {
        use crate::codec::CodecError;
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.add(0.5);
        for b in [
            Histogram::new(0.0, 1.0, 5),  // bin count differs
            Histogram::new(-1.0, 1.0, 4), // lo differs
            Histogram::new(0.0, 2.0, 4),  // hi differs
        ] {
            assert_eq!(
                a.try_absorb(&b),
                Err(CodecError::Mismatch(
                    "histogram range/bin configurations differ"
                ))
            );
        }
        assert_eq!(a.total(), 1, "failed merges leave the state untouched");
        let mut b = Histogram::new(0.0, 1.0, 4);
        b.add(0.9);
        a.try_absorb(&b).unwrap();
        assert_eq!(a.counts(), &[0, 0, 1, 1]);
    }
}
