//! The t-digest quantile sketch (Dunning & Ertl), merging variant.
//!
//! A streaming quantile sketch answers quantile questions in O(1) memory;
//! the [`TDigest`] is the *mergeable* one — independent shards (processes,
//! machines) each build a digest, the digests merge, and the merged tail
//! quantiles carry the same rank-error bound as a single-run digest over
//! all the data. That is the primitive
//! fleet-scale Monte Carlo aggregation stands on (see
//! `ParallelRunner::run_streaming_range` in `vscore::mc` and the
//! "Fleet aggregation" section of `ARCHITECTURE.md`).
//!
//! This is the *merging* variant: incoming observations collect in a flat
//! buffer; when the buffer fills, it is sorted and merged with the existing
//! centroid list in one ascending pass, bounding each centroid's weight by
//! the `k1` scale function `k(q) = δ/2π · asin(2q − 1)` — clusters are
//! tiny near the tails (rank resolution where yield questions live) and
//! coarse at the median, with at most `O(δ)` centroids retained overall.
//!
//! # Example
//!
//! ```
//! use stats::tdigest::TDigest;
//! use stats::Sampler;
//!
//! let mut d = TDigest::new(100.0);
//! let mut s = Sampler::from_seed(1);
//! for _ in 0..4000 {
//!     d.push(s.normal(10.0, 2.0));
//! }
//! assert!((d.quantile(0.5).unwrap() - 10.0).abs() < 0.1);
//! assert_eq!(d.count(), 4000);
//! ```

use crate::descriptive::quantile_sorted;

/// One weighted cluster of nearby observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Centroid {
    /// Weighted mean of the observations in the cluster.
    pub mean: f64,
    /// Number of observations in the cluster.
    pub weight: f64,
}

/// Factor relating the unmerged buffer capacity to the compression: a
/// larger buffer amortizes the sort-and-merge pass over more pushes.
const BUFFER_FACTOR: f64 = 5.0;

/// A mergeable streaming quantile sketch (Dunning & Ertl's t-digest,
/// merging variant with the `k1` scale function).
///
/// Memory is O(compression): roughly `2·δ` centroids plus a `5·δ`
/// observation buffer, independent of the stream length. Two digests over
/// disjoint data [`TDigest::merge_from`] into one whose estimates cover the
/// union — the
/// primitive that lets independent Monte Carlo shards combine tail
/// estimates (`stats::sink::MergeableSink` adds the byte round-trip for
/// shipping digests between processes).
///
/// # Accuracy
///
/// The `k1` scale bounds every centroid's rank extent by
/// `~4·q(1−q)·n/δ + 1`, so the quantile estimate at level `q` carries a
/// relative *rank* error of O(`q(1−q)/δ`) — tightest exactly where tail
/// quantiles live. The crate tests pin value-domain bounds at δ = 100,
/// n = 4000 on Gaussian data: |est − exact| ≤ 0.02·σ for central levels
/// (0.25–0.75) and ≤ 0.05·σ at the 5%/95% tails — and additionally that
/// digests merged from disjoint shards (including through
/// [`crate::sink::MergeableSink::to_bytes`]) stay within those same
/// bounds, which a single-stream sketch cannot offer at all.
///
/// Non-finite observations have no rank; they are skipped and tallied in
/// [`TDigest::skipped`].
#[derive(Debug, Clone)]
pub struct TDigest {
    compression: f64,
    /// Merged clusters, ascending by mean.
    centroids: Vec<Centroid>,
    /// Raw observations not yet merged into `centroids`.
    buffer: Vec<f64>,
    /// Total finite observations (merged + buffered).
    count: u64,
    skipped: u64,
    min: f64,
    max: f64,
}

impl TDigest {
    /// A digest with the given compression `δ` (≈ bound on `centroids ×
    /// 2`). δ = 100 is the conventional default: ~1 kB of state and
    /// sub-percent rank error.
    ///
    /// # Panics
    ///
    /// Panics if `compression` is not finite or is below 10 (the scale
    /// function degenerates and the error bounds no longer hold).
    #[must_use]
    pub fn new(compression: f64) -> Self {
        assert!(
            compression.is_finite() && compression >= 10.0,
            "t-digest compression must be finite and >= 10, got {compression}"
        );
        TDigest {
            compression,
            centroids: Vec::new(),
            buffer: Vec::with_capacity((BUFFER_FACTOR * compression) as usize),
            count: 0,
            skipped: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured compression `δ`.
    #[must_use]
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// Consumes one observation.
    ///
    /// Non-finite values have no rank in an order statistic (and would
    /// poison every centroid mean they touch), so they are skipped and
    /// tallied in [`TDigest::skipped`] instead of entering the sketch.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.buffer.push(x);
        if self.buffer.len() >= (BUFFER_FACTOR * self.compression) as usize {
            self.compress();
        }
    }

    /// Folds another digest into this one, as if every observation behind
    /// `other` had been pushed here: counts and extrema add exactly, and
    /// the merged quantile estimates satisfy the same rank-error bound as
    /// a single digest over the union (the digests' centroid sets are
    /// re-merged under this digest's compression in one sorted pass).
    ///
    /// Merging is commutative bit-for-bit when both digests share a
    /// compression (the combined clusters are ordered by `(mean, weight)`,
    /// not by origin); chains of merges are associative up to the
    /// documented rank error, not bit-exactly (each merge re-compresses).
    pub fn merge_from(&mut self, other: &TDigest) {
        self.skipped += other.skipped;
        if other.count == 0 {
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        let mut all: Vec<Centroid> = Vec::with_capacity(
            self.centroids.len() + self.buffer.len() + other.centroids.len() + other.buffer.len(),
        );
        all.append(&mut self.centroids);
        all.extend(self.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        all.extend_from_slice(&other.centroids);
        all.extend(other.buffer.iter().map(|&x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        self.centroids = Self::merge_pass(all, self.count as f64, self.compression);
    }

    /// Merges the buffered observations into the centroid list. Called
    /// automatically when the buffer fills and by [`crate::Sink::finish`];
    /// a no-op when the buffer is empty.
    pub fn compress(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut all: Vec<Centroid> = Vec::with_capacity(self.centroids.len() + self.buffer.len());
        all.append(&mut self.centroids);
        all.extend(self.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        self.centroids = Self::merge_pass(all, self.count as f64, self.compression);
    }

    /// One ascending merge pass: clusters combine greedily while the
    /// resulting cluster stays inside one unit of the `k1` scale.
    fn merge_pass(mut all: Vec<Centroid>, total: f64, compression: f64) -> Vec<Centroid> {
        // (mean, weight) ordering makes the pass independent of which
        // digest contributed which cluster — merge commutativity.
        all.sort_unstable_by(|a, b| {
            f64::total_cmp(&a.mean, &b.mean).then(f64::total_cmp(&a.weight, &b.weight))
        });
        let mut out = Vec::with_capacity((2.0 * compression) as usize + 8);
        let mut iter = all.into_iter();
        let Some(mut cur) = iter.next() else {
            return out;
        };
        let mut w_so_far = 0.0;
        let mut q_limit = Self::k1_inv(Self::k1(0.0, compression) + 1.0, compression);
        for next in iter {
            let q_right = (w_so_far + cur.weight + next.weight) / total;
            if q_right <= q_limit {
                // Absorb: incremental weighted mean, numerically stable.
                cur.weight += next.weight;
                cur.mean += (next.mean - cur.mean) * next.weight / cur.weight;
            } else {
                w_so_far += cur.weight;
                out.push(cur);
                q_limit = Self::k1_inv(Self::k1(w_so_far / total, compression) + 1.0, compression);
                cur = next;
            }
        }
        out.push(cur);
        out
    }

    /// The `k1` scale function `k(q) = δ/2π · asin(2q − 1)`.
    fn k1(q: f64, compression: f64) -> f64 {
        compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
    }

    /// Inverse of [`TDigest::k1`]: `q(k) = (sin(2πk/δ) + 1) / 2`.
    fn k1_inv(k: f64, compression: f64) -> f64 {
        let s = (2.0 * std::f64::consts::PI * k / compression).sin();
        ((s + 1.0) / 2.0).clamp(0.0, 1.0)
    }

    /// The centroid list (ascending by mean), with any buffered
    /// observations already merged in — the state
    /// [`crate::sink::MergeableSink::to_bytes`] serializes.
    fn flushed(&self) -> std::borrow::Cow<'_, TDigest> {
        if self.buffer.is_empty() {
            std::borrow::Cow::Borrowed(self)
        } else {
            let mut d = self.clone();
            d.compress();
            std::borrow::Cow::Owned(d)
        }
    }

    /// Estimated quantile at level `p ∈ [0, 1]`; `None` when the digest is
    /// empty. `p = 0` and `p = 1` return the exact extrema. With at most
    /// five observations the estimate interpolates the exact sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or NaN.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile level {p} outside [0, 1]"
        );
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 1.0 {
            return Some(self.max);
        }
        if self.count <= 5 && self.centroids.is_empty() {
            let mut sorted = self.buffer.clone();
            sorted.sort_by(f64::total_cmp);
            return Some(quantile_sorted(&sorted, p));
        }
        let d = self.flushed();
        let c = &d.centroids;
        let total = d.count as f64;
        let index = p * total;
        if c.len() == 1 {
            return Some(c[0].mean.clamp(d.min, d.max));
        }
        // Each centroid's mass is centered at its cumulative midpoint.
        let first_mid = c[0].weight / 2.0;
        if index < first_mid {
            // Interpolate from the exact minimum up to the first centroid.
            let t = index / first_mid;
            return Some(d.min + t * (c[0].mean - d.min));
        }
        let mut cum = 0.0;
        for i in 0..c.len() - 1 {
            let mid_i = cum + c[i].weight / 2.0;
            let mid_j = cum + c[i].weight + c[i + 1].weight / 2.0;
            if index < mid_j {
                let t = (index - mid_i) / (mid_j - mid_i);
                return Some(c[i].mean + t * (c[i + 1].mean - c[i].mean));
            }
            cum += c[i].weight;
        }
        // Interpolate from the last centroid out to the exact maximum.
        let last = c[c.len() - 1];
        let last_mid = total - last.weight / 2.0;
        let span = total - last_mid;
        let t = if span > 0.0 {
            ((index - last_mid) / span).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Some(last.mean + t * (d.max - last.mean))
    }

    /// Number of (finite) observations consumed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite observations skipped (see [`TDigest::push`]) —
    /// nonzero here means the stream carries degenerate values worth
    /// investigating.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// True when nothing has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of centroids currently held (after an internal flush of the
    /// observation buffer this is bounded by ~`2·compression`).
    #[must_use]
    pub fn centroid_count(&self) -> usize {
        self.flushed().centroids.len()
    }

    /// The merged centroids, ascending by mean (buffered observations are
    /// flushed first). Exposed for serialization and diagnostics.
    #[must_use]
    pub fn centroids(&self) -> Vec<Centroid> {
        self.flushed().centroids.clone()
    }

    /// Rebuilds a digest from serialized parts. Internal constructor for
    /// the byte codec (`stats::sink::MergeableSink::from_bytes`); the
    /// caller guarantees `centroids` ascend by mean and their weights sum
    /// to `count`.
    pub(crate) fn from_parts(
        compression: f64,
        centroids: Vec<Centroid>,
        count: u64,
        skipped: u64,
        min: f64,
        max: f64,
    ) -> Self {
        TDigest {
            compression,
            centroids,
            buffer: Vec::with_capacity((BUFFER_FACTOR * compression) as usize),
            count,
            skipped,
            min,
            max,
        }
    }
}

impl crate::sink::Sink for TDigest {
    fn observe(&mut self, _index: usize, value: f64) {
        self.push(value);
    }

    fn finish(&mut self) {
        self.compress();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::quantile;
    use crate::sampler::Sampler;

    /// Draws from a well-separated symmetric bimodal mixture:
    /// 0.5·N(-3, 0.5²) + 0.5·N(3, 0.5²).
    fn bimodal(s: &mut Sampler) -> f64 {
        if s.uniform() < 0.5 {
            s.normal(-3.0, 0.5)
        } else {
            s.normal(3.0, 0.5)
        }
    }

    #[test]
    fn matches_exact_quantiles_on_gaussian() {
        // The documented accuracy bounds at δ = 100, n = 4000, σ = 2:
        // central levels within 0.02·σ of the exact sorted-sample
        // quantile, 5%/95% tails within 0.05·σ.
        let levels = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95];
        for seed in [3u64, 11, 77] {
            let mut s = Sampler::from_seed(seed);
            let xs: Vec<f64> = (0..4000).map(|_| s.normal(5.0, 2.0)).collect();
            let mut d = TDigest::new(100.0);
            for &x in &xs {
                d.push(x);
            }
            for &p in &levels {
                let exact = quantile(&xs, p);
                let est = d.quantile(p).unwrap();
                let tol = if (0.25..=0.75).contains(&p) {
                    0.02
                } else {
                    0.05
                };
                assert!(
                    (est - exact).abs() <= tol * 2.0,
                    "seed {seed} p{p}: t-digest {est:.4} vs exact {exact:.4}"
                );
            }
        }
    }

    #[test]
    fn matches_exact_quantiles_on_bimodal() {
        // In-mode levels stay tight; the median falls in the near-empty
        // gap between the modes where any estimator interpolates across
        // ~6 units of support — bound it by a fraction of the separation.
        let mut s = Sampler::from_seed(19);
        let xs: Vec<f64> = (0..6000).map(|_| bimodal(&mut s)).collect();
        let mut d = TDigest::new(100.0);
        for &x in &xs {
            d.push(x);
        }
        for p in [0.1, 0.25, 0.75, 0.9] {
            let exact = quantile(&xs, p);
            let est = d.quantile(p).unwrap();
            assert!(
                (est - exact).abs() <= 0.05,
                "p{p}: t-digest {est:.4} vs exact {exact:.4}"
            );
        }
        // The exact sample median sits at the inner edge of whichever mode
        // holds the extra few samples; the digest interpolates between the
        // centroids straddling the ~6-unit gap. Both land inside the gap —
        // bound the disagreement by half the mode separation.
        let exact_med = quantile(&xs, 0.5);
        let est_med = d.quantile(0.5).unwrap();
        assert!(
            (est_med - exact_med).abs() <= 3.0,
            "median: t-digest {est_med:.4} vs exact {exact_med:.4} (mode gap is 6)"
        );
    }

    #[test]
    fn small_samples_interpolate_exactly() {
        let mut d = TDigest::new(100.0);
        assert!(d.quantile(0.5).is_none());
        assert!(d.is_empty());
        for x in [3.0, 1.0, 2.0] {
            d.push(x);
        }
        assert_eq!(d.quantile(0.5), Some(2.0));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(3.0));
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 3.0);
        assert_eq!(d.count(), 3);
    }

    #[test]
    fn extremes_are_exact_and_quantiles_monotone() {
        let mut s = Sampler::from_seed(4);
        let xs: Vec<f64> = (0..2000).map(|_| s.normal(0.0, 1.0)).collect();
        let mut d = TDigest::new(50.0);
        for &x in &xs {
            d.push(x);
        }
        let lo = xs.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        let hi = xs.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert_eq!(d.min(), lo);
        assert_eq!(d.max(), hi);
        assert_eq!(d.quantile(0.0), Some(lo));
        assert_eq!(d.quantile(1.0), Some(hi));
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantiles must be monotone in p");
            prev = q;
        }
    }

    #[test]
    fn centroid_count_is_bounded_by_compression() {
        let mut s = Sampler::from_seed(2);
        let mut d = TDigest::new(100.0);
        for _ in 0..100_000 {
            d.push(s.standard_normal());
        }
        let k = d.centroid_count();
        assert!(k > 20, "suspiciously few centroids: {k}");
        assert!(k <= 200, "k1 bound violated: {k} centroids at δ = 100");
        let total: f64 = d.centroids().iter().map(|c| c.weight).sum();
        assert!((total - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn skips_non_finite_observations() {
        // One policy for every stream position: non-finite values never
        // enter the sketch and are tallied — the noisy stream ends
        // bit-identical to the clean one.
        let mut s = Sampler::from_seed(8);
        let xs: Vec<f64> = (0..500).map(|_| s.normal(0.0, 1.0)).collect();
        let mut clean = TDigest::new(100.0);
        let mut noisy = TDigest::new(100.0);
        for &x in &xs {
            clean.push(x);
        }
        noisy.push(f64::NAN);
        for (i, &x) in xs.iter().enumerate() {
            noisy.push(x);
            if i == 100 {
                noisy.push(f64::INFINITY);
                noisy.push(f64::NEG_INFINITY);
            }
        }
        assert_eq!(noisy.skipped(), 3);
        assert_eq!(clean.skipped(), 0);
        assert_eq!(noisy.count(), 500);
        assert_eq!(
            clean.quantile(0.5).unwrap().to_bits(),
            noisy.quantile(0.5).unwrap().to_bits()
        );
        assert_eq!(clean.min(), noisy.min());
        assert_eq!(clean.max(), noisy.max());
    }

    #[test]
    fn merge_covers_the_union_within_the_documented_bound() {
        // Three disjoint shards of one Gaussian sample merge into a digest
        // whose quantiles obey the same pinned bounds as a single digest
        // over all the data.
        let mut s = Sampler::from_seed(31);
        let xs: Vec<f64> = (0..6000).map(|_| s.normal(5.0, 2.0)).collect();
        let mut whole = TDigest::new(100.0);
        for &x in &xs {
            whole.push(x);
        }
        let mut merged = TDigest::new(100.0);
        for chunk in xs.chunks(2000) {
            let mut shard = TDigest::new(100.0);
            for &x in chunk {
                shard.push(x);
            }
            merged.merge_from(&shard);
        }
        assert_eq!(merged.count(), 6000);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let exact = quantile(&xs, p);
            let tol = if (0.25..=0.75).contains(&p) {
                0.02
            } else {
                0.05
            };
            let m = merged.quantile(p).unwrap();
            assert!(
                (m - exact).abs() <= tol * 2.0,
                "merged p{p}: {m:.4} vs exact {exact:.4}"
            );
        }
    }

    #[test]
    fn merge_is_commutative_bit_for_bit() {
        let mut s = Sampler::from_seed(7);
        let mut a = TDigest::new(80.0);
        let mut b = TDigest::new(80.0);
        for _ in 0..3000 {
            a.push(s.normal(-1.0, 1.0));
            b.push(s.normal(1.0, 1.0));
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.count(), ba.count());
        for p in [0.01, 0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                ab.quantile(p).unwrap().to_bits(),
                ba.quantile(p).unwrap().to_bits(),
                "merge order changed the estimate at p = {p}"
            );
        }
    }

    #[test]
    fn merge_is_associative_within_the_rank_error_bound() {
        let mut s = Sampler::from_seed(41);
        let shards: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..2000).map(|_| s.normal(0.0, 1.0)).collect())
            .collect();
        let digest = |xs: &[f64]| {
            let mut d = TDigest::new(100.0);
            for &x in xs {
                d.push(x);
            }
            d
        };
        let (a, b, c) = (digest(&shards[0]), digest(&shards[1]), digest(&shards[2]));
        let mut left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        for p in [0.05, 0.5, 0.95] {
            let l = left.quantile(p).unwrap();
            let r = right.quantile(p).unwrap();
            assert!(
                (l - r).abs() <= 0.05,
                "association changed p{p} beyond the bound: {l:.4} vs {r:.4}"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Sampler::from_seed(13);
        let mut d = TDigest::new(100.0);
        for _ in 0..1000 {
            d.push(s.standard_normal());
        }
        let before = d.quantile(0.5).unwrap();
        d.merge_from(&TDigest::new(100.0));
        assert_eq!(d.count(), 1000);
        assert_eq!(d.quantile(0.5).unwrap().to_bits(), before.to_bits());
        let mut empty = TDigest::new(100.0);
        empty.merge_from(&d);
        assert_eq!(empty.count(), 1000);
        assert!(empty.quantile(0.5).is_some());
    }

    #[test]
    #[should_panic(expected = "compression")]
    fn rejects_degenerate_compression() {
        let _ = TDigest::new(5.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range_levels() {
        let mut d = TDigest::new(100.0);
        d.push(1.0);
        let _ = d.quantile(1.5);
    }
}
