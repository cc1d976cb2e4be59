//! Streaming result sinks: consume `(index, value)` records during a run.
//!
//! Million-sample Monte Carlo sweeps ask distribution questions — tail
//! quantiles, histograms, failure probabilities — that do not need every
//! sample retained. A [`Sink`] consumes `(sample index, value)` records *as
//! they are produced* and keeps only constant-size state (or an output
//! stream), so a sweep's peak memory stops scaling with the sample count.
//!
//! The parallel Monte Carlo executor (`vscore::mc::ParallelRunner::
//! run_streaming_range`) feeds one sink per run — a sink is the only way
//! results leave a run: worker shards buffer records for the current
//! round, and the coordinator folds the shards **in ascending sample-index
//! order** before handing them to the sink. A sink therefore observes
//! exactly the same record sequence for any worker count, which makes its
//! final state — sketch centroids, histogram counts, even raw CSV bytes —
//! bit-identical across 1, 2, or 64 workers.
//!
//! Shipped sinks:
//!
//! * [`crate::tdigest::TDigest`] — the mergeable t-digest quantile sketch
//!   (see the table below).
//! * [`Histogram`] implements [`Sink`] directly — fixed-bin streaming
//!   counts.
//! * [`CsvSink`] — incremental `(index, value)` CSV records to any
//!   [`std::io::Write`].
//! * [`WelfordSink`] — streaming moments.
//! * [`VecSink`] — explicit opt-in buffering, for consumers (KDE, QQ
//!   plots) that genuinely need the empirical sample.
//! * `(A, B)` — a tuple of sinks fans every record out to both, so one run
//!   can feed a CSV file, a sketch, and moments at once.
//! * [`crate::WeightedMoments`] and [`crate::WeightedHistogram`] — the
//!   importance-sampling sinks, fed `(value, log_weight)` records.
//!
//! # Which sinks are mergeable
//!
//! Streaming collapses a run's memory; *merging* collapses a fleet's.
//! Combining independent runs — N processes or machines each executing a
//! disjoint shard via `ParallelRunner::run_streaming_range` in
//! `vscore::mc` — needs sink states that combine after the fact.
//! [`MergeableSink`] marks the sinks where that is well-defined and adds
//! the byte round-trip for shipping state between processes:
//!
//! | sink | mergeable | guarantee when shards merge |
//! |------|-----------|-----------------------------|
//! | [`crate::tdigest::TDigest`] | yes | quantiles within the digest's documented rank-error bound of a single run over all the data |
//! | [`Histogram`] | yes | bit-identical to the single-run histogram (integer bin counts add exactly) |
//! | [`WelfordSink`] | yes | count/min/max bit-identical; mean/variance exact up to floating-point rounding (≲1e-12 relative — see [`Welford::merge`]) |
//! | [`crate::WeightedMoments`] | yes, over `(value, log_weight)` records | bit-identical to the single-run state (exact fixed-point sums) |
//! | [`crate::WeightedHistogram`] | yes, over `(value, log_weight)` records | bit-identical to the single-run state (integer counts, exact fixed-point bin masses) |
//! | [`CsvSink`] | no (concatenate the files out of band) | — |
//! | [`VecSink`] | no (append the buffers) | — |
//!
//! # Example
//!
//! ```
//! use stats::sink::Sink;
//! use stats::{Sampler, TDigest};
//!
//! // A custom sink is a few lines: count values above a threshold.
//! struct Exceedance {
//!     threshold: f64,
//!     hits: u64,
//! }
//! impl Sink for Exceedance {
//!     fn observe(&mut self, _index: usize, value: f64) {
//!         if value > self.threshold {
//!             self.hits += 1;
//!         }
//!     }
//! }
//!
//! // Fan one stream out to a quantile sketch and the custom sink.
//! let mut sink = (
//!     TDigest::new(100.0),
//!     Exceedance { threshold: 1.0, hits: 0 },
//! );
//! let mut s = Sampler::from_seed(7);
//! for i in 0..5000 {
//!     sink.observe(i, s.standard_normal());
//! }
//! sink.finish();
//! let (sketch, exceed) = sink;
//! assert!((sketch.quantile(0.5).unwrap()).abs() < 0.1);
//! assert!((sketch.quantile(0.9).unwrap() - 1.28).abs() < 0.1);
//! // P(X > 1) ~ 15.9% for a standard normal.
//! assert!((exceed.hits as f64 / 5000.0 - 0.159).abs() < 0.02);
//! ```

use crate::codec::{put_f64, put_header, put_u64, Reader};
use crate::histogram::Histogram;
use crate::tdigest::{Centroid, TDigest};
use crate::welford::Welford;
use std::io::Write;

pub use crate::codec::CodecError;

/// A streaming consumer of Monte Carlo results.
///
/// Records arrive in ascending sample-index order (failed samples are
/// simply absent). Implementations hold whatever running state they need;
/// the shipped sinks are all O(1) in the sample count except the explicit
/// [`VecSink`].
///
/// The contract a runner (such as `ParallelRunner::run_streaming_range`)
/// upholds: indices across all [`Sink::observe`]/[`Sink::merge`] calls of
/// one run are strictly increasing, and [`Sink::finish`] is called once per
/// run, after its final record.
pub trait Sink<T = f64> {
    /// Consumes one successful sample record.
    fn observe(&mut self, index: usize, value: T);

    /// Folds one index-ascending batch of records — the coordinator of a
    /// sharded run calls this once per round with the merged worker
    /// shards. The batch must be consumed (drained); the default forwards
    /// to [`Sink::observe`] record by record. Override to amortize
    /// per-batch work (I/O flushes, lock acquisitions).
    fn merge(&mut self, records: &mut Vec<(usize, T)>) {
        for (index, value) in records.drain(..) {
            self.observe(index, value);
        }
    }

    /// Flushes and seals the sink after the final record of a run. Called
    /// once per run — a sink fed by consecutive runs (a caller's stopping
    /// loop) sees one call per run — and not when the run panics or fails
    /// during setup.
    fn finish(&mut self) {}
}

/// Fan-out: every record goes to both sinks, in order.
impl<T: Copy, A: Sink<T>, B: Sink<T>> Sink<T> for (A, B) {
    fn observe(&mut self, index: usize, value: T) {
        self.0.observe(index, value);
        self.1.observe(index, value);
    }

    fn merge(&mut self, records: &mut Vec<(usize, T)>) {
        // Forward the batch through each inner sink's own `merge` so their
        // per-batch overrides (e.g. `VecSink`'s bulk append) run.
        let mut copy = records.clone();
        self.0.merge(&mut copy);
        self.1.merge(records);
        records.clear();
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

/// Values clamp into the fixed bins exactly as [`Histogram::add`] does;
/// the sample index is ignored.
impl Sink for Histogram {
    fn observe(&mut self, _index: usize, value: f64) {
        self.add(value);
    }
}

// ---------------------------------------------------------------------------
// Mergeable sinks
// ---------------------------------------------------------------------------

/// A [`Sink`] whose final state combines with another instance's — the
/// fleet-aggregation contract.
///
/// The record type `T` is the sink's: `f64` for the unweighted sketches,
/// `(value, log_weight)` pairs for the importance-sampling sinks
/// ([`crate::WeightedMoments`], [`crate::WeightedHistogram`]).
///
/// N processes (or machines) each run a disjoint shard of one experiment's
/// sample index space (`ParallelRunner::run_streaming_range` in
/// `vscore::mc`), serialize their sink state with
/// [`MergeableSink::to_bytes`], and ship the bytes to an aggregator that
/// reconstructs ([`MergeableSink::from_bytes`]) and folds them
/// ([`MergeableSink::merge_from`]). Because every sample's value is a pure
/// function of `(seed, index)`, the merged state is independent of how the
/// index space was partitioned; see the module-level table for each
/// implementation's exactness guarantee.
///
/// `merge_from` is distinct from [`Sink::merge`]: the latter folds a batch
/// of *records* during a run, this folds another sink's *accumulated
/// state* after runs complete.
///
/// # Example
///
/// Two shards sketch disjoint halves of one experiment; the second ships
/// its digest through bytes and merges into the first:
///
/// ```
/// use stats::sink::{MergeableSink, Sink};
/// use stats::tdigest::TDigest;
/// use stats::Sampler;
///
/// let mut s = Sampler::from_seed(3);
/// let mut a = TDigest::new(100.0);
/// let mut b = TDigest::new(100.0);
/// for i in 0..4000 {
///     let x = s.standard_normal();
///     if i < 2000 {
///         a.observe(i, x);
///     } else {
///         b.observe(i, x);
///     }
/// }
/// a.finish();
/// b.finish();
/// let wire = b.to_bytes(); // ship anywhere
/// a.merge_from(&TDigest::from_bytes(&wire).unwrap());
/// assert_eq!(a.count(), 4000);
/// // P(X <= 1.645) = 95% for a standard normal.
/// assert!((a.quantile(0.95).unwrap() - 1.645).abs() < 0.1);
/// ```
pub trait MergeableSink<T = f64>: Sink<T> + Sized {
    /// Folds another sink's accumulated state into this one, as if every
    /// observation behind `other` had streamed here.
    ///
    /// # Panics
    ///
    /// Implementations panic when the two states are structurally
    /// incompatible (e.g. [`Histogram`]s with different binning) — merging
    /// across configurations would corrupt the state silently. Code that
    /// merges payloads received from untrusted peers (a server folding
    /// shard bytes posted over the wire) uses
    /// [`MergeableSink::try_merge_from`] so a mismatched shard becomes an
    /// error value, never a crash.
    fn merge_from(&mut self, other: &Self) {
        if let Err(e) = self.try_merge_from(other) {
            panic!("{e}");
        }
    }

    /// The fallible form of [`MergeableSink::merge_from`] for wire-facing
    /// merges: two structurally incompatible states (mismatched
    /// [`Histogram`] binning, mismatched [`TDigest`] compression) return
    /// [`CodecError::Mismatch`] instead of panicking, and on `Err` this
    /// sink is untouched.
    ///
    /// Note `try_merge_from` is deliberately *stricter* than some
    /// infallible merges: [`TDigest::merge_from`] accepts a digest of any
    /// compression (re-clustering under its own δ), but on the wire a
    /// compression mismatch means two shards were configured differently —
    /// exactly the inconsistency an aggregator must surface, so the
    /// fallible form refuses it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Mismatch`] when the states cannot combine.
    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError>;

    /// Serializes the state into the compact self-describing byte format
    /// (a `[tag, version]` header followed by little-endian fields; no
    /// external dependencies). The round trip through
    /// [`MergeableSink::from_bytes`] reconstructs the state bit-for-bit.
    #[must_use]
    fn to_bytes(&self) -> Vec<u8>;

    /// Reconstructs a state serialized by [`MergeableSink::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails loudly ([`CodecError`]) on a wrong type tag, an unsupported
    /// format version, a truncated/oversized payload, or decoded fields
    /// that violate the type's invariants — a corrupt shard must never
    /// merge quietly.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError>;
}

/// Byte tag `'T'`: compression, count, skipped, min, max, centroid count,
/// then `(mean, weight)` pairs (buffered observations are flushed first).
impl MergeableSink for TDigest {
    fn merge_from(&mut self, other: &Self) {
        // The inherent merge is deliberately permissive (any compression);
        // only `try_merge_from` enforces the wire contract.
        TDigest::merge_from(self, other);
    }

    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError> {
        if self.compression().to_bits() != other.compression().to_bits() {
            return Err(CodecError::Mismatch("t-digest compressions differ"));
        }
        TDigest::merge_from(self, other);
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let centroids = self.centroids();
        let mut out = Vec::with_capacity(2 + 8 * 6 + 16 * centroids.len());
        put_header(&mut out, b'T');
        put_f64(&mut out, self.compression());
        put_u64(&mut out, self.count());
        put_u64(&mut out, self.skipped());
        put_f64(&mut out, self.min());
        put_f64(&mut out, self.max());
        put_u64(&mut out, centroids.len() as u64);
        for c in &centroids {
            put_f64(&mut out, c.mean);
            put_f64(&mut out, c.weight);
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::with_header(bytes, b'T')?;
        let compression = r.take_f64()?;
        if !compression.is_finite() || compression < 10.0 {
            return Err(CodecError::Invalid("compression must be finite and >= 10"));
        }
        let count = r.take_u64()?;
        let skipped = r.take_u64()?;
        let min = r.take_f64()?;
        let max = r.take_f64()?;
        // Each centroid needs 16 payload bytes; the shared count guard
        // rejects an advertised count the remaining payload cannot carry
        // before anything is allocated for it.
        let n = r.take_count(16)?;
        let mut centroids = Vec::with_capacity(n);
        let mut weight_sum = 0.0;
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..n {
            let mean = r.take_f64()?;
            let weight = r.take_f64()?;
            if !mean.is_finite() || !weight.is_finite() || weight <= 0.0 {
                return Err(CodecError::Invalid(
                    "centroid fields must be finite, weight > 0",
                ));
            }
            if mean < prev {
                return Err(CodecError::Invalid("centroid means must ascend"));
            }
            prev = mean;
            weight_sum += weight;
            centroids.push(Centroid { mean, weight });
        }
        r.finish()?;
        if count == 0 {
            if !centroids.is_empty() {
                return Err(CodecError::Invalid("empty digest with centroids"));
            }
        } else {
            // The digest only ever pushes finite observations, so the
            // extrema of a non-empty digest are finite and ordered.
            if !min.is_finite() || !max.is_finite() || min > max {
                return Err(CodecError::Invalid(
                    "extrema must be finite with min <= max",
                ));
            }
            // Centroid weights are sums of unit observations — exact in
            // f64 far beyond any realistic count — so the total must match.
            if (weight_sum - count as f64).abs() > 1e-6 * (count as f64).max(1.0) {
                return Err(CodecError::Invalid("centroid weights do not sum to count"));
            }
        }
        Ok(TDigest::from_parts(
            compression,
            centroids,
            count,
            skipped,
            min,
            max,
        ))
    }
}

/// Byte tag `'H'`: lo, hi, total, bin count, then the bin counts. Merging
/// requires the exact same binning (see [`Histogram::absorb`]) and is
/// bit-exact: integer counts add.
impl MergeableSink for Histogram {
    fn merge_from(&mut self, other: &Self) {
        self.absorb(other);
    }

    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError> {
        self.try_absorb(other)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let counts = self.counts();
        let mut out = Vec::with_capacity(2 + 8 * 4 + 8 * counts.len());
        put_header(&mut out, b'H');
        put_f64(&mut out, self.lo());
        put_f64(&mut out, self.hi());
        put_u64(&mut out, self.total());
        put_u64(&mut out, counts.len() as u64);
        for &c in counts {
            put_u64(&mut out, c);
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::with_header(bytes, b'H')?;
        let lo = r.take_f64()?;
        let hi = r.take_f64()?;
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(CodecError::Invalid(
                "histogram range must be finite, lo < hi",
            ));
        }
        let total = r.take_u64()?;
        let n = r.take_count(8)?;
        if n == 0 {
            return Err(CodecError::Invalid("histogram needs at least one bin"));
        }
        let mut counts = Vec::with_capacity(n);
        let mut sum = 0u64;
        for _ in 0..n {
            let c = r.take_u64()?;
            sum = sum
                .checked_add(c)
                .ok_or(CodecError::Invalid("bin counts overflow"))?;
            counts.push(c);
        }
        r.finish()?;
        if sum != total {
            return Err(CodecError::Invalid("bin counts do not sum to total"));
        }
        Ok(Histogram::from_parts(lo, hi, counts, total))
    }
}

// ---------------------------------------------------------------------------
// CSV sink
// ---------------------------------------------------------------------------

/// Writes `(index, value)` records as CSV lines, incrementally.
///
/// Scalar records become `index,value` lines; pair records (`(f64, f64)`
/// samples, e.g. a scatter experiment) become `index,first,second` lines.
/// Values print in Rust's shortest round-trip form, so parsing the file
/// recovers the exact bits — and the byte stream is a pure function of the
/// record sequence, which the determinism suite exploits to compare whole
/// files across worker counts.
///
/// Wrap files in a [`std::io::BufWriter`]; [`Sink::finish`] flushes.
///
/// # Panics
///
/// An I/O error panics (sinks have no error channel); a parallel driver
/// propagates that panic to the coordinating thread like any sink panic.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing records only (no header line).
    pub fn new(out: W) -> Self {
        CsvSink { out }
    }

    /// A sink that writes `columns` as a comma-joined header line first.
    ///
    /// # Panics
    ///
    /// Panics if writing the header fails.
    pub fn with_header(out: W, columns: &[&str]) -> Self {
        let mut sink = CsvSink { out };
        writeln!(sink.out, "{}", columns.join(",")).expect("CSV header write failed");
        sink
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the flush fails.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("CSV flush failed");
        self.out
    }
}

impl<W: Write> Sink for CsvSink<W> {
    fn observe(&mut self, index: usize, value: f64) {
        writeln!(self.out, "{index},{value}").expect("CSV record write failed");
    }

    fn finish(&mut self) {
        self.out.flush().expect("CSV flush failed");
    }
}

impl<W: Write> Sink<(f64, f64)> for CsvSink<W> {
    fn observe(&mut self, index: usize, (a, b): (f64, f64)) {
        writeln!(self.out, "{index},{a},{b}").expect("CSV record write failed");
    }

    fn finish(&mut self) {
        self.out.flush().expect("CSV flush failed");
    }
}

// ---------------------------------------------------------------------------
// Welford sink
// ---------------------------------------------------------------------------

/// Streaming moments as a [`Sink`]: mean / variance / extrema /
/// confidence-interval half-width without materializing any values.
#[derive(Debug, Default)]
pub struct WelfordSink {
    w: Welford,
}

impl WelfordSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        WelfordSink::default()
    }

    /// The accumulated moments.
    #[must_use]
    pub fn moments(&self) -> Welford {
        self.w
    }
}

impl Sink for WelfordSink {
    fn observe(&mut self, _index: usize, value: f64) {
        self.w.push(value);
    }
}

/// Byte tag `'W'`: delegates to [`Welford::to_bytes`] /
/// [`Welford::from_bytes`] (42 bytes, bit-exact round trip); merging is
/// [`Welford::merge`] — count/min/max combine exactly, mean/variance up to
/// floating-point rounding.
impl MergeableSink for WelfordSink {
    fn merge_from(&mut self, other: &Self) {
        self.w.merge(&other.w);
    }

    /// Welford states have no configuration to mismatch; this never fails.
    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError> {
        MergeableSink::merge_from(self, other);
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        self.w.to_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(WelfordSink {
            w: Welford::from_bytes(bytes)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Vec sink
// ---------------------------------------------------------------------------

/// Explicit opt-in buffering: retains every record, for consumers that
/// genuinely need the empirical sample (KDE curves, QQ plots, skewness).
///
/// This is the O(n) fallback the streaming pipeline otherwise avoids — use
/// it deliberately, typically fanned out in a tuple next to constant-size
/// sinks.
#[derive(Debug, Clone, Default)]
pub struct VecSink<T = f64> {
    records: Vec<(usize, T)>,
}

impl<T> VecSink<T> {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink {
            records: Vec::new(),
        }
    }

    /// The `(sample index, value)` records, ascending by index.
    #[must_use]
    pub fn records(&self) -> &[(usize, T)] {
        &self.records
    }

    /// Consumes the sink into the values in index order.
    #[must_use]
    pub fn into_values(self) -> Vec<T> {
        self.records.into_iter().map(|(_, v)| v).collect()
    }
}

impl<T> Sink<T> for VecSink<T> {
    fn observe(&mut self, index: usize, value: T) {
        self.records.push((index, value));
    }

    fn merge(&mut self, records: &mut Vec<(usize, T)>) {
        self.records.append(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Sampler;

    #[test]
    fn csv_sink_writes_round_trip_records() {
        let mut sink = CsvSink::with_header(Vec::new(), &["index", "value"]);
        sink.observe(0, 1.5);
        sink.observe(2, 0.1f64.mul_add(3.0, 1e-7));
        Sink::<f64>::finish(&mut sink);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("index,value"));
        assert_eq!(lines.next(), Some("0,1.5"));
        // Every value line round-trips to the exact bits.
        let line = lines.next().unwrap();
        let v: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(v.to_bits(), 0.1f64.mul_add(3.0, 1e-7).to_bits());
    }

    #[test]
    fn csv_sink_pair_records() {
        let mut sink = CsvSink::new(Vec::new());
        Sink::<(f64, f64)>::observe(&mut sink, 3, (2.0, -0.5));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, "3,2,-0.5\n");
    }

    #[test]
    fn welford_sink_matches_direct_accumulation() {
        let mut s = Sampler::from_seed(9);
        let xs: Vec<f64> = (0..200).map(|_| s.normal(1.0, 0.3)).collect();
        let mut sink = WelfordSink::new();
        let mut batch: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
        sink.merge(&mut batch);
        assert!(batch.is_empty(), "merge must drain the batch");
        sink.finish();
        assert_eq!(sink.moments(), Welford::from_slice(&xs));
    }

    #[test]
    fn tuple_sink_fans_out_batches_through_inner_merges() {
        let mut sink = (VecSink::new(), (WelfordSink::new(), TDigest::new(100.0)));
        let mut batch: Vec<(usize, f64)> = (0..100).map(|i| (i, i as f64)).collect();
        sink.merge(&mut batch);
        assert!(batch.is_empty());
        sink.finish();
        let (records, (moments, digest)) = sink;
        assert_eq!(records.records().len(), 100);
        assert_eq!(moments.moments().count(), 100);
        assert_eq!(digest.count(), 100);
        assert!((digest.quantile(0.5).unwrap() - 49.5).abs() < 2.0);
    }

    #[test]
    fn histogram_sink_streams_counts() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..10 {
            h.observe(i, i as f64 + 0.5);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2, 2]);
    }

    #[test]
    fn tdigest_bytes_round_trip_is_bit_exact() {
        let mut s = Sampler::from_seed(6);
        let mut d = TDigest::new(100.0);
        for i in 0..5000 {
            d.observe(i, s.normal(2.0, 0.5));
        }
        d.finish();
        let wire = d.to_bytes();
        let back = TDigest::from_bytes(&wire).unwrap();
        assert_eq!(back.count(), d.count());
        assert_eq!(back.skipped(), d.skipped());
        assert_eq!(back.min().to_bits(), d.min().to_bits());
        assert_eq!(back.max().to_bits(), d.max().to_bits());
        for p in [0.01, 0.05, 0.5, 0.95, 0.99] {
            assert_eq!(
                back.quantile(p).unwrap().to_bits(),
                d.quantile(p).unwrap().to_bits(),
                "byte round trip changed the estimate at p = {p}"
            );
        }
        // Round trip again: serialization is a fixed point.
        assert_eq!(back.to_bytes(), wire);
    }

    #[test]
    fn tdigest_unflushed_buffer_serializes_flushed() {
        // to_bytes on a digest with buffered observations must flush them
        // into centroids first (without mutating the source).
        let mut d = TDigest::new(100.0);
        for x in [5.0, 1.0, 3.0] {
            d.push(x);
        }
        let back = TDigest::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back.count(), 3);
        assert_eq!(back.min(), 1.0);
        assert_eq!(back.max(), 5.0);
        assert_eq!(d.quantile(0.5), Some(3.0), "source digest unchanged");
    }

    #[test]
    fn histogram_bytes_round_trip_and_merge_are_exact() {
        let mut s = Sampler::from_seed(14);
        let xs: Vec<f64> = (0..800).map(|_| s.normal(0.0, 1.0)).collect();
        let mut whole = Histogram::new(-4.0, 4.0, 32);
        for &x in &xs {
            whole.add(x);
        }
        let mut merged = Histogram::new(-4.0, 4.0, 32);
        for chunk in xs.chunks(300) {
            let mut shard = Histogram::new(-4.0, 4.0, 32);
            for &x in chunk {
                shard.add(x);
            }
            // Ship through bytes, reconstruct, merge.
            let back = Histogram::from_bytes(&shard.to_bytes()).unwrap();
            assert_eq!(back.counts(), shard.counts());
            assert_eq!(back.lo().to_bits(), shard.lo().to_bits());
            merged.merge_from(&back);
        }
        assert_eq!(merged.counts(), whole.counts());
        assert_eq!(merged.total(), whole.total());
    }

    #[test]
    fn welford_sink_bytes_round_trip_is_bit_exact_and_merges() {
        let mut s = Sampler::from_seed(15);
        let xs: Vec<f64> = (0..333).map(|_| s.normal(-2.0, 0.4)).collect();
        let mut a = WelfordSink::new();
        let mut b = WelfordSink::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 100 {
                a.observe(i, x);
            } else {
                b.observe(i, x);
            }
        }
        let back = WelfordSink::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back.moments(), b.moments(), "round trip is bit-exact");
        a.merge_from(&back);
        let m = a.moments();
        let direct = Welford::from_slice(&xs);
        assert_eq!(m.count(), direct.count());
        assert_eq!(m.min(), direct.min());
        assert_eq!(m.max(), direct.max());
        assert!((m.mean() - direct.mean()).abs() <= 1e-12 * direct.mean().abs());
        assert!((m.variance() - direct.variance()).abs() <= 1e-12 * direct.variance());
    }

    #[test]
    fn welford_nan_state_round_trips() {
        // Welford deliberately does not filter observations, so a stream
        // carrying a NaN produces NaN moments — an encoder-producible
        // state the decoder must accept (only structurally impossible
        // payloads are rejected).
        let mut sink = WelfordSink::new();
        sink.observe(0, 1.0);
        sink.observe(1, f64::NAN);
        sink.observe(2, 3.0);
        let m = sink.moments();
        assert!(m.mean().is_nan());
        let back = WelfordSink::from_bytes(&sink.to_bytes()).expect("NaN state must decode");
        assert_eq!(back.moments().count(), m.count());
        assert_eq!(back.moments().mean().to_bits(), m.mean().to_bits());
        assert_eq!(back.moments().min().to_bits(), m.min().to_bits());
    }

    #[test]
    fn tdigest_rejects_non_finite_extrema() {
        let mut d = TDigest::new(100.0);
        for x in [1.0, 2.0, 3.0] {
            d.push(x);
        }
        let wire = MergeableSink::to_bytes(&d);
        // min lives at payload bytes 26..34 (tag, version, compression,
        // count, skipped precede it); an infinite minimum is a state
        // push() can never create.
        let mut tampered = wire.clone();
        tampered[26..34].copy_from_slice(&f64::NEG_INFINITY.to_bits().to_le_bytes());
        assert!(matches!(
            TDigest::from_bytes(&tampered),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_payloads_fail_loudly() {
        let mut d = TDigest::new(100.0);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            d.push(x);
        }
        let wire = MergeableSink::to_bytes(&d);
        // Wrong type: a histogram decoder must reject a digest payload.
        assert!(matches!(
            Histogram::from_bytes(&wire),
            Err(CodecError::Tag { expected: b'H', .. })
        ));
        // Truncation anywhere in the payload is detected.
        assert!(TDigest::from_bytes(&wire[..wire.len() - 3]).is_err());
        // Trailing garbage is detected.
        let mut long = wire.clone();
        long.push(0);
        assert!(matches!(
            TDigest::from_bytes(&long),
            Err(CodecError::Trailing)
        ));
        // A tampered count no longer matches the centroid weights.
        let mut tampered = wire.clone();
        tampered[10] ^= 1; // low byte of `count`
        assert!(matches!(
            TDigest::from_bytes(&tampered),
            Err(CodecError::Invalid(_))
        ));
        // Welford: negative m2 is rejected.
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        let mut bytes = w.to_bytes();
        let bad_m2 = (-1.0f64).to_bits().to_le_bytes();
        bytes[18..26].copy_from_slice(&bad_m2);
        assert!(matches!(
            Welford::from_bytes(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn try_merge_from_refuses_mismatched_configurations() {
        // Histogram: differing binning is a Mismatch error, not a panic,
        // and the target state is untouched.
        let mut a = Histogram::new(0.0, 1.0, 8);
        a.observe(0, 0.5);
        let b = Histogram::new(0.0, 2.0, 8);
        assert!(matches!(a.try_merge_from(&b), Err(CodecError::Mismatch(_))));
        assert_eq!(a.total(), 1);

        // TDigest: the wire contract is stricter than the inherent merge —
        // differing compressions mean differently configured shards.
        let mut d = TDigest::new(100.0);
        d.push(1.0);
        let mut e = TDigest::new(200.0);
        e.push(2.0);
        assert!(matches!(d.try_merge_from(&e), Err(CodecError::Mismatch(_))));
        assert_eq!(d.count(), 1);
        // ... while the permissive inherent merge still accepts it.
        TDigest::merge_from(&mut d, &e);
        assert_eq!(d.count(), 2);

        // Welford: nothing to mismatch.
        let mut w = WelfordSink::new();
        let mut v = WelfordSink::new();
        v.observe(0, 4.0);
        w.try_merge_from(&v).unwrap();
        assert_eq!(w.moments().count(), 1);
    }

    #[test]
    fn try_merge_from_matches_merge_from_on_compatible_states() {
        let mut s = Sampler::from_seed(21);
        let xs: Vec<f64> = (0..1000).map(|_| s.standard_normal()).collect();
        let mut via_try = TDigest::new(100.0);
        let mut via_panic = TDigest::new(100.0);
        for chunk in xs.chunks(250) {
            let mut shard = TDigest::new(100.0);
            for (i, &x) in chunk.iter().enumerate() {
                shard.observe(i, x);
            }
            shard.finish();
            via_try
                .try_merge_from(&TDigest::from_bytes(&shard.to_bytes()).unwrap())
                .unwrap();
            MergeableSink::merge_from(
                &mut via_panic,
                &TDigest::from_bytes(&shard.to_bytes()).unwrap(),
            );
        }
        assert_eq!(via_try.to_bytes(), via_panic.to_bytes());
    }

    #[test]
    fn vec_sink_retains_records() {
        let mut sink: VecSink = VecSink::new();
        let mut batch = vec![(0, 1.0), (2, 3.0)];
        sink.merge(&mut batch);
        sink.observe(5, -1.0);
        assert_eq!(sink.records(), &[(0, 1.0), (2, 3.0), (5, -1.0)]);
        assert_eq!(sink.into_values(), vec![1.0, 3.0, -1.0]);
    }
}
