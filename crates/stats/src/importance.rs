//! Importance sampling for rare-event (high-sigma) Monte Carlo.
//!
//! Plain Monte Carlo estimates a 5σ failure probability (~3e-7) only
//! after billions of samples; importance sampling gets there in thousands
//! by drawing from a *proposal* distribution that visits the failure
//! region often and reweighting each draw by the likelihood ratio. This
//! module supplies the three pieces, all riding the workspace's pure
//! `(seed, index)` determinism contract:
//!
//! * [`GaussianProposal`] — a shifted/scaled standard-normal proposal
//!   `q = N(shift, scale²)` drawn through [`Sampler`], with the exact
//!   log-likelihood-ratio weight `ln φ(x) − ln q(x)`. The nominal
//!   proposal (`shift = 0`, `scale = 1`) draws the *bit-identical* stream
//!   plain Monte Carlo would draw, with every log-weight exactly `0.0`.
//! * Weighted sinks consuming `(value, log_weight)` records: the
//!   [`WeightedMoments`] estimator (mean/variance/CI of the weighted
//!   statistic, plus the Kish effective-sample-size diagnostic) and the
//!   [`WeightedHistogram`] (per-bin weighted mass — the estimated
//!   *nominal* density in regions only the proposal can reach).
//! * Both weighted sinks implement [`MergeableSink`]`<(f64, f64)>` —
//!   `merge_from` plus the `[tag, version]` byte codec of `stats::codec` —
//!   so IS shards merge across processes and machines like every other
//!   sketch.
//!
//! # Exact accumulation
//!
//! Weighted sums are floating-point, so naively merged shard states would
//! differ from the single-run state in the last bits (the documented
//! caveat of [`crate::Welford::merge`]). The weighted sinks instead
//! accumulate every sum in an [`ExactSum`] — a fixed-point accumulator
//! wide enough to hold any finite `f64` exactly — so shard merges are
//! associative, commutative, and **bit-identical across partitionings**:
//! merging any disjoint shards of one run, in any order and grouping,
//! reproduces the single-run sink bytes exactly.
//!
//! # Example
//!
//! Estimate the 3σ upper-tail probability of a standard normal with a
//! mean-3 proposal — every proposal draw lands near the tail, so a few
//! thousand samples resolve a probability plain MC would need millions
//! for:
//!
//! ```
//! use stats::sink::Sink;
//! use stats::{GaussianProposal, Sampler, WeightedMoments};
//!
//! let proposal = GaussianProposal::new(3.0, 1.0);
//! let mut sink = WeightedMoments::above(3.0);
//! let mut sampler = Sampler::from_seed(7);
//! for i in 0..4000 {
//!     let (x, log_w) = proposal.draw_weighted(&mut sampler);
//!     sink.observe(i, (x, log_w));
//! }
//! // True value: Φ̄(3) ≈ 1.3499e-3. Plain MC at n = 4000 would see ~5 hits.
//! assert!((sink.estimate() / 1.3498980316301e-3 - 1.0).abs() < 0.2);
//! assert!(sink.ci_half_width(1.96) < sink.estimate());
//! ```

use crate::codec::{put_f64, put_header, put_u64, put_u8, CodecError, Reader};
use crate::sampler::Sampler;
use crate::sink::{MergeableSink, Sink};

/// A shifted/scaled Gaussian proposal `q = N(shift, scale²)` for
/// importance sampling against the standard-normal nominal density.
///
/// The degenerate proposal (`shift = 0`, `scale = 1`) is exactly plain
/// Monte Carlo: [`GaussianProposal::draw`] returns the sampler's
/// standard-normal deviate bit-for-bit and [`GaussianProposal::log_weight`]
/// is exactly `0.0`, so an IS pipeline with the nominal proposal
/// reproduces an unweighted run to the bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianProposal {
    shift: f64,
    scale: f64,
}

impl GaussianProposal {
    /// A proposal with the given mean shift and sigma scale.
    ///
    /// # Panics
    ///
    /// Panics unless `shift` is finite and `scale` is finite and positive.
    pub fn new(shift: f64, scale: f64) -> Self {
        assert!(shift.is_finite(), "proposal shift must be finite");
        assert!(
            scale.is_finite() && scale > 0.0,
            "proposal scale must be finite and positive"
        );
        GaussianProposal { shift, scale }
    }

    /// The identity proposal `N(0, 1)` — plain Monte Carlo.
    pub fn nominal() -> Self {
        GaussianProposal::new(0.0, 1.0)
    }

    /// Draws one deviate from the proposal.
    ///
    /// The nominal proposal computes `0.0 + 1.0 * z`, which is `z`
    /// bit-for-bit ([`Sampler::standard_normal`] never returns `-0.0`), so
    /// degenerate IS runs consume exactly the plain-MC stream.
    pub fn draw(&self, sampler: &mut Sampler) -> f64 {
        self.shift + self.scale * sampler.standard_normal()
    }

    /// Exact log-likelihood ratio `ln φ(x) − ln q(x)` of the nominal
    /// density over the proposal at `x`:
    ///
    /// `ln(scale) + (((x − shift)/scale)² − x²) / 2`
    ///
    /// The normalization constants cancel, so the nominal proposal yields
    /// exactly `0.0` for every `x`.
    pub fn log_weight(&self, x: f64) -> f64 {
        let z = (x - self.shift) / self.scale;
        self.scale.ln() + 0.5 * (z * z - x * x)
    }

    /// Draws one deviate together with its log-weight — the
    /// `(value, log_weight)` record shape the weighted sinks consume.
    pub fn draw_weighted(&self, sampler: &mut Sampler) -> (f64, f64) {
        let x = self.draw(sampler);
        (x, self.log_weight(x))
    }
}

/// Number of 64-bit limbs in an [`ExactSum`]: enough for the full f64
/// magnitude range (bit weights `2^-1074 ..= 2^1023`, positions 0..=2097)
/// plus 64 bits of carry headroom and a sign bit.
const LIMBS: usize = 34;

/// An exact accumulator for sums of `f64` values.
///
/// The state is a 2176-bit two's-complement fixed-point number whose
/// least-significant bit has weight `2^-1074`, so every finite `f64` adds
/// exactly — no rounding ever happens until [`ExactSum::value`] rounds
/// the final total to the nearest `f64` (ties to even). Addition is
/// therefore associative and commutative *exactly*: any partitioning of a
/// value multiset into shards, summed per shard and merged, produces the
/// bit-identical state. This is what lets importance-sampling shard
/// merges be independent of the partitioning, where the incremental
/// [`crate::Welford`] only promises agreement to floating-point rounding.
#[derive(Clone, PartialEq, Eq)]
pub struct ExactSum {
    /// Two's-complement limbs, least significant first.
    limbs: [u64; LIMBS],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExactSum({:e})", self.value())
    }
}

fn negated(limbs: &[u64; LIMBS]) -> [u64; LIMBS] {
    let mut out = [0u64; LIMBS];
    let mut carry = true;
    for (o, &l) in out.iter_mut().zip(limbs) {
        let (s, c) = (!l).overflowing_add(u64::from(carry));
        *o = s;
        carry = c;
    }
    out
}

impl ExactSum {
    /// The empty (zero) sum.
    pub fn new() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }

    /// Whether no nonzero value has been accumulated.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    fn is_negative(&self) -> bool {
        self.limbs[LIMBS - 1] >> 63 == 1
    }

    /// Adds `x` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite — a non-finite addend has no
    /// fixed-point representation, and an importance weight that overflowed
    /// `exp` is an upstream bug worth failing loudly on.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "ExactSum::add requires finite values");
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let e = ((bits >> 52) & 0x7ff) as usize;
        let frac = bits & ((1u64 << 52) - 1);
        // Subnormals sit at bit offset 0 with no implicit leading bit;
        // normals carry the implicit bit at offset `e - 1` (offset of the
        // mantissa LSB relative to the accumulator's 2^-1074 LSB).
        let (m, off) = if e == 0 {
            (frac, 0)
        } else {
            (frac | (1 << 52), e - 1)
        };
        let wide = (m as u128) << (off % 64);
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        if bits >> 63 == 0 {
            self.add_limbs(off / 64, lo, hi);
        } else {
            self.sub_limbs(off / 64, lo, hi);
        }
    }

    fn add_limbs(&mut self, at: usize, lo: u64, hi: u64) {
        let (s, mut carry) = self.limbs[at].overflowing_add(lo);
        self.limbs[at] = s;
        let mut pending = hi;
        for limb in self.limbs.iter_mut().skip(at + 1) {
            if pending == 0 && !carry {
                return;
            }
            let (s1, c1) = limb.overflowing_add(pending);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *limb = s2;
            carry = c1 || c2;
            pending = 0;
        }
    }

    fn sub_limbs(&mut self, at: usize, lo: u64, hi: u64) {
        let (s, mut borrow) = self.limbs[at].overflowing_sub(lo);
        self.limbs[at] = s;
        let mut pending = hi;
        for limb in self.limbs.iter_mut().skip(at + 1) {
            if pending == 0 && !borrow {
                return;
            }
            let (s1, b1) = limb.overflowing_sub(pending);
            let (s2, b2) = s1.overflowing_sub(u64::from(borrow));
            *limb = s2;
            borrow = b1 || b2;
            pending = 0;
        }
    }

    /// Adds another accumulator's exact total — limb-wise two's-complement
    /// addition, so the merged state equals accumulating both value
    /// multisets into one sum, regardless of merge order or grouping.
    pub fn merge(&mut self, other: &Self) {
        let mut carry = false;
        for (a, &b) in self.limbs.iter_mut().zip(&other.limbs) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *a = s2;
            carry = c1 || c2;
        }
    }

    /// The accumulated total, rounded once to the nearest `f64`
    /// (ties to even). Saturates to infinity if the exact total exceeds
    /// the `f64` range (requires ~2^64 near-`f64::MAX` addends).
    pub fn value(&self) -> f64 {
        let neg = self.is_negative();
        let mag = if neg {
            negated(&self.limbs)
        } else {
            self.limbs
        };
        let Some(h) = mag.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let top = 63 - mag[h].leading_zeros() as usize;
        let p = h * 64 + top;
        let v = if p <= 52 {
            // Magnitude below 2^53 · 2^-1074: the low limb *is* the
            // (subnormal or smallest-normal) f64 bit pattern, exactly.
            f64::from_bits(mag[0])
        } else {
            // Round the top 53 bits with guard + sticky, ties to even.
            let hi128 = ((mag[h] as u128) << 64) | if h > 0 { mag[h - 1] as u128 } else { 0 };
            let msb = top + 64;
            let drop = msb - 52;
            let mut m = (hi128 >> drop) as u64;
            let guard = (hi128 >> (drop - 1)) & 1 == 1;
            let mut sticky = hi128 & ((1u128 << (drop - 1)) - 1) != 0;
            if h >= 2 {
                sticky = sticky || mag[..h - 1].iter().any(|&l| l != 0);
            }
            let mut p_eff = p;
            if guard && (sticky || m & 1 == 1) {
                m += 1;
                if m == 1 << 53 {
                    m >>= 1;
                    p_eff += 1;
                }
            }
            // m ∈ [2^52, 2^53); value = m · 2^(p_eff - 52 - 1074).
            let e_biased = p_eff as u64 - 51;
            if e_biased >= 2047 {
                f64::INFINITY
            } else {
                f64::from_bits((e_biased << 52) | (m & ((1u64 << 52) - 1)))
            }
        };
        if neg {
            -v
        } else {
            v
        }
    }

    /// Serializes as sign + the nonzero magnitude limb span. The encoding
    /// is canonical — equal exact totals produce identical bytes — which
    /// is what makes merged-sink byte comparisons meaningful.
    fn write(&self, out: &mut Vec<u8>) {
        let neg = self.is_negative();
        let mag = if neg {
            negated(&self.limbs)
        } else {
            self.limbs
        };
        match mag.iter().position(|&l| l != 0) {
            None => {
                put_u8(out, 0);
                put_u8(out, 0);
                put_u8(out, 0);
            }
            Some(start) => {
                let end = mag.iter().rposition(|&l| l != 0).expect("nonzero");
                put_u8(out, u8::from(neg));
                put_u8(out, start as u8);
                put_u8(out, (end - start + 1) as u8);
                for &l in &mag[start..=end] {
                    put_u64(out, l);
                }
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let sign = r.take_u8()?;
        let start = r.take_u8()? as usize;
        let len = r.take_u8()? as usize;
        if sign > 1 {
            return Err(CodecError::Invalid("exact-sum sign must be 0 or 1"));
        }
        if start.checked_add(len).is_none_or(|end| end > LIMBS) {
            return Err(CodecError::Invalid("exact-sum limb span out of range"));
        }
        if len == 0 {
            if sign != 0 || start != 0 {
                return Err(CodecError::Invalid("zero exact sum must encode as zeros"));
            }
            return Ok(ExactSum::new());
        }
        let mut mag = [0u64; LIMBS];
        for slot in mag.iter_mut().skip(start).take(len) {
            *slot = r.take_u64()?;
        }
        if mag[start] == 0 || mag[start + len - 1] == 0 {
            return Err(CodecError::Invalid("exact-sum encoding is not canonical"));
        }
        if mag[LIMBS - 1] >> 63 == 1 {
            return Err(CodecError::Invalid("exact-sum magnitude overflows"));
        }
        let limbs = if sign == 1 { negated(&mag) } else { mag };
        Ok(ExactSum { limbs })
    }
}

/// Which statistic of the nominal distribution a [`WeightedMoments`]
/// estimates from its weighted records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Statistic {
    /// The nominal mean `E[value]` — each record contributes `w · value`.
    Mean,
    /// The lower-tail probability `P(value < t)` — each record
    /// contributes `w · 1[value < t]`. This is the failure-probability
    /// shape for "metric fell below the spec" yield questions.
    TailBelow(f64),
    /// The upper-tail probability `P(value > t)`.
    TailAbove(f64),
}

impl Statistic {
    fn wire(self) -> (u8, f64) {
        match self {
            Statistic::Mean => (0, 0.0),
            Statistic::TailBelow(t) => (1, t),
            Statistic::TailAbove(t) => (2, t),
        }
    }

    fn from_wire(mode: u8, threshold: f64) -> Result<Self, CodecError> {
        match mode {
            0 if threshold.to_bits() == 0 => Ok(Statistic::Mean),
            0 => Err(CodecError::Invalid("mean statistic carries a threshold")),
            1 | 2 if !threshold.is_finite() => {
                Err(CodecError::Invalid("tail threshold must be finite"))
            }
            1 => Ok(Statistic::TailBelow(threshold)),
            2 => Ok(Statistic::TailAbove(threshold)),
            _ => Err(CodecError::Invalid("unknown weighted statistic mode")),
        }
    }

    /// The per-record statistic `g(value)` whose weighted mean is
    /// estimated.
    fn apply(self, value: f64) -> f64 {
        match self {
            Statistic::Mean => value,
            Statistic::TailBelow(t) => f64::from(value < t),
            Statistic::TailAbove(t) => f64::from(value > t),
        }
    }

    fn is_tail(self) -> bool {
        !matches!(self, Statistic::Mean)
    }
}

/// The frequentist importance-sampling estimator: mean, variance, and
/// confidence interval of a weighted statistic, plus the Kish
/// effective-sample-size diagnostic.
///
/// Consumes `(value, log_weight)` records. With `y_i = w_i · g(value_i)`
/// (`g` per [`Statistic`]), the estimate of `E_nominal[g]` is `Σy / n`
/// and its sampling variance is the sample variance of the `y_i` over
/// `n` — the standard unbiased IS estimator. All five sums (`Σw`, `Σw²`,
/// `Σy`, `Σy²`, `Σg`) accumulate in [`ExactSum`]s, so the serialized
/// state of merged shards is bit-identical to the single-run state for
/// *any* partitioning of the sample index space.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMoments {
    statistic: Statistic,
    count: u64,
    sum_w: ExactSum,
    sum_w2: ExactSum,
    sum_y: ExactSum,
    sum_y2: ExactSum,
    sum_g: ExactSum,
}

impl Default for WeightedMoments {
    fn default() -> Self {
        WeightedMoments::new()
    }
}

impl WeightedMoments {
    /// An estimator of the nominal mean `E[value]`.
    pub fn new() -> Self {
        WeightedMoments::of(Statistic::Mean)
    }

    /// An estimator of the lower-tail probability `P(value < t)`.
    pub fn below(t: f64) -> Self {
        WeightedMoments::of(Statistic::TailBelow(t))
    }

    /// An estimator of the upper-tail probability `P(value > t)`.
    pub fn above(t: f64) -> Self {
        WeightedMoments::of(Statistic::TailAbove(t))
    }

    /// An estimator of an arbitrary [`Statistic`].
    ///
    /// # Panics
    ///
    /// Panics if a tail threshold is not finite.
    pub fn of(statistic: Statistic) -> Self {
        if let Statistic::TailBelow(t) | Statistic::TailAbove(t) = statistic {
            assert!(t.is_finite(), "tail threshold must be finite");
        }
        WeightedMoments {
            statistic,
            count: 0,
            sum_w: ExactSum::new(),
            sum_w2: ExactSum::new(),
            sum_y: ExactSum::new(),
            sum_y2: ExactSum::new(),
            sum_g: ExactSum::new(),
        }
    }

    /// Accumulates one weighted record.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or `exp(log_weight)` is not finite
    /// (`log_weight = -inf`, i.e. weight zero, is allowed).
    pub fn push(&mut self, value: f64, log_weight: f64) {
        let w = log_weight.exp();
        assert!(value.is_finite(), "weighted record value must be finite");
        assert!(
            w.is_finite(),
            "importance weight overflowed exp(log_weight)"
        );
        let y = w * self.statistic.apply(value);
        self.count += 1;
        self.sum_w.add(w);
        self.sum_w2.add(w * w);
        self.sum_y.add(y);
        self.sum_y2.add(y * y);
        self.sum_g.add(self.statistic.apply(value));
    }

    /// Number of records accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The importance-sampling estimate `Σ(w·g) / n` of the nominal
    /// statistic (NaN until the first record).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum_y.value() / self.count as f64
    }

    /// Unbiased sample variance of the per-record terms `y_i = w_i·g_i`
    /// (NaN below two records). The estimator's sampling variance is
    /// `variance() / n`.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return f64::NAN;
        }
        let n = self.count as f64;
        let sy = self.sum_y.value();
        let raw = (self.sum_y2.value() - sy * sy / n) / (n - 1.0);
        raw.max(0.0)
    }

    /// Standard error of [`WeightedMoments::estimate`].
    pub fn std_error(&self) -> f64 {
        (self.variance() / self.count as f64).sqrt()
    }

    /// Half-width of the `±z` confidence interval around the estimate
    /// (infinite below two records, mirroring
    /// [`crate::Welford::ci_half_width`]).
    pub fn ci_half_width(&self, z: f64) -> f64 {
        if self.count < 2 {
            return f64::INFINITY;
        }
        z * self.std_error()
    }

    /// Kish effective sample size `(Σw)² / Σw²` — how many *unweighted*
    /// samples the weighted set is statistically worth. A sharply shifted
    /// proposal shows a small ESS on the raw weights even when the tail
    /// estimator is excellent (the huge weights live entirely outside the
    /// tail region, where `g = 0`); use it as a proposal-quality
    /// diagnostic, and the CI for estimator precision.
    pub fn ess(&self) -> f64 {
        let sw2 = self.sum_w2.value();
        if sw2 == 0.0 {
            return 0.0;
        }
        let sw = self.sum_w.value();
        sw * sw / sw2
    }

    /// Total accumulated weight `Σw`.
    pub fn total_weight(&self) -> f64 {
        self.sum_w.value()
    }

    /// The *unweighted* sum `Σg` — for tail statistics, the raw number of
    /// proposal samples that landed in the tail region (the "hit count"
    /// that plain MC would divide by `n`).
    pub fn raw_sum(&self) -> f64 {
        self.sum_g.value()
    }
}

impl Sink<(f64, f64)> for WeightedMoments {
    fn observe(&mut self, _index: usize, record: (f64, f64)) {
        self.push(record.0, record.1);
    }
}

/// Byte-codec tag for [`WeightedMoments`].
const MOMENTS_TAG: u8 = b'I';

impl MergeableSink<(f64, f64)> for WeightedMoments {
    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError> {
        let (mode_a, t_a) = self.statistic.wire();
        let (mode_b, t_b) = other.statistic.wire();
        if mode_a != mode_b || t_a.to_bits() != t_b.to_bits() {
            return Err(CodecError::Mismatch("weighted-moments statistics differ"));
        }
        self.count += other.count;
        self.sum_w.merge(&other.sum_w);
        self.sum_w2.merge(&other.sum_w2);
        self.sum_y.merge(&other.sum_y);
        self.sum_y2.merge(&other.sum_y2);
        self.sum_g.merge(&other.sum_g);
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        put_header(&mut out, MOMENTS_TAG);
        let (mode, threshold) = self.statistic.wire();
        put_u8(&mut out, mode);
        put_f64(&mut out, threshold);
        put_u64(&mut out, self.count);
        for sum in [
            &self.sum_w,
            &self.sum_w2,
            &self.sum_y,
            &self.sum_y2,
            &self.sum_g,
        ] {
            sum.write(&mut out);
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::with_header(bytes, MOMENTS_TAG)?;
        let mode = r.take_u8()?;
        let threshold = r.take_f64()?;
        let statistic = Statistic::from_wire(mode, threshold)?;
        let count = r.take_u64()?;
        let sum_w = ExactSum::read(&mut r)?;
        let sum_w2 = ExactSum::read(&mut r)?;
        let sum_y = ExactSum::read(&mut r)?;
        let sum_y2 = ExactSum::read(&mut r)?;
        let sum_g = ExactSum::read(&mut r)?;
        r.finish()?;
        if count == 0
            && [&sum_w, &sum_w2, &sum_y, &sum_y2, &sum_g]
                .iter()
                .any(|s| !s.is_zero())
        {
            return Err(CodecError::Invalid("empty estimator with nonzero sums"));
        }
        if sum_w.is_negative() || sum_w2.is_negative() || sum_y2.is_negative() {
            return Err(CodecError::Invalid(
                "weight/square sums must be nonnegative",
            ));
        }
        if statistic.is_tail() && (sum_y.is_negative() || sum_g.is_negative()) {
            return Err(CodecError::Invalid(
                "tail indicator sums must be nonnegative",
            ));
        }
        Ok(WeightedMoments {
            statistic,
            count,
            sum_w,
            sum_w2,
            sum_y,
            sum_y2,
            sum_g,
        })
    }
}

/// A fixed-bin histogram of weighted records: per-bin raw counts (how
/// often the *proposal* visited the bin) and per-bin weighted mass (the
/// estimated *nominal* probability mass — `Σ w · 1[value ∈ bin] / n`
/// estimates `P_nominal(value ∈ bin)`). Out-of-range values clamp into
/// the edge bins, mirroring [`crate::histogram::Histogram`].
///
/// Counts are integers and masses accumulate in [`ExactSum`]s, so merged
/// shard bytes are bit-identical to the single-run bytes for any
/// partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    masses: Vec<ExactSum>,
    total: u64,
}

impl WeightedHistogram {
    /// Creates an empty weighted histogram over `[lo, hi]` with `bins`
    /// equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the range is not finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "weighted histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "weighted histogram range must be finite and nonempty"
        );
        WeightedHistogram {
            lo,
            hi,
            counts: vec![0; bins],
            masses: vec![ExactSum::new(); bins],
            total: 0,
        }
    }

    /// Adds one weighted observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or `exp(log_weight)` is not finite.
    pub fn push(&mut self, value: f64, log_weight: f64) {
        let w = log_weight.exp();
        assert!(value.is_finite(), "weighted record value must be finite");
        assert!(
            w.is_finite(),
            "importance weight overflowed exp(log_weight)"
        );
        let n = self.counts.len();
        let t = (value - self.lo) / (self.hi - self.lo);
        let idx = ((t * n as f64).floor() as isize).clamp(0, n as isize - 1) as usize;
        self.counts[idx] += 1;
        self.masses[idx].add(w);
        self.total += 1;
    }

    /// Lower edge of the binned range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the binned range.
    pub fn hi(&self) -> f64 {
        self.hi
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

    /// Raw per-bin proposal-sample counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin weighted masses `Σ w` (each rounded once from its exact
    /// accumulator).
    pub fn masses(&self) -> Vec<f64> {
        self.masses.iter().map(ExactSum::value).collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total weighted mass across all bins (exact accumulation, one final
    /// rounding).
    pub fn total_mass(&self) -> f64 {
        let mut acc = ExactSum::new();
        for m in &self.masses {
            acc.merge(m);
        }
        acc.value()
    }

    /// Estimated *nominal* probability density per bin:
    /// `mass_i / (n · bin_width)`. In tail regions the proposal visits but
    /// the nominal distribution barely reaches, this resolves densities a
    /// plain histogram would record as zero counts.
    pub fn nominal_density(&self) -> Vec<f64> {
        let norm = self.total.max(1) as f64 * self.bin_width();
        self.masses.iter().map(|m| m.value() / norm).collect()
    }
}

impl Sink<(f64, f64)> for WeightedHistogram {
    fn observe(&mut self, _index: usize, record: (f64, f64)) {
        self.push(record.0, record.1);
    }
}

/// Byte-codec tag for [`WeightedHistogram`].
const WHIST_TAG: u8 = b'G';

/// Minimum serialized bytes per weighted-histogram bin (count + the
/// three-byte empty exact-sum encoding) — the allocation guard for
/// [`Reader::take_count`].
const WHIST_MIN_BIN_BYTES: usize = 11;

impl MergeableSink<(f64, f64)> for WeightedHistogram {
    fn try_merge_from(&mut self, other: &Self) -> Result<(), CodecError> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(CodecError::Mismatch(
                "weighted-histogram range/bin configurations differ",
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.masses.iter_mut().zip(&other.masses) {
            a.merge(b);
        }
        self.total += other.total;
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.counts.len() * 32);
        put_header(&mut out, WHIST_TAG);
        put_f64(&mut out, self.lo);
        put_f64(&mut out, self.hi);
        put_u64(&mut out, self.total);
        put_u64(&mut out, self.counts.len() as u64);
        for (count, mass) in self.counts.iter().zip(&self.masses) {
            put_u64(&mut out, *count);
            mass.write(&mut out);
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::with_header(bytes, WHIST_TAG)?;
        let lo = r.take_f64()?;
        let hi = r.take_f64()?;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(CodecError::Invalid(
                "weighted-histogram range must be finite with lo < hi",
            ));
        }
        let total = r.take_u64()?;
        let bins = r.take_count(WHIST_MIN_BIN_BYTES)?;
        if bins == 0 {
            return Err(CodecError::Invalid("weighted histogram needs bins"));
        }
        let mut counts = Vec::with_capacity(bins);
        let mut masses = Vec::with_capacity(bins);
        let mut sum = 0u64;
        for _ in 0..bins {
            let c = r.take_u64()?;
            sum = sum
                .checked_add(c)
                .ok_or(CodecError::Invalid("weighted-histogram counts overflow"))?;
            let mass = ExactSum::read(&mut r)?;
            if mass.is_negative() {
                return Err(CodecError::Invalid("bin mass must be nonnegative"));
            }
            if c == 0 && !mass.is_zero() {
                return Err(CodecError::Invalid("empty bin with nonzero mass"));
            }
            counts.push(c);
            masses.push(mass);
        }
        r.finish()?;
        if sum != total {
            return Err(CodecError::Invalid(
                "weighted-histogram total disagrees with bin counts",
            ));
        }
        Ok(WeightedHistogram {
            lo,
            hi,
            counts,
            masses,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_proposal_is_bit_exact_plain_mc() {
        let p = GaussianProposal::nominal();
        let mut a = Sampler::from_seed(99);
        let mut b = Sampler::from_seed(99);
        for _ in 0..1000 {
            let (x, log_w) = p.draw_weighted(&mut a);
            let z = b.standard_normal();
            assert_eq!(
                x.to_bits(),
                z.to_bits(),
                "nominal draw must be the plain stream"
            );
            assert_eq!(
                log_w.to_bits(),
                0.0f64.to_bits(),
                "nominal log-weight must be +0.0"
            );
        }
    }

    #[test]
    fn shifted_log_weight_matches_direct_densities() {
        let p = GaussianProposal::new(2.5, 1.5);
        let mut s = Sampler::from_seed(4);
        for _ in 0..200 {
            let x = p.draw(&mut s);
            // ln φ(x) − ln q(x) with the constants kept (they cancel).
            let ln_f = -0.5 * x * x;
            let z = (x - 2.5) / 1.5;
            let ln_q = -(1.5f64).ln() - 0.5 * z * z;
            assert!((p.log_weight(x) - (ln_f - ln_q)).abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_proposal_matches_its_moments() {
        let p = GaussianProposal::new(4.0, 2.0);
        let mut s = Sampler::from_seed(10);
        let mut w = crate::Welford::new();
        for _ in 0..20_000 {
            w.push(p.draw(&mut s));
        }
        assert!((w.mean() - 4.0).abs() < 0.05);
        assert!((w.std() - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "scale must be finite and positive")]
    fn zero_scale_is_rejected() {
        GaussianProposal::new(0.0, 0.0);
    }

    #[test]
    fn exact_sum_is_order_invariant_even_under_cancellation() {
        let values = [1e16, 3.7, -1e16, 1e-300, 2.5e-7, -0.1, 0.3, -0.2];
        let mut fwd = ExactSum::new();
        for &v in &values {
            fwd.add(v);
        }
        let mut rev = ExactSum::new();
        for &v in values.iter().rev() {
            rev.add(v);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.value().to_bits(), rev.value().to_bits());
        // f64 left-to-right accumulation loses the small addends entirely
        // here; the exact sum keeps them through the 1e16 cancellation.
        assert!((fwd.value() - 3.700_000_25).abs() < 1e-7);
    }

    #[test]
    fn exact_sum_merge_equals_single_accumulation() {
        let values: Vec<f64> = (0..500)
            .map(|i| ((i * 2_654_435_761_u64 % 1000) as f64 - 500.0) * 1e-3)
            .map(|x| x.exp())
            .collect();
        let mut whole = ExactSum::new();
        for &v in &values {
            whole.add(v);
        }
        for split in [1, 7, 250, 499] {
            let (a, b) = values.split_at(split);
            let mut left = ExactSum::new();
            let mut right = ExactSum::new();
            for &v in a {
                left.add(v);
            }
            for &v in b {
                right.add(v);
            }
            // Merge in both orders: exactly the single-pass state.
            let mut m1 = left.clone();
            m1.merge(&right);
            let mut m2 = right;
            m2.merge(&left);
            assert_eq!(m1, whole, "split at {split}");
            assert_eq!(m2, whole, "reverse merge at {split}");
        }
    }

    #[test]
    fn exact_sum_rounds_to_nearest_even() {
        // 1e16 has a 2-ulp spacing; +1 is an exact tie that rounds down
        // (even mantissa), +2 is representable.
        let mut s = ExactSum::new();
        s.add(1e16);
        s.add(1.0);
        assert_eq!(s.value(), 1e16);
        s.add(1.0);
        assert_eq!(s.value(), 1e16 + 2.0);
    }

    #[test]
    fn exact_sum_handles_integers_signs_and_subnormals() {
        let mut s = ExactSum::new();
        for _ in 0..1000 {
            s.add(1.0);
        }
        assert_eq!(s.value(), 1000.0);
        for _ in 0..1000 {
            s.add(-1.0);
        }
        assert!(s.is_zero());
        assert_eq!(s.value(), 0.0);
        s.add(f64::MIN_POSITIVE * f64::EPSILON); // smallest subnormal
        assert_eq!(s.value(), 5e-324);
        s.add(-5e-324);
        s.add(-2.5);
        assert_eq!(s.value(), -2.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn exact_sum_rejects_non_finite() {
        ExactSum::new().add(f64::INFINITY);
    }

    #[test]
    fn weighted_moments_estimates_a_shifted_tail() {
        // P(Z > 3) with a mean-3 proposal: every draw is near the tail.
        let p = GaussianProposal::new(3.0, 1.0);
        let mut m = WeightedMoments::above(3.0);
        let mut s = Sampler::from_seed(21);
        for i in 0..20_000 {
            let (x, log_w) = p.draw_weighted(&mut s);
            m.observe(i, (x, log_w));
        }
        let truth = 1.349_898_031_630_093e-3;
        assert!((m.estimate() / truth - 1.0).abs() < 0.1);
        assert!((m.estimate() - truth).abs() < 4.0 * m.ci_half_width(1.0));
        assert!(m.ess() > 0.0 && m.ess() <= m.count() as f64);
        // About half the proposal draws land above the threshold.
        assert!((m.raw_sum() / m.count() as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn mean_weight_is_consistent_under_a_mild_shift() {
        // E_q[w] = 1 for any proposal, but the estimator's noise grows as
        // exp(shift²); a unit shift keeps the sd of the mean weight at
        // ~sqrt((e − 1)/n) so the check is sharp.
        let p = GaussianProposal::new(1.0, 1.0);
        let mut m = WeightedMoments::new();
        let mut s = Sampler::from_seed(33);
        for i in 0..20_000 {
            let (x, log_w) = p.draw_weighted(&mut s);
            m.observe(i, (x, log_w));
        }
        let mean_weight = m.total_weight() / m.count() as f64;
        assert!((mean_weight - 1.0).abs() < 0.04, "E[w] = 1 consistency");
    }

    #[test]
    fn weighted_moments_merge_is_partition_invariant_to_the_bit() {
        let p = GaussianProposal::new(2.0, 1.4);
        let records: Vec<(f64, f64)> = {
            let mut s = Sampler::from_seed(8);
            (0..600).map(|_| p.draw_weighted(&mut s)).collect()
        };
        let build = |range: std::ops::Range<usize>| {
            let mut m = WeightedMoments::above(3.5);
            for i in range {
                let (x, lw) = records[i];
                m.observe(i, (x, lw));
            }
            m
        };
        let whole = build(0..600);
        for cuts in [
            vec![0, 600],
            vec![0, 1, 600],
            vec![0, 200, 400, 600],
            vec![0, 599, 600],
        ] {
            let mut merged: Option<WeightedMoments> = None;
            for pair in cuts.windows(2) {
                let shard = build(pair[0]..pair[1]);
                // Round-trip every shard through its byte codec, as a
                // fleet would.
                let shard = WeightedMoments::from_bytes(&shard.to_bytes()).unwrap();
                match merged.as_mut() {
                    None => merged = Some(shard),
                    Some(m) => m.merge_from(&shard),
                }
            }
            let merged = merged.unwrap();
            assert_eq!(merged.to_bytes(), whole.to_bytes(), "cuts {cuts:?}");
            assert_eq!(merged, whole);
        }
    }

    #[test]
    fn weighted_histogram_merge_is_partition_invariant_to_the_bit() {
        let p = GaussianProposal::new(1.0, 2.0);
        let records: Vec<(f64, f64)> = {
            let mut s = Sampler::from_seed(13);
            (0..400).map(|_| p.draw_weighted(&mut s)).collect()
        };
        let build = |range: std::ops::Range<usize>| {
            let mut h = WeightedHistogram::new(-4.0, 6.0, 16);
            for i in range {
                let (x, lw) = records[i];
                h.observe(i, (x, lw));
            }
            h
        };
        let whole = build(0..400);
        assert_eq!(whole.total(), 400);
        for cuts in [vec![0, 400], vec![0, 130, 140, 400], vec![0, 399, 400]] {
            let mut merged = WeightedHistogram::new(-4.0, 6.0, 16);
            for pair in cuts.windows(2) {
                let shard =
                    WeightedHistogram::from_bytes(&build(pair[0]..pair[1]).to_bytes()).unwrap();
                merged.merge_from(&shard);
            }
            assert_eq!(merged.to_bytes(), whole.to_bytes(), "cuts {cuts:?}");
        }
        // The weighted mass integrates to roughly 1 (it estimates the
        // total nominal probability over a range covering ~all mass).
        assert!((whole.total_mass() / whole.total() as f64 - 1.0).abs() < 0.2);
        let d = whole.nominal_density();
        assert_eq!(d.len(), 16);
    }

    #[test]
    fn mismatched_merges_refuse_without_mutation() {
        let mut a = WeightedMoments::above(1.0);
        a.push(2.0, 0.0);
        for b in [
            WeightedMoments::above(2.0),
            WeightedMoments::below(1.0),
            WeightedMoments::new(),
        ] {
            assert!(matches!(a.try_merge_from(&b), Err(CodecError::Mismatch(_))));
        }
        assert_eq!(a.count(), 1, "failed merges leave the state untouched");

        let mut h = WeightedHistogram::new(0.0, 1.0, 4);
        h.push(0.5, 0.0);
        for other in [
            WeightedHistogram::new(0.0, 1.0, 5),
            WeightedHistogram::new(-1.0, 1.0, 4),
        ] {
            assert!(matches!(
                h.try_merge_from(&other),
                Err(CodecError::Mismatch(_))
            ));
        }
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn codecs_reject_hostile_payloads() {
        let mut m = WeightedMoments::below(0.5);
        m.push(0.2, -0.1);
        let bytes = m.to_bytes();
        assert_eq!(WeightedMoments::from_bytes(&bytes).unwrap(), m);
        assert!(matches!(
            WeightedMoments::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            WeightedMoments::from_bytes(&[]),
            Err(CodecError::Tag { found: None, .. })
        ));
        assert!(matches!(
            WeightedHistogram::from_bytes(&bytes),
            Err(CodecError::Tag { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            WeightedMoments::from_bytes(&trailing),
            Err(CodecError::Trailing)
        ));
        // Unknown statistic mode (byte 2 after the [tag, version] header).
        let mut bad_mode = bytes.clone();
        bad_mode[2] = 9;
        assert!(matches!(
            WeightedMoments::from_bytes(&bad_mode),
            Err(CodecError::Invalid(_))
        ));

        let mut h = WeightedHistogram::new(0.0, 2.0, 3);
        h.push(1.0, 0.0);
        let hb = h.to_bytes();
        let rt = WeightedHistogram::from_bytes(&hb).unwrap();
        assert_eq!(rt.to_bytes(), hb);
        assert!(matches!(
            WeightedHistogram::from_bytes(&hb[..hb.len() - 2]),
            Err(CodecError::Truncated)
        ));
        // Corrupt the total so it disagrees with the bin counts.
        let mut lying = hb.clone();
        lying[18] ^= 1; // total's low byte (header 2 + lo 8 + hi 8)
        assert!(matches!(
            WeightedHistogram::from_bytes(&lying),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn empty_sinks_round_trip() {
        let m = WeightedMoments::above(2.0);
        let m2 = WeightedMoments::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m2.count(), 0);
        assert!(m2.estimate().is_nan());
        assert!(m2.ci_half_width(1.96).is_infinite());
        assert_eq!(m2.ess(), 0.0);
        let h = WeightedHistogram::new(0.0, 1.0, 2);
        let h2 = WeightedHistogram::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(h2.total(), 0);
        assert_eq!(h2.total_mass(), 0.0);
    }

    #[test]
    fn zero_weight_records_are_legal() {
        let mut m = WeightedMoments::new();
        m.push(5.0, f64::NEG_INFINITY); // weight exactly zero
        m.push(1.0, 0.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.estimate(), 0.5);
        assert_eq!(m.total_weight(), 1.0);
    }
}
