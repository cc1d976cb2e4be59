//! Work-sharded, deterministic parallel Monte Carlo execution.
//!
//! [`ParallelRunner`] spreads the samples of one Monte Carlo experiment
//! across `std::thread` workers. Results leave a run one way: every
//! successful `(index, record)` pair streams into a [`Sink`] — a quantile
//! sketch, a histogram, a CSV writer, moments, or a [`stats::sink::VecSink`]
//! when the empirical sample itself is needed. The returned
//! [`StreamOutcome`] carries only the run accounting. Four properties shape
//! the design:
//!
//! * **Elaborate once per worker.** Worker state (an elaborated
//!   [`spice::Session`], a bench, a device factory template) is built once
//!   by the `build` closure inside each worker thread — the per-sample fast
//!   path (swap devices, warm-started re-solve) never crosses a thread
//!   boundary. Use [`spice::Session::replicate`] to hand every worker its
//!   own copy of a shared elaboration.
//! * **Thread-count-invariant determinism.** Sample `i` always draws from
//!   [`stats::Sampler::stream`]`(i)` of the runner's base sampler — a pure
//!   function of `(seed, i)` — and work is handed out by index from a
//!   shared counter. Workers append records to per-worker shards, and at
//!   every round boundary the coordinating thread folds the shards into the
//!   sink **in ascending sample-index order**. The sink therefore consumes
//!   one record sequence: its final state — sketch centroids, histogram
//!   counts, CSV bytes — is bit-identical for 1, 2, or 64 workers, while
//!   peak sample storage stays O(workers + check_every) instead of O(n).
//!
//!   The guarantee is as strong as the sample closure is pure: if a sample
//!   reads mutable worker state whose value depends on scheduling history —
//!   the classic case is a warm-started Newton solve seeded by whichever
//!   sample the worker ran previously — its result can drift in the last
//!   floating-point bits while remaining statistically identical (the
//!   mismatch draws are exactly the same devices). Call
//!   [`spice::Session::invalidate_warm_start`] per sample when bit-exact
//!   reproducibility matters more than the warm-start speedup.
//! * **Sink-side stopping.** A full run ([`ParallelRunner::run_streaming`])
//!   asks its sink [`Sink::satisfied`] at every round boundary and ends
//!   there once it answers `true`. [`EarlyStop`] is the shipped rule — a
//!   confidence-interval test on the mean, fanned out next to the real
//!   sinks. Rounds are fixed multiples of [`ParallelRunner::check_every`]
//!   samples (independent of the worker count), so the stopping sample
//!   count is deterministic as well.
//! * **Shards.** [`ParallelRunner::run_streaming_range`] runs one disjoint
//!   slice of the sample index space — the same pure `(seed, i)` streams,
//!   the same index-ordered fold — so N *processes or machines* each
//!   execute a shard of one experiment and merge their
//!   [`stats::sink::MergeableSink`] states afterwards, independent of how
//!   the space was partitioned.
//!
//! Records are generic: scalar metrics stream as `f64`, scatter
//! experiments as `(f64, f64)` pairs, and importance-sampling runs as
//! `(value, log_weight)` records into the weighted sinks.
//!
//! # Example
//!
//! ```
//! use vscore::mc::{ParallelRunner, VecSink, WelfordSink};
//!
//! // Estimate E[X^2] for X ~ N(0,1): worker state is trivial (unit), the
//! // per-sample closure gets a deterministically derived sampler.
//! let run = |workers: usize| {
//!     let mut sink = (VecSink::new(), WelfordSink::new());
//!     let out = ParallelRunner::new(7)
//!         .workers(workers)
//!         .run_streaming(
//!             400,
//!             |_worker, _sampler| Ok::<(), std::convert::Infallible>(()),
//!             |(), sampler, _i| {
//!                 let x = sampler.standard_normal();
//!                 Ok(x * x)
//!             },
//!             &mut sink,
//!         )
//!         .unwrap();
//!     assert_eq!(out.observed, 400);
//!     sink
//! };
//! let (values, moments) = run(2);
//! assert!((moments.moments().mean() - 1.0).abs() < 0.2);
//! // Same seed, different worker count: bit-identical records.
//! let (again, _) = run(1);
//! assert_eq!(values.records(), again.records());
//! ```

use stats::sink::Sink;
use stats::{Sampler, Welford};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Sentinel `limit` value signalling workers to shut down.
const SHUTDOWN: usize = usize::MAX;
/// Salt separating worker-setup streams from per-sample streams.
const WORKER_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The exclusive end of the shard `offset .. offset + len`.
///
/// # Panics
///
/// Panics if the end overflows `usize` or reaches `usize::MAX` (reserved as
/// the engine's shutdown sentinel).
fn shard_end(offset: usize, len: usize) -> usize {
    offset
        .checked_add(len)
        .filter(|&end| end < usize::MAX)
        .expect("shard range must end below usize::MAX (the sample index space)")
}

/// Confidence-interval stopping rule, as a sink.
///
/// Fan it out next to the sinks that keep the results — `(EarlyStop, sink)`
/// — and a full [`ParallelRunner::run_streaming`] ends at the first round
/// boundary where at least `min_samples` records have arrived and the
/// `z`-scaled half-width of the confidence interval on their mean is below
/// `rel_half_width · |mean|`. The rule sees the same index-ordered record
/// stream as every other sink, so the stopping point is identical for any
/// worker count. A mean of zero never satisfies the relative criterion;
/// use an absolute transform of the metric if that can occur.
///
/// # Example
///
/// ```
/// use vscore::mc::{EarlyStop, ParallelRunner, VecSink};
///
/// let mut sink = (EarlyStop::relative(0.05).min_samples(50), VecSink::new());
/// let out = ParallelRunner::new(5)
///     .check_every(50)
///     .run_streaming(
///         100_000,
///         |_, _| Ok::<(), std::convert::Infallible>(()),
///         |(), s, _| Ok(10.0 + s.standard_normal()),
///         &mut sink,
///     )
///     .unwrap();
/// // The 5% interval on N(10, 1) closes after one 50-sample round.
/// assert_eq!(out.attempted, 50);
/// assert_eq!(sink.1.records().len(), 50);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EarlyStop {
    /// Target half-width of the CI, relative to the absolute mean.
    pub rel_half_width: f64,
    /// Normal quantile of the interval (1.96 ~ 95%).
    pub z: f64,
    /// Minimum number of successful samples before stopping is considered.
    pub min_samples: usize,
    /// Moments of the records observed so far, in index order.
    watched: Welford,
}

impl EarlyStop {
    /// A 95% (`z = 1.96`) rule with the given relative half-width and a
    /// 64-sample floor.
    #[must_use]
    pub fn relative(rel_half_width: f64) -> Self {
        EarlyStop {
            rel_half_width,
            z: 1.96,
            min_samples: 64,
            watched: Welford::new(),
        }
    }

    /// Overrides the minimum sample count.
    #[must_use]
    pub fn min_samples(mut self, n: usize) -> Self {
        self.min_samples = n;
        self
    }

    /// Overrides the normal quantile.
    #[must_use]
    pub fn z(mut self, z: f64) -> Self {
        self.z = z;
        self
    }
}

impl Sink for EarlyStop {
    fn observe(&mut self, _index: usize, value: f64) {
        self.watched.push(value);
    }

    fn satisfied(&self) -> bool {
        let w = &self.watched;
        w.count() >= self.min_samples as u64
            && w.ci_half_width(self.z) <= self.rel_half_width * w.mean().abs()
    }
}

/// Accounting of a Monte Carlo run. The results themselves live in the
/// sink the run fed.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Samples whose closure returned an error (functional failures under
    /// extreme mismatch, non-convergence, ...).
    pub failures: usize,
    /// Number of sample indices actually scheduled — equals the requested
    /// count unless the sink's stopping rule ended the run sooner.
    pub attempted: usize,
    /// Worker threads the run executed on.
    pub workers: usize,
    /// Successful samples handed to the sink.
    pub observed: usize,
}

/// A deterministic, work-sharded Monte Carlo executor.
///
/// See the [module docs](self) for the determinism contract and a runnable
/// example. Construct with [`ParallelRunner::new`] (worker count defaults
/// to the machine's available parallelism) and adjust with the builder
/// methods.
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    workers: usize,
    seed: u64,
    check_every: usize,
}

impl ParallelRunner {
    /// A runner using every available hardware thread.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ParallelRunner {
            workers,
            seed,
            check_every: 256,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Configured worker count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Sets the round granularity: records fold into the sink, and a full
    /// run asks [`Sink::satisfied`], every `n` samples (clamped to at least
    /// 1). Rounds are independent of the worker count, keeping
    /// early-stopped runs deterministic.
    #[must_use]
    pub fn check_every(mut self, n: usize) -> Self {
        self.check_every = n.max(1);
        self
    }

    /// Runs samples `0..n`, streaming every successful `(index, record)`
    /// into `sink` *during* the run — peak sample storage is
    /// O(workers + check_every), independent of `n`.
    ///
    /// `build(worker_id, sampler)` constructs each worker's private state
    /// inside its thread (elaborated sessions, benches, factory templates);
    /// the sampler it receives is derived per worker and is *not* part of
    /// the per-sample determinism contract — anything drawn from it must be
    /// overwritten per sample (as device-swapping benches do).
    ///
    /// `sample(state, sampler, i)` computes sample `i` with a sampler
    /// stream derived purely from the runner seed and `i`. An `Err` return
    /// marks that sample failed: it is counted in
    /// [`StreamOutcome::failures`] and never reaches the sink.
    ///
    /// At every round boundary the coordinating thread folds the worker
    /// shards **in ascending sample-index order** into the sink on the
    /// calling thread (the sink need not be `Send`), then ends the run if
    /// the sink reports [`Sink::satisfied`] — see [`EarlyStop`].
    /// [`Sink::finish`] is called once after the final record of a
    /// completed (or early-stopped) run; a panic inside the sink shuts the
    /// run down cleanly and re-raises on the calling thread, exactly like a
    /// panic in a sample closure.
    ///
    /// # Example
    ///
    /// ```
    /// use vscore::mc::{ParallelRunner, TDigest};
    ///
    /// // Stream the 90th percentile of X ~ N(0,1) without buffering a
    /// // single sample value.
    /// let mut sketch = TDigest::new(100.0);
    /// let out = ParallelRunner::new(7)
    ///     .workers(2)
    ///     .run_streaming(
    ///         2000,
    ///         |_, _| Ok::<(), std::convert::Infallible>(()),
    ///         |(), s, _| Ok(s.standard_normal()),
    ///         &mut sketch,
    ///     )
    ///     .unwrap();
    /// assert_eq!(out.observed, 2000);
    /// assert!((sketch.quantile(0.9).unwrap() - 1.28).abs() < 0.15);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error (the sink is left
    /// unfinished).
    ///
    /// # Panics
    ///
    /// Panics if `n` is `usize::MAX` (reserved as the engine's shutdown
    /// sentinel).
    pub fn run_streaming<W, T, E, B, S, K>(
        &self,
        n: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
        K: Sink<T> + ?Sized,
    {
        self.execute(0, shard_end(0, n), &build, &sample, sink, true)
    }

    /// Executes the disjoint shard `offset .. offset + len` of a larger
    /// experiment's sample index space, streaming into `sink` — the
    /// fleet-scale primitive: N processes or machines each run one shard
    /// of the same `(seed, total)` experiment, serialize their
    /// [`stats::sink::MergeableSink`] states, and an aggregator merges
    /// them.
    ///
    /// Sample `i` draws from exactly the same pure `(seed, i)` stream as
    /// in a single [`ParallelRunner::run_streaming`] over the whole index
    /// space, and the shard's records fold into the sink in ascending
    /// index order — so the union of shard streams *is* the single-run
    /// stream, however the space is partitioned. Merged sketch guarantees
    /// (partitioned-and-merged vs single-run state): exact for
    /// [`stats::histogram::Histogram`] bin counts and for every
    /// count/min/max; [`stats::Welford`] moments to floating-point
    /// rounding (≲1e-12 relative — grouping pushes into shards moves the
    /// last bits, see [`stats::Welford::merge`]); [`stats::TDigest`]
    /// quantiles within the digest's documented rank-error bound; the
    /// importance-sampling sinks ([`stats::WeightedMoments`],
    /// [`stats::WeightedHistogram`], fed `(value, log_weight)` records)
    /// bit-exactly, because they accumulate in exact fixed-point sums. The
    /// determinism suite (`crates/core/tests/parallel_mc.rs`) pins all of
    /// these, including through the byte round-trip.
    ///
    /// A sink's stopping rule is **ignored**: a shard observes only its
    /// slice of the samples, so a locally-evaluated rule would make the
    /// executed sample set depend on the partitioning — exactly what fleet
    /// merging must rule out. (Run accounting in the returned
    /// [`StreamOutcome`] is shard-local: `attempted` counts this shard's
    /// indices.)
    ///
    /// # Example
    ///
    /// Three shards of one experiment, merged, against the single run:
    ///
    /// ```
    /// use stats::sink::MergeableSink;
    /// use stats::TDigest;
    /// use vscore::mc::ParallelRunner;
    ///
    /// let runner = ParallelRunner::new(9);
    /// let sample = |(): &mut (), s: &mut stats::Sampler, _i: usize| {
    ///     Ok::<_, std::convert::Infallible>(s.standard_normal())
    /// };
    /// let mut merged = TDigest::new(100.0);
    /// for (offset, len) in [(0, 1000), (1000, 500), (1500, 1500)] {
    ///     let mut shard = TDigest::new(100.0);
    ///     runner
    ///         .run_streaming_range(offset, len, |_, _| Ok(()), sample, &mut shard)
    ///         .unwrap();
    ///     // In a real fleet the bytes cross a process/machine boundary.
    ///     merged.merge_from(&TDigest::from_bytes(&shard.to_bytes()).unwrap());
    /// }
    /// let mut single = TDigest::new(100.0);
    /// runner
    ///     .run_streaming(3000, |_, _| Ok(()), sample, &mut single)
    ///     .unwrap();
    /// assert_eq!(merged.count(), single.count());
    /// assert_eq!(merged.min(), single.min()); // extrema merge exactly
    /// let (m, s) = (
    ///     merged.quantile(0.95).unwrap(),
    ///     single.quantile(0.95).unwrap(),
    /// );
    /// assert!((m - s).abs() < 0.1); // within the documented rank error
    /// ```
    ///
    /// An importance-sampling shard is the same call with `(value,
    /// log_weight)` records — here a 4σ tail probability, resolved with
    /// 4000 proposal draws where plain MC would see roughly zero hits:
    ///
    /// ```
    /// use vscore::mc::{GaussianProposal, ParallelRunner, WeightedMoments};
    ///
    /// let proposal = GaussianProposal::new(4.0, 1.0);
    /// let mut sink = WeightedMoments::above(4.0);
    /// ParallelRunner::new(11)
    ///     .workers(2)
    ///     .run_streaming_range(
    ///         0,
    ///         4000,
    ///         |_, _| Ok::<(), std::convert::Infallible>(()),
    ///         |(), s, _| Ok(proposal.draw_weighted(s)),
    ///         &mut sink,
    ///     )
    ///     .unwrap();
    /// let truth = stats::gaussian::tail(4.0); // ~3.17e-5
    /// assert!((sink.estimate() / truth - 1.0).abs() < 0.2);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first worker-state `build` error (the sink is left
    /// unfinished).
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` overflows `usize` or reaches
    /// `usize::MAX` (reserved as the engine's shutdown sentinel) — shard
    /// specifications that cannot index a sample space are a caller bug.
    pub fn run_streaming_range<W, T, E, B, S, K>(
        &self,
        offset: usize,
        len: usize,
        build: B,
        sample: S,
        sink: &mut K,
    ) -> Result<StreamOutcome, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
        K: Sink<T> + ?Sized,
    {
        self.execute(offset, shard_end(offset, len), &build, &sample, sink, false)
    }

    /// The sharded execution engine behind both entry points, running the
    /// sample index range `start..end` (a full run passes `start = 0`; a
    /// fleet shard passes its offset — sample `i` draws the same pure
    /// `(seed, i)` stream either way).
    ///
    /// Workers claim one index at a time from the shared counter, run
    /// `sample` on that index's pure stream, and move their records into
    /// their own shard once per round.
    ///
    /// After every round barrier the coordinator folds the shards of the
    /// now-final index range into `sink` in ascending index order on the
    /// calling thread; when `honour_stop` is set and the range is not yet
    /// exhausted, a [`Sink::satisfied`] sink ends the run at that boundary.
    /// A panic inside `sample` or the sink shuts the run down cleanly and
    /// re-raises on the coordinating thread.
    fn execute<W, T, E, B, S, K>(
        &self,
        start: usize,
        end: usize,
        build: &B,
        sample: &S,
        sink: &mut K,
        honour_stop: bool,
    ) -> Result<StreamOutcome, E>
    where
        T: Send,
        E: Send,
        B: Fn(usize, &mut Sampler) -> Result<W, E> + Sync,
        S: Fn(&mut W, &mut Sampler, usize) -> Result<T, E> + Sync,
        K: Sink<T> + ?Sized,
    {
        let len = end - start;
        let workers = self.workers.min(len.max(1));
        if len == 0 {
            sink.finish();
            return Ok(StreamOutcome {
                failures: 0,
                attempted: 0,
                workers,
                observed: 0,
            });
        }

        // Two deterministic stream families: one per sample index (the
        // determinism contract), one per worker id (setup-only draws).
        let mut root = Sampler::from_seed(self.seed);
        let sample_base = root.fork(0);
        let worker_base = root.fork(WORKER_STREAM_SALT);

        let shards: Vec<Mutex<Vec<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let failures = AtomicUsize::new(0);
        let next = AtomicUsize::new(start);
        let limit = AtomicUsize::new(0);
        // Workers + the coordinating thread.
        let barrier = Barrier::new(workers + 1);
        let setup_err: Mutex<Option<E>> = Mutex::new(None);

        // A panic inside a user closure must not strand the other threads
        // at a barrier (std barriers do not poison): the unwinding worker
        // catches the payload, parks itself as idle, and keeps honouring
        // the barrier protocol; the coordinator shuts the run down and
        // re-raises the panic after the scope joins.
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let store_panic = |p: Box<dyn std::any::Any + Send>| {
            let mut slot = panic_slot.lock().expect("no poisoned locks");
            if slot.is_none() {
                *slot = Some(p);
            }
        };

        let mut observed = 0usize;
        let attempted = std::thread::scope(|scope| {
            for (worker_id, shard) in shards.iter().enumerate() {
                let (failures, sample) = (&failures, &sample);
                let (next, limit, barrier) = (&next, &limit, &barrier);
                let (setup_err, store_panic) = (&setup_err, &store_panic);
                let (sample_base, worker_base) = (&sample_base, &worker_base);
                scope.spawn(move || {
                    let mut wsampler = worker_base.stream(worker_id as u64);
                    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        build(worker_id, &mut wsampler)
                    }));
                    let mut state = match built {
                        Ok(Ok(w)) => Some(w),
                        Ok(Err(e)) => {
                            let mut slot = setup_err.lock().expect("no poisoned locks");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            None
                        }
                        Err(p) => {
                            store_panic(p);
                            None
                        }
                    };
                    let mut records = Vec::new();
                    barrier.wait(); // setup complete
                    loop {
                        barrier.wait(); // round start
                        let hi = limit.load(Ordering::SeqCst);
                        if hi == SHUTDOWN {
                            return;
                        }
                        let mut poisoned = false;
                        if let Some(st) = state.as_mut() {
                            // Bounded pop: a worker never claims an index at
                            // or past the round limit, so round boundaries
                            // lose no sample indices.
                            while let Ok(i) =
                                next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |i| {
                                    (i < hi).then_some(i + 1)
                                })
                            {
                                let mut stream = sample_base.stream(i as u64);
                                let r =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        sample(st, &mut stream, i)
                                    }));
                                match r {
                                    Ok(Ok(t)) => records.push((i, t)),
                                    Ok(Err(_)) => {
                                        failures.fetch_add(1, Ordering::SeqCst);
                                    }
                                    Err(p) => {
                                        store_panic(p);
                                        poisoned = true;
                                        break;
                                    }
                                }
                            }
                        }
                        if poisoned {
                            // The state may be mid-mutation; retire it and
                            // idle through the remaining barriers.
                            state = None;
                        }
                        shard
                            .lock()
                            .expect("no poisoned locks")
                            .append(&mut records);
                        barrier.wait(); // round end
                    }
                });
            }

            // ---- coordinator ------------------------------------------------
            let shutdown = |hi: usize| {
                limit.store(SHUTDOWN, Ordering::SeqCst);
                barrier.wait();
                hi
            };
            barrier.wait(); // setup complete
            if setup_err.lock().expect("no poisoned locks").is_some()
                || panic_slot.lock().expect("no poisoned locks").is_some()
            {
                return shutdown(start);
            }
            let mut batch: Vec<(usize, T)> = Vec::new();
            let mut hi = start;
            while hi < end {
                hi = (hi + self.check_every).min(end);
                limit.store(hi, Ordering::SeqCst);
                barrier.wait(); // round start
                barrier.wait(); // round end: all samples < hi are final
                if panic_slot.lock().expect("no poisoned locks").is_some() {
                    return shutdown(hi);
                }
                // Fold the shards in ascending sample-index order: the sink
                // sees one deterministic record stream, whatever the worker
                // count. Each worker pops indices monotonically, so the
                // concatenation sorts in one cheap pass over ~round records.
                let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for shard in &shards {
                        batch.append(&mut shard.lock().expect("no poisoned locks"));
                    }
                    batch.sort_unstable_by_key(|&(i, _)| i);
                    observed += batch.len();
                    sink.merge(&mut batch);
                    batch.clear();
                    honour_stop && hi < end && sink.satisfied()
                }));
                match folded {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(p) => {
                        store_panic(p);
                        return shutdown(hi);
                    }
                }
            }
            shutdown(hi)
        });

        if let Some(p) = panic_slot.into_inner().expect("no poisoned locks") {
            std::panic::resume_unwind(p);
        }
        if let Some(e) = setup_err.into_inner().expect("no poisoned locks") {
            return Err(e);
        }
        sink.finish();
        Ok(StreamOutcome {
            failures: failures.into_inner(),
            attempted: attempted - start,
            workers,
            observed,
        })
    }
}
