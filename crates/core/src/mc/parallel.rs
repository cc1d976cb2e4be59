//! Work-sharded, deterministic parallel Monte Carlo execution.
//!
//! [`ParallelRunner`] spreads the samples of one Monte Carlo experiment
//! across `std::thread` workers. It has one entry point,
//! [`ParallelRunner::run_streaming_range`], which runs the sample indices
//! `offset .. offset + len`: a whole experiment is the range starting at 0.
//! Results leave a run one way: every successful `(index, record)` pair
//! streams into a [`Sink`] — a quantile sketch, a histogram, a CSV writer,
//! moments, or a [`stats::sink::VecSink`] when the empirical sample itself
//! is needed. The returned [`StreamOutcome`] carries only the run
//! accounting. Four properties shape the design:
//!
//! * **Elaborate once per worker.** Worker state (an elaborated
//!   [`spice::Session`], a bench, a device factory template) is built once
//!   by the `build` closure inside each worker thread — the per-sample fast
//!   path (swap devices, re-solve) never crosses a thread
//!   boundary. Elaborate each worker's session there from a clone of one
//!   shared [`spice::Circuit`].
//! * **Thread-count-invariant determinism.** Sample `i` always draws from
//!   [`stats::Sampler::stream`]`(i)` of the runner's base sampler — a pure
//!   function of `(seed, i)` — and work is handed out by index from a
//!   shared counter. Workers append records to per-worker shards, and at
//!   every round boundary (every 256 samples) the coordinating thread folds
//!   the shards into the sink **in ascending sample-index order**. The sink
//!   therefore consumes one record sequence: its final state — sketch
//!   centroids, histogram counts, CSV bytes — is bit-identical for 1, 2, or
//!   64 workers, while peak sample storage stays O(workers + round) instead
//!   of O(n).
//!
//!   The guarantee is as strong as the sample closure is pure: a sample may
//!   read only its stream and worker state that is the same on every
//!   worker. A [`spice::Session`] keeps nothing between solves, so swapping
//!   devices in and solving is pure. Worker state built from the `build`
//!   closure's sampler differs per worker, so a bench whose samples start
//!   Newton from its construction cell's operating point must draw that
//!   cell from a stream every worker shares.
//! * **Caller-side stopping.** A run always executes its whole range. To
//!   stop once an estimate is pinned down, run consecutive ranges into the
//!   same sink and test the estimate between them: the sink sees the same
//!   index-ordered stream as one range over the union, so the stopping
//!   range is the same for any worker count.
//! * **Shards.** Ranges also split one experiment across *processes or
//!   machines*: each runs a disjoint slice of the index space on the same
//!   pure `(seed, i)` streams, and their [`stats::sink::MergeableSink`]
//!   states merge afterwards, independent of how the space was
//!   partitioned.
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
//!         .run_streaming_range(
//!             0,
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
use stats::Sampler;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Sentinel `limit` value signalling workers to shut down.
const SHUTDOWN: usize = usize::MAX;
/// Salt separating worker-setup streams from per-sample streams.
const WORKER_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Samples per round: records fold into the sink at every round boundary.
/// Rounds are independent of the worker count.
const ROUND: usize = 256;

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

/// Accounting of a Monte Carlo run. The results themselves live in the
/// sink the run fed.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Samples whose closure returned an error (functional failures under
    /// extreme mismatch, non-convergence, ...).
    pub failures: usize,
    /// Sample indices the run scheduled: the range length.
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
/// to the machine's available parallelism) and adjust with
/// [`ParallelRunner::workers`].
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    workers: usize,
    seed: u64,
}

impl ParallelRunner {
    /// A runner using every available hardware thread.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ParallelRunner { workers, seed }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Runs the samples `offset .. offset + len` of an experiment,
    /// streaming every successful `(index, record)` into `sink` *during*
    /// the run — peak sample storage is O(workers + round), independent of
    /// `len`. A whole experiment is the range at offset 0.
    ///
    /// `build(worker_id, sampler)` constructs each worker's private state
    /// inside its thread (elaborated sessions, benches, factory templates);
    /// the sampler it receives is derived per worker and is *not* part of
    /// the per-sample determinism contract — anything drawn from it must be
    /// overwritten per sample (as device-swapping benches do).
    ///
    /// `sample(state, sampler, i)` computes sample `i` with a sampler
    /// stream derived purely from the runner seed and `i`, whatever the
    /// range: the union of the records of disjoint ranges *is* the record
    /// stream of one range over the union, however the index space is
    /// partitioned. An `Err` return marks that sample failed: it is counted
    /// in [`StreamOutcome::failures`] and never reaches the sink.
    ///
    /// At every round boundary the coordinating thread folds the worker
    /// shards **in ascending sample-index order** into the sink on the
    /// calling thread (the sink need not be `Send`). [`Sink::finish`] is
    /// called once after the run's final record; a panic inside the sink
    /// shuts the run down cleanly and re-raises on the calling thread,
    /// exactly like a panic in a sample closure.
    ///
    /// The range is the unit of both scaling and stopping:
    ///
    /// * **Fleet shards.** N processes or machines each run one disjoint
    ///   range of the same `(seed, total)` experiment, serialize their
    ///   [`stats::sink::MergeableSink`] states, and an aggregator merges
    ///   them. Merged sketch guarantees (partitioned-and-merged vs
    ///   single-run state): exact for [`stats::histogram::Histogram`] bin
    ///   counts and for every count/min/max; [`stats::Welford`] moments to
    ///   floating-point rounding (≲1e-12 relative — grouping pushes into
    ///   shards moves the last bits, see [`stats::Welford::merge`]);
    ///   [`stats::TDigest`] quantiles within the digest's documented
    ///   rank-error bound; the importance-sampling sinks
    ///   ([`stats::WeightedMoments`], [`stats::WeightedHistogram`], fed
    ///   `(value, log_weight)` records) bit-exactly, because they
    ///   accumulate in exact fixed-point sums. The determinism suite
    ///   (`crates/core/tests/parallel_mc.rs`) pins all of these, including
    ///   through the byte round-trip.
    /// * **Stopping rules.** A caller that wants to stop once an estimate
    ///   is pinned down runs consecutive ranges into one sink and tests
    ///   its own statistic between them. The sink sees the same record
    ///   stream as a single range over the union, so the stopping range
    ///   does not depend on the worker count. (Each range calls
    ///   [`Sink::finish`], which for a [`stats::TDigest`] compresses the
    ///   buffered records.)
    ///
    /// Run accounting in the returned [`StreamOutcome`] is range-local:
    /// `attempted` counts this range's indices.
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
    ///     .run_streaming_range(0, 3000, |_, _| Ok(()), sample, &mut single)
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
        // Workers claim one index at a time from the shared counter, run
        // `sample` on that index's pure stream, and move their records into
        // their own shard once per round. After every round barrier the
        // coordinator folds the shards of the now-final index range into
        // `sink` in ascending index order on the calling thread. A panic
        // inside `sample` or the sink shuts the run down cleanly and
        // re-raises on the coordinating thread.
        let (start, end) = (offset, shard_end(offset, len));
        let (build, sample) = (&build, &sample);
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
        std::thread::scope(|scope| {
            for (worker_id, shard) in shards.iter().enumerate() {
                let failures = &failures;
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
            barrier.wait(); // setup complete
            let set_up = setup_err.lock().expect("no poisoned locks").is_none()
                && panic_slot.lock().expect("no poisoned locks").is_none();
            let mut batch: Vec<(usize, T)> = Vec::new();
            let mut hi = start;
            while set_up && hi < end {
                hi = (hi + ROUND).min(end);
                limit.store(hi, Ordering::SeqCst);
                barrier.wait(); // round start
                barrier.wait(); // round end: all samples < hi are final
                if panic_slot.lock().expect("no poisoned locks").is_some() {
                    break;
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
                }));
                if let Err(p) = folded {
                    store_panic(p);
                    break;
                }
            }
            limit.store(SHUTDOWN, Ordering::SeqCst);
            barrier.wait();
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
            attempted: len,
            workers,
            observed,
        })
    }
}
