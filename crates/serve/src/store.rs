//! Run lifecycle state: experiment specs, run records, the bounded job
//! queue, and the byte↔hex codec the wire protocol uses for sketch
//! payloads.
//!
//! The store is the only mutable state the server shares between its
//! connection threads and its worker threads: an `Arc<Mutex<_>>` map of
//! run id → [`RunRecord`]. Records move `queued → running → done|failed`
//! and are never removed — a run id handed to a client stays resolvable
//! for the server's lifetime. A `Condvar` beside the map is notified
//! whenever a run settles (`done` or `failed`), so a held
//! `GET /runs/{id}` ([`RunStore::get_settled`]) answers as soon as its
//! run finishes instead of at the client's next poll.

use crate::error::ApiError;
use crate::pool::SinkSet;
use stats::sink::MergeableSink;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A validated experiment: which template to run, which shard of the
/// sample index space, and which sketch payloads to return.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Template id (see `GET /circuits`).
    pub circuit: String,
    /// Analysis kind; the built-in templates support `"dc"`.
    pub analysis: String,
    /// Base RNG seed. Shards of one experiment share the seed and
    /// partition the index range.
    pub seed: u64,
    /// First sample index of this shard.
    pub offset: usize,
    /// Number of samples in this shard.
    pub len: usize,
    /// Declared total sample count of the whole experiment, when the
    /// client stated one. Validation guarantees `offset + len <= total`,
    /// so a buggy coordinator cannot silently request work outside the
    /// experiment's index space.
    pub total: Option<usize>,
    /// Return the Welford moment-sketch bytes.
    pub want_welford: bool,
    /// Return the fixed-bin histogram bytes.
    pub want_histogram: bool,
    /// Return the t-digest quantile-sketch bytes.
    pub want_tdigest: bool,
    /// Histogram `(lo, hi, bins)` — must match across shards that will be
    /// merged (the fallible merge path rejects mismatches).
    pub histogram: (f64, f64, usize),
    /// t-digest compression — must likewise match across merged shards.
    pub tdigest_compression: f64,
    /// Gaussian proposal `(shift, scale)` for importance-sampled
    /// templates; `(0.0, 1.0)` is the plain nominal draw.
    pub proposal: (f64, f64),
    /// Tail threshold the weighted-moments sink estimates `P(X > t)` at.
    /// Must match across shards that will be merged.
    pub threshold: f64,
    /// Return the weighted-moments sketch bytes (IS templates only).
    pub want_wmoments: bool,
    /// Return the weighted-histogram sketch bytes (IS templates only).
    pub want_whistogram: bool,
}

/// Where a run is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the shard.
    Running,
    /// Finished; the result is available.
    Done,
    /// Execution failed; the error message is available.
    Failed,
}

impl RunStatus {
    /// The wire name of the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Done => "done",
            RunStatus::Failed => "failed",
        }
    }
}

/// Why a run failed, in coordinator-actionable form: the message plus
/// whether re-issuing the identical shard can succeed. Transient faults
/// (full queue at submission, a crashed worker thread, resource
/// exhaustion) are retryable; spec-level faults (a template the engine
/// cannot run) are not — retrying them would loop forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// Human-readable failure detail.
    pub message: String,
    /// Whether re-issuing the same shard (here or on another worker) can
    /// succeed.
    pub retryable: bool,
}

impl RunFailure {
    /// A failure worth re-issuing.
    #[must_use]
    pub fn transient(message: impl Into<String>) -> Self {
        RunFailure {
            message: message.into(),
            retryable: true,
        }
    }

    /// A failure that will recur on every retry.
    #[must_use]
    pub fn fatal(message: impl Into<String>) -> Self {
        RunFailure {
            message: message.into(),
            retryable: false,
        }
    }
}

/// What a finished shard produced: the scalar report plus the requested
/// sketch byte payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Samples that produced a metric value.
    pub observed: u64,
    /// Samples whose solve failed (counted, not fatal).
    pub failures: u64,
    /// Streaming moment summary: observation count.
    pub count: u64,
    /// Streaming mean of the metric.
    pub mean: f64,
    /// Streaming sample variance of the metric.
    pub variance: f64,
    /// Serialized [`stats::Welford`] state, when requested.
    pub welford_bytes: Option<Vec<u8>>,
    /// Serialized [`stats::histogram::Histogram`] state, when requested.
    pub histogram_bytes: Option<Vec<u8>>,
    /// Serialized [`stats::TDigest`] state, when requested.
    pub tdigest_bytes: Option<Vec<u8>>,
    /// Serialized [`stats::WeightedMoments`] state, when requested.
    pub wmoments_bytes: Option<Vec<u8>>,
    /// Serialized [`stats::WeightedHistogram`] state, when requested.
    pub whistogram_bytes: Option<Vec<u8>>,
    /// Whether this result was replayed from the artifact cache instead
    /// of computed — surfaced on the wire so clients can tell.
    pub cached: bool,
}

impl RunResult {
    /// Assembles the result from a finished shard's sink bundle.
    #[must_use]
    pub fn collect(observed: u64, failures: u64, spec: &ExperimentSpec, sinks: SinkSet) -> Self {
        let moments = sinks.welford.moments();
        RunResult {
            observed,
            failures,
            count: moments.count(),
            mean: moments.mean(),
            variance: moments.variance(),
            welford_bytes: spec.want_welford.then(|| sinks.welford.to_bytes()),
            histogram_bytes: sinks.histogram.as_ref().map(MergeableSink::to_bytes),
            tdigest_bytes: sinks.tdigest.as_ref().map(MergeableSink::to_bytes),
            wmoments_bytes: None,
            whistogram_bytes: None,
            cached: false,
        }
    }

    /// Assembles the result from a finished importance-sampled shard's
    /// weighted sink bundle. The scalar `moments` block reports the tail
    /// estimator: `count` is the record count, `mean` the estimated
    /// nominal probability, `variance` the estimator variance.
    #[must_use]
    pub fn collect_weighted(
        observed: u64,
        failures: u64,
        spec: &ExperimentSpec,
        sinks: crate::pool::ImportanceSinkSet,
    ) -> Self {
        RunResult {
            observed,
            failures,
            count: sinks.moments.count(),
            mean: sinks.moments.estimate(),
            variance: sinks.moments.variance(),
            welford_bytes: None,
            histogram_bytes: None,
            tdigest_bytes: None,
            wmoments_bytes: spec.want_wmoments.then(|| sinks.moments.to_bytes()),
            whistogram_bytes: sinks.histogram.as_ref().map(MergeableSink::to_bytes),
            cached: false,
        }
    }
}

/// One run's full record: the spec it was created from, where it is in
/// its lifecycle, and its outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Server-assigned run id.
    pub id: u64,
    /// The validated spec the run was created from.
    pub spec: ExperimentSpec,
    /// Lifecycle position.
    pub status: RunStatus,
    /// Failure reason, when `status == Failed`.
    pub error: Option<RunFailure>,
    /// The result, when `status == Done`.
    pub result: Option<RunResult>,
}

/// The shared run-id → record map. Ids are dense and start at 1.
#[derive(Default)]
pub struct RunStore {
    inner: Mutex<StoreState>,
    /// Notified whenever a run settles; [`RunStore::get_settled`] waits on
    /// it.
    settled: Condvar,
}

#[derive(Default)]
struct StoreState {
    next_id: u64,
    runs: HashMap<u64, RunRecord>,
}

impl RunStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        RunStore::default()
    }

    /// Registers a new queued run and returns its id.
    pub fn create(&self, spec: ExperimentSpec) -> u64 {
        let mut state = self.inner.lock().expect("no poisoned locks");
        state.next_id += 1;
        let id = state.next_id;
        state.runs.insert(
            id,
            RunRecord {
                id,
                spec,
                status: RunStatus::Queued,
                error: None,
                result: None,
            },
        );
        id
    }

    /// A snapshot of one run's record.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<RunRecord> {
        self.inner
            .lock()
            .expect("no poisoned locks")
            .runs
            .get(&id)
            .cloned()
    }

    /// A snapshot of one run's record once it has settled or `wait` has
    /// passed, whichever comes first. An unknown id is `None` at once.
    #[must_use]
    pub fn get_settled(&self, id: u64, wait: Duration) -> Option<RunRecord> {
        let until = Instant::now() + wait;
        let mut state = self.inner.lock().expect("no poisoned locks");
        loop {
            let record = state.runs.get(&id)?;
            let left = until.saturating_duration_since(Instant::now());
            let settled = matches!(record.status, RunStatus::Done | RunStatus::Failed);
            if settled || left.is_zero() {
                return Some(record.clone());
            }
            state = self
                .settled
                .wait_timeout(state, left)
                .expect("no poisoned locks")
                .0;
        }
    }

    /// Marks a run as picked up by a worker.
    pub fn mark_running(&self, id: u64) {
        self.update(id, |r| r.status = RunStatus::Running);
    }

    /// Records a successful result and wakes held reads.
    pub fn complete(&self, id: u64, result: RunResult) {
        self.update(id, |r| {
            r.status = RunStatus::Done;
            r.result = Some(result);
        });
        self.settled.notify_all();
    }

    /// Records a failure reason and wakes held reads.
    pub fn fail(&self, id: u64, failure: RunFailure) {
        self.update(id, |r| {
            r.status = RunStatus::Failed;
            r.error = Some(failure);
        });
        self.settled.notify_all();
    }

    /// Total runs ever created.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("no poisoned locks").runs.len()
    }

    /// Whether no runs have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn update(&self, id: u64, f: impl FnOnce(&mut RunRecord)) {
        if let Some(record) = self
            .inner
            .lock()
            .expect("no poisoned locks")
            .runs
            .get_mut(&id)
        {
            f(record);
        }
    }
}

/// The bounded FIFO of queued run ids feeding the worker threads.
///
/// `push` never blocks — a full queue is the client's problem (`503
/// queue_full`), not a reason to hold a connection thread hostage. `pop`
/// blocks until a job arrives or the queue is closed for shutdown.
pub struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<u64>,
    closed: bool,
}

impl JobQueue {
    /// A queue holding at most `capacity` pending run ids.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a run id.
    ///
    /// # Errors
    ///
    /// [`ApiError::queue_full`] when the queue is at capacity, and a 503
    /// envelope when the server is shutting down.
    pub fn push(&self, id: u64) -> Result<(), ApiError> {
        let mut state = self.state.lock().expect("no poisoned locks");
        if state.closed {
            return Err(ApiError {
                status: 503,
                code: "shutting_down",
                message: "server is shutting down".to_string(),
            });
        }
        if state.jobs.len() >= self.capacity {
            return Err(ApiError::queue_full(self.capacity));
        }
        state.jobs.push_back(id);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next run id; `None` once the queue is closed and
    /// drained (the worker's signal to exit).
    pub fn pop(&self) -> Option<u64> {
        let mut state = self.state.lock().expect("no poisoned locks");
        loop {
            if let Some(id) = state.jobs.pop_front() {
                return Some(id);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("no poisoned locks");
        }
    }

    /// Closes the queue: queued jobs still drain, new pushes fail, and
    /// blocked `pop`s wake.
    pub fn close(&self) {
        self.state.lock().expect("no poisoned locks").closed = true;
        self.available.notify_all();
    }

    /// Jobs currently waiting.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("no poisoned locks").jobs.len()
    }
}

/// Lowercase hex encoding for sketch byte payloads — JSON-safe without
/// any base64 machinery, and trivially decodable from every client
/// language.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes the hex produced by [`hex_encode`] (either nibble case).
///
/// # Errors
///
/// A static message on odd length or a non-hex byte.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, &'static str> {
    if !text.len().is_multiple_of(2) {
        return Err("hex payload has odd length");
    }
    fn nibble(b: u8) -> Result<u8, &'static str> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err("hex payload has a non-hex byte"),
        }
    }
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            circuit: "device_idsat".to_string(),
            analysis: "dc".to_string(),
            seed: 1,
            offset: 0,
            len: 10,
            total: None,
            want_welford: true,
            want_histogram: false,
            want_tdigest: false,
            histogram: (0.0, 1.0, 8),
            tdigest_compression: 100.0,
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        }
    }

    #[test]
    fn records_progress_through_the_lifecycle() {
        let store = RunStore::new();
        assert!(store.is_empty());
        let id = store.create(spec());
        assert_eq!(store.get(id).unwrap().status, RunStatus::Queued);
        store.mark_running(id);
        assert_eq!(store.get(id).unwrap().status, RunStatus::Running);
        store.fail(id, RunFailure::transient("boom"));
        let record = store.get(id).unwrap();
        assert_eq!(record.status, RunStatus::Failed);
        let failure = record.error.unwrap();
        assert_eq!(failure.message, "boom");
        assert!(failure.retryable);
        assert_eq!(store.len(), 1);
        assert!(store.get(id + 1).is_none());
    }

    #[test]
    fn held_reads_wake_when_a_run_settles() {
        let result = || RunResult::collect(0, 0, &spec(), SinkSet::for_spec(&spec()));
        let store = std::sync::Arc::new(RunStore::new());
        let long = Duration::from_secs(30);
        // Unknown ids and settled runs answer at once.
        assert!(store.get_settled(99, long).is_none());
        let done = store.create(spec());
        store.complete(done, result());
        let record = store.get_settled(done, long).unwrap();
        assert_eq!(record.status, RunStatus::Done);
        // A live run answers with its current state once the wait passes.
        let live = store.create(spec());
        store.mark_running(live);
        let record = store.get_settled(live, Duration::from_millis(20)).unwrap();
        assert_eq!(record.status, RunStatus::Running);
        // Failing and completing both wake a held read long before its wait.
        for fail in [true, false] {
            let id = store.create(spec());
            let started = Instant::now();
            let waiter = {
                let store = store.clone();
                std::thread::spawn(move || store.get_settled(id, long))
            };
            // Give the waiter time to block; settling first would also
            // answer at once, just without exercising the wake.
            std::thread::sleep(Duration::from_millis(50));
            if fail {
                store.fail(id, RunFailure::transient("boom"));
            } else {
                store.complete(id, result());
            }
            let record = waiter.join().expect("waiter exits").unwrap();
            let expected = if fail {
                RunStatus::Failed
            } else {
                RunStatus::Done
            };
            assert_eq!(record.status, expected);
            let held = started.elapsed();
            assert!(held < long / 2, "woke after {held:?}");
        }
    }

    #[test]
    fn queue_is_bounded_and_closable() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3).unwrap_err().code, "queue_full");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert_eq!(q.push(4).unwrap_err().code, "shutting_down");
        // Queued jobs still drain after close; then pop signals exit.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_wakes_a_blocked_worker() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(7));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = hex_encode(&bytes);
        assert_eq!(hex_decode(&text).unwrap(), bytes);
        assert_eq!(hex_decode(&text.to_uppercase()).unwrap(), bytes);
        assert_eq!(hex_encode(&[0xde, 0xad]), "dead");
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        assert!(hex_decode("").unwrap().is_empty());
    }

    #[test]
    fn run_status_wire_names_are_stable() {
        assert_eq!(RunStatus::Queued.as_str(), "queued");
        assert_eq!(RunStatus::Running.as_str(), "running");
        assert_eq!(RunStatus::Done.as_str(), "done");
        assert_eq!(RunStatus::Failed.as_str(), "failed");
    }
}
