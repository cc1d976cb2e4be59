//! The fleet coordinator: dispatch → poll → retry → merge.
//!
//! A campaign is a set of disjoint `(offset, len)` shards of one
//! experiment's sample index space, executed against one or more
//! `statvs serve` workers. Because every sample is a pure function of
//! `(seed, index)`, a shard is *re-issuable for free*: a killed worker, a
//! straggler past its deadline, or a transient server failure all resolve
//! the same way — dispatch the identical shard to another worker, and the
//! bytes that eventually come back are the bytes the first attempt would
//! have produced. The coordinator exploits exactly that:
//!
//! ```text
//!   plan            dispatch                 poll                       merge
//!   ─────────       ────────────────         ─────────────────────      ─────────────
//!   0..N split  →   POST /experiments   →    GET /runs/{id}         →   dedupe by shard,
//!   into shards     round-robin over         capped exp. backoff;       sort by offset,
//!                   workers; 503             idle pauses held on the    try_merge_from
//!                   queue_full → wait        oldest in-flight shard
//!                        ▲                   (Prefer: wait)
//!                        │                      │
//!                        └── re-issue on ───────┘
//!                            kill / deadline / retryable failure
//! ```
//!
//! Each in-flight shard is polled on its own backoff schedule (25 ms
//! doubling to a 500 ms cap by default). Between polls the loop does not
//! sleep: it spends the pause until the next scheduled instant in one
//! `GET /runs/{id}` with `Prefer: wait` on its earliest-dispatched
//! in-flight shard, which a `statvs serve` worker answers as soon as that
//! shard finishes. A campaign therefore ends when its last shard does,
//! not at the next poll instant after it. The held wait never exceeds the
//! pause, so no scheduled poll, dispatch retry or straggler check runs
//! later than the schedule says, and against a server that ignores the
//! preference the loop sleeps out the pause as before.
//!
//! A worker whose job queue is full answers a dispatch with `503
//! queue_full`. That is back-pressure, not a fault: the shard waits on
//! the dispatch backoff without using one of its attempts, and only a
//! shard refused for longer than [`FleetConfig::shard_deadline`] fails
//! the campaign.
//!
//! Retries and merge order cannot change the answer: duplicate results
//! dedupe by shard identity, and merging happens in sorted shard order
//! ([`crate::merge`]), so the merged state is deterministic across worker
//! counts, kill schedules, and retry orderings — the property the
//! `fleet_e2e` suite pins against a single-process reference.

use crate::merge::{merge_payloads, MergeError, MergedResult, ShardPayload};
use crate::persist::CampaignStore;
use serve::http::{ClientError, HttpClient};
use serve::json::{num, obj, s, Json, MAX_EXACT_INT};
use serve::store::hex_decode;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use vscore::mc::{plan_shards, Shard};

/// What to run: the experiment identity shared by every shard.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Circuit template id (see the server's `GET /circuits`).
    pub circuit: String,
    /// Analysis kind; `None` uses the template's default.
    pub analysis: Option<String>,
    /// Base RNG seed shared by every shard; at most
    /// [`MAX_EXACT_INT`] (2⁵³ − 1), because it travels as a JSON number.
    pub seed: u64,
    /// Total sample count of the campaign; sent with every shard so the
    /// server can reject inconsistent `(offset, len)` requests.
    pub total: usize,
    /// Explicit histogram `(lo, hi, bins)`; `None` uses the template
    /// default (identical across shards either way).
    pub histogram: Option<(f64, f64, usize)>,
    /// Explicit t-digest compression; `None` uses the server default.
    pub tdigest_compression: Option<f64>,
}

impl FleetSpec {
    /// The `POST /experiments` body for one shard of this campaign.
    #[must_use]
    pub fn post_body(&self, shard: Shard) -> String {
        let mut members = vec![
            ("circuit", s(&self.circuit)),
            ("seed", num(self.seed as f64)),
            (
                "shard",
                obj(vec![
                    ("offset", num(shard.offset as f64)),
                    ("len", num(shard.len as f64)),
                ]),
            ),
            ("total", num(self.total as f64)),
        ];
        if let Some(analysis) = &self.analysis {
            members.push(("analysis", s(analysis)));
        }
        if let Some((lo, hi, bins)) = self.histogram {
            members.push((
                "histogram",
                obj(vec![
                    ("lo", num(lo)),
                    ("hi", num(hi)),
                    ("bins", num(bins as f64)),
                ]),
            ));
        }
        if let Some(compression) = self.tdigest_compression {
            members.push(("tdigest", obj(vec![("compression", num(compression))])));
        }
        obj(members).to_text()
    }
}

/// Fault-tolerance tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Dispatch attempts per shard before the campaign fails; each
    /// attempt targets the next worker round-robin, so consecutive
    /// retries of one shard land on different workers. A dispatch refused
    /// by a full queue is not an attempt.
    pub max_attempts: usize,
    /// Per-shard wall-clock deadline from dispatch; a shard still
    /// unfinished past it is a straggler and gets re-issued. It also
    /// bounds how long full queues may keep refusing a shard's dispatch.
    pub shard_deadline: Duration,
    /// First poll interval after a dispatch.
    pub poll_initial: Duration,
    /// Poll-interval cap for the exponential backoff.
    pub poll_max: Duration,
    /// Consecutive failed polls (connect refused, timeout, truncation)
    /// before the worker is presumed dead and the shard re-issued.
    pub max_poll_faults: usize,
    /// Connect/I-O timeouts for every exchange. A held poll asks for at
    /// most half the I/O timeout, so its reply never reads as a timeout.
    pub client: HttpClient,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            max_attempts: 5,
            shard_deadline: Duration::from_secs(300),
            poll_initial: Duration::from_millis(25),
            poll_max: Duration::from_millis(500),
            max_poll_faults: 3,
            client: HttpClient::default(),
        }
    }
}

/// Progress events, for CLI narration and for tests asserting that
/// retries actually happened.
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// A shard was posted to a worker (`attempt` counts from 1).
    Dispatched {
        /// The shard.
        shard: Shard,
        /// Which worker took it.
        worker: SocketAddr,
        /// Server-assigned run id.
        run_id: u64,
        /// Dispatch attempt number for this shard.
        attempt: usize,
    },
    /// A shard's payload was collected.
    Completed {
        /// The shard.
        shard: Shard,
        /// The worker that finished it.
        worker: SocketAddr,
    },
    /// A shard attempt was abandoned and will be re-issued.
    Retrying {
        /// The shard.
        shard: Shard,
        /// The worker the failed attempt targeted, when one was reached.
        worker: Option<SocketAddr>,
        /// Attempts consumed so far.
        attempt: usize,
        /// Why the attempt was abandoned.
        reason: String,
    },
    /// A shard's payload was recovered from the campaign store instead of
    /// being dispatched — the resume path.
    Restored {
        /// The shard.
        shard: Shard,
    },
    /// A planned shard's artifact in the campaign store could not be
    /// trusted (unreadable, broken seal, or another key); the shard will
    /// be recomputed.
    RestoreSkipped {
        /// The artifact file.
        artifact: String,
        /// Why it was rejected.
        reason: String,
    },
}

/// Why a campaign failed.
#[derive(Debug)]
pub enum FleetError {
    /// No workers were configured.
    NoWorkers,
    /// The campaign cannot be planned: zero-length or overlapping shards,
    /// shards escaping `0..total`, or a seed above [`MAX_EXACT_INT`].
    BadPlan(String),
    /// A worker rejected the spec or reported a non-retryable failure;
    /// re-issuing the identical shard cannot succeed.
    Fatal {
        /// The shard that hit the failure.
        shard: Shard,
        /// The server's reason.
        reason: String,
    },
    /// A shard burned through every dispatch attempt, or full queues
    /// refused its dispatch for longer than the shard deadline.
    Exhausted {
        /// The shard that gave up.
        shard: Shard,
        /// Attempts consumed.
        attempts: usize,
        /// The last failure observed.
        last_error: String,
    },
    /// The collected payloads refused to merge (corrupt worker output).
    Merge(MergeError),
    /// The campaign store failed to persist a completed shard.
    Store(std::io::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "no workers configured"),
            FleetError::BadPlan(why) => write!(f, "bad shard plan: {why}"),
            FleetError::Fatal { shard, reason } => {
                write!(f, "shard {shard} failed fatally: {reason}")
            }
            FleetError::Exhausted {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} exhausted its {attempts} attempts; last error: {last_error}"
            ),
            FleetError::Merge(e) => write!(f, "merge refused: {e}"),
            FleetError::Store(e) => write!(f, "campaign store i/o error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MergeError> for FleetError {
    fn from(e: MergeError) -> Self {
        FleetError::Merge(e)
    }
}

/// A finished campaign: the merged result plus dispatch accounting.
#[derive(Debug)]
pub struct FleetReport {
    /// The merged sketches and sample accounting.
    pub merged: MergedResult,
    /// Successful dispatches (`202` responses) over the campaign.
    pub dispatches: usize,
    /// Dispatches beyond the first per shard — the retry count.
    pub reissues: usize,
    /// Shards recovered from the campaign store instead of dispatched.
    pub restored: usize,
    /// Wall-clock duration of the campaign.
    pub wall: Duration,
}

/// Longest idle pause of the coordinator loop, and so the longest wait a
/// held poll asks for.
const MAX_PAUSE: Duration = Duration::from_millis(100);

/// Per-shard lifecycle inside the coordinator loop.
enum SlotState {
    /// Waiting to be dispatched (again); `not_before` implements the
    /// capped dispatch backoff.
    Pending { not_before: Instant },
    /// Posted; being polled.
    InFlight {
        worker: usize,
        run_id: u64,
        dispatched: Instant,
        next_poll: Instant,
        interval: Duration,
        poll_faults: usize,
    },
    /// Payload collected.
    Done,
}

struct Slot {
    shard: Shard,
    state: SlotState,
    attempts: usize,
    last_error: String,
    /// When full queues first refused the shard since its last accepted
    /// dispatch, and how many refusals there have been since.
    refused: Option<(Instant, usize)>,
}

impl Slot {
    /// When the slot next wants attention; `None` once it is done.
    fn wake(&self) -> Option<Instant> {
        match self.state {
            SlotState::Pending { not_before } => Some(not_before),
            SlotState::InFlight { next_poll, .. } => Some(next_poll),
            SlotState::Done => None,
        }
    }
}

/// How one dispatch attempt failed.
enum DispatchFault {
    /// Worth retrying on another worker.
    Transient(String),
    /// The worker's job queue is full (`503 queue_full`): back-pressure
    /// from a healthy worker, so the shard waits without using an attempt.
    QueueFull(String),
    /// The spec itself was rejected; no retry can succeed.
    Fatal(String),
}

/// What one poll learned.
enum PollVerdict {
    /// The run finished; payload collected.
    Done(Box<ShardPayload>),
    /// Still queued/running.
    NotYet,
    /// The attempt is dead (run failed retryably, run lost, garbage
    /// payload); re-issue now.
    Reissue(String),
    /// The server reported a non-retryable failure.
    Fatal(String),
    /// The worker could not be reached; counts toward
    /// [`FleetConfig::max_poll_faults`].
    Unreachable(String),
}

/// The coordinator: a worker list plus fault-tolerance configuration.
pub struct Coordinator {
    workers: Vec<SocketAddr>,
    cfg: FleetConfig,
}

impl Coordinator {
    /// Builds a coordinator over `workers`.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoWorkers`] when the list is empty.
    pub fn new(workers: Vec<SocketAddr>, cfg: FleetConfig) -> Result<Self, FleetError> {
        if workers.is_empty() {
            return Err(FleetError::NoWorkers);
        }
        Ok(Coordinator { workers, cfg })
    }

    /// The configured workers.
    #[must_use]
    pub fn workers(&self) -> &[SocketAddr] {
        &self.workers
    }

    /// Runs a campaign over a balanced plan of `shard_count` shards.
    ///
    /// # Errors
    ///
    /// See [`FleetError`].
    pub fn run(&self, spec: &FleetSpec, shard_count: usize) -> Result<FleetReport, FleetError> {
        self.run_shards(spec, &plan_shards(spec.total, shard_count), &mut |_| {})
    }

    /// Runs a campaign over an explicit shard list, reporting progress
    /// through `observe`. Duplicate `(offset, len)` entries are deduped;
    /// distinct shards must be disjoint and inside `0..total`.
    ///
    /// # Errors
    ///
    /// See [`FleetError`].
    pub fn run_shards(
        &self,
        spec: &FleetSpec,
        shards: &[Shard],
        observe: &mut dyn FnMut(&FleetEvent),
    ) -> Result<FleetReport, FleetError> {
        self.run_campaign(spec, shards, None, observe)
    }

    /// Runs a campaign backed by a [`CampaignStore`]: planned shards
    /// already saved in the store are restored instead of dispatched, and
    /// every newly completed shard is persisted before it counts — so a
    /// `SIGKILL` at any instant loses at most the shards in flight, and a
    /// rerun over the same store recomputes only those. Determinism makes
    /// the resumed merge bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// See [`FleetError`]; additionally [`FleetError::Store`] when
    /// persisting a completed shard fails (durability is the point — a
    /// store that cannot be written must not be silently skipped).
    pub fn run_shards_resumable(
        &self,
        spec: &FleetSpec,
        shards: &[Shard],
        store: &CampaignStore,
        observe: &mut dyn FnMut(&FleetEvent),
    ) -> Result<FleetReport, FleetError> {
        self.run_campaign(spec, shards, Some(store), observe)
    }

    /// The dispatch → poll → retry loop shared by the plain and
    /// resumable entry points.
    fn run_campaign(
        &self,
        spec: &FleetSpec,
        shards: &[Shard],
        store: Option<&CampaignStore>,
        observe: &mut dyn FnMut(&FleetEvent),
    ) -> Result<FleetReport, FleetError> {
        let start = Instant::now();
        if spec.seed > MAX_EXACT_INT {
            return Err(FleetError::BadPlan(format!(
                "seed {} exceeds {MAX_EXACT_INT} (2^53 - 1), the largest integer \
                 a JSON number carries exactly",
                spec.seed
            )));
        }
        let distinct = validate_plan(shards, spec.total)?;
        let mut slots: Vec<Slot> = distinct
            .into_iter()
            .map(|shard| Slot {
                shard,
                state: SlotState::Pending { not_before: start },
                attempts: 0,
                last_error: String::new(),
                refused: None,
            })
            .collect();

        let mut payloads: Vec<ShardPayload> = Vec::with_capacity(slots.len());
        let mut restored = 0usize;
        if let Some(store) = store {
            for slot in &mut slots {
                match store.load(slot.shard) {
                    Ok(Some(payload)) => {
                        payloads.push(payload);
                        slot.state = SlotState::Done;
                        restored += 1;
                        observe(&FleetEvent::Restored { shard: slot.shard });
                    }
                    Ok(None) => {}
                    Err(reason) => observe(&FleetEvent::RestoreSkipped {
                        artifact: store.path(slot.shard).display().to_string(),
                        reason,
                    }),
                }
            }
        }

        let mut cursor = 0usize; // round-robin worker cursor
        let mut dispatches = 0usize;
        let mut reissues = 0usize;

        // Every slot is collected once, so the payloads count the done ones.
        while payloads.len() < slots.len() {
            let now = Instant::now();
            for slot in &mut slots {
                match slot.state {
                    SlotState::Done => {}
                    SlotState::Pending { not_before } => {
                        if now < not_before {
                            continue;
                        }
                        if slot.attempts >= self.cfg.max_attempts {
                            return Err(FleetError::Exhausted {
                                shard: slot.shard,
                                attempts: slot.attempts,
                                last_error: slot.last_error.clone(),
                            });
                        }
                        let worker = cursor % self.workers.len();
                        cursor += 1;
                        match self.dispatch(self.workers[worker], spec, slot.shard) {
                            Ok(run_id) => {
                                slot.attempts += 1;
                                slot.refused = None;
                                dispatches += 1;
                                if slot.attempts > 1 {
                                    reissues += 1;
                                }
                                observe(&FleetEvent::Dispatched {
                                    shard: slot.shard,
                                    worker: self.workers[worker],
                                    run_id,
                                    attempt: slot.attempts,
                                });
                                slot.state = SlotState::InFlight {
                                    worker,
                                    run_id,
                                    dispatched: now,
                                    next_poll: now + self.cfg.poll_initial,
                                    interval: self.cfg.poll_initial,
                                    poll_faults: 0,
                                };
                            }
                            Err(DispatchFault::Fatal(reason)) => {
                                return Err(FleetError::Fatal {
                                    shard: slot.shard,
                                    reason,
                                });
                            }
                            Err(DispatchFault::QueueFull(reason)) => {
                                let (since, refusals) = slot.refused.get_or_insert((now, 0));
                                *refusals += 1;
                                if now.duration_since(*since) > self.cfg.shard_deadline {
                                    return Err(FleetError::Exhausted {
                                        shard: slot.shard,
                                        attempts: slot.attempts,
                                        last_error: format!(
                                            "refused by full queues for over the {:?} \
                                             deadline: {reason}",
                                            self.cfg.shard_deadline
                                        ),
                                    });
                                }
                                let not_before = now + dispatch_backoff(&self.cfg, *refusals);
                                slot.state = SlotState::Pending { not_before };
                            }
                            Err(DispatchFault::Transient(reason)) => {
                                slot.attempts += 1;
                                observe(&FleetEvent::Retrying {
                                    shard: slot.shard,
                                    worker: Some(self.workers[worker]),
                                    attempt: slot.attempts,
                                    reason: reason.clone(),
                                });
                                slot.last_error = reason;
                                let not_before = now + dispatch_backoff(&self.cfg, slot.attempts);
                                slot.state = SlotState::Pending { not_before };
                            }
                        }
                    }
                    SlotState::InFlight { next_poll, .. } => {
                        if now < next_poll {
                            continue;
                        }
                        let verdict = self.poll(slot, None);
                        self.settle(slot, verdict, Some(now), store, &mut payloads, observe)?;
                    }
                }
            }

            // The idle pause, until the earliest instant a slot wants
            // attention, is spent in a held poll of the oldest in-flight
            // shard (ties go to the lower offset): a server that honours
            // `Prefer: wait` answers as soon as that shard finishes. When
            // the reply leaves the shard in flight (a transport fault, or a
            // server that ignores the preference and answers at once), the
            // rest of the pause is slept, so the loop polls no faster than
            // its schedule.
            let Some(wake) = slots.iter().filter_map(Slot::wake).min() else {
                break; // every slot is done
            };
            let until = wake.min(Instant::now() + MAX_PAUSE);
            let pause = until.saturating_duration_since(Instant::now());
            let oldest = slots
                .iter_mut()
                .filter_map(|slot| match slot.state {
                    SlotState::InFlight { dispatched, .. } => Some((dispatched, slot)),
                    _ => None,
                })
                .min_by_key(|(dispatched, _)| *dispatched);
            if let Some((_, slot)) = oldest.filter(|_| !pause.is_zero()) {
                let verdict = self.poll(slot, Some(pause.min(self.cfg.client.io_timeout / 2)));
                self.settle(slot, verdict, None, store, &mut payloads, observe)?;
                if !matches!(slot.state, SlotState::InFlight { .. }) {
                    continue;
                }
            }
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }

        let merged = merge_payloads(payloads)?;
        Ok(FleetReport {
            merged,
            dispatches,
            reissues,
            restored,
            wall: start.elapsed(),
        })
    }

    /// One dispatch attempt against `addr`: `POST /experiments`, expect a
    /// `202` with a run id. A `400` means the spec itself is wrong — no
    /// worker will ever accept it, so it is fatal; a `503 queue_full` is
    /// back-pressure; everything else (transport faults, other `5xx`) is
    /// a dead or failing worker and worth retrying elsewhere.
    fn dispatch(
        &self,
        addr: SocketAddr,
        spec: &FleetSpec,
        shard: Shard,
    ) -> Result<u64, DispatchFault> {
        let body = spec.post_body(shard);
        match self
            .cfg
            .client
            .exchange(addr, "POST", "/experiments", Some(&body))
        {
            Ok((202, reply)) => reply
                .get("run")
                .and_then(|r| r.get("id"))
                .and_then(Json::as_u64)
                .ok_or_else(|| DispatchFault::Transient("202 reply lacked a run id".to_string())),
            Ok((400, reply)) => Err(DispatchFault::Fatal(error_message(&reply))),
            Ok((503, reply)) if error_code(&reply) == Some("queue_full") => {
                Err(DispatchFault::QueueFull(error_message(&reply)))
            }
            Ok((status, reply)) => Err(DispatchFault::Transient(format!(
                "dispatch got status {status}: {}",
                error_message(&reply)
            ))),
            Err(e) => Err(DispatchFault::Transient(e.to_string())),
        }
    }

    /// One poll of an in-flight slot's run: `GET /runs/{run_id}` on its
    /// worker, held for up to `wait` when one is given.
    fn poll(&self, slot: &Slot, wait: Option<Duration>) -> PollVerdict {
        let SlotState::InFlight { worker, run_id, .. } = slot.state else {
            unreachable!("only in-flight slots are polled");
        };
        let (addr, path) = (self.workers[worker], format!("/runs/{run_id}"));
        let reply = match wait {
            None => self.cfg.client.exchange(addr, "GET", &path, None),
            Some(wait) => self.cfg.client.get_held(addr, &path, wait),
        };
        match reply {
            Ok((200, body)) => classify_run(&body, slot.shard),
            // The worker restarted and lost its run store: the run id is
            // gone, but the worker is healthy — re-issue.
            Ok((404, _)) => PollVerdict::Reissue(format!("worker lost run {run_id} (404)")),
            Ok((status, body)) => PollVerdict::Reissue(format!(
                "unexpected poll status {status}: {}",
                body.to_text()
            )),
            Err(
                e @ (ClientError::Connect(_)
                | ClientError::Timeout
                | ClientError::Truncated
                | ClientError::Io(_)),
            ) => PollVerdict::Unreachable(e.to_string()),
            Err(e) => PollVerdict::Reissue(e.to_string()),
        }
    }

    /// Applies one poll's verdict to an in-flight slot, for scheduled and
    /// held polls alike: `done` collects the payload, saved to the store
    /// first when one backs the campaign; a failed, lost or straggling run
    /// re-issues the shard, or aborts the campaign when the failure is
    /// fatal; a transport fault counts toward
    /// [`FleetConfig::max_poll_faults`]. `scheduled` is the instant a
    /// scheduled poll was due: only such a poll moves the slot's next poll
    /// and its backoff; a held poll (`None`) leaves the schedule as it was.
    fn settle(
        &self,
        slot: &mut Slot,
        verdict: PollVerdict,
        scheduled: Option<Instant>,
        store: Option<&CampaignStore>,
        payloads: &mut Vec<ShardPayload>,
        observe: &mut dyn FnMut(&FleetEvent),
    ) -> Result<(), FleetError> {
        let SlotState::InFlight {
            worker,
            run_id,
            dispatched,
            next_poll,
            interval,
            poll_faults,
        } = slot.state
        else {
            unreachable!("only in-flight slots are polled");
        };
        let now = scheduled.unwrap_or_else(Instant::now);
        let addr = self.workers[worker];
        let mut reissue = |slot: &mut Slot, reason: String| {
            observe(&FleetEvent::Retrying {
                shard: slot.shard,
                worker: Some(addr),
                attempt: slot.attempts,
                reason: reason.clone(),
            });
            slot.last_error = reason;
            slot.state = SlotState::Pending { not_before: now };
        };
        let in_flight = |next_poll, interval, poll_faults| SlotState::InFlight {
            worker,
            run_id,
            dispatched,
            next_poll,
            interval,
            poll_faults,
        };
        match verdict {
            PollVerdict::Done(payload) => {
                // Persist before counting the shard done: a crash after
                // this line can restore it, a crash before recomputes it —
                // never a completed-but-lost shard.
                if let Some(store) = store {
                    store.save(&payload).map_err(FleetError::Store)?;
                }
                payloads.push(*payload);
                slot.state = SlotState::Done;
                observe(&FleetEvent::Completed {
                    shard: slot.shard,
                    worker: addr,
                });
            }
            PollVerdict::NotYet if now.duration_since(dispatched) > self.cfg.shard_deadline => {
                reissue(
                    slot,
                    format!(
                        "straggler: no result within the {:?} deadline",
                        self.cfg.shard_deadline
                    ),
                );
            }
            PollVerdict::NotYet => {
                if scheduled.is_some() {
                    let interval = (interval * 2).min(self.cfg.poll_max);
                    slot.state = in_flight(now + interval, interval, 0);
                }
            }
            PollVerdict::Reissue(reason) => reissue(slot, reason),
            PollVerdict::Fatal(reason) => {
                return Err(FleetError::Fatal {
                    shard: slot.shard,
                    reason,
                });
            }
            PollVerdict::Unreachable(reason) => {
                let poll_faults = poll_faults + 1;
                if poll_faults >= self.cfg.max_poll_faults {
                    reissue(slot, format!("worker presumed dead: {reason}"));
                } else {
                    let next_poll = scheduled.map_or(next_poll, |now| now + interval);
                    slot.state = in_flight(next_poll, interval, poll_faults);
                }
            }
        }
        Ok(())
    }
}

/// The machine-readable code of a server error envelope, when it has one.
fn error_code(body: &Json) -> Option<&str> {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// Pulls the human-readable message out of a server error envelope,
/// falling back to the raw JSON when the envelope shape is unexpected.
fn error_message(body: &Json) -> String {
    body.get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .map_or_else(|| body.to_text(), str::to_string)
}

/// Capped exponential backoff between dispatch attempts of one shard.
fn dispatch_backoff(cfg: &FleetConfig, attempts: usize) -> Duration {
    let factor = 1u32 << attempts.min(6) as u32;
    (cfg.poll_initial * factor).min(cfg.poll_max)
}

/// Validates and dedupes a shard plan: non-empty, every shard non-empty
/// and inside `0..total`, distinct shards disjoint. Returns the sorted
/// distinct shards.
fn validate_plan(shards: &[Shard], total: usize) -> Result<Vec<Shard>, FleetError> {
    if shards.is_empty() {
        return Err(FleetError::BadPlan("no shards".to_string()));
    }
    let distinct: BTreeSet<Shard> = shards.iter().copied().collect();
    let sorted: Vec<Shard> = distinct.into_iter().collect();
    for shard in &sorted {
        if shard.len == 0 {
            return Err(FleetError::BadPlan(format!("zero-length shard {shard}")));
        }
        if shard.end() > total {
            return Err(FleetError::BadPlan(format!(
                "shard {shard} escapes the campaign's 0..{total} index space"
            )));
        }
    }
    for pair in sorted.windows(2) {
        if pair[1].offset < pair[0].end() {
            return Err(FleetError::BadPlan(format!(
                "shards {} and {} overlap",
                pair[0], pair[1]
            )));
        }
    }
    Ok(sorted)
}

/// Classifies a `200` run envelope into a poll verdict.
fn classify_run(body: &Json, shard: Shard) -> PollVerdict {
    let Some(run) = body.get("run") else {
        return PollVerdict::Reissue("poll response lacks a run envelope".to_string());
    };
    match run.get("status").and_then(Json::as_str) {
        Some("done") => match payload_from_run(run, shard) {
            Ok(payload) => PollVerdict::Done(Box::new(payload)),
            // A garbage payload from this worker may be fine elsewhere.
            Err(why) => PollVerdict::Reissue(format!("garbage payload: {why}")),
        },
        Some("failed") => {
            let error = run.get("error");
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("run failed without a reason")
                .to_string();
            // Missing retryable information is treated as retryable: only
            // an explicit fatal verdict should abort a whole campaign.
            let retryable = error
                .and_then(|e| e.get("retryable"))
                .and_then(Json::as_bool)
                .unwrap_or(true);
            if retryable {
                PollVerdict::Reissue(format!("run failed (retryable): {message}"))
            } else {
                PollVerdict::Fatal(message)
            }
        }
        Some("queued" | "running") => PollVerdict::NotYet,
        other => PollVerdict::Reissue(format!("unknown run status {other:?}")),
    }
}

/// Extracts a [`ShardPayload`] from a `done` run envelope.
fn payload_from_run(run: &Json, shard: Shard) -> Result<ShardPayload, String> {
    let result = run.get("result").ok_or("done run lacks a result")?;
    let observed = result
        .get("observed")
        .and_then(Json::as_u64)
        .ok_or("result lacks `observed`")?;
    let failures = result
        .get("failures")
        .and_then(Json::as_u64)
        .ok_or("result lacks `failures`")?;
    let sketches = result.get("sketches").ok_or("result lacks sketches")?;
    if sketches.get("encoding").and_then(Json::as_str) != Some("hex") {
        return Err("unknown sketch encoding".to_string());
    }
    let decode = |name: &str| -> Result<Option<Vec<u8>>, String> {
        match sketches.get(name).and_then(Json::as_str) {
            None => Ok(None),
            Some(hex) => hex_decode(hex)
                .map(Some)
                .map_err(|e| format!("{name}: {e}")),
        }
    };
    let welford = decode("welford")?.ok_or("result lacks the welford sketch")?;
    Ok(ShardPayload {
        shard,
        observed,
        failures,
        welford,
        histogram: decode("histogram")?,
        tdigest: decode("tdigest")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            circuit: "device_idsat".to_string(),
            analysis: None,
            seed: 7,
            total: 100,
            histogram: Some((0.0, 2e-3, 64)),
            tdigest_compression: None,
        }
    }

    #[test]
    fn post_body_carries_shard_and_total() {
        let body = spec().post_body(Shard {
            offset: 40,
            len: 10,
        });
        let json = Json::parse(&body).unwrap();
        assert_eq!(
            json.get("circuit").and_then(Json::as_str),
            Some("device_idsat")
        );
        assert_eq!(json.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("total").and_then(Json::as_u64), Some(100));
        let shard = json.get("shard").unwrap();
        assert_eq!(shard.get("offset").and_then(Json::as_u64), Some(40));
        assert_eq!(shard.get("len").and_then(Json::as_u64), Some(10));
        assert_eq!(
            json.get("histogram")
                .and_then(|h| h.get("bins"))
                .and_then(Json::as_u64),
            Some(64)
        );
        assert!(json.get("tdigest").is_none());
        assert!(json.get("analysis").is_none());
    }

    #[test]
    fn plans_are_validated_and_deduped() {
        let a = Shard { offset: 0, len: 50 };
        let b = Shard {
            offset: 50,
            len: 50,
        };
        // Duplicates collapse; order does not matter.
        let sorted = validate_plan(&[b, a, b], 100).unwrap();
        assert_eq!(sorted, vec![a, b]);

        assert!(matches!(
            validate_plan(&[], 100),
            Err(FleetError::BadPlan(_))
        ));
        assert!(matches!(
            validate_plan(&[Shard { offset: 0, len: 0 }], 100),
            Err(FleetError::BadPlan(_))
        ));
        assert!(matches!(
            validate_plan(
                &[Shard {
                    offset: 90,
                    len: 20
                }],
                100
            ),
            Err(FleetError::BadPlan(_))
        ));
        assert!(matches!(
            validate_plan(
                &[
                    Shard { offset: 0, len: 60 },
                    Shard {
                        offset: 50,
                        len: 50
                    }
                ],
                110
            ),
            Err(FleetError::BadPlan(_))
        ));
    }

    #[test]
    fn seeds_from_two_to_the_53_are_refused_before_any_dispatch() {
        let cfg = FleetConfig {
            max_attempts: 1,
            ..FleetConfig::default()
        };
        let coordinator = Coordinator::new(vec!["127.0.0.1:9".parse().unwrap()], cfg).unwrap();
        for seed in [MAX_EXACT_INT + 1, MAX_EXACT_INT + 2, u64::MAX] {
            let mut events = 0;
            let outcome = coordinator.run_shards(
                &FleetSpec { seed, ..spec() },
                &[Shard {
                    offset: 0,
                    len: 100,
                }],
                &mut |_| events += 1,
            );
            assert!(
                matches!(outcome, Err(FleetError::BadPlan(_))),
                "seed {seed}: {outcome:?}"
            );
            assert_eq!(events, 0, "seed {seed} reached a worker");
        }
    }

    #[test]
    fn run_classification_covers_the_lifecycle() {
        let shard = Shard { offset: 0, len: 5 };
        let parse = |text: &str| Json::parse(text).unwrap();

        let queued = parse(r#"{"run": {"status": "queued"}}"#);
        assert!(matches!(classify_run(&queued, shard), PollVerdict::NotYet));
        let running = parse(r#"{"run": {"status": "running"}}"#);
        assert!(matches!(classify_run(&running, shard), PollVerdict::NotYet));

        let retryable = parse(
            r#"{"run": {"status": "failed",
                 "error": {"message": "queue hiccup", "retryable": true}}}"#,
        );
        assert!(matches!(
            classify_run(&retryable, shard),
            PollVerdict::Reissue(_)
        ));

        let fatal = parse(
            r#"{"run": {"status": "failed",
                 "error": {"message": "unknown circuit", "retryable": false}}}"#,
        );
        assert!(matches!(classify_run(&fatal, shard), PollVerdict::Fatal(_)));

        // Missing retryable info defaults to retryable: only an explicit
        // fatal verdict may abort a campaign.
        let bare = parse(r#"{"run": {"status": "failed"}}"#);
        assert!(matches!(
            classify_run(&bare, shard),
            PollVerdict::Reissue(_)
        ));

        let garbage = parse(r#"{"run": {"status": "done", "result": {"observed": "x"}}}"#);
        assert!(matches!(
            classify_run(&garbage, shard),
            PollVerdict::Reissue(_)
        ));
        let alien = parse(r#"{"weather": "fine"}"#);
        assert!(matches!(
            classify_run(&alien, shard),
            PollVerdict::Reissue(_)
        ));
    }

    #[test]
    fn done_envelopes_decode_into_payloads() {
        let shard = Shard { offset: 10, len: 4 };
        let run = Json::parse(
            r#"{"status": "done", "result": {
                 "observed": 3, "failures": 1,
                 "sketches": {"encoding": "hex", "welford": "00ff"}}}"#,
        )
        .unwrap();
        let payload = payload_from_run(&run, shard).unwrap();
        assert_eq!(payload.observed, 3);
        assert_eq!(payload.failures, 1);
        assert_eq!(payload.welford, vec![0x00, 0xff]);
        assert!(payload.histogram.is_none());

        let bad_encoding = Json::parse(
            r#"{"status": "done", "result": {
                 "observed": 3, "failures": 1,
                 "sketches": {"encoding": "base64", "welford": "AA=="}}}"#,
        )
        .unwrap();
        assert!(payload_from_run(&bad_encoding, shard).is_err());

        let bad_hex = Json::parse(
            r#"{"status": "done", "result": {
                 "observed": 3, "failures": 1,
                 "sketches": {"encoding": "hex", "welford": "zz"}}}"#,
        )
        .unwrap();
        assert!(payload_from_run(&bad_hex, shard).is_err());
    }

    #[test]
    fn empty_worker_lists_are_rejected() {
        assert!(matches!(
            Coordinator::new(Vec::new(), FleetConfig::default()),
            Err(FleetError::NoWorkers)
        ));
    }

    #[test]
    fn dispatch_backoff_is_capped() {
        let cfg = FleetConfig::default();
        assert_eq!(dispatch_backoff(&cfg, 1), Duration::from_millis(50));
        assert_eq!(dispatch_backoff(&cfg, 2), Duration::from_millis(100));
        assert_eq!(dispatch_backoff(&cfg, 100), cfg.poll_max);
    }
}
