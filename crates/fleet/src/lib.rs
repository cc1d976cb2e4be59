//! Fault-tolerant fleet coordination for `statvs serve` workers.
//!
//! This crate is the client half of the serve protocol: it takes one
//! experiment (circuit, seed, total sample count), splits its sample
//! index space into disjoint `(offset, len)` shards, dispatches them to
//! one or more workers over HTTP, polls with capped exponential backoff
//! (spending each idle pause in a held poll that a worker answers as soon
//! as the shard finishes), re-issues shards whose workers die, stall, or
//! fail retryably, and merges the returned sketch bytes into a single
//! campaign result.
//!
//! Everything rests on the determinism contract from `vscore::mc`: each
//! Monte Carlo sample is a pure function of `(seed, index)`, so the union
//! of disjoint shard streams *is* the single-process stream, and a
//! re-issued shard reproduces its first attempt byte for byte. That turns
//! fault tolerance into bookkeeping — the merged histogram after any
//! number of kills and retries is byte-identical to an unpartitioned run
//! (`tests/fleet_e2e.rs` in the root package pins exactly that).
//!
//! Modules:
//!
//! - [`worker`] — spawn/kill local `statvs serve` child processes; the
//!   fault-injection primitive for the e2e suite.
//! - [`coordinator`] — the dispatch → poll → retry state machine.
//! - [`merge`] — order-independent, duplicate-tolerant payload merging.
//! - [`persist`] — the durable campaign store behind
//!   [`Coordinator::run_shards_resumable`]: each completed shard is a
//!   sealed artifact keyed by its campaign, engine and `(offset, len)`,
//!   through the same `serve::cache` layer as serve's replay cache. A
//!   killed campaign rerun over the same directory recomputes only the
//!   shards that were in flight, and the resumed merge is bit-identical
//!   to an uninterrupted run.
//!
//! The wire is `serve::http`, the HTTP/1.1 layer both ends share; its
//! [`HttpClient`] and [`ClientError`] are re-exported here.

pub mod coordinator;
pub mod merge;
pub mod persist;
pub mod worker;

pub use coordinator::{Coordinator, FleetConfig, FleetError, FleetEvent, FleetReport, FleetSpec};
pub use merge::{merge_payloads, MergeError, MergedResult, ShardPayload};
pub use persist::CampaignStore;
pub use serve::http::{ClientError, HttpClient};
pub use worker::LocalWorker;
