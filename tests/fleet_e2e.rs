//! Fleet fault-injection end-to-end suite — the headline guarantee of the
//! coordinator: a campaign whose workers are **killed mid-shard** and
//! whose shards are re-issued produces a merged sketch state
//! *byte-identical* to an unpartitioned single-process run.
//!
//! These tests spawn real `statvs serve` child processes (via
//! `CARGO_BIN_EXE_statvs`) on ephemeral loopback ports, drive them with
//! the real coordinator, and inject the fault with `SIGKILL` — the same
//! thing a dying fleet machine looks like from the coordinator's side.
//! Determinism makes the assertion possible at all: every sample is a
//! pure function of `(seed, index)`, so the retried shard reproduces the
//! dead worker's lost work bit for bit, and the merged histogram can be
//! compared byte-for-byte against a no-fault reference.

use fleet::coordinator::{Coordinator, FleetConfig, FleetEvent, FleetSpec};
use fleet::{CampaignStore, HttpClient, LocalWorker};
use serve::pool::Engine;
use serve::store::ExperimentSpec;
use stats::sink::{MergeableSink, WelfordSink};
use stats::Welford;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vscore::mc::plan_shards;

/// The compiled `statvs` binary under test.
fn binary() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_statvs"))
}

/// Coordinator tuned for fast fault detection on loopback.
fn config() -> FleetConfig {
    FleetConfig {
        max_attempts: 6,
        shard_deadline: Duration::from_secs(120),
        poll_initial: Duration::from_millis(25),
        poll_max: Duration::from_millis(200),
        max_poll_faults: 2,
        client: HttpClient {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
        },
    }
}

/// The in-process no-fault reference for a campaign spec: one
/// `run_streaming_range` over the whole index range, no HTTP, no shards.
fn reference(spec: &FleetSpec) -> (Vec<u8>, Welford) {
    let engine = Engine::new().expect("reference engine builds");
    let template = engine.template(&spec.circuit).expect("template exists");
    let result = engine
        .execute(&ExperimentSpec {
            circuit: spec.circuit.clone(),
            analysis: spec
                .analysis
                .clone()
                .unwrap_or_else(|| template.analyses[0].to_string()),
            seed: spec.seed,
            offset: 0,
            len: spec.total,
            total: Some(spec.total),
            want_welford: true,
            want_histogram: true,
            want_tdigest: true,
            histogram: spec.histogram.unwrap_or(template.default_histogram),
            tdigest_compression: spec.tdigest_compression.unwrap_or(100.0),
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        })
        .expect("reference run succeeds");
    let moments = WelfordSink::from_bytes(result.welford_bytes.as_ref().unwrap())
        .unwrap()
        .moments();
    (result.histogram_bytes.unwrap(), moments)
}

/// Asserts the pinned exactness contract: histogram bytes identical,
/// Welford count/min/max exact, moments within 1e-12.
fn assert_matches_reference(merged: &fleet::MergedResult, spec: &FleetSpec, label: &str) {
    let (ref_histogram, ref_moments) = reference(spec);
    assert_eq!(
        MergeableSink::to_bytes(merged.histogram.as_ref().unwrap()),
        ref_histogram,
        "{label}: merged histogram bytes diverged from the single-process run"
    );
    assert_eq!(
        merged.observed + merged.failures,
        spec.total as u64,
        "{label}"
    );
    assert_eq!(merged.moments.count(), ref_moments.count(), "{label}");
    assert_eq!(merged.moments.min(), ref_moments.min(), "{label}");
    assert_eq!(merged.moments.max(), ref_moments.max(), "{label}");
    assert!(
        (merged.moments.mean() - ref_moments.mean()).abs() <= 1e-12,
        "{label}: mean {} vs {}",
        merged.moments.mean(),
        ref_moments.mean()
    );
    assert!(
        (merged.moments.variance() - ref_moments.variance()).abs() <= 1e-12,
        "{label}: variance {} vs {}",
        merged.moments.variance(),
        ref_moments.variance()
    );
}

/// A length of seed `seed`'s `sram6t_dc` shards that keeps one worker
/// thread of this build busy for about `target`. The per-sample time is
/// the difference between in-process runs of 272 and 16 samples (each the
/// fastest of three), which cancels the per-shard set-up.
fn sram_shard_len_lasting(seed: u64, target: Duration) -> usize {
    let engine = Engine::new().expect("probe engine");
    let time = |len: usize| {
        let shard = ExperimentSpec {
            circuit: "sram6t_dc".to_string(),
            analysis: "dc".to_string(),
            seed,
            offset: 0,
            len,
            total: None,
            want_welford: true,
            want_histogram: false,
            want_tdigest: false,
            histogram: (0.0, 0.9, 48),
            tdigest_compression: 100.0,
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        };
        (0..3)
            .map(|_| {
                let started = Instant::now();
                engine.execute(&shard).expect("probe shard runs");
                started.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let per_sample = time(272).saturating_sub(time(16)).as_secs_f64() / 256.0;
    ((target.as_secs_f64() / per_sample.max(1e-6)) as usize).clamp(16, 1_000_000)
}

/// THE headline test: two real workers, one killed mid-shard, its shards
/// re-issued — and the merged state is byte-identical to the no-fault,
/// single-process reference anyway.
#[test]
fn killed_worker_is_reissued_and_the_merge_is_byte_identical() {
    // Shards that each keep a worker thread busy for about half a second
    // in this build, debug or release: the kill lands 100 ms after the
    // victim's first dispatch, well inside its first shard.
    let spec = FleetSpec {
        circuit: "sram6t_dc".to_string(),
        analysis: Some("dc".to_string()),
        seed: 7,
        total: 6 * sram_shard_len_lasting(7, Duration::from_millis(500)),
        histogram: Some((0.0, 0.9, 48)),
        tdigest_compression: None,
    };
    let plan = plan_shards(spec.total, 6);

    let mut victim = LocalWorker::spawn(binary(), 2).expect("victim worker boots");
    let survivor = LocalWorker::spawn(binary(), 2).expect("survivor worker boots");
    let victim_addr = victim.addr();
    let coordinator =
        Coordinator::new(vec![victim_addr, survivor.addr()], config()).expect("two workers");

    let (events_tx, events_rx) = mpsc::channel::<FleetEvent>();
    let campaign = {
        let spec = spec.clone();
        let plan = plan.clone();
        std::thread::spawn(move || {
            coordinator.run_shards(&spec, &plan, &mut |event| {
                let _ = events_tx.send(event.clone());
            })
        })
    };

    // Wait until the victim has a shard in flight, give it a moment to be
    // genuinely mid-shard, then kill the process.
    let mut events = Vec::new();
    loop {
        let event = events_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("campaign makes progress");
        let hit = matches!(
            &event,
            FleetEvent::Dispatched { worker, .. } if *worker == victim_addr
        );
        events.push(event);
        if hit {
            break;
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    victim.kill();
    assert!(!victim.is_alive(), "SIGKILL is not negotiable");

    // Drain the remaining events while the campaign finishes.
    events.extend(events_rx.iter());
    let report = campaign
        .join()
        .expect("coordinator thread does not panic")
        .expect("campaign survives the kill");

    // The fault actually happened and was actually handled.
    assert!(
        report.reissues >= 1,
        "killing a worker mid-shard must force at least one re-issue"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FleetEvent::Retrying { .. })),
        "a retry event must be observed"
    );
    // Every distinct shard completed exactly once in the merge.
    assert_eq!(report.merged.shards, plan.len());

    assert_matches_reference(&report.merged, &spec, "kill/retry campaign");
}

/// Completed shards currently saved in a campaign directory: its `.svaf`
/// shard artifacts (a shard still being written is a `.svaf.tmp` file).
fn shard_artifacts(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "svaf"))
        .count()
}

/// Resume equivalence, end to end: a real `statvs fleet` coordinator
/// *process* is `SIGKILL`ed mid-campaign after saving at least one
/// completed shard, then the campaign resumes from its artifact directory.
/// Restored shards must not be re-dispatched, and the merged result must
/// be byte-identical to the no-fault single-process reference — a
/// crash costs wall-clock, never correctness.
#[test]
fn sigkilled_campaign_resumes_without_redispatch_and_merges_identically() {
    let spec = FleetSpec {
        circuit: "sram6t_dc".to_string(),
        analysis: Some("dc".to_string()),
        seed: 13,
        total: 6000,
        histogram: Some((0.0, 0.9, 48)),
        tdigest_compression: None,
    };
    // Many small shards: the coordinator saves each shard as soon as a
    // poll collects it, so the directory fills one completion at a time
    // and the kill lands while most shards are still queued or running.
    // With few shards all of them finish, and are saved, within moments
    // of each other, and the kill window closes.
    const SHARDS: usize = 24;
    let plan = plan_shards(spec.total, SHARDS);

    // The workers are owned by the *test*, not by the doomed coordinator
    // child — killing the coordinator must not take the fleet down.
    let worker_a = LocalWorker::spawn(binary(), 2).expect("worker a boots");
    let worker_b = LocalWorker::spawn(binary(), 2).expect("worker b boots");

    let dir: PathBuf =
        std::env::temp_dir().join(format!("statvs_resume_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: the real CLI, saving shards into --artifact-dir.
    let mut child = std::process::Command::new(binary())
        .args([
            "fleet",
            "--circuit",
            "sram6t_dc",
            "--analysis",
            "dc",
            "--samples",
            "6000",
            "--shards",
            "24",
            "--seed",
            "13",
            "--histogram",
            "0.0:0.9:48",
            "--worker",
            &worker_a.addr().to_string(),
            "--worker",
            &worker_b.addr().to_string(),
            "--artifact-dir",
        ])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fleet coordinator child spawns");

    // Wait for at least one completed shard to reach the directory, then
    // SIGKILL the coordinator — mid-campaign, with shards in flight.
    let deadline = Instant::now() + Duration::from_secs(120);
    while shard_artifacts(&dir) == 0 {
        if let Some(status) = child.try_wait().expect("child pollable") {
            panic!("coordinator finished ({status}) before it could be killed");
        }
        assert!(
            Instant::now() < deadline,
            "no shard was journaled within the deadline"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL the coordinator");
    let _ = child.wait();
    let journaled = shard_artifacts(&dir);
    assert!(journaled >= 1, "the kill window saw a journaled shard");
    assert!(
        journaled < SHARDS,
        "the campaign must die unfinished for resume to mean anything"
    );

    // Second life: resume from the directory. Completed shards come back
    // from disk; only the remainder is dispatched.
    let store = CampaignStore::open(&dir, &spec).expect("store reopens");
    let coordinator =
        Coordinator::new(vec![worker_a.addr(), worker_b.addr()], config()).expect("two workers");
    let mut events: Vec<FleetEvent> = Vec::new();
    let report = coordinator
        .run_shards_resumable(&spec, &plan, &store, &mut |event| {
            events.push(event.clone());
        })
        .expect("resumed campaign succeeds");

    // Every journaled shard was restored, none of them re-dispatched.
    assert_eq!(report.restored, journaled, "all journaled shards restore");
    let restored: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Restored { shard } => Some(*shard),
            _ => None,
        })
        .collect();
    assert_eq!(restored.len(), journaled);
    for shard in &restored {
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, FleetEvent::Dispatched { shard: s, .. } if s == shard)),
            "restored shard {shard} was re-dispatched"
        );
    }
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, FleetEvent::RestoreSkipped { .. })),
        "atomically written artifacts must restore cleanly"
    );
    assert_eq!(report.merged.shards, plan.len());

    // The headline: crash + resume lands on the exact single-process
    // bytes, indistinguishable from a campaign that never died.
    assert_matches_reference(&report.merged, &spec, "killed+resumed campaign");

    let _ = std::fs::remove_dir_all(&dir);
}

/// No-fault determinism: different worker counts and different partitions
/// of the same campaign give byte-identical merged histograms and
/// rounding-identical moments.
#[test]
fn worker_count_and_partition_do_not_change_the_answer() {
    let spec = FleetSpec {
        circuit: "device_idsat".to_string(),
        analysis: None,
        seed: 99,
        total: 400,
        histogram: None,
        tdigest_compression: None,
    };

    let a = LocalWorker::spawn(binary(), 2).expect("worker a boots");
    let b = LocalWorker::spawn(binary(), 2).expect("worker b boots");

    // Campaign one: a single worker, 3 shards.
    let solo = Coordinator::new(vec![a.addr()], config()).unwrap();
    let solo_report = solo
        .run_shards(&spec, &plan_shards(spec.total, 3), &mut |_| {})
        .expect("solo campaign succeeds");

    // Campaign two: both workers, 5 shards — a different partition of the
    // same index space.
    let duo = Coordinator::new(vec![a.addr(), b.addr()], config()).unwrap();
    let duo_report = duo
        .run_shards(&spec, &plan_shards(spec.total, 5), &mut |_| {})
        .expect("duo campaign succeeds");

    assert_matches_reference(&solo_report.merged, &spec, "1 worker / 3 shards");
    assert_matches_reference(&duo_report.merged, &spec, "2 workers / 5 shards");
    assert_eq!(
        MergeableSink::to_bytes(solo_report.merged.histogram.as_ref().unwrap()),
        MergeableSink::to_bytes(duo_report.merged.histogram.as_ref().unwrap()),
        "the two campaigns disagreed with each other"
    );
}
