//! Serve-side persistence end to end: the replay cache must survive a
//! full process restart.
//!
//! Boots a server with an artifact directory, completes a run over HTTP,
//! and records its result. Then the server is shut down and a **new**
//! server is booted over the same artifact directory — the restart
//! scenario. Re-posting the identical experiment must come back `done`
//! at submission time with `cached: true`, and `GET /runs/{id}` must
//! replay every sketch payload bit-identically to the first process's
//! answer. A spec differing in any field must miss the cache and
//! recompute.
//!
//! The replay is sound because a run result is a pure function of its
//! spec (every Monte Carlo sample is derived from `(seed, index)`) for one
//! engine, and it is safe because the cache verifies the artifact seal,
//! the whole-file checksum, and the embedded canonical key — which names
//! the engine — before serving.

use serve::cache::KEY_TAG;
use serve::http::HttpClient;
use serve::json::Json;
use serve::{Server, ServerConfig, ENGINE_FINGERPRINT};
use stats::artifact::{seal, Artifact};
use stats::codec::{self, Reader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One HTTP exchange through the protocol's client: returns the status
/// code and parsed JSON body.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    HttpClient::default()
        .exchange(addr, method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Polls `GET /runs/{id}` until the run leaves the queue.
fn await_run(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, reply) = http(addr, "GET", &format!("/runs/{id}"), None);
        assert_eq!(status, 200, "{}", reply.to_text());
        let run = reply.get("run").expect("run envelope").clone();
        match run.get("status").and_then(Json::as_str) {
            Some("done") => return run,
            Some("failed") => panic!("run {id} failed: {}", run.to_text()),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "run {id} did not finish in time: {}",
                    run.to_text()
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

fn shard_body(seed: u64, offset: usize, len: usize) -> String {
    format!(
        r#"{{"circuit": "sram6t_dc", "analysis": "dc", "seed": {seed},
            "shard": {{"offset": {offset}, "len": {len}}},
            "histogram": {{"lo": 0.0, "hi": 0.9, "bins": 48}}}}"#
    )
}

fn post_shard(addr: SocketAddr, seed: u64, offset: usize, len: usize) -> (u64, Json) {
    let (status, reply) = http(
        addr,
        "POST",
        "/experiments",
        Some(&shard_body(seed, offset, len)),
    );
    assert_eq!(status, 202, "{}", reply.to_text());
    let run = reply.get("run").expect("run envelope").clone();
    let id = run
        .get("id")
        .and_then(Json::as_u64)
        .expect("run id in envelope");
    (id, run)
}

/// The comparable core of a finished run: everything except the `cached`
/// marker, which is *expected* to flip between compute and replay.
fn result_fingerprint(run: &Json) -> (String, String, String, String) {
    let result = run.get("result").expect("finished run has a result");
    let sketches = result.get("sketches").expect("sketches").to_text();
    let moments = result.get("moments").expect("moments").to_text();
    let observed = result.get("observed").expect("observed").to_text();
    let failures = result.get("failures").expect("failures").to_text();
    (sketches, moments, observed, failures)
}

fn cached_flag(run: &Json) -> Option<bool> {
    run.get("result")
        .and_then(|r| r.get("cached"))
        .and_then(|c| match c {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statvs_persist_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replay_cache_survives_a_server_restart() {
    const SEED: u64 = 11;
    const LEN: usize = 60;
    let dir = temp_dir("restart");
    let cfg = ServerConfig {
        artifact_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First life: compute the run for real and remember its answer.
    let server = Server::bind(&cfg).expect("first server boots").start();
    let addr = server.addr();
    let (id, _) = post_shard(addr, SEED, 0, LEN);
    let first = await_run(addr, id);
    assert_eq!(
        cached_flag(&first),
        Some(false),
        "a cold run is computed, not replayed: {}",
        first.to_text()
    );
    let fingerprint = result_fingerprint(&first);
    server.shutdown();

    // The spill actually reached the artifact directory as a sealed
    // container — this is what the next process will replay from.
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".svaf"))
        .collect();
    assert_eq!(spilled.len(), 1, "one completed run, one artifact");
    let entry_bytes = std::fs::read(spilled[0].path()).expect("artifact readable");
    stats::artifact::Artifact::from_bytes(&entry_bytes).expect("spilled entry is sealed");

    // Second life: a brand-new process image over the same directory.
    let server = Server::bind(&cfg).expect("second server boots").start();
    let addr = server.addr();
    let (replay_id, envelope) = post_shard(addr, SEED, 0, LEN);
    assert_eq!(
        envelope.get("status").and_then(Json::as_str),
        Some("done"),
        "a cache hit is done at submission time: {}",
        envelope.to_text()
    );
    assert_eq!(
        envelope.get("cached"),
        Some(&Json::Bool(true)),
        "the submission envelope announces the replay: {}",
        envelope.to_text()
    );
    let replayed = await_run(addr, replay_id);
    assert_eq!(
        cached_flag(&replayed),
        Some(true),
        "the run record carries cached: true: {}",
        replayed.to_text()
    );
    assert_eq!(
        result_fingerprint(&replayed),
        fingerprint,
        "replayed result must be bit-identical to the computed one"
    );

    // Any spec difference is a miss: a different seed goes through the
    // queue and computes fresh.
    let (other_id, other_envelope) = post_shard(addr, SEED + 1, 0, LEN);
    assert_eq!(
        other_envelope.get("cached"),
        None,
        "a different spec must not hit the cache: {}",
        other_envelope.to_text()
    );
    let other = await_run(addr, other_id);
    assert_eq!(cached_flag(&other), Some(false));
    assert_ne!(
        result_fingerprint(&other).0,
        fingerprint.0,
        "different seeds produce different sketches"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entries_from_another_engine_recompute() {
    const SEED: u64 = 29;
    const LEN: usize = 40;
    let dir = temp_dir("engine");
    let cfg = ServerConfig {
        artifact_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let server = Server::bind(&cfg).expect("server boots").start();
    let addr = server.addr();
    let (id, _) = post_shard(addr, SEED, 0, LEN);
    let first = await_run(addr, id);
    let fingerprint = result_fingerprint(&first);
    server.shutdown();

    // Re-label the spilled entry as another engine's result for the same
    // spec: identical sketch bytes, a key naming an older engine, resealed
    // so seal and checksum are valid, and left under this engine's file
    // name — the worst case a stale entry could present.
    let entry = std::fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".svaf"))
        .expect("one spilled entry");
    let artifact =
        Artifact::from_bytes(&std::fs::read(entry.path()).expect("readable")).expect("sealed");
    let mut key = Reader::with_header(&artifact.sections[0], KEY_TAG).expect("key section");
    let key = String::from_utf8(key.take_bytes().expect("key bytes")).expect("utf-8 key");
    assert!(
        key.contains(ENGINE_FINGERPRINT),
        "the cache key names the engine: {key}"
    );
    let mut stale = Vec::new();
    codec::put_header(&mut stale, KEY_TAG);
    codec::put_bytes(
        &mut stale,
        key.replace(ENGINE_FINGERPRINT, "an-older-engine")
            .as_bytes(),
    );
    let mut sections = artifact.sections.clone();
    sections[0] = stale;
    std::fs::write(entry.path(), seal(&sections)).expect("writable");

    let server = Server::bind(&cfg).expect("server reboots").start();
    let addr = server.addr();
    let (id, envelope) = post_shard(addr, SEED, 0, LEN);
    assert_eq!(
        envelope.get("cached"),
        None,
        "another engine's entry must not be replayed: {}",
        envelope.to_text()
    );
    let recomputed = await_run(addr, id);
    assert_eq!(cached_flag(&recomputed), Some(false));
    assert_eq!(result_fingerprint(&recomputed), fingerprint);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_recompute_instead_of_serving_garbage() {
    const SEED: u64 = 23;
    const LEN: usize = 40;
    let dir = temp_dir("corrupt");
    let cfg = ServerConfig {
        artifact_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let server = Server::bind(&cfg).expect("server boots").start();
    let addr = server.addr();
    let (id, _) = post_shard(addr, SEED, 0, LEN);
    let first = await_run(addr, id);
    let fingerprint = result_fingerprint(&first);
    server.shutdown();

    // Flip one byte in the middle of the spilled artifact.
    let entry = std::fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".svaf"))
        .expect("one spilled entry");
    let mut bytes = std::fs::read(entry.path()).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(entry.path(), &bytes).expect("writable");

    // The rebooted server must treat the damaged entry as a miss,
    // recompute, and still land on the same (pure-function) answer.
    let server = Server::bind(&cfg).expect("server reboots").start();
    let addr = server.addr();
    let (id, envelope) = post_shard(addr, SEED, 0, LEN);
    assert_eq!(
        envelope.get("cached"),
        None,
        "a corrupt entry must not be replayed: {}",
        envelope.to_text()
    );
    let recomputed = await_run(addr, id);
    assert_eq!(cached_flag(&recomputed), Some(false));
    assert_eq!(
        result_fingerprint(&recomputed),
        fingerprint,
        "recomputation reproduces the original answer"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
