//! Hostile-input tests for the fleet HTTP client and the coordinator's
//! retry bounds: every way a worker can misbehave on the wire — refuse
//! the connection, stall forever, close mid-response, return garbage
//! framing or non-JSON — must surface as a typed [`ClientError`], and a
//! campaign against such workers must fail *cleanly and boundedly*
//! (attempts capped, a structured [`FleetError`], never a hang or panic).
//!
//! Two kinds of worker that are not broken must not fail a campaign
//! either: one that ignores the coordinator's `Prefer: wait` and answers
//! every poll at once (the campaign completes on the poll schedule,
//! without the coordinator spinning), and one whose job queue is full
//! (`503 queue_full` is back-pressure: it uses no dispatch attempt, and
//! only a refusal lasting past the shard deadline fails the campaign).

use fleet::coordinator::{Coordinator, FleetConfig, FleetError, FleetSpec};
use fleet::{ClientError, HttpClient};
use serve::json::Json;
use serve::store::hex_encode;
use serve::{Server, ServerConfig};
use stats::sink::{MergeableSink, Sink, WelfordSink};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vscore::mc::plan_shards;

/// A scripted one-shot "worker": accepts connections and answers each
/// with `response` verbatim (after an optional stall), forever, until the
/// listener is dropped. Returns the bound address and a join guard.
fn scripted_worker(response: &'static [u8], stall: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted worker");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                // Drain the request so the client's write never blocks.
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                if !stall.is_zero() {
                    std::thread::sleep(stall);
                }
                let _ = stream.write_all(response);
            });
        }
    });
    addr
}

fn client() -> HttpClient {
    HttpClient {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_millis(300),
    }
}

fn spec() -> FleetSpec {
    FleetSpec {
        circuit: "device_idsat".to_string(),
        analysis: None,
        seed: 1,
        total: 10,
        histogram: None,
        tdigest_compression: None,
    }
}

/// A fast-failing coordinator config for bounded-retry tests.
fn config(max_attempts: usize) -> FleetConfig {
    FleetConfig {
        max_attempts,
        shard_deadline: Duration::from_secs(5),
        poll_initial: Duration::from_millis(5),
        poll_max: Duration::from_millis(20),
        max_poll_faults: 2,
        client: client(),
    }
}

#[test]
fn connection_refused_is_a_typed_connect_error() {
    // Bind then drop: the port was just free, so connecting is refused.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let err = client()
        .exchange(addr, "GET", "/healthz", None)
        .expect_err("nobody is listening");
    assert!(
        matches!(err, ClientError::Connect(_)),
        "got {err:?} instead of a connect error"
    );
}

#[test]
fn stalling_worker_times_out_instead_of_hanging() {
    let addr = scripted_worker(b"", Duration::from_secs(60));
    let started = Instant::now();
    let err = client()
        .exchange(addr, "GET", "/healthz", None)
        .expect_err("worker never answers");
    assert_eq!(err, ClientError::Timeout);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        started.elapsed()
    );
}

#[test]
fn trickling_worker_times_out_within_the_io_timeout() {
    // A complete, valid response, 40 bytes at 200 ms each: every read
    // completes inside the 300 ms I/O timeout, the whole response takes 8 s.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind trickling worker");
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.read(&mut [0u8; 4096]);
        for byte in b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}".chunks(1) {
            std::thread::sleep(Duration::from_millis(200));
            if stream.write_all(byte).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    let err = client()
        .exchange(addr, "GET", "/healthz", None)
        .expect_err("the whole response takes 8 s");
    assert_eq!(err, ClientError::Timeout);
    assert!(
        started.elapsed() < Duration::from_millis(900),
        "timeout took {:?}",
        started.elapsed()
    );
    worker
        .join()
        .expect("the worker exits once the client hangs up");
}

#[test]
fn truncated_responses_are_detected() {
    // Headers promise 500 bytes; the worker closes after 5.
    let addr = scripted_worker(
        b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n{\"ok\"",
        Duration::ZERO,
    );
    let err = client()
        .exchange(addr, "GET", "/runs/1", None)
        .expect_err("body is short");
    assert_eq!(err, ClientError::Truncated);

    // The worker dies before finishing the headers.
    let addr = scripted_worker(b"HTTP/1.1 200 OK\r\nContent-Le", Duration::ZERO);
    let err = client()
        .exchange(addr, "GET", "/runs/1", None)
        .expect_err("headers are short");
    assert_eq!(err, ClientError::Truncated);
}

#[test]
fn garbage_framing_and_bad_json_are_typed() {
    let addr = scripted_worker(b"SPICE/9 200 fine\r\n\r\n{}", Duration::ZERO);
    let err = client()
        .exchange(addr, "GET", "/healthz", None)
        .expect_err("not HTTP");
    assert!(matches!(err, ClientError::Malformed(_)), "got {err:?}");

    let addr = scripted_worker(
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!",
        Duration::ZERO,
    );
    let err = client()
        .exchange(addr, "GET", "/healthz", None)
        .expect_err("body is not JSON");
    assert!(matches!(err, ClientError::BadJson(_)), "got {err:?}");
}

#[test]
fn a_campaign_against_a_dead_worker_fails_boundedly() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let coordinator = Coordinator::new(vec![addr], config(3)).unwrap();
    let started = Instant::now();
    let err = coordinator.run(&spec(), 2).expect_err("worker is dead");
    match err {
        FleetError::Exhausted { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Exhausted, got {other}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "bounded retries took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_campaign_against_a_stalling_worker_fails_boundedly() {
    // Connects succeed but every exchange stalls past the I/O timeout:
    // the straggler path, not the refused path.
    let addr = scripted_worker(b"", Duration::from_secs(60));
    let coordinator = Coordinator::new(vec![addr], config(2)).unwrap();
    let started = Instant::now();
    let err = coordinator.run(&spec(), 1).expect_err("worker stalls");
    assert!(
        matches!(err, FleetError::Exhausted { attempts: 2, .. }),
        "expected 2 exhausted attempts, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "bounded retries took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_worker_speaking_garbage_fails_the_campaign_cleanly() {
    let addr = scripted_worker(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
        Duration::ZERO,
    );
    let coordinator = Coordinator::new(vec![addr], config(2)).unwrap();
    let err = coordinator.run(&spec(), 1).expect_err("garbage worker");
    assert!(matches!(err, FleetError::Exhausted { .. }), "got {err}");
}

/// A worker that accepts every POST and ignores `Prefer: wait`: its first
/// `running_polls` GETs answer `running` at once, later ones `done` with a
/// valid payload for `spec()`'s one shard. Returns the address and the
/// counts of GETs seen with and without the preference.
fn header_ignoring_worker(running_polls: usize) -> (SocketAddr, Arc<[AtomicUsize; 2]>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted worker");
    let addr = listener.local_addr().unwrap();
    let gets = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let mut welford = WelfordSink::new();
    for i in 0..spec().total {
        welford.observe(i, i as f64);
    }
    let done = format!(
        r#"{{"run": {{"status": "done", "result": {{"observed": {}, "failures": 0,
             "sketches": {{"encoding": "hex", "welford": "{}"}}}}}}}}"#,
        spec().total,
        hex_encode(&MergeableSink::to_bytes(&welford))
    );
    let seen = Arc::clone(&gets);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            // The client half-closes after its request.
            let mut request = String::new();
            if stream.read_to_string(&mut request).is_err() {
                continue;
            }
            let (status, body) = if request.starts_with("POST") {
                (202, r#"{"run": {"id": 1, "status": "queued"}}"#.to_string())
            } else {
                let held = request.contains("Prefer: wait=");
                let polls = seen[0].load(Ordering::SeqCst) + seen[1].load(Ordering::SeqCst);
                seen[usize::from(held)].fetch_add(1, Ordering::SeqCst);
                if polls < running_polls {
                    (200, r#"{"run": {"status": "running"}}"#.to_string())
                } else {
                    (200, done.clone())
                }
            };
            let _ = serve::http::write_json_response(&mut stream, status, &body);
        }
    });
    (addr, gets)
}

#[test]
fn a_server_ignoring_prefer_wait_completes_without_spinning() {
    let (addr, gets) = header_ignoring_worker(6);
    let cfg = FleetConfig {
        max_attempts: 2,
        shard_deadline: Duration::from_secs(5),
        // Intervals stay under the loop's 100 ms pause cap, so each
        // pause holds one poll.
        poll_initial: Duration::from_millis(20),
        poll_max: Duration::from_millis(80),
        max_poll_faults: 2,
        client: client(),
    };
    let coordinator = Coordinator::new(vec![addr], cfg.clone()).unwrap();
    let started = Instant::now();
    let report = coordinator
        .run(&spec(), 1)
        .expect("the campaign completes on the poll schedule");
    let elapsed = started.elapsed();
    assert_eq!(report.merged.observed, spec().total as u64);
    assert_eq!(report.reissues, 0);
    let (scheduled, held) = (
        gets[0].load(Ordering::SeqCst),
        gets[1].load(Ordering::SeqCst),
    );
    assert!(held > 0, "no poll carried Prefer: wait");
    // The scheduled polls fall due 20, 60, 140, 220, ... ms after the
    // dispatch; each of those instants is preceded by at most one held
    // poll (answered at once, then the rest of the pause slept).
    let mut instants = 0;
    let (mut due, mut interval) = (cfg.poll_initial, cfg.poll_initial);
    while due <= elapsed {
        instants += 1;
        interval = (interval * 2).min(cfg.poll_max);
        due += interval;
    }
    assert!(
        scheduled + held <= 2 * (instants + 1),
        "{scheduled} scheduled + {held} held polls in {elapsed:?} ({instants} backoff instants)"
    );
    // Held polls leave the schedule alone: every instant that passed
    // still got its scheduled poll (the last may have been overtaken by
    // a held poll collecting the shard).
    assert!(
        scheduled + 1 >= instants,
        "{scheduled} scheduled polls in {elapsed:?} ({instants} backoff instants)"
    );
}

#[test]
fn a_queue_full_worker_fails_the_campaign_at_the_shard_deadline() {
    let body = r#"{"error": {"code": "queue_full", "status": 503,
                   "message": "job queue is at its 4-job capacity; retry later"}}"#;
    let response = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let addr = scripted_worker(
        Box::leak(response.into_bytes().into_boxed_slice()),
        Duration::ZERO,
    );
    let cfg = FleetConfig {
        shard_deadline: Duration::from_millis(500),
        ..config(2)
    };
    let deadline = cfg.shard_deadline;
    let coordinator = Coordinator::new(vec![addr], cfg).unwrap();
    let started = Instant::now();
    let err = coordinator
        .run(&spec(), 1)
        .expect_err("the queue never drains");
    let elapsed = started.elapsed();
    match err {
        // Refusals use no attempt.
        FleetError::Exhausted {
            attempts,
            last_error,
            ..
        } => {
            assert_eq!(attempts, 0);
            assert!(last_error.contains("capacity"), "{last_error}");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    assert!(
        elapsed > deadline && elapsed < deadline + Duration::from_secs(2),
        "refused for {elapsed:?} against a {deadline:?} deadline"
    );
}

#[test]
fn a_full_queue_is_back_pressure_not_a_failed_attempt() {
    // One worker thread and a 4-job queue against 16 shards: most first
    // dispatches are refused with `503 queue_full`.
    let server_cfg = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let handle = Server::bind(&server_cfg).expect("server boots").start();
    let addr = handle.addr();
    let spec = FleetSpec {
        circuit: "sram6t_dc".to_string(),
        analysis: None,
        seed: 2,
        total: 16 * 400,
        histogram: None,
        tdigest_compression: None,
    };
    let coordinator = Coordinator::new(vec![addr], FleetConfig::default()).unwrap();
    let report = coordinator
        .run_shards(&spec, &plan_shards(spec.total, 16), &mut |_| {})
        .expect("a full queue only delays the campaign");
    assert_eq!(
        report.merged.observed + report.merged.failures,
        spec.total as u64
    );
    assert_eq!(report.dispatches, 16);
    assert_eq!(report.reissues, 0);
    // Every refused submission left a failed record behind, so more runs
    // than shards means the queue did push back.
    let (_, health) = HttpClient::default()
        .exchange(addr, "GET", "/healthz", None)
        .expect("healthz answers");
    let runs = health
        .get("runs")
        .and_then(Json::as_u64)
        .expect("run count");
    assert!(runs > 16, "only {runs} runs: no dispatch was refused");
    handle.shutdown();
}
