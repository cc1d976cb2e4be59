//! Hostile-input tests for the fleet HTTP client and the coordinator's
//! retry bounds: every way a worker can misbehave on the wire — refuse
//! the connection, stall forever, close mid-response, return garbage
//! framing or non-JSON — must surface as a typed [`ClientError`], and a
//! campaign against such workers must fail *cleanly and boundedly*
//! (attempts capped, a structured [`FleetError`], never a hang or panic).

use fleet::coordinator::{Coordinator, FleetConfig, FleetError, FleetSpec};
use fleet::{ClientError, HttpClient};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

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
