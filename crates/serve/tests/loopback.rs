//! Loopback end-to-end test of the `statvs serve` protocol.
//!
//! Boots a real server on an ephemeral port, posts the two halves of a 6T
//! SRAM DC experiment as **disjoint shards over HTTP**, merges the
//! returned sketch bytes client-side, and checks the merge against a
//! single-process `run_streaming_range` reference over the whole range:
//! Histogram counts and Welford observation counts must be bit-identical,
//! t-digest quantiles must agree to tight tolerance — the fleet-merge
//! contract, demonstrated through the full network stack.
//!
//! A second test runs the same contract through the importance-sampling
//! template: disjoint `gauss_tail` shards posted over HTTP must merge
//! their weighted sketches bit-identically to the whole-range run, and
//! the merged estimator must land on the analytic Gaussian tail.
//!
//! A third test drives every abuse path (garbage framing, bad JSON,
//! unknown routes, oversized bodies, mismatched sketch merges) and checks
//! each one comes back as a structured error envelope, never a dropped
//! connection or a panic. A fourth trickles a request one header byte at
//! a time and checks the server cuts the connection off at its socket
//! timeout instead of answering.
//!
//! The `held_get_*` tests pin `Prefer: wait` on `GET /runs/{id}`: a held
//! poll answers once its run finishes, a run that stays queued answers
//! after the wait (never past the server's clamp), and an unknown id is a
//! `404` at once.

use serve::http::{read_response, HttpClient};
use serve::json::Json;
use serve::pool::Engine;
use serve::routes::MAX_WAIT;
use serve::store::{hex_decode, ExperimentSpec};
use serve::{Server, ServerConfig};
use stats::histogram::Histogram;
use stats::sink::{MergeableSink, WelfordSink};
use stats::TDigest;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// One HTTP exchange through the protocol's client: returns the status
/// code and parsed JSON body.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
    HttpClient::default()
        .exchange(addr, method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Sends raw bytes and reads the one response with the protocol's own
/// reader: returns `(status, body_text)`.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send request");
    // Half-close: tells the server no more bytes are coming, so its
    // bounded post-error drain sees EOF immediately.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let (status, body) =
        read_response(&mut BufReader::new(&stream), 1 << 20).expect("one framed response");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

/// Polls `GET /runs/{id}` until the run leaves the queue, returning its
/// final record.
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

/// Pulls one hex sketch payload out of a finished run.
fn sketch_bytes(run: &Json, name: &str) -> Vec<u8> {
    let sketches = run
        .get("result")
        .and_then(|r| r.get("sketches"))
        .unwrap_or_else(|| panic!("no sketches in {}", run.to_text()));
    assert_eq!(
        sketches.get("encoding").and_then(Json::as_str),
        Some("hex"),
        "sketch payloads are typed with their encoding"
    );
    let hex = sketches
        .get(name)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {name} sketch in {}", run.to_text()));
    hex_decode(hex).expect("server-produced hex decodes")
}

fn post_shard(addr: SocketAddr, seed: u64, offset: usize, len: usize) -> u64 {
    let body = format!(
        r#"{{"circuit": "sram6t_dc", "analysis": "dc", "seed": {seed},
            "shard": {{"offset": {offset}, "len": {len}}},
            "histogram": {{"lo": 0.0, "hi": 0.9, "bins": 48}}}}"#
    );
    let (status, reply) = http(addr, "POST", "/experiments", Some(&body));
    assert_eq!(status, 202, "{}", reply.to_text());
    reply
        .get("run")
        .and_then(|r| r.get("id"))
        .and_then(Json::as_u64)
        .expect("run id")
}

#[test]
fn disjoint_shards_over_http_merge_to_the_single_process_run() {
    const SEED: u64 = 42;
    const SPLIT: usize = 70;
    const TOTAL: usize = 120;

    let server = Server::bind(&ServerConfig::default()).expect("server boots");
    let addr = server.addr();
    let handle = server.start();

    // Health and registry come up before any run.
    let (status, health) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let (status, circuits) = http(addr, "GET", "/circuits", None);
    assert_eq!(status, 200);
    assert!(circuits
        .get("circuits")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .any(|c| c.get("id").and_then(Json::as_str) == Some("sram6t_dc")));

    // Post the two halves of one experiment as disjoint shards — in real
    // deployments these would land on different servers.
    let id_a = post_shard(addr, SEED, 0, SPLIT);
    let id_b = post_shard(addr, SEED, SPLIT, TOTAL - SPLIT);
    let run_a = await_run(addr, id_a);
    let run_b = await_run(addr, id_b);

    // Merge the returned sketch bytes client-side via the fallible paths.
    let mut histogram = Histogram::from_bytes(&sketch_bytes(&run_a, "histogram")).unwrap();
    histogram
        .try_merge_from(&Histogram::from_bytes(&sketch_bytes(&run_b, "histogram")).unwrap())
        .expect("shards share the histogram configuration");
    let mut welford = WelfordSink::from_bytes(&sketch_bytes(&run_a, "welford")).unwrap();
    welford
        .try_merge_from(&WelfordSink::from_bytes(&sketch_bytes(&run_b, "welford")).unwrap())
        .expect("welford merges are total");
    let mut digest = TDigest::from_bytes(&sketch_bytes(&run_a, "tdigest")).unwrap();
    digest
        .try_merge_from(&TDigest::from_bytes(&sketch_bytes(&run_b, "tdigest")).unwrap())
        .expect("shards share the compression");

    // The single-process reference: the identical workload through
    // `run_streaming_range` over the whole index range, no HTTP.
    let reference = Engine::new()
        .expect("reference engine")
        .execute(&ExperimentSpec {
            circuit: "sram6t_dc".to_string(),
            analysis: "dc".to_string(),
            seed: SEED,
            offset: 0,
            len: TOTAL,
            total: Some(TOTAL),
            want_welford: true,
            want_histogram: true,
            want_tdigest: true,
            histogram: (0.0, 0.9, 48),
            tdigest_compression: 100.0,
            proposal: (0.0, 1.0),
            threshold: 3.0,
            want_wmoments: false,
            want_whistogram: false,
        });
    let reference = reference.expect("reference run succeeds");
    let ref_hist = Histogram::from_bytes(reference.histogram_bytes.as_ref().unwrap()).unwrap();
    let ref_welford = WelfordSink::from_bytes(reference.welford_bytes.as_ref().unwrap()).unwrap();
    let ref_digest = TDigest::from_bytes(reference.tdigest_bytes.as_ref().unwrap()).unwrap();

    // Bit-identical counts: the shard union IS the single-run stream.
    assert_eq!(
        histogram.counts(),
        ref_hist.counts(),
        "merged histogram must be bit-identical to the local run"
    );
    assert_eq!(histogram.total(), TOTAL as u64);
    let (merged, reference_moments) = (welford.moments(), ref_welford.moments());
    assert_eq!(merged.count(), reference_moments.count());
    assert_eq!(merged.count(), TOTAL as u64);
    // Moments merge through the pairwise combination formula, so they are
    // equal to rounding, not necessarily to the bit.
    assert!((merged.mean() - reference_moments.mean()).abs() <= 1e-12);
    assert!((merged.variance() - reference_moments.variance()).abs() <= 1e-12);

    // Quantiles from the merged digest stay inside the observed range and
    // agree tightly with the local digest.
    assert_eq!(digest.count(), ref_digest.count());
    for p in [0.1, 0.5, 0.9] {
        let q = digest.quantile(p).expect("non-empty digest");
        let q_ref = ref_digest.quantile(p).expect("non-empty digest");
        assert!(
            q >= reference_moments.min() && q <= reference_moments.max(),
            "q{p} = {q} escaped the observed range"
        );
        assert!((q - q_ref).abs() <= 0.02, "q{p}: {q} vs {q_ref}");
    }

    handle.shutdown();
}

#[test]
fn weighted_shards_over_http_merge_to_the_whole_range_run() {
    use stats::{WeightedHistogram, WeightedMoments};

    let server = Server::bind(&ServerConfig::default()).expect("server boots");
    let addr = server.addr();
    let handle = server.start();

    let post = |offset: usize, len: usize| -> u64 {
        let body = format!(
            r#"{{"circuit": "gauss_tail", "seed": 13,
                "shard": {{"offset": {offset}, "len": {len}}},
                "proposal": {{"shift": 4.0}}, "threshold": 4.0,
                "histogram": {{"lo": -4.0, "hi": 8.0, "bins": 24}}}}"#
        );
        let (status, reply) = http(addr, "POST", "/experiments", Some(&body));
        assert_eq!(status, 202, "{}", reply.to_text());
        reply
            .get("run")
            .and_then(|r| r.get("id"))
            .and_then(Json::as_u64)
            .expect("run id")
    };

    // Three uneven shards vs the whole range, all over the wire.
    let whole = await_run(addr, post(0, 3000));
    let parts = [post(0, 811), post(811, 1489), post(2300, 700)];
    let [a, b, c] = parts.map(|id| await_run(addr, id));

    let mut moments = WeightedMoments::from_bytes(&sketch_bytes(&a, "wmoments")).unwrap();
    let mut hist = WeightedHistogram::from_bytes(&sketch_bytes(&a, "whistogram")).unwrap();
    for shard in [&b, &c] {
        moments
            .try_merge_from(&WeightedMoments::from_bytes(&sketch_bytes(shard, "wmoments")).unwrap())
            .expect("shards share the threshold");
        hist.try_merge_from(
            &WeightedHistogram::from_bytes(&sketch_bytes(shard, "whistogram")).unwrap(),
        )
        .expect("shards share the binning");
    }
    assert_eq!(
        moments.to_bytes(),
        sketch_bytes(&whole, "wmoments"),
        "merged weighted moments must be bit-identical to the whole-range run"
    );
    assert_eq!(
        hist.to_bytes(),
        sketch_bytes(&whole, "whistogram"),
        "merged weighted histogram must be bit-identical to the whole-range run"
    );
    // The merged estimator resolves the analytic 4-sigma tail — a value
    // plain MC at 3000 samples (expected hits ~0.1) cannot see.
    let truth = stats::gaussian::tail(4.0);
    assert!(
        (moments.estimate() / truth - 1.0).abs() < 0.2,
        "merged IS estimate {} vs analytic {truth}",
        moments.estimate()
    );
    // The scalar report mirrors the estimator.
    let mean = whole
        .get("result")
        .and_then(|r| r.get("moments"))
        .and_then(|m| m.get("mean"))
        .and_then(Json::as_f64)
        .expect("moments.mean");
    assert_eq!(mean, moments.estimate());

    handle.shutdown();
}

#[test]
fn hostile_inputs_get_envelopes_not_panics() {
    let cfg = ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("server boots");
    let addr = server.addr();
    let handle = server.start();

    // Garbage framing: still a structured 400 envelope.
    let (status, body) = raw_exchange(addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400);
    let envelope = Json::parse(&body).expect("error envelope is JSON");
    assert_eq!(
        envelope
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );

    // Malformed JSON body.
    let (status, reply) = http(addr, "POST", "/experiments", Some("{\"circuit\": "));
    assert_eq!(status, 400);
    assert!(reply
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap()
        .contains("invalid JSON"));

    // Unknown route and unknown run.
    let (status, _) = http(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/runs/999", None);
    assert_eq!(status, 404);

    // A body over the configured cap is refused before buffering.
    let big = format!(
        r#"{{"circuit": "device_idsat", "samples": 5, "analysis": "{}"}}"#,
        "x".repeat(2048)
    );
    let (status, reply) = http(addr, "POST", "/experiments", Some(&big));
    assert_eq!(status, 413, "{}", reply.to_text());

    // Mismatched sketch configurations refuse to merge client-side
    // instead of corrupting state: run the same experiment with two
    // different histogram configurations and two different compressions.
    let spec_a = r#"{"circuit": "device_idsat", "samples": 40,
                     "histogram": {"lo": 0.0, "hi": 1.0, "bins": 16},
                     "tdigest": {"compression": 50}}"#;
    let spec_b = r#"{"circuit": "device_idsat", "samples": 40,
                     "histogram": {"lo": 0.0, "hi": 1.0, "bins": 32},
                     "tdigest": {"compression": 200}}"#;
    let (_, reply_a) = http(addr, "POST", "/experiments", Some(spec_a));
    let (_, reply_b) = http(addr, "POST", "/experiments", Some(spec_b));
    let id_a = reply_a
        .get("run")
        .and_then(|r| r.get("id"))
        .and_then(Json::as_u64)
        .unwrap();
    let id_b = reply_b
        .get("run")
        .and_then(|r| r.get("id"))
        .and_then(Json::as_u64)
        .unwrap();
    let run_a = await_run(addr, id_a);
    let run_b = await_run(addr, id_b);
    let mut histogram = Histogram::from_bytes(&sketch_bytes(&run_a, "histogram")).unwrap();
    let other = Histogram::from_bytes(&sketch_bytes(&run_b, "histogram")).unwrap();
    assert!(histogram.try_merge_from(&other).is_err());
    let mut digest = TDigest::from_bytes(&sketch_bytes(&run_a, "tdigest")).unwrap();
    let other = TDigest::from_bytes(&sketch_bytes(&run_b, "tdigest")).unwrap();
    assert!(digest.try_merge_from(&other).is_err());

    // After all that abuse the server still answers.
    let (status, health) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    handle.shutdown();
}

#[test]
fn a_trickling_client_is_cut_off_at_the_socket_timeout() {
    // The server's per-connection `SOCKET_TIMEOUT` (5 s), plus slack.
    let bound = Duration::from_secs(5 + 1);
    let handle = Server::bind(&ServerConfig::default())
        .expect("server boots")
        .start();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect to loopback server");
    let started = Instant::now();
    let mut writer = stream.try_clone().expect("clone the socket");
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    // One header byte every 1.5 s: each read the server makes completes
    // well inside its socket timeout, so only a deadline on the whole
    // request can end the exchange.
    let trickler = std::thread::spawn(move || {
        let _ = writer.write_all(b"GET /healthz HTTP/1.1\r\nX-Trickle: ");
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(Duration::from_millis(1500))
        {
            if writer.write_all(b"a").is_err() {
                break;
            }
        }
    });
    stream.set_read_timeout(Some(bound)).unwrap();
    let mut reply = Vec::new();
    let outcome = stream.read_to_end(&mut reply).map_err(|e| e.kind());
    let held = started.elapsed();
    drop(stop);
    trickler.join().expect("trickler exits");
    // EOF, or a reset over the unread trickle; a read timeout means the
    // server still holds the connection.
    let timed_out = matches!(outcome, Err(ErrorKind::WouldBlock | ErrorKind::TimedOut));
    assert!(!timed_out && held <= bound, "{outcome:?} after {held:?}");
    assert!(
        reply.is_empty(),
        "a trickled request must be dropped unanswered: {:?}",
        String::from_utf8_lossy(&reply)
    );
    handle.shutdown();
}

/// The held-GET tests' campaign seed: its first million `sram6t_dc`
/// samples draw no non-physical device, so every shard of them is `done`.
const SEED: u64 = 2;

/// A `sram6t_dc` shard length that keeps one worker thread of this build
/// busy for about `target`. The per-sample time is the difference between
/// in-process runs of 272 and 16 samples (each the fastest of three),
/// which cancels the per-shard set-up.
fn shard_len_lasting(target: Duration) -> usize {
    let engine = Engine::new().expect("probe engine");
    let time = |len: usize| {
        let spec = ExperimentSpec {
            circuit: "sram6t_dc".to_string(),
            analysis: "dc".to_string(),
            seed: SEED,
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
                engine.execute(&spec).expect("probe shard runs");
                started.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let per_sample = time(272).saturating_sub(time(16)).as_secs_f64() / 256.0;
    ((target.as_secs_f64() / per_sample.max(1e-6)) as usize).clamp(16, 1_000_000)
}

/// A held `GET /runs/{id}`: status, run status and how long it took.
fn held_get(addr: SocketAddr, id: u64, wait: Duration) -> (u16, Option<String>, Duration) {
    let started = Instant::now();
    let (status, reply) = HttpClient::default()
        .get_held(addr, &format!("/runs/{id}"), wait)
        .unwrap_or_else(|e| panic!("held GET /runs/{id}: {e}"));
    let run_status = reply
        .get("run")
        .and_then(|r| r.get("status"))
        .and_then(Json::as_str)
        .map(str::to_string);
    (status, run_status, started.elapsed())
}

#[test]
fn held_get_returns_when_a_running_shard_finishes() {
    let handle = Server::bind(&ServerConfig::default())
        .expect("server boots")
        .start();
    let addr = handle.addr();
    let id = post_shard(addr, SEED, 0, shard_len_lasting(Duration::from_millis(400)));
    let wait = Duration::from_secs(4);
    let (status, run_status, held) = held_get(addr, id, wait);
    assert_eq!(status, 200);
    assert_eq!(run_status.as_deref(), Some("done"));
    // About 0.4 s of compute: the reply came when the shard finished, not
    // when the wait ran out.
    assert!(held < wait / 2, "held {held:?} of a {wait:?} wait");
    handle.shutdown();
}

#[test]
fn held_get_on_a_queued_shard_answers_after_its_wait() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = Server::bind(&cfg).expect("server boots").start();
    let addr = handle.addr();
    // The one worker is busy for about 2 s, so the second shard stays
    // queued through the held GET.
    post_shard(addr, SEED, 0, shard_len_lasting(Duration::from_secs(2)));
    let queued = post_shard(addr, SEED, 0, 8);
    let wait = Duration::from_millis(300);
    let (status, run_status, held) = held_get(addr, queued, wait);
    assert_eq!(status, 200);
    assert_eq!(run_status.as_deref(), Some("queued"));
    assert!(
        held >= wait,
        "answered after {held:?}, before its {wait:?} wait"
    );
    assert!(
        held < (wait + Duration::from_secs(1)).min(MAX_WAIT),
        "answered {held:?} after a {wait:?} wait"
    );
    handle.shutdown();
}

#[test]
fn held_get_on_an_unknown_run_is_an_immediate_404() {
    let handle = Server::bind(&ServerConfig::default())
        .expect("server boots")
        .start();
    let (status, _, held) = held_get(handle.addr(), 999, Duration::from_secs(4));
    assert_eq!(status, 404);
    assert!(held < Duration::from_secs(1), "404 after {held:?}");
    handle.shutdown();
}
