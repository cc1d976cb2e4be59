//! Route dispatch: maps parsed HTTP requests onto the run store, job
//! queue, and template registry, and renders every outcome — success or
//! failure — as a deterministic JSON envelope.
//!
//! The protocol surface:
//!
//! - `POST /experiments` — validate a spec, register a queued run, return
//!   `202` with the run id.
//! - `GET /runs/{id}` — the run's lifecycle snapshot; finished runs carry
//!   moments plus hex-encoded mergeable-sketch bytes. With RFC 7240's
//!   `Prefer: wait=S` the reply is held until the run is `done` or
//!   `failed`, or until `S` seconds (clamped to [`MAX_WAIT`]) have passed;
//!   an unknown id is a `404` at once. No other route holds its reply.
//! - `GET /circuits` — the template registry.
//! - `GET /healthz` — liveness plus run-count, queue-depth and worker gauges.
//!
//! Spec validation is strict: unknown fields are rejected, not ignored,
//! so a typo'd `"samlpes"` fails loudly instead of silently running a
//! default-sized experiment. Importance-sampling templates (analysis
//! `"is"`) accept `proposal`/`threshold` and the weighted sinks
//! `wmoments`/`whistogram`; plain templates reject them, and vice versa
//! — a spec cannot silently mix the weighted and unweighted worlds.

use crate::error::ApiError;
use crate::http::Request;
use crate::json::{num, obj, s, Json, MAX_EXACT_INT};
use crate::store::{hex_encode, ExperimentSpec, RunFailure, RunRecord, RunResult, RunStatus};
use crate::ServerCtx;
use std::time::Duration;

/// Longest a held `GET /runs/{id}` waits, whatever the client asked: the
/// server's socket timeout, the time a trickling client can already pin
/// a connection thread.
pub const MAX_WAIT: Duration = crate::SOCKET_TIMEOUT;

/// Largest accepted shard offset: far beyond any real fleet partition,
/// small enough that `offset + len` can never approach `usize` overflow.
const MAX_OFFSET: u64 = 1 << 40;
/// Histogram bin-count cap.
const MAX_BINS: u64 = 4096;

/// Handles one request end to end; infallible by construction — every
/// error path folds into its envelope here.
#[must_use]
pub fn handle(req: &Request, ctx: &ServerCtx) -> (u16, Json) {
    match dispatch(req, ctx) {
        Ok(reply) => reply,
        Err(e) => (e.status, e.to_json()),
    }
}

fn dispatch(req: &Request, ctx: &ServerCtx) -> Result<(u16, Json), ApiError> {
    let method = req.method.as_str();
    let path = req.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => Ok((200, healthz(ctx))),
        ("GET", "/circuits") => Ok((200, circuits(ctx))),
        ("POST", "/experiments") => post_experiment(req, ctx),
        (_, "/healthz" | "/circuits" | "/experiments") => {
            Err(ApiError::method_not_allowed(method, path))
        }
        _ if path.starts_with("/runs/") => {
            if method != "GET" {
                return Err(ApiError::method_not_allowed(method, path));
            }
            get_run(req, ctx)
        }
        _ => Err(ApiError::not_found(format!("no route for {path}"))),
    }
}

fn healthz(ctx: &ServerCtx) -> Json {
    obj(vec![
        ("status", s("ok")),
        ("runs", num(ctx.store.len() as f64)),
        ("queue_depth", num(ctx.queue.depth() as f64)),
        ("workers", num(ctx.workers as f64)),
    ])
}

fn circuits(ctx: &ServerCtx) -> Json {
    let list = ctx
        .engine
        .templates()
        .map(|t| {
            let (lo, hi, bins) = t.default_histogram;
            obj(vec![
                ("id", s(t.id)),
                ("description", s(t.description)),
                (
                    "analyses",
                    Json::Arr(t.analyses.iter().map(|a| s(a)).collect()),
                ),
                ("unit", s(t.unit)),
                (
                    "default_histogram",
                    obj(vec![
                        ("lo", num(lo)),
                        ("hi", num(hi)),
                        ("bins", num(bins as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    obj(vec![("circuits", Json::Arr(list))])
}

fn post_experiment(req: &Request, ctx: &ServerCtx) -> Result<(u16, Json), ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    let body =
        Json::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON: {e}")))?;
    let spec = parse_spec(&body, ctx)?;
    // Replay-cache hit: an identical run (same template, spec, seed,
    // shard) already finished — possibly in a previous process over the
    // same artifact directory. Register the record as done immediately;
    // no queue, no worker, and the client sees `cached: true`.
    if let Some(result) = ctx.cache.as_ref().and_then(|cache| cache.load(&spec)) {
        let id = ctx.store.create(spec.clone());
        ctx.store.complete(id, result);
        let run = run_head(id, RunStatus::Done, true, &spec);
        return Ok((202, obj(vec![("run", obj(run))])));
    }
    let id = ctx.store.create(spec.clone());
    if let Err(e) = ctx.queue.push(id) {
        // The record exists but will never run; make its state honest. A
        // full queue is load, not a spec problem — retryable.
        ctx.store.fail(
            id,
            RunFailure::transient(format!("rejected at submission: {e}")),
        );
        return Err(e);
    }
    let run = run_head(id, RunStatus::Queued, false, &spec);
    Ok((202, obj(vec![("run", obj(run))])))
}

fn get_run(req: &Request, ctx: &ServerCtx) -> Result<(u16, Json), ApiError> {
    let raw = &req.path["/runs/".len()..];
    let id: u64 = raw
        .parse()
        .map_err(|_| ApiError::bad_request(format!("`{raw}` is not a run id")))?;
    let wait = req.wait.unwrap_or(Duration::ZERO).min(MAX_WAIT);
    let record = ctx
        .store
        .get_settled(id, wait)
        .ok_or_else(|| ApiError::not_found(format!("no run with id {id}")))?;
    Ok((200, obj(vec![("run", run_json(&record))])))
}

/// The members every run envelope starts with, in wire order: the `202`
/// submission replies and `GET /runs/{id}` all render them here. `cached`
/// appears, right after `status`, only on a replay-cache hit.
fn run_head(
    id: u64,
    status: RunStatus,
    cached: bool,
    spec: &ExperimentSpec,
) -> Vec<(&'static str, Json)> {
    let mut members = vec![("id", num(id as f64)), ("status", s(status.as_str()))];
    if cached {
        members.push(("cached", Json::Bool(true)));
    }
    members.extend([
        ("circuit", s(&spec.circuit)),
        ("analysis", s(&spec.analysis)),
        ("seed", num(spec.seed as f64)),
        (
            "shard",
            obj(vec![
                ("offset", num(spec.offset as f64)),
                ("len", num(spec.len as f64)),
            ]),
        ),
    ]);
    members
}

/// Renders one run record for `GET /runs/{id}`.
fn run_json(record: &RunRecord) -> Json {
    let mut members = run_head(record.id, record.status, false, &record.spec);
    if let Some(failure) = &record.error {
        // Structured, not a bare string: a coordinator branches on
        // `retryable` to decide between re-issuing the shard and aborting
        // the whole campaign.
        members.push((
            "error",
            obj(vec![
                ("message", s(&failure.message)),
                ("retryable", Json::Bool(failure.retryable)),
            ]),
        ));
    }
    if let Some(result) = &record.result {
        members.push(("result", result_json(result)));
    }
    obj(members)
}

fn result_json(result: &RunResult) -> Json {
    let mut sketches = vec![("encoding", s("hex"))];
    if let Some(bytes) = &result.welford_bytes {
        sketches.push(("welford", s(&hex_encode(bytes))));
    }
    if let Some(bytes) = &result.histogram_bytes {
        sketches.push(("histogram", s(&hex_encode(bytes))));
    }
    if let Some(bytes) = &result.tdigest_bytes {
        sketches.push(("tdigest", s(&hex_encode(bytes))));
    }
    if let Some(bytes) = &result.wmoments_bytes {
        sketches.push(("wmoments", s(&hex_encode(bytes))));
    }
    if let Some(bytes) = &result.whistogram_bytes {
        sketches.push(("whistogram", s(&hex_encode(bytes))));
    }
    obj(vec![
        ("observed", num(result.observed as f64)),
        ("failures", num(result.failures as f64)),
        ("cached", Json::Bool(result.cached)),
        (
            "moments",
            obj(vec![
                ("count", num(result.count as f64)),
                ("mean", num(result.mean)),
                ("variance", num(result.variance)),
            ]),
        ),
        ("sketches", obj(sketches)),
    ])
}

/// Validates a `POST /experiments` body into an [`ExperimentSpec`].
///
/// # Errors
///
/// `400` envelopes naming the offending field for every violation.
fn parse_spec(body: &Json, ctx: &ServerCtx) -> Result<ExperimentSpec, ApiError> {
    let Json::Obj(members) = body else {
        return Err(ApiError::bad_request("experiment spec must be an object"));
    };
    const KNOWN: &[&str] = &[
        "circuit",
        "analysis",
        "seed",
        "samples",
        "shard",
        "total",
        "sinks",
        "histogram",
        "tdigest",
        "proposal",
        "threshold",
    ];
    for (key, _) in members {
        if !KNOWN.contains(&key.as_str()) {
            return Err(ApiError::bad_request(format!("unknown spec field `{key}`")));
        }
    }

    let circuit = body
        .get("circuit")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("`circuit` (string) is required"))?;
    let template = ctx.engine.template(circuit).ok_or_else(|| {
        ApiError::bad_request(format!("unknown circuit `{circuit}` (see GET /circuits)"))
    })?;

    let analysis = match body.get("analysis") {
        None => template.analyses[0].to_string(),
        Some(v) => {
            let a = v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("`analysis` must be a string"))?;
            if !template.analyses.contains(&a) {
                return Err(ApiError::bad_request(format!(
                    "circuit `{circuit}` does not support analysis `{a}`"
                )));
            }
            a.to_string()
        }
    };

    let seed = match body.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            ApiError::bad_request(format!(
                "`seed` must be an integer in 0..={MAX_EXACT_INT} (2^53 - 1)"
            ))
        })?,
    };

    let (offset, len, total) = parse_shard(body, ctx.max_samples)?;

    // Importance-sampling templates take a different sink/parameter
    // surface than plain ones; the capability is declared by the
    // template's analysis list, not hard-coded template ids.
    let weighted = template.analyses.contains(&"is");
    if !weighted {
        for field in ["proposal", "threshold"] {
            if body.get(field).is_some() {
                return Err(ApiError::bad_request(format!(
                    "`{field}` applies only to importance-sampling templates; \
                     circuit `{circuit}` is not one"
                )));
            }
        }
    }
    let sinks = parse_sinks(body, weighted)?;

    let histogram = match body.get("histogram") {
        None => template.default_histogram,
        Some(v) => parse_histogram(v)?,
    };
    let tdigest_compression = match body.get("tdigest") {
        None => 100.0,
        Some(v) => parse_tdigest(v)?,
    };
    let proposal = match body.get("proposal") {
        None => (0.0, 1.0),
        Some(v) => parse_proposal(v)?,
    };
    let threshold = match body.get("threshold") {
        None => 3.0,
        Some(v) => {
            let t = v
                .as_f64()
                .ok_or_else(|| ApiError::bad_request("`threshold` must be a number"))?;
            if !t.is_finite() {
                return Err(ApiError::bad_request("`threshold` must be finite"));
            }
            t
        }
    };

    Ok(ExperimentSpec {
        circuit: circuit.to_string(),
        analysis,
        seed,
        offset,
        len,
        total,
        want_welford: sinks.welford,
        want_histogram: sinks.histogram,
        want_tdigest: sinks.tdigest,
        histogram,
        tdigest_compression,
        proposal,
        threshold,
        want_wmoments: sinks.wmoments,
        want_whistogram: sinks.whistogram,
    })
}

/// A Gaussian proposal `{shift, scale}`; both fields optional, bounded
/// to keep the exact log-weights within `f64` range.
fn parse_proposal(v: &Json) -> Result<(f64, f64), ApiError> {
    let Json::Obj(members) = v else {
        return Err(ApiError::bad_request("`proposal` must be an object"));
    };
    for (key, _) in members {
        if !matches!(key.as_str(), "shift" | "scale") {
            return Err(ApiError::bad_request(format!(
                "unknown proposal field `{key}`"
            )));
        }
    }
    let shift = match v.get("shift") {
        None => 0.0,
        Some(x) => x
            .as_f64()
            .ok_or_else(|| ApiError::bad_request("`proposal.shift` must be a number"))?,
    };
    let scale = match v.get("scale") {
        None => 1.0,
        Some(x) => x
            .as_f64()
            .ok_or_else(|| ApiError::bad_request("`proposal.scale` must be a number"))?,
    };
    if !shift.is_finite() || shift.abs() > 50.0 {
        return Err(ApiError::bad_request(
            "`proposal.shift` must be finite with |shift| <= 50",
        ));
    }
    if !scale.is_finite() || !(scale > 0.0) || scale > 100.0 {
        return Err(ApiError::bad_request(
            "`proposal.scale` must be in (0, 100]",
        ));
    }
    Ok((shift, scale))
}

#[allow(clippy::type_complexity)]
fn parse_shard(body: &Json, max_samples: usize) -> Result<(usize, usize, Option<usize>), ApiError> {
    let samples = body.get("samples");
    let shard = body.get("shard");
    let (offset, len) = match (samples, shard) {
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request(
                "give either `samples` or `shard`, not both",
            ));
        }
        (None, None) => {
            return Err(ApiError::bad_request(
                "one of `samples` (integer) or `shard` ({offset, len}) is required",
            ));
        }
        (Some(n), None) => {
            let n = n
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("`samples` must be a non-negative integer"))?;
            (0, n)
        }
        (None, Some(v)) => {
            let Json::Obj(members) = v else {
                return Err(ApiError::bad_request("`shard` must be an object"));
            };
            for (key, _) in members {
                if key != "offset" && key != "len" {
                    return Err(ApiError::bad_request(format!(
                        "unknown shard field `{key}`"
                    )));
                }
            }
            let offset = v
                .get("offset")
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request("`shard.offset` (integer) is required"))?;
            let len = v
                .get("len")
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request("`shard.len` (integer) is required"))?;
            (offset, len)
        }
    };
    if len == 0 {
        return Err(ApiError::bad_request("shard length must be at least 1"));
    }
    if len > max_samples as u64 {
        return Err(ApiError::bad_request(format!(
            "shard length {len} exceeds the server's {max_samples}-sample cap"
        )));
    }
    if offset > MAX_OFFSET {
        return Err(ApiError::bad_request(format!(
            "shard offset {offset} exceeds the {MAX_OFFSET} cap"
        )));
    }
    // `offset + len` must index a real sample space: a shard whose end
    // overflows (or would collide with the runner's usize::MAX shutdown
    // sentinel) is a coordinator bug, rejected here instead of surfacing
    // as a worker panic.
    let end = offset
        .checked_add(len)
        .filter(|&end| end < u64::MAX)
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "shard offset {offset} + len {len} overflows the sample index space"
            ))
        })?;
    let total = match body.get("total") {
        None => None,
        Some(v) => {
            let total = v
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("`total` must be a non-negative integer"))?;
            if end > total {
                return Err(ApiError::bad_request(format!(
                    "shard {offset}..{end} exceeds the declared total of {total} samples"
                )));
            }
            Some(total as usize)
        }
    };
    Ok((offset as usize, len as usize, total))
}

/// Which sink payloads a spec requests.
struct SinkChoice {
    welford: bool,
    histogram: bool,
    tdigest: bool,
    wmoments: bool,
    whistogram: bool,
}

fn parse_sinks(body: &Json, weighted: bool) -> Result<SinkChoice, ApiError> {
    let mut choice = SinkChoice {
        welford: false,
        histogram: false,
        tdigest: false,
        wmoments: false,
        whistogram: false,
    };
    let Some(v) = body.get("sinks") else {
        // Default: everything the template's world offers.
        if weighted {
            choice.wmoments = true;
            choice.whistogram = true;
        } else {
            choice.welford = true;
            choice.histogram = true;
            choice.tdigest = true;
        }
        return Ok(choice);
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("`sinks` must be an array of sink names"))?;
    for item in items {
        let name = item.as_str();
        let is_weighted_sink = matches!(name, Some("wmoments" | "whistogram"));
        if is_weighted_sink != weighted {
            return Err(ApiError::bad_request(if weighted {
                "importance-sampling templates take the weighted sinks \
                 \"wmoments\" and \"whistogram\" only"
            } else {
                "weighted sinks apply only to importance-sampling templates"
            }));
        }
        match name {
            Some("welford") => choice.welford = true,
            Some("histogram") => choice.histogram = true,
            Some("tdigest") => choice.tdigest = true,
            Some("wmoments") => choice.wmoments = true,
            Some("whistogram") => choice.whistogram = true,
            _ => {
                return Err(ApiError::bad_request(
                    "`sinks` entries must be \"welford\", \"histogram\", \"tdigest\", \
                     \"wmoments\", or \"whistogram\"",
                ));
            }
        }
    }
    if !(choice.welford
        || choice.histogram
        || choice.tdigest
        || choice.wmoments
        || choice.whistogram)
    {
        return Err(ApiError::bad_request("`sinks` must name at least one sink"));
    }
    Ok(choice)
}

fn parse_histogram(v: &Json) -> Result<(f64, f64, usize), ApiError> {
    let Json::Obj(members) = v else {
        return Err(ApiError::bad_request("`histogram` must be an object"));
    };
    for (key, _) in members {
        if !matches!(key.as_str(), "lo" | "hi" | "bins") {
            return Err(ApiError::bad_request(format!(
                "unknown histogram field `{key}`"
            )));
        }
    }
    let lo = v
        .get("lo")
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad_request("`histogram.lo` (number) is required"))?;
    let hi = v
        .get("hi")
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad_request("`histogram.hi` (number) is required"))?;
    let bins = v
        .get("bins")
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::bad_request("`histogram.bins` (integer) is required"))?;
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(ApiError::bad_request(
            "`histogram` bounds must be finite with lo < hi",
        ));
    }
    if bins == 0 || bins > MAX_BINS {
        return Err(ApiError::bad_request(format!(
            "`histogram.bins` must be in 1..={MAX_BINS}"
        )));
    }
    Ok((lo, hi, bins as usize))
}

fn parse_tdigest(v: &Json) -> Result<f64, ApiError> {
    let Json::Obj(members) = v else {
        return Err(ApiError::bad_request("`tdigest` must be an object"));
    };
    for (key, _) in members {
        if key != "compression" {
            return Err(ApiError::bad_request(format!(
                "unknown tdigest field `{key}`"
            )));
        }
    }
    let compression = v
        .get("compression")
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad_request("`tdigest.compression` (number) is required"))?;
    if !compression.is_finite() || !(10.0..=10_000.0).contains(&compression) {
        return Err(ApiError::bad_request(
            "`tdigest.compression` must be in 10..=10000",
        ));
    }
    Ok(compression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;

    fn ctx() -> ServerCtx {
        ServerCtx::new(&ServerConfig::default()).expect("engine builds")
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            wait: None,
        }
    }

    fn error_code(body: &Json) -> String {
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error envelope")
            .to_string()
    }

    #[test]
    fn healthz_and_circuits_respond() {
        let ctx = ctx();
        let (status, body) = handle(&request("GET", "/healthz", ""), &ctx);
        assert_eq!(status, 200);
        assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
        let (status, body) = handle(&request("GET", "/circuits", ""), &ctx);
        assert_eq!(status, 200);
        let circuits = body.get("circuits").and_then(Json::as_arr).unwrap();
        assert_eq!(circuits.len(), 3);
        assert_eq!(
            circuits[0].get("id").and_then(Json::as_str),
            Some("sram6t_dc")
        );
    }

    #[test]
    fn post_registers_a_queued_run() {
        let ctx = ctx();
        let body = r#"{"circuit": "device_idsat", "seed": 9, "samples": 50}"#;
        let (status, reply) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202, "{}", reply.to_text());
        let run = reply.get("run").unwrap();
        assert_eq!(run.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(run.get("status").and_then(Json::as_str), Some("queued"));
        assert_eq!(ctx.queue.depth(), 1);
        // The record is immediately resolvable, and a queued run renders
        // the same run head on submission and on lookup.
        let submitted = run.to_text();
        let (status, reply) = handle(&request("GET", "/runs/1", ""), &ctx);
        assert_eq!(status, 200);
        let run = reply.get("run").unwrap();
        assert_eq!(run.to_text(), submitted);
        assert_eq!(run.get("status").and_then(Json::as_str), Some("queued"));
        assert_eq!(
            run.get("shard")
                .and_then(|s| s.get("len"))
                .and_then(Json::as_u64),
            Some(50)
        );
    }

    #[test]
    fn malformed_specs_get_structured_400s() {
        let ctx = ctx();
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be an object"),
            ("{}", "`circuit`"),
            (r#"{"circuit": "nope", "samples": 5}"#, "unknown circuit"),
            (r#"{"circuit": "sram6t_dc"}"#, "`samples`"),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "shard": {"offset": 0, "len": 5}}"#,
                "not both",
            ),
            (r#"{"circuit": "sram6t_dc", "samples": 0}"#, "at least 1"),
            (r#"{"circuit": "sram6t_dc", "samples": 99999999}"#, "cap"),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "samlpes": 1}"#,
                "unknown spec field",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "sinks": ["median"]}"#,
                "sinks",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "histogram": {"lo": 1, "hi": 0, "bins": 4}}"#,
                "lo < hi",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "tdigest": {"compression": 1}}"#,
                "compression",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "analysis": "tran"}"#,
                "does not support",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "seed": -1}"#,
                "`seed`",
            ),
            (
                r#"{"circuit": "sram6t_dc", "shard": {"offset": 90, "len": 20}, "total": 100}"#,
                "declared total",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 120, "total": 100}"#,
                "declared total",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "total": -3}"#,
                "`total`",
            ),
            (
                r#"{"circuit": "sram6t_dc", "shard": {"offset": 0, "len": 0}, "total": 10}"#,
                "at least 1",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "proposal": {"shift": 3}}"#,
                "importance-sampling templates",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "threshold": 4.0}"#,
                "importance-sampling templates",
            ),
            (
                r#"{"circuit": "sram6t_dc", "samples": 5, "sinks": ["wmoments"]}"#,
                "importance-sampling templates",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "sinks": ["welford"]}"#,
                "weighted sinks",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "proposal": {"shift": 99}}"#,
                "|shift| <= 50",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "proposal": {"scale": 0}}"#,
                "(0, 100]",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "proposal": {"mean": 3}}"#,
                "unknown proposal field",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "threshold": "high"}"#,
                "`threshold` must be a number",
            ),
            (
                r#"{"circuit": "gauss_tail", "samples": 5, "analysis": "dc"}"#,
                "does not support",
            ),
        ] {
            let (status, reply) = handle(&request("POST", "/experiments", body), &ctx);
            assert_eq!(status, 400, "body {body:?} gave {}", reply.to_text());
            assert_eq!(error_code(&reply), "bad_request");
            let message = reply
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(
                message.contains(needle),
                "{body:?}: message {message:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn weighted_spec_round_trips_through_submission() {
        let ctx = ctx();
        let body = r#"{"circuit": "gauss_tail", "seed": 5, "samples": 40,
                       "proposal": {"shift": 4.0}, "threshold": 4.0,
                       "sinks": ["wmoments", "whistogram"]}"#;
        let (status, reply) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202, "{}", reply.to_text());
        let run = reply.get("run").unwrap();
        assert_eq!(run.get("analysis").and_then(Json::as_str), Some("is"));
        let spec = &ctx.store.get(1).unwrap().spec;
        assert_eq!(spec.proposal, (4.0, 1.0));
        assert_eq!(spec.threshold, 4.0);
        assert!(spec.want_wmoments && spec.want_whistogram);
        assert!(!spec.want_welford && !spec.want_histogram && !spec.want_tdigest);
    }

    #[test]
    fn unknown_routes_and_methods_are_enveloped() {
        let ctx = ctx();
        let (status, reply) = handle(&request("GET", "/nope", ""), &ctx);
        assert_eq!(status, 404);
        assert_eq!(error_code(&reply), "not_found");
        let (status, reply) = handle(&request("DELETE", "/healthz", ""), &ctx);
        assert_eq!(status, 405);
        assert_eq!(error_code(&reply), "method_not_allowed");
        let (status, reply) = handle(&request("POST", "/runs/1", ""), &ctx);
        assert_eq!(status, 405);
        assert_eq!(error_code(&reply), "method_not_allowed");
        let (status, reply) = handle(&request("GET", "/runs/99", ""), &ctx);
        assert_eq!(status, 404);
        assert_eq!(error_code(&reply), "not_found");
        let (status, reply) = handle(&request("GET", "/runs/abc", ""), &ctx);
        assert_eq!(status, 400);
        assert_eq!(error_code(&reply), "bad_request");
    }

    #[test]
    fn full_queue_rejects_with_503_and_fails_the_record() {
        let cfg = ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        };
        let ctx = ServerCtx::new(&cfg).expect("engine builds");
        let body = r#"{"circuit": "device_idsat", "samples": 5}"#;
        let (status, _) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202);
        let (status, reply) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 503);
        assert_eq!(error_code(&reply), "queue_full");
        // The second record exists but is honestly marked failed, with a
        // structured reason the coordinator can branch on: a full queue
        // is load, so the shard is worth re-issuing.
        let (_, reply) = handle(&request("GET", "/runs/2", ""), &ctx);
        let run = reply.get("run").unwrap();
        assert_eq!(run.get("status").and_then(Json::as_str), Some("failed"));
        let error = run.get("error").expect("failed runs carry a reason");
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("rejected at submission"));
        assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn fatal_failures_are_marked_non_retryable() {
        let ctx = ctx();
        let body = r#"{"circuit": "device_idsat", "samples": 5}"#;
        let (status, _) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202);
        // Simulate registry drift: the worker loop records the engine's
        // fatal classification verbatim.
        ctx.store
            .fail(1, RunFailure::fatal("unknown circuit template `gone`"));
        let (_, reply) = handle(&request("GET", "/runs/1", ""), &ctx);
        let run = reply.get("run").unwrap();
        let error = run.get("error").unwrap();
        assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn held_gets_are_clamped_to_max_wait() {
        // No worker threads run here, so the run stays queued.
        let ctx = ctx();
        let body = r#"{"circuit": "device_idsat", "samples": 5}"#;
        let (status, _) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202);
        let held = Request {
            wait: Some(Duration::from_secs(3600)),
            ..request("GET", "/runs/1", "")
        };
        let started = std::time::Instant::now();
        let (status, reply) = handle(&held, &ctx);
        let elapsed = started.elapsed();
        assert_eq!(status, 200);
        let run = reply.get("run").unwrap();
        assert_eq!(run.get("status").and_then(Json::as_str), Some("queued"));
        assert!(
            elapsed >= MAX_WAIT && elapsed < MAX_WAIT + Duration::from_secs(1),
            "held {elapsed:?}"
        );
        // Other routes ignore the preference.
        let held = Request {
            wait: Some(Duration::from_secs(3600)),
            ..request("GET", "/healthz", "")
        };
        let started = std::time::Instant::now();
        assert_eq!(handle(&held, &ctx).0, 200);
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn shard_total_consistency_is_accepted_when_it_holds() {
        let ctx = ctx();
        let body = r#"{"circuit": "device_idsat", "seed": 1,
                       "shard": {"offset": 80, "len": 20}, "total": 100}"#;
        let (status, reply) = handle(&request("POST", "/experiments", body), &ctx);
        assert_eq!(status, 202, "{}", reply.to_text());
    }
}
