//! The `statvs` command-line entry point.
//!
//! Three subcommands: `statvs serve` boots the simulation-as-a-service
//! HTTP server from `crates/serve` on a loopback port and runs its accept
//! loop on the main thread; `statvs fleet` is the matching coordinator —
//! it shards one experiment across serve workers (spawned locally or
//! already running), re-issues shards lost to dead or stalled workers,
//! and merges the returned sketch bytes into one campaign result; and
//! `statvs export` decodes a persisted artifact (a campaign shard or a
//! replay-cache entry) to CSV or PSF text for external tools.
//!
//! With `--artifact-dir`, both long-running commands persist: the server
//! spills finished runs to a replay cache that survives restarts, and the
//! fleet saves completed shards, so rerunning a campaign with the same
//! directory recomputes only what was in flight when it died.
//!
//! ```text
//! statvs serve [--port N] [--workers N] [--queue N] [--artifact-dir DIR]
//! statvs fleet --circuit ID --samples N [--shards N] [--seed N]
//!              [--worker HOST:PORT]... [--spawn N] [--threads N]
//!              [--retries N] [--deadline SECS]
//!              [--histogram LO:HI:BINS] [--tdigest COMPRESSION]
//!              [--artifact-dir DIR]
//! statvs export <artifact.svaf> [--csv|--psf]
//! ```

use fleet::coordinator::FleetEvent;
use fleet::{CampaignStore, Coordinator, FleetConfig, FleetSpec, LocalWorker};
use serve::{Server, ServerConfig};
use stats::artifact::{section_tag, Artifact};
use stats::codec::Reader;
use stats::histogram::Histogram;
use stats::sink::{MergeableSink, WelfordSink};
use stats::{TDigest, WeightedHistogram, WeightedMoments};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: statvs <serve|fleet|export> [flags]

  serve       start the simulation-as-a-service HTTP server on 127.0.0.1
  --port N    TCP port to listen on           (default 7878; 0 = ephemeral)
  --workers N worker threads executing shards (default 2)
  --queue N   bounded job-queue capacity      (default 64)
  --artifact-dir DIR    replay cache directory: finished runs are spilled
                        to disk and identical resubmissions are served
                        from it (cached: true), across restarts

  fleet       run one experiment as shards across serve workers, with
              retry on worker death and deterministic sketch merging
  --circuit ID          circuit template (see GET /circuits)    [required]
  --samples N           total Monte Carlo samples               [required]
  --shards N            shard count                  (default: 4 per worker)
  --seed N              base RNG seed                           (default 0)
  --analysis NAME       analysis kind              (default: template's own)
  --worker HOST:PORT    an already-running worker; repeatable
  --spawn N             spawn N local `statvs serve` children   (default 2
                        when no --worker is given)
  --threads N           worker threads per spawned child        (default 2)
  --retries N           dispatch attempts per shard             (default 5)
  --deadline SECS       per-shard straggler deadline            (default 300)
  --histogram LO:HI:BINS  explicit histogram    (default: template's own)
  --tdigest COMPRESSION   explicit t-digest compression (default: server's)
  --artifact-dir DIR    persist completed shards into DIR; rerunning with
                        the same DIR resumes: saved shards are not
                        re-dispatched, and the merged result is
                        bit-identical to an uninterrupted run

  export      decode a persisted artifact to text on stdout
  statvs export <artifact.svaf> [--csv|--psf]
  --csv       section,kind,field,value rows               (default)
  --psf       PSF-style HEADER/VALUE/END text for CAD-tool interop";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_command(&args[1..]),
        Some("fleet") => fleet_command(&args[1..]),
        Some("export") => export_command(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn serve_command(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig {
        port: 7878,
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--port" => parse_into(it.next(), flag, |v| cfg.port = v),
            "--workers" => parse_into(it.next(), flag, |v: usize| cfg.workers = v.max(1)),
            "--queue" => parse_into(it.next(), flag, |v: usize| cfg.queue_capacity = v.max(1)),
            "--artifact-dir" => take(it.next(), flag, |v| {
                cfg.artifact_dir = Some(PathBuf::from(v));
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(message) = parsed {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let server = match Server::bind(&cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("statvs serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "statvs serve: listening on http://{} ({} workers, queue {})",
        server.addr(),
        cfg.workers,
        cfg.queue_capacity
    );
    server.run();
    ExitCode::SUCCESS
}

/// Everything `statvs fleet` parses from its flags.
struct FleetArgs {
    circuit: Option<String>,
    analysis: Option<String>,
    samples: Option<usize>,
    shards: Option<usize>,
    seed: u64,
    workers: Vec<SocketAddr>,
    spawn: Option<usize>,
    threads: usize,
    retries: usize,
    deadline: Duration,
    histogram: Option<(f64, f64, usize)>,
    tdigest: Option<f64>,
    artifact_dir: Option<PathBuf>,
}

fn fleet_command(args: &[String]) -> ExitCode {
    let mut a = FleetArgs {
        circuit: None,
        analysis: None,
        samples: None,
        shards: None,
        seed: 0,
        workers: Vec::new(),
        spawn: None,
        threads: 2,
        retries: 5,
        deadline: Duration::from_secs(300),
        histogram: None,
        tdigest: None,
        artifact_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--circuit" => take(it.next(), flag, |v| a.circuit = Some(v)),
            "--analysis" => take(it.next(), flag, |v| a.analysis = Some(v)),
            "--samples" => parse_into(it.next(), flag, |v| a.samples = Some(v)),
            "--shards" => parse_into(it.next(), flag, |v: usize| a.shards = Some(v.max(1))),
            "--seed" => parse_into(it.next(), flag, |v| a.seed = v),
            "--worker" => parse_into(it.next(), flag, |v| a.workers.push(v)),
            "--spawn" => parse_into(it.next(), flag, |v: usize| a.spawn = Some(v.max(1))),
            "--threads" => parse_into(it.next(), flag, |v: usize| a.threads = v.max(1)),
            "--retries" => parse_into(it.next(), flag, |v: usize| a.retries = v.max(1)),
            "--deadline" => parse_into(it.next(), flag, |v: u64| {
                a.deadline = Duration::from_secs(v.max(1));
            }),
            "--histogram" => match it.next().map(|raw| (raw, parse_histogram_flag(raw))) {
                Some((_, Some(spec))) => {
                    a.histogram = Some(spec);
                    Ok(())
                }
                Some((raw, None)) => Err(format!("--histogram `{raw}` is not LO:HI:BINS")),
                None => Err("--histogram needs a LO:HI:BINS value".to_string()),
            },
            "--tdigest" => parse_into(it.next(), flag, |v| a.tdigest = Some(v)),
            "--artifact-dir" => take(it.next(), flag, |v| {
                a.artifact_dir = Some(PathBuf::from(v));
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(message) = parsed {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let (Some(circuit), Some(samples)) = (a.circuit.clone(), a.samples) else {
        eprintln!("fleet needs --circuit and --samples\n{USAGE}");
        return ExitCode::FAILURE;
    };

    // Boot local children when asked to — or when no workers were named
    // at all, so the zero-config invocation just works. The handles stay
    // alive (and kill their children on drop) for the whole campaign.
    let spawn_count = a.spawn.unwrap_or(if a.workers.is_empty() { 2 } else { 0 });
    let mut children: Vec<LocalWorker> = Vec::with_capacity(spawn_count);
    if spawn_count > 0 {
        let binary = match std::env::current_exe() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("statvs fleet: cannot locate own binary to spawn workers: {e}");
                return ExitCode::FAILURE;
            }
        };
        for _ in 0..spawn_count {
            match LocalWorker::spawn(&binary, a.threads) {
                Ok(worker) => {
                    println!("statvs fleet: spawned worker on http://{}", worker.addr());
                    children.push(worker);
                }
                Err(e) => {
                    eprintln!("statvs fleet: failed to spawn worker: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut workers = a.workers.clone();
    workers.extend(children.iter().map(LocalWorker::addr));

    let spec = FleetSpec {
        circuit,
        analysis: a.analysis.clone(),
        seed: a.seed,
        total: samples,
        histogram: a.histogram,
        tdigest_compression: a.tdigest,
    };
    let cfg = FleetConfig {
        max_attempts: a.retries,
        shard_deadline: a.deadline,
        ..FleetConfig::default()
    };
    let coordinator = match Coordinator::new(workers, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("statvs fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shard_count = a.shards.unwrap_or(4 * coordinator.workers().len());
    let plan = vscore::mc::plan_shards(samples, shard_count);
    println!(
        "statvs fleet: {samples} samples as {} shards over {} workers",
        plan.len(),
        coordinator.workers().len()
    );

    let store = match &a.artifact_dir {
        Some(dir) => match CampaignStore::open(dir, &spec) {
            Ok(store) => {
                println!("statvs fleet: saving completed shards to {}", dir.display());
                Some(store)
            }
            Err(e) => {
                eprintln!(
                    "statvs fleet: cannot open artifact dir {}: {e}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut observe = |event: &FleetEvent| match event {
        FleetEvent::Dispatched {
            shard,
            worker,
            run_id,
            attempt,
        } => println!("  shard {shard} -> {worker} (run {run_id}, attempt {attempt})"),
        FleetEvent::Completed { shard, worker } => println!("  shard {shard} done on {worker}"),
        FleetEvent::Retrying {
            shard,
            attempt,
            reason,
            ..
        } => println!("  shard {shard} re-issued (attempt {attempt} failed: {reason})"),
        FleetEvent::Restored { shard } => {
            println!("  shard {shard} restored from artifact store (not re-dispatched)");
        }
        FleetEvent::RestoreSkipped { artifact, reason } => {
            println!("  artifact {artifact} ignored ({reason}); shard will recompute");
        }
    };
    let report = match &store {
        Some(store) => coordinator.run_shards_resumable(&spec, &plan, store, &mut observe),
        None => coordinator.run_shards(&spec, &plan, &mut observe),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("statvs fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    let merged = &report.merged;
    let moments = &merged.moments;
    println!(
        "statvs fleet: merged {} shards in {:.2?} ({} dispatches, {} re-issues, {} restored, {} duplicate payloads dropped)",
        merged.shards,
        report.wall,
        report.dispatches,
        report.reissues,
        report.restored,
        merged.deduplicated
    );
    println!(
        "  observed {}  failures {}  mean {:.6e}  std {:.6e}  min {:.6e}  max {:.6e}",
        merged.observed,
        merged.failures,
        moments.mean(),
        moments.variance().sqrt(),
        moments.min(),
        moments.max()
    );
    if let Some(tdigest) = &merged.tdigest {
        let q = |p| tdigest.quantile(p).unwrap_or(f64::NAN);
        println!(
            "  p50 {:.6e}  p95 {:.6e}  p99 {:.6e}",
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    ExitCode::SUCCESS
}

/// Output shape for `statvs export`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExportFormat {
    Csv,
    Psf,
}

fn export_command(args: &[String]) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut format = ExportFormat::Csv;
    for arg in args {
        match arg.as_str() {
            "--csv" => format = ExportFormat::Csv,
            "--psf" => format = ExportFormat::Psf,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => {
                if path.is_some() {
                    eprintln!("export takes exactly one artifact path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                path = Some(PathBuf::from(other));
            }
        }
    }
    let Some(path) = path else {
        eprintln!("export needs an artifact path\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("statvs export: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    let sections = match Artifact::from_bytes(&bytes) {
        Ok(artifact) => artifact.sections,
        Err(e) => {
            eprintln!(
                "statvs export: {} is not a readable artifact: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let decoded: Vec<(String, Vec<(String, String)>)> =
        sections.iter().map(|s| section_rows(s)).collect();
    match format {
        ExportFormat::Csv => {
            println!("section,kind,field,value");
            for (i, (kind, rows)) in decoded.iter().enumerate() {
                for (field, value) in rows {
                    println!("{i},{kind},{field},{}", csv_field(value));
                }
            }
        }
        ExportFormat::Psf => {
            println!("HEADER");
            println!("\"PSFversion\" \"1.00\"");
            println!("\"statvs artifact\" \"{}\"", path.display());
            println!("\"sections\" \"{}\"", decoded.len());
            println!("TYPE");
            println!("\"value\" FLOAT DOUBLE");
            println!("VALUE");
            for (i, (kind, rows)) in decoded.iter().enumerate() {
                for (field, value) in rows {
                    if value.parse::<f64>().is_ok() {
                        println!("\"{kind}[{i}].{field}\" {value}");
                    } else {
                        println!("\"{kind}[{i}].{field}\" \"{value}\"");
                    }
                }
            }
            println!("END");
        }
    }
    ExitCode::SUCCESS
}

/// Quotes a CSV field only when it needs it.
fn csv_field(value: &str) -> String {
    if value.contains(',') || value.contains('"') || value.contains('\n') {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

fn row(field: impl Into<String>, value: impl ToString) -> (String, String) {
    (field.into(), value.to_string())
}

/// Decodes one artifact section into a `(kind, [(field, value)])` table.
/// Decode failures become an `invalid` row instead of aborting the whole
/// export — the tool's job is to show what is in the file.
fn section_rows(payload: &[u8]) -> (String, Vec<(String, String)>) {
    match try_section_rows(payload) {
        Ok(decoded) => decoded,
        Err(e) => ("invalid".to_string(), vec![row("error", e)]),
    }
}

#[allow(clippy::too_many_lines)]
fn try_section_rows(
    payload: &[u8],
) -> Result<(String, Vec<(String, String)>), stats::codec::CodecError> {
    use stats::codec::CodecError;
    let Some(tag) = section_tag(payload) else {
        return Err(CodecError::Truncated);
    };
    Ok(match tag {
        b'W' => {
            let m = WelfordSink::from_bytes(payload)?.moments();
            (
                "welford".to_string(),
                vec![
                    row("count", m.count()),
                    row("mean", m.mean()),
                    row("variance", m.variance()),
                    row("std", m.std()),
                    row("min", m.min()),
                    row("max", m.max()),
                ],
            )
        }
        b'H' => {
            let h = Histogram::from_bytes(payload)?;
            let mut rows = vec![
                row("lo", h.lo()),
                row("hi", h.hi()),
                row("bins", h.counts().len()),
                row("bin_width", h.bin_width()),
                row("total", h.total()),
            ];
            let density = h.density();
            for (i, (&count, &dens)) in h.counts().iter().zip(&density).enumerate() {
                rows.push(row(format!("bin{i:04}_center"), h.bin_center(i)));
                rows.push(row(format!("bin{i:04}_count"), count));
                rows.push(row(format!("bin{i:04}_density"), dens));
            }
            ("histogram".to_string(), rows)
        }
        b'T' => {
            let t = TDigest::from_bytes(payload)?;
            let mut rows = vec![
                row("count", t.count()),
                row("min", t.min()),
                row("max", t.max()),
                row("centroids", t.centroid_count()),
            ];
            for (label, p) in [
                ("p01", 0.01),
                ("p05", 0.05),
                ("p10", 0.10),
                ("p25", 0.25),
                ("p50", 0.50),
                ("p75", 0.75),
                ("p90", 0.90),
                ("p95", 0.95),
                ("p99", 0.99),
                ("p999", 0.999),
            ] {
                if let Some(q) = t.quantile(p) {
                    rows.push(row(label, q));
                }
            }
            ("tdigest".to_string(), rows)
        }
        b'I' => {
            let w = WeightedMoments::from_bytes(payload)?;
            (
                "weighted_moments".to_string(),
                vec![
                    row("count", w.count()),
                    row("estimate", w.estimate()),
                    row("variance", w.variance()),
                    row("std_error", w.std_error()),
                    row("ess", w.ess()),
                    row("total_weight", w.total_weight()),
                ],
            )
        }
        b'G' => {
            let h = WeightedHistogram::from_bytes(payload)?;
            let mut rows = vec![
                row("lo", h.lo()),
                row("hi", h.hi()),
                row("bins", h.counts().len()),
                row("bin_width", h.bin_width()),
                row("total", h.total()),
                row("total_mass", h.total_mass()),
            ];
            let masses = h.masses();
            for (i, (&count, &mass)) in h.counts().iter().zip(&masses).enumerate() {
                rows.push(row(format!("bin{i:04}_center"), h.bin_center(i)));
                rows.push(row(format!("bin{i:04}_count"), count));
                rows.push(row(format!("bin{i:04}_mass"), mass));
            }
            ("weighted_histogram".to_string(), rows)
        }
        b'P' => {
            let mut r = Reader::with_header(payload, b'P')?;
            let rows = vec![
                row("offset", r.take_u64()?),
                row("len", r.take_u64()?),
                row("observed", r.take_u64()?),
                row("failures", r.take_u64()?),
            ];
            r.finish()?;
            ("shard_meta".to_string(), rows)
        }
        b'K' => {
            let mut r = Reader::with_header(payload, b'K')?;
            let key = String::from_utf8_lossy(&r.take_bytes()?).into_owned();
            r.finish()?;
            ("key".to_string(), vec![row("key", key)])
        }
        b'R' => {
            let mut r = Reader::with_header(payload, b'R')?;
            let rows = vec![
                row("observed", r.take_u64()?),
                row("failures", r.take_u64()?),
                row("count", r.take_u64()?),
                row("mean", r.take_f64()?),
                row("variance", r.take_f64()?),
            ];
            r.finish()?;
            ("run_meta".to_string(), rows)
        }
        other => (
            "unknown".to_string(),
            vec![
                row("tag", (other as char).to_string()),
                row("bytes", payload.len()),
            ],
        ),
    })
}

/// Parses `LO:HI:BINS` into a histogram spec.
fn parse_histogram_flag(raw: &str) -> Option<(f64, f64, usize)> {
    let mut parts = raw.split(':');
    let lo: f64 = parts.next()?.parse().ok()?;
    let hi: f64 = parts.next()?.parse().ok()?;
    let bins: usize = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(lo.is_finite() && hi.is_finite() && lo < hi) || bins == 0 {
        return None;
    }
    Some((lo, hi, bins))
}

/// Takes one flag value as a string.
fn take(value: Option<&String>, flag: &str, apply: impl FnOnce(String)) -> Result<(), String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    apply(raw.clone());
    Ok(())
}

/// Parses one flag value, feeding the parsed number to `apply`.
fn parse_into<T: std::str::FromStr>(
    value: Option<&String>,
    flag: &str,
    apply: impl FnOnce(T),
) -> Result<(), String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let parsed = raw
        .parse()
        .map_err(|_| format!("{flag} value `{raw}` is not a valid number"))?;
    apply(parsed);
    Ok(())
}
