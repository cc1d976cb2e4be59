//! `statvs serve` — simulation-as-a-service over HTTP.
//!
//! This crate turns the workspace's Monte Carlo engine into a long-running
//! HTTP service with zero external dependencies: a hand-rolled HTTP/1.1
//! layer for both ends of the wire ([`http`]: the server's request parser
//! and the protocol's [`http::HttpClient`] share one framing reader and
//! one whole-message timeout rule), an in-repo JSON codec ([`json`]),
//! structured error envelopes ([`error`]), a template registry and its
//! execution engine ([`pool`]), a run store plus bounded job
//! queue ([`store`]), and an optional disk-backed replay cache that
//! survives restarts ([`cache`], whose keyed-artifact layer fleet's
//! campaign store shares), all on `std::net::TcpListener` and plain
//! threads.
//!
//! The protocol is shard-oriented: a `POST /experiments` body names a
//! circuit template, a seed, and a `{offset, len}` shard of the sample
//! index space. Because every sample is a pure function of `(seed, index)`
//! (solves from a start the template fixes, over
//! [`vscore::mc::ParallelRunner::run_streaming_range`]),
//! disjoint shards posted to *different servers* return mergeable-sketch
//! bytes whose merge is bit-identical to one local run over the union —
//! the server is a fleet building block, not just a remote for-loop.
//!
//! ```no_run
//! use serve::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default()).expect("bind");
//! println!("listening on {}", server.addr());
//! server.run(); // accept loop on this thread
//! ```

pub mod cache;
pub mod error;
pub mod http;
pub mod json;
pub mod pool;
pub mod routes;
pub mod store;

/// The engine every result this server computes comes from; part of
/// every stored artifact's key ([`cache::cache_key`] here, the campaign
/// binding in fleet).
pub use spice::ENGINE_FINGERPRINT;

use cache::ReplayCache;
use error::ApiError;
use http::{read_request, write_json_response, Deadline, HttpError};
use pool::Engine;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use store::{JobQueue, RunFailure, RunStore};

/// Per-connection socket timeout: it bounds reading a whole request (and
/// writing each response chunk), so a stalled or trickling peer cannot
/// pin a connection thread. It is also the longest a held
/// `GET /runs/{id}` waits once its request is read ([`routes::MAX_WAIT`]),
/// so holding a reply pins a thread no longer than trickling a request.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Server tunables. `Default` binds an ephemeral loopback port — the bin
/// target overrides the port explicitly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port on `127.0.0.1`; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Worker threads executing queued shards.
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it get `503`.
    pub queue_capacity: usize,
    /// Largest accepted shard length.
    pub max_samples: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Artifact directory for the replay cache; `None` disables
    /// persistence (results live only in memory, as before).
    pub artifact_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 2,
            queue_capacity: 64,
            max_samples: 1_000_000,
            max_body: 64 * 1024,
            artifact_dir: None,
        }
    }
}

/// The state every connection and worker thread shares.
pub struct ServerCtx {
    /// Template registry and execution engine.
    pub engine: Engine,
    /// Run id → record map.
    pub store: RunStore,
    /// Bounded FIFO feeding the workers.
    pub queue: JobQueue,
    /// Worker-thread count (reported by `/healthz`).
    pub workers: usize,
    /// Largest accepted shard length.
    pub max_samples: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// The replay cache, when an artifact directory is configured.
    pub cache: Option<ReplayCache>,
}

impl ServerCtx {
    /// Builds the shared state, elaborating the circuit templates and
    /// opening the replay cache when configured.
    ///
    /// # Errors
    ///
    /// [`StartError::Engine`] from template elaboration,
    /// [`StartError::Io`] when the artifact directory cannot be created.
    pub fn new(cfg: &ServerConfig) -> Result<Self, StartError> {
        let cache = match &cfg.artifact_dir {
            None => None,
            Some(dir) => Some(ReplayCache::open(dir).map_err(StartError::Io)?),
        };
        Ok(ServerCtx {
            engine: Engine::new().map_err(StartError::Engine)?,
            store: RunStore::new(),
            queue: JobQueue::new(cfg.queue_capacity),
            workers: cfg.workers.max(1),
            max_samples: cfg.max_samples,
            max_body: cfg.max_body,
            cache,
        })
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum StartError {
    /// The listener could not bind.
    Io(std::io::Error),
    /// A circuit template failed to elaborate.
    Engine(spice::SpiceError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "failed to bind listener: {e}"),
            StartError::Engine(e) => write!(f, "failed to elaborate circuit templates: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// A bound (not yet accepting) server: listener plus running worker
/// threads. Consume it with [`Server::run`] (accept on the current
/// thread, for a bin target) or [`Server::start`] (accept on a background
/// thread, returning a [`ServerHandle`] — what tests use).
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, elaborates the templates, and spawns the
    /// worker threads. Jobs cannot arrive until accepting starts.
    ///
    /// # Errors
    ///
    /// [`StartError`] on bind or elaboration failure.
    pub fn bind(cfg: &ServerConfig) -> Result<Server, StartError> {
        let ctx = Arc::new(ServerCtx::new(cfg)?);
        let listener = TcpListener::bind(("127.0.0.1", cfg.port)).map_err(StartError::Io)?;
        let workers = (0..ctx.workers)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || run_worker(&ctx))
            })
            .collect();
        Ok(Server {
            listener,
            ctx,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Runs the accept loop on the current thread; never returns. The
    /// bin target's endpoint.
    pub fn run(self) {
        accept_loop(&self.listener, &self.ctx, &self.shutdown);
        // Unreachable without a shutdown signal, but drain cleanly if the
        // loop ever exits.
        self.ctx.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Runs the accept loop on a background thread and returns a handle
    /// for clean shutdown.
    #[must_use]
    pub fn start(self) -> ServerHandle {
        let addr = self.addr();
        let accept = {
            let ctx = Arc::clone(&self.ctx);
            let shutdown = Arc::clone(&self.shutdown);
            let listener = self.listener;
            std::thread::spawn(move || accept_loop(&listener, &ctx, &shutdown))
        };
        ServerHandle {
            addr,
            ctx: self.ctx,
            shutdown: self.shutdown,
            accept: Some(accept),
            workers: self.workers,
        }
    }
}

/// A running server: address plus the threads to join on shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued jobs, and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; a loopback connection
        // wakes it so it can observe the flag.
        drop(TcpStream::connect(self.addr));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.ctx.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>, shutdown: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let ctx = Arc::clone(ctx);
                std::thread::spawn(move || handle_connection(stream, &ctx));
            }
            // Transient accept failures (peer reset mid-handshake, fd
            // pressure) must not kill the server.
            Err(_) => continue,
        }
    }
}

/// One connection, one exchange: read a request, dispatch, write the
/// response. Panics in route handling are caught and answered with a
/// `500` envelope — the no-panic contract covers the whole request path.
/// Reading the request and any post-error drain share one
/// [`SOCKET_TIMEOUT`] deadline; when it passes, the connection is dropped.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(Deadline::new(&stream, SOCKET_TIMEOUT));
    // On the success path `read_request` consumed the exact body, so the
    // socket can close cleanly. On request-level errors the peer may
    // still be sending a body we refused to buffer — drain it (bounded)
    // after responding, because closing with unread data pending can RST
    // the connection and destroy the error response in flight.
    let mut drain_before_close = false;
    let (status, body) = match read_request(&mut reader, ctx.max_body) {
        Ok(req) => {
            catch_unwind(AssertUnwindSafe(|| routes::handle(&req, ctx))).unwrap_or_else(|_| {
                let e = ApiError::internal();
                (e.status, e.to_json())
            })
        }
        // No usable peer to answer.
        Err(HttpError::Io(_) | HttpError::ConnectionClosed) => return,
        Err(e) => {
            drain_before_close = true;
            let api = ApiError::from(e);
            (api.status, api.to_json())
        }
    };
    let _ = write_json_response(&mut &stream, status, &body.to_text());
    if drain_before_close {
        let _ = std::io::copy(
            &mut std::io::Read::take(reader, 1 << 20),
            &mut std::io::sink(),
        );
    }
}

/// The worker-thread loop: drain the queue until it closes. A panicking
/// shard (there should be none — the engine's error paths are `Result`s)
/// fails its run record instead of killing the worker.
fn run_worker(ctx: &ServerCtx) {
    while let Some(id) = ctx.queue.pop() {
        let Some(record) = ctx.store.get(id) else {
            continue;
        };
        ctx.store.mark_running(id);
        match catch_unwind(AssertUnwindSafe(|| ctx.engine.execute(&record.spec))) {
            Ok(Ok(result)) => {
                // Spill to the replay cache best-effort: a failed write
                // costs a future recomputation, never this result.
                if let Some(cache) = &ctx.cache {
                    let _ = cache.store(&record.spec, &result);
                }
                ctx.store.complete(id, result);
            }
            Ok(Err(failure)) => ctx.store.fail(id, failure),
            // A panic is a bug, but one this worker hit on this shard;
            // re-issuing the pure (seed, offset, len) shard on a
            // healthy worker is safe and can succeed.
            Err(_) => ctx.store.fail(
                id,
                RunFailure::transient("worker panicked while executing the shard"),
            ),
        }
    }
}
