//! The daemon: accept loop, bounded worker pool, request handlers, and
//! graceful drain. See the crate docs for the endpoint table.

use crate::cache::{fnv1a, CacheKey, PreparedCache, PreparedEntry};
use crate::http::{parse_request, ParseError, Request, Response};
use crate::obs::{sanitize_client_id, Obs, ObsConfig, RequestCtx};
use crispr_core::{HitWriter, Platform, SearchReport};
use crispr_engines::{run_scan, CancelToken, Reference, ScanDeployment, DEFAULT_CHUNK_RETRIES};
use crispr_failpoint::FaultPlan;
use crispr_genome::diskindex::GenomeIndex;
use crispr_genome::Genome;
use crispr_guides::{io as guide_io, Guide};
use crispr_model::json::escape;
use crispr_model::names::unknown_value_message;
use crispr_model::SearchMetrics;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolves an `engine=` name to its platform, or the standard
/// unknown-value message listing the valid names. A query may name the
/// measured CPU platforms only: modeled accelerators answer timing
/// questions, not hit queries, and stay in the batch CLI.
pub fn parse_engine(name: &str) -> Result<Platform, String> {
    let servable = || Platform::ALL.into_iter().filter(|p| !p.is_modeled());
    servable().find(|p| p.name() == name).ok_or_else(|| {
        let valid: Vec<&str> = servable().map(Platform::name).collect();
        unknown_value_message("engine", name, &valid)
    })
}

/// Daemon configuration; [`ServeConfig::default`] binds an ephemeral
/// loopback port with a small pool and cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `host:port` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads answering requests (≥ 1).
    pub workers: usize,
    /// Threads each scan fans its genome chunks over (≥ 1).
    pub scan_threads: usize,
    /// Prepared-search cache capacity in entries (≥ 1).
    pub cache_capacity: usize,
    /// Per-chunk retry budget for every scan.
    pub retry_limit: u32,
    /// Whether `POST /search?inject=…` may arm failpoints. Off by
    /// default: fault injection is a test surface, not a public API.
    pub allow_inject: bool,
    /// Engine used when a query names none (a CPU platform; see
    /// [`parse_engine`]).
    pub default_engine: Platform,
    /// Admission-queue depth: connections accepted but not yet claimed
    /// by a worker. When the queue is full, new connections are shed
    /// immediately with `503 + Retry-After` — never accepted-then-
    /// stalled. `None` derives `4 × workers`.
    pub queue_depth: Option<usize>,
    /// Upper bound on a request's `?deadline_ms=`; larger requests are
    /// clamped to this, so one client cannot opt out of the daemon's
    /// wall-clock discipline.
    pub max_deadline: Duration,
    /// Socket read timeout, which also bounds the whole header+body
    /// read phase against slow-loris clients (absolute deadline checked
    /// between reads).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// How many panicked workers the supervisor will respawn over the
    /// daemon's lifetime before letting the pool shrink (a crash-looping
    /// pool should become visible, not thrash forever).
    pub respawn_budget: u32,
    /// Per-request observability knobs (access log, slow-trace capture).
    /// Request ids and the sliding-window SLOs are always on.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            scan_threads: 1,
            cache_capacity: 8,
            retry_limit: DEFAULT_CHUNK_RETRIES,
            allow_inject: false,
            default_engine: Platform::CpuBitParallel,
            queue_depth: None,
            max_deadline: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            respawn_budget: 8,
            obs: ObsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The resolved admission-queue capacity (`queue_depth` or
    /// `4 × workers`, at least 1).
    pub fn queue_capacity(&self) -> usize {
        self.queue_depth.unwrap_or(4 * self.workers.max(1)).max(1)
    }
}

/// Everything the accept loop and workers share.
struct Shared {
    /// The genome every request scans: in memory, or an index scanned
    /// in place.
    reference: Reference,
    contig_names: Vec<String>,
    /// Seconds the caller spent opening and validating the boot index.
    index_load_s: f64,
    cfg: ServeConfig,
    cache: PreparedCache,
    /// Aggregate of every completed search's metrics, for `/metrics`.
    metrics: Mutex<SearchMetrics>,
    requests: AtomicU64,
    partials: AtomicU64,
    errors: AtomicU64,
    inflight: AtomicU64,
    shutdown: AtomicBool,
    /// Connections shed at admission because the queue was full.
    shed: AtomicU64,
    /// Connections currently sitting in the admission queue.
    queued: AtomicU64,
    /// Requests answered 504/206 because their deadline tripped.
    deadlines: AtomicU64,
    /// Panicked workers respawned by the supervisor.
    respawned: AtomicU64,
    /// Resolved admission-queue capacity.
    queue_capacity: usize,
    /// Per-request observability: ids, access log, SLO window,
    /// in-flight table, slow-trace capture.
    obs: Arc<Obs>,
}

/// How an index-booted daemon reads its index (`mmap` or buffered
/// `read`), for the provenance headers and `/metrics` series; `None` for
/// an in-memory genome.
fn index_mode(reference: &Reference) -> Option<&'static str> {
    match reference {
        Reference::Genome(_) => None,
        Reference::Index(index) => Some(if index.mapped() { "mmap" } else { "read" }),
    }
}

/// A running daemon. Dropping the handle does *not* stop the threads —
/// call [`Server::shutdown`] then [`Server::join`] (or let
/// `POST /shutdown` trigger the same flag remotely).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Arc<WorkerPool>,
}

/// The worker handles, shared between [`Server::join`] and the accept
/// loop's supervisor (which joins panicked workers and respawns them).
struct WorkerPool {
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds the listener, spawns the pool, and returns immediately.
    ///
    /// # Errors
    ///
    /// Socket errors from binding `cfg.addr`.
    pub fn start(genome: Genome, cfg: ServeConfig) -> io::Result<Server> {
        Server::start_with(Reference::Genome(genome), 0.0, cfg)
    }

    /// [`Server::start`] from an opened on-disk index, which every
    /// request scans in place (no FASTA parse, no resident unpacked
    /// genome), and every `/search` response carries an
    /// `X-Offtarget-Index: mmap|read` provenance header. `load_s` is how
    /// long the caller's open+validate of the index took, surfaced on
    /// `/metrics` as `offtarget_serve_index_load_seconds`.
    ///
    /// # Errors
    ///
    /// Socket errors from binding `cfg.addr`.
    pub fn start_indexed(
        index: Arc<GenomeIndex>,
        load_s: f64,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        Server::start_with(Reference::Index(index), load_s, cfg)
    }

    fn start_with(reference: Reference, index_load_s: f64, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let source = reference.source();
        let contig_names =
            (0..source.contig_count()).map(|ci| source.contig_name(ci).to_string()).collect();
        let queue_capacity = cfg.queue_capacity();
        let obs = Arc::new(Obs::new(&cfg.obs, index_mode(&reference).unwrap_or("-"))?);
        let shared = Arc::new(Shared {
            reference,
            contig_names,
            index_load_s,
            cache: PreparedCache::new(cfg.cache_capacity),
            cfg,
            metrics: Mutex::new(SearchMetrics::new("serve")),
            requests: AtomicU64::new(0),
            partials: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            queue_capacity,
            obs,
        });

        // Accepted connections flow through a *bounded* channel to the
        // pool — the admission queue. `try_send` on a full queue sheds
        // the connection with 503 instead of queueing it (backpressure
        // at the ingest boundary, never accept-then-stall). On shutdown
        // the accept loop drops the sender, the queue drains, and each
        // worker exits on the disconnect — the graceful drain.
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let pool = Arc::new(WorkerPool {
            handles: Mutex::new(
                (0..shared.cfg.workers.max(1)).map(|_| spawn_worker(&shared, &rx)).collect(),
            ),
        });
        // The daemon's threads share the fault plan of the thread that
        // started it, so arming that plan later reaches them too.
        let accept = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let plan = FaultPlan::current();
            std::thread::spawn(move || {
                let _plan = plan.enter();
                accept_loop(&listener, &tx, &shared, &rx, &pool)
            })
        };
        Ok(Server { shared, local_addr, accept: Some(accept), pool })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins a graceful drain: stop accepting, finish in-flight work.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Waits for the accept loop and every worker to exit (i.e. until a
    /// shutdown — local or via `POST /shutdown` — has fully drained).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop (the only respawner) has exited, so the handle
        // list is final now.
        let handles = std::mem::take(
            &mut *self.pool.handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for worker in handles {
            let _ = worker.join();
        }
    }
}

/// One admitted connection riding the queue: the socket plus the
/// observability context created at accept, so the queue wait is
/// measured from admission, not from dequeue.
struct Job {
    stream: TcpStream,
    ctx: RequestCtx,
}

/// Spawns one pool worker under the calling thread's fault plan (the
/// thread that started the daemon, or the accept thread, which runs
/// under that plan too, when it respawns a worker).
fn spawn_worker(shared: &Arc<Shared>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let rx = Arc::clone(rx);
    let plan = FaultPlan::current();
    std::thread::spawn(move || {
        let _plan = plan.enter();
        worker_loop(&shared, &rx)
    })
}

/// The self-healing pass: joins any worker thread that has died and —
/// when it died of a panic, the daemon is not draining, and the respawn
/// budget is not exhausted — spawns a replacement, keeping the pool at
/// full strength. Runs on the accept thread between accepts.
fn heal_pool(shared: &Arc<Shared>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>, pool: &WorkerPool) {
    let mut handles = pool.handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut i = 0;
    while i < handles.len() {
        if !handles[i].is_finished() {
            i += 1;
            continue;
        }
        let panicked = handles.swap_remove(i).join().is_err();
        let draining = shared.shutdown.load(Ordering::Acquire);
        if panicked
            && !draining
            && shared.respawned.load(Ordering::Relaxed) < u64::from(shared.cfg.respawn_budget)
        {
            shared.respawned.fetch_add(1, Ordering::Relaxed);
            handles.push(spawn_worker(shared, rx));
        }
    }
}

/// Answers a connection the admission queue has no room for: an
/// immediate `503 + Retry-After` written from the accept thread (a few
/// bytes into a fresh socket buffer — it cannot stall the loop, and a
/// short write timeout guards the pathological case). The `Retry-After`
/// hint is derived from the queue drain rate observed over the last
/// minute, clamped to [1, 30] — an idle daemon answers the cap rather
/// than promising a retry window it cannot back up.
fn shed(shared: &Shared, job: Job) {
    let Job { mut stream, mut ctx } = job;
    shared.shed.fetch_add(1, Ordering::Relaxed);
    let retry_after = shared.obs.window.retry_after_hint(shared.queued.load(Ordering::Relaxed));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let id = ctx.id();
    let mut response = Response::text(503, "overloaded: admission queue full, retry later")
        .header("Retry-After", retry_after.to_string())
        .header("X-Offtarget-Request-Id", id.clone());
    stamp_error_body(&mut response, &id);
    let sent = match response.write_to(&mut stream) {
        Ok(n) => {
            ctx.bytes_out = n;
            true
        }
        Err(_) => false,
    };
    ctx.finish(503, "shed");
    if !sent {
        return;
    }
    // Closing with the client's request still unread in the receive
    // queue makes TCP reset the connection, destroying the 503 before
    // the client reads it. Signal end-of-response, then drain what the
    // client sent — briefly, so a misbehaving peer cannot stall
    // admission for longer than the cap.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let drain_deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    while Instant::now() < drain_deadline {
        match io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Admits one accepted connection: failpoint gate, then a non-blocking
/// enqueue that sheds on a full queue.
fn admit(shared: &Shared, tx: &mpsc::SyncSender<Job>, stream: TcpStream) {
    // Chaos site: `error` drops the connection at the door, `panic` is
    // fenced by the accept loop's catch_unwind (the accept thread is the
    // daemon's front door and must survive). Fires before the request
    // gains an identity: a connection dropped at the door was never
    // admitted, so it leaves no access-log line.
    if crispr_failpoint::hit("serve.accept").is_err() {
        return;
    }
    let peer = stream.peer_addr().map_or_else(|_| "-".to_string(), |addr| addr.to_string());
    let ctx = shared.obs.begin_request(peer);
    // Count the slot *before* handing the stream over: a worker may
    // dequeue (and decrement) the instant `try_send` returns, and a
    // post-send increment would let the gauge underflow past zero.
    shared.queued.fetch_add(1, Ordering::Relaxed);
    match tx.try_send(Job { stream, ctx }) {
        Ok(()) => {}
        Err(mpsc::TrySendError::Full(job)) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            shed(shared, job);
        }
        Err(mpsc::TrySendError::Disconnected(job)) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            job.ctx.finish(0, "dropped");
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::SyncSender<Job>,
    shared: &Arc<Shared>,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    pool: &WorkerPool,
) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = catch_unwind(AssertUnwindSafe(|| admit(shared, tx, stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                heal_pool(shared, rx, pool);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping `tx` here disconnects the channel once queued streams
    // are consumed, releasing the workers. One final heal pass joins
    // any already-dead worker so `join` does not wait on a corpse.
    heal_pool(shared, rx, pool);
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    loop {
        // The guard is dropped before handling so one slow scan does not
        // serialize the whole pool.
        let job = match rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        let Job { stream, mut ctx } = job;
        // Stage `scanning` is entered at dequeue — before the failpoint
        // below — so a request stalled by `serve.worker=delay` is
        // visible in `/debug/requests` as an in-flight scan.
        ctx.mark_dequeued();
        // Chaos site: `error` drops the dequeued connection, `panic`
        // kills this worker thread — which is exactly what the
        // supervisor's respawn path is tested against. Deliberately NOT
        // fenced by catch_unwind: the context's Drop records the
        // `respawned-worker` outcome during the unwind.
        if crispr_failpoint::hit("serve.worker").is_err() {
            ctx.finish(0, "dropped");
            continue;
        }
        handle_connection(shared, stream, ctx);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, mut ctx: RequestCtx) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            ctx.finish(0, "disconnect");
            return;
        }
    };
    // Absolute bound on the whole request read (line + headers + body):
    // the socket timeout restarts per successful read, so a slow-loris
    // client trickling bytes would otherwise hold this worker
    // indefinitely.
    let read_deadline = Instant::now() + shared.cfg.read_timeout;
    let mut response = match parse_request(stream, Some(read_deadline)) {
        Ok(request) => {
            ctx.bytes_in = request.bytes_in;
            // A client-supplied id (sanitized: 1–64 chars of
            // `[A-Za-z0-9._-]`) replaces the generated one, so callers
            // can thread their own correlation ids end to end.
            if let Some(id) = request.header("x-offtarget-request-id").and_then(sanitize_client_id)
            {
                ctx.adopt_id(id);
            }
            // Everything this worker records on the timeline while
            // routing — the request span, scan spans, fault instants —
            // carries the request's tag, so one request can be filtered
            // out of a whole-daemon trace. The guards drop before the
            // flush below.
            let _tag = crispr_trace::request_scope(ctx.trace_tag());
            let _span = crispr_trace::span("serve:request");
            route(shared, &request, &mut ctx)
        }
        Err(ParseError::Bad(reason)) => Response::text(400, reason),
        // A dead connection cannot be answered.
        Err(ParseError::Io(_)) => {
            ctx.finish(0, "disconnect");
            return;
        }
    };
    // Pool workers live across requests, so their trace buffers must be
    // flushed per request for a session to collect them; one relaxed
    // load when tracing is off.
    if crispr_trace::enabled() {
        crispr_trace::flush_thread();
    }
    let id = ctx.id();
    response = response.header("X-Offtarget-Request-Id", id.clone());
    if response.status >= 400 {
        stamp_error_body(&mut response, &id);
    }
    ctx.mark_responding();
    // Chaos site: `error` drops the connection before the response is
    // written (the client sees a reset), `panic` kills the worker after
    // the scan completed — both respond-path failure modes.
    if crispr_failpoint::hit("serve.respond").is_err() {
        ctx.finish(response.status, "dropped");
        return;
    }
    match response.write_to(&mut writer) {
        Ok(bytes_out) => {
            ctx.bytes_out = bytes_out;
            let outcome = outcome_for(response.status, ctx.deadline_tripped);
            ctx.finish(response.status, outcome);
        }
        Err(_) => ctx.finish(response.status, "disconnect"),
    }
}

/// The access-log outcome for a written response: the deadline verdict
/// wins (a 206 that degraded because its budget tripped is still a
/// `deadline`), then the status maps to its name.
fn outcome_for(status: u16, deadline_tripped: bool) -> &'static str {
    if status == 504 || deadline_tripped {
        return "deadline";
    }
    match status {
        200 => "ok",
        206 => "partial",
        400 => "bad-request",
        403 => "forbidden",
        404 => "not-found",
        405 => "method-not-allowed",
        500 => "error",
        503 => "unavailable",
        _ => "other",
    }
}

/// Stamps the request id into a 4xx/5xx body, so a client that lost the
/// response headers (a proxy hop, a truncated log paste) can still
/// correlate with the daemon's access log: JSON bodies gain a
/// `"request_id"` member, text bodies a trailing `request-id:` line.
fn stamp_error_body(response: &mut Response, id: &str) {
    if response.body.first() == Some(&b'{') {
        if let Some(pos) = response.body.iter().rposition(|&b| b == b'}') {
            let member = format!(",\"request_id\":\"{}\"", escape(id));
            response.body.splice(pos..pos, member.into_bytes());
        }
    } else {
        response.body.extend_from_slice(format!("request-id: {id}\n").as_bytes());
    }
}

/// The known method names, as `'static` strings for the access log (an
/// arbitrary client string must not reach the log schema).
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "HEAD" => "HEAD",
        "PUT" => "PUT",
        "DELETE" => "DELETE",
        _ => "other",
    }
}

fn route(shared: &Shared, request: &Request, ctx: &mut RequestCtx) -> Response {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    shared.inflight.fetch_add(1, Ordering::Relaxed);
    let route_label = match request.path.as_str() {
        "/search" => "/search",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/shutdown" => "/shutdown",
        "/debug/requests" => "/debug/requests",
        _ => "other",
    };
    ctx.set_route(method_label(&request.method), route_label);
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/search") => handle_search(shared, request, ctx),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/debug/requests") => {
            Response::new(200, "application/json", shared.obs.debug_requests_json().into_bytes())
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::Release);
            Response::text(200, "{\"status\":\"draining\"}")
        }
        ("GET" | "POST", "/search" | "/metrics" | "/healthz" | "/shutdown" | "/debug/requests") => {
            Response::text(405, format!("{} not allowed on {}", request.method, request.path))
        }
        (_, path) => Response::text(404, format!("no such endpoint {path:?}")),
    };
    if response.status >= 400 {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    shared.inflight.fetch_sub(1, Ordering::Relaxed);
    response
}

/// `POST /search?k=K&engine=NAME&format=tsv|json[&deadline_ms=MS][&inject=SPEC]`,
/// guide list (the CLI's guides-file format) as the body. Answers 200
/// with the hit set, or 206 plus `X-Offtarget-Partial: failed/total`
/// when some chunks exhausted their retries — the recovered hits are
/// still in the body, mirroring the CLI's exit code 3. A `deadline_ms`
/// budget (clamped to `--max-deadline`) that trips mid-scan answers 504
/// — or 206 when completed chunks already recovered hits — with
/// `X-Offtarget-Deadline` naming the effective budget.
fn handle_search(shared: &Shared, request: &Request, ctx: &mut RequestCtx) -> Response {
    let k: usize = match request.query_param("k").unwrap_or("3").parse() {
        Ok(k) => k,
        Err(e) => return Response::text(400, format!("bad k: {e}")),
    };
    ctx.k = k as i64;
    let name = request.query_param("engine").unwrap_or(shared.cfg.default_engine.name());
    ctx.engine = name.to_string();
    let engine = match parse_engine(name) {
        Ok(engine) => engine,
        Err(message) => return Response::text(400, message),
    };
    let format = request.query_param("format").unwrap_or("tsv");
    if format != "tsv" && format != "json" {
        return Response::text(400, format!("unknown format {format:?} (tsv|json)"));
    }
    // Armed before the compile so the budget covers the whole request,
    // not just the scan.
    let deadline = match request.query_param("deadline_ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms).min(shared.cfg.max_deadline)),
            Err(e) => return Response::text(400, format!("bad deadline_ms: {e}")),
        },
        None => None,
    };
    let cancel = match deadline {
        Some(budget) => {
            ctx.set_deadline(budget);
            CancelToken::with_deadline(budget)
        }
        None => CancelToken::none(),
    };
    let guides = match guide_io::read_guides(request.body.as_slice()) {
        Ok(guides) => guides,
        Err(e) => return Response::text(400, format!("bad guide list: {e}")),
    };
    ctx.guides = guides.len() as u64;

    // Canonical serialized form of the parsed set, so formatting noise
    // in the request body (comments, blank lines) cannot split the cache.
    let mut canonical = Vec::new();
    let _ = guide_io::write_guides(&mut canonical, &guides);
    let key = CacheKey { guides_hash: fnv1a(&canonical), k, engine };
    ctx.guides_hash = Some(key.guides_hash);

    let (entry, cache_hit) = match shared.cache.get(&key) {
        Some(entry) => (entry, true),
        None => {
            let compile_start = Instant::now();
            let cpu = engine.cpu_engine().expect("parse_engine admits CPU platforms only");
            let prepared = match cpu.prepare(&guides, k) {
                Ok(prepared) => prepared,
                Err(e) => return Response::text(400, format!("cannot compile guides: {e}")),
            };
            let entry = Arc::new(PreparedEntry {
                prepared,
                compile_s: compile_start.elapsed().as_secs_f64(),
            });
            shared.cache.insert(key, Arc::clone(&entry));
            (entry, false)
        }
    };

    // An injected spec is a fresh plan entered for this request's scan
    // only: its faults reach this scan's chunks and no other request's.
    let plan = match request.query_param("inject") {
        Some(_) if !shared.cfg.allow_inject => {
            return Response::text(403, "fault injection disabled (start with --allow-inject)")
        }
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => return Response::text(400, e.to_string()),
        },
        None => None,
    };

    let mut metrics = SearchMetrics::default();
    // Compile-time gauges (DFA states, dispatched SIMD backend, …) live
    // on the prepared search; surface them on every request, cached
    // compiles included.
    entry.prepared.record_gauges(&mut metrics);
    let deployment = ScanDeployment::new(shared.cfg.scan_threads.max(1))
        .with_retry_limit(shared.cfg.retry_limit)
        .with_cancel(cancel.clone());
    ctx.cache = Some(cache_hit);
    let scan_start = Instant::now();
    let outcome = {
        let _plan = plan.as_ref().map(FaultPlan::enter);
        run_scan(entry.prepared.as_ref(), shared.reference.source(), &deployment, &mut metrics)
    };
    ctx.scan_s = scan_start.elapsed().as_secs_f64();
    if !cache_hit {
        // The compile happened this request; hits ride a cached compile
        // for free. This is what the warm/cold latency split measures.
        metrics.phases.guide_compile_s += entry.compile_s;
    }

    let report = match SearchReport::from_scan(
        engine,
        outcome,
        metrics,
        shared.reference.source().total_len(),
        guides.len(),
        k,
    ) {
        Ok(report) => report,
        Err(e) => return Response::text(500, format!("scan failed: {e}")),
    };
    if !report.chunk_failures().is_empty() {
        shared.partials.fetch_add(1, Ordering::Relaxed);
    }
    if report.stopped().is_some() {
        shared.deadlines.fetch_add(1, Ordering::Relaxed);
        ctx.deadline_tripped = true;
    }

    {
        let metrics = report.metrics();
        let mut aggregate =
            shared.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        aggregate.phases.merge(&metrics.phases);
        aggregate.counters.merge(&metrics.counters);
        aggregate.merge_histograms(&metrics.histograms);
        // The dispatched SIMD backend is an identity, not a sum: carry
        // the latest value so `GET /metrics` reports which kernel path
        // scans are actually running.
        if let Some(backend) = metrics.gauge("simd_backend") {
            aggregate.set_gauge("simd_backend", backend);
        }
        aggregate.observe("serve_request_s", scan_start.elapsed().as_secs_f64());
    }

    let deadline_header = || format!("{}ms", deadline.map_or(0, |budget| budget.as_millis()));
    // A tripped deadline with nothing recovered is a clean 504; with
    // recovered hits it degrades to the partial-results contract (206,
    // hits in the body) so finished work is never discarded.
    if let Some(stop) = report.stopped() {
        if report.hits().is_empty() {
            return Response::text(
                504,
                format!(
                    "deadline exceeded after {}/{} chunks (no hits recovered)",
                    stop.chunks_scanned, stop.chunks_total
                ),
            )
            .header("X-Offtarget-Deadline", deadline_header());
        }
    }

    let (body, content_type) = match format {
        "tsv" => (render_tsv(shared, &guides, &report), "text/tab-separated-values; charset=utf-8"),
        _ => (render_json(shared, &guides, &report), "application/json"),
    };
    let mut response =
        Response::new(if report.is_partial() { 206 } else { 200 }, content_type, body)
            .header("X-Offtarget-Cache", if cache_hit { "hit" } else { "miss" })
            .header("X-Offtarget-Hits", report.hits().len().to_string());
    if let Some(mode) = index_mode(&shared.reference) {
        response = response.header("X-Offtarget-Index", mode);
    }
    if let Some(stop) = report.stopped() {
        response = response
            .header(
                "X-Offtarget-Partial",
                format!(
                    "{}/{}",
                    stop.chunks_total.saturating_sub(stop.chunks_scanned),
                    stop.chunks_total
                ),
            )
            .header("X-Offtarget-Deadline", deadline_header());
    } else if report.is_partial() {
        response = response.header(
            "X-Offtarget-Partial",
            format!("{}/{}", report.chunk_failures().len(), report.chunks_total()),
        );
    }
    response
}

/// The CLI's TSV hit format, byte for byte (both write through
/// [`HitWriter`]). Partial responses append the failure provenance as
/// trailing comment lines.
fn render_tsv(shared: &Shared, guides: &[Guide], report: &SearchReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + report.hits().len() * 48);
    let write = |out: &mut Vec<u8>| -> io::Result<()> {
        HitWriter::new(guides, &shared.contig_names).tsv(out, report.hits())?;
        for failure in report.chunk_failures() {
            writeln!(out, "# failed chunk: {failure}")?;
        }
        Ok(())
    };
    write(&mut out).expect("writing to a Vec cannot fail");
    out
}

/// The JSON envelope (engine, k, partial flag, failure provenance)
/// around the CLI's `hits` array and the request's metrics.
fn render_json(shared: &Shared, guides: &[Guide], report: &SearchReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + report.hits().len() * 96);
    let write = |out: &mut Vec<u8>| -> io::Result<()> {
        writeln!(out, "{{")?;
        writeln!(out, "  \"engine\": \"{}\",", escape(report.platform().name()))?;
        writeln!(out, "  \"k\": {},", report.max_mismatches())?;
        writeln!(out, "  \"partial\": {},", report.is_partial())?;
        let failures = report.chunk_failures();
        if !failures.is_empty() {
            writeln!(out, "  \"chunk_failures\": [")?;
            for (i, failure) in failures.iter().enumerate() {
                let comma = if i + 1 < failures.len() { "," } else { "" };
                writeln!(out, "    \"{}\"{comma}", escape(&failure.to_string()))?;
            }
            writeln!(out, "  ],")?;
            writeln!(out, "  \"chunks_total\": {},", report.chunks_total())?;
        }
        HitWriter::new(guides, &shared.contig_names).json_hits(out, report.hits())?;
        writeln!(out, ",\n  \"metrics\": {}\n}}", report.metrics().to_json())
    };
    write(&mut out).expect("writing to a Vec cannot fail");
    out
}

/// Appends one fully annotated Prometheus series: `# HELP`, `# TYPE`,
/// then the sample.
fn push_series(text: &mut String, name: &str, kind: &str, help: &str, value: String) {
    text.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
}

/// Appends one sliding-window gauge family: a `1m` and a `5m` sample
/// under a shared `HELP`/`TYPE` header.
fn push_windowed(text: &mut String, name: &str, help: &str, v1: f64, v5: f64) {
    text.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name}{{window=\"1m\"}} {v1}\n{name}{{window=\"5m\"}} {v5}\n"
    ));
}

/// `GET /metrics`: every aggregated search counter in Prometheus text,
/// plus the daemon's own `offtarget_serve_*` series.
fn handle_metrics(shared: &Shared) -> Response {
    let aggregate =
        shared.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    let mut text = crispr_trace::prom::render(&aggregate);
    push_series(
        &mut text,
        "offtarget_serve_requests_total",
        "counter",
        "Requests routed since boot.",
        shared.requests.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_partial_total",
        "counter",
        "Searches answered 206 with partial results.",
        shared.partials.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_errors_total",
        "counter",
        "Requests answered 4xx/5xx.",
        shared.errors.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_cache_hits_total",
        "counter",
        "Prepared-search cache hits.",
        shared.cache.hits().to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_cache_misses_total",
        "counter",
        "Prepared-search cache misses (each one paid a compile).",
        shared.cache.misses().to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_cache_entries",
        "gauge",
        "Prepared searches currently cached.",
        shared.cache.len().to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_inflight",
        "gauge",
        "Requests being handled right now (this scrape excluded).",
        // This request is itself in flight; report the others.
        shared.inflight.load(Ordering::Relaxed).saturating_sub(1).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_shed_total",
        "counter",
        "Connections shed at admission with 503.",
        shared.shed.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_deadline_total",
        "counter",
        "Requests whose deadline tripped mid-scan (504 or degraded 206).",
        shared.deadlines.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_workers_respawned_total",
        "counter",
        "Panicked pool workers respawned by the supervisor.",
        shared.respawned.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_queue_depth",
        "gauge",
        "Connections sitting in the admission queue.",
        shared.queued.load(Ordering::Relaxed).to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_queue_capacity",
        "gauge",
        "Admission-queue capacity; at depth == capacity new connections shed.",
        shared.queue_capacity.to_string(),
    );
    if let Some(mode) = index_mode(&shared.reference) {
        push_series(
            &mut text,
            "offtarget_serve_index_mmap",
            "gauge",
            "1 when the boot index was memory-mapped, 0 for buffered read.",
            if mode == "mmap" { "1" } else { "0" }.to_string(),
        );
        push_series(
            &mut text,
            "offtarget_serve_index_load_seconds",
            "gauge",
            "Seconds spent opening and validating the boot index.",
            format!("{}", shared.index_load_s),
        );
    }
    // Sliding-window SLOs: one family per quantity, a sample per
    // window, so dashboards can alert on the 1-minute series while the
    // 5-minute one smooths deploy blips.
    let w1 = shared.obs.window.snapshot(60);
    let w5 = shared.obs.window.snapshot(300);
    push_windowed(
        &mut text,
        "offtarget_serve_window_p50_seconds",
        "Median request latency over the window (handled requests).",
        w1.p50_s,
        w5.p50_s,
    );
    push_windowed(
        &mut text,
        "offtarget_serve_window_p99_seconds",
        "99th-percentile request latency over the window (handled requests).",
        w1.p99_s,
        w5.p99_s,
    );
    push_windowed(
        &mut text,
        "offtarget_serve_window_qps",
        "Completed requests per second over the window (sheds included).",
        w1.qps(),
        w5.qps(),
    );
    push_windowed(
        &mut text,
        "offtarget_serve_window_error_rate",
        "Fraction of requests answered 4xx/5xx over the window (sheds excluded).",
        w1.error_rate(),
        w5.error_rate(),
    );
    push_windowed(
        &mut text,
        "offtarget_serve_window_shed_rate",
        "Fraction of requests shed at admission over the window.",
        w1.shed_rate(),
        w5.shed_rate(),
    );
    text.push_str(&format!(
        "# HELP offtarget_build_info Build metadata; the value is always 1.\n\
         # TYPE offtarget_build_info gauge\n\
         offtarget_build_info{{version=\"{}\",git=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        env!("OFFTARGET_GIT_SHA"),
    ));
    push_series(
        &mut text,
        "offtarget_serve_slow_traces_total",
        "counter",
        "Slow-request trace files captured since boot.",
        shared.obs.slow_traces_saved().to_string(),
    );
    push_series(
        &mut text,
        "offtarget_serve_start_time_seconds",
        "gauge",
        "Unix time the daemon booted, in seconds.",
        format!("{:.3}", shared.obs.start_unix_s),
    );
    push_series(
        &mut text,
        "offtarget_serve_uptime_seconds",
        "gauge",
        "Seconds since the daemon booted.",
        format!("{:.3}", shared.obs.started.elapsed().as_secs_f64()),
    );
    Response::new(200, "text/plain; version=0.0.4; charset=utf-8", text.into_bytes())
}

/// `GET /healthz`: 200 when the daemon can take traffic; 503 with
/// `"draining"` once a shutdown has begun, or `"overloaded"` while the
/// admission queue is full — so load balancers stop routing here before
/// requests start getting shed.
fn handle_healthz(shared: &Shared) -> Response {
    let queued = shared.queued.load(Ordering::Relaxed);
    let status = if shared.shutdown.load(Ordering::Acquire) {
        "draining"
    } else if queued >= shared.queue_capacity as u64 {
        "overloaded"
    } else {
        "ok"
    };
    let w1 = shared.obs.window.snapshot(60);
    let body = format!(
        "{{\"status\":\"{status}\",\"genome_bases\":{},\"contigs\":{},\"cache_entries\":{},\"workers\":{},\"queue_depth\":{queued},\"queue_capacity\":{},\"uptime_seconds\":{:.3},\"window_1m\":{{\"qps\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"error_rate\":{:.4},\"shed_rate\":{:.4}}}}}\n",
        shared.reference.source().total_len(),
        shared.contig_names.len(),
        shared.cache.len(),
        shared.cfg.workers,
        shared.queue_capacity,
        shared.obs.started.elapsed().as_secs_f64(),
        w1.qps(),
        w1.p50_s * 1e3,
        w1.p99_s * 1e3,
        w1.error_rate(),
        w1.shed_rate(),
    );
    let status_code = if status == "ok" { 200 } else { 503 };
    Response::new(status_code, "application/json", body.into_bytes())
}
