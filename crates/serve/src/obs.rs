//! Per-request observability: request identities, the JSON-lines access
//! log, sliding-window SLOs, the in-flight request table, and
//! slow-request trace capture.
//!
//! The daemon's cumulative counters say how much has happened since
//! boot; this module answers the operator's other two questions — *what
//! is happening right now* (the sliding window and `/debug/requests`)
//! and *what happened to this one request* (the access log and the
//! request id threaded through headers, trace spans, and error bodies).
//!
//! # Cost discipline
//!
//! With no access log and no slow-trace capture configured, a request
//! costs: one id generation (an atomic fetch-add plus a splitmix64
//! round), a handful of relaxed atomic stores on the in-flight entry,
//! one relaxed-atomic window record, and two *uncontended* short mutex
//! sections (registering in / removing from the in-flight table and
//! pushing the completed summary ring). The mutexes are a deliberate,
//! measured deviation from the strict atomics-only rule of
//! `crispr-failpoint`/`crispr-trace`: both critical sections are a
//! handful of pointer moves, and the bench_serve warm-path gate pins
//! the total overhead. Everything else — log formatting, trace
//! synthesis — happens only when explicitly enabled by flags.
//!
//! # The sliding window
//!
//! A ring of [`WINDOW_SLOTS`] one-second buckets, each stamped with the
//! absolute second it currently represents. Recording CASes the stamp
//! forward when the slot is stale (zeroing the counters) and then does
//! relaxed increments; snapshots sum every bucket whose stamp falls in
//! the window. Both sides are lock-free and tolerate the obvious race
//! (a reader can observe a bucket mid-reset), so window gauges are
//! approximate by design — they answer "is p99 drifting", not audits.
//! Latency buckets reuse the log₂ geometry of
//! [`crispr_model::Histogram`] (`bucket i ≤ 2^(i−30)` s), and
//! percentiles interpolate linearly inside the winning bucket.

use crate::cache::fnv1a;
use crispr_failpoint::splitmix64;
use crispr_model::json::escape;
use crispr_model::{Histogram, HISTOGRAM_BUCKETS};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Ring capacity in one-second buckets: the 5-minute window plus slack
/// so a full 300 s of complete seconds always exists while the current
/// second is still filling.
const WINDOW_SLOTS: usize = 310;

/// Stamp value marking a bucket that has never been written.
const EMPTY_SECOND: u64 = u64::MAX;

/// Longest accepted client-supplied `X-Offtarget-Request-Id`.
const MAX_CLIENT_ID: usize = 64;

/// Request lifecycle stages surfaced by `/debug/requests`.
pub(crate) const STAGE_QUEUED: u8 = 0;
pub(crate) const STAGE_SCANNING: u8 = 1;
pub(crate) const STAGE_RESPONDING: u8 = 2;

fn stage_name(stage: u8) -> &'static str {
    match stage {
        STAGE_QUEUED => "queued",
        STAGE_SCANNING => "scanning",
        _ => "responding",
    }
}

/// Validates a client-supplied request id: 1–64 chars drawn from
/// `[A-Za-z0-9._-]`, so ids stay safe in headers, log lines, and
/// slow-trace filenames.
pub(crate) fn sanitize_client_id(raw: &str) -> Option<&str> {
    let ok = !raw.is_empty()
        && raw.len() <= MAX_CLIENT_ID
        && raw.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    ok.then_some(raw)
}

/// The nonzero trace tag for a request id: FNV-1a of the id bytes with
/// the low bit forced, since tag 0 means "no request scope".
pub(crate) fn trace_tag(id: &str) -> u64 {
    fnv1a(id.as_bytes()) | 1
}

/// Observability knobs, carried inside `ServeConfig`.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Access-log destination: a file path, `-` for stdout, or `None`
    /// to disable the log entirely (the zero-overhead default).
    pub access_log: Option<String>,
    /// Size cap before the access log rotates (`file` → `file.1`).
    pub access_log_max_bytes: u64,
    /// Requests slower than this save a per-request trace; `None`
    /// disables capture.
    pub slow_ms: Option<u64>,
    /// Where slow-request traces are written (defaults to the access
    /// log's directory, or the current directory).
    pub slow_trace_dir: Option<String>,
    /// Upper bound on slow-trace files written over the daemon's life.
    pub slow_trace_max: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            access_log: None,
            access_log_max_bytes: 64 * 1024 * 1024,
            slow_ms: None,
            slow_trace_dir: None,
            slow_trace_max: 32,
        }
    }
}

/// How a finished request is classified in the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowClass {
    /// Served (200/206).
    Ok,
    /// Answered 4xx/5xx (other than shed/deadline).
    Error,
    /// Shed at admission with 503.
    Shed,
    /// Deadline tripped (504).
    Deadline,
}

/// One second of the ring: an absolute-second stamp, outcome counters,
/// and a log₂ latency histogram. All relaxed atomics.
struct Bucket {
    second: AtomicU64,
    total: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    deadlines: AtomicU64,
    latency: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            second: AtomicU64::new(EMPTY_SECOND),
            total: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.deadlines.store(0, Ordering::Relaxed);
        for slot in &self.latency {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

/// An aggregated view over the last `window_s` seconds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowSnapshot {
    /// Seconds the snapshot spans.
    pub window_s: u64,
    /// Requests completed in the window (shed included).
    pub total: u64,
    /// 4xx/5xx answers other than shed/deadline.
    pub errors: u64,
    /// Connections shed at admission.
    pub shed: u64,
    /// Requests whose deadline tripped.
    pub deadlines: u64,
    /// Median latency over handled (non-shed) requests, seconds.
    pub p50_s: f64,
    /// 99th-percentile latency over handled requests, seconds.
    pub p99_s: f64,
}

impl WindowSnapshot {
    /// Completed requests per second over the window.
    pub fn qps(&self) -> f64 {
        self.total as f64 / self.window_s.max(1) as f64
    }

    /// Fraction of requests answered 4xx/5xx (deadlines included,
    /// sheds excluded — they have their own rate).
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.errors + self.deadlines) as f64 / self.total as f64
        }
    }

    /// Fraction of requests shed at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.shed as f64 / self.total as f64
        }
    }
}

/// The lock-free ring of per-second buckets. See the module docs.
pub(crate) struct SlidingWindow {
    epoch: Instant,
    buckets: Vec<Bucket>,
}

impl SlidingWindow {
    fn new(epoch: Instant) -> SlidingWindow {
        SlidingWindow { epoch, buckets: (0..WINDOW_SLOTS).map(|_| Bucket::new()).collect() }
    }

    fn now_second(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Claims the bucket for the current second, resetting it if its
    /// stamp is stale. Racy by design: a concurrent reader may see a
    /// partially reset bucket, and two writers racing the CAS both land
    /// in the same (correct) second.
    fn bucket_for(&self, second: u64) -> &Bucket {
        let bucket = &self.buckets[(second % WINDOW_SLOTS as u64) as usize];
        let stamped = bucket.second.load(Ordering::Relaxed);
        if stamped != second
            && bucket
                .second
                .compare_exchange(stamped, second, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            bucket.reset();
        }
        bucket
    }

    /// Records one completed request. Shed requests skip the latency
    /// histogram (they never ran).
    pub fn record(&self, class: WindowClass, latency_s: f64) {
        let bucket = self.bucket_for(self.now_second());
        bucket.total.fetch_add(1, Ordering::Relaxed);
        match class {
            WindowClass::Ok => {}
            WindowClass::Error => {
                bucket.errors.fetch_add(1, Ordering::Relaxed);
            }
            WindowClass::Shed => {
                bucket.shed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            WindowClass::Deadline => {
                bucket.deadlines.fetch_add(1, Ordering::Relaxed);
            }
        }
        bucket.latency[Histogram::bucket_index(latency_s)].fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregates the last `window_s` seconds (current partial second
    /// included).
    pub fn snapshot(&self, window_s: u64) -> WindowSnapshot {
        let now = self.now_second();
        let oldest = (now + 1).saturating_sub(window_s);
        let mut snap = WindowSnapshot { window_s, ..WindowSnapshot::default() };
        let mut latency = [0u64; HISTOGRAM_BUCKETS];
        for bucket in &self.buckets {
            let second = bucket.second.load(Ordering::Relaxed);
            if second == EMPTY_SECOND || second < oldest || second > now {
                continue;
            }
            snap.total += bucket.total.load(Ordering::Relaxed);
            snap.errors += bucket.errors.load(Ordering::Relaxed);
            snap.shed += bucket.shed.load(Ordering::Relaxed);
            snap.deadlines += bucket.deadlines.load(Ordering::Relaxed);
            for (sum, slot) in latency.iter_mut().zip(&bucket.latency) {
                *sum += slot.load(Ordering::Relaxed);
            }
        }
        snap.p50_s = percentile(&latency, 0.50);
        snap.p99_s = percentile(&latency, 0.99);
        snap
    }

    /// The `Retry-After` hint for a shed response: how long until the
    /// admission queue (depth `queued`) drains at the handled-request
    /// rate observed over the last minute, clamped to `[1, 30]` — an
    /// idle or stalled daemon answers the cap, not a lie.
    pub fn retry_after_hint(&self, queued: u64) -> u64 {
        let snap = self.snapshot(60);
        let handled = snap.total.saturating_sub(snap.shed);
        let per_second = handled as f64 / snap.window_s.max(1) as f64;
        if per_second <= 0.0 {
            return 30;
        }
        let secs = ((queued + 1) as f64 / per_second).ceil() as u64;
        secs.clamp(1, 30)
    }
}

/// Percentile estimate over a log₂ bucket array: find the bucket
/// holding the target rank, then interpolate linearly between its
/// bounds (the +Inf bucket is capped at twice the last finite bound).
fn percentile(latency: &[u64; HISTOGRAM_BUCKETS], q: f64) -> f64 {
    let count: u64 = latency.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in latency.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            let lo = if i == 0 { 0.0 } else { Histogram::bucket_bound_s(i - 1) };
            let hi = if i >= HISTOGRAM_BUCKETS - 1 {
                Histogram::bucket_bound_s(HISTOGRAM_BUCKETS - 2) * 2.0
            } else {
                Histogram::bucket_bound_s(i)
            };
            let frac = (rank - seen) as f64 / n as f64;
            return lo + frac * (hi - lo);
        }
        seen += n;
    }
    Histogram::bucket_bound_s(HISTOGRAM_BUCKETS - 2) * 2.0
}

/// Where access-log lines go.
enum LogSink {
    Stdout,
    File { file: File, path: PathBuf, written: u64 },
}

/// The JSON-lines access log: one line per request, size-rotated
/// (`file` → `file.1`, then reopen) so a long-lived daemon cannot fill
/// a disk.
struct AccessLog {
    sink: Mutex<LogSink>,
    max_bytes: u64,
}

impl AccessLog {
    fn open(target: &str, max_bytes: u64) -> io::Result<AccessLog> {
        let sink = if target == "-" {
            LogSink::Stdout
        } else {
            let path = PathBuf::from(target);
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            let written = file.metadata().map(|m| m.len()).unwrap_or(0);
            LogSink::File { file, path, written }
        };
        Ok(AccessLog { sink: Mutex::new(sink), max_bytes: max_bytes.max(1) })
    }

    fn write_line(&self, line: &str) {
        let mut sink = self.sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *sink {
            LogSink::Stdout => {
                let stdout = io::stdout();
                let mut out = stdout.lock();
                let _ = out.write_all(line.as_bytes());
                let _ = out.write_all(b"\n");
            }
            LogSink::File { file, path, written } => {
                let cost = line.len() as u64 + 1;
                if *written > 0 && *written + cost > self.max_bytes {
                    let rotated = PathBuf::from(format!("{}.1", path.display()));
                    let _ = std::fs::rename(&*path, rotated);
                    if let Ok(fresh) = OpenOptions::new().create(true).append(true).open(&*path) {
                        *file = fresh;
                        *written = 0;
                    }
                }
                if file.write_all(line.as_bytes()).is_ok() && file.write_all(b"\n").is_ok() {
                    *written += cost;
                }
            }
        }
    }
}

/// The live-table entry for one request, shared between the worker
/// handling it and `/debug/requests` readers.
pub(crate) struct InflightEntry {
    id: Mutex<String>,
    accepted: Instant,
    stage: AtomicU8,
    route: Mutex<&'static str>,
    /// Nanoseconds after `accepted` at which the request's deadline
    /// trips; 0 when it has none.
    deadline_at_ns: AtomicU64,
}

/// One completed request, kept in the recent ring for
/// `/debug/requests`.
struct Summary {
    id: String,
    route: &'static str,
    status: u16,
    outcome: &'static str,
    engine: String,
    total_s: f64,
    queue_wait_s: f64,
    scan_s: f64,
    finished: Instant,
}

/// How many completed summaries `/debug/requests` retains.
const RECENT_CAPACITY: usize = 32;

/// The daemon-wide observability state, shared by every worker.
pub(crate) struct Obs {
    salt: u64,
    seq: AtomicU64,
    /// The SLO ring; public to the server's metrics/healthz handlers.
    pub window: SlidingWindow,
    log: Option<AccessLog>,
    inflight: Mutex<Vec<Arc<InflightEntry>>>,
    recent: Mutex<VecDeque<Summary>>,
    slow_ms: Option<u64>,
    slow_dir: Option<PathBuf>,
    slow_max: u64,
    slow_saved: AtomicU64,
    /// Index provenance stamped on every log line (`mmap`/`read`/`-`).
    index: &'static str,
    /// Monotonic boot instant, the base for uptime and log timestamps.
    pub started: Instant,
    /// Boot wall-clock, seconds since the Unix epoch.
    pub start_unix_s: f64,
}

impl Obs {
    /// Builds the observability state, opening the access log if one is
    /// configured.
    ///
    /// # Errors
    ///
    /// Failing to open/create the access-log file.
    pub fn new(cfg: &ObsConfig, index: &'static str) -> io::Result<Obs> {
        let started = Instant::now();
        let start_unix_s = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let log = match &cfg.access_log {
            Some(target) => Some(AccessLog::open(target, cfg.access_log_max_bytes)?),
            None => None,
        };
        // Entropy without a dependency: wall-clock nanos whitened
        // through splitmix64, plus ASLR via a stack address.
        let clock = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let stack_probe = 0u8;
        let salt = splitmix64(&mut (clock ^ (std::ptr::from_ref(&stack_probe) as u64)));
        Ok(Obs {
            salt,
            seq: AtomicU64::new(0),
            window: SlidingWindow::new(started),
            log,
            inflight: Mutex::new(Vec::new()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAPACITY)),
            slow_ms: cfg.slow_ms,
            slow_dir: cfg.slow_trace_dir.as_ref().map(PathBuf::from),
            slow_max: cfg.slow_trace_max,
            slow_saved: AtomicU64::new(0),
            index,
            started,
            start_unix_s,
        })
    }

    /// The next request id: a monotonic sequence number plus a salted
    /// splitmix64 suffix (`SEQ8-RAND8` hex), unique per daemon and
    /// unguessable enough that concurrent clients' logs do not collide.
    fn next_id(&self) -> String {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rand = splitmix64(&mut (self.salt ^ seq)) & 0xffff_ffff;
        format!("{seq:08x}-{rand:08x}")
    }

    /// Admits one accepted connection into the observability layer:
    /// generates its id, registers it in the live table (stage
    /// `queued`), and returns the context that will follow the request
    /// through the worker.
    pub fn begin_request(self: &Arc<Obs>, peer: String) -> RequestCtx {
        let entry = Arc::new(InflightEntry {
            id: Mutex::new(self.next_id()),
            accepted: Instant::now(),
            stage: AtomicU8::new(STAGE_QUEUED),
            route: Mutex::new("-"),
            deadline_at_ns: AtomicU64::new(0),
        });
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&entry));
        RequestCtx {
            obs: Arc::clone(self),
            entry,
            peer,
            queue_wait_s: 0.0,
            method: "-",
            engine: String::new(),
            k: -1,
            guides: 0,
            guides_hash: None,
            cache: None,
            scan_s: 0.0,
            bytes_in: 0,
            bytes_out: 0,
            deadline_tripped: false,
            done: false,
        }
    }

    fn unregister(&self, entry: &Arc<InflightEntry>) {
        let mut table = self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        table.retain(|live| !Arc::ptr_eq(live, entry));
    }

    fn remember(&self, summary: Summary) {
        let mut recent = self.recent.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if recent.len() >= RECENT_CAPACITY {
            recent.pop_front();
        }
        recent.push_back(summary);
    }

    /// Renders the `/debug/requests` body: the live request table plus
    /// the recent-completions ring, newest first.
    pub fn debug_requests_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"inflight\": [\n");
        {
            let table = self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (i, entry) in table.iter().enumerate() {
                let id = entry.id.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
                let route = *entry.route.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let age_ns = entry.accepted.elapsed().as_nanos() as u64;
                let deadline_at = entry.deadline_at_ns.load(Ordering::Relaxed);
                let remaining = if deadline_at == 0 {
                    "null".to_string()
                } else {
                    format!("{:.1}", deadline_at.saturating_sub(age_ns) as f64 / 1e6)
                };
                let comma = if i + 1 < table.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"id\":\"{}\",\"route\":\"{}\",\"stage\":\"{}\",\"age_ms\":{:.1},\"deadline_remaining_ms\":{}}}{comma}\n",
                    escape(&id),
                    escape(route),
                    stage_name(entry.stage.load(Ordering::Relaxed)),
                    age_ns as f64 / 1e6,
                    remaining,
                ));
            }
        }
        out.push_str("  ],\n  \"recent\": [\n");
        {
            let recent = self.recent.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (i, s) in recent.iter().rev().enumerate() {
                let comma = if i + 1 < recent.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"id\":\"{}\",\"route\":\"{}\",\"status\":{},\"outcome\":\"{}\",\"engine\":\"{}\",\"total_ms\":{:.3},\"queue_ms\":{:.3},\"scan_ms\":{:.3},\"finished_ago_ms\":{:.1}}}{comma}\n",
                    escape(&s.id),
                    escape(s.route),
                    s.status,
                    s.outcome,
                    escape(&s.engine),
                    s.total_s * 1e3,
                    s.queue_wait_s * 1e3,
                    s.scan_s * 1e3,
                    s.finished.elapsed().as_nanos() as f64 / 1e6,
                ));
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Saves a synthesized per-request Chrome trace for a slow request:
    /// complete (`ph:"X"`) spans for the whole request, its queue wait,
    /// and its scan, tagged with the request id. The span layout is
    /// reconstructed from the context's phase timings, so capture works
    /// even when whole-process tracing is off.
    fn capture_slow_trace(
        &self,
        ctx: &RequestCtx,
        id: &str,
        status: u16,
        total_s: f64,
        outcome: &str,
    ) {
        let Some(dir) = &self.slow_dir else { return };
        if self.slow_saved.fetch_add(1, Ordering::Relaxed) >= self.slow_max {
            return;
        }
        let total_us = total_s * 1e6;
        let queue_us = ctx.queue_wait_s * 1e6;
        let scan_us = ctx.scan_s * 1e6;
        let req = escape(id);
        let mut body = String::with_capacity(512);
        body.push_str("{\"traceEvents\":[");
        body.push_str(
            "{\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"request\"}}",
        );
        body.push_str(&format!(
            ",{{\"ph\":\"X\",\"ts\":0.0,\"dur\":{total_us:.3},\"pid\":1,\"tid\":1,\"name\":\"serve:request\",\"cat\":\"serve\",\"args\":{{\"req\":\"{req}\",\"outcome\":\"{outcome}\",\"status\":{status}}}}}",
        ));
        body.push_str(&format!(
            ",{{\"ph\":\"X\",\"ts\":0.0,\"dur\":{queue_us:.3},\"pid\":1,\"tid\":1,\"name\":\"serve:queued\",\"cat\":\"serve\",\"args\":{{\"req\":\"{req}\"}}}}",
        ));
        if ctx.scan_s > 0.0 {
            let scan_start = (total_us - scan_us).max(queue_us);
            body.push_str(&format!(
                ",{{\"ph\":\"X\",\"ts\":{scan_start:.3},\"dur\":{scan_us:.3},\"pid\":1,\"tid\":1,\"name\":\"serve:scan\",\"cat\":\"serve\",\"args\":{{\"req\":\"{req}\"}}}}",
            ));
        }
        body.push_str("]}\n");
        let path = dir.join(format!("slow-{id}.json"));
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(path, body);
    }

    /// Slow-trace files written so far.
    pub fn slow_traces_saved(&self) -> u64 {
        self.slow_saved.load(Ordering::Relaxed).min(self.slow_max)
    }
}

/// Follows one request from admission to completion. Workers record
/// what they learn (route, engine, scan time) as handling proceeds;
/// dropping the context — on any path, panics included — finalizes the
/// access-log record, the window sample, and the live-table removal.
pub(crate) struct RequestCtx {
    obs: Arc<Obs>,
    entry: Arc<InflightEntry>,
    peer: String,
    /// Seconds spent in the admission queue (set at dequeue).
    pub queue_wait_s: f64,
    /// Request method, once parsed.
    pub method: &'static str,
    /// Engine named by the query (empty until `/search` parses it).
    pub engine: String,
    /// Mismatch budget; −1 until `/search` parses it.
    pub k: i64,
    /// Guides in the request body.
    pub guides: u64,
    /// FNV-1a of the canonical guide serialization.
    pub guides_hash: Option<u64>,
    /// Whether the prepared-search cache hit.
    pub cache: Option<bool>,
    /// Seconds the scan itself took.
    pub scan_s: f64,
    /// Wire bytes read from the client.
    pub bytes_in: u64,
    /// Wire bytes written back.
    pub bytes_out: u64,
    /// Whether the request's deadline tripped (a 504, or a 206 that
    /// degraded to partial results) — the `deadline` outcome.
    pub deadline_tripped: bool,
    done: bool,
}

impl RequestCtx {
    /// The request's current id.
    pub fn id(&self) -> String {
        self.entry.id.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Adopts a (sanitized) client-supplied id in place of the
    /// generated one.
    pub fn adopt_id(&self, id: &str) {
        *self.entry.id.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = id.to_string();
    }

    /// The nonzero tag stamped on this request's trace events.
    pub fn trace_tag(&self) -> u64 {
        trace_tag(&self.id())
    }

    /// Marks the dequeue: records the queue wait and moves the live
    /// entry to stage `scanning`.
    pub fn mark_dequeued(&mut self) {
        self.queue_wait_s = self.entry.accepted.elapsed().as_secs_f64();
        self.entry.stage.store(STAGE_SCANNING, Ordering::Relaxed);
    }

    /// Moves the live entry to stage `responding`.
    pub fn mark_responding(&self) {
        self.entry.stage.store(STAGE_RESPONDING, Ordering::Relaxed);
    }

    /// Records the routed method and path on the live entry.
    pub fn set_route(&mut self, method: &'static str, route: &'static str) {
        self.method = method;
        *self.entry.route.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = route;
    }

    /// Records the request's effective deadline for the live table.
    pub fn set_deadline(&self, budget: std::time::Duration) {
        let at = self.entry.accepted.elapsed() + budget;
        self.entry.deadline_at_ns.store(at.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The route recorded so far (`-` before routing).
    fn route(&self) -> &'static str {
        *self.entry.route.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Finalizes the request: one window sample, one access-log line,
    /// live-table removal, recent-ring entry, and (when configured and
    /// slow enough) a slow-trace capture.
    pub fn finish(mut self, status: u16, outcome: &'static str) {
        self.complete(status, outcome);
    }

    fn complete(&mut self, status: u16, outcome: &'static str) {
        if self.done {
            return;
        }
        self.done = true;
        let total_s = self.entry.accepted.elapsed().as_secs_f64();
        let class = match outcome {
            "shed" => WindowClass::Shed,
            "deadline" => WindowClass::Deadline,
            _ if status >= 400 || status == 0 => WindowClass::Error,
            _ => WindowClass::Ok,
        };
        self.obs.window.record(class, total_s);
        let id = self.id();
        if let Some(log) = &self.obs.log {
            log.write_line(&self.render_log_line(&id, status, outcome, total_s));
        }
        self.obs.unregister(&self.entry);
        self.obs.remember(Summary {
            id: id.clone(),
            route: self.route(),
            status,
            outcome,
            engine: self.engine.clone(),
            total_s,
            queue_wait_s: self.queue_wait_s,
            scan_s: self.scan_s,
            finished: Instant::now(),
        });
        if let Some(slow_ms) = self.obs.slow_ms {
            if class != WindowClass::Shed && total_s * 1e3 >= slow_ms as f64 {
                let obs = Arc::clone(&self.obs);
                obs.capture_slow_trace(self, &id, status, total_s, outcome);
            }
        }
    }

    fn render_log_line(&self, id: &str, status: u16, outcome: &str, total_s: f64) -> String {
        let ts = self.obs.start_unix_s + self.obs.started.elapsed().as_secs_f64();
        let guides_hash = match self.guides_hash {
            Some(hash) => format!("{hash:016x}"),
            None => "-".to_string(),
        };
        let cache = match self.cache {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "-",
        };
        format!(
            "{{\"ts\":{ts:.6},\"id\":\"{}\",\"peer\":\"{}\",\"method\":\"{}\",\"route\":\"{}\",\"status\":{status},\"outcome\":\"{outcome}\",\"engine\":\"{}\",\"k\":{},\"guides\":{},\"guides_hash\":\"{guides_hash}\",\"cache\":\"{cache}\",\"index\":\"{}\",\"queue_wait_s\":{:.6},\"scan_s\":{:.6},\"total_s\":{total_s:.6},\"bytes_in\":{},\"bytes_out\":{}}}",
            escape(id),
            escape(&self.peer),
            self.method,
            escape(self.route()),
            escape(&self.engine),
            self.k,
            self.guides,
            self.obs.index,
            self.queue_wait_s,
            self.scan_s,
            self.bytes_in,
            self.bytes_out,
        )
    }
}

impl Drop for RequestCtx {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // A context dropped without an explicit finish means the worker
        // died mid-request (panic → the supervisor respawns it) or the
        // handling path bailed without answering.
        let outcome = if std::thread::panicking() { "respawned-worker" } else { "dropped" };
        self.complete(0, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn obs(cfg: &ObsConfig) -> Arc<Obs> {
        Arc::new(Obs::new(cfg, "-").expect("obs"))
    }

    #[test]
    fn ids_are_monotonic_plus_random_and_unique() {
        let obs = obs(&ObsConfig::default());
        let a = obs.next_id();
        let b = obs.next_id();
        assert_ne!(a, b);
        assert!(a.starts_with("00000000-"), "{a}");
        assert!(b.starts_with("00000001-"), "{b}");
        assert_eq!(a.len(), 17);
        assert!(sanitize_client_id(&a).is_some(), "generated ids pass their own filter");
    }

    #[test]
    fn client_id_sanitizer_accepts_safe_rejects_hostile() {
        assert_eq!(sanitize_client_id("req-1.2_3"), Some("req-1.2_3"));
        assert!(sanitize_client_id("").is_none());
        assert!(sanitize_client_id("has space").is_none());
        assert!(sanitize_client_id("semi;colon").is_none());
        assert!(sanitize_client_id("../../etc/passwd").is_none());
        assert!(sanitize_client_id(&"a".repeat(65)).is_none());
        assert!(sanitize_client_id(&"a".repeat(64)).is_some());
    }

    #[test]
    fn trace_tags_are_nonzero_and_stable() {
        assert_eq!(trace_tag("abc"), trace_tag("abc"));
        assert_ne!(trace_tag("abc"), trace_tag("abd"));
        assert_ne!(trace_tag(""), 0);
    }

    #[test]
    fn window_records_and_snapshots_classes() {
        let window = SlidingWindow::new(Instant::now());
        for _ in 0..10 {
            window.record(WindowClass::Ok, 0.010);
        }
        window.record(WindowClass::Error, 0.001);
        window.record(WindowClass::Shed, 0.0);
        window.record(WindowClass::Deadline, 0.200);
        let snap = window.snapshot(60);
        assert_eq!(snap.total, 13);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.deadlines, 1);
        assert!(snap.qps() > 0.0);
        assert!((snap.error_rate() - 2.0 / 13.0).abs() < 1e-9);
        assert!((snap.shed_rate() - 1.0 / 13.0).abs() < 1e-9);
        // p50 lands in the bucket containing 10 ms (log₂ bounds), p99
        // in the one containing 200 ms.
        assert!(snap.p50_s > 0.004 && snap.p50_s < 0.032, "p50={}", snap.p50_s);
        assert!(snap.p99_s > 0.1 && snap.p99_s < 0.3, "p99={}", snap.p99_s);
        // Shed requests contribute no latency sample: p99 unaffected by
        // the zero-latency shed above.
        assert!(snap.p99_s >= snap.p50_s);
    }

    #[test]
    fn empty_window_is_all_zeros() {
        let window = SlidingWindow::new(Instant::now());
        let snap = window.snapshot(60);
        assert_eq!(snap.total, 0);
        assert_eq!(snap.p50_s, 0.0);
        assert_eq!(snap.error_rate(), 0.0);
        assert_eq!(snap.qps(), 0.0);
    }

    #[test]
    fn retry_after_hint_is_clamped_and_sane() {
        let window = SlidingWindow::new(Instant::now());
        // No observed drain: answer the cap, not a guess.
        assert_eq!(window.retry_after_hint(5), 30);
        // 120 handled requests over the 60 s window → 2/s drain.
        for _ in 0..120 {
            window.record(WindowClass::Ok, 0.001);
        }
        let hint = window.retry_after_hint(7);
        assert_eq!(hint, 4, "ceil((7+1)/2) = 4");
        assert_eq!(window.retry_after_hint(0), 1);
        assert_eq!(window.retry_after_hint(10_000), 30, "clamped to the cap");
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut latency = [0u64; HISTOGRAM_BUCKETS];
        // All mass in one bucket: percentiles stay within its bounds.
        let idx = Histogram::bucket_index(0.010);
        latency[idx] = 100;
        let p50 = percentile(&latency, 0.50);
        let p99 = percentile(&latency, 0.99);
        let lo = Histogram::bucket_bound_s(idx - 1);
        let hi = Histogram::bucket_bound_s(idx);
        assert!(p50 > lo && p50 <= hi);
        assert!(p99 > p50 && p99 <= hi);
    }

    #[test]
    fn access_log_rotates_at_the_size_cap() {
        let dir = std::env::temp_dir().join(format!("obs-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("access.log.1"));
        let log = AccessLog::open(path.to_str().unwrap(), 64).unwrap();
        let line = "x".repeat(40);
        log.write_line(&line); // 41 bytes
        log.write_line(&line); // would exceed 64: rotate first
        let rotated = std::fs::read_to_string(dir.join("access.log.1")).unwrap();
        let current = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rotated.lines().count(), 1);
        assert_eq!(current.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_ctx_lifecycle_logs_one_line_and_clears_the_table() {
        let dir = std::env::temp_dir().join(format!("obs-ctx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let _ = std::fs::remove_file(&path);
        let cfg = ObsConfig {
            access_log: Some(path.to_str().unwrap().to_string()),
            ..ObsConfig::default()
        };
        let obs = obs(&cfg);
        let mut ctx = obs.begin_request("127.0.0.1:9".to_string());
        assert_eq!(obs.inflight.lock().unwrap().len(), 1);
        ctx.mark_dequeued();
        ctx.set_route("POST", "/search");
        ctx.engine = "cpu-scalar".to_string();
        ctx.k = 3;
        ctx.guides = 2;
        ctx.guides_hash = Some(0xabcd);
        ctx.cache = Some(true);
        ctx.scan_s = 0.005;
        ctx.bytes_in = 100;
        ctx.bytes_out = 200;
        let id = ctx.id();
        ctx.finish(200, "ok");
        assert!(obs.inflight.lock().unwrap().is_empty(), "entry unregistered");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let parsed = crispr_model::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some(id.as_str()));
        assert_eq!(parsed.get("status").and_then(|v| v.as_f64()), Some(200.0));
        assert_eq!(parsed.get("outcome").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(parsed.get("cache").and_then(|v| v.as_str()), Some("hit"));
        assert_eq!(parsed.get("guides_hash").and_then(|v| v.as_str()), Some("000000000000abcd"));
        assert!(obs.debug_requests_json().contains(&id), "completed request in the recent ring");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_ctx_records_a_dropped_outcome() {
        let obs = obs(&ObsConfig::default());
        let ctx = obs.begin_request("p".to_string());
        drop(ctx);
        assert!(obs.inflight.lock().unwrap().is_empty());
        let snap = obs.window.snapshot(60);
        assert_eq!(snap.total, 1);
        assert_eq!(snap.errors, 1, "an unanswered request is an error in the window");
        assert!(obs.debug_requests_json().contains("\"outcome\":\"dropped\""));
    }

    #[test]
    fn slow_requests_capture_a_bounded_number_of_traces() {
        let dir = std::env::temp_dir().join(format!("obs-slow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ObsConfig {
            slow_ms: Some(0),
            slow_trace_dir: Some(dir.to_str().unwrap().to_string()),
            slow_trace_max: 2,
            ..ObsConfig::default()
        };
        let obs = obs(&cfg);
        for _ in 0..4 {
            let mut ctx = obs.begin_request("p".to_string());
            ctx.mark_dequeued();
            ctx.scan_s = 0.001;
            std::thread::sleep(Duration::from_millis(1));
            ctx.finish(200, "ok");
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 2, "capture stops at slow_trace_max");
        assert_eq!(obs.slow_traces_saved(), 2);
        for file in files {
            let text = std::fs::read_to_string(file.unwrap().path()).unwrap();
            let parsed = crispr_model::json::parse(&text).expect("valid JSON");
            let events = parsed.get("traceEvents").and_then(|v| v.as_array()).unwrap();
            assert!(events.len() >= 3, "metadata + request + queued spans");
            assert!(text.contains("\"ph\":\"X\""));
            assert!(text.contains("serve:request"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_requests_json_shows_stage_and_deadline() {
        let obs = obs(&ObsConfig::default());
        let mut ctx = obs.begin_request("peer:1".to_string());
        ctx.mark_dequeued();
        ctx.set_route("POST", "/search");
        ctx.set_deadline(Duration::from_secs(5));
        let body = obs.debug_requests_json();
        let parsed = crispr_model::json::parse(&body).expect("valid JSON");
        let inflight = parsed.get("inflight").and_then(|v| v.as_array()).unwrap();
        assert_eq!(inflight.len(), 1);
        assert_eq!(inflight[0].get("stage").and_then(|v| v.as_str()), Some("scanning"));
        assert_eq!(inflight[0].get("route").and_then(|v| v.as_str()), Some("/search"));
        let remaining = inflight[0].get("deadline_remaining_ms").and_then(|v| v.as_f64()).unwrap();
        assert!(remaining > 0.0 && remaining <= 5000.0, "remaining={remaining}");
        ctx.finish(206, "partial");
        let after = crispr_model::json::parse(&obs.debug_requests_json()).unwrap();
        assert!(after.get("inflight").and_then(|v| v.as_array()).unwrap().is_empty());
        assert_eq!(after.get("recent").and_then(|v| v.as_array()).unwrap().len(), 1);
    }
}
