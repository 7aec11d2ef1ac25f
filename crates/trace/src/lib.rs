//! Event-level tracing for the off-target search pipeline.
//!
//! [`crispr_model::SearchMetrics`] answers *how much* — summed phase
//! spans and counters. This crate answers *when* and *where*: every
//! instrumented site records begin/end/instant events into a per-thread
//! buffer with monotonic timestamps, so a run can be replayed as a
//! timeline — which worker scanned which chunk, where a retry landed,
//! when a failpoint fired, when an accelerator build degraded. The
//! [`chrome`] module renders the event stream as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` or Perfetto, one track per
//! worker thread); the [`prom`] module renders a finished
//! `SearchMetrics` in Prometheus text format; the [`progress`] module
//! carries live scan progress to a reporter thread.
//!
//! # Cost discipline
//!
//! Tracing follows the same rule as `crispr-failpoint`: a site in the
//! pipeline costs **one relaxed atomic load** when tracing is disabled
//! ([`enabled`] is the entire fast path), so spans can sit on chunk and
//! contig boundaries of the hot pipeline permanently, without a feature
//! gate. When enabled, recording is lock-free: each thread appends to
//! its own thread-local buffer, which is flushed into the global
//! collector when the thread exits (or on [`flush_thread`]). Only
//! *naming* a thread or interning a dynamic event name takes a lock,
//! and both happen once per thread / per distinct name.
//!
//! # Event model
//!
//! Events are fixed-size and copyable: a kind (span begin, span end,
//! instant), an interned name, a nanosecond timestamp against the trace
//! epoch, and two untyped `u64` arguments whose meaning is per-name
//! (chunk spans carry `(contig, offset)`). Span begin/end pairs nest
//! per thread exactly like call frames, which is what makes the Chrome
//! rendering a flame graph per worker.
//!
//! # Sessions
//!
//! [`TraceSession`] is the RAII entry point: it serializes sessions
//! process-wide (tests run concurrently), arms the failpoint fire
//! observer so injected faults appear on the timeline, enables
//! recording, and on [`TraceSession::finish`] disables recording and
//! drains every flushed buffer into a [`TraceData`].

#![warn(missing_docs)]

pub mod chrome;
pub mod progress;
pub mod prom;

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// What one event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome `ph:"B"`).
    Begin,
    /// A span closed (Chrome `ph:"E"`).
    End,
    /// A point event (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event. Fixed-size and `Copy` so recording never
/// allocates; names are `&'static str` (interned once for dynamic
/// names such as failpoint sites).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (first enable in the process).
    pub ts_ns: u64,
    /// Stable per-thread id (dense, assigned at first record).
    pub tid: u32,
    /// Begin, end, or instant.
    pub kind: EventKind,
    /// Event name; a `category:detail` convention maps onto Chrome's
    /// `cat` field (e.g. `kernel:bitparallel`, `fault:parallel.chunk`).
    pub name: &'static str,
    /// First untyped argument (chunk spans: contig index).
    pub arg0: u64,
    /// Second untyped argument (chunk spans: base offset).
    pub arg1: u64,
    /// Request tag of the serving request this event belongs to, or 0
    /// when no request scope was active on the recording thread (batch
    /// runs, daemon housekeeping). See [`request_scope`].
    pub req: u64,
}

/// Everything one trace session collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// All events, stably sorted by timestamp (per-thread order is
    /// preserved for equal timestamps, so span nesting survives).
    pub events: Vec<Event>,
    /// `(tid, name)` for every thread that gave itself a name.
    pub thread_names: Vec<(u32, String)>,
    /// Events discarded because a thread buffer hit its cap.
    pub dropped: u64,
}

/// Per-thread event cap; past it events are counted as dropped rather
/// than grown without bound (a trace is a diagnostic, not a database).
const MAX_THREAD_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Collected events from exited/flushed threads.
#[derive(Default)]
struct Collected {
    events: Vec<Event>,
    thread_names: Vec<(u32, String)>,
    dropped: u64,
}

fn collected() -> &'static Mutex<Collected> {
    static COLLECTED: OnceLock<Mutex<Collected>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Collected::default()))
}

/// Locks a mutex, adopting a poisoned guard: every structure guarded
/// here is plain data that stays consistent across an unwind.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Interns a dynamic string, returning a `'static` reference. Used for
/// rare, low-cardinality names (failpoint sites, degradation sites,
/// derived engine names); the backing storage is leaked deliberately
/// and deduplicated.
pub fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = lock_unpoisoned(INTERNED.get_or_init(|| Mutex::new(HashSet::new())));
    match set.get(name) {
        Some(&s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// The per-thread buffer; flushed into [`collected`] on thread exit.
struct ThreadBuf {
    tid: u32,
    name: Option<String>,
    events: Vec<Event>,
    dropped: u64,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: None,
            events: Vec::new(),
            dropped: 0,
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() && self.dropped == 0 && self.name.is_none() {
            return;
        }
        let mut global = lock_unpoisoned(collected());
        global.events.append(&mut self.events);
        global.dropped += self.dropped;
        self.dropped = 0;
        if let Some(name) = self.name.take() {
            global.thread_names.push((self.tid, name));
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
    /// The request tag stamped on every event this thread records; 0
    /// outside any request scope. Written by the serving layer around
    /// each request so spans and fault instants can be attributed to
    /// the one request their worker was handling.
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one-load fast path: is tracing on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn record(kind: EventKind, name: &'static str, arg0: u64, arg1: u64) {
    let ts_ns = epoch().elapsed().as_nanos() as u64;
    let req = current_request();
    // A recursive record (e.g. from a TLS destructor) or an
    // already-destroyed TLS slot silently drops the event.
    let _ = THREAD_BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.events.len() >= MAX_THREAD_EVENTS {
            buf.dropped += 1;
            return;
        }
        let tid = buf.tid;
        buf.events.push(Event { ts_ns, tid, kind, name, arg0, arg1, req });
    });
}

/// The request tag currently stamped on this thread's events (0 outside
/// any [`request_scope`]).
#[inline]
pub fn current_request() -> u64 {
    CURRENT_REQUEST.try_with(std::cell::Cell::get).unwrap_or(0)
}

/// An active per-thread request scope; restores the previous tag on
/// drop, so nested scopes (a daemon worker tracing its own housekeeping
/// mid-request) unwind correctly.
#[must_use = "a request scope un-tags the thread when dropped"]
#[derive(Debug)]
pub struct RequestTag {
    prev: u64,
}

impl Drop for RequestTag {
    fn drop(&mut self) {
        let _ = CURRENT_REQUEST.try_with(|cell| cell.set(self.prev));
    }
}

/// Tags every event the current thread records until the guard drops
/// with `tag` — the serving layer's request-id hash, so one request's
/// spans and fault instants can be pulled out of a whole-daemon
/// timeline. Costs one TLS write per scope; the tag is only read inside
/// `record`, which is reached only while tracing is enabled.
#[inline]
pub fn request_scope(tag: u64) -> RequestTag {
    let prev = CURRENT_REQUEST.try_with(|cell| cell.replace(tag)).unwrap_or(0);
    RequestTag { prev }
}

/// An open span; records the matching end event on drop.
#[must_use = "a span guard ends its span when dropped"]
#[derive(Debug)]
pub struct Span {
    name: Option<&'static str>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(EventKind::End, name, 0, 0);
        }
    }
}

/// Opens a span (no-op when tracing is disabled).
#[inline]
pub fn span(name: &'static str) -> Span {
    span_args(name, 0, 0)
}

/// Opens a span with two untyped arguments.
#[inline]
pub fn span_args(name: &'static str, arg0: u64, arg1: u64) -> Span {
    if !enabled() {
        return Span { name: None };
    }
    record(EventKind::Begin, name, arg0, arg1);
    Span { name: Some(name) }
}

/// Opens a span whose name is only known at runtime (interned).
#[inline]
pub fn span_dyn(name: &str) -> Span {
    if !enabled() {
        return Span { name: None };
    }
    let name = intern(name);
    record(EventKind::Begin, name, 0, 0);
    Span { name: Some(name) }
}

/// Records a point event (no-op when tracing is disabled).
#[inline]
pub fn instant(name: &'static str, arg0: u64, arg1: u64) {
    if !enabled() {
        return;
    }
    record(EventKind::Instant, name, arg0, arg1);
}

/// Records a point event with a runtime name (interned).
#[inline]
pub fn instant_dyn(name: &str) {
    if !enabled() {
        return;
    }
    record(EventKind::Instant, intern(name), 0, 0);
}

/// Names the current thread's track in the exported timeline.
pub fn name_thread(name: &str) {
    if !enabled() {
        return;
    }
    let _ = THREAD_BUF.try_with(|buf| buf.borrow_mut().name = Some(name.to_string()));
}

/// Flushes the current thread's buffer into the global collector.
/// Worker threads flush automatically at exit; the session owner calls
/// this (via [`TraceSession::finish`]) to include its own events.
pub fn flush_thread() {
    let _ = THREAD_BUF.try_with(|buf| buf.borrow_mut().flush());
}

/// The failpoint fire observer: puts every fired fault on the timeline
/// as a `fault:<site>` instant on the firing thread, carrying the fault
/// kind (and delay length) as arguments so the timeline distinguishes a
/// panic from an injected stall without cross-referencing the spec.
fn fault_fired(fire: crispr_failpoint::FireEvent<'_>) {
    if !enabled() {
        return;
    }
    let (kind_code, delay_ms) = match fire.kind {
        crispr_failpoint::FailKind::Panic => (1, 0),
        crispr_failpoint::FailKind::Error => (2, 0),
        crispr_failpoint::FailKind::Delay(ms) => (3, ms),
    };
    record(EventKind::Instant, intern(&format!("fault:{}", fire.site)), kind_code, delay_ms);
}

/// An exclusive tracing session. See the crate docs.
#[derive(Debug)]
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Takes the process-wide session lock, clears any stale buffered
    /// events, arms the failpoint observer, and enables recording.
    pub fn start() -> TraceSession {
        static SESSION_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = lock_unpoisoned(SESSION_LOCK.get_or_init(|| Mutex::new(())));
        crispr_failpoint::set_fire_observer(fault_fired);
        flush_thread();
        *lock_unpoisoned(collected()) = Collected::default();
        ENABLED.store(true, Ordering::Release);
        TraceSession { _guard: guard }
    }

    /// Disables recording and drains everything collected so far.
    /// Threads that recorded events must have exited (or called
    /// [`flush_thread`]) for their events to be included; the calling
    /// thread is flushed automatically.
    pub fn finish(self) -> TraceData {
        ENABLED.store(false, Ordering::Release);
        flush_thread();
        let mut global = lock_unpoisoned(collected());
        let collected = std::mem::take(&mut *global);
        drop(global);
        let mut data = TraceData {
            events: collected.events,
            thread_names: collected.thread_names,
            dropped: collected.dropped,
        };
        // Stable: per-thread order (and thus span nesting) survives ties.
        data.events.sort_by_key(|e| e.ts_ns);
        data.thread_names.sort();
        data
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // A session abandoned without finish() must not leave recording
        // armed for unrelated code.
        ENABLED.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_record_nothing() {
        // No session: every call is the fast path.
        assert!(!enabled());
        let _span = span("idle");
        instant("idle.instant", 1, 2);
        drop(span_args("idle.args", 3, 4));
        let session = TraceSession::start();
        let data = session.finish();
        assert!(data.events.is_empty(), "pre-session events leaked: {:?}", data.events);
    }

    #[test]
    fn spans_balance_and_nest_per_thread() {
        let session = TraceSession::start();
        {
            let _outer = span_args("outer", 7, 8);
            let _inner = span("inner");
            instant("tick", 1, 2);
        }
        let data = session.finish();
        let kinds: Vec<(EventKind, &str)> = data.events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Begin, "outer"),
                (EventKind::Begin, "inner"),
                (EventKind::Instant, "tick"),
                (EventKind::End, "inner"),
                (EventKind::End, "outer"),
            ]
        );
        assert_eq!(data.events[0].arg0, 7);
        assert_eq!(data.events[0].arg1, 8);
        let tid = data.events[0].tid;
        assert!(data.events.iter().all(|e| e.tid == tid), "one thread, one track");
        // Timestamps are monotone non-decreasing after the sort.
        assert!(data.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn worker_threads_get_distinct_tracks_and_names() {
        let session = TraceSession::start();
        std::thread::scope(|scope| {
            for i in 0..3 {
                scope.spawn(move || {
                    name_thread(&format!("worker-{i}"));
                    drop(span_args("chunk", i, 100 * i));
                    // The scope unblocks when this closure returns, which
                    // can be before the thread's TLS destructor flushes;
                    // flush explicitly (as the scan driver's workers do) so
                    // finish() below is guaranteed to see these events.
                    flush_thread();
                });
            }
        });
        let data = session.finish();
        let mut tids: Vec<u32> = data.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "three workers, three tracks: {:?}", data.events);
        assert_eq!(data.thread_names.len(), 3);
        for (tid, _) in &data.thread_names {
            assert!(tids.contains(tid));
        }
        // Each track holds exactly one balanced begin/end pair.
        for tid in tids {
            let per: Vec<EventKind> =
                data.events.iter().filter(|e| e.tid == tid).map(|e| e.kind).collect();
            assert_eq!(per, vec![EventKind::Begin, EventKind::End]);
        }
    }

    #[test]
    fn failpoint_fires_appear_as_fault_instants() {
        let scenario = crispr_failpoint::FailScenario::setup("trace.test.site=error");
        let session = TraceSession::start();
        assert!(crispr_failpoint::hit("trace.test.site").is_err());
        let data = session.finish();
        drop(scenario);
        let fault = data
            .events
            .iter()
            .find(|e| e.kind == EventKind::Instant && e.name == "fault:trace.test.site")
            .unwrap_or_else(|| panic!("fault instant missing: {:?}", data.events));
        assert_eq!(fault.arg0, 2, "error-kind faults carry kind code 2");
    }

    #[test]
    fn request_scope_tags_events_and_restores_on_drop() {
        let session = TraceSession::start();
        instant("untagged", 0, 0);
        {
            let _outer = request_scope(0xfeed);
            drop(span("tagged"));
            {
                let _inner = request_scope(0xbeef);
                instant("inner", 0, 0);
            }
            instant("outer-again", 0, 0);
        }
        instant("after", 0, 0);
        let data = session.finish();
        let req_of = |name: &str| {
            data.events.iter().find(|e| e.name == name).map(|e| e.req).expect("event recorded")
        };
        assert_eq!(req_of("untagged"), 0);
        assert_eq!(req_of("tagged"), 0xfeed);
        assert_eq!(req_of("inner"), 0xbeef);
        assert_eq!(req_of("outer-again"), 0xfeed, "nested scope restores the outer tag");
        assert_eq!(req_of("after"), 0, "dropping the scope un-tags the thread");
        assert_eq!(current_request(), 0);
    }

    #[test]
    fn fault_instants_inherit_the_request_tag() {
        let scenario = crispr_failpoint::FailScenario::setup("trace.tag.site=error");
        let session = TraceSession::start();
        {
            let _tag = request_scope(77);
            assert!(crispr_failpoint::hit("trace.tag.site").is_err());
        }
        let data = session.finish();
        drop(scenario);
        let fault = data
            .events
            .iter()
            .find(|e| e.name == "fault:trace.tag.site")
            .expect("fault instant recorded");
        assert_eq!(fault.req, 77, "the fault landed inside the request scope");
    }

    #[test]
    fn interning_deduplicates() {
        assert!(std::ptr::eq(intern("same-name"), intern("same-name")));
        assert_ne!(intern("a-name"), intern("b-name"));
    }

    #[test]
    fn dynamic_spans_and_instants_record() {
        let session = TraceSession::start();
        drop(span_dyn("build:prefilter"));
        instant_dyn("degrade:multiseed.build");
        let data = session.finish();
        let names: Vec<&str> = data.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["build:prefilter", "build:prefilter", "degrade:multiseed.build"]);
    }
}
