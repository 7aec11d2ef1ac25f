//! Tier 9: overload and chaos behavior of the serve daemon, plus the
//! cooperative-cancellation invariants it is built on.
//!
//! The pinned contracts:
//!
//! * admission is bounded — a burst beyond the queue answers `503 +
//!   Retry-After` immediately, and every request that *was* admitted
//!   still answers bit-identically to a clean run;
//! * `/healthz` turns 503 (`overloaded`, `draining`) before requests
//!   start failing, and a `POST /shutdown` with requests in flight
//!   completes all of them — zero resets;
//! * a panicked worker is respawned (`workers_respawned_total`) and the
//!   pool returns to full strength;
//! * `?deadline_ms=` answers 504 within the budget, or degrades to 206
//!   with the hits recovered from completed chunks;
//! * a slow-loris client is dropped on the absolute read deadline, not
//!   per-byte socket timeouts;
//! * a deadline-cancelled run reports counters for exactly the chunks it
//!   completed, and a fresh retry is bit-identical to a clean run.

use crispr_offtarget::engines::{
    run_search, BitParallelEngine, CancelToken, ScanDeployment, SearchError,
};
use crispr_offtarget::failpoint::FailScenario;
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::Genome;
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{io as guide_io, Guide, Pam};
use crispr_offtarget::model::SearchMetrics;
use crispr_offtarget::serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes every test in this binary: each drives its daemon into a
/// timed queue state (a stalled worker, a full queue, a drain racing a
/// probe) with windows of tens of milliseconds, which a concurrent
/// test's scans would shift on a small host. Fault plans need no lock:
/// each test arms its own thread's plan, which only its daemon shares.
fn scan_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A genome with planted off-targets and the guide list that finds them
/// (the tier-7 workload, so served answers can be compared across tiers).
fn workload() -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(30_000).seed(17).contigs(2).generate();
    let guides = genset::random_guides(3, 20, &Pam::ngg(), 18);
    let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 2), 19);
    (genome, guides)
}

fn guides_body(guides: &[Guide]) -> Vec<u8> {
    let mut body = Vec::new();
    guide_io::write_guides(&mut body, guides).expect("serialize guides");
    body
}

/// One `Connection: close` round trip; returns (status, headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    try_request(addr, method, target, body).expect("connection dropped")
}

/// Like [`request`], but a connection the daemon drops (shed mid-write,
/// killed worker) is `None` instead of a panic.
fn try_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Option<(u16, HashMap<String, String>, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .ok()?;
    stream.write_all(body).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Some((status, headers, body))
}

fn start(cfg: ServeConfig) -> (Server, SocketAddr) {
    let (genome, _) = workload();
    let server = Server::start(genome, cfg).expect("start server");
    let addr = server.local_addr();
    (server, addr)
}

/// The value of one `offtarget_serve_*` series in a `/metrics` scrape.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    String::from_utf8_lossy(&body)
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("series {name} missing from /metrics"))
}

#[test]
fn burst_beyond_the_queue_sheds_503_and_admitted_requests_stay_exact() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 1, queue_depth: Some(1), ..ServeConfig::default() };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    // The clean reference answer, before any slowdown is armed.
    let (status, _, reference) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);
    assert!(reference.len() > 40, "workload must produce hits");

    // One slow worker, one queue slot, eight simultaneous clients: the
    // overflow must be shed immediately, never accepted-then-stalled.
    let scenario = FailScenario::setup("serve.worker=delay150");
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || request(addr, "POST", "/search?k=3", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    drop(scenario);

    let mut served = 0;
    let mut shed = 0;
    for (status, headers, response) in outcomes {
        match status {
            200 => {
                served += 1;
                assert_eq!(response, reference, "admitted answers are bit-identical");
            }
            503 => {
                shed += 1;
                // The hint is derived from the observed queue drain
                // rate, clamped to [1, 30].
                let retry_after: u64 = headers
                    .get("retry-after")
                    .expect("shed responses carry Retry-After")
                    .parse()
                    .expect("Retry-After is an integer");
                assert!(
                    (1..=30).contains(&retry_after),
                    "Retry-After {retry_after} outside [1, 30]"
                );
            }
            other => panic!("burst must answer 200 or 503, got {other}"),
        }
    }
    assert!(served >= 1, "the admitted requests complete");
    assert!(shed >= 1, "the overflow is shed");
    assert_eq!(metric(addr, "offtarget_serve_shed_total"), shed);

    // The daemon is whole again after the burst.
    let (status, _, response) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);
    assert_eq!(response, reference);
    let (status, _, _) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn healthz_reports_overloaded_while_the_queue_is_full() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 1, queue_depth: Some(2), ..ServeConfig::default() };
    let (server, addr) = start(cfg);

    // The probe is dequeued instantly, then stalls 400 ms before being
    // handled — while it sleeps, two more requests fill the queue, so
    // the probe's answer reflects a full admission queue.
    let scenario = FailScenario::setup("serve.worker=delay400");
    let (probe, rest) = std::thread::scope(|scope| {
        let probe = scope.spawn(move || request(addr, "GET", "/healthz", &[]));
        std::thread::sleep(Duration::from_millis(100));
        let fillers: Vec<_> =
            (0..2).map(|_| scope.spawn(move || request(addr, "GET", "/healthz", &[]))).collect();
        (
            probe.join().expect("probe thread"),
            fillers.into_iter().map(|h| h.join().expect("filler thread")).collect::<Vec<_>>(),
        )
    });
    drop(scenario);

    let (status, _, body) = probe;
    let text = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("\"status\":\"overloaded\""), "{text}");
    assert!(text.contains("\"queue_capacity\":2"), "{text}");
    // The queued probes drain and see a no-longer-full queue.
    for (status, _, body) in rest {
        let text = String::from_utf8_lossy(&body);
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_with_requests_in_flight_completes_all_of_them() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    let (status, _, reference) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);

    // Four in-flight scans, then a shutdown racing them: every admitted
    // request must complete bit-identically — zero resets.
    let scenario = FailScenario::setup("serve.worker=delay200");
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || request(addr, "POST", "/search?k=3", &body))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(80));
        let (status, _, drain) = request(addr, "POST", "/shutdown", &[]);
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&drain).contains("draining"));
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    drop(scenario);

    for (status, _, response) in outcomes {
        assert_eq!(status, 200, "in-flight requests survive the drain");
        assert_eq!(response, reference, "drained answers are bit-identical");
    }
    server.join();
}

#[test]
fn healthz_reports_draining_during_shutdown() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let (server, addr) = start(cfg);

    // The shutdown is dequeued first and stalls 300 ms; the health probe
    // is admitted behind it and handled after the drain flag is set.
    let scenario = FailScenario::setup("serve.worker=delay300");
    let (drain, probe) = std::thread::scope(|scope| {
        let drain = scope.spawn(move || request(addr, "POST", "/shutdown", &[]));
        std::thread::sleep(Duration::from_millis(100));
        let probe = scope.spawn(move || request(addr, "GET", "/healthz", &[]));
        (drain.join().expect("drain thread"), probe.join().expect("probe thread"))
    });
    drop(scenario);

    assert_eq!(drain.0, 200);
    let (status, _, body) = probe;
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("\"status\":\"draining\""), "{text}");
    server.join();
}

#[test]
fn panicked_worker_is_respawned_and_the_pool_recovers() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    let (status, _, reference) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);

    // Exactly one dequeue panics: that connection is dropped and the
    // worker thread dies.
    let scenario = FailScenario::setup("serve.worker=panic:1.0,0,1");
    let killed = try_request(addr, "POST", "/search?k=3", &body);
    assert!(
        killed.is_none() || killed.as_ref().map(|(s, _, _)| *s) != Some(200),
        "the request on the killed worker must not succeed"
    );
    drop(scenario);

    // The supervisor notices the corpse from the accept loop and
    // respawns within its budget.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if metric(addr, "offtarget_serve_workers_respawned_total") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "respawn not observed within 5s");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Full strength again: two concurrent scans answer exactly.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || request(addr, "POST", "/search?k=3", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for (status, _, response) in outcomes {
        assert_eq!(status, 200);
        assert_eq!(response, reference);
    }

    server.shutdown();
    server.join();
}

#[test]
fn deadline_zero_answers_504_with_the_deadline_header() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig::default());
    let (_, guides) = workload();

    let (status, headers, body) =
        request(addr, "POST", "/search?k=3&deadline_ms=0", &guides_body(&guides));
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 504, "{text}");
    assert_eq!(headers.get("x-offtarget-deadline").map(String::as_str), Some("0ms"));
    assert!(text.contains("deadline exceeded"), "{text}");
    assert_eq!(metric(addr, "offtarget_serve_deadline_total"), 1);

    server.shutdown();
    server.join();
}

#[test]
fn deadline_mid_scan_degrades_to_206_with_recovered_hits() {
    let _serial = scan_lock();
    let cfg = ServeConfig { workers: 1, allow_inject: true, ..ServeConfig::default() };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    let (status, _, reference) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);
    let reference: Vec<&[u8]> = reference.split(|&b| b == b'\n').collect();

    // Two contigs → two chunks on one scan thread. The first chunk is
    // delayed past the 60 ms budget, so the second is never scanned:
    // the hits recovered from chunk one come back as 206.
    let (status, headers, served) =
        request(addr, "POST", "/search?k=3&deadline_ms=60&inject=parallel.chunk=delay120", &body);
    let text = String::from_utf8_lossy(&served).into_owned();
    assert_eq!(status, 206, "{text}");
    assert_eq!(headers.get("x-offtarget-deadline").map(String::as_str), Some("60ms"));
    assert_eq!(headers.get("x-offtarget-partial").map(String::as_str), Some("1/2"));
    let rows: Vec<&[u8]> =
        served.split(|&b| b == b'\n').filter(|r| !r.is_empty() && r[0] != b'#').collect();
    let advertised: usize =
        headers.get("x-offtarget-hits").and_then(|h| h.parse().ok()).expect("hits header");
    assert_eq!(rows.len(), advertised);
    assert!(!rows.is_empty(), "completed chunks' hits are recovered: {text}");
    for row in &rows {
        assert!(reference.contains(row), "recovered hits are a subset of the clean answer");
    }

    // The same daemon answers whole once the budget is gone.
    let (status, _, _) = request(addr, "POST", "/search?k=3", &body);
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_is_dropped_on_the_absolute_read_deadline() {
    let _serial = scan_lock();
    let cfg = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(250),
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);

    // Trickle one header byte every 100 ms — each byte resets the
    // per-read socket timeout, so only the absolute deadline can end
    // this connection.
    let start_t = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").expect("request line");
    let mut reader = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        for _ in 0..60 {
            if stream.write_all(b"X").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
    let held = start_t.elapsed();
    writer.join().expect("writer thread");
    assert!(sink.is_empty(), "a request that never completed gets no response");
    assert!(
        held < Duration::from_secs(3),
        "connection must be bounded by the read deadline, held {held:?}"
    );

    // The worker is free again.
    let (status, _, _) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn a_failed_index_write_leaves_no_torn_file_behind() {
    let _serial = scan_lock();
    use crispr_offtarget::genome::diskindex::GenomeIndex;
    let (genome, _) = workload();
    let dir = std::env::temp_dir().join(format!("offtarget-overload-idx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("genome.idx");
    let tmp = dir.join("genome.idx.tmp");
    let index = GenomeIndex::build(&genome, 8).expect("build index");

    // A write that dies mid-flight must leave neither a torn target nor
    // a stale staging file.
    let scenario = FailScenario::setup("index.write=error");
    index.write_to(&path).expect_err("injected write fault");
    drop(scenario);
    assert!(!path.exists(), "no target file appears on a failed write");
    assert!(!tmp.exists(), "the staging file is cleaned up");

    // A good write over a pre-existing index is atomic: the old bytes
    // stay valid until the rename promotes the new ones, and a fault in
    // a *re*-write leaves the existing file untouched.
    index.write_to(&path).expect("clean write");
    let before = std::fs::read(&path).expect("read index");
    let scenario = FailScenario::setup("index.write=error");
    index.write_to(&path).expect_err("injected re-write fault");
    drop(scenario);
    assert_eq!(std::fs::read(&path).expect("read index"), before, "old index survives");
    assert!(!tmp.exists());
    GenomeIndex::open(&path).expect("the surviving index validates");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_run_reports_only_completed_chunks_and_a_retry_is_clean() {
    let _serial = scan_lock();
    let (genome, guides) = workload();
    // Small chunks so the deadline lands mid-run with several chunks done.
    let engine = BitParallelEngine::new();
    let deployment = ScanDeployment::new(2).with_chunk_len(4_000);
    let search = |deployment: &ScanDeployment, m: &mut SearchMetrics| {
        run_search(&engine, &guides, 3, (&genome).into(), deployment, m)
    };

    let mut clean_m = SearchMetrics::default();
    let clean_hits = search(&deployment, &mut clean_m).unwrap();
    assert!(!clean_hits.is_empty());

    // Every chunk stalls 60 ms; the 150 ms deadline trips with some
    // chunks scanned and some never started.
    let scenario = FailScenario::setup("parallel.chunk=delay60");
    let token = CancelToken::with_deadline(Duration::from_millis(150));
    let mut cancelled_m = SearchMetrics::default();
    let err = search(&deployment.clone().with_cancel(token), &mut cancelled_m)
        .expect_err("the deadline must trip");
    drop(scenario);
    assert!(matches!(err, SearchError::DeadlineExceeded { .. }), "{err}");
    let (hits, chunks_scanned, chunks_total, deadline) = err.into_cancelled().unwrap();
    assert!(deadline);
    assert!(chunks_scanned > 0, "some chunks complete before the trip");
    assert!(chunks_scanned < chunks_total, "some chunks are never started");
    for hit in &hits {
        assert!(
            clean_hits.binary_search(hit).is_ok(),
            "recovered hits are a subset of the clean answer"
        );
    }
    // Counters meter only the work that happened: a cancelled run can
    // never report more scanning than the clean run it is a prefix of.
    assert!(cancelled_m.counters.windows_scanned > 0);
    assert!(cancelled_m.counters.windows_scanned <= clean_m.counters.windows_scanned);

    // The retry contract (the PR-4 invariant extended to cancellation):
    // a fresh run after a cancelled one is bit-identical to a run that
    // was never cancelled — hits and counters.
    let mut retry_m = SearchMetrics::default();
    let retry_hits = search(&deployment, &mut retry_m).unwrap();
    assert_eq!(retry_hits, clean_hits);
    assert_eq!(retry_m.counters, clean_m.counters);
}
