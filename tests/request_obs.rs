//! Tier 10: per-request observability of the serve daemon — request
//! identities, the JSON-lines access log, sliding-window SLOs, and the
//! in-flight introspection surface.
//!
//! The pinned contracts:
//!
//! * every response carries an `X-Offtarget-Request-Id`: generated in
//!   `SEQ8-RAND8` hex form, or the client's own id echoed back when it
//!   passes the sanitizer, and stamped into every 4xx/5xx body;
//! * the id threads into the request's trace spans — a whole-daemon
//!   trace can be filtered down to one request by its tag;
//! * with `--access-log` set, every admitted request produces exactly
//!   one schema-valid JSON line — served, shed, and deadline-tripped
//!   alike — and the log rotates at its size cap instead of growing;
//! * the sliding-window gauges on `/metrics` (and the `window_1m`
//!   summary on `/healthz`) track observed latency, and every exposed
//!   series carries `# HELP` and `# TYPE` headers;
//! * `/debug/requests` shows a stalled scan while it is stalled, and
//!   remembers completions after;
//! * requests slower than `--slow-ms` leave a loadable Chrome trace.

use crispr_offtarget::failpoint::FailScenario;
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::Genome;
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{io as guide_io, Guide, Pam};
use crispr_offtarget::model::json::{self, Value};
use crispr_offtarget::serve::{ObsConfig, ServeConfig, Server};
use crispr_offtarget::trace::TraceSession;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes every test in this binary: the trace collector is
/// process-global, so one test's trace session must not collect another
/// test's requests, and the window-gauge tests time injected stalls.
/// Fault plans need no lock: each test arms its own thread's plan, which
/// only its daemon shares.
fn scan_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The tier-7/9 workload, so served answers stay comparable across
/// tiers.
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

/// One `Connection: close` round trip with arbitrary extra headers;
/// returns (status, headers, body).
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header/body split");
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    request_with_headers(addr, method, target, &[], body)
}

fn start(cfg: ServeConfig) -> (Server, SocketAddr) {
    let (genome, _) = workload();
    let server = Server::start(genome, cfg).expect("start server");
    let addr = server.local_addr();
    (server, addr)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offtarget-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The id header of a response, which every response must carry.
fn response_id(headers: &HashMap<String, String>) -> String {
    headers.get("x-offtarget-request-id").expect("X-Offtarget-Request-Id header").clone()
}

/// A generated id is `SEQ8-RAND8`: 17 chars of lowercase hex around one
/// dash.
fn assert_generated_id(id: &str) {
    assert_eq!(id.len(), 17, "generated id {id:?}");
    let (seq, rand) = id.split_once('-').expect("SEQ-RAND form");
    for part in [seq, rand] {
        assert_eq!(part.len(), 8);
        assert!(part.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()), "{id:?}");
    }
}

/// The trace tag the daemon derives from a request id (FNV-1a 64 with
/// the low bit forced nonzero) — recomputed here so the test pins the
/// published mapping, not a re-export.
fn expected_tag(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash | 1
}

/// One gauge sample (optionally labeled) from a `/metrics` scrape.
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from /metrics"))
}

#[test]
fn every_response_carries_an_id_and_errors_repeat_it_in_the_body() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig::default());

    // A bare request gets a generated id.
    let (status, headers, _) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);
    assert_generated_id(&response_id(&headers));

    // A well-formed client id is adopted and echoed verbatim.
    let (_, headers, _) = request_with_headers(
        addr,
        "GET",
        "/healthz",
        &[("X-Offtarget-Request-Id", "client-req.1_A")],
        &[],
    );
    assert_eq!(response_id(&headers), "client-req.1_A");

    // A hostile id is discarded: the response carries a generated one.
    let (_, headers, _) = request_with_headers(
        addr,
        "GET",
        "/healthz",
        &[("X-Offtarget-Request-Id", "../../etc/passwd")],
        &[],
    );
    assert_generated_id(&response_id(&headers));

    // Text error bodies gain a trailing `request-id:` line...
    let (status, headers, body) = request(addr, "GET", "/nope", &[]);
    assert_eq!(status, 404);
    let id = response_id(&headers);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains(&format!("request-id: {id}")), "{text}");

    // ...and ids survive into 400s from the parse path too.
    let (_, guides) = workload();
    let (status, headers, body) = request_with_headers(
        addr,
        "POST",
        "/search?k=banana",
        &[("X-Offtarget-Request-Id", "bad-k-req")],
        &guides_body(&guides),
    );
    assert_eq!(status, 400);
    assert_eq!(response_id(&headers), "bad-k-req");
    assert!(String::from_utf8_lossy(&body).contains("request-id: bad-k-req"));

    server.shutdown();
    server.join();
}

#[test]
fn the_request_id_tags_the_trace_spans_of_exactly_that_request() {
    let _serial = scan_lock();
    let (_, guides) = workload();
    let body = guides_body(&guides);
    // At one scan thread the request's own worker drains every chunk; at
    // two the chunks run on scan workers, which inherit the tag.
    for scan_threads in [1, 2] {
        let session = TraceSession::start();
        let (server, addr) = start(ServeConfig { scan_threads, ..ServeConfig::default() });

        let (status, headers, _) = request_with_headers(
            addr,
            "POST",
            "/search?k=2",
            &[("X-Offtarget-Request-Id", "traced-req-1")],
            &body,
        );
        assert_eq!(status, 200);
        assert_eq!(response_id(&headers), "traced-req-1");
        // A second, untagged request on the same daemon: its spans must
        // not bleed into the first request's tag.
        let (status, headers, _) = request(addr, "POST", "/search?k=2", &body);
        assert_eq!(status, 200);
        let generated = response_id(&headers);

        server.shutdown();
        server.join();
        let data = session.finish();

        let tag = expected_tag("traced-req-1");
        let tagged: Vec<_> = data.events.iter().filter(|e| e.req == tag).collect();
        assert!(
            tagged.iter().any(|e| e.name == "serve:request"),
            "scan_threads {scan_threads}: the request span carries the client id's tag"
        );
        // The scan work done on behalf of the request rides the same tag.
        assert!(tagged.len() > 1, "scan-phase events share the request tag: {tagged:?}");
        let other_tag = expected_tag(&generated);
        assert_ne!(tag, other_tag);
        assert!(
            data.events.iter().any(|e| e.req == other_tag && e.name == "serve:request"),
            "scan_threads {scan_threads}: the second request is tagged with its own id"
        );
        // Both requests scan the same chunks, and every chunk span — on
        // whichever thread ran it — carries the tag of its request.
        let chunks =
            |req: u64| data.events.iter().filter(move |e| e.name == "chunk" && e.req == req);
        let untagged: Vec<_> = data
            .events
            .iter()
            .filter(|e| e.name == "chunk" && e.req != tag && e.req != other_tag)
            .collect();
        assert!(chunks(tag).count() > 0, "scan_threads {scan_threads}: no tagged chunk spans");
        assert_eq!(chunks(tag).count(), chunks(other_tag).count(), "scan_threads {scan_threads}");
        assert!(untagged.is_empty(), "scan_threads {scan_threads}: {untagged:?}");
    }
}

#[test]
fn access_log_writes_one_schema_valid_line_per_admitted_request() {
    let _serial = scan_lock();
    let dir = scratch("log");
    let log_path = dir.join("access.log");
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: Some(1),
        obs: ObsConfig {
            access_log: Some(log_path.to_str().unwrap().to_string()),
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);
    let (_, guides) = workload();
    let body = guides_body(&guides);

    // A mixed batch: a clean search, a concurrent burst that sheds some
    // connections, an instant deadline (504), and a 404.
    let (status, headers, _) = request_with_headers(
        addr,
        "POST",
        "/search?k=3",
        &[("X-Offtarget-Request-Id", "logged-ok-1")],
        &body,
    );
    assert_eq!(status, 200);
    assert_eq!(response_id(&headers), "logged-ok-1");

    let scenario = FailScenario::setup("serve.worker=delay150");
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || request(addr, "POST", "/search?k=3", &body).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    drop(scenario);
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert!(shed >= 1, "the burst must shed: {statuses:?}");
    assert!(statuses.iter().all(|s| [200, 503].contains(s)), "{statuses:?}");

    let (status, _, _) = request(addr, "POST", "/search?k=3&deadline_ms=0", &body);
    assert_eq!(status, 504);
    let (status, _, _) = request(addr, "GET", "/nowhere", &[]);
    assert_eq!(status, 404);

    server.shutdown();
    server.join();

    // Every admitted request — and nothing else — left exactly one line
    // (the in-process shutdown() above is not a request).
    let text = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 6 + 1 + 1, "one line per request: {text}");
    let mut ids = HashSet::new();
    let mut outcomes: HashMap<String, usize> = HashMap::new();
    for line in &lines {
        let record = json::parse(line).unwrap_or_else(|e| panic!("invalid log line {line}: {e}"));
        for field in
            ["id", "peer", "method", "route", "outcome", "engine", "guides_hash", "cache", "index"]
        {
            assert!(
                record.get(field).and_then(Value::as_str).is_some(),
                "{field} missing/mistyped in {line}"
            );
        }
        for field in [
            "ts",
            "status",
            "k",
            "guides",
            "queue_wait_s",
            "scan_s",
            "total_s",
            "bytes_in",
            "bytes_out",
        ] {
            assert!(
                record.get(field).and_then(Value::as_f64).is_some(),
                "{field} missing/mistyped in {line}"
            );
        }
        assert!(
            ids.insert(record.get("id").and_then(Value::as_str).unwrap().to_string()),
            "duplicate id in the log: {line}"
        );
        *outcomes
            .entry(record.get("outcome").and_then(Value::as_str).unwrap().to_string())
            .or_default() += 1;
    }
    assert!(ids.contains("logged-ok-1"), "the response id appears in exactly one log line");
    assert_eq!(outcomes.get("shed").copied().unwrap_or(0), shed, "{outcomes:?}");
    assert_eq!(outcomes.get("deadline").copied().unwrap_or(0), 1, "{outcomes:?}");
    assert_eq!(outcomes.get("not-found").copied().unwrap_or(0), 1, "{outcomes:?}");
    assert!(outcomes.get("ok").copied().unwrap_or(0) >= 2, "{outcomes:?}");

    // The clean search's line carries the full search schema.
    let ok_line = lines
        .iter()
        .find(|l| l.contains("\"id\":\"logged-ok-1\""))
        .expect("the tagged request's line");
    let record = json::parse(ok_line).unwrap();
    assert_eq!(record.get("route").and_then(Value::as_str), Some("/search"));
    assert_eq!(record.get("k").and_then(Value::as_f64), Some(3.0));
    assert_eq!(record.get("guides").and_then(Value::as_f64), Some(3.0));
    assert_ne!(record.get("guides_hash").and_then(Value::as_str), Some("-"));
    assert_eq!(record.get("cache").and_then(Value::as_str), Some("miss"));
    assert!(record.get("scan_s").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(record.get("bytes_out").and_then(Value::as_f64).unwrap() > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn access_log_rotates_at_the_size_cap_instead_of_growing() {
    let _serial = scan_lock();
    let dir = scratch("rotate");
    let log_path = dir.join("access.log");
    let cfg = ServeConfig {
        obs: ObsConfig {
            access_log: Some(log_path.to_str().unwrap().to_string()),
            // Roomy enough for one line (~300 bytes), never for three.
            access_log_max_bytes: 700,
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);
    for _ in 0..6 {
        let (status, _, _) = request(addr, "GET", "/healthz", &[]);
        assert_eq!(status, 200);
    }
    server.shutdown();
    server.join();

    let rotated_path = dir.join("access.log.1");
    assert!(rotated_path.exists(), "the cap must have forced a rotation");
    let current = std::fs::read_to_string(&log_path).expect("current log");
    let rotated = std::fs::read_to_string(&rotated_path).expect("rotated log");
    for text in [&current, &rotated] {
        assert!(text.lines().count() >= 1);
        for line in text.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("rotation tore a line {line:?}: {e}"));
        }
    }
    assert!(
        current.len() as u64 <= 700,
        "the live file respects the cap, got {} bytes",
        current.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_gauges_track_injected_latency_on_metrics_and_healthz() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig { workers: 2, ..ServeConfig::default() });

    // Six requests, each stalled 120 ms in the worker: the window's
    // latency mass sits in the log₂ bucket spanning (62.5, 125] ms, so
    // both quantiles must land in [62.5 ms, 125 ms] — within 2× of the
    // true 120 ms.
    let scenario = FailScenario::setup("serve.worker=delay120");
    for _ in 0..6 {
        let (status, _, _) = request(addr, "GET", "/healthz", &[]);
        assert_eq!(status, 200);
    }
    drop(scenario);

    let (status, _, body) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics are UTF-8");
    let p50 = sample(&text, "offtarget_serve_window_p50_seconds{window=\"1m\"}");
    let p99 = sample(&text, "offtarget_serve_window_p99_seconds{window=\"1m\"}");
    assert!((0.0625..=0.25).contains(&p50), "p50={p50}");
    assert!(p99 >= p50 && p99 <= 0.25, "p99={p99}");
    assert!(sample(&text, "offtarget_serve_window_qps{window=\"1m\"}") > 0.0);
    assert_eq!(sample(&text, "offtarget_serve_window_error_rate{window=\"1m\"}"), 0.0);
    assert_eq!(sample(&text, "offtarget_serve_window_shed_rate{window=\"1m\"}"), 0.0);
    // The 5-minute spelling exists alongside the 1-minute one.
    assert!(sample(&text, "offtarget_serve_window_p99_seconds{window=\"5m\"}") > 0.0);

    // Build provenance and uptime ride the same scrape.
    assert!(
        text.contains(&format!("offtarget_build_info{{version=\"{}\"", env!("CARGO_PKG_VERSION"))),
        "build info with the crate version"
    );
    assert!(sample(&text, "offtarget_serve_start_time_seconds") > 1.0e9, "a plausible epoch");
    assert!(sample(&text, "offtarget_serve_uptime_seconds") > 0.0);

    // /healthz summarizes the same window.
    let (status, _, body) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);
    let health = json::parse(std::str::from_utf8(&body).unwrap().trim()).expect("healthz JSON");
    assert!(health.get("uptime_seconds").and_then(Value::as_f64).unwrap() > 0.0);
    let window = health.get("window_1m").expect("window_1m summary");
    let p99_ms = window.get("p99_ms").and_then(Value::as_f64).unwrap();
    assert!((62.5..=250.0).contains(&p99_ms), "p99_ms={p99_ms}");
    assert!(window.get("qps").and_then(Value::as_f64).unwrap() > 0.0);

    server.shutdown();
    server.join();
}

#[test]
fn every_metrics_series_carries_help_and_type_headers() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig::default());
    let (_, guides) = workload();
    // One real search so the aggregated engine series render too.
    let (status, _, _) = request(addr, "POST", "/search?k=2", &guides_body(&guides));
    assert_eq!(status, 200);
    let (status, _, body) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    server.shutdown();
    server.join();

    let text = String::from_utf8(body).expect("metrics are UTF-8");
    let mut helped = HashSet::new();
    let mut typed = HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split_whitespace().next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split_whitespace().next().unwrap().to_string());
        }
    }
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let series = line.split([' ', '{']).next().unwrap();
        // Histogram children belong to their parent family's metadata.
        let family = series
            .strip_suffix("_bucket")
            .or_else(|| series.strip_suffix("_sum"))
            .or_else(|| series.strip_suffix("_count"))
            .filter(|base| typed.contains(*base))
            .unwrap_or(series);
        assert!(helped.contains(family), "{series} has no # HELP ({line})");
        assert!(typed.contains(family), "{series} has no # TYPE ({line})");
    }
}

#[test]
fn debug_requests_shows_the_stalled_scan_then_remembers_it() {
    let _serial = scan_lock();
    let (server, addr) = start(ServeConfig { workers: 2, ..ServeConfig::default() });

    // Exactly one dequeue stalls 400 ms; the second worker stays free to
    // answer the introspection request while the first is pinned.
    let scenario = FailScenario::setup("serve.worker=delay400:1.0,0,1");
    let (debug_mid_flight, stalled) = std::thread::scope(|scope| {
        let stalled = scope.spawn(move || {
            request_with_headers(
                addr,
                "GET",
                "/healthz",
                &[("X-Offtarget-Request-Id", "stalled-req")],
                &[],
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        let (status, _, body) = request(addr, "GET", "/debug/requests", &[]);
        assert_eq!(status, 200);
        (
            String::from_utf8(body).expect("debug JSON is UTF-8"),
            stalled.join().expect("stalled thread"),
        )
    });
    drop(scenario);

    let (status, headers, _) = stalled;
    assert_eq!(status, 200);
    assert_eq!(response_id(&headers), "stalled-req");

    let snapshot = json::parse(&debug_mid_flight).expect("debug JSON parses");
    let inflight = snapshot.get("inflight").and_then(Value::as_array).expect("inflight array");
    // Two live entries: the stalled request and the debug scrape itself.
    assert_eq!(inflight.len(), 2, "{debug_mid_flight}");
    // The stalled one is pinned before parsing, so it shows the
    // generated id and no route yet — but its stage and age prove a
    // worker is holding it.
    let pinned = inflight
        .iter()
        .find(|e| e.get("route").and_then(Value::as_str) == Some("-"))
        .unwrap_or_else(|| panic!("stalled entry visible: {debug_mid_flight}"));
    assert_eq!(pinned.get("stage").and_then(Value::as_str), Some("scanning"));
    assert!(pinned.get("age_ms").and_then(Value::as_f64).unwrap() >= 100.0);
    assert_eq!(pinned.get("deadline_remaining_ms"), Some(&Value::Null));

    // Once finished, the request moves to the recent ring with its
    // adopted id and full timings.
    let (status, _, body) = request(addr, "GET", "/debug/requests", &[]);
    assert_eq!(status, 200);
    let after = json::parse(std::str::from_utf8(&body).unwrap()).expect("debug JSON parses");
    let recent = after.get("recent").and_then(Value::as_array).expect("recent array");
    let done = recent
        .iter()
        .find(|e| e.get("id").and_then(Value::as_str) == Some("stalled-req"))
        .expect("completed request remembered");
    assert_eq!(done.get("route").and_then(Value::as_str), Some("/healthz"));
    assert_eq!(done.get("status").and_then(Value::as_f64), Some(200.0));
    assert_eq!(done.get("outcome").and_then(Value::as_str), Some("ok"));
    assert!(done.get("total_ms").and_then(Value::as_f64).unwrap() >= 300.0);

    server.shutdown();
    server.join();
}

#[test]
fn slow_requests_leave_a_loadable_chrome_trace() {
    let _serial = scan_lock();
    let dir = scratch("slow");
    let cfg = ServeConfig {
        workers: 1,
        obs: ObsConfig {
            slow_ms: Some(50),
            slow_trace_dir: Some(dir.to_str().unwrap().to_string()),
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let (server, addr) = start(cfg);

    // One stalled request crosses the 50 ms threshold; the fast scrape
    // after it does not.
    let scenario = FailScenario::setup("serve.worker=delay120:1.0,0,1");
    let (status, headers, _) = request_with_headers(
        addr,
        "GET",
        "/healthz",
        &[("X-Offtarget-Request-Id", "slowpoke")],
        &[],
    );
    drop(scenario);
    assert_eq!(status, 200);
    assert_eq!(response_id(&headers), "slowpoke");

    let (status, _, body) = request(addr, "GET", "/metrics", &[]);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("offtarget_serve_slow_traces_total 1"), "{text}");

    server.shutdown();
    server.join();

    let trace_path = dir.join("slow-slowpoke.json");
    let text = std::fs::read_to_string(&trace_path).expect("slow trace written");
    let trace = json::parse(&text).unwrap_or_else(|e| panic!("slow trace is invalid JSON: {e}"));
    let events = trace.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    let span = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("serve:request"))
        .expect("the whole-request span");
    assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
    let args = span.get("args").expect("span args");
    assert_eq!(args.get("req").and_then(Value::as_str), Some("slowpoke"));
    assert_eq!(args.get("status").and_then(Value::as_f64), Some(200.0));
    let dur_us = span.get("dur").and_then(Value::as_f64).expect("complete-event duration");
    assert!(dur_us >= 100_000.0, "the span spans the stall: {dur_us} µs");
    assert!(
        events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("serve:queued")),
        "the queue-wait span is present"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
