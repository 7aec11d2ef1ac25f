//! `bench_serve` — load generator for the `offtarget serve` daemon,
//! emitted as `BENCH_serve.json`.
//!
//! The daemon's value proposition is the prepared-search cache: a warm
//! query skips the guide-compile phase entirely. This bench boots an
//! in-process server and drives it with concurrent clients over real
//! sockets in two profiles:
//!
//! * **cold** — every request carries a *distinct* guide set, so every
//!   request misses the cache and pays a fresh compile;
//! * **warm** — every request carries the *same* guide set (pre-warmed
//!   once), so every request rides the cache.
//!
//! Per profile it reports p50/p99 request latency and queries/s. Beside
//! them, a **scan** profile runs the warm request's prepared search
//! in-process through `run_scan` — same reference, same deployment, same
//! client concurrency, no socket, queue or serialization around it.
//!
//! The absolute numbers vary with the machine, so the gates are ratios
//! measured in the same run, where machine speed cancels:
//!
//! * `warm_over_cold_p50 < 1` — the cache must beat a fresh compile. The
//!   workload compiles through the DFA engine precisely because its
//!   subset construction is the most expensive compile in the suite; if
//!   the cache silently stops hitting, the ratio snaps toward 1.0.
//! * `warm_over_scan_p50` — the daemon's own overhead factor on a cached
//!   request — must stay within [`TOLERANCE`] of the committed baseline.
//!   Neither side of it contains a compile, so a faster (or slower) cold
//!   path cannot move it; only the serving layer around the scan can.
//!
//! A third **overload** profile drives a burst of one-shot clients far
//! past a deliberately tiny admission queue (slow workers via the
//! `serve.worker` delay failpoint) and reports `shed_fraction` — the
//! share of the burst answered `503` at the door — plus the p99 of the
//! requests that were admitted. The gate on this profile is likewise
//! machine-independent: under a 4×-capacity burst some requests must
//! shed and some must serve (`0 < shed_fraction < 1`); a daemon that
//! stalls the whole burst or sheds all of it fails outright.
//!
//! The overload run doubles as the observability cross-check: it boots
//! the daemon with an access log and asserts one schema-valid JSON line
//! per request, and it scrapes the 1-minute sliding-window p99 gauge
//! before shutdown and gates it against the client-measured p99 — the
//! two views of the same burst must agree within the window's 2×-wide
//! log₂ buckets. The warm/cold profiles stay access-log-free on
//! purpose: their latencies double as the disabled-path overhead gate.
//!
//! Usage:
//!
//! * `bench_serve` — print fresh JSON to stdout (redirect to
//!   `BENCH_serve.json` to refresh the baseline).
//! * `bench_serve --check BENCH_serve.json` — measure, compare against
//!   the baseline, exit non-zero on regression.

use crispr_core::Platform;
use crispr_engines::{run_scan, ScanDeployment};
use crispr_genome::synth::SynthSpec;
use crispr_guides::{genset, io as guide_io, Guide, Pam};
use crispr_model::{json, SearchMetrics};
use crispr_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Allowed growth of `warm_over_scan_p50` before the check fails. The
/// ratio is noisy at millisecond latencies, so the gate is generous.
const TOLERANCE: f64 = 0.5;

/// Workload shape: a genome small enough that the scan is cheap next to
/// the DFA compile, making the cache's effect unmistakable.
const GENOME_LEN: usize = 120_000;
const GUIDES: usize = 4;
const K: usize = 2;
const SEED: u64 = 23;
const ENGINE: Platform = Platform::CpuDfa;
/// Concurrent client threads, and requests each issues per profile.
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;
/// Overload profile shape: a one-shot burst far past the admission
/// queue (2 workers + 2 queue slots = 4 admittable; 32 arrivals).
const OVERLOAD_CLIENTS: usize = 32;
const OVERLOAD_WORKERS: usize = 2;
const OVERLOAD_QUEUE: usize = 2;

struct Profile {
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
}

struct OverloadProfile {
    /// Share of the burst shed with `503` at admission.
    shed_fraction: f64,
    /// p99 latency of the requests that *were* admitted and served.
    p99_ms: f64,
    served: usize,
    shed: usize,
    /// The daemon's own `offtarget_serve_window_p99_seconds{window="1m"}`
    /// gauge, scraped right after the burst, in milliseconds.
    window_p99_ms: f64,
    /// Client-side p99 over every request the daemon *handled* — the
    /// burst plus the cold warm-up — i.e. the same population the
    /// window gauge aggregates. Used only for the agreement gate.
    handled_p99_ms: f64,
}

fn guide_set(seed: u64) -> Vec<u8> {
    let guides: Vec<Guide> = genset::random_guides(GUIDES, 20, &Pam::ngg(), seed);
    let mut body = Vec::new();
    guide_io::write_guides(&mut body, &guides).expect("serialize guides");
    body
}

/// One `Connection: close` GET; returns the response body.
fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
        .expect("write head");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header/body split");
    String::from_utf8_lossy(&raw[split + 4..]).into_owned()
}

/// One `Connection: close` POST /search; returns the status code.
fn post_search(addr: SocketAddr, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /search?k={K}&engine={ENGINE} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8_lossy(&raw[..raw.len().min(16)])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code")
}

/// Runs one thread per schedule, each timing `op` on every item of its
/// schedule, and folds every latency into one profile.
fn drive<T: Send>(schedules: Vec<Vec<T>>, op: impl Fn(&T) + Sync) -> Profile {
    let total: usize = schedules.iter().map(Vec::len).sum();
    let op = &op;
    let wall = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .into_iter()
            .map(|items| {
                scope.spawn(move || {
                    items
                        .iter()
                        .map(|item| {
                            let start = Instant::now();
                            op(item);
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let percentile = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    Profile { p50_ms: percentile(0.50), p99_ms: percentile(0.99), qps: total as f64 / wall_s }
}

/// Every request of a profile must answer 200.
fn search_ok(addr: SocketAddr) -> impl Fn(&Vec<u8>) + Sync {
    move |body| assert_eq!(post_search(addr, body), 200, "search must succeed")
}

/// The cold, warm and in-process scan profiles.
fn measure() -> (Profile, Profile, Profile) {
    let genome = SynthSpec::new(GENOME_LEN).seed(SEED).contigs(2).generate();
    let cfg = ServeConfig {
        workers: CLIENTS,
        // Cold sets must never collide in the cache across rounds.
        cache_capacity: 2 * CLIENTS * REQUESTS_PER_CLIENT,
        default_engine: ENGINE,
        ..ServeConfig::default()
    };
    let scan_threads = cfg.scan_threads;
    let server = Server::start(genome.clone(), cfg).expect("start server");
    let addr = server.local_addr();

    // Cold: every request is a distinct guide set → a distinct cache key.
    let mut seed = 1000u64;
    let cold_schedules: Vec<Vec<Vec<u8>>> = (0..CLIENTS)
        .map(|_| {
            (0..REQUESTS_PER_CLIENT)
                .map(|_| {
                    seed += 1;
                    guide_set(seed)
                })
                .collect()
        })
        .collect();
    let cold = drive(cold_schedules, search_ok(addr));

    // Warm: one shared set, compiled once before timing starts.
    let shared = guide_set(SEED);
    assert_eq!(post_search(addr, &shared), 200, "warm-up request");
    let warm_schedules: Vec<Vec<Vec<u8>>> =
        (0..CLIENTS).map(|_| (0..REQUESTS_PER_CLIENT).map(|_| shared.clone()).collect()).collect();
    let warm = drive(warm_schedules, search_ok(addr));
    server.shutdown();
    server.join();

    // Scan: the warm request's prepared search, in-process.
    let guides = guide_io::read_guides(shared.as_slice()).expect("parse guides");
    let engine = ENGINE.cpu_engine().expect("a CPU platform");
    let prepared = engine.prepare(&guides, K).expect("compile guides");
    let deployment = ScanDeployment::new(scan_threads);
    let scan_schedules = vec![vec![(); REQUESTS_PER_CLIENT]; CLIENTS];
    let scan = drive(scan_schedules, |()| {
        let mut m = SearchMetrics::default();
        run_scan(prepared.as_ref(), (&genome).into(), &deployment, &mut m).expect("scan");
    });
    (cold, warm, scan)
}

/// Boots a deliberately under-provisioned daemon, bursts
/// `OVERLOAD_CLIENTS` one-shot requests at it, and splits the outcomes
/// into served (200) and shed (503).
fn measure_overload() -> OverloadProfile {
    let genome = SynthSpec::new(GENOME_LEN).seed(SEED).contigs(2).generate();
    let log_path =
        std::env::temp_dir().join(format!("bench-serve-access-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let mut cfg = ServeConfig {
        workers: OVERLOAD_WORKERS,
        queue_depth: Some(OVERLOAD_QUEUE),
        default_engine: ENGINE,
        ..ServeConfig::default()
    };
    cfg.obs.access_log = Some(log_path.to_str().expect("utf-8 temp path").to_string());
    let server = Server::start(genome, cfg).expect("start server");
    let addr = server.local_addr();

    // Warm the cache first so admitted-request latency measures
    // queueing, not a fresh DFA compile per request. Its latency is
    // timed because the daemon's window sees this request too.
    let shared = guide_set(SEED);
    let warmup_start = Instant::now();
    assert_eq!(post_search(addr, &shared), 200, "warm-up request");
    let warmup_ms = warmup_start.elapsed().as_secs_f64() * 1e3;

    // Slow every dequeue so the burst outruns the pool: without the
    // stall, local workers drain a 120 kb scan faster than 32 loopback
    // connects arrive and nothing sheds.
    let scenario = crispr_failpoint::FailScenario::setup("serve.worker=delay40");
    let outcomes: Vec<(u16, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
            .map(|_| {
                let body = shared.clone();
                scope.spawn(move || {
                    let start = Instant::now();
                    let status = post_search(addr, &body);
                    (status, start.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    drop(scenario);

    // The daemon's own view of the burst, before the window ages out.
    let metrics = get(addr, "/metrics");
    let window_p99_ms = metrics
        .lines()
        .find_map(|l| l.strip_prefix("offtarget_serve_window_p99_seconds{window=\"1m\"} "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("window p99 gauge on /metrics")
        * 1e3;
    server.shutdown();
    server.join();

    // Access-log exactness: the warm-up, every burst client (served and
    // shed alike), and the metrics scrape each left one JSON line.
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let expected = 1 + OVERLOAD_CLIENTS + 1;
    assert_eq!(log.lines().count(), expected, "one access-log line per request");
    for line in log.lines() {
        let record = json::parse(line).expect("access-log line parses as JSON");
        assert!(record.get("id").and_then(|v| v.as_str()).is_some(), "log line has an id");
        assert!(record.get("outcome").and_then(|v| v.as_str()).is_some());
    }
    let _ = std::fs::remove_file(&log_path);

    let mut served_ms: Vec<f64> = Vec::new();
    let mut shed = 0usize;
    for (status, ms) in outcomes {
        match status {
            200 => served_ms.push(ms),
            503 => shed += 1,
            other => panic!("overload burst must answer 200 or 503, got {other}"),
        }
    }
    served_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_ms = match served_ms.len() {
        0 => 0.0,
        n => served_ms[((n - 1) as f64 * 0.99) as usize],
    };
    let mut handled_ms = served_ms.clone();
    handled_ms.push(warmup_ms);
    handled_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let handled_p99_ms = handled_ms[((handled_ms.len() - 1) as f64 * 0.99) as usize];
    OverloadProfile {
        shed_fraction: shed as f64 / OVERLOAD_CLIENTS as f64,
        p99_ms,
        served: served_ms.len(),
        shed,
        window_p99_ms,
        handled_p99_ms,
    }
}

fn render(cold: &Profile, warm: &Profile, scan: &Profile, overload: &OverloadProfile) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"workload\": {{\"genome_bases\": {GENOME_LEN}, \"guides\": {GUIDES}, \"k\": {K}, \
         \"engine\": \"{ENGINE}\", \"clients\": {CLIENTS}, \
         \"requests_per_client\": {REQUESTS_PER_CLIENT}, \"seed\": {SEED}}},\n"
    ));
    for (name, p) in [("cold", cold), ("warm", warm), ("scan", scan)] {
        out.push_str(&format!(
            "  \"{name}\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"qps\": {:.1}}},\n",
            p.p50_ms, p.p99_ms, p.qps
        ));
    }
    out.push_str(&format!(
        "  \"overload\": {{\"clients\": {OVERLOAD_CLIENTS}, \"workers\": {OVERLOAD_WORKERS}, \
         \"queue_depth\": {OVERLOAD_QUEUE}, \"shed_fraction\": {:.4}, \"served\": {}, \
         \"shed\": {}, \"p99_ms\": {:.3}, \"window_p99_ms\": {:.3}}},\n",
        overload.shed_fraction,
        overload.served,
        overload.shed,
        overload.p99_ms,
        overload.window_p99_ms
    ));
    out.push_str(&format!("  \"warm_over_cold_p50\": {:.4},\n", warm.p50_ms / cold.p50_ms));
    out.push_str(&format!("  \"warm_over_scan_p50\": {:.4}\n", warm.p50_ms / scan.p50_ms));
    out.push_str("}\n");
    out
}

fn check(
    cold: &Profile,
    warm: &Profile,
    scan: &Profile,
    overload: &OverloadProfile,
    baseline_path: &str,
) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let was = baseline
        .get("warm_over_scan_p50")
        .and_then(|v| v.as_f64())
        .ok_or("baseline has no \"warm_over_scan_p50\" member")?;
    baseline
        .get("overload")
        .and_then(|o| o.get("shed_fraction"))
        .and_then(|v| v.as_f64())
        .ok_or("baseline has no \"overload\".\"shed_fraction\" member")?;
    let warm_over_cold = warm.p50_ms / cold.p50_ms;
    let now = warm.p50_ms / scan.p50_ms;
    for (name, p) in [("cold", cold), ("warm", warm), ("scan", scan)] {
        println!("  {name} p50 {:.3}ms p99 {:.3}ms {:.1} q/s", p.p50_ms, p.p99_ms, p.qps);
    }
    println!("  warm_over_cold_p50: {warm_over_cold:.4}");
    println!("  warm_over_scan_p50: {now:.4} vs baseline {was:.4}");
    println!(
        "  overload: {}/{} served, {} shed (shed_fraction {:.4}), served p99 {:.3}ms, \
         handled p99 {:.3}ms, window p99 {:.3}ms",
        overload.served,
        OVERLOAD_CLIENTS,
        overload.shed,
        overload.shed_fraction,
        overload.p99_ms,
        overload.handled_p99_ms,
        overload.window_p99_ms
    );
    // Two gates: the cache must still beat a cold compile outright, and
    // the daemon's overhead on a cached request must not have drifted far
    // past the committed baseline.
    if warm_over_cold >= 1.0 {
        return Err(format!(
            "warm p50 ({:.3}ms) no longer beats cold ({:.3}ms): the \
             prepared-search cache is not being hit",
            warm.p50_ms, cold.p50_ms
        ));
    }
    if now > was * (1.0 + TOLERANCE) {
        return Err(format!(
            "warm_over_scan_p50 regressed >{:.0}%: {now:.4} vs baseline {was:.4}",
            TOLERANCE * 100.0
        ));
    }
    // The overload gate is structural, not a latency comparison: a
    // 4×-capacity burst against slowed workers must shed *some* of the
    // burst (admission control alive) and serve *some* of it
    // (backpressure is not a full outage) — on any machine.
    if overload.shed == 0 {
        return Err(format!(
            "overload burst shed nothing ({}/{} served): admission control is not bounding \
             the queue",
            overload.served, OVERLOAD_CLIENTS
        ));
    }
    if overload.served == 0 {
        return Err("overload burst served nothing: shedding has become a full outage".into());
    }
    // The daemon's sliding-window p99 must agree with the client-side
    // measurement of the same burst. The window buckets latencies into
    // 2×-wide log₂ bins, so agreement within [0.5, 2.0]× is the
    // tightest machine-independent gate the geometry supports; a window
    // that drifts past it is reporting a different reality than the
    // clients lived.
    let agreement = overload.window_p99_ms / overload.handled_p99_ms.max(1e-9);
    if !(0.5..=2.0).contains(&agreement) {
        return Err(format!(
            "window p99 ({:.3}ms) disagrees with the measured handled p99 ({:.3}ms) by {:.2}x: \
             the SLO gauges are not tracking observed latency",
            overload.window_p99_ms, overload.handled_p99_ms, agreement
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let start = Instant::now();
    let (cold, warm, scan) = measure();
    let overload = measure_overload();
    eprintln!(
        "drove {} requests in {:.1}s",
        2 * CLIENTS * REQUESTS_PER_CLIENT + 1 + OVERLOAD_CLIENTS + 1,
        start.elapsed().as_secs_f64()
    );
    match args.as_slice() {
        [] => print!("{}", render(&cold, &warm, &scan, &overload)),
        [flag, path] if flag == "--check" => {
            if let Err(msg) = check(&cold, &warm, &scan, &overload, path) {
                eprintln!("bench-serve: {msg}");
                std::process::exit(1);
            }
            println!(
                "bench-serve: cache effect holds and overload sheds cleanly, within {:.0}% of baseline",
                TOLERANCE * 100.0
            );
        }
        _ => {
            eprintln!("usage: bench_serve [--check BENCH_serve.json]");
            std::process::exit(2);
        }
    }
}
