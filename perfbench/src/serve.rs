//! The `serve-mixed` workload: an `offtarget serve --index` daemon
//! driven closed-loop by `nproc` client connections.

use crate::batch::{label_engine, report_path};
use crate::calib;
use crate::inputs::{Inputs, Request};
use crate::layers::{self, LayerValues, Pass};
use crate::outcome::Outcome;
use crate::program::{self, Exit, Program};
use crate::stats::{json_field, json_string_field, mean, median, quantile, ratio};
use crate::RunConfig;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A running daemon; killed and reaped on drop if not shut down.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// The default engine, as the daemon announced it.
    pub engine: Option<String>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `offtarget serve --index <index>` on an ephemeral port and
    /// returns it with the time from spawn to the first `GET /healthz`
    /// answered 200.
    pub fn spawn(
        program: &Program,
        index: &Path,
        access_log: Option<&Path>,
        log: &Path,
    ) -> Result<(Daemon, f64), String> {
        let index = index.display().to_string();
        let mut args = vec!["serve", "--index", &index, "--addr", "127.0.0.1:0"];
        let access = access_log.map(|p| p.display().to_string());
        if let Some(path) = &access {
            args.extend(["--access-log", path]);
        }
        let mut cmd = program.command(&args, log)?;
        cmd.stderr(Stdio::piped());
        let start = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("literal"),
            engine: None,
            drain: None,
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr =
                    addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                daemon.engine = rest
                    .split("engine ")
                    .nth(1)
                    .map(|e| e.trim().trim_end_matches(')').to_string());
                break;
            }
        }
        let mut sink = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(log)
            .map_err(|e| e.to_string())?;
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut sink);
        }));
        loop {
            if get(daemon.addr, "/healthz").is_ok_and(|r| r.status == 200) {
                break;
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set of the daemon so far, in bytes.
    pub fn peak_rss(&self) -> Option<u64> {
        program::peak_rss_of(self.child.as_ref()?.id())
    }

    /// Drains the daemon with `POST /shutdown` and reaps it.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        let _ = request(self.addr, "POST", "/shutdown", b"");
        let child = self.child.take().expect("daemon not yet reaped");
        let exit = program::wait(child)?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(exit)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    pub cache_hit: Option<bool>,
    pub body: Vec<u8>,
    pub bytes: usize,
    pub connect_s: f64,
    /// Connected → first response byte (includes sending the request).
    pub ttfb_s: f64,
    /// First → last response byte.
    pub transfer_s: f64,
    /// Connect start → last response byte.
    pub total_s: f64,
}

/// Sends one request on a fresh connection (the daemon answers one
/// request per connection) and reads the reply to EOF.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = start.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1 << 16];
    let n = stream.read(&mut chunk)?;
    let first = start.elapsed();
    raw.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut raw)?;
    let last = start.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without header end"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
    };
    let mut body = raw[split + 4..].to_vec();
    if let Some(len) = header("Content-Length").and_then(|v| v.parse::<usize>().ok()) {
        body.truncate(len);
    }
    Ok(Reply {
        status,
        cache_hit: header("X-Offtarget-Cache").map(|v| v == "hit"),
        bytes: raw.len(),
        body,
        connect_s: connected.as_secs_f64(),
        ttfb_s: (first - connected).as_secs_f64(),
        transfer_s: (last - first).as_secs_f64(),
        total_s: last.as_secs_f64(),
    })
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, b"")
}

/// Everything one closed loop observed.
#[derive(Debug, Default)]
pub struct Load {
    pub replies: Vec<Reply>,
    /// Requests that errored at the socket level.
    pub errors: u64,
    /// Requests whose reply was non-2xx or whose hit set was wrong.
    pub failed: u64,
    /// Time spent with requests in flight.
    pub elapsed_s: f64,
    /// Reference-task seconds, one per segment (see [`crate::calib`]).
    pub reference: Vec<f64>,
}

impl Load {
    fn latencies(&self) -> Vec<f64> {
        self.replies.iter().map(|r| r.total_s).collect()
    }
}

/// A closed loop runs in segments this long; the reference task is
/// timed between segments, with no request in flight.
const SEGMENT: Duration = Duration::from_secs(2);

/// Drives the daemon from `clients` connections in a closed loop, each
/// taking the next request of the plan after its previous reply, until
/// `budget` has passed and at least `min_ops` replies arrived. Each
/// reply is checked against the reference.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    budget: Duration,
    min_ops: usize,
    clients: usize,
) -> Load {
    let next = AtomicUsize::new(0);
    let mut load = Load::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        let done = load.replies.len() + load.errors as usize;
        if (elapsed >= budget && done >= min_ops) || (done > 0 && elapsed > budget * 3) {
            break;
        }
        load.reference.push(calib::reference_task());
        let segment = segment(addr, inputs, &next, SEGMENT.min(budget), clients);
        load.elapsed_s += segment.elapsed_s;
        load.errors += segment.errors;
        load.failed += segment.failed;
        load.replies.extend(segment.replies);
    }
    load
}

/// One segment of the closed loop: clients stop taking requests once
/// `length` has passed and finish the one in flight.
fn segment(
    addr: SocketAddr,
    inputs: &Inputs,
    next: &AtomicUsize,
    length: Duration,
    clients: usize,
) -> Load {
    let load = Mutex::new(Load::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while start.elapsed() < length {
                    let i = next.fetch_add(1, Ordering::Relaxed) % inputs.requests.len();
                    let req: &Request = &inputs.requests[i];
                    let result = request(addr, "POST", &format!("/search?k={}", req.k), &req.body);
                    let mut load = load.lock().expect("no client panics while holding the lock");
                    match result {
                        Ok(reply) => {
                            let ok = (200..300).contains(&reply.status)
                                && reply.body == inputs.expected_body(req);
                            if !ok {
                                load.failed += 1;
                            }
                            load.replies.push(reply);
                        }
                        Err(_) => load.errors += 1,
                    }
                }
            });
        }
    });
    let mut load = load.into_inner().expect("clients joined");
    load.elapsed_s = start.elapsed().as_secs_f64();
    load
}

fn count_ops(out: &mut Outcome, load: &Load) {
    out.attempted += load.replies.len() as u64 + load.errors;
    out.failed += load.failed + load.errors;
}

/// The daemon's default engine and the SIMD backend its scans
/// dispatched to (`GET /metrics`).
fn label_daemon(out: &mut Outcome, daemon: &Daemon) {
    let text = get(daemon.addr, "/metrics")
        .map(|r| String::from_utf8_lossy(&r.body).to_string())
        .unwrap_or_default();
    let simd = text.lines().find_map(|l| {
        l.strip_prefix("offtarget_gauge{name=\"simd_backend\"}")?.trim().parse::<f64>().ok()
    });
    label_engine(out, daemon.engine.clone(), simd);
}

pub fn run(
    cfg: &RunConfig,
    program: &Program,
    inputs: &Inputs,
    run_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let log = run_dir.join("offtarget.log");
    let clients = crate::nproc();
    out.label("clients", clients.to_string());
    out.label("loop", "closed");

    // The daemon's input, built once; not part of the serve set-up.
    let idx = run_dir.join("genome.idx");
    let fa = inputs.genome_fa.display().to_string();
    let exit = program.run(&["index", "--genome", &fa, "-o", &idx.display().to_string()], &log)?;
    if !exit.success() {
        return Err(format!("offtarget index failed ({:?}); see {}", exit.code, log.display()));
    }
    out.op(true);

    // Set-up, repeated: spawn until the first healthy answer.
    let mut setup = Vec::new();
    let mut reference = Vec::new();
    let mut daemon = None;
    for _ in 0..cfg.shape.setup_reps {
        reference.push(calib::reference_task());
        let (d, seconds) = Daemon::spawn(program, &idx, None, &log)?;
        out.op(true);
        setup.push(seconds);
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");

    if cfg.trace {
        return traced(cfg, program, inputs, run_dir, &idx, daemon, out);
    }
    let load = closed_loop(daemon.addr, inputs, cfg.seconds, cfg.shape.min_ops, clients);
    label_daemon(&mut out, &daemon);
    let peak = daemon.peak_rss().ok_or("cannot read the daemon's peak resident set")?;
    daemon.shutdown()?;
    count_ops(&mut out, &load);
    reference.extend_from_slice(&load.reference);
    let scale = calib::scale(&reference);
    let latencies = load.latencies();
    out.push("wall_s", mean(&latencies) * scale, "s");
    out.push("peak_rss_mb", peak as f64 / (1024.0 * 1024.0), "MiB");
    out.push("setup_s", median(&setup) * scale, "s");
    out.push("req_p50_ms", median(&latencies) * scale * 1e3, "ms");
    out.push("req_p90_ms", quantile(&latencies, 0.9) * scale * 1e3, "ms");
    out.push("qps", latencies.len() as f64 / (load.elapsed_s * scale), "1/s");
    out.label("requests_timed", latencies.len().to_string());
    out.label("raw_req_p50_ms", (median(&latencies) * 1e3).to_string());
    out.label("raw_setup_s", median(&setup).to_string());
    out.label("reference_task_s", median(&reference).to_string());
    Ok(out)
}

/// The traced serve run: an untraced loop, a loop against a daemon
/// with `--access-log`, then the per-request path in-process.
fn traced(
    cfg: &RunConfig,
    program: &Program,
    inputs: &Inputs,
    run_dir: &Path,
    idx: &Path,
    daemon: Daemon,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let log = run_dir.join("offtarget.log");
    let clients = crate::nproc();
    let budget = |share: f64| cfg.seconds.mul_f64(share);
    let plain = closed_loop(daemon.addr, inputs, budget(0.3), cfg.shape.min_ops, clients);
    label_daemon(&mut out, &daemon);
    daemon.shutdown()?;
    count_ops(&mut out, &plain);
    let p50_plain = median(&plain.latencies());

    let access = run_dir.join("access.jsonl");
    let (logged, _) = Daemon::spawn(program, idx, Some(&access), &log)?;
    let load = closed_loop(logged.addr, inputs, budget(0.3), cfg.shape.min_ops, clients);
    logged.shutdown()?;
    count_ops(&mut out, &load);
    let p50_logged = median(&load.latencies());
    let access_text = std::fs::read_to_string(&access).map_err(|e| format!("access log: {e}"))?;
    let mut queue = Vec::new();
    let mut scan = Vec::new();
    let mut other = Vec::new();
    for line in
        access_text.lines().filter(|l| json_string_field(l, "route").as_deref() == Some("/search"))
    {
        let (Some(q), Some(s), Some(t)) = (
            json_field(line, "queue_wait_s"),
            json_field(line, "scan_s"),
            json_field(line, "total_s"),
        ) else {
            continue;
        };
        queue.push(q);
        scan.push(s);
        other.push(t - q - s);
    }
    let pick = |f: &dyn Fn(&Reply) -> f64| median(&load.replies.iter().map(f).collect::<Vec<_>>());
    let cached = load.replies.iter().filter(|r| r.cache_hit == Some(true)).count();
    let serve = [
        pick(&|r| r.connect_s) * 1e3,
        pick(&|r| r.ttfb_s) * 1e3,
        pick(&|r| r.transfer_s) * 1e3,
        pick(&|r| r.bytes as f64),
        median(&queue) * 1e3,
        median(&scan) * 1e3,
        median(&other) * 1e3,
        ratio(cached as f64, load.replies.len() as f64),
        load.replies.iter().filter(|r| !(200..300).contains(&r.status)).count() as f64,
    ];

    // In-process: the daemon's set-up layers, then its per-request path
    // replayed with a cache of the same size, in plan order.
    let mut sessions = Vec::new();
    let (index, passes, hits) =
        layers::traced(&mut sessions, || replay(inputs, run_dir, budget(0.3)))?;
    let data = layers::merge(sessions);
    for p in &passes {
        out.op(p.ok);
    }
    let spans = layers::span_durations(&data);
    let run_spans = spans.get("core.run").cloned().unwrap_or_default();
    let bases = inputs.bases as f64;
    let per_request: Vec<LayerValues> = passes
        .iter()
        .zip(&run_spans)
        .zip(&hits)
        .map(|((p, &run_s), &cache_hit)| {
            let mut v = LayerValues::from_metrics(&p.metrics, run_s, bases);
            if cache_hit {
                // A cached compile costs the daemon nothing.
                v.prepare_s = 0.0;
            }
            v
        })
        .collect();
    let mut v = layers::aggregate(&per_request, mean);
    v.index = index;
    v.guides_read_s = mean(spans.get("guides.io").map_or(&[][..], Vec::as_slice));
    let request_s = median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>());
    v.residual_s = p50_plain - median(&queue) - request_s;
    v.serve = serve;
    v.trace_overhead_s = p50_logged - p50_plain;
    v.push_all(&mut out);

    let rows = [
        ("serve.queue_wait (access log)", median(&queue)),
        ("guides.io (request body)", v.guides_read_s),
        ("engines.pack (genome_load_s)", v.pack_s),
        ("engines.prepare (cache misses only)", v.prepare_s),
        ("engines.kernel (kernel_scan_s)", v.kernel_s),
        ("core.report (normalize)", v.report_s),
        ("core.unattributed", v.unattributed_s),
        ("residual (HTTP, render, socket)", v.residual_s),
    ];
    let trace_path = report_path(cfg, "traces", "json");
    layers::write_chrome(&data, &trace_path)?;
    out.report = format!(
        "## {} (seed {}, {} shape)\n\n{}\n- untraced `req_p50_ms` {:.3} over {} requests; with \
         --access-log {:.3} over {} → tracing overhead {:.6} s\n- in-process replay: {} requests, \
         median {:.4} s each\n- daemon set-up layers: open {:.4} s, materialize {:.4} s\n\
         - core.unattributed_s {:.6} s, residual {:.4} s\n- Chrome trace: {}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.shape.name,
        layers::self_time_table(&rows, "req_p50", p50_plain),
        p50_plain * 1e3,
        plain.replies.len(),
        p50_logged * 1e3,
        load.replies.len(),
        v.trace_overhead_s,
        passes.len(),
        request_s,
        v.index.open_s,
        v.index.materialize_s,
        v.unattributed_s,
        v.residual_s,
        trace_path.display()
    );
    Ok(out)
}

type Replay = (layers::IndexLayer, Vec<Pass>, Vec<bool>);

/// Index layers, then requests in plan order until `budget` passes
/// (at least ten), with an LRU of the daemon's default capacity
/// deciding which compiles a daemon would have skipped.
fn replay(inputs: &Inputs, run_dir: &Path, budget: Duration) -> Result<Replay, String> {
    const CACHE: usize = 8;
    let (index, genome) = layers::index_layer(inputs, &run_dir.join("inproc.idx"))?;
    let mut passes = Vec::new();
    let mut hits = Vec::new();
    let mut lru: VecDeque<(Vec<usize>, usize)> = VecDeque::new();
    let start = Instant::now();
    for req in &inputs.requests {
        if passes.len() >= 10 && start.elapsed() >= budget {
            break;
        }
        let key = (req.guides.clone(), req.k);
        let hit = match lru.iter().position(|k| *k == key) {
            Some(at) => {
                lru.remove(at);
                true
            }
            None => false,
        };
        lru.push_back(key);
        if lru.len() > CACHE {
            lru.pop_front();
        }
        passes.push(layers::request_pass(inputs, genome.clone(), req)?);
        hits.push(hit);
    }
    Ok((index, passes, hits))
}
