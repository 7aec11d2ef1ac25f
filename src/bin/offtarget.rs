//! `offtarget` — command-line front end for the off-target search suite.
//!
//! ```text
//! offtarget synth  --len 2000000 --seed 42 [--gc 0.41] [--contigs 1] -o genome.fa
//! offtarget guides --count 20 [--from-genome genome.fa] [--seed 7] [--pam NGG] -o guides.txt
//! offtarget search --genome genome.fa --guides guides.txt [-k 3]
//!                  [--platform cpu-hyperscan] [--threads 1] [--format tsv|json]
//!                  [--metrics metrics.json|-] [--trace trace.json|-]
//!                  [--prom metrics.prom|-] [--progress] [-o hits.tsv]
//! offtarget anml   --guides guides.txt [-k 3] [-o out.anml]
//! ```

use crispr_offtarget::core::{HitWriter, OffTargetSearch, Platform};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{fasta, Genome};
use crispr_offtarget::guides::{genset, io as guide_io, Guide, Pam};
use crispr_offtarget::model::json::escape;
use crispr_offtarget::trace;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Fault injection from the environment applies to every subcommand
    // and every thread it starts; `--inject` (search only) replaces it in
    // `cmd_search`.
    if let Err(e) = crispr_offtarget::failpoint::configure_from_env() {
        eprintln!("offtarget: OFFTARGET_INJECT: {e}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "synth" => cmd_synth(rest).map(|()| 0),
        "guides" => cmd_guides(rest).map(|()| 0),
        "index" => cmd_index(rest).map(|()| 0),
        "search" => cmd_search(rest),
        "serve" => cmd_serve(rest).map(|()| 0),
        "anml" => cmd_anml(rest).map(|()| 0),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    let code = match result {
        // `cmd_search` returns 3 itself for partial results and 4 for a
        // tripped --timeout — after writing the recovered hits and every
        // requested sidecar — so pipelines can distinguish "incomplete"
        // from "broken" while still consuming the outputs.
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("offtarget: {e}");
            ExitCode::from(1)
        }
    };
    // Warnings and progress go to stderr, results to stdout; make sure
    // both are on disk (or the pipe) before the process exits, whatever
    // buffering the platform applied.
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    code
}

const USAGE: &str = "usage:
  offtarget synth  --len N [--seed S] [--gc F] [--contigs C] -o genome.fa
  offtarget guides --count N [--from-genome genome.fa] [--seed S] [--pam MOTIF[/5]] -o guides.txt
  offtarget index  --genome genome.fa -o genome.idx [--qgram Q]
  offtarget search (--genome genome.fa | --index genome.idx)
                   --guides guides.txt [-k K] [--platform NAME]
                   [--threads T] [--shard N] [--format tsv|json]
                   [--metrics FILE|-] [--retries N] [--timeout SECS]
                   [--trace FILE|-] [--prom FILE|-] [--progress]
                   [--inject 'site=kind[:prob[,seed[,times]]][;...]'] [-o hits]
  offtarget serve  (--genome genome.fa | --index genome.idx)
                   [--addr HOST:PORT] [--workers W] [--queue-depth N]
                   [--scan-threads T] [--cache N] [--retries N]
                   [--max-deadline MS] [--read-timeout SECS]
                   [--write-timeout SECS] [--platform NAME] [--allow-inject]
                   [--access-log FILE|-] [--access-log-max-bytes N]
                   [--slow-ms MS [--slow-trace-dir DIR] [--slow-trace-max N]]
  offtarget anml   --guides guides.txt [-k K] [-o out.anml]

platforms: cpu-scalar cpu-cas-offinder cpu-casot cpu-hyperscan
           cpu-hyperscan-batched cpu-nfa cpu-dfa
           ap fpga gpu-infant2 gpu-cas-offinder
SIMD: the CPU verify/prefilter kernels auto-dispatch AVX2/NEON when the
host supports them; OFFTARGET_SIMD={auto,avx2,neon,portable,scalar}
forces a backend (unavailable choices fall back to portable).

observability: --metrics writes the SearchMetrics JSON ('-' = stdout);
--trace writes a Chrome trace_event JSON timeline (chrome://tracing,
Perfetto) with one track per worker thread; --prom writes every
counter/gauge/histogram in Prometheus text format; --progress streams
live bases/s and ETA to stderr (off by default so redirected output
stays clean).

serve: a resident daemon that loads the genome once and answers
concurrent queries over HTTP/1.1, sharing compiled guide sets through
an LRU prepared-search cache. Endpoints: POST /search (guide list in,
hits out; 206 + X-Offtarget-Partial on a partial result; 504 — or 206
with the recovered hits — when a ?deadline_ms= budget trips, clamped to
--max-deadline), GET /metrics (Prometheus), GET /healthz (503 while
draining or overloaded), POST /shutdown (graceful drain). Admission is
bounded: when --queue-depth connections (default 4 x workers) are
already waiting, new ones are shed immediately with 503 + Retry-After
(derived from the observed queue drain rate, clamped to [1, 30]).
Panicked workers are respawned. See README.md for the schema.

serve observability: every request gets an id (or adopts a client's
X-Offtarget-Request-Id), echoed on the response, stamped on its trace
spans, and included in 4xx/5xx bodies. --access-log writes one JSON
line per request ('-' = stdout, size-rotated at --access-log-max-bytes,
default 64 MiB). GET /metrics exports 1m/5m sliding-window gauges
(p50/p99/qps/error rate/shed rate) plus build info and uptime;
GET /debug/requests returns the live request table and recent
completions. Requests slower than --slow-ms save a per-request Chrome
trace into --slow-trace-dir (at most --slow-trace-max files).

fault injection: --inject (or the OFFTARGET_INJECT environment variable)
arms named failpoints; kinds are panic, error, delay<ms>. Known sites:
parallel.chunk fasta.read guides.read prefilter.build multiseed.build
index.write serve.accept serve.worker serve.respond. The spec reaches
every thread the command starts (scan workers, the serve daemon's accept
thread and pool); a serve request's inject= arms its own scan only.

index: `offtarget index` serializes the 2-bit packed bases, per-base
anchor bitmaps, and q-gram seed tables into one versioned, checksummed
file; `search --index` / `serve --index` memory-map it (falling back to
a buffered read), skip the FASTA parse and all per-run derivation, and
scan the index in place: resident memory is bounded by the chunks in
flight, not the genome. `--shard N` scans each contig in chunks of N
window starts (default: the contig split across --threads, index
chunks capped at 4 Mi windows). `--qgram 0` omits the seed tables.

exit codes: 0 success; 1 error; 2 usage; 3 partial results — some chunks
failed every retry; the recovered hits and every requested sidecar
(--metrics, --trace, --prom) are written before the process exits;
4 deadline exceeded — the --timeout budget tripped mid-scan; the hits
recovered from the chunks that completed and every requested sidecar
are written before the process exits.";

type CliError = Box<dyn std::error::Error>;

/// The flags each subcommand accepts, by canonical key (shorthands `-o`
/// and `-k` map to `out` and `k`).
const SYNTH_FLAGS: &[&str] = &["len", "seed", "gc", "contigs", "out"];
const GUIDES_FLAGS: &[&str] = &["count", "from-genome", "seed", "pam", "out"];
const INDEX_FLAGS: &[&str] = &["genome", "qgram", "out"];
const SEARCH_FLAGS: &[&str] = &[
    "genome", "index", "shard", "guides", "k", "platform", "threads", "format", "metrics",
    "retries", "inject", "trace", "prom", "progress", "timeout", "out",
];
const ANML_FLAGS: &[&str] = &["guides", "k", "out"];
const SERVE_FLAGS: &[&str] = &[
    "genome",
    "index",
    "addr",
    "workers",
    "scan-threads",
    "cache",
    "retries",
    "platform",
    "allow-inject",
    "queue-depth",
    "max-deadline",
    "read-timeout",
    "write-timeout",
    "access-log",
    "access-log-max-bytes",
    "slow-ms",
    "slow-trace-dir",
    "slow-trace-max",
];

/// Flags that take no value: present means enabled.
const BOOLEAN_FLAGS: &[&str] = &["progress", "allow-inject"];

/// The "did you mean" suggestion (shared with the serve daemon's
/// unknown-engine responses — see `crispr_model::names`).
use crispr_offtarget::model::names::{suggest, unknown_value_message};

/// Whether `token` spells one of the subcommand's own flags (so it can
/// never be a flag *value* — see `parse_flags`).
fn is_recognized_flag(token: &str, allowed: &[&str]) -> bool {
    let key = match token {
        "-o" => "out",
        "-k" => "k",
        s => match s.strip_prefix("--") {
            Some(key) => key,
            None => return false,
        },
    };
    allowed.contains(&key)
}

/// Parses `--flag value` pairs (and `-k`, `-o` shorthands), rejecting
/// flags the subcommand does not define — with a "did you mean" hint for
/// near-misses. A recognized flag is never consumed as another flag's
/// value (`--trace --progress` is an error, not a trace file named
/// "--progress"), and repeating a flag is an error rather than a silent
/// last-one-wins.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let key = match flag.as_str() {
            "-o" => "out",
            "-k" => "k",
            s if s.starts_with("--") => &s[2..],
            s => return Err(format!("unexpected argument {s:?}").into()),
        };
        if !allowed.contains(&key) {
            let hint = match suggest(key, allowed) {
                Some(f) => format!("; did you mean --{f}?"),
                None => String::new(),
            };
            return Err(format!("unknown flag --{key}{hint}").into());
        }
        let value = if BOOLEAN_FLAGS.contains(&key) {
            String::new()
        } else {
            let value = iter.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
            if is_recognized_flag(value, allowed) {
                return Err(
                    format!("flag {flag} needs a value (found flag {value} instead)").into()
                );
            }
            value.clone()
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag {flag} given more than once").into());
        }
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}").into())
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key} {v:?}: {e}").into()),
    }
}

/// Parses a duration flag given in (possibly fractional) seconds,
/// rejecting zero, negatives, and non-finite values.
fn parse_secs(
    flags: &HashMap<String, String>,
    key: &str,
    default: Duration,
) -> Result<Duration, CliError> {
    let secs: f64 = parse(flags, key, default.as_secs_f64())?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("--{key} {secs}: must be a positive number of seconds").into());
    }
    Ok(Duration::from_secs_f64(secs))
}

/// The `-o` destination (stdout when absent); see [`file_or_stdout`].
fn out_writer(flags: &HashMap<String, String>) -> Result<Box<dyn Write>, CliError> {
    file_or_stdout(flags.get("out").map_or("-", String::as_str))
}

/// Opens `path` for buffered writing, with `-` meaning stdout. Dropping
/// a `BufWriter` discards write errors, so every caller flushes
/// explicitly before it returns.
fn file_or_stdout(path: &str) -> Result<Box<dyn Write>, CliError> {
    Ok(if path == "-" {
        Box::new(BufWriter::new(std::io::stdout()))
    } else {
        Box::new(BufWriter::new(File::create(path)?))
    })
}

/// The ETA column of the `--progress` status line: the projected seconds
/// remaining at the observed rate, or `?` while no rate is observable
/// yet. Any positive rate projects — a slow scan (under one base per
/// second) still has a finite ETA.
fn format_eta(rate: f64, done: u64, total: u64) -> String {
    if rate > 0.0 && done < total {
        format!("{:.1}s", (total - done) as f64 / rate)
    } else {
        "?".to_string()
    }
}

/// The live `--progress` reporter: a thread polling the progress
/// counters a few times a second and redrawing one stderr status line.
struct ProgressReporter {
    running: Arc<AtomicBool>,
    /// Width of the last line the poll thread rendered, so `finish` can
    /// blank exactly what is on screen instead of a guessed 76 columns.
    last_width: Arc<AtomicUsize>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressReporter {
    fn start(total_bases: u64) -> ProgressReporter {
        trace::progress::enable(total_bases);
        let running = Arc::new(AtomicBool::new(true));
        let last_width = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&running);
        let width = Arc::clone(&last_width);
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            while flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                let (done, total) = trace::progress::snapshot();
                if total == 0 {
                    continue;
                }
                let elapsed = start.elapsed().as_secs_f64();
                let rate = done as f64 / elapsed.max(1e-9);
                let eta = format_eta(rate, done, total);
                let line =
                    format!("scanning: {done}/{total} bases ({rate:.3e} bases/s, ETA {eta})");
                // Pad to the previous render so a shrinking line leaves
                // no residue, then remember our own width.
                let previous = width.swap(line.len(), Ordering::Relaxed);
                eprint!("\r{line:<previous$}");
                let _ = std::io::stderr().flush();
            }
        });
        ProgressReporter { running, last_width, handle }
    }

    /// Stops the reporter and clears its status line.
    fn finish(self) {
        self.running.store(false, Ordering::Relaxed);
        let _ = self.handle.join();
        trace::progress::disable();
        let width = self.last_width.load(Ordering::Relaxed);
        if width > 0 {
            eprint!("\r{:width$}\r", "");
        }
        let _ = std::io::stderr().flush();
    }
}

/// Loads a genome resiliently: strict parse first, lossy fallback (with a
/// warning) on invalid sequence bytes. Returns the genome and how many
/// degradation events occurred, for the `degraded_paths` counter.
fn load_genome(path: &str) -> Result<(Genome, u64), CliError> {
    let bytes = std::fs::read(path)?;
    let (genome, degraded) = fasta::read_genome_resilient(&bytes)?;
    Ok((genome, u64::from(degraded)))
}

fn load_guides(path: &str) -> Result<Vec<Guide>, CliError> {
    Ok(guide_io::read_guides(File::open(path)?)?)
}

fn parse_pam(text: &str) -> Result<Pam, CliError> {
    let (motif, side) = match text.strip_suffix("/5") {
        Some(m) => (m, crispr_offtarget::guides::PamSide::Five),
        None => (text, crispr_offtarget::guides::PamSide::Three),
    };
    Ok(Pam::new(motif, side)?)
}

fn cmd_synth(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args, SYNTH_FLAGS)?;
    let len: usize = get(&flags, "len")?.parse().map_err(|e| format!("--len: {e}"))?;
    let spec = SynthSpec::new(len)
        .seed(parse(&flags, "seed", 0u64)?)
        .gc_content(parse(&flags, "gc", 0.41f64)?)
        .contigs(parse(&flags, "contigs", 1usize)?);
    let genome = spec.generate();
    let mut writer = out_writer(&flags)?;
    fasta::write_genome(&mut writer, &genome, 70)?;
    writer.flush()?;
    eprintln!("wrote {} bases in {} contigs", genome.total_len(), genome.contig_count());
    Ok(())
}

fn cmd_guides(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args, GUIDES_FLAGS)?;
    let count: usize = get(&flags, "count")?.parse().map_err(|e| format!("--count: {e}"))?;
    let seed = parse(&flags, "seed", 0u64)?;
    let pam = parse_pam(flags.get("pam").map(String::as_str).unwrap_or("NGG"))?;
    let guides = match flags.get("from-genome") {
        Some(path) => {
            let (genome, _) = load_genome(path)?;
            genset::guides_from_genome(&genome, count, 20, &pam, seed)
        }
        None => genset::random_guides(count, 20, &pam, seed),
    };
    if guides.len() < count {
        eprintln!("warning: only {} of {count} guides could be sampled", guides.len());
    }
    let mut writer = out_writer(&flags)?;
    guide_io::write_guides(&mut writer, &guides)?;
    writer.flush()?;
    Ok(())
}

/// `offtarget index`: derives every per-genome table the engines need
/// (packed bases, anchor bitmaps, q-gram seeds) once, and writes them as
/// one checksummed file that later `search --index` runs memory-map.
fn cmd_index(args: &[String]) -> Result<(), CliError> {
    use crispr_offtarget::genome::diskindex::{GenomeIndex, DEFAULT_Q};
    let flags = parse_flags(args, INDEX_FLAGS)?;
    let (genome, degraded) = load_genome(get(&flags, "genome")?)?;
    if degraded > 0 {
        eprintln!("warning: lossy FASTA parse ({degraded} degradation events)");
    }
    let q = parse(&flags, "qgram", DEFAULT_Q)?;
    if q != 0 && !(1..=crispr_offtarget::genome::kmer::DENSE_Q_MAX).contains(&q) {
        return Err(format!(
            "--qgram {q}: must be 0 (omit seed tables) or 1..={}",
            crispr_offtarget::genome::kmer::DENSE_Q_MAX
        )
        .into());
    }
    let build_start = Instant::now();
    let index = GenomeIndex::build(&genome, q)?;
    let path = get(&flags, "out")?;
    index.write_to(path)?;
    eprintln!(
        "indexed {} bases in {} contigs -> {} ({} bytes, q={q}) in {:.2}s",
        genome.total_len(),
        genome.contig_count(),
        path,
        index.as_bytes().len(),
        build_start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn parse_platform(name: &str) -> Result<Platform, CliError> {
    Platform::ALL.into_iter().find(|p| p.name() == name).ok_or_else(|| {
        let valid: Vec<&str> = Platform::ALL.iter().map(|p| p.name()).collect();
        unknown_value_message("platform", name, &valid).into()
    })
}

fn cmd_search(args: &[String]) -> Result<u8, CliError> {
    let flags = parse_flags(args, SEARCH_FLAGS)?;
    if let Some(spec) = flags.get("inject") {
        crispr_offtarget::failpoint::configure(spec).map_err(|e| format!("--inject: {e}"))?;
    }
    // The trace session opens before any input is read, so the timeline
    // shows the FASTA parse or index open next to the search itself. It
    // and the live progress reporter below default off; with neither,
    // the instrumentation in the pipeline is one atomic load per site.
    let session = flags.get("trace").map(|_| {
        let session = trace::TraceSession::start();
        trace::name_thread("main");
        session
    });
    let guides = load_guides(get(&flags, "guides")?)?;
    let k = parse(&flags, "k", 3usize)?;
    let platform =
        parse_platform(flags.get("platform").map(String::as_str).unwrap_or("cpu-hyperscan"))?;
    let threads = parse(&flags, "threads", 1usize)?;
    if threads == 0 {
        return Err("--threads 0: need at least one thread".into());
    }
    let retries = parse(&flags, "retries", crispr_offtarget::engines::DEFAULT_CHUNK_RETRIES)?;
    let shard = match flags.get("shard") {
        Some(v) => Some(v.parse::<usize>().map_err(|e| format!("--shard {v:?}: {e}"))?),
        None => None,
    };
    if shard == Some(0) {
        return Err("--shard 0: a chunk needs at least one window start".into());
    }
    // Checked with the other flags, before the reference loads or `-o`
    // is opened: a bad format must not cost a scan or truncate a file.
    let json = match flags.get("format").map_or("tsv", String::as_str) {
        "tsv" => false,
        "json" => true,
        other => return Err(format!("unknown format {other:?} (tsv|json)").into()),
    };
    let timeout = match flags.contains_key("timeout") {
        true => Some(parse_secs(&flags, "timeout", Duration::from_secs(1))?),
        false => None,
    };

    // The reference comes from exactly one of --genome (FASTA parse) or
    // --index (pre-derived tables, memory-mapped).
    if flags.contains_key("genome") && flags.contains_key("index") {
        return Err("--genome and --index are mutually exclusive".into());
    }
    // One timer covers either load: it becomes `index_load_s` or
    // `input_parse_s`.
    let load_start = Instant::now();
    let (search, contig_names, total_bases) = match flags.get("index") {
        Some(path) => {
            use crispr_offtarget::genome::diskindex::GenomeIndex;
            let index = Arc::new(GenomeIndex::open(path)?);
            let names: Vec<String> =
                (0..index.contig_count()).map(|ci| index.contig_name(ci).to_string()).collect();
            let total = index.total_len() as u64;
            (OffTargetSearch::from_index(index), names, total)
        }
        None => {
            let (genome, degraded_inputs) =
                load_genome(get(&flags, "genome").map_err(|_| "missing --genome (or --index)")?)?;
            let names: Vec<String> =
                genome.contigs().iter().map(|c| c.name().to_string()).collect();
            let total = genome.total_len() as u64;
            (OffTargetSearch::new(genome).input_degradations(degraded_inputs), names, total)
        }
    };
    let search = search.load_seconds(load_start.elapsed().as_secs_f64());

    let reporter = flags.get("progress").map(|_| ProgressReporter::start(total_bases));

    let mut search = search
        .guides(guides.clone())
        .max_mismatches(k)
        .platform(platform)
        .threads(threads)
        .shard(shard)
        .chunk_retries(retries);
    if let Some(budget) = timeout {
        search = search.deadline(budget);
    }
    let search_result = search.run();

    if let Some(reporter) = reporter {
        reporter.finish();
    }
    // The timeline is written even when the search failed — a fault
    // trace is exactly when the timeline matters most — but a search
    // error still wins over a trace-write error.
    let trace_written: Result<(), CliError> = match session {
        Some(session) => {
            let data = session.finish();
            flags.get("trace").map_or(Ok(()), |path| {
                let mut w = file_or_stdout(path)?;
                w.write_all(trace::chrome::render(&data).as_bytes())?;
                Ok(w.flush()?)
            })
        }
        None => Ok(()),
    };
    let report = search_result?;
    trace_written?;

    let mut writer = out_writer(&flags)?;
    let hit_writer = HitWriter::new(&guides, &contig_names);
    if json {
        writeln!(writer, "{{")?;
        writeln!(writer, "  \"platform\": \"{}\",", escape(platform.name()))?;
        writeln!(writer, "  \"k\": {k},")?;
        writeln!(writer, "  \"threads\": {threads},")?;
        writeln!(writer, "  \"genome_len\": {},", report.genome_len())?;
        writeln!(writer, "  \"guide_count\": {},", report.guide_count())?;
        if let Some(stop) = report.stopped() {
            writeln!(writer, "  \"deadline_exceeded\": {},", stop.deadline)?;
            writeln!(writer, "  \"chunks_scanned\": {},", stop.chunks_scanned)?;
            writeln!(writer, "  \"chunks_total\": {},", stop.chunks_total)?;
        }
        hit_writer.json_hits(&mut writer, report.hits())?;
        writeln!(writer, ",\n  \"metrics\": {}\n}}", report.metrics().to_json())?;
    } else {
        hit_writer.tsv(&mut writer, report.hits())?;
    }
    // Results are fully written (and flushed, if stdout shares the
    // stream with a sidecar below) before any sidecar or summary output.
    writer.flush()?;
    if let Some(path) = flags.get("metrics") {
        let mut out = file_or_stdout(path)?;
        writeln!(out, "{}", report.metrics().to_json())?;
        out.flush()?;
    }
    if let Some(path) = flags.get("prom") {
        let mut out = file_or_stdout(path)?;
        out.write_all(trace::prom::render(report.metrics()).as_bytes())?;
        out.flush()?;
    }
    eprintln!(
        "{}: {} hits, {} ({}){}",
        platform,
        report.hits().len(),
        report.timing(),
        if platform.is_modeled() { "modeled" } else { "measured" },
        if threads > 1 { format!(", {threads} threads") } else { String::new() },
    );
    // The incomplete-run contracts: everything above ran — the recovered
    // hits and every requested sidecar are on disk — and only now does
    // the exit code flip, so pipelines know the hit set is a floor, not
    // the full answer: 4 when the --timeout budget (or a cancel) stopped
    // the scan, 3 when some chunks failed every retry.
    if let Some(stop) = report.stopped() {
        eprintln!(
            "offtarget: {} after {}/{} chunks ({} hits recovered)",
            if stop.deadline { "deadline exceeded" } else { "cancelled" },
            stop.chunks_scanned,
            stop.chunks_total,
            report.hits().len()
        );
        return Ok(4);
    }
    if report.is_partial() {
        eprintln!(
            "offtarget: partial result: {}/{} chunks failed after retries ({} hits recovered)",
            report.chunk_failures().len(),
            report.chunks_total(),
            report.hits().len()
        );
        for failure in report.chunk_failures() {
            eprintln!("  failed chunk: {failure}");
        }
        return Ok(3);
    }
    Ok(0)
}

/// `offtarget serve`: loads the genome once, then blocks inside the
/// daemon until a `POST /shutdown` drains it.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use crispr_offtarget::serve::{parse_engine, ServeConfig, Server};
    let flags = parse_flags(args, SERVE_FLAGS)?;
    if flags.contains_key("genome") && flags.contains_key("index") {
        return Err("--genome and --index are mutually exclusive".into());
    }
    let mut cfg = ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    }
    cfg.workers = parse(&flags, "workers", cfg.workers)?;
    cfg.scan_threads = parse(&flags, "scan-threads", cfg.scan_threads)?;
    cfg.cache_capacity = parse(&flags, "cache", cfg.cache_capacity)?;
    cfg.retry_limit = parse(&flags, "retries", cfg.retry_limit)?;
    cfg.allow_inject = flags.contains_key("allow-inject");
    if flags.contains_key("queue-depth") {
        let depth: usize = parse(&flags, "queue-depth", 0)?;
        if depth == 0 {
            return Err("--queue-depth 0: the admission queue needs at least one slot".into());
        }
        cfg.queue_depth = Some(depth);
    }
    cfg.max_deadline =
        Duration::from_millis(parse(&flags, "max-deadline", cfg.max_deadline.as_millis() as u64)?);
    cfg.read_timeout = parse_secs(&flags, "read-timeout", cfg.read_timeout)?;
    cfg.write_timeout = parse_secs(&flags, "write-timeout", cfg.write_timeout)?;
    cfg.obs.access_log = flags.get("access-log").cloned();
    cfg.obs.access_log_max_bytes =
        parse(&flags, "access-log-max-bytes", cfg.obs.access_log_max_bytes)?;
    if flags.contains_key("slow-ms") {
        cfg.obs.slow_ms = Some(parse(&flags, "slow-ms", 0u64)?);
        // Capture needs a destination; default beside the access log,
        // falling back to the working directory.
        let default_dir = cfg
            .obs
            .access_log
            .as_deref()
            .filter(|target| *target != "-")
            .and_then(|target| {
                std::path::Path::new(target).parent().map(|p| p.display().to_string())
            })
            .filter(|dir| !dir.is_empty())
            .unwrap_or_else(|| ".".to_string());
        cfg.obs.slow_trace_dir = Some(flags.get("slow-trace-dir").cloned().unwrap_or(default_dir));
    } else if flags.contains_key("slow-trace-dir") {
        return Err("--slow-trace-dir without --slow-ms: set a threshold to capture".into());
    }
    cfg.obs.slow_trace_max = parse(&flags, "slow-trace-max", cfg.obs.slow_trace_max)?;
    if let Some(engine) = flags.get("platform") {
        cfg.default_engine = parse_engine(engine).map_err(|e| format!("--platform: {e}"))?;
    }
    let server = match flags.get("index") {
        Some(path) => {
            use crispr_offtarget::genome::diskindex::GenomeIndex;
            let load_start = Instant::now();
            let index = Arc::new(GenomeIndex::open(path)?);
            Server::start_indexed(index, load_start.elapsed().as_secs_f64(), cfg.clone())?
        }
        None => {
            let (genome, _) =
                load_genome(get(&flags, "genome").map_err(|_| "missing --genome (or --index)")?)?;
            Server::start(genome, cfg.clone())?
        }
    };
    eprintln!(
        "offtarget serve: listening on http://{} ({} workers, {} scan threads, engine {})",
        server.local_addr(),
        cfg.workers,
        cfg.scan_threads,
        cfg.default_engine
    );
    server.join();
    eprintln!("offtarget serve: drained and stopped");
    Ok(())
}

fn cmd_anml(args: &[String]) -> Result<(), CliError> {
    use crispr_offtarget::automata::anml;
    use crispr_offtarget::guides::{compile, CompileOptions};
    let flags = parse_flags(args, ANML_FLAGS)?;
    let guides = load_guides(get(&flags, "guides")?)?;
    let k = parse(&flags, "k", 3usize)?;
    let set = compile::compile_guides(&guides, &CompileOptions::new(k))?;
    let mut writer = out_writer(&flags)?;
    writer.write_all(anml::to_anml(&set.automaton, "offtarget").as_bytes())?;
    writer.flush()?;
    eprintln!(
        "{} guides → {} states, {} edges",
        set.guide_count,
        set.automaton.state_count(),
        set.automaton.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_accepts_values_and_booleans() {
        let flags = parse_flags(
            &args(&["--genome", "g.fa", "--guides", "g.txt", "-k", "2", "--progress"]),
            SEARCH_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.get("genome").map(String::as_str), Some("g.fa"));
        assert_eq!(flags.get("k").map(String::as_str), Some("2"));
        assert!(flags.contains_key("progress"));
    }

    #[test]
    fn a_recognized_flag_is_never_eaten_as_a_value() {
        // The regression: `--trace --progress` used to record "--progress"
        // as the trace path and silently drop the progress request.
        let err = parse_flags(&args(&["--trace", "--progress"]), SEARCH_FLAGS).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("--trace") && message.contains("needs a value"), "{message}");
        assert!(message.contains("--progress"), "{message}");
        // Shorthands are recognized flags too.
        let err = parse_flags(&args(&["--metrics", "-o"]), SEARCH_FLAGS).unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
    }

    #[test]
    fn unknown_flag_tokens_still_pass_as_values() {
        // A value that merely *looks* flag-like but matches nothing the
        // subcommand defines is accepted — files named "--weird" stay
        // reachable.
        let flags = parse_flags(&args(&["--trace", "--weird"]), SEARCH_FLAGS).unwrap();
        assert_eq!(flags.get("trace").map(String::as_str), Some("--weird"));
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let err = parse_flags(&args(&["-k", "2", "--k", "3"]), SEARCH_FLAGS).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
        let err = parse_flags(&args(&["--progress", "--progress"]), SEARCH_FLAGS).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn near_miss_flags_get_a_hint() {
        let err = parse_flags(&args(&["--genom", "g.fa"]), SEARCH_FLAGS).unwrap_err();
        assert!(err.to_string().contains("did you mean --genome"), "{err}");
    }

    #[test]
    fn unknown_platform_lists_valid_set_and_hints() {
        // A near-miss of the batched variant name suggests it.
        let err = parse_platform("cpu-hyperscan-batch").unwrap_err().to_string();
        assert!(err.contains("unknown platform \"cpu-hyperscan-batch\""), "{err}");
        assert!(err.contains("did you mean \"cpu-hyperscan-batched\"?"), "{err}");
        // The error lists every valid platform name, the batched variant
        // included.
        for p in Platform::ALL {
            assert!(err.contains(p.name()), "{} missing from: {err}", p.name());
        }
        // Nothing close: the valid set is still listed, with no hint.
        let err = parse_platform("tpu").unwrap_err().to_string();
        assert!(err.contains("one of:"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
        // The batched name parses to the batched platform.
        assert_eq!(
            parse_platform("cpu-hyperscan-batched").unwrap(),
            Platform::CpuBitParallelBatched
        );
    }

    #[test]
    fn usage_lists_exactly_the_platforms() {
        // The `platforms:` line and its indented continuations, in
        // `Platform::ALL` order.
        let (_, rest) = USAGE.split_once("\nplatforms:").expect("USAGE has a platforms: section");
        let mut lines = rest.lines();
        let first = lines.next().unwrap_or_default();
        let listed: Vec<&str> = std::iter::once(first)
            .chain(lines.take_while(|line| line.starts_with(' ')))
            .flat_map(str::split_whitespace)
            .collect();
        let all: Vec<&str> = Platform::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(listed, all);
    }

    #[test]
    fn eta_projects_for_any_positive_rate() {
        // The regression: rates at or below 1 base/s rendered "?" forever
        // even though the projection is perfectly computable.
        assert_eq!(format_eta(0.5, 100, 200), "200.0s");
        assert_eq!(format_eta(2.0, 100, 200), "50.0s");
        assert_eq!(format_eta(0.0, 100, 200), "?");
        assert_eq!(format_eta(-1.0, 100, 200), "?");
        assert_eq!(format_eta(5.0, 200, 200), "?");
    }
}
