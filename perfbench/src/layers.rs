//! The traced side of the benchmark: in-process calls into each layer's
//! public functions, wrapped in the benchmark's own `crispr_trace`
//! spans, and the per-layer metrics and self-time table derived from
//! them.
//!
//! The program's own spans (phases, kernels, chunks) land in the same
//! session and are kept in the Chrome trace, but layer durations come
//! only from the benchmark's `bench:*` spans; the split inside
//! `OffTargetSearch::run` comes from its `SearchMetrics`.

use crate::inputs::{render_tsv, Inputs, Request};
use crate::outcome::Outcome;
use crate::stats::ratio;
use crispr_core::OffTargetSearch;
use crispr_genome::diskindex::{GenomeIndex, DEFAULT_Q};
use crispr_genome::{fasta, Genome};
use crispr_guides::{io as guide_io, Guide};
use crispr_model::SearchMetrics;
use crispr_trace::{self as trace, TraceData};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What one in-process pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole pass, traced or not.
    pub total_s: f64,
    pub metrics: SearchMetrics,
    /// The hit set equals the reference.
    pub ok: bool,
}

/// `offtarget search --genome` in-process: FASTA read and parse, guide
/// read, search at one thread.
pub fn fasta_pass(inputs: &Inputs) -> Result<Pass, String> {
    let start = Instant::now();
    let _pass = trace::span("bench:pass");
    let genome = {
        let _span = trace::span("bench:genome.fasta");
        let bytes = std::fs::read(&inputs.genome_fa).map_err(|e| e.to_string())?;
        fasta::read_genome_resilient(&bytes).map_err(|e| e.to_string())?.0
    };
    let guides = read_guides_file(&inputs.guides_txt)?;
    let report = {
        let _span = trace::span("bench:core.run");
        OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(inputs.k)
            .threads(1)
            .run()
            .map_err(|e| e.to_string())?
    };
    drop(_pass);
    Ok(Pass {
        total_s: start.elapsed().as_secs_f64(),
        ok: report.hits() == inputs.reference.as_slice(),
        metrics: report.metrics().clone(),
    })
}

/// `offtarget search --index` in-process: index open, guide read,
/// search at `threads`.
pub fn index_pass(inputs: &Inputs, index_path: &Path, threads: usize) -> Result<Pass, String> {
    let start = Instant::now();
    let _pass = trace::span("bench:pass");
    let index = {
        let _span = trace::span("bench:genome.diskindex.open");
        GenomeIndex::open(index_path).map_err(|e| e.to_string())?
    };
    let guides = read_guides_file(&inputs.guides_txt)?;
    let report = {
        let _span = trace::span("bench:core.run");
        OffTargetSearch::from_index(Arc::new(index))
            .guides(guides)
            .max_mismatches(inputs.k)
            .threads(threads)
            .run()
            .map_err(|e| e.to_string())?
    };
    drop(_pass);
    Ok(Pass {
        total_s: start.elapsed().as_secs_f64(),
        ok: report.hits() == inputs.reference.as_slice(),
        metrics: report.metrics().clone(),
    })
}

/// One serve request in-process, the way a daemon worker handles it:
/// guide-list parse, then a one-thread search over the resident genome.
pub fn request_pass(inputs: &Inputs, genome: Genome, request: &Request) -> Result<Pass, String> {
    let start = Instant::now();
    let _request = trace::span("bench:request");
    let guides = {
        let _span = trace::span("bench:guides.io");
        guide_io::read_guides(request.body.as_slice()).map_err(|e| e.to_string())?
    };
    let ids: Vec<String> = guides.iter().map(|g| g.id().to_string()).collect();
    let report = {
        let _span = trace::span("bench:core.run");
        OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(request.k)
            .threads(1)
            .run()
            .map_err(|e| e.to_string())?
    };
    drop(_request);
    let total_s = start.elapsed().as_secs_f64();
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let body = render_tsv(report.hits(), &ids, &inputs.contig_names);
    Ok(Pass {
        total_s,
        ok: body == inputs.expected_body(request),
        metrics: report.metrics().clone(),
    })
}

fn read_guides_file(path: &Path) -> Result<Vec<Guide>, String> {
    let _span = trace::span("bench:guides.io");
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    guide_io::read_guides(file).map_err(|e| e.to_string())
}

/// Index build, write, open and materialize timed one call each.
#[derive(Debug, Clone, Default)]
pub struct IndexLayer {
    pub build_s: f64,
    pub write_s: f64,
    pub bytes: u64,
    pub open_s: f64,
    pub materialize_s: f64,
}

/// Builds and writes the index of the workload's genome to `path`, then
/// opens and materializes it, each call in its own span. Returns the
/// timings and the materialized genome.
pub fn index_layer(inputs: &Inputs, path: &Path) -> Result<(IndexLayer, Genome), String> {
    let bytes = std::fs::read(&inputs.genome_fa).map_err(|e| e.to_string())?;
    let genome = fasta::read_genome_resilient(&bytes).map_err(|e| e.to_string())?.0;
    let mut layer = IndexLayer::default();
    let t = Instant::now();
    let index = {
        let _span = trace::span("bench:genome.diskindex.build");
        GenomeIndex::build(&genome, DEFAULT_Q).map_err(|e| e.to_string())?
    };
    layer.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _span = trace::span("bench:genome.diskindex.write");
        index.write_to(path).map_err(|e| e.to_string())?;
    }
    layer.write_s = t.elapsed().as_secs_f64();
    layer.bytes = index.as_bytes().len() as u64;
    drop(index);
    let t = Instant::now();
    let opened = {
        let _span = trace::span("bench:genome.diskindex.open");
        GenomeIndex::open(path).map_err(|e| e.to_string())?
    };
    layer.open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let materialized = {
        let _span = trace::span("bench:genome.diskindex.materialize");
        opened.to_genome().map_err(|e| e.to_string())?
    };
    layer.materialize_s = t.elapsed().as_secs_f64();
    if materialized != genome {
        return Err("materialized index differs from the FASTA genome".into());
    }
    Ok((layer, materialized))
}

/// One search over an in-memory genome at `threads`, in its own span —
/// the pair of these at 1 and `nproc` threads gives the scaling
/// efficiency of the parallel deployment.
pub fn scaling_run(inputs: &Inputs, genome: &Genome, threads: usize) -> Result<Pass, String> {
    let start = Instant::now();
    let _span = trace::span_dyn(&format!("bench:core.run.threads{threads}"));
    let report = OffTargetSearch::new(genome.clone())
        .guides(inputs.guides.iter().cloned())
        .max_mismatches(inputs.k)
        .threads(threads)
        .run()
        .map_err(|e| e.to_string())?;
    drop(_span);
    Ok(Pass {
        total_s: start.elapsed().as_secs_f64(),
        ok: report.hits() == inputs.reference.as_slice(),
        metrics: report.metrics().clone(),
    })
}

/// Durations of every `bench:*` span in the session, by name, in
/// recording order.
pub fn span_durations(data: &TraceData) -> HashMap<&'static str, Vec<f64>> {
    let mut open: HashMap<(u32, &'static str), Vec<u64>> = HashMap::new();
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for event in data.events.iter().filter(|e| e.name.starts_with("bench:")) {
        match event.kind {
            trace::EventKind::Begin => {
                open.entry((event.tid, event.name)).or_default().push(event.ts_ns)
            }
            trace::EventKind::End => {
                if let Some(begin) = open.get_mut(&(event.tid, event.name)).and_then(Vec::pop) {
                    let seconds = event.ts_ns.saturating_sub(begin) as f64 / 1e9;
                    out.entry(event.name.trim_start_matches("bench:")).or_default().push(seconds);
                }
            }
            trace::EventKind::Instant => {}
        }
    }
    out
}

/// Runs `f` inside its own trace session and keeps the session's data.
pub fn traced<T>(sessions: &mut Vec<TraceData>, f: impl FnOnce() -> T) -> T {
    let session = trace::TraceSession::start();
    trace::name_thread("bench");
    let result = f();
    sessions.push(session.finish());
    result
}

/// One timeline from consecutive sessions.
pub fn merge(sessions: Vec<TraceData>) -> TraceData {
    let mut merged = TraceData::default();
    for data in sessions {
        merged.events.extend(data.events);
        merged.thread_names.extend(data.thread_names);
        merged.dropped += data.dropped;
    }
    merged.events.sort_by_key(|e| e.ts_ns);
    merged.thread_names.sort();
    merged.thread_names.dedup();
    merged
}

/// Writes the session as a Chrome trace.
pub fn write_chrome(data: &TraceData, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, trace::chrome::render(data))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every per-layer metric; workloads fill what applies and leave the
/// rest at 0 (a layer the workload never calls did no work).
#[derive(Debug, Clone, Default)]
pub struct LayerValues {
    pub fasta_parse_s: f64,
    pub fasta_bytes: f64,
    pub index: IndexLayer,
    pub guides_read_s: f64,
    pub prepare_s: f64,
    pub pack_s: f64,
    pub kernel_s: f64,
    pub bases: f64,
    pub counters: [f64; 7],
    pub utilization: f64,
    pub straggler_ratio: f64,
    pub scaling_eff: f64,
    pub run_s: f64,
    pub report_s: f64,
    pub unattributed_s: f64,
    pub residual_s: f64,
    pub output_bytes: f64,
    pub serve: [f64; 9],
    pub trace_overhead_s: f64,
}

impl LayerValues {
    /// Fills the engine and core fields from one run's metrics (the
    /// caller averages across runs where that applies).
    pub fn from_metrics(m: &SearchMetrics, run_s: f64, bases: f64) -> LayerValues {
        let c = &m.counters;
        let pack_s = match &m.parallel {
            // Workers pack their own chunks; summed worker seconds.
            Some(p) => p.worker_phases.genome_load_s,
            None => m.phases.genome_load_s,
        };
        LayerValues {
            prepare_s: m.phases.guide_compile_s,
            pack_s,
            kernel_s: m.phases.kernel_scan_s,
            bases,
            counters: [
                c.windows_scanned as f64,
                c.pam_anchors_tested as f64,
                c.multiseed_candidates as f64,
                c.candidates_verified as f64,
                c.raw_hits as f64,
                c.chunks_retried as f64,
                c.chunks_failed as f64,
            ],
            utilization: m.gauge("worker_utilization").unwrap_or(0.0),
            straggler_ratio: m.gauge("straggler_ratio").unwrap_or(0.0),
            run_s,
            report_s: m.phases.report_s,
            unattributed_s: run_s - m.phases.total_s(),
            ..LayerValues::default()
        }
    }

    /// Pushes every per-layer metric onto `out`.
    pub fn push_all(&self, out: &mut Outcome) {
        let c = &self.counters;
        out.push("genome.fasta.parse_s", self.fasta_parse_s, "s");
        out.push(
            "genome.fasta.mb_per_s",
            ratio(self.fasta_bytes / 1e6, self.fasta_parse_s),
            "MB/s",
        );
        out.push("genome.diskindex.build_s", self.index.build_s, "s");
        out.push("genome.diskindex.write_s", self.index.write_s, "s");
        out.push("genome.diskindex.bytes", self.index.bytes as f64, "bytes");
        out.push("genome.diskindex.open_s", self.index.open_s, "s");
        out.push("genome.diskindex.materialize_s", self.index.materialize_s, "s");
        out.push("guides.read_s", self.guides_read_s, "s");
        out.push("engines.prepare_s", self.prepare_s, "s");
        out.push("engines.pack_s", self.pack_s, "s");
        out.push("engines.kernel_s", self.kernel_s, "s");
        out.push("engines.kernel_ns_per_base", ratio(self.kernel_s * 1e9, self.bases), "ns");
        out.push("engines.windows_scanned", c[0], "count");
        out.push("engines.pam_anchors_tested", c[1], "count");
        out.push("engines.multiseed_candidates", c[2], "count");
        out.push("engines.candidates_verified", c[3], "count");
        out.push("engines.raw_hits", c[4], "count");
        out.push("engines.anchor_yield", ratio(c[4], c[1]), "ratio");
        out.push("engines.seed_yield", ratio(c[3], c[2]), "ratio");
        out.push("engines.parallel.utilization", self.utilization, "ratio");
        out.push("engines.parallel.straggler_ratio", self.straggler_ratio, "ratio");
        out.push("engines.parallel.scaling_eff", self.scaling_eff, "ratio");
        out.push("engines.chunks_retried", c[5], "count");
        out.push("engines.chunks_failed", c[6], "count");
        out.push("core.run_s", self.run_s, "s");
        out.push("core.report_s", self.report_s, "s");
        out.push("core.unattributed_s", self.unattributed_s, "s");
        out.push("cli.residual_s", self.residual_s, "s");
        out.push("cli.output_bytes", self.output_bytes, "bytes");
        let s = &self.serve;
        out.push("serve.connect_ms", s[0], "ms");
        out.push("serve.ttfb_ms", s[1], "ms");
        out.push("serve.transfer_ms", s[2], "ms");
        out.push("serve.response_bytes", s[3], "bytes");
        out.push("serve.queue_wait_ms", s[4], "ms");
        out.push("serve.scan_ms", s[5], "ms");
        out.push("serve.other_ms", s[6], "ms");
        out.push("serve.cache_hit_ratio", s[7], "ratio");
        out.push("serve.non2xx", s[8], "count");
        out.push("bench.trace_overhead_s", self.trace_overhead_s, "s");
    }
}

/// `agg` (median or mean) over passes of each field
/// [`LayerValues::from_metrics`] fills.
pub fn aggregate(passes: &[LayerValues], agg: fn(&[f64]) -> f64) -> LayerValues {
    let med = |f: &dyn Fn(&LayerValues) -> f64| agg(&passes.iter().map(f).collect::<Vec<_>>());
    let mut counters = [0.0; 7];
    for (i, slot) in counters.iter_mut().enumerate() {
        *slot = med(&|v| v.counters[i]);
    }
    LayerValues {
        prepare_s: med(&|v| v.prepare_s),
        pack_s: med(&|v| v.pack_s),
        kernel_s: med(&|v| v.kernel_s),
        bases: med(&|v| v.bases),
        counters,
        utilization: med(&|v| v.utilization),
        straggler_ratio: med(&|v| v.straggler_ratio),
        run_s: med(&|v| v.run_s),
        report_s: med(&|v| v.report_s),
        unattributed_s: med(&|v| v.unattributed_s),
        ..LayerValues::default()
    }
}

/// Per-layer self-time table as Markdown: each row's seconds and its
/// share of `whole_s` (the untraced end-to-end figure).
pub fn self_time_table(rows: &[(&str, f64)], whole_label: &str, whole_s: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| layer | self time (ms) | share of {whole_label} |");
    let _ = writeln!(out, "|---|---:|---:|");
    for (name, seconds) in rows {
        let _ = writeln!(
            out,
            "| {name} | {:.3} | {:.1}% |",
            seconds * 1e3,
            100.0 * ratio(*seconds, whole_s)
        );
    }
    let _ = writeln!(out, "| **{whole_label}** | {:.3} | 100.0% |", whole_s * 1e3);
    out
}
