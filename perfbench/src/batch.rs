//! The batch workloads: `offtarget search` from FASTA (`batch-fasta`)
//! and from an index (`batch-index-dense`), one process per operation.

use crate::calib;
use crate::inputs::{Inputs, Workload};
use crate::layers::{self, LayerValues, Pass};
use crate::outcome::Outcome;
use crate::program::Program;
use crate::stats::{json_field, median, quantile};
use crate::RunConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How one search operation is invoked.
struct Search {
    args: Vec<String>,
    out: PathBuf,
}

impl Search {
    fn new(cfg: &RunConfig, inputs: &Inputs, genome_or_index: &Path, out: PathBuf) -> Search {
        let (source, threads) = match cfg.workload {
            Workload::BatchFasta => ("--genome", 1),
            _ => ("--index", crate::nproc()),
        };
        let args = vec![
            "search".to_string(),
            source.to_string(),
            genome_or_index.display().to_string(),
            "--guides".to_string(),
            inputs.guides_txt.display().to_string(),
            "-k".to_string(),
            inputs.k.to_string(),
            "--threads".to_string(),
            threads.to_string(),
            "-o".to_string(),
            out.display().to_string(),
        ];
        Search { args, out }
    }

    /// Runs the search once and checks its TSV against the reference.
    /// Returns the exit record and whether the operation succeeded.
    fn run(
        &self,
        program: &Program,
        expected: &[u8],
        extra: &[&str],
        log: &Path,
    ) -> Result<(crate::program::Exit, bool), String> {
        let _ = std::fs::remove_file(&self.out);
        let mut args: Vec<&str> = self.args.iter().map(String::as_str).collect();
        args.extend_from_slice(extra);
        let exit = program.run(&args, log)?;
        let ok = exit.success() && std::fs::read(&self.out).is_ok_and(|got| got == expected);
        Ok((exit, ok))
    }
}

/// Runs `op` until `budget` has passed and at least `min` times, but
/// never past `3 × budget` once it has run at least once.
fn repeat<F: FnMut() -> Result<(), String>>(
    budget: Duration,
    min: usize,
    mut op: F,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while (start.elapsed() < budget || n < min) && !(n > 0 && start.elapsed() > budget * 3) {
        op()?;
        n += 1;
    }
    Ok(n)
}

pub fn run(
    cfg: &RunConfig,
    program: &Program,
    inputs: &Inputs,
    run_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let log = run_dir.join("offtarget.log");

    // Set-up, repeated: batch-fasta has nothing to prepare, so its
    // set-up is the first search on freshly staged inputs; the index
    // workload builds and writes the index.
    let mut setup = Vec::new();
    let mut reference = Vec::new();
    let mut source = inputs.genome_fa.clone();
    for rep in 0..cfg.shape.setup_reps {
        reference.push(calib::reference_task());
        match cfg.workload {
            Workload::BatchFasta => {
                let dir = run_dir.join(format!("setup{rep}"));
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let fa = dir.join("genome.fa");
                std::fs::copy(&inputs.genome_fa, &fa).map_err(|e| e.to_string())?;
                let search = Search::new(cfg, inputs, &fa, dir.join("hits.tsv"));
                let (exit, ok) = search.run(program, &inputs.reference_tsv, &[], &log)?;
                out.op(ok);
                setup.push(exit.wall_s);
                source = fa;
            }
            _ => {
                let idx = run_dir.join("genome.idx");
                let fa = inputs.genome_fa.display().to_string();
                let exit = program
                    .run(&["index", "--genome", &fa, "-o", &idx.display().to_string()], &log)?;
                out.op(exit.success() && idx.is_file());
                setup.push(exit.wall_s);
                source = idx;
            }
        }
    }
    let search = Search::new(cfg, inputs, &source, run_dir.join("hits.tsv"));

    // Labels: what the program's defaults resolved to on this host —
    // the platform from the summary line, the SIMD backend from the
    // metrics sidecar.
    let probe = run_dir.join("probe.json");
    let probe_log = run_dir.join("probe.log");
    let probe_arg = probe.display().to_string();
    let (_, ok) =
        search.run(program, &inputs.reference_tsv, &["--metrics", &probe_arg], &probe_log)?;
    out.op(ok);
    let summary = std::fs::read_to_string(&probe_log).unwrap_or_default();
    let platform = summary
        .lines()
        .find(|l| l.contains(" hits, "))
        .and_then(|l| l.split(':').next())
        .map(str::to_string);
    let metrics_json = std::fs::read_to_string(&probe).unwrap_or_default();
    label_engine(&mut out, platform, json_field(&metrics_json, "simd_backend"));
    out.label(
        "threads",
        if cfg.workload == Workload::BatchFasta { "1".into() } else { crate::nproc().to_string() },
    );

    if cfg.trace {
        traced(cfg, program, inputs, run_dir, &search, &source, &mut out)?;
    } else {
        let mut walls = Vec::new();
        let mut peak = 0u64;
        repeat(cfg.seconds, cfg.shape.min_ops, || {
            reference.push(calib::reference_task());
            let (exit, ok) = search.run(program, &inputs.reference_tsv, &[], &log)?;
            out.op(ok);
            walls.push(exit.wall_s);
            peak = peak.max(exit.max_rss_bytes);
            Ok(())
        })?;
        let scale = calib::scale(&reference);
        out.push("wall_s", median(&walls) * scale, "s");
        out.push("peak_rss_mb", peak as f64 / (1024.0 * 1024.0), "MiB");
        out.push("setup_s", median(&setup) * scale, "s");
        out.push("req_p50_ms", median(&walls) * scale * 1e3, "ms");
        out.push("req_p90_ms", quantile(&walls, 0.9) * scale * 1e3, "ms");
        out.push("qps", walls.len() as f64 / (walls.iter().sum::<f64>() * scale), "1/s");
        out.label("operations_timed", walls.len().to_string());
        out.label("raw_wall_s", median(&walls).to_string());
        out.label("raw_setup_s", median(&setup).to_string());
        out.label("reference_task_s", median(&reference).to_string());
    }
    Ok(out)
}

/// Records the engine name and the dispatched SIMD backend (the
/// `simd_backend` gauge: 0 scalar, 1 portable, 2 avx2, 3 neon).
pub fn label_engine(out: &mut Outcome, engine: Option<String>, simd_gauge: Option<f64>) {
    out.label("engine", engine.unwrap_or_else(|| "unknown".into()));
    let backend = match simd_gauge.map(|g| g as i64) {
        Some(0) => "scalar",
        Some(1) => "portable",
        Some(2) => "avx2",
        Some(3) => "neon",
        _ => "unknown",
    };
    out.label("simd_backend", backend);
}

/// The traced run: the untraced CLI wall time and the same pipeline
/// in-process, without and with a trace session.
fn traced(
    cfg: &RunConfig,
    program: &Program,
    inputs: &Inputs,
    run_dir: &Path,
    search: &Search,
    source: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let log = run_dir.join("offtarget.log");
    let threads = crate::nproc();
    let pass = || -> Result<Pass, String> {
        match cfg.workload {
            Workload::BatchFasta => layers::fasta_pass(inputs),
            _ => layers::index_pass(inputs, source, threads),
        }
    };
    // The CLI run, the untraced pass and the traced pass alternate, so
    // a drift of the host's speed hits all three alike and the residual
    // compares like with like.
    let mut walls = Vec::new();
    let mut untraced = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut sessions = Vec::new();
    repeat(cfg.seconds.mul_f64(0.8), 2, || {
        let (exit, ok) = search.run(program, &inputs.reference_tsv, &[], &log)?;
        out.op(ok);
        walls.push(exit.wall_s);
        let p = pass()?;
        out.op(p.ok);
        untraced.push(p.total_s);
        let p = layers::traced(&mut sessions, pass)?;
        out.op(p.ok);
        passes.push(p);
        Ok(())
    })?;
    let wall_s = median(&walls);
    let output_bytes = std::fs::metadata(&search.out).map(|m| m.len()).unwrap_or(0) as f64;
    let extras = match cfg.workload {
        Workload::BatchIndexDense => {
            Some(layers::traced(&mut sessions, || dense_extras(inputs, run_dir, threads))?)
        }
        _ => None,
    };
    let data = layers::merge(sessions);

    let spans = layers::span_durations(&data);
    let span = |name: &str| median(spans.get(name).map_or(&[][..], Vec::as_slice));
    let run_spans = spans.get("core.run").cloned().unwrap_or_default();
    let bases = inputs.bases as f64;
    let per_pass: Vec<LayerValues> = passes
        .iter()
        .zip(&run_spans)
        .map(|(p, &run_s)| LayerValues::from_metrics(&p.metrics, run_s, bases))
        .collect();
    let mut v = layers::aggregate(&per_pass, median);
    v.guides_read_s = span("guides.io");
    v.output_bytes = output_bytes;
    v.trace_overhead_s =
        median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>()) - median(&untraced);
    let source_s = match cfg.workload {
        Workload::BatchFasta => {
            v.fasta_parse_s = span("genome.fasta");
            v.fasta_bytes =
                std::fs::metadata(&inputs.genome_fa).map(|m| m.len()).unwrap_or(0) as f64;
            v.fasta_parse_s
        }
        _ => {
            let (index, one, many) = extras.expect("dense extras ran");
            v.index = index;
            v.index.open_s = span("genome.diskindex.open");
            for p in one.iter().chain(&many) {
                out.op(p.ok);
            }
            let total = |runs: &[Pass]| median(&runs.iter().map(|p| p.total_s).collect::<Vec<_>>());
            v.scaling_eff = total(&one) / (threads as f64 * total(&many));
            v.index.open_s
        }
    };
    v.residual_s = wall_s - (source_s + v.guides_read_s + v.run_s);
    v.push_all(out);

    let phases = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let source_row = match cfg.workload {
        Workload::BatchFasta => "genome.fasta (read + parse)",
        _ => "genome.diskindex.open",
    };
    let rows = [
        (source_row, source_s),
        ("guides.io", v.guides_read_s),
        (
            "engines load (genome_load_s: pack at 1 thread, materialize at N)",
            phases(&|p| p.metrics.phases.genome_load_s),
        ),
        ("engines.prepare (guide_compile_s)", v.prepare_s),
        ("engines.kernel (kernel_scan_s)", v.kernel_s),
        ("core.report (normalize)", v.report_s),
        ("core.unattributed", v.unattributed_s),
        ("cli.residual (process start, TSV write, exit)", v.residual_s),
    ];
    let trace_path = report_path(cfg, "traces", "json");
    layers::write_chrome(&data, &trace_path)?;
    out.report = format!(
        "## {} (seed {}, {} shape)\n\n{}\n- untraced `wall_s` median: {:.4} s over {} runs\n\
         - in-process pipeline: untraced {:.4} s, traced {:.4} s → tracing overhead {:.6} s\n\
         - core.unattributed_s {:.6} s, cli.residual_s {:.4} s\n- Chrome trace: {}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.shape.name,
        layers::self_time_table(&rows, "wall_s", wall_s),
        wall_s,
        walls.len(),
        median(&untraced),
        median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>()),
        v.trace_overhead_s,
        v.unattributed_s,
        v.residual_s,
        trace_path.display()
    );
    Ok(())
}

/// Index build/write/open/materialize, then searches of the
/// materialized genome at 1 and at `threads` threads, alternating.
fn dense_extras(
    inputs: &Inputs,
    run_dir: &Path,
    threads: usize,
) -> Result<(layers::IndexLayer, Vec<Pass>, Vec<Pass>), String> {
    let (index, genome) = layers::index_layer(inputs, &run_dir.join("inproc.idx"))?;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        one.push(layers::scaling_run(inputs, &genome, 1)?);
        many.push(layers::scaling_run(inputs, &genome, threads)?);
    }
    Ok((index, one, many))
}

/// `.perfbench/<kind>/<workload>-<shape>-<seed>.<ext>`.
pub fn report_path(cfg: &RunConfig, kind: &str, ext: &str) -> PathBuf {
    cfg.work.join(kind).join(format!(
        "{}-{}-{}.{ext}",
        cfg.workload.name(),
        cfg.shape.name,
        cfg.seed
    ))
}
