//! The one scan driver: every search — one thread or many, FASTA-loaded
//! genome or on-disk index, fresh compile or cached — runs through
//! [`run_scan`] (and [`run_search`], which adds the compile prologue).
//!
//! The inner engine compiles its guide set exactly once
//! ([`Engine::prepare`]); the scan then walks overlapping chunks of each
//! contig through the shared [`PreparedSearch`] — no per-chunk
//! recompilation. A [`GenomeSource::Genome`] chunk is a *borrowed* contig
//! slice (`bytes_copied` meters copies and stays zero); a
//! [`GenomeSource::Index`] chunk is read from the index's packed payloads
//! in place, so resident memory is bounded by the chunks in flight, not
//! the genome. Chunks overlap by `site_len − 1` bases so no window is
//! lost at a boundary; hits are shifted back to contig coordinates and
//! normalized (overlap regions produce duplicate hits by construction;
//! normalization removes them). This is the standard way the paper's CPU
//! tools scale to many cores.
//!
//! # Chunk geometry
//!
//! One rule for both sources: every contig is scanned at least once
//! (contigs shorter than a site yield no windows, but engines still meter
//! the symbols delivered); chunks overlap by `site_len − 1`; the default
//! chunk is the contig split across the deployment's threads
//! ([`ScanDeployment::chunk_len`] overrides it); index chunks are further
//! capped at [`INDEX_CHUNK_MAX`] window starts. Window starts partition
//! exactly across a contig's chunks, so hits and every per-window counter
//! are independent of the geometry.
//!
//! # Fault isolation and self-healing
//!
//! Worker failure is treated as a normal operating condition, not a
//! process event. Every chunk scan runs inside `catch_unwind` — on the
//! caller's thread at `threads = 1`, on scoped workers otherwise — so a
//! panicking inner engine (or an injected fault at the `parallel.chunk`
//! failpoint) unwinds back to the drain loop instead of tearing down the
//! thread. A failed chunk is re-queued for a fresh attempt — with a fresh
//! per-attempt metrics scratch, so counters stay identical to a clean run
//! — up to [`ScanDeployment::retry_limit`] retries; a chunk that exhausts
//! its budget is *reported* in a structured [`SearchError::Partial`]
//! carrying full provenance ([`crate::ChunkFailure`]) while every healthy
//! chunk's hits are still aggregated. The shared work queue is accessed
//! through a poison-recovering guard.
//!
//! Phase attribution: `guide_compile_s` is charged once, by
//! [`run_search`], and is independent of thread and chunk counts. At
//! `threads = 1` the chunk phases land directly in the caller's metrics
//! and `m.parallel` stays `None`; with more threads the parent's
//! `kernel_scan_s` is the fan-out wall-clock and the workers' own phase
//! sums (CPU-seconds across threads, so they may exceed wall-clock) are
//! reported separately as [`ParallelMetrics::worker_phases`].

use crate::degrade::panic_cause;
use crate::engine::{Engine, PreparedSearch};
use crate::error::ChunkFailure;
use crate::{CancelToken, EngineError, SearchError};
use crispr_genome::diskindex::GenomeIndex;
use crispr_genome::Genome;
use crispr_guides::{normalize, Guide, Hit};
use crispr_model::{ParallelMetrics, SearchMetrics, ThreadStats};
use crispr_trace as trace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default number of *re-queues* a failed chunk gets before it is
/// reported as failed (so a chunk is attempted at most this plus one
/// times).
pub const DEFAULT_CHUNK_RETRIES: u32 = 3;

/// Upper bound on the window starts of one index chunk. Index chunks are
/// read from the packed payloads per attempt, so this caps the resident
/// cost of a scan at (threads × ~0.75 B/base × this) whatever the contig
/// length — the bounded-memory promise of scanning an index in place.
pub(crate) const INDEX_CHUNK_MAX: usize = 1 << 22;

/// The reference a scan walks: borrowed byte-per-base contigs, or an
/// opened on-disk index whose contig ranges are read in packed form
/// (with their anchor bitmaps) and fed to [`PreparedSearch::scan_packed`].
#[derive(Debug, Clone, Copy)]
pub enum GenomeSource<'a> {
    /// An in-memory genome (FASTA or synthetic).
    Genome(&'a Genome),
    /// An opened on-disk index, scanned in place.
    Index(&'a GenomeIndex),
}

impl<'a> From<&'a Genome> for GenomeSource<'a> {
    fn from(genome: &'a Genome) -> GenomeSource<'a> {
        GenomeSource::Genome(genome)
    }
}

impl<'a> From<&'a GenomeIndex> for GenomeSource<'a> {
    fn from(index: &'a GenomeIndex) -> GenomeSource<'a> {
        GenomeSource::Index(index)
    }
}

impl GenomeSource<'_> {
    /// Number of contigs.
    pub fn contig_count(&self) -> usize {
        match self {
            GenomeSource::Genome(genome) => genome.contig_count(),
            GenomeSource::Index(index) => index.contig_count(),
        }
    }

    /// Length in bases of contig `ci`.
    pub fn contig_len(&self, ci: usize) -> usize {
        match self {
            GenomeSource::Genome(genome) => genome.contigs()[ci].len(),
            GenomeSource::Index(index) => index.contig_len(ci),
        }
    }

    /// Name of contig `ci`.
    pub fn contig_name(&self, ci: usize) -> &str {
        match self {
            GenomeSource::Genome(genome) => genome.contigs()[ci].name(),
            GenomeSource::Index(index) => index.contig_name(ci),
        }
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        match self {
            GenomeSource::Genome(genome) => genome.total_len(),
            GenomeSource::Index(index) => index.total_len(),
        }
    }

    /// Splits every contig into overlapping chunks (see the module docs
    /// for the geometry rule).
    fn chunks(&self, site_len: usize, deployment: &ScanDeployment) -> Vec<Chunk> {
        let overlap = site_len.saturating_sub(1);
        let mut work = Vec::new();
        let cap = match self {
            GenomeSource::Genome(_) => usize::MAX,
            GenomeSource::Index(_) => INDEX_CHUNK_MAX,
        };
        for ci in 0..self.contig_count() {
            let total = self.contig_len(ci);
            let step = match deployment.chunk_len {
                Some(len) => len,
                None => {
                    // Split across the threads; where the cap cuts finer,
                    // keep the piece count a multiple of the thread count
                    // so the workers stay balanced.
                    let count = deployment.threads.min(total / site_len.max(1)).max(1);
                    total.div_ceil(count * total.div_ceil(cap).div_ceil(count).max(1))
                }
            };
            // Clamped to the contig so chunk arithmetic cannot overflow
            // whatever length a caller asks for.
            let step = step.min(cap).clamp(1, total.max(1));
            let mut start = 0usize;
            loop {
                let end = (start + step + overlap).min(total);
                // Last chunk once the next start leaves no room for a
                // full site; it then owns every remaining base.
                let last = start + step + site_len > total;
                work.push(Chunk {
                    contig: ci as u32,
                    start: start as u64,
                    len: end - start,
                    fresh: if last { total - start } else { step } as u64,
                    attempts: 0,
                    requeued_at: None,
                });
                if last {
                    break;
                }
                start += step;
            }
        }
        work
    }

    /// Scans one chunk, appending chunk-relative raw hits. Index ranges
    /// are read here, per attempt, and the read is charged to
    /// `genome_load_s`.
    fn scan_chunk(
        &self,
        prepared: &dyn PreparedSearch,
        chunk: &Chunk,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let (ci, start) = (chunk.contig as usize, chunk.start as usize);
        match self {
            GenomeSource::Genome(genome) => {
                let seq = genome.contigs()[ci].seq().as_slice();
                prepared.scan_slice(&seq[start..start + chunk.len], out, m)
            }
            GenomeSource::Index(index) => {
                let load_start = Instant::now();
                let packed = index.contig_packed_range(ci, start, chunk.len);
                let masks = index.contig_masks_range(ci, start, chunk.len);
                m.phases.genome_load_s += load_start.elapsed().as_secs_f64();
                prepared.scan_packed(&packed, &masks, out, m)
            }
        }
    }
}

/// The owned counterpart of [`GenomeSource`], for long-lived holders
/// (the search builder, the serve daemon): an in-memory genome, or a
/// shared handle on an opened index.
#[derive(Debug, Clone)]
pub enum Reference {
    /// An in-memory genome (FASTA or synthetic).
    Genome(Genome),
    /// An opened on-disk index, scanned in place.
    Index(Arc<GenomeIndex>),
}

impl Reference {
    /// The borrowed view the scan driver walks.
    pub fn source(&self) -> GenomeSource<'_> {
        match self {
            Reference::Genome(genome) => GenomeSource::Genome(genome),
            Reference::Index(index) => GenomeSource::Index(index),
        }
    }
}

/// How a compiled [`PreparedSearch`] is deployed over a genome: thread
/// count, retry budget, chunk length, and cancellation.
#[derive(Debug, Clone)]
pub struct ScanDeployment {
    /// Threads to scan chunks on (≥ 1). One scans inline on the
    /// caller's thread; more fan chunks out over scoped workers.
    pub threads: usize,
    /// Re-queues a failed chunk gets before it is reported in
    /// [`SearchError::Partial`]. Zero means fail-fast-per-chunk — one
    /// attempt, no healing.
    pub retry_limit: u32,
    /// Per-chunk window-start count override; `None` splits each contig
    /// across `threads`. Adversarially small chunks — around one site
    /// length — maximize boundary traffic and are how the chunk-boundary
    /// regressions pin down overlap handling.
    pub chunk_len: Option<usize>,
    /// Cooperative cancellation token, polled before every chunk
    /// attempt. Defaults to [`CancelToken::none`] (checks are free).
    pub cancel: CancelToken,
}

impl ScanDeployment {
    /// A deployment over `threads` threads with the default retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> ScanDeployment {
        assert!(threads > 0, "need at least one thread");
        ScanDeployment {
            threads,
            retry_limit: DEFAULT_CHUNK_RETRIES,
            chunk_len: None,
            cancel: CancelToken::none(),
        }
    }

    /// Overrides the per-chunk retry budget.
    pub fn with_retry_limit(mut self, retries: u32) -> ScanDeployment {
        self.retry_limit = retries;
        self
    }

    /// Overrides the per-chunk window-start count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn with_chunk_len(mut self, chunk_len: usize) -> ScanDeployment {
        assert!(chunk_len > 0, "chunk length must be positive");
        self.chunk_len = Some(chunk_len);
        self
    }

    /// Arms a cooperative [`CancelToken`] (deadline or manual trip);
    /// it is polled before every chunk attempt, so a trip stops the scan
    /// within one chunk-scan.
    pub fn with_cancel(mut self, cancel: CancelToken) -> ScanDeployment {
        self.cancel = cancel;
        self
    }
}

/// One unit of work: a contig range plus its retry history.
struct Chunk {
    contig: u32,
    start: u64,
    len: usize,
    /// Bases this chunk owns outside the overlap with the next chunk —
    /// what a completed scan adds to progress.
    fresh: u64,
    attempts: u32,
    /// When the chunk was last re-queued after a failure; the dequeue
    /// side turns it into the `retry_backoff_s` histogram.
    requeued_at: Option<Instant>,
}

/// Everything one drain loop learned.
struct WorkerReport {
    stats: ThreadStats,
    local: SearchMetrics,
    hits: Vec<Hit>,
    failures: Vec<ChunkFailure>,
}

/// Locks a mutex, recovering from poisoning. The queue it guards is a
/// plain `VecDeque` whose operations never leave it half-mutated across
/// an unwind, so a poisoned guard is safe to adopt — and the scan
/// boundaries that *can* unwind are already fenced by `catch_unwind`.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Compiles `guides` at budget `k` with `engine` (charged once to
/// `guide_compile_s`, compile-time gauges recorded) and scans `source`
/// through [`run_scan`]. `m.engine` is the engine's name.
///
/// # Errors
///
/// [`Engine::prepare`] failures, plus everything [`run_scan`] returns.
pub fn run_search<E: Engine + ?Sized>(
    engine: &E,
    guides: &[Guide],
    k: usize,
    source: GenomeSource<'_>,
    deployment: &ScanDeployment,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, EngineError> {
    // Fires during prepare (e.g. a degraded accelerator build) are
    // metered here; scan-side fires by `run_scan`'s own delta.
    let faults_before = crispr_failpoint::fired_total();
    m.engine = engine.name().to_string();
    let compile_start = Instant::now();
    let prepared = {
        let _span = trace::span("phase:guide_compile");
        engine.prepare(guides, k)
    };
    m.phases.guide_compile_s += compile_start.elapsed().as_secs_f64();
    m.counters.faults_injected += crispr_failpoint::fired_total().saturating_sub(faults_before);
    let prepared = prepared?;
    prepared.record_gauges(m);
    run_scan(prepared.as_ref(), source, deployment, m)
}

/// Scans `source` with an already-compiled [`PreparedSearch`] under
/// `deployment`: per-chunk panic isolation, bounded retries, cooperative
/// cancellation, and structured partiality at any thread count. Callers
/// holding a cached prepared search (the serve layer) call this directly
/// and skip the compile phase.
///
/// `m.phases.guide_compile_s` is *not* touched — compile cost belongs to
/// whoever ran [`Engine::prepare`]. Scan-side fault fires are metered as
/// a delta into `m.counters.faults_injected`.
///
/// # Errors
///
/// [`SearchError::Partial`] when some chunks exhausted their retry
/// budget, and [`SearchError::Cancelled`] /
/// [`SearchError::DeadlineExceeded`] when the token tripped before every
/// chunk completed — each carrying the recovered hits, normalized, with
/// `m` fully populated (the partial-results contract).
pub fn run_scan(
    prepared: &dyn PreparedSearch,
    source: GenomeSource<'_>,
    deployment: &ScanDeployment,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, EngineError> {
    assert!(deployment.threads > 0, "need at least one thread");
    let faults_before = crispr_failpoint::fired_total();
    let site_len = prepared.site_len();
    let work = source.chunks(site_len, deployment);
    let chunks_total = work.len() as u64;
    let chunk_len_min = work.iter().map(|c| c.len as u64).min().unwrap_or(0);
    let chunk_len_max = work.iter().map(|c| c.len as u64).max().unwrap_or(0);
    let queue = Mutex::new(VecDeque::from(work));

    let scan_start = Instant::now();
    let reports: Vec<WorkerReport> = if deployment.threads == 1 {
        vec![drain(prepared, source, &queue, deployment)]
    } else {
        let _fanout = trace::span("phase:fanout");
        // Workers inherit the caller's request tag, so the chunk spans
        // and fault instants they record belong to the request (serve).
        let request = trace::current_request();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..deployment.threads)
                .map(|w| {
                    let queue = &queue;
                    scope.spawn(move || {
                        let _tag = trace::request_scope(request);
                        trace::name_thread(&format!("worker-{w}"));
                        let report = drain(prepared, source, queue, deployment);
                        // Hand this worker's events to the collector
                        // before the scope joins the thread.
                        trace::flush_thread();
                        report
                    })
                })
                .collect();
            // Chunk scans are fenced inside `drain`; a worker that dies
            // anyway is a bug in the driver itself, so it propagates.
            workers.into_iter().map(|w| w.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        })
    };
    let wall_s = scan_start.elapsed().as_secs_f64();

    let mut parallel = ParallelMetrics {
        threads: Vec::with_capacity(reports.len()),
        chunks_total,
        chunk_len_min,
        chunk_len_max,
        overlap: site_len.saturating_sub(1) as u64,
        worker_phases: Default::default(),
    };
    let mut hits: Vec<Hit> = Vec::new();
    let mut failures: Vec<ChunkFailure> = Vec::new();
    for report in reports {
        m.counters.raw_hits += report.stats.raw_hits;
        parallel.threads.push(report.stats);
        parallel.worker_phases.merge(&report.local.phases);
        m.counters.merge(&report.local.counters);
        m.merge_histograms(&report.local.histograms);
        hits.extend(report.hits);
        failures.extend(report.failures);
    }
    let chunks_scanned: u64 = parallel.threads.iter().map(|t| t.chunks).sum();
    let max_busy_s = parallel.max_busy_s();
    let fanned_out = deployment.threads > 1;
    if fanned_out {
        m.phases.kernel_scan_s += wall_s;
        m.set_gauge("worker_utilization", parallel.utilization(wall_s));
        m.set_gauge("straggler_ratio", parallel.straggler_ratio());
        m.parallel = Some(parallel);
    } else {
        m.phases.merge(&parallel.worker_phases);
    }
    // Worker gauges are not merged upward, so ratio gauges over the
    // merged counters are computed here, after the fold.
    m.finalize_derived_gauges();

    let report_start = Instant::now();
    {
        let _span = trace::span("phase:report");
        normalize(&mut hits);
    }
    m.phases.report_s += report_start.elapsed().as_secs_f64();
    if fanned_out {
        // The shortest wall-clock this run could reach with perfect load
        // balance: the serial compile and report phases, plus the
        // busiest worker's scan time.
        m.set_gauge("critical_path_s", m.phases.guide_compile_s + max_busy_s + m.phases.report_s);
    }
    m.counters.faults_injected += crispr_failpoint::fired_total().saturating_sub(faults_before);

    // A trip observed after every chunk already completed is not a
    // cancellation: the full answer exists, so it is returned. Only a
    // run that actually stopped short surfaces the typed error.
    if chunks_scanned < chunks_total {
        if let Err(kind) = deployment.cancel.check() {
            return Err(SearchError::from_cancel(kind, hits, chunks_scanned, chunks_total));
        }
    }
    if !failures.is_empty() {
        for failure in &mut failures {
            failure.contig_name = source.contig_name(failure.contig as usize).to_string();
        }
        failures.sort_by_key(|f| (f.contig, f.start));
        return Err(SearchError::Partial { failures, chunks_total, hits });
    }
    Ok(hits)
}

/// The drain loop: takes chunks off the shared queue until it is empty
/// or the token trips, scanning each behind the unwind fence.
fn drain(
    prepared: &dyn PreparedSearch,
    source: GenomeSource<'_>,
    queue: &Mutex<VecDeque<Chunk>>,
    deployment: &ScanDeployment,
) -> WorkerReport {
    let mut report = WorkerReport {
        stats: ThreadStats::default(),
        local: SearchMetrics::default(),
        hits: Vec::new(),
        failures: Vec::new(),
    };
    loop {
        // Cooperative cancellation: one relaxed load before each chunk
        // attempt. A tripped token stops taking new work; chunks already
        // finished keep their exact counters.
        if deployment.cancel.check().is_err() {
            break;
        }
        let chunk = lock_unpoisoned(queue).pop_front();
        let Some(mut chunk) = chunk else { break };
        if let Some(requeued_at) = chunk.requeued_at.take() {
            report.local.observe("retry_backoff_s", requeued_at.elapsed().as_secs_f64());
        }
        let chunk_span = trace::span_args("chunk", chunk.contig as u64, chunk.start);
        let busy_start = Instant::now();
        // The whole attempt — failpoint, scan, metrics — runs behind the
        // unwind fence with a *fresh* per-attempt metrics scratch: a
        // failed attempt contributes nothing, so counters after healing
        // equal a clean run's.
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            crispr_failpoint::hit("parallel.chunk").map_err(|e| e.to_string())?;
            let mut buf = Vec::new();
            let mut scratch = SearchMetrics::default();
            source
                .scan_chunk(prepared, &chunk, &mut buf, &mut scratch)
                .map_err(|e| e.to_string())?;
            Ok((buf, scratch))
        }));
        let attempt_s = busy_start.elapsed().as_secs_f64();
        report.stats.busy_s += attempt_s;
        drop(chunk_span);
        chunk.attempts += 1;
        match attempt.unwrap_or_else(|payload| Err(panic_cause(payload))) {
            Ok((buf, scratch)) => {
                if chunk.attempts > 1 {
                    trace::instant("chunk_heal", chunk.contig as u64, chunk.start);
                }
                report.local.observe("chunk_scan_s", attempt_s);
                trace::progress::add(chunk.fresh);
                report.stats.chunks += 1;
                report.stats.raw_hits += buf.len() as u64;
                report.local.phases.merge(&scratch.phases);
                report.local.counters.merge(&scratch.counters);
                report.hits.extend(buf.into_iter().map(|mut h| {
                    h.contig = chunk.contig;
                    h.pos += chunk.start;
                    h
                }));
            }
            Err(_cause) if chunk.attempts <= deployment.retry_limit => {
                // Heal: back of the queue, so healthy work drains first
                // and a flapping chunk's retries are spread over time.
                trace::instant("chunk_retry", chunk.contig as u64, chunk.start);
                report.local.counters.chunks_retried += 1;
                chunk.requeued_at = Some(Instant::now());
                lock_unpoisoned(queue).push_back(chunk);
            }
            Err(cause) => {
                trace::instant("chunk_fail", chunk.contig as u64, chunk.start);
                report.local.counters.chunks_failed += 1;
                report.failures.push(ChunkFailure {
                    contig: chunk.contig,
                    contig_name: String::new(),
                    start: chunk.start,
                    len: chunk.len as u64,
                    attempts: chunk.attempts,
                    cause,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::planted_workload;
    use crate::{Accelerated, BitParallelEngine, CasOffinderCpuEngine, ScalarEngine};

    /// `engine` over `genome` under `deployment`, metered into `m`.
    fn scan(
        engine: &dyn Engine,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        deployment: &ScanDeployment,
        m: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        run_search(engine, guides, k, genome.into(), deployment, m)
    }

    /// [`scan`] with default metrics and the default retry budget.
    fn scan_threads(
        engine: &dyn Engine,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        threads: usize,
    ) -> Result<Vec<Hit>, EngineError> {
        let deployment = ScanDeployment::new(threads);
        scan(engine, genome, guides, k, &deployment, &mut SearchMetrics::default())
    }

    #[test]
    fn parallel_equals_serial_bitparallel() {
        let (genome, guides, _) = planted_workload(71, 3);
        let engine = Accelerated::new(BitParallelEngine::new());
        let serial = engine.search(&genome, &guides, 3).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = scan_threads(&engine, &genome, &guides, 3, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_equals_serial_brute_force() {
        let (genome, guides, _) = planted_workload(72, 2);
        for engine in [
            &CasOffinderCpuEngine::new() as &dyn Engine,
            &Accelerated::new(CasOffinderCpuEngine::new()),
        ] {
            let serial = engine.search(&genome, &guides, 2).unwrap();
            assert_eq!(scan_threads(engine, &genome, &guides, 2, 3).unwrap(), serial);
        }
    }

    #[test]
    fn chunk_boundaries_do_not_lose_hits() {
        let (genome, guides, _) = planted_workload(73, 1);
        let truth = ScalarEngine::new().search(&genome, &guides, 1).unwrap();
        let par = scan_threads(&ScalarEngine::new(), &genome, &guides, 1, 16).unwrap();
        assert_eq!(par, truth);
    }

    #[test]
    fn inner_errors_propagate() {
        let genome = Genome::from_seq("ACGT".parse().unwrap());
        assert!(scan_threads(&ScalarEngine::new(), &genome, &[], 1, 2).is_err());
    }

    /// Builds a multi-contig genome whose contig lengths straddle the
    /// chunk size: below one site, exactly one site, below one chunk,
    /// and many chunks long.
    fn straddling_genome() -> Genome {
        use crispr_genome::synth::SynthSpec;
        let piece = |len: usize, seed: u64| {
            SynthSpec::new(len).seed(seed).generate().contigs()[0].seq().clone()
        };
        let mut genome = Genome::new();
        genome.add_contig("tiny", piece(10, 91)).unwrap(); // shorter than a site: no windows
        genome.add_contig("one-site", piece(23, 92)).unwrap(); // exactly one window
        genome.add_contig("sub-chunk", piece(40, 93)).unwrap(); // smaller than one chunk
        genome.add_contig("long", piece(12_000, 94)).unwrap(); // splits into many chunks
        genome
    }

    #[test]
    fn multi_contig_chunking_matches_serial() {
        use crispr_guides::genset::{self, PlantPlan};
        let guides = genset::random_guides(3, 20, &crispr_guides::Pam::ngg(), 95);
        let (genome, planted) =
            genset::plant_offtargets(straddling_genome(), &guides, &PlantPlan::uniform(3, 2), 96);
        let truth = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        let engine = Accelerated::new(BitParallelEngine::new());
        for threads in [1, 2, 4, 9] {
            let par = scan_threads(&engine, &genome, &guides, 3, threads).unwrap();
            assert_eq!(par, truth, "threads={threads}");
            for hit in planted.iter().filter(|h| h.mismatches <= 3) {
                assert!(par.binary_search(hit).is_ok(), "planted hit {hit} missing");
            }
        }
    }

    #[test]
    fn every_contig_is_scanned_once_at_any_thread_count() {
        // One rule for both the inline and the fanned-out drain: short
        // contigs still get a chunk, so symbol meters match at any width.
        let guides = crispr_guides::genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 97);
        let genome = straddling_genome();
        let mut serial = SearchMetrics::default();
        scan(&BitParallelEngine::new(), &genome, &guides, 2, &ScanDeployment::new(1), &mut serial)
            .unwrap();
        assert_eq!(serial.counters.bit_steps, genome.total_len() as u64);
        assert!(serial.parallel.is_none(), "threads = 1 scans inline");
        let mut par = SearchMetrics::default();
        scan(&BitParallelEngine::new(), &genome, &guides, 2, &ScanDeployment::new(4), &mut par)
            .unwrap();
        let p = par.parallel.as_ref().expect("fanned out");
        // tiny, one-site and sub-chunk get one chunk each; long gets four.
        assert_eq!(p.chunks_total, 7);
        assert_eq!(par.counters.windows_scanned, serial.counters.windows_scanned);
    }

    #[test]
    fn index_chunks_are_capped_and_balanced() {
        let seq = crispr_genome::synth::SynthSpec::new(INDEX_CHUNK_MAX * 3 + 100)
            .seed(98)
            .generate()
            .contigs()[0]
            .seq()
            .clone();
        let genome = Genome::from_seq(seq);
        let index = GenomeIndex::build(&genome, 0).unwrap();
        let source = GenomeSource::Index(&index);
        for threads in [1, 2, 3] {
            let chunks = source.chunks(23, &ScanDeployment::new(threads));
            assert!(chunks.len() >= 4 && chunks.len() % threads == 0, "threads={threads}");
            assert!(chunks.iter().all(|c| c.len <= INDEX_CHUNK_MAX + 22));
            assert_eq!(chunks.iter().map(|c| c.fresh).sum::<u64>(), genome.total_len() as u64);
        }
        // A FASTA genome is never capped: one chunk per thread.
        assert_eq!(GenomeSource::Genome(&genome).chunks(23, &ScanDeployment::new(1)).len(), 1);
    }

    #[test]
    fn chunk_boundary_duplicates_are_removed() {
        let (genome, guides, _) = planted_workload(74, 2);
        let par = scan_threads(&ScalarEngine::new(), &genome, &guides, 2, 16).unwrap();
        assert!(par.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
    }

    #[test]
    fn adversarial_chunk_lens_keep_batched_hits_exact() {
        // The batched path finds one site through several seed fragments;
        // without its streaming dedup, overlap windows at chunk boundaries
        // emit duplicate raw hits and double-counted verifier work. Chunk
        // lengths of site_len − 1, site_len, and site_len + 1 maximize
        // boundary traffic (nearly every window touches an overlap).
        let (genome, guides, _) = planted_workload(77, 3);
        let truth = ScalarEngine::new().search(&genome, &guides, 3).unwrap();
        let site_len = guides[0].site_len();
        let serial = {
            let mut m = SearchMetrics::default();
            let hits = Accelerated::batched(BitParallelEngine::new())
                .search_metered(&genome, &guides, 3, &mut m)
                .unwrap();
            assert_eq!(hits, truth);
            m
        };
        for chunk_len in [site_len - 1, site_len, site_len + 1] {
            for threads in [1, 3, 8] {
                let deployment = ScanDeployment::new(threads).with_chunk_len(chunk_len);
                let mut m = SearchMetrics::default();
                let engine = Accelerated::batched(BitParallelEngine::new());
                let hits = scan(&engine, &genome, &guides, 3, &deployment, &mut m).unwrap();
                assert_eq!(hits, truth, "chunk_len={chunk_len} threads={threads}");
                assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
                // Chunk windows partition contig windows exactly, so the
                // merged counters — raw hits included — must equal the
                // whole-contig scan's, whatever the chunk geometry.
                assert_eq!(m.counters, serial.counters, "chunk_len={chunk_len} threads={threads}");
                assert_eq!(m.counters.bytes_copied, 0);
            }
        }
    }

    #[test]
    fn metered_parallel_fills_stats_and_counters() {
        let (genome, guides, _) = planted_workload(75, 2);
        let mut m = SearchMetrics::default();
        let hits =
            scan(&BitParallelEngine::new(), &genome, &guides, 2, &ScanDeployment::new(3), &mut m)
                .unwrap();
        let serial = BitParallelEngine::new().search(&genome, &guides, 2).unwrap();
        assert_eq!(hits, serial);
        assert_eq!(m.engine, "bitparallel-hyperscan");
        let p = m.parallel.as_ref().expect("parallel stats present");
        assert_eq!(p.threads.len(), 3);
        assert!(p.chunks_total >= 1);
        assert_eq!(p.threads.iter().map(|t| t.chunks).sum::<u64>(), p.chunks_total);
        assert!(p.chunk_len_min > 0 && p.chunk_len_min <= p.chunk_len_max);
        assert_eq!(p.overlap, 22); // site_len 23 → overlap 22
                                   // Counters merged up from the chunks; raw hits include boundary
                                   // duplicates, so they bound the deduplicated output.
        assert!(m.counters.windows_scanned > 0);
        assert!(m.counters.bit_steps > 0);
        assert!(m.counters.raw_hits >= hits.len() as u64);
        assert!(m.phases.kernel_scan_s > 0.0);
        let utilization = m.gauge("worker_utilization").expect("worker_utilization gauge");
        assert!((0.0..=1.0 + 1e-9).contains(&utilization));
        let straggler = m.gauge("straggler_ratio").expect("straggler_ratio gauge");
        assert!(straggler >= 1.0 - 1e-9, "straggler ratio is max/median: {straggler}");
        let critical = m.gauge("critical_path_s").expect("critical_path_s gauge");
        assert!(critical > 0.0);
        assert!(
            critical <= m.phases.total_s() + 1e-9,
            "critical path cannot exceed the summed serial phases plus scan wall-clock"
        );
        // Every successful chunk attempt lands one chunk_scan_s sample.
        let h = m.histogram("chunk_scan_s").expect("chunk_scan_s histogram");
        assert_eq!(h.count(), p.chunks_total);
        // A clean run never waits on a retry.
        assert!(m.histogram("retry_backoff_s").is_none());
    }

    #[test]
    fn run_scan_reuses_a_cached_compile() {
        // The serve-layer path: prepare once, scan many times through the
        // public driver. Results must match the engine's, and no compile
        // time may be charged to the scan.
        let (genome, guides, _) = planted_workload(82, 2);
        let engine = Accelerated::new(BitParallelEngine::new());
        let truth = engine.search(&genome, &guides, 2).unwrap();
        let prepared = engine.prepare(&guides, 2).unwrap();
        let index = GenomeIndex::build(&genome, 0).unwrap();
        for threads in [1, 3] {
            for source in [GenomeSource::Genome(&genome), GenomeSource::Index(&index)] {
                let mut m = SearchMetrics::default();
                let deployment = ScanDeployment::new(threads);
                let hits = run_scan(prepared.as_ref(), source, &deployment, &mut m).unwrap();
                assert_eq!(hits, truth);
                assert_eq!(m.phases.guide_compile_s, 0.0, "scan must not charge compile");
                assert!(m.phases.kernel_scan_s > 0.0);
            }
        }
    }

    #[test]
    fn compile_is_charged_once_and_chunks_are_borrowed() {
        let (genome, guides, _) = planted_workload(76, 2);
        let mut m = SearchMetrics::default();
        let deployment = ScanDeployment::new(4);
        let _ = scan(&BitParallelEngine::new(), &genome, &guides, 2, &deployment, &mut m).unwrap();
        let p = m.parallel.as_ref().expect("parallel stats present");
        // Workers scan a shared prepared search: no compile time may be
        // attributed inside the fan-out, whatever the chunk count.
        assert_eq!(p.worker_phases.guide_compile_s, 0.0);
        assert!(p.worker_phases.kernel_scan_s > 0.0);
        // Chunks are borrowed contig slices, never materialized copies.
        assert_eq!(m.counters.bytes_copied, 0);
        // The parent still reports the one-time compile.
        assert!(m.phases.guide_compile_s > 0.0);
    }
}
