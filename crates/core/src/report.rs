use crate::Platform;
use crispr_engines::{ChunkFailure, SearchError};
use crispr_guides::Hit;
use crispr_model::{SearchMetrics, TimingBreakdown};

/// The outcome of one search run, complete or not.
///
/// A report may be incomplete in two ways, and keeps the recovered hits
/// and full metrics in both:
/// * *partial* — some genome chunks exhausted their retry budget; the
///   per-chunk provenance is in [`SearchReport::chunk_failures`];
/// * *stopped* — a cancel token (manual trip or deadline) stopped the
///   scan before every chunk ran; [`SearchReport::stopped`] says how far
///   it got.
///
/// Callers that must not act on incomplete data branch on
/// [`SearchReport::is_partial`], which covers both.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    platform: Platform,
    hits: Vec<Hit>,
    metrics: SearchMetrics,
    genome_len: usize,
    guide_count: usize,
    k: usize,
    chunk_failures: Vec<ChunkFailure>,
    chunks_total: u64,
    stop: Option<Stop>,
}

/// How far a stopped run got before its cancel token tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// `true` when the armed deadline passed, `false` for a manual trip.
    pub deadline: bool,
    /// Chunks scanned to completion before the trip was observed.
    pub chunks_scanned: u64,
    /// Total chunks the run would have scanned (0 when the token had
    /// already tripped before the run started).
    pub chunks_total: u64,
}

impl SearchReport {
    /// Builds the report of one run from the scan driver's outcome — the
    /// one place the incomplete-run contract is decoded. `Ok` is a
    /// complete run; [`SearchError::Partial`] becomes a partial report and
    /// [`SearchError::Cancelled`] / [`SearchError::DeadlineExceeded`] a
    /// stopped one, each keeping the recovered hits and `metrics`.
    ///
    /// # Errors
    ///
    /// Every other [`SearchError`], unchanged: those runs produced no
    /// hit set at all.
    pub fn from_scan(
        platform: Platform,
        outcome: Result<Vec<Hit>, SearchError>,
        metrics: SearchMetrics,
        genome_len: usize,
        guide_count: usize,
        k: usize,
    ) -> Result<SearchReport, SearchError> {
        let mut report = SearchReport {
            platform,
            hits: Vec::new(),
            metrics,
            genome_len,
            guide_count,
            k,
            chunk_failures: Vec::new(),
            chunks_total: 0,
            stop: None,
        };
        match outcome {
            Ok(hits) => report.hits = hits,
            Err(SearchError::Partial { failures, chunks_total, hits }) => {
                report.hits = hits;
                report.chunk_failures = failures;
                report.chunks_total = chunks_total;
            }
            Err(e) => {
                let (hits, chunks_scanned, chunks_total, deadline) = e.into_cancelled()?;
                report.hits = hits;
                report.chunks_total = chunks_total;
                report.stop = Some(Stop { deadline, chunks_scanned, chunks_total });
            }
        }
        Ok(report)
    }

    /// The platform that produced this report.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The normalized hit set.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// Consumes the report, returning the hits.
    pub fn into_hits(self) -> Vec<Hit> {
        self.hits
    }

    /// Timing: measured wall-clock for CPU platforms, modeled for
    /// accelerators (see [`Platform::is_modeled`]). Derived from
    /// [`SearchReport::metrics`] — `kernel_s` covers the scan only, with
    /// guide compilation attributed to `config_s`.
    pub fn timing(&self) -> TimingBreakdown {
        self.metrics.timing()
    }

    /// The full observability record behind [`SearchReport::timing`]:
    /// phase spans, engine work counters, parallel-deployment statistics
    /// and model gauges.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// Genome bases scanned.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// Guides searched.
    pub fn guide_count(&self) -> usize {
        self.guide_count
    }

    /// The mismatch budget.
    pub fn max_mismatches(&self) -> usize {
        self.k
    }

    /// Kernel throughput in input megabytes per second.
    pub fn kernel_throughput_mbps(&self) -> f64 {
        crispr_model::throughput_mbps(self.genome_len, self.timing().kernel_s)
    }

    /// Whether the hit set is incomplete: some chunks failed every retry
    /// (see [`SearchReport::chunk_failures`]) or the run was stopped (see
    /// [`SearchReport::stopped`]), so [`SearchReport::hits`] covers only
    /// the chunks that completed.
    pub fn is_partial(&self) -> bool {
        !self.chunk_failures.is_empty() || self.stop.is_some()
    }

    /// Provenance of every chunk that exhausted its retry budget, sorted
    /// by genome position; empty for a complete or stopped run.
    pub fn chunk_failures(&self) -> &[ChunkFailure] {
        &self.chunk_failures
    }

    /// Total chunks the deployment enqueued when this report is partial
    /// or stopped (zero for a complete run — chunk accounting lives in
    /// [`SearchReport::metrics`] there).
    pub fn chunks_total(&self) -> u64 {
        self.chunks_total
    }

    /// How far the run got when a cancel token stopped it; `None` for a
    /// run that was not stopped.
    pub fn stopped(&self) -> Option<Stop> {
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let timing = TimingBreakdown { kernel_s: 2.0, ..TimingBreakdown::default() };
        let metrics = SearchMetrics::from_timing("scalar-reference", &timing);
        let report =
            SearchReport::from_scan(Platform::CpuScalar, Ok(Vec::new()), metrics, 4_000_000, 5, 3)
                .unwrap();
        assert_eq!(report.platform(), Platform::CpuScalar);
        assert!(report.hits().is_empty());
        assert_eq!(report.guide_count(), 5);
        assert_eq!(report.max_mismatches(), 3);
        assert_eq!(report.timing(), timing);
        assert_eq!(report.metrics().engine, "scalar-reference");
        assert!((report.kernel_throughput_mbps() - 2.0).abs() < 1e-9);
        assert!(report.into_hits().is_empty());
    }

    #[test]
    fn incomplete_outcomes_keep_their_hits_and_metrics() {
        let hit = Hit {
            contig: 0,
            pos: 7,
            guide: 0,
            strand: crispr_genome::Strand::Forward,
            mismatches: 1,
        };
        let map = |outcome| {
            let metrics = SearchMetrics { engine: "probe".into(), ..SearchMetrics::default() };
            SearchReport::from_scan(Platform::CpuScalar, outcome, metrics, 100, 1, 2)
        };

        let complete = map(Ok(vec![hit])).unwrap();
        assert!(!complete.is_partial() && complete.stopped().is_none());

        let failure = ChunkFailure {
            contig: 0,
            contig_name: "chr1".into(),
            start: 0,
            len: 50,
            attempts: 1,
            cause: "injected".into(),
        };
        let partial = map(Err(SearchError::Partial {
            failures: vec![failure.clone()],
            chunks_total: 4,
            hits: vec![hit],
        }))
        .unwrap();
        assert!(partial.is_partial() && partial.stopped().is_none());
        assert_eq!((partial.chunk_failures(), partial.chunks_total()), (&[failure][..], 4));
        assert_eq!((partial.hits(), partial.metrics().engine.as_str()), (&[hit][..], "probe"));

        for (error, deadline) in [
            (SearchError::Cancelled { chunks_scanned: 1, chunks_total: 3, hits: vec![hit] }, false),
            (
                SearchError::DeadlineExceeded {
                    chunks_scanned: 1,
                    chunks_total: 3,
                    hits: vec![hit],
                },
                true,
            ),
        ] {
            let stopped = map(Err(error)).unwrap();
            assert!(stopped.is_partial() && stopped.chunk_failures().is_empty());
            assert_eq!(
                stopped.stopped(),
                Some(Stop { deadline, chunks_scanned: 1, chunks_total: 3 })
            );
            assert_eq!(stopped.chunks_total(), 3);
            assert_eq!((stopped.hits(), stopped.metrics().engine.as_str()), (&[hit][..], "probe"));
        }

        let failed = map(Err(SearchError::Unsupported("no".into())));
        assert!(matches!(failed, Err(SearchError::Unsupported(_))));
    }
}
