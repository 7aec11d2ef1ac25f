use crate::{Platform, SearchReport};
use crispr_engines::{
    run_search, CancelToken, EngineError, Reference, ScanDeployment, SearchError,
};
use crispr_genome::diskindex::GenomeIndex;
use crispr_genome::Genome;
use crispr_guides::{Guide, Hit};
use crispr_model::SearchMetrics;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Builder for a complete off-target search; see the crate docs for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct OffTargetSearch {
    reference: Reference,
    guides: Vec<Guide>,
    k: usize,
    platform: Platform,
    deployment: ScanDeployment,
    input_degradations: u64,
    load_s: Option<f64>,
}

impl OffTargetSearch {
    /// Starts a search over `genome` with defaults: no guides yet, k = 3,
    /// the bit-parallel CPU platform, single-threaded.
    pub fn new(genome: Genome) -> OffTargetSearch {
        OffTargetSearch::with_reference(Reference::Genome(genome))
    }

    /// Starts a search over an opened on-disk index. CPU platforms scan
    /// the index's packed payloads in place, at any thread count; the
    /// modeled accelerators materialize the genome once, charged to
    /// `genome_load_s`. Hit sets are identical to [`OffTargetSearch::new`]
    /// on the genome the index was built from.
    pub fn from_index(index: Arc<GenomeIndex>) -> OffTargetSearch {
        OffTargetSearch::with_reference(Reference::Index(index))
    }

    fn with_reference(reference: Reference) -> OffTargetSearch {
        OffTargetSearch {
            reference,
            guides: Vec::new(),
            k: 3,
            platform: Platform::CpuBitParallel,
            deployment: ScanDeployment::new(1),
            input_degradations: 0,
            load_s: None,
        }
    }

    /// Scans each contig in chunks of `len` window starts (overlapping by
    /// one site) instead of splitting it across the threads — hits and
    /// counters are unchanged. On an index this bounds resident memory by
    /// the chunks in flight. Ignored by the modeled platforms. `None`
    /// keeps the default split.
    ///
    /// # Panics
    ///
    /// Panics if `len` is `Some(0)`, like
    /// [`ScanDeployment::with_chunk_len`].
    pub fn shard(mut self, len: Option<usize>) -> OffTargetSearch {
        self.deployment.chunk_len = None;
        if let Some(len) = len {
            self.deployment = self.deployment.with_chunk_len(len);
        }
        self
    }

    /// Records how long loading the reference took (the caller holds the
    /// timer; the load happens before this builder exists), surfaced as
    /// the `index_load_s` gauge for an index (open and validate) and the
    /// `input_parse_s` gauge for a genome (FASTA read and parse). A genome
    /// without a recorded load reports no `input_parse_s`.
    pub fn load_seconds(mut self, seconds: f64) -> OffTargetSearch {
        self.load_s = Some(seconds);
        self
    }

    /// Adds one guide.
    pub fn guide(mut self, guide: Guide) -> OffTargetSearch {
        self.guides.push(guide);
        self
    }

    /// Adds many guides.
    pub fn guides(mut self, guides: impl IntoIterator<Item = Guide>) -> OffTargetSearch {
        self.guides.extend(guides);
        self
    }

    /// Sets the mismatch budget.
    pub fn max_mismatches(mut self, k: usize) -> OffTargetSearch {
        self.k = k;
        self
    }

    /// Selects the execution platform.
    pub fn platform(mut self, platform: Platform) -> OffTargetSearch {
        self.platform = platform;
        self
    }

    /// Sets the per-chunk retry budget of CPU runs (how many times a
    /// failed chunk is re-queued before it is reported in a
    /// partial-result error).
    pub fn chunk_retries(mut self, retries: u32) -> OffTargetSearch {
        self.deployment.retry_limit = retries;
        self
    }

    /// Records degradation events that happened while *loading* the
    /// inputs (e.g. a strict FASTA parse that fell back to lossy), so
    /// they surface in the report's `degraded_paths` counter alongside
    /// the engine's own degradations.
    pub fn input_degradations(mut self, count: u64) -> OffTargetSearch {
        self.input_degradations = count;
        self
    }

    /// Runs CPU platforms on `threads` worker threads (ignored by the
    /// modeled accelerators, whose parallelism is part of the model).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> OffTargetSearch {
        assert!(threads > 0, "need at least one thread");
        self.deployment.threads = threads;
        self
    }

    /// Arms a cooperative [`CancelToken`] for the run: CPU platforms poll
    /// it at every chunk boundary, so a manual trip or an
    /// expired deadline stops the scan within one chunk-scan. The run
    /// still returns `Ok`: the report is *stopped*
    /// ([`SearchReport::stopped`]) and carries the hits recovered from
    /// completed chunks with full metrics. The modeled accelerators
    /// check only before they start (their kernels are closed-form
    /// models).
    pub fn cancel_token(mut self, cancel: CancelToken) -> OffTargetSearch {
        self.deployment.cancel = cancel;
        self
    }

    /// Shorthand for [`OffTargetSearch::cancel_token`] with a
    /// deadline-armed token: the run is cancelled once `timeout` has
    /// elapsed from this call.
    pub fn deadline(self, timeout: std::time::Duration) -> OffTargetSearch {
        self.cancel_token(CancelToken::with_deadline(timeout))
    }

    /// Executes the search.
    ///
    /// An incomplete run still returns `Ok`, with the recovered hits and
    /// full metrics (see [`SearchReport::from_scan`]): a run in which
    /// some chunks failed every retry carries the failure provenance in
    /// [`SearchReport::chunk_failures`], and a run its cancel token
    /// stopped — including a token already tripped at the start — says
    /// how far it got in [`SearchReport::stopped`]. Check
    /// [`SearchReport::is_partial`] before treating the hit set as
    /// complete. (This is the contract the CLI's exit codes 3 and 4 and
    /// the serve layer's 206 and 504 responses are built on.)
    ///
    /// # Errors
    ///
    /// Guide-validation, compilation, or platform-capacity errors from the
    /// selected backend.
    pub fn run(&self) -> Result<SearchReport, EngineError> {
        let mut metrics = SearchMetrics::default();
        // A token already tripped when the run starts (deadline in the
        // past, client gone) stops it before any compile or unpack
        // work — this is also the only cancellation point the modeled
        // accelerators get, since their kernels are closed-form models.
        let outcome = match self.deployment.cancel.check() {
            Err(kind) => Err(SearchError::from_cancel(kind, Vec::new(), 0, 0)),
            Ok(()) => self.scan(&mut metrics),
        };
        metrics.counters.degraded_paths += self.input_degradations;
        match &self.reference {
            Reference::Index(index) => {
                metrics.set_gauge("index_cache", 1.0);
                metrics.set_gauge("index_mmap", if index.mapped() { 1.0 } else { 0.0 });
                metrics.set_gauge("index_load_s", self.load_s.unwrap_or(0.0));
                if let Some(shard) = self.deployment.chunk_len {
                    metrics.set_gauge("index_shard_len", shard as f64);
                }
            }
            Reference::Genome(_) => {
                if let Some(seconds) = self.load_s {
                    metrics.set_gauge("input_parse_s", seconds);
                }
            }
        }
        SearchReport::from_scan(
            self.platform,
            outcome,
            metrics,
            self.reference.source().total_len(),
            self.guides.len(),
            self.k,
        )
    }

    /// Runs the selected platform into `metrics`. CPU engines go through
    /// the one scan driver with full metering: guide compilation lands in
    /// the config bucket once, the scan in the kernel bucket, whatever the
    /// thread count or genome source (see DESIGN.md §7.1). The modeled
    /// accelerators consume a byte-per-base genome; an indexed run
    /// materializes it here (once) and charges the unpack to
    /// `genome_load_s`.
    fn scan(&self, metrics: &mut SearchMetrics) -> Result<Vec<Hit>, SearchError> {
        if let Some(engine) = self.platform.cpu_engine() {
            let source = self.reference.source();
            return run_search(
                engine.as_ref(),
                &self.guides,
                self.k,
                source,
                &self.deployment,
                metrics,
            );
        }
        let (genome, unpack_s) = self.materialized()?;
        let (hits, m) = match self.platform {
            Platform::Ap => {
                let report = crispr_ap::ApSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("ap-modeled", &report.timing);
                m.set_gauge("streams", report.streams as f64);
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("stall_cycles", report.stall_cycles as f64);
                m.set_gauge("chips_used", report.placement.chips_used as f64);
                m.set_gauge("stes_used", report.placement.stes_used as f64);
                m.set_gauge("ste_utilization", report.placement.utilization);
                (report.hits, m)
            }
            Platform::Fpga => {
                let report = crispr_fpga::FpgaSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("fpga-modeled", &report.timing);
                m.set_gauge("passes", report.passes as f64);
                m.set_gauge("designs", report.designs.len() as f64);
                if let Some(d) = report.designs.first() {
                    m.set_gauge("instances", d.instances as f64);
                    m.set_gauge("clock_hz", d.clock_hz);
                    m.set_gauge("lut_utilization", d.utilization);
                }
                (report.hits, m)
            }
            Platform::GpuInfant2 => {
                let report = crispr_gpu::Infant2Search::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-infant2-modeled", &report.timing);
                m.set_gauge("mean_active_states", report.mean_active);
                m.set_gauge("bytes_per_symbol", report.bytes_per_symbol);
                (report.hits, m)
            }
            Platform::GpuCasOffinder => {
                let report =
                    crispr_gpu::CasOffinderGpuSearch::new().run(&genome, &self.guides, self.k)?;
                let mut m = SearchMetrics::from_timing("gpu-cas-offinder-modeled", &report.timing);
                m.set_gauge("kernel_bytes", report.kernel_bytes);
                (report.hits, m)
            }
            cpu => unreachable!("{cpu} has a CPU engine"),
        };
        *metrics = m;
        metrics.counters.raw_hits = hits.len() as u64;
        metrics.phases.genome_load_s += unpack_s;
        Ok(hits)
    }

    /// A byte-per-base view of the reference for the modeled platforms:
    /// borrowed for the direct path, unpacked from the index otherwise
    /// (with the seconds that took).
    fn materialized(&self) -> Result<(Cow<'_, Genome>, f64), EngineError> {
        match &self.reference {
            Reference::Genome(genome) => Ok((Cow::Borrowed(genome), 0.0)),
            Reference::Index(index) => {
                let start = Instant::now();
                let genome = index.to_genome()?;
                Ok((Cow::Owned(genome), start.elapsed().as_secs_f64()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    fn workload() -> (Genome, Vec<Guide>, Vec<Hit>) {
        let genome = SynthSpec::new(20_000).seed(61).generate();
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 62);
        let (genome, hits) =
            genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 2), 63);
        (genome, guides, hits)
    }

    #[test]
    fn every_platform_agrees() {
        let (genome, guides, planted) = workload();
        let mut reference: Option<Vec<Hit>> = None;
        for platform in Platform::ALL {
            let report = OffTargetSearch::new(genome.clone())
                .guides(guides.clone())
                .max_mismatches(2)
                .platform(platform)
                .run()
                .unwrap_or_else(|e| panic!("{platform}: {e}"));
            match &reference {
                None => reference = Some(report.hits().to_vec()),
                Some(r) => assert_eq!(report.hits(), &r[..], "{platform}"),
            }
        }
        let reference = reference.unwrap();
        for hit in &planted {
            assert!(reference.contains(hit), "planted {hit} missing");
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let (genome, guides, _) = workload();
        let single = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .run()
            .unwrap();
        let multi =
            OffTargetSearch::new(genome).guides(guides).max_mismatches(2).threads(4).run().unwrap();
        assert_eq!(single.hits(), multi.hits());
    }

    #[test]
    fn modeled_platforms_report_nonzero_buckets() {
        let (genome, guides, _) = workload();
        let report = OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(2)
            .platform(Platform::Ap)
            .run()
            .unwrap();
        let t = report.timing();
        assert!(t.kernel_s > 0.0 && t.transfer_s > 0.0 && t.config_s > 0.0);
        assert!(report.kernel_throughput_mbps() > 0.0);
    }

    #[test]
    fn every_platform_populates_metrics() {
        let (genome, guides, _) = workload();
        for platform in Platform::ALL {
            let report = OffTargetSearch::new(genome.clone())
                .guides(guides.clone())
                .max_mismatches(2)
                .platform(platform)
                .run()
                .unwrap_or_else(|e| panic!("{platform}: {e}"));
            let m = report.metrics();
            assert!(!m.engine.is_empty(), "{platform}: engine label missing");
            assert!(m.phases.kernel_scan_s > 0.0, "{platform}: no kernel span");
            assert!(m.phases.total_s() > 0.0, "{platform}: empty phase spans");
            assert_eq!(m.timing(), report.timing(), "{platform}: timing mismatch");
            if !platform.is_modeled() {
                // Every measured CPU engine increments at least one
                // algorithm-specific counter beyond raw hits.
                let c = &m.counters;
                assert!(
                    c.windows_scanned
                        + c.pam_anchors_tested
                        + c.seed_survivors
                        + c.bit_steps
                        + c.candidates_verified
                        > 0,
                    "{platform}: no engine-specific counters"
                );
            }
        }
    }

    #[test]
    fn kernel_time_excludes_guide_compile() {
        // The DFA engine's subset construction dominates its runtime on a
        // small genome; with phase-accurate attribution it lands in
        // config_s, not kernel_s (the old lumped measurement put
        // everything in kernel_s).
        let (genome, guides, _) = workload();
        let report = OffTargetSearch::new(genome)
            .guides(guides)
            .max_mismatches(2)
            .platform(Platform::CpuDfa)
            .run()
            .unwrap();
        let t = report.timing();
        assert!(t.config_s > 0.0, "compile time not attributed");
        assert_eq!(t.kernel_s, report.metrics().phases.kernel_scan_s);
        assert!(report.metrics().gauge("dfa_states").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn threaded_run_reports_parallel_metrics() {
        let (genome, guides, _) = workload();
        let report =
            OffTargetSearch::new(genome).guides(guides).max_mismatches(2).threads(4).run().unwrap();
        let m = report.metrics();
        assert_eq!(m.engine, "bitparallel-hyperscan");
        let p = m.parallel.as_ref().expect("parallel stats");
        assert_eq!(p.threads.len(), 4);
        assert!(p.chunks_total >= 1);
        assert!(m.counters.any_nonzero());
    }

    #[test]
    fn a_token_tripped_at_start_stops_the_run_into_a_report() {
        let (genome, guides, _) = workload();
        let token = CancelToken::new();
        token.cancel();
        for platform in [Platform::CpuBitParallel, Platform::Ap] {
            let report = OffTargetSearch::new(genome.clone())
                .guides(guides.clone())
                .platform(platform)
                .cancel_token(token.clone())
                .run()
                .unwrap_or_else(|e| panic!("{platform}: {e}"));
            let stop = crate::Stop { deadline: false, chunks_scanned: 0, chunks_total: 0 };
            assert_eq!(report.stopped(), Some(stop), "{platform}");
            assert!(report.is_partial() && report.hits().is_empty(), "{platform}");
        }
    }
}
