//! The search-wide observability structure every engine and platform
//! fills: per-phase wall-clock spans, per-engine work counters, optional
//! parallel-deployment statistics, and free-form model gauges.
//!
//! CPU engines *measure* these values; the modeled accelerator platforms
//! fill the same structure from their analytic models, so a
//! [`SearchMetrics`] is the common audit trail behind every
//! `TimingBreakdown` the workspace reports.

use crate::json::escape;
use crate::TimingBreakdown;

/// Wall-clock seconds per logical phase of one search.
///
/// The four phases map onto the paper's timing buckets (see
/// [`SearchMetrics::timing`]): genome load/preparation ↔ transfer, guide
/// compilation ↔ config, scan ↔ kernel, normalize/report ↔ report. Unlike
/// the old lumped `TimingBreakdown::from_kernel` measurement, compile
/// time is attributed here to its own phase and never to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseSpans {
    /// Loading or preparing the genome representation the engine scans
    /// (2-bit packing, symbol extraction, q-gram indexing; for modeled
    /// platforms, host→device transfer).
    pub genome_load_s: f64,
    /// Compiling guides into the engine's matching structure (patterns,
    /// register banks, automata, DFA tables; for modeled platforms, the
    /// one-time configuration).
    pub guide_compile_s: f64,
    /// The scan itself — and nothing else.
    pub kernel_scan_s: f64,
    /// Normalizing, deduplicating and draining hits.
    pub report_s: f64,
}

impl PhaseSpans {
    /// Sum of all phase spans.
    pub fn total_s(&self) -> f64 {
        self.genome_load_s + self.guide_compile_s + self.kernel_scan_s + self.report_s
    }

    /// Adds `other` into `self`, span-wise — used to fold worker-thread
    /// phase spans into an aggregate.
    pub fn merge(&mut self, other: &PhaseSpans) {
        self.genome_load_s += other.genome_load_s;
        self.guide_compile_s += other.guide_compile_s;
        self.kernel_scan_s += other.kernel_scan_s;
        self.report_s += other.report_s;
    }
}

/// Work counters engines increment while scanning.
///
/// Every engine fills the subset that is meaningful for its algorithm
/// and leaves the rest at zero; the counters quantify the filter
/// cascades the paper's cost arguments rest on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// Candidate site windows enumerated.
    pub windows_scanned: u64,
    /// Windows passing a pattern's PAM anchor check (PAM-first engines).
    pub pam_anchors_tested: u64,
    /// Candidates surviving the seed filter (seed-and-extend engines).
    pub seed_survivors: u64,
    /// Per-symbol automaton/register-bank update steps.
    pub bit_steps: u64,
    /// Comparisons abandoned early once the mismatch budget was exceeded.
    pub early_exits: u64,
    /// `(pattern, window)` candidate pairs emitted by the shared
    /// multi-guide seed automaton (batched engines only), before the
    /// PAM-anchor intersection and before per-pattern deduplication.
    pub multiseed_candidates: u64,
    /// Distinct window positions at which the shared seed automaton fired
    /// for at least one pattern (batched engines only). Together with
    /// `multiseed_candidates` this yields the `guides_per_candidate`
    /// gauge.
    pub multiseed_positions: u64,
    /// Candidates fully verified by a scoring pass.
    pub candidates_verified: u64,
    /// Hits emitted before normalization/dedup.
    pub raw_hits: u64,
    /// Genome bases copied into scratch buffers (chunking, re-packing of
    /// owned sub-genomes). The parallel deployment scans borrowed slices,
    /// so this should stay zero — a nonzero value flags a reintroduced
    /// per-chunk copy.
    pub bytes_copied: u64,
    /// Faults raised by the failpoint subsystem during this search
    /// (panics, injected errors, delays). Zero outside fault-injection
    /// runs.
    pub faults_injected: u64,
    /// Chunk scans that failed (panic or error) and were re-queued for
    /// another attempt by the parallel deployment.
    pub chunks_retried: u64,
    /// Chunk scans that exhausted their retry budget and were reported in
    /// a partial-result error instead of aborting the search.
    pub chunks_failed: u64,
    /// Graceful-degradation fallbacks taken: a prefilter/multiseed build
    /// fault downgraded to the per-guide full-scan path, or a strict
    /// FASTA parse downgraded to lossy.
    pub degraded_paths: u64,
}

impl EngineCounters {
    /// Adds `other` into `self`, counter-wise.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.windows_scanned += other.windows_scanned;
        self.pam_anchors_tested += other.pam_anchors_tested;
        self.seed_survivors += other.seed_survivors;
        self.bit_steps += other.bit_steps;
        self.early_exits += other.early_exits;
        self.multiseed_candidates += other.multiseed_candidates;
        self.multiseed_positions += other.multiseed_positions;
        self.candidates_verified += other.candidates_verified;
        self.raw_hits += other.raw_hits;
        self.bytes_copied += other.bytes_copied;
        self.faults_injected += other.faults_injected;
        self.chunks_retried += other.chunks_retried;
        self.chunks_failed += other.chunks_failed;
        self.degraded_paths += other.degraded_paths;
    }

    /// True if any counter was incremented.
    pub fn any_nonzero(&self) -> bool {
        self.windows_scanned
            + self.pam_anchors_tested
            + self.seed_survivors
            + self.bit_steps
            + self.early_exits
            + self.multiseed_candidates
            + self.multiseed_positions
            + self.candidates_verified
            + self.raw_hits
            + self.bytes_copied
            + self.faults_injected
            + self.chunks_retried
            + self.chunks_failed
            + self.degraded_paths
            > 0
    }
}

/// Per-worker statistics from a parallel deployment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThreadStats {
    /// Chunks this worker processed.
    pub chunks: u64,
    /// Seconds this worker spent inside the inner engine.
    pub busy_s: f64,
    /// Hits this worker produced before global dedup.
    pub raw_hits: u64,
}

/// Chunking and utilization statistics from a multi-threaded scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParallelMetrics {
    /// One entry per worker thread.
    pub threads: Vec<ThreadStats>,
    /// Total chunks enqueued.
    pub chunks_total: u64,
    /// Smallest chunk length in bases (0 when no chunks).
    pub chunk_len_min: u64,
    /// Largest chunk length in bases.
    pub chunk_len_max: u64,
    /// Overlap between adjacent chunks (`site_len − 1`).
    pub overlap: u64,
    /// Phase spans summed across worker threads (CPU-seconds, not
    /// wall-clock). With the prepare/scan split workers never compile, so
    /// `worker_phases.guide_compile_s` must stay zero; packing/indexing
    /// workers perform per chunk surfaces in `genome_load_s`.
    pub worker_phases: PhaseSpans,
}

impl ParallelMetrics {
    /// Total busy seconds across all workers.
    pub fn busy_total_s(&self) -> f64 {
        self.threads.iter().map(|t| t.busy_s).sum()
    }

    /// Busy seconds of the busiest worker.
    pub fn max_busy_s(&self) -> f64 {
        self.threads.iter().map(|t| t.busy_s).fold(0.0, f64::max)
    }

    /// Mean worker utilization over `wall_s` of parallel-region
    /// wall-clock (1.0 = all workers busy the whole time).
    pub fn utilization(&self, wall_s: f64) -> f64 {
        if self.threads.is_empty() || wall_s <= 0.0 {
            return 0.0;
        }
        self.busy_total_s() / (wall_s * self.threads.len() as f64)
    }

    /// Load-imbalance measure: busiest worker's busy time over the
    /// median worker's busy time. 1.0 means perfectly balanced; a large
    /// value flags a straggler. Degenerate fleets (≤ 1 worker, or a
    /// zero median) report 1.0 — no imbalance is observable.
    pub fn straggler_ratio(&self) -> f64 {
        if self.threads.len() <= 1 {
            return 1.0;
        }
        let mut busy: Vec<f64> = self.threads.iter().map(|t| t.busy_s).collect();
        busy.sort_by(|a, b| a.partial_cmp(b).expect("busy times are finite"));
        let median = if busy.len() % 2 == 1 {
            busy[busy.len() / 2]
        } else {
            (busy[busy.len() / 2 - 1] + busy[busy.len() / 2]) / 2.0
        };
        if median <= 0.0 {
            return 1.0;
        }
        busy[busy.len() - 1] / median
    }
}

/// Number of finite histogram buckets; bucket [`HISTOGRAM_BUCKETS`]` - 1`
/// is the +Inf overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram.
///
/// Bucket `i < 39` counts observations `≤ 2^(i − 30)` seconds (and above
/// the previous bound), spanning ~1 ns to ~512 s; bucket 39 counts
/// everything larger. Merging is bucket-wise addition, which makes it
/// associative and count-preserving — the property that lets per-worker
/// histograms fold into one `SearchMetrics` in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observation count per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values, in seconds.
    pub sum_s: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], sum_s: 0.0 }
    }
}

impl Histogram {
    /// The inclusive upper bound of bucket `i`, in seconds
    /// (`f64::INFINITY` for the overflow bucket).
    pub fn bucket_bound_s(i: usize) -> f64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (2.0f64).powi(i as i32 - 30)
        }
    }

    /// The bucket an observation of `seconds` lands in (non-finite and
    /// negative values count as zero).
    pub fn bucket_index(seconds: f64) -> usize {
        let seconds = Histogram::clamp_s(seconds);
        let mut i = 0;
        while i < HISTOGRAM_BUCKETS - 1 && seconds > Histogram::bucket_bound_s(i) {
            i += 1;
        }
        i
    }

    /// Records one observation of `seconds`.
    pub fn observe_s(&mut self, seconds: f64) {
        self.buckets[Histogram::bucket_index(seconds)] += 1;
        self.sum_s += Histogram::clamp_s(seconds);
    }

    fn clamp_s(seconds: f64) -> f64 {
        if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        }
    }

    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other` into `self`, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_s += other.sum_s;
    }
}

/// Complete observability record of one search on one engine/platform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchMetrics {
    /// Engine or platform name that produced the record.
    pub engine: String,
    /// Per-phase wall-clock spans (measured or modeled).
    pub phases: PhaseSpans,
    /// Work counters (measured engines only; zero for pure models).
    pub counters: EngineCounters,
    /// Parallel-deployment statistics, when a scan fanned out over more
    /// than one thread.
    pub parallel: Option<ParallelMetrics>,
    /// Named model- or engine-specific values (streams, passes, DFA
    /// states, mean active states, …).
    pub gauges: Vec<(String, f64)>,
    /// Named latency histograms (`chunk_scan_s`, `retry_backoff_s`),
    /// merged across workers. Empty for engines that record none.
    pub histograms: Vec<(String, Histogram)>,
}

impl SearchMetrics {
    /// An empty record labeled with `engine`.
    pub fn new(engine: &str) -> SearchMetrics {
        SearchMetrics { engine: engine.to_string(), ..SearchMetrics::default() }
    }

    /// A record whose phases are filled from a modeled timing breakdown
    /// (config ↔ guide compile, transfer ↔ genome load).
    pub fn from_timing(engine: &str, timing: &TimingBreakdown) -> SearchMetrics {
        let mut m = SearchMetrics::new(engine);
        m.phases = PhaseSpans {
            genome_load_s: timing.transfer_s,
            guide_compile_s: timing.config_s,
            kernel_scan_s: timing.kernel_s,
            report_s: timing.report_s,
        };
        m
    }

    /// Sets (or overwrites) a named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name.to_string(), value)),
        }
    }

    /// Reads a named gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Records one observation into the named histogram, creating it on
    /// first use.
    pub fn observe(&mut self, name: &str, seconds: f64) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.observe_s(seconds),
            None => {
                let mut h = Histogram::default();
                h.observe_s(seconds);
                self.histograms.push((name.to_string(), h));
            }
        }
    }

    /// Reads a named histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merges every histogram of `other` into this record, bucket-wise,
    /// creating any that do not exist yet. Associativity of
    /// [`Histogram::merge`] makes the fold order irrelevant.
    pub fn merge_histograms(&mut self, other: &[(String, Histogram)]) {
        for (name, theirs) in other {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, ours)) => ours.merge(theirs),
                None => self.histograms.push((name.clone(), theirs.clone())),
            }
        }
    }

    /// Sets the gauges that are ratios of finished counters, once all
    /// slices (and, for parallel deployments, all workers) have been
    /// folded in. Today that is `guides_per_candidate` — the mean number
    /// of `(pattern, window)` pairs the shared seed automaton dispatched
    /// per distinct candidate window, the batched path's fan-in measure.
    /// Search drivers call this after merging; per-slice code cannot,
    /// because worker-local gauges are not merged upward.
    pub fn finalize_derived_gauges(&mut self) {
        if self.counters.multiseed_positions > 0 {
            self.set_gauge(
                "guides_per_candidate",
                self.counters.multiseed_candidates as f64
                    / self.counters.multiseed_positions as f64,
            );
        }
    }

    /// The phase spans folded into the paper's four timing buckets.
    pub fn timing(&self) -> TimingBreakdown {
        TimingBreakdown {
            config_s: self.phases.guide_compile_s,
            transfer_s: self.phases.genome_load_s,
            kernel_s: self.phases.kernel_scan_s,
            report_s: self.phases.report_s,
        }
    }

    /// Serializes the record as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!("{{\"engine\":\"{}\",", escape(&self.engine)));
        out.push_str(&format!(
            "\"phases\":{{\"genome_load_s\":{},\"guide_compile_s\":{},\"kernel_scan_s\":{},\"report_s\":{}}},",
            num(self.phases.genome_load_s),
            num(self.phases.guide_compile_s),
            num(self.phases.kernel_scan_s),
            num(self.phases.report_s),
        ));
        let c = &self.counters;
        out.push_str(&format!(
            "\"counters\":{{\"windows_scanned\":{},\"pam_anchors_tested\":{},\"seed_survivors\":{},\"bit_steps\":{},\"early_exits\":{},\"multiseed_candidates\":{},\"multiseed_positions\":{},\"candidates_verified\":{},\"raw_hits\":{},\"bytes_copied\":{},\"faults_injected\":{},\"chunks_retried\":{},\"chunks_failed\":{},\"degraded_paths\":{}}}",
            c.windows_scanned,
            c.pam_anchors_tested,
            c.seed_survivors,
            c.bit_steps,
            c.early_exits,
            c.multiseed_candidates,
            c.multiseed_positions,
            c.candidates_verified,
            c.raw_hits,
            c.bytes_copied,
            c.faults_injected,
            c.chunks_retried,
            c.chunks_failed,
            c.degraded_paths,
        ));
        if let Some(p) = &self.parallel {
            out.push_str(&format!(
                ",\"parallel\":{{\"chunks_total\":{},\"chunk_len_min\":{},\"chunk_len_max\":{},\"overlap\":{},\"worker_phases\":{{\"genome_load_s\":{},\"guide_compile_s\":{},\"kernel_scan_s\":{},\"report_s\":{}}},\"threads\":[",
                p.chunks_total,
                p.chunk_len_min,
                p.chunk_len_max,
                p.overlap,
                num(p.worker_phases.genome_load_s),
                num(p.worker_phases.guide_compile_s),
                num(p.worker_phases.kernel_scan_s),
                num(p.worker_phases.report_s),
            ));
            for (i, t) in p.threads.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"chunks\":{},\"busy_s\":{},\"raw_hits\":{}}}",
                    t.chunks,
                    num(t.busy_s),
                    t.raw_hits
                ));
            }
            out.push_str("]}");
        }
        if !self.gauges.is_empty() {
            out.push_str(",\"gauges\":{");
            for (i, (name, value)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape(name), num(*value)));
            }
            out.push('}');
        }
        if !self.histograms.is_empty() {
            out.push_str(",\"histograms\":{");
            for (i, (name, h)) in self.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                // Buckets are `[index, count]` pairs for the non-empty
                // buckets only; the log₂ bound is recomputed from the
                // index by consumers (`Histogram::bucket_bound_s`).
                out.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"sum_s\":{},\"buckets\":[",
                    escape(name),
                    h.count(),
                    num(h.sum_s)
                ));
                let mut first = true;
                for (idx, &count) in h.buckets.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{idx},{count}]"));
                }
                out.push_str("]}");
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// JSON number formatting: finite floats as-is, non-finite as null.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn timing_maps_phases_to_buckets() {
        let mut m = SearchMetrics::new("test");
        m.phases = PhaseSpans {
            genome_load_s: 1.0,
            guide_compile_s: 2.0,
            kernel_scan_s: 3.0,
            report_s: 4.0,
        };
        let t = m.timing();
        assert_eq!(t.transfer_s, 1.0);
        assert_eq!(t.config_s, 2.0);
        assert_eq!(t.kernel_s, 3.0);
        assert_eq!(t.report_s, 4.0);
        assert_eq!(m.phases.total_s(), t.total_s());
    }

    #[test]
    fn from_timing_round_trips() {
        let t = TimingBreakdown { config_s: 0.5, transfer_s: 0.25, kernel_s: 2.0, report_s: 0.125 };
        let m = SearchMetrics::from_timing("modeled", &t);
        assert_eq!(m.timing(), t);
        assert_eq!(m.engine, "modeled");
    }

    #[test]
    fn gauges_set_and_overwrite() {
        let mut m = SearchMetrics::new("g");
        m.set_gauge("streams", 4.0);
        m.set_gauge("streams", 8.0);
        m.set_gauge("passes", 2.0);
        assert_eq!(m.gauge("streams"), Some(8.0));
        assert_eq!(m.gauge("passes"), Some(2.0));
        assert_eq!(m.gauge("absent"), None);
        assert_eq!(m.gauges.len(), 2);
    }

    #[test]
    fn counters_merge_is_counter_wise() {
        let mut a = EngineCounters { windows_scanned: 1, raw_hits: 2, ..Default::default() };
        let b = EngineCounters { windows_scanned: 10, early_exits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.windows_scanned, 11);
        assert_eq!(a.early_exits, 5);
        assert_eq!(a.raw_hits, 2);
        assert!(a.any_nonzero());
        assert!(!EngineCounters::default().any_nonzero());
        // A lone copy regression still registers.
        let copied = EngineCounters { bytes_copied: 1, ..Default::default() };
        assert!(copied.any_nonzero());
    }

    #[test]
    fn phase_spans_merge_is_span_wise() {
        let mut a = PhaseSpans { kernel_scan_s: 1.0, ..PhaseSpans::default() };
        let b = PhaseSpans {
            genome_load_s: 0.5,
            guide_compile_s: 0.25,
            kernel_scan_s: 2.0,
            report_s: 0.125,
        };
        a.merge(&b);
        assert_eq!(a.kernel_scan_s, 3.0);
        assert_eq!(a.genome_load_s, 0.5);
        assert_eq!(a.guide_compile_s, 0.25);
        assert_eq!(a.report_s, 0.125);
    }

    #[test]
    fn utilization_is_bounded_by_construction() {
        let p = ParallelMetrics {
            threads: vec![
                ThreadStats { chunks: 2, busy_s: 0.5, raw_hits: 1 },
                ThreadStats { chunks: 2, busy_s: 1.0, raw_hits: 0 },
            ],
            chunks_total: 4,
            chunk_len_min: 100,
            chunk_len_max: 120,
            overlap: 22,
            worker_phases: PhaseSpans::default(),
        };
        assert!((p.busy_total_s() - 1.5).abs() < 1e-12);
        assert!((p.utilization(1.0) - 0.75).abs() < 1e-12);
        assert_eq!(p.utilization(0.0), 0.0);
        assert_eq!(ParallelMetrics::default().utilization(1.0), 0.0);
    }

    #[test]
    fn to_json_is_parseable_and_complete() {
        let mut m = SearchMetrics::new("ex\"otic\\engine");
        m.phases.kernel_scan_s = 0.125;
        m.counters.windows_scanned = 42;
        m.parallel = Some(ParallelMetrics {
            threads: vec![ThreadStats { chunks: 3, busy_s: 0.0625, raw_hits: 7 }],
            chunks_total: 3,
            chunk_len_min: 50,
            chunk_len_max: 60,
            overlap: 22,
            worker_phases: PhaseSpans { kernel_scan_s: 0.0625, ..PhaseSpans::default() },
        });
        m.set_gauge("dfa_states", 1234.0);
        let text = m.to_json();
        let value = json::parse(&text).expect("metrics JSON parses");
        assert_eq!(value.get("engine").and_then(json::Value::as_str), Some("ex\"otic\\engine"));
        let phases = value.get("phases").expect("phases present");
        assert_eq!(phases.get("kernel_scan_s").and_then(json::Value::as_f64), Some(0.125));
        let counters = value.get("counters").expect("counters present");
        assert_eq!(counters.get("windows_scanned").and_then(json::Value::as_f64), Some(42.0));
        let parallel = value.get("parallel").expect("parallel present");
        assert_eq!(parallel.get("chunks_total").and_then(json::Value::as_f64), Some(3.0));
        let worker = parallel.get("worker_phases").expect("worker phases present");
        assert_eq!(worker.get("kernel_scan_s").and_then(json::Value::as_f64), Some(0.0625));
        assert_eq!(worker.get("guide_compile_s").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(counters.get("bytes_copied").and_then(json::Value::as_f64), Some(0.0));
        let gauges = value.get("gauges").expect("gauges present");
        assert_eq!(gauges.get("dfa_states").and_then(json::Value::as_f64), Some(1234.0));
    }

    #[test]
    fn multiseed_counters_merge_serialize_and_derive() {
        let mut m = SearchMetrics::new("batched");
        m.counters.multiseed_candidates = 12;
        m.counters.multiseed_positions = 4;
        let extra = EngineCounters {
            multiseed_candidates: 8,
            multiseed_positions: 1,
            ..Default::default()
        };
        m.counters.merge(&extra);
        assert!(extra.any_nonzero());
        m.finalize_derived_gauges();
        assert_eq!(m.gauge("guides_per_candidate"), Some(4.0));
        let value = json::parse(&m.to_json()).expect("metrics JSON parses");
        let counters = value.get("counters").expect("counters present");
        assert_eq!(counters.get("multiseed_candidates").and_then(json::Value::as_f64), Some(20.0));
        assert_eq!(counters.get("multiseed_positions").and_then(json::Value::as_f64), Some(5.0));
        // Non-batched searches never emit the gauge.
        let mut plain = SearchMetrics::new("per-guide");
        plain.counters.windows_scanned = 10;
        plain.finalize_derived_gauges();
        assert_eq!(plain.gauge("guides_per_candidate"), None);
    }

    #[test]
    fn fault_counters_merge_and_serialize() {
        let mut m = SearchMetrics::new("faulted");
        m.counters.faults_injected = 3;
        m.counters.chunks_retried = 2;
        let extra = EngineCounters { chunks_failed: 1, degraded_paths: 4, ..Default::default() };
        assert!(extra.any_nonzero(), "fault counters register in any_nonzero");
        m.counters.merge(&extra);
        let value = json::parse(&m.to_json()).expect("metrics JSON parses");
        let counters = value.get("counters").expect("counters present");
        assert_eq!(counters.get("faults_injected").and_then(json::Value::as_f64), Some(3.0));
        assert_eq!(counters.get("chunks_retried").and_then(json::Value::as_f64), Some(2.0));
        assert_eq!(counters.get("chunks_failed").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(counters.get("degraded_paths").and_then(json::Value::as_f64), Some(4.0));
    }

    #[test]
    fn straggler_ratio_is_max_over_median() {
        let mut p = ParallelMetrics::default();
        assert_eq!(p.straggler_ratio(), 1.0, "no workers, no imbalance");
        p.threads = vec![ThreadStats { busy_s: 1.0, ..Default::default() }];
        assert_eq!(p.straggler_ratio(), 1.0, "one worker, no imbalance");
        p.threads = vec![
            ThreadStats { busy_s: 1.0, ..Default::default() },
            ThreadStats { busy_s: 2.0, ..Default::default() },
            ThreadStats { busy_s: 6.0, ..Default::default() },
        ];
        assert_eq!(p.straggler_ratio(), 3.0);
        assert_eq!(p.max_busy_s(), 6.0);
        // Even worker count takes the mean of the middle pair.
        p.threads.push(ThreadStats { busy_s: 2.0, ..Default::default() });
        assert_eq!(p.straggler_ratio(), 3.0);
        // All-idle fleet: median zero degenerates to balanced.
        p.threads.iter_mut().for_each(|t| t.busy_s = 0.0);
        assert_eq!(p.straggler_ratio(), 1.0);
    }

    #[test]
    fn histogram_buckets_cover_log2_bounds() {
        let mut h = Histogram::default();
        h.observe_s(0.0); // clamps into the smallest bucket
        h.observe_s(Histogram::bucket_bound_s(10)); // boundary is inclusive
        h.observe_s(Histogram::bucket_bound_s(10) * 1.5);
        h.observe_s(1e9); // far past the largest finite bound
        h.observe_s(f64::NAN); // non-finite clamps instead of corrupting
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert!(h.sum_s.is_finite());
        assert!(Histogram::bucket_bound_s(HISTOGRAM_BUCKETS - 1).is_infinite());
        assert_eq!(Histogram::bucket_bound_s(30), 1.0);
    }

    #[test]
    fn histogram_merge_adds_bucket_wise() {
        let mut a = Histogram::default();
        a.observe_s(0.5);
        a.observe_s(2.0);
        let mut b = Histogram::default();
        b.observe_s(0.5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert!((merged.sum_s - 3.0).abs() < 1e-12);
        // Merge with the empty histogram is the identity.
        let mut id = a.clone();
        id.merge(&Histogram::default());
        assert_eq!(id, a);
    }

    #[test]
    fn metrics_histograms_observe_merge_and_serialize() {
        let mut m = SearchMetrics::new("h");
        m.observe("chunk_scan_s", 0.001);
        m.observe("chunk_scan_s", 0.002);
        m.observe("retry_backoff_s", 0.1);
        assert_eq!(m.histogram("chunk_scan_s").map(Histogram::count), Some(2));
        let mut other = SearchMetrics::new("worker");
        other.observe("chunk_scan_s", 0.004);
        other.observe("fresh_s", 1.0);
        m.merge_histograms(&other.histograms);
        assert_eq!(m.histogram("chunk_scan_s").map(Histogram::count), Some(3));
        assert_eq!(m.histogram("fresh_s").map(Histogram::count), Some(1));
        let value = json::parse(&m.to_json()).expect("metrics JSON parses");
        let hists = value.get("histograms").expect("histograms present");
        let chunk = hists.get("chunk_scan_s").expect("chunk histogram present");
        assert_eq!(chunk.get("count").and_then(json::Value::as_f64), Some(3.0));
        assert!(chunk.get("sum_s").and_then(json::Value::as_f64).is_some());
        // Empty-histogram records serialize without the key at all.
        let plain = SearchMetrics::new("plain");
        assert!(!plain.to_json().contains("histograms"));
        json::parse(&plain.to_json()).expect("still valid JSON");
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let mut m = SearchMetrics::new("n");
        m.set_gauge("bad", f64::NAN);
        let text = m.to_json();
        assert!(text.contains("\"bad\":null"));
        json::parse(&text).expect("still valid JSON");
    }
}
