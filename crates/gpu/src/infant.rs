//! The iNFAnt2-class GPU NFA engine model.
//!
//! iNFAnt2 stores the NFA transition table in device memory; for each
//! input symbol, threads fetch the out-edges of currently-active states
//! and mark successors. The kernel is therefore bandwidth-bound on
//! irregular accesses, with a hard per-symbol dependency (no pipelining
//! across symbols within a stream). We measure the automaton's mean
//! active-state count by frontier-simulating a genome sample, then charge
//!
//! ```text
//! bytes/symbol = mean_active × (1 + mean_out_degree) × record_bytes
//!                / coalescing_efficiency
//! ```
//!
//! against device bandwidth, with a floor of one dependent memory epoch
//! per input symbol: iNFAnt2 parallelizes across the *transition set*
//! (thread blocks own partitions of the NFA), not across the input, so
//! symbols are consumed strictly sequentially — the per-symbol round trip
//! to device memory is the hard floor that makes the paper call the GPU
//! mapping unconvincing.

use crate::GpuSpec;
use crispr_automata::sim::Simulator;
use crispr_automata::stats::AutomatonStats;
use crispr_engines::{Accelerated, BitParallelEngine, Engine, EngineError};
use crispr_genome::Genome;
use crispr_guides::{compile, CompileOptions, Guide, Hit};
use crispr_model::TimingBreakdown;

/// Bytes per transition record in the device-resident table.
const RECORD_BYTES: f64 = 4.0;
/// Dependent-memory-epoch latency per symbol per stream, seconds
/// (~400 ns: a round of uncoalesced loads plus a block-wide sync).
const EPOCH_LATENCY_S: f64 = 400e-9;

/// iNFAnt2-class GPU NFA search.
#[derive(Debug, Clone)]
pub struct Infant2Search {
    spec: GpuSpec,
    sample_len: usize,
}

/// Result of one iNFAnt2-model run.
#[derive(Debug, Clone, PartialEq)]
pub struct Infant2Report {
    /// The exact hit set (identical to every CPU engine's).
    pub hits: Vec<Hit>,
    /// Modeled time breakdown.
    pub timing: TimingBreakdown,
    /// Mean active states per symbol measured on the sample.
    pub mean_active: f64,
    /// Modeled transition-fetch bytes per input symbol.
    pub bytes_per_symbol: f64,
}

impl Default for Infant2Search {
    fn default() -> Infant2Search {
        Infant2Search { spec: GpuSpec::default(), sample_len: 1 << 16 }
    }
}

impl Infant2Search {
    /// A search on the default GTX 1080-class device.
    pub fn new() -> Infant2Search {
        Infant2Search::default()
    }

    /// Uses a custom device spec.
    pub fn with_spec(mut self, spec: GpuSpec) -> Infant2Search {
        self.spec = spec;
        self
    }

    /// Sets the genome prefix length sampled for activity measurement.
    ///
    /// # Panics
    ///
    /// Panics if `sample_len` is zero.
    pub fn with_sample_len(mut self, sample_len: usize) -> Infant2Search {
        assert!(sample_len > 0, "sample length must be positive");
        self.sample_len = sample_len;
        self
    }

    /// Runs the search: exact hits plus modeled timing.
    ///
    /// # Errors
    ///
    /// Guide-validation and compilation errors, as for the CPU engines.
    pub fn run(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
    ) -> Result<Infant2Report, EngineError> {
        let set = compile::compile_guides(guides, &CompileOptions::new(k))?;
        let stats = AutomatonStats::compute(&set.automaton);

        // Measure activity on a sample of the input.
        let mut sim = Simulator::new(&set.automaton);
        let mut scratch = Vec::new();
        let mut sampled = 0usize;
        'outer: for contig in genome.contigs() {
            for base in contig.seq().iter() {
                sim.step(base.code(), &mut scratch);
                sampled += 1;
                if sampled >= self.sample_len {
                    break 'outer;
                }
            }
        }
        let mean_active = sim.stats().mean_active().max(1.0);

        // Cost model: bandwidth over the transition fetches, floored by
        // one dependent memory epoch per (strictly sequential) symbol.
        let bytes_per_symbol = mean_active * (1.0 + stats.mean_out_degree) * RECORD_BYTES
            / self.spec.coalescing_efficiency;
        let symbols = genome.total_len() as f64;
        let bandwidth_bound = symbols * bytes_per_symbol / self.spec.mem_bandwidth;
        let latency_bound = symbols * EPOCH_LATENCY_S;
        let kernel_s = bandwidth_bound.max(latency_bound);

        // Functional result: same automaton semantics, computed fast.
        let hits = Accelerated::new(BitParallelEngine::new()).search(genome, guides, k)?;

        let timing = TimingBreakdown {
            config_s: self.spec.init_time_s,
            transfer_s: symbols / self.spec.pcie_bandwidth,
            kernel_s,
            report_s: hits.len() as f64 / self.spec.host_reports_per_s,
        };
        Ok(Infant2Report { hits, timing, mean_active, bytes_per_symbol })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_engines::ScalarEngine;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset;
    use crispr_guides::Pam;

    #[test]
    fn hits_match_scalar_oracle() {
        let genome = SynthSpec::new(15_000).seed(41).generate();
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 42);
        let report = Infant2Search::new().run(&genome, &guides, 2).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, 2).unwrap();
        assert_eq!(report.hits, truth);
    }

    #[test]
    fn activity_grows_with_guides_and_k() {
        let genome = SynthSpec::new(50_000).seed(43).generate();
        let few = genset::random_guides(2, 20, &Pam::ngg(), 44);
        let many = genset::random_guides(40, 20, &Pam::ngg(), 44);
        let r_few = Infant2Search::new().run(&genome, &few, 1).unwrap();
        let r_many = Infant2Search::new().run(&genome, &many, 1).unwrap();
        assert!(r_many.mean_active > 5.0 * r_few.mean_active);
        let r_k4 = Infant2Search::new().run(&genome, &few, 4).unwrap();
        assert!(r_k4.mean_active > r_few.mean_active);
    }

    #[test]
    fn kernel_time_scales_with_activity_once_bandwidth_bound() {
        // On a deliberately bandwidth-starved device the fetch volume,
        // which grows with the pattern set, dominates the latency floor.
        let slow = GpuSpec { mem_bandwidth: 1.0e9, ..GpuSpec::default() };
        let genome = SynthSpec::new(50_000).seed(45).generate();
        let few = genset::random_guides(2, 20, &Pam::ngg(), 46);
        let many = genset::random_guides(200, 20, &Pam::ngg(), 46);
        let r_few = Infant2Search::new().with_spec(slow).run(&genome, &few, 3).unwrap();
        let r_many = Infant2Search::new().with_spec(slow).run(&genome, &many, 3).unwrap();
        assert!(r_many.timing.kernel_s > 5.0 * r_few.timing.kernel_s);
        assert!(r_many.bytes_per_symbol > 10.0 * r_few.bytes_per_symbol);
        // On the default device the same small workload sits on the
        // latency floor instead.
        let r_floor = Infant2Search::new().run(&genome, &few, 3).unwrap();
        assert!((r_floor.timing.kernel_s - 50_000.0 * EPOCH_LATENCY_S).abs() < 1e-9);
    }

    #[test]
    fn latency_floor_binds_small_sets() {
        let genome = SynthSpec::new(50_000).seed(47).generate();
        let guides = genset::random_guides(1, 20, &Pam::ngg(), 48);
        let report = Infant2Search::new().run(&genome, &guides, 0).unwrap();
        let latency_bound = 50_000.0 * EPOCH_LATENCY_S;
        assert!((report.timing.kernel_s - latency_bound).abs() / latency_bound < 1e-6);
    }
}
