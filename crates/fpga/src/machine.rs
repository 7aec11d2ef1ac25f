//! The FPGA search machine: functional execution + modeled timing, with
//! automatic multi-pass partitioning for pattern sets larger than the
//! device and opt-in stream replication (§7 improvement).

use crate::resource::{
    estimate_design, estimate_design_replicated, plan_partitions, DesignEstimate,
};
use crate::FpgaSpec;
use crispr_engines::{Accelerated, BitParallelEngine, Engine, EngineError};
use crispr_genome::Genome;
use crispr_guides::{compile, CompileOptions, Guide, Hit};
use crispr_model::TimingBreakdown;

/// FPGA off-target search with a configurable device.
///
/// ```
/// use crispr_fpga::FpgaSearch;
/// use crispr_genome::synth::SynthSpec;
/// use crispr_guides::genset;
///
/// let genome = SynthSpec::new(10_000).seed(1).generate();
/// let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 2);
/// let report = FpgaSearch::new().run(&genome, &guides, 3)?;
/// assert_eq!(report.passes, 1);
/// # Ok::<(), crispr_engines::EngineError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FpgaSearch {
    spec: FpgaSpec,
    replicate: bool,
}

/// Result of one FPGA run.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaRunReport {
    /// The exact hit set (identical to every CPU engine's).
    pub hits: Vec<Hit>,
    /// Modeled time breakdown (summed across passes).
    pub timing: TimingBreakdown,
    /// Per-pass design estimates.
    pub designs: Vec<DesignEstimate>,
    /// Sequential passes over the input (1 unless the set overflowed the
    /// device).
    pub passes: usize,
}

impl FpgaSearch {
    /// A search on the default Kintex UltraScale-class device, single
    /// stream (the paper's design).
    pub fn new() -> FpgaSearch {
        FpgaSearch::default()
    }

    /// Uses a custom device spec.
    pub fn with_spec(mut self, spec: FpgaSpec) -> FpgaSearch {
        self.spec = spec;
        self
    }

    /// Enables stream replication (§7 improvement; experiment E11).
    pub fn replicated(mut self) -> FpgaSearch {
        self.replicate = true;
        self
    }

    /// The device spec in use.
    pub fn spec(&self) -> &FpgaSpec {
        &self.spec
    }

    /// Runs the search: exact hits plus the modeled timing.
    ///
    /// # Errors
    ///
    /// Guide-validation and compilation errors, as for the CPU engines.
    pub fn run(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
    ) -> Result<FpgaRunReport, EngineError> {
        let set = compile::compile_guides(guides, &CompileOptions::new(k))?;

        // Partition the guide set if one instance cannot fit; each
        // partition is a sequential pass with its own bitstream. Partition
        // at guide granularity so a guide's strand pair stays together.
        let patterns_per_guide = set.per_pattern_states.len() / guides.len();
        let per_guide_states: Vec<usize> = set
            .per_pattern_states
            .chunks(patterns_per_guide)
            .map(|chunk| chunk.iter().sum())
            .collect();
        let partitions = plan_partitions(&per_guide_states, &self.spec);
        let estimate = |automaton: &crispr_automata::Automaton| {
            if self.replicate {
                estimate_design_replicated(automaton, &self.spec)
            } else {
                estimate_design(automaton, &self.spec)
            }
        };
        let mut designs = Vec::with_capacity(partitions.len());
        if partitions.len() == 1 {
            designs.push(estimate(&set.automaton));
        } else {
            for part in &partitions {
                let sub = compile::compile_guides(&guides[part.clone()], &CompileOptions::new(k))?;
                designs.push(estimate(&sub.automaton));
            }
        }

        // Functional result: identical automaton semantics, computed fast.
        let hits = Accelerated::new(BitParallelEngine::new()).search(genome, guides, k)?;

        let bytes = genome.total_len() as f64;
        let kernel_s: f64 = designs.iter().map(|d| bytes / d.throughput_bps).sum();
        let timing = TimingBreakdown {
            config_s: self.spec.config_time_s * designs.len() as f64,
            transfer_s: bytes / self.spec.pcie_bandwidth,
            kernel_s,
            report_s: hits.len() as f64 / self.spec.host_reports_per_s,
        };
        let passes = designs.len();
        Ok(FpgaRunReport { hits, timing, designs, passes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_engines::ScalarEngine;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    #[test]
    fn hits_match_scalar_oracle() {
        let genome = SynthSpec::new(20_000).seed(31).generate();
        let guides = genset::random_guides(3, 20, &Pam::ngg(), 32);
        let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 2), 33);
        let report = FpgaSearch::new().run(&genome, &guides, 2).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, 2).unwrap();
        assert_eq!(report.hits, truth);
    }

    #[test]
    fn single_stream_kernel_is_clock_limited() {
        let genome = SynthSpec::new(100_000).seed(34).generate();
        let guides = genset::random_guides(10, 20, &Pam::ngg(), 35);
        let report = FpgaSearch::new().run(&genome, &guides, 3).unwrap();
        assert_eq!(report.passes, 1);
        let expected = 100_000.0 / report.designs[0].clock_hz;
        assert!((report.timing.kernel_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn replication_speeds_up_small_sets() {
        let genome = SynthSpec::new(100_000).seed(36).generate();
        let guides = genset::random_guides(5, 20, &Pam::ngg(), 37);
        let single = FpgaSearch::new().run(&genome, &guides, 3).unwrap();
        let replicated = FpgaSearch::new().replicated().run(&genome, &guides, 3).unwrap();
        assert!(replicated.designs[0].instances > 1);
        assert!(replicated.timing.kernel_s < single.timing.kernel_s / 2.0);
        assert_eq!(replicated.hits, single.hits);
    }

    #[test]
    fn oversized_sets_run_in_passes() {
        let genome = SynthSpec::new(50_000).seed(38).generate();
        // 1500 guides × 2 strands × ~143 states ≈ 429k states > device.
        let guides = genset::random_guides(1500, 20, &Pam::ngg(), 39);
        let report = FpgaSearch::new().run(&genome, &guides, 3).unwrap();
        assert!(report.passes > 1, "passes {}", report.passes);
        assert!(report.timing.config_s > FpgaSpec::default().config_time_s * 1.5);
    }

    #[test]
    fn transfer_cost_scales_with_genome() {
        let guides = genset::random_guides(2, 20, &Pam::ngg(), 40);
        let small = SynthSpec::new(10_000).seed(41).generate();
        let large = SynthSpec::new(100_000).seed(41).generate();
        let t_small = FpgaSearch::new().run(&small, &guides, 2).unwrap();
        let t_large = FpgaSearch::new().run(&large, &guides, 2).unwrap();
        assert!(t_large.timing.transfer_s > 5.0 * t_small.timing.transfer_s);
        assert!(t_large.timing.kernel_s > 5.0 * t_small.timing.kernel_s);
    }
}
