//! The AP search machine: functional execution + board-level timing.

use crate::place::{place, PatternDemand, Placement};
use crate::ApBoardSpec;
use crispr_engines::{Accelerated, BitParallelEngine, Engine, EngineError};
use crispr_genome::Genome;
use crispr_guides::{compile, CompileOptions, Guide, Hit};
use crispr_model::TimingBreakdown;
use std::collections::HashSet;

/// AP off-target search with a configurable board.
///
/// ```
/// use crispr_ap::ApSearch;
/// use crispr_genome::synth::SynthSpec;
/// use crispr_guides::genset;
///
/// let genome = SynthSpec::new(10_000).seed(1).generate();
/// let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 2);
/// let report = ApSearch::new().run(&genome, &guides, 3)?;
/// assert!(report.timing.kernel_s > 0.0);
/// # Ok::<(), crispr_engines::EngineError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ApSearch {
    board: ApBoardSpec,
    count_free: bool,
    strided: bool,
}

/// Everything one AP run produces: exact hits plus the modeled execution
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ApRunReport {
    /// The exact hit set (identical to every CPU engine's).
    pub hits: Vec<Hit>,
    /// Modeled time breakdown.
    pub timing: TimingBreakdown,
    /// Placement of the pattern automata.
    pub placement: Placement,
    /// Independent input streams running in parallel.
    pub streams: usize,
    /// Sequential passes over the input (capacity overflow).
    pub passes: usize,
    /// Cycles lost to output-vector capture.
    pub stall_cycles: u64,
}

impl ApSearch {
    /// A search on the default 32-chip D480 board.
    pub fn new() -> ApSearch {
        ApSearch::default()
    }

    /// Uses a custom board.
    pub fn with_board(mut self, board: ApBoardSpec) -> ApSearch {
        self.board = board;
        self
    }

    /// Compiles automata without per-count report rows (saves STEs and
    /// output capacity; the host re-derives counts — the trade-off of
    /// experiment E7's discussion).
    pub fn count_free(mut self) -> ApSearch {
        self.count_free = true;
        self
    }

    /// Streams two bases per symbol (the paper's §7 striding proposal,
    /// experiment E11): halves kernel cycles per stream at ~1.4× the STE
    /// footprint, which can cost stream parallelism on full boards.
    /// Incompatible with [`ApSearch::count_free`] (strided copies always
    /// report counts).
    pub fn strided(mut self) -> ApSearch {
        self.strided = true;
        self
    }

    /// The board spec in use.
    pub fn board(&self) -> &ApBoardSpec {
        &self.board
    }

    /// Runs the search, returning exact hits and the modeled timing.
    ///
    /// # Errors
    ///
    /// Guide-validation and compilation errors, as for the CPU engines.
    pub fn run(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
    ) -> Result<ApRunReport, EngineError> {
        let mut opts = CompileOptions::new(k);
        if self.count_free {
            opts = opts.count_free();
        }
        let set = compile::compile_guides(guides, &opts)?;

        // Placement: demand per pattern (or per strided copy) from the
        // compiled machines.
        let reports_per_pattern = if self.count_free { 1 } else { k + 1 };
        let pattern_states: Vec<usize> = if self.strided {
            crispr_guides::stride::StridedScan::compile(guides, &CompileOptions::new(k))?
                .per_copy_states
        } else {
            set.per_pattern_states.clone()
        };
        let demands: Vec<PatternDemand> = pattern_states
            .iter()
            .map(|&states| PatternDemand { states, report_states: reports_per_pattern })
            .collect();
        let placement = place(&demands, &self.board.chip);

        // Stream replication / multi-pass (board capacity).
        let (streams, passes) = self.streams_and_passes(&placement);

        // Functional result: the bit-parallel engine computes the same
        // automaton semantics exactly (cross-validated in tests and E9;
        // the strided machine is additionally validated against it in the
        // guides crate).
        let hits = Accelerated::new(BitParallelEngine::new()).search(genome, guides, k)?;

        // Report-cycle stalls: one output vector per cycle with ≥1 report.
        let site_len = set.site_len as u64;
        let reporting_cycles: HashSet<(u32, u64)> =
            hits.iter().map(|h| (h.contig, h.pos + site_len)).collect();
        let stall_cycles = reporting_cycles.len() as u64 * self.board.chip.report_vector_cycles;

        let bases_per_symbol = if self.strided { 2 } else { 1 };
        let total_symbols = (genome.total_len() as u64).div_ceil(bases_per_symbol);
        let symbols_per_stream = total_symbols.div_ceil(streams as u64);
        let stall_per_stream = stall_cycles.div_ceil(streams as u64);
        let clock = self.board.chip.clock_hz;
        let kernel_s = passes as f64 * (symbols_per_stream + stall_per_stream) as f64 / clock;

        let timing = TimingBreakdown {
            config_s: self.board.chip.load_time_s * placement.chips_used as f64,
            transfer_s: total_symbols as f64 / self.board.host_bandwidth,
            kernel_s,
            report_s: hits.len() as f64 / self.board.host_reports_per_s,
        };

        Ok(ApRunReport { hits, timing, placement, streams, passes, stall_cycles })
    }

    /// How many parallel streams one copy of the placed set allows, and
    /// how many sequential passes are needed.
    fn streams_and_passes(&self, placement: &Placement) -> (usize, usize) {
        let chips_per_copy = placement.chips_used.max(1);
        let ranks_per_copy = chips_per_copy.div_ceil(self.board.chips_per_rank);
        if ranks_per_copy <= self.board.ranks {
            ((self.board.ranks / ranks_per_copy).max(1), 1)
        } else {
            (1, ranks_per_copy.div_ceil(self.board.ranks))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_engines::ScalarEngine;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    fn workload(guides_n: usize, len: usize) -> (Genome, Vec<Guide>) {
        let genome = SynthSpec::new(len).seed(5).generate();
        let guides = genset::random_guides(guides_n, 20, &Pam::ngg(), 6);
        let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(2, 2), 7);
        (genome, guides)
    }

    #[test]
    fn hits_match_scalar_oracle() {
        let (genome, guides) = workload(3, 20_000);
        let report = ApSearch::new().run(&genome, &guides, 2).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, 2).unwrap();
        assert_eq!(report.hits, truth);
    }

    #[test]
    fn small_set_gets_full_stream_parallelism() {
        let (genome, guides) = workload(2, 10_000);
        let report = ApSearch::new().run(&genome, &guides, 3).unwrap();
        assert_eq!(report.placement.chips_used, 1);
        assert_eq!(report.streams, 4); // one copy per rank
        assert_eq!(report.passes, 1);
    }

    #[test]
    fn kernel_time_is_flat_in_guide_count_until_capacity() {
        let genome = SynthSpec::new(100_000).seed(8).generate();
        let few = genset::random_guides(2, 20, &Pam::ngg(), 9);
        let many = genset::random_guides(100, 20, &Pam::ngg(), 9);
        let t_few = ApSearch::new().run(&genome, &few, 3).unwrap();
        let t_many = ApSearch::new().run(&genome, &many, 3).unwrap();
        // Both fit on one rank → identical stream parallelism and nearly
        // identical kernel time (stalls differ slightly).
        assert_eq!(t_few.streams, t_many.streams);
        assert!((t_many.timing.kernel_s / t_few.timing.kernel_s) < 1.2);
    }

    #[test]
    fn overflowing_the_board_costs_passes() {
        let genome = SynthSpec::new(10_000).seed(10).generate();
        let guides = genset::random_guides(4, 20, &Pam::ngg(), 11);
        // A tiny board: 1 rank × 1 chip with room for very few patterns.
        let board = ApBoardSpec {
            chips_per_rank: 1,
            ranks: 1,
            chip: crate::ApChipSpec {
                stes: 1024,
                routable_fraction: 1.0,
                ..crate::ApChipSpec::default()
            },
            ..ApBoardSpec::default()
        };
        let report = ApSearch::new().with_board(board).run(&genome, &guides, 2).unwrap();
        assert!(report.passes > 1, "passes {}", report.passes);
        assert_eq!(report.streams, 1);
    }

    #[test]
    fn report_density_increases_kernel_time() {
        // Same genome size, but one workload has planted hits everywhere.
        let quiet_genome = SynthSpec::new(50_000).seed(12).generate();
        let guides = genset::random_guides(1, 20, &Pam::ngg(), 13);
        let (noisy_genome, _) = genset::plant_offtargets(
            quiet_genome.clone(),
            &guides,
            &PlantPlan::uniform(3, 150),
            14,
        );
        let quiet = ApSearch::new().run(&quiet_genome, &guides, 3).unwrap();
        let noisy = ApSearch::new().run(&noisy_genome, &guides, 3).unwrap();
        assert!(noisy.stall_cycles > quiet.stall_cycles);
        assert!(noisy.timing.kernel_s > quiet.timing.kernel_s);
    }

    #[test]
    fn strided_mode_halves_kernel_when_capacity_allows() {
        let genome = SynthSpec::new(200_000).seed(17).generate();
        let guides = genset::random_guides(5, 20, &Pam::ngg(), 18);
        let base = ApSearch::new().run(&genome, &guides, 3).unwrap();
        let strided = ApSearch::new().strided().run(&genome, &guides, 3).unwrap();
        // Small set: both fit one chip per copy → same streams, half the
        // symbols.
        assert_eq!(strided.streams, base.streams);
        let ratio = base.timing.kernel_s / strided.timing.kernel_s;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        // Functional results identical.
        assert_eq!(strided.hits, base.hits);
        // Strided machines cost more STEs.
        assert!(strided.placement.stes_used > base.placement.stes_used);
    }

    #[test]
    fn count_free_mode_reduces_placement_footprint() {
        let genome = SynthSpec::new(5_000).seed(15).generate();
        let guides = genset::random_guides(10, 20, &Pam::ngg(), 16);
        let with_counts = ApSearch::new().run(&genome, &guides, 3).unwrap();
        let free = ApSearch::new().count_free().run(&genome, &guides, 3).unwrap();
        assert!(free.placement.stes_used < with_counts.placement.stes_used);
        assert!(free.placement.report_states_used < with_counts.placement.report_states_used);
        // Functional results must not change (counts re-derived upstream).
        assert_eq!(free.hits, with_counts.hits);
    }
}
