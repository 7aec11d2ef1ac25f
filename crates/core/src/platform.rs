use crispr_engines::{
    Accelerated, BitParallelEngine, CasOffinderCpuEngine, CasotEngine, DfaEngine, Engine,
    NfaEngine, ScalarEngine,
};
use std::fmt;

/// An execution target for an off-target search — the paper's evaluation
/// matrix as an enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// Per-window scalar scoring: the obviously-correct oracle.
    CpuScalar,
    /// Cas-OFFinder's algorithm on the CPU (brute force, PAM-first,
    /// packed compare) — baseline.
    CpuCasOffinder,
    /// CasOT's algorithm (PAM-anchored seed-and-extend) — baseline.
    CpuCasot,
    /// Bit-parallel Hamming shift-and: the HyperScan-class automata-on-CPU
    /// data point.
    CpuBitParallel,
    /// The bit-parallel engine behind the shared multi-seed automaton
    /// (batched cascade, SIMD verify/prefilter kernels).
    CpuBitParallelBatched,
    /// Direct frontier simulation of the mismatch NFAs.
    CpuNfa,
    /// Ahead-of-time subset-constructed DFA scan.
    CpuDfa,
    /// Micron Automata Processor (modeled timing, exact hits).
    Ap,
    /// FPGA spatial automata (modeled timing, exact hits).
    Fpga,
    /// iNFAnt2-class GPU NFA engine (modeled timing, exact hits).
    GpuInfant2,
    /// Cas-OFFinder's GPU kernel (modeled timing, exact hits) — baseline.
    GpuCasOffinder,
}

impl Platform {
    /// Every platform, baselines and automata approaches alike.
    pub const ALL: [Platform; 11] = [
        Platform::CpuScalar,
        Platform::CpuCasOffinder,
        Platform::CpuCasot,
        Platform::CpuBitParallel,
        Platform::CpuBitParallelBatched,
        Platform::CpuNfa,
        Platform::CpuDfa,
        Platform::Ap,
        Platform::Fpga,
        Platform::GpuInfant2,
        Platform::GpuCasOffinder,
    ];

    /// The paper's comparison set: the two baselines plus the four
    /// automata platforms.
    pub const PAPER_MATRIX: [Platform; 6] = [
        Platform::CpuCasot,
        Platform::GpuCasOffinder,
        Platform::CpuBitParallel,
        Platform::GpuInfant2,
        Platform::Fpga,
        Platform::Ap,
    ];

    /// Short stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Platform::CpuScalar => "cpu-scalar",
            Platform::CpuCasOffinder => "cpu-cas-offinder",
            Platform::CpuCasot => "cpu-casot",
            Platform::CpuBitParallel => "cpu-hyperscan",
            Platform::CpuBitParallelBatched => "cpu-hyperscan-batched",
            Platform::CpuNfa => "cpu-nfa",
            Platform::CpuDfa => "cpu-dfa",
            Platform::Ap => "ap",
            Platform::Fpga => "fpga",
            Platform::GpuInfant2 => "gpu-infant2",
            Platform::GpuCasOffinder => "gpu-cas-offinder",
        }
    }

    /// Whether the timing is an analytic model (accelerators) rather than
    /// measured wall-clock (CPU engines).
    pub fn is_modeled(self) -> bool {
        matches!(
            self,
            Platform::Ap | Platform::Fpga | Platform::GpuInfant2 | Platform::GpuCasOffinder
        )
    }

    /// The CPU engine that runs this platform, or `None` for the modeled
    /// accelerators. The one place a platform name becomes an engine: the
    /// batch search and the serve daemon both resolve through it. It is
    /// also the one place the [`Accelerated`] front is applied: the
    /// Cas-OFFinder and HyperScan platforms run their pure engines behind
    /// it, and every other engine runs as it stands.
    pub fn cpu_engine(self) -> Option<Box<dyn Engine>> {
        Some(match self {
            Platform::CpuScalar => Box::new(ScalarEngine::new()),
            Platform::CpuCasOffinder => Box::new(Accelerated::new(CasOffinderCpuEngine::new())),
            Platform::CpuCasot => Box::new(CasotEngine::new()),
            Platform::CpuBitParallel => Box::new(Accelerated::new(BitParallelEngine::new())),
            Platform::CpuBitParallelBatched => {
                Box::new(Accelerated::batched(BitParallelEngine::new()))
            }
            Platform::CpuNfa => Box::new(NfaEngine::new()),
            Platform::CpuDfa => Box::new(DfaEngine::new()),
            Platform::Ap | Platform::Fpga | Platform::GpuInfant2 | Platform::GpuCasOffinder => {
                return None
            }
        })
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Platform::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Platform::ALL.len());
    }

    #[test]
    fn classification() {
        assert!(Platform::Ap.is_modeled());
        assert!(!Platform::CpuBitParallel.is_modeled());
        assert!(Platform::GpuCasOffinder.is_modeled());
        // Exactly the measured platforms have a CPU engine.
        for p in Platform::ALL {
            assert_eq!(p.cpu_engine().is_some(), !p.is_modeled(), "{p}");
        }
    }

    #[test]
    fn paper_matrix_is_subset_of_all() {
        for p in Platform::PAPER_MATRIX {
            assert!(Platform::ALL.contains(&p));
        }
    }
}
