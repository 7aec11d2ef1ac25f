//! The Cas-OFFinder-class brute-force engine (CPU flavour).
//!
//! Cas-OFFinder compares every genome window against every pattern with no
//! filtering beyond (a) checking the cheap, highly-selective PAM positions
//! first and (b) aborting a comparison as soon as the mismatch budget is
//! exceeded. Its cost therefore grows with `genome × guides` and *rises*
//! with the budget k (later early exits) — the scaling the paper contrasts
//! against automata, whose cost is flat in both. The spacer comparison
//! here runs on the 2-bit packed genome, one XOR/popcount per 32 bases.
//!
//! This is the engine in its pure form. Behind the [`crate::Accelerated`]
//! front, the per-window PAM probing is replaced by the shared bitwise
//! anchor pass of [`crate::prefilter`] — the per-candidate verify is
//! unchanged, only the walk to the candidates gets cheaper.

use crate::engine::{patterns, validate_guides, Engine, PreparedSearch};
use crate::EngineError;
use crispr_genome::{Base, IupacCode, PackedSeq};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// Precompiled form of one pattern for brute-force scanning.
#[derive(Debug)]
struct Precompiled {
    /// `(offset in site, accepted bases)` for PAM (uncounted) positions.
    pam_checks: Vec<(usize, IupacCode)>,
    /// Packed concrete bases of the counted (spacer) run.
    spacer: PackedSeq,
    /// Offset of the counted run within the site.
    spacer_offset: usize,
    guide_index: u32,
    strand: crispr_genome::Strand,
}

impl Precompiled {
    fn new(pattern: &SitePattern) -> Precompiled {
        let mut pam_checks = Vec::new();
        let mut spacer = PackedSeq::new();
        let mut spacer_offset = None;
        for (i, pos) in pattern.positions().iter().enumerate() {
            if pos.counted {
                if spacer_offset.is_none() {
                    spacer_offset = Some(i);
                }
                let base =
                    pos.class.bases().next().expect("counted positions are concrete single bases");
                debug_assert_eq!(pos.class.degeneracy(), 1);
                spacer.push(base);
            } else {
                pam_checks.push((i, pos.class));
            }
        }
        let spacer_offset = spacer_offset.expect("patterns contain a spacer");
        // The packed compare assumes the counted run is contiguous, which
        // holds for every PAM side/strand combination of real guides.
        debug_assert!(pam_checks
            .iter()
            .all(|&(i, _)| i < spacer_offset || i >= spacer_offset + spacer.len()));
        Precompiled {
            pam_checks,
            spacer,
            spacer_offset,
            guide_index: pattern.guide_index(),
            strand: pattern.strand(),
        }
    }
}

/// Brute-force direct-comparison engine; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CasOffinderCpuEngine {
    _private: (),
}

impl CasOffinderCpuEngine {
    /// Creates the engine.
    pub fn new() -> CasOffinderCpuEngine {
        CasOffinderCpuEngine::default()
    }
}

/// Compiled form: per-pattern packed verifiers.
#[derive(Debug)]
struct CasOffinderPrepared {
    compiled: Vec<Precompiled>,
    site_len: usize,
    k: usize,
}

impl PreparedSearch for CasOffinderPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    /// The per-window probe-then-verify scan of the original tool.
    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:casoffinder");
        if seq.len() < self.site_len {
            return Ok(());
        }
        let pack_start = Instant::now();
        let packed = PackedSeq::from_bases(seq);
        m.phases.genome_load_s += pack_start.elapsed().as_secs_f64();

        let scan_start = Instant::now();
        for start in 0..=seq.len() - self.site_len {
            m.counters.windows_scanned += 1;
            'pattern: for p in &self.compiled {
                for &(offset, class) in &p.pam_checks {
                    if !class.matches(seq[start + offset]) {
                        continue 'pattern;
                    }
                }
                m.counters.pam_anchors_tested += 1;
                if let Some(mm) =
                    packed.count_mismatches(&p.spacer, start + p.spacer_offset, self.k)
                {
                    m.counters.candidates_verified += 1;
                    out.push(Hit {
                        contig: 0,
                        pos: start as u64,
                        guide: p.guide_index,
                        strand: p.strand,
                        mismatches: mm as u8,
                    });
                } else {
                    m.counters.early_exits += 1;
                }
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl Engine for CasOffinderCpuEngine {
    fn name(&self) -> &'static str {
        "cas-offinder-cpu"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        let compiled = patterns(guides).iter().map(Precompiled::new).collect();
        Ok(Box::new(CasOffinderPrepared { compiled, site_len, k }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::assert_engine_correct;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 11, 0);
    }

    #[test]
    fn matches_oracle_k2() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 12, 2);
    }

    #[test]
    fn matches_oracle_k4() {
        assert_engine_correct(&CasOffinderCpuEngine::new(), 13, 4);
    }

    #[test]
    fn empty_guides_rejected() {
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        assert!(CasOffinderCpuEngine::new().search(&genome, &[], 1).is_err());
    }
}
