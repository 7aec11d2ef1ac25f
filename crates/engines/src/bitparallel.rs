//! The HyperScan-class CPU automata engine: multi-pattern bit-parallel
//! Hamming shift-and.
//!
//! This is the mismatch automaton of [`crispr_guides::compile`] executed
//! in registers instead of state graphs: register `R_j` holds, for each
//! pattern position `i`, whether the pattern prefix `0..=i` matches the
//! text ending at the current symbol with at most `j` mismatches. The
//! per-symbol update is
//!
//! ```text
//! R_0' = ((R_0 << 1) | 1) & S[c]
//! R_j' = (((R_j << 1) | 1) & S[c]) | (((R_{j-1} << 1) | 1) & D)    j ≥ 1
//! ```
//!
//! where `S[c]` has bit `i` set iff symbol `c` is accepted at position `i`
//! (IUPAC PAM classes fall out for free) and `D` masks the *counted*
//! positions — a failed PAM position cannot be paid for from the budget.
//! A hit with exactly `j` mismatches is the high bit set in `R_j` but not
//! `R_{j-1}`. This register formulation of an NFA is what HyperScan-class
//! libraries lower small patterns to; its cost per input symbol is
//! `O(patterns × (k+1))` word operations, flat in genome content — the
//! "automata on CPU" data point of the paper.
//!
//! This is the engine in its pure form. HyperScan's own trick of cheap
//! literal prefilters in front of the automaton — here with the PAM as
//! the literal — is the separate [`crate::Accelerated`] front; the
//! register machine stays its fallback for unanchorable pattern sets and
//! the ground truth the prefiltered path is tested against.

use crate::engine::{patterns, validate_guides, Engine, PreparedSearch};
use crate::EngineError;
use crispr_genome::Base;
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// All patterns' register machines in struct-of-arrays layout: the hot
/// loop walks flat, contiguous arrays (4·P accept masks, (k+1)·P
/// registers) instead of chasing one heap `Vec` per pattern — on
/// thousand-pattern sets this is worth several × in throughput, the same
/// data-layout discipline a production engine applies.
///
/// The bank itself is immutable compiled state; the mutable registers live
/// in caller-provided scratch so one compiled bank can serve concurrent
/// scans.
#[derive(Debug, Clone)]
struct RegisterBank {
    /// `S[c]` flattened as `accept[code · patterns + p]`.
    accept: Vec<u64>,
    /// Counted-position mask `D` per pattern.
    counted: Vec<u64>,
    /// High bit (site length − 1); identical for all patterns.
    top: u64,
    patterns: usize,
    k: usize,
    guide_index: Vec<u32>,
    strand: Vec<crispr_genome::Strand>,
}

impl RegisterBank {
    fn new(patterns: &[SitePattern], k: usize) -> RegisterBank {
        let n = patterns.len();
        let site_len = patterns.first().map_or(1, SitePattern::len);
        let mut bank = RegisterBank {
            accept: vec![0; 4 * n],
            counted: vec![0; n],
            top: 1 << (site_len - 1),
            patterns: n,
            k,
            guide_index: Vec::with_capacity(n),
            strand: Vec::with_capacity(n),
        };
        for (p, pattern) in patterns.iter().enumerate() {
            assert!(pattern.len() <= 64, "bit-parallel engine supports sites up to 64 bases");
            for (i, pos) in pattern.positions().iter().enumerate() {
                for base in Base::ALL {
                    if pos.class.matches(base) {
                        bank.accept[base.code() as usize * n + p] |= 1 << i;
                    }
                }
                if pos.counted {
                    bank.counted[p] |= 1 << i;
                }
            }
            bank.guide_index.push(pattern.guide_index());
            bank.strand.push(pattern.strand());
        }
        bank
    }

    /// Fresh zeroed register scratch for one scan.
    fn scratch(&self) -> Vec<u64> {
        vec![0; (self.k + 1) * self.patterns]
    }

    /// Advances every pattern by one symbol. The hot path is branch-free
    /// (it only OR-accumulates the top bits), so the per-pattern loop
    /// autovectorizes; the return value is nonzero iff *some* pattern's
    /// site ends at this symbol, and the caller then resolves exact
    /// pattern/count pairs with the (rare) [`RegisterBank::collect_hits`].
    ///
    /// `shifted` is caller-provided scratch of `patterns` words carrying
    /// `((R_{j−1} << 1) | 1)` between rows.
    #[inline]
    fn step(&self, regs: &mut [u64], code: usize, shifted: &mut [u64]) -> u64 {
        let n = self.patterns;
        let accept = &self.accept[code * n..(code + 1) * n];
        let top = self.top;
        let mut any = 0u64;

        // Row 0 (exact-prefix row) — no mismatch inflow. Stash the
        // shifted pre-update value for row 1's mismatch path.
        for p in 0..n {
            let s = (regs[p] << 1) | 1;
            let next = s & accept[p];
            shifted[p] = s;
            regs[p] = next;
            any |= next;
        }
        for j in 1..=self.k {
            let row = j * n;
            for p in 0..n {
                let s = (regs[row + p] << 1) | 1;
                let next = (s & accept[p]) | (shifted[p] & self.counted[p]);
                shifted[p] = s;
                regs[row + p] = next;
                any |= next;
            }
        }
        any & top
    }

    /// Resolves the hitting patterns after a [`RegisterBank::step`] whose
    /// return was nonzero: for each pattern whose top bit is set in some
    /// row, the lowest such row is the exact mismatch count (rows are
    /// supersets upward).
    fn collect_hits(&self, regs: &[u64], mut on_hit: impl FnMut(usize, u8)) {
        let n = self.patterns;
        let top = self.top;
        'pattern: for p in 0..n {
            for j in 0..=self.k {
                if regs[j * n + p] & top != 0 {
                    on_hit(p, j as u8);
                    continue 'pattern;
                }
            }
        }
    }
}

/// Bit-parallel multi-pattern engine; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitParallelEngine {
    _private: (),
}

impl BitParallelEngine {
    /// Creates the engine.
    pub fn new() -> BitParallelEngine {
        BitParallelEngine::default()
    }
}

/// Compiled form: the register bank.
#[derive(Debug)]
struct BitParallelPrepared {
    bank: RegisterBank,
    site_len: usize,
}

impl PreparedSearch for BitParallelPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:bitparallel");
        m.counters.bit_steps += seq.len() as u64;
        let scan_start = Instant::now();
        m.counters.windows_scanned += (seq.len() + 1).saturating_sub(self.site_len) as u64;
        let mut regs = self.bank.scratch();
        let mut shifted = vec![0u64; self.bank.patterns];
        for (end, &base) in seq.iter().enumerate() {
            let code = base.code() as usize;
            if self.bank.step(&mut regs, code, &mut shifted) != 0 {
                let pos = (end + 1 - self.site_len) as u64;
                self.bank.collect_hits(&regs, |p, mm| {
                    out.push(Hit {
                        contig: 0,
                        pos,
                        guide: self.bank.guide_index[p],
                        strand: self.bank.strand[p],
                        mismatches: mm,
                    });
                });
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl Engine for BitParallelEngine {
    fn name(&self) -> &'static str {
        "bitparallel-hyperscan"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        if site_len > 64 {
            return Err(EngineError::Unsupported(format!(
                "site length {site_len} exceeds the 64-bit register width"
            )));
        }
        let bank = RegisterBank::new(&patterns(guides), k);
        Ok(Box::new(BitParallelPrepared { bank, site_len }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::assert_engine_correct;
    use crate::engine::ScalarEngine;
    use crispr_guides::Pam;

    #[test]
    fn matches_oracle_k0() {
        assert_engine_correct(&BitParallelEngine::new(), 21, 0);
    }

    #[test]
    fn matches_oracle_k3() {
        assert_engine_correct(&BitParallelEngine::new(), 22, 3);
    }

    #[test]
    fn matches_oracle_k5() {
        assert_engine_correct(&BitParallelEngine::new(), 23, 5);
    }

    #[test]
    fn pam_mismatch_never_paid_from_budget() {
        // Site with perfect spacer but broken PAM must not appear even at
        // high budget.
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = crispr_genome::Genome::from_seq(
            "TTTTGATTACAGATTACAGATTACTTTAAAA".parse().unwrap(), // PAM = TTT
        );
        let pure = BitParallelEngine::new();
        for engine in [&pure as &dyn Engine, &crate::Accelerated::new(pure)] {
            let hits = engine.search(&genome, std::slice::from_ref(&guide), 6).unwrap();
            assert!(hits.iter().all(|h| h.pos != 4 || h.strand == crispr_genome::Strand::Reverse));
        }
    }

    #[test]
    fn sites_longer_than_64_are_rejected() {
        let guide = Guide::new("g", "A".repeat(70).parse().unwrap(), Pam::ngg()).unwrap();
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        assert!(matches!(
            BitParallelEngine::new().search(&genome, &[guide], 1),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn agrees_with_scalar_on_adversarial_tandem_repeats() {
        use crispr_genome::synth::{RepeatFamily, SynthSpec};
        let genome = SynthSpec::new(20_000)
            .seed(9)
            .repeat_family(RepeatFamily { unit_len: 23, copies: 200, divergence: 0.08 })
            .generate();
        let guides = crispr_guides::genset::guides_from_genome(&genome, 4, 20, &Pam::ngg(), 10);
        assert!(!guides.is_empty());
        let pure = BitParallelEngine::new();
        for k in [1, 3] {
            let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
            for engine in [&pure as &dyn Engine, &crate::Accelerated::new(pure)] {
                assert_eq!(engine.search(&genome, &guides, k).unwrap(), truth, "k={k}");
            }
        }
    }
}
