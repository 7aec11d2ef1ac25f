use crate::scan::{run_search, ScanDeployment};
use crate::EngineError;
use crispr_genome::pamindex::{AnchorScanner, BaseMasks};
use crispr_genome::{Base, Genome, IupacCode, PackedSeq, Strand};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use crispr_trace as trace;
use std::time::Instant;

/// The compiled, reusable half of a search: guides × budget lowered to an
/// engine's internal tables, ready to scan any number of genome slices
/// without recompiling.
///
/// [`PreparedSearch::scan_slice`] appends *raw* hits: `contig` is left 0
/// and `pos` is slice-relative; the caller ([`crate::run_scan`]) shifts
/// them by chunk offset, re-bases contig indices, and normalizes.
/// Implementations attribute their own per-slice phases — packing/indexing
/// to `genome_load_s`, scanning to `kernel_scan_s` — and counters; they
/// never touch `guide_compile_s`, which belongs to
/// [`Engine::prepare`] alone. That invariant is what makes compile cost
/// independent of how many slices (chunks, genomes) are scanned.
pub trait PreparedSearch: Send + Sync {
    /// Uniform site length of the compiled guide set.
    fn site_len(&self) -> usize;

    /// Scans one contiguous forward-strand slice, appending raw hits.
    ///
    /// # Errors
    ///
    /// Scan-phase failures only (e.g. a DFA transition-table fault);
    /// guide-set problems are rejected by [`Engine::prepare`].
    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError>;

    /// Scans one slice delivered in index form — already 2-bit packed,
    /// with its per-base anchor bitmaps alongside — appending raw hits
    /// exactly like [`PreparedSearch::scan_slice`] on the same content.
    ///
    /// The default unpacks to bases (charged to `genome_load_s`) and
    /// delegates to `scan_slice`, so every engine accepts indexed input
    /// with identical hits, counters, and gauges by construction.
    /// Engines whose kernels consume the packed form directly override
    /// this to skip the unpack/repack round trip (see the anchored
    /// prefilter deployment).
    ///
    /// # Errors
    ///
    /// Same as [`PreparedSearch::scan_slice`].
    fn scan_packed(
        &self,
        packed: &PackedSeq,
        masks: &BaseMasks,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _ = masks;
        let load_start = Instant::now();
        let bases = packed.unpack();
        m.phases.genome_load_s += load_start.elapsed().as_secs_f64();
        self.scan_slice(bases.as_slice(), out, m)
    }

    /// Records compile-time gauges (automaton state counts, seed counts,
    /// anchor rates) into `m`. Called once per metered search, not per
    /// slice.
    fn record_gauges(&self, _m: &mut SearchMetrics) {}
}

/// A complete off-target search: genome × guides × mismatch budget →
/// normalized hits.
///
/// Implementations must return *identical* hit sets for identical inputs:
/// each hit is a `(contig, pos, guide, strand)` site whose spacer matches
/// with `mismatches ≤ k` and whose PAM is valid, positions being
/// forward-strand leftmost-base coordinates, sorted and deduplicated (see
/// [`crispr_guides::normalize`]).
///
/// The trait is split into a compile phase ([`Engine::prepare`]) and a
/// scan phase ([`PreparedSearch::scan_slice`]); every deployment — thread
/// count, index source, retries, cancellation — goes through
/// [`crate::run_search`]. `search`/`search_metered` are its single-thread
/// shorthand over an in-memory genome.
pub trait Engine {
    /// A short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Compiles `guides` at budget `k` into a reusable [`PreparedSearch`].
    ///
    /// This is the expensive half of a search — pattern tables, register
    /// banks, automata, anchor scanners are all built here, once. The
    /// returned value scans arbitrarily many slices or genomes.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see each engine. All engines reject
    /// invalid guide sets via [`crispr_guides::GuideError`].
    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError>;

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::prepare`], plus scan-phase failures.
    fn search(&self, genome: &Genome, guides: &[Guide], k: usize) -> Result<Vec<Hit>, EngineError> {
        self.search_metered(genome, guides, k, &mut SearchMetrics::default())
    }

    /// Runs the search while filling `metrics` — [`crate::run_search`] on
    /// one thread.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::search`].
    fn search_metered(
        &self,
        genome: &Genome,
        guides: &[Guide],
        k: usize,
        metrics: &mut SearchMetrics,
    ) -> Result<Vec<Hit>, EngineError> {
        run_search(self, guides, k, genome.into(), &ScanDeployment::new(1), metrics)
    }
}

/// Validates a guide set the way the compilers do, returning the uniform
/// site length.
pub(crate) fn validate_guides(guides: &[Guide], k: usize) -> Result<usize, EngineError> {
    if guides.is_empty() {
        return Err(crispr_guides::GuideError::NoGuides.into());
    }
    if k > 30 {
        return Err(crispr_guides::GuideError::BudgetTooLarge(k).into());
    }
    let site_len = guides[0].site_len();
    for g in guides {
        // A budget at or above the spacer length matches every window
        // that carries a valid PAM — reject it as a degenerate request.
        if k >= g.spacer().len() {
            return Err(crispr_guides::GuideError::BudgetExceedsSpacer {
                k,
                spacer_len: g.spacer().len(),
            }
            .into());
        }
        if g.site_len() != site_len {
            return Err(crispr_guides::GuideError::MixedSiteLengths {
                expected: site_len,
                found: g.site_len(),
            }
            .into());
        }
    }
    Ok(site_len)
}

/// Both-strand patterns for a guide set, tagged with guide indices.
pub(crate) fn patterns(guides: &[Guide]) -> Vec<SitePattern> {
    let mut out = Vec::with_capacity(guides.len() * 2);
    for (i, g) in guides.iter().enumerate() {
        for strand in Strand::BOTH {
            out.push(SitePattern::from_guide(g, strand).with_guide_index(i as u32));
        }
    }
    out
}

/// Combined candidate rate above which anchor prefiltering stops paying:
/// past one window in four, the verifier does brute-force-shaped work and
/// the full scan is cheaper.
pub(crate) const ANCHOR_MAX_RATE: f64 = 0.25;

/// One anchor group: the shared scanner plus the indices of the patterns
/// it fronts.
pub(crate) type AnchorGroup = (AnchorScanner, Vec<usize>);

/// Groups `patterns` by PAM-anchor signature — the selective (degeneracy
/// < 4) uncounted positions, which for every real PAM are exactly the
/// positions a window must match outright. All patterns sharing a
/// signature (e.g. every forward-strand `NGG` pattern) share one
/// [`AnchorScanner`]; the per-group member lists index back into
/// `patterns`.
///
/// Returns `None` when prefiltering is inapplicable: some pattern has no
/// selective anchor (`Pam::none()`), or the summed per-group hit rate
/// exceeds `max_rate` and a full scan is cheaper than anchor-and-verify.
pub(crate) fn anchor_groups(patterns: &[SitePattern], max_rate: f64) -> Option<Vec<AnchorGroup>> {
    type Signature = Vec<(usize, IupacCode)>;
    let mut signatures: Vec<(Signature, Vec<usize>)> = Vec::new();
    for (pi, pattern) in patterns.iter().enumerate() {
        let signature: Signature = pattern
            .positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.counted && p.class.degeneracy() < 4)
            .map(|(i, p)| (i, p.class))
            .collect();
        if signature.is_empty() {
            return None;
        }
        match signatures.iter_mut().find(|(s, _)| *s == signature) {
            Some((_, members)) => members.push(pi),
            None => signatures.push((signature, vec![pi])),
        }
    }
    let groups: Vec<AnchorGroup> = signatures
        .into_iter()
        .map(|(signature, members)| {
            (AnchorScanner::new(signature).expect("signature is non-empty"), members)
        })
        .collect();
    let rate: f64 = groups.iter().map(|(scanner, _)| scanner.hit_rate()).sum();
    (rate <= max_rate).then_some(groups)
}

/// Sum of per-group anchor hit rates — the gauge value engines publish as
/// `anchor_rate` when the prefilter is active.
pub(crate) fn anchor_rate(groups: &[AnchorGroup]) -> f64 {
    groups.iter().map(|(scanner, _)| scanner.hit_rate()).sum()
}

/// The ground-truth engine: scores every window of every contig against
/// every pattern with [`SitePattern::score_window`]. O(genome × guides ×
/// site length) — used as the oracle in tests and as the "no algorithmic
/// idea at all" lower bound in ablations. Deliberately unfiltered: the
/// oracle must not share the prefilter whose correctness it vouches for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine {
    _private: (),
}

impl ScalarEngine {
    /// Creates the engine.
    pub fn new() -> ScalarEngine {
        ScalarEngine::default()
    }
}

/// Prepared form of [`ScalarEngine`]: the pattern list, nothing more.
#[derive(Debug)]
struct ScalarPrepared {
    patterns: Vec<SitePattern>,
    site_len: usize,
    k: usize,
}

impl PreparedSearch for ScalarPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        if seq.len() < self.site_len {
            return Ok(());
        }
        let _kernel = trace::span("kernel:scalar");
        let scan_start = Instant::now();
        for start in 0..=seq.len() - self.site_len {
            m.counters.windows_scanned += 1;
            let window = &seq[start..start + self.site_len];
            for pattern in &self.patterns {
                m.counters.candidates_verified += 1;
                if let Some(mm) = pattern.score_window(window) {
                    if mm <= self.k {
                        out.push(Hit {
                            contig: 0,
                            pos: start as u64,
                            guide: pattern.guide_index(),
                            strand: pattern.strand(),
                            mismatches: mm as u8,
                        });
                    }
                }
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl Engine for ScalarEngine {
    fn name(&self) -> &'static str {
        "scalar-reference"
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let site_len = validate_guides(guides, k)?;
        Ok(Box::new(ScalarPrepared { patterns: patterns(guides), site_len, k }))
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crispr_genome::synth::SynthSpec;
    use crispr_guides::genset::{self, PlantPlan};
    use crispr_guides::Pam;

    /// A small planted workload: (genome, guides, expected-subset hits).
    pub fn planted_workload(seed: u64, k: usize) -> (Genome, Vec<Guide>, Vec<Hit>) {
        let genome = SynthSpec::new(30_000).seed(seed).generate();
        let guides = genset::random_guides(3, 20, &Pam::ngg(), seed + 1);
        let (genome, hits) =
            genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(k, 2), seed + 2);
        (genome, guides, hits)
    }

    /// Asserts `engine` equals the scalar oracle on a planted workload and
    /// covers all planted hits with mismatches ≤ k.
    pub fn assert_engine_correct<E: Engine>(engine: &E, seed: u64, k: usize) {
        let (genome, guides, planted) = planted_workload(seed, k);
        let got = engine.search(&genome, &guides, k).unwrap();
        let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
        let (only_got, only_truth) = crispr_guides::diff(&got, &truth);
        assert!(
            only_got.is_empty() && only_truth.is_empty(),
            "{}: spurious {:?}, missing {:?}",
            engine.name(),
            &only_got[..only_got.len().min(5)],
            &only_truth[..only_truth.len().min(5)]
        );
        for hit in planted.iter().filter(|h| (h.mismatches as usize) <= k) {
            assert!(got.binary_search(hit).is_ok(), "{}: planted hit {hit} missing", engine.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::DnaSeq;
    use crispr_guides::Pam;

    fn tiny_genome(text: &str) -> Genome {
        Genome::from_seq(text.parse::<DnaSeq>().unwrap())
    }

    #[test]
    fn scalar_engine_finds_planted_exact_site() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = tiny_genome("TTTTGATTACAGATTACAGATTACTGGAAAA");
        let hits = ScalarEngine::new().search(&genome, &[guide], 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 4);
        assert_eq!(hits[0].strand, Strand::Forward);
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn scalar_engine_finds_reverse_site() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let site: DnaSeq = "GATTACAGATTACAGATTACAGG".parse().unwrap();
        let mut text: DnaSeq = "CCCC".parse().unwrap();
        text.extend_from_seq(&site.revcomp());
        text.extend_from_seq(&"AAAA".parse().unwrap());
        let hits = ScalarEngine::new().search(&Genome::from_seq(text), &[guide], 0).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 4);
        assert_eq!(hits[0].strand, Strand::Reverse);
    }

    #[test]
    fn scalar_engine_respects_budget() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        // Two mismatches in the site.
        let genome = tiny_genome("TTTTGATCACAGATTACAGATTGCTGGAAAA");
        assert!(ScalarEngine::new()
            .search(&genome, std::slice::from_ref(&guide), 1)
            .unwrap()
            .is_empty());
        let hits = ScalarEngine::new().search(&genome, &[guide], 2).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mismatches, 2);
    }

    #[test]
    fn short_contigs_are_skipped() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let genome = tiny_genome("ACGT");
        assert!(ScalarEngine::new().search(&genome, &[guide], 3).unwrap().is_empty());
    }

    #[test]
    fn validation_is_enforced() {
        let genome = tiny_genome("ACGTACGT");
        assert!(matches!(
            ScalarEngine::new().search(&genome, &[], 1),
            Err(EngineError::Guide(crispr_guides::GuideError::NoGuides))
        ));
    }

    #[test]
    fn prepared_search_is_reusable_across_genomes() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let prepared = ScalarEngine::new().prepare(std::slice::from_ref(&guide), 0).unwrap();
        assert_eq!(prepared.site_len(), 23);
        let a = tiny_genome("TTTTGATTACAGATTACAGATTACTGGAAAA");
        let b = tiny_genome("GATTACAGATTACAGATTACAGGCCCC");
        let mut m = SearchMetrics::default();
        let one = ScanDeployment::new(1);
        let hits_a = crate::run_scan(prepared.as_ref(), (&a).into(), &one, &mut m).unwrap();
        let hits_b = crate::run_scan(prepared.as_ref(), (&b).into(), &one, &mut m).unwrap();
        assert_eq!(
            hits_a,
            ScalarEngine::new().search(&a, std::slice::from_ref(&guide), 0).unwrap()
        );
        assert_eq!(hits_b, ScalarEngine::new().search(&b, &[guide], 0).unwrap());
    }

    #[test]
    fn anchor_groups_cover_ngg_both_strands() {
        let guides = vec![
            Guide::new("a", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap(),
            Guide::new("b", "ACGTACGTACGTACGTACGT".parse().unwrap(), Pam::ngg()).unwrap(),
        ];
        let pats = patterns(&guides);
        let groups = anchor_groups(&pats, ANCHOR_MAX_RATE).expect("NGG is anchorable");
        // One forward group, one reverse group, each with both guides.
        assert_eq!(groups.len(), 2);
        let mut members: Vec<usize> = groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
        for (scanner, _) in &groups {
            assert!((scanner.hit_rate() - 1.0 / 16.0).abs() < 1e-12);
            assert_eq!(scanner.pairs().len(), 2);
        }
    }

    #[test]
    fn pamless_guides_are_not_anchorable() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::none()).unwrap();
        assert!(anchor_groups(&patterns(&[guide]), ANCHOR_MAX_RATE).is_none());
    }
}
