//! Batched multi-guide scanning: one shared seed automaton serves the
//! whole guide set in a single pass over the genome.
//!
//! The per-guide engines pay anchor-and-verify work per pattern at every
//! PAM-anchored window, so kernel time grows linearly with guide count —
//! the opposite of the paper's AP model, where thousands of guide
//! automata consume one streamed genome together. This module restores
//! that shape on the CPU with a three-stage cascade:
//!
//! 1. **Shared seed automaton.** Each pattern's counted (spacer) run is
//!    split into `k + 1` pigeonhole fragments (a window within `k`
//!    mismatches must match at least one fragment *exactly* — the
//!    pigeonhole principle of exact-seed filtration tools). The
//!    fragments of *every* pattern are compiled together into one
//!    multi-pattern exact matcher. Because fragments of one length form
//!    an Aho–Corasick automaton whose every state is at depth `< len`,
//!    the matcher collapses to a rolling 2-bit register
//!    ([`crispr_genome::kmer::QGramRoller`]) plus a transition-indexed
//!    fragment table — the dense-DFA specialization of Aho–Corasick for
//!    equal-length patterns. One pass over the slice drives all guides'
//!    fragments at once; cost per symbol is one register update and one
//!    table probe per distinct fragment length (at most a few), plus one
//!    visit per matching fragment occurrence.
//! 2. **PAM-anchor intersection.** Every seed match proposes a
//!    `(pattern, window start)` pair; the pair survives only if the
//!    window also passes the pattern's PAM-anchor signature, tested as
//!    one bit of the shared [`crispr_genome::pamindex::CandidateMask`]
//!    (computed once per slice per signature group, exactly as in
//!    [`crate::prefilter`]).
//! 3. **Packed verification.** Survivors go to the same single-XOR
//!    packed Hamming verifier the prefiltered engines use; the anchor
//!    already proved the PAM, so `Some(mm ≤ k)` is exactly a hit.
//!
//! A streaming per-pattern window dedup (64-bit mask of recent window
//! offsets) collapses the multiple seed fragments that rediscover one
//! site — without it, overlap windows yield duplicate raw hits and
//! double-counted verifier work. Results are byte-identical to every
//! other engine; `multiseed_candidates` / `multiseed_positions` meter
//! the seed stage and the `guides_per_candidate` derived gauge reports
//! its fan-in.

use crate::engine::AnchorGroup;
use crate::prefilter::PackedPattern;
use crate::simd::{self, SimdBackend};
use crate::EngineError;
use crispr_genome::kmer::{pack_qgram, QGramRoller};
use crispr_genome::pamindex::CandidateMask;
use crispr_genome::{Base, PackedSeq};
use crispr_guides::{Guide, Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::collections::HashMap;
use std::time::Instant;

/// Largest fragment length tabulated as a dense transition table
/// (`4^len` slots); longer fragments fall back to a hashed code lookup.
const DIRECT_LEN_MAX: usize = 10;

/// One compiled fragment occurrence: the pattern it belongs to and the
/// distance from the fragment's last base back to the site start
/// (`site_start = end + 1 - back`).
#[derive(Debug, Clone, Copy)]
struct SeedEntry {
    pattern: u32,
    back: u32,
}

/// Code → entry-range resolution for one fragment length.
#[derive(Debug)]
enum SeedLookup {
    /// CSR offsets over all `4^len` codes.
    Direct(Vec<u32>),
    /// Sparse `code → (start, end)` ranges for large code spaces.
    Hashed(HashMap<u64, (u32, u32)>),
}

/// All fragments of one length, resolvable per rolling code.
#[derive(Debug)]
struct SeedTable {
    len: usize,
    lookup: SeedLookup,
    entries: Vec<SeedEntry>,
}

impl SeedTable {
    #[inline]
    fn entries_for(&self, code: u64) -> &[SeedEntry] {
        match &self.lookup {
            SeedLookup::Direct(offsets) => {
                let i = code as usize;
                &self.entries[offsets[i] as usize..offsets[i + 1] as usize]
            }
            SeedLookup::Hashed(map) => {
                map.get(&code).map_or(&[], |&(a, b)| &self.entries[a as usize..b as usize])
            }
        }
    }
}

/// Streaming dedup of `(window start)` sightings along one left-to-right
/// scan: a 64-bit mask of starts relative to the latest seed end. Works
/// because a fragment's end trails its window start by at most
/// `site_len ≤ 64` bases, so a repeated sighting always lands within the
/// mask's horizon.
#[derive(Debug, Clone, Copy, Default)]
struct RecentWindows {
    last_end: u64,
    mask: u64,
}

impl RecentWindows {
    /// Returns true exactly once per distinct window start, feeding
    /// sightings in non-decreasing `end` order with `rel = end - start`
    /// (strictly below 64).
    #[inline]
    fn first_sight(&mut self, end: u64, rel: u32) -> bool {
        let delta = end - self.last_end;
        if delta > 0 {
            self.mask = if delta >= 64 { 0 } else { self.mask << delta };
            self.last_end = end;
        }
        let bit = 1u64 << rel;
        let fresh = self.mask & bit == 0;
        self.mask |= bit;
        fresh
    }
}

/// The compiled batched deployment for one pattern set: the shared seed
/// automaton, the anchor groups it intersects with, and one packed
/// verifier per pattern. Built once, scans any number of slices; the
/// scan behind [`crate::Accelerated::batched`].
#[derive(Debug)]
pub struct MultiSeedScan {
    /// One table per distinct fragment length (at most two for evenly
    /// segmented spacers).
    tables: Vec<SeedTable>,
    /// `(scanner, member pattern indices)` per PAM-anchor signature.
    groups: Vec<AnchorGroup>,
    /// Pattern index → its group's index.
    group_of: Vec<u32>,
    /// Packed verifiers indexed like the pattern list.
    verifiers: Vec<PackedPattern>,
    site_len: usize,
    k: usize,
    /// Total fragment occurrences compiled in.
    seeds_total: usize,
    /// Accepting states of the shared automaton: distinct fragment codes.
    states: usize,
    /// Summed per-group anchor hit rate (the `anchor_rate` gauge value).
    rate: f64,
    /// The kernel backend resolved at build time. `Scalar` runs the
    /// original rolling-register loop; anything else runs the blocked
    /// seed screen when every table is dense ([`SeedLookup::Direct`]).
    backend: SimdBackend,
}

/// Register-local counter accumulators for one `scan_slice` call, flushed
/// into [`SearchMetrics`] once at the end — a read-modify-write through
/// the metrics struct per candidate costs measurably at high guide
/// counts. Shared by the scalar and screened scan paths so their counter
/// events are identical by construction.
#[derive(Default)]
struct ScanTallies {
    candidates: u64,
    positions: u64,
    pam_tested: u64,
    verified: u64,
    early: u64,
}

impl MultiSeedScan {
    /// Compiles the batched deployment for `patterns` at budget `k`, or
    /// `None` when batching does not apply and the caller should fall
    /// back to its per-guide path: a pattern is unanchorable
    /// (`Pam::none()`) or does not lower to the packed compare, an
    /// anchor falls outside the window, the site exceeds 64 bases (the
    /// dedup-mask horizon), or the pigeonhole split is infeasible
    /// (fewer counted bases than `k + 1` segments, or a fragment longer
    /// than the 32-base q-gram limit).
    pub fn build(patterns: &[SitePattern], site_len: usize, k: usize) -> Option<MultiSeedScan> {
        MultiSeedScan::build_with(patterns, site_len, k, simd::resolve(None))
    }

    /// [`MultiSeedScan::build`] with an explicit kernel backend — the
    /// entry point for engines that resolve dispatch once per `prepare()`
    /// and share the choice across their compiled stages.
    pub fn build_with(
        patterns: &[SitePattern],
        site_len: usize,
        k: usize,
        backend: SimdBackend,
    ) -> Option<MultiSeedScan> {
        if patterns.is_empty() || site_len > 64 {
            return None;
        }
        let verifiers: Vec<PackedPattern> =
            patterns.iter().map(PackedPattern::new).collect::<Option<_>>()?;
        // Unlike the per-guide prefilter there is no maximum-rate cutoff:
        // the seed automaton is the primary filter and the anchor mask
        // only prunes its matches, so it pays at any PAM density.
        let groups = crate::engine::anchor_groups(patterns, f64::INFINITY)?;
        if groups.iter().any(|(scanner, _)| scanner.span() > site_len) {
            return None;
        }
        let mut group_of = vec![0u32; patterns.len()];
        for (gi, (_, members)) in groups.iter().enumerate() {
            for &pi in members {
                group_of[pi] = gi as u32;
            }
        }

        // Pigeonhole split: k+1 near-equal fragments of each pattern's
        // counted run, bucketed by fragment length.
        let mut by_len: Vec<(usize, Vec<(u64, SeedEntry)>)> = Vec::new();
        for (pi, pattern) in patterns.iter().enumerate() {
            let counted: Vec<(usize, Base)> = pattern
                .positions()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.counted)
                .map(|(i, p)| (i, p.class.bases().next().expect("spacer bases are concrete")))
                .collect();
            let n = counted.len();
            let segments = k + 1;
            if n < segments {
                return None;
            }
            for s in 0..segments {
                let lo = s * n / segments;
                let hi = (s + 1) * n / segments;
                let len = hi - lo;
                if len > 32 {
                    return None;
                }
                let bases: Vec<Base> = counted[lo..hi].iter().map(|&(_, b)| b).collect();
                let qgram = pack_qgram(&bases);
                let entry = SeedEntry { pattern: pi as u32, back: (len + counted[lo].0) as u32 };
                match by_len.iter_mut().find(|(l, _)| *l == len) {
                    Some((_, frags)) => frags.push((qgram, entry)),
                    None => by_len.push((len, vec![(qgram, entry)])),
                }
            }
        }

        let mut tables = Vec::with_capacity(by_len.len());
        let mut seeds_total = 0usize;
        let mut states = 0usize;
        for (len, mut frags) in by_len {
            frags.sort_unstable_by_key(|&(q, e)| (q, e.pattern, e.back));
            seeds_total += frags.len();
            states += frags.windows(2).filter(|w| w[0].0 != w[1].0).count()
                + usize::from(!frags.is_empty());
            let entries: Vec<SeedEntry> = frags.iter().map(|&(_, e)| e).collect();
            let lookup = if len <= DIRECT_LEN_MAX {
                let slots = 1usize << (2 * len);
                let mut offsets = vec![0u32; slots + 1];
                for &(q, _) in &frags {
                    offsets[q as usize + 1] += 1;
                }
                for i in 1..offsets.len() {
                    offsets[i] += offsets[i - 1];
                }
                SeedLookup::Direct(offsets)
            } else {
                let mut map: HashMap<u64, (u32, u32)> = HashMap::new();
                let mut i = 0;
                while i < frags.len() {
                    let code = frags[i].0;
                    let mut j = i + 1;
                    while j < frags.len() && frags[j].0 == code {
                        j += 1;
                    }
                    map.insert(code, (i as u32, j as u32));
                    i = j;
                }
                SeedLookup::Hashed(map)
            };
            tables.push(SeedTable { len, lookup, entries });
        }

        let rate = crate::engine::anchor_rate(&groups);
        Some(MultiSeedScan {
            tables,
            groups,
            group_of,
            verifiers,
            site_len,
            k,
            seeds_total,
            states,
            rate,
            backend,
        })
    }

    /// Compiles the deployment from a guide set the way the engines do
    /// (both-strand patterns, validated uniform site length).
    ///
    /// # Errors
    ///
    /// Guide-set validation failures ([`crispr_guides::GuideError`]);
    /// `Ok(None)` means the set is valid but not batchable (see
    /// [`MultiSeedScan::build`]).
    pub fn from_guides(guides: &[Guide], k: usize) -> Result<Option<MultiSeedScan>, EngineError> {
        let site_len = crate::engine::validate_guides(guides, k)?;
        let patterns = crate::engine::patterns(guides);
        Ok(MultiSeedScan::build(&patterns, site_len, k))
    }

    /// Uniform site length of the compiled pattern set.
    pub fn site_len(&self) -> usize {
        self.site_len
    }

    /// Mismatch budget the pigeonhole split was compiled for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total fragment occurrences compiled into the automaton.
    pub fn seeds(&self) -> usize {
        self.seeds_total
    }

    /// Accepting states of the shared automaton (distinct fragment
    /// codes across all lengths).
    pub fn states(&self) -> usize {
        self.states
    }

    /// Summed per-group PAM-anchor hit rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The kernel backend this deployment dispatches to.
    pub fn backend(&self) -> SimdBackend {
        self.backend
    }

    /// Enumerates the seed stage alone: every distinct in-bounds
    /// `(pattern index, window start)` pair whose window fires at least
    /// one of the pattern's fragments, sorted. This is the raw automaton
    /// output *before* the anchor intersection and verification — the
    /// surface the pigeonhole property tests probe.
    pub fn seed_candidates(&self, seq: &[Base]) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        if seq.len() < self.site_len {
            return out;
        }
        self.for_each_seed_match(seq, |pattern, start| out.push((pattern, start)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Drives the seed automaton over `seq`, invoking `sink` for every
    /// in-bounds fragment match (duplicates included).
    #[inline]
    fn for_each_seed_match(&self, seq: &[Base], mut sink: impl FnMut(u32, usize)) {
        let mut rollers: Vec<QGramRoller> =
            self.tables.iter().map(|t| QGramRoller::new(t.len)).collect();
        for (end, &base) in seq.iter().enumerate() {
            for (table, roller) in self.tables.iter().zip(&mut rollers) {
                let code = roller.push(base);
                if end + 1 < table.len {
                    continue;
                }
                for entry in table.entries_for(code) {
                    let back = entry.back as usize;
                    if end + 1 < back {
                        continue;
                    }
                    let start = end + 1 - back;
                    if start + self.site_len > seq.len() {
                        continue;
                    }
                    sink(entry.pattern, start);
                }
            }
        }
    }

    /// Scans one slice through the full cascade, appending slice-relative
    /// hits. Counter semantics relative to the per-guide anchored scan on
    /// the same slice: `windows_scanned` is identical,
    /// `candidates_verified` is identical (both count exactly the hits),
    /// `pam_anchors_tested` and `early_exits` count a *subset* of the
    /// per-guide events (only windows the seed automaton proposed), and
    /// `multiseed_candidates` / `multiseed_positions` meter the seed
    /// stage itself.
    pub(crate) fn scan_slice(&self, seq: &[Base], out: &mut Vec<Hit>, m: &mut SearchMetrics) {
        if seq.len() < self.site_len {
            return;
        }
        let load_start = Instant::now();
        let packed = PackedSeq::from_bases(seq);
        m.phases.genome_load_s += load_start.elapsed().as_secs_f64();

        let scan_start = Instant::now();
        m.counters.windows_scanned += (seq.len() + 1 - self.site_len) as u64;
        let masks: Vec<CandidateMask> = self
            .groups
            .iter()
            .map(|(scanner, _)| {
                if self.backend == SimdBackend::Scalar {
                    scanner.candidates(&packed, self.site_len)
                } else {
                    scanner.candidates_blocked(&packed, self.site_len)
                }
            })
            .collect();
        // Per-pattern streaming dedup: without it, a site matching two of
        // a pattern's fragments is verified and emitted twice (the
        // chunk-overlap duplicate class the batched regression tests pin
        // down).
        let mut seen = vec![RecentWindows::default(); self.verifiers.len()];
        let mut any_seen = RecentWindows::default();
        let mut tallies = ScanTallies::default();
        let screened = self.backend != SimdBackend::Scalar
            && self.tables.iter().all(|t| matches!(t.lookup, SeedLookup::Direct(_)));
        if screened {
            self.scan_screened(seq, &packed, &masks, &mut seen, &mut any_seen, &mut tallies, out);
        } else {
            self.scan_rolling(seq, &packed, &masks, &mut seen, &mut any_seen, &mut tallies, out);
        }
        m.counters.multiseed_candidates += tallies.candidates;
        m.counters.multiseed_positions += tallies.positions;
        m.counters.pam_anchors_tested += tallies.pam_tested;
        m.counters.candidates_verified += tallies.verified;
        m.counters.early_exits += tallies.early;
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
    }

    /// The original scalar seed loop: one rolling register per table, one
    /// table probe per symbol per table.
    #[allow(clippy::too_many_arguments)]
    fn scan_rolling(
        &self,
        seq: &[Base],
        packed: &PackedSeq,
        masks: &[CandidateMask],
        seen: &mut [RecentWindows],
        any_seen: &mut RecentWindows,
        tallies: &mut ScanTallies,
        out: &mut Vec<Hit>,
    ) {
        let mut rollers: Vec<QGramRoller> =
            self.tables.iter().map(|t| QGramRoller::new(t.len)).collect();
        for (end, &base) in seq.iter().enumerate() {
            for (table, roller) in self.tables.iter().zip(&mut rollers) {
                let code = roller.push(base);
                if end + 1 < table.len {
                    continue;
                }
                self.visit_entries(
                    table, code, end, seq, packed, masks, seen, any_seen, tallies, out,
                );
            }
        }
    }

    /// The blocked seed loop: stage (c) of the SIMD cascade. Per table,
    /// a vector of q-gram registers is materialised 32 window codes at a
    /// time and screened against the dense offset table for emptiness
    /// ([`simd::direct_seed_bitmap`]); the per-table fire bitmaps are
    /// merged into one end-indexed union, and only symbol positions where
    /// some fragment actually fires reach the entry walk. The walk visits
    /// `(end, table)` pairs in exactly the scalar order — ends ascending,
    /// tables in index order — which the [`RecentWindows`] dedup requires,
    /// and skipped visits are precisely those with an empty entry range,
    /// which touch no state in the scalar loop either. On random DNA at
    /// seed length 5, ~5 of 6 positions never reach the walk.
    #[allow(clippy::too_many_arguments)]
    fn scan_screened(
        &self,
        seq: &[Base],
        packed: &PackedSeq,
        masks: &[CandidateMask],
        seen: &mut [RecentWindows],
        any_seen: &mut RecentWindows,
        tallies: &mut ScanTallies,
        out: &mut Vec<Hit>,
    ) {
        let mut merged = vec![0u64; seq.len().div_ceil(64)];
        let mut fires: Vec<Vec<u64>> = Vec::with_capacity(self.tables.len());
        for table in &self.tables {
            let q = table.len;
            if seq.len() < q {
                fires.push(Vec::new());
                continue;
            }
            let n_starts = seq.len() + 1 - q;
            let mut bits = vec![0u64; n_starts.div_ceil(64)];
            let SeedLookup::Direct(offsets) = &table.lookup else {
                unreachable!("screened path requires direct tables")
            };
            simd::direct_seed_bitmap(self.backend, packed, n_starts, q, offsets, &mut bits);
            // Start-indexed fires become end-indexed: end = start + q − 1.
            simd::or_shifted_left(&mut merged, &bits, q - 1);
            fires.push(bits);
        }
        for (wi, &mword) in merged.iter().enumerate() {
            let mut rem = mword;
            while rem != 0 {
                let end = wi * 64 + rem.trailing_zeros() as usize;
                rem &= rem - 1;
                for (ti, table) in self.tables.iter().enumerate() {
                    let q = table.len;
                    if end + 1 < q {
                        continue;
                    }
                    let start = end + 1 - q;
                    let bits = &fires[ti];
                    if bits.is_empty() || bits[start / 64] >> (start % 64) & 1 == 0 {
                        continue;
                    }
                    let code = packed.window_word(start, q);
                    self.visit_entries(
                        table, code, end, seq, packed, masks, seen, any_seen, tallies, out,
                    );
                }
            }
        }
    }

    /// Walks one `(table, code, end)` probe — the shared tail of both scan
    /// paths, so counter events, dedup-state updates, and emitted hits are
    /// identical by construction.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn visit_entries(
        &self,
        table: &SeedTable,
        code: u64,
        end: usize,
        seq: &[Base],
        packed: &PackedSeq,
        masks: &[CandidateMask],
        seen: &mut [RecentWindows],
        any_seen: &mut RecentWindows,
        tallies: &mut ScanTallies,
        out: &mut Vec<Hit>,
    ) {
        for entry in table.entries_for(code) {
            let back = entry.back as usize;
            if end + 1 < back {
                continue;
            }
            let start = end + 1 - back;
            if start + self.site_len > seq.len() {
                continue;
            }
            tallies.candidates += 1;
            let rel = (end - start) as u32;
            if any_seen.first_sight(end as u64, rel) {
                tallies.positions += 1;
            }
            let pattern = entry.pattern as usize;
            // Anchor intersection first: a two-load bit test that
            // rejects most candidates, so the per-pattern dedup
            // state is only touched for windows that can still
            // verify. The filters commute — the same distinct
            // (pattern, window) pairs survive in either order —
            // so `pam_anchors_tested` is unchanged.
            if !masks[self.group_of[pattern] as usize].contains(start) {
                continue;
            }
            if !seen[pattern].first_sight(end as u64, rel) {
                continue;
            }
            tallies.pam_tested += 1;
            let verifier = &self.verifiers[pattern];
            match verifier.verify(packed.view(), start, self.k) {
                Some(mm) => {
                    tallies.verified += 1;
                    out.push(Hit {
                        contig: 0,
                        pos: start as u64,
                        guide: verifier.guide_index(),
                        strand: verifier.strand(),
                        mismatches: mm as u8,
                    });
                }
                None => tallies.early += 1,
            }
        }
    }
}

/// [`crate::PreparedSearch`] wrapper over a [`MultiSeedScan`] — the
/// stage [`crate::Accelerated::batched`] deploys when the guide set
/// admits the shared seed automaton.
#[derive(Debug)]
pub(crate) struct MultiSeedPrepared {
    scan: MultiSeedScan,
}

impl MultiSeedPrepared {
    pub(crate) fn new(scan: MultiSeedScan) -> MultiSeedPrepared {
        MultiSeedPrepared { scan }
    }
}

impl crate::engine::PreparedSearch for MultiSeedPrepared {
    fn site_len(&self) -> usize {
        self.scan.site_len
    }

    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:multiseed");
        self.scan.scan_slice(seq, out, m);
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.set_gauge("anchor_rate", self.scan.rate);
        m.set_gauge("seed_automaton_states", self.scan.states as f64);
        m.set_gauge("multiseed_seeds", self.scan.seeds_total as f64);
        m.set_gauge("simd_backend", self.scan.backend.gauge());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{patterns, ScalarEngine};
    use crate::Engine;
    use crispr_guides::{Pam, SitePattern};

    fn guides(pam: Pam) -> Vec<Guide> {
        vec![
            Guide::new("a", "GATTACAGATTACAGATTAC".parse().unwrap(), pam.clone()).unwrap(),
            Guide::new("b", "ACGTACGTACGTACGTACGT".parse().unwrap(), pam).unwrap(),
        ]
    }

    #[test]
    fn builds_for_real_pams_and_counts_seeds() {
        for k in [0usize, 1, 2, 3] {
            let scan = MultiSeedScan::from_guides(&guides(Pam::ngg()), k)
                .unwrap()
                .unwrap_or_else(|| panic!("k={k} should batch"));
            // 2 guides × 2 strands × (k+1) fragments.
            assert_eq!(scan.seeds(), 4 * (k + 1), "k={k}");
            assert!(scan.states() >= 1 && scan.states() <= scan.seeds());
            assert!((scan.rate() - 0.125).abs() < 1e-12);
            assert_eq!(scan.site_len(), 23);
            assert_eq!(scan.k(), k);
        }
    }

    #[test]
    fn pamless_and_infeasible_sets_fall_back() {
        assert!(MultiSeedScan::from_guides(&guides(Pam::none()), 1).unwrap().is_none());
        // A budget at or above the spacer length is rejected outright by
        // validation before batching is even considered.
        let short = vec![Guide::new("s", "ACGT".parse().unwrap(), Pam::ngg()).unwrap()];
        assert!(matches!(
            MultiSeedScan::from_guides(&short, 5),
            Err(crate::EngineError::Guide(crispr_guides::GuideError::BudgetExceedsSpacer {
                k: 5,
                spacer_len: 4
            }))
        ));
        // 40-base spacer at k=0 needs one 40-base fragment (> 32).
        let long = vec![Guide::new("l", "ACGT".repeat(10).parse().unwrap(), Pam::ngg()).unwrap()];
        assert!(MultiSeedScan::from_guides(&long, 0).unwrap().is_none());
    }

    #[test]
    fn seed_candidates_cover_an_exact_site() {
        let guide_set = guides(Pam::ngg());
        let scan = MultiSeedScan::from_guides(&guide_set, 2).unwrap().unwrap();
        let text: crispr_genome::DnaSeq = "TTTTGATTACAGATTACAGATTACTGGAAAA".parse().unwrap();
        let cands = scan.seed_candidates(text.as_slice());
        // Pattern 0 is guide a's forward pattern; its site starts at 4.
        assert!(cands.contains(&(0, 4)), "{cands:?}");
        // No out-of-bounds starts.
        assert!(cands.iter().all(|&(_, s)| s + scan.site_len() <= text.len()));
    }

    #[test]
    fn scan_matches_scalar_oracle_on_planted_workload() {
        let (genome, guide_set, _) = crate::engine::test_support::planted_workload(301, 3);
        let truth = ScalarEngine::new().search(&genome, &guide_set, 3).unwrap();
        let scan = MultiSeedScan::from_guides(&guide_set, 3).unwrap().unwrap();
        let prepared = MultiSeedPrepared::new(scan);
        let mut m = SearchMetrics::default();
        let one = crate::ScanDeployment::new(1);
        let hits = crate::run_scan(&prepared, (&genome).into(), &one, &mut m).unwrap();
        assert_eq!(hits, truth);
        assert!(m.counters.multiseed_candidates >= m.counters.multiseed_positions);
        assert!(m.counters.multiseed_positions > 0);
        assert!(m.gauge("guides_per_candidate").unwrap() >= 1.0);
    }

    #[test]
    fn streaming_dedup_is_exact() {
        // A window matching a pattern everywhere fires all its fragments,
        // yet each (pattern, start) must be emitted exactly once per hit.
        let g = vec![Guide::new("g", "AAAAAAAAAAAAAAAAAAAA".parse().unwrap(), Pam::ngg()).unwrap()];
        let scan = MultiSeedScan::from_guides(&g, 3).unwrap().unwrap();
        let text: crispr_genome::DnaSeq =
            format!("{}AGG{}", "A".repeat(20), "A".repeat(10)).parse().unwrap();
        let mut m = SearchMetrics::default();
        let mut hits = Vec::new();
        scan.scan_slice(text.as_slice(), &mut hits, &mut m);
        // Every fragment of the all-A pattern fires at the planted site,
        // so candidates exceed verified pairs …
        assert!(m.counters.multiseed_candidates > m.counters.candidates_verified);
        // … but each (pos, guide, strand) appears at most once.
        let mut keys: Vec<_> = hits.iter().map(|h| (h.pos, h.guide, h.strand)).collect();
        keys.sort_unstable();
        let deduped = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), deduped, "duplicate raw hits slipped through: {hits:?}");
        assert_eq!(m.counters.candidates_verified, hits.len() as u64);
    }

    #[test]
    fn recent_windows_dedup_horizon() {
        let mut seen = RecentWindows::default();
        assert!(seen.first_sight(5, 2));
        assert!(!seen.first_sight(5, 2));
        // Same start revisited from a later end: rel grows by the delta.
        assert!(!seen.first_sight(8, 5));
        assert!(seen.first_sight(8, 2));
        // A jump beyond the horizon clears the mask without overflowing.
        assert!(seen.first_sight(500, 2));
    }

    #[test]
    fn fragment_backs_map_ends_to_site_starts() {
        // Reverse-strand NGG patterns carry their counted run at offsets
        // 3..23; fragment backs must account for that.
        let g = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap();
        let pats = patterns(std::slice::from_ref(&g));
        let scan = MultiSeedScan::build(&pats, 23, 1).unwrap();
        let site: crispr_genome::DnaSeq = "GATTACAGATTACAGATTACAGG".parse().unwrap();
        let mut text: crispr_genome::DnaSeq = "CCCC".parse().unwrap();
        text.extend_from_seq(&site.revcomp());
        text.extend_from_seq(&"AAAA".parse().unwrap());
        let cands = scan.seed_candidates(text.as_slice());
        // Pattern 1 is the reverse-strand pattern; its site starts at 4.
        assert!(cands.contains(&(1, 4)), "{cands:?}");
    }

    #[test]
    fn hashed_lookup_handles_long_fragments() {
        // 24-base spacer at k=0 → one 24-base fragment, beyond the dense
        // table limit.
        let g =
            vec![Guide::new("g", "GATTACAGATTACAGATTACGATT".parse().unwrap(), Pam::ngg()).unwrap()];
        let scan = MultiSeedScan::from_guides(&g, 0).unwrap().unwrap();
        assert!(scan.tables.iter().any(|t| matches!(t.lookup, SeedLookup::Hashed(_))));
        let genome = crispr_genome::Genome::from_seq(
            format!("TTTT{}TGGAAAA", "GATTACAGATTACAGATTACGATT").parse().unwrap(),
        );
        let truth = ScalarEngine::new().search(&genome, &g, 0).unwrap();
        let prepared = MultiSeedPrepared::new(scan);
        let one = crate::ScanDeployment::new(1);
        let hits =
            crate::run_scan(&prepared, (&genome).into(), &one, &mut SearchMetrics::default())
                .unwrap();
        assert_eq!(hits, truth);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn site_pattern_entrypoint_rejects_oversized_sites() {
        let g = Guide::new("g", "A".repeat(70).parse().unwrap(), Pam::ngg()).unwrap();
        let pats: Vec<SitePattern> = patterns(std::slice::from_ref(&g));
        assert!(MultiSeedScan::build(&pats, pats[0].len(), 1).is_none());
    }
}
