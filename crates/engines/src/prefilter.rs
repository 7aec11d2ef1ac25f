//! The shared PAM-anchor prefilter deployment: anchor with
//! [`crispr_genome::pamindex`], verify candidates on the 2-bit packing.
//!
//! Every CPU engine whose patterns carry a selective PAM can trade its
//! full per-window scan for anchor-and-verify: one linear bitwise pass
//! marks the windows whose PAM positions match
//! ([`crispr_genome::pamindex::AnchorScanner`]), and
//! only those — ~1/16 of positions for `NGG`, both strands together ~1/8
//! — reach a packed XOR/popcount spacer comparison. The filter is
//! *PAM-exact*: a window passes the anchor iff its PAM matches, because
//! the anchor signature contains every uncounted position with degeneracy
//! < 4 and the remaining uncounted positions (`N`) match any base. The
//! prefiltered scan therefore produces byte-identical hits to the full
//! scan it replaces, and `pam_anchors_tested` counts the same events
//! either way — which is what lets the existing counters meter filter
//! efficiency directly.

use crate::engine::AnchorGroup;
use crate::simd::{self, SimdBackend};
use crispr_genome::pamindex::{AnchorScanner, CandidateMask, MaskView};
use crispr_genome::{hamming_lanes, Base, PackedSeq, PackedView, Strand};
use crispr_guides::{Hit, SitePattern};
use crispr_model::SearchMetrics;
use std::time::Instant;

/// One pattern lowered to the packed-verify form: the concrete spacer run
/// as a [`PackedSeq`] plus its offset within the site. PAM positions are
/// *absent* — the anchor already proved them.
#[derive(Debug)]
pub(crate) struct PackedPattern {
    spacer: PackedSeq,
    spacer_offset: usize,
    /// The whole spacer as one right-aligned 2-bit word when it fits 32
    /// bases (every real guide does) — the one-XOR verify fast path.
    word: Option<u64>,
    guide_index: u32,
    strand: Strand,
}

impl PackedPattern {
    /// Lowers `pattern`, or `None` when the packed compare does not apply:
    /// the counted run is non-contiguous or contains a degenerate class.
    /// Real guide patterns (concrete spacer, IUPAC PAM) always lower.
    pub(crate) fn new(pattern: &SitePattern) -> Option<PackedPattern> {
        let mut bases = Vec::new();
        let mut spacer_offset = None;
        for (i, pos) in pattern.positions().iter().enumerate() {
            if !pos.counted {
                continue;
            }
            let offset = *spacer_offset.get_or_insert(i);
            if i != offset + bases.len() || pos.class.degeneracy() != 1 {
                return None;
            }
            bases.push(pos.class.bases().next().expect("degeneracy 1 has a base"));
        }
        let spacer = PackedSeq::from_bases(&bases);
        let word = (bases.len() <= 32).then(|| spacer.window_word(0, bases.len()));
        Some(PackedPattern {
            spacer,
            spacer_offset: spacer_offset?,
            word,
            guide_index: pattern.guide_index(),
            strand: pattern.strand(),
        })
    }

    /// Index of the originating guide within its set.
    pub(crate) fn guide_index(&self) -> u32 {
        self.guide_index
    }

    /// Strand this pattern represents.
    pub(crate) fn strand(&self) -> Strand {
        self.strand
    }

    /// Verifies the window at `start` of `packed` (PAM positions assumed
    /// already proven by an anchor pass): `Some(mm)` with the exact spacer
    /// mismatch count when `mm ≤ k`, `None` past the budget. Single-XOR
    /// fast path when the spacer fits one 2-bit word.
    #[inline]
    pub(crate) fn verify(&self, packed: PackedView<'_>, start: usize, k: usize) -> Option<usize> {
        match self.word {
            Some(word) => {
                let window = packed.window_word(start + self.spacer_offset, self.spacer.len());
                let mm = word_mismatches(window, word) as usize;
                (mm <= k).then_some(mm)
            }
            None => packed.count_mismatches(&self.spacer, start + self.spacer_offset, k),
        }
    }
}

/// Mismatched bases between two right-aligned 2-bit words of equal
/// length: the one-lane [`hamming_lanes`].
#[inline]
fn word_mismatches(window: u64, word: u64) -> u32 {
    hamming_lanes(&[window], word)[0]
}

/// Signature-grouped anchor scanners for `patterns` plus their summed hit
/// rate, or `None` when anchoring does not apply (unanchorable pattern,
/// rate above [`crate::engine::ANCHOR_MAX_RATE`], or an anchor outside
/// the window). The common planning step for every prefiltered engine;
/// engines with bespoke verifiers (CasOT's seed split) consume the plan
/// directly instead of through [`AnchoredScan`].
pub(crate) fn anchor_plan(
    patterns: &[SitePattern],
    site_len: usize,
) -> Option<(Vec<AnchorGroup>, f64)> {
    let groups = crate::engine::anchor_groups(patterns, crate::engine::ANCHOR_MAX_RATE)?;
    if groups.iter().any(|(scanner, _)| scanner.span() > site_len) {
        return None;
    }
    let rate = crate::engine::anchor_rate(&groups);
    Some((groups, rate))
}

/// A compiled anchor-and-verify deployment for one pattern set: anchor
/// scanners grouped by PAM signature, plus one packed verifier per
/// pattern. Built once at [`crate::Engine::prepare`] time, scanned against
/// any number of slices.
#[derive(Debug)]
pub(crate) struct AnchoredScan {
    /// `(scanner, member pattern indices)` per distinct anchor signature.
    groups: Vec<AnchorGroup>,
    /// Verifiers indexed like the pattern list the groups refer into.
    verifiers: Vec<PackedPattern>,
    site_len: usize,
    /// Summed per-group anchor hit rate — the `anchor_rate` gauge value.
    rate: f64,
    /// The kernel backend resolved at build time.
    backend: SimdBackend,
    /// Per group: the blocked-verify form when it applies (all members
    /// lower to one word over the same spacer window — true for real guide
    /// sets, where a group shares one PAM signature).
    blocked: Vec<Option<BlockedGroup>>,
}

/// One anchor group lowered for the fused verify kernel
/// ([`simd::within_budget`]).
#[derive(Debug)]
struct BlockedGroup {
    /// Spacer start within the site, shared by every member.
    offset: usize,
    /// Spacer length in bases, shared by every member.
    len: usize,
    /// Every member's spacer word, in member order: the contiguous list
    /// the kernel walks against each block of candidate windows.
    words: Vec<u64>,
}

impl AnchoredScan {
    /// Compiles the deployment, or `None` when prefiltering does not
    /// apply: some pattern is unanchorable (`Pam::none()`), the combined
    /// candidate rate exceeds [`crate::engine::ANCHOR_MAX_RATE`] (full
    /// scan is cheaper), an anchor falls outside the window, or a pattern
    /// does not lower to the packed compare.
    pub fn build(
        patterns: &[SitePattern],
        site_len: usize,
        backend: SimdBackend,
    ) -> Option<AnchoredScan> {
        let (groups, rate) = anchor_plan(patterns, site_len)?;
        let verifiers = patterns.iter().map(PackedPattern::new).collect::<Option<Vec<_>>>()?;
        let blocked = groups
            .iter()
            .map(|(_, members)| {
                let first = &verifiers[members[0]];
                let (offset, len) = (first.spacer_offset, first.spacer.len());
                let words = members
                    .iter()
                    .map(|&pi| {
                        let v = &verifiers[pi];
                        v.word.filter(|_| (v.spacer_offset, v.spacer.len()) == (offset, len))
                    })
                    .collect::<Option<Vec<u64>>>()?;
                Some(BlockedGroup { offset, len, words })
            })
            .collect();
        Some(AnchoredScan { groups, verifiers, site_len, rate, backend, blocked })
    }

    /// Summed anchor hit rate across groups.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The kernel backend this deployment dispatches to.
    pub fn backend(&self) -> SimdBackend {
        self.backend
    }

    /// Scans one slice: pack (`genome_load_s`), anchor + verify
    /// (`kernel_scan_s`), appending slice-relative hits. Counter semantics
    /// match the unfiltered brute-force scan: `windows_scanned` counts all
    /// windows, `pam_anchors_tested` counts `(window, pattern)` PAM
    /// passes, and verification outcomes land in `candidates_verified` /
    /// `early_exits`.
    pub fn scan_slice(&self, seq: &[Base], k: usize, out: &mut Vec<Hit>, m: &mut SearchMetrics) {
        if seq.len() < self.site_len {
            return;
        }
        let load_start = Instant::now();
        let packed = PackedSeq::from_bases(seq);
        m.phases.genome_load_s += load_start.elapsed().as_secs_f64();

        let site_len = self.site_len;
        self.scan_groups(packed.view(), k, out, m, |scanner, blocked| {
            if blocked {
                scanner.candidates_blocked(&packed, site_len)
            } else {
                scanner.candidates(&packed, site_len)
            }
        });
    }

    /// The packed fast path of [`AnchoredScan::scan_slice`]: the slice
    /// arrives already 2-bit packed with its per-base anchor bitmaps,
    /// borrowed from an on-disk index, so the packing pass, the
    /// per-class mask derivation *and* any copy are skipped — the anchor
    /// intersection runs straight off the stored bitmaps
    /// ([`crispr_genome::pamindex::AnchorScanner::candidates_from`]) and
    /// verify reads the stored words. Hits and counter events are
    /// identical to `scan_slice` on the unpacked content.
    pub fn scan_packed(
        &self,
        packed: PackedView<'_>,
        masks: MaskView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        if packed.len() < self.site_len {
            return;
        }
        let site_len = self.site_len;
        self.scan_groups(packed, k, out, m, |scanner, blocked| {
            if blocked {
                scanner.candidates_from_blocked(masks, site_len)
            } else {
                scanner.candidates_from(masks, site_len)
            }
        });
    }

    /// Anchors and verifies every group over one packed slice
    /// (`kernel_scan_s`). `anchor` builds a group's candidate mask, in
    /// block form when the backend is not `Scalar`; the verify then runs
    /// the fused blocked kernel when the group lowers to it, else the
    /// one-candidate-at-a-time loop.
    fn scan_groups(
        &self,
        packed: PackedView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
        anchor: impl Fn(&AnchorScanner, bool) -> CandidateMask,
    ) {
        let scan_start = Instant::now();
        m.counters.windows_scanned += (packed.len() + 1 - self.site_len) as u64;
        let blocked = self.backend != SimdBackend::Scalar;
        for ((scanner, members), group) in self.groups.iter().zip(&self.blocked) {
            let mask = {
                let _anchor = crispr_trace::span("kernel:anchor");
                anchor(scanner, blocked)
            };
            let _verify = crispr_trace::span("kernel:verify");
            match group {
                Some(group) if blocked => {
                    self.scan_group_blocked(members, group, &mask, packed, k, out, m)
                }
                _ => self.scan_group_scalar(members, &mask, packed, k, out, m),
            }
        }
        m.phases.kernel_scan_s += scan_start.elapsed().as_secs_f64();
    }

    /// The original one-candidate-at-a-time verify loop.
    fn scan_group_scalar(
        &self,
        members: &[usize],
        mask: &CandidateMask,
        packed: PackedView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        for start in mask {
            // Group members share a PAM signature, hence a spacer
            // offset and length: extract the window word once per
            // candidate and XOR it against each member's spacer word.
            let mut cached = (usize::MAX, 0usize);
            let mut window = 0u64;
            for &pi in members {
                m.counters.pam_anchors_tested += 1;
                let v = &self.verifiers[pi];
                let verdict = match v.word {
                    Some(word) => {
                        let key = (start + v.spacer_offset, v.spacer.len());
                        if key != cached {
                            window = packed.window_word(key.0, key.1);
                            cached = key;
                        }
                        let mm = word_mismatches(window, word) as usize;
                        (mm <= k).then_some(mm)
                    }
                    None => packed.count_mismatches(&v.spacer, start + v.spacer_offset, k),
                };
                match verdict {
                    Some(mm) => {
                        m.counters.candidates_verified += 1;
                        out.push(Hit {
                            contig: 0,
                            pos: start as u64,
                            guide: v.guide_index,
                            strand: v.strand,
                            mismatches: mm as u8,
                        });
                    }
                    None => m.counters.early_exits += 1,
                }
            }
        }
    }

    /// Blocked verify: walk the candidate mask in [`simd::BLOCK`]-sized
    /// runs, pull each run's window words at once, and hand the block and
    /// the group's whole spacer-word list to the fused kernel
    /// ([`simd::within_budget`]), which reports only `(member, lane mask)`
    /// pairs with a hit. Padded tail lanes are masked off here, and the
    /// exact mismatch count is recomputed only for hit lanes. Counter
    /// events and emitted hits are identical to the scalar loop — only
    /// the iteration shape changes (member-major within a block instead
    /// of start-major), and hit order is re-normalized by the caller's
    /// report phase.
    #[allow(clippy::too_many_arguments)]
    fn scan_group_blocked(
        &self,
        members: &[usize],
        group: &BlockedGroup,
        mask: &CandidateMask,
        packed: PackedView<'_>,
        k: usize,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) {
        let mut tested = 0u64;
        let mut verified = 0u64;
        let mut lane_hits = Vec::new();
        let mut candidates = mask.iter();
        loop {
            let mut starts = [0usize; simd::BLOCK];
            let mut filled = 0;
            for (slot, start) in starts.iter_mut().zip(&mut candidates) {
                *slot = start + group.offset;
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            // A short tail run repeats its last start; the surplus lanes
            // are computed and masked off.
            let last = starts[filled - 1];
            starts[filled..].fill(last);
            let valid = ((1u16 << filled) - 1) as u8;
            let windows = packed.window_words(&starts, group.len);
            lane_hits.clear();
            simd::within_budget(self.backend, &windows, &group.words, k, &mut lane_hits);
            tested += (filled * members.len()) as u64;
            for &(i, lanes) in &lane_hits {
                let v = &self.verifiers[members[i as usize]];
                let word = group.words[i as usize];
                let mut lanes = lanes & valid;
                while lanes != 0 {
                    let j = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    let mm = word_mismatches(windows[j], word);
                    verified += 1;
                    out.push(Hit {
                        contig: 0,
                        pos: (starts[j] - group.offset) as u64,
                        guide: v.guide_index,
                        strand: v.strand,
                        mismatches: mm as u8,
                    });
                }
            }
        }
        m.counters.pam_anchors_tested += tested;
        m.counters.candidates_verified += verified;
        m.counters.early_exits += tested - verified;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::patterns;
    use crispr_genome::pamindex::BaseMasks;
    use crispr_genome::DnaSeq;
    use crispr_guides::{Guide, Pam};

    fn guide(pam: Pam) -> Guide {
        Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), pam).unwrap()
    }

    #[test]
    fn builds_for_every_real_pam() {
        for (pam, rate) in [
            (Pam::ngg(), 2.0 / 16.0),
            (Pam::nag(), 2.0 / 16.0),
            (Pam::nrg(), 2.0 / 8.0),
            (Pam::nngrrt(), 2.0 / 64.0),
            (Pam::tttv(), 2.0 * (3.0 / 4.0) / 64.0),
        ] {
            let pats = patterns(&[guide(pam.clone())]);
            let scan = AnchoredScan::build(&pats, pats[0].len(), SimdBackend::Scalar)
                .unwrap_or_else(|| panic!("{pam:?} should anchor"));
            assert!((scan.rate() - rate).abs() < 1e-12, "{pam:?}");
        }
    }

    #[test]
    fn pamless_patterns_do_not_build() {
        let pats = patterns(&[guide(Pam::none())]);
        assert!(AnchoredScan::build(&pats, pats[0].len(), SimdBackend::Scalar).is_none());
    }

    #[test]
    fn packed_scan_matches_slice_scan_on_every_backend() {
        let pats = patterns(&[guide(Pam::ngg())]);
        let site_len = pats[0].len();
        let text: crispr_genome::DnaSeq =
            "TTTTGATTACAGATTACAGATTACTGGAAAAGATTACAGATTACAGATCACAGGCCACGTACGTAGG".parse().unwrap();
        let packed = PackedSeq::from_bases(text.as_slice());
        let masks = BaseMasks::build(&packed);
        for backend in SimdBackend::ALL {
            if !backend.available() {
                continue;
            }
            let scan = AnchoredScan::build(&pats, site_len, backend).unwrap();
            let mut slice_m = SearchMetrics::default();
            let mut slice_hits = Vec::new();
            scan.scan_slice(text.as_slice(), 2, &mut slice_hits, &mut slice_m);
            let mut packed_m = SearchMetrics::default();
            let mut packed_hits = Vec::new();
            scan.scan_packed(packed.view(), masks.view(), 2, &mut packed_hits, &mut packed_m);
            assert_eq!(packed_hits, slice_hits, "backend {}", backend.name());
            assert_eq!(packed_m.counters, slice_m.counters, "backend {}", backend.name());
        }
    }

    /// `spacer` with `count` distinct positions changed to another base.
    fn mutated(spacer: &DnaSeq, count: usize, state: &mut u64) -> DnaSeq {
        let mut bases = spacer.as_slice().to_vec();
        let mut changed = vec![false; bases.len()];
        let mut left = count;
        while left > 0 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let pos = (*state % bases.len() as u64) as usize;
            if !changed[pos] {
                changed[pos] = true;
                let shift = 1 + (*state >> 32) % 3;
                bases[pos] = Base::from_code((bases[pos].code() + shift as u8) % 4);
                left -= 1;
            }
        }
        DnaSeq::from_bases(bases)
    }

    #[test]
    fn many_guides_dense_hits_and_block_tails_match_scalar_on_every_backend() {
        let spacer: DnaSeq = "GATTACAGCTTACAGATCAC".parse().unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // 256 guides within 3 mismatches of one spacer: both strand
        // groups have 256 members, and every planted site hits many.
        let guides: Vec<Guide> = (0..256)
            .map(|i| {
                let spacer = mutated(&spacer, i % 4, &mut state);
                Guide::new(format!("g{i}"), spacer, Pam::ngg()).unwrap()
            })
            .collect();
        let pats = patterns(&guides);
        let site_len = pats[0].len();
        let k = 4;

        // A repeat-rich genome of planted sites (forward `spacer·AGG` or
        // reverse `CCT·revcomp(spacer)`, 0–2 mismatches) between short AT
        // fillers. Each prefix ending on a site puts that site on the
        // last candidate start of its strand's group.
        let mut genome = DnaSeq::new();
        let mut prefixes = Vec::new();
        for unit in 0..48usize {
            let filler: DnaSeq = "ATTA"[..1 + unit % 4].parse().unwrap();
            genome.extend_from_seq(&filler);
            let site = mutated(&spacer, unit % 3, &mut state);
            if unit % 3 == 2 {
                genome.extend_from_seq(&"CCT".parse().unwrap());
                genome.extend_from_seq(&site.revcomp());
            } else {
                genome.extend_from_seq(&site);
                genome.extend_from_seq(&"AGG".parse().unwrap());
            }
            prefixes.push(genome.len());
        }

        let scalar = AnchoredScan::build(&pats, site_len, SimdBackend::Scalar).unwrap();
        let mut residues = std::collections::BTreeSet::new();
        for &len in &prefixes {
            let seq = &genome.as_slice()[..len];
            let packed = PackedSeq::from_bases(seq);
            let masks = BaseMasks::build(&packed);
            let candidates: Vec<usize> = scalar
                .groups
                .iter()
                .map(|(scanner, _)| scanner.candidates(&packed, site_len).count())
                .collect();
            residues.extend(candidates.iter().map(|c| c % 8));
            let tested: usize =
                scalar.groups.iter().zip(&candidates).map(|((_, mem), c)| c * mem.len()).sum();

            let mut want = Vec::new();
            scalar.scan_slice(seq, k, &mut want, &mut SearchMetrics::default());
            let key = |h: &Hit| (h.pos, h.guide, h.strand, h.mismatches);
            let mut want: Vec<_> = want.iter().map(key).collect();
            want.sort_unstable();
            let last = (len - site_len) as u64;
            assert!(want.iter().any(|h| h.0 == last), "prefix {len}: no hit on the last start");

            for backend in SimdBackend::ALL {
                if !backend.available() {
                    continue;
                }
                let scan = AnchoredScan::build(&pats, site_len, backend).unwrap();
                let mut slice_m = SearchMetrics::default();
                let mut slice_hits = Vec::new();
                scan.scan_slice(seq, k, &mut slice_hits, &mut slice_m);
                let mut packed_m = SearchMetrics::default();
                let mut packed_hits = Vec::new();
                scan.scan_packed(packed.view(), masks.view(), k, &mut packed_hits, &mut packed_m);
                for (hits, m, path) in
                    [(&slice_hits, &slice_m, "slice"), (&packed_hits, &packed_m, "packed")]
                {
                    let what = format!("backend {} {path} prefix {len}", backend.name());
                    let mut got: Vec<_> = hits.iter().map(key).collect();
                    got.sort_unstable();
                    let mut unique = got.clone();
                    unique.dedup_by_key(|h| (h.0, h.1, h.2));
                    assert_eq!(unique.len(), got.len(), "{what}: a hit emitted twice");
                    assert_eq!(got, want, "{what}");
                    let c = &m.counters;
                    assert_eq!(c.pam_anchors_tested, tested as u64, "{what}");
                    assert_eq!(c.early_exits + c.candidates_verified, c.pam_anchors_tested);
                    assert_eq!(c.candidates_verified, want.len() as u64, "{what}");
                }
            }
        }
        assert!((1..=7).all(|r| residues.contains(&r)), "candidate residues {residues:?}");
    }

    #[test]
    fn anchored_scan_matches_brute_force_on_every_backend() {
        let pats = patterns(&[guide(Pam::ngg())]);
        let site_len = pats[0].len();
        let text: crispr_genome::DnaSeq =
            "TTTTGATTACAGATTACAGATTACTGGAAAAGATTACAGATTACAGATCACAGGCC".parse().unwrap();
        let k = 2;

        let mut want = Vec::new();
        for start in 0..=text.len() - site_len {
            for p in &pats {
                if let Some(mm) = p.score_window(&text.as_slice()[start..start + site_len]) {
                    if mm <= k {
                        want.push((start as u64, p.guide_index(), p.strand(), mm as u8));
                    }
                }
            }
        }
        want.sort_unstable();

        let mut reference: Option<crispr_model::EngineCounters> = None;
        for backend in SimdBackend::ALL {
            if !backend.available() {
                continue;
            }
            let scan = AnchoredScan::build(&pats, site_len, backend).unwrap();
            assert_eq!(scan.backend(), backend);
            let mut m = SearchMetrics::default();
            let mut got = Vec::new();
            scan.scan_slice(text.as_slice(), k, &mut got, &mut m);
            let mut got_keys: Vec<_> =
                got.iter().map(|h| (h.pos, h.guide, h.strand, h.mismatches)).collect();
            got_keys.sort_unstable();
            assert_eq!(got_keys, want, "backend {}", backend.name());
            assert!(m.counters.pam_anchors_tested > 0);
            assert!(m.counters.windows_scanned >= m.counters.pam_anchors_tested);
            // Counter identity across backends: same events, any lane shape.
            match reference {
                None => reference = Some(m.counters),
                Some(expect) => {
                    assert_eq!(m.counters, expect, "counters diverged on {}", backend.name())
                }
            }
        }
    }
}
