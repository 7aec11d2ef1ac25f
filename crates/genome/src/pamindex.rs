//! PAM-anchor prefiltering: one linear pass over a 2-bit packed slice
//! that yields a bitmask of candidate site starts.
//!
//! Off-target sites are anchored by their PAM: only ~1/16 of genome
//! positions carry an `NGG`, yet a full scan pays per-pattern work at
//! *every* position. An [`AnchorScanner`] holds the selective anchor
//! positions of one pattern class — e.g. forward-strand `NGG` requires
//! `G` at site offsets 21 and 22 — and intersects per-class position
//! bitmaps ([`crate::PackedSeq::match_mask`]) shifted by each anchor
//! offset. The result is a [`CandidateMask`] whose set bits are exactly
//! the window starts where every anchor position matches; engines verify
//! only those. This is the pre-alignment-filter shape of GateKeeper-class
//! tools: a cheap bitwise pass in front of an expensive verifier.
//!
//! ```
//! use crispr_genome::pamindex::AnchorScanner;
//! use crispr_genome::{IupacCode, PackedSeq};
//!
//! // Forward-strand NGG on a 23-base site: G at offsets 21 and 22.
//! let g = IupacCode::from_ascii(b'G').unwrap();
//! let scanner = AnchorScanner::new(vec![(21, g), (22, g)]).unwrap();
//! let text: crispr_genome::DnaSeq =
//!     "ACGTACGTACGTACGTACGTAGGACGTACGTACGTACGTACGTACGG".parse()?;
//! let candidates = scanner.candidates(&PackedSeq::from_seq(&text), 23);
//! // Two anchored windows: the planted AGG at 21 and the trailing CGG.
//! assert_eq!(candidates.iter().collect::<Vec<_>>(), vec![0, 24]);
//! # Ok::<(), crispr_genome::GenomeError>(())
//! ```

use crate::{Base, IupacCode, PackedSeq};
use std::borrow::Cow;

/// The four concrete-base position bitmaps of one sequence — the exact
/// per-base masks [`PackedSeq::match_mask`] is built from, precomputed
/// and stored so an on-disk index can hand them back without touching
/// the packed bases. Any IUPAC class mask is the OR of its member base
/// masks ([`MaskView::class_mask`]), bit for bit what `match_mask`
/// would have produced, which is what lets an index-fed anchor pass
/// yield byte-identical candidates to a FASTA-fed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseMasks {
    /// One bitmap per base in [`Base::ALL`] order; bit `p % 64` of word
    /// `p / 64` is set iff position `p` holds that base.
    masks: [Vec<u64>; 4],
    len: usize,
}

impl BaseMasks {
    /// Computes the four bitmaps of `packed` — one
    /// [`PackedSeq::match_mask`] pass per concrete base.
    pub fn build(packed: &PackedSeq) -> BaseMasks {
        let masks = Base::ALL.map(|b| packed.match_mask(IupacCode::from_base(b)));
        BaseMasks { masks, len: packed.len() }
    }

    /// Reassembles from raw bitmap words (A, C, G, T order) — the
    /// deserialization entry point. Bits beyond `len` in each last word
    /// are cleared so stored tail garbage cannot leak spurious anchor
    /// matches. Returns `None` when any bitmap's word count does not
    /// match `len`.
    pub fn from_raw_parts(mut masks: [Vec<u64>; 4], len: usize) -> Option<BaseMasks> {
        let words = len.div_ceil(64);
        if masks.iter().any(|m| m.len() != words) {
            return None;
        }
        if !len.is_multiple_of(64) {
            for mask in &mut masks {
                if let Some(last) = mask.last_mut() {
                    *last &= (1u64 << (len % 64)) - 1;
                }
            }
        }
        Some(BaseMasks { masks, len })
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the masks cover an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The position bitmap of one concrete base.
    pub fn mask(&self, base: Base) -> &[u64] {
        &self.masks[base.code() as usize]
    }

    /// The four bitmaps as a borrowed [`MaskView`].
    pub fn view(&self) -> MaskView<'_> {
        MaskView { masks: [0, 1, 2, 3].map(|b| self.masks[b].as_slice()), len: self.len }
    }
}

/// Borrowed per-base position bitmaps: four word slices in [`BaseMasks`]
/// layout (A, C, G, T) plus a length — the anchor input of an on-disk
/// index chunk, read where the index bytes lie.
///
/// Bits of the last word past `len` may hold anything (in the middle of
/// an index contig, the next chunk's bases). The anchor intersection
/// reads only positions a window inside `len` covers and clears the
/// candidate bits past its limit, so they never become candidates;
/// [`MaskView::to_masks`] clears them.
#[derive(Debug, Clone, Copy)]
pub struct MaskView<'a> {
    masks: [&'a [u64]; 4],
    len: usize,
}

impl<'a> MaskView<'a> {
    /// Views the bitmaps of `len` positions.
    ///
    /// # Panics
    ///
    /// Panics if any bitmap is not exactly `⌈len/64⌉` words long.
    pub fn new(masks: [&'a [u64]; 4], len: usize) -> MaskView<'a> {
        let words = len.div_ceil(64);
        assert!(masks.iter().all(|m| m.len() == words), "{len} positions need {words} mask words");
        MaskView { masks, len }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The position bitmap of one concrete base.
    pub fn mask(&self, base: Base) -> &'a [u64] {
        self.masks[base.code() as usize]
    }

    /// The position bitmap of an IUPAC class: the OR of its member base
    /// bitmaps, equal to [`PackedSeq::match_mask`] on the same sequence
    /// at every position below `len`. A one-base class is the stored
    /// bitmap itself, borrowed; only a degenerate class allocates.
    pub fn class_mask(&self, class: IupacCode) -> Cow<'a, [u64]> {
        if class.degeneracy() == 1 {
            return Cow::Borrowed(
                self.mask(class.bases().next().expect("degeneracy 1 has a base")),
            );
        }
        let mut out = vec![0u64; self.len.div_ceil(64)];
        for base in class.bases() {
            for (slot, &word) in out.iter_mut().zip(self.mask(base)) {
                *slot |= word;
            }
        }
        Cow::Owned(out)
    }

    /// An owned copy with the bits past `len` cleared.
    pub fn to_masks(&self) -> BaseMasks {
        BaseMasks::from_raw_parts(self.masks.map(<[u64]>::to_vec), self.len)
            .expect("word counts checked at new")
    }
}

/// The selective anchor positions of one pattern class: `(site offset,
/// accepted bases)` pairs that a window must satisfy to be a candidate.
#[derive(Debug, Clone)]
pub struct AnchorScanner {
    /// Anchor pairs sorted by offset.
    pairs: Vec<(usize, IupacCode)>,
    /// Distinct classes among the pairs (mask computed once per class).
    classes: Vec<IupacCode>,
    /// One past the largest anchored offset.
    span: usize,
}

impl AnchorScanner {
    /// Builds a scanner from anchor pairs. Returns `None` when there is
    /// nothing to anchor on — no pairs at all, or a pair whose class
    /// accepts no base (the scan would be degenerate either way).
    pub fn new(mut pairs: Vec<(usize, IupacCode)>) -> Option<AnchorScanner> {
        if pairs.is_empty() || pairs.iter().any(|&(_, c)| c.degeneracy() == 0) {
            return None;
        }
        pairs.sort_by_key(|&(offset, _)| offset);
        let span = pairs.last().expect("non-empty").0 + 1;
        let mut classes: Vec<IupacCode> = Vec::new();
        for &(_, class) in &pairs {
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
        Some(AnchorScanner { pairs, classes, span })
    }

    /// The anchor pairs, sorted by offset.
    pub fn pairs(&self) -> &[(usize, IupacCode)] {
        &self.pairs
    }

    /// One past the largest anchored offset — the minimum window length
    /// this scanner can filter for.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Expected fraction of random positions passing all anchors —
    /// `NGG`'s two concrete positions give 1/16, `NRG`'s 1/8.
    pub fn hit_rate(&self) -> f64 {
        self.pairs.iter().map(|&(_, c)| f64::from(c.degeneracy()) / 4.0).product()
    }

    /// Candidate starts in `packed`: positions where a `window`-length
    /// site fits and every anchor position matches its class.
    ///
    /// # Panics
    ///
    /// Panics if `window < self.span()` (an anchor would fall outside the
    /// window).
    pub fn candidates(&self, packed: &PackedSeq, window: usize) -> CandidateMask {
        self.intersect(packed.len(), window, |c| Cow::Owned(packed.match_mask(c)))
    }

    /// [`AnchorScanner::candidates`] fed from precomputed per-base
    /// bitmaps instead of the packed bases — the path an on-disk index
    /// takes. Identical output: both passes intersect the same class
    /// masks ([`MaskView::class_mask`] ≡ [`PackedSeq::match_mask`] below
    /// `len`), and one-base classes are read in place.
    ///
    /// # Panics
    ///
    /// Panics if `window < self.span()`.
    pub fn candidates_from(&self, masks: MaskView<'_>, window: usize) -> CandidateMask {
        self.intersect(masks.len(), window, |c| masks.class_mask(c))
    }

    fn intersect<'m>(
        &self,
        len: usize,
        window: usize,
        mask_of: impl Fn(IupacCode) -> Cow<'m, [u64]>,
    ) -> CandidateMask {
        assert!(window >= self.span, "window {window} shorter than anchor span {}", self.span);
        let limit = (len + 1).saturating_sub(window.max(1));
        let words = limit.div_ceil(64);
        if words == 0 {
            return CandidateMask { words: Vec::new(), limit: 0 };
        }
        let class_masks: Vec<(IupacCode, Cow<'m, [u64]>)> =
            self.classes.iter().map(|&c| (c, mask_of(c))).collect();
        let mut acc = vec![u64::MAX; words];
        for &(offset, class) in &self.pairs {
            let mask = &class_masks
                .iter()
                .find(|(c, _)| *c == class)
                .expect("every pair class is cached")
                .1;
            and_shifted(&mut acc, mask, offset);
        }
        if !limit.is_multiple_of(64) {
            *acc.last_mut().expect("words > 0") &= (1u64 << (limit % 64)) - 1;
        }
        CandidateMask { words: acc, limit }
    }

    /// Block form of [`AnchorScanner::candidates`]: identical output, but
    /// the intersection runs 256 bits (four accumulator words) at a time
    /// with a per-block early exit — once a block's accumulator has gone
    /// all-zero, the remaining anchor pairs skip it entirely. On
    /// PAM-sparse genomes most blocks die after the first one or two
    /// pairs, cutting the pass from `pairs × words` toward `words` AND
    /// operations; the fixed four-word block also hands vector units four
    /// independent 64-bit lanes per step with no cross-lane carries.
    pub fn candidates_blocked(&self, packed: &PackedSeq, window: usize) -> CandidateMask {
        self.intersect_blocked(packed.len(), window, |c| Cow::Owned(packed.match_mask(c)))
    }

    /// [`AnchorScanner::candidates_blocked`] fed from precomputed
    /// per-base bitmaps — the index-backed counterpart, identical
    /// output (see [`AnchorScanner::candidates_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `window < self.span()`.
    pub fn candidates_from_blocked(&self, masks: MaskView<'_>, window: usize) -> CandidateMask {
        self.intersect_blocked(masks.len(), window, |c| masks.class_mask(c))
    }

    fn intersect_blocked<'m>(
        &self,
        len: usize,
        window: usize,
        mask_of: impl Fn(IupacCode) -> Cow<'m, [u64]>,
    ) -> CandidateMask {
        assert!(window >= self.span, "window {window} shorter than anchor span {}", self.span);
        let limit = (len + 1).saturating_sub(window.max(1));
        let words = limit.div_ceil(64);
        if words == 0 {
            return CandidateMask { words: Vec::new(), limit: 0 };
        }
        let class_masks: Vec<(IupacCode, Cow<'m, [u64]>)> =
            self.classes.iter().map(|&c| (c, mask_of(c))).collect();
        let mut acc = vec![u64::MAX; words];
        for block in (0..words).step_by(4) {
            let block_end = (block + 4).min(words);
            for &(offset, class) in &self.pairs {
                let mask = &class_masks
                    .iter()
                    .find(|(c, _)| *c == class)
                    .expect("every pair class is cached")
                    .1;
                let word_shift = offset / 64;
                let bit_shift = offset % 64;
                let mut alive = 0u64;
                for (i, word) in acc[block..block_end].iter_mut().enumerate() {
                    let slot = block + i;
                    let lo = mask.get(slot + word_shift).copied().unwrap_or(0) >> bit_shift;
                    let hi = if bit_shift == 0 {
                        0
                    } else {
                        mask.get(slot + word_shift + 1).copied().unwrap_or(0) << (64 - bit_shift)
                    };
                    *word &= lo | hi;
                    alive |= *word;
                }
                if alive == 0 {
                    break;
                }
            }
        }
        if !limit.is_multiple_of(64) {
            *acc.last_mut().expect("words > 0") &= (1u64 << (limit % 64)) - 1;
        }
        CandidateMask { words: acc, limit }
    }
}

/// In-place `acc[p] &= mask[p + offset]` at bit granularity.
fn and_shifted(acc: &mut [u64], mask: &[u64], offset: usize) {
    let word_shift = offset / 64;
    let bit_shift = offset % 64;
    for (i, slot) in acc.iter_mut().enumerate() {
        let lo = mask.get(i + word_shift).copied().unwrap_or(0) >> bit_shift;
        let hi = if bit_shift == 0 {
            0
        } else {
            mask.get(i + word_shift + 1).copied().unwrap_or(0) << (64 - bit_shift)
        };
        *slot &= lo | hi;
    }
}

/// The set of candidate window starts produced by one
/// [`AnchorScanner::candidates`] pass, as a position bitmask.
#[derive(Debug, Clone)]
pub struct CandidateMask {
    words: Vec<u64>,
    limit: usize,
}

impl CandidateMask {
    /// Number of candidate starts.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of valid window starts considered (candidates or not).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Whether `pos` is a candidate start.
    pub fn contains(&self, pos: usize) -> bool {
        pos < self.limit && self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Iterates candidate starts in ascending order.
    pub fn iter(&self) -> Candidates<'_> {
        Candidates { words: &self.words, next_word: 0, current: 0 }
    }
}

impl<'a> IntoIterator for &'a CandidateMask {
    type Item = usize;
    type IntoIter = Candidates<'a>;

    fn into_iter(self) -> Candidates<'a> {
        self.iter()
    }
}

/// Iterator over the set bits of a [`CandidateMask`].
#[derive(Debug)]
pub struct Candidates<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.next_word - 1) * 64 + bit);
            }
            if self.next_word == self.words.len() {
                return None;
            }
            self.current = self.words[self.next_word];
            self.next_word += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Base, DnaSeq};

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn class(letter: u8) -> IupacCode {
        IupacCode::from_ascii(letter).unwrap()
    }

    /// Candidate starts computed the slow way.
    fn scalar_candidates(text: &DnaSeq, pairs: &[(usize, IupacCode)], window: usize) -> Vec<usize> {
        if text.len() < window {
            return Vec::new();
        }
        (0..=text.len() - window)
            .filter(|&start| pairs.iter().all(|&(off, c)| c.matches(text[start + off])))
            .collect()
    }

    #[test]
    fn agrees_with_scalar_on_mixed_content() {
        // Deterministic but irregular content spanning several mask words.
        let mut text = DnaSeq::default();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..700 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            text.push(Base::from_code((state >> 33) as u8));
        }
        let packed = PackedSeq::from_seq(&text);
        let cases: Vec<(Vec<(usize, IupacCode)>, usize)> = vec![
            (vec![(21, class(b'G')), (22, class(b'G'))], 23), // NGG forward
            (vec![(0, class(b'C')), (1, class(b'C'))], 23),   // NGG reverse image
            (vec![(21, class(b'R')), (22, class(b'G'))], 23), // NRG-ish
            (vec![(2, class(b'G')), (3, class(b'R')), (4, class(b'R')), (5, class(b'T'))], 26),
            (vec![(0, class(b'N')), (7, class(b'S'))], 9), // degenerate + N
            (vec![(63, class(b'T')), (64, class(b'A'))], 70), // word-boundary offsets
        ];
        for (pairs, window) in cases {
            let scanner = AnchorScanner::new(pairs.clone()).unwrap();
            let got: Vec<usize> = scanner.candidates(&packed, window).iter().collect();
            assert_eq!(got, scalar_candidates(&text, &pairs, window), "pairs {pairs:?}");
            let blocked: Vec<usize> = scanner.candidates_blocked(&packed, window).iter().collect();
            assert_eq!(blocked, got, "blocked pass diverged for pairs {pairs:?}");
        }
    }

    #[test]
    fn blocked_pass_matches_word_pass_on_all_lengths() {
        // Lengths straddling the 256-bit block boundary and ragged tails;
        // rare anchors so whole blocks actually die early.
        let text = seq(&"ACGTAGGTGATTACCA".repeat(40)); // 640 bases
        let scanner = AnchorScanner::new(vec![(5, class(b'G')), (6, class(b'G'))]).unwrap();
        for len in [0, 7, 8, 63, 64, 255, 256, 257, 300, 511, 512, 513, 640] {
            let prefix = text.subseq(0..len);
            let packed = PackedSeq::from_seq(&prefix);
            let word: Vec<usize> = scanner.candidates(&packed, 8).iter().collect();
            let blocked: Vec<usize> = scanner.candidates_blocked(&packed, 8).iter().collect();
            assert_eq!(blocked, word, "len {len}");
        }
    }

    #[test]
    fn count_limit_and_contains_are_consistent() {
        let text = seq(&"ACGTAGGT".repeat(20)); // 160 bases
        let scanner = AnchorScanner::new(vec![(5, class(b'G')), (6, class(b'G'))]).unwrap();
        let mask = scanner.candidates(&PackedSeq::from_seq(&text), 8);
        assert_eq!(mask.limit(), 153);
        let listed: Vec<usize> = mask.iter().collect();
        assert_eq!(listed.len(), mask.count());
        for &pos in &listed {
            assert!(mask.contains(pos));
        }
        assert!(!mask.contains(mask.limit()));
    }

    #[test]
    fn sequences_shorter_than_one_window_yield_nothing() {
        let scanner = AnchorScanner::new(vec![(21, class(b'G')), (22, class(b'G'))]).unwrap();
        for text in ["", "A", "ACGTACGTACGTACGTACGTAG"] {
            let mask = scanner.candidates(&PackedSeq::from_seq(&seq(text)), 23);
            assert_eq!(mask.count(), 0, "text {text:?}");
            assert_eq!(mask.limit(), 0, "text {text:?}");
        }
    }

    #[test]
    fn hit_rates_match_pam_degeneracy() {
        let ngg = AnchorScanner::new(vec![(21, class(b'G')), (22, class(b'G'))]).unwrap();
        assert!((ngg.hit_rate() - 1.0 / 16.0).abs() < 1e-12);
        let nrg = AnchorScanner::new(vec![(21, class(b'R')), (22, class(b'G'))]).unwrap();
        assert!((nrg.hit_rate() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn unanchorable_inputs_are_rejected() {
        assert!(AnchorScanner::new(Vec::new()).is_none());
        assert!(AnchorScanner::new(vec![(3, IupacCode::NONE)]).is_none());
    }

    #[test]
    fn base_masks_reproduce_match_mask_and_candidates() {
        let text = seq(&"GATTACAGGCCTAGGT".repeat(11)); // 176 bases
        for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 129, 176] {
            let prefix = text.subseq(0..len);
            let packed = PackedSeq::from_seq(&prefix);
            let masks = BaseMasks::build(&packed);
            assert_eq!(masks.len(), len);
            for letter in *b"ACGTRYSWKMBDHVN" {
                let class = IupacCode::from_ascii(letter).unwrap();
                assert_eq!(
                    masks.view().class_mask(class),
                    packed.match_mask(class),
                    "len {len} class {}",
                    letter as char
                );
            }
            if len >= 8 {
                let scanner = AnchorScanner::new(vec![(5, class(b'G')), (6, class(b'G'))]).unwrap();
                let direct: Vec<usize> = scanner.candidates(&packed, 8).iter().collect();
                let from_masks: Vec<usize> =
                    scanner.candidates_from(masks.view(), 8).iter().collect();
                assert_eq!(from_masks, direct, "len {len}");
                let from_masks_blocked: Vec<usize> =
                    scanner.candidates_from_blocked(masks.view(), 8).iter().collect();
                assert_eq!(from_masks_blocked, direct, "blocked, len {len}");
            }
        }
    }

    #[test]
    fn base_masks_raw_parts_canonicalize_tail_bits() {
        let packed = PackedSeq::from_seq(&seq(&"ACGT".repeat(10))); // 40 bases
        let built = BaseMasks::build(&packed);
        let mut raw = [
            built.mask(Base::A).to_vec(),
            built.mask(Base::C).to_vec(),
            built.mask(Base::G).to_vec(),
            built.mask(Base::T).to_vec(),
        ];
        // Pollute bits past position 40; round-trip must scrub them.
        for mask in &mut raw {
            *mask.last_mut().unwrap() |= !0u64 << 40;
        }
        let rebuilt = BaseMasks::from_raw_parts(raw, 40).unwrap();
        assert_eq!(rebuilt, built);
        // Wrong word count is rejected, not mis-read.
        assert!(BaseMasks::from_raw_parts([vec![0; 2], vec![0; 1], vec![0; 1], vec![0; 1]], 40)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "shorter than anchor span")]
    fn window_shorter_than_span_panics() {
        let scanner = AnchorScanner::new(vec![(10, class(b'G'))]).unwrap();
        let _ = scanner.candidates(&PackedSeq::from_seq(&seq("ACGTACGTACGTACGT")), 5);
    }
}
