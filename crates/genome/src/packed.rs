use crate::{Base, DnaSeq, IupacCode};

/// A 2-bit-packed DNA sequence (four bases per byte).
///
/// This is the representation Cas-OFFinder-class brute-force kernels scan:
/// it quarters memory traffic relative to byte-per-base and allows whole
/// 32-base blocks to be compared with one XOR. The packing order is
/// little-endian within a byte: base *i* occupies bits `2*(i%4)` of byte
/// `i/4`.
///
/// ```
/// use crispr_genome::{DnaSeq, PackedSeq};
///
/// let seq: DnaSeq = "ACGTACGTACGT".parse()?;
/// let packed = PackedSeq::from_seq(&seq);
/// assert_eq!(packed.len(), 12);
/// assert_eq!(packed.unpack(), seq);
/// # Ok::<(), crispr_genome::GenomeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

/// Bases per 64-bit word.
const BASES_PER_WORD: usize = 32;

impl PackedSeq {
    /// Creates an empty packed sequence.
    pub fn new() -> PackedSeq {
        PackedSeq::default()
    }

    /// Packs a [`DnaSeq`].
    pub fn from_seq(seq: &DnaSeq) -> PackedSeq {
        PackedSeq::from_bases(seq.as_slice())
    }

    /// Packs a borrowed base slice without an intermediate [`DnaSeq`] —
    /// the entry point for engines that scan borrowed genome slices.
    pub fn from_bases(bases: &[Base]) -> PackedSeq {
        let mut words = Vec::with_capacity(bases.len().div_ceil(BASES_PER_WORD));
        for chunk in bases.chunks(BASES_PER_WORD) {
            let mut word = 0u64;
            for (i, base) in chunk.iter().enumerate() {
                word |= (base.code() as u64) << (2 * i);
            }
            words.push(word);
        }
        PackedSeq { words, len: bases.len() }
    }

    /// Creates an empty packed sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> PackedSeq {
        PackedSeq { words: Vec::with_capacity(capacity.div_ceil(BASES_PER_WORD)), len: 0 }
    }

    /// Reassembles a packed sequence from raw 2-bit words — the
    /// deserialization entry point. Lanes of the last word beyond `len`
    /// are zeroed so equality and hashing stay canonical regardless of
    /// what the source bytes carried there. Returns `None` when the word
    /// count does not match `len` (a corrupt or mis-sliced payload).
    pub fn from_raw_parts(mut words: Vec<u64>, len: usize) -> Option<PackedSeq> {
        if words.len() != len.div_ceil(BASES_PER_WORD) {
            return None;
        }
        let tail = len % BASES_PER_WORD;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (tail * 2)) - 1;
            }
        }
        Some(PackedSeq { words, len })
    }

    /// Number of bases stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bases are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    pub fn push(&mut self, base: Base) {
        let bit = (self.len % BASES_PER_WORD) * 2;
        if bit == 0 {
            self.words.push(0);
        }
        let word = self.words.last_mut().expect("word allocated above");
        *word |= (base.code() as u64) << bit;
        self.len += 1;
    }

    /// The base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        self.view().base(index)
    }

    /// Unpacks back to a [`DnaSeq`].
    pub fn unpack(&self) -> DnaSeq {
        self.view().unpack()
    }

    /// [`PackedView::count_mismatches`] over the whole sequence.
    ///
    /// # Panics
    ///
    /// Panics if `offset + pattern.len() > self.len()`.
    pub fn count_mismatches(
        &self,
        pattern: &PackedSeq,
        offset: usize,
        limit: usize,
    ) -> Option<usize> {
        self.view().count_mismatches(pattern, offset, limit)
    }

    /// Position bitmask of the bases accepted by `class`: bit `p % 64` of
    /// word `p / 64` of the result is set iff `class.matches(self.base(p))`.
    ///
    /// One output word condenses two packed words. Each packed word is
    /// reduced by broadcasting a base code to all 2-bit lanes, XOR-ing,
    /// and detecting zero lanes, then gathering the per-lane bits with an
    /// even-bit compress — about a dozen word operations per 32 bases per
    /// concrete base of the class. This is the linear pass the
    /// [`crate::pamindex`] PAM-anchor prefilter is built on.
    pub fn match_mask(&self, class: IupacCode) -> Vec<u64> {
        let mut out = vec![0u64; self.len.div_ceil(2 * BASES_PER_WORD)];
        for (o, slot) in out.iter_mut().enumerate() {
            let lo = self.words.get(2 * o).copied().unwrap_or(0);
            let hi = self.words.get(2 * o + 1).copied().unwrap_or(0);
            *slot = eq_positions(lo, class) as u64 | ((eq_positions(hi, class) as u64) << 32);
        }
        // Tail lanes of the last packed word are zero (= A) and must not
        // leak spurious matches past the sequence end.
        if !self.len.is_multiple_of(64) {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
        out
    }

    /// [`PackedView::window_word`] over the whole sequence.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` or `index + count > self.len()` (debug
    /// builds; release builds may return garbage instead).
    pub fn window_word(&self, index: usize, count: usize) -> u64 {
        self.view().window_word(index, count)
    }

    /// The raw 2-bit packed storage: base `32·w + i` occupies bits `2i`
    /// of word `w`. SIMD kernels walk this slice directly instead of
    /// paying the per-call bounds logic of [`PackedSeq::window_word`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// [`PackedView::window_words`] over the whole sequence.
    pub fn window_words<const N: usize>(&self, starts: &[usize; N], count: usize) -> [u64; N] {
        self.view().window_words(starts, count)
    }

    /// The whole sequence as a borrowed [`PackedView`].
    #[inline]
    pub fn view(&self) -> PackedView<'_> {
        PackedView { words: &self.words, len: self.len }
    }
}

/// A borrowed run of 2-bit packed bases: a word slice in [`PackedSeq`]
/// layout plus a length — what a scan reads when the bases already sit
/// in memory in packed form (an on-disk index chunk, or an owned
/// [`PackedSeq`] through [`PackedSeq::view`]).
///
/// Lanes of the last word past `len` may hold anything: a view of a
/// contig range in the middle of an index carries the next bases there.
/// No read of the view returns them — every accessor works on windows
/// inside `len`, and [`PackedView::to_packed`] clears them.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> PackedView<'a> {
    /// Views `len` bases stored in `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `⌈len/32⌉` words long.
    pub fn new(words: &'a [u64], len: usize) -> PackedView<'a> {
        assert_eq!(
            words.len(),
            len.div_ceil(BASES_PER_WORD),
            "{len} bases need {} packed words",
            len.div_ceil(BASES_PER_WORD)
        );
        PackedView { words, len }
    }

    /// Number of bases viewed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The borrowed words (lanes past [`PackedView::len`] included).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// An owned copy with the lanes past `len` cleared.
    pub fn to_packed(&self) -> PackedSeq {
        PackedSeq::from_raw_parts(self.words.to_vec(), self.len).expect("word count checked at new")
    }

    /// The base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        assert!(index < self.len, "index {} out of bounds (len {})", index, self.len);
        let word = self.words[index / BASES_PER_WORD];
        Base::from_code((word >> ((index % BASES_PER_WORD) * 2)) as u8)
    }

    /// Unpacks to a [`DnaSeq`].
    pub fn unpack(&self) -> DnaSeq {
        (0..self.len).map(|i| self.base(i)).collect()
    }

    /// Counts mismatches between `pattern` (a short packed sequence) and the
    /// window of the same length starting at `offset` in `self`, stopping
    /// early once the count exceeds `limit`.
    ///
    /// This is the inner loop of the Cas-OFFinder-class brute-force engine:
    /// XOR the 2-bit lanes, OR the two bits of each lane together, popcount.
    /// Early exit on `> limit` is what gives brute force its only
    /// mismatch-budget sensitivity.
    ///
    /// Returns `None` if the count exceeds `limit` (the caller only cares
    /// about budget-respecting sites), otherwise `Some(count)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + pattern.len() > self.len()`.
    pub fn count_mismatches(
        &self,
        pattern: &PackedSeq,
        offset: usize,
        limit: usize,
    ) -> Option<usize> {
        assert!(
            offset + pattern.len() <= self.len,
            "window [{}, {}) out of bounds (len {})",
            offset,
            offset + pattern.len(),
            self.len
        );
        let pattern = pattern.view();
        let mut mismatches = 0usize;
        let mut remaining = pattern.len();
        let mut pat_idx = 0usize;
        while remaining > 0 {
            let take = remaining.min(BASES_PER_WORD);
            let window = self.extract_word(offset + pat_idx, take);
            let pat = pattern.extract_word(pat_idx, take);
            let diff = window ^ pat;
            // Collapse each 2-bit lane to its low bit: lane != 0 ⇔ mismatch.
            let lane_hit = (diff | (diff >> 1)) & 0x5555_5555_5555_5555;
            mismatches += lane_hit.count_ones() as usize;
            if mismatches > limit {
                return None;
            }
            pat_idx += take;
            remaining -= take;
        }
        Some(mismatches)
    }

    /// Extracts `count` bases starting at `index` as a right-aligned
    /// 2-bit-per-base word; lanes beyond `count` are zero. The public
    /// entry point for word-at-a-time verifiers (the PAM-anchor
    /// prefilter compares one extracted window word against many
    /// precomputed spacer words).
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` or `index + count > self.len()` (debug
    /// builds; release builds may return garbage instead).
    #[inline]
    pub fn window_word(&self, index: usize, count: usize) -> u64 {
        self.extract_word(index, count)
    }

    /// Extracts `N` windows of `count` bases in one call: `out[j]` equals
    /// [`PackedView::window_word`]`(starts[j], count)`. Width-generic over
    /// the lane count so a verifier can pull a whole block of candidate
    /// windows before fanning them out to the lane-parallel compare.
    #[inline]
    pub fn window_words<const N: usize>(&self, starts: &[usize; N], count: usize) -> [u64; N] {
        let mut out = [0u64; N];
        for (slot, &start) in out.iter_mut().zip(starts) {
            *slot = self.extract_word(start, count);
        }
        out
    }

    /// Extracts `count ≤ 32` bases starting at `index` as a right-aligned
    /// 2-bit-per-base word; lanes beyond `count` are zero.
    #[inline]
    fn extract_word(&self, index: usize, count: usize) -> u64 {
        debug_assert!(count <= BASES_PER_WORD);
        debug_assert!(index + count <= self.len);
        let word_idx = index / BASES_PER_WORD;
        let bit = (index % BASES_PER_WORD) * 2;
        let mut value = self.words[word_idx] >> bit;
        if bit != 0 && word_idx + 1 < self.words.len() {
            value |= self.words[word_idx + 1] << (64 - bit);
        }
        if count < BASES_PER_WORD {
            value &= (1u64 << (count * 2)) - 1;
        }
        value
    }
}

/// Per-lane spacer mismatch counts: `out[j]` is the Hamming distance
/// between the 2-bit window word `windows[j]` and `pattern`, both
/// right-aligned and equal-length. The width-generic form of the
/// one-word compare inside [`PackedSeq::count_mismatches`] — XOR,
/// collapse each 2-bit lane to its low bit, popcount — written as
/// straight-line per-lane code so vector backends can replace it with
/// one wide XOR/AND/POPCNT sequence.
pub fn hamming_lanes<const N: usize>(windows: &[u64; N], pattern: u64) -> [u32; N] {
    const LOW_LANE_BITS: u64 = 0x5555_5555_5555_5555;
    let mut out = [0u32; N];
    for (slot, &window) in out.iter_mut().zip(windows) {
        let diff = window ^ pattern;
        *slot = ((diff | (diff >> 1)) & LOW_LANE_BITS).count_ones();
    }
    out
}

/// Per-base match positions of one packed word against `class`,
/// compressed to one bit per base: bit `i` of the result is set iff lane
/// `i` of `word` holds a base the class accepts.
fn eq_positions(word: u64, class: IupacCode) -> u32 {
    const LOW_LANE_BITS: u64 = 0x5555_5555_5555_5555;
    let mut lanes = 0u64;
    for base in Base::ALL {
        if class.matches(base) {
            let broadcast = LOW_LANE_BITS.wrapping_mul(base.code() as u64);
            let diff = word ^ broadcast;
            lanes |= !(diff | (diff >> 1)) & LOW_LANE_BITS;
        }
    }
    compress_even_bits(lanes)
}

/// Gathers the even bits of `x` (bit `2i` → bit `i` of the result).
fn compress_even_bits(mut x: u64) -> u32 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

impl From<&DnaSeq> for PackedSeq {
    fn from(seq: &DnaSeq) -> PackedSeq {
        PackedSeq::from_seq(seq)
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> PackedSeq {
        let mut packed = PackedSeq::new();
        for base in iter {
            packed.push(base);
        }
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for s in ["", "A", "ACGT", "GATTACAGATTACAGATTACAGATTACAGATTACAGATTACA"] {
            let original = seq(s);
            assert_eq!(PackedSeq::from_seq(&original).unpack(), original, "seq {s}");
        }
    }

    #[test]
    fn base_access_across_word_boundary() {
        let original = seq(&"ACGT".repeat(20)); // 80 bases, > 2 words
        let packed = PackedSeq::from_seq(&original);
        for i in 0..original.len() {
            assert_eq!(packed.base(i), original[i], "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn base_out_of_bounds_panics() {
        PackedSeq::from_seq(&seq("ACGT")).base(4);
    }

    #[test]
    fn count_mismatches_exact() {
        let genome = PackedSeq::from_seq(&seq("AAAACGTAAAA"));
        let pat = PackedSeq::from_seq(&seq("ACGT"));
        assert_eq!(genome.count_mismatches(&pat, 3, 0), Some(0));
        assert_eq!(genome.count_mismatches(&pat, 0, 4), Some(3)); // AAAA vs ACGT
        assert_eq!(genome.count_mismatches(&pat, 0, 2), None);
    }

    #[test]
    fn count_mismatches_spanning_words() {
        // Pattern of length 40 straddles the 32-base word boundary for
        // offsets 0..8.
        let text = "ACGT".repeat(30);
        let genome = PackedSeq::from_seq(&seq(&text));
        let pat = PackedSeq::from_seq(&seq(&"ACGT".repeat(10)));
        for offset in 0..genome.len() - pat.len() {
            let expected = seq(&text).subseq(offset..offset + 40).hamming_distance(&pat.unpack());
            assert_eq!(
                genome.count_mismatches(&pat, offset, 40),
                Some(expected),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn early_exit_respects_limit() {
        let genome = PackedSeq::from_seq(&seq(&"A".repeat(64)));
        let pat = PackedSeq::from_seq(&seq(&"C".repeat(64)));
        assert_eq!(genome.count_mismatches(&pat, 0, 63), None);
        assert_eq!(genome.count_mismatches(&pat, 0, 64), Some(64));
    }

    #[test]
    fn collect_from_iterator() {
        let packed: PackedSeq = Base::ALL.into_iter().collect();
        assert_eq!(packed.unpack().to_string(), "ACGT");
    }

    #[test]
    fn from_bases_equals_from_seq() {
        let text = seq(&"ACGTGCTA".repeat(17));
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 130] {
            let original = text.subseq(0..len);
            assert_eq!(
                PackedSeq::from_bases(original.as_slice()),
                PackedSeq::from_seq(&original),
                "len {len}"
            );
        }
    }

    #[test]
    fn window_words_matches_window_word() {
        let text = seq(&"ACGTGGTACCTA".repeat(12)); // 144 bases
        let packed = PackedSeq::from_seq(&text);
        for count in [1, 5, 20, 31, 32] {
            let starts = [0, 1, 31, 32, 33, 63, 100, 144 - count];
            let block = packed.window_words(&starts, count);
            for (j, &start) in starts.iter().enumerate() {
                assert_eq!(
                    block[j],
                    packed.window_word(start, count),
                    "start {start} count {count}"
                );
            }
        }
    }

    #[test]
    fn hamming_lanes_matches_count_mismatches() {
        let text = seq(&"GATTACAGGCCTAGGTACGT".repeat(8)); // 160 bases
        let packed = PackedSeq::from_seq(&text);
        let pat_seq = text.subseq(7..27);
        let pat = PackedSeq::from_seq(&pat_seq);
        let pattern = pat.window_word(0, 20);
        let starts = [0, 3, 7, 30, 64, 90, 128, 140];
        let windows = packed.window_words(&starts, 20);
        let counts = hamming_lanes(&windows, pattern);
        for (j, &start) in starts.iter().enumerate() {
            let expected = packed.count_mismatches(&pat, start, 20).unwrap();
            assert_eq!(counts[j] as usize, expected, "start {start}");
        }
    }

    #[test]
    fn match_mask_agrees_with_scalar_matching() {
        // Lengths straddling every word boundary: packed-word (32),
        // mask-word (64), and ragged tails.
        let text = seq(&"GATTACAGGCCTAGGT".repeat(10)); // 160 bases
        for len in [0, 1, 5, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 160] {
            let prefix = text.subseq(0..len);
            let packed = PackedSeq::from_seq(&prefix);
            for letter in *b"ACGTRYSWKMBDHVN" {
                let class = IupacCode::from_ascii(letter).unwrap();
                let mask = packed.match_mask(class);
                assert_eq!(mask.len(), len.div_ceil(64), "len {len}");
                for p in 0..len {
                    let bit = mask[p / 64] >> (p % 64) & 1 == 1;
                    assert_eq!(
                        bit,
                        class.matches(prefix[p]),
                        "len {len} pos {p} class {}",
                        letter as char
                    );
                }
                // No bits past the end.
                if len % 64 != 0 {
                    assert_eq!(mask[len / 64] >> (len % 64), 0, "tail leak at len {len}");
                }
            }
        }
    }
}
