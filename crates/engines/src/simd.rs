//! Runtime-dispatched SIMD kernels for the three hot loops of the CPU
//! engines: the fused many-guide window verifier (one block of 8
//! candidate windows held in registers while every guide's spacer word is
//! XORed, counted per lane and compared against the budget, with a branch
//! only on hit lanes), the q-gram seed-table emptiness screen (a
//! vector of rolling registers materialised as 32 window codes per packed
//! word, gathered against the direct CSR offset table), and the 256-bit
//! blocked PAM-bitmap intersection (which lives in
//! [`crispr_genome::pamindex`] as width-generic portable code — profiling
//! shows the compiler already lowers it well, so explicit intrinsics are
//! reserved for the two loops codegen cannot reach: the gather probe and
//! the lane popcount).
//!
//! Backends are selected **once per `prepare()`** via [`resolve`]:
//! an explicit engine override beats the `OFFTARGET_SIMD` environment
//! variable, which beats runtime feature detection
//! (`is_x86_feature_detected!("avx2")` / the aarch64 NEON equivalent).
//! A requested ISA the host lacks degrades to [`SimdBackend::Portable`]
//! rather than crashing, and every resolution emits a `dispatch:simd`
//! trace instant so timelines record which path actually ran.
//!
//! Correctness contract: every kernel here is *exact* — bit-identical
//! output and identical counter events to the scalar path. SIMD changes
//! how many lanes a loop touches per iteration, never what a lane means;
//! the differential-oracle suite runs the same workloads through forced
//! `portable`/`scalar` twins to pin that.

use crispr_genome::kmer::qgram_codes32;
use crispr_genome::{hamming_lanes, PackedSeq};

/// Candidate windows verified per blocked-verifier iteration.
pub(crate) const BLOCK: usize = 8;

/// The instruction set a prepared search's kernels dispatch to.
///
/// `Scalar` reproduces the pre-SIMD code paths exactly (one window per
/// iteration, rolling q-gram registers); the other three run the blocked
/// kernels, differing only in how a block is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// The original one-lane-at-a-time loops; the differential baseline.
    Scalar,
    /// Blocked kernels in plain `u64` code —`u64×4`/`u64×8` loops the
    /// autovectorizer can widen, and the exact fallback semantics the
    /// explicit ISAs must match.
    Portable,
    /// x86_64 AVX2: 256-bit XOR/AND, variable per-lane shifts, 8-byte
    /// gathers against the seed offset table, nibble-LUT popcount.
    Avx2,
    /// aarch64 NEON: detected and reported, but every kernel runs the
    /// portable code — no NEON intrinsics are compiled in.
    Neon,
}

impl SimdBackend {
    /// Every backend, in gauge-code order.
    pub const ALL: [SimdBackend; 4] =
        [SimdBackend::Scalar, SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Neon];

    /// The `OFFTARGET_SIMD` spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }

    /// Stable numeric encoding for the `simd_backend` metrics gauge and
    /// the `dispatch:simd` trace instant: 0 scalar, 1 portable, 2 avx2,
    /// 3 neon.
    pub fn gauge(self) -> f64 {
        match self {
            SimdBackend::Scalar => 0.0,
            SimdBackend::Portable => 1.0,
            SimdBackend::Avx2 => 2.0,
            SimdBackend::Neon => 3.0,
        }
    }

    /// The best backend the host supports, probed at runtime.
    pub fn detect() -> SimdBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdBackend::Neon;
            }
        }
        SimdBackend::Portable
    }

    /// Whether this backend can run on the current host.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar | SimdBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Parses an `OFFTARGET_SIMD` value. `auto` — and, deliberately, any
    /// unrecognized spelling — defers to detection; a named ISA the host
    /// lacks degrades to `portable` instead of failing a production run.
    pub fn from_env_value(value: &str) -> SimdBackend {
        let choice = match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => SimdBackend::Scalar,
            "portable" => SimdBackend::Portable,
            "avx2" => SimdBackend::Avx2,
            "neon" => SimdBackend::Neon,
            _ => SimdBackend::detect(),
        };
        if choice.available() {
            choice
        } else {
            SimdBackend::Portable
        }
    }
}

/// Resolves the backend for one `prepare()` call — explicit engine
/// override first, then `OFFTARGET_SIMD`, then detection — and emits the
/// `dispatch:simd` trace instant (arg0 = gauge code) so traces record
/// which path ran.
pub(crate) fn resolve(preference: Option<SimdBackend>) -> SimdBackend {
    let backend = match preference {
        Some(choice) if choice.available() => choice,
        Some(_) => SimdBackend::Portable,
        None => match std::env::var("OFFTARGET_SIMD") {
            Ok(value) => SimdBackend::from_env_value(&value),
            Err(_) => SimdBackend::detect(),
        },
    };
    crispr_trace::instant("dispatch:simd", backend.gauge() as u64, 0);
    backend
}

/// The fused many-guide verify: tests every spacer word in `words`
/// against one block of extracted window words and pushes `(i, lanes)`
/// for each `words[i]` within budget in at least one lane, where bit `j`
/// of `lanes` is set iff window `j` is at most `k` mismatches from
/// `words[i]`. The block stays in registers across the whole word list,
/// so the reject path — nearly every `(guide, block)` pair — is a
/// compare, a movemask and a not-taken branch. Exact on every backend;
/// NEON and `Scalar` run the portable loop.
#[inline]
pub(crate) fn within_budget(
    backend: SimdBackend,
    windows: &[u64; BLOCK],
    words: &[u64],
    k: usize,
    hits: &mut Vec<(u32, u8)>,
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe { avx2::within_budget(windows, words, k, hits) },
        _ => portable_within_budget(windows, words, k, hits),
    }
}

/// Portable fused verify: [`hamming_lanes`] per word on `[u64; 8]`,
/// folded to a lane mask.
fn portable_within_budget(
    windows: &[u64; BLOCK],
    words: &[u64],
    k: usize,
    hits: &mut Vec<(u32, u8)>,
) {
    for (i, &word) in words.iter().enumerate() {
        let lanes = hamming_lanes(windows, word)
            .iter()
            .enumerate()
            .fold(0u8, |acc, (j, &mm)| acc | (((mm as usize) <= k) as u8) << j);
        if lanes != 0 {
            hits.push((i as u32, lanes));
        }
    }
}

/// Sets bit `s` of `out` for every window start `s < n_starts` whose
/// `q`-gram code has a non-empty entry range in the dense CSR `offsets`
/// table (`offsets.len() == 4^q + 1`): the vector-of-rolling-registers
/// seed screen. `packed` supplies the 2-bit word storage; bits at or past
/// `n_starts` are cleared on return.
pub(crate) fn direct_seed_bitmap(
    backend: SimdBackend,
    packed: &PackedSeq,
    n_starts: usize,
    q: usize,
    offsets: &[u32],
    out: &mut [u64],
) {
    debug_assert_eq!(offsets.len(), (1usize << (2 * q)) + 1);
    debug_assert!(out.len() >= n_starts.div_ceil(64));
    debug_assert!(out.iter().all(|&w| w == 0));
    match backend {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => unsafe {
            avx2::seed_bitmap(packed.words(), n_starts, q, offsets, out)
        },
        _ => portable_seed_bitmap(packed.words(), n_starts, q, offsets, out),
    }
    if !n_starts.is_multiple_of(64) {
        out[n_starts / 64] &= (1u64 << (n_starts % 64)) - 1;
    }
}

/// Portable block seed screen: 32 window codes per packed word via
/// [`qgram_codes32`], one table probe per lane.
fn portable_seed_bitmap(
    words: &[u64],
    n_starts: usize,
    q: usize,
    offsets: &[u32],
    out: &mut [u64],
) {
    let mut codes = [0u64; 32];
    for (w, &lo) in words.iter().enumerate() {
        let base = w * 32;
        if base >= n_starts {
            break;
        }
        let hi = words.get(w + 1).copied().unwrap_or(0);
        qgram_codes32(lo, hi, q, &mut codes);
        let lanes = (n_starts - base).min(32);
        let mut bits = 0u64;
        for (i, &code) in codes[..lanes].iter().enumerate() {
            if offsets[code as usize] != offsets[code as usize + 1] {
                bits |= 1u64 << i;
            }
        }
        // base is a multiple of 32, so the block lands in one out word at
        // bit offset 0 or 32.
        out[base / 64] |= bits << (base % 64);
    }
}

/// `dst |= src << shift` at bit granularity across word arrays: merges a
/// start-indexed per-table fire bitmap into an end-indexed union (window
/// end = start + q − 1). Bits shifted past `dst` are dropped.
pub(crate) fn or_shifted_left(dst: &mut [u64], src: &[u64], shift: usize) {
    let word_shift = shift / 64;
    let bit_shift = shift % 64;
    for (i, &w) in src.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let di = i + word_shift;
        if di < dst.len() {
            dst[di] |= w << bit_shift;
        }
        if bit_shift != 0 && di + 1 < dst.len() {
            dst[di + 1] |= w >> (64 - bit_shift);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK;
    use crispr_genome::kmer::qgram_codes32;
    use std::arch::x86_64::*;

    /// AVX2 fused verify: the block is loaded once as two 4×64 halves
    /// (even and odd windows); per word, XOR against the broadcast word
    /// and count the mismatched bases with a `vpshufb` lookup on each
    /// nibble (two bases: a nibble's count is how many of its 2-bit fields
    /// are nonzero) plus a `vpsadbw` horizontal sum — AVX2 has no per-lane
    /// POPCNT. `k − count` carries the verdict in its sign bit; one
    /// `vpblendd` interleaves the halves' sign bits and `vmovmskps`
    /// gathers them into the lane mask.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn within_budget(
        windows: &[u64; BLOCK],
        words: &[u64],
        k: usize,
        hits: &mut Vec<(u32, u8)>,
    ) {
        let low_nibble = _mm256_set1_epi8(0x0F);
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2,
            0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2,
        );
        // Counts never exceed 32, so any k ≥ 32 passes every lane.
        let budget = _mm256_set1_epi64x(k.min(32) as i64);
        // Even windows in one half, odd in the other, so the blend below
        // lines the two halves' sign bits up in window order.
        let even: [u64; 4] = std::array::from_fn(|j| windows[2 * j]);
        let odd: [u64; 4] = std::array::from_fn(|j| windows[2 * j + 1]);
        let block = [
            _mm256_loadu_si256(even.as_ptr() as *const __m256i),
            _mm256_loadu_si256(odd.as_ptr() as *const __m256i),
        ];
        for (i, &word) in words.iter().enumerate() {
            let pat = _mm256_set1_epi64x(word as i64);
            let over = block.map(|v| {
                let diff = _mm256_xor_si256(v, pat);
                let lo = _mm256_and_si256(diff, low_nibble);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(diff), low_nibble);
                let counts =
                    _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
                // Per-64-bit-lane byte sums land in the low 16 bits of each lane.
                _mm256_sub_epi64(budget, _mm256_sad_epu8(counts, _mm256_setzero_si256()))
            });
            // Sign bit of 32-bit lane j = window j over budget.
            let signs =
                _mm256_blend_epi32::<0b1010_1010>(_mm256_srli_epi64::<32>(over[0]), over[1]);
            let lanes = !_mm256_movemask_ps(_mm256_castsi256_ps(signs)) as u8;
            if lanes != 0 {
                hits.push((i as u32, lanes));
            }
        }
    }

    /// AVX2 seed screen: per packed word, 8 groups of 4 lanes. Each lane
    /// extracts one window code with variable per-lane shifts
    /// (`vpsrlvq`/`vpsllvq` — counts ≥ 64 yield 0, which makes the
    /// `bit == 0` straddle case safe), then one 8-byte gather at byte
    /// offset `4·code` fetches `offsets[code]` and `offsets[code + 1]`
    /// together; equal halves mean an empty entry range.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available. `offsets.len()` must be
    /// `4^q + 1` so every gather (at index `code ≤ 4^q − 1`) reads the
    /// pair in bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn seed_bitmap(
        words: &[u64],
        n_starts: usize,
        q: usize,
        offsets: &[u32],
        out: &mut [u64],
    ) {
        let code_mask = if q == 32 { u64::MAX } else { (1u64 << (2 * q)) - 1 };
        let vmask = _mm256_set1_epi64x(code_mask as i64);
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFFu64 as i64);
        let sixty_four = _mm256_set1_epi64x(64);
        let table = offsets.as_ptr() as *const i64;
        let mut scalar_codes = [0u64; 32];
        for (w, &word) in words.iter().enumerate() {
            let base = w * 32;
            if base >= n_starts {
                break;
            }
            if w + 1 >= words.len() {
                // Tail word: lanes that would read a next word are past
                // the sequence end; take the portable path for the block.
                qgram_codes32(word, 0, q, &mut scalar_codes);
                let lanes = (n_starts - base).min(32);
                let mut bits = 0u64;
                for (i, &code) in scalar_codes[..lanes].iter().enumerate() {
                    if offsets[code as usize] != offsets[code as usize + 1] {
                        bits |= 1u64 << i;
                    }
                }
                out[base / 64] |= bits << (base % 64);
                continue;
            }
            let lo = _mm256_set1_epi64x(word as i64);
            let hi = _mm256_set1_epi64x(words[w + 1] as i64);
            let mut bits = 0u64;
            for group in 0..8u64 {
                let sh = _mm256_setr_epi64x(
                    (8 * group) as i64,
                    (8 * group + 2) as i64,
                    (8 * group + 4) as i64,
                    (8 * group + 6) as i64,
                );
                let low = _mm256_srlv_epi64(lo, sh);
                let high = _mm256_sllv_epi64(hi, _mm256_sub_epi64(sixty_four, sh));
                let code = _mm256_and_si256(_mm256_or_si256(low, high), vmask);
                let pair = _mm256_i64gather_epi64::<4>(table, code);
                let first = _mm256_and_si256(pair, lo32);
                let second = _mm256_srli_epi64::<32>(pair);
                let empty = _mm256_cmpeq_epi64(first, second);
                let nonempty = (!_mm256_movemask_pd(_mm256_castsi256_pd(empty)) & 0xF) as u64;
                bits |= nonempty << (4 * group);
            }
            // Lanes past n_starts are garbage here; the caller's final
            // tail clear removes them.
            out[base / 64] |= bits << (base % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::DnaSeq;

    fn packed(text: &str) -> PackedSeq {
        PackedSeq::from_seq(&text.parse::<DnaSeq>().unwrap())
    }

    /// Pseudo-random base stream for kernel-equivalence checks.
    fn synth(len: usize, seed: u64) -> PackedSeq {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                crispr_genome::Base::from_code((state >> 33) as u8)
            })
            .collect()
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(SimdBackend::from_env_value("scalar"), SimdBackend::Scalar);
        assert_eq!(SimdBackend::from_env_value(" Portable "), SimdBackend::Portable);
        // auto and junk both defer to detection.
        assert_eq!(SimdBackend::from_env_value("auto"), SimdBackend::detect());
        assert_eq!(SimdBackend::from_env_value("warp-drive"), SimdBackend::detect());
        // A named ISA never resolves to something the host lacks.
        for value in ["avx2", "neon"] {
            assert!(SimdBackend::from_env_value(value).available(), "{value}");
        }
    }

    #[test]
    fn gauge_codes_are_stable_and_distinct() {
        let codes: Vec<f64> = SimdBackend::ALL.iter().map(|b| b.gauge()).collect();
        assert_eq!(codes, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(SimdBackend::ALL.map(|b| b.name()), ["scalar", "portable", "avx2", "neon"]);
    }

    #[test]
    fn detected_backend_is_available() {
        assert!(SimdBackend::detect().available());
    }

    /// Flips `count` distinct bases of the `len`-base word `word` to a
    /// different base each: the result is exactly `count` mismatches away.
    fn mutate(word: u64, len: usize, count: usize, state: &mut u64) -> u64 {
        let mut out = word;
        let mut flipped = 0u64;
        while (flipped.count_ones() as usize) < count {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let pos = (*state % len as u64) as usize;
            if flipped >> pos & 1 == 0 {
                flipped |= 1 << pos;
                out ^= (1 + (*state >> 40) % 3) << (2 * pos);
            }
        }
        out
    }

    #[test]
    fn within_budget_lane_masks_match_hamming_on_every_backend() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in [20usize, 32] {
            let genome = synth(4096, len as u64);
            let words: Vec<u64> =
                (0..24).map(|i| synth(len, 0xA5A5 + i).window_word(0, len)).collect();
            for k in 0..=20usize {
                for round in 0..6usize {
                    // Half the blocks are random windows; half sit on the
                    // budget edge: lanes at k and k + 1 from words[0]
                    // side by side, plus one far lane.
                    let windows: [u64; BLOCK] = if round % 2 == 0 {
                        let base = 37 * (k * 6 + round) % (4096 - len - 4 * BLOCK);
                        genome.window_words(&std::array::from_fn(|j| base + 4 * j), len)
                    } else {
                        std::array::from_fn(|j| {
                            let count = match j % 3 {
                                0 => k,
                                1 => k + 1,
                                _ => (k + 3 + j).min(len),
                            };
                            mutate(words[0], len, count.min(len), &mut state)
                        })
                    };
                    let mut want = Vec::new();
                    for (i, &word) in words.iter().enumerate() {
                        let counts = hamming_lanes(&windows, word);
                        let lanes = (0..BLOCK)
                            .filter(|&j| counts[j] as usize <= k)
                            .fold(0u8, |acc, j| acc | 1 << j);
                        if lanes != 0 {
                            want.push((i as u32, lanes));
                        }
                    }
                    if round % 2 == 1 && k < len {
                        // The edge block really has both sides of the budget.
                        let counts = hamming_lanes(&windows, words[0]);
                        assert_eq!((counts[0], counts[1]), (k as u32, k as u32 + 1));
                    }
                    for backend in SimdBackend::ALL {
                        if !backend.available() {
                            continue;
                        }
                        let mut got = Vec::new();
                        within_budget(backend, &windows, &words, k, &mut got);
                        assert_eq!(got, want, "backend {} len {len} k {k}", backend.name());
                    }
                }
            }
        }
    }

    #[test]
    fn seed_bitmap_backends_agree_with_direct_probe() {
        for (len, seed, q) in [(70usize, 7u64, 3usize), (256, 11, 5), (513, 13, 5), (1000, 17, 6)] {
            let genome = synth(len, seed);
            // A table marking ~1/8 of codes non-empty, CSR style.
            let codes = 1usize << (2 * q);
            let mut offsets = vec![0u32; codes + 1];
            let mut running = 0u32;
            for (c, slot) in offsets.iter_mut().enumerate().take(codes) {
                *slot = running;
                if c % 8 == 3 {
                    running += 1 + (c % 3) as u32;
                }
            }
            offsets[codes] = running;
            let n_starts = len + 1 - q;
            for backend in SimdBackend::ALL {
                if !backend.available() {
                    continue;
                }
                let mut bits = vec![0u64; n_starts.div_ceil(64)];
                direct_seed_bitmap(backend, &genome, n_starts, q, &offsets, &mut bits);
                for s in 0..n_starts {
                    let code = genome.window_word(s, q) as usize;
                    let expect = offsets[code] != offsets[code + 1];
                    let got = bits[s / 64] >> (s % 64) & 1 == 1;
                    assert_eq!(got, expect, "backend {} len {len} q {q} start {s}", backend.name());
                }
                // No bits past n_starts.
                if !n_starts.is_multiple_of(64) {
                    assert_eq!(bits[n_starts / 64] >> (n_starts % 64), 0);
                }
            }
        }
    }

    #[test]
    fn or_shifted_left_matches_bit_semantics() {
        let src = vec![0x8000_0000_0000_0001u64, 0xDEAD_BEEF_0000_FFFF, 0x1];
        for shift in [0usize, 1, 4, 31, 63, 64, 65, 100] {
            let mut dst = vec![0u64; 4];
            or_shifted_left(&mut dst, &src, shift);
            for bit in 0..(src.len() * 64) {
                let set = src[bit / 64] >> (bit % 64) & 1 == 1;
                let target = bit + shift;
                if target >= dst.len() * 64 {
                    continue;
                }
                assert_eq!(
                    dst[target / 64] >> (target % 64) & 1 == 1,
                    set,
                    "shift {shift} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn window_block_verify_on_handwritten_case() {
        let genome = packed(&"ACGTAGGT".repeat(16));
        let pat = packed("ACGTAGGT").window_word(0, 8);
        let starts: [usize; BLOCK] = std::array::from_fn(|j| 8 * j);
        let windows = genome.window_words(&starts, 8);
        let counts = hamming_lanes(&windows, pat);
        assert_eq!(counts, [0u32; BLOCK]);
        let offset_starts: [usize; BLOCK] = std::array::from_fn(|j| 8 * j + 1);
        let shifted = genome.window_words(&offset_starts, 8);
        let shifted_counts = hamming_lanes(&shifted, pat);
        assert!(shifted_counts.iter().all(|&c| c > 0));
    }
}
