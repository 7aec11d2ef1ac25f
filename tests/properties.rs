//! Property-based integration tests: randomized workloads must satisfy the
//! system's core invariants end to end.

use crispr_offtarget::automata::{anml, sim};
use crispr_offtarget::engines::{
    Accelerated, BitParallelEngine, CasOffinderCpuEngine, CasotEngine, Engine, NfaEngine,
    ScalarEngine,
};
use crispr_offtarget::genome::{Base, DnaSeq, Genome, PackedSeq};
use crispr_offtarget::guides::{compile, CompileOptions, Guide, Pam};
use proptest::prelude::*;

fn dna_seq(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

fn guide(spacer_len: usize) -> impl Strategy<Value = Guide> {
    dna_seq(spacer_len..spacer_len + 1)
        .prop_map(|spacer| Guide::new("g", spacer, Pam::ngg()).expect("non-empty spacer"))
}

fn iupac_pam() -> impl Strategy<Value = Pam> {
    prop::sample::select(vec![Pam::ngg(), Pam::nag(), Pam::nrg(), Pam::nngrrt()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reverse complement is an involution through the full pipeline type.
    #[test]
    fn revcomp_involution(seq in dna_seq(0..200)) {
        prop_assert_eq!(seq.revcomp().revcomp(), seq);
    }

    /// 2-bit packing is lossless and window mismatch counts agree with the
    /// scalar definition.
    #[test]
    fn packed_mismatches_agree_with_scalar(
        text in dna_seq(30..120),
        pat in dna_seq(8..24),
        offset in 0usize..8,
    ) {
        prop_assume!(offset + pat.len() <= text.len());
        let packed_text = PackedSeq::from_seq(&text);
        prop_assert_eq!(packed_text.unpack(), text.clone());
        let packed_pat = PackedSeq::from_seq(&pat);
        let expected = text.subseq(offset..offset + pat.len()).hamming_distance(&pat);
        prop_assert_eq!(
            packed_text.count_mismatches(&packed_pat, offset, pat.len()),
            Some(expected)
        );
    }

    /// All CPU engines agree with the scalar oracle on random workloads.
    #[test]
    fn engines_agree_on_random_genomes(
        text in dna_seq(200..2_000),
        g in guide(20),
        k in 0usize..4,
    ) {
        let genome = Genome::from_seq(text);
        let guides = vec![g];
        let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
        let bp = Accelerated::new(BitParallelEngine::new()).search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bp, &truth);
        let bf = Accelerated::new(CasOffinderCpuEngine::new()).search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bf, &truth);
        let co = CasotEngine::new().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&co, &truth);
        let nfa = NfaEngine::new().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&nfa, &truth);
    }

    /// The compiled automaton round-trips through ANML with identical
    /// behaviour.
    #[test]
    fn anml_roundtrip_behaviour(g in guide(12), k in 0usize..3, probe in dna_seq(50..300)) {
        let set = compile::compile_guides(&[g], &CompileOptions::new(k)).unwrap();
        let text = anml::to_anml(&set.automaton, "prop");
        let back = anml::from_anml(&text).unwrap();
        let symbols: Vec<u8> = probe.iter().map(Base::code).collect();
        prop_assert_eq!(
            sim::run(&set.automaton, &symbols),
            sim::run(&back, &symbols)
        );
    }

    /// Pruned and unpruned grids are behaviourally identical; pruning only
    /// removes states.
    #[test]
    fn pruning_is_behaviour_preserving(g in guide(10), k in 0usize..4, probe in dna_seq(100..400)) {
        let guides = [g];
        let pruned =
            compile::compile_guides(&guides, &CompileOptions::new(k)).unwrap();
        let unpruned =
            compile::compile_guides(&guides, &CompileOptions::new(k).unpruned()).unwrap();
        prop_assert!(pruned.total_states() <= unpruned.total_states());
        let symbols: Vec<u8> = probe.iter().map(Base::code).collect();
        let a: Vec<_> = sim::run(&pruned.automaton, &symbols)
            .into_iter().map(|r| (r.pos, r.code)).collect();
        let b: Vec<_> = sim::run(&unpruned.automaton, &symbols)
            .into_iter().map(|r| (r.pos, r.code)).collect();
        prop_assert_eq!(a, b);
    }

    /// Myers' bit-vector distances equal the DP oracle on random inputs.
    #[test]
    fn myers_equals_dp(pat in dna_seq(2..30), text in dna_seq(10..300), k in 0usize..4) {
        use crispr_offtarget::engines::MyersMatcher;
        use crispr_offtarget::guides::leven;
        let matcher = MyersMatcher::new(&pat);
        let got = matcher.matches(&text, k);
        let oracle = leven::semiglobal_distances(&pat, &text);
        let expected: Vec<(usize, usize)> = oracle
            .iter().enumerate().skip(1)
            .filter(|(_, &d)| d <= k)
            .map(|(e, &d)| (e, d))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The 2-strided scan finds exactly the reference hit set.
    #[test]
    fn strided_scan_equals_reference(
        text in dna_seq(200..1_000),
        g in guide(12),
        k in 0usize..3,
    ) {
        use crispr_offtarget::guides::stride::StridedScan;
        use crispr_offtarget::guides::CompileOptions;
        let genome = Genome::from_seq(text);
        let guides = vec![g];
        let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
        let strided = StridedScan::compile(&guides, &CompileOptions::new(k)).unwrap();
        prop_assert_eq!(strided.search(&genome), truth);
    }

    /// The prefiltered engines agree with the scalar oracle across the
    /// degenerate IUPAC PAM repertoire (NGG, NAG, NRG, NNGRRT), on both
    /// strands (site patterns always cover forward and reverse), and on
    /// genomes that include a contig shorter than one site.
    #[test]
    fn prefiltered_engines_agree_across_pams(
        text in dna_seq(200..1_500),
        stub in dna_seq(0..20),
        spacer in dna_seq(20..21),
        pam in iupac_pam(),
        k in 0usize..4,
    ) {
        let g = Guide::new("g", spacer, pam).expect("non-empty spacer");
        let mut genome = Genome::from_seq(text);
        // A contig shorter than one 23+ base site must contribute nothing
        // (and must not trip the anchor scanner's window handling).
        genome.add_contig("stub", stub).unwrap();
        let guides = vec![g];
        let truth = ScalarEngine::new().search(&genome, &guides, k).unwrap();
        let bp = Accelerated::new(BitParallelEngine::new()).search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bp, &truth);
        let bf = Accelerated::new(CasOffinderCpuEngine::new()).search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bf, &truth);
        let co = CasotEngine::new().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&co, &truth);
        // And each ablated (unfiltered) baseline returns the same hits.
        let bp0 = BitParallelEngine::new().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bp0, &truth);
        let bf0 = CasOffinderCpuEngine::new().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bf0, &truth);
        let co0 = CasotEngine::new().without_prefilter().search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&co0, &truth);
        // As does the batched (shared seed automaton) engine.
        let bpb = Accelerated::batched(BitParallelEngine::new()).search(&genome, &guides, k).unwrap();
        prop_assert_eq!(&bpb, &truth);
    }

    /// A search prepared once scans any number of genomes: reusing one
    /// `PreparedSearch` across two different genomes returns exactly the
    /// hits of two fresh searches.
    #[test]
    fn prepared_search_reuse_equals_fresh(
        text_a in dna_seq(200..1_000),
        text_b in dna_seq(200..1_000),
        spacer in dna_seq(20..21),
        pam in iupac_pam(),
        k in 0usize..4,
    ) {
        use crispr_offtarget::engines::{run_scan, ScanDeployment};
        use crispr_offtarget::model::SearchMetrics;
        let g = Guide::new("g", spacer, pam).expect("non-empty spacer");
        let genome_a = Genome::from_seq(text_a);
        let genome_b = Genome::from_seq(text_b);
        let guides = vec![g];
        let one = ScanDeployment::new(1);
        for engine in [
            &Accelerated::new(BitParallelEngine::new()) as &dyn Engine,
            &Accelerated::batched(BitParallelEngine::new()),
            &Accelerated::new(CasOffinderCpuEngine::new()),
            &CasotEngine::new(),
            &ScalarEngine::new(),
        ] {
            let prepared = engine.prepare(&guides, k).unwrap();
            let mut m = SearchMetrics::default();
            let reused_a = run_scan(prepared.as_ref(), (&genome_a).into(), &one, &mut m).unwrap();
            let reused_b = run_scan(prepared.as_ref(), (&genome_b).into(), &one, &mut m).unwrap();
            prop_assert_eq!(&reused_a, &engine.search(&genome_a, &guides, k).unwrap());
            prop_assert_eq!(&reused_b, &engine.search(&genome_b, &guides, k).unwrap());
        }
    }

    /// The shared seed automaton honors the pigeonhole guarantee: any
    /// window within k spacer mismatches of a pattern (PAM valid or not —
    /// seeds cover only the spacer, so we assert on the PAM-valid subset
    /// the engines report) must fire at least one of that pattern's seed
    /// fragments. This is the soundness half of the batched cascade: a
    /// site the seed stage misses is lost for good.
    #[test]
    fn multiseed_pigeonhole_guarantee(
        text in dna_seq(60..600),
        spacer in dna_seq(20..21),
        pam in iupac_pam(),
        k in 0usize..4,
    ) {
        use crispr_offtarget::engines::MultiSeedScan;
        use crispr_offtarget::genome::Strand;
        use crispr_offtarget::guides::SitePattern;
        let g = Guide::new("g", spacer, pam).expect("non-empty spacer");
        let guides = vec![g.clone()];
        let scan = MultiSeedScan::from_guides(&guides, k)
            .expect("valid guide set")
            .expect("real PAMs batch");
        let site_len = scan.site_len();
        let cands = scan.seed_candidates(text.as_slice());
        if text.len() >= site_len {
            // Pattern order matches the engines': guide 0 forward, then
            // reverse.
            for (pi, strand) in [(0u32, Strand::Forward), (1, Strand::Reverse)] {
                let pattern = SitePattern::from_guide(&g, strand);
                for start in 0..=text.len() - site_len {
                    let window = &text.as_slice()[start..start + site_len];
                    if let Some(mm) = pattern.score_window(window) {
                        if mm <= k {
                            prop_assert!(
                                cands.binary_search(&(pi, start)).is_ok(),
                                "window at {start} ({strand}, {mm} mismatches ≤ k={k}) \
                                 fired no seed fragment"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A batched search prepared once scans any number of genomes — the
    /// compiled seed automaton carries no per-slice state across calls
    /// (rolling registers and dedup masks are rebuilt per slice).
    #[test]
    fn batched_prepared_search_reuse_equals_fresh(
        text_a in dna_seq(100..800),
        text_b in dna_seq(100..800),
        spacer in dna_seq(20..21),
        pam in iupac_pam(),
        k in 0usize..4,
    ) {
        use crispr_offtarget::engines::{run_scan, ScanDeployment};
        use crispr_offtarget::model::SearchMetrics;
        let g = Guide::new("g", spacer, pam).expect("non-empty spacer");
        let genome_a = Genome::from_seq(text_a);
        let genome_b = Genome::from_seq(text_b);
        let guides = vec![g];
        let one = ScanDeployment::new(1);
        let engine = Accelerated::batched(BitParallelEngine::new());
        let prepared = engine.prepare(&guides, k).unwrap();
        let mut m = SearchMetrics::default();
        // Interleave: a, b, then a again — the third scan must reproduce
        // the first even with b's slice in between.
        let first_a = run_scan(prepared.as_ref(), (&genome_a).into(), &one, &mut m).unwrap();
        let only_b = run_scan(prepared.as_ref(), (&genome_b).into(), &one, &mut m).unwrap();
        let second_a = run_scan(prepared.as_ref(), (&genome_a).into(), &one, &mut m).unwrap();
        prop_assert_eq!(&first_a, &second_a);
        prop_assert_eq!(&first_a, &engine.search(&genome_a, &guides, k).unwrap());
        prop_assert_eq!(&only_b, &engine.search(&genome_b, &guides, k).unwrap());
    }

    /// Histogram merge is associative and count/sum-preserving: folding
    /// per-chunk partial histograms in any grouping (the parallel
    /// deployment's fold order depends on worker scheduling) yields the
    /// same distribution as observing every sample into one histogram
    /// (the serial driver's view).
    #[test]
    fn histogram_merge_is_associative_and_count_preserving(
        raw in prop::collection::vec(1u64..1_000_000_000_000, 0..200),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        use crispr_offtarget::model::Histogram;
        // Nanosecond-grained samples spanning 1ns..1000s — the full
        // useful range of the log2 bucket ladder.
        let samples: Vec<f64> = raw.into_iter().map(|ns| ns as f64 * 1e-9).collect();
        let observe_all = |chunk: &[f64]| {
            let mut h = Histogram::default();
            for &s in chunk {
                h.observe_s(s);
            }
            h
        };
        // Split the sample stream into three chunks at arbitrary cuts —
        // empty chunks included, they are merge's identity element.
        let (a, b) = (cut_a.min(samples.len()), cut_b.min(samples.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let (h1, h2, h3) =
            (observe_all(&samples[..lo]), observe_all(&samples[lo..hi]), observe_all(&samples[hi..]));
        let unchunked = observe_all(&samples);

        // (h1 ⊕ h2) ⊕ h3 == h1 ⊕ (h2 ⊕ h3) == unchunked.
        let mut left = h1.clone();
        left.merge(&h2);
        left.merge(&h3);
        let mut right = h2.clone();
        right.merge(&h3);
        let mut outer = h1.clone();
        outer.merge(&right);
        prop_assert_eq!(left.buckets, outer.buckets);
        prop_assert_eq!(left.buckets, unchunked.buckets);
        prop_assert_eq!(left.count(), samples.len() as u64);
        prop_assert!((left.sum_s - outer.sum_s).abs() <= 1e-9 * left.sum_s.abs().max(1.0));
        prop_assert!((left.sum_s - unchunked.sum_s).abs() <= 1e-9 * left.sum_s.abs().max(1.0));
    }

    /// The SIMD verifier's lane arithmetic — XOR against the pattern
    /// word, fold-to-even-lanes, per-lane popcount — equals the scalar
    /// per-base mismatch count on every lane, for random packed windows
    /// and patterns. This is the exactness contract the vector verify
    /// kernels (portable and ISA backends alike) are built on.
    #[test]
    fn hamming_lanes_equal_scalar_verifier(
        text in dna_seq(64..300),
        pat in dna_seq(4..31),
        raw_starts in prop::collection::vec(0usize..1_000, 8),
    ) {
        use crispr_offtarget::genome::hamming_lanes;
        let max_start = text.len() - pat.len();
        let mut starts = [0usize; 8];
        for (slot, raw) in starts.iter_mut().zip(&raw_starts) {
            *slot = raw % (max_start + 1);
        }
        let packed = PackedSeq::from_seq(&text);
        let pattern = PackedSeq::from_seq(&pat).window_word(0, pat.len());
        let windows = packed.window_words(&starts, pat.len());
        let lanes = hamming_lanes(&windows, pattern);
        for (lane, &start) in lanes.iter().zip(&starts) {
            let expected = text.subseq(start..start + pat.len()).hamming_distance(&pat);
            prop_assert_eq!(*lane as usize, expected);
        }
    }

    /// Every hit an engine reports actually scores within budget when
    /// re-checked against the genome (no false positives, by construction
    /// of an independent re-scorer).
    #[test]
    fn reported_hits_rescore_within_budget(
        text in dna_seq(500..1_500),
        g in guide(20),
        k in 0usize..4,
    ) {
        use crispr_offtarget::guides::SitePattern;
        let genome = Genome::from_seq(text);
        let hits = Accelerated::new(BitParallelEngine::new())
            .search(&genome, std::slice::from_ref(&g), k)
            .unwrap();
        for hit in hits {
            let pattern = SitePattern::from_guide(&g, hit.strand);
            let contig = &genome.contigs()[hit.contig as usize];
            let window = contig
                .seq()
                .subseq(hit.pos as usize..hit.pos as usize + pattern.len());
            prop_assert_eq!(
                pattern.score_window(window.as_slice()),
                Some(hit.mismatches as usize)
            );
            prop_assert!((hit.mismatches as usize) <= k);
        }
    }
}

mod index_roundtrips {
    //! Serialize → deserialize identity for every payload the on-disk
    //! genome index carries, on arbitrary genomes — empty contigs,
    //! single-base contigs, and word-boundary lengths included.

    use super::dna_seq;
    use crispr_offtarget::genome::diskindex::GenomeIndex;
    use crispr_offtarget::genome::kmer::{DenseQGrams, QGramIndex};
    use crispr_offtarget::genome::pamindex::BaseMasks;
    use crispr_offtarget::genome::{DnaSeq, Genome, IupacCode, PackedSeq};
    use proptest::prelude::*;

    fn genome(contigs: std::ops::Range<usize>) -> impl Strategy<Value = Genome> {
        prop::collection::vec(dna_seq(0..80), contigs).prop_map(|seqs| {
            let mut genome = Genome::new();
            for (i, seq) in seqs.into_iter().enumerate() {
                genome.add_contig(format!("c{i}"), seq).unwrap();
            }
            genome
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// PackedSeq words survive the raw-parts round trip, whatever
        /// garbage sits in the tail bits before canonicalization.
        #[test]
        fn packed_raw_parts_round_trip(seq in dna_seq(0..130), garbage in any::<u64>()) {
            let packed = PackedSeq::from_seq(&seq);
            let mut words = packed.words().to_vec();
            let rebuilt = PackedSeq::from_raw_parts(words.clone(), seq.len()).unwrap();
            prop_assert_eq!(&rebuilt, &packed);
            prop_assert_eq!(rebuilt.unpack(), seq.clone());
            // Dirty bits above the last valid base are scrubbed, not
            // trusted.
            let tail = seq.len() % 32;
            if tail != 0 {
                if let Some(last) = words.last_mut() {
                    *last |= garbage << (2 * tail);
                }
            }
            let scrubbed = PackedSeq::from_raw_parts(words, seq.len()).unwrap();
            prop_assert_eq!(scrubbed.unpack(), seq.clone());
            // A word-count mismatch is a rejection, not a guess.
            prop_assert!(PackedSeq::from_raw_parts(vec![0; seq.len() / 32 + 2], seq.len()).is_none());
        }

        /// Per-base anchor bitmaps reproduce `match_mask` for every
        /// IUPAC class after a raw-parts round trip.
        #[test]
        fn base_masks_round_trip_and_agree(seq in dna_seq(0..130)) {
            let packed = PackedSeq::from_seq(&seq);
            let masks = BaseMasks::build(&packed);
            let rebuilt = BaseMasks::from_raw_parts(
                [
                    masks.mask(crispr_offtarget::genome::Base::A).to_vec(),
                    masks.mask(crispr_offtarget::genome::Base::C).to_vec(),
                    masks.mask(crispr_offtarget::genome::Base::G).to_vec(),
                    masks.mask(crispr_offtarget::genome::Base::T).to_vec(),
                ],
                masks.len(),
            )
            .unwrap();
            prop_assert_eq!(&rebuilt, &masks);
            for letter in b"ACGTRYSWKMBDHVN" {
                let class = IupacCode::from_ascii(*letter).unwrap();
                prop_assert_eq!(rebuilt.class_mask(class), packed.match_mask(class));
            }
        }

        /// The dense CSR q-gram table round-trips and agrees with the
        /// hash-based index bucket for bucket.
        #[test]
        fn dense_qgrams_round_trip_and_agree(seq in dna_seq(0..100), q in 1usize..5) {
            let dense = DenseQGrams::build(&seq, q);
            let rebuilt = DenseQGrams::from_raw_parts(
                q,
                dense.offsets().to_vec(),
                dense.positions().to_vec(),
            )
            .unwrap();
            prop_assert_eq!(&rebuilt, &dense);
            let hashed = QGramIndex::build(&seq, q);
            for code in 0..(1u64 << (2 * q)) {
                prop_assert_eq!(rebuilt.lookup(code), hashed.lookup(code), "code {}", code);
            }
        }

        /// The whole index file round-trips: contig payloads, ranged
        /// reads, q-gram tables, and the materialized genome all match
        /// what was serialized — including empty and one-base contigs.
        #[test]
        fn genome_index_round_trip(genome in genome(1..4), q in 1usize..4) {
            let index = GenomeIndex::build(&genome, q).unwrap();
            let reread = GenomeIndex::from_bytes(index.as_bytes().to_vec()).unwrap();
            prop_assert_eq!(reread.contig_count(), genome.contig_count());
            prop_assert_eq!(reread.total_len(), genome.total_len());
            prop_assert_eq!(reread.q(), Some(q));
            for (ci, contig) in genome.contigs().iter().enumerate() {
                prop_assert_eq!(reread.contig_name(ci), contig.name());
                let packed = PackedSeq::from_seq(contig.seq());
                prop_assert_eq!(&reread.contig_packed(ci), &packed);
                prop_assert_eq!(&reread.contig_masks(ci), &BaseMasks::build(&packed));
                let qgrams = reread.contig_qgrams(ci).unwrap();
                if contig.len() >= q {
                    prop_assert_eq!(qgrams, Some(DenseQGrams::build(contig.seq(), q)));
                } else {
                    prop_assert!(qgrams.is_none() || qgrams == Some(DenseQGrams::build(contig.seq(), q)));
                }
            }
            prop_assert_eq!(&reread.to_genome().unwrap(), &genome);
        }

        /// Ranged reads out of the index equal slices of the rebuilt
        /// whole-contig payloads at arbitrary offsets.
        #[test]
        fn ranged_reads_equal_slices(seq in dna_seq(1..200), start in 0usize..200, len in 0usize..200) {
            let start = start % seq.len();
            let len = len.min(seq.len() - start);
            let mut genome = Genome::new();
            genome.add_contig("c", seq.clone()).unwrap();
            let index = GenomeIndex::build(&genome, 0).unwrap();
            let window: DnaSeq = seq.subseq(start..start + len);
            let expect = PackedSeq::from_seq(&window);
            prop_assert_eq!(&index.contig_packed_range(0, start, len), &expect);
            prop_assert_eq!(&index.contig_masks_range(0, start, len), &BaseMasks::build(&expect));
            prop_assert_eq!(index.q(), None);
            prop_assert!(index.contig_qgrams(0).unwrap().is_none());
        }
    }
}
