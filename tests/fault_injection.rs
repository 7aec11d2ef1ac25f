//! Fault-injection tier: deterministic failpoints armed at every pipeline
//! site, checking the robustness contract end to end.
//!
//! The contract under test (DESIGN.md §9):
//!
//! * **Hit-set invariance** — a search that survives injected faults
//!   (through retries or degradation fallbacks) returns *exactly* the
//!   hits and scan counters of a clean run. Faults may cost time, never
//!   correctness.
//! * **Structured partiality** — a chunk that fails every retry is
//!   reported in [`SearchError::Partial`] with full provenance (contig
//!   name, byte range, attempts, cause) while every healthy chunk's hits
//!   are still aggregated. No process abort, no poisoned lock.
//! * **Observability** — every fault leaves a trace in the metrics
//!   counters (`faults_injected`, `chunks_retried`, `chunks_failed`,
//!   `degraded_paths`).
//!
//! Each test arms its scenario on its own thread's fault plan, which the
//! scan driver hands to its workers, so the tests run concurrently with
//! no lock and a clean baseline next to an injecting test stays clean.

use crispr_offtarget::core::{OffTargetSearch, Platform};
use crispr_offtarget::engines::{
    run_search, Accelerated, BitParallelEngine, CasOffinderCpuEngine, Engine, ScalarEngine,
    ScanDeployment, SearchError, DEFAULT_CHUNK_RETRIES,
};
use crispr_offtarget::failpoint::{self, FailScenario};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{fasta, Genome};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{io as guide_io, Guide, Hit, Pam};
use crispr_offtarget::model::SearchMetrics;

/// A multi-contig planted workload big enough to split into many chunks.
fn workload(seed: u64, k: usize) -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(12_000).seed(seed).contigs(3).generate();
    let guides = genset::random_guides(2, 20, &Pam::ngg(), seed + 1);
    let (genome, _) =
        genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(k, 2), seed + 2);
    (genome, guides)
}

/// `engine` through the scan driver on `threads` threads, re-queuing a
/// failed chunk at most `retries` times.
fn scan(
    engine: &dyn Engine,
    (genome, guides): (&Genome, &[Guide]),
    k: usize,
    threads: usize,
    retries: u32,
    m: &mut SearchMetrics,
) -> Result<Vec<Hit>, SearchError> {
    let deployment = ScanDeployment::new(threads).with_retry_limit(retries);
    run_search(engine, guides, k, genome.into(), &deployment, m)
}

#[test]
fn chunk_panics_heal_to_clean_hits_and_counters() {
    let (genome, guides) = workload(201, 2);
    let engine = Accelerated::new(BitParallelEngine::new());
    // The inline single-thread drain heals exactly like the fan-out.
    for threads in [1, 4] {
        let mut clean_m = SearchMetrics::default();
        let clean =
            scan(&engine, (&genome, &guides), 2, threads, DEFAULT_CHUNK_RETRIES, &mut clean_m)
                .unwrap();

        // Three guaranteed panics, then the site exhausts: the default
        // retry budget (3 re-queues per chunk) absorbs them all.
        let _scenario = FailScenario::setup("parallel.chunk=panic:1.0,7,3");
        let mut m = SearchMetrics::default();
        let hits =
            scan(&engine, (&genome, &guides), 2, threads, DEFAULT_CHUNK_RETRIES, &mut m).unwrap();

        assert_eq!(hits, clean, "threads={threads}: healed run must return the clean hit set");
        assert_eq!(m.counters.faults_injected, 3, "threads={threads}");
        assert_eq!(m.counters.chunks_retried, 3, "threads={threads}");
        assert_eq!(m.counters.chunks_failed, 0, "threads={threads}");
        // Failed attempts contribute nothing: scan-side counters equal a
        // clean run's, fault bookkeeping aside.
        assert_eq!(m.counters.windows_scanned, clean_m.counters.windows_scanned);
        assert_eq!(m.counters.raw_hits, clean_m.counters.raw_hits);
        assert_eq!(m.counters.candidates_verified, clean_m.counters.candidates_verified);
        // Each re-queued chunk was dequeued again, so each healing records
        // one backoff sample; failed attempts record no chunk_scan_s sample.
        assert_eq!(m.histogram("retry_backoff_s").map(|h| h.count()), Some(3));
        assert_eq!(
            m.histogram("chunk_scan_s").map(|h| h.count()),
            clean_m.histogram("chunk_scan_s").map(|h| h.count())
        );
        assert_eq!(m.parallel.is_some(), threads > 1, "threads={threads}");
    }
}

#[test]
fn chunk_error_faults_heal_like_panics() {
    let (genome, guides) = workload(211, 1);
    let engine = Accelerated::new(CasOffinderCpuEngine::new());
    let retries = DEFAULT_CHUNK_RETRIES;
    let clean =
        scan(&engine, (&genome, &guides), 1, 3, retries, &mut SearchMetrics::default()).unwrap();

    let _scenario = FailScenario::setup("parallel.chunk=error:1.0,11,2");
    let mut m = SearchMetrics::default();
    let hits = scan(&engine, (&genome, &guides), 1, 3, retries, &mut m).unwrap();

    assert_eq!(hits, clean);
    assert_eq!(m.counters.faults_injected, 2);
    assert_eq!(m.counters.chunks_retried, 2);
    assert_eq!(m.counters.chunks_failed, 0);
}

#[test]
fn exhausted_retries_report_partial_with_provenance() {
    let (genome, guides) = workload(202, 1);
    // Persistent fault, retry budget 2: every chunk is attempted exactly
    // three times, then reported — never aborted, never silently dropped.
    let _scenario = FailScenario::setup("parallel.chunk=panic");
    let mut m = SearchMetrics::default();
    let engine = Accelerated::new(CasOffinderCpuEngine::new());
    let err = scan(&engine, (&genome, &guides), 1, 3, 2, &mut m).unwrap_err();

    assert!(err.is_partial());
    let SearchError::Partial { failures, chunks_total, hits } = err else {
        panic!("expected Partial, got something else");
    };
    assert_eq!(failures.len() as u64, chunks_total, "every chunk failed");
    assert!(hits.is_empty(), "no chunk survived, so no hits to recover");
    for failure in &failures {
        assert!(!failure.contig_name.is_empty(), "deployment fills contig names");
        assert_eq!(failure.attempts, 3, "1 initial + 2 retries");
        assert!(failure.cause.contains("parallel.chunk"), "cause: {}", failure.cause);
    }
    assert!(
        failures.windows(2).all(|w| (w[0].contig, w[0].start) < (w[1].contig, w[1].start)),
        "failures are sorted by genome position"
    );
    assert_eq!(m.counters.chunks_failed, chunks_total);
    assert_eq!(m.counters.chunks_retried, 2 * chunks_total);
}

#[test]
fn persistent_faults_become_structured_partial_errors() {
    let (genome, guides) = workload(208, 1);
    // The inline single-thread drain keeps the same contract as the
    // fan-out: every chunk attempted 1 + retries times, then reported.
    for threads in [1, 2] {
        let _scenario = FailScenario::setup("parallel.chunk=error");
        let mut m = SearchMetrics::default();
        let err =
            scan(&ScalarEngine::new(), (&genome, &guides), 1, threads, 1, &mut m).unwrap_err();
        let SearchError::Partial { failures, chunks_total, hits } = err else {
            panic!("threads={threads}: expected Partial");
        };
        assert_eq!(failures.len() as u64, chunks_total, "threads={threads}");
        assert!(hits.is_empty());
        assert!(failures.iter().all(|f| f.attempts == 2 && !f.contig_name.is_empty()));
        assert_eq!(m.counters.chunks_failed, chunks_total, "threads={threads}");
    }
}

#[test]
fn one_poisoned_chunk_still_recovers_the_rest() {
    let (genome, guides) = workload(203, 2);
    let engine = Accelerated::new(BitParallelEngine::new());
    let clean = engine.search(&genome, &guides, 2).unwrap();

    // Exactly one fire, no retries allowed: one chunk fails, every other
    // chunk's hits are still aggregated into the partial report.
    let _scenario = FailScenario::setup("parallel.chunk=panic:1.0,3,1");
    let mut m = SearchMetrics::default();
    let err = scan(&engine, (&genome, &guides), 2, 4, 0, &mut m).unwrap_err();
    let SearchError::Partial { failures, chunks_total, hits } = err else {
        panic!("expected Partial");
    };
    assert_eq!(failures.len(), 1);
    assert!(chunks_total > 1, "workload must split into several chunks");
    assert!(hits.len() <= clean.len());
    assert!(hits.iter().all(|h| clean.binary_search(h).is_ok()), "recovered hits are real hits");
    let failure = &failures[0];
    assert_eq!(
        failure.contig_name,
        genome.contigs()[failure.contig as usize].name(),
        "provenance names the failing contig"
    );
    // Recovered hits are normalized, and every clean hit outside the
    // failed chunk's span was recovered.
    assert!(hits.windows(2).all(|w| w[0] < w[1]));
    let f = failure;
    let lost = |h: &Hit| h.contig == f.contig && h.pos >= f.start && h.pos < f.start + f.len;
    for hit in clean.iter().filter(|h| !lost(h)) {
        assert!(hits.binary_search(hit).is_ok(), "recoverable hit {hit} missing");
    }
    // The metrics passed in survive the partial outcome.
    assert_eq!(m.counters.chunks_failed, 1);
    assert!(m.parallel.is_some());
}

/// The partial-results contract one level up: the search builder turns
/// a partial scan into an `Ok` report carrying the recovered hits, the
/// failure provenance, and full metrics.
#[test]
fn partial_runs_return_recovered_hits_and_provenance() {
    let (genome, guides) = workload(209, 2);
    let search = OffTargetSearch::new(genome).guides(guides).max_mismatches(2).threads(4);
    let clean = search.run().unwrap();
    assert!(!clean.is_partial() && clean.chunk_failures().is_empty());

    // One guaranteed fire, no retries: exactly one chunk is lost, and the
    // run must still return Ok — report, hits, metrics intact.
    let _scenario = FailScenario::setup("parallel.chunk=error:1.0,21,1");
    let report = search.chunk_retries(0).run().unwrap();
    assert!(report.is_partial());
    assert_eq!(report.chunk_failures().len(), 1);
    assert!(report.chunks_total() > 1);
    assert!(!report.chunk_failures()[0].contig_name.is_empty());
    assert!(report.hits().iter().all(|h| clean.hits().binary_search(h).is_ok()));
    let m = report.metrics();
    assert_eq!(m.counters.chunks_failed, 1);
    assert!(m.phases.kernel_scan_s > 0.0, "metrics survive the partial outcome");
    assert!(m.parallel.is_some());
}

#[test]
fn build_site_faults_degrade_instead_of_failing() {
    let (genome, guides) = workload(204, 2);
    let truth = ScalarEngine::new().search(&genome, &guides, 2).unwrap();

    // (spec, engine): the batched path owns the shared seed automaton
    // (multiseed.build); the per-guide path owns the PAM-anchor
    // prefilter (prefilter.build). Either way the accelerator is an
    // optimization, so losing it must cost time, not hits.
    let cases: [(&str, Accelerated<BitParallelEngine>); 3] = [
        ("multiseed.build=panic", Accelerated::batched(BitParallelEngine::new())),
        ("prefilter.build=error", Accelerated::new(BitParallelEngine::new())),
        (
            "multiseed.build=panic;prefilter.build=panic",
            Accelerated::batched(BitParallelEngine::new()),
        ),
    ];
    for (spec, engine) in cases {
        let _scenario = FailScenario::setup(spec);
        let mut m = SearchMetrics::default();
        let hits = engine.search_metered(&genome, &guides, 2, &mut m).unwrap();
        assert_eq!(hits, truth, "degraded run must still match the oracle ({spec})");
        assert!(m.counters.degraded_paths > 0, "degradation is counted ({spec})");
        assert!(m.counters.faults_injected > 0, "fault is metered ({spec})");
    }
}

/// The stage the accelerator front is expected to deploy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// The shared seed automaton (batched front only).
    MultiSeed,
    /// The PAM-anchor prefilter.
    Anchored,
    /// The wrapped engine itself.
    Pure,
}

/// The differential contract of the accelerator front: whichever stage
/// the cascade lands on — seed automaton, PAM anchor, or the wrapped
/// engine after an unanchorable guide set or a failed build — the hits
/// are the pure engine's, `windows_scanned` is the pure Cas-OFFinder
/// scan's, and `degraded_paths` counts exactly the injected builds. The
/// anchor stage is PAM-exact, so every counter it keeps equals the pure
/// Cas-OFFinder scan's; a fallback keeps the wrapped engine's counters;
/// the seed automaton only removes anchor work.
#[test]
fn accelerator_front_matches_its_pure_engine() {
    use Stage::{Anchored, MultiSeed, Pure};
    // Sites are planted up to 2 mismatches and searched at k = 1, so the
    // budget boundary itself is under test.
    let (genome, ngg) = workload(212, 2);
    let pamless: Vec<Guide> =
        ngg.iter().map(|g| Guide::new(g.id(), g.spacer().clone(), Pam::none()).unwrap()).collect();
    let hyperscan = BitParallelEngine::new();
    let cas_offinder = CasOffinderCpuEngine::new();
    let fronts: [(&str, &dyn Engine, &dyn Engine); 3] = [
        ("hyperscan", &Accelerated::new(hyperscan), &hyperscan),
        ("cas-offinder", &Accelerated::new(cas_offinder), &cas_offinder),
        ("hyperscan-batched", &Accelerated::batched(hyperscan), &hyperscan),
    ];
    // (front, anchorable guides?, spec, expected stage, injected builds)
    let cases = [
        ("hyperscan", true, "", Anchored, 0),
        ("hyperscan", true, "prefilter.build=error", Pure, 1),
        ("hyperscan", false, "", Pure, 0),
        ("hyperscan", false, "prefilter.build=error", Pure, 1),
        ("cas-offinder", true, "", Anchored, 0),
        ("cas-offinder", true, "prefilter.build=error", Pure, 1),
        ("cas-offinder", false, "", Pure, 0),
        ("cas-offinder", false, "prefilter.build=error", Pure, 1),
        ("hyperscan-batched", true, "", MultiSeed, 0),
        ("hyperscan-batched", true, "prefilter.build=error", MultiSeed, 0),
        ("hyperscan-batched", true, "multiseed.build=panic", Anchored, 1),
        ("hyperscan-batched", true, "multiseed.build=panic;prefilter.build=error", Pure, 2),
        ("hyperscan-batched", false, "", Pure, 0),
        ("hyperscan-batched", false, "multiseed.build=panic", Pure, 1),
    ];
    let run = |engine: &dyn Engine, guides: &[Guide]| {
        let mut m = SearchMetrics::default();
        let hits = engine.search_metered(&genome, guides, 1, &mut m).unwrap();
        (hits, m)
    };
    for (front_name, anchorable, spec, stage, injected) in cases {
        let (_, front, pure) = fronts.iter().find(|(name, ..)| *name == front_name).unwrap();
        let guides = if anchorable { &ngg } else { &pamless };
        let (pure_hits, pure_m) = run(*pure, guides);
        assert_eq!(pure_hits, ScalarEngine::new().search(&genome, guides, 1).unwrap());
        let cas_m = run(&cas_offinder, guides).1;
        let case = format!("{front_name}, anchorable={anchorable}, {spec:?}");

        let _scenario = FailScenario::setup(spec);
        let (hits, m) = run(*front, guides);
        assert_eq!(hits, pure_hits, "{case}: hits");
        assert_eq!(m.counters.degraded_paths, injected, "{case}: degraded_paths");
        assert_eq!(m.counters.faults_injected, injected, "{case}: faults_injected");
        let mut counters = m.counters;
        counters.degraded_paths = 0;
        counters.faults_injected = 0;
        assert_eq!(counters.windows_scanned, cas_m.counters.windows_scanned, "{case}: windows");
        match stage {
            MultiSeed => {
                assert!(counters.multiseed_candidates > 0, "{case}: seed stage ran");
                assert!(counters.pam_anchors_tested <= cas_m.counters.pam_anchors_tested, "{case}");
            }
            Anchored => {
                assert_eq!(counters, cas_m.counters, "{case}: anchor stage counters");
                let rate = m.gauge("anchor_rate").expect("anchor gauge");
                assert!((rate - 0.125).abs() < 1e-12, "{case}: NGG anchor rate {rate}");
            }
            Pure => {
                assert_eq!(counters, pure_m.counters, "{case}: fallback counters");
                assert_eq!(m.gauge("anchor_rate"), None, "{case}: no anchor gauge");
            }
        }
    }
}

#[test]
fn io_site_faults_surface_as_structured_errors() {
    {
        let _scenario = FailScenario::setup("fasta.read=error");
        let err = fasta::read_genome(b">c\nACGT\n".as_slice()).unwrap_err();
        assert!(err.to_string().contains("fasta.read"), "{err}");
    }
    {
        let _scenario = FailScenario::setup("guides.read=error");
        let err = guide_io::read_guides(b"g1 GATTACAGATTACAGATTAC NGG\n".as_slice()).unwrap_err();
        assert!(err.to_string().contains("guides.read"), "{err}");
    }
}

/// The all-sites sweep: every known failpoint armed in one scenario
/// (delays on the I/O parse sites, capped panics on the chunk site,
/// persistent faults on both build sites), driven through the top-level
/// API exactly as the CLI does. The run must heal to the clean hit set.
#[test]
fn every_site_armed_at_once_heals_to_clean_hits() {
    let (genome, guides) = workload(205, 2);
    let clean = OffTargetSearch::new(genome.clone())
        .guides(guides.clone())
        .max_mismatches(2)
        .platform(Platform::CpuBitParallel)
        .threads(4)
        .run()
        .unwrap();

    let _scenario = FailScenario::setup(
        "parallel.chunk=panic:1.0,17,2;prefilter.build=error;multiseed.build=panic;\
         fasta.read=delay1;guides.read=delay1",
    );
    // Round-trip the inputs through the parsers so the I/O sites fire.
    let parse_fires_before = failpoint::thread_fired();
    let mut fa = Vec::new();
    fasta::write_genome(&mut fa, &genome, 70).unwrap();
    let reread_genome = fasta::read_genome(fa.as_slice()).unwrap();
    let mut gtext = Vec::new();
    guide_io::write_guides(&mut gtext, &guides).unwrap();
    let reread_guides = guide_io::read_guides(gtext.as_slice()).unwrap();
    let parse_fires = failpoint::thread_fired() - parse_fires_before;

    let report = OffTargetSearch::new(reread_genome)
        .guides(reread_guides)
        .max_mismatches(2)
        .platform(Platform::CpuBitParallel)
        .threads(4)
        .run()
        .unwrap();

    assert_eq!(report.hits(), clean.hits(), "faulted pipeline must heal to clean hits");
    let counters = &report.metrics().counters;
    assert_eq!(counters.chunks_retried, 2);
    assert_eq!(counters.chunks_failed, 0);
    assert!(counters.degraded_paths > 0, "prefilter fallback taken");
    // Both delays, both chunk panics, and the build fault all fired.
    let fired = parse_fires + counters.faults_injected;
    assert!(fired >= 5, "fired {fired}");
}

/// The rotating CI leg: probabilistic chunk faults stream from a per-run
/// `FAULT_SEED` (CI passes the run id; any fixed default locally). The
/// fire cap (6) is kept below what the retry budget can absorb for even
/// a single chunk (8 re-queues), so healing is *guaranteed* whatever the
/// seed — a hit-set divergence here is a real bug, replayable from the
/// seed in the failure message.
#[test]
fn rotating_seed_probabilistic_faults_heal() {
    let seed: u64 =
        std::env::var("FAULT_SEED").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0xFA017);
    let (genome, guides) = workload(207, 2);
    let engine = Accelerated::new(BitParallelEngine::new());
    let clean = engine.search(&genome, &guides, 2).unwrap();

    let _scenario = FailScenario::setup(&format!("parallel.chunk=panic:0.3,{seed},6"));
    let mut m = SearchMetrics::default();
    let hits = scan(&engine, (&genome, &guides), 2, 4, 8, &mut m)
        .unwrap_or_else(|e| panic!("FAULT_SEED={seed}: healing failed: {e}"));
    assert_eq!(hits, clean, "FAULT_SEED={seed}: healed hits diverge from clean run");
    assert_eq!(m.counters.chunks_failed, 0, "FAULT_SEED={seed}");
    assert_eq!(m.counters.chunks_retried, m.counters.faults_injected, "FAULT_SEED={seed}");
}

#[test]
fn retry_budget_zero_is_fail_fast_but_still_structured() {
    let (genome, guides) = workload(206, 1);
    let _scenario = FailScenario::setup("parallel.chunk=error");
    let engine = Accelerated::new(BitParallelEngine::new());
    let err =
        scan(&engine, (&genome, &guides), 1, 2, 0, &mut SearchMetrics::default()).unwrap_err();
    let SearchError::Partial { failures, .. } = err else { panic!("expected Partial") };
    assert!(failures.iter().all(|f| f.attempts == 1), "no retries at budget zero");
}
