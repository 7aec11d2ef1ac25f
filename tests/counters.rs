//! Counter-semantics regressions: `SearchMetrics` counters must mean the
//! same thing whichever path produced them. The batched (shared seed
//! automaton) and per-guide paths run the same workload and their
//! counters are checked against each other: identical where the semantics
//! promise identity (`windows_scanned`, `candidates_verified`, hits),
//! subset-ordered where the batched path provably does less work
//! (`pam_anchors_tested`, `early_exits`), and path-exclusive for the
//! multiseed meters. The parallel deployment must neither copy genome
//! bytes nor change any work counter relative to the serial scan.

use crispr_offtarget::engines::{
    run_search, Accelerated, BitParallelEngine, Engine, ScanDeployment,
};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::Genome;
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{Guide, Hit, Pam};
use crispr_offtarget::model::SearchMetrics;

const K: usize = 3;

fn workload() -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(60_000).seed(301).generate();
    let guides = genset::random_guides(4, 20, &Pam::ngg(), 302);
    let (genome, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(K, 3), 303);
    (genome, guides)
}

fn run(engine: &dyn Engine, genome: &Genome, guides: &[Guide]) -> (Vec<Hit>, SearchMetrics) {
    run_on(engine, genome, guides, 1)
}

/// [`run`] with the scan fanned out over `threads` workers.
fn run_on(
    engine: &dyn Engine,
    genome: &Genome,
    guides: &[Guide],
    threads: usize,
) -> (Vec<Hit>, SearchMetrics) {
    let mut m = SearchMetrics::default();
    let deployment = ScanDeployment::new(threads);
    let hits =
        run_search(engine, guides, K, genome.into(), &deployment, &mut m).expect("engine runs");
    (hits, m)
}

#[test]
fn batched_counters_are_consistent_with_per_guide() {
    let (genome, guides) = workload();
    let (hits_pg, m_pg) = run(&Accelerated::new(BitParallelEngine::new()), &genome, &guides);
    let (hits_b, m_b) = run(&Accelerated::batched(BitParallelEngine::new()), &genome, &guides);
    assert_eq!(hits_b, hits_pg, "hit sets must be identical");
    // Both paths enumerate every window of every long-enough contig.
    assert_eq!(m_b.counters.windows_scanned, m_pg.counters.windows_scanned);
    // `candidates_verified` counts within-budget verifications — the
    // hit count — on both paths, so it is exactly equal.
    assert_eq!(m_b.counters.candidates_verified, m_pg.counters.candidates_verified);
    assert_eq!(m_b.counters.candidates_verified, m_b.counters.raw_hits);
    // The seed automaton only ever *removes* (window, pattern) pairs
    // from the anchor path's work, never adds.
    assert!(
        m_b.counters.pam_anchors_tested <= m_pg.counters.pam_anchors_tested,
        "batched {} > per-guide {}",
        m_b.counters.pam_anchors_tested,
        m_pg.counters.pam_anchors_tested
    );
    assert!(m_b.counters.pam_anchors_tested > 0);
    assert!(m_b.counters.early_exits <= m_pg.counters.early_exits);
    // Multiseed meters are exclusive to the batched path.
    assert!(m_b.counters.multiseed_candidates >= m_b.counters.multiseed_positions);
    assert!(m_b.counters.multiseed_positions > 0);
    assert_eq!(m_pg.counters.multiseed_candidates, 0);
    assert_eq!(m_pg.counters.multiseed_positions, 0);
    // Derived gauge and compile-time gauges surface on the batched run.
    assert!(m_b.gauge("guides_per_candidate").expect("gauge present") >= 1.0);
    assert!(m_b.gauge("seed_automaton_states").expect("gauge present") >= 1.0);
    assert_eq!(m_pg.gauge("guides_per_candidate"), None);
}

#[test]
fn parallel_batched_preserves_counters_and_copies_nothing() {
    let (genome, guides) = workload();
    let batched = Accelerated::batched(BitParallelEngine::new());
    let (serial_hits, serial_m) = run(&batched, &genome, &guides);
    for threads in [2, 5] {
        let (par_hits, par_m) = run_on(&batched, &genome, &guides, threads);
        assert_eq!(par_hits, serial_hits, "threads={threads}");
        // Chunk windows partition the contig windows exactly, so every
        // work counter — including the multiseed meters — is invariant
        // under chunking. (`raw_hits` equality doubles as the
        // no-duplicate-at-boundary regression.)
        assert_eq!(par_m.counters, serial_m.counters, "threads={threads}");
        // Workers scan borrowed slices; any copy is a regression.
        assert_eq!(par_m.counters.bytes_copied, 0, "threads={threads}");
        // The derived gauge is computed after the merge, from the same
        // counters, so it matches the serial value exactly.
        assert_eq!(
            par_m.gauge("guides_per_candidate"),
            serial_m.gauge("guides_per_candidate"),
            "threads={threads}"
        );
    }
}

#[test]
fn parallel_per_guide_still_copies_nothing() {
    let (genome, guides) = workload();
    let pure = BitParallelEngine::new();
    for engine in [&Accelerated::new(pure) as &dyn Engine, &pure] {
        let (_, m) = run_on(engine, &genome, &guides, 3);
        assert_eq!(m.counters.bytes_copied, 0);
        assert_eq!(m.parallel.as_ref().expect("parallel stats").worker_phases.guide_compile_s, 0.0);
    }
}
