//! Tier 8: the persistent on-disk genome index (`offtarget index`,
//! `--index`). The pinned contract: scanning an index — memory-mapped or
//! read into memory, whole contigs or bounded shards — yields the *same
//! bits* as scanning the genome the index was built from: identical hit
//! sets, identical engine counters, identical compile-time gauges.
//!
//! Two counters are exempt where the execution shape itself differs:
//! `bit_steps` under shard streaming (shards overlap by `site_len - 1`
//! symbols, and the register scan honestly re-steps the overlap, exactly
//! like the parallel deployment's chunks), and the timing histograms
//! (wall-clock, never compared). Index provenance gauges (`index_*`)
//! exist only on the indexed run and are excluded from gauge diffs.

use crispr_offtarget::core::{OffTargetSearch, Platform};
use crispr_offtarget::engines::{
    run_search, BitParallelEngine, CasOffinderCpuEngine, Engine, ScanDeployment,
};
use crispr_offtarget::genome::diskindex::GenomeIndex;
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::{DnaSeq, Genome};
use crispr_offtarget::guides::genset::{self, PlantPlan};
use crispr_offtarget::guides::{Guide, Hit, Pam};
use crispr_offtarget::model::SearchMetrics;
use std::path::PathBuf;
use std::sync::Arc;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offtarget-index-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Multi-contig genome with planted off-targets plus adversarial contigs
/// (empty, single-base, one-base-short-of-a-site) that must survive the
/// round trip without contributing hits.
fn workload() -> (Genome, Vec<Guide>) {
    let genome = SynthSpec::new(30_000).seed(881).contigs(3).generate();
    let guides = genset::random_guides(3, 20, &Pam::ngg(), 882);
    let (planted, _) = genset::plant_offtargets(genome, &guides, &PlantPlan::uniform(3, 2), 883);
    let mut genome = Genome::new();
    for contig in planted.contigs() {
        genome.add_contig(contig.name(), contig.seq().clone()).unwrap();
    }
    genome.add_contig("empty", DnaSeq::new()).unwrap();
    genome.add_contig("tiny", "A".parse().unwrap()).unwrap();
    genome.add_contig("short", "ACGTACGTACGTACGTACGTAC".parse().unwrap()).unwrap();
    (genome, guides)
}

/// Builds the index for `genome`, round-trips it through a file, and
/// reopens it through [`GenomeIndex::open`] (the mmap path).
fn opened_index(genome: &Genome, tag: &str) -> GenomeIndex {
    let path = scratch(tag).join("genome.idx");
    GenomeIndex::build(genome, 8).unwrap().write_to(&path).unwrap();
    GenomeIndex::open(&path).unwrap()
}

/// `engine` at k = 2 over `index` scanned in place on one thread, in
/// chunks of `shard` window starts when given (whole contigs otherwise).
fn scan_index(
    engine: &dyn Engine,
    index: &GenomeIndex,
    shard: Option<usize>,
    guides: &[Guide],
    m: &mut SearchMetrics,
) -> Vec<Hit> {
    let mut deployment = ScanDeployment::new(1);
    deployment.chunk_len = shard;
    run_search(engine, guides, 2, index.into(), &deployment, m).unwrap()
}

/// The production engine of a CPU platform.
fn cpu(platform: Platform) -> Box<dyn Engine> {
    platform.cpu_engine().expect("a measured CPU platform")
}

/// Gauges with the index-provenance entries (present only on indexed
/// runs) removed, for direct-vs-indexed comparison.
fn non_index_gauges(m: &SearchMetrics) -> Vec<(String, f64)> {
    m.gauges.iter().filter(|(name, _)| !name.starts_with("index_")).cloned().collect()
}

#[test]
fn indexed_scan_is_bit_identical_across_engines() {
    let (genome, guides) = workload();
    let index = opened_index(&genome, "engines");
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("bitparallel", cpu(Platform::CpuBitParallel)),
        ("bitparallel-unfiltered", Box::new(BitParallelEngine::new())),
        ("bitparallel-batched", cpu(Platform::CpuBitParallelBatched)),
        ("cas-offinder", cpu(Platform::CpuCasOffinder)),
        ("cas-offinder-unfiltered", Box::new(CasOffinderCpuEngine::new())),
        ("casot", cpu(Platform::CpuCasot)),
    ];
    for (name, engine) in engines {
        let mut direct_m = SearchMetrics::default();
        let mut indexed_m = SearchMetrics::default();
        let direct = engine.search_metered(&genome, &guides, 2, &mut direct_m).unwrap();
        let indexed = scan_index(engine.as_ref(), &index, None, &guides, &mut indexed_m);
        assert!(!direct.is_empty(), "{name}: workload plants hits");
        assert_eq!(direct, indexed, "{name}: hit sets differ");
        assert_eq!(direct_m.counters, indexed_m.counters, "{name}: counters differ");
        assert_eq!(direct_m.gauges, indexed_m.gauges, "{name}: gauges differ");
        assert_eq!(direct_m.engine, indexed_m.engine, "{name}: engine label differs");
    }
}

#[test]
fn shard_streaming_preserves_hits_and_window_counters() {
    let (genome, guides) = workload();
    let index = opened_index(&genome, "shards");
    for (name, engine) in [
        ("bitparallel", cpu(Platform::CpuBitParallel)),
        ("cas-offinder", cpu(Platform::CpuCasOffinder)),
    ] {
        let mut whole_m = SearchMetrics::default();
        let whole = scan_index(engine.as_ref(), &index, None, &guides, &mut whole_m);
        // Adversarial shard lengths: single-window, primes, the packed
        // word size and its neighbors, the mask word size and its
        // neighbors, larger than any contig.
        for shard in [1usize, 7, 31, 32, 33, 63, 64, 65, 997, 1 << 20] {
            let mut sharded_m = SearchMetrics::default();
            let sharded = scan_index(engine.as_ref(), &index, Some(shard), &guides, &mut sharded_m);
            assert_eq!(whole, sharded, "{name}: hits differ at shard={shard}");
            // Window starts partition exactly across shards, so every
            // per-window counter matches the whole-contig pass. The one
            // exception is bit_steps: shard slices overlap by
            // site_len - 1 symbols and the register scan re-steps them.
            let mut normalized = sharded_m.counters;
            assert!(
                normalized.bit_steps >= whole_m.counters.bit_steps,
                "{name}: sharded bit_steps lost work at shard={shard}"
            );
            normalized.bit_steps = whole_m.counters.bit_steps;
            assert_eq!(whole_m.counters, normalized, "{name}: counters differ at shard={shard}");
        }
    }
}

#[test]
fn platform_runs_from_index_match_direct_runs() {
    let (genome, guides) = workload();
    let index = Arc::new(opened_index(&genome, "platforms"));
    for platform in Platform::ALL.into_iter().filter(|p| !p.is_modeled()) {
        let direct = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .platform(platform)
            .run()
            .unwrap_or_else(|e| panic!("{platform}: {e}"));
        let indexed = OffTargetSearch::from_index(Arc::clone(&index))
            .guides(guides.clone())
            .max_mismatches(2)
            .platform(platform)
            .run()
            .unwrap_or_else(|e| panic!("{platform}: {e}"));
        assert_eq!(direct.hits(), indexed.hits(), "{platform}: hits differ");
        assert_eq!(direct.genome_len(), indexed.genome_len(), "{platform}: genome_len differs");
        assert_eq!(
            direct.metrics().counters,
            indexed.metrics().counters,
            "{platform}: counters differ"
        );
        assert_eq!(
            non_index_gauges(direct.metrics()),
            non_index_gauges(indexed.metrics()),
            "{platform}: gauges differ"
        );
        assert_eq!(indexed.metrics().gauge("index_cache"), Some(1.0), "{platform}");
        assert!(indexed.metrics().gauge("index_mmap").is_some(), "{platform}");
        assert_eq!(direct.metrics().gauge("index_cache"), None, "{platform}");
    }
}

#[test]
fn modeled_platforms_accept_an_index_source() {
    let (genome, guides) = workload();
    let index = Arc::new(opened_index(&genome, "modeled"));
    for platform in Platform::ALL.into_iter().filter(|p| p.is_modeled()) {
        let direct = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .platform(platform)
            .run()
            .unwrap_or_else(|e| panic!("{platform}: {e}"));
        let indexed = OffTargetSearch::from_index(Arc::clone(&index))
            .guides(guides.clone())
            .max_mismatches(2)
            .platform(platform)
            .run()
            .unwrap_or_else(|e| panic!("{platform}: {e}"));
        assert_eq!(direct.hits(), indexed.hits(), "{platform}: hits differ");
        // The modeled path materializes the genome from the index; the
        // unpack must show up in the load phase, not vanish.
        assert!(indexed.metrics().phases.genome_load_s > 0.0, "{platform}: unpack unattributed");
    }
}

#[test]
fn parallel_chunked_runs_from_index_match_direct_runs() {
    let (genome, guides) = workload();
    let index = Arc::new(opened_index(&genome, "parallel"));
    for threads in [2usize, 4] {
        let direct = OffTargetSearch::new(genome.clone())
            .guides(guides.clone())
            .max_mismatches(2)
            .threads(threads)
            .run()
            .unwrap();
        let indexed = OffTargetSearch::from_index(Arc::clone(&index))
            .guides(guides.clone())
            .max_mismatches(2)
            .threads(threads)
            .run()
            .unwrap();
        assert_eq!(direct.hits(), indexed.hits(), "threads={threads}: hits differ");
        assert_eq!(
            direct.metrics().counters,
            indexed.metrics().counters,
            "threads={threads}: counters differ"
        );
        assert!(!direct.is_partial() && !indexed.is_partial());
    }
}

#[test]
fn shard_and_whole_runs_agree_through_the_core_builder() {
    let (genome, guides) = workload();
    let index = Arc::new(opened_index(&genome, "core-shards"));
    let whole = OffTargetSearch::from_index(Arc::clone(&index))
        .guides(guides.clone())
        .max_mismatches(2)
        .run()
        .unwrap();
    for shard in [64usize, 1009] {
        let sharded = OffTargetSearch::from_index(Arc::clone(&index))
            .guides(guides.clone())
            .max_mismatches(2)
            .shard(Some(shard))
            .run()
            .unwrap();
        assert_eq!(whole.hits(), sharded.hits(), "shard={shard}");
        assert_eq!(sharded.metrics().gauge("index_shard_len"), Some(shard as f64));
    }
}

#[test]
fn read_fallback_agrees_with_mmap() {
    let (genome, guides) = workload();
    let path = scratch("fallback").join("genome.idx");
    GenomeIndex::build(&genome, 8).unwrap().write_to(&path).unwrap();
    let mapped = GenomeIndex::open(&path).unwrap();
    let owned = GenomeIndex::from_bytes(std::fs::read(&path).unwrap()).unwrap();
    assert!(!owned.mapped(), "from_bytes never maps");
    let engine = cpu(Platform::CpuBitParallel);
    let mut mapped_m = SearchMetrics::default();
    let mut owned_m = SearchMetrics::default();
    let from_mapped = scan_index(engine.as_ref(), &mapped, None, &guides, &mut mapped_m);
    let from_owned = scan_index(engine.as_ref(), &owned, None, &guides, &mut owned_m);
    assert_eq!(from_mapped, from_owned);
    assert_eq!(mapped_m.counters, owned_m.counters);
}

#[test]
fn cli_index_build_and_indexed_search_match_direct_tsv() {
    let dir = scratch("cli");
    let genome_path = dir.join("genome.fa");
    let guides_path = dir.join("guides.txt");
    let index_path = dir.join("genome.idx");
    let bin = env!("CARGO_BIN_EXE_offtarget");

    let synth = std::process::Command::new(bin)
        .args(["synth", "--len", "20000", "--seed", "884", "--contigs", "2", "-o"])
        .arg(&genome_path)
        .output()
        .unwrap();
    assert!(synth.status.success(), "{}", String::from_utf8_lossy(&synth.stderr));
    let gen_guides = std::process::Command::new(bin)
        .args(["guides", "--count", "3", "--seed", "885", "--from-genome"])
        .arg(&genome_path)
        .arg("-o")
        .arg(&guides_path)
        .output()
        .unwrap();
    assert!(gen_guides.status.success(), "{}", String::from_utf8_lossy(&gen_guides.stderr));
    let build = std::process::Command::new(bin)
        .arg("index")
        .arg("--genome")
        .arg(&genome_path)
        .arg("-o")
        .arg(&index_path)
        .output()
        .unwrap();
    assert!(build.status.success(), "{}", String::from_utf8_lossy(&build.stderr));

    let direct = std::process::Command::new(bin)
        .arg("search")
        .arg("--genome")
        .arg(&genome_path)
        .arg("--guides")
        .arg(&guides_path)
        .args(["-k", "2"])
        .output()
        .unwrap();
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    for extra in [&["-k", "2"][..], &["-k", "2", "--shard", "512"][..]] {
        let indexed = std::process::Command::new(bin)
            .arg("search")
            .arg("--index")
            .arg(&index_path)
            .arg("--guides")
            .arg(&guides_path)
            .args(extra)
            .output()
            .unwrap();
        assert!(indexed.status.success(), "{}", String::from_utf8_lossy(&indexed.stderr));
        assert_eq!(
            String::from_utf8_lossy(&direct.stdout),
            String::from_utf8_lossy(&indexed.stdout),
            "indexed TSV differs ({extra:?})"
        );
    }

    // --genome and --index together is a usage error, as is a bare
    // --shard; a corrupted byte is a typed load error, not a panic.
    let both = std::process::Command::new(bin)
        .arg("search")
        .arg("--genome")
        .arg(&genome_path)
        .arg("--index")
        .arg(&index_path)
        .arg("--guides")
        .arg(&guides_path)
        .output()
        .unwrap();
    assert!(!both.status.success());
    assert!(String::from_utf8_lossy(&both.stderr).contains("mutually exclusive"));
    let mut bytes = std::fs::read(&index_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let corrupt_path = dir.join("corrupt.idx");
    std::fs::write(&corrupt_path, &bytes).unwrap();
    let corrupt = std::process::Command::new(bin)
        .arg("search")
        .arg("--index")
        .arg(&corrupt_path)
        .arg("--guides")
        .arg(&guides_path)
        .output()
        .unwrap();
    assert!(!corrupt.status.success());
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt") || stderr.contains("truncated"),
        "untyped index failure: {stderr}"
    );
}
