//! Indel-tolerant off-target search — the extension beyond pure
//! mismatches (CasOT's indel mode; paper §3's Levenshtein automata).
//!
//! DNA "bulges" (an extra or missing base between guide and protospacer)
//! are a real off-target mechanism that Hamming-distance search cannot
//! see. This example plants a bulged site and shows that the mismatch
//! engine misses it while the edit-distance engine (Myers bit-vector, the
//! CPU lowering of the Levenshtein automaton) finds it.
//!
//! ```text
//! cargo run --release --example indel_search
//! ```

use crispr_offtarget::engines::{Accelerated, BitParallelEngine, Engine, IndelEngine};
use crispr_offtarget::genome::synth::SynthSpec;
use crispr_offtarget::genome::DnaSeq;
use crispr_offtarget::guides::{Guide, Pam};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let guide = Guide::new("g1", "GACGCATAAAGATGAGACGC".parse::<DnaSeq>()?, Pam::ngg())?;

    // Build a genome and splice in a site with one DELETED spacer base
    // (position 10 missing) followed by a valid TGG PAM.
    let genome = SynthSpec::new(500_000).seed(99).generate();
    let mut bases = genome.contigs()[0].seq().clone().into_bases();
    let mut bulged: DnaSeq = "GACGCATAAA".parse()?; // first 10 bases
    bulged.extend_from_seq(&"ATGAGACGC".parse()?); // bases 11.. (10 deleted)
    bulged.extend_from_seq(&"TGG".parse()?);
    let at = 123_456;
    for (i, b) in bulged.iter().enumerate() {
        bases[at + i] = b;
    }
    let genome = crispr_offtarget::genome::Genome::from_seq(DnaSeq::from_bases(bases));

    println!("planted a 1-deletion (bulged) site at position {at}\n");

    // Mismatch-only search at k=3: the frameshift makes the site invisible.
    let mismatch_hits = Accelerated::new(BitParallelEngine::new()).search(
        &genome,
        std::slice::from_ref(&guide),
        3,
    )?;
    let seen = mismatch_hits.iter().any(|h| (h.pos as usize).abs_diff(at) <= 2);
    println!("mismatch search (k=3): {} hits, bulged site found: {}", mismatch_hits.len(), seen);

    // Edit-distance search at k=1: one deletion is one edit.
    let indel_hits = IndelEngine::new().search(&genome, &[guide], 1);
    let found: Vec<_> = indel_hits.iter().filter(|h| (h.pos as usize).abs_diff(at) <= 2).collect();
    println!("edit-distance search (k=1 edit): {} hits total", indel_hits.len());
    for hit in &found {
        println!("  bulged site recovered: {hit}");
    }
    assert!(!found.is_empty(), "the indel engine must recover the planted bulge");
    Ok(())
}
