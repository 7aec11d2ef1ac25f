//! DNA sequence substrate for automata-based CRISPR/Cas9 off-target search.
//!
//! This crate provides the genomic foundation that every engine and platform
//! simulator in the workspace consumes:
//!
//! * [`Base`] — the four-letter DNA alphabet, and [`IupacCode`] — the 16-code
//!   IUPAC ambiguity alphabet used by PAM motifs such as `NGG` or `NNGRRT`.
//! * [`DnaSeq`] — an owned, validated DNA sequence with reverse-complement and
//!   slicing support, and [`PackedSeq`] — the 2-bit-packed representation used
//!   by the brute-force (Cas-OFFinder-class) comparison kernels.
//! * [`pamindex`] — the PAM-anchor prefilter: one linear pass over a packed
//!   slice yielding a bitmask of candidate site starts, shared by the CPU
//!   engines as a skip-ahead, and [`kmer`] — q-gram indexing for
//!   filtration-style engines.
//! * [`fasta`] — a minimal FASTA reader/writer, and [`diskindex`] — a
//!   versioned, checksummed on-disk serialization of the packed bases,
//!   anchor bitmaps, and q-gram tables that scans mmap instead of
//!   re-deriving.
//! * [`Genome`] — a set of named contigs with window iteration over both
//!   strands.
//! * [`synth`] — synthetic genome generation with controllable GC content,
//!   repeat structure, and *planted* off-target sites that serve as exact
//!   ground truth for correctness tests (our substitute for hg19/GRCh38,
//!   which is not available in this environment).
//!
//! # Example
//!
//! ```
//! use crispr_genome::DnaSeq;
//!
//! let seq: DnaSeq = "ACGTACGT".parse()?;
//! assert_eq!(seq.revcomp().to_string(), "ACGTACGT"); // palindromic
//! assert_eq!(seq.len(), 8);
//! # Ok::<(), crispr_genome::GenomeError>(())
//! ```

#![warn(missing_docs)]

mod base;
pub mod diskindex;
mod error;
pub mod fasta;
mod genome;
pub mod kmer;
mod packed;
pub mod pamindex;
mod seq;
pub mod synth;

pub use base::{Base, IupacCode};
pub use error::GenomeError;
pub use genome::{Contig, Genome, Strand, WindowIter};
pub use packed::{hamming_lanes, PackedSeq, PackedView};
pub use seq::DnaSeq;
