//! CPU off-target search engines: the automata-based approaches and the
//! published-tool baselines, all functionally interchangeable behind
//! [`Engine`].
//!
//! | Engine | Stands in for | Algorithm |
//! |---|---|---|
//! | [`ScalarEngine`] | ground truth | per-window IUPAC scoring (slowest, obviously correct) |
//! | [`CasOffinderCpuEngine`] | Cas-OFFinder (CPU side) | PAM-first check + 2-bit packed spacer compare with early exit |
//! | [`CasotEngine`] | CasOT | PAM-anchored scan with seed/total mismatch split |
//! | [`BitParallelEngine`] | HyperScan (single thread) | multi-pattern bit-parallel Hamming shift-and, k+1 registers |
//! | [`NfaEngine`] | direct automata execution (what iNFAnt2 runs) | frontier simulation of the compiled mismatch automata |
//! | [`DfaEngine`] | HyperScan's DFA mode | subset-constructed DFA scan (fails loudly past its state budget) |
//! | [`PigeonholeEngine`] | index-based filtration tools | exact-seed q-gram filtration + verification |
//! | [`IndelEngine`] / [`MyersMatcher`] | CasOT's indel mode | Myers bit-vector edit distance with PAM re-check |
//!
//! Every engine returns the same normalized [`crispr_guides::Hit`] set on the same
//! inputs; the integration suite enforces this pairwise.
//!
//! One engine has a batched form: [`BitParallelEngine::batched`] compiles
//! the whole guide set into the shared seed automaton of [`multiseed`],
//! so one pass serves every guide, and falls back to the per-guide
//! bit-parallel path when the set does not admit it. The baselines stay
//! per-guide, in the form the paper compares against.
//!
//! Searches are split into a compile phase and a scan phase:
//! [`Engine::prepare`] lowers guides × budget once into a reusable
//! [`PreparedSearch`], whose [`PreparedSearch::scan_slice`] (or, for an
//! on-disk index, [`PreparedSearch::scan_packed`]) runs against any
//! number of genome chunks. One driver deploys that split:
//! [`run_scan`] walks a [`GenomeSource`] — borrowed contigs or an index
//! scanned in place — in overlapping chunks on the threads, retry budget
//! and cancel token of a [`ScanDeployment`], with per-chunk panic
//! isolation at any thread count; [`run_search`] adds the one-time
//! compile in front. Callers holding a cached compile call [`run_scan`]
//! directly. Engines whose guide
//! sets carry a selective PAM additionally front their scans with the
//! shared PAM-anchor prefilter (see [`crispr_genome::pamindex`]); the
//! `without_prefilter` constructors expose the unfiltered baselines.
//!
//! ```
//! use crispr_engines::{BitParallelEngine, Engine, ScalarEngine};
//! use crispr_genome::synth::SynthSpec;
//! use crispr_guides::genset;
//!
//! let genome = SynthSpec::new(20_000).seed(1).generate();
//! let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 2);
//! let fast = BitParallelEngine::new().search(&genome, &guides, 3)?;
//! let truth = ScalarEngine::new().search(&genome, &guides, 3)?;
//! assert_eq!(fast, truth);
//! # Ok::<(), crispr_engines::EngineError>(())
//! ```

#![warn(missing_docs)]

mod bitparallel;
mod cancel;
mod casot;
mod degrade;
mod engine;
mod error;
pub mod multiseed;
mod myers;
mod naive;
mod nfa;
mod offdfa;
mod pigeonhole;
mod prefilter;
mod scan;
pub mod simd;

pub use bitparallel::BitParallelEngine;
pub use cancel::{CancelKind, CancelToken};
pub use casot::CasotEngine;
pub use engine::{Engine, PreparedSearch, ScalarEngine};
pub use error::{ChunkFailure, SearchError};

/// Historic alias for [`SearchError`], kept for source compatibility:
/// engine signatures predate the unified taxonomy.
pub type EngineError = SearchError;
pub use multiseed::MultiSeedScan;
pub use myers::{IndelEngine, MyersMatcher};
pub use naive::CasOffinderCpuEngine;
pub use nfa::{reports_to_hits, NfaEngine};
pub use offdfa::DfaEngine;
pub use pigeonhole::PigeonholeEngine;
pub use scan::{
    run_scan, run_search, GenomeSource, Reference, ScanDeployment, DEFAULT_CHUNK_RETRIES,
};
pub use simd::SimdBackend;
