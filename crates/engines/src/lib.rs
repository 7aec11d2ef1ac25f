//! CPU off-target search engines: the automata-based approaches and the
//! published-tool baselines, all functionally interchangeable behind
//! [`Engine`].
//!
//! | Engine | Stands in for | Algorithm |
//! |---|---|---|
//! | [`ScalarEngine`] | ground truth | per-window IUPAC scoring (slowest, obviously correct) |
//! | [`CasOffinderCpuEngine`] | Cas-OFFinder (CPU side) | per-window PAM probe + 2-bit packed spacer compare with early exit |
//! | [`CasotEngine`] | CasOT | PAM-anchored scan with seed/total mismatch split |
//! | [`BitParallelEngine`] | HyperScan (single thread) | multi-pattern bit-parallel Hamming shift-and, k+1 registers |
//! | [`NfaEngine`] | direct automata execution (what iNFAnt2 runs) | frontier simulation of the compiled mismatch automata |
//! | [`DfaEngine`] | HyperScan's DFA mode | subset-constructed DFA scan (fails loudly past its state budget) |
//! | [`IndelEngine`] / [`MyersMatcher`] | CasOT's indel mode | Myers bit-vector edit distance with PAM re-check |
//! | [`Accelerated`] | the production front | multiseed → PAM-anchor → wrapped engine cascade |
//!
//! Every engine returns the same normalized [`crispr_guides::Hit`] set on the same
//! inputs; the integration suite enforces this pairwise.
//!
//! The algorithm engines are kept in their pure form, as the paper
//! compares them. The filters live in one separate front:
//! [`Accelerated`] wraps a pure engine and deploys, in order, the shared
//! seed automaton of [`multiseed`] (its [`Accelerated::batched`] form
//! only, one pass serving every guide), the shared PAM-anchor prefilter
//! (one bitwise anchor pass, see [`crispr_genome::pamindex`], with a
//! packed verify at the candidates), and finally the wrapped engine's
//! own scan — the first stage that applies to the guide set. Every stage
//! returns the wrapped engine's hits, so the bare engine is the ablation
//! baseline and the front is the production path. CasOT keeps its own
//! anchor pass (its seed-split verify is not the shared packed verify),
//! switched off by [`CasotEngine::without_prefilter`].
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
//! directly.
//!
//! ```
//! use crispr_engines::{Accelerated, BitParallelEngine, Engine, ScalarEngine};
//! use crispr_genome::synth::SynthSpec;
//! use crispr_guides::genset;
//!
//! let genome = SynthSpec::new(20_000).seed(1).generate();
//! let guides = genset::random_guides(2, 20, &crispr_guides::Pam::ngg(), 2);
//! let pure = BitParallelEngine::new().search(&genome, &guides, 3)?;
//! let fast = Accelerated::new(BitParallelEngine::new()).search(&genome, &guides, 3)?;
//! let truth = ScalarEngine::new().search(&genome, &guides, 3)?;
//! assert_eq!(pure, truth);
//! assert_eq!(fast, truth);
//! # Ok::<(), crispr_engines::EngineError>(())
//! ```

#![warn(missing_docs)]

mod accel;
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
mod prefilter;
mod scan;
pub mod simd;

pub use accel::Accelerated;
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
pub use scan::{
    run_scan, run_search, GenomeSource, Reference, ScanDeployment, DEFAULT_CHUNK_RETRIES,
};
pub use simd::SimdBackend;
