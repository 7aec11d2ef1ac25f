//! High-level off-target search API — one entry point over every engine
//! and platform simulator in the workspace.
//!
//! * [`Platform`] — the eleven execution targets (seven measured CPU
//!   engines, two baselines among them, and four modeled accelerators),
//!   mirroring the paper's evaluation matrix;
//!   [`Platform::cpu_engine`] maps a measured one to its engine.
//! * [`OffTargetSearch`] — a builder assembling genome × guides × budget ×
//!   platform and producing a [`SearchReport`] of exact hits plus a
//!   [`crispr_model::TimingBreakdown`] (wall-clock for CPU engines,
//!   modeled for accelerators).
//! * [`HitWriter`] — the one serializer of hit rows (TSV and the JSON
//!   `hits` array), shared by the CLI and the serve daemon.
//! * [`validate`] — cross-platform equivalence checking (experiment E9):
//!   every platform must report the identical hit set.
//!
//! # Example
//!
//! ```
//! use crispr_core::{OffTargetSearch, Platform};
//! use crispr_genome::synth::SynthSpec;
//! use crispr_guides::{genset, Pam};
//!
//! let genome = SynthSpec::new(30_000).seed(7).generate();
//! let guides = genset::random_guides(3, 20, &Pam::ngg(), 8);
//! let report = OffTargetSearch::new(genome)
//!     .guides(guides)
//!     .max_mismatches(3)
//!     .platform(Platform::CpuBitParallel)
//!     .run()?;
//! println!("{} hits in {}", report.hits().len(), report.timing());
//! # Ok::<(), crispr_engines::EngineError>(())
//! ```

#![warn(missing_docs)]

mod output;
mod platform;
mod report;
mod search;
pub mod validate;

pub use output::HitWriter;
pub use platform::Platform;
pub use report::{SearchReport, Stop};
pub use search::OffTargetSearch;
