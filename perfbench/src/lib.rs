//! End-to-end and per-layer benchmark of the `offtarget` program.
//!
//! Three workloads (see `README.md`) drive the real binary — `search`
//! from FASTA, `search` from an index, and the `serve` daemon — on
//! inputs generated in-process from a seed. Untraced runs report the
//! end-to-end metrics; traced runs wrap `crispr_trace` spans around the
//! calls the benchmark makes into each layer's public functions and
//! report the per-layer metrics.

pub mod batch;
pub mod calib;
pub mod inputs;
pub mod layers;
pub mod outcome;
pub mod program;
pub mod serve;
pub mod stats;

pub use inputs::{Shape, Workload};
pub use outcome::Outcome;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything one benchmark invocation needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Checkout root: the program is built from here and every file the
    /// benchmark writes stays under it.
    pub root: PathBuf,
    /// Working area under the root (`.perfbench/`).
    pub work: PathBuf,
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    /// Measured time per run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl RunConfig {
    /// The per-invocation scratch directory (removed when the run ends).
    pub fn run_dir(&self) -> PathBuf {
        self.work.join("runs").join(format!(
            "{}-{}-{}-{}",
            self.workload.name(),
            self.seed,
            if self.trace { "trace" } else { "plain" },
            std::process::id()
        ))
    }
}

/// Runs one workload end to end on its seeded inputs. Expects
/// `program` to point at a built `offtarget` binary.
pub fn run(cfg: &RunConfig, program: &program::Program) -> Result<Outcome, String> {
    let inputs = inputs::prepare(cfg)?;
    run_inputs(cfg, program, &inputs)
}

/// Runs one workload on the given inputs.
pub fn run_inputs(
    cfg: &RunConfig,
    program: &program::Program,
    inputs: &inputs::Inputs,
) -> Result<Outcome, String> {
    let run_dir = cfg.run_dir();
    recreate(&run_dir)?;
    let result = match cfg.workload {
        Workload::BatchFasta | Workload::BatchIndexDense => {
            batch::run(cfg, program, inputs, &run_dir)
        }
        Workload::ServeMixed => serve::run(cfg, program, inputs, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut outcome = result?;
    outcome.inputs = inputs.properties.clone();
    Ok(outcome)
}

/// Removes and re-creates `dir`.
pub fn recreate(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Worker count the workloads use for `--threads` and client
/// connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
