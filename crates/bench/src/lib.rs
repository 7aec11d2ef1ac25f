//! Benchmark harness library: shared workloads, table rendering, and the
//! experiment implementations behind the `experiments` binary.
//!
//! Every table and figure of the paper's evaluation maps to one function
//! in [`experiments`] (see `DESIGN.md` §5 for the index); the binary
//! regenerates the full tables, including the modeled accelerator rows,
//! and `bench_smoke` gates the measured-CPU rows against a committed
//! baseline.

pub mod experiments;
pub mod table;
pub mod workloads;

/// Scales the online buckets of a modeled timing linearly to a larger
/// genome — all platform models are linear in input size, so a table for
/// a 3.1 Gbp human-scale run can be produced from a smaller measured
/// workload (documented in EXPERIMENTS.md wherever used).
pub fn extrapolate(
    timing: crispr_model::TimingBreakdown,
    factor: f64,
) -> crispr_model::TimingBreakdown {
    crispr_model::TimingBreakdown {
        config_s: timing.config_s,
        transfer_s: timing.transfer_s * factor,
        kernel_s: timing.kernel_s * factor,
        report_s: timing.report_s * factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_model::TimingBreakdown;

    #[test]
    fn extrapolate_scales_online_only() {
        let t = TimingBreakdown { config_s: 1.0, transfer_s: 2.0, kernel_s: 3.0, report_s: 4.0 };
        let x = extrapolate(t, 10.0);
        assert_eq!(x.config_s, 1.0);
        assert_eq!(x.kernel_s, 30.0);
        assert_eq!(x.online_s(), 90.0);
    }
}
