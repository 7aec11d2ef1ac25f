//! The accelerator front: the one place the filter cascade meets an
//! engine.
//!
//! A filter is a separate stage in front of an unchanged verifier, not a
//! flag inside each verifier. [`Accelerated`] wraps a pure engine — the
//! register machine of [`crate::BitParallelEngine`], the per-window probe
//! of [`crate::CasOffinderCpuEngine`] — and puts the shared cascade in
//! front of it:
//!
//! 1. in the batched form, the shared seed automaton of
//!    [`crate::multiseed`] (one pass serves every guide);
//! 2. the PAM-anchor prefilter of [`crate::prefilter`] (one bitwise
//!    anchor pass, packed verify at the candidates only);
//! 3. the wrapped engine's own compiled scan.
//!
//! `prepare` always compiles the wrapped engine first, so a guide set is
//! validated and rejected exactly as the bare engine would reject it.
//! The first stage that builds is deployed. An inapplicable stage (no
//! selective PAM, anchor rate too high) falls through silently; a failed
//! build (a fired failpoint or a panic) falls through too and counts in
//! `degraded_paths`. Every stage returns the hits of the bare engine, and
//! the anchor stage keeps its per-window counters, so the bare engine is
//! the ablation baseline of its front.

use crate::degrade::guarded_accel;
use crate::engine::{patterns, Engine, PreparedSearch};
use crate::multiseed::{MultiSeedPrepared, MultiSeedScan};
use crate::prefilter::AnchoredScan;
use crate::simd::SimdBackend;
use crate::EngineError;
use crispr_genome::pamindex::MaskView;
use crispr_genome::{Base, PackedView};
use crispr_guides::{Guide, Hit};
use crispr_model::SearchMetrics;

/// A pure engine behind the accelerator cascade; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Accelerated<E> {
    inner: E,
    batched: bool,
    simd: Option<SimdBackend>,
}

impl<E: Engine> Accelerated<E> {
    /// The per-guide front: PAM-anchor prefilter, then `inner`.
    pub fn new(inner: E) -> Accelerated<E> {
        Accelerated { inner, batched: false, simd: None }
    }

    /// The batched front: the shared seed automaton first, then the
    /// per-guide cascade of [`Accelerated::new`] for sets it cannot
    /// batch. Named after `inner` with a `-batched` suffix.
    pub fn batched(inner: E) -> Accelerated<E> {
        Accelerated { inner, batched: true, simd: None }
    }

    /// Forces the SIMD backend the accelerator kernels dispatch to; the
    /// default defers to `OFFTARGET_SIMD` and runtime detection (see
    /// [`crate::simd`]). An unavailable choice degrades to portable.
    pub fn with_simd(mut self, backend: SimdBackend) -> Accelerated<E> {
        self.simd = Some(backend);
        self
    }
}

impl<E: Engine> Engine for Accelerated<E> {
    fn name(&self) -> &'static str {
        if self.batched {
            crispr_trace::intern(&format!("{}-batched", self.inner.name()))
        } else {
            self.inner.name()
        }
    }

    fn prepare(&self, guides: &[Guide], k: usize) -> Result<Box<dyn PreparedSearch>, EngineError> {
        let pure = self.inner.prepare(guides, k)?;
        let site_len = pure.site_len();
        let pattern_list = patterns(guides);
        let backend = crate::simd::resolve(self.simd);
        let mut degraded = 0;
        let multiseed = if self.batched {
            guarded_accel("multiseed.build", &mut degraded, || {
                MultiSeedScan::build_with(&pattern_list, site_len, k, backend)
            })
        } else {
            None
        };
        let stage: Box<dyn PreparedSearch> = match multiseed {
            Some(scan) => Box::new(MultiSeedPrepared::new(scan)),
            None => match guarded_accel("prefilter.build", &mut degraded, || {
                AnchoredScan::build(&pattern_list, site_len, backend)
            }) {
                Some(scan) => Box::new(AnchoredPrepared { scan, site_len, k }),
                None => pure,
            },
        };
        Ok(Box::new(AcceleratedPrepared { stage, degraded }))
    }
}

/// The deployed stage plus the count of accelerator builds that failed
/// on the way to it.
struct AcceleratedPrepared {
    stage: Box<dyn PreparedSearch>,
    degraded: u64,
}

impl PreparedSearch for AcceleratedPrepared {
    fn site_len(&self) -> usize {
        self.stage.site_len()
    }

    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        self.stage.scan_slice(seq, out, m)
    }

    fn scan_packed(
        &self,
        packed: PackedView<'_>,
        masks: MaskView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        self.stage.scan_packed(packed, masks, out, m)
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.counters.degraded_paths += self.degraded;
        self.stage.record_gauges(m);
    }
}

/// The anchor stage: [`AnchoredScan`] at a fixed budget. Consumes the
/// index form in place (stored bases and anchor bitmaps, no copy).
struct AnchoredPrepared {
    scan: AnchoredScan,
    site_len: usize,
    k: usize,
}

impl PreparedSearch for AnchoredPrepared {
    fn site_len(&self) -> usize {
        self.site_len
    }

    fn scan_slice(
        &self,
        seq: &[Base],
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:anchored");
        self.scan.scan_slice(seq, self.k, out, m);
        Ok(())
    }

    fn scan_packed(
        &self,
        packed: PackedView<'_>,
        masks: MaskView<'_>,
        out: &mut Vec<Hit>,
        m: &mut SearchMetrics,
    ) -> Result<(), EngineError> {
        let _kernel = crispr_trace::span("kernel:anchored");
        self.scan.scan_packed(packed, masks, self.k, out, m);
        Ok(())
    }

    fn record_gauges(&self, m: &mut SearchMetrics) {
        m.set_gauge("anchor_rate", self.scan.rate());
        m.set_gauge("simd_backend", self.scan.backend().gauge());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{assert_engine_correct, planted_workload};
    use crate::engine::ScalarEngine;
    use crate::{BitParallelEngine, CasOffinderCpuEngine};
    use crispr_guides::Pam;

    #[test]
    fn fronts_match_oracle() {
        assert_engine_correct(&Accelerated::new(BitParallelEngine::new()), 22, 3);
        assert_engine_correct(&Accelerated::new(CasOffinderCpuEngine::new()), 12, 2);
        assert_engine_correct(&Accelerated::batched(BitParallelEngine::new()), 26, 3);
    }

    #[test]
    fn names_follow_the_wrapped_engine() {
        assert_eq!(Accelerated::new(BitParallelEngine::new()).name(), "bitparallel-hyperscan");
        assert_eq!(
            Accelerated::batched(BitParallelEngine::new()).name(),
            "bitparallel-hyperscan-batched"
        );
        assert_eq!(Accelerated::new(CasOffinderCpuEngine::new()).name(), "cas-offinder-cpu");
    }

    #[test]
    fn anchor_gauge_reports_pam_rate() {
        let (genome, guides, _) = planted_workload(33, 1);
        let mut m = SearchMetrics::default();
        let engine = Accelerated::new(BitParallelEngine::new());
        let _ = engine.search_metered(&genome, &guides, 1, &mut m).unwrap();
        // NGG both strands: 1/16 + 1/16.
        assert!((m.gauge("anchor_rate").unwrap() - 0.125).abs() < 1e-12);
        assert!(m.counters.pam_anchors_tested > 0);
        assert!(m.counters.early_exits > 0);
        // The anchored kernel takes no register steps.
        assert_eq!(m.counters.bit_steps, 0);
    }

    #[test]
    fn pamless_guides_fall_through_to_the_pure_engine() {
        let guide = Guide::new("g", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::none()).unwrap();
        let (genome, _, _) = planted_workload(32, 0);
        let guides = vec![guide];
        let truth = ScalarEngine::new().search(&genome, &guides, 1).unwrap();
        for engine in [
            Accelerated::new(BitParallelEngine::new()),
            Accelerated::batched(BitParallelEngine::new()),
        ] {
            let mut m = SearchMetrics::default();
            assert_eq!(engine.search_metered(&genome, &guides, 1, &mut m).unwrap(), truth);
            // The register machine ran: no anchor gauge, no seed traffic.
            assert_eq!(m.gauge("anchor_rate"), None);
            assert_eq!(m.counters.multiseed_candidates, 0);
            assert!(m.counters.bit_steps > 0);
            assert_eq!(m.counters.degraded_paths, 0);
        }
    }

    #[test]
    fn the_wrapped_engine_validates_first() {
        let guide = Guide::new("g", "A".repeat(70).parse().unwrap(), Pam::ngg()).unwrap();
        let genome = crispr_genome::Genome::from_seq("ACGT".parse().unwrap());
        assert!(matches!(
            Accelerated::batched(BitParallelEngine::new()).search(&genome, &[guide], 1),
            Err(EngineError::Unsupported(_))
        ));
    }
}
