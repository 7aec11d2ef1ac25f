//! Graceful degradation for accelerator builds.
//!
//! The batched seed automaton and the PAM-anchor prefilter are
//! *optimizations*: the [`crate::Accelerated`] front that deploys them
//! (and CasOT, for its own anchor pass) keeps a slower,
//! unconditionally-correct path underneath (the per-guide anchor pass,
//! the pure engine, the plain window scan). A failure while building one
//! of them — injected through a failpoint or real — therefore never needs
//! to fail the search: the build runs behind an unwind fence and a
//! failure simply selects the fallback path, counted in
//! `degraded_paths` so operators can see a search ran slower than it
//! should have.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Renders a caught panic payload as a human-readable cause string,
/// recognizing the typed failpoint payload alongside ordinary string
/// panics.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(injected) = payload.downcast_ref::<crispr_failpoint::InjectedPanic>() {
        return format!("injected panic at failpoint {:?}", injected.site);
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return format!("panic: {s}");
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return format!("panic: {s}");
    }
    "panic: <non-string payload>".to_string()
}

/// Runs an accelerator builder behind the failpoint site `site` and an
/// unwind fence.
///
/// Returns the builder's own result (`None` already means "optimization
/// inapplicable" for these builders, which is a normal outcome, not
/// degradation). If the site fires or the builder panics, returns `None`
/// and bumps `degraded` — the caller falls back to its unaccelerated
/// path and surfaces the count through `degraded_paths`.
pub(crate) fn guarded_accel<T>(
    site: &str,
    degraded: &mut u64,
    build: impl FnOnce() -> Option<T>,
) -> Option<T> {
    let _span = crispr_trace::span_dyn(&format!("build:{site}"));
    match catch_unwind(AssertUnwindSafe(|| {
        crispr_failpoint::breaker(site);
        build()
    })) {
        Ok(built) => built,
        Err(payload) => {
            *degraded += 1;
            crispr_trace::instant_dyn(&format!("degrade:{site}"));
            eprintln!(
                "warning: {site} failed ({}); continuing on the unaccelerated path",
                panic_cause(payload)
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_failpoint::FailScenario;

    #[test]
    fn clean_build_passes_through() {
        let mut degraded = 0;
        assert_eq!(guarded_accel("degrade.test.clean", &mut degraded, || Some(7)), Some(7));
        let none: Option<u32> = guarded_accel("degrade.test.clean", &mut degraded, || None);
        assert_eq!(none, None);
        assert_eq!(degraded, 0);
    }

    #[test]
    fn injected_fault_degrades_instead_of_failing() {
        let _s = FailScenario::setup("degrade.test.fault=panic:1.0,1");
        let mut degraded = 0;
        let got = guarded_accel("degrade.test.fault", &mut degraded, || Some(7));
        assert_eq!(got, None);
        assert_eq!(degraded, 1);
    }

    #[test]
    fn real_builder_panic_degrades_too() {
        let mut degraded = 0;
        let got: Option<u32> =
            guarded_accel("degrade.test.real", &mut degraded, || panic!("builder bug"));
        assert_eq!(got, None);
        assert_eq!(degraded, 1);
    }
}
