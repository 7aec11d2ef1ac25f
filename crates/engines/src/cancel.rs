//! Cooperative cancellation for long-running scans.
//!
//! A [`CancelToken`] is the one mechanism the whole pipeline uses to
//! bound a search in wall-clock: the serve layer arms it with a
//! per-request deadline, the CLI arms it from `--timeout`, and callers
//! can trip it manually (client disconnect, shutdown). The token is
//! *cooperative*: the scan driver polls [`CancelToken::check`] at chunk
//! boundaries — before each `scan_slice`/`scan_packed` attempt, at any
//! thread count — so a trip is observed within one chunk-scan, never
//! mid-kernel. That granularity is deliberate (see DESIGN.md §14): the
//! kernels stay branch-free, completed chunks keep their exact
//! counters (the PR 4 healed-run identity extends to cancelled runs),
//! and the fast-path cost is one relaxed atomic load — the same budget
//! as a disabled failpoint or trace site.
//!
//! A token built with [`CancelToken::none`] carries no state at all;
//! checks against it compile down to a `None` test.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a cancellation check tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The token was tripped manually ([`CancelToken::cancel`]).
    Cancelled,
    /// The armed deadline passed.
    DeadlineExceeded,
}

const UNTRIPPED: u8 = 0;
const TRIPPED_MANUAL: u8 = 1;
const TRIPPED_DEADLINE: u8 = 2;

#[derive(Debug)]
struct CancelState {
    /// 0 = live, 1 = manual trip, 2 = deadline trip. Once set it never
    /// clears, so a relaxed load is sufficient on the fast path.
    tripped: AtomicU8,
    /// Absolute deadline; `None` for manual-only tokens.
    deadline: Option<Instant>,
}

/// Shared, cloneable cancellation handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Option<Arc<CancelState>>,
}

impl CancelToken {
    /// A token that can never trip. Checks against it are free; this is
    /// the default everywhere a caller does not ask for a bound.
    pub fn none() -> CancelToken {
        CancelToken { state: None }
    }

    /// A manual-trip token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            state: Some(Arc::new(CancelState {
                tripped: AtomicU8::new(UNTRIPPED),
                deadline: None,
            })),
        }
    }

    /// A token that trips once `timeout` has elapsed from now (and can
    /// still be tripped manually before that).
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline_at(Instant::now() + timeout)
    }

    /// A token with an absolute deadline.
    pub fn with_deadline_at(deadline: Instant) -> CancelToken {
        CancelToken {
            state: Some(Arc::new(CancelState {
                tripped: AtomicU8::new(UNTRIPPED),
                deadline: Some(deadline),
            })),
        }
    }

    /// Trip the token manually. Idempotent; a deadline trip that already
    /// happened wins (first cause is kept).
    pub fn cancel(&self) {
        if let Some(state) = &self.state {
            let _ = state.tripped.compare_exchange(
                UNTRIPPED,
                TRIPPED_MANUAL,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Whether this token can ever trip (i.e. was not built with
    /// [`CancelToken::none`]).
    pub fn is_armed(&self) -> bool {
        self.state.is_some()
    }

    /// The cancellation check drivers poll at chunk boundaries.
    ///
    /// Fast path: one relaxed atomic load (plus an `Instant::now()`
    /// call only when a deadline is armed and the token has not tripped
    /// yet). Returns `Err(kind)` once tripped; the result is sticky.
    #[inline]
    pub fn check(&self) -> Result<(), CancelKind> {
        let state = match &self.state {
            None => return Ok(()),
            Some(state) => state,
        };
        match state.tripped.load(Ordering::Relaxed) {
            UNTRIPPED => {}
            TRIPPED_MANUAL => return Err(CancelKind::Cancelled),
            _ => return Err(CancelKind::DeadlineExceeded),
        }
        if let Some(deadline) = state.deadline {
            if Instant::now() >= deadline {
                let _ = state.tripped.compare_exchange(
                    UNTRIPPED,
                    TRIPPED_DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // Re-read so a concurrent manual trip keeps its cause.
                return match state.tripped.load(Ordering::Relaxed) {
                    TRIPPED_MANUAL => Err(CancelKind::Cancelled),
                    _ => Err(CancelKind::DeadlineExceeded),
                };
            }
        }
        Ok(())
    }

    /// Convenience: `true` once [`check`](CancelToken::check) fails.
    pub fn is_tripped(&self) -> bool {
        self.check().is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        assert!(!t.is_armed());
        t.cancel();
        assert_eq!(t.check(), Ok(()));
        assert!(!t.is_tripped());
    }

    #[test]
    fn manual_trip_is_sticky_and_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert_eq!(t.check(), Ok(()));
        clone.cancel();
        assert_eq!(t.check(), Err(CancelKind::Cancelled));
        assert_eq!(t.check(), Err(CancelKind::Cancelled));
        assert!(clone.is_tripped());
    }

    #[test]
    fn deadline_trips_and_reports_kind() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        // Deadline is "now"; the first check must trip it.
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(t.check(), Err(CancelKind::DeadlineExceeded));
        // Manual trip after a deadline trip does not change the cause.
        t.cancel();
        assert_eq!(t.check(), Err(CancelKind::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip_early() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.check(), Ok(()));
        // Manual trip beats an unexpired deadline.
        t.cancel();
        assert_eq!(t.check(), Err(CancelKind::Cancelled));
    }
}
