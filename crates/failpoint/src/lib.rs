//! Deterministic fault-injection failpoints for the search pipeline.
//!
//! A *failpoint* is a named site in production code where a test, a CI
//! job, or an operator can ask for a fault to be raised: a panic, an
//! injected error, or a delay. Sites are compiled in permanently and cost
//! a thread-local read and at most one atomic load when nothing is armed
//! on the calling thread, so they can sit on chunk, parse, and prefilter
//! boundaries of the hot pipeline without a feature gate.
//!
//! # Specs
//!
//! Faults are configured from a text spec, one or more `;`-separated
//! entries of the form
//!
//! ```text
//! site=kind[:prob[,seed[,times]]]
//! ```
//!
//! where `kind` is `panic`, `error`, or `delay<MS>` (e.g. `delay25` sleeps
//! 25 ms), `prob` is the per-hit firing probability (default 1.0), `seed`
//! makes the per-site decision stream deterministic (default 0), and
//! `times` caps the total number of fires at the site (default unlimited).
//! Examples:
//!
//! ```text
//! parallel.chunk=panic                      # every chunk scan panics
//! parallel.chunk=panic:1.0,7,3              # exactly the first 3 hits panic
//! fasta.read=error:0.5,42                   # half of reads fail, seeded
//! multiseed.build=delay10                   # build stalls 10 ms
//! serve.worker=panic:1.0,0,1                # kill one daemon worker
//! index.write=error                         # index writes fail (no torn file)
//! ```
//!
//! The CLI exposes this as `--inject <spec>`; the `OFFTARGET_INJECT`
//! environment variable carries the same grammar into any process.
//!
//! # Determinism
//!
//! Each site owns a splitmix64 stream seeded from its `seed`, advanced
//! once per hit, so the fire/no-fire decision sequence is a pure function
//! of the spec and the hit order — a retried chunk draws the *next*
//! decision, which is how "fail the first N attempts, then heal" scenarios
//! stay reproducible.
//!
//! # Scope
//!
//! Armed sites live in a [`FaultPlan`], which belongs to a run, not to
//! the process. [`configure`] and [`FailScenario::setup`] arm the
//! calling thread's plan; a thread that starts work on others hands its
//! plan over ([`FaultPlan::current`], then [`FaultPlan::enter`] on the
//! new thread), so the scan driver's workers and a daemon's pool share
//! the plan of the thread that started them — one plan, one fire cap and
//! one seed stream, whichever thread hits the site. Threads nobody
//! handed a plan see nothing armed: concurrently running tests, and
//! concurrent requests of a daemon that opens a fresh plan per request,
//! cannot reach each other's faults. Fires are counted on the thread
//! where they happen ([`thread_fired`]), so a run meters exactly the
//! faults of the work it ran.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What a configured site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Unwind with an [`InjectedPanic`] payload.
    Panic,
    /// Return an [`InjectedFault`] error to the caller.
    Error,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
}

/// The error value surfaced by error-kind failpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint {:?}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(fault: InjectedFault) -> std::io::Error {
        std::io::Error::other(fault)
    }
}

/// The panic payload used by panic-kind failpoints; the panic-hook filter
/// recognizes it and suppresses the default backtrace spew, and
/// `catch_unwind` callers downcast it to attribute the fault.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: String,
}

/// One configured site: kind, firing probability, RNG stream, fire cap.
#[derive(Debug)]
struct SiteConfig {
    kind: FailKind,
    prob: f64,
    rng: u64,
    /// Remaining fires, or `u64::MAX` for unlimited.
    remaining: u64,
}

/// The armed sites of one plan, by name.
type Sites = HashMap<String, SiteConfig>;

/// Errors from parsing an injection spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec fragment.
    pub entry: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad injection spec {:?}: {}", self.entry, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// A set of armed failpoint sites, shared by the thread that armed it and
/// the threads its work starts (see the crate docs, "Scope"). Cloning
/// shares the plan: re-arming it reaches every thread that entered it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Arc<PlanState>,
}

#[derive(Debug, Default)]
struct PlanState {
    /// Whether any site is armed: the lock-free check a hit makes first.
    armed: AtomicBool,
    sites: Mutex<Sites>,
}

thread_local! {
    /// The plan failpoints on this thread consult; `None` until one is
    /// armed, entered, or asked for.
    static PLAN: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
    /// Faults fired on this thread since it started.
    static FIRED: Cell<u64> = const { Cell::new(0) };
}

impl FaultPlan {
    /// A fresh plan armed with `spec`, shared with nothing yet; an empty
    /// spec arms nothing.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, SpecError> {
        let plan = FaultPlan::default();
        plan.arm(parse_sites(spec)?);
        Ok(plan)
    }

    /// The calling thread's plan. A thread without one gets a fresh,
    /// unarmed plan, so sites armed on this thread later still reach the
    /// threads it hands the returned plan to.
    pub fn current() -> FaultPlan {
        PLAN.with(|plan| plan.borrow_mut().get_or_insert_with(FaultPlan::default).clone())
    }

    /// Makes this plan the calling thread's until the returned scope
    /// drops, which restores the thread's previous plan.
    pub fn enter(&self) -> PlanScope {
        PlanScope { previous: PLAN.with(|plan| plan.replace(Some(self.clone()))) }
    }

    /// Replaces the armed sites, returning the ones they replace.
    fn arm(&self, sites: Sites) -> Sites {
        if !sites.is_empty() {
            install_panic_filter();
        }
        let mut guard = lock_unpoisoned(&self.state.sites);
        self.state.armed.store(!sites.is_empty(), Ordering::Release);
        std::mem::replace(&mut *guard, sites)
    }

    /// Decides whether `site` fires on this hit, reserving one fire from
    /// its cap when it does.
    fn decide(&self, site: &str) -> Option<FailKind> {
        if !self.state.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut sites = lock_unpoisoned(&self.state.sites);
        let config = sites.get_mut(site)?;
        if config.prob < 1.0 {
            // 53-bit uniform in [0, 1).
            let uniform = (splitmix64(&mut config.rng) >> 11) as f64 / (1u64 << 53) as f64;
            if uniform >= config.prob {
                return None;
            }
        }
        match config.remaining {
            0 => return None,
            u64::MAX => {}
            _ => config.remaining -= 1,
        }
        Some(config.kind)
    }
}

/// The scope of an entered [`FaultPlan`]; dropping it restores the
/// thread's previous plan.
#[derive(Debug)]
#[must_use = "the plan is only entered while the scope is alive"]
pub struct PlanScope {
    previous: Option<FaultPlan>,
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = PLAN.try_with(|plan| plan.replace(previous));
    }
}

/// Locks a mutex, recovering from poisoning: the protected state here is
/// plain data that stays consistent even if a holder unwound mid-access.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One splitmix64 step: advances `state` and returns the next output.
/// A tiny deterministic, dependency-free generator — good enough for
/// fire/no-fire coin flips here and for request-id suffixes in the
/// serve layer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Installs (once) a panic hook that suppresses the default report for
/// [`InjectedPanic`] payloads — injected unwinds are expected events, not
/// crashes worth a backtrace — and delegates everything else to the
/// previous hook.
fn install_panic_filter() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Parses `spec` and arms it on the calling thread's plan
/// ([`FaultPlan::current`]), replacing whatever that plan armed before.
/// It reaches every thread the caller hands its plan to, including ones
/// already started. An empty spec disarms the plan.
///
/// # Errors
///
/// [`SpecError`] naming the first malformed entry; nothing is armed on
/// error.
pub fn configure(spec: &str) -> Result<(), SpecError> {
    FaultPlan::current().arm(parse_sites(spec)?);
    Ok(())
}

fn parse_sites(spec: &str) -> Result<Sites, SpecError> {
    spec.split(';').map(str::trim).filter(|e| !e.is_empty()).map(parse_entry).collect()
}

fn parse_entry(entry: &str) -> Result<(String, SiteConfig), SpecError> {
    let err = |reason: &str| SpecError { entry: entry.to_string(), reason: reason.to_string() };
    let (site, rest) = entry.split_once('=').ok_or_else(|| err("expected site=kind"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(err("empty site name"));
    }
    let (kind_text, args) = match rest.split_once(':') {
        Some((k, a)) => (k.trim(), Some(a)),
        None => (rest.trim(), None),
    };
    let kind = match kind_text {
        "panic" => FailKind::Panic,
        "error" => FailKind::Error,
        t if t.starts_with("delay") => {
            let ms = t["delay".len()..].trim();
            let ms = if ms.is_empty() {
                1
            } else {
                ms.parse().map_err(|_| err("delay milliseconds must be an integer"))?
            };
            FailKind::Delay(ms)
        }
        _ => return Err(err("kind must be panic, error, or delay<ms>")),
    };
    let mut prob = 1.0f64;
    let mut seed = 0u64;
    let mut times = u64::MAX;
    if let Some(args) = args {
        let fields: Vec<&str> = args.split(',').map(str::trim).collect();
        if fields.len() > 3 {
            return Err(err("at most prob,seed,times after ':'"));
        }
        if let Some(p) = fields.first().filter(|p| !p.is_empty()) {
            prob = p.parse().map_err(|_| err("prob must be a float"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(err("prob must be in [0, 1]"));
            }
        }
        if let Some(s) = fields.get(1).filter(|s| !s.is_empty()) {
            seed = s.parse().map_err(|_| err("seed must be an integer"))?;
        }
        if let Some(t) = fields.get(2).filter(|t| !t.is_empty()) {
            times = t.parse().map_err(|_| err("times must be an integer"))?;
        }
    }
    Ok((site.to_string(), SiteConfig { kind, prob, rng: seed, remaining: times }))
}

/// Reads `OFFTARGET_INJECT` and arms it on the calling thread's plan
/// when present (see [`configure`]).
///
/// # Errors
///
/// [`SpecError`] when the variable holds a malformed spec.
pub fn configure_from_env() -> Result<(), SpecError> {
    match std::env::var("OFFTARGET_INJECT") {
        Ok(spec) if !spec.trim().is_empty() => configure(&spec),
        _ => Ok(()),
    }
}

/// Faults fired on the calling thread since it started — the source of
/// the `faults_injected` metric: a caller reads it before and after the
/// work it runs on this thread and meters the difference.
pub fn thread_fired() -> u64 {
    FIRED.try_with(Cell::get).unwrap_or(0)
}

/// What a fire observer is told about one fired fault: the site name
/// and the configured kind (including the delay length), so consumers
/// can label the event without re-parsing the active spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireEvent<'a> {
    /// The site that fired.
    pub site: &'a str,
    /// What the fire does (panic, error, or a delay of N milliseconds).
    pub kind: FailKind,
}

fn fire_observer() -> &'static OnceLock<fn(FireEvent<'_>)> {
    static FIRE_OBSERVER: OnceLock<fn(FireEvent<'_>)> = OnceLock::new();
    &FIRE_OBSERVER
}

/// Registers a process-wide observer called with a [`FireEvent`] every
/// time a fault fires (after the fired counter is bumped, before the
/// fault takes effect, on the firing thread). Write-once: the first
/// registration wins and later calls are ignored — observers are
/// infrastructure wiring (e.g. the tracing layer putting fault events
/// on a timeline), not per-test state, and are never unregistered.
pub fn set_fire_observer(observer: fn(FireEvent<'_>)) {
    let _ = fire_observer().set(observer);
}

/// Evaluates the site against the calling thread's plan: decides
/// (deterministically) whether it fires, and resolves delays in place.
///
/// Returns `None` on the fast path (no plan or nothing armed on this
/// thread, probability miss, or fire cap exhausted) and after completing
/// a delay; `Some(kind)` for `Panic`/`Error`, which the `hit`/`hit_result`
/// wrappers turn into an unwind or an error value.
fn evaluate(site: &str) -> Option<FailKind> {
    let kind = PLAN.try_with(|plan| plan.borrow().as_ref()?.decide(site)).ok().flatten()?;
    let _ = FIRED.try_with(|fired| fired.set(fired.get() + 1));
    if let Some(observer) = fire_observer().get() {
        observer(FireEvent { site, kind });
    }
    match kind {
        FailKind::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        other => Some(other),
    }
}

/// The failpoint: checks `site` and raises whatever is configured.
///
/// Fast path (nothing armed on this thread): a thread-local read and at
/// most one atomic load, no lock, no allocation. A
/// `delay` fires in place, a `panic` unwinds with an [`InjectedPanic`]
/// payload, an `error` returns [`InjectedFault`] for the caller to
/// propagate.
///
/// # Errors
///
/// [`InjectedFault`] when an error-kind injection fires.
///
/// # Panics
///
/// When a panic-kind injection fires — that is the point; pair the site
/// with a `catch_unwind` isolation boundary.
pub fn hit(site: &str) -> Result<(), InjectedFault> {
    match evaluate(site) {
        None => Ok(()),
        Some(FailKind::Error) => Err(InjectedFault { site: site.to_string() }),
        Some(FailKind::Panic) | Some(FailKind::Delay(_)) => {
            std::panic::panic_any(InjectedPanic { site: site.to_string() })
        }
    }
}

/// Like [`hit`] but for sites whose only graceful reaction is to unwind:
/// both `panic` and `error` kinds raise an [`InjectedPanic`], for callers
/// that guard the whole operation with `catch_unwind` (build-site
/// degradation boundaries).
pub fn breaker(site: &str) {
    match evaluate(site) {
        None => {}
        Some(_) => std::panic::panic_any(InjectedPanic { site: site.to_string() }),
    }
}

/// Like [`hit`] but lowers error-kind fires to `std::io::Error` — for
/// I/O-shaped parse paths (FASTA, guide files).
///
/// # Errors
///
/// An injected `std::io::Error` when an error-kind injection fires.
pub fn hit_io(site: &str) -> std::io::Result<()> {
    hit(site).map_err(std::io::Error::from)
}

/// RAII scope for tests: arms `spec` on the calling thread's plan (and so
/// on every thread that shares it, such as a daemon started from this
/// thread) and on drop restores what that plan armed before. No lock:
/// tests on other threads have plans of their own.
#[derive(Debug)]
pub struct FailScenario {
    plan: FaultPlan,
    previous: Sites,
}

impl FailScenario {
    /// Arms `spec` on the calling thread's plan.
    ///
    /// # Panics
    ///
    /// Panics on a malformed spec — scenario specs are test fixtures, not
    /// user input.
    pub fn setup(spec: &str) -> FailScenario {
        let plan = FaultPlan::current();
        let previous = plan.arm(parse_sites(spec).expect("valid failpoint spec"));
        FailScenario { plan, previous }
    }
}

impl Drop for FailScenario {
    fn drop(&mut self) {
        self.plan.arm(std::mem::take(&mut self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_free_and_silent() {
        let before = thread_fired();
        assert!(hit("anything").is_ok());
        let _scenario = FailScenario::setup("");
        assert!(hit("anything").is_ok());
        assert_eq!(thread_fired(), before);
    }

    #[test]
    fn error_kind_returns_structured_fault() {
        let _scenario = FailScenario::setup("io.site=error");
        let before = thread_fired();
        let err = hit("io.site").unwrap_err();
        assert_eq!(err.site, "io.site");
        assert!(hit("other.site").is_ok(), "unconfigured sites stay silent");
        assert_eq!(thread_fired() - before, 1);
        let io_err = hit_io("io.site").unwrap_err();
        assert!(io_err.to_string().contains("io.site"));
    }

    #[test]
    fn panic_kind_unwinds_with_typed_payload() {
        let _scenario = FailScenario::setup("boom=panic");
        let payload = std::panic::catch_unwind(|| hit("boom")).unwrap_err();
        let injected = payload.downcast_ref::<InjectedPanic>().expect("typed payload");
        assert_eq!(injected.site, "boom");
    }

    #[test]
    fn times_caps_total_fires() {
        let _scenario = FailScenario::setup("capped=error:1.0,0,2");
        let before = thread_fired();
        assert!(hit("capped").is_err());
        assert!(hit("capped").is_err());
        assert!(hit("capped").is_ok(), "cap exhausted");
        assert!(hit("capped").is_ok());
        assert_eq!(thread_fired() - before, 2);
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let decisions = |seed: u64| {
            let _scenario = FailScenario::setup(&format!("p=error:0.5,{seed}"));
            (0..32).map(|_| hit("p").is_err()).collect::<Vec<_>>()
        };
        let a = decisions(7);
        let b = decisions(7);
        let c = decisions(8);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "prob 0.5 mixes outcomes");
    }

    #[test]
    fn delay_kind_fires_in_place() {
        let _scenario = FailScenario::setup("slow=delay1");
        let before = thread_fired();
        let start = std::time::Instant::now();
        assert!(hit("slow").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
        assert_eq!(thread_fired() - before, 1);
    }

    #[test]
    fn breaker_unwinds_for_error_kind_too() {
        let _scenario = FailScenario::setup("build=error");
        let payload = std::panic::catch_unwind(|| breaker("build")).unwrap_err();
        assert!(payload.downcast_ref::<InjectedPanic>().is_some());
    }

    #[test]
    fn spec_errors_are_structured() {
        for bad in
            ["nokind", "s=frob", "s=panic:2.0", "s=panic:0.1,x", "s=panic:0.1,2,3,4", "=panic"]
        {
            let err = configure(bad).unwrap_err();
            assert_eq!(err.entry, bad);
            assert_eq!(FaultPlan::parse(bad).unwrap_err(), err);
        }
        // Nothing was armed by the failures.
        assert!(hit("s").is_ok());
    }

    #[test]
    fn multi_entry_specs_and_scenario_restore() {
        let scenario = FailScenario::setup("a=error; b=delay2;; c=panic:0.0");
        assert!(hit("a").is_err());
        assert!(hit("c").is_ok(), "prob 0 never fires");
        {
            let _inner = FailScenario::setup("c=error");
            assert!(hit("a").is_ok(), "an inner scenario replaces the outer one");
            assert!(hit("c").is_err());
        }
        assert!(hit("a").is_err(), "dropping the inner scenario restores the outer");
        drop(scenario);
        assert!(hit("a").is_ok());
    }

    #[test]
    fn a_plan_reaches_the_threads_that_enter_it_and_no_others() {
        let _scenario = FailScenario::setup("shared=error:1.0,0,3");
        let plan = FaultPlan::current();
        std::thread::scope(|scope| {
            // A thread nobody handed the plan sees nothing armed.
            let stranger = scope.spawn(|| (hit("shared").is_err(), thread_fired()));
            assert_eq!(stranger.join().unwrap(), (false, 0));
            // Threads that enter the plan share its one fire cap, and
            // each counts only its own fires.
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let plan = &plan;
                    scope.spawn(move || {
                        let _plan = plan.enter();
                        let fires = (0..2).filter(|_| hit("shared").is_err()).count() as u64;
                        assert_eq!(thread_fired(), fires);
                        fires
                    })
                })
                .collect();
            let fires: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(fires, 3, "the cap is the plan's, not the thread's");
        });
    }

    #[test]
    fn rearming_a_shared_plan_reaches_threads_already_started() {
        let plan = FaultPlan::current();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || {
                let _plan = plan.enter();
                wait.recv().unwrap();
                hit("late").is_err()
            });
            let _scenario = FailScenario::setup("late=error");
            go.send(()).unwrap();
            assert!(worker.join().unwrap(), "armed after the worker entered the plan");
        });
    }

    #[test]
    fn an_entered_plan_nests_and_restores() {
        let _outer = FailScenario::setup("site=error");
        {
            let _inner = FaultPlan::parse("other=error").unwrap().enter();
            assert!(hit("site").is_ok(), "a fresh plan starts from its own spec only");
            assert!(hit("other").is_err());
        }
        assert!(hit("site").is_err(), "the thread's own plan is back");
        assert!(hit("other").is_ok());
    }
}
