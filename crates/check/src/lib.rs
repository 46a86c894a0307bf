//! `tdb-check`: a loom-style deterministic concurrency model checker.
//!
//! Small *closed models* of the workspace's concurrent components run on
//! virtual threads under a controlled scheduler (see `sched`): every
//! `parking_lot` shim operation — mutex lock/unlock, rwlock access,
//! condvar wait/notify, [`parking_lot::AtomicCell`] step — is a yield
//! point, and the checker decides which thread moves at each one. The
//! schedule space is explored two ways, both deterministic:
//!
//! 1. **Bounded-depth systematic search**: depth-first over decision
//!    alternatives for the first `TDB_MODEL_DEPTH` decisions, with a
//!    DPOR-lite reduction (alternatives that merely reorder commuting
//!    operations are skipped).
//! 2. **Seeded random walks**: uniform choices from a `ChaCha8Rng`
//!    seeded from `TDB_MODEL_SEED` and the iteration index, for tail
//!    coverage past the systematic depth bound.
//!
//! Detected failures — deadlock (which is also how a *lost notification*
//! manifests: an untimed waiter nobody will ever notify), panics and
//! assertion violations inside the model, livelock via step budget —
//! come with a *schedule trace*: the dot-separated list of thread
//! indices chosen at each decision. Setting `TDB_MODEL_SCHEDULE=<trace>`
//! replays exactly that interleaving, reproducing the failure
//! byte-identically.
//!
//! ```no_run
//! use parking_lot::Mutex;
//! use std::sync::Arc;
//!
//! tdb_check::Model::new("two increments").check(|| {
//!     let n = Arc::new(Mutex::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = tdb_check::thread::spawn(move || *n2.lock() += 1);
//!     *n.lock() += 1;
//!     t.join();
//!     assert_eq!(*n.lock(), 2);
//! });
//! ```
//!
//! Budgets: `TDB_MODEL_BUDGET` caps total schedules per model (half
//! systematic, half random), `TDB_MODEL_DEPTH` the systematic branching
//! depth, `TDB_MODEL_STEPS` the per-schedule step count (livelock
//! backstop). Builder methods override the environment per model.

mod sched;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sched::{
    advance, backtrack, parse_trace, sched, vtid, Decider, ModelAbort, Node, Pending, Phase, VTID,
};

pub use sched::MAX_THREADS;

/// What kind of failure a schedule exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread can make progress (includes lost notifications: an
    /// untimed condvar waiter with no notify in flight).
    Deadlock,
    /// A virtual thread panicked — assertion or byte-identity violation.
    Panic,
    /// A supplied schedule trace does not match the model's behavior.
    ReplayDivergence,
    /// The per-schedule step budget ran out (livelock suspect).
    StepLimit,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::Panic => "panic",
            FailureKind::ReplayDivergence => "replay divergence",
            FailureKind::StepLimit => "step limit",
        };
        f.write_str(s)
    }
}

/// A failing schedule: what went wrong and the exact interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub kind: FailureKind,
    /// Stable description (primitive addresses are interned to
    /// first-seen ordinals so replays produce identical text).
    pub message: String,
    /// Dot-separated decision list; feed to `TDB_MODEL_SCHEDULE` or
    /// [`Model::replay`] to reproduce.
    pub trace: String,
}

/// Outcome of exploring (or replaying) a model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub iterations: usize,
    /// First failure found, if any.
    pub failure: Option<Failure>,
    /// The bounded systematic search space was fully covered (no
    /// failure can hide within the depth bound).
    pub exhausted: bool,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A named closed model plus its exploration budget.
pub struct Model {
    name: String,
    budget: usize,
    depth: usize,
    seed: u64,
    step_limit: usize,
}

impl Model {
    /// A model with budgets from the environment (`TDB_MODEL_BUDGET`,
    /// `TDB_MODEL_DEPTH`, `TDB_MODEL_SEED`, `TDB_MODEL_STEPS`) or their
    /// defaults.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            budget: env_usize("TDB_MODEL_BUDGET", 2048),
            depth: env_usize("TDB_MODEL_DEPTH", 20),
            seed: env_u64("TDB_MODEL_SEED", 1),
            step_limit: env_usize("TDB_MODEL_STEPS", 50_000),
        }
    }

    /// Caps the total number of schedules explored.
    pub fn budget(mut self, iterations: usize) -> Self {
        self.budget = iterations.max(1);
        self
    }

    /// Caps the systematic branching depth (decisions, not steps).
    pub fn depth(mut self, decisions: usize) -> Self {
        self.depth = decisions;
        self
    }

    /// Seed for the random-walk phase.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-schedule step budget (livelock backstop).
    pub fn step_limit(mut self, steps: usize) -> Self {
        self.step_limit = steps.max(1);
        self
    }

    /// Explores the model and panics with the failing schedule if any
    /// schedule misbehaves. When `TDB_MODEL_SCHEDULE` is set, replays
    /// exactly that schedule instead of exploring.
    ///
    /// The closure runs once per schedule on virtual thread 0; it may
    /// spawn more via [`thread::spawn`]. It must be deterministic given
    /// the schedule: no wall-clock time, no ambient randomness.
    pub fn check<F>(self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let name = self.name.clone();
        let report = if let Ok(tr) = std::env::var("TDB_MODEL_SCHEDULE") {
            self.replay_inner(&tr, f, false)
        } else {
            self.explore(f, false)
        };
        if let Some(fail) = report.failure {
            panic!(
                "model '{name}' failed after {n} schedule(s)\n  {kind}: {msg}\n  \
                 trace: {trace}\n  reproduce: TDB_MODEL_SCHEDULE={trace}",
                n = report.iterations,
                kind = fail.kind,
                msg = fail.message,
                trace = fail.trace,
            );
        }
    }

    /// Explores the model and returns the outcome instead of panicking.
    /// Panic output from expected-buggy schedules is suppressed.
    pub fn check_quiet<F>(self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.explore(f, true)
    }

    /// Runs exactly one schedule and returns the outcome. The trace is
    /// the dot-separated decision list from a reported [`Failure`].
    pub fn replay<F>(self, trace: &str, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.replay_inner(trace, f, true)
    }

    fn replay_inner<F>(&self, trace: &str, f: F, quiet: bool) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let decisions = match parse_trace(trace) {
            Ok(d) => d,
            Err(msg) => panic!("model '{}': invalid schedule trace: {msg}", self.name),
        };
        let _permit = run_permit();
        let _quiet = QuietScope::new(quiet);
        install_hooks();
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let (failure, _, _) = run_iteration(self, Decider::Replay { decisions, pos: 0 }, &f);
        Report {
            iterations: 1,
            failure,
            exhausted: false,
        }
    }

    fn explore<F>(&self, f: F, quiet: bool) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let _permit = run_permit();
        let _quiet = QuietScope::new(quiet);
        install_hooks();
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut iterations = 0usize;
        let mut exhausted = false;

        // phase 1: bounded-depth systematic DFS with DPOR-lite pruning
        let sys_budget = (self.budget / 2).max(1);
        let mut tree: Vec<Node> = Vec::new();
        let mut clipped_any = false;
        while iterations < sys_budget {
            let decider = Decider::Systematic {
                tree: std::mem::take(&mut tree),
                pos: 0,
                depth: self.depth,
                clipped: false,
            };
            let (failure, _, decider) = run_iteration(self, decider, &f);
            iterations += 1;
            if let Decider::Systematic {
                tree: t, clipped, ..
            } = decider
            {
                tree = t;
                clipped_any |= clipped;
            }
            if failure.is_some() {
                return Report {
                    iterations,
                    failure,
                    exhausted: false,
                };
            }
            if !backtrack(&mut tree) {
                // full coverage only if no schedule outran the depth bound
                exhausted = !clipped_any;
                break;
            }
        }

        // phase 2: seeded random walks for tail coverage (skipped when
        // the systematic phase already covered the whole bounded space)
        if !exhausted {
            while iterations < self.budget {
                let stream = self
                    .seed
                    .wrapping_add((iterations as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let decider = Decider::Random {
                    rng: ChaCha8Rng::seed_from_u64(stream),
                };
                let (failure, _, _) = run_iteration(self, decider, &f);
                iterations += 1;
                if failure.is_some() {
                    return Report {
                        iterations,
                        failure,
                        exhausted: false,
                    };
                }
            }
        }
        Report {
            iterations,
            failure: None,
            exhausted,
        }
    }
}

/// Serializes model runs process-wide (tests run concurrently; the
/// scheduler singleton handles one iteration at a time).
fn run_permit() -> StdMutexGuard<'static, ()> {
    static PERMIT: StdMutex<()> = StdMutex::new(());
    PERMIT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Suppresses panic printing from virtual threads while a quiet run is
/// active (expected-buggy schedules would otherwise spam the test log).
static QUIET: AtomicBool = AtomicBool::new(false);

struct QuietScope;

impl QuietScope {
    fn new(quiet: bool) -> Self {
        QUIET.store(quiet, Ordering::Relaxed);
        QuietScope
    }
}

impl Drop for QuietScope {
    fn drop(&mut self) {
        QUIET.store(false, Ordering::Relaxed);
    }
}

/// The shim-facing hook implementation: routes every yield point into
/// the scheduler for the calling virtual thread.
struct CheckerHooks;

impl parking_lot::model::Hooks for CheckerHooks {
    fn active(&self) -> bool {
        vtid().is_some()
    }

    fn mutex_lock(&self, m: usize) {
        sched().yield_op(Pending::Lock(m));
    }

    fn mutex_unlock(&self, m: usize) {
        sched().yield_op(Pending::Unlock(m));
    }

    fn rw_lock(&self, l: usize, write: bool) {
        sched().yield_op(Pending::RwAcq { l, write });
    }

    fn rw_unlock(&self, l: usize, write: bool) {
        sched().yield_op(Pending::RwRel { l, write });
    }

    fn condvar_wait(&self, cv: usize, m: usize, timed: bool) -> bool {
        sched().cv_wait(cv, m, timed)
    }

    fn notify(&self, cv: usize, all: bool) {
        sched().yield_op(Pending::Notify { cv, all });
    }

    fn atomic_op(&self, cell: usize) {
        sched().yield_op(Pending::Atomic(cell));
    }
}

static HOOKS: CheckerHooks = CheckerHooks;

/// Installs the shim hooks and the quiet panic hook exactly once.
fn install_hooks() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        parking_lot::model::install(&HOOKS);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // sentinel unwinds are scheduler plumbing, never user-facing
            if info.payload().is::<ModelAbort>() {
                return;
            }
            if QUIET.load(Ordering::Relaxed) && vtid().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Body of every virtual OS thread: park for the `Start` grant, run the
/// closure, and route the outcome into the scheduler.
fn vthread_main(idx: usize, f: impl FnOnce()) {
    VTID.with(|v| v.set(Some(idx)));
    let s = sched();
    if s.wait_start(idx) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(()) => s.finish(idx),
            Err(payload) => {
                if payload.is::<ModelAbort>() {
                    s.finish(idx);
                } else {
                    s.fail_panic(idx, payload_message(payload.as_ref()));
                }
            }
        }
    } else {
        s.finish(idx);
    }
    s.os_exit();
}

/// Runs one schedule to completion; returns its failure (if any), its
/// trace, and the decider (so the systematic tree survives).
fn run_iteration(
    model: &Model,
    decider: Decider,
    f: &Arc<dyn Fn() + Send + Sync>,
) -> (Option<Failure>, Vec<usize>, Decider) {
    let s = sched();
    {
        let mut st = s.lock();
        assert!(
            !st.active,
            "model '{}': a model run is already active (runs are serialized)",
            model.name
        );
        st.reset(decider, model.step_limit);
        st.active = true;
        st.threads.push(Phase::Blocked(Pending::Start));
        st.wake_timed_out.push(false);
        st.live_os = 1;
        advance(&mut st);
    }
    let f2 = Arc::clone(f);
    let vt0 = std::thread::Builder::new()
        .name("vt0".into())
        .spawn(move || vthread_main(0, move || f2()))
        .expect("spawn model thread");
    let mut st = s.lock();
    while st.live_os > 0 {
        st = s.controller_wait(st);
    }
    let failure = st.failure.take();
    let trace = std::mem::take(&mut st.trace);
    let decider = std::mem::replace(
        &mut st.decider,
        Decider::Replay {
            decisions: Vec::new(),
            pos: 0,
        },
    );
    let handles = std::mem::take(&mut st.os_handles);
    st.active = false;
    st.aborted = false;
    drop(st);
    for h in handles {
        let _ = h.join();
    }
    let _ = vt0.join();
    (failure, trace, decider)
}

/// Virtual threads usable inside a model closure.
pub mod thread {
    use super::*;

    /// Spawns a virtual thread running `f` under the model scheduler.
    /// Only callable from inside a model; thread indices are assigned
    /// in spawn order, so traces are stable.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        assert!(
            vtid().is_some(),
            "tdb_check::thread::spawn may only be called from inside a model"
        );
        let s = sched();
        let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot2 = Arc::clone(&slot);
        let idx;
        {
            let mut st = s.lock();
            idx = st.threads.len();
            assert!(
                idx < MAX_THREADS,
                "model exceeds {MAX_THREADS} virtual threads"
            );
            st.threads.push(Phase::Blocked(Pending::Start));
            st.wake_timed_out.push(false);
            st.live_os += 1;
        }
        let h = std::thread::Builder::new()
            .name(format!("vt{idx}"))
            .spawn(move || {
                vthread_main(idx, move || {
                    let out = f();
                    *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                })
            })
            .expect("spawn virtual thread");
        s.lock().os_handles.push(h);
        JoinHandle { vt: idx, slot }
    }

    /// Handle to a virtual thread; joining is a scheduling operation
    /// (enabled once the thread finished).
    pub struct JoinHandle<T> {
        vt: usize,
        slot: Arc<StdMutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Blocks (virtually) until the thread finishes, returning its
        /// value. If the run aborted, the caller unwinds instead.
        pub fn join(self) -> T {
            sched().yield_op(Pending::Join(self.vt));
            self.slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("virtual thread terminated without a value")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{AtomicCell, Condvar, Mutex};

    #[test]
    fn correct_model_passes_and_exhausts() {
        let report = Model::new("correct counter").budget(512).check_quiet(|| {
            let n = Arc::new(Mutex::new(0));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || *n2.lock() += 1);
            *n.lock() += 1;
            t.join();
            assert_eq!(*n.lock(), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted, "small model must be fully explored");
    }

    #[test]
    fn atomic_cell_update_is_atomic() {
        let report = Model::new("atomic update").budget(512).check_quiet(|| {
            let c = Arc::new(AtomicCell::new(0u32));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                c2.update(|v| v + 1);
            });
            c.update(|v| v + 1);
            t.join();
            assert_eq!(c.load(), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn predicate_wait_under_the_lock_is_sound() {
        let report = Model::new("sound condvar").budget(512).check_quiet(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let t = thread::spawn(move || {
                let (m, cv) = &*pair2;
                *m.lock() = true;
                cv.notify_one();
            });
            let (m, cv) = &*pair;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            drop(ready);
            t.join();
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }
}
