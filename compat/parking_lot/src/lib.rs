//! Offline shim for the `parking_lot` crate, backed by `std::sync`.
//!
//! Matches the parking_lot API surface this workspace uses: non-poisoning
//! `Mutex` (a panicked holder does not poison the lock for everyone else)
//! and a `Condvar` that waits on a `&mut MutexGuard`.
//!
//! Every debug build additionally runs a lock-order tracker (see
//! `lock_order`; release builds compile it out): a per-thread stack of
//! held locks and a process-wide acquisition-order graph over the live
//! `Mutex` and `RwLock` instances. It panics the moment an acquisition
//! would close a cycle, or a condvar wait would sleep holding a second
//! lock — turning a would-be deadlock that hangs a test into an immediate
//! failure naming both locks. It sees the paths tests execute, exactly.
//!
//! Every primitive is additionally instrumented with *model-checker
//! yield points* (see [`model`]): when the `tdb-check` deterministic
//! scheduler has marked the calling thread as a virtual thread, lock
//! acquisition, release, condvar waits/notifies and [`AtomicCell`]
//! operations route through the installed [`model::Hooks`] so the
//! checker controls every interleaving. Outside a model run the cost is
//! one relaxed atomic load per operation.

use std::sync::PoisonError;

/// Model-checker instrumentation seam.
///
/// `tdb-check` installs a process-global [`model::Hooks`] implementation once;
/// the hooks decide per-thread whether they are active (only the
/// checker's virtual threads are). When active, blocking is *virtual*:
/// the primitive asks the hooks for the operation, the hooks park the
/// virtual thread inside the checker's scheduler until the operation is
/// granted, and only then does the shim touch the underlying `std`
/// primitive (which is guaranteed uncontended among virtual threads at
/// that point). Condvar waits never touch the `std` condvar at all —
/// parking, wakeup and timeout are entirely scheduler decisions, which
/// is what makes lost notifications and timeout races explorable.
pub mod model {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    /// The checker-side implementation of every yield point. Object
    /// identities are the primitive's address (stable for its lifetime).
    pub trait Hooks: Sync {
        /// Whether the calling thread is a checker-managed virtual
        /// thread. All other hook methods are only called when true.
        fn active(&self) -> bool;
        /// Blocks virtually until the mutex at `m` is granted.
        fn mutex_lock(&self, m: usize);
        /// Releases the mutex at `m` (called after the `std` guard drop).
        fn mutex_unlock(&self, m: usize);
        /// Blocks virtually until the rwlock at `l` grants shared
        /// (`write = false`) or exclusive (`write = true`) access.
        fn rw_lock(&self, l: usize, write: bool);
        /// Releases a shared or exclusive grant on the rwlock at `l`.
        fn rw_unlock(&self, l: usize, write: bool);
        /// Parks on the condvar at `cv`, releasing the (already
        /// `std`-released) mutex at `m`; returns once notified — or, for
        /// `timed` waits, once the scheduler chose the timeout path —
        /// and the mutex has been re-granted. Returns whether the wait
        /// timed out.
        fn condvar_wait(&self, cv: usize, m: usize, timed: bool) -> bool;
        /// Wakes one (`all = false`) or every (`all = true`) waiter of
        /// the condvar at `cv`. A notify with no waiters is lost,
        /// exactly like the real primitive.
        fn notify(&self, cv: usize, all: bool);
        /// Yield point before an [`super::AtomicCell`] operation.
        fn atomic_op(&self, cell: usize);
    }

    static INSTALLED: AtomicBool = AtomicBool::new(false);
    static HOOKS: OnceLock<&'static dyn Hooks> = OnceLock::new();

    /// Installs the process-global hooks (first caller wins; installing
    /// is one-way). Idempotent for the same checker singleton.
    pub fn install(hooks: &'static dyn Hooks) {
        let _ = HOOKS.set(hooks);
        INSTALLED.store(true, Ordering::Release);
    }

    /// The installed hooks, when the calling thread is a virtual thread.
    #[inline]
    pub(crate) fn active_hooks() -> Option<&'static dyn Hooks> {
        if !INSTALLED.load(Ordering::Acquire) {
            return None;
        }
        let h = *HOOKS.get()?;
        if h.active() {
            Some(h)
        } else {
            None
        }
    }

    /// A primitive's model identity: its data address.
    #[inline]
    pub(crate) fn addr<T: ?Sized>(p: *const T) -> usize {
        p.cast::<u8>() as usize
    }
}

/// Lock-order checking: on in every debug build, compiled out of release
/// builds (where both types below are empty).
///
/// Every `Mutex` and `RwLock` acquisition outside a model-checker run,
/// shared or exclusive, is checked before it blocks:
///
/// * taking a lock the thread already holds panics (a self-deadlock);
/// * taking lock B while holding A records the edge A → B in one
///   process-wide order graph — or panics, naming both, when B already
///   reaches A: two threads taking them in opposite orders can deadlock,
///   and the panic fires even when the other thread never arrives;
/// * a condvar wait while holding a lock other than the one the wait
///   releases panics: the waiter would sleep with that lock held.
///
/// A node of the graph is one lock instance (a process-unique number
/// taken on its first acquisition), and dropping the lock removes it, so
/// the graph is bounded by the live locks. A thread that holds nothing
/// touches only its own held stack.
#[cfg(debug_assertions)]
mod lock_order {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::fmt;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// One lock as the messages name it.
    #[derive(Debug, Clone, Copy)]
    struct Lock {
        id: u64,
        name: &'static str,
    }

    impl fmt::Display for Lock {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "#{} ({})", self.id, self.name)
        }
    }

    thread_local! {
        /// The locks this thread holds, in acquisition order.
        static HELD: RefCell<Vec<Lock>> = const { RefCell::new(Vec::new()) };
    }

    /// Lock → the locks taken while it was held, over every live lock
    /// that has an edge; acyclic, because an edge that would close a cycle
    /// panics instead of being added.
    type Graph = BTreeMap<u64, Vec<u64>>;
    static GRAPH: Mutex<Graph> = Mutex::new(BTreeMap::new());
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    fn graph() -> MutexGuard<'static, Graph> {
        GRAPH.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn reaches(g: &Graph, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for &next in g.get(&n).into_iter().flatten() {
                if !seen.contains(&next) {
                    seen.push(next);
                    stack.push(next);
                }
            }
        }
        false
    }

    /// Panics if taking `lock` while holding `held` could deadlock;
    /// otherwise records the new edges.
    fn check_order(held: &[Lock], lock: Lock) {
        if held.iter().any(|h| h.id == lock.id) {
            panic!("lock-order: recursive acquisition of lock {lock} on one thread");
        }
        let mut g = graph();
        for h in held {
            if g.get(&h.id).is_some_and(|after| after.contains(&lock.id)) {
                continue;
            }
            if reaches(&g, lock.id, h.id) {
                drop(g);
                panic!(
                    "lock-order inversion: acquiring lock {lock} while holding lock {h}, \
                     but {h} is elsewhere acquired while {lock} is held — consistent \
                     global order required"
                );
            }
            g.entry(h.id).or_default().push(lock.id);
            g.entry(lock.id).or_default();
        }
    }

    /// A lock's identity; 0 until its first acquisition, so `new` stays
    /// `const`.
    #[derive(Debug, Default)]
    pub(crate) struct LockId(AtomicU64);

    impl LockId {
        pub(crate) const fn new() -> Self {
            Self(AtomicU64::new(0))
        }

        pub(crate) fn id(&self) -> u64 {
            let id = self.0.load(Ordering::Relaxed);
            if id != 0 {
                return id;
            }
            let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let raced = self
                .0
                .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed);
            raced.err().unwrap_or(fresh)
        }

        /// Checks an acquisition of this lock (of type `name`) before it
        /// blocks, and records the lock as held until the hold drops.
        pub(crate) fn acquire(&self, name: &'static str) -> Hold {
            let lock = Lock {
                id: self.id(),
                name,
            };
            // a lock taken in a thread-local destructor goes unchecked
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if !held.is_empty() {
                    check_order(&held, lock);
                }
                held.push(lock);
            });
            Hold(lock.id)
        }
    }

    /// A dropped lock leaves the graph.
    impl Drop for LockId {
        fn drop(&mut self) {
            let id = *self.0.get_mut();
            if id == 0 {
                return;
            }
            let mut g = graph();
            if g.remove(&id).is_some() {
                g.values_mut().for_each(|after| after.retain(|&a| a != id));
            }
        }
    }

    /// One hold of a lock; dropping it releases the lock in the tracker.
    /// 0 = untracked (a model-checker grant).
    #[derive(Debug)]
    pub(crate) struct Hold(u64);

    impl Hold {
        pub(crate) const UNTRACKED: Self = Self(0);

        /// Panics unless this is the only lock the thread holds: a condvar
        /// wait releases this one and would sleep holding the other.
        pub(crate) fn check_wait(&self) {
            let _ = HELD.try_with(|held| {
                let held = held.borrow();
                let this = held.iter().find(|h| h.id == self.0);
                if let (Some(this), Some(other)) = (this, held.iter().find(|h| h.id != self.0)) {
                    panic!(
                        "lock-order: condvar wait releases lock {this} while lock {other} \
                         stays held — the waiter would sleep holding it"
                    );
                }
            });
        }
    }

    impl Drop for Hold {
        fn drop(&mut self) {
            if self.0 == 0 {
                return;
            }
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|h| h.id == self.0) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Number of locks the calling thread holds.
    #[cfg(test)]
    pub(crate) fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }

    /// Whether lock `id` is a node of the order graph.
    #[cfg(test)]
    pub(crate) fn in_graph(id: u64) -> bool {
        graph().contains_key(&id)
    }
}

/// Release builds: the tracker compiles to nothing.
#[cfg(not(debug_assertions))]
mod lock_order {
    #[derive(Debug, Default)]
    pub(crate) struct LockId;

    impl LockId {
        pub(crate) const fn new() -> Self {
            Self
        }

        #[inline(always)]
        pub(crate) fn acquire(&self, _name: &'static str) -> Hold {
            Hold
        }
    }

    #[derive(Debug)]
    pub(crate) struct Hold;

    impl Hold {
        pub(crate) const UNTRACKED: Self = Self;

        #[inline(always)]
        pub(crate) fn check_wait(&self) {}
    }
}

use lock_order::{Hold, LockId};

/// Mutual exclusion without lock poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    order: LockId,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        Self {
            order: LockId::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (hold, model) = match model::active_hooks() {
            Some(h) => {
                // granted by the scheduler: the std mutex below is free of
                // virtual-thread holders, so this cannot park out of band
                h.mutex_lock(model::addr(self as *const Self));
                (Hold::UNTRACKED, true)
            }
            None => (self.order.acquire(std::any::type_name::<Self>()), false),
        };
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            hold,
            model,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait`] can take it
/// out (std's wait consumes the guard) and put the re-acquired one back.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    /// Back-reference to the owning mutex so a virtualized
    /// [`Condvar::wait`] can re-acquire it after parking.
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// The lock-order tracker's record of this hold.
    hold: Hold,
    /// Whether this guard was granted by the model scheduler (its drop
    /// must report the release back to the hooks).
    model: bool,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            // release the std lock before telling the scheduler, so the
            // next granted virtual thread never contends on it
            self.inner = None;
            if let Some(h) = model::active_hooks() {
                h.mutex_unlock(model::addr(self.lock as *const Mutex<T>));
            }
        }
    }
}

/// Reader-writer lock without poisoning. The lock-order tracker treats
/// a shared and an exclusive acquisition alike: a reader waits behind a
/// queued writer, so a cycle through shared holds deadlocks too.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    order: LockId,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        Self {
            order: LockId::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let (model_id, hold) = self.enter(false);
        RwLockReadGuard {
            inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
            model_id,
            _hold: hold,
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let (model_id, hold) = self.enter(true);
        RwLockWriteGuard {
            inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
            model_id,
            _hold: hold,
        }
    }

    /// Asks the model scheduler for the grant inside a model run (its
    /// identity is then non-zero), the lock-order tracker outside one.
    fn enter(&self, write: bool) -> (usize, Hold) {
        match model::active_hooks() {
            Some(h) => {
                let id = model::addr(self as *const Self);
                h.rw_lock(id, write);
                (id, Hold::UNTRACKED)
            }
            None => (0, self.order.acquire(std::any::type_name::<Self>())),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII shared guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    /// Model identity of the owning lock (0 = not a model grant).
    model_id: usize,
    /// The lock-order tracker's record of this hold (released on drop).
    _hold: Hold,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.model_id != 0 {
            self.inner = None;
            if let Some(h) = model::active_hooks() {
                h.rw_unlock(self.model_id, false);
            }
        }
    }
}

/// RAII exclusive guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    /// Model identity of the owning lock (0 = not a model grant).
    model_id: usize,
    /// The lock-order tracker's record of this hold (released on drop).
    _hold: Hold,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.model_id != 0 {
            self.inner = None;
            if let Some(h) = model::active_hooks() {
                h.rw_unlock(self.model_id, true);
            }
        }
    }
}

/// Condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.model {
            if let Some(h) = model::active_hooks() {
                // virtual wait: the std condvar is never involved. Drop
                // the std lock, park in the scheduler until a notify
                // re-granted the mutex, then re-take the (uncontended)
                // std lock.
                guard.inner = None;
                h.condvar_wait(
                    model::addr(self as *const Self),
                    model::addr(guard.lock as *const Mutex<T>),
                    false,
                );
                guard.inner = Some(
                    guard
                        .lock
                        .inner
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                return;
            }
        }
        // the wait releases only this lock; with it the only one held,
        // the thread holds it again on waking, so the held stack stands
        guard.hold.check_wait();
        let held = guard.inner.take().expect("guard present");
        let reacquired = self.0.wait(held).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
    }

    /// Blocks until notified or `timeout` elapses, releasing the guard's
    /// lock while waiting.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        if guard.model {
            if let Some(h) = model::active_hooks() {
                // timed virtual wait: whether the timeout "fires" is a
                // scheduler decision, not a clock — both outcomes are
                // explorable states. The duration itself is irrelevant.
                guard.inner = None;
                let timed_out = h.condvar_wait(
                    model::addr(self as *const Self),
                    model::addr(guard.lock as *const Mutex<T>),
                    true,
                );
                guard.inner = Some(
                    guard
                        .lock
                        .inner
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                return WaitTimeoutResult(timed_out);
            }
        }
        guard.hold.check_wait();
        let held = guard.inner.take().expect("guard present");
        let (reacquired, result) = self
            .0
            .wait_timeout(held, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if let Some(h) = model::active_hooks() {
            h.notify(model::addr(self as *const Self), false);
            return;
        }
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(h) = model::active_hooks() {
            h.notify(model::addr(self as *const Self), true);
            return;
        }
        self.0.notify_all();
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A lock-free-looking cell for hot flags and counters, modeled after
/// `crossbeam::atomic::AtomicCell` but instrumented as a model-checker
/// yield point: under `tdb-check`, every operation is a scheduling
/// decision, which is what makes non-atomic check-then-act sequences
/// (`load` … `store`) explorable as distinct interleavings. Each method
/// is itself one atomic step.
#[derive(Debug, Default)]
pub struct AtomicCell<T> {
    value: std::sync::Mutex<T>,
}

impl<T: Copy> AtomicCell<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Self {
        Self {
            value: std::sync::Mutex::new(value),
        }
    }

    /// Yield point: under the checker this parks until the scheduler
    /// grants the step; outside it is one relaxed atomic load.
    #[inline]
    fn step(&self) {
        if let Some(h) = model::active_hooks() {
            h.atomic_op(model::addr(self as *const Self));
        }
    }

    fn cell(&self) -> std::sync::MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads the value.
    pub fn load(&self) -> T {
        self.step();
        *self.cell()
    }

    /// Overwrites the value.
    pub fn store(&self, value: T) {
        self.step();
        *self.cell() = value;
    }

    /// Replaces the value, returning the previous one.
    pub fn swap(&self, value: T) -> T {
        self.step();
        let mut cell = self.cell();
        std::mem::replace(&mut *cell, value)
    }

    /// Applies `f` to the value as one atomic step, returning the
    /// previous value.
    pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
        self.step();
        let mut cell = self.cell();
        let prev = *cell;
        *cell = f(prev);
        prev
    }

    /// Consumes the cell, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Copy + PartialEq> AtomicCell<T> {
    /// Stores `new` iff the value equals `current`, as one atomic step.
    /// Returns the previous value as `Ok` on success, `Err` on mismatch.
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T> {
        self.step();
        let mut cell = self.cell();
        let prev = *cell;
        if prev == current {
            *cell = new;
            Ok(prev)
        } else {
            Err(prev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock must not be poisoned");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, std::time::Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn atomic_cell_single_steps() {
        let c = AtomicCell::new(1u32);
        assert_eq!(c.load(), 1);
        c.store(2);
        assert_eq!(c.swap(3), 2);
        assert_eq!(c.update(|v| v + 1), 3);
        assert_eq!(c.compare_exchange(4, 9), Ok(4));
        assert_eq!(c.compare_exchange(4, 9), Err(9));
        assert_eq!(c.into_inner(), 9);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(3);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 4);
    }

    #[test]
    fn rwlock_reads_share_and_writes_exclude() {
        let l = Arc::new(RwLock::new(1));
        {
            // a second reader gets in while the first holds the lock (on
            // another thread: a recursive read can deadlock behind a
            // queued writer, and the lock-order tracker says so)
            let a = l.read();
            let b = std::thread::scope(|s| s.spawn(|| *l.read()).join().unwrap());
            assert_eq!((*a, b), (1, 1));
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
        // a panicked writer must not poison the lock
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*l.read(), 2);
    }

    #[cfg(debug_assertions)]
    mod tracker {
        use super::super::*;

        /// Runs `f` on a fresh thread, which must panic with a message
        /// saying `what` and naming both `locks` by type.
        fn assert_panics(what: &str, locks: [&str; 2], f: impl FnOnce() + Send) {
            let err = std::thread::scope(|s| s.spawn(f).join()).expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(what), "{msg}");
            assert!(locks.iter().all(|lock| msg.contains(lock)), "{msg}");
        }

        #[test]
        fn inversion_panics_and_consistent_order_does_not() {
            let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
            // consistent order on another thread: a then b
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _ga = a.lock();
                    let _gb = b.lock();
                });
            });
            // same order again is fine
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            // reverse order must panic before blocking
            assert_panics("lock-order inversion", ["Mutex<u8>"; 2], || {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        }

        #[test]
        fn recursive_acquisition_panics() {
            let m = Mutex::new(0u8);
            // a self-deadlock panics, it does not hang
            assert_panics("recursive acquisition", ["Mutex<u8>"; 2], || {
                let _g1 = m.lock();
                let _g2 = m.lock();
            });
        }

        #[test]
        fn condvar_wait_balances_held_stack() {
            let (lock, cv) = (Mutex::new(false), Condvar::new());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut ready = lock.lock();
                    while !*ready {
                        assert_eq!(lock_order::held_count(), 1);
                        cv.wait(&mut ready);
                    }
                    assert_eq!(lock_order::held_count(), 1);
                    drop(ready);
                    assert_eq!(lock_order::held_count(), 0);
                });
                std::thread::sleep(std::time::Duration::from_millis(20));
                *lock.lock() = true;
                cv.notify_all();
            });
        }

        #[test]
        fn mutex_inversion_through_a_third_lock_panics_naming_both() {
            let (a, b, c) = (Mutex::new(0u8), Mutex::new(0u16), Mutex::new(0u32));
            drop((a.lock(), b.lock()));
            drop((b.lock(), c.lock()));
            // c → a closes a → b → c: no single pair was ever inverted
            assert_panics("inversion", ["Mutex<u8>", "Mutex<u32>"], || {
                let _gc = c.lock();
                let _ga = a.lock();
            });
        }

        #[test]
        fn mutex_rwlock_inversion_panics_naming_both() {
            let (m, l) = (Mutex::new(0u8), RwLock::new(0u16));
            drop((m.lock(), l.read()));
            // shared or exclusive, the RwLock is one node of the graph
            assert_panics("inversion", ["Mutex<u8>", "RwLock<u16>"], || {
                let _gl = l.write();
                let _gm = m.lock();
            });
        }

        #[test]
        fn condvar_wait_under_a_second_lock_panics_naming_both() {
            let (outer, lock, cv) = (Mutex::new(0u16), Mutex::new(false), Condvar::new());
            assert_panics("condvar wait", ["Mutex<bool>", "Mutex<u16>"], || {
                let _go = outer.lock();
                let mut g = lock.lock();
                cv.wait_for(&mut g, std::time::Duration::from_millis(1));
            });
        }

        #[test]
        fn a_dropped_lock_leaves_the_graph() {
            let (a, b) = (Mutex::new(0u8), RwLock::new(0u8));
            drop((a.lock(), b.read()));
            let ids = [a.order.id(), b.order.id()];
            assert!(ids.iter().all(|&id| lock_order::in_graph(id)));
            drop((a, b));
            assert!(!ids.iter().any(|&id| lock_order::in_graph(id)));
        }
    }
}
