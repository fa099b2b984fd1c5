//! Event-driven wakeup plumbing for the control plane.
//!
//! Every blocking wait in the runtime — buffer waits, backpressure,
//! join multiplexing, executor completion — is built from two pieces:
//!
//! - a [`WaitSet`]: an epoch counter plus condvar a single waiter blocks
//!   on. The waiter reads the epoch, re-checks its predicate under the
//!   relevant state lock, and only then sleeps until the epoch moves —
//!   the classic protocol that makes lost wakeups impossible;
//! - a [`Watchers`] registry: every event source (a buffer, the control
//!   token, a channel) keeps one, and bumps all registered wait sets when
//!   its state changes.
//!
//! A waiter that needs to watch several sources (e.g. a join stage
//! watching two parent buffers *and* the control token) registers one
//! `WaitSet` with each source's `Watchers`, so any of them can wake it.
//! Registrations are guard-scoped ([`WatchGuard`]) and deregister on
//! drop, so no stale entries accumulate beyond a `Weak` that the next
//! wake sweeps out.
//!
//! All primitives are `std::sync` based; mutex poisoning is deliberately
//! ignored (a panicking peer must not hide state from waiters that are
//! themselves shutting down).

use crate::metrics::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

/// Locks a mutex, ignoring poisoning.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Anything a [`Watchers`] registry can deliver a wakeup to.
///
/// Two implementors exist: [`WaitSet`] cores (blocking waiters parked on a
/// condvar) and the task runtime's wakers (non-blocking: mark the task
/// runnable and hand it to a worker). Event sources are oblivious to the
/// difference — they just call `on_wake` after every state transition.
pub(crate) trait WakeTarget: Send + Sync {
    fn on_wake(&self);
}

struct WaitSetCore {
    epoch: Mutex<u64>,
    cond: Condvar,
}

impl WaitSetCore {
    fn wake(&self) {
        let mut epoch = lock_unpoisoned(&self.epoch);
        *epoch = epoch.wrapping_add(1);
        self.cond.notify_all();
    }
}

impl WakeTarget for WaitSetCore {
    fn on_wake(&self) {
        self.wake();
    }
}

/// One waiter's wakeup target: an epoch counter and the condvar to block
/// on until someone bumps it.
#[derive(Clone)]
pub(crate) struct WaitSet {
    core: Arc<WaitSetCore>,
}

impl WaitSet {
    pub(crate) fn new() -> Self {
        Self {
            core: Arc::new(WaitSetCore {
                epoch: Mutex::new(0),
                cond: Condvar::new(),
            }),
        }
    }

    /// The current epoch. Read this *before* checking the awaited
    /// condition; pass it to [`WaitSet::wait`] afterwards.
    pub(crate) fn epoch(&self) -> u64 {
        *lock_unpoisoned(&self.core.epoch)
    }

    /// Blocks until the epoch differs from `seen`. Returns immediately if
    /// it already does — a wake between the `epoch()` read and this call
    /// is never lost.
    pub(crate) fn wait(&self, seen: u64) {
        let mut epoch = lock_unpoisoned(&self.core.epoch);
        while *epoch == seen {
            epoch = self
                .core
                .cond
                .wait(epoch)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the epoch differs from `seen` or `deadline` passes.
    /// Returns `true` if woken by an epoch bump, `false` on deadline.
    pub(crate) fn wait_deadline(&self, seen: u64, deadline: Instant) -> bool {
        let mut epoch = lock_unpoisoned(&self.core.epoch);
        while *epoch == seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timeout) = self
                .core
                .cond
                .wait_timeout(epoch, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            epoch = guard;
        }
        true
    }

    /// Bumps the epoch and wakes the waiter. Used directly by sources
    /// that own a dedicated `WaitSet` (e.g. the executor's done signal);
    /// shared sources go through [`Watchers`].
    pub(crate) fn wake(&self) {
        self.core.wake();
    }

    /// Test-only: this wait set as a [`WakeTarget`], for the
    /// owned-subscription path ([`Watchers::subscribe_target`]) shared
    /// with task wakers — how unit tests poll a stage runner on a thread.
    #[cfg(test)]
    pub(crate) fn as_wake_target(&self) -> Arc<dyn WakeTarget> {
        self.core.clone()
    }
}

/// Registry of wait sets subscribed to one event source.
///
/// `wake_all` is called by the source after every state transition
/// (publication, close, stop/pause/resume, channel push/pop). It counts
/// delivered notifications, feeding the wakeup metrics.
pub(crate) struct Watchers {
    list: Mutex<Vec<(u64, Weak<dyn WakeTarget>)>>,
    next_id: AtomicU64,
    notifications: Counter,
}

impl std::fmt::Debug for Watchers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchers")
            .field("subscribers", &lock_unpoisoned(&self.list).len())
            .field("notifications", &self.notifications.get())
            .finish()
    }
}

impl Default for Watchers {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchers {
    pub(crate) fn new() -> Self {
        Self {
            list: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            notifications: Counter::default(),
        }
    }

    /// Subscribes `ws` to this source's wakeups until the guard drops.
    pub(crate) fn subscribe(&self, ws: &WaitSet) -> WatchGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // relaxed: id allocator; uniqueness only, no ordering
        let weak = Arc::downgrade(&ws.core);
        let weak: Weak<dyn WakeTarget> = weak;
        lock_unpoisoned(&self.list).push((id, weak));
        WatchGuard { watchers: self, id }
    }

    /// Subscribes an owned [`WakeTarget`] (a task waker, or in unit tests
    /// a wait-set core) with no guard: the entry lives until the `Arc`
    /// dies and the next wake sweeps the stale `Weak` out. Idempotent per
    /// target, so pollable runners may call it on every poll —
    /// resubscription after a restart swaps targets correctly while
    /// repeat polls stay O(subscribers) under one lock.
    pub(crate) fn subscribe_target(&self, target: &Arc<dyn WakeTarget>) {
        let ptr = Arc::as_ptr(target) as *const ();
        let mut list = lock_unpoisoned(&self.list);
        if list
            .iter()
            .any(|(_, weak)| std::ptr::eq(weak.as_ptr() as *const (), ptr))
        {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // relaxed: id allocator; uniqueness only, no ordering
        list.push((id, Arc::downgrade(target)));
    }

    /// Wakes every subscribed waiter, pruning any that disappeared.
    pub(crate) fn wake_all(&self) {
        let mut delivered = 0u64;
        let mut list = lock_unpoisoned(&self.list);
        list.retain(|(_, weak)| match weak.upgrade() {
            Some(target) => {
                target.on_wake();
                delivered += 1;
                true
            }
            None => false,
        });
        drop(list);
        if delivered > 0 {
            self.notifications.add(delivered);
        }
    }

    /// Total notifications delivered to waiters so far.
    pub(crate) fn notification_count(&self) -> u64 {
        self.notifications.get()
    }

    fn unsubscribe(&self, id: u64) {
        lock_unpoisoned(&self.list).retain(|(i, _)| *i != id);
    }
}

/// Scoped subscription of a [`WaitSet`] to a [`Watchers`] registry.
pub(crate) struct WatchGuard<'a> {
    watchers: &'a Watchers,
    id: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        self.watchers.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn wake_before_wait_is_not_lost() {
        let ws = WaitSet::new();
        let seen = ws.epoch();
        ws.wake();
        // Must return immediately: epoch already differs from `seen`.
        ws.wait(seen);
    }

    #[test]
    fn wait_blocks_until_woken() {
        let ws = WaitSet::new();
        let ws2 = ws.clone();
        let seen = ws.epoch();
        let h = thread::spawn(move || {
            let start = Instant::now();
            ws2.wait(seen);
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(20));
        ws.wake();
        let blocked_for = h.join().unwrap();
        assert!(blocked_for >= Duration::from_millis(10));
    }

    #[test]
    fn wait_deadline_times_out() {
        let ws = WaitSet::new();
        let seen = ws.epoch();
        let deadline = Instant::now() + Duration::from_millis(15);
        assert!(!ws.wait_deadline(seen, deadline));
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn wait_deadline_woken_early() {
        let ws = WaitSet::new();
        let ws2 = ws.clone();
        let seen = ws.epoch();
        let h = thread::spawn(move || {
            ws2.wait_deadline(seen, Instant::now() + Duration::from_secs(30))
        });
        thread::sleep(Duration::from_millis(10));
        ws.wake();
        assert!(h.join().unwrap(), "should report a wake, not a timeout");
    }

    #[test]
    fn watchers_wake_all_subscribers() {
        let watchers = Watchers::new();
        let a = WaitSet::new();
        let b = WaitSet::new();
        let _ga = watchers.subscribe(&a);
        let _gb = watchers.subscribe(&b);
        let (ea, eb) = (a.epoch(), b.epoch());
        watchers.wake_all();
        assert_ne!(a.epoch(), ea);
        assert_ne!(b.epoch(), eb);
        assert_eq!(watchers.notification_count(), 2);
    }

    #[test]
    fn dropped_guard_unsubscribes() {
        let watchers = Watchers::new();
        let ws = WaitSet::new();
        let guard = watchers.subscribe(&ws);
        drop(guard);
        let before = ws.epoch();
        watchers.wake_all();
        assert_eq!(ws.epoch(), before, "unsubscribed waiter must not be woken");
        assert_eq!(watchers.notification_count(), 0);
    }
}
