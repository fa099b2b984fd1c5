use crate::error::{CoreError, Result};
use crate::metrics::{WaitCounters, WaitStats};
use crate::notify::{lock_unpoisoned, WaitSet, WakeTarget, WatchGuard, Watchers};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Non-blocking observation of the control state, for pollable stage
/// tasks that must never park a runtime worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlPoll {
    Running,
    Paused,
    Stopped,
}

/// Execution state shared by every stage of an automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Running,
    Paused,
    Stopped,
}

struct Shared {
    state: std::sync::Mutex<RunState>,
    /// Mirror of `state` for the lock-free checkpoint fast path
    /// (0 = running, 1 = paused, 2 = stopped).
    state_hint: std::sync::atomic::AtomicU8,
    // lint: allow(l1-condvar) -- checkpoint() re-checks RunState under the same mutex; zero-alloc fast path
    cond: std::sync::Condvar,
    /// Wait sets of blocked waiters (buffer waits, channel waits, join
    /// multiplexers) to notify on every state transition.
    watchers: Watchers,
    /// Pause-blocking checkpoint counters.
    counters: WaitCounters,
}

impl Shared {
    fn set_state(&self, st: &mut RunState, new: RunState) {
        *st = new;
        let hint = match new {
            RunState::Running => 0,
            RunState::Paused => 1,
            RunState::Stopped => 2,
        };
        self.state_hint
            .store(hint, std::sync::atomic::Ordering::Release);
    }
}

/// The interruptibility switch of an automaton.
///
/// Anytime algorithms are *interruptible*: they can be stopped (or paused) at
/// any moment while still delivering a valid output (paper §II-B, §III). The
/// control token implements this: stage drivers call
/// [`ControlToken::checkpoint`] between intermediate computations, pausing or
/// exiting as requested. Because every published output version is a valid
/// approximation, stopping never corrupts the output — the latest snapshot in
/// each buffer remains readable.
///
/// Control transitions are **event-driven**: every blocking wait in the
/// runtime registers with the token, so `stop()`/`pause()`/`resume()`
/// *notify* waiters instead of being discovered by polling. A stop
/// interrupts a buffer wait or a backpressured channel in wakeup time
/// (microseconds), not at the next polling quantum.
///
/// Tokens are cheap to clone and shared across all stage threads.
#[derive(Clone)]
pub struct ControlToken {
    shared: Arc<Shared>,
}

impl ControlToken {
    /// Creates a token in the running state.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: std::sync::Mutex::new(RunState::Running),
                state_hint: std::sync::atomic::AtomicU8::new(0),
                // lint: allow(l1-condvar) -- same predicate-under-mutex protocol as the field above
                cond: std::sync::Condvar::new(),
                watchers: Watchers::new(),
                counters: WaitCounters::default(),
            }),
        }
    }

    /// Requests that the automaton stop at the next step boundary.
    ///
    /// Stopping is permanent; a stopped automaton cannot be resumed. The
    /// latest published output of every stage remains available. Every
    /// registered waiter is woken immediately.
    pub fn stop(&self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        self.shared.set_state(&mut st, RunState::Stopped);
        drop(st);
        self.shared.cond.notify_all();
        self.shared.watchers.wake_all();
    }

    /// Requests that the automaton pause at the next step boundary.
    ///
    /// A pause is a no-op if the automaton is already stopped.
    pub fn pause(&self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        if *st == RunState::Running {
            self.shared.set_state(&mut st, RunState::Paused);
            drop(st);
            self.shared.cond.notify_all();
            self.shared.watchers.wake_all();
        }
    }

    /// Resumes a paused automaton.
    pub fn resume(&self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        if *st == RunState::Paused {
            self.shared.set_state(&mut st, RunState::Running);
            drop(st);
            self.shared.cond.notify_all();
            self.shared.watchers.wake_all();
        }
    }

    /// `true` once [`ControlToken::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.shared
            .state_hint
            .load(std::sync::atomic::Ordering::Acquire)
            == 2
    }

    /// `true` while the automaton is paused.
    pub fn is_paused(&self) -> bool {
        *lock_unpoisoned(&self.shared.state) == RunState::Paused
    }

    /// Called by stage drivers between intermediate computations.
    ///
    /// Blocks while paused and returns once running again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stopped`] if the automaton has been stopped.
    pub fn checkpoint(&self) -> Result<()> {
        // Fast path: stage drivers call this between every intermediate
        // computation, so the running case must not touch the mutex.
        if self
            .shared
            .state_hint
            .load(std::sync::atomic::Ordering::Acquire)
            == 0
        {
            return Ok(());
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        let mut blocked_since: Option<Instant> = None;
        loop {
            match *st {
                RunState::Running => {
                    self.finish_checkpoint_wait(blocked_since);
                    return Ok(());
                }
                RunState::Stopped => {
                    self.finish_checkpoint_wait(blocked_since);
                    return Err(CoreError::Stopped);
                }
                RunState::Paused => {
                    if blocked_since.is_none() {
                        blocked_since = Some(Instant::now());
                        self.shared.counters.record_wait_entered();
                    } else {
                        self.shared.counters.wakeups.inc();
                        self.shared.counters.spurious_wakeups.inc();
                    }
                    st = self
                        .shared
                        .cond
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    fn finish_checkpoint_wait(&self, blocked_since: Option<Instant>) {
        if let Some(since) = blocked_since {
            self.shared.counters.wakeups.inc();
            self.shared.counters.record_wait_finished(since.elapsed());
        }
    }

    /// Counters for checkpoint pause-blocking on this token.
    pub fn wait_stats(&self) -> WaitStats {
        self.shared.counters.snapshot()
    }

    /// Test-only: blocks until `target` checkpoint pause-waits have been
    /// entered on this token. See
    /// [`crate::metrics::WaitCounters::wait_for_waits`].
    #[cfg(test)]
    pub(crate) fn wait_for_checkpoint_waits(
        &self,
        target: u64,
        timeout: std::time::Duration,
    ) -> bool {
        self.shared.counters.wait_for_waits(target, timeout)
    }

    /// Total wakeup notifications this token has delivered to registered
    /// waiters across all state transitions.
    pub fn notifications_sent(&self) -> u64 {
        self.shared.watchers.notification_count()
    }

    /// Registers `ws` to be woken on every state transition until the
    /// guard drops. Used by every blocking wait that must abort promptly
    /// on stop (buffer waits, channel sends/receives, join multiplexing).
    pub(crate) fn subscribe(&self, ws: &WaitSet) -> WatchGuard<'_> {
        self.shared.watchers.subscribe(ws)
    }

    /// Registers an owned wake target (a task waker) to be woken on every
    /// state transition. Idempotent; the entry dies with the target.
    pub(crate) fn subscribe_target(&self, target: &Arc<dyn WakeTarget>) {
        self.shared.watchers.subscribe_target(target);
    }

    /// The non-blocking counterpart of [`ControlToken::checkpoint`]:
    /// reports the current state instead of parking while paused. Stage
    /// tasks scheduled on the shared runtime use this — a paused task
    /// returns `Pending` to its worker (the resume transition wakes it via
    /// the watcher registry) rather than pinning the worker in a condvar.
    ///
    /// The hint load is `Acquire` paired with the `Release` store in
    /// `set_state`, and every transition wakes watchers *after* the store,
    /// so a task woken by a transition always observes the new state.
    pub(crate) fn poll_checkpoint(&self) -> ControlPoll {
        match self
            .shared
            .state_hint
            .load(std::sync::atomic::Ordering::Acquire)
        {
            0 => ControlPoll::Running,
            1 => ControlPoll::Paused,
            _ => ControlPoll::Stopped,
        }
    }
}

impl Default for ControlToken {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ControlToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlToken")
            .field("state", &*lock_unpoisoned(&self.shared.state))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;
    use std::time::Instant;

    #[test]
    fn running_checkpoint_is_ok() {
        let t = ControlToken::new();
        assert!(t.checkpoint().is_ok());
        assert!(!t.is_stopped());
        assert!(!t.is_paused());
    }

    #[test]
    fn stop_makes_checkpoint_fail() {
        let t = ControlToken::new();
        t.stop();
        assert!(matches!(t.checkpoint(), Err(CoreError::Stopped)));
        assert!(t.is_stopped());
    }

    #[test]
    fn pause_blocks_until_resume() {
        let t = ControlToken::new();
        t.pause();
        assert!(t.is_paused());
        let t2 = t.clone();
        let start = Instant::now();
        let h = thread::spawn(move || t2.checkpoint());
        thread::sleep(Duration::from_millis(50));
        t.resume();
        assert!(h.join().unwrap().is_ok());
        assert!(start.elapsed() >= Duration::from_millis(45));
        let stats = t.wait_stats();
        assert_eq!(stats.waits, 1);
        assert!(stats.total_wait >= Duration::from_millis(40));
    }

    #[test]
    fn pause_then_stop_unblocks_with_error() {
        let t = ControlToken::new();
        t.pause();
        let t2 = t.clone();
        let h = thread::spawn(move || t2.checkpoint());
        thread::sleep(Duration::from_millis(20));
        t.stop();
        assert!(matches!(h.join().unwrap(), Err(CoreError::Stopped)));
    }

    #[test]
    fn resume_without_pause_is_noop() {
        let t = ControlToken::new();
        t.resume();
        assert!(t.checkpoint().is_ok());
    }

    #[test]
    fn pause_after_stop_is_noop() {
        let t = ControlToken::new();
        t.stop();
        t.pause();
        assert!(t.is_stopped());
        assert!(!t.is_paused());
    }

    #[test]
    fn stop_wakes_subscribed_wait_set() {
        let t = ControlToken::new();
        let ws = WaitSet::new();
        let _guard = t.subscribe(&ws);
        let seen = ws.epoch();
        let (t2, ws2) = (t.clone(), ws.clone());
        let h = thread::spawn(move || {
            let start = Instant::now();
            ws2.wait(seen);
            (t2.is_stopped(), start.elapsed())
        });
        thread::sleep(Duration::from_millis(20));
        t.stop();
        let (stopped, waited) = h.join().unwrap();
        assert!(stopped, "waiter woke before the stop was visible");
        assert!(waited < Duration::from_secs(5));
        assert!(t.notifications_sent() >= 1);
    }

    #[test]
    fn transitions_notify_watchers_each_time() {
        let t = ControlToken::new();
        let ws = WaitSet::new();
        let _guard = t.subscribe(&ws);
        t.pause();
        t.resume();
        t.stop();
        assert_eq!(t.notifications_sent(), 3);
    }
}
