//! The control token: stop, pause and resume for a whole automaton.
//!
//! Every stage of an automaton shares one [`ControlToken`]. Stage tasks
//! observe it without blocking through [`ControlToken::poll_checkpoint`]
//! between intermediate computations, and subscribe their wakers to it,
//! so a transition re-polls every waiting task instead of being found by
//! polling. Blocking waits outside the runtime (buffer waits, join
//! multiplexing) subscribe a wait set the same way. User code reads the
//! state with [`ControlToken::is_stopped`] and [`ControlToken::is_paused`].

use crate::notify::{WaitSet, WakeTarget, WatchGuard, Watchers};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// The control state, as a stage task observes it at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlPoll {
    Running,
    Paused,
    Stopped,
}

const RUNNING: u8 = 0;
const PAUSED: u8 = 1;
const STOPPED: u8 = 2;

struct Shared {
    /// `RUNNING`, `PAUSED` or `STOPPED`. Every transition stores it before
    /// it wakes the watchers.
    state: AtomicU8,
    /// Stage task wakers and blocked waiters (buffer waits, join
    /// multiplexers) to notify on every state transition.
    watchers: Watchers,
}

/// The interruptibility switch of an automaton.
///
/// Anytime algorithms are *interruptible*: they can be stopped (or paused) at
/// any moment while still delivering a valid output (paper §II-B, §III). The
/// control token implements this: stage tasks check it between
/// intermediate computations, returning `Pending` while paused and ending
/// once stopped. Because every published output version is a valid
/// approximation, stopping never corrupts the output — the latest snapshot in
/// each buffer remains readable.
///
/// Control transitions are **event-driven**: every waiting task and every
/// blocking wait registers with the token, so `stop()`/`pause()`/`resume()`
/// *notify* them instead of being discovered by polling. A stop reaches a
/// buffer wait or a backpressured stage task in wakeup time
/// (microseconds), not at the next polling quantum.
///
/// Tokens are cheap to clone and shared across all stage tasks.
#[derive(Clone)]
pub struct ControlToken {
    shared: Arc<Shared>,
}

impl ControlToken {
    /// Creates a token in the running state.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: AtomicU8::new(RUNNING),
                watchers: Watchers::new(),
            }),
        }
    }

    /// Requests that the automaton stop at the next step boundary.
    ///
    /// Stopping is permanent; a stopped automaton cannot be resumed. The
    /// latest published output of every stage remains available. Every
    /// registered waiter is woken immediately.
    pub fn stop(&self) {
        self.shared.state.store(STOPPED, Ordering::Release);
        self.shared.watchers.wake_all();
    }

    /// Requests that the automaton pause at the next step boundary.
    ///
    /// A pause is a no-op if the automaton is already stopped.
    pub fn pause(&self) {
        self.transition(RUNNING, PAUSED);
    }

    /// Resumes a paused automaton.
    pub fn resume(&self) {
        self.transition(PAUSED, RUNNING);
    }

    /// Moves the state from `from` to `to`, waking every watcher, if the
    /// token is in `from`; otherwise does nothing.
    fn transition(&self, from: u8, to: u8) {
        if self
            .shared
            .state
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.shared.watchers.wake_all();
        }
    }

    /// `true` once [`ControlToken::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.poll_checkpoint() == ControlPoll::Stopped
    }

    /// `true` while the automaton is paused.
    pub fn is_paused(&self) -> bool {
        self.poll_checkpoint() == ControlPoll::Paused
    }

    /// Total wakeup notifications this token has delivered to registered
    /// waiters across all state transitions.
    pub fn notifications_sent(&self) -> u64 {
        self.shared.watchers.notification_count()
    }

    /// Registers `ws` to be woken on every state transition until the
    /// guard drops. Used by every blocking wait that must abort promptly
    /// on stop (buffer waits, join multiplexing).
    pub(crate) fn subscribe(&self, ws: &WaitSet) -> WatchGuard<'_> {
        self.shared.watchers.subscribe(ws)
    }

    /// Registers an owned wake target (a task waker) to be woken on every
    /// state transition. Idempotent; the entry dies with the target.
    pub(crate) fn subscribe_target(&self, target: &Arc<dyn WakeTarget>) {
        self.shared.watchers.subscribe_target(target);
    }

    /// The checkpoint stage tasks call between intermediate computations:
    /// reports the current state without blocking. A paused task returns
    /// `Pending` to its worker, and the resume transition wakes it through
    /// the watcher registry.
    ///
    /// The load is `Acquire`, paired with the `Release` store or `AcqRel`
    /// exchange of every transition, and every transition wakes watchers
    /// *after* it, so a task woken by a transition observes the new state.
    pub(crate) fn poll_checkpoint(&self) -> ControlPoll {
        match self.shared.state.load(Ordering::Acquire) {
            RUNNING => ControlPoll::Running,
            PAUSED => ControlPoll::Paused,
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
            .field("state", &self.poll_checkpoint())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_checkpoint_follows_every_transition() {
        let t = ControlToken::new();
        assert_eq!(t.poll_checkpoint(), ControlPoll::Running);
        assert!(!t.is_stopped());
        assert!(!t.is_paused());
        t.resume();
        assert_eq!(
            t.poll_checkpoint(),
            ControlPoll::Running,
            "resume without pause is a no-op"
        );
        t.pause();
        assert!(t.is_paused());
        assert_eq!(t.poll_checkpoint(), ControlPoll::Paused);
        t.resume();
        assert_eq!(t.poll_checkpoint(), ControlPoll::Running);
        t.pause();
        t.stop();
        assert_eq!(
            t.poll_checkpoint(),
            ControlPoll::Stopped,
            "a stop ends a pause"
        );
        assert!(t.is_stopped());
        assert!(!t.is_paused());
        t.resume();
        assert_eq!(t.poll_checkpoint(), ControlPoll::Stopped, "stop is final");
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
