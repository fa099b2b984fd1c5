//! Control-aware bounded channel for synchronous update streams.
//!
//! The synchronous pipeline (§III-C2) and the parallel sampled map need a
//! bounded producer/consumer queue whose operations participate in the
//! event-driven control plane: a backpressured `send` must *block* — no
//! polling quantum — yet wake immediately when space appears, when the
//! peer disappears, or when the automaton is stopped or paused. Runtime
//! tasks use the never-blocking `poll_send`/`poll_recv` instead and
//! subscribe their waker for the same events. The stdlib and crossbeam
//! channels cannot observe a [`ControlToken`], so a stop would only be
//! noticed by sleeping in slices; this channel subscribes its waiters to
//! both the channel's own [`Watchers`] and the control token's.
//!
//! Pause semantics follow checkpoints: a paused automaton blocks producers
//! and consumers inside [`ControlToken::checkpoint`] until resumed.

use crate::control::ControlToken;
use crate::error::{CoreError, Result};
use crate::metrics::WaitCounters;
use crate::notify::{lock_unpoisoned, WaitSet, WakeTarget, Watchers};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    watchers: Watchers,
    counters: WaitCounters,
}

/// Creates a bounded channel whose blocking endpoints observe a
/// [`ControlToken`].
///
/// # Panics
///
/// Panics if `capacity == 0` (rendezvous semantics are not supported).
pub(crate) fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be >= 1");
    let shared = Arc::new(Shared {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        watchers: Watchers::new(),
        counters: WaitCounters::default(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Producer endpoint. Cloneable for multi-producer use (worker threads).
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.shared.state).senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // The receiver must learn the stream is over.
            self.shared.watchers.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the queue is full or the automaton is
    /// paused, waking immediately on space, receiver exit, or stop.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped (also when the
    ///   receiver vanished *because* of the stop).
    /// - [`CoreError::ChannelClosed`] if the receiver was dropped while
    ///   still running.
    pub(crate) fn send(&self, value: T, ctl: &ControlToken) -> Result<()> {
        let mut value = value;
        // Fast path: space available, nothing to wait for.
        match self.try_push(value, ctl)? {
            None => return Ok(()),
            Some(v) => value = v,
        }
        // Slow path: wait for space, a receiver exit, or a stop.
        let ws = WaitSet::new();
        let _chan_watch = self.shared.watchers.subscribe(&ws);
        let _ctl_watch = ctl.subscribe(&ws);
        self.shared.counters.record_wait_entered();
        let blocked_since = Instant::now();
        let mut woken = false;
        loop {
            let seen = ws.epoch();
            match self.try_push(value, ctl) {
                Ok(None) => {
                    self.shared
                        .counters
                        .record_wait_finished(blocked_since.elapsed());
                    return Ok(());
                }
                Ok(Some(v)) => value = v,
                Err(e) => {
                    self.shared
                        .counters
                        .record_wait_finished(blocked_since.elapsed());
                    return Err(e);
                }
            }
            if woken {
                self.shared.counters.spurious_wakeups.inc();
            }
            ws.wait(seen);
            woken = true;
            self.shared.counters.wakeups.inc();
        }
    }

    /// One non-blocking send attempt: `Ok(None)` on success, `Ok(Some(v))`
    /// when the queue is full (value handed back), `Err` when the stream
    /// cannot accept the value anymore. Honors pause via `checkpoint`.
    fn try_push(&self, value: T, ctl: &ControlToken) -> Result<Option<T>> {
        ctl.checkpoint()?;
        self.poll_send(value, ctl)
    }

    /// The task-poll counterpart of `try_push`: never blocks, not even on
    /// pause (the pollable caller observes pause through
    /// [`ControlToken::poll_checkpoint`] before calling). Same contract
    /// otherwise: `Ok(None)` sent, `Ok(Some(v))` full, `Err` dead stream.
    pub(crate) fn poll_send(&self, value: T, ctl: &ControlToken) -> Result<Option<T>> {
        if ctl.is_stopped() {
            return Err(CoreError::Stopped);
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        if !st.receiver_alive {
            // A stopped consumer drops its receiver; report the stop rather
            // than a broken channel in that case.
            return if ctl.is_stopped() {
                Err(CoreError::Stopped)
            } else {
                Err(CoreError::ChannelClosed)
            };
        }
        if st.queue.len() >= self.shared.capacity {
            return Ok(Some(value));
        }
        let was_empty = st.queue.is_empty();
        st.queue.push_back(value);
        drop(st);
        if was_empty {
            // The receiver only blocks on an empty queue.
            self.shared.watchers.wake_all();
        }
        Ok(None)
    }

    /// Registers an owned wake target (a runtime task waker) for wakeups
    /// on every queue transition or peer exit. Idempotent; pollable
    /// producers call it at the top of every poll slice.
    pub(crate) fn subscribe_target(&self, target: &Arc<dyn WakeTarget>) {
        self.shared.watchers.subscribe_target(target);
    }

    /// Test-only: blocks until `target` blocking waits (either endpoint)
    /// have been entered on this channel. See
    /// [`crate::metrics::WaitCounters::wait_for_waits`].
    #[cfg(test)]
    pub(crate) fn wait_for_waits(&self, target: u64, timeout: std::time::Duration) -> bool {
        self.shared.counters.wait_for_waits(target, timeout)
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("queued", &lock_unpoisoned(&self.shared.state).queue.len())
            .finish()
    }
}

/// Consumer endpoint. Deliberately not [`Clone`]: the synchronous pipeline
/// is a strict one-consumer relationship.
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.shared.state);
        st.receiver_alive = false;
        drop(st);
        // Backpressured senders must learn the consumer is gone.
        self.shared.watchers.wake_all();
    }
}

impl<T> Receiver<T> {
    /// Messages currently queued (diagnostic).
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.shared.state).queue.len()
    }

    /// Test-only: receives the next message, blocking while the queue is
    /// empty or the automaton is paused, waking immediately on
    /// publication, producer exit, or stop. Production consumers are
    /// runtime tasks and use [`Receiver::poll_recv`].
    ///
    /// Like crossbeam, a closed channel still drains: queued messages are
    /// delivered before [`CoreError::ChannelClosed`].
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped (checked before
    ///   the queue, so a stop is honored promptly even with a full queue).
    /// - [`CoreError::ChannelClosed`] once all senders are gone and the
    ///   queue is drained.
    #[cfg(test)]
    pub(crate) fn recv(&self, ctl: &ControlToken) -> Result<T> {
        // Fast path.
        if let Some(v) = self.try_pop(ctl)? {
            return Ok(v);
        }
        // Slow path: wait for data, the last sender's exit, or a stop.
        let ws = WaitSet::new();
        let _chan_watch = self.shared.watchers.subscribe(&ws);
        let _ctl_watch = ctl.subscribe(&ws);
        self.shared.counters.record_wait_entered();
        let blocked_since = Instant::now();
        let mut woken = false;
        loop {
            let seen = ws.epoch();
            match self.try_pop(ctl) {
                Ok(Some(v)) => {
                    self.shared
                        .counters
                        .record_wait_finished(blocked_since.elapsed());
                    return Ok(v);
                }
                Ok(None) => {}
                Err(e) => {
                    self.shared
                        .counters
                        .record_wait_finished(blocked_since.elapsed());
                    return Err(e);
                }
            }
            if woken {
                self.shared.counters.spurious_wakeups.inc();
            }
            ws.wait(seen);
            woken = true;
            self.shared.counters.wakeups.inc();
        }
    }

    /// One non-blocking receive attempt: `Ok(Some(v))` on data, `Ok(None)`
    /// when empty but still open, `Err` on stop or a drained closed stream.
    #[cfg(test)]
    fn try_pop(&self, ctl: &ControlToken) -> Result<Option<T>> {
        ctl.checkpoint()?;
        self.poll_recv(ctl)
    }

    /// The task-poll counterpart of `try_pop`: never blocks, not even on
    /// pause (the pollable caller observes pause through
    /// [`ControlToken::poll_checkpoint`] before calling).
    pub(crate) fn poll_recv(&self, ctl: &ControlToken) -> Result<Option<T>> {
        if ctl.is_stopped() {
            return Err(CoreError::Stopped);
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        if let Some(v) = st.queue.pop_front() {
            let was_full = st.queue.len() + 1 == self.shared.capacity;
            drop(st);
            if was_full {
                // Senders only block on a full queue.
                self.shared.watchers.wake_all();
            }
            return Ok(Some(v));
        }
        if st.senders == 0 {
            return Err(CoreError::ChannelClosed);
        }
        Ok(None)
    }

    /// Registers an owned wake target (a runtime task waker) for wakeups
    /// on every queue transition or peer exit. Idempotent; pollable
    /// consumers call it at the top of every poll slice.
    pub(crate) fn subscribe_target(&self, target: &Arc<dyn WakeTarget>) {
        self.shared.watchers.subscribe_target(target);
    }

    /// Counters for blocking waits on this channel (both endpoints).
    #[cfg(test)]
    pub(crate) fn wait_stats(&self) -> crate::metrics::WaitStats {
        self.shared.counters.snapshot()
    }

    /// Test-only: blocks until `target` blocking waits (either endpoint)
    /// have been entered on this channel. See
    /// [`crate::metrics::WaitCounters::wait_for_waits`].
    #[cfg(test)]
    pub(crate) fn wait_for_waits(&self, target: u64, timeout: std::time::Duration) -> bool {
        self.shared.counters.wait_for_waits(target, timeout)
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("queued", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        for i in 0..4 {
            tx.send(i, &ctl).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(&ctl).unwrap(), i);
        }
    }

    #[test]
    fn full_queue_blocks_until_recv() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        tx.send(0, &ctl).unwrap();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || tx.send(1, &ctl2));
        // Event-driven: block until the sender has entered its wait, then
        // make room. No sleep quantum, no timing assumption.
        assert!(
            rx.wait_for_waits(1, Duration::from_secs(10)),
            "sender never blocked"
        );
        assert_eq!(rx.recv(&ctl).unwrap(), 0);
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(&ctl).unwrap(), 1);
        assert!(rx.wait_stats().waits >= 1);
    }

    #[test]
    fn empty_queue_blocks_until_send() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || rx.recv(&ctl2));
        assert!(
            tx.wait_for_waits(1, Duration::from_secs(10)),
            "receiver never blocked"
        );
        tx.send(7, &ctl).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn stop_interrupts_blocked_send_promptly() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        tx.send(0, &ctl).unwrap();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || {
            let start = Instant::now();
            (tx.send(1, &ctl2), start.elapsed())
        });
        assert!(
            rx.wait_for_waits(1, Duration::from_secs(10)),
            "sender never blocked"
        );
        ctl.stop();
        let (result, waited) = h.join().unwrap();
        assert!(matches!(result, Err(CoreError::Stopped)));
        assert!(waited < Duration::from_secs(5), "stop took {waited:?}");
    }

    #[test]
    fn stop_interrupts_blocked_recv_promptly() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || rx.recv(&ctl2));
        assert!(
            tx.wait_for_waits(1, Duration::from_secs(10)),
            "receiver never blocked"
        );
        ctl.stop();
        assert!(matches!(h.join().unwrap(), Err(CoreError::Stopped)));
    }

    #[test]
    fn closed_channel_drains_then_errors() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        tx.send(1, &ctl).unwrap();
        tx.send(2, &ctl).unwrap();
        drop(tx);
        assert_eq!(rx.recv(&ctl).unwrap(), 1);
        assert_eq!(rx.recv(&ctl).unwrap(), 2);
        assert!(matches!(rx.recv(&ctl), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        drop(rx);
        assert!(matches!(tx.send(0, &ctl), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn dropped_receiver_after_stop_reports_stop() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        ctl.stop();
        drop(rx);
        assert!(matches!(tx.send(0, &ctl), Err(CoreError::Stopped)));
    }

    #[test]
    fn dropped_receiver_unblocks_backpressured_sender() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        tx.send(0, &ctl).unwrap();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || tx.send(1, &ctl2));
        assert!(
            rx.wait_for_waits(1, Duration::from_secs(10)),
            "sender never blocked"
        );
        drop(rx);
        assert!(matches!(h.join().unwrap(), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn cloned_senders_all_feed_one_receiver() {
        let (tx, rx) = bounded::<u32>(8);
        let ctl = ControlToken::new();
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let tx = tx.clone();
            let ctl = ctl.clone();
            handles.push(thread::spawn(move || {
                for i in 0..25 {
                    tx.send(w * 100 + i, &ctl).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv(&ctl) {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        let expected: Vec<u32> = (0..4u32)
            .flat_map(|w| (0..25).map(move |i| w * 100 + i))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn pause_blocks_producer_until_resume() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        ctl.pause();
        let ctl2 = ctl.clone();
        let h = thread::spawn(move || tx.send(1, &ctl2));
        // A paused sender blocks inside the control token's checkpoint
        // (before ever touching the queue), so the entry signal comes from
        // the token's pause-wait counters, not the channel's.
        assert!(
            ctl.wait_for_checkpoint_waits(1, Duration::from_secs(10)),
            "sender never hit the pause checkpoint"
        );
        assert_eq!(rx.len(), 0, "send went through while paused");
        ctl.resume();
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(&ctl).unwrap(), 1);
    }
}
