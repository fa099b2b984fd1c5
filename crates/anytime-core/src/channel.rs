//! Control-aware bounded channel between runtime tasks.
//!
//! The synchronous pipeline (§III-C2) needs a bounded producer/consumer
//! queue whose operations participate in the event-driven control plane. Both ends are runtime tasks, so the channel
//! is poll-only: [`Sender::poll_send`] hands a value back when the queue
//! is full and [`Receiver::poll_recv`] reports an empty queue, and neither
//! ever blocks. A task that gets either answer returns `Pending` after
//! subscribing its waker to the channel and to the [`ControlToken`]; the
//! channel wakes its subscribers when space or data appears and when a
//! peer exits, and the token wakes them on stop, pause and resume. The
//! stdlib and crossbeam channels cannot observe a [`ControlToken`], so a
//! stop would not reach a task waiting on them.
//!
//! Pause is the caller's to observe: a pollable task checks
//! [`ControlToken::poll_checkpoint`] before it sends or receives.

use crate::control::ControlToken;
use crate::error::{CoreError, Result};
use crate::notify::{lock_unpoisoned, WakeTarget, Watchers};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

struct Shared<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    watchers: Watchers,
}

/// Creates a bounded channel whose endpoints observe a [`ControlToken`].
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
            sender_alive: true,
            receiver_alive: true,
        }),
        watchers: Watchers::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Producer endpoint. Deliberately not [`Clone`] either: the synchronous
/// pipeline has one producer.
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.state).sender_alive = false;
        // The receiver must learn the stream is over.
        self.shared.watchers.wake_all();
    }
}

impl<T> Sender<T> {
    /// One send attempt that never blocks, not even on pause (the caller
    /// observes pause through [`ControlToken::poll_checkpoint`] first):
    /// `Ok(None)` when sent, `Ok(Some(v))` when the queue is full (the
    /// value is handed back).
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped (also when the
    ///   receiver vanished *because* of the stop).
    /// - [`CoreError::ChannelClosed`] if the receiver was dropped or
    ///   closed while still running.
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
            // The receiver only waits on an empty queue.
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
        lock_unpoisoned(&self.shared.state).receiver_alive = false;
        // A sender waiting on a full queue must learn the consumer is gone.
        self.shared.watchers.wake_all();
    }
}

impl<T> Receiver<T> {
    /// Messages currently queued (diagnostic).
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.shared.state).queue.len()
    }

    /// One receive attempt that never blocks, not even on pause (the
    /// caller observes pause through [`ControlToken::poll_checkpoint`]
    /// first): `Ok(Some(v))` on data, `Ok(None)` when the queue is empty
    /// but the sender remains.
    ///
    /// Like crossbeam, a closed channel still drains: queued messages are
    /// delivered before [`CoreError::ChannelClosed`].
    ///
    /// # Errors
    ///
    /// - [`CoreError::Stopped`] if the automaton is stopped (checked before
    ///   the queue, so a stop is honored promptly even with a full queue).
    /// - [`CoreError::ChannelClosed`] once the sender is gone and the
    ///   queue is drained.
    pub(crate) fn poll_recv(&self, ctl: &ControlToken) -> Result<Option<T>> {
        if ctl.is_stopped() {
            return Err(CoreError::Stopped);
        }
        let mut st = lock_unpoisoned(&self.shared.state);
        if let Some(v) = st.queue.pop_front() {
            let was_full = st.queue.len() + 1 == self.shared.capacity;
            drop(st);
            if was_full {
                // Senders only wait on a full queue.
                self.shared.watchers.wake_all();
            }
            return Ok(Some(v));
        }
        if !st.sender_alive {
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
    use crate::notify::WaitSet;

    /// A wake target whose epoch counts the wakeups delivered to it.
    fn counting_target() -> (WaitSet, Arc<dyn WakeTarget>) {
        let ws = WaitSet::new();
        let target = ws.as_wake_target();
        (ws, target)
    }

    #[test]
    fn poll_send_recv_in_order() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        for i in 0..4 {
            assert!(tx.poll_send(i, &ctl).unwrap().is_none());
        }
        for i in 0..4 {
            assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(i));
        }
        assert_eq!(rx.poll_recv(&ctl).unwrap(), None, "empty but open");
    }

    #[test]
    fn full_queue_hands_the_value_back() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        assert!(tx.poll_send(0, &ctl).unwrap().is_none());
        assert_eq!(tx.poll_send(1, &ctl).unwrap(), Some(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(0));
        assert!(tx.poll_send(1, &ctl).unwrap().is_none());
        assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(1));
    }

    #[test]
    fn space_wakes_the_sender() {
        let (tx, rx) = bounded::<u32>(2);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        tx.poll_send(0, &ctl).unwrap();
        tx.poll_send(1, &ctl).unwrap();
        tx.subscribe_target(&target);
        assert_eq!(tx.poll_send(2, &ctl).unwrap(), Some(2));
        assert_eq!(wakes.epoch(), 0);
        rx.poll_recv(&ctl).unwrap();
        assert_eq!(wakes.epoch(), 1, "a pop from a full queue wakes the sender");
        rx.poll_recv(&ctl).unwrap();
        assert_eq!(wakes.epoch(), 1, "only the full → not-full edge wakes");
    }

    #[test]
    fn data_wakes_the_receiver() {
        let (tx, rx) = bounded::<u32>(2);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        rx.subscribe_target(&target);
        assert_eq!(rx.poll_recv(&ctl).unwrap(), None);
        tx.poll_send(7, &ctl).unwrap();
        assert_eq!(wakes.epoch(), 1, "a push onto an empty queue wakes");
        tx.poll_send(8, &ctl).unwrap();
        assert_eq!(wakes.epoch(), 1, "only the empty → not-empty edge wakes");
        assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(7));
    }

    #[test]
    fn receiver_exit_wakes_and_fails_the_sender() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        tx.poll_send(0, &ctl).unwrap();
        tx.subscribe_target(&target);
        drop(rx);
        assert_eq!(wakes.epoch(), 1);
        assert!(matches!(
            tx.poll_send(1, &ctl),
            Err(CoreError::ChannelClosed)
        ));
    }

    #[test]
    fn sender_exit_wakes_the_receiver() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        rx.subscribe_target(&target);
        assert_eq!(rx.poll_recv(&ctl).unwrap(), None);
        drop(tx);
        assert_eq!(wakes.epoch(), 1);
        assert!(matches!(rx.poll_recv(&ctl), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn stop_fails_both_ends() {
        let (tx, rx) = bounded::<u32>(2);
        let ctl = ControlToken::new();
        tx.poll_send(0, &ctl).unwrap();
        ctl.stop();
        assert!(matches!(tx.poll_send(1, &ctl), Err(CoreError::Stopped)));
        assert!(
            matches!(rx.poll_recv(&ctl), Err(CoreError::Stopped)),
            "a stop is reported before queued data"
        );
        drop(rx);
        assert!(
            matches!(tx.poll_send(1, &ctl), Err(CoreError::Stopped)),
            "a receiver gone because of the stop reports the stop"
        );
    }

    #[test]
    fn closed_channel_drains_then_errors() {
        let (tx, rx) = bounded::<u32>(4);
        let ctl = ControlToken::new();
        tx.poll_send(1, &ctl).unwrap();
        tx.poll_send(2, &ctl).unwrap();
        drop(tx);
        assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(1));
        assert_eq!(rx.poll_recv(&ctl).unwrap(), Some(2));
        assert!(matches!(rx.poll_recv(&ctl), Err(CoreError::ChannelClosed)));
    }
}
