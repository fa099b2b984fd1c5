//! Control-aware bounded channel between runtime tasks.
//!
//! The synchronous pipeline (§III-C2) and the parallel sampled map need a
//! bounded producer/consumer queue whose operations participate in the
//! event-driven control plane. Both ends are runtime tasks, so the channel
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
    senders: usize,
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
            senders: 1,
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

/// Producer endpoint. Cloneable for multi-producer use (the parallel
/// map's share tasks).
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
        self.poll_close();
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
    /// but senders remain.
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
        if st.senders == 0 {
            return Err(CoreError::ChannelClosed);
        }
        Ok(None)
    }

    /// Closes the stream from the consumer side and reports whether every
    /// sender is gone. Senders fail at their next [`Sender::poll_send`];
    /// the last one to drop wakes this channel's subscribers. Idempotent:
    /// a consumer that must not outlive its producers polls it until it
    /// returns `true`.
    pub(crate) fn poll_close(&self) -> bool {
        let mut st = lock_unpoisoned(&self.shared.state);
        let was_open = std::mem::replace(&mut st.receiver_alive, false);
        let senders_gone = st.senders == 0;
        drop(st);
        if was_open {
            // Senders waiting on a full queue must learn the consumer is
            // gone.
            self.shared.watchers.wake_all();
        }
        senders_gone
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
    fn last_sender_exit_wakes_the_receiver() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        rx.subscribe_target(&target);
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(wakes.epoch(), 0, "a sender remains");
        assert_eq!(rx.poll_recv(&ctl).unwrap(), None);
        drop(tx2);
        assert_eq!(wakes.epoch(), 1);
        assert!(matches!(rx.poll_recv(&ctl), Err(CoreError::ChannelClosed)));
    }

    #[test]
    fn close_fails_senders_and_reports_when_they_are_gone() {
        let (tx, rx) = bounded::<u32>(1);
        let ctl = ControlToken::new();
        let (wakes, target) = counting_target();
        tx.subscribe_target(&target);
        assert!(!rx.poll_close(), "a sender is still alive");
        assert_eq!(wakes.epoch(), 1, "closing wakes the senders");
        assert!(matches!(
            tx.poll_send(0, &ctl),
            Err(CoreError::ChannelClosed)
        ));
        assert!(!rx.poll_close());
        assert_eq!(wakes.epoch(), 1, "a second close wakes no one");
        drop(tx);
        assert!(rx.poll_close());
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

    #[test]
    fn several_senders_feed_one_receiver() {
        let (tx, rx) = bounded::<u32>(3);
        let ctl = ControlToken::new();
        let senders: Vec<Sender<u32>> = (0..4).map(|_| tx.clone()).collect();
        drop(tx);
        let mut got = Vec::new();
        for i in 0..25u32 {
            for (w, s) in (0u32..).zip(&senders) {
                let mut v = w * 100 + i;
                while let Some(back) = s.poll_send(v, &ctl).unwrap() {
                    got.push(rx.poll_recv(&ctl).unwrap().expect("full queue"));
                    v = back;
                }
            }
        }
        drop(senders);
        loop {
            match rx.poll_recv(&ctl) {
                Ok(Some(v)) => got.push(v),
                Ok(None) => panic!("every sender is gone"),
                Err(e) => {
                    assert!(matches!(e, CoreError::ChannelClosed));
                    break;
                }
            }
        }
        got.sort_unstable();
        let expected: Vec<u32> = (0..4u32)
            .flat_map(|w| (0..25).map(move |i| w * 100 + i))
            .collect();
        assert_eq!(got, expected);
    }
}
