//! Stress tests for publish/close/stop races in the event-driven control
//! plane.
//!
//! The invariant under test: a blocked reader must always be released —
//! with a snapshot, `SourceClosed`, `Stopped`, or `Timeout` — no matter
//! how publication, writer teardown, and stop requests interleave. Every
//! scenario runs many iterations with many concurrent readers to shake
//! out lost-wakeup windows, and asserts *promptness* (readers observe the
//! event in wakeup time, not after a long timeout).
//!
//! A `loom`-based exhaustive interleaving check would be the stronger
//! tool here, but this workspace builds fully offline and loom is not
//! vendored; these schedule-randomized stress loops are the offline
//! approximation. The waits use generous outer timeouts so a regression
//! shows up as a test failure, never as a hung test runner.

use anytime_core::{buffer, ControlToken, CoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// The writer is dropped (stage teardown, e.g. after a panic) without ever
/// publishing a final version while readers sit in `wait_final_timeout`.
/// Every reader must get `SourceClosed` promptly — not block until the
/// outer timeout, and never deadlock.
#[test]
fn writer_drop_without_final_releases_final_waiters() {
    const READERS: usize = 8;
    const ROUNDS: usize = 50;
    for round in 0..ROUNDS {
        let (mut w, r) = buffer::versioned::<u64>("drop-race");
        let barrier = Arc::new(Barrier::new(READERS + 1));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let r = r.clone();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let result = r.wait_final_timeout(Duration::from_secs(30));
                    (result, start.elapsed())
                })
            })
            .collect();
        barrier.wait();
        // Race the teardown against the readers' wait entry: some rounds
        // drop before any reader blocks, some mid-wait.
        w.publish(round as u64, 1);
        if round % 3 == 0 {
            thread::yield_now();
        }
        drop(w);
        for h in handles {
            let (result, waited) = h.join().unwrap();
            assert!(
                matches!(result, Err(CoreError::SourceClosed { .. })),
                "round {round}: expected SourceClosed, got {result:?}"
            );
            assert!(
                waited < Duration::from_secs(5),
                "round {round}: reader took {waited:?} to observe the close"
            );
        }
        // The last published version survives the writer for late readers.
        assert_eq!(*r.latest().unwrap().value(), round as u64);
    }
}

/// A stop lands while readers block in control-aware final waits. Every
/// reader must unblock with `Stopped` at wakeup latency.
#[test]
fn stop_during_wait_releases_all_readers_promptly() {
    const READERS: usize = 8;
    const ROUNDS: usize = 50;
    for round in 0..ROUNDS {
        let (mut w, r) = buffer::versioned::<u64>("stop-race");
        let ctl = ControlToken::new();
        w.publish(1, 1); // non-final: final waiters must keep blocking
        let barrier = Arc::new(Barrier::new(READERS + 1));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let r = r.clone();
                let ctl = ctl.clone();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let result = r.wait_final_timeout_with(Duration::from_secs(30), &ctl);
                    (result, start.elapsed())
                })
            })
            .collect();
        barrier.wait();
        if round % 2 == 0 {
            thread::yield_now();
        }
        ctl.stop();
        for h in handles {
            let (result, waited) = h.join().unwrap();
            assert!(
                matches!(result, Err(CoreError::Stopped)),
                "round {round}: expected Stopped, got {result:?}"
            );
            assert!(
                waited < Duration::from_secs(5),
                "round {round}: stop took {waited:?} to release the reader"
            );
        }
    }
}

/// Publications, a writer drop, and readers hopping between waits all
/// racing at once: every reader must terminate with a coherent outcome and
/// every snapshot it sees must be monotonically newer than its last.
#[test]
fn publish_close_churn_never_wedges_readers() {
    const READERS: usize = 6;
    const ROUNDS: usize = 20;
    for _ in 0..ROUNDS {
        let (mut w, r) = buffer::versioned::<u64>("churn");
        let ctl = ControlToken::new();
        let closed_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let r = r.clone();
                let ctl = ctl.clone();
                let closed_seen = Arc::clone(&closed_seen);
                thread::spawn(move || {
                    let mut newest = None;
                    loop {
                        match r.wait_newer(newest, &ctl) {
                            Ok(snap) => {
                                if let Some(v) = newest {
                                    assert!(snap.version() > v, "stale snapshot");
                                }
                                newest = Some(snap.version());
                            }
                            Err(CoreError::SourceClosed { .. }) => {
                                closed_seen.fetch_add(1, Ordering::Relaxed); // relaxed: test counter, not synchronization
                                return;
                            }
                            Err(e) => panic!("unexpected wait error: {e:?}"),
                        }
                    }
                })
            })
            .collect();
        for i in 0..64 {
            w.publish(i, i + 1);
            if i % 16 == 0 {
                thread::yield_now();
            }
        }
        drop(w); // close without a final version, mid-churn
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(closed_seen.load(Ordering::Relaxed), READERS); // relaxed: test counter
    }
}

/// A final publication racing the stop request: each reader must resolve
/// to exactly one of the two outcomes — the final snapshot or `Stopped` —
/// promptly, regardless of which side wins the race.
#[test]
fn final_publication_races_stop() {
    const READERS: usize = 6;
    const ROUNDS: usize = 50;
    for round in 0..ROUNDS {
        let (mut w, r) = buffer::versioned::<u64>("final-vs-stop");
        let ctl = ControlToken::new();
        let barrier = Arc::new(Barrier::new(READERS + 2));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let r = r.clone();
                let ctl = ctl.clone();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    r.wait_final_timeout_with(Duration::from_secs(30), &ctl)
                })
            })
            .collect();
        let stopper = {
            let ctl = ctl.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                ctl.stop();
            })
        };
        barrier.wait();
        w.publish_final(42, 1);
        stopper.join().unwrap();
        for h in handles {
            match h.join().unwrap() {
                Ok(snap) => {
                    assert!(snap.is_final());
                    assert_eq!(*snap.value(), 42);
                }
                Err(CoreError::Stopped) => {}
                other => panic!("round {round}: unexpected outcome {other:?}"),
            }
        }
        // Whatever the readers saw, the final output is durably readable.
        assert!(r.latest().unwrap().is_final());
    }
}

/// Wait-set registrations are scoped: thousands of short-lived waiters
/// must leave no residue that slows or breaks later wakeups.
///
/// A waiter that first checks after its 50 µs deadline (its thread was
/// preempted) returns `Timeout` from the fast path without blocking, and
/// `WaitStats::waits` does not count it. So the churn runs until 2,000
/// blocking waits are counted, under a fixed cap on the calls.
#[test]
fn transient_waiters_leave_no_residue() {
    /// Calls allowed to reach 2,000 blocking waits.
    const MAX_CALLS: u32 = 20_000;
    let (mut w, r) = buffer::versioned::<u64>("residue");
    let mut calls = 0u32;
    while r.wait_stats().waits < 2000 {
        assert!(
            calls < MAX_CALLS,
            "{calls} waits of 50 µs blocked only {} times",
            r.wait_stats().waits
        );
        // Briefly blocks, expires by deadline, unsubscribes on exit.
        let _ = r.wait_newer_timeout(None, Duration::from_micros(50));
        calls += 1;
    }
    w.publish(7, 1);
    let snap = r
        .wait_newer_timeout(None, Duration::from_secs(5))
        .expect("publication still observable after churn");
    assert_eq!(*snap.value(), 7);
    drop(w);
    let stats = r.wait_stats();
    assert!(stats.waits >= 2000, "blocking waits were counted");
}
