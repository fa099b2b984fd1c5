//! Runtime checks for the paper's publication invariants.
//!
//! Every buffer publication is asserted against the two properties the
//! anytime contract promises its consumers (The Anytime Automaton, §3):
//!
//! - **Property 2 — monotone accuracy.** Within one run over one input,
//!   each published version refines the one before it; the iteration
//!   count (`steps`, our accuracy proxy) never decreases. A *new run* —
//!   an eager restart on fresh input, or a crash-restarted driver —
//!   legitimately resets the step counter, so drivers mark run
//!   boundaries with [`PublishInvariants::begin_run`] and the floor
//!   restarts there while the version chain keeps advancing.
//! - **Property 3 — single-swap publication.** Versions are swapped in
//!   whole, one at a time: each publication carries exactly the successor
//!   version of the previous one, and nothing is published after a
//!   terminal (final or degraded) version stands.
//!
//! The checks run under the buffer's state lock, where the version
//! counter and latest snapshot are already serialized, so they observe
//! the exact publication order. They are compiled to a no-op in release
//! builds (`debug_assertions` off) — the tracker fields are a few words
//! per buffer and stay resident, but no comparisons run. The unit tests
//! call the checks directly, so they hold in both profiles.

/// Per-buffer publication tracker. Lives inside the buffer's `State`
/// mutex; [`Self::check_publish`] must be called with that lock held so
/// the tracker sees publications in their true order.
#[derive(Debug, Default)]
pub(crate) struct PublishInvariants {
    /// Version of the last accepted publication.
    last_version: Option<u64>,
    /// Minimum `steps` the next publication may carry: the last published
    /// step count, reset to the run's starting step count by `begin_run`.
    steps_floor: u64,
    /// Set once a terminal (final or degraded) version was published.
    terminal: bool,
}

impl PublishInvariants {
    /// Marks the start of a new run whose step counter begins at
    /// `start_steps`. Publications within a run must keep `steps`
    /// monotone, but a fresh run (eager restart on newer input, or a
    /// crash-restarted driver) restarts counting — only the version
    /// chain persists across runs.
    pub(crate) fn begin_run(&mut self, start_steps: u64) {
        self.steps_floor = start_steps;
    }

    /// Asserts the publication invariants for the snapshot about to be
    /// swapped in. Call under the buffer state lock, before the swap.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when the publication would violate
    /// Property 2 (steps decreased within a run) or Property 3 (version
    /// not the single successor, or a publish after a terminal version).
    pub(crate) fn check_publish(&mut self, buffer: &str, version: u64, steps: u64, terminal: bool) {
        if cfg!(debug_assertions) {
            self.check(buffer, version, steps, terminal);
        }
    }

    /// The checks behind [`Self::check_publish`], in every build profile.
    fn check(&mut self, buffer: &str, version: u64, steps: u64, terminal: bool) {
        assert!(
            !self.terminal,
            "buffer `{buffer}`: publish of v{version} after a terminal version \
             (Property 3: nothing follows a final/degraded snapshot)"
        );
        if let Some(pv) = self.last_version {
            assert_eq!(
                version,
                pv + 1,
                "buffer `{buffer}`: version v{version} is not the single successor \
                 of v{pv} (Property 3: one swap per publication)"
            );
        }
        assert!(
            steps >= self.steps_floor,
            "buffer `{buffer}`: steps went backwards at v{version} ({steps} < {}) \
             within one run (Property 2: accuracy is monotone in iterations)",
            self.steps_floor
        );
        self.last_version = Some(version);
        self.steps_floor = steps;
        if terminal {
            self.terminal = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::PublishInvariants;

    #[test]
    fn accepts_monotone_single_swap_sequence() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 0, false);
        inv.check("b", 2, 5, false);
        inv.check("b", 3, 5, false); // equal steps: still monotone
        inv.check("b", 4, 9, true);
    }

    #[test]
    #[should_panic(expected = "Property 3")]
    fn rejects_version_gap() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 0, false);
        inv.check("b", 3, 1, false);
    }

    #[test]
    #[should_panic(expected = "Property 2")]
    fn rejects_steps_regression_within_a_run() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 10, false);
        inv.check("b", 2, 4, false);
    }

    #[test]
    fn new_run_resets_the_steps_floor_but_not_the_version_chain() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 10, false);
        inv.check("b", 2, 14, false);
        // Eager restart on newer input: steps restart, versions continue.
        inv.begin_run(0);
        inv.check("b", 3, 1, false);
        inv.check("b", 4, 7, true);
    }

    #[test]
    #[should_panic(expected = "Property 3")]
    fn new_run_does_not_excuse_a_version_gap() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 10, false);
        inv.begin_run(0);
        inv.check("b", 3, 1, false);
    }

    #[test]
    #[should_panic(expected = "after a terminal version")]
    fn rejects_publish_after_terminal() {
        let mut inv = PublishInvariants::default();
        inv.check("b", 1, 0, true);
        inv.check("b", 2, 1, false);
    }
}
