//! L10: OS-thread-parking calls reachable from a task poll body.
//!
//! Stage work runs as cooperative tasks on the shared work-stealing
//! runtime; the only legal ways to wait are returning
//! `TaskPoll::Pending` (with a subscribed waker) or
//! `TaskPoll::PendingUntil`. A `WaitSet::wait*`, channel `recv*`, or
//! thread `join()` inside task context parks the worker thread itself:
//! with N workers, N such tasks brown out the entire pool — the scenario
//! the ROADMAP's 100-replica target cannot tolerate. The diagnostic
//! prints the call chain from the poll root so the blocking site can be
//! traced even when it hides several calls deep.

use crate::ast::Event;
use crate::model::{is_blocking_name, Model};
use crate::Diagnostic;

/// Flags every thread-parking call site inside a task-reachable function.
pub fn check(model: &Model, out: &mut Vec<Diagnostic>) {
    let mut indices: Vec<usize> = model.reachable.keys().copied().collect();
    indices.sort_unstable();
    for idx in indices {
        let f = &model.fns[idx];
        if f.in_test {
            continue;
        }
        for ev in &f.events {
            let Event::Call {
                name,
                line,
                method,
                zero_args,
            } = ev
            else {
                continue;
            };
            let blocking = is_blocking_name(name) || (name == "join" && *method && *zero_args);
            if !blocking {
                continue;
            }
            out.push(Diagnostic {
                file: f.file.clone(),
                line: *line,
                rule: "l10-blocking-in-task",
                message: format!(
                    "`{name}` parks the OS thread inside task context (reachable: {}); \
                     a parked worker stalls every task on the pool — return \
                     `TaskPoll::Pending`/`PendingUntil` and arrange a wake instead",
                    model.chain_to(idx)
                ),
            });
        }
    }
}
