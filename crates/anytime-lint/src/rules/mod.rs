//! The cross-file semantic rules (L7–L10), each a pass over the
//! workspace [`Model`]. Per-file token rules (L1–L6)
//! live in the crate root; these four need the call graph, the lock-order
//! graph, or the atomic pairing table, so they run once per lint
//! invocation after every file has been parsed.

pub mod atomic_pairing;
pub mod blocking_in_task;
pub mod guard_yield;
pub mod lock_order;

use crate::model::Model;
use crate::Diagnostic;

/// Runs every semantic rule over the model.
pub fn check_all(model: &Model, out: &mut Vec<Diagnostic>) {
    guard_yield::check(model, out);
    lock_order::check(model, out);
    atomic_pairing::check(model, out);
    blocking_in_task::check(model, out);
}
