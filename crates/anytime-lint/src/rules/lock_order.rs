//! L8: lock-order cycles across the workspace.
//!
//! The model records an edge `A → B` wherever lock `B` is acquired while
//! a named guard of `A` is live — directly, or by calling a function
//! whose transitive acquire set contains `B`. Any directed cycle in that
//! graph is a deadlock an unlucky interleaving can realize across
//! `runtime.rs`/`serve.rs`/`buffer.rs`, even though each file looks
//! locally consistent. The diagnostic prints the full witness
//! cycle with the file:line of every edge so the order inversion can be
//! read off directly.

use crate::model::{lock_cycles, Model};
use crate::Diagnostic;

/// Reports one diagnostic per distinct lock-order cycle, anchored at the
/// first edge's acquisition site.
pub fn check(model: &Model, out: &mut Vec<Diagnostic>) {
    for cycle in lock_cycles(&model.lock_edges) {
        let mut witness = String::new();
        for (i, (node, file, line)) in cycle.iter().enumerate() {
            if i == 0 {
                witness.push_str(node);
            } else {
                witness.push_str(&format!(" -> {node} ({file}:{line})"));
            }
        }
        // Anchor on the first hop: the earliest acquisition that closes
        // the inversion.
        let (_, file, line) = &cycle[1];
        out.push(Diagnostic {
            file: file.clone(),
            line: *line,
            rule: "l8-lock-order",
            message: format!(
                "lock-order cycle: {witness}; two threads taking these locks in \
                 opposing order deadlock — pick one global order and drop guards \
                 before crossing files"
            ),
        });
    }
}
