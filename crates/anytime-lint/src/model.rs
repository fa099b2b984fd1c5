//! The cross-file workspace model: phase two of the analyzer.
//!
//! Consumes every file's [`FileAst`](crate::ast::FileAst) and builds the
//! three structures the semantic rules need:
//!
//! - a **name-resolved call graph** with task-context reachability: roots
//!   are `fn poll` bodies of `impl RtTask for …` / `impl StageRunner for …`
//!   blocks, and reachability spreads through call expressions resolved to
//!   every same-named workspace function (an over-approximation; see
//!   DESIGN.md §16 for the false-positive/negative shapes this buys);
//! - a **lock-acquisition-order graph**: a directed edge `A → B` for every
//!   site that acquires lock `B` while a named guard of lock `A` is live —
//!   either directly or by calling a function whose *transitive* acquire
//!   set contains `B`;
//! - an **atomic pairing table**: per field name, which orderings ever
//!   read and write it anywhere in the workspace.
//!
//! Test code (`#[cfg(test)]` regions, `tests/`/`benches/`/`examples/`
//! trees) does not contribute call-graph nodes or lock edges, but its
//! atomic accesses still satisfy pairing.

use crate::ast::{AtomicAccess, Event, FileAst};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A function node in the workspace model.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    pub name: String,
    pub line: u32,
    pub trait_name: Option<String>,
    pub type_name: Option<String>,
    pub in_test: bool,
    pub events: Vec<Event>,
}

impl FnNode {
    /// `Type::name` when the impl type is known, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One lock-order edge: `to` acquired while a guard of `from` is live.
#[derive(Debug)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
}

/// One atomic access site, with its defining file for diagnostics.
#[derive(Debug)]
pub struct AtomicSite {
    pub access: AtomicAccess,
    pub file: String,
}

/// The assembled workspace model.
#[derive(Debug)]
pub struct Model {
    pub fns: Vec<FnNode>,
    /// Call-resolution index over non-test functions.
    pub by_name: HashMap<String, Vec<usize>>,
    /// Task-reachable functions → BFS parent (None for roots).
    pub reachable: HashMap<usize, Option<usize>>,
    /// Functions that (transitively) reach a publish/yield boundary call.
    pub yields: HashSet<usize>,
    /// Transitive lock-acquire set per function (index-aligned to `fns`).
    pub trans_locks: Vec<BTreeSet<String>>,
    pub lock_edges: Vec<LockEdge>,
    pub atomics: Vec<AtomicSite>,
}

/// Lock wrapper helpers whose own bodies are the locking primitive; their
/// internal `m.lock()` is not an acquisition of a nameable field.
fn is_lock_helper(name: &str) -> bool {
    name == "lock" || name == "lock_unpoisoned"
}

/// Call names that park the calling OS thread (the L10 set). These are
/// flagged at their call sites and never resolved into — the blocking
/// primitives' own bodies (`WaitSet::wait`, `Receiver::recv`) are not
/// task code.
pub(crate) fn is_blocking_name(name: &str) -> bool {
    matches!(
        name,
        "wait"
            | "wait_deadline"
            | "wait_timeout"
            | "wait_newer"
            | "wait_newer_timeout"
            | "wait_final"
            | "wait_final_timeout"
            | "recv"
            | "recv_timeout"
            | "recv_deadline"
            | "park"
            | "park_timeout"
    )
}

/// Names excluded from cross-file call resolution because they collide
/// with ubiquitous `std` methods: resolving `v.push(x)` to every
/// workspace `fn push` would wire the call graph into noise. The cost is
/// a documented false-negative shape (DESIGN.md §16): a semantic link
/// through one of these names is invisible to L7/L8/L10 reachability.
fn is_unresolvable(name: &str) -> bool {
    matches!(
        name,
        "new"
            | "default"
            | "clone"
            | "push"
            | "pop"
            | "insert"
            | "remove"
            | "get"
            | "get_mut"
            | "len"
            | "is_empty"
            | "iter"
            | "iter_mut"
            | "drain"
            | "next"
            | "map"
            | "filter"
            | "fold"
            | "collect"
            | "extend"
            | "contains"
            | "contains_key"
            | "take"
            | "replace"
            | "swap"
            | "reserve"
            | "clear"
            | "retain"
            | "entry"
            | "keys"
            | "values"
            | "min"
            | "max"
            | "first"
            | "last"
            | "split_off"
            | "resize"
            | "fmt"
            | "eq"
            | "cmp"
            | "hash"
            | "from"
            | "into"
            | "to_string"
            | "to_vec"
            | "as_ref"
            | "as_mut"
            | "unwrap"
            | "expect"
            | "ok"
            | "err"
            | "spawn"
            | "join"
    ) || is_blocking_name(name)
}

impl Model {
    /// Builds the model over every file of a lint run.
    pub fn build(files: &[FileAst]) -> Model {
        let mut fns: Vec<FnNode> = Vec::new();
        let mut atomics: Vec<AtomicSite> = Vec::new();
        for fa in files {
            for f in &fa.fns {
                for ev in &f.events {
                    if let Event::Atomic(a) = ev {
                        let mut a = a.clone();
                        a.in_test |= f.in_test;
                        atomics.push(AtomicSite {
                            access: a,
                            file: fa.display.clone(),
                        });
                    }
                }
                fns.push(FnNode {
                    file: fa.display.clone(),
                    name: f.name.clone(),
                    line: f.line,
                    trait_name: f.trait_name.clone(),
                    type_name: f.type_name.clone(),
                    in_test: f.in_test,
                    events: f.events.clone(),
                });
            }
        }

        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if !f.in_test && !is_unresolvable(&f.name) {
                by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }

        // Task-context reachability from RtTask / StageRunner poll bodies.
        let mut reachable: HashMap<usize, Option<usize>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (idx, f) in fns.iter().enumerate() {
            let rooted = f.name == "poll"
                && !f.in_test
                && matches!(f.trait_name.as_deref(), Some("RtTask" | "StageRunner"));
            if rooted {
                reachable.insert(idx, None);
                queue.push_back(idx);
            }
        }
        while let Some(idx) = queue.pop_front() {
            for ev in &fns[idx].events {
                if let Event::Call { name, .. } = ev {
                    for &callee in by_name.get(name).into_iter().flatten() {
                        reachable.entry(callee).or_insert_with(|| {
                            queue.push_back(callee);
                            Some(idx)
                        });
                    }
                }
            }
        }

        // Yield/publish set: seeded by direct boundary calls, propagated to
        // callers until fixpoint.
        let mut yields: HashSet<usize> = HashSet::new();
        for (idx, f) in fns.iter().enumerate() {
            let direct = f
                .events
                .iter()
                .any(|ev| matches!(ev, Event::Call { name, .. } if crate::is_boundary_call(name)));
            if direct {
                yields.insert(idx);
            }
        }
        loop {
            let mut changed = false;
            for (idx, f) in fns.iter().enumerate() {
                if yields.contains(&idx) {
                    continue;
                }
                let hits = f.events.iter().any(|ev| {
                    matches!(ev, Event::Call { name, .. }
                        if by_name.get(name).into_iter().flatten().any(|c| yields.contains(c)))
                });
                if hits {
                    yields.insert(idx);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Transitive lock-acquire sets (direct acquires ∪ callees').
        let mut trans_locks: Vec<BTreeSet<String>> = fns
            .iter()
            .map(|f| {
                let mut set = BTreeSet::new();
                if !is_lock_helper(&f.name) {
                    for ev in &f.events {
                        if let Event::Acquire { lock, .. } = ev {
                            set.insert(lock.clone());
                        }
                    }
                }
                set
            })
            .collect();
        loop {
            let mut changed = false;
            for idx in 0..fns.len() {
                let mut add: Vec<String> = Vec::new();
                for ev in &fns[idx].events {
                    if let Event::Call { name, .. } = ev {
                        for &callee in by_name.get(name).into_iter().flatten() {
                            for l in &trans_locks[callee] {
                                if !trans_locks[idx].contains(l) {
                                    add.push(l.clone());
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    trans_locks[idx].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Lock-order edges: replay each non-test body's guard scopes.
        let mut lock_edges: Vec<LockEdge> = Vec::new();
        for (idx, f) in fns.iter().enumerate() {
            if f.in_test || is_lock_helper(&f.name) {
                continue;
            }
            replay_guards(&f.events, |held, ev| match ev {
                Event::Acquire { lock, line } => {
                    for g in held {
                        if let Some(from) = &g.lock {
                            if from != lock {
                                lock_edges.push(LockEdge {
                                    from: from.clone(),
                                    to: lock.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                });
                            }
                        }
                    }
                }
                Event::Call { name, line, .. } => {
                    let mut targets: BTreeSet<&String> = BTreeSet::new();
                    for &callee in by_name.get(name).into_iter().flatten() {
                        if callee != idx {
                            targets.extend(trans_locks[callee].iter());
                        }
                    }
                    for g in held {
                        if let Some(from) = &g.lock {
                            for to in &targets {
                                if from != *to {
                                    lock_edges.push(LockEdge {
                                        from: from.clone(),
                                        to: (*to).clone(),
                                        file: f.file.clone(),
                                        line: *line,
                                    });
                                }
                            }
                        }
                    }
                }
                _ => {}
            });
        }

        Model {
            fns,
            by_name,
            reachable,
            yields,
            trans_locks,
            lock_edges,
            atomics,
        }
    }

    /// The task-context call chain leading to `idx`, for diagnostics:
    /// `StageTask::poll -> run -> drain`.
    pub fn chain_to(&self, idx: usize) -> String {
        let mut names: Vec<String> = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            names.push(self.fns[i].qualified());
            cur = self.reachable.get(&i).copied().flatten();
            if names.len() > 32 {
                break; // defensive: the parent map is acyclic by construction
            }
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// A guard live during event replay.
#[derive(Debug)]
pub struct LiveGuard {
    pub name: String,
    pub lock: Option<String>,
    pub line: u32,
}

/// Replays a body's event stream with L4-style guard scope tracking,
/// invoking `f(held_guards, event)` for every event. The guards slice is
/// innermost-last; `GuardBind` events appear in `held` only *after* their
/// own callback (their `Acquire` precedes the bind in the stream).
pub fn replay_guards<F: FnMut(&[LiveGuard], &Event)>(events: &[Event], mut f: F) {
    let mut frames: Vec<Vec<LiveGuard>> = vec![Vec::new()];
    let mut held: Vec<LiveGuard> = Vec::new();
    for ev in events {
        {
            held.clear();
            for frame in &frames {
                for g in frame {
                    held.push(LiveGuard {
                        name: g.name.clone(),
                        lock: g.lock.clone(),
                        line: g.line,
                    });
                }
            }
            f(&held, ev);
        }
        match ev {
            Event::Open => frames.push(Vec::new()),
            Event::Close if frames.len() > 1 => {
                frames.pop();
            }
            Event::GuardBind { name, lock, line } => {
                if let Some(frame) = frames.last_mut() {
                    frame.retain(|g| g.name != *name);
                    frame.push(LiveGuard {
                        name: name.clone(),
                        lock: lock.clone(),
                        line: *line,
                    });
                }
            }
            Event::GuardDrop { name } => {
                for frame in frames.iter_mut().rev() {
                    if let Some(pos) = frame.iter().position(|g| g.name == *name) {
                        frame.remove(pos);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Finds, for each lexicographically-minimal node, the shortest cycle
/// through it in the lock graph, returned as node sequences
/// `[a, b, …, a]` with the edge sites annotating each hop.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Vec<(String, String, u32)>> {
    // adjacency: from → {to → first (file, line) site}
    let mut adj: BTreeMap<&str, BTreeMap<&str, (&str, u32)>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from)
            .or_default()
            .entry(&e.to)
            .or_insert((&e.file, e.line));
    }
    let mut cycles = Vec::new();
    for &start in adj.keys() {
        // BFS back to `start` using only nodes ≥ start, so each cycle is
        // reported exactly once (at its minimal node).
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut q: VecDeque<&str> = VecDeque::new();
        for (&to, _) in adj.get(start).into_iter().flatten() {
            if to >= start && !parent.contains_key(to) {
                parent.insert(to, start);
                q.push_back(to);
            }
        }
        let mut found = false;
        while let Some(n) = q.pop_front() {
            if n == start {
                found = true;
                break;
            }
            for (&to, _) in adj.get(n).into_iter().flatten() {
                if to >= start && !parent.contains_key(to) {
                    parent.insert(to, n);
                    q.push_back(to);
                }
            }
        }
        if !found {
            continue;
        }
        // Reconstruct start → … → start.
        let mut rev: Vec<&str> = vec![start];
        let mut cur = *parent.get(start).expect("found via BFS");
        while cur != start {
            rev.push(cur);
            cur = parent.get(cur).copied().expect("BFS parents are complete");
        }
        rev.push(start);
        rev.reverse();
        let hops: Vec<(String, String, u32)> = rev
            .windows(2)
            .map(|w| {
                let (file, line) = adj
                    .get(w[0])
                    .and_then(|m| m.get(w[1]))
                    .copied()
                    .expect("cycle edges exist");
                (w[1].to_string(), file.to_string(), line)
            })
            .collect();
        let mut cycle = vec![(start.to_string(), String::new(), 0)];
        cycle.extend(hops);
        cycles.push(cycle);
    }
    cycles
}
