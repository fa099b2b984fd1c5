#![forbid(unsafe_code)]

//! `anytime-lint`: the workspace's own static-analysis pass.
//!
//! The automaton's concurrency guarantees (Property 1 purity, Property 2
//! monotone accuracy, Property 3 atomic snapshot publication) rest on a
//! small set of hand-maintained disciplines: all blocking goes through the
//! epoch [`WaitSet`] protocol in `notify.rs`, no polled sleeps, every
//! `Ordering::Relaxed` is a reviewed decision, and no lock is held across a
//! publication boundary. This crate machine-checks those disciplines with a
//! hand-rolled lexer ([`lexer`]) and a block-scope tracker — zero external
//! dependencies, same style as `anytime-bench`'s hand-rolled trace parsers.
//!
//! [`WaitSet`]: ../anytime_core/index.html
//!
//! # Rule catalog
//!
//! | id | checks |
//! |----|--------|
//! | `l1-condvar` | `Condvar` referenced outside `anytime-core/src/notify.rs`. Raw condvar waits reintroduce the lost-wakeup bugs the epoch protocol removed. |
//! | `l2-sleep` | `thread::sleep` outside `#[cfg(test)]` scopes and `tests/`, `benches/`, `examples/` trees. Sleeps are polling quanta; blocking must be event-driven. |
//! | `l3-relaxed` | `Ordering::Relaxed` without an adjacent `// relaxed:` justification comment (same line, the line above, or a contiguous run of justified `Relaxed` lines). |
//! | `l4-guard-across-publish` | a named `MutexGuard` binding (`let g = ….lock()` / `lock_unpoisoned(…)` / `lock(…)`) still live at a call to `publish*` / `emit*` / `seal_degraded` / `callback`. Publication must happen after the state lock is dropped, or readers can block on a publisher. |
//! | `l5-forbid-unsafe` | workspace crate roots (`src/lib.rs`, `src/main.rs`) missing `#![forbid(unsafe_code)]`. |
//! | `l6-no-raw-spawn` | raw OS-thread creation (`thread::spawn`, `Builder…spawn(…)`, `scope.spawn(…)`) outside `#[cfg(test)]` scopes and `tests/`/`benches/`/`examples/` trees. Stage work runs as tasks on the shared work-stealing runtime; every standing thread (runtime workers, supervisor watchdog, replica workers) is an audited suppression. |
//! | `l7-guard-across-yield` | *(cross-file)* a named guard live at a call whose callee transitively reaches a publish/yield boundary, inside any function reachable from an `RtTask`/`StageRunner` poll body. Closes L4's interprocedural gap. |
//! | `l8-lock-order` | *(cross-file)* a cycle in the workspace lock-acquisition-order graph (lock B taken — directly or via a call — while a guard of A is held, and elsewhere A under B). The diagnostic prints the witness cycle with file:line per edge. |
//! | `l9-atomic-pairing` | *(cross-file)* an explicit `Release` write on an atomic field with no `Acquire`/`AcqRel`/`SeqCst` load anywhere in the workspace, and vice versa. `SeqCst` and test-code accesses satisfy pairing but are never flagged. |
//! | `l10-blocking-in-task` | *(cross-file)* an OS-thread-parking call (`WaitSet::wait*`, channel `recv*`, zero-arg `.join()`, `park*`) inside a function reachable from a task poll body; tasks must return `TaskPoll::Pending`/`PendingUntil` instead. |
//!
//! L1–L6 are per-file token rules; L7–L10 run on a two-phase
//! representation: [`ast`] extracts per-file symbols and body events,
//! [`model`] assembles the cross-file call graph / lock graph / atomic
//! table, and [`rules`] walks them. See DESIGN.md §16 for the analysis
//! limits.
//!
//! # Suppressions
//!
//! A violation is suppressed by a plain (non-doc) comment on the same line
//! or the line directly above:
//!
//! ```text
//! // lint: allow(l1-condvar) -- predicate is re-checked under the state mutex
//! ```
//!
//! The ` -- <reason>` part is mandatory; a suppression that matches no
//! violation, names an unknown rule, or omits its reason is itself reported
//! (rule `lint-allow`), so stale allows cannot accumulate.

pub mod ast;
pub mod lexer;
pub mod model;
pub mod rules;

use lexer::{Comment, Lexed, Tok, Token};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// All valid rule identifiers, in catalog order.
pub const RULES: [&str; 10] = [
    "l1-condvar",
    "l2-sleep",
    "l3-relaxed",
    "l4-guard-across-publish",
    "l5-forbid-unsafe",
    "l6-no-raw-spawn",
    "l7-guard-across-yield",
    "l8-lock-order",
    "l9-atomic-pairing",
    "l10-blocking-in-task",
];

/// One diagnostic: a rule violation (or a bad suppression) at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (or the display path the caller supplied).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier from [`RULES`], or `lint-allow` for suppression
    /// hygiene findings.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file lint context, derived from the file's workspace-relative path.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Display path attached to diagnostics.
    pub display: String,
    /// `true` for `crates/anytime-core/src/notify.rs` — the one blessed
    /// home of raw condvars (L1).
    pub is_notify: bool,
    /// `true` under `tests/`, `benches/`, or `examples/` trees (L2).
    pub sleep_exempt: bool,
    /// `true` for `src/lib.rs` / `src/main.rs` crate roots (L5).
    pub crate_root: bool,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel: &str) -> Self {
        let norm = rel.replace('\\', "/");
        let components: Vec<&str> = norm.split('/').collect();
        FileCtx {
            display: norm.clone(),
            is_notify: norm.ends_with("anytime-core/src/notify.rs"),
            sleep_exempt: components
                .iter()
                .any(|c| matches!(*c, "tests" | "benches" | "examples")),
            crate_root: norm.ends_with("src/lib.rs") || norm.ends_with("src/main.rs"),
        }
    }
}

/// One source file queued for a multi-file lint run.
#[derive(Debug, Clone)]
pub struct SourceUnit {
    pub ctx: FileCtx,
    pub src: String,
}

/// Lints a set of files as one unit: per-file token rules (L1–L6) run on
/// each file, then the cross-file model is built over *all* of them and
/// the semantic rules (L7–L10) run once, so lock-order cycles and atomic
/// pairings spanning files are visible. Suppressions apply uniformly to
/// both phases. Pure: no I/O, deterministic output order (path, line,
/// rule).
pub fn lint_units(units: &[SourceUnit]) -> Vec<Diagnostic> {
    let mut lexed_all: Vec<Lexed> = Vec::with_capacity(units.len());
    let mut raw_all: Vec<Vec<Diagnostic>> = Vec::with_capacity(units.len());
    let mut asts: Vec<ast::FileAst> = Vec::with_capacity(units.len());
    for u in units {
        let lexed = lexer::lex(&u.src);
        let in_test = cfg_test_regions(&lexed.tokens);
        let mut raw: Vec<Diagnostic> = Vec::new();
        rule_l1_condvar(&lexed.tokens, &u.ctx, &mut raw);
        rule_l2_sleep(&lexed.tokens, &in_test, &u.ctx, &mut raw);
        rule_l3_relaxed(&lexed, &u.ctx, &mut raw);
        rule_l4_guard(&lexed.tokens, &u.ctx, &mut raw);
        rule_l5_forbid(&lexed.tokens, &u.ctx, &mut raw);
        rule_l6_spawn(&lexed.tokens, &in_test, &u.ctx, &mut raw);
        asts.push(ast::build_file_ast(&lexed, &in_test, &u.ctx));
        lexed_all.push(lexed);
        raw_all.push(raw);
    }

    let workspace = model::Model::build(&asts);
    let mut semantic: Vec<Diagnostic> = Vec::new();
    rules::check_all(&workspace, &mut semantic);
    let mut by_file: HashMap<String, Vec<Diagnostic>> = HashMap::new();
    for d in semantic {
        by_file.entry(d.file.clone()).or_default().push(d);
    }

    let mut all: Vec<Diagnostic> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let mut raw = std::mem::take(&mut raw_all[i]);
        raw.extend(by_file.remove(&u.ctx.display).unwrap_or_default());
        all.extend(apply_suppressions(raw, &lexed_all[i].comments, &u.ctx));
    }
    all.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    all
}

/// Lints one file's source text in isolation (the cross-file rules see a
/// single-file model). Pure: no I/O, deterministic output order
/// (ascending line, then rule id).
pub fn lint_source(src: &str, ctx: &FileCtx) -> Vec<Diagnostic> {
    lint_units(&[SourceUnit {
        ctx: ctx.clone(),
        src: src.to_string(),
    }])
}

/// Marks, for every token, whether it sits inside a `#[cfg(test)]` (or
/// `#[cfg(all(test, …))]`) item body. `#[cfg(not(test))]` does not count.
fn cfg_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut brace_depth: u32 = 0;
    let mut exempt_stack: Vec<u32> = Vec::new();
    let mut pending_attr = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            Tok::Punct(b'#') => {
                // Outer attribute `#[…]` (inner `#![…]` never carries
                // cfg(test) in practice; skip its brackets all the same).
                let mut j = i + 1;
                if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Punct(b'!'))) {
                    j += 1;
                }
                if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Open(b'['))) {
                    let (idents, end) = attr_idents(tokens, j);
                    let is_cfg_test = idents.iter().any(|s| s == "cfg")
                        && idents.iter().any(|s| s == "test")
                        && !idents.iter().any(|s| s == "not");
                    if is_cfg_test {
                        pending_attr = true;
                    }
                    for slot in in_test.iter_mut().take(end + 1).skip(i) {
                        *slot = !exempt_stack.is_empty();
                    }
                    i = end + 1;
                    continue;
                }
            }
            Tok::Open(b'{') => {
                in_test[i] = !exempt_stack.is_empty();
                if pending_attr {
                    exempt_stack.push(brace_depth);
                    pending_attr = false;
                }
                brace_depth += 1;
                i += 1;
                continue;
            }
            Tok::Close(b'}') => {
                brace_depth = brace_depth.saturating_sub(1);
                if exempt_stack.last() == Some(&brace_depth) {
                    exempt_stack.pop();
                }
                in_test[i] = !exempt_stack.is_empty();
                i += 1;
                continue;
            }
            Tok::Punct(b';') => {
                // `#[cfg(test)] use …;` — the attribute governs a bodiless
                // item; it must not leak onto the next block.
                in_test[i] = !exempt_stack.is_empty();
                pending_attr = false;
                i += 1;
                continue;
            }
            _ => {}
        }
        in_test[i] = !exempt_stack.is_empty();
        i += 1;
    }
    in_test
}

/// Collects the identifiers inside the attribute whose `[` is at `open`,
/// returning them with the index of the matching `]`.
fn attr_idents(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut depth = 0i32;
    let mut idents = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            Tok::Open(b'[') => depth += 1,
            Tok::Close(b']') => {
                depth -= 1;
                if depth == 0 {
                    return (idents, i);
                }
            }
            Tok::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, tokens.len().saturating_sub(1))
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tokens: &[Token], i: usize, c: u8) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c)
}

fn is_open(tokens: &[Token], i: usize, c: u8) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Open(p)) if *p == c)
}

/// L1: `Condvar` referenced outside `notify.rs`.
fn rule_l1_condvar(tokens: &[Token], ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.is_notify {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if ident_at(tokens, i) == Some("Condvar") {
            out.push(Diagnostic {
                file: ctx.display.clone(),
                line: tok.line,
                rule: "l1-condvar",
                message: "`Condvar` outside notify.rs: raw condvar waits risk lost wakeups; \
                          block through the epoch WaitSet protocol instead"
                    .into(),
            });
        }
    }
}

/// L2: `thread::sleep` outside test/bench/example code.
fn rule_l2_sleep(tokens: &[Token], in_test: &[bool], ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.sleep_exempt {
        return;
    }
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("thread")
            && is_punct(tokens, i + 1, b':')
            && is_punct(tokens, i + 2, b':')
            && ident_at(tokens, i + 3) == Some("sleep")
            && !in_test[i + 3]
        {
            out.push(Diagnostic {
                file: ctx.display.clone(),
                line: tokens[i + 3].line,
                rule: "l2-sleep",
                message: "`thread::sleep` outside #[cfg(test)]/bench code: sleeps are polling \
                          quanta; wait on a WaitSet (or justify with a suppression)"
                    .into(),
            });
        }
    }
}

/// L3: every `Ordering::Relaxed` needs an adjacent `// relaxed:` comment.
fn rule_l3_relaxed(lexed: &Lexed, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    use std::collections::BTreeSet;
    // Lines with a plain-comment `relaxed:` justification.
    let mut justified_comment: BTreeSet<u32> = BTreeSet::new();
    for c in &lexed.comments {
        if !c.doc && c.text.contains("relaxed:") {
            justified_comment.insert(c.line);
        }
    }
    // Lines containing a `Relaxed` token (the lexer already guarantees
    // these are code, not prose).
    let mut site_lines: BTreeSet<u32> = BTreeSet::new();
    let mut sites: Vec<u32> = Vec::new();
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if ident_at(&lexed.tokens, i) == Some("Relaxed") {
            site_lines.insert(tok.line);
            sites.push(tok.line);
        }
    }
    // A line is justified if it (or the line above) carries the comment, or
    // if it directly continues a justified run of `Relaxed` lines — one
    // comment may head a contiguous block of relaxed counter loads.
    let mut justified: BTreeSet<u32> = BTreeSet::new();
    for &line in &site_lines {
        let direct = justified_comment.contains(&line)
            || (line >= 1 && justified_comment.contains(&(line - 1)));
        let chained =
            line >= 1 && site_lines.contains(&(line - 1)) && justified.contains(&(line - 1));
        if direct || chained {
            justified.insert(line);
        }
    }
    for line in sites {
        if !justified.contains(&line) {
            out.push(Diagnostic {
                file: ctx.display.clone(),
                line,
                rule: "l3-relaxed",
                message: "`Ordering::Relaxed` without an adjacent `// relaxed:` justification \
                          comment"
                    .into(),
            });
        }
    }
}

/// Names that constitute a publication/callback boundary for L4.
fn is_boundary_call(name: &str) -> bool {
    (name.starts_with("publish") && !name.starts_with("published"))
        || name == "emit"
        || name == "emit_with"
        || name == "seal_degraded"
        || name == "callback"
}

/// L4: a named guard binding live at a publish/emit/callback call.
///
/// Block-scope heuristic: tracks `let [mut] NAME = …lock(…)…;` bindings
/// (`.lock(`, `lock(`, `lock_unpoisoned(`) per brace scope; liveness ends
/// at `drop(NAME)`, a rebinding of `NAME` in the same scope, or scope exit.
fn rule_l4_guard(tokens: &[Token], ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    #[derive(Debug)]
    struct Guard {
        name: String,
        line: u32,
    }
    let mut frames: Vec<Vec<Guard>> = vec![Vec::new()];
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            Tok::Open(b'{') => frames.push(Vec::new()),
            Tok::Close(b'}') if frames.len() > 1 => {
                frames.pop();
            }
            Tok::Ident(id) if id == "let" => {
                let mut j = i + 1;
                if ident_at(tokens, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(tokens, j) {
                    let name = name.to_string();
                    // Scan the initializer to the statement-ending `;` at
                    // this delimiter depth, looking for a lock call.
                    let mut depth = 0i32;
                    let mut k = j + 1;
                    let mut is_lock = false;
                    while k < tokens.len() {
                        match &tokens[k].kind {
                            Tok::Open(_) => depth += 1,
                            Tok::Close(_) => {
                                if depth == 0 {
                                    break; // malformed / end of enclosing block
                                }
                                depth -= 1;
                            }
                            Tok::Punct(b';') if depth == 0 => break,
                            Tok::Ident(s)
                                if (s == "lock" || s == "lock_unpoisoned")
                                    && is_open(tokens, k + 1, b'(') =>
                            {
                                is_lock = true;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(frame) = frames.last_mut() {
                        frame.retain(|g| g.name != name);
                        if is_lock {
                            frame.push(Guard {
                                name,
                                line: tokens[i].line,
                            });
                        }
                    }
                }
            }
            Tok::Ident(id) if id == "drop" && is_open(tokens, i + 1, b'(') => {
                if let Some(name) = ident_at(tokens, i + 2) {
                    if matches!(tokens.get(i + 3).map(|t| &t.kind), Some(Tok::Close(b')'))) {
                        for frame in frames.iter_mut().rev() {
                            if let Some(pos) = frame.iter().position(|g| g.name == name) {
                                frame.remove(pos);
                                break;
                            }
                        }
                    }
                }
            }
            Tok::Ident(id)
                if is_boundary_call(id)
                    && is_open(tokens, i + 1, b'(')
                    && ident_at(tokens, i.wrapping_sub(1)) != Some("fn") =>
            {
                if let Some(guard) = frames.iter().rev().flat_map(|f| f.iter().rev()).next() {
                    out.push(Diagnostic {
                        file: ctx.display.clone(),
                        line: tokens[i].line,
                        rule: "l4-guard-across-publish",
                        message: format!(
                            "`{id}` called while guard `{}` (bound line {}) is held: \
                             drop the lock before publishing",
                            guard.name, guard.line
                        ),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// L5: crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_l5_forbid(tokens: &[Token], ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.crate_root {
        return;
    }
    for i in 0..tokens.len() {
        if is_punct(tokens, i, b'#')
            && is_punct(tokens, i + 1, b'!')
            && is_open(tokens, i + 2, b'[')
            && ident_at(tokens, i + 3) == Some("forbid")
            && is_open(tokens, i + 4, b'(')
            && ident_at(tokens, i + 5) == Some("unsafe_code")
        {
            return;
        }
    }
    out.push(Diagnostic {
        file: ctx.display.clone(),
        line: 1,
        rule: "l5-forbid-unsafe",
        message: "crate root missing `#![forbid(unsafe_code)]`".into(),
    });
}

/// L6: raw OS-thread creation outside test code.
///
/// Flags `spawn(` call sites reached as `thread::spawn(…)` or as a method
/// call `….spawn(…)` (thread `Builder` chains, scoped-thread handles).
/// Stage work belongs on the shared task runtime; the few standing
/// control-plane threads the crate keeps (runtime workers, supervisor
/// watchdog, serve replica workers, parallel-map compute workers) each
/// carry an audited suppression naming why a thread is the right tool
/// there.
fn rule_l6_spawn(tokens: &[Token], in_test: &[bool], ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.sleep_exempt {
        return;
    }
    for i in 0..tokens.len() {
        if ident_at(tokens, i) != Some("spawn") || !is_open(tokens, i + 1, b'(') || in_test[i] {
            continue;
        }
        // `fn spawn(` is a definition, not a call site.
        if i >= 1 && ident_at(tokens, i - 1) == Some("fn") {
            continue;
        }
        let method_call = i >= 1 && is_punct(tokens, i - 1, b'.');
        let thread_path = i >= 3
            && is_punct(tokens, i - 1, b':')
            && is_punct(tokens, i - 2, b':')
            && ident_at(tokens, i - 3) == Some("thread");
        if method_call || thread_path {
            out.push(Diagnostic {
                file: ctx.display.clone(),
                line: tokens[i].line,
                rule: "l6-no-raw-spawn",
                message: "raw thread spawn: stage work must be scheduled on the shared task \
                          runtime; a standing control-plane thread needs an audited suppression"
                    .into(),
            });
        }
    }
}

/// One parsed `// lint: allow(…) -- reason` directive.
struct Allow {
    line: u32,
    rules: Vec<String>,
    used: bool,
}

/// Applies `// lint: allow(rule) -- reason` suppressions and reports
/// suppression hygiene problems (malformed, unknown rule, unused).
fn apply_suppressions(
    raw: Vec<Diagnostic>,
    comments: &[Comment],
    ctx: &FileCtx,
) -> Vec<Diagnostic> {
    let mut allows: Vec<Allow> = Vec::new();
    let mut hygiene: Vec<Diagnostic> = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + "lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            hygiene.push(Diagnostic {
                file: ctx.display.clone(),
                line: c.line,
                rule: "lint-allow",
                message: "malformed lint directive: expected `lint: allow(<rule>) -- <reason>`"
                    .into(),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            hygiene.push(Diagnostic {
                file: ctx.display.clone(),
                line: c.line,
                rule: "lint-allow",
                message: "malformed lint directive: missing `)`".into(),
            });
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let after = args[close + 1..].trim_start();
        let reason_ok = after
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if rules.is_empty() || !reason_ok {
            hygiene.push(Diagnostic {
                file: ctx.display.clone(),
                line: c.line,
                rule: "lint-allow",
                message: "suppression needs a rule and a reason: \
                          `lint: allow(<rule>) -- <reason>`"
                    .into(),
            });
            continue;
        }
        let mut valid = true;
        for r in &rules {
            if !RULES.contains(&r.as_str()) {
                hygiene.push(Diagnostic {
                    file: ctx.display.clone(),
                    line: c.line,
                    rule: "lint-allow",
                    message: format!(
                        "unknown rule `{r}` in suppression (known: {})",
                        RULES.join(", ")
                    ),
                });
                valid = false;
            }
        }
        if valid {
            allows.push(Allow {
                line: c.line,
                rules,
                used: false,
            });
        }
    }

    // A suppression on line L covers violations on L (trailing comment) and
    // L+1 (comment directly above the violating line).
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if (a.line == d.line || a.line + 1 == d.line) && a.rules.iter().any(|r| r == d.rule) {
                a.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }
    for a in &allows {
        if !a.used {
            hygiene.push(Diagnostic {
                file: ctx.display.clone(),
                line: a.line,
                rule: "lint-allow",
                message: format!(
                    "suppression for `{}` matched no violation: remove it",
                    a.rules.join(", ")
                ),
            });
        }
    }
    kept.extend(hygiene);
    kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    kept
}

/// Lints a file on disk, deriving the context from `rel` (its path relative
/// to the workspace root).
///
/// # Errors
///
/// Returns a description of any I/O failure.
pub fn lint_file(path: &Path, rel: &str) -> Result<Vec<Diagnostic>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(lint_source(&src, &FileCtx::from_rel_path(rel)))
}

/// Enumerates the workspace's lintable `.rs` files: every member crate's
/// `src/`, `tests/`, `benches/`, and `examples/` trees (members are the
/// root package plus `crates/*` and `vendor/*`), skipping `target/` and
/// lint-fixture directories. Paths are returned workspace-relative, sorted.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut members: Vec<PathBuf> = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.join("Cargo.toml").is_file() {
                    members.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for m in members {
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs(&m.join(sub), &mut files);
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    rel.dedup();
    rel
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name != "target" && name != "fixtures" {
                collect_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Reads `rels` (workspace-relative paths) under `root` and lints them as
/// one unit, so the cross-file rules see the whole set.
///
/// # Errors
///
/// Returns the first I/O failure encountered.
pub fn lint_paths(root: &Path, rels: &[String]) -> Result<(Vec<Diagnostic>, usize), String> {
    let mut units = Vec::with_capacity(rels.len());
    for rel in rels {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        units.push(SourceUnit {
            ctx: FileCtx::from_rel_path(rel),
            src,
        });
    }
    Ok((lint_units(&units), rels.len()))
}

/// Renders diagnostics as a single JSON object (hand-rolled, matching the
/// crate's zero-dependency style). Stable field order; diagnostics keep
/// the sorted (path, line, rule) order of the lint pass. This is the
/// `--format json` output of the CLI, golden-tested alongside the human
/// format.
#[must_use]
pub fn render_json(diags: &[Diagnostic], scanned: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scanned\": {scanned},\n"));
    out.push_str(&format!("  \"violations\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns the first I/O failure encountered.
pub fn lint_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    let rels: Vec<String> = workspace_files(root)
        .iter()
        .map(|rel| rel.to_string_lossy().replace('\\', "/"))
        .collect();
    lint_paths(root, &rels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(name: &str) -> FileCtx {
        FileCtx {
            display: name.to_string(),
            ..FileCtx::default()
        }
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn l1_flags_condvar_outside_notify() {
        let src = "use std::sync::Condvar;\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l1-condvar"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn l1_permits_notify_rs() {
        let mut c = ctx("crates/anytime-core/src/notify.rs");
        c.is_notify = true;
        assert!(lint_source("use std::sync::Condvar;\n", &c).is_empty());
    }

    #[test]
    fn l1_ignores_strings_and_comments() {
        let src = "// Condvar in prose\nlet s = \"Condvar\";\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l2_flags_sleep_only_outside_tests() {
        let src = "fn f() { std::thread::sleep(d); }\n\
                   #[cfg(test)]\nmod tests {\n fn g() { std::thread::sleep(d); }\n}\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l2-sleep"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn l2_cfg_not_test_still_flagged() {
        let src = "#[cfg(not(test))]\nfn f() { thread::sleep(d); }\n";
        assert_eq!(rules_of(&lint_source(src, &ctx("a.rs"))), vec!["l2-sleep"]);
    }

    #[test]
    fn l2_exempt_dirs() {
        let c = FileCtx::from_rel_path("crates/x/tests/t.rs");
        assert!(c.sleep_exempt);
        assert!(lint_source("fn f() { thread::sleep(d); }", &c).is_empty());
    }

    #[test]
    fn l3_requires_adjacent_comment() {
        let bad = "x.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules_of(&lint_source(bad, &ctx("a.rs"))),
            vec!["l3-relaxed"]
        );
        let same_line = "x.load(Ordering::Relaxed); // relaxed: counter\n";
        assert!(lint_source(same_line, &ctx("a.rs")).is_empty());
        let above = "// relaxed: counter\nx.load(Ordering::Relaxed);\n";
        assert!(lint_source(above, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l3_comment_covers_contiguous_run() {
        let src = "// relaxed: counters\n\
                   a.load(Ordering::Relaxed);\n\
                   b.load(Ordering::Relaxed);\n\
                   c.load(Ordering::Relaxed);\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
        let gap = "// relaxed: counters\n\
                   a.load(Ordering::Relaxed);\n\
                   let x = 1;\n\
                   b.load(Ordering::Relaxed);\n";
        let d = lint_source(gap, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l3-relaxed"]);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn l3_doc_comment_does_not_justify() {
        let src = "/// relaxed: prose\nx.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules_of(&lint_source(src, &ctx("a.rs"))),
            vec!["l3-relaxed"]
        );
    }

    #[test]
    fn l4_guard_across_publish() {
        let src = "fn f(&mut self) {\n\
                     let mut st = lock_unpoisoned(&self.state);\n\
                     st.x += 1;\n\
                     self.publish(v);\n\
                   }\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l4-guard-across-publish"]);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn l4_drop_ends_liveness() {
        let src = "fn f(&mut self) {\n\
                     let st = lock_unpoisoned(&self.state);\n\
                     drop(st);\n\
                     self.publish(v);\n\
                   }\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l4_scope_exit_ends_liveness() {
        let src = "fn f(&mut self) {\n\
                     { let st = self.state.lock().unwrap(); }\n\
                     self.emit(v);\n\
                   }\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l4_fn_definition_not_a_call() {
        let src = "impl X { fn publish(&mut self) { let g = lock(&m); } }\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l4_published_at_not_a_boundary() {
        let src = "fn f() { let g = lock(&m); let t = snap.published_at(); }\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l5_crate_root_needs_forbid() {
        let c = FileCtx::from_rel_path("crates/x/src/lib.rs");
        assert!(c.crate_root);
        let d = lint_source("pub fn f() {}\n", &c);
        assert_eq!(rules_of(&d), vec!["l5-forbid-unsafe"]);
        assert!(lint_source("#![forbid(unsafe_code)]\npub fn f() {}\n", &c).is_empty());
        // Non-roots are not checked.
        assert!(lint_source("pub fn f() {}\n", &ctx("crates/x/src/other.rs")).is_empty());
    }

    #[test]
    fn l6_flags_raw_spawns_outside_tests() {
        let d = lint_source("fn f() { std::thread::spawn(move || {}); }\n", &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l6-no-raw-spawn"]);
        let builder = "fn f() {\n thread::Builder::new()\n  .name(n)\n  .spawn(move || {})\n}\n";
        let d = lint_source(builder, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["l6-no-raw-spawn"]);
        assert_eq!(d[0].line, 4, "diagnostic lands on the .spawn( line");
    }

    #[test]
    fn l6_exempts_tests_definitions_and_task_spawns() {
        let in_test = "#[cfg(test)]\nmod tests {\n fn f() { thread::spawn(move || {}); }\n}\n";
        assert!(lint_source(in_test, &ctx("a.rs")).is_empty());
        let test_dir = FileCtx::from_rel_path("crates/x/tests/t.rs");
        assert!(lint_source("fn f() { thread::spawn(move || {}); }", &test_dir).is_empty());
        // A definition and the runtime's own task-spawn API are not raw spawns.
        assert!(lint_source("impl X { fn spawn(&self) {} }\n", &ctx("a.rs")).is_empty());
        assert!(lint_source("fn f() { rt.spawn_task(task, 1); }\n", &ctx("a.rs")).is_empty());
    }

    #[test]
    fn l6_suppression_audits_standing_threads() {
        let src = "fn f() {\n\
                   // lint: allow(l6-no-raw-spawn) -- watchdog needs its own thread\n\
                   thread::spawn(move || {});\n\
                   }\n";
        assert!(lint_source(src, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn suppression_same_line_and_above() {
        let same = "use std::sync::Condvar; // lint: allow(l1-condvar) -- test fixture\n";
        assert!(lint_source(same, &ctx("a.rs")).is_empty());
        let above = "// lint: allow(l1-condvar) -- test fixture\nuse std::sync::Condvar;\n";
        assert!(lint_source(above, &ctx("a.rs")).is_empty());
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "use std::sync::Condvar; // lint: allow(l1-condvar)\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert!(rules_of(&d).contains(&"l1-condvar"));
        assert!(rules_of(&d).contains(&"lint-allow"));
    }

    #[test]
    fn unused_suppression_reported() {
        let src = "// lint: allow(l2-sleep) -- nothing here\nlet x = 1;\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["lint-allow"]);
        assert!(d[0].message.contains("matched no violation"));
    }

    #[test]
    fn unknown_rule_reported() {
        let src = "// lint: allow(l9-bogus) -- hm\nlet x = 1;\n";
        let d = lint_source(src, &ctx("a.rs"));
        assert_eq!(rules_of(&d), vec!["lint-allow"]);
        assert!(d[0].message.contains("unknown rule"));
    }

    #[test]
    fn diagnostics_render_path_line_rule() {
        let d = lint_source("use std::sync::Condvar;\n", &ctx("crates/a/src/x.rs"));
        assert_eq!(
            d[0].to_string(),
            "crates/a/src/x.rs:1: [l1-condvar] `Condvar` outside notify.rs: raw condvar waits \
             risk lost wakeups; block through the epoch WaitSet protocol instead"
        );
    }
}
