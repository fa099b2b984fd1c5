//! Per-file symbol extraction: the first phase of the two-phase analyzer.
//!
//! The lexer ([`crate::lexer`]) gives a reliable token stream; this module
//! lifts it into the small slice of structure the cross-file rules need —
//! function items (with their `impl`/`trait` context), and an *ordered
//! event stream* per function body: brace scopes, named lock-guard
//! bindings with their lock identity, explicit `drop`s, call expressions,
//! lock-acquisition sites, and atomic field accesses with their
//! `Ordering`s. No expression grammar, no types: just enough symbols for
//! the workspace model ([`crate::model`]) to build a call graph, a
//! lock-order graph, and an atomic pairing table.
//!
//! Heuristics (documented in DESIGN.md §16): guard tracking follows L4's
//! named-`let` convention (`let g = …lock(…)…;`), lock identity is
//! `<file-stem>.<field>` (the last path segment of the locked expression),
//! and atomic calls are recognized by method name plus an `Ordering`
//! variant among the arguments.

use crate::lexer::{Lexed, Tok, Token};
use crate::FileCtx;

/// One ordered event inside a function body.
#[derive(Debug, Clone)]
pub enum Event {
    /// A `{` opening a nested scope inside the body.
    Open,
    /// The matching `}`.
    Close,
    /// `let [mut] name = …lock(…)…;` — a named guard binding. `lock` is
    /// the lock key (`<stem>.<field>`) when the locked path was
    /// extractable.
    GuardBind {
        name: String,
        lock: Option<String>,
        line: u32,
    },
    /// `drop(name)` — explicit end of a guard's liveness.
    GuardDrop { name: String },
    /// Any `lock(…)` / `lock_unpoisoned(…)` / `.lock()` site, including
    /// temporaries and the acquisitions inside guard initializers.
    Acquire { lock: String, line: u32 },
    /// A call expression `name(…)` or `.name(…)`.
    Call {
        name: String,
        line: u32,
        method: bool,
        zero_args: bool,
    },
    /// An atomic field access with at least one `Ordering` argument.
    Atomic(AtomicAccess),
}

/// One atomic access site, classified by direction and ordering.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Last path segment of the accessed place (`self.state` → `state`).
    pub field: String,
    pub line: u32,
    /// The access can observe a value (load / RMW / CAS).
    pub reads: bool,
    /// The access can publish a value (store / RMW / CAS).
    pub writes: bool,
    /// A write with `Release`, `AcqRel`, or `SeqCst` ordering.
    pub rel_any: bool,
    /// A read with `Acquire`, `AcqRel`, or `SeqCst` ordering.
    pub acq_any: bool,
    /// A write with explicit `Release`/`AcqRel` (not `SeqCst`).
    pub explicit_rel: bool,
    /// A read with explicit `Acquire`/`AcqRel` (not `SeqCst`).
    pub explicit_acq: bool,
    /// Inside `#[cfg(test)]` or a test-exempt tree: satisfies pairing but
    /// is never itself flagged.
    pub in_test: bool,
}

/// One function item with its body event stream.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// `Some("RtTask")` for `impl RtTask for …` methods (or the trait a
    /// default method body belongs to).
    pub trait_name: Option<String>,
    /// The `Self` type of the enclosing `impl`, for diagnostics.
    pub type_name: Option<String>,
    /// Inside `#[cfg(test)]` or defined in a test-exempt tree.
    pub in_test: bool,
    pub events: Vec<Event>,
}

/// The per-file analysis result fed to the workspace model.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// Workspace-relative display path.
    pub display: String,
    /// File stem (`serve.rs` → `serve`), the lock-key namespace.
    pub stem: String,
    pub fns: Vec<FnDef>,
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rust keywords (plus primitive patterns) that look like calls but are not.
fn is_keywordish(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "else"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "let"
            | "mut"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "dyn"
            | "fn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "box"
            | "await"
            | "yield"
    ) || s.chars().next().is_some_and(char::is_uppercase)
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

fn is_close(tokens: &[Token], i: usize, c: u8) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::Close(p)) if *p == c)
}

/// Walks back from the token *before* a `.method` dot to the field being
/// accessed: `self.deques[w].lock()` → `deques`, `job.slot.state.store(…)`
/// → `state`.
fn field_before_dot(tokens: &[Token], mut j: usize) -> Option<String> {
    // Skip a trailing index `[…]` or call `(…)` backwards to its opener.
    for close in [b']', b')'] {
        if is_close(tokens, j, close) {
            let open = if close == b']' { b'[' } else { b'(' };
            let mut depth = 0i32;
            loop {
                match tokens.get(j).map(|t| &t.kind) {
                    Some(Tok::Close(c)) if *c == close => depth += 1,
                    Some(Tok::Open(o)) if *o == open => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
        }
    }
    ident_at(tokens, j).map(str::to_string)
}

/// Walks forward from the first token inside `lock(…)` to the last path
/// segment of the locked place: `lock(&job.slot.state)` → `state`,
/// `lock_unpoisoned(&self.deques[w])` → `deques`.
fn field_in_args(tokens: &[Token], mut j: usize) -> Option<String> {
    while is_punct(tokens, j, b'&') || ident_at(tokens, j) == Some("mut") {
        j += 1;
    }
    let mut last: Option<String> = None;
    while let Some(s) = ident_at(tokens, j) {
        last = Some(s.to_string());
        j += 1;
        if is_punct(tokens, j, b':') && is_punct(tokens, j + 1, b':') {
            j += 2;
            continue;
        }
        if is_open(tokens, j, b'[') {
            let mut depth = 0i32;
            while j < tokens.len() {
                match &tokens[j].kind {
                    Tok::Open(b'[') => depth += 1,
                    Tok::Close(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        if is_punct(tokens, j, b'.') {
            j += 1;
            continue;
        }
        break;
    }
    last
}

/// Skips a `<…>` generics group starting at `j` (which must point at `<`),
/// returning the index just past the matching `>`. `->` arrows inside
/// bounds (`F: Fn() -> T`) do not count as closers.
fn skip_generics(tokens: &[Token], mut j: usize) -> usize {
    let mut depth = 0i32;
    while j < tokens.len() {
        if is_punct(tokens, j, b'-') && is_punct(tokens, j + 1, b'>') {
            j += 2;
            continue;
        }
        if is_punct(tokens, j, b'<') {
            depth += 1;
        } else if is_punct(tokens, j, b'>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Parses an `impl`/`trait` header starting after the keyword, returning
/// `(trait_name, type_name)` — for `impl`, the last path segment before
/// `for` and the first path's last segment after it (or the inherent type).
fn parse_impl_header(tokens: &[Token], kw: &str, mut j: usize) -> (Option<String>, Option<String>) {
    if is_punct(tokens, j, b'<') {
        j = skip_generics(tokens, j);
    }
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut seen_for = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            Tok::Open(b'{') | Tok::Punct(b';') => break,
            Tok::Ident(s) if s == "for" => seen_for = true,
            Tok::Ident(s) if s == "where" => break,
            Tok::Ident(s) => {
                if seen_for {
                    if after_for.is_none() || is_punct(tokens, j.wrapping_sub(1), b':') {
                        after_for = Some(s.clone());
                    }
                } else {
                    before_for = Some(s.clone());
                }
            }
            Tok::Punct(b'<') => j = skip_generics(tokens, j) - 1,
            _ => {}
        }
        j += 1;
    }
    if kw == "trait" {
        // `trait Foo { … }`: the first ident names the trait itself.
        return (before_for, None);
    }
    if seen_for {
        (before_for, after_for)
    } else {
        (None, before_for)
    }
}

/// Builds the per-file AST from a lexed token stream. `in_test` is the
/// per-token `#[cfg(test)]` map from [`crate::cfg_test_regions`];
/// `ctx.sleep_exempt` marks whole-file test trees.
pub fn build_file_ast(lexed: &Lexed, in_test: &[bool], ctx: &FileCtx) -> FileAst {
    let toks = &lexed.tokens;
    let stem = ctx
        .display
        .rsplit('/')
        .next()
        .unwrap_or(&ctx.display)
        .trim_end_matches(".rs")
        .to_string();

    struct OpenFn {
        def: FnDef,
        depth: u32,
    }
    struct OpenImpl {
        trait_name: Option<String>,
        type_name: Option<String>,
        depth: u32,
    }

    let mut out = FileAst {
        display: ctx.display.clone(),
        stem: stem.clone(),
        fns: Vec::new(),
    };
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    let mut impl_stack: Vec<OpenImpl> = Vec::new();
    // `fn name` seen; waiting for its body `{` (or a `;` declaration end).
    let mut pending_fn: Option<(String, u32, bool)> = None;
    let mut pend_delim = 0i32;
    // `impl`/`trait` header parsed; waiting for the body `{`.
    let mut pending_impl: Option<(Option<String>, Option<String>)> = None;
    // Guard bindings emitted at their statement-ending `;` so that the
    // `Acquire` inside the initializer is ordered before the bind.
    let mut pending_binds: Vec<(usize, String, Option<String>, u32)> = Vec::new();
    let mut depth = 0u32;

    let mut i = 0usize;
    while i < toks.len() {
        while let Some(pos) = pending_binds.iter().position(|(at, ..)| *at <= i) {
            let (_, name, lock, line) = pending_binds.remove(pos);
            if let Some(f) = fn_stack.last_mut() {
                f.def.events.push(Event::GuardBind { name, lock, line });
            }
        }
        let tok = &toks[i];
        match &tok.kind {
            Tok::Ident(kw) if (kw == "impl" || kw == "trait") && fn_stack.is_empty() => {
                pending_impl = Some(parse_impl_header(toks, kw, i + 1));
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let tested = in_test.get(i).copied().unwrap_or(false) || ctx.sleep_exempt;
                    pending_fn = Some((name.to_string(), tok.line, tested));
                    pend_delim = 0;
                }
            }
            Tok::Open(b'{') => {
                if pending_fn.is_some() && pend_delim == 0 {
                    let (name, line, tested) = pending_fn.take().expect("checked above");
                    let (trait_name, type_name) = impl_stack
                        .last()
                        .map(|im| (im.trait_name.clone(), im.type_name.clone()))
                        .unwrap_or((None, None));
                    fn_stack.push(OpenFn {
                        def: FnDef {
                            name,
                            line,
                            trait_name,
                            type_name,
                            in_test: tested,
                            events: Vec::new(),
                        },
                        depth,
                    });
                } else if pending_impl.is_some() && fn_stack.is_empty() {
                    let (trait_name, type_name) = pending_impl.take().expect("checked above");
                    impl_stack.push(OpenImpl {
                        trait_name,
                        type_name,
                        depth,
                    });
                } else if let Some(f) = fn_stack.last_mut() {
                    f.def.events.push(Event::Open);
                }
                depth += 1;
            }
            Tok::Open(_) if pending_fn.is_some() => {
                pend_delim += 1;
            }
            Tok::Close(b'}') => {
                depth = depth.saturating_sub(1);
                if fn_stack.last().is_some_and(|f| f.depth == depth) {
                    let done = fn_stack.pop().expect("checked above");
                    out.fns.push(done.def);
                } else if impl_stack.last().is_some_and(|im| im.depth == depth) {
                    impl_stack.pop();
                } else if let Some(f) = fn_stack.last_mut() {
                    f.def.events.push(Event::Close);
                }
            }
            Tok::Close(_) if pending_fn.is_some() => {
                pend_delim -= 1;
            }
            Tok::Punct(b';') => {
                if pending_fn.is_some() && pend_delim == 0 {
                    pending_fn = None; // trait method declaration, no body
                }
                if pending_impl.is_some() {
                    pending_impl = None; // `impl Trait for Type;` style marker
                }
            }
            Tok::Ident(id) if id == "let" && !fn_stack.is_empty() => {
                scan_let(toks, i, &stem, &mut pending_binds);
            }
            Tok::Ident(id) if id == "drop" && is_open(toks, i + 1, b'(') => {
                if let Some(name) = ident_at(toks, i + 2) {
                    if is_close(toks, i + 3, b')') {
                        if let Some(f) = fn_stack.last_mut() {
                            f.def.events.push(Event::GuardDrop {
                                name: name.to_string(),
                            });
                        }
                    }
                }
            }
            Tok::Ident(id)
                if (id == "lock" || id == "lock_unpoisoned")
                    && is_open(toks, i + 1, b'(')
                    && ident_at(toks, i.wrapping_sub(1)) != Some("fn")
                    && !fn_stack.is_empty() =>
            {
                let field = if is_punct(toks, i.wrapping_sub(1), b'.') {
                    field_before_dot(toks, i.wrapping_sub(2))
                } else {
                    field_in_args(toks, i + 2)
                };
                if let (Some(field), Some(f)) = (field, fn_stack.last_mut()) {
                    f.def.events.push(Event::Acquire {
                        lock: format!("{stem}.{field}"),
                        line: tok.line,
                    });
                }
            }
            Tok::Ident(id)
                if id == "spawn"
                    && is_open(toks, i + 1, b'(')
                    && ident_at(toks, i.wrapping_sub(1)) != Some("fn") =>
            {
                // A thread-spawn closure runs on its own OS thread: its body
                // is *not* part of the enclosing function's task context, its
                // lock scopes are not the caller's, and its blocking waits
                // are the thread's own business (L6 audits the spawn itself).
                // Skip the entire argument region.
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < toks.len() {
                    match &toks[j].kind {
                        Tok::Open(_) => depth += 1,
                        Tok::Close(_) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            Tok::Ident(id)
                if ATOMIC_METHODS.contains(&id.as_str())
                    && is_punct(toks, i.wrapping_sub(1), b'.')
                    && is_open(toks, i + 1, b'(')
                    && !fn_stack.is_empty() =>
            {
                if let Some(access) = classify_atomic(toks, i, in_test, ctx) {
                    if let Some(f) = fn_stack.last_mut() {
                        f.def.events.push(Event::Atomic(access));
                    }
                }
            }
            Tok::Ident(id)
                if is_open(toks, i + 1, b'(')
                    && !is_keywordish(id)
                    && ident_at(toks, i.wrapping_sub(1)) != Some("fn")
                    && !fn_stack.is_empty() =>
            {
                if let Some(f) = fn_stack.last_mut() {
                    f.def.events.push(Event::Call {
                        name: id.clone(),
                        line: tok.line,
                        method: is_punct(toks, i.wrapping_sub(1), b'.'),
                        zero_args: is_close(toks, i + 2, b')'),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unterminated bodies (malformed source) still surface their fns.
    while let Some(done) = fn_stack.pop() {
        out.fns.push(done.def);
    }
    out
}

/// Scans a `let` statement's initializer for a *tail-position* lock call;
/// when found, queues a guard binding to be emitted at the statement's
/// `;`.
///
/// Tighter than L4's heuristic, deliberately: the binding is a guard only
/// when the lock call sits at depth 0 of the initializer (so
/// `let n = { let g = lock(…); … };` and `let x = f(lock(…));` do not
/// bind) and nothing but `unwrap`/`expect`/`unwrap_or_else`/`?` follows
/// it (so `let v = lock(…).clone();` — a value copied out of a
/// *temporary* guard — does not bind either). Cross-file rules fire on
/// held guards anywhere, so false bindings here would be false positives
/// everywhere.
fn scan_let(
    toks: &[Token],
    i: usize,
    stem: &str,
    pending_binds: &mut Vec<(usize, String, Option<String>, u32)>,
) {
    let mut j = i + 1;
    if ident_at(toks, j) == Some("mut") {
        j += 1;
    }
    let Some(name) = ident_at(toks, j) else {
        return; // tuple/struct destructuring: untrackable
    };
    if name.chars().next().is_some_and(char::is_uppercase) {
        return; // `let Some(x) = …` / `let Ok(g) = …`: pattern, not a binding
    }
    let name = name.to_string();
    let mut depth = 0i32;
    let mut k = j + 1;
    let mut lock_site: Option<usize> = None;
    while k < toks.len() {
        match &toks[k].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            Tok::Punct(b';') if depth == 0 => break,
            Tok::Ident(s)
                if (s == "lock" || s == "lock_unpoisoned")
                    && depth == 0
                    && is_open(toks, k + 1, b'(')
                    && lock_site.is_none() =>
            {
                lock_site = Some(k);
            }
            _ => {}
        }
        k += 1;
    }
    let Some(site) = lock_site else {
        return;
    };
    if !tail_is_guard(toks, site) {
        return;
    }
    let field = if is_punct(toks, site.wrapping_sub(1), b'.') {
        field_before_dot(toks, site.wrapping_sub(2))
    } else {
        field_in_args(toks, site + 2)
    };
    let lock = field.map(|f| format!("{stem}.{f}"));
    pending_binds.push((k, name, lock, toks[i].line));
}

/// Returns the index just past the delimiter group opening at `open`.
fn skip_group(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// `true` when the expression after the lock call at `site` ends the
/// statement, modulo error-handling adaptors — i.e. the binding really
/// holds the guard rather than a value extracted from a temporary.
fn tail_is_guard(toks: &[Token], site: usize) -> bool {
    let mut j = skip_group(toks, site + 1);
    loop {
        if is_punct(toks, j, b'?') {
            j += 1;
            continue;
        }
        if is_punct(toks, j, b'.')
            && matches!(
                ident_at(toks, j + 1),
                Some("unwrap" | "expect" | "unwrap_or_else")
            )
            && is_open(toks, j + 2, b'(')
        {
            j = skip_group(toks, j + 2);
            continue;
        }
        break;
    }
    is_punct(toks, j, b';')
}

/// Classifies an atomic method call at token `i`, returning `None` when no
/// `Ordering` variant appears among the arguments (i.e. not an atomic).
fn classify_atomic(
    toks: &[Token],
    i: usize,
    in_test: &[bool],
    ctx: &FileCtx,
) -> Option<AtomicAccess> {
    let method = ident_at(toks, i)?;
    let mut orderings: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(s) if ORDERINGS.contains(&s.as_str()) => orderings.push(s.as_str()),
            _ => {}
        }
        j += 1;
    }
    if orderings.is_empty() {
        return None;
    }
    let field = field_before_dot(toks, i.wrapping_sub(2))?;
    let reads = method != "store";
    let writes = method != "load";
    let has = |o: &str| orderings.contains(&o);
    Some(AtomicAccess {
        field,
        line: toks[i].line,
        reads,
        writes,
        rel_any: writes && (has("Release") || has("AcqRel") || has("SeqCst")),
        acq_any: reads && (has("Acquire") || has("AcqRel") || has("SeqCst")),
        explicit_rel: writes && (has("Release") || has("AcqRel")),
        explicit_acq: reads && (has("Acquire") || has("AcqRel")),
        in_test: in_test.get(i).copied().unwrap_or(false) || ctx.sleep_exempt,
    })
}
