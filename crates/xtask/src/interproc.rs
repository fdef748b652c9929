//! Interprocedural ghost-lint rules, built on the item graph
//! ([`crate::items`]) and approximate call graph ([`crate::graph`]).
//!
//! Four rule families live here (DESIGN.md §14):
//!
//! - **panic-path** — no `unwrap`/`expect`, `panic!`-family macro, or
//!   unguarded indexing in any function reachable from the public
//!   estimation entry points or the serve router, unless justified at the
//!   source site. Findings carry the shortest call chain from the
//!   entrypoint so the edge can be audited.
//! - **lock-discipline** — no second lock acquisition while a guard is
//!   live without a declared order, and no guard live across a
//!   `par_map`/`try_par_map`/`ordered_map` fan-out or (in the serve
//!   crate) a socket I/O call. Functions whose return type names a `MutexGuard` count as
//!   acquisitions at their call sites, which is how the serve cache's
//!   `lock()` helpers participate.
//! - **counting-overflow** — unchecked `+`/`*`/`<<` where an operand is a
//!   declared `u32`/`u64` value (parameter, annotated `let`, suffixed
//!   literal, `as u32`/`as u64` cast, or a bare `.count_ones()`
//!   popcount, which is `u32` and overflows a `u32` accumulator after
//!   2^27 full words) in the core/stats/pipeline/addrplane library
//!   code. Widening first via `u64::from(x.count_ones())` is the
//!   sanctioned idiom and is not flagged. The static complement of the
//!   runtime `totals ≤ 2^32` validator.
//! - **event-exhaustiveness** — every literal event name passed to a
//!   `Scope` emission method must be registered in
//!   `ghosts_obs::schema::EVENT_NAMES` under the same kind, and every
//!   registry entry must be emitted somewhere.
//!
//! All approximations here are deliberately *over*-approximations
//! (reachability and guard liveness may include paths a human can rule
//! out): the escape hatch is the same `// lint: allow(<rule>) <reason>`
//! comment as everywhere else, placed at the flagged line.

use crate::graph::{is_keyword, CallGraph, GraphFile, NodeId};
use crate::items::FnItem;
use crate::lexer::{Token, TokenKind};
use crate::rules::{
    Allows, FileClass, Section, Violation, RULE_COUNTING_OVERFLOW, RULE_EVENT_EXHAUSTIVENESS,
    RULE_LOCK_DISCIPLINE, RULE_PANIC_PATH, RULE_UNWRAP,
};
use std::collections::{BTreeMap, BTreeSet};

/// The public entry points whose call trees must be panic-free:
/// everything a paper table or a serve request flows through.
pub const PANIC_ENTRYPOINTS: &[(&str, &str)] = &[
    ("core", "estimate_table"),
    ("core", "estimate_table_with_range"),
    ("core", "estimate_table_with_fit"),
    ("core", "estimate_stratified"),
    ("core", "fit_llm"),
    ("core", "select_model"),
    ("serve", "route"),
];

/// Crates in scope for the counting-overflow rule: where the paper's
/// address counts live.
const COUNTING_CRATES: [&str; 4] = ["core", "stats", "pipeline", "addrplane"];

/// `Scope` emission methods and the trace-line kind each produces.
const EMIT_METHODS: [(&str, &str); 5] = [
    ("degradation", "degradation"),
    ("error", "error"),
    ("event", "event"),
    ("fault_injected", "fault_injected"),
    ("reliability", "reliability"),
];

/// Socket I/O methods a guard must not be live across (serve crate).
const SOCKET_METHODS: [&str; 6] = [
    "accept",
    "flush",
    "read_exact",
    "read_to_end",
    "read_until",
    "write_all",
];

/// One analyzed file as the interprocedural rules see it.
pub struct InterprocFile<'a> {
    /// Workspace classification.
    pub class: &'a FileClass,
    /// Full token stream.
    pub tokens: &'a [Token],
    /// Item tree.
    pub items: &'a crate::items::FileItems,
    /// Lines inside `#[cfg(test)]` items.
    pub test_lines: &'a BTreeSet<usize>,
    /// Justification comments (usage-tracked).
    pub allows: &'a Allows,
}

/// Runs all interprocedural rules over the workspace.
pub fn lint_interproc(files: &[InterprocFile<'_>]) -> Vec<Violation> {
    // Vendor shims and unclassified files (fixtures) stay out of the
    // graph: their panics are stand-ins, not ours.
    let in_graph: Vec<usize> = (0..files.len())
        .filter(|&i| {
            let c = files[i].class;
            !c.crate_name.starts_with("vendor/") && !matches!(c.section, Section::Other)
        })
        .collect();
    let graph_files: Vec<GraphFile<'_>> = in_graph
        .iter()
        .map(|&i| GraphFile {
            class: files[i].class,
            tokens: files[i].tokens,
            items: files[i].items,
        })
        .collect();
    let graph = CallGraph::build(&graph_files);

    let mut out = Vec::new();
    rule_panic_path(files, &in_graph, &graph_files, &graph, &mut out);
    rule_lock_discipline(files, &in_graph, &graph_files, &mut out);
    rule_counting_overflow(files, &mut out);
    rule_event_exhaustiveness(files, &mut out);
    out
}

/// The file-index (into `files`) of a graph node.
fn node_file(in_graph: &[usize], graph: &CallGraph, node: NodeId) -> usize {
    in_graph[graph.nodes[node].file]
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

fn rule_panic_path(
    files: &[InterprocFile<'_>],
    in_graph: &[usize],
    graph_files: &[GraphFile<'_>],
    graph: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let mut roots = Vec::new();
    for (krate, name) in PANIC_ENTRYPOINTS {
        roots.extend(graph.entrypoints(graph_files, krate, name));
    }
    let parents = graph.reachable_from(&roots);
    for &node in parents.keys() {
        let file = &files[node_file(in_graph, graph, node)];
        if !matches!(file.class.section, Section::Src | Section::Bin) {
            continue;
        }
        let item = graph.item(graph_files, node);
        if item.body.is_empty() || file.test_lines.contains(&item.line) {
            continue;
        }
        let chain = graph.chain(graph_files, &parents, node);
        scan_panic_sites(file, item, &chain, out);
    }
}

fn scan_panic_sites(
    file: &InterprocFile<'_>,
    item: &FnItem,
    chain: &str,
    out: &mut Vec<Violation>,
) {
    let tokens = file.tokens;
    // One finding per line: several indexing ops in one expression are
    // one fix for the reader.
    let mut seen_lines: BTreeSet<usize> = BTreeSet::new();
    let mut flag = |line: usize, what: &str, hint: &str| {
        if file.test_lines.contains(&line) || !seen_lines.insert(line) {
            return;
        }
        // Sites already justified for no-unwrap keep their justification:
        // the stated invariant covers the reachable path too.
        if file.allows.check(line, RULE_PANIC_PATH) || file.allows.check(line, RULE_UNWRAP) {
            return;
        }
        out.push(Violation {
            file: file.class.rel_path.clone(),
            line,
            rule: RULE_PANIC_PATH,
            message: format!(
                "{what} on a panic path (reachable via {chain}): {hint}, or state the \
                 invariant with `// lint: allow(panic-path) <why it cannot fail>`"
            ),
        });
    };
    let body = item.body.clone();
    let mut i = body.start;
    while i < body.end.min(tokens.len()) {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Ident(w) => {
                // `.unwrap()` / `.expect()` …
                if (w == "unwrap" || w == "expect")
                    && i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    flag(t.line, &format!("{w}()"), "propagate the error");
                }
                // …and the panicking macros.
                if matches!(
                    w.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
                {
                    flag(t.line, &format!("{w}!"), "return an error instead");
                }
            }
            TokenKind::Punct('[') if i > body.start => {
                let prev = &tokens[i - 1];
                let indexes = match &prev.kind {
                    TokenKind::Ident(w) => !is_keyword(w),
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    // `xs[..]` is total; everything else can panic.
                    let close = match_brace_sq(tokens, i);
                    let inner = &tokens[i + 1..close.min(tokens.len())];
                    let is_full_range = inner.len() == 2 && inner.iter().all(|t| t.is_punct('.'));
                    if !is_full_range {
                        flag(
                            t.line,
                            "unguarded indexing",
                            "use .get()/.get_mut() and handle None",
                        );
                    }
                    i += 1;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Matching `]` for the `[` at `open`.
fn match_brace_sq(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    /// Binding name, when `let`-bound (for `drop(name)` release).
    name: Option<String>,
    /// Brace depth (within the fn body) the guard is scoped to; it dies
    /// when the depth drops below this.
    depth: usize,
    /// A statement temporary: dies at the next `;` at or below its depth.
    temp: bool,
    /// Line of the acquisition, for messages.
    line: usize,
}

fn rule_lock_discipline(
    files: &[InterprocFile<'_>],
    in_graph: &[usize],
    graph_files: &[GraphFile<'_>],
    out: &mut Vec<Violation>,
) {
    // Names of workspace functions that return a lock guard: calling one
    // is an acquisition (`self.lock()` helpers on the serve cache and
    // sharded ReproContext maps). `lock` itself is always an acquisition
    // — that's std's `Mutex::lock`.
    let mut guard_names: BTreeSet<&str> = BTreeSet::new();
    guard_names.insert("lock");
    for gf in graph_files {
        for f in &gf.items.fns {
            if f.returns_guard {
                guard_names.insert(f.name.as_str());
            }
        }
    }

    for (gi, gf) in graph_files.iter().enumerate() {
        let file = &files[in_graph[gi]];
        if !matches!(file.class.section, Section::Src | Section::Bin) {
            continue;
        }
        for item in &gf.items.fns {
            if item.body.is_empty() || file.test_lines.contains(&item.line) {
                continue;
            }
            scan_fn_locks(file, item, &guard_names, out);
        }
    }
}

fn scan_fn_locks(
    file: &InterprocFile<'_>,
    item: &FnItem,
    guard_names: &BTreeSet<&str>,
    out: &mut Vec<Violation>,
) {
    let tokens = file.tokens;
    let body = item.body.clone();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut i = body.start;
    while i < body.end.min(tokens.len()) {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth >= depth));
            }
            TokenKind::Ident(w) => {
                let next_is_call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
                let after_dot = i > 0 && tokens[i - 1].is_punct('.');
                // Release: drop(name).
                if w == "drop" && next_is_call && !after_dot {
                    if let Some(arg) = tokens.get(i + 2).and_then(Token::ident) {
                        guards.retain(|g| g.name.as_deref() != Some(arg));
                    }
                    i += 1;
                    continue;
                }
                // Fan-out with a guard live.
                if matches!(w.as_str(), "par_map" | "try_par_map" | "ordered_map") && next_is_call {
                    if let Some(g) = guards.first() {
                        if !file.test_lines.contains(&t.line)
                            && !file.allows.check(t.line, RULE_LOCK_DISCIPLINE)
                        {
                            out.push(Violation {
                                file: file.class.rel_path.clone(),
                                line: t.line,
                                rule: RULE_LOCK_DISCIPLINE,
                                message: format!(
                                    "MutexGuard acquired at line {} is live across {w}: \
                                     release the guard before fanning out (workers \
                                     re-acquiring it deadlocks or serialises the pool)",
                                    g.line
                                ),
                            });
                        }
                    }
                }
                // Socket I/O with a guard live (serve only).
                if file.class.crate_name == "serve"
                    && after_dot
                    && next_is_call
                    && SOCKET_METHODS.contains(&w.as_str())
                {
                    if let Some(g) = guards.first() {
                        if !file.test_lines.contains(&t.line)
                            && !file.allows.check(t.line, RULE_LOCK_DISCIPLINE)
                        {
                            out.push(Violation {
                                file: file.class.rel_path.clone(),
                                line: t.line,
                                rule: RULE_LOCK_DISCIPLINE,
                                message: format!(
                                    "MutexGuard acquired at line {} is live across socket \
                                     I/O (.{w}()): a slow peer holds the lock for every \
                                     other request — buffer under the lock, write after \
                                     release",
                                    g.line
                                ),
                            });
                        }
                    }
                }
                // Acquisition: `.lock()` or any call to a guard-returning fn.
                let acquires = next_is_call
                    && (if after_dot {
                        w == "lock" || guard_names.contains(w.as_str())
                    } else {
                        guard_names.contains(w.as_str())
                    });
                if acquires {
                    if let Some(g) = guards.first() {
                        if !file.test_lines.contains(&t.line)
                            && !file.allows.check(t.line, RULE_LOCK_DISCIPLINE)
                        {
                            out.push(Violation {
                                file: file.class.rel_path.clone(),
                                line: t.line,
                                rule: RULE_LOCK_DISCIPLINE,
                                message: format!(
                                    "nested lock acquisition while the guard from line \
                                     {} is live: release it first, or declare the order \
                                     with `// lint: allow(lock-discipline) order: \
                                     <outer> then <inner>`",
                                    g.line
                                ),
                            });
                        }
                    }
                    guards.push(new_guard(tokens, body.start, i, depth, t.line));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Builds the [`LiveGuard`] for an acquisition at token `i`: `let`-bound
/// guards live to the end of their block (the *body* block for `if let` /
/// `while let` condition bindings), unbound ones to the end of the
/// statement.
fn new_guard(
    tokens: &[Token],
    body_start: usize,
    i: usize,
    depth: usize,
    line: usize,
) -> LiveGuard {
    // Scan back to the statement start.
    let mut j = i;
    let mut stmt_start = body_start;
    while j > body_start {
        j -= 1;
        if matches!(
            tokens[j].kind,
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
        ) {
            stmt_start = j + 1;
            break;
        }
    }
    let stmt = &tokens[stmt_start..i];
    let let_pos = stmt.iter().position(|t| t.ident() == Some("let"));
    let Some(let_pos) = let_pos else {
        return LiveGuard {
            name: None,
            depth,
            temp: true,
            line,
        };
    };
    // `if let` / `while let`: the binding lives in the soon-to-open body
    // block, one level deeper.
    let cond = stmt[..let_pos]
        .iter()
        .any(|t| matches!(t.ident(), Some("if" | "while")));
    // Binding name: the last ident between `let` and `=` that isn't
    // `mut`/`ref` or a pattern constructor (`Ok`, `Some`).
    let eq = stmt[let_pos..]
        .iter()
        .position(|t| t.is_punct('='))
        .map(|p| let_pos + p)
        .unwrap_or(stmt.len());
    let name = stmt[let_pos + 1..eq]
        .iter()
        .filter_map(Token::ident)
        .rfind(|w| !matches!(*w, "mut" | "ref" | "Ok" | "Some" | "Err"))
        .map(str::to_string);
    LiveGuard {
        name,
        depth: depth + usize::from(cond),
        temp: false,
        line,
    }
}

// ---------------------------------------------------------------------------
// counting-overflow
// ---------------------------------------------------------------------------

fn rule_counting_overflow(files: &[InterprocFile<'_>], out: &mut Vec<Violation>) {
    for file in files {
        if !COUNTING_CRATES.contains(&file.class.crate_name.as_str())
            || !matches!(file.class.section, Section::Src)
        {
            continue;
        }
        for item in &file.items.fns {
            if item.body.is_empty() || file.test_lines.contains(&item.line) {
                continue;
            }
            scan_fn_arithmetic(file, item, out);
        }
    }
}

/// Declared `u32`/`u64` names in a function: parameters and annotated
/// `let`s whose type is exactly (a reference to) the scalar.
fn counting_idents(tokens: &[Token], item: &FnItem) -> BTreeMap<String, &'static str> {
    let mut out = BTreeMap::new();
    let mut record = |name: &str, ty_tokens: &[Token]| {
        let idents: Vec<&str> = ty_tokens
            .iter()
            .filter(|t| !t.is_punct('&') && !matches!(t.kind, TokenKind::Lifetime))
            .filter_map(Token::ident)
            .filter(|w| *w != "mut")
            .collect();
        match idents.as_slice() {
            ["u32"] => {
                out.insert(name.to_string(), "u32");
            }
            ["u64"] => {
                out.insert(name.to_string(), "u64");
            }
            _ => {}
        }
    };
    // Parameters: `name : <ty>` at paren depth 1 of the signature.
    let sig = &tokens[item.sig.clone()];
    let mut depth = 0usize;
    let mut k = 0usize;
    while k < sig.len() {
        match &sig[k].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => depth = depth.saturating_sub(1),
            TokenKind::Ident(name)
                if depth == 1 && sig.get(k + 1).is_some_and(|t| t.is_punct(':')) =>
            {
                // Type runs to the next `,` or `)` at this depth.
                let mut end = k + 2;
                let mut d2 = 0usize;
                while end < sig.len() {
                    match sig[end].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => {
                            d2 += 1
                        }
                        TokenKind::Punct(']') | TokenKind::Punct('>') => d2 = d2.saturating_sub(1),
                        TokenKind::Punct(')') if d2 == 0 => break,
                        TokenKind::Punct(')') => d2 -= 1,
                        TokenKind::Punct(',') if d2 == 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                record(name, &sig[k + 2..end]);
                k = end;
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    // Annotated lets in the body: `let [mut] name : <ty> =`.
    let body = &tokens[item.body.clone()];
    let mut k = 0usize;
    while k + 3 < body.len() {
        if body[k].ident() == Some("let") {
            let mut n = k + 1;
            if body.get(n).and_then(Token::ident) == Some("mut") {
                n += 1;
            }
            if let Some(name) = body.get(n).and_then(Token::ident) {
                if body.get(n + 1).is_some_and(|t| t.is_punct(':')) {
                    let mut end = n + 2;
                    while end < body.len() && !body[end].is_punct('=') && !body[end].is_punct(';') {
                        end += 1;
                    }
                    record(name, &body[n + 2..end]);
                    k = end;
                    continue;
                }
            }
        }
        k += 1;
    }
    out
}

/// Token-index spans of assert-family macro arguments inside a body —
/// arithmetic there is diagnostic, not counting.
fn assert_spans(tokens: &[Token], body: std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i + 2 < body.end.min(tokens.len()) {
        let is_assert = matches!(
            tokens[i].ident(),
            Some(
                "assert"
                    | "assert_eq"
                    | "assert_ne"
                    | "debug_assert"
                    | "debug_assert_eq"
                    | "debug_assert_ne"
            )
        );
        if is_assert && tokens[i + 1].is_punct('!') && tokens[i + 2].is_punct('(') {
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokenKind::Punct('(') => depth += 1,
                    TokenKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push(i..j + 1);
            i = j + 1;
            continue;
        }
        i += 1;
    }
    out
}

fn int_suffix(tok: &Token) -> Option<&'static str> {
    let text = tok.int_text()?;
    if text.ends_with("u64") {
        Some("u64")
    } else if text.ends_with("u32") {
        Some("u32")
    } else {
        None
    }
}

fn scan_fn_arithmetic(file: &InterprocFile<'_>, item: &FnItem, out: &mut Vec<Violation>) {
    let tokens = file.tokens;
    let typed = counting_idents(tokens, item);
    let asserts = assert_spans(tokens, item.body.clone());
    let in_assert = |idx: usize| asserts.iter().any(|r| r.contains(&idx));

    // Describes the counting operand at `idx` walking outward from an
    // operator, or None when the type is unknown.
    let operand = |idx: usize, forward: bool| -> Option<(String, &'static str)> {
        let t = tokens.get(idx)?;
        match &t.kind {
            TokenKind::Ident(w) => {
                // A cast decides the operand's type, whatever the ident
                // was declared as: `k as f64` is float arithmetic.
                if tokens.get(idx + 1).and_then(Token::ident) == Some("as") {
                    return match tokens.get(idx + 2).and_then(Token::ident) {
                        Some(ty @ ("u32" | "u64")) if forward => Some((
                            format!("{w} as {ty}"),
                            if ty == "u32" { "u32" } else { "u64" },
                        )),
                        _ => None,
                    };
                }
                // A bare popcount is `u32` whatever the receiver was:
                // `w.count_ones()` summed into a `u32` wraps after 2^27
                // full words. `u64::from(x.count_ones())` widens first
                // and is the sanctioned idiom, so it stays exempt (the
                // receiver here is `u64`, not an identifier pattern).
                if tokens.get(idx + 1).is_some_and(|t| t.is_punct('.'))
                    && tokens.get(idx + 2).and_then(Token::ident) == Some("count_ones")
                    && tokens.get(idx + 3).is_some_and(|t| t.is_punct('('))
                    && tokens.get(idx + 4).is_some_and(|t| t.is_punct(')'))
                {
                    if tokens.get(idx + 5).and_then(Token::ident) == Some("as") {
                        return match tokens.get(idx + 6).and_then(Token::ident) {
                            Some(ty @ ("u32" | "u64")) => Some((
                                format!("{w}.count_ones() as {ty}"),
                                if ty == "u32" { "u32" } else { "u64" },
                            )),
                            _ => None,
                        };
                    }
                    return Some((format!("{w}.count_ones()"), "u32"));
                }
                if let Some(ty) = typed.get(w.as_str()) {
                    // Not a field access `x.w` / call `w(...)`.
                    let prev_dot = idx > 0 && tokens[idx - 1].is_punct('.');
                    let next = tokens.get(idx + 1);
                    let is_call = next.is_some_and(|t| t.is_punct('('));
                    if !prev_dot && !is_call {
                        return Some((w.clone(), ty));
                    }
                }
                // Cast result on the left: `x as u64 + …`.
                if !forward
                    && (w == "u32" || w == "u64")
                    && idx > 0
                    && tokens[idx - 1].ident() == Some("as")
                {
                    return Some(("cast".to_string(), if w == "u32" { "u32" } else { "u64" }));
                }
                None
            }
            TokenKind::Int(_) => {
                int_suffix(t).map(|ty| (t.int_text().unwrap_or("literal").to_string(), ty))
            }
            // `….count_ones() + x`: the token left of the operator is the
            // popcount's closing paren. Inside `u64::from(…)` the paren
            // left of the operator is `from`'s, whose `(` is not preceded
            // by `count_ones`, so the widening idiom does not match.
            TokenKind::Punct(')') if !forward => {
                if idx >= 3
                    && tokens.get(idx - 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(idx - 2).and_then(Token::ident) == Some("count_ones")
                    && tokens.get(idx - 3).is_some_and(|t| t.is_punct('.'))
                {
                    Some(("count_ones()".to_string(), "u32"))
                } else {
                    None
                }
            }
            _ => None,
        }
    };

    let mut flag = |line: usize, op: &str, name: &str, ty: &str| {
        if file.test_lines.contains(&line) || file.allows.check(line, RULE_COUNTING_OVERFLOW) {
            return;
        }
        let safe = match op {
            "+" | "+=" => "checked_add/saturating_add",
            "*" | "*=" => "checked_mul/saturating_mul",
            _ => "checked_shl or a bounds guard",
        };
        out.push(Violation {
            file: file.class.rel_path.clone(),
            line,
            rule: RULE_COUNTING_OVERFLOW,
            message: format!(
                "unchecked `{op}` on {ty} counting value `{name}`: use {safe} (address \
                 totals are bounded by 2^32 — if this cannot overflow, justify with \
                 `// lint: allow(counting-overflow) <bound>`)"
            ),
        });
    };

    let body = item.body.clone();
    let binary_lhs = |idx: usize| -> bool {
        idx > body.start
            && match &tokens[idx - 1].kind {
                TokenKind::Ident(w) => !is_keyword(w),
                TokenKind::Int(_) | TokenKind::Float => true,
                TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                _ => false,
            }
    };
    let mut i = body.start;
    while i < body.end.min(tokens.len()) {
        if in_assert(i) {
            i += 1;
            continue;
        }
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct(c @ ('+' | '*')) if binary_lhs(i) => {
                let compound = tokens.get(i + 1).is_some_and(|t| t.is_punct('='));
                let rhs_at = if compound { i + 2 } else { i + 1 };
                let found = operand(i - 1, false).or_else(|| operand(rhs_at, true));
                if let Some((name, ty)) = found {
                    let op = if compound {
                        format!("{c}=")
                    } else {
                        c.to_string()
                    };
                    flag(t.line, &op, &name, ty);
                }
                if compound {
                    i += 2;
                    continue;
                }
            }
            // `<<` (two adjacent `<`), optionally `<<=`.
            TokenKind::Punct('<')
                if tokens.get(i + 1).is_some_and(|t| t.is_punct('<')) && binary_lhs(i) =>
            {
                let compound = tokens.get(i + 2).is_some_and(|t| t.is_punct('='));
                let rhs_at = if compound { i + 3 } else { i + 2 };
                let found = operand(i - 1, false).or_else(|| operand(rhs_at, true));
                if let Some((name, ty)) = found {
                    let op = if compound { "<<=" } else { "<<" };
                    flag(t.line, op, &name, ty);
                }
                i += if compound { 3 } else { 2 };
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// event-exhaustiveness
// ---------------------------------------------------------------------------

/// The registry location, for never-emitted findings.
const REGISTRY_FILE: &str = "crates/obs/src/schema.rs";

fn rule_event_exhaustiveness(files: &[InterprocFile<'_>], out: &mut Vec<Violation>) {
    let registry = ghosts_obs::schema::EVENT_NAMES;
    let mut emitted: BTreeSet<(String, String)> = BTreeSet::new();

    for file in files {
        if file.class.crate_name.starts_with("vendor/")
            || !matches!(file.class.section, Section::Src | Section::Bin)
        {
            continue;
        }
        let tokens = file.tokens;
        for i in 1..tokens.len() {
            if !tokens[i - 1].is_punct('.') {
                continue;
            }
            let Some(method) = tokens[i].ident() else {
                continue;
            };
            let Some((_, kind)) = EMIT_METHODS.iter().find(|(m, _)| *m == method) else {
                continue;
            };
            if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let Some(name) = tokens.get(i + 2).and_then(Token::literal) else {
                // Name comes from a variable — out of static reach.
                continue;
            };
            let line = tokens[i].line;
            if file.test_lines.contains(&line) {
                continue;
            }
            emitted.insert((name.to_string(), kind.to_string()));
            if ghosts_obs::schema::is_registered_event(name, kind) {
                continue;
            }
            if file.allows.check(line, RULE_EVENT_EXHAUSTIVENESS) {
                continue;
            }
            let other_kind = registry.iter().find(|(n, _)| *n == name).map(|(_, k)| *k);
            let message = match other_kind {
                Some(other) => format!(
                    "event \"{name}\" is emitted as kind `{kind}` but registered as \
                     `{other}` in ghosts_obs::schema::EVENT_NAMES — align the emission \
                     method or add the ({name}, {kind}) entry"
                ),
                None => format!(
                    "event \"{name}\" (kind `{kind}`) is not in the ghosts-events \
                     registry — add it to ghosts_obs::schema::EVENT_NAMES so trace \
                     consumers can rely on the name"
                ),
            };
            out.push(Violation {
                file: file.class.rel_path.clone(),
                line,
                rule: RULE_EVENT_EXHAUSTIVENESS,
                message,
            });
        }
    }

    // Reverse direction: registered but never emitted = dead schema.
    // Only meaningful when the registry's own file is in the analyzed
    // set (i.e. real workspace runs, not fixture-only test runs).
    let Some(schema_file) = files.iter().find(|f| f.class.rel_path == REGISTRY_FILE) else {
        return;
    };
    let schema_file = Some(schema_file);
    for (name, kind) in registry {
        if emitted.contains(&((*name).to_string(), (*kind).to_string())) {
            continue;
        }
        let line = schema_file
            .and_then(|f| registry_entry_line(f.tokens, name, kind))
            .unwrap_or(1);
        if let Some(f) = schema_file {
            if f.allows.check(line, RULE_EVENT_EXHAUSTIVENESS) {
                continue;
            }
        }
        out.push(Violation {
            file: REGISTRY_FILE.to_string(),
            line,
            rule: RULE_EVENT_EXHAUSTIVENESS,
            message: format!(
                "registry entry (\"{name}\", \"{kind}\") is never emitted from library \
                 or binary code — remove it from EVENT_NAMES or wire up the emission"
            ),
        });
    }
}

/// Line of the `("name", "kind")` pair inside the `EVENT_NAMES` table.
fn registry_entry_line(tokens: &[Token], name: &str, kind: &str) -> Option<usize> {
    let start = tokens
        .iter()
        .position(|t| t.ident() == Some("EVENT_NAMES"))?;
    let end = tokens[start..]
        .iter()
        .position(|t| t.is_punct(';'))
        .map(|p| start + p)
        .unwrap_or(tokens.len());
    tokens[start..end].windows(4).find_map(|w| {
        (w[0].is_punct('(')
            && w[1].literal() == Some(name)
            && w[2].is_punct(',')
            && w[3].literal() == Some(kind))
        .then_some(w[1].line)
    })
}

// ---------------------------------------------------------------------------
// stale-allow
// ---------------------------------------------------------------------------

/// Reports allow comments whose usage flag never got set, plus allows
/// naming unknown rules. Must run after every other rule.
pub fn stale_allow_violations(class: &FileClass, allows: &Allows) -> Vec<Violation> {
    use crate::rules::{KNOWN_RULES, RULE_STALE_ALLOW};
    let mut out = Vec::new();
    for site in allows.sites() {
        if !KNOWN_RULES.contains(&site.rule.as_str()) {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: site.line,
                rule: RULE_STALE_ALLOW,
                message: format!(
                    "`lint: allow({})` names an unknown rule — known rules: {}",
                    site.rule,
                    KNOWN_RULES.join(", ")
                ),
            });
        } else if !site.used.get() {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: site.line,
                rule: RULE_STALE_ALLOW,
                message: format!(
                    "stale suppression: `lint: allow({})` no longer suppresses any \
                     finding — remove the comment (or fix the drifted line it was \
                     meant to cover)",
                    site.rule
                ),
            });
        }
    }
    out
}
