//! ghost-lint rules: repo-specific invariants that clippy cannot express.
//!
//! Every rule operates on the token stream of one file plus a
//! [`FileClass`] describing where the file sits in the workspace. Rules
//! are scoped per crate and per section (library source vs tests vs
//! benches), and every rule honours the justification escape hatch:
//!
//! ```text
//! // lint: allow(<rule-id>) <reason>
//! ```
//!
//! on the offending line or the line directly above it. `// lint: sorted`
//! is an alias for `allow(hash-collections)` — it asserts that the hash
//! container's iteration order cannot reach any output (or that the use is
//! a deliberate reference model).

use crate::lexer::{Token, TokenKind};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Crates whose estimation paths feed the paper's AIC/BIC selection and
/// profile-likelihood ranges: hash-iteration order must never reach them.
const ESTIMATION_CRATES: [&str; 5] = ["core", "stats", "pipeline", "bench", "reliability"];

/// Crates required to be bit-deterministic in their inputs: no wall-clock,
/// no OS randomness, and library code must not panic via unwrap/expect.
const DETERMINISTIC_CRATES: [&str; 11] = [
    "core",
    "stats",
    "net",
    "addrplane",
    "pipeline",
    "sim",
    "analysis",
    "ghosts",
    "obs",
    "reliability",
    "durable",
];

/// The single file allowed to read the OS clock. Everything else goes
/// through `ghosts_obs`: binaries and benches construct a `WallClock`,
/// libraries read time (if at all) through the recorder's `Clock`.
const WALL_CLOCK_FILE: &str = "crates/obs/src/wall.rs";

/// Files allowed to compare floats with `==`: the approved helpers.
const FLOAT_EQ_HELPERS: [&str; 1] = ["crates/stats/src/approx.rs"];

/// Files that must call into `ghosts_core::invariant` (the estimation
/// entry points the runtime validators guard).
const INVARIANT_CALLERS: [&str; 3] = [
    "crates/core/src/estimator.rs",
    "crates/core/src/fit.rs",
    "crates/core/src/select.rs",
];

/// Crates whose library code may contain fault-injection probes
/// (`ghosts_faultinject::fire` and the task-scope plumbing): exactly the
/// crates that declare the documented fault sites of DESIGN.md §11.
const FAULT_SITE_CRATES: [&str; 6] = ["stats", "core", "pipeline", "bench", "serve", "durable"];

/// Crates allowed to open sockets. Network I/O is the serving layer's
/// job (DESIGN.md §12); estimation code computes over in-memory tables
/// and must stay runnable with networking stubbed out entirely. Tests
/// and benches may drive loopback sockets freely.
const NET_IO_CRATES: [&str; 1] = ["serve"];

/// The crate whose atomic writer owns raw file creation. Everything else
/// writes durable artifacts through `ghosts_durable::atomic_write`
/// (temp + fsync + rename), so a crash can never leave a torn file at a
/// final path (DESIGN.md §16). Tests and benches are exempt — they plant
/// corrupt fixtures on purpose.
const FS_DISCIPLINE_CRATE: &str = "durable";

/// `ghosts_faultinject` items that manage the process-global plan rather
/// than probe it. Installing, clearing or draining plans from library
/// code would let a library rearm faults behind the harness's back, so
/// these are reserved for binaries, benches and tests.
const FAULT_PLAN_IDENTS: [&str; 5] = ["install", "clear", "drain_fires", "FaultPlan", "FaultRule"];

/// Which target a file belongs to inside its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Library source (`src/`, excluding `src/bin/`).
    Src,
    /// Binary source (`src/bin/`).
    Bin,
    /// Integration tests (`tests/`).
    Tests,
    /// Criterion benches (`benches/`).
    Benches,
    /// Examples (`examples/`).
    Examples,
    /// Anything else (build scripts, fixtures).
    Other,
}

/// Where a file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate name without the `ghosts-` prefix (`core`, `stats`, …),
    /// `vendor/<name>` for vendored shims, or `""` for workspace-root
    /// tests/examples.
    pub crate_name: String,
    /// The target section.
    pub section: Section,
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Whether this file is a crate root (`src/lib.rs` or `src/main.rs`).
    pub is_crate_root: bool,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (stable, used by `lint: allow(...)`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule ids (the vocabulary `lint: allow(...)` accepts).
pub const RULE_HASH: &str = "hash-collections";
/// Float `==`/`!=` comparisons outside the approved helpers.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// Wall-clock or OS randomness in deterministic crates.
pub const RULE_NONDETERMINISM: &str = "nondeterminism";
/// `unwrap()`/`expect()` in library code outside tests.
pub const RULE_UNWRAP: &str = "no-unwrap";
/// Missing `#![forbid(unsafe_code)]` in a crate root.
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
/// Estimation entry points not calling the runtime validators.
pub const RULE_INVARIANT: &str = "invariant-usage";
/// Vendored shim public API drifted from the checked-in lock.
pub const RULE_API_DRIFT: &str = "api-drift";
/// Direct `Instant`/`SystemTime` outside `ghosts_obs::wall`, or a
/// `WallClock` constructed inside deterministic library code.
pub const RULE_OBS_CLOCK: &str = "obs-clock";
/// Fault-injection probes outside the documented fault-site crates, or
/// fault-plan management (`install`/`clear`/`drain_fires`/plan types) in
/// library code.
pub const RULE_FAULT_SITES: &str = "fault-sites";
/// Socket types (`TcpListener`/`TcpStream`/`UdpSocket`) outside the
/// serving layer's crates.
pub const RULE_NET_IO: &str = "net-io";
/// `unwrap`/`expect`/`panic!`-family/unguarded indexing reachable from a
/// public estimation or serve entrypoint (interprocedural; see
/// [`crate::interproc`]).
pub const RULE_PANIC_PATH: &str = "panic-path";
/// Nested lock acquisition without a declared order, or a guard live
/// across a fan-out (`par_map`, `try_par_map`, `ordered_map`) or socket
/// I/O (interprocedural).
pub const RULE_LOCK_DISCIPLINE: &str = "lock-discipline";
/// Unchecked `+`/`*`/`<<` on `u32`/`u64` counting values in the
/// estimation crates.
pub const RULE_COUNTING_OVERFLOW: &str = "counting-overflow";
/// Event name emitted but missing from the `ghosts-events` registry
/// (`ghosts_obs::schema::EVENT_NAMES`), or registered but never emitted.
pub const RULE_EVENT_EXHAUSTIVENESS: &str = "event-exhaustiveness";
/// A `lint: allow(...)` comment that no longer suppresses any finding.
pub const RULE_STALE_ALLOW: &str = "stale-allow";
/// Raw file creation (`File::create`, `fs::write`, `OpenOptions`)
/// outside `ghosts_durable`'s atomic writer: a crash mid-write leaves a
/// torn file at a final path.
pub const RULE_FS_DISCIPLINE: &str = "fs-discipline";

/// Every rule id the `lint: allow(...)` escape hatch accepts. The
/// stale-allow check reports allows naming anything else as unknown.
pub const KNOWN_RULES: [&str; 16] = [
    RULE_HASH,
    RULE_FLOAT_EQ,
    RULE_NONDETERMINISM,
    RULE_UNWRAP,
    RULE_FORBID_UNSAFE,
    RULE_INVARIANT,
    RULE_API_DRIFT,
    RULE_OBS_CLOCK,
    RULE_FAULT_SITES,
    RULE_NET_IO,
    RULE_PANIC_PATH,
    RULE_LOCK_DISCIPLINE,
    RULE_COUNTING_OVERFLOW,
    RULE_EVENT_EXHAUSTIVENESS,
    RULE_STALE_ALLOW,
    RULE_FS_DISCIPLINE,
];

/// One `lint: allow(<rule>)` site, with a used-flag so the stale-allow
/// check can report suppressions that no longer suppress anything.
#[derive(Debug, Clone)]
pub struct AllowSite {
    /// Line the comment sits on (the allow covers this line and the
    /// next).
    pub line: usize,
    /// The rule id named in the comment (`sorted` maps to
    /// `hash-collections`).
    pub rule: String,
    /// Set when the allow actually suppressed a finding this run.
    pub used: Cell<bool>,
}

/// All justification comments of one file, with usage tracking.
///
/// Rules must call [`Allows::check`] only at a site that would otherwise
/// fire — a `true` return both suppresses the finding and marks the
/// allow as earning its keep.
#[derive(Debug, Clone, Default)]
pub struct Allows {
    sites: Vec<AllowSite>,
}

impl Allows {
    /// Extracts allow sites from a token stream (the `lint:` comment
    /// grammar of the module docs).
    pub fn from_tokens(tokens: &[Token]) -> Allows {
        Allows {
            sites: allow_sites(tokens),
        }
    }

    /// Rebuilds from pre-extracted `(line, rule)` pairs (the parse cache
    /// stores those; usage flags must start fresh each run).
    pub fn from_sites(sites: &[(usize, String)]) -> Allows {
        Allows {
            sites: sites
                .iter()
                .map(|(line, rule)| AllowSite {
                    line: *line,
                    rule: rule.clone(),
                    used: Cell::new(false),
                })
                .collect(),
        }
    }

    /// Whether a finding of `rule` at `line` is suppressed; marks the
    /// matching allow(s) used.
    pub fn check(&self, line: usize, rule: &str) -> bool {
        let mut hit = false;
        for site in &self.sites {
            if site.rule == rule && (site.line == line || site.line + 1 == line) {
                site.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// The sites, for the stale-allow sweep.
    pub fn sites(&self) -> &[AllowSite] {
        &self.sites
    }
}

/// Lints one tokenized file. `tokens` must come from
/// [`crate::lexer::tokenize`] on the file's full text.
pub fn lint_tokens(tokens: &[Token], class: &FileClass) -> Vec<Violation> {
    let allows = Allows::from_tokens(tokens);
    let test_lines = cfg_test_lines(tokens);
    lint_tokens_with(tokens, class, &allows, &test_lines)
}

/// Like [`lint_tokens`], but with caller-provided allow sites and test
/// regions so the workspace pipeline can reuse cached parses and carry
/// allow-usage flags through to the stale-allow sweep.
pub fn lint_tokens_with(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
) -> Vec<Violation> {
    let mut out = Vec::new();

    rule_hash_collections(tokens, class, allows, &mut out);
    rule_float_eq(tokens, class, allows, test_lines, &mut out);
    rule_nondeterminism(tokens, class, allows, &mut out);
    rule_obs_clock(tokens, class, allows, test_lines, &mut out);
    rule_no_unwrap(tokens, class, allows, test_lines, &mut out);
    rule_forbid_unsafe(tokens, class, &mut out);
    rule_invariant_usage(tokens, class, test_lines, &mut out);
    rule_fault_sites(tokens, class, allows, test_lines, &mut out);
    rule_net_io(tokens, class, allows, test_lines, &mut out);
    rule_fs_discipline(tokens, class, allows, test_lines, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lines carrying a `lint:` marker, with the rules the marker allows. The
/// marker covers its own line and the next line, so both trailing
/// comments and full-line comments above the code work.
fn allow_sites(tokens: &[Token]) -> Vec<AllowSite> {
    let mut out = Vec::new();
    for token in tokens {
        let TokenKind::Comment(text) = &token.kind else {
            continue;
        };
        // Doc comments only *describe* the directive syntax; a
        // suppression must be a plain `//` comment.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(idx) = text.find("lint:") else {
            continue;
        };
        let directive = text[idx + "lint:".len()..].trim();
        if directive.starts_with("sorted") {
            out.push(AllowSite {
                line: token.line,
                rule: RULE_HASH.to_string(),
                used: Cell::new(false),
            });
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            if let Some(end) = rest.find(')') {
                let rule = rest[..end].trim();
                // Rule ids are kebab-case; anything else (`<rule>`, `...`)
                // is prose quoting the syntax, not a suppression.
                if !rule.is_empty() && rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                    out.push(AllowSite {
                        line: token.line,
                        rule: rule.to_string(),
                        used: Cell::new(false),
                    });
                }
            }
        }
    }
    out
}

/// The set of lines inside `#[cfg(test)]` items (typically the in-file
/// `mod tests { … }` block).
pub fn cfg_test_lines(tokens: &[Token]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Parse the attribute `#[ ... ]` and check it mentions cfg + test.
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('!') {
            j += 1; // inner attribute
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        let attr_start = j + 1;
        let mut depth = 1usize;
        j += 1;
        let (mut saw_cfg, mut saw_test) = (false, false);
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => depth -= 1,
                TokenKind::Ident(s) if j >= attr_start => {
                    saw_cfg |= s == "cfg";
                    saw_test |= s == "test";
                }
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            i = j;
            continue;
        }
        // Skip any further attributes, then swallow the annotated item:
        // everything to the matching `}` of its first brace (or to `;`).
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let mut d = 1usize;
            j += 2;
            while j < tokens.len() && d > 0 {
                match tokens[j].kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let item_start_line = tokens.get(j).map_or(0, |t| t.line);
        let mut brace_depth = 0usize;
        let mut entered = false;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('{') => {
                    brace_depth += 1;
                    entered = true;
                }
                TokenKind::Punct('}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if !entered => break,
                _ => {}
            }
            j += 1;
        }
        let item_end_line = tokens.get(j).map_or(usize::MAX, |t| t.line);
        for line in item_start_line..=item_end_line {
            lines.insert(line);
        }
        i = j + 1;
    }
    lines
}

fn rule_hash_collections(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    out: &mut Vec<Violation>,
) {
    if !ESTIMATION_CRATES.contains(&class.crate_name.as_str())
        || !matches!(class.section, Section::Src | Section::Benches)
    {
        return;
    }
    for token in tokens {
        let Some(name) = token.ident() else { continue };
        if (name == "HashMap" || name == "HashSet") && !allows.check(token.line, RULE_HASH) {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: token.line,
                rule: RULE_HASH,
                message: format!(
                    "{name} in an estimation crate: iteration order is \
                     nondeterministic and can reach AIC/BIC selection — use \
                     BTreeMap/BTreeSet, or justify with `// lint: sorted`"
                ),
            });
        }
    }
}

fn rule_float_eq(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    let in_scope = (DETERMINISTIC_CRATES.contains(&class.crate_name.as_str())
        || class.crate_name == "bench")
        && matches!(class.section, Section::Src | Section::Bin)
        && !FLOAT_EQ_HELPERS.contains(&class.rel_path.as_str());
    if !in_scope {
        return;
    }
    let float_operand = |idx: usize, forward: bool| -> bool {
        // A float literal right at the operand position, optionally behind
        // a unary minus, or a `f64::`/`f32::` associated constant.
        let get = |k: usize| tokens.get(k);
        if forward {
            let mut k = idx;
            if get(k).is_some_and(|t| t.is_punct('-')) {
                k += 1;
            }
            match get(k).map(|t| &t.kind) {
                Some(TokenKind::Float) => true,
                Some(TokenKind::Ident(s)) if s == "f64" || s == "f32" => {
                    get(k + 1).is_some_and(|t| t.is_punct(':'))
                }
                _ => false,
            }
        } else {
            matches!(get(idx).map(|t| &t.kind), Some(TokenKind::Float))
        }
    };
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        let (a, b) = (&tokens[i], &tokens[i + 1]);
        let is_eq = a.is_punct('=') && b.is_punct('=');
        let is_ne = a.is_punct('!') && b.is_punct('=');
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Not a comparison: `<=`, `>=`, `+=`, `=>`, `..=` and friends.
        if is_eq
            && i > 0
            && matches!(
                tokens[i - 1].kind,
                TokenKind::Punct('<')
                    | TokenKind::Punct('>')
                    | TokenKind::Punct('!')
                    | TokenKind::Punct('=')
                    | TokenKind::Punct('+')
                    | TokenKind::Punct('-')
                    | TokenKind::Punct('*')
                    | TokenKind::Punct('/')
                    | TokenKind::Punct('%')
                    | TokenKind::Punct('&')
                    | TokenKind::Punct('|')
                    | TokenKind::Punct('^')
                    | TokenKind::Punct('.')
            )
        {
            i += 1;
            continue;
        }
        if tokens.get(i + 2).is_some_and(|t| t.is_punct('=')) {
            i += 1;
            continue;
        }
        let line = a.line;
        let float_involved = (i > 0 && float_operand(i - 1, false)) || float_operand(i + 2, true);
        if float_involved && !test_lines.contains(&line) && !allows.check(line, RULE_FLOAT_EQ) {
            out.push(Violation {
                file: class.rel_path.clone(),
                line,
                rule: RULE_FLOAT_EQ,
                message: String::from(
                    "exact float comparison: use ghosts_stats::approx \
                     (bits_eq / rel_close / is_exact_zero), or justify with \
                     `// lint: allow(float-eq) <reason>`",
                ),
            });
        }
        i += 2;
    }
}

fn rule_nondeterminism(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    out: &mut Vec<Violation>,
) {
    if !DETERMINISTIC_CRATES.contains(&class.crate_name.as_str())
        || !matches!(class.section, Section::Src)
        || class.rel_path == WALL_CLOCK_FILE
    {
        return;
    }
    for token in tokens {
        let Some(name) = token.ident() else { continue };
        if matches!(name, "SystemTime" | "Instant" | "thread_rng")
            && !allows.check(token.line, RULE_NONDETERMINISM)
        {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: token.line,
                rule: RULE_NONDETERMINISM,
                message: format!(
                    "{name} in a deterministic crate: results must be a pure \
                     function of the seed (use ghosts_stats::rng::component_rng \
                     for randomness; timing belongs in the bench harness)"
                ),
            });
        }
    }
}

/// Clock access is a capability handed out by `ghosts_obs`: raw
/// `Instant`/`SystemTime` reads are confined to [`WALL_CLOCK_FILE`] so that
/// every timestamp in the system is attributable to exactly one clock
/// (deterministic logical, or the explicitly-volatile wall clock). Unlike
/// [`rule_nondeterminism`] this also covers binaries and benches — they may
/// time things, but through `WallClock`, never by calling the OS directly.
fn rule_obs_clock(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if class.crate_name.is_empty()
        || class.crate_name.starts_with("vendor/")
        || class.rel_path == WALL_CLOCK_FILE
        || !matches!(
            class.section,
            Section::Src | Section::Bin | Section::Benches
        )
    {
        return;
    }
    // `WallClock` itself is part of the capability scheme: only binaries
    // and benches may construct one. Deterministic library code takes the
    // recorder's clock (a `Scope` or `Arc<dyn Clock>`) from its caller.
    let wall_clock_banned = DETERMINISTIC_CRATES.contains(&class.crate_name.as_str())
        && class.crate_name != "obs"
        && matches!(class.section, Section::Src);
    for token in tokens {
        let Some(name) = token.ident() else { continue };
        if test_lines.contains(&token.line) {
            continue;
        }
        // Only consult (and thereby mark) the allow at a would-be firing
        // site — otherwise unrelated allows read as used.
        let fires =
            matches!(name, "Instant" | "SystemTime") || (name == "WallClock" && wall_clock_banned);
        if !fires || allows.check(token.line, RULE_OBS_CLOCK) {
            continue;
        }
        match name {
            "Instant" | "SystemTime" => out.push(Violation {
                file: class.rel_path.clone(),
                line: token.line,
                rule: RULE_OBS_CLOCK,
                message: format!(
                    "direct {name} use: wall-clock reads go through ghosts_obs \
                     (WallClock in binaries/benches, the recorder's Clock in \
                     libraries)"
                ),
            }),
            "WallClock" if wall_clock_banned => out.push(Violation {
                file: class.rel_path.clone(),
                line: token.line,
                rule: RULE_OBS_CLOCK,
                message: String::from(
                    "WallClock in deterministic library code: accept the \
                     recorder's clock (a Scope or Arc<dyn Clock>) from the \
                     caller — only binaries and benches construct wall clocks",
                ),
            }),
            _ => {}
        }
    }
}

fn rule_no_unwrap(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if !DETERMINISTIC_CRATES.contains(&class.crate_name.as_str())
        || !matches!(class.section, Section::Src)
    {
        return;
    }
    for i in 0..tokens.len().saturating_sub(2) {
        if !tokens[i].is_punct('.') {
            continue;
        }
        let Some(name) = tokens[i + 1].ident() else {
            continue;
        };
        if (name == "unwrap" || name == "expect")
            && tokens[i + 2].is_punct('(')
            && !test_lines.contains(&tokens[i + 1].line)
            && !allows.check(tokens[i + 1].line, RULE_UNWRAP)
        {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: tokens[i + 1].line,
                rule: RULE_UNWRAP,
                message: format!(
                    "{name}() in library code: propagate a Result, or state \
                     the invariant with `// lint: allow(no-unwrap) <why it \
                     cannot fail>`"
                ),
            });
        }
    }
}

fn rule_forbid_unsafe(tokens: &[Token], class: &FileClass, out: &mut Vec<Violation>) {
    if !class.is_crate_root {
        return;
    }
    // Look for `#![forbid(unsafe_code)]` — `#` `!` `[` forbid `(`
    // unsafe_code `)` `]`, possibly with other lints in the same list.
    let mut found = false;
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].is_punct('#') && tokens[i + 1].is_punct('!') && tokens[i + 2].is_punct('[') {
            let mut j = i + 3;
            let mut depth = 1usize;
            let (mut saw_forbid, mut saw_unsafe) = (false, false);
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Ident(s) => {
                        saw_forbid |= s == "forbid" || s == "deny";
                        saw_unsafe |= s == "unsafe_code";
                    }
                    _ => {}
                }
                j += 1;
            }
            if saw_forbid && saw_unsafe {
                found = true;
                break;
            }
        }
    }
    if !found {
        out.push(Violation {
            file: class.rel_path.clone(),
            line: 1,
            rule: RULE_FORBID_UNSAFE,
            message: String::from("crate root is missing `#![forbid(unsafe_code)]`"),
        });
    }
}

fn rule_invariant_usage(
    tokens: &[Token],
    class: &FileClass,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if !INVARIANT_CALLERS.contains(&class.rel_path.as_str()) {
        return;
    }
    let called = tokens.windows(3).any(|w| {
        w[0].ident() == Some("invariant")
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && !test_lines.contains(&w[0].line)
    });
    if !called {
        out.push(Violation {
            file: class.rel_path.clone(),
            line: 1,
            rule: RULE_INVARIANT,
            message: String::from(
                "estimation entry point never calls the runtime validators \
                 (ghosts_core::invariant::check_*)",
            ),
        });
    }
}

/// Every mention of `ghosts_faultinject::<item>` (paths and `use` lists)
/// is classified as either plan management ([`FAULT_PLAN_IDENTS`]) or a
/// probe. Management is reserved for binaries/benches; probes may appear
/// only in the [`FAULT_SITE_CRATES`]. Tests are exempt — they serialise
/// plan installs behind a lock.
fn rule_fault_sites(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if class.crate_name == "faultinject"
        || class.crate_name.starts_with("vendor/")
        || !matches!(
            class.section,
            Section::Src | Section::Bin | Section::Benches
        )
    {
        return;
    }
    let mut flag = |line: usize, item: &str| {
        if test_lines.contains(&line) {
            return;
        }
        // Classify first; the allow is consulted (and marked used) only
        // when a finding would actually fire.
        if FAULT_PLAN_IDENTS.contains(&item) {
            if matches!(class.section, Section::Src) {
                if allows.check(line, RULE_FAULT_SITES) {
                    return;
                }
                out.push(Violation {
                    file: class.rel_path.clone(),
                    line,
                    rule: RULE_FAULT_SITES,
                    message: format!(
                        "ghosts_faultinject::{item} in library code: fault \
                         plans are installed and drained only by binaries, \
                         benches and tests"
                    ),
                });
            }
        } else if !FAULT_SITE_CRATES.contains(&class.crate_name.as_str()) {
            if allows.check(line, RULE_FAULT_SITES) {
                return;
            }
            out.push(Violation {
                file: class.rel_path.clone(),
                line,
                rule: RULE_FAULT_SITES,
                message: format!(
                    "ghosts_faultinject::{item} outside the documented \
                     fault-site crates ({}): declare new fault points there \
                     and record them in DESIGN.md §11",
                    FAULT_SITE_CRATES.join(", ")
                ),
            });
        }
    };
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].ident() != Some("ghosts_faultinject")
            || !tokens[i + 1].is_punct(':')
            || !tokens[i + 2].is_punct(':')
        {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
            // `use ghosts_faultinject::{a, b, …};` — classify each name.
            let mut depth = 1usize;
            j += 1;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => depth -= 1,
                    TokenKind::Ident(name) => flag(tokens[j].line, name),
                    _ => {}
                }
                j += 1;
            }
        } else if let Some(name) = tokens.get(j).and_then(|t| t.ident()) {
            flag(tokens[j].line, name);
            j += 1;
        }
        i = j;
    }
}

/// Socket I/O is a capability of the serving layer: any mention of the
/// `std::net` socket types outside [`NET_IO_CRATES`] means estimation
/// code has grown a network dependency. Tests and benches are exempt —
/// they spin up loopback servers — as are vendored shims and
/// workspace-root files.
fn rule_net_io(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if class.crate_name.is_empty()
        || class.crate_name.starts_with("vendor/")
        || NET_IO_CRATES.contains(&class.crate_name.as_str())
        || !matches!(class.section, Section::Src | Section::Bin)
    {
        return;
    }
    for token in tokens {
        let Some(name) = token.ident() else { continue };
        if matches!(name, "TcpListener" | "TcpStream" | "UdpSocket")
            && !test_lines.contains(&token.line)
            && !allows.check(token.line, RULE_NET_IO)
        {
            out.push(Violation {
                file: class.rel_path.clone(),
                line: token.line,
                rule: RULE_NET_IO,
                message: format!(
                    "{name} outside the serving layer (crates: {}): \
                     estimation code stays pure over in-memory tables — \
                     route socket I/O through ghosts-serve, or justify with \
                     `// lint: allow(net-io) <reason>`",
                    NET_IO_CRATES.join(", ")
                ),
            });
        }
    }
}

/// Crash-safe file writes: raw `File::create`/`File::create_new`/
/// `fs::write`/`OpenOptions` in library or binary code outside
/// [`FS_DISCIPLINE_CRATE`] mean a kill at the wrong instant leaves a torn
/// file at its final path. Durable artifacts go through
/// `ghosts_durable::atomic_write`; reads (`File::open`, `fs::read*`) are
/// untouched. Tests and benches plant corrupt fixtures on purpose and are
/// exempt, as are vendored shims and workspace-root files.
fn rule_fs_discipline(
    tokens: &[Token],
    class: &FileClass,
    allows: &Allows,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    if class.crate_name == FS_DISCIPLINE_CRATE
        || class.crate_name.is_empty()
        || class.crate_name.starts_with("vendor/")
        || !matches!(class.section, Section::Src | Section::Bin)
    {
        return;
    }
    let mut flag = |line: usize, what: &str| {
        if test_lines.contains(&line) || allows.check(line, RULE_FS_DISCIPLINE) {
            return;
        }
        out.push(Violation {
            file: class.rel_path.clone(),
            line,
            rule: RULE_FS_DISCIPLINE,
            message: format!(
                "{what} outside ghosts_durable: a crash mid-write leaves a \
                 torn file at its final path — write through \
                 ghosts_durable::atomic_write (temp + fsync + rename), or \
                 justify with `// lint: allow(fs-discipline) <reason>`"
            ),
        });
    };
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(name) = tokens[i].ident() else {
            i += 1;
            continue;
        };
        if name == "OpenOptions" {
            flag(tokens[i].line, "OpenOptions");
        } else if (name == "File" || name == "fs")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(method) = tokens.get(i + 3).and_then(|t| t.ident()) {
                match (name, method) {
                    ("File", "create") | ("File", "create_new") | ("fs", "write") => {
                        flag(tokens[i + 3].line, &format!("{name}::{method}"));
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn class(crate_name: &str, section: Section, rel: &str) -> FileClass {
        FileClass {
            crate_name: crate_name.into(),
            section,
            rel_path: rel.into(),
            is_crate_root: false,
        }
    }

    fn lint(src: &str, c: &FileClass) -> Vec<Violation> {
        lint_tokens(&tokenize(src), c)
    }

    #[test]
    fn cfg_test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines = cfg_test_lines(&tokenize(src));
        assert!(lines.contains(&3) && lines.contains(&4) && lines.contains(&5));
        assert!(!lines.contains(&1) && !lines.contains(&6));
    }

    #[test]
    fn escape_hatch_applies_to_own_and_next_line() {
        let c = class("core", Section::Src, "crates/core/src/x.rs");
        let trailing = "use std::collections::HashMap; // lint: sorted\n";
        assert!(lint(trailing, &c).is_empty());
        let above = "// lint: sorted probe-only\nuse std::collections::HashMap;\n";
        assert!(lint(above, &c).is_empty());
        let missing = "use std::collections::HashMap;\n";
        assert_eq!(lint(missing, &c).len(), 1);
    }

    #[test]
    fn float_eq_ignores_compound_operators_and_ints() {
        let c = class("core", Section::Src, "crates/core/src/x.rs");
        for ok in [
            "fn f(x: f64) -> bool { x <= 1.0 }",
            "fn f(x: f64) -> f64 { let mut y = 0.0; y += 1.0; y }",
            "fn f(x: usize) -> bool { x == 1 }",
            "fn f(x: f64) -> f64 { if x > 2.0 { x } else { 2.0 } }",
        ] {
            assert!(lint(ok, &c).is_empty(), "false positive on: {ok}");
        }
        for bad in [
            "fn f(x: f64) -> bool { x == 1.0 }",
            "fn f(x: f64) -> bool { 0.5 != x }",
            "fn f(x: f64) -> bool { x == -1.0 }",
            "fn f(x: f64) -> bool { x == f64::INFINITY }",
        ] {
            let v = lint(bad, &c);
            assert_eq!(v.len(), 1, "missed: {bad}");
            assert_eq!(v[0].rule, RULE_FLOAT_EQ);
        }
    }

    #[test]
    fn unwrap_rule_spares_tests_and_unwrap_or() {
        let c = class("net", Section::Src, "crates/net/src/x.rs");
        let src = "\
fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }
fn g(x: Option<u32>) -> u32 { x.unwrap() }
#[cfg(test)]
mod tests {
    fn h(x: Option<u32>) -> u32 { x.unwrap() }
}
";
        let v = lint(src, &c);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].rule), (2, RULE_UNWRAP));
    }

    #[test]
    fn nondeterminism_only_in_deterministic_crates() {
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        // Deterministic library source: both the nondeterminism rule and
        // the clock-capability rule object.
        let in_sim = class("sim", Section::Src, "crates/sim/src/x.rs");
        let rules: Vec<&str> = lint(src, &in_sim).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![RULE_NONDETERMINISM, RULE_OBS_CLOCK]);
        // The bench harness may time things — but through WallClock, not
        // by calling the OS clock directly.
        let in_bench = class("bench", Section::Bin, "crates/bench/src/bin/repro.rs");
        let rules: Vec<&str> = lint(src, &in_bench).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![RULE_OBS_CLOCK]);
        let wall = "fn t(w: &WallClock) -> u64 { w.now() }";
        assert!(lint(wall, &in_bench).is_empty());
    }

    #[test]
    fn obs_clock_spares_the_wall_module_and_bans_wallclock_in_libs() {
        // The one sanctioned Instant site.
        let src = "fn t() { let _ = std::time::Instant::now(); }";
        let in_wall = class("obs", Section::Src, "crates/obs/src/wall.rs");
        assert!(lint(src, &in_wall).is_empty());
        // Elsewhere in the obs crate it is still banned.
        let in_obs = class("obs", Section::Src, "crates/obs/src/clock.rs");
        assert!(!lint(src, &in_obs).is_empty());
        // WallClock is a binary/bench capability, not a library one…
        let wall = "fn t(w: &WallClock) -> u64 { w.now() }";
        let in_core = class("core", Section::Src, "crates/core/src/x.rs");
        let rules: Vec<&str> = lint(wall, &in_core).iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![RULE_OBS_CLOCK]);
        // …except in the obs crate itself, which defines and re-exports it.
        let in_obs_lib = class("obs", Section::Src, "crates/obs/src/lib.rs");
        assert!(lint(wall, &in_obs_lib).is_empty());
        // Vendored shims and tests are out of scope.
        let in_vendor = class(
            "vendor/criterion",
            Section::Src,
            "vendor/criterion/src/lib.rs",
        );
        assert!(lint(src, &in_vendor).is_empty());
        let in_tests = class("core", Section::Tests, "crates/core/tests/x.rs");
        assert!(lint(src, &in_tests).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let mut c = class("net", Section::Src, "crates/net/src/lib.rs");
        c.is_crate_root = true;
        assert_eq!(lint("pub fn f() {}", &c).len(), 1);
        assert!(lint("#![forbid(unsafe_code)]\npub fn f() {}", &c).is_empty());
        let inner = class("net", Section::Src, "crates/net/src/other.rs");
        assert!(lint("pub fn f() {}", &inner).is_empty());
    }

    #[test]
    fn invariant_usage_required_in_entry_points() {
        let c = class("core", Section::Src, "crates/core/src/fit.rs");
        let bad = "pub fn fit_llm() {}";
        let v = lint(bad, &c);
        assert!(v.iter().any(|v| v.rule == RULE_INVARIANT));
        let good = "use crate::invariant;\npub fn fit_llm(t: &T) { invariant::check_table(t); }";
        assert!(lint(good, &c).iter().all(|v| v.rule != RULE_INVARIANT));
    }

    #[test]
    fn fault_probes_confined_to_site_crates() {
        let probe = "fn f() { let _ = ghosts_faultinject::fire(\"x.y\"); }";
        let in_core = class("core", Section::Src, "crates/core/src/x.rs");
        assert!(lint(probe, &in_core).is_empty());
        let in_net = class("net", Section::Src, "crates/net/src/x.rs");
        let v = lint(probe, &in_net);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_FAULT_SITES);
    }

    #[test]
    fn fault_plan_management_confined_to_binaries_and_tests() {
        let src = "fn f() { ghosts_faultinject::clear(); }";
        let in_core = class("core", Section::Src, "crates/core/src/x.rs");
        assert_eq!(lint(src, &in_core).len(), 1);
        let in_bin = class("bench", Section::Bin, "crates/bench/src/bin/repro.rs");
        assert!(lint(src, &in_bin).is_empty());
        // Inside #[cfg(test)] even library files may manage plans.
        let test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(lint(&test_mod, &in_core).is_empty());
    }

    #[test]
    fn net_io_confined_to_the_serving_layer() {
        let src = "fn f() { let _ = std::net::TcpStream::connect(\"x\"); }";
        // The serving layer owns sockets.
        let in_serve = class("serve", Section::Src, "crates/serve/src/server.rs");
        assert!(lint(src, &in_serve).is_empty());
        // Everywhere else, library and binary code must not open sockets…
        let in_core = class("core", Section::Src, "crates/core/src/x.rs");
        let v = lint(src, &in_core);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_NET_IO);
        let in_bin = class("bench", Section::Bin, "crates/bench/src/bin/repro.rs");
        assert_eq!(lint(src, &in_bin).len(), 1);
        // …but tests drive loopback servers freely.
        let in_tests = class("core", Section::Tests, "crates/core/tests/x.rs");
        assert!(lint(src, &in_tests).is_empty());
        // And the escape hatch works as everywhere else.
        let allowed = format!("// lint: allow(net-io) diagnostics only\n{src}");
        assert!(lint(&allowed, &in_core).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let c = class("core", Section::Src, "crates/core/src/x.rs");
        let src = r#"
/// Docs may say HashMap and x == 1.0 freely.
fn f() -> &'static str { "HashMap .unwrap() == 1.0 Instant" }
"#;
        assert!(lint(src, &c).is_empty());
    }
}
