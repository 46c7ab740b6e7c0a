//! The rule set: each rule encodes one workspace invariant from
//! `DESIGN.md` §5e, scoped to the paths where the invariant applies.

use crate::lexer::{is_ident, SourceLine};
use crate::passes;
use crate::syntax::{FileIndex, TokenKind};

/// How bad a finding is. Both severities fail the CI gate when not
/// baselined; the tier feeds reports and the SARIF `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Should-fix: the invariant violation is not locally provable but
    /// may be sound; type the code so the pass can see it, or allow.
    Warning,
    /// Must-fix: a proven invariant violation.
    Error,
}

impl Severity {
    /// Lowercase name, as used in reports, SARIF, and baselines.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A finding produced by a rule (before suppression filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, matches the `lint: allow(...)` argument).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Severity tier.
    pub severity: Severity,
    /// Stable content fingerprint (filled in by the engine after
    /// suppression filtering; empty inside rule checks).
    pub fingerprint: String,
}

/// A classified source file handed to rule checks.
pub struct SourceFile<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Lexed lines (see [`crate::lexer::classify`]).
    pub lines: &'a [SourceLine],
    /// The brace-matched syntax index (see [`crate::syntax::index`]).
    pub syntax: &'a FileIndex,
}

/// One static-analysis rule.
pub struct Rule {
    /// Kebab-case name used in reports and `lint: allow(...)`.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Path prefixes (or exact `.rs` paths) the rule applies to; empty
    /// means the whole scanned tree.
    pub scopes: &'static [&'static str],
    /// Exact paths fully exempt from the rule (audited allowlist).
    pub allow_files: &'static [&'static str],
    /// The severity the rule reports at (the float pass downgrades
    /// locally-unprovable sites to [`Severity::Warning`] per finding).
    pub severity: Severity,
    check: fn(&SourceFile<'_>, &mut Vec<Finding>),
}

impl Rule {
    /// Does the rule apply to `path`?
    #[must_use]
    pub fn in_scope(&self, path: &str) -> bool {
        if self.allow_files.contains(&path) {
            return false;
        }
        self.scopes.is_empty()
            || self
                .scopes
                .iter()
                .any(|s| if s.ends_with(".rs") { path == *s } else { path.starts_with(s) })
    }

    /// Runs the rule over `file`, appending findings.
    pub fn check(&self, file: &SourceFile<'_>, out: &mut Vec<Finding>) {
        (self.check)(file, out);
    }
}

/// The directories whose code decides verdicts, bounds, or certificates:
/// anything here must be a pure function of (problem, scale, seed).
const ENGINE_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/bound/src/",
    "crates/check/src/",
    "crates/lp/src/",
    "crates/nn/src/",
    "crates/tensor/src/",
    "crates/serve/src/",
];

/// Paths that build or persist reports, certificates, or stats: their
/// iteration order leaks into emitted bytes, so it must be total.
const ORDERED_OUTPUT_PATHS: &[&str] = &[
    "crates/bench/src/",
    "crates/core/src/certificate.rs",
    "crates/core/src/driver.rs",
    "crates/check/src/",
    "crates/serve/src/",
];

/// Files audited to contain the workspace's only `unsafe` blocks.
const UNSAFE_ALLOWLIST: &[&str] = &["crates/core/src/pool.rs"];

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// open (generous enough for a thorough multi-line argument).
const SAFETY_WINDOW: usize = 16;

/// The full rule set, in the order findings are reported.
#[must_use]
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "wall-clock-in-engine",
            summary: "Instant::now/SystemTime forbidden in verdict-path crates: \
                      verdicts and stats must be a pure function of (scale, seed)",
            scopes: ENGINE_SRC,
            allow_files: &[],
            severity: Severity::Error,
            check: check_wall_clock,
        },
        Rule {
            name: "unordered-iteration",
            summary: "HashMap/HashSet forbidden in report/certificate/stats paths: \
                      randomized iteration order leaks into persisted bytes",
            scopes: ORDERED_OUTPUT_PATHS,
            allow_files: &[],
            severity: Severity::Error,
            check: check_unordered_iteration,
        },
        Rule {
            name: "unsafe-outside-allowlist",
            summary: "unsafe only in allowlisted files, and always under a // SAFETY: comment",
            scopes: &[],
            allow_files: &[],
            severity: Severity::Error,
            check: check_unsafe,
        },
        Rule {
            name: "relaxed-atomics",
            summary: "Ordering::Relaxed only on justified monotonic counters",
            scopes: &["crates/"],
            allow_files: &[],
            severity: Severity::Error,
            check: check_relaxed_atomics,
        },
        Rule {
            name: "persisted-wall-field",
            summary: "time-like fields of serde-derived structs must be #[serde(skip)]",
            scopes: &[],
            allow_files: &[],
            severity: Severity::Error,
            check: check_persisted_wall_field,
        },
        Rule {
            name: "nondeterministic-api",
            summary: "OS-entropy RNGs and machine-topology APIs forbidden in verdict paths",
            scopes: ENGINE_SRC,
            allow_files: &[],
            severity: Severity::Error,
            check: check_nondeterministic_api,
        },
        Rule {
            name: "panic-path",
            summary: "no unwrap/expect/panicking macros/direct indexing in wire-facing \
                      code: daemons return structured errors, they do not unwind",
            scopes: passes::PANIC_PATH_SCOPE,
            allow_files: &[],
            severity: Severity::Error,
            check: passes::check_panic_path,
        },
        Rule {
            name: "lock-discipline",
            summary: "a Mutex/RwLock guard must not be live across blocking I/O, \
                      waits, or pool fan-out: render under the lock, then block",
            scopes: &["crates/"],
            allow_files: &[],
            severity: Severity::Error,
            check: passes::check_lock_discipline,
        },
        Rule {
            name: "float-reduction-order",
            summary: "f32/f64 sum/product/fold need a totally ordered source: \
                      float addition is not associative, bytes must not drift",
            scopes: passes::FLOAT_ORDER_SCOPE,
            allow_files: &[],
            severity: Severity::Error,
            check: passes::check_float_reduction_order,
        },
        Rule {
            name: "global-mutable-state",
            summary: "no process-wide mutable statics in engine crates: a concurrent \
                      daemon must never share a switch or cache between queries",
            scopes: ENGINE_SRC,
            allow_files: &[],
            severity: Severity::Error,
            check: check_global_mutable_state,
        },
    ]
}

/// The meta-rule name for malformed or unknown `lint: allow(...)` markers
/// (emitted by the engine, not by a check function).
pub const SUPPRESSION_SYNTAX: &str = "suppression-syntax";

/// Finds `needle` in `code` at identifier boundaries (the chars adjacent
/// to the match must not be identifier chars). `needle` may itself span
/// `::`, e.g. `Instant::now`.
#[must_use]
pub fn has_token(code: &str, needle: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let pat: Vec<char> = needle.chars().collect();
    if pat.is_empty() || chars.len() < pat.len() {
        return false;
    }
    for start in 0..=(chars.len() - pat.len()) {
        if chars[start..start + pat.len()] != pat[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(chars[start - 1]);
        let end = start + pat.len();
        let after_ok = end >= chars.len() || !is_ident(chars[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

fn token_rule(
    file: &SourceFile<'_>,
    out: &mut Vec<Finding>,
    rule: &'static str,
    needles: &[&str],
    why: &str,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        for needle in needles {
            if has_token(&line.code, needle) {
                out.push(Finding {
                    rule: rule.to_string(),
                    path: file.path.to_string(),
                    line: idx + 1,
                    message: format!("`{needle}` {why}"),
                    severity: Severity::Error,
                    fingerprint: String::new(),
                });
            }
        }
    }
}

fn check_wall_clock(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    token_rule(
        file,
        out,
        "wall-clock-in-engine",
        &["Instant::now", "SystemTime"],
        "reads the wall clock inside an engine crate; verdicts, stats, and \
         certificates must be a pure function of (scale, seed)",
    );
}

fn check_unordered_iteration(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    token_rule(
        file,
        out,
        "unordered-iteration",
        &["HashMap", "HashSet"],
        "iterates in randomized per-process order; use BTreeMap/BTreeSet (or a \
         sorted drain) so report/certificate/stats bytes are reproducible",
    );
}

fn check_unsafe(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST.contains(&file.path);
    for (idx, line) in file.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if !allowlisted {
            out.push(Finding {
                rule: "unsafe-outside-allowlist".to_string(),
                path: file.path.to_string(),
                line: idx + 1,
                message: "`unsafe` outside the audited allowlist (crates/core/src/pool.rs); \
                          move the code there or extend the allowlist with an audit"
                    .to_string(),
                severity: Severity::Error,
                fingerprint: String::new(),
            });
            continue;
        }
        let safety_nearby = file.lines[idx.saturating_sub(SAFETY_WINDOW)..=idx]
            .iter()
            .any(|l| l.comment.contains("SAFETY:"));
        if !safety_nearby {
            out.push(Finding {
                rule: "unsafe-outside-allowlist".to_string(),
                path: file.path.to_string(),
                line: idx + 1,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment in the preceding \
                     {SAFETY_WINDOW} lines stating the invariant that makes it sound"
                ),
                severity: Severity::Error,
                fingerprint: String::new(),
            });
        }
    }
}

fn check_relaxed_atomics(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    token_rule(
        file,
        out,
        "relaxed-atomics",
        &["Ordering::Relaxed"],
        "permits unsynchronised reordering; only monotonic counters whose value \
         never gates a verdict may use it, under a justifying `lint: allow`",
    );
}

fn check_nondeterministic_api(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    token_rule(
        file,
        out,
        "nondeterministic-api",
        &[
            "available_parallelism",
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
        ],
        "injects machine state (OS entropy or CPU topology) into a verdict path; \
         seed every RNG from the run seed and take lane counts as parameters",
    );
}

/// Field names that smell like wall-clock measurements.
fn time_like(name: &str) -> bool {
    name.starts_with("wall")
        || name.starts_with("elapsed")
        || name.ends_with("_secs")
        || name.ends_with("_ms")
        || name.ends_with("_millis")
        || name.ends_with("_micros")
        || name.ends_with("_nanos")
}

/// Extracts `name` from a struct-field line like `pub wall_secs: f64,`.
fn field_name(code: &str) -> Option<&str> {
    let mut rest = code.trim_start();
    if let Some(r) = rest.strip_prefix("pub") {
        // `pub`, `pub(crate)`, `pub(super)`, ... — but not `publish_at`.
        if !r.starts_with(|c: char| is_ident(c)) {
            rest = r.trim_start();
            if let Some(close) =
                rest.strip_prefix('(').and_then(|r| r.find(')').map(|i| &r[i + 1..]))
            {
                rest = close.trim_start();
            }
        }
    }
    let end = rest.find(|c: char| !is_ident(c))?;
    let name = &rest[..end];
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    rest[end..].trim_start().starts_with(':').then_some(name)
}

/// State machine for `persisted-wall-field`: find `#[derive(.. Serialize ..)]`
/// structs and require `#[serde(skip)]` on every time-like named field.
fn check_persisted_wall_field(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let mut derive_serialize = false;
    let mut in_struct = false;
    let mut depth = 0isize;
    let mut field_attrs = String::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = line.code.trim();
        if !in_struct {
            if code.starts_with("#[") && code.contains("derive") && has_token(code, "Serialize") {
                derive_serialize = true;
                continue;
            }
            if derive_serialize && has_token(code, "struct") {
                if code.contains(';') && !code.contains('{') {
                    // Unit or tuple struct: no named fields to check.
                    derive_serialize = false;
                    continue;
                }
                in_struct = true;
                derive_serialize = false;
                depth = brace_delta(code);
                field_attrs.clear();
                continue;
            }
            if !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#![") {
                // The derive applied to an enum/union or something else.
                derive_serialize = false;
            }
            continue;
        }
        // Inside a serde struct body.
        if depth == 0 {
            // `struct Foo {` spilled the `{` to a later line.
            depth += brace_delta(code);
            continue;
        }
        if depth == 1 {
            if code.starts_with("#[") {
                field_attrs.push_str(code);
                depth += brace_delta(code);
                continue;
            }
            if let Some(name) = field_name(code) {
                let skipped = field_attrs.contains("serde") && field_attrs.contains("skip");
                if time_like(name) && !skipped {
                    out.push(Finding {
                        rule: "persisted-wall-field".to_string(),
                        path: file.path.to_string(),
                        line: idx + 1,
                        message: format!(
                            "serde-derived struct persists time-like field `{name}`; mark it \
                             `#[serde(skip)]` so artefacts stay machine- and load-independent"
                        ),
                        severity: Severity::Error,
                        fingerprint: String::new(),
                    });
                }
            }
            if !code.is_empty() {
                field_attrs.clear();
            }
        }
        depth += brace_delta(code);
        if depth <= 0 {
            in_struct = false;
        }
    }
}

/// Net brace nesting change of a code line.
fn brace_delta(code: &str) -> isize {
    let mut d = 0;
    for c in code.chars() {
        if c == '{' {
            d += 1;
        } else if c == '}' {
            d -= 1;
        }
    }
    d
}

/// Type names that make a `static` process-wide mutable state: the
/// `Atomic*` family is matched by prefix.
const INTERIOR_MUTABLE: &[&str] = &[
    "Mutex", "RwLock", "Cell", "RefCell", "OnceLock", "OnceCell", "LazyLock",
];

/// Flags `static` items whose type is interior-mutable. Statics inside a
/// `thread_local! { .. }` block (per-thread, never shared) and in test
/// code are exempt.
fn check_global_mutable_state(file: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let idx = file.syntax;
    let toks = &idx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("static") || idx.in_test(i) || in_thread_local(idx, i) {
            continue;
        }
        // `static [mut] NAME: TYPE = ..;` — the type runs from the colon
        // to the `=` (or `;`).
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        let ty = toks[j + 2..]
            .iter()
            .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
            .find(|t| {
                t.kind == TokenKind::Ident
                    && (t.text.starts_with("Atomic") || INTERIOR_MUTABLE.contains(&t.text.as_str()))
            });
        if let Some(ty) = ty {
            out.push(Finding {
                rule: "global-mutable-state".to_string(),
                path: file.path.to_string(),
                line: t.line,
                message: format!(
                    "`static {}` holds process-wide mutable state (`{}`); pass it as a \
                     parameter or a per-instance field so concurrent queries cannot \
                     observe each other",
                    name.text, ty.text
                ),
                severity: Severity::Error,
                fingerprint: String::new(),
            });
        }
    }
}

/// Is token `i` inside a `thread_local! { .. }` invocation?
fn in_thread_local(idx: &FileIndex, i: usize) -> bool {
    let mut block = Some(idx.innermost_block(i));
    while let Some(b) = block {
        let open = idx.blocks[b].open;
        if open >= 2
            && idx.tokens[open].is_punct('{')
            && idx.tokens[open - 1].is_punct('!')
            && idx.tokens[open - 2].is_ident("thread_local")
        {
            return true;
        }
        block = idx.blocks[b].parent;
    }
    false
}
