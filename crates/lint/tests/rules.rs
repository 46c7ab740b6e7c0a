//! Per-rule fixtures: every shipped rule has a violating snippet that
//! produces an exact finding count, a clean variant that passes, and a
//! suppressed variant (`// lint: allow(<rule>, <reason>)`) that passes
//! with the suppression recorded.

use abonn_lint::lint_source;

/// Asserts `src` at `path` yields exactly the findings named in `rules`
/// (in line order) and no suppressions.
fn expect_findings(path: &str, src: &str, rules: &[&str]) {
    let out = lint_source(path, src);
    let got: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(got, rules, "findings for {path}:\n{src}\n{:#?}", out.findings);
}

/// Asserts `src` at `path` is fully clean (no findings, no suppressions).
fn expect_clean(path: &str, src: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty() && out.suppressed.is_empty(),
        "expected clean for {path}:\n{src}\n{:#?}\n{:#?}",
        out.findings,
        out.suppressed
    );
}

/// Asserts `src` at `path` has zero active findings and exactly one
/// suppression of `rule`.
fn expect_suppressed(path: &str, src: &str, rule: &str) {
    let out = lint_source(path, src);
    assert!(
        out.findings.is_empty(),
        "suppression failed for {path}:\n{src}\n{:#?}",
        out.findings
    );
    assert_eq!(out.suppressed.len(), 1, "{:#?}", out.suppressed);
    assert_eq!(out.suppressed[0].rule, rule);
    assert!(!out.suppressed[0].reason.is_empty());
}

// ---------------------------------------------------------------- rule 1

#[test]
fn wall_clock_violating() {
    expect_findings(
        "crates/bound/src/x.rs",
        "let t = Instant::now();\nlet s = SystemTime::now();\n",
        &["wall-clock-in-engine", "wall-clock-in-engine"],
    );
}

#[test]
fn wall_clock_clean_and_out_of_scope() {
    // Duration math is fine; only clock *reads* are flagged.
    expect_clean("crates/bound/src/x.rs", "let d = Duration::from_secs(1);\n");
    // Examples and the umbrella crate are outside the engine scope.
    expect_clean("examples/demo.rs", "let t = Instant::now();\n");
}

#[test]
fn wall_clock_in_comment_or_string_is_ignored() {
    expect_clean(
        "crates/bound/src/x.rs",
        "// Instant::now would be wrong here\nlet s = \"Instant::now\";\n",
    );
}

#[test]
fn wall_clock_suppressed() {
    expect_suppressed(
        "crates/bound/src/x.rs",
        "// lint: allow(wall-clock-in-engine, fixture: proven not to reach any persisted byte)\n\
         let t = Instant::now();\n",
        "wall-clock-in-engine",
    );
}

// ---------------------------------------------------------------- rule 2

#[test]
fn unordered_iteration_violating() {
    // One finding per line per collection type (the line is the unit of
    // repair, so repeated mentions on a line collapse to one finding).
    expect_findings(
        "crates/bench/src/report.rs",
        "use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();\n",
        &["unordered-iteration", "unordered-iteration"],
    );
}

#[test]
fn unordered_iteration_clean_and_out_of_scope() {
    expect_clean(
        "crates/bench/src/report.rs",
        "use std::collections::BTreeMap;\nlet m: BTreeMap<u32, u32> = BTreeMap::new();\n",
    );
    // HashMap is fine off the report/certificate/stats paths.
    expect_clean("crates/nn/src/train.rs", "use std::collections::HashMap;\n");
}

#[test]
fn unordered_iteration_suppressed() {
    expect_suppressed(
        "crates/check/src/x.rs",
        "let m = HashMap::new(); // lint: allow(unordered-iteration, fixture: drained through a sorted Vec before emission)\n",
        "unordered-iteration",
    );
}

// ---------------------------------------------------------------- rule 3

#[test]
fn unsafe_outside_allowlist_violating() {
    expect_findings(
        "crates/nn/src/x.rs",
        "let v = unsafe { danger() };\n",
        &["unsafe-outside-allowlist"],
    );
}

#[test]
fn unsafe_in_allowlisted_file_needs_safety_comment() {
    expect_findings(
        "crates/core/src/pool.rs",
        "let v = unsafe { transmute(x) };\n",
        &["unsafe-outside-allowlist"],
    );
    expect_clean(
        "crates/core/src/pool.rs",
        "// SAFETY: the value is settled before the borrow can dangle.\n\
         let v = unsafe { transmute(x) };\n",
    );
}

#[test]
fn forbid_unsafe_code_attribute_is_not_a_finding() {
    expect_clean("crates/nn/src/lib.rs", "#![forbid(unsafe_code)]\n");
}

#[test]
fn unsafe_suppressed() {
    expect_suppressed(
        "crates/nn/src/x.rs",
        "// lint: allow(unsafe-outside-allowlist, fixture: audited one-off)\n\
         let v = unsafe { danger() };\n",
        "unsafe-outside-allowlist",
    );
}

// ---------------------------------------------------------------- rule 4

#[test]
fn relaxed_atomics_violating() {
    expect_findings(
        "crates/core/src/x.rs",
        "counter.fetch_add(1, Ordering::Relaxed);\n",
        &["relaxed-atomics"],
    );
}

#[test]
fn relaxed_atomics_clean() {
    expect_clean(
        "crates/core/src/x.rs",
        "counter.fetch_add(1, Ordering::SeqCst);\nflag.store(true, Ordering::Release);\n",
    );
}

#[test]
fn relaxed_atomics_suppressed() {
    expect_suppressed(
        "crates/core/src/x.rs",
        "n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomics, fixture: monotonic counter never gating a verdict)\n",
        "relaxed-atomics",
    );
}

// ---------------------------------------------------------------- rule 5

#[test]
fn persisted_wall_field_violating() {
    expect_findings(
        "crates/bench/src/x.rs",
        "#[derive(Debug, Serialize, Deserialize)]\n\
         pub struct Record {\n\
             pub verdict: String,\n\
             pub wall_secs: f64,\n\
             pub setup_ms: u64,\n\
         }\n",
        &["persisted-wall-field", "persisted-wall-field"],
    );
}

#[test]
fn persisted_wall_field_clean_with_skip() {
    expect_clean(
        "crates/bench/src/x.rs",
        "#[derive(Debug, Serialize, Deserialize)]\n\
         pub struct Record {\n\
             pub verdict: String,\n\
             #[serde(skip)]\n\
             pub wall_secs: f64,\n\
         }\n",
    );
}

#[test]
fn persisted_wall_field_ignores_non_serde_structs_and_locals() {
    // No Serialize derive: wall fields may live in memory freely.
    expect_clean(
        "crates/core/src/x.rs",
        "#[derive(Debug, Clone)]\npub struct Stats {\n    pub wall_secs: f64,\n}\n",
    );
    // Struct-literal initializers are not definitions.
    expect_clean(
        "crates/bench/src/x.rs",
        "let r = Record {\n    wall_secs: 0.25,\n};\n",
    );
    // Serde enums have no named fields to audit.
    expect_clean(
        "crates/bench/src/x.rs",
        "#[derive(Serialize)]\npub enum Kind {\n    Fast,\n    Slow,\n}\n",
    );
}

#[test]
fn persisted_wall_field_suppressed() {
    expect_suppressed(
        "crates/bench/src/x.rs",
        "#[derive(Serialize)]\n\
         pub struct Record {\n\
             // lint: allow(persisted-wall-field, fixture: this artefact is explicitly a timing log)\n\
             pub wall_secs: f64,\n\
         }\n",
        "persisted-wall-field",
    );
}

// ---------------------------------------------------------------- rule 6

#[test]
fn nondeterministic_api_violating() {
    expect_findings(
        "crates/core/src/x.rs",
        "let n = std::thread::available_parallelism();\nlet rng = thread_rng();\n",
        &["nondeterministic-api", "nondeterministic-api"],
    );
}

#[test]
fn nondeterministic_api_clean_and_out_of_scope() {
    expect_clean(
        "crates/core/src/x.rs",
        "let rng = SmallRng::seed_from_u64(seed);\n",
    );
    // The bench harness may size pools from the machine; scope is the
    // engine crates whose outputs must be machine-independent.
    expect_clean(
        "crates/bench/tests/x.rs",
        "let n = std::thread::available_parallelism();\n",
    );
    // `with_available_parallelism` is its own identifier, not a call of
    // the std API: boundary-aware matching must not fire.
    expect_clean(
        "crates/core/src/x.rs",
        "let p = WorkerPool::with_available_parallelism2();\n",
    );
}

#[test]
fn nondeterministic_api_suppressed() {
    expect_suppressed(
        "crates/core/src/x.rs",
        "// lint: allow(nondeterministic-api, fixture: sizes a pool; outputs proven lane-invariant)\n\
         let n = std::thread::available_parallelism();\n",
        "nondeterministic-api",
    );
}

// ------------------------------------------------------- global-mutable-state

#[test]
fn global_mutable_state_violating() {
    expect_findings(
        "crates/tensor/src/x.rs",
        "use std::sync::atomic::{AtomicBool, Ordering};\n\
         static REFERENCE: AtomicBool = AtomicBool::new(false);\n\
         pub(crate) static SWEEP: std::sync::Mutex<()> = std::sync::Mutex::new(());\n\
         pub static CACHE: OnceLock<Vec<f64>> = OnceLock::new();\n\
         static mut HITS: Option<RefCell<u64>> = None;\n",
        &[
            "global-mutable-state",
            "global-mutable-state",
            "global-mutable-state",
            "global-mutable-state",
        ],
    );
    let out = lint_source(
        "crates/lp/src/x.rs",
        "static COUNT: AtomicUsize = AtomicUsize::new(0);\n",
    );
    assert_eq!(out.findings.len(), 1);
    assert_eq!(out.findings[0].line, 1);
    assert!(out.findings[0].message.contains("`static COUNT`"));
    assert!(out.findings[0].message.contains("`AtomicUsize`"));
}

#[test]
fn global_mutable_state_clean() {
    // Immutable statics, consts, `'static` lifetimes and locals are fine.
    expect_clean(
        "crates/bound/src/x.rs",
        "static NAMES: &[&str] = &[\"a\"];\n\
         const LIMIT: usize = 4;\n\
         fn f(s: &'static str) -> Mutex<u8> { let m = Mutex::new(0); m }\n",
    );
    // Test code may keep a fixture lock.
    expect_clean(
        "crates/check/src/x.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
             static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());\n\
         }\n",
    );
    // Outside the engine crates the rule does not apply.
    expect_clean(
        "crates/bench/src/x.rs",
        "static LOG: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n",
    );
}

#[test]
fn global_mutable_state_exempts_thread_locals() {
    expect_clean(
        "crates/bound/src/arena.rs",
        "thread_local! {\n\
             static POOL: Cell<Option<Box<BoundArena>>> = const { Cell::new(None) };\n\
         }\n",
    );
    // A thread-local does not exempt a shared static next to it.
    expect_findings(
        "crates/bound/src/arena.rs",
        "thread_local! {\n\
             static POOL: Cell<u8> = const { Cell::new(0) };\n\
         }\n\
         static SHARED: Mutex<u8> = Mutex::new(0);\n",
        &["global-mutable-state"],
    );
}

#[test]
fn global_mutable_state_suppressed() {
    expect_suppressed(
        "crates/serve/src/x.rs",
        "// lint: allow(global-mutable-state, fixture: write-once interner, never read by a verdict path)\n\
         static NAMES: OnceLock<Vec<String>> = OnceLock::new();\n",
        "global-mutable-state",
    );
}

// ------------------------------------------------------- suppression meta

#[test]
fn suppression_without_reason_is_a_finding() {
    expect_findings(
        "crates/core/src/x.rs",
        "let t = 1; // lint: allow(relaxed-atomics)\n",
        &["suppression-syntax"],
    );
}

#[test]
fn suppression_reason_may_contain_parentheses() {
    expect_suppressed(
        "crates/core/src/x.rs",
        "n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed-atomics, fixture (see DESIGN.md section 5e) counter)\n",
        "relaxed-atomics",
    );
}

#[test]
fn one_marker_does_not_blanket_a_whole_file() {
    let src = "// lint: allow(wall-clock-in-engine, fixture: first read only)\n\
               let a = Instant::now();\n\
               let b = Instant::now();\n";
    let out = lint_source("crates/bound/src/x.rs", src);
    assert_eq!(out.findings.len(), 1, "{:#?}", out.findings);
    assert_eq!(out.findings[0].line, 3);
    assert_eq!(out.suppressed.len(), 1);
}
