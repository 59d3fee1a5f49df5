//! The repo-specific rule set.
//!
//! Each rule machine-checks an invariant the ROADMAP's north star
//! depends on and that previously lived only in prose:
//!
//! | rule | contract |
//! |---|---|
//! | `unsafe-safety`  | every `unsafe` site carries a `// SAFETY:` comment (or `# Safety` doc section for `unsafe fn`/`impl`/`trait`) stating the bounds/aliasing argument |
//! | `thread-spawn`   | no `std::thread::spawn`/`scope`/`Builder` outside `crates/executor` and `crates/net` — parallelism routes through the executor's token arbitration |
//! | `lock-unwrap`    | no `.unwrap()`/`.expect()` on `Mutex`/`RwLock`/`Condvar` results outside tests — use the `PoisonError::into_inner` recovery idiom |
//! | `span-alloc`     | no `Instant::now()` or heap allocation evaluated eagerly at a span-site call outside `crates/obs` — disabled tracing must cost one relaxed atomic (use `span_dyn` for lazy labels) |
//! | `seqcst`         | `Ordering::SeqCst` needs an inline justification (`lint:allow`) — the workspace default is the weakest ordering that is argued correct |
//! | `static-mut`     | `static mut` needs an inline justification (`lint:allow`) — it is almost always a bug waiting for Miri |
//! | `edges-slice`    | no `.edges()` outside tests, `crates/bench` and `benchmark/` — served code walks `Relation::tuples()`, and one `edges()` call makes a relation keep a flattened copy of its tuples, 8 B an edge |
//!
//! Any finding can be suppressed in place with
//! `// lint:allow(<rule>): <reason>` on the offending line or the
//! line(s) directly above it; the reason is mandatory and every
//! suppression is recorded in the JSON report as an audit trail.

use crate::scan::{contains_word, SourceFile};

/// Static description of one rule (for `mmjoin-lint rules` and the
/// report's rule table).
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// All rules, in the order they run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unsafe-safety",
        summary: "unsafe blocks/fns/impls must carry a // SAFETY: comment or # Safety doc \
                  section stating the bounds/aliasing argument",
    },
    RuleInfo {
        name: "thread-spawn",
        summary: "no std::thread::{spawn,scope,Builder} outside crates/executor and \
                  crates/net; parallelism goes through the shared executor",
    },
    RuleInfo {
        name: "lock-unwrap",
        summary: "no .unwrap()/.expect() on Mutex/RwLock/Condvar results outside tests; \
                  recover with unwrap_or_else(PoisonError::into_inner)",
    },
    RuleInfo {
        name: "span-alloc",
        summary: "no Instant::now() or heap allocation evaluated eagerly at span sites \
                  outside crates/obs; disabled tracing is one relaxed atomic",
    },
    RuleInfo {
        name: "seqcst",
        summary: "Ordering::SeqCst needs an inline lint:allow justification",
    },
    RuleInfo {
        name: "static-mut",
        summary: "static mut needs an inline lint:allow justification",
    },
    RuleInfo {
        name: "edges-slice",
        summary: "no .edges() outside tests, crates/bench and benchmark/; served code walks \
                  Relation::tuples(), and an edges() call keeps 8 B an edge resident",
    },
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    pub snippet: String,
}

/// One `lint:allow` suppression that matched a would-be finding.
#[derive(Debug, Clone)]
pub struct Allowance {
    pub rule: &'static str,
    pub path: String,
    /// 1-based line of the suppressed site (not of the comment).
    pub line: usize,
    pub reason: String,
}

/// Everything one scan of a file produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub allowances: Vec<Allowance>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.findings.extend(other.findings);
        self.allowances.extend(other.allowances);
    }
}

/// Runs every rule over one scanned file.
pub fn check_file(f: &SourceFile) -> Outcome {
    let mut out = Outcome::default();
    rule_unsafe_safety(f, &mut out);
    rule_thread_spawn(f, &mut out);
    rule_lock_unwrap(f, &mut out);
    rule_span_alloc(f, &mut out);
    rule_needs_justification(f, &mut out, "seqcst", "SeqCst", false);
    rule_needs_justification(f, &mut out, "static-mut", "static mut", true);
    rule_edges_slice(f, &mut out);
    out
}

/// Whole-file test exemption: the integration-test tree and bench
/// harnesses (stress-client code is test scaffolding, not served code).
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// Reason attached to a `lint:allow(<rule>)` covering line `idx`: on the
/// line itself or on comment/attribute lines directly above it.
fn find_allow(f: &SourceFile, idx: usize, rule: &str) -> Option<String> {
    if let Some(r) = parse_allow(&f.lines[idx].comment, rule) {
        return Some(r);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &f.lines[j];
        let comment_only = l.code_is_empty() && l.has_comment;
        if comment_only || l.is_attr || l.is_attribute_only() {
            if let Some(r) = parse_allow(&l.comment, rule) {
                return Some(r);
            }
            continue;
        }
        break;
    }
    None
}

/// Parses `lint:allow(rule-a, rule-b): reason` out of a comment,
/// returning the reason when `rule` is listed. A missing or empty reason
/// does not suppress anything — justification is the point.
fn parse_allow(comment: &str, rule: &str) -> Option<String> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let listed = rest[..close]
        .split(',')
        .map(str::trim)
        .any(|r| r == rule || r == "all");
    if !listed {
        return None;
    }
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':')?.trim();
    if reason.is_empty() {
        return None;
    }
    Some(reason.to_string())
}

/// Either records a finding or, when an adjacent `lint:allow` covers it,
/// an allowance.
fn push(out: &mut Outcome, f: &SourceFile, idx: usize, rule: &'static str, message: String) {
    if let Some(reason) = find_allow(f, idx, rule) {
        out.allowances.push(Allowance {
            rule,
            path: f.path.clone(),
            line: idx + 1,
            reason,
        });
        return;
    }
    let snippet: String = f.lines[idx].code.trim().chars().take(120).collect();
    out.findings.push(Finding {
        rule,
        path: f.path.clone(),
        line: idx + 1,
        message,
        snippet,
    });
}

// ---------------------------------------------------------------- rule 1

fn rule_unsafe_safety(f: &SourceFile, out: &mut Outcome) {
    for idx in 0..f.lines.len() {
        let code = &f.lines[idx].code;
        if !contains_word(code, "unsafe") {
            continue;
        }
        let is_decl = code.contains("unsafe fn")
            || code.contains("unsafe trait")
            || code.contains("unsafe extern");
        let is_impl = code.contains("unsafe impl");
        if covered_by_safety(f, idx, is_decl || is_impl) {
            continue;
        }
        let kind = if is_decl {
            "unsafe fn/trait"
        } else if is_impl {
            "unsafe impl"
        } else {
            "unsafe block"
        };
        push(
            out,
            f,
            idx,
            "unsafe-safety",
            format!(
                "{kind} without an immediately preceding `// SAFETY:` comment{}",
                if is_decl || is_impl {
                    " (or `# Safety` doc section)"
                } else {
                    ""
                }
            ),
        );
    }
}

/// Scans upward from the `unsafe` line through comments, attributes and
/// (for `unsafe impl` runs) sibling `unsafe impl` lines. A `// SAFETY:`
/// comment covers any site; a doc block containing `# Safety` covers
/// declarations (fn/trait/impl), matching the workspace idiom of
/// documenting the caller contract in rustdoc.
fn covered_by_safety(f: &SourceFile, idx: usize, is_decl_or_impl: bool) -> bool {
    if f.lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let site_is_impl = f.lines[idx].code.contains("unsafe impl");
    let mut saw_doc_safety = false;
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &f.lines[j];
        let comment_only = l.code_is_empty() && l.has_comment;
        if comment_only {
            if l.comment.contains("SAFETY:") {
                return true;
            }
            if l.is_doc && l.comment.contains("# Safety") {
                saw_doc_safety = true;
            }
            continue;
        }
        if l.is_attr || l.is_attribute_only() {
            continue;
        }
        // Twin `unsafe impl Send/Sync` blocks share one SAFETY comment.
        if site_is_impl && l.code.contains("unsafe impl") {
            if l.comment.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        break;
    }
    is_decl_or_impl && saw_doc_safety
}

// ---------------------------------------------------------------- rule 2

fn rule_thread_spawn(f: &SourceFile, out: &mut Outcome) {
    if is_test_path(&f.path)
        || f.path.starts_with("crates/executor/")
        || f.path.starts_with("crates/net/")
    {
        return;
    }
    for (idx, line) in f.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if line.code.contains(pat) {
                push(
                    out,
                    f,
                    idx,
                    "thread-spawn",
                    format!(
                        "`{pat}` outside crates/executor and crates/net; route parallelism \
                         through the shared executor's token arbitration"
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- rule 3

/// Flattens the file's code channel into one string with a byte→line
/// map, so call chains split across lines (`.lock()\n.unwrap()`) still
/// match.
fn flatten(f: &SourceFile) -> (String, Vec<usize>) {
    let mut flat = String::new();
    let mut line_of = Vec::new();
    for (idx, line) in f.lines.iter().enumerate() {
        for _ in 0..line.code.len() + 1 {
            line_of.push(idx);
        }
        flat.push_str(&line.code);
        flat.push('\n');
    }
    (flat, line_of)
}

/// Byte index just past a balanced `(...)` group starting at the `(` at
/// `open`, or `None` if unbalanced.
fn skip_balanced(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn rule_lock_unwrap(f: &SourceFile, out: &mut Outcome) {
    if is_test_path(&f.path) {
        return;
    }
    let (flat, line_of) = flatten(f);
    let bytes = flat.as_bytes();
    let mut sites: Vec<(usize, &str)> = Vec::new();
    // Zero-arg lock acquisitions: the chain continues right after `()`.
    for pat in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(pos) = flat[from..].find(pat) {
            let at = from + pos;
            sites.push((at + pat.len(), &pat[1..pat.len() - 2]));
            from = at + pat.len();
        }
    }
    // Condvar waits carry arguments: balance the parens first.
    for pat in [".wait(", ".wait_timeout(", ".wait_while("] {
        let mut from = 0;
        while let Some(pos) = flat[from..].find(pat) {
            let at = from + pos;
            let open = at + pat.len() - 1;
            if let Some(end) = skip_balanced(bytes, open) {
                sites.push((end, pat[1..].trim_end_matches('(')));
            }
            from = at + pat.len();
        }
    }
    for (after, what) in sites {
        let mut k = after;
        while k < bytes.len() && (bytes[k] as char).is_whitespace() {
            k += 1;
        }
        let tail = &flat[k.min(flat.len())..];
        let bad = if tail.starts_with(".unwrap()") {
            Some("unwrap()")
        } else if tail.starts_with(".expect(") {
            Some("expect(..)")
        } else {
            None
        };
        if let Some(bad) = bad {
            let idx = line_of[after.saturating_sub(1)];
            if f.lines[idx].in_test {
                continue;
            }
            push(
                out,
                f,
                idx,
                "lock-unwrap",
                format!(
                    "`.{what}(…).{bad}` panics on a poisoned lock; recover with \
                     `.unwrap_or_else(PoisonError::into_inner)` so one panicking \
                     query cannot brick the service"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- rule 4

/// Allocation-ish tokens that must not be evaluated eagerly in span-site
/// arguments: the disabled-tracing contract is one relaxed atomic load
/// per site, and Rust evaluates arguments before `span()` can check the
/// gate. `span_dyn`'s closure is the sanctioned lazy form.
const SPAN_BANNED: &[&str] = &[
    "Instant::now",
    "format!",
    ".to_string()",
    ".to_owned()",
    "String::from",
    "String::new",
    "Vec::new",
    "vec!",
    "Box::new",
    ".collect()",
    ".join(",
];

fn rule_span_alloc(f: &SourceFile, out: &mut Outcome) {
    if is_test_path(&f.path) || f.path.starts_with("crates/obs/") {
        return;
    }
    let (flat, line_of) = flatten(f);
    let bytes = flat.as_bytes();
    let pat = "span(";
    let mut from = 0;
    while let Some(pos) = flat[from..].find(pat) {
        let at = from + pos;
        from = at + pat.len();
        // Word boundary on the `s` — rejects `respan(` but accepts
        // `trace::span(`.
        if at > 0 {
            let before = bytes[at - 1] as char;
            if before.is_alphanumeric() || before == '_' {
                continue;
            }
        }
        let open = at + pat.len() - 1;
        let Some(end) = skip_balanced(bytes, open) else {
            continue;
        };
        let args = &flat[open..end];
        // Only obs span sites take a Stage; anything else named
        // `span` is not ours to police.
        if !args.contains("Stage::") {
            continue;
        }
        let idx = line_of[at];
        if f.lines[idx].in_test {
            continue;
        }
        for banned in SPAN_BANNED {
            if args.contains(banned) {
                push(
                    out,
                    f,
                    idx,
                    "span-alloc",
                    format!(
                        "`{}` evaluated eagerly in a span-site argument; disabled \
                         tracing must cost one relaxed atomic — move it behind a \
                         `span_dyn` closure",
                        banned.trim_matches(|c| c == '.' || c == '(')
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- rules 5/6

/// `SeqCst` / `static mut` are not forbidden, but they are never the
/// default: each site must say why it needs the strongest ordering (or
/// mutable global state) via `lint:allow`.
fn rule_needs_justification(
    f: &SourceFile,
    out: &mut Outcome,
    rule: &'static str,
    token: &str,
    everywhere: bool,
) {
    if !everywhere && is_test_path(&f.path) {
        return;
    }
    for (idx, line) in f.lines.iter().enumerate() {
        if !everywhere && line.in_test {
            continue;
        }
        if contains_word(&line.code, token) {
            push(
                out,
                f,
                idx,
                rule,
                format!(
                    "`{token}` needs justification; add `// lint:allow({rule}): <why>` \
                     or use a weaker, argued ordering"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- rule 7

/// `Relation::edges()` flattens the relation's tuples into a slice the
/// relation then keeps: a served path that calls it once holds 8 B an edge
/// for as long as the relation lives. Tests and the benchmark code may.
fn rule_edges_slice(f: &SourceFile, out: &mut Outcome) {
    if is_test_path(&f.path)
        || f.path.starts_with("crates/bench/")
        || f.path.starts_with("benchmark/")
    {
        return;
    }
    for (idx, line) in f.lines.iter().enumerate() {
        if !line.in_test && line.code.contains(".edges()") {
            push(
                out,
                f,
                idx,
                "edges-slice",
                "`.edges()` makes the relation keep a flattened copy of its tuples \
                 (8 B an edge); walk `Relation::tuples()` instead"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        check_file(&scan_str(path, src)).findings
    }

    #[test]
    fn parse_allow_requires_reason() {
        assert_eq!(
            parse_allow("lint:allow(seqcst): shutdown latch", "seqcst").as_deref(),
            Some("shutdown latch")
        );
        assert_eq!(parse_allow("lint:allow(seqcst):", "seqcst"), None);
        assert_eq!(parse_allow("lint:allow(seqcst) no colon", "seqcst"), None);
        assert_eq!(parse_allow("lint:allow(other): reason", "seqcst"), None);
        assert_eq!(
            parse_allow("lint:allow(a, seqcst): both", "seqcst").as_deref(),
            Some("both")
        );
    }

    #[test]
    fn unsafe_without_safety_fires_and_comment_covers() {
        let bad = findings("crates/x/src/lib.rs", "fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "unsafe-safety");
        assert_eq!(bad[0].line, 2);
        let good = findings(
            "crates/x/src/lib.rs",
            "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn doc_safety_covers_unsafe_fn_but_not_blocks() {
        let good = findings(
            "crates/x/src/lib.rs",
            "/// Does things.\n///\n/// # Safety\n/// Caller upholds X.\nunsafe fn f() {}\n",
        );
        assert!(good.is_empty(), "{good:?}");
        let bad = findings(
            "crates/x/src/lib.rs",
            "/// # Safety is not how blocks are audited\nfn f() { unsafe { g() } }\n",
        );
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn twin_unsafe_impls_share_one_safety_comment() {
        let good = findings(
            "crates/x/src/lib.rs",
            "// SAFETY: Ptr is only written through disjoint regions.\n\
             unsafe impl Send for P {}\nunsafe impl Sync for P {}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn spawn_flagged_outside_executor_and_net() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(findings("crates/service/src/lib.rs", src).len(), 1);
        assert!(findings("crates/executor/src/lib.rs", src).is_empty());
        assert!(findings("crates/net/src/server.rs", src).is_empty());
        assert!(findings("tests/stress.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_chains_across_lines() {
        let bad = findings(
            "crates/x/src/lib.rs",
            "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock()\n        .unwrap();\n}\n",
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "lock-unwrap");
        assert_eq!(bad[0].line, 2);
        let good = findings(
            "crates/x/src/lib.rs",
            "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn condvar_wait_unwrap_is_flagged() {
        let bad = findings(
            "crates/x/src/lib.rs",
            "fn f() {\n    guard = cv.wait(guard).unwrap();\n}\n",
        );
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn span_site_alloc_flagged_outside_obs() {
        let bad = findings(
            "crates/service/src/lib.rs",
            "fn f() { let _s = trace::span(Stage::Exec, format!(\"q{}\", 1)); }\n",
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "span-alloc");
        // span_dyn closures are the sanctioned lazy form.
        let good = findings(
            "crates/service/src/lib.rs",
            "fn f() { let _s = trace::span_dyn(Stage::Exec, || format!(\"q{}\", 1)); }\n",
        );
        assert!(good.is_empty(), "{good:?}");
        // And obs itself may do real work at span construction.
        let obs = findings(
            "crates/obs/src/trace.rs",
            "fn f() { let _s = span(Stage::Exec, format!(\"q{}\", 1)); }\n",
        );
        assert!(obs.is_empty(), "{obs:?}");
    }

    #[test]
    fn seqcst_needs_allow_and_allow_is_recorded() {
        let src = "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }\n";
        let bad = findings("crates/x/src/lib.rs", src);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "seqcst");
        let out = check_file(&scan_str(
            "crates/x/src/lib.rs",
            "fn f(a: &AtomicBool) {\n    // lint:allow(seqcst): one-shot latch, contention-free.\n    a.store(true, Ordering::SeqCst);\n}\n",
        ));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowances.len(), 1);
        assert_eq!(out.allowances[0].rule, "seqcst");
    }

    #[test]
    fn static_mut_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    static mut X: u32 = 0;\n}\n";
        let bad = findings("crates/x/src/lib.rs", src);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "static-mut");
    }

    #[test]
    fn edges_slice_flagged_outside_tests_and_benchmarks() {
        let src = "fn f(r: &Relation) -> usize {\n    r.edges().len()\n}\n";
        let bad = findings("crates/service/src/lib.rs", src);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!((bad[0].rule, bad[0].line), ("edges-slice", 2));
        for exempt in [
            "tests/suite.rs",
            "crates/bench/src/lib.rs",
            "benchmark/trajectory/src/harness.rs",
        ] {
            assert!(findings(exempt, src).is_empty(), "{exempt}");
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(r: &Relation) { r.edges(); }\n}\n";
        assert!(findings("crates/x/src/lib.rs", in_test).is_empty());
        let tuples = "fn f(r: &Relation) -> usize {\n    r.tuples().count()\n}\n";
        assert!(findings("crates/x/src/lib.rs", tuples).is_empty());
    }

    #[test]
    fn strings_do_not_trigger_rules() {
        let src = "fn f() { let s = \"unsafe { thread::spawn } Ordering::SeqCst\"; }\n";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }
}
