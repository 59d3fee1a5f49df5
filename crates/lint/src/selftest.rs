//! Seeded-violation self-test.
//!
//! `mmjoin-lint self-test` proves, on every CI run, that each rule (a)
//! fires on a seeded violation at the expected line, and (b) stays
//! silent on the corrected / `lint:allow`-justified form. A lint whose
//! rules silently stopped matching — a tokenizer regression, a renamed
//! idiom — would otherwise *pass* CI by finding nothing; the self-test
//! turns that failure mode into a red build.

use crate::rules::check_file;
use crate::scan::scan_str;

struct Case {
    name: &'static str,
    /// Pseudo-path, chosen so path-scoped rules apply.
    path: &'static str,
    src: &'static str,
    /// Rule expected to fire, with 1-based lines.
    rule: &'static str,
    expect_lines: &'static [usize],
    /// Corrected or justified twin that must scan clean; when it carries
    /// a `lint:allow`, the allowance must be recorded.
    fixed_src: &'static str,
    fixed_records_allowance: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "unsafe block without SAFETY",
        path: "crates/seed/src/lib.rs",
        src: "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n",
        rule: "unsafe-safety",
        expect_lines: &[2],
        fixed_src: "fn f(p: *const u32) -> u32 {\n    // SAFETY: callers pass a live, aligned pointer (checked at the FFI edge).\n    unsafe { *p }\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "unsafe fn without # Safety doc",
        path: "crates/seed/src/lib.rs",
        src: "/// Reads a raw slot.\npub unsafe fn read_slot(p: *const u32) -> u32 {\n    *p\n}\n",
        rule: "unsafe-safety",
        expect_lines: &[2],
        fixed_src: "/// Reads a raw slot.\n///\n/// # Safety\n/// `p` must be valid for reads and aligned.\npub unsafe fn read_slot(p: *const u32) -> u32 {\n    *p\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "thread::spawn outside executor/net",
        path: "crates/seed/src/lib.rs",
        src: "fn f() {\n    std::thread::spawn(|| {});\n}\n",
        rule: "thread-spawn",
        expect_lines: &[2],
        fixed_src: "fn f() {\n    // lint:allow(thread-spawn): seeded self-test exercising the escape hatch.\n    std::thread::spawn(|| {});\n}\n",
        fixed_records_allowance: true,
    },
    Case {
        name: "lock().unwrap() outside tests",
        path: "crates/seed/src/lib.rs",
        src: "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock()\n        .unwrap()\n}\n",
        rule: "lock-unwrap",
        expect_lines: &[2],
        fixed_src: "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock()\n        .unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "rwlock read().expect() outside tests",
        path: "crates/seed/src/lib.rs",
        src: "fn f(m: &std::sync::RwLock<u32>) -> u32 {\n    *m.read().expect(\"poisoned\")\n}\n",
        rule: "lock-unwrap",
        expect_lines: &[2],
        fixed_src: "fn f(m: &std::sync::RwLock<u32>) -> u32 {\n    *m.read().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "eager Instant::now at a span site",
        path: "crates/seed/src/lib.rs",
        src: "fn f() {\n    let _s = trace::span(Stage::Exec, label(Instant::now()));\n}\n",
        rule: "span-alloc",
        expect_lines: &[2],
        fixed_src: "fn f() {\n    let _s = trace::span_dyn(Stage::Exec, || label(Instant::now()));\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "eager format! at a span site",
        path: "crates/seed/src/lib.rs",
        src: "fn f(n: &str) {\n    let _s = trace::span(Stage::Maintain, format!(\"update {n}\"));\n}\n",
        rule: "span-alloc",
        expect_lines: &[2],
        fixed_src: "fn f(n: &str) {\n    let _s = trace::span_dyn(Stage::Maintain, || format!(\"update {n}\"));\n}\n",
        fixed_records_allowance: false,
    },
    Case {
        name: "SeqCst without justification",
        path: "crates/seed/src/lib.rs",
        src: "fn f(a: &AtomicBool) {\n    a.store(true, Ordering::SeqCst);\n}\n",
        rule: "seqcst",
        expect_lines: &[2],
        fixed_src: "fn f(a: &AtomicBool) {\n    // lint:allow(seqcst): one-shot latch; simplicity over the last nanosecond.\n    a.store(true, Ordering::SeqCst);\n}\n",
        fixed_records_allowance: true,
    },
    Case {
        name: "static mut without justification",
        path: "crates/seed/src/lib.rs",
        src: "static mut COUNTER: u64 = 0;\n",
        rule: "static-mut",
        expect_lines: &[1],
        fixed_src: "// lint:allow(static-mut): seeded self-test exercising the escape hatch.\nstatic mut COUNTER: u64 = 0;\n",
        fixed_records_allowance: true,
    },
    Case {
        name: "edges() slice on a served path",
        path: "crates/seed/src/lib.rs",
        src: "fn first(r: &Relation) -> Option<Edge> {\n    r.edges().first().copied()\n}\n",
        rule: "edges-slice",
        expect_lines: &[2],
        fixed_src: "fn first(r: &Relation) -> Option<Edge> {\n    r.tuples().next()\n}\n",
        fixed_records_allowance: false,
    },
];

/// Runs every seeded case; returns a human summary or the first failure.
pub fn run() -> Result<String, String> {
    let mut checked = 0;
    for case in CASES {
        let out = check_file(&scan_str(case.path, case.src));
        let got: Vec<usize> = out
            .findings
            .iter()
            .filter(|v| v.rule == case.rule)
            .map(|v| v.line)
            .collect();
        if got != case.expect_lines {
            return Err(format!(
                "self-test '{}': expected {} at lines {:?}, got {:?} (all findings: {:?})",
                case.name, case.rule, case.expect_lines, got, out.findings
            ));
        }
        let stray: Vec<_> = out
            .findings
            .iter()
            .filter(|v| v.rule != case.rule)
            .collect();
        if !stray.is_empty() {
            return Err(format!(
                "self-test '{}': unrelated findings on the seed: {stray:?}",
                case.name
            ));
        }
        let fixed = check_file(&scan_str(case.path, case.fixed_src));
        if !fixed.findings.is_empty() {
            return Err(format!(
                "self-test '{}': corrected form still fires: {:?}",
                case.name, fixed.findings
            ));
        }
        if case.fixed_records_allowance
            && !fixed
                .allowances
                .iter()
                .any(|a| a.rule == case.rule && !a.reason.is_empty())
        {
            return Err(format!(
                "self-test '{}': lint:allow({}) was not recorded as an allowance",
                case.name, case.rule
            ));
        }
        checked += 1;
    }
    // Every advertised rule must have at least one seeded case.
    for rule in crate::rules::RULES {
        if !CASES.iter().any(|c| c.rule == rule.name) {
            return Err(format!(
                "self-test: rule '{}' has no seeded case",
                rule.name
            ));
        }
    }
    Ok(format!(
        "self-test ok: {checked} seeded cases across {} rules (fire + corrected/allowed)",
        crate::rules::RULES.len()
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::run().unwrap();
    }
}
