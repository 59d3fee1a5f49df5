#!/usr/bin/env python3
"""Validate the mmjoin-lint JSON report artifact against its schema.

The report is what ``mmjoin-lint check --json`` writes:

    {
      "version": 1,
      "tool": "mmjoin-lint",
      "root": "<scan root>",
      "files_scanned": <int>,
      "clean": <bool>,
      "rules": [{"name": "...", "summary": "..."}, ...],
      "violations": [{"rule", "path", "line", "message", "snippet"}, ...],
      "allowances": [{"rule", "path", "line", "reason"}, ...]
    }

The check fails if the report is malformed, references an unknown rule,
carries an empty suppression reason, scanned suspiciously few files (a
tokenizer or walker regression would surface as a shrunken scan, not an
error), or is not clean. CI runs it right after ``check`` so a report
the binary claims is fine is independently re-validated before upload.

Usage: python3 ci/check_lint.py [report.json]
"""

import json
import os
import sys

# The seven rules the lint must know about; a report missing one means a
# rule pass was deleted without this gate noticing.
EXPECTED_RULES = {
    "unsafe-safety",
    "thread-spawn",
    "lock-unwrap",
    "span-alloc",
    "seqcst",
    "static-mut",
    "edges-slice",
}

# The workspace currently spans well over this many .rs files; a scan
# that sees fewer lost a directory, not weight.
MIN_FILES_SCANNED = 50

# Every `lint:allow` in the tree: 11 under crates/ and examples/ (the
# net and executor shutdown latches, bench and example client threads)
# and 2 in benchmark/'s load generator. Exact on purpose — a new
# allowance is a decision someone has to make here, in review; a removed
# one lowers the number for good.
EXPECTED_ALLOWANCES = 13


def fail(msg: str) -> None:
    print(f"check_lint: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def check_site(entry: dict, idx: int, kind: str, rule_names: set) -> None:
    require(isinstance(entry, dict), f"{kind}[{idx}] is not an object")
    for key in ("rule", "path", "line"):
        require(key in entry, f"{kind}[{idx}] missing '{key}'")
    require(
        entry["rule"] in rule_names,
        f"{kind}[{idx}] references unknown rule {entry['rule']!r}",
    )
    require(
        isinstance(entry["path"], str) and entry["path"],
        f"{kind}[{idx}] has an empty path",
    )
    require(
        isinstance(entry["line"], int) and entry["line"] >= 1,
        f"{kind}[{idx}] line must be a 1-based integer",
    )


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "lint-report.json"
    if not os.path.exists(path):
        fail(f"report {path} not found (did the check step run?)")
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    require(isinstance(report, dict), "report root is not an object")
    require(report.get("version") == 1, "unknown report version")
    require(report.get("tool") == "mmjoin-lint", "unexpected tool name")
    require(isinstance(report.get("root"), str), "missing scan root")

    files = report.get("files_scanned")
    require(isinstance(files, int), "files_scanned must be an integer")
    require(
        files >= MIN_FILES_SCANNED,
        f"only {files} files scanned (expected >= {MIN_FILES_SCANNED}; "
        "did the walker lose a scan dir?)",
    )

    rules = report.get("rules")
    require(isinstance(rules, list) and rules, "missing rules table")
    rule_names = set()
    for i, rule in enumerate(rules):
        require(isinstance(rule, dict), f"rules[{i}] is not an object")
        require(
            isinstance(rule.get("name"), str) and rule["name"],
            f"rules[{i}] missing name",
        )
        require(
            isinstance(rule.get("summary"), str) and rule["summary"],
            f"rules[{i}] missing summary",
        )
        rule_names.add(rule["name"])
    missing = EXPECTED_RULES - rule_names
    require(not missing, f"report is missing rule(s): {sorted(missing)}")

    violations = report.get("violations")
    require(isinstance(violations, list), "violations must be a list")
    for i, v in enumerate(violations):
        check_site(v, i, "violations", rule_names)
        for key in ("message", "snippet"):
            require(key in v, f"violations[{i}] missing '{key}'")

    allowances = report.get("allowances")
    require(isinstance(allowances, list), "allowances must be a list")
    for i, a in enumerate(allowances):
        check_site(a, i, "allowances", rule_names)
        require(
            isinstance(a.get("reason"), str) and a["reason"].strip(),
            f"allowances[{i}] has an empty reason — justification is the point",
        )

    require(
        len(allowances) == EXPECTED_ALLOWANCES,
        f"{len(allowances)} allowance(s), expected exactly {EXPECTED_ALLOWANCES} "
        "(update EXPECTED_ALLOWANCES with the reason)",
    )

    clean = report.get("clean")
    require(isinstance(clean, bool), "clean must be a boolean")
    require(
        clean == (len(violations) == 0),
        "clean flag disagrees with the violations list",
    )
    if not clean:
        for v in violations:
            print(f"  {v['path']}:{v['line']}: [{v['rule']}] {v['message']}")
        fail(f"{len(violations)} lint violation(s)")

    print(
        f"check_lint: OK: {files} files, 0 violations, "
        f"{len(allowances)} justified allowance(s), {len(rule_names)} rules"
    )


if __name__ == "__main__":
    main()
