#!/usr/bin/env python3
"""Validate every committed BENCH_*.json snapshot against one schema.

Each snapshot is what ``experiments --json`` writes: a JSON array of table
objects, one per target, with the target name and scale spliced in:

    [
      {
        "target": "<experiment target>",
        "scale": <number>,
        "title": "<table title>",
        "headers": ["<key column>", "<cell column>", ...],
        "rows": [{"key": "<row key>", "cells": ["...", ...]}, ...]
      },
      ...
    ]

A snapshot that is a JSON *object* is a `trajectory` result file
(BENCH_22.json on): a ``header`` naming the commits, ``host_cores`` and the
per-seed ``script_hash`` of every workload, and per seed a ``parent`` and
a ``change`` set as ``benchmark/compare.py collect`` writes them. Those
are checked for that shape, for both sets of a seed having measured the
same scripts, and for zero failed operations. An optional ``revision``
block (BENCH_39.json on) repeats the measurement on a revised change: its
seeds' sets and its ``traced_alternations`` lists are checked the same way.

The check fails if any snapshot is malformed, or if the trajectory is
missing a required snapshot (BENCH_8.json must exist and carry the
``crossover`` target with both its sweep and kernel-speedup rows — the
misprediction gate's committed evidence; BENCH_9.json must additionally
carry the parallel-scheduler ``par n=… t=…`` rows with a bit-exact
verdict and a parseable ``requested/granted`` thread budget).

Usage: python3 ci/check_bench.py [repo-root]
"""

import glob
import json
import os
import sys

REQUIRED = {"BENCH_8.json": ["crossover"], "BENCH_9.json": ["crossover"]}

# Snapshots whose crossover entry must also prove the multi-core tiled
# scheduler (older snapshots predate it and are checked sweep-only).
REQUIRE_PAR_ROWS = {"BENCH_9.json"}


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_entry(path: str, idx: int, entry) -> str:
    where = f"{os.path.basename(path)}[{idx}]"
    if not isinstance(entry, dict):
        fail(f"{where}: entry is {type(entry).__name__}, expected object")
    for key, kind in (
        ("target", str),
        ("scale", (int, float)),
        ("title", str),
        ("headers", list),
        ("rows", list),
    ):
        if key not in entry:
            fail(f"{where}: missing key {key!r}")
        if not isinstance(entry[key], kind):
            fail(f"{where}: {key!r} is {type(entry[key]).__name__}")
    headers = entry["headers"]
    if not headers or not all(isinstance(h, str) for h in headers):
        fail(f"{where}: headers must be a non-empty list of strings")
    if not entry["rows"]:
        fail(f"{where}: target {entry['target']!r} has no rows")
    for r, row in enumerate(entry["rows"]):
        rwhere = f"{where}.rows[{r}]"
        if not isinstance(row, dict) or set(row) != {"key", "cells"}:
            fail(f"{rwhere}: expected an object with exactly 'key' and 'cells'")
        if not isinstance(row["key"], str) or not row["key"]:
            fail(f"{rwhere}: row key must be a non-empty string")
        cells = row["cells"]
        if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
            fail(f"{rwhere}: cells must be a list of strings")
        # headers[0] labels the key column; cells fill the rest.
        if len(cells) != len(headers) - 1:
            fail(
                f"{rwhere}: {len(cells)} cells for {len(headers) - 1} "
                f"non-key headers"
            )
    return entry["target"]


def check_crossover(path: str, entry, require_par: bool) -> None:
    """Required snapshots must carry the full misprediction sweep."""
    keys = [row["key"] for row in entry["rows"]]
    sweep = [k for k in keys if k.startswith("f=")]
    gemm = [k for k in keys if k.startswith("gemm n=")]
    if len(sweep) < 4:
        fail(f"{path}: crossover sweep has only {len(sweep)} points")
    if not gemm:
        fail(f"{path}: crossover entry lacks kernel-speedup (gemm) rows")
    predicted_col = entry["headers"].index("predicted") - 1
    predictions = {
        row["cells"][predicted_col] for row in entry["rows"] if row["key"].startswith("f=")
    }
    if not {"wcoj", "mm"} <= predictions:
        fail(f"{path}: sweep does not bracket the crossover ({sorted(predictions)})")
    if not require_par:
        return
    threads_col = entry["headers"].index("excess ms") - 1
    par_rows = [row for row in entry["rows"] if row["key"].startswith("par ")]
    if not par_rows:
        fail(f"{path}: crossover entry lacks parallel-scheduler (par) rows")
    for row in par_rows:
        key = row["key"]
        if row["cells"][predicted_col] != "identical":
            fail(f"{path}: {key} is not bit-exact ({row['cells'][predicted_col]!r})")
        budget = row["cells"][threads_col]
        req, sep, granted = budget.partition("/")
        if not sep or not req.isdigit() or not granted.isdigit():
            fail(f"{path}: {key} has malformed thread budget {budget!r}")


def check_runs(path: str, where: str, runs, hashes_of) -> None:
    """Runs, each of a script the header names (`hashes_of(run header)` maps
    workloads to hashes), with zero failed operations."""
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: {where} has no runs")
    for run in runs:
        head = run.get("header", {}) if isinstance(run, dict) else {}
        hashes = hashes_of(head)
        if not isinstance(hashes, dict):
            fail(f"{path}: header has no script_hash for {where} seed {head.get('seed')}")
        if "metrics" not in run or hashes.get(head.get("workload")) != head.get("script_hash"):
            fail(f"{path}: {where} holds a run of another script")
        if run.get("failed"):
            fail(f"{path}: {where} {head['workload']} has failed operations")


def check_sides(path: str, where: str, sets, hashes: dict) -> None:
    """A seed's `parent` and `change` sets, both non-empty, of its scripts."""
    for side in ("parent", "change"):
        runs = sets.get(side, {}).get("runs") if isinstance(sets, dict) else None
        check_runs(path, f"{where}.{side}", runs, lambda _: hashes)


def check_trajectory(path: str, doc: dict) -> None:
    """A `compare.py collect` pair file: header + {seed: {parent, change}},
    and optionally a ``revision`` block: the same measurement repeated on a
    revised change, with its own commits, seeds and ``traced_alternations``
    (lists of single traced runs per side), all of the header's scripts."""
    header = doc.get("header")
    if not isinstance(header, dict):
        fail(f"{path}: trajectory file has no header object")
    for key in ("parent_commit", "change_commit", "host_cores", "script_hash"):
        if key not in header:
            fail(f"{path}: header lacks {key!r}")
    seeds = [key for key in doc if key not in ("header", "revision")]
    if not seeds:
        fail(f"{path}: no result sets")
    for seed in seeds:
        hashes = header["script_hash"].get(seed)
        if not isinstance(hashes, dict):
            fail(f"{path}: header has no script_hash for {seed}")
        check_sides(path, seed, doc[seed], hashes)
    if "revision" not in doc:
        return
    revision = doc["revision"]
    if not isinstance(revision, dict):
        fail(f"{path}: revision is not an object")
    for key in ("parent_commit", "change_commit"):
        if key not in revision:
            fail(f"{path}: revision lacks {key!r}")
    traced = revision.get("traced_alternations", {})
    if not isinstance(traced, dict):
        fail(f"{path}: revision.traced_alternations is not an object")
    rest = ("what", "parent_commit", "change_commit", "traced_alternations")
    seeds = [key for key in revision if key not in rest]
    if not seeds and not traced:
        fail(f"{path}: revision has no result sets")
    for seed in seeds:
        hashes = header["script_hash"].get(seed)
        if not isinstance(hashes, dict):
            fail(f"{path}: header has no script_hash for revision.{seed}")
        check_sides(path, f"revision.{seed}", revision[seed], hashes)
    # A traced run carries its seed, and is held to that seed's scripts.
    def of_its_seed(head: dict):
        return header["script_hash"].get(f"seed{head.get('seed')}")

    for name, runs in traced.items():
        check_runs(path, f"revision.traced_alternations.{name}", runs, of_its_seed)


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        fail(f"no BENCH_*.json snapshots under {root!r}")
    targets_by_file = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            fail(f"{path}: {exc}")
        if isinstance(doc, dict):
            check_trajectory(path, doc)
            continue
        if not isinstance(doc, list) or not doc:
            fail(f"{path}: expected a non-empty JSON array of table objects")
        targets = [check_entry(path, i, entry) for i, entry in enumerate(doc)]
        targets_by_file[os.path.basename(path)] = (path, doc, targets)

    for name, required_targets in REQUIRED.items():
        if name not in targets_by_file:
            fail(f"required snapshot {name} is missing from the trajectory")
        path, doc, targets = targets_by_file[name]
        for target in required_targets:
            if target not in targets:
                fail(f"{name}: required target {target!r} not present ({targets})")
        for entry in doc:
            if entry["target"] == "crossover":
                check_crossover(name, entry, name in REQUIRE_PAR_ROWS)

    total = sum(len(t) for _, _, t in targets_by_file.values())
    print(
        f"check_bench: ok — {len(targets_by_file)} snapshot(s), "
        f"{total} table(s): "
        + ", ".join(f"{n}={t}" for n, (_, _, t) in sorted(targets_by_file.items()))
    )


if __name__ == "__main__":
    main()
