#!/usr/bin/env python3
"""Result sets of the `trajectory` benchmark: collect, tabulate, compare.

    compare.py collect RUN_DIR OUT.json   assemble the runs `run.sh` left in
                                          RUN_DIR into one result set and
                                          print its metric x workload table
    compare.py table SET.json             print a result set's table again
    compare.py merge OUT.json SET.json…   pool the runs of several sets
    compare.py SET_A.json SET_B.json      compare B (candidate) against A

A cell is the median over the set's runs of one metric on one workload, with
its quartiles (statistics.quantiles, n=4) and the number of runs.

Comparing first checks that the two sets measured the same thing: the same
number of runs of every (workload, seed), with the same run length, script
hash, GEMM kernel and core count. It exits 2 when they did not. It exits 1
when an end-to-end metric's median in B is worse than in A by more than the
metric's bound, when a metric one set has is missing from the other, or when
any operation failed. A cell whose own run-to-run spread (distance between
quartiles over the median) exceeds the bound in either set is "unresolved":
the benchmark cannot tell a change that small from noise there, so it is
reported neither as a regression nor as unchanged.

The gated metrics and their bounds are read from `../BENCHMARK.json`
(`end_to_end`) and `suite.json` (end-to-end metrics only some workloads have);
`informational` in `suite.json` lists what is printed but never gated.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def manifest():
    return load(os.path.join(HERE, "..", "BENCHMARK.json"))


def suite_metrics():
    """(gated, informational): each a list of entries shaped like
    BENCHMARK.json's `end_to_end`."""
    suite = load(os.path.join(HERE, "suite.json"))
    return manifest()["end_to_end"] + suite["gated"], suite["informational"]


def parse_run(path):
    """One run's stdout: a header line, an optional suite line, the result."""
    run = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "header" in obj:
                run["header"] = obj["header"]
            elif "suite" in obj:
                run["suite"] = obj["suite"]
            elif "metrics" in obj:
                run.update(obj)
    if "header" not in run or "metrics" not in run:
        raise SystemExit(f"{path}: not a complete trajectory run")
    return run


def write_set(runs, out_path):
    result = {"schema": 2, "runs": runs}
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return result


def collect(run_dir, out_path):
    runs = [
        parse_run(os.path.join(run_dir, name))
        for name in sorted(os.listdir(run_dir))
        if name.endswith(".out")
    ]
    if not runs:
        raise SystemExit(f"{run_dir}: no runs")
    return write_set(runs, out_path)


def cells(result, traced):
    """{(metric, workload): [values]} over the set's traced or untraced runs.
    A metric a run does not have is absent from it, never 0."""
    out = {}
    for run in result["runs"]:
        if bool(run["header"]["trace"]) != traced:
            continue
        values = dict(run["metrics"])
        values.update(run.get("suite", {}))
        for name, cell in values.items():
            out.setdefault((name, run["header"]["workload"]), []).append(cell["value"])
    return out


def summary(values):
    """(median, q1, q3, n); the quartiles collapse to the median below n=2."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def spread(values):
    med, q1, q3, _ = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(x):
    return f"{x:.4g}"


def print_table(result):
    workloads = [w["name"] for w in manifest()["workloads"]]
    failed = sum(r["failed"] for r in result["runs"])
    attempted = sum(r["attempted"] for r in result["runs"])
    head = result["runs"][0]["header"]
    print(
        f"trajectory: {len(result['runs'])} runs, commit {head['commit']}, {head['rustc']}, "
        f"kernel {head['gemm_kernel']}, {head['host_cores']} cores, "
        f"thread budget {head['thread_budget_configured']} (granted {head['thread_budget_granted']})"
    )
    print(f"operations: {attempted} attempted, {failed} failed")
    for traced, title in ((False, "end to end (tracing off)"), (True, "per layer (traced pass)")):
        table = cells(result, traced)
        if not table:
            continue
        units = {}
        for run in result["runs"]:
            for name, cell in list(run["metrics"].items()) + list(run.get("suite", {}).items()):
                units[name] = cell["unit"]
        names = []
        for name, _ in table:
            if name not in names:
                names.append(name)
        print(f"\n== {title}: median [q1 .. q3] spread n")
        print(f"{'metric':<34}{'unit':<9}" + "  ".join(f"{w:<44}" for w in workloads))
        for name in names:
            row = []
            for w in workloads:
                values = table.get((name, w))
                if not values:
                    row.append("-")
                elif len(values) == 1:
                    row.append(fmt(values[0]))
                else:
                    med, q1, q3, n = summary(values)
                    row.append(f"{fmt(med)} [{fmt(q1)} .. {fmt(q3)}] {spread(values) * 100:.1f}% {n}")
            print(f"{name:<34}{units[name]:<9}" + "  ".join(f"{c:<44}" for c in row).rstrip())


def measured(result):
    """What each untraced run measured, as a sorted list: two sets are
    comparable exactly when these lists are equal."""
    keys = ("workload", "seed", "seconds", "script_hash", "gemm_kernel", "host_cores")
    return sorted(
        tuple(run["header"][k] for k in keys)
        for run in result["runs"]
        if not run["header"]["trace"]
    )


def compare(a, b):
    ma, mb = measured(a), measured(b)
    if ma != mb:
        print("the two sets did not measure the same thing "
              "(workload, seed, seconds, script_hash, gemm_kernel, host_cores per run):",
              file=sys.stderr)
        for label, only in (("A", set(ma) - set(mb)), ("B", set(mb) - set(ma))):
            for key in sorted(only):
                print(f"  only in {label}: {key}", file=sys.stderr)
        if set(ma) == set(mb):
            print(f"  run counts differ: {len(ma)} in A, {len(mb)} in B", file=sys.stderr)
        return 2
    ta, tb = cells(a, False), cells(b, False)
    regressed = 0
    print(f"{'metric':<21}{'workload':<14}{'A median':>12}{'B median':>12}{'change':>9}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    gated, informational = suite_metrics()
    for metric in gated + informational:
        name, bound = metric["name"], metric["bound"]
        for w in [w["name"] for w in manifest()["workloads"]]:
            va, vb = ta.get((name, w)), tb.get((name, w))
            if not va and not vb:
                continue  # the workload does not have this metric
            if not va or not vb:
                print(f"{name:<21}{w:<14}{'-' if not va else 'present':>12}"
                      f"{'-' if not vb else 'present':>12}  MISSING from one set")
                regressed += metric in gated
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            # Positive = worse, as a share of A's median. Only a metric whose
            # bound is absolute (failed_ops_ratio) is 0 when all is well.
            if med_a:
                worse = (med_b - med_a) / abs(med_a)
            else:
                worse = float("inf") if med_b else 0.0
            if metric["better"] == "higher":
                worse = -worse
            sa, sb = spread(va), spread(vb)
            if metric in informational:
                verdict = "info"
            elif max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed += 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            print(f"{name:<21}{w:<14}{fmt(med_a):>12}{fmt(med_b):>12}{worse * 100:>+8.1f}%"
                  f"{bound * 100:>6.0f}%{sa * 100:>9.1f}%{sb * 100:>9.1f}%  {verdict}")
    for label, result in (("A", a), ("B", b)):
        failed = sum(r["failed"] for r in result["runs"])
        if failed:
            print(f"set {label}: {failed} failed operations (failed_ops_ratio must be 0)")
            regressed += 1
    print(f"\n{regressed} regression(s)")
    return 1 if regressed else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "collect":
        print_table(collect(argv[2], argv[3]))
        return 0
    if len(argv) == 3 and argv[1] == "table":
        print_table(load(argv[2]))
        return 0
    if len(argv) >= 4 and argv[1] == "merge":
        write_set([run for path in argv[3:] for run in load(path)["runs"]], argv[2])
        return 0
    if len(argv) == 3:
        return compare(load(argv[1]), load(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
