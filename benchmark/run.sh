#!/usr/bin/env bash
# The whole suite, one entry: runs the harness's own tests, then for each
# workload of BENCHMARK.json runs REPEATS fresh processes on the one seed SEED
# with tracing off and one traced pass, prints the metric x workload table and
# writes the result set. Run length and workload list are BENCHMARK.json's and
# cannot be overridden; `one.sh` runs a single workload ad hoc.
#
#   bash benchmark/run.sh                              # 3 repeats of seed 2020
#   OUT=target/trajectory/before.json bash benchmark/run.sh
#   REPEATS=10 SEED=7 bash benchmark/run.sh            # another seed is another set
#
# Compare two result sets with `python3 benchmark/compare.py A.json B.json`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

repeats="${REPEATS:-3}"
seed="${SEED:-2020}"
out="${OUT:-target/trajectory/result.json}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

# The repository's `cargo test` does not see this package, so the suite
# checks its own harness (and that its tables match BENCHMARK.json) first.
cargo test --release --offline --quiet \
    --manifest-path "$here/trajectory/Cargo.toml" \
    --target-dir "${CARGO_TARGET_DIR:-target/trajectory/build}" >&2

runs="$(dirname "$out")/runs.$$"
mkdir -p "$runs"
trap 'rm -rf "$runs"' EXIT

# Repeats are the outer loop: the host has slow spells of a few minutes, and
# this way one of them costs every workload one repeat, which the median over
# repeats shrugs off, and not one workload all of its repeats.
failed=0
for ((i = 0; i < repeats; i++)); do
    for w in $workloads; do
        echo "run.sh: $w seed $seed repeat $((i + 1))/$repeats tracing off" >&2
        bash "$here/one.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            > "$runs/$w.0.$i.out" || failed=1
    done
done
for w in $workloads; do
    echo "run.sh: $w seed $seed traced pass" >&2
    bash "$here/one.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        > "$runs/$w.1.out" || failed=1
done

python3 "$here/compare.py" collect "$runs" "$out"
echo "run.sh: wrote $out" >&2
exit "$failed"
