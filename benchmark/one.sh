#!/usr/bin/env bash
# The command BENCHMARK.json names: builds `trajectory` from source with the
# pinned flags (release, explicit-SIMD kernels via the package manifest) and
# runs one workload once. Everything after the script name goes to the binary:
#
#   bash benchmark/one.sh --workload heavy_cold --seed 2020 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set, else target/trajectory/build,
# both inside the checkout. Build chatter goes to stderr, so the last line of
# stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target/trajectory/build}"
cargo build --release --offline --quiet \
    --manifest-path "$here/trajectory/Cargo.toml" --target-dir "$target" >&2

# The result header names what was measured; a checkout without git says so.
export TRAJECTORY_COMMIT="${TRAJECTORY_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export TRAJECTORY_RUSTC="${TRAJECTORY_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"

exec "$target/release/trajectory" "$@"
