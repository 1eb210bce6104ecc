#!/usr/bin/env bash
# Build the benchmark from source and run it. Called from the root of a
# checkout as
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# and, by hand, with the `set`, `agree` and `check-manifest` subcommands
# (README.md). Everything it writes stays inside the checkout: the build
# under $CARGO_TARGET_DIR (default .bench_build), spans under
# benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/distws-benchmark" "$@"
