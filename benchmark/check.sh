#!/usr/bin/env bash
# Static checks on the benchmark crate, its unit tests, and /BENCHMARK.json
# against the catalog. With --smoke also one plain and one traced run of
# every workload at 1/20 size with a 1 s window (< 15 s after the build),
# checking that each prints a correct result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=(--offline --manifest-path benchmark/Cargo.toml)

cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy "${manifest[@]}" --release --all-targets --quiet -- -D warnings
cargo test "${manifest[@]}" --release --quiet
bash benchmark/run.sh check-manifest BENCHMARK.json
echo "check: fmt, clippy, tests and BENCHMARK.json ok"

if [[ "${1:-}" == "--smoke" ]]; then
    start=$SECONDS
    bin="$CARGO_TARGET_DIR/release/distws-benchmark"
    "$bin" manifest | sed -n 's/^ *"name": "\([a-z-]*\)",$/\1/p' | while read -r workload; do
        for trace in 0 1; do
            line="$("$bin" --workload "$workload" --seed 0 --seconds 1 --trace "$trace" \
                --smoke --out benchmark/out/smoke | tail -n 1)"
            case "$line" in
                '{"correct":true,'*'"failed":0,'*) ;;
                *) echo "smoke: $workload --trace $trace: $line" >&2; exit 1 ;;
            esac
        done
        echo "smoke: $workload ok"
    done
    echo "smoke: all workloads ok in $((SECONDS - start)) s"
fi
