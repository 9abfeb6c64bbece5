#!/usr/bin/env bash
# The repository's one benchmark command. Builds the stand-alone
# `benchmark` package (release, offline) and runs it.
#
#   benchmark/run.sh                       all workloads, untraced
#   benchmark/run.sh --trace               all workloads, untraced then traced
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one run; the last stdout line is the
#                                          result object BENCHMARK.json describes
#   benchmark/run.sh --smoke [...]         every workload shrunk (seconds, not minutes)
#   benchmark/run.sh --out DIR [...]       result files go to DIR (default benchmark/out)
#   benchmark/run.sh compare DIR_A DIR_B   two result sets, metric by metric
#   benchmark/run.sh check DIR             a result set against BENCHMARK.json
#
# Each workload runs in its own process, so peak RSS is per workload.
# Exits non-zero when any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The root target/ and Cargo.lock are never written: this package has its
# own workspace table, lock file and (unless the caller chose one) target
# directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/dtn-benchmark"

case "${1:-}" in
compare | check) exec "$bin" "$@" ;;
esac

workloads=()
traces=(0)
rest=()
while (($#)); do
    case "$1" in
    --workload)
        workloads+=("$2")
        shift 2
        ;;
    --trace)
        # `--trace 0|1` selects one kind of run; a bare `--trace` asks
        # for the untraced run followed by the traced one.
        if [[ "${2:-}" == [01] ]]; then
            traces=("$2")
            shift 2
        else
            traces=(0 1)
            shift
        fi
        ;;
    *)
        rest+=("$1")
        shift
        ;;
    esac
done
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <("$bin" list)
fi

status=0
for workload in "${workloads[@]}"; do
    for trace in "${traces[@]}"; do
        "$bin" --workload "$workload" --trace "$trace" "${rest[@]}" || status=$?
    done
done
exit "$status"
