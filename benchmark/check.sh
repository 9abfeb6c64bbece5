#!/usr/bin/env bash
# Smoke-runs every workload, untraced and traced, and validates that every
# metric named in BENCHMARK.json comes out present, finite and carrying its
# unit. One line for CI: `benchmark/check.sh`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out/smoke"
"$here/run.sh" --smoke --trace --out "$out" >/dev/null
"$here/run.sh" check "$out"
