#!/usr/bin/env bash
# One command for the repo benchmark. Builds the benchmark package offline
# (release profile, its own lock file) and forwards every argument.
#
#   benchmark/run.sh                       untraced run of all workloads, then the traced pass
#   benchmark/run.sh run --seed 2          untraced run only   -> benchmark/out/result.json
#   benchmark/run.sh trace --seed 2        traced pass only    -> benchmark/out/trace.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   (the driver's form)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}
if [ "$#" -eq 0 ]; then
    bench run --seed 1
    bench trace --seed 1
else
    bench "$@"
fi
