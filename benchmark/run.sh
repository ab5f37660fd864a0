#!/usr/bin/env bash
# Build the benchmark (its own workspace; release, offline) and run it.
#
#   benchmark/run.sh                    every workload, untraced then traced
#   benchmark/run.sh --agree            the suite twice, second set held to the first
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to standard error; the program's report to standard
# output, its last line the result as one JSON object. cargo replaces itself
# with the program, which pins itself to one CPU (no taskset needed).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
