#!/usr/bin/env bash
# Build the benchmark and the server from source, then run the benchmark:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--short]
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside this checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/main.exe ./bin/oa_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
