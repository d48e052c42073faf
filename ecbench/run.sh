#!/usr/bin/env bash
# Builds the benchmark and the ecsat daemon from source, then runs one
# measurement.  Run from the repository root:
#   bash ecbench/run.sh --workload enable|fast|preserve|serve \
#     --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./ecbench/main.exe ./bin/ecsat.exe 1>&2
commit=unknown
if [ -d .git ]; then commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown); fi
exec ./_build/default/ecbench/main.exe --ecsat ./_build/default/bin/ecsat.exe \
  --commit "$commit" "$@"
