#!/usr/bin/env bash
# Builds the benchmark and the patchitpy daemon from source, then runs
# one benchmark invocation from the root of the checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: needs a full checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . perfbench/perfbench.exe bin/patchitpy_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
