#!/usr/bin/env bash
# Build the server and the serving benchmark from source, then run the
# benchmark with the given arguments, from the root of a checkout:
#
#   bash bench/serve/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bench/serve/main.exe 1>&2
exec ./_build/default/bench/serve/main.exe "$@"
