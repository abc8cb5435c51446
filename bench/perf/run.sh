#!/bin/sh
# Build perf.exe from this checkout and run one benchmark workload.
# Run from the root of the checkout:
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The build goes to ./_build; the shared dune cache is left untouched.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
