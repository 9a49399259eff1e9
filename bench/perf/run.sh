#!/bin/sh
# Build perf.exe from source and run it, from the root of a checkout:
#
#   sh bench/perf/run.sh --workload ci-w1 --seed 1 --seconds 20 --trace 0
#
# The build goes to _build/ in the checkout; the shared dune cache is
# off so nothing is written outside it.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a psp source checkout" >&2
  exit 2
fi
exec dune exec --root . --cache=disabled --no-print-directory ./bench/perf/perf.exe -- "$@"
