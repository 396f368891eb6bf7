#!/bin/sh
# Build (on first use) and run the end-to-end benchmark from the
# repository root; every argument goes to main.exe, e.g.
#   sh bench/e2e/run.sh --workload cycles-many --seed 1 --seconds 10 --trace 0
# The shared dune cache is off so that building writes only under _build.
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display quiet -- ./bench/e2e/main.exe "$@"
