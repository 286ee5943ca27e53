#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments
# (see benchmark/README.md). Run from the repository root. The build stays
# inside the checkout (no shared dune cache), and dune's own output goes
# to stderr, so the last stdout line stays the result.
set -e
dune build --root . --cache=disabled ./benchmark/run.exe ./benchmark/reference.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
