#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-check
#
# Run from the root of the checkout.  Everything it writes stays there:
# dune's _build/ (with the shared dune cache disabled) and .perfbench/
# (the traced run's spans).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/pinned.txt ]; then
  echo "perfbench: run from the root of a full checkout (needs dune-project, lib/ and perfbench/)" >&2
  exit 2
fi

# Use dune from PATH when it is an executable there (PATH may contain ".",
# where the repository's own dune file would shadow it); otherwise ask
# opam for the current switch's dune.
export DUNE_CACHE=disabled
dune_bin=$(type -P dune || true)
if [ -n "$dune_bin" ] && [ -x "$dune_bin" ] && [ ! -d "$dune_bin" ]; then
  dune=("$dune_bin")
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
