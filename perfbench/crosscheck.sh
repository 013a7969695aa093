#!/usr/bin/env bash
# Cross-check the pinned Table 4 cycle counts and the pinned IoT-minute
# results against what bench/main.exe prints for the same commit.
# Exits non-zero on any difference.  Run from the root of the checkout:
#
#   bash perfbench/crosscheck.sh
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/main.exe ./perfbench/perfbench.exe 1>&2
bench=./_build/default/bench/main.exe
pb=./_build/default/perfbench/perfbench.exe
diff <("$bench" table4 | grep -E '^[0-9]') <("$pb" --render table4)
diff <("$bench" iot | grep -E '^(CPU load|packets):') <("$pb" --render iot)
echo "crosscheck: pinned Table 4 (208 cells) and IoT minute match bench/main.exe"
