# Entry points for local use and CI.
#
# `make ci` is the gate: build, lint (warnings-as-errors, and no
# polymorphic max/min on the allocator path), the full
# test suite (including the differential oracle between the reference,
# cached, block, chain and jit dispatch paths: random streams, plus the
# coremark, allocator and packet-processing programs, which must also
# form superblocks and eliminate checks; it fails printing the qcheck
# fuzz seed and shrunk program on any state-hash mismatch; and the
# `test/cli.t` cram test, which runs the built `cheriot_sim` and
# `cheriot_audit` over every known malformed invocation and asserts the
# 0/1/2 exit contract, so `cheriot_sim` is exercised by a gate), the static
# firmware audit (`cheriot_audit all`: shipped images audit clean, the
# bad-image corpus is fully detected), the plan-soundness gate
# (`cheriot_audit plans`: every jit check plan on the shipped images
# proves equivalent to the all-full plan, every seeded optimizer mutant
# is refuted), the incremental-audit gate (`cheriot_audit incremental`:
# a one-compartment patch re-analyzes only that compartment and the
# warm report is byte-identical to a cold audit), and the paper-results
# gate (`paper-check`: a sample of every perfbench workload reproduces
# its pinned outputs exactly, and `bench/main.exe`'s whole Table 4 and
# IoT minute equal their pins).  Every check runs once: `make parity`
# re-runs a subset of `test` and `verify-plans` in isolation, so it is
# not a prerequisite of `ci`.
#
# `bench/main.exe` only regenerates the paper's tables; all timing is
# perfbench's (perfbench/README.md).  `make bench` runs its four
# workloads.

.PHONY: all build lint test parity prop-long audit verify-plans audit-incremental paper-check bench ci clean

all: build

build:
	dune build

# Warnings-as-errors pass over the whole tree (the `lint` env profile in
# the root `dune` file promotes every enabled warning to an error), then
# the allocator path that Table 4 drives must compare with the typed
# Int.max/Int.min: Stdlib's max/min are polymorphic calls.
ALLOC_PATH_ML = lib/rtos/allocator.ml lib/rtos/switcher.ml lib/rtos/clock.ml \
  lib/rtos/sw_revoker.ml lib/mem/sram.ml lib/mem/revbits.ml \
  lib/core/capability.ml lib/core/bounds.ml lib/uarch/revoker.ml

lint:
	dune build --profile lint @check
	@if grep -nE "(^|[^.A-Za-z0-9_'])(max|min)([^A-Za-z0-9_']|$$)" $(ALLOC_PATH_ML); then \
	  echo "lint: use Int.max/Int.min on the allocator path (lines above)" >&2; \
	  exit 1; \
	fi

test: build
	dune runtest

# Static firmware audit: every shipped image must audit clean, and every
# deliberately-bad corpus image must trip exactly its expected rule
# (no false negatives, no false positives).  Prints the JSON findings
# report for the shipped images.
audit: build
	dune exec bin/cheriot_audit.exe -- all

# Plan-soundness gate: run every shipped image under the jit tier
# (forced hot), statically prove every compiled check plan equivalent
# to the all-full plan, and refute every seeded optimizer mutant with
# exactly its expected plan-* rule.  Prints the JSON report.
verify-plans: build
	dune exec bin/cheriot_audit.exe -- plans

# Incremental-audit gate: for each shipped image, prime the summary
# cache, patch one instruction in one compartment and re-audit warm;
# fails unless only the patched compartment was re-analyzed and the
# warm report is byte-identical to a from-scratch audit.
audit-incremental: build
	dune exec bin/cheriot_audit.exe -- incremental

# Dispatch parity: every dispatch path (ref / cached / block / chain /
# jit) must be observationally identical on random streams, on generated
# multi-compartment scenarios (switcher cross-calls, allocator churn,
# revocation sweeps, code patches), under interrupt injection, and on
# coremark.  The block-cache, uarch and integration suites hold the
# recorded rounds the tracer and the perf harness run: trace marks,
# cycle parity under the perf harness, and the traced instruction
# stream, on all five tiers.  Alcotest prints the failing qcheck seed
# and the shrunk program listing on a mismatch.  Not a prerequisite of
# `ci`, which runs every command here through `test` and `verify-plans`.
parity: build
	dune exec test/test_cheriot.exe -- test differential
	dune exec test/test_cheriot.exe -- test proptest
	dune exec test/test_cheriot.exe -- test block-cache
	dune exec test/test_cheriot.exe -- test uarch
	dune exec test/test_cheriot.exe -- test integration
	dune exec bin/cheriot_audit.exe -- plans

# The same property family with 20x the iteration counts (PROP_ITERS
# multiplies every qcheck ~count in lib/proptest and the harness-scaled
# unit suites).  Not part of `make ci`; run before cutting a release or
# after touching the dispatch paths.
prop-long: build
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test proptest
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test differential
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test fuzz

# Paper-results gate, from the outputs perfbench pins in
# perfbench/pinned.txt: the self-check re-runs a sample of every
# workload (large Table 4 sizes, a 2-second IoT run, CoreMark at 2
# iterations, one guest stream of each kind, a sample of audit images)
# against its pins, and the cross-check diffs bench/main.exe's 208
# Table 4 cells and IoT-minute lines against theirs.  Either exits
# non-zero on any difference.
paper-check: build
	bash perfbench/run.sh --self-check
	bash perfbench/crosscheck.sh

# The repository benchmark: each perfbench workload at seed 1 for
# BENCHMARK.json's run length, untraced.
bench: build
	for w in alloc_grid iot_minute guest_exec audit_fleet; do \
	  bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

ci: build lint test audit verify-plans audit-incremental paper-check

clean:
	dune clean
