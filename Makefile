# Entry points for local use and CI.
#
# `make ci` is the gate: build, lint (warnings-as-errors), the full
# test suite (including the differential oracle between the reference,
# cached, block, chain and jit dispatch paths), the dispatch-parity
# gate (the differential suite in isolation — it fails printing the
# qcheck fuzz seed and shrunk program on any state-hash mismatch), the
# static firmware audit (`cheriot_audit all`: shipped images audit
# clean, the bad-image corpus is fully detected), the plan-soundness
# gate (`cheriot_audit plans`: every jit check plan on the shipped
# images proves equivalent to the all-full plan, every seeded optimizer
# mutant is refuted), the incremental-audit gate (`cheriot_audit
# incremental`: a one-compartment patch re-analyzes only that
# compartment and the warm report is byte-identical to a cold audit),
# and reduced-workload
# runs of the benchmarks: `dispatch smoke` exits non-zero if any of the
# five dispatch tiers diverges on any workload, or if no workload forms
# a superblock (chain and jit tiers) or eliminates a check (jit tier).
# The smoke benches write BENCH_*_smoke.json; they are divergence
# gates, not performance claims — use `make bench` for real numbers.

.PHONY: all build lint test parity prop-long audit verify-plans audit-incremental bench bench-smoke ci clean

all: build

build:
	dune build

# Warnings-as-errors pass over the whole tree (the `lint` env profile in
# the root `dune` file promotes every enabled warning to an error).
lint:
	dune build --profile lint @check

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
# coremark.  Alcotest prints the failing qcheck seed and the shrunk
# program listing on a mismatch.
parity: build
	dune exec test/test_cheriot.exe -- test differential
	dune exec test/test_cheriot.exe -- test proptest
	dune exec bin/cheriot_audit.exe -- plans

# The same property family with 20x the iteration counts (PROP_ITERS
# multiplies every qcheck ~count in lib/proptest and the harness-scaled
# unit suites).  Not part of `make ci`; run before cutting a release or
# after touching the dispatch paths.
prop-long: build
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test proptest
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test differential
	PROP_ITERS=20 dune exec test/test_cheriot.exe -- test fuzz

bench: build
	dune exec bench/main.exe -- dispatch
	dune exec bench/main.exe -- audit
	dune exec bench/main.exe -- audit_incremental
	dune exec bench/main.exe -- planverify

bench-smoke: build
	dune exec bench/main.exe -- dispatch smoke
	dune exec bench/main.exe -- audit smoke
	dune exec bench/main.exe -- audit_incremental smoke
	dune exec bench/main.exe -- planverify smoke

ci: build lint test parity audit verify-plans audit-incremental bench-smoke

clean:
	dune clean
