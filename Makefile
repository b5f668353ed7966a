# Convenience targets; everything here is a thin wrapper over dune.

.PHONY: all test lint analyze bench-smoke bench bench-compare report \
        batch cache-smoke kernel-smoke serve serve-smoke hb-smoke \
        perfbench-test coverage clean

all:
	dune build

test:
	dune runtest

# Static checks: the repo source linter (tools/mlint.ml) plus `oshil
# lint` over the shipped netlists and scenarios.
lint:
	dune build @lint
	dune exec bin/oshil.exe -- lint examples/netlists/*.cir examples/scenarios/*.scn

# Typed-AST static analysis (tools/dsa): walks the .cmt artifacts of
# every lib/ module and enforces the domain-safety / cache-purity /
# float-order / raise-escape contracts. --strict also fails on
# warnings (bad or unused waivers).
analyze:
	dune build @analyze

# CI smoke: build, run the tier-1 tests, then run the bench harness in
# its fast configuration (--only-bench --skip-slow) and verify that the
# emitted BENCH_*.json records parse.
bench-smoke:
	dune build
	dune runtest
	dune build @bench-smoke

# Full tracked benchmarks: emits BENCH_grid.json / BENCH_lockrange.json
# in the repository root and validates them. Set OSHIL_JOBS (or pass
# JOBS=N) to control the pool size of the parallel kernels.
JOBS ?=
bench:
	dune build bench/main.exe @analyze
	OSHIL_DSA_FINDINGS=0 ./_build/default/bench/main.exe --only-bench $(if $(JOBS),--jobs $(JOBS),)
	./_build/default/bench/main.exe --check-json BENCH_grid.json BENCH_lockrange.json BENCH_cache.json

# Regression sentinel: record fresh bench results into FRESH_DIR and
# re-judge them against the committed BENCH_*.json baselines with
# per-metric directions and tolerances (see lib/experiments/
# bench_compare.mli for the policy). Exits nonzero on any regression.
FRESH_DIR ?= _bench_fresh
bench-compare:
	dune build bench/main.exe
	mkdir -p $(FRESH_DIR)
	cd $(FRESH_DIR) && ../_build/default/bench/main.exe --only-bench $(if $(JOBS),--jobs $(JOBS),)
	./_build/default/bench/main.exe --fresh-dir $(FRESH_DIR) \
	  --compare BENCH_grid.json BENCH_lockrange.json BENCH_transient.json \
	  BENCH_cache.json BENCH_hb.json

# Run-health report from a solver trace recorded with
# `oshil ... --trace TRACE --events`.  Usage: make report TRACE=out/health.jsonl
TRACE ?= out/health.jsonl
report:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe stats report $(TRACE)

# Batch-run the shipped scenarios with the content-addressed cache on;
# run it twice to see the warm-cache speedup (`oshil stats` on the
# trace shows the cache.* counters).
batch:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe batch examples/scenarios --cache

# Cache correctness: cold, warm and cache-disabled runs must produce
# byte-identical batch reports, and the warm run must actually hit.
cache-smoke:
	dune build @cache-smoke

# Batch-kernel correctness: `oshil shil` must be byte-identical with
# the batch kernels disabled (OSHIL_NO_BATCH=1), and the harmonic
# counters must appear in the telemetry replay.
kernel-smoke:
	dune build @kernel-smoke

# Resident analysis daemon on a local Unix socket. Talk to it with
# `oshil call -c oshil.sock <op>`; SIGTERM/SIGINT drain gracefully
# (finish in-flight work, flush telemetry, exit 0). Override the
# address with ADDR=tcp:HOST:PORT or ADDR=unix:PATH.
ADDR ?= oshil.sock
serve:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe serve -l $(ADDR)

# Daemon end-to-end smoke: lifecycle, typed protocol errors, CLI/daemon
# byte-identity, serve-request fault injection, graceful drain.
serve-smoke:
	dune build @serve-smoke

# Harmonic-balance end-to-end smoke: CLI/daemon byte-identity on the hb
# op, solver counters on the trace, hb-newton fault ladder.
hb-smoke:
	dune build @hb-smoke

# Unit tests of the end-to-end benchmark's statistics and spread code
# (perfbench/test_*.py; stdlib Python only).
perfbench-test:
	python3 -m unittest discover -s perfbench -p 'test_*.py'

# Coverage (requires bisect_ppx, not part of the default environment):
#   opam install bisect_ppx
coverage:
	find . -name '*.coverage' -delete
	dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report summary --per-file

clean:
	dune clean
