# Convenience targets for the SCR reproduction.

.PHONY: install test lint typecheck advise bench bench-compare \
	bench-baseline bench-figures chaos profile report reproduce examples \
	telemetry-demo hotpath multitenant clean

install:
	python setup.py develop

test:
	pytest tests/

# SCR-safety static analysis (scrlint, rules SCR001-SCR006) plus the
# generic ruff gate.  ruff is optional locally (pip install -e '.[lint]');
# CI always runs it.
lint:
	PYTHONPATH=src python -m repro.cli lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

# Parallelization-technique advisor: static state-access facts + the
# Appendix A cost model, scored per program (see docs/ADVISOR.md).
advise:
	PYTHONPATH=src python -m repro.cli advise

# Perf-regression suite: writes schema-versioned BENCH_*.json artifacts
# (median + MAD over seeded reps) under results/bench.  Parallel workers
# plus the content-addressed trace cache keep repeat runs fast without
# changing a single number (see docs/BENCHMARKS.md).
bench:
	PYTHONPATH=src python -m repro.cli bench --out results/bench \
		--jobs 2 --cache-dir results/cache

# The suites with a committed baseline under benchmarks/baselines/.  A
# directory compare needs every baseline's counterpart, so bench-compare
# and bench-baseline both run exactly this list.
BASELINE_SUITES = fig6_scaling obs_overhead advisor_validation multitenant

# Run the quick suites that have a committed baseline and gate them
# against it (nonzero exit on a noise-significant throughput regression,
# any nonzero tracing overhead, a traced search over 8x the untraced one,
# or a lost advisor-vs-measurement agreement).
bench-compare:
	PYTHONPATH=src python -m repro.cli bench \
		$(foreach s,$(BASELINE_SUITES),--suite $(s)) \
		--jobs 2 --out results/bench
	PYTHONPATH=src python -m repro.cli bench \
		--compare benchmarks/baselines results/bench \
		--markdown results/bench/compare.md

# Refresh the committed baseline (do this deliberately, in its own commit,
# after a justified perf change — see docs/BENCHMARKS.md).
bench-baseline:
	PYTHONPATH=src python -m repro.cli bench \
		$(foreach s,$(BASELINE_SUITES),--suite $(s)) \
		--out benchmarks/baselines

# Fault-injection matrix (repro.faults): gap detection, checkpoint
# recovery, and MLFFR-vs-drop-rate, written as BENCH_chaos_recovery.json.
# Nonzero exit if any injected gap goes undetected (see docs/FAULTS.md).
chaos:
	PYTHONPATH=src python -m repro.cli chaos --out results/chaos --jobs 2

# Host wall-clock profile of the harness itself (repro.hostprof): phase
# Pareto on stdout, hostprof.json + profile.folded +
# profile.speedscope.json under results/hostprof.  Add --deep for
# cProfile/tracemalloc capture (see docs/PROFILING.md).
profile:
	PYTHONPATH=src python -m repro.cli profile --out results/hostprof

# Unified HTML dashboard over whatever telemetry/bench artifacts exist
# under results/ (drop-cause Pareto, span waterfalls, MLFFR curves, SLO
# table).  Byte-deterministic for the same inputs (see docs/OBSERVABILITY.md).
report:
	PYTHONPATH=src python -m repro.cli report results/telemetry-demo \
		results/bench/BENCH_fig6_scaling.json --out results/report.html

# Columnar hot path: the bit-exact parity gate against the scalar oracle
# (CI's hotpath-smoke job also checks the speedup floor — see
# docs/HOTPATH.md).
hotpath:
	PYTHONPATH=src python -m pytest -x -q tests/cpu/test_hotpath_parity.py \
		tests/cpu/test_chain.py tests/cpu/test_fault_parity.py \
		tests/cpu/test_coupled_parity.py tests/cpu/test_lowering_reference.py \
		tests/nic/test_rss.py

# Multi-tenant placement gate: the placement, state and traffic test
# packages (the hybrid's mice state lives in the cuckoo and sharded maps
# of tests/state; the suite's 10^6-flow traces come from traffic
# synthesis), then the
# multitenant suite (hybrid vs scr vs rss on zipf, 10^3..10^6 flows)
# against its committed baseline.  Simulated-time numbers, so the gate
# uses the default noise-aware tolerances (see docs/MULTITENANT.md).
multitenant:
	PYTHONPATH=src python -m pytest -x -q tests/placement tests/state tests/traffic
	PYTHONPATH=src python -m repro.cli bench --suite multitenant \
		--jobs 2 --out results/bench-multitenant
	PYTHONPATH=src python -m repro.cli bench \
		--compare benchmarks/baselines/BENCH_multitenant.json \
		results/bench-multitenant/BENCH_multitenant.json

# The paper-figure pytest benches (tables/figures with printed series).
bench-figures:
	pytest benchmarks/ --benchmark-only

# Full paper reproduction: every table/figure bench with printed series,
# results captured under results/.
reproduce:
	mkdir -p results
	pytest tests/ 2>&1 | tee results/test_output.txt
	pytest benchmarks/ --benchmark-only -s 2>&1 | tee results/bench_output.txt

# The paper-fidelity variant: sweep every core count (slower).
reproduce-full:
	mkdir -p results
	SCR_FULL_SWEEP=1 pytest benchmarks/ --benchmark-only -s 2>&1 | tee results/bench_output_full.txt

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# Instrumented Figure 6-style sweep -> results/telemetry-demo, then the
# summary (drop causes, latency percentiles, per-core attribution).
# Open results/telemetry-demo/trace.json in Perfetto for the timeline.
telemetry-demo:
	PYTHONPATH=src python -m repro.cli sweep --program ddos --workload caida \
		--techniques scr shared --cores 1 2 4 --packets 2000 \
		--telemetry results/telemetry-demo
	PYTHONPATH=src python -m repro.cli inspect results/telemetry-demo

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
