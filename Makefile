# Convenience targets; everything assumes the in-repo source tree.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test fast-test test-stats docs-check spec-roundtrip experiments report bench serve-smoke

test:            ## tier-1: the full pytest suite
	$(PYTHON) -m pytest -x -q

fast-test:       ## skip the slow training-loop tests
	$(PYTHON) -m pytest -x -q -m "not slow" tests

test-stats:      ## nightly statistical-guarantee tier: seeded coverage replications
	$(PYTHON) -m pytest -q -m slow_stats tests/test_adaptive.py

docs-check:      ## registry <-> EXPERIMENTS.md <-> paper map <-> docs/api.md stay in sync
	$(PYTHON) -m pytest -q -m docs tests/test_docs.py

spec-roundtrip:  ## golden spec fixtures round-trip (schema compatibility gate)
	$(PYTHON) -m pytest -q tests/test_spec_fixtures.py

experiments:     ## run the experiment registry through the artifact pipeline
	$(PYTHON) -m repro run-all

report:          ## regenerate EXPERIMENTS.md from stored artifacts
	$(PYTHON) -m repro report

# The BENCHMARK.json workloads; `make bench` runs each once, untraced.
BENCH_WORKLOADS := campaign-crash-wide campaign-synapse chaos-fleet service-mixed

bench:           ## one 20-s untraced perfbench run of every workload (seed 1)
	for w in $(BENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

serve-smoke:     ## start the daemon, stream one campaign + a cached repeat, drain
	$(PYTHON) benchmarks/serve_smoke.py
