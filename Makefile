# Convenience targets; everything assumes the in-repo source tree.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test fast-test test-stats docs-check spec-roundtrip experiments report bench serve-smoke service-leaks

test:            ## tier-1: the full pytest suite
	$(PYTHON) -m pytest -x -q

fast-test:       ## skip the slow training-loop tests
	$(PYTHON) -m pytest -x -q -m "not slow" tests

test-stats:      ## nightly deep tier: every slow_stats test (adaptive coverage replications, the deep chaos lockstep oracle)
	$(PYTHON) -m pytest -q -m slow_stats tests

docs-check:      ## registry <-> EXPERIMENTS.md <-> paper map <-> docs/api.md stay in sync
	$(PYTHON) -m pytest -q -m docs tests/test_docs.py

spec-roundtrip:  ## golden spec fixtures + CLI flag corpus round-trip (schema compatibility gate)
	$(PYTHON) -m pytest -q tests/test_spec_fixtures.py tests/test_cli_corpus.py

experiments:     ## run the experiment registry through the artifact pipeline
	$(PYTHON) -m repro run-all

report:          ## regenerate EXPERIMENTS.md from stored artifacts
	$(PYTHON) -m repro report

# The BENCHMARK.json workloads; `make bench` runs each once, untraced.
BENCH_WORKLOADS := campaign-crash-wide campaign-synapse chaos-fleet service-mixed

bench:           ## one 20-s untraced perfbench run of every workload (seed 1)
	for w in $(BENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

serve-smoke:     ## daemon round trip: stream, record bytes, cache, frame-memo resend, crash campaign, drain; child-process entry point
	$(PYTHON) benchmarks/serve_smoke.py

service-leaks:   ## service tests in dev mode: a leaked socket or file is a failure
	$(PYTHON) -X dev -m pytest -q tests/test_service.py -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning
