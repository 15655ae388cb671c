# Developer convenience targets for the repro library.

PYTHON ?= python

.PHONY: install native test verify bench serve-bench cluster-smoke strategy-smoke figures quick-figures report report-render claims clean

install:
	pip install -e . || $(PYTHON) setup.py develop

# Build the compiled kernel tier in place (requires cffi + a C
# compiler).  Not required: kernels also JIT-build into the user cache
# on first use, and fall back to the NumPy tier without either.
native:
	$(PYTHON) src/repro/native/_build.py
	PYTHONPATH=src $(PYTHON) -m repro.cli kernels --require native

test:
	$(PYTHON) -m pytest tests/

# Full gate: unit suite plus a parallel-execution smoke run, without
# needing an editable install (PYTHONPATH=src).
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m repro.cli fig2 --quick --jobs 2
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# End-to-end cluster fault drill: three loopback `repro worker`
# subprocesses, the quick report DAG over them, one worker SIGKILLed
# mid-run — must re-dispatch and stay byte-identical to serial.
cluster-smoke:
	PYTHONPATH=src $(PYTHON) tools/cluster_smoke.py

# Adaptive-strategy drill: fig2 with the adaptive + selective arms
# serial vs a 2-worker LocalCluster (byte-compared), then the operator
# `--strategy` flag path through the real CLI.
strategy-smoke:
	PYTHONPATH=src $(PYTHON) tools/strategy_smoke.py

# Serve load harness: concurrent-stream throughput/latency plus the
# chaos-kill/drain/restart churn phase, written under
# benchmarks/results/.  BENCH_ARGS=--quick for CI.
serve-bench:
	PYTHONPATH=src $(PYTHON) tools/load_serve.py $(BENCH_ARGS)

figures:
	$(PYTHON) -m repro.cli all --json results_full.json | tee results_full.txt

quick-figures:
	$(PYTHON) -m repro.cli all --quick

# One resumable DAG run over every experiment (docs/ORCHESTRATION.md);
# kill it anywhere and rerun with the same flags to pick up the frontier.
report:
	PYTHONPATH=src $(PYTHON) -m repro.cli report --resume --progress \
		--json results_full.json --out RESULTS.md

# Render an existing panels dump without recomputing anything.
report-render: results_full.json
	$(PYTHON) -m repro.cli report --from-json results_full.json --out RESULTS.md

claims: results_full.json
	$(PYTHON) -m repro.cli claims --json results_full.json

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
