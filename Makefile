# Convenience targets for the repro library.

# Let every target work from a bare checkout (no `make install` needed).
export PYTHONPATH := src

.PHONY: install test test-chaos bench bench-json bench-service \
	bench-ratchet bench-e2e-check artifacts examples all clean lint \
	coverage-storage racecheck

install:
	python setup.py develop

test: lint coverage-storage
	pytest tests/

# Seeded fault-injection property suite (excluded from the default run by
# the `-m 'not chaos'` addopts; the explicit -m here overrides it).
test-chaos:
	pytest -m chaos tests/

# Enforce the per-package line-coverage floor over src/repro/storage and
# src/repro/service using the stdlib trace module (also runs the
# storage/service-facing test files).
coverage-storage:
	python tools/storage_coverage.py

# Static analysis: the full archlint rule set (ARCH001..ARCH013 -- broad
# excepts, dead imports, nondeterminism, non-constant-time secret compares,
# dynamic metric labels, mutable defaults / asserts, tier-registry bypass,
# zero-copy round-trips, import layering, secret-taint dataflow, error
# taxonomy, lock discipline, frozen plans) over every configured root,
# emitting the machine-readable
# archlint_report.json at the repo root.  Incremental via the content-hash
# cache (.archlint_cache.json, gitignored); pass --no-cache to force a
# cold run.  Policy lives in [tool.archlint] in pyproject.toml.
lint:
	PYTHONPATH=tools:$(PYTHONPATH) python -m archlint --format json --output archlint_report.json > /dev/null \
		|| { PYTHONPATH=tools:$(PYTHONPATH) python -m archlint; exit 1; }
	@echo "lint: OK (report: archlint_report.json)"

# Dynamic counterpart of the concurrency rules (ARCH012/ARCH013 in
# `lint`): barrier-synchronized seeded stress over the kernel, the
# plan/key caches, and the metrics registry, asserting byte-identical
# outputs at workers in {1,2,8} and exact metric counts; its coverage
# tables are cross-checked against ARCH012's static inventory so the two
# views cannot drift.
racecheck:
	python tools/racecheck.py

bench:
	pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's self-tests (about 2-3 min): every traced
# boundary must fire on its workloads, tracing must leave node contents
# unchanged, and traced counts must repeat exactly.  A program change that
# silences a boundary the benchmark times fails here, not at the next
# benchmark run.
bench-e2e-check:
	python3 -m pytest e2ebench -q

# Machine-readable throughput summary (BENCH_throughput.json at repo root):
# regenerate the throughput artifact, then summarize op -> MB/s + commit.
bench-json: bench-service
	pytest benchmarks/bench_throughput.py --benchmark-only -q
	python tools/bench_summary.py

# Deterministic service benchmark (BENCH_service.json at repo root): a
# seeded 100k-request zipfian replay through the archive service, reporting
# p50/p99/p999 latency and saturation throughput on simulated time.
# Byte-identical across same-seed runs (no date/commit fields).
bench-service:
	python tools/bench_service.py

# Benchmark ratchet: compare the current warm medians in
# BENCH_throughput.json against the best entry in its append-only history;
# fail on a >20% regression for any primitive.
bench-ratchet:
	python tools/bench_ratchet.py

# Regenerate the paper's three artifacts on stdout.
artifacts:
	python -m repro.analysis

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

all: install lint test test-chaos examples racecheck bench-e2e-check bench bench-json bench-ratchet artifacts

clean:
	rm -rf build src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
