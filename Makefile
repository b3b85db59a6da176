# Canonical targets for the reproduction.

PYTHON ?= python
FAULT_RATE ?= 0.5

# run straight from the source tree; harmless when pip-installed
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test faults contracts obs engine ledger chaos golden serve serve-test bench-serve tabular-bench scale scale-bench regress engine-demo audit bench perfbench perfbench-trace bench-pairs examples artifact report trace profile verify-all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test: faults contracts engine
	$(PYTHON) -m pytest tests/

# resilience suite at an elevated, env-tunable fault rate
faults:
	REPRO_FAULT_RATE=$(FAULT_RATE) $(PYTHON) -m pytest tests/ -m faults

# data-contract suite (schemas, repair heuristics, integrity audit)
contracts:
	$(PYTHON) -m pytest tests/ -m contracts

# observability suite (trace spans, metrics registry, export formats)
obs:
	$(PYTHON) -m pytest tests/ -m obs

# stage-DAG engine suite (fingerprints, DAG ordering, artifact cache)
engine:
	$(PYTHON) -m pytest tests/ -m engine

# run-ledger suite (event log, run records, sentinel, dashboard, runs CLI)
ledger:
	$(PYTHON) -m pytest tests/ -m ledger

# byte-identity guards for stream-preserving rewrites (METHODOLOGY §17):
# pinned world and shard-dataset digests, pinned fingerprints and ledger
# bodies, pinned experiment artifact texts, and each rewritten hot path
# against a copy of its old body
golden:
	$(PYTHON) -m pytest tests/synth/test_world_golden.py tests/test_one_pipeline_golden.py tests/report/test_artifact_golden.py tests/test_fast_path_equivalence.py

# the analysis-as-a-service front door (Ctrl-C / SIGTERM drains gracefully)
serve:
	$(PYTHON) -m repro --cache-dir out/cache serve

# serving-layer suite (admission, deadlines, coalescing, ETags, drain)
serve-test:
	$(PYTHON) -m pytest tests/serve -m serve

# serving benchmark: warm/cold ratio, p50/p99, shed behaviour at 2x overload
bench-serve:
	$(PYTHON) -m pytest benchmarks/bench_serve.py --benchmark-only

# tabular kernel benchmark: factorized groupby/join/agg vs the legacy
# per-row loops; enforces the >=5x band at the 1e5-row scale
tabular-bench:
	$(PYTHON) -m pytest benchmarks/bench_tabular.py --benchmark-only

# sharded-scaling suite (shard plans, worker-count determinism,
# per-shard cache invalidation, committee-quorum floor)
scale:
	$(PYTHON) -m pytest tests/ -m scale

# sharded-scaling benchmark: a 36-shard 10^5-researcher universe end to
# end, plus the peak-RSS-vs-shard-count band (writes BENCH_scale.json)
scale-bench:
	$(PYTHON) -m pytest benchmarks/bench_scale.py --benchmark-only

# chaos suite: supervised execution under injected node/cache faults,
# quarantine/repair, and end-to-end heal-to-100% runs
chaos:
	$(PYTHON) -m pytest tests/engine tests/faults -m chaos

# the standing determinism check: two identical-seed ledgered runs must
# show zero scientific drift (the sentinel exits non-zero on any drifted
# cell; the generous timing threshold keeps machine noise out of it) --
# once on the monolithic path, once on the sharded one, and once as a
# cold/warm pair over one artifact cache (the warm run reads only what
# it needs from the cache), each pair in its own obs dir
regress:
	rm -rf out/regress out/regress-sharded out/regress-cached out/regress-cache
	$(PYTHON) -m repro --ledger --obs-dir out/regress --seed 7 --scale 0.25 run
	$(PYTHON) -m repro --ledger --obs-dir out/regress --seed 7 --scale 0.25 run
	$(PYTHON) -m repro --obs-dir out/regress runs diff
	$(PYTHON) -m repro --obs-dir out/regress runs regress --threshold 3.0
	$(PYTHON) -m repro --ledger --obs-dir out/regress-sharded --seed 7 --scale 0.25 --shards 4 run
	$(PYTHON) -m repro --ledger --obs-dir out/regress-sharded --seed 7 --scale 0.25 --shards 4 run
	$(PYTHON) -m repro --obs-dir out/regress-sharded runs diff
	$(PYTHON) -m repro --obs-dir out/regress-sharded runs regress --threshold 3.0
	$(PYTHON) -m repro --ledger --obs-dir out/regress-cached --cache-dir out/regress-cache --seed 7 --scale 0.25 run
	$(PYTHON) -m repro --ledger --obs-dir out/regress-cached --cache-dir out/regress-cache --seed 7 --scale 0.25 run
	$(PYTHON) -m repro --obs-dir out/regress-cached runs diff
	$(PYTHON) -m repro --obs-dir out/regress-cached runs regress --threshold 3.0

# cold run populates the artifact cache; the repeat run is served
# entirely from it (every stage line reports "(cache hit)")
engine-demo:
	$(PYTHON) -m repro --cache-dir out/cache run
	$(PYTHON) -m repro --cache-dir out/cache run

# strict end-to-end validation of the seed world: any contract
# violation or unbalanced conservation check exits non-zero
audit:
	$(PYTHON) -m repro --validate=strict run

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# the repository benchmark (BENCHMARK.json): end-to-end metrics of the
# paper, sharded and serve workloads; perfbench-trace prints the
# per-layer self times instead
perfbench:
	for w in paper sharded serve; do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; done

perfbench-trace:
	for w in paper sharded serve; do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 12 --trace 1 || exit 1; done

# alternating parent/working-tree pairs of one perfbench workload (seeds
# 1..PAIRS): each end-to-end metric's median [q1, q3] per side, the
# change/parent ratio and how many pairs the change read lower, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=paper PAIRS=10
PAIRS ?= 10
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS)

examples:
	for s in examples/*.py; do echo "== $$s"; $(PYTHON) $$s --help >/dev/null 2>&1 || true; done
	$(PYTHON) examples/quickstart.py --scale 0.25

artifact:
	$(PYTHON) -m repro export out/artifact

report:
	$(PYTHON) -m repro report --output out/report.md

# Chrome trace + deterministic metrics for one seeded run (chrome://tracing)
trace:
	$(PYTHON) -m repro --trace --metrics --obs-dir out/obs run

# per-stage cProfile top-N on stdout
profile:
	$(PYTHON) -m repro --profile run

verify-all: test bench
	$(PYTHON) examples/regenerate_paper.py > out/regenerate.txt

clean:
	rm -rf out benchmarks/output .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
