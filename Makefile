# Developer convenience targets.
#
# Every target that runs repo code sets PYTHONPATH=src so a plain checkout
# works without `pip install -e .` (matching the tier-1 verify command in
# ROADMAP.md).
PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast bench-compare perfbench report figures examples trace lint loc verify-contracts resilience restart-demo stability sanitize chaos soak service-soak serve serve-demo clean

install:
	pip install -e .

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/

# The quick inner-loop subset: skips the long end-to-end runs and the
# multi-rank thread-world tests (markers registered in pyproject.toml).
test-fast:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest tests/ -m "not slow and not distributed"

# A/B of two perfbench result files or directories (`python3 -m
# perfbench --out DIR` writes them), e.g. `make bench-compare
# A=perfbench/out/base B=perfbench/out/new`; exits 1 on a regression.
bench-compare:
	$(PYTHON) -m perfbench --compare $(A) $(B)

# The repo's benchmark (BENCHMARK.json; perfbench/README.md): converged,
# verified solves and service requests timed from outside, every
# end-to-end metric.  Exits non-zero if any op failed verification.
perfbench:
	$(PYTHON) -m perfbench --check

report:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main report --out results

examples:
	$(PYTHONPATH_SRC) $(PYTHON) examples/quickstart.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/solver_comparison.py 64
	$(PYTHONPATH_SRC) $(PYTHON) examples/deck_driven.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/communication_avoiding.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/fault_tolerance.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/scaling_study.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/service_demo.py

# Observability: trace the crooked-pipe CPPCG solve and write
# results/trace/trace.jsonl + trace.chrome.json (open the latter in
# chrome://tracing or ui.perfetto.dev; see docs/observability.md).
trace:
	@mkdir -p results
	$(PYTHONPATH_SRC) $(PYTHON) -c "from pathlib import Path; \
	from repro.physics.deck import CROOKED_PIPE_DECK; \
	Path('results/tea.in').write_text(CROOKED_PIPE_DECK.format(n=32))"
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main trace \
	    --deck results/tea.in --solver cppcg --out results/trace

# Static analysis: the comm-contract linter (rules RPR0xx, see
# docs/analysis.md) always runs; ruff/mypy run when installed
# (`pip install -e .[dev]` — unavailable offline).
lint:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipped (pip install -e .[dev])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipped (pip install -e .[dev])"; fi

# Source size, the ROADMAP north-star's "figure to push down": `wc -l`
# per src/repro package, then the solvers+comm+resilience total (8047
# before PR 13), the numerical core mesh+solvers+physics+kernels
# (6822 before PR 18 merged the 2-D and 3-D stacks) and the rank programs
# outside src/ (examples+benchmarks, 1566 before PR 19 put them on
# solve_on_ranks), and the C source of the compiled kernel bodies, which
# the `*.py` counts do not see.  Printed by the CI lint job on every PR.
loc:
	@for d in src/repro/*/; do \
	    printf '%7d  %s\n' $$(find $$d -name '*.py' | xargs cat | wc -l) $$d; done
	@printf '%7d  src/repro (all)\n' $$(find src/repro -name '*.py' | xargs cat | wc -l)
	@printf '%7d  solvers+comm+resilience\n' $$(find src/repro/solvers \
	    src/repro/comm src/repro/resilience -name '*.py' | xargs cat | wc -l)
	@printf '%7d  mesh+solvers+physics+kernels\n' $$(find src/repro/mesh \
	    src/repro/solvers src/repro/physics src/repro/kernels -name '*.py' \
	    | xargs cat | wc -l)
	@printf '%7d  examples+benchmarks\n' $$(cat examples/*.py benchmarks/*.py \
	    | wc -l)
	@printf '%7d  src/repro *.c\n' $$(find src/repro -name '*.c' | xargs cat \
	    | wc -l)

# Dynamic contract verification: run each solver under InstrumentedComm and
# cross-check measured per-iteration comm counts against its COMM_CONTRACT.
verify-contracts:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --verify-only

# Resilience: sweep injected fault rate x solver through the deterministic
# fault-injection stack (docs/resilience.md; exits non-zero when any
# configuration fails to converge), then re-verify the comm contracts with
# the resilient stack in place (faults disabled) and again with the
# checksummed-envelope + durable-checkpoint stack.
resilience:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main resilience
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --verify-only --verify-resilience
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --verify-only --verify-integrity

# Durable checkpoint/restart end to end: run the crooked pipe with
# checkpointing on, simulate a crash that loses everything after the
# mid-run checkpoint, resume from disk with `repro restart`, and check
# the resumed field is bit-identical to the uninterrupted run
# (docs/resilience.md, "Checkpoint/restart & rank loss").
restart-demo:
	@rm -rf results/restart-demo && mkdir -p results/restart-demo
	$(PYTHONPATH_SRC) $(PYTHON) -c "from pathlib import Path; \
	from repro.physics.deck import CROOKED_PIPE_DECK; \
	Path('results/restart-demo/tea.in').write_text(CROOKED_PIPE_DECK.format(n=24))"
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main tealeaf \
	    --deck results/restart-demo/tea.in --ranks 2 --steps 4 \
	    --checkpoint-dir results/restart-demo/ck --checkpoint-interval 2 \
	    --out results/restart-demo/full.npy
	@echo "--- simulating a crash: dropping the in-memory state and the post-crash checkpoint ---"
	rm -rf results/restart-demo/ck/step-000004
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main restart \
	    --from results/restart-demo/ck --out results/restart-demo/resumed.npy
	$(PYTHONPATH_SRC) $(PYTHON) -c "import numpy as np; \
	full = np.load('results/restart-demo/full.npy'); \
	resumed = np.load('results/restart-demo/resumed.npy'); \
	assert np.array_equal(full, resumed), 'restart drifted from the uninterrupted run'; \
	print('restart is bit-identical to the uninterrupted run')"

# SPMD sanitizer (docs/analysis.md, "SPMD sanitizer"): the static rules
# RPR009-RPR011 over the library *and* the test-suite's rank programs,
# then re-prove every COMM_CONTRACT with the runtime sanitizer stacked
# outermost over the full resilience + integrity stack.
sanitize:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis src/repro tests \
	    --select RPR009,RPR010,RPR011
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.analysis --verify-only --verify-sanitize

# Numerical stability: sweep the ill-conditioned crooked-pipe battery
# across solver x working-dtype x matrix-powers depth, unprotected vs
# protected by the repro.numerics stack (docs/numerics.md; exits non-zero
# when any protected cell misses tolerance without a diagnosis).
stability:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main stability --n 16

# Chaos campaign (docs/resilience.md, "Chaos campaigns"): a pinned-seed
# storm of randomized fault plans against the *composed* resilient stack,
# every trial checked against the differential/accounting/durability
# oracle; writes results/chaos/CHAOS_<n>.json (the recovery-SLO ledger)
# and minimized fixtures for any failure.  Exits non-zero on any oracle
# or budget violation.
chaos:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main chaos \
	    --trials 200 --out results/chaos

# Soak: periodic fault storms plus kill/restart cycles on the mini-app;
# the final field must stay bit-identical to one uninterrupted fault-free
# run.  Writes results/soak/SOAK_<n>.json.
soak:
	@rm -rf results/soak
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main soak \
	    --cycles 3 --ranks 2 --out results/soak

# Service durability soak (docs/service.md, "Durability & crash
# recovery"): SIGKILL the journaled engine at seeded points mid-campaign
# (some kills land mid-frame, tearing the journal tail), restart and
# replay until the campaign completes, then verify against an
# uninterrupted same-seed run — zero lost acknowledgements, zero
# duplicate solves for journaled idempotency keys, oracle-clean results,
# byte-identical outcomes/journal/ledger.  Exits non-zero on any
# violation.  Writes results/service-soak/SOAK_SERVICE_<n>.json.
service-soak:
	@rm -rf results/service-soak
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main service-soak \
	    --seed 424243 --kill-seed 7 --requests 30 \
	    --out results/service-soak

# Multi-tenant solve service (docs/service.md): deterministic virtual-
# clock load sweep — mixed tenants/solvers/deadlines/cancels under a
# seeded chaos storm, every request ending in a classified terminal
# status and every served solution checked against the differential
# oracle.  Writes results/service/SERVICE_<n>.json; exits non-zero on
# any SLO or oracle violation.
serve:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main serve \
	    --requests 200 --out results/service

# Self-checking service demo: a short sweep (the determinism, zero-hang
# and classification gates all enforced by its exit code) plus the
# real-time asyncio front-end smoke.
serve-demo:
	@rm -rf results/serve-demo
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main serve \
	    --requests 60 --out results/serve-demo
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli.main serve --demo

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
