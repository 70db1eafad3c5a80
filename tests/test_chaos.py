"""Chaos campaign engine: plans, oracle, determinism, shrinker, soak.

The expensive acceptance runs (two byte-compared 200-trial campaigns,
``make chaos``) live in CI; here the same invariants are held on smaller
pinned-seed campaigns so the suite stays fast.
"""

import json
from pathlib import Path

import pytest

from repro.harness.ledger import to_json
from repro.observe import MetricsRegistry, record_chaos_metrics
from repro.resilience import FaultPlan
from repro.resilience.chaos import (
    CAMPAIGN_SOLVERS,
    DEFAULT_BUDGETS,
    FAULT_CLASSES,
    GoldenCache,
    TrialSpec,
    campaign_specs,
    known_bad_spec,
    load_fixture,
    minimize_and_write_fixture,
    plan_classes,
    random_fault_plan,
    replay_fixture,
    run_campaign,
    run_soak,
    run_trial,
    shrink_plan,
    spec_from_dict,
    spec_to_dict,
    transparent,
)
from repro.utils.errors import ConfigurationError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chaos"


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = random_fault_plan(7, 3, size=2, solver="cg", max_attempts=5)
        b = random_fault_plan(7, 3, size=2, solver="cg", max_attempts=5)
        assert a == b

    def test_different_trials_differ(self):
        plans = {random_fault_plan(7, t, size=1, solver="cg",
                                   max_attempts=5)
                 for t in range(20)}
        assert len(plans) > 1

    def test_classes_cover_taxonomy(self):
        seen: set = set()
        for t in range(120):
            plan = random_fault_plan(7, t, size=2, solver="cg",
                                     max_attempts=5, allow_drops=(t % 9 == 0),
                                     fatal_crash=(t % 11 == 0))
            seen.update(plan_classes(plan))
        # random plans always inject something; "none" is the control
        # trials' class (disabled plan)
        assert seen == set(FAULT_CLASSES) - {"none"}
        assert plan_classes(FaultPlan.disabled()) == ("none",)

    def test_transparent_means_no_corruption_or_crash(self):
        for t in range(60):
            plan = random_fault_plan(7, t, size=1, solver="cg",
                                     max_attempts=5)
            if transparent(plan):
                assert not plan.crashes
                assert all(r.mode in ("error", "delay") for r in plan.rules)

    def test_round_trips_as_json(self):
        for t in range(30):
            plan = random_fault_plan(5, t, size=2, solver="ppcg",
                                     max_attempts=5, allow_drops=True,
                                     fatal_crash=(t % 4 == 0))
            assert FaultPlan.from_dict(
                json.loads(json.dumps(plan.to_dict()))) == plan


class TestCampaignSpecs:
    def test_schedule_is_deterministic(self):
        a = campaign_specs(1234, 60, n=12)
        b = campaign_specs(1234, 60, n=12)
        assert a == b

    def test_schedule_mixes_trial_kinds(self):
        specs = campaign_specs(1234, 100, n=12)
        kinds = {s.kind for s in specs}
        assert kinds == {"solve", "recover", "sim"}
        assert any(s.size > 1 for s in specs)
        assert any(s.options.integrity for s in specs)
        assert any(not s.plan.active() for s in specs)  # controls

    def test_covers_all_solvers(self):
        specs = campaign_specs(1234, 40, n=12)
        assert {s.solver for s in specs} \
            == {name for name, _ in CAMPAIGN_SOLVERS}

    def test_invalid_kind_rejected(self):
        from repro.solvers import SolverOptions
        with pytest.raises(ConfigurationError):
            TrialSpec(index=0, kind="meltdown", solver="cg",
                      options=SolverOptions(solver="cg"),
                      plan=FaultPlan.disabled(), n=12)

    def test_spec_round_trips(self):
        for spec in campaign_specs(1234, 25, n=12):
            assert spec_from_dict(spec_to_dict(spec)) == spec


class TestTrialOracle:
    def test_control_trial_matches_golden_exactly(self, tmp_path):
        spec = next(s for s in campaign_specs(1234, 30, n=12)
                    if not s.plan.active())
        result = run_trial(spec, GoldenCache(), workdir=tmp_path)
        assert result.outcome == "converged"
        assert result.violations == []
        assert result.iterations == result.golden_iterations
        assert result.faults == 0 and result.retries == 0

    def test_known_bad_trial_is_caught(self, tmp_path):
        result = run_trial(known_bad_spec(), GoldenCache(),
                           workdir=tmp_path)
        assert result.outcome == "converged"  # the solve *claims* success
        assert any("true-residual" in v for v in result.violations)


@pytest.mark.slow
class TestCampaignDeterminism:
    TRIALS = 60

    def test_two_runs_byte_identical_and_passing(self, tmp_path):
        ledgers = []
        for run in range(2):
            result = run_campaign(trials=self.TRIALS,
                                  workdir=tmp_path / f"run{run}")
            assert result.passed, (result.oracle_violations,
                                   result.budget_violations())
            ledgers.append(to_json(result.as_dict()))
        assert ledgers[0] == ledgers[1]

    def test_ledger_shape(self, tmp_path):
        result = run_campaign(trials=25, workdir=tmp_path)
        data = json.loads(to_json(result.as_dict()))
        assert data["schema"] == "repro.chaos/v1"
        assert data["trials"] == 25
        assert len(data["trial_rows"]) == 25
        assert set(data["classes"]) <= set(FAULT_CLASSES)
        for row in data["trial_rows"]:
            assert {"trial", "kind", "solver", "outcome", "iterations",
                    "violations"} <= set(row)

    def test_budget_violation_fails_campaign(self, tmp_path):
        tight = {cls: dict(b) for cls, b in DEFAULT_BUDGETS.items()}
        tight["transient"] = {"min_recovery_rate": 1.01}  # unattainable
        result = run_campaign(trials=25, budgets=tight, workdir=tmp_path)
        assert not result.passed and result.exit_code == 1
        assert any("transient" in v for v in result.budget_violations())


class TestShrinker:
    def test_minimizes_known_bad_to_at_most_two_rules(self, tmp_path):
        spec = known_bad_spec()
        path = minimize_and_write_fixture(spec, GoldenCache(), tmp_path,
                                          workdir=tmp_path / "wk")
        fixture = load_fixture(path)
        assert len(fixture.plan.rules) + len(fixture.plan.crashes) <= 2
        replayed = replay_fixture(path)
        assert replayed.violations, "minimized plan must still reproduce"

    def test_shrink_requires_failing_input(self):
        plan = known_bad_spec().plan
        with pytest.raises(ConfigurationError):
            shrink_plan(plan, lambda p: False)

    def test_shrink_result_is_one_minimal(self, tmp_path):
        # failing iff the corrupt_scale rule survives: ddmin must strip
        # the two decoys and keep exactly the culprit
        plan = known_bad_spec().plan
        minimal = shrink_plan(
            plan, lambda p: any(r.mode == "corrupt_scale" for r in p.rules))
        assert len(minimal.rules) == 1
        assert minimal.rules[0].mode == "corrupt_scale"


class TestCommittedFixture:
    """The regression fixture the shrinker wrote stays reproducing."""

    FIXTURE = FIXTURES / "chaos-seed99-trial0000.json"

    def test_fixture_exists_and_is_minimal(self):
        spec = load_fixture(self.FIXTURE)
        assert len(spec.plan.rules) + len(spec.plan.crashes) <= 2

    def test_fixture_still_reproduces(self):
        result = replay_fixture(self.FIXTURE)
        recorded = json.loads(
            self.FIXTURE.read_text(encoding="utf-8"))["violations"]
        assert result.violations == recorded


@pytest.mark.slow
class TestSoak:
    def test_soak_is_bit_identical_and_restores(self, tmp_path):
        report = run_soak(cycles=2, steps_per_cycle=2, n=16, nranks=1,
                          checkpoint_root=tmp_path / "ck")
        assert report.passed, report.violations
        assert report.bit_identical
        assert report.cycles[0].restored_step == -1
        assert report.cycles[1].restored_step == 2
        assert any(c.faults for c in report.cycles)


class TestHarnessAndMetrics:
    def test_ledger_writer_scans_next_index(self, tmp_path):
        from repro.harness.ledger import next_ledger_path, write_ledger
        result = run_campaign(trials=5, workdir=tmp_path / "wk")
        assert next_ledger_path(tmp_path, "CHAOS").name == "CHAOS_0.json"
        first = write_ledger(result.as_dict(), tmp_path, "CHAOS")
        assert first.name == "CHAOS_0.json"
        second = write_ledger(result.as_dict(), tmp_path, "CHAOS")
        assert second.name == "CHAOS_1.json"
        assert json.loads(first.read_text())["schema"] == "repro.chaos/v1"

    def test_render_marks_pass(self, tmp_path):
        from repro.harness.chaos_sweep import render
        result = run_campaign(trials=5, workdir=tmp_path)
        out = render(result)
        assert "chaos campaign" in out and out.endswith("PASS")

    def test_chaos_metrics_mirror_class_stats(self, tmp_path):
        result = run_campaign(trials=10, workdir=tmp_path)
        registry = MetricsRegistry()
        record_chaos_metrics(registry, result)
        snap = registry.snapshot()
        assert snap["counters"]["chaos.trials"] == 10
        assert snap["gauges"]["chaos.passed"] == 1.0
        for cls, s in result.class_stats().items():
            assert snap["counters"][f"chaos.converged.{cls}"] \
                == s["converged"]
            assert snap["gauges"][f"chaos.recovery_rate.{cls}"] \
                == s["recovery_rate"]


@pytest.mark.slow
class TestCli:
    def test_chaos_cli_exits_zero(self, tmp_path, capsys):
        from repro.cli.main import main
        code = main(["chaos", "--trials", "10",
                     "--out", str(tmp_path / "chaos")])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "chaos" / "CHAOS_0.json").exists()
        assert "PASS" in out

    def test_soak_cli_exits_zero(self, tmp_path, capsys):
        from repro.cli.main import main
        code = main(["soak", "--cycles", "2", "--ranks", "1",
                     "--out", str(tmp_path / "soak")])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "soak" / "SOAK_0.json").exists()
        assert "bit-identical to fault-free: True" in out
