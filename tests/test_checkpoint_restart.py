"""Durable checkpoint/restart, rank-loss recovery and integrity-layer tests.

Covers the resilience v2 surface: atomic CRC-validated shards and
collectively committed checkpoint directories, kill-and-restart
bit-identity (with trace-invariant span counts under a virtual clock),
ULFM-style shrink/respawn recovery from fatal crash windows, the
checksummed-envelope communication layer, and the knobs that configure
them (SolverOptions and the deck dialect).
"""

import json

import numpy as np
import pytest

from repro.comm import RECOVERY_KIND, SerialComm, launch_spmd
from repro.mesh import Grid3D
from repro.observe import Tracer
from repro.physics import crooked_duct_3d
from repro.physics.deck import parse_deck_text
from repro.physics.simulation import restart_simulation, run_simulation
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    CheckpointWarning,
    ChecksumComm,
    CrashWindow,
    FaultPlan,
    FaultRule,
    SolverCheckpointStore,
    VirtualClock,
    build_resilient_comm,
    commit_checkpoint,
    latest_checkpoint,
    load_rank_checkpoint,
    load_shard,
    read_manifest,
    run_recoverable,
    run_resilient,
    validate_checkpoint,
    write_shard,
)
from repro.resilience.checkpoint import META_KEY
from repro.resilience.integrity import CHANNEL_OFFSET
from repro.solvers import SolverOptions
from repro.testing import crooked_pipe_system
from repro.utils import EventLog
from repro.utils.errors import (
    CheckpointError,
    ChecksumError,
    CommunicationError,
    ConfigurationError,
    TransientCommError,
)

CG_GUARDED = SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                           guard_interval=5)


# -- shards and checkpoint directories ----------------------------------------


class TestShards:
    def test_roundtrip_arrays_and_scalars(self, tmp_path):
        path = tmp_path / "shard.npz"
        u = np.arange(12.0).reshape(3, 4)
        meta = write_shard(path, {"u": u},
                           {"time": 1.5, "it": np.int64(3)})
        assert meta["schema"] == CHECKPOINT_SCHEMA
        arrays, scalars = load_shard(path)
        assert np.array_equal(arrays["u"], u)
        assert scalars == {"time": 1.5, "it": 3}
        # atomic write leaves no temp files behind
        assert [f for f in path.parent.iterdir() if ".tmp" in f.name] == []

    def test_crc_detects_tampered_array(self, tmp_path):
        path = tmp_path / "shard.npz"
        write_shard(path, {"u": np.arange(6.0)}, {})
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz[META_KEY]))
            u = npz["u"].copy()
        u[3] += 1e-9  # silent single-element corruption, valid zip
        np.savez(path, **{META_KEY: np.array(json.dumps(meta)), "u": u})
        with pytest.raises(CheckpointError, match="crc|CRC"):
            load_shard(path)

    def test_torn_file_rejected(self, tmp_path):
        path = tmp_path / "shard.npz"
        write_shard(path, {"u": np.arange(64.0)}, {})
        with open(path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(CheckpointError):
            load_shard(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "not-a-shard.npz"
        np.savez(path, u=np.arange(3.0))
        with pytest.raises(CheckpointError):
            load_shard(path)


class TestCommitAndLatest:
    def test_commit_then_latest(self, tmp_path):
        comm = SerialComm()
        for step in (1, 2):
            commit_checkpoint(tmp_path, step, comm,
                             {"u": np.full((2, 2), float(step))},
                             {"time": 0.1 * step, "step_index": step},
                             config={"n_steps": 4})
        # an uncommitted pending directory must be invisible
        (tmp_path / ".pending-step-000009").mkdir()
        (tmp_path / "step-000007").mkdir()  # committed dir without manifest
        latest = latest_checkpoint(tmp_path)
        assert latest is not None and latest.name == "step-000002"
        manifest = read_manifest(latest)
        assert manifest["step"] == 2
        assert manifest["nranks"] == 1
        assert manifest["config"] == {"n_steps": 4}
        arrays, scalars, loaded_manifest = load_rank_checkpoint(latest, 0, 1)
        assert np.array_equal(arrays["u"], np.full((2, 2), 2.0))
        assert scalars["step_index"] == 2
        assert loaded_manifest["step"] == 2

    def test_empty_root_has_no_checkpoint(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "nowhere") is None

    def test_world_size_mismatch_rejected(self, tmp_path):
        commit_checkpoint(tmp_path, 1, SerialComm(),
                         {"u": np.zeros(2)}, {"time": 0.0})
        step_dir = latest_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="rank"):
            load_rank_checkpoint(step_dir, 0, 4)


class TestCheckpointLoadFuzz:
    """Seeded corruption of committed checkpoints: discovery must skip to
    the last valid step with a :class:`CheckpointWarning`, never leak a
    raw ``zipfile``/``KeyError``, and never serve damaged state."""

    def _commit(self, root, steps=3):
        for step in range(1, steps + 1):
            commit_checkpoint(root, step, SerialComm(),
                              {"u": np.full(6, float(step))},
                              {"time": 0.1 * step, "step_index": step})

    @staticmethod
    def _shards(step_dir):
        return sorted(step_dir.glob("shard-*.npz"))

    def _corrupt(self, rng, step_dir):
        """One seeded corruption; returns a description of what it did."""
        mode = rng.choice(["truncate", "bitflip", "drop_shard",
                           "garbage_manifest", "drop_manifest"])
        shard = rng.choice(self._shards(step_dir))
        if mode == "truncate":
            size = shard.stat().st_size
            with open(shard, "r+b") as fh:
                fh.truncate(rng.randrange(1, size))
        elif mode == "bitflip":
            data = bytearray(shard.read_bytes())
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            shard.write_bytes(bytes(data))
        elif mode == "drop_shard":
            shard.unlink()
        elif mode == "garbage_manifest":
            (step_dir / "manifest.json").write_text("{not json", "utf-8")
        else:
            (step_dir / "manifest.json").unlink()
        return mode

    def test_damaged_newest_degrades_to_previous_step(self, tmp_path):
        import random

        for seed in range(8):
            rng = random.Random(seed)
            root = tmp_path / f"seed-{seed}"
            self._commit(root)
            mode = self._corrupt(rng, root / "step-000003")
            if mode == "drop_manifest":
                # No manifest means "not a committed checkpoint": skipped
                # silently (same as a torn .pending commit), no warning.
                latest = latest_checkpoint(root)
            else:
                with pytest.warns(CheckpointWarning, match="step-000003"):
                    latest = latest_checkpoint(root)
            assert latest is not None and latest.name == "step-000002", mode
            arrays, _, _ = load_rank_checkpoint(latest, 0, 1)
            assert np.array_equal(arrays["u"], np.full(6, 2.0))

    def test_every_step_damaged_yields_none(self, tmp_path):
        import random

        rng = random.Random(99)
        self._commit(tmp_path, steps=2)
        for step in ("step-000001", "step-000002"):
            data = bytearray(self._shards(tmp_path / step)[0].read_bytes())
            data[rng.randrange(len(data))] ^= 0xFF
            (self._shards(tmp_path / step)[0]).write_bytes(bytes(data))
        with pytest.warns(CheckpointWarning):
            assert latest_checkpoint(tmp_path) is None

    def test_validate_checkpoint_never_leaks_raw_errors(self, tmp_path):
        import random

        for seed in range(12):
            rng = random.Random(1000 + seed)
            root = tmp_path / f"seed-{seed}"
            self._commit(root, steps=1)
            step_dir = root / "step-000001"
            self._corrupt(rng, step_dir)
            with pytest.raises(CheckpointError):
                validate_checkpoint(step_dir)


class TestSolverCheckpointStore:
    def test_roundtrip_and_missing(self, tmp_path):
        store = SolverCheckpointStore(tmp_path, rank=0)
        assert store.load() is None
        store.save(25, {"x": np.arange(4.0)}, {"res_norm": 1e-3})
        loaded = store.load()
        assert loaded is not None
        iteration, arrays, scalars = loaded
        assert iteration == 25
        assert np.array_equal(arrays["x"], np.arange(4.0))
        assert scalars["res_norm"] == 1e-3

    def test_cg_resumes_bit_identically_from_a_guard_shard(self, tmp_path):
        """A CG killed after its iteration-20 checkpoint continues from
        the shard exactly as the uninterrupted run does: the shard holds
        what ``CGState.snapshot`` saved and ``resume_state`` goes through
        the same ``restore`` a guard rollback uses (pinned before PR 13)."""
        from repro.mesh import Field
        from repro.resilience import SolverGuard
        from repro.solvers import Defences, cg_solve
        from tests.helpers import history_sha, serial_operator

        g, kx, ky, bg = crooked_pipe_system(16)

        def system():
            op = serial_operator(g, kx, ky)
            return op, Field.from_global(op.tile, 1, bg)

        full = cg_solve(*system(), eps=1e-10, max_iters=200)
        store = SolverCheckpointStore(tmp_path, rank=0)
        killed = cg_solve(*system(), eps=1e-10, max_iters=23,
                          defences=Defences(guard=SolverGuard(
                              checkpoint_interval=5, store=store)))
        assert not killed.converged
        iteration, arrays, scalars = store.load()
        assert iteration == 20 and sorted(arrays) == ["p", "r", "x"]
        resumed = cg_solve(*system(), eps=1e-10, max_iters=200,
                           resume_state={"iteration": iteration,
                                         "arrays": arrays,
                                         "scalars": scalars})
        assert resumed.converged
        assert resumed.iterations == full.iterations == 28
        assert np.array_equal(resumed.x.data, full.x.data)
        assert resumed.history == full.history[20:]
        assert history_sha(resumed.history) == "15b0ef37d18cdff3"
        assert history_sha(full.history) == "a39adf6d8124b9fe"


# -- kill-and-restart ---------------------------------------------------------


def _tracer_factory(rank):
    return Tracer(clock=VirtualClock(tick=1e-6), rank=rank)


@pytest.mark.distributed
class TestKillAndRestart:
    def test_restart_is_bit_identical_with_invariant_spans(self, tmp_path):
        from repro.physics.deck import crooked_pipe_deck, deck_to_problem
        deck = crooked_pipe_deck(16)
        # one driver steps both: the 16^2 deck and the 12^3 crooked duct
        # (whose manifest must bring back a Grid3D and six-bound boxes)
        for name, grid, problem in (
                ("pipe", deck.grid, deck_to_problem(deck)),
                ("duct", Grid3D(12, 12, 12), crooked_duct_3d())):
            self.check_restart(tmp_path / name, grid, problem,
                               dt=deck.initial_timestep,
                               conductivity=deck.tl_coefficient)

    def check_restart(self, root, grid, problem, **kwargs):
        options = SolverOptions(solver="ppcg", eps=1e-10, max_iters=200,
                                ppcg_inner_steps=4, eigen_warmup_iters=10)
        kwargs.update(nranks=2, tracer_factory=_tracer_factory)

        full = run_simulation(grid, problem, options, n_steps=4, **kwargs)

        # run half the steps with durable checkpointing, then "crash":
        # every in-memory object goes out of scope, only the disk survives
        interrupted = run_simulation(
            grid, problem, options, n_steps=2,
            checkpoint_dir=root, checkpoint_interval=2, total_steps=4,
            **kwargs)
        del problem, options

        resumed = restart_simulation(root, tracer_factory=_tracer_factory)

        assert resumed.grid == grid
        assert len(resumed.steps) == 2
        assert resumed.steps[-1].step == 4
        assert np.array_equal(full.temperature, resumed.temperature)

        # trace invariants: one solve span per step on every rank, and the
        # interrupted + resumed halves partition the uninterrupted run
        for rank in range(2):
            assert full.tracers[rank].count("solve") == 4
            assert interrupted.tracers[rank].count("solve") \
                + resumed.tracers[rank].count("solve") == 4
            # the durable commit and the restore are traced on every rank
            assert interrupted.tracers[rank].count(
                "checkpoint", "simulation") == 1
            assert resumed.tracers[rank].count("recover", "simulation") == 1

        # checkpoint traffic (commit barriers/gathers) is bookkept under
        # RECOVERY_KIND, not as first-attempt solver communication
        assert interrupted.events.count_kind(RECOVERY_KIND) > 0

    def test_restart_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no committed checkpoint"):
            restart_simulation(tmp_path)

    def test_restart_after_finish_raises(self, tmp_path):
        from repro.physics.deck import crooked_pipe_deck, deck_to_problem
        deck = crooked_pipe_deck(12)
        run_simulation(deck.grid, deck_to_problem(deck),
                       SolverOptions(solver="cg"), dt=deck.initial_timestep,
                       n_steps=2, nranks=1, checkpoint_dir=tmp_path,
                       checkpoint_interval=2)
        with pytest.raises(CheckpointError, match="nothing left"):
            restart_simulation(tmp_path)

    def test_restart_refuses_a_removed_option_by_name(self, tmp_path):
        """A manifest whose options carry a key that is no field — the
        kernel backend an older run recorded — is refused with a
        ``ConfigurationError`` naming the key, not resumed."""
        from repro.physics.deck import crooked_pipe_deck, deck_to_problem
        deck = crooked_pipe_deck(12)
        run_simulation(deck.grid, deck_to_problem(deck),
                       SolverOptions(solver="cg"), dt=deck.initial_timestep,
                       n_steps=4, nranks=1, checkpoint_dir=tmp_path,
                       checkpoint_interval=2)
        path = latest_checkpoint(tmp_path) / "manifest.json"
        manifest = json.loads(path.read_text("utf-8"))
        manifest["config"]["options"]["kernel_backend"] = "numpy"
        path.write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(ConfigurationError, match="'kernel_backend'"):
            restart_simulation(tmp_path, extra_steps=1)


# -- rank-loss recovery -------------------------------------------------------


#: Crash window longer than the retry budget: rank 1 dies for 10 straight
#: operation slots starting at op 40 — every retry lands inside the window,
#: so the attempt escalates to CommunicationError and recovery must respawn.
FATAL_PLAN = FaultPlan(seed=3, crashes=(
    CrashWindow(rank=1, start=40, length=10),))


@pytest.mark.distributed
class TestRankLossRecovery:
    def test_fatal_window_triggers_respawn_and_converges(self, tmp_path):
        report = run_recoverable(CG_GUARDED, FATAL_PLAN, n=24, size=2,
                                 checkpoint_dir=tmp_path, max_attempts=5)
        assert report.converged
        assert report.recoveries == 1
        (event,) = report.recovery_events
        assert event.failed_rank == 1
        assert event.window_start == 40
        assert report.resumed_iteration >= 0  # respawn resumed from a shard

    def test_recovery_budget_spent_reraises(self, tmp_path):
        with pytest.raises(CommunicationError):
            run_recoverable(CG_GUARDED, FATAL_PLAN, n=24, size=2,
                            checkpoint_dir=tmp_path, max_attempts=5,
                            max_recoveries=0)

    def test_survivable_window_needs_no_recovery(self, tmp_path):
        plan = FaultPlan(seed=3, crashes=(
            CrashWindow(rank=1, start=40, length=2),))
        report = run_recoverable(CG_GUARDED, plan, n=24, size=2,
                                 checkpoint_dir=tmp_path, max_attempts=5)
        assert report.converged and report.recoveries == 0


# -- integrity layer ----------------------------------------------------------


class _MailboxComm:
    """Single-rank loopback transport with per-tag FIFO mailboxes."""

    rank = 0
    size = 1

    def __init__(self):
        self.boxes = {}

    def send(self, obj, dest, tag=0):
        self.boxes.setdefault(tag, []).append(obj)

    def recv(self, source, tag=0, timeout=None):
        return self.boxes[tag].pop(0)

    def allreduce(self, value, op="sum"):
        return value

    def bcast(self, obj, root=0):
        return obj

    def gather(self, obj, root=0):
        return [obj]

    def allgather(self, obj):
        return [obj]

    def barrier(self):
        pass


class _CorruptingMailbox(_MailboxComm):
    """Deterministically corrupts frames on chosen copy channels."""

    def __init__(self, bad_channels):
        super().__init__()
        self.bad_channels = bad_channels  # k -> corrupt copy k

    def send(self, obj, dest, tag=0):
        if tag // CHANNEL_OFFSET in self.bad_channels \
                and isinstance(obj, np.ndarray):
            obj = obj.copy()
            obj[-2] += 1.0  # flip a data element; the CRC no longer matches
        super().send(obj, dest, tag)


class TestChecksumComm:
    def test_clean_p2p_roundtrip(self):
        comm = ChecksumComm(_MailboxComm())
        payload = np.arange(6.0).reshape(2, 3)
        comm.send(payload, 0, tag=5)
        out = comm.recv(0, tag=5)
        assert np.array_equal(out, payload)
        assert comm.detections == 0 and comm.repairs == 0

    def test_corrupted_copy_repaired_by_redundancy(self):
        log = EventLog()
        comm = ChecksumComm(_CorruptingMailbox({0}), events=log)
        payload = np.arange(6.0)
        comm.send(payload, 0, tag=5)
        out = comm.recv(0, tag=5)
        assert np.array_equal(out, payload)  # copy 1 outvoted the bad copy 0
        assert comm.detections == 1 and comm.repairs == 1
        assert log.count("integrity", "detect") == 1
        assert log.count("integrity", "repair") == 1

    def test_all_copies_corrupted_raises_retryable(self):
        comm = ChecksumComm(_CorruptingMailbox({0, 1}))
        comm.send(np.arange(6.0), 0, tag=5)
        with pytest.raises(ChecksumError) as excinfo:
            comm.recv(0, tag=5)
        assert isinstance(excinfo.value, TransientCommError)

    def test_scalar_and_raw_payloads_roundtrip(self):
        comm = ChecksumComm(_MailboxComm())
        comm.send(2.5, 0, tag=1)
        comm.send(("meta", 7), 0, tag=1)  # not framable: raw sentinel
        assert comm.recv(0, tag=1) == 2.5
        assert comm.recv(0, tag=1) == ("meta", 7)

    def test_sequences_stay_aligned_across_repairs(self):
        comm = ChecksumComm(_CorruptingMailbox({0}))
        for i in range(3):
            comm.send(np.full(4, float(i)), 0, tag=2)
            assert np.array_equal(comm.recv(0, tag=2), np.full(4, float(i)))
        assert comm.repairs == 3

    def test_corrupted_allreduce_detected_and_retried(self):
        log = EventLog()
        plan = FaultPlan(seed=11, rules=(
            FaultRule(mode="corrupt_nan", probability=0.8,
                      ops=("allreduce",)),))
        stack = build_resilient_comm(SerialComm(), plan, events=log,
                                     integrity=True)
        out = stack.comm.allreduce(np.arange(8.0))
        assert np.array_equal(out, np.arange(8.0))  # corruption never escaped
        assert stack.checksum.detections >= 1
        # the instrument layer still counted one logical collective; the
        # re-issues live under the retry kind
        assert log.count_kind("allreduce") == 1
        from repro.comm import RETRY_KIND
        assert log.count_kind(RETRY_KIND) >= 1

    def test_without_checksums_corruption_is_silent(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(mode="corrupt_nan", probability=0.8,
                      ops=("allreduce",)),))
        stack = build_resilient_comm(SerialComm(), plan)
        out = stack.comm.allreduce(np.arange(8.0))
        assert np.isnan(out).any()  # the motivating failure mode

    def test_copies_validated(self):
        with pytest.raises(ValueError):
            ChecksumComm(_MailboxComm(), copies=0)


@pytest.mark.distributed
class TestIntegrityAcrossRanks:
    def test_checksummed_halo_exchange_matches_plain(self):
        """A 2-rank guarded CG through the full integrity stack converges
        to the same iterate as the plain stack (checksums are transparent)."""
        plain = run_resilient(CG_GUARDED, FaultPlan.disabled(), n=24, size=2)
        checked = run_resilient(CG_GUARDED, FaultPlan.disabled(), n=24,
                                size=2, integrity=True)
        assert plain.converged and checked.converged
        assert plain.iterations == checked.iterations
        assert checked.integrity_detections == 0


# -- contract transparency (acceptance criterion) -----------------------------


@pytest.mark.slow
def test_all_contracts_verify_under_integrity_stack():
    from repro.analysis.verify import verify_contracts
    reports = verify_contracts(n=24, integrity=True)
    assert len(reports) == 10
    bad = [r.name for r in reports if not r.ok]
    assert bad == [], f"contract drift under checksummed stack: {bad}"


# -- configuration knobs ------------------------------------------------------


class TestOptionsValidation:
    def test_options_from_dict_names_unknown_keys(self):
        from repro.solvers.options import options_from_dict, options_to_dict
        data = options_to_dict(SolverOptions(solver="ppcg", halo_depth=4))
        assert options_from_dict(data) == SolverOptions(solver="ppcg",
                                                        halo_depth=4)
        with pytest.raises(ConfigurationError,
                           match=r"option\(s\) 'made_up', 'tl_eps'$"):
            options_from_dict(dict(data, made_up=1, tl_eps=1e-8))

    def test_checkpoint_interval_requires_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            SolverOptions(checkpoint_interval=5)

    def test_recovery_requires_cadence(self):
        with pytest.raises(ConfigurationError, match="recovery"):
            SolverOptions(recovery=True, checkpoint_dir="/tmp/x")

    def test_recovery_requires_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            SolverOptions(recovery=True, guard_interval=5)

    def test_consistent_recovery_config_accepted(self):
        opt = SolverOptions(recovery=True, guard_interval=5,
                            checkpoint_dir="/tmp/x", integrity=True,
                            abft_interval=10)
        assert opt.recovery and opt.integrity

    def test_negative_abft_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverOptions(abft_interval=-1)


class TestDeckKnobs:
    def test_checkpoint_and_abft_keys(self):
        deck = parse_deck_text(
            "tl_checkpoint_interval=5\n"
            "tl_checkpoint_dir=results/ck\n"
            "tl_abft_interval=20\n")
        assert deck.tl_checkpoint_interval == 5
        assert deck.tl_checkpoint_dir == "results/ck"
        assert deck.tl_abft_interval == 20

    def test_bare_resilience_flags(self):
        deck = parse_deck_text("tl_enable_recovery\ntl_enable_checksums\n")
        assert deck.tl_enable_recovery and deck.tl_enable_checksums
        assert not parse_deck_text("x_cells=4\n").tl_enable_recovery

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_deck_text("tl_checkpoint_interval=five\n")


# -- sweep v2 and ABFT --------------------------------------------------------


class TestSweepV2:
    def test_exit_code_and_recovery_cells(self):
        from repro.harness.resilience_sweep import (
            SOLVERS,
            run_resilience_sweep,
        )
        sweep = run_resilience_sweep(n=16, rates=(0.0,), solvers=SOLVERS[:1])
        doc = sweep.as_dict()
        assert doc["schema"] == "repro.resilience_sweep/v2"
        (cell,) = doc["cells"]
        assert cell["recoveries"] == 0
        assert cell["integrity_detections"] == 0
        assert sweep.all_converged and sweep.exit_code == 0

    def test_nonconverged_cell_fails_the_sweep(self):
        from types import SimpleNamespace

        from repro.harness.resilience_sweep import ResilienceSweepResult
        result = ResilienceSweepResult(n=16, seed=7, rates=(0.0,),
                                       solvers=("cg",))
        result.reports[("cg", 0.0)] = SimpleNamespace(converged=False)
        assert not result.all_converged
        assert result.exit_code == 1


class TestAbftReplay:
    def test_abft_clean_run_unchanged(self):
        """The residual replay never fires on an uncorrupted solve."""
        base = run_resilient(CG_GUARDED, FaultPlan.disabled(), n=24)
        opts = SolverOptions(solver="cg", eps=1e-10, max_iters=600,
                             guard_interval=5, abft_interval=10)
        checked = run_resilient(opts, FaultPlan.disabled(), n=24)
        assert checked.converged
        assert checked.iterations == base.iterations
        assert checked.rollbacks == 0

    def test_abft_interval_threads_through_driver(self):
        from tests.helpers import crooked_pipe_system as cps  # noqa: F401
        from repro.mesh import Field
        from repro.solvers import solve_linear
        from repro.testing import serial_operator
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky, halo=1)
        b = Field.from_global(op.tile, 1, bg)
        opts = SolverOptions(solver="cg", abft_interval=5)
        result = solve_linear(op, b, options=opts)
        assert result.converged


# -- CLI ----------------------------------------------------------------------


DECK = """\
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=1.0 ymin=1.0 ymax=2.0
x_cells=12
y_cells=12
initial_timestep=0.04
end_time=0.16
use_cg
*endtea
"""


@pytest.mark.slow
class TestRestartCli:
    def test_checkpoint_run_then_cli_restart(self, tmp_path, capsys):
        from repro.cli.main import main
        deck = tmp_path / "tea.in"
        deck.write_text(DECK)
        ck = tmp_path / "ck"
        rc = main(["tealeaf", "--deck", str(deck), "--steps", "4",
                   "--checkpoint-dir", str(ck), "--checkpoint-interval", "2"])
        assert rc == 0
        # crash after step 2: the step-4 checkpoint never happened
        import shutil
        shutil.rmtree(ck / "step-000004")
        rc = main(["restart", "--from", str(ck)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 step(s) resumed" in out

    def test_restart_without_checkpoint_is_an_error(self, tmp_path, capsys):
        from repro.cli.main import main
        rc = main(["restart", "--from", str(tmp_path)])
        assert rc == 2
        assert "no committed checkpoint" in capsys.readouterr().err

    def test_interval_without_dir_is_an_error(self, tmp_path, capsys):
        from repro.cli.main import main
        deck = tmp_path / "tea.in"
        deck.write_text(DECK)
        rc = main(["tealeaf", "--deck", str(deck),
                   "--checkpoint-interval", "2"])
        assert rc == 2
        assert "requires a checkpoint_dir" in capsys.readouterr().err


# -- snapshot atomicity (satellite) -------------------------------------------


class TestSnapshots:
    def test_npy_roundtrip_atomic(self, tmp_path):
        from repro.io.snapshots import load_field_npy, save_field_npy
        field = np.arange(6.0).reshape(2, 3)
        path = save_field_npy(tmp_path / "t", field)
        assert path.suffix == ".npy"
        assert np.array_equal(load_field_npy(path), field)
        assert [f for f in tmp_path.iterdir() if ".tmp" in f.name] == []

    def test_torn_npy_rejected(self, tmp_path):
        from repro.io.snapshots import load_field_npy, save_field_npy
        path = save_field_npy(tmp_path / "t", np.arange(64.0))
        with open(path, "r+b") as fh:
            fh.truncate(32)
        with pytest.raises(CheckpointError):
            load_field_npy(path)

    def test_require_finite(self, tmp_path):
        from repro.io.snapshots import load_field_npy, save_field_npy
        path = save_field_npy(tmp_path / "t", np.array([1.0, np.nan]))
        assert np.isnan(load_field_npy(path)[1])  # lenient by default
        with pytest.raises(CheckpointError, match="non-finite"):
            load_field_npy(path, require_finite=True)

    def test_csv_atomic(self, tmp_path):
        from repro.io.snapshots import save_field_csv
        path = save_field_csv(tmp_path / "t.csv", np.arange(6.0).reshape(2, 3))
        assert np.allclose(np.loadtxt(path, delimiter=","),
                           np.arange(6.0).reshape(2, 3))
        assert [f for f in tmp_path.iterdir() if ".tmp" in f.name] == []
