"""Deterministic fault injection and dead-worker recovery.

Three layers:

- :class:`~repro.runtime.faults.FaultPlan` parsing and one-shot semantics
  (pure unit tests);
- injection on the virtual backend — kills are simulated by tombstoning the
  rank during the superstep and replaying it (exact, because BSP rank
  functions are independent within a superstep), delays/failures only touch
  the cost ledger — so **no injected fault may change the partition**;
- real recovery on the process backend (markers ``process_backend`` /
  ``chaos``): a SIGKILLed worker is respawned, the lost superstep replayed,
  and the run's result stays bit-identical to an undisturbed run.

Chaos tests dump their recovery-event ledgers as JSON into
``$REPRO_CHAOS_LOG_DIR`` when set (the CI chaos job uploads them as
artifacts).
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.config import BalancedKMeansConfig
from repro.runtime.checkpoint import CheckpointError, CheckpointStore, _load_file
from repro.runtime.comm import FAULTS_ENV, VirtualComm, make_comm
from repro.runtime.distributed_kmeans import distributed_balanced_kmeans
from repro.runtime.faults import FaultPlan, FaultSpec, FaultyComm, InjectedFault

CFG = BalancedKMeansConfig(epsilon=0.02)


def _points(n=300, seed=0):
    return np.random.default_rng(seed).random((n, 2))


def _run(pts, comm=None, **kwargs):
    return distributed_balanced_kmeans(pts, 4, 2, config=CFG, rng=5, comm=comm, **kwargs)


def _assert_same_partition(a, b):
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.imbalance == b.imbalance
    assert a.iterations == b.iterations


def _crash_step(checkpointed) -> int:
    """A superstep three quarters into an uninterrupted checkpointed run.

    Derived rather than fixed, so a change in how many supersteps a run
    takes cannot move the crash past the run's end.  Superstep counts are
    the same on every backend (``test_backend_equivalence``).
    """
    return 3 * checkpointed.ledger.supersteps // 4


def _dump_chaos_log(name: str, ledger) -> None:
    log_dir = os.environ.get("REPRO_CHAOS_LOG_DIR")
    if not log_dir:
        return
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, f"{name}.json"), "w") as fh:
        json.dump(ledger.events, fh, indent=2, default=str)


class TestFaultPlanParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "kill:rank=1,step=5; crash:step=9;"
            "delay:op=allreduce,index=2,seconds=0.25;"
            "fail:op=allgather;corrupt:index=3"
        )
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["kill", "crash", "delay", "fail", "corrupt"]
        kill, crash, delay, fail, corrupt = plan.specs
        assert (kill.rank, kill.step) == (1, 5)
        assert crash.step == 9
        assert (delay.op, delay.index, delay.seconds) == ("allreduce", 2, 0.25)
        assert (fail.op, fail.index) == ("allgather", 0)
        assert corrupt.index == 3

    def test_empty_chunks_ignored(self):
        assert FaultPlan.parse(" ; ;").specs == []

    @pytest.mark.parametrize("text, match", [
        ("explode:step=1", "unknown fault kind"),
        ("kill:step=1", "needs rank= and step="),
        ("crash:rank=1", "needs step="),
        ("delay:seconds=1", "needs op="),
        ("fail:op=teleport", "needs op="),
        ("kill:rank=1,step=2,color=red", "unknown fault field"),
        ("kill:rank", "expected key=value"),
    ])
    def test_bad_specs_are_loud(self, text, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(text)

    def test_take_is_one_shot(self):
        plan = FaultPlan([FaultSpec("kill", rank=0, step=3)])
        assert plan.take_kill(2) is None
        assert plan.take_kill(3) is not None
        assert plan.take_kill(3) is None  # fired specs never fire again
        assert plan.unfired() == []

    def test_collective_takes_match_op_and_occurrence(self):
        plan = FaultPlan.parse("delay:op=allreduce,index=1,seconds=0.5")
        assert plan.take_collective("delay", "allreduce", 0) is None
        assert plan.take_collective("delay", "allgather", 1) is None
        assert plan.take_collective("fail", "allreduce", 1) is None
        assert plan.take_collective("delay", "allreduce", 1) is not None

    def test_compute_op_targets_service_requests(self):
        """``op=compute`` addresses the service's supervised compute path."""
        plan = FaultPlan.parse(
            "delay:op=compute,index=1,seconds=0.2;fail:op=compute,index=3"
        )
        delay, fail = plan.specs
        assert (delay.op, delay.index, delay.seconds) == ("compute", 1, 0.2)
        assert (fail.op, fail.index) == ("compute", 3)
        assert plan.take_collective("delay", "compute", 0) is None
        assert plan.take_collective("delay", "compute", 1) is not None
        assert plan.take_collective("fail", "compute", 3) is not None
        with pytest.raises(ValueError, match="needs op="):
            FaultPlan.parse("delay:op=computing,seconds=1")


class TestMakeCommWiring:
    def test_faults_argument_wraps(self):
        comm = make_comm(2, faults="crash:step=0")
        assert isinstance(comm, FaultyComm) and isinstance(comm.inner, VirtualComm)
        assert comm.nranks == 2 and comm.kind == "virtual"

    def test_env_var_wraps(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash:step=7")
        comm = make_comm(2)
        assert isinstance(comm, FaultyComm)
        assert comm.fault_plan.specs[0].step == 7

    def test_no_faults_no_wrapper(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert isinstance(make_comm(2), VirtualComm)

    def test_empty_plan_is_pure_delegation(self):
        pts = _points()
        clean = _run(pts)
        with make_comm(2, faults=FaultPlan()) as comm:
            wrapped = _run(pts, comm=comm)
        _assert_same_partition(clean, wrapped)
        assert wrapped.ledger.events == []


class TestVirtualInjection:
    def test_kill_tombstones_and_replays(self):
        pts = _points()
        clean = _run(pts)
        with make_comm(2, faults="kill:rank=1,step=12") as comm:
            faulted = _run(pts, comm=comm)
        _assert_same_partition(clean, faulted)
        (kill,) = comm.ledger.events_of("injected_kill")
        (replay,) = comm.ledger.events_of("rank_replayed")
        assert kill["rank"] == replay["rank"] == 1
        assert kill["superstep"] == replay["superstep"] == 12
        assert comm.fault_plan.unfired() == []

    def test_delay_and_fail_only_touch_the_ledger(self):
        pts = _points()
        clean = _run(pts)
        plan = "delay:op=allreduce,index=3,seconds=0.5;fail:op=allgather,index=0"
        with make_comm(2, faults=plan) as comm:
            faulted = _run(pts, comm=comm)
        _assert_same_partition(clean, faulted)
        (delay,) = comm.ledger.events_of("injected_delay")
        assert delay["op"] == "allreduce" and delay["seconds"] == 0.5
        assert comm.ledger.events_of("injected_collective_failure")
        assert comm.ledger.events_of("collective_retried")
        # modeled backend: the stall is charged to the ledger, not slept
        assert comm.ledger.comm_seconds >= 0.5
        # the failed collective is charged twice (lost attempt + retry)
        extra = comm.ledger.collective_counts["allgather"] - clean.ledger.collective_counts["allgather"]
        assert extra == 1

    def test_crash_raises_injected_fault(self):
        with make_comm(2, faults="crash:step=15") as comm:
            with pytest.raises(InjectedFault, match="superstep 15"):
                _run(_points(), comm=comm)
        (event,) = comm.ledger.events_of("injected_crash")
        assert event["superstep"] == 15

    def test_crash_then_resume_is_bit_identical(self, tmp_path):
        pts = _points()
        clean = _run(pts)
        step = _crash_step(_run(pts, checkpoint=CheckpointStore(tmp_path / "probe")))
        store = CheckpointStore(tmp_path / "run", keep=100)
        with make_comm(2, faults=f"crash:step={step}") as comm:
            with pytest.raises(InjectedFault):
                _run(pts, comm=comm, checkpoint=store)
        assert store.latest() is not None, "crash fired before the first checkpoint"
        resumed = _run(pts, resume_from=store)
        _assert_same_partition(clean, resumed)

    def test_corrupt_fault_hits_the_scheduled_save(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=100)
        with make_comm(2, faults="corrupt:index=1") as comm:
            _run(_points(), comm=comm, checkpoint=store)
        bad = store.path_for(1)
        with pytest.raises(CheckpointError):
            _load_file(bad)
        _load_file(store.path_for(0))  # neighbours untouched

    def test_kill_rank_out_of_range_is_loud(self):
        with make_comm(2, faults="kill:rank=5,step=0") as comm:
            with pytest.raises(ValueError, match="out of range"):
                comm.run_local(lambda r: r)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the test extras
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    _spec_strategy = st.one_of(
        st.builds(FaultSpec, kind=st.just("kill"),
                  rank=st.integers(0, 1), step=st.integers(0, 60)),
        st.builds(FaultSpec, kind=st.just("delay"),
                  op=st.sampled_from(["allreduce", "allgather", "alltoallv", "broadcast"]),
                  index=st.integers(0, 20), seconds=st.floats(0.0, 1.0)),
        st.builds(FaultSpec, kind=st.just("fail"),
                  op=st.sampled_from(["allreduce", "allgather", "alltoallv"]),
                  index=st.integers(0, 20)),
    )

    class TestReplayInvariance:
        """Property: no plan of kill/delay/fail faults ever changes the result."""

        CLEAN = None

        @settings(max_examples=10, deadline=None)
        @given(specs=st.lists(_spec_strategy, min_size=1, max_size=4))
        def test_faults_never_change_the_partition(self, specs):
            pts = _points(n=200, seed=3)
            if TestReplayInvariance.CLEAN is None:
                TestReplayInvariance.CLEAN = _run(pts)
            with make_comm(2, faults=FaultPlan(specs)) as comm:
                faulted = _run(pts, comm=comm)
            _assert_same_partition(TestReplayInvariance.CLEAN, faulted)


@pytest.mark.process_backend
class TestProcessRecovery:
    def test_sigkill_triggers_respawn_and_replay(self):
        pts = _points()
        clean = _run(pts)
        with make_comm(2, backend="process", faults="kill:rank=1,step=25") as comm:
            faulted = _run(pts, comm=comm)
        _assert_same_partition(clean, faulted)
        (respawn,) = comm.ledger.events_of("worker_respawn")
        assert respawn["rank"] == 1
        assert comm.ledger.events_of("injected_kill")

    def test_respawn_budget_exhausted_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RESPAWNS", "0")
        comm = make_comm(2, backend="process")
        os.kill(comm._workers[1].pid, signal.SIGKILL)
        comm._workers[1].join(5.0)
        with pytest.raises(RuntimeError, match="respawn budget"):
            comm.run_local(lambda r: r)
        assert comm._closed  # recovery failure tears the communicator down

    def test_dead_worker_mid_run_recovers_without_faultycomm(self):
        with make_comm(3, backend="process") as comm:
            assert comm.run_local(lambda r: r) == [0, 1, 2]
            os.kill(comm._workers[0].pid, signal.SIGKILL)
            comm._workers[0].join(5.0)
            assert comm.run_local(lambda r: r * 10) == [0, 10, 20]
            (respawn,) = comm.ledger.events_of("worker_respawn")
            assert respawn["rank"] == 0 and respawn["respawns_left"] == 1

    def test_hung_worker_killed_after_timeout(self, tmp_path):
        marker = str(tmp_path / "already-hung")
        with make_comm(2, backend="process") as comm:
            comm._superstep_timeout = 1.0

            def maybe_hang(r):
                if r == 1 and not os.path.exists(marker):
                    open(marker, "w").close()
                    time.sleep(60.0)
                return r + 1

            start = time.perf_counter()
            assert comm.run_local(maybe_hang) == [1, 2]
            assert time.perf_counter() - start < 30.0
            (respawn,) = comm.ledger.events_of("worker_respawn")
            assert "timeout" in respawn["reason"]


@pytest.mark.chaos
class TestChaosKillMatrix:
    """Kill every rank at varied supersteps on the process backend."""

    @pytest.mark.parametrize("rank, step", [(0, 10), (1, 25), (2, 40)])
    def test_kill_matrix_bit_identical(self, rank, step):
        pts = _points()
        clean = distributed_balanced_kmeans(pts, 4, 3, config=CFG, rng=5)
        with make_comm(3, backend="process",
                       faults=f"kill:rank={rank},step={step}") as comm:
            faulted = distributed_balanced_kmeans(pts, 4, 3, config=CFG, rng=5, comm=comm)
        _dump_chaos_log(f"kill-rank{rank}-step{step}", comm.ledger)
        _assert_same_partition(clean, faulted)
        (respawn,) = comm.ledger.events_of("worker_respawn")
        assert respawn["rank"] == rank
        assert comm.fault_plan.unfired() == []

    def test_kill_then_checkpoint_then_crash_then_resume(self, tmp_path):
        """The full elasticity story in one run: a worker dies and is
        respawned, the run keeps checkpointing, the driver crashes, and the
        resumed run (on a different rank count) finishes bit-identically."""
        pts = _points()
        clean = distributed_balanced_kmeans(pts, 4, 3, config=CFG, rng=5)
        step = _crash_step(distributed_balanced_kmeans(
            pts, 4, 3, config=CFG, rng=5, checkpoint=CheckpointStore(tmp_path / "probe")))
        store = CheckpointStore(tmp_path / "run", keep=100)
        with make_comm(3, backend="process",
                       faults=f"kill:rank=1,step=20;crash:step={step}") as comm:
            with pytest.raises(InjectedFault):
                distributed_balanced_kmeans(pts, 4, 3, config=CFG, rng=5,
                                            comm=comm, checkpoint=store)
        _dump_chaos_log("kill-checkpoint-crash", comm.ledger)
        assert comm.ledger.events_of("worker_respawn")
        assert store.latest() is not None, "crash fired before the first checkpoint"
        resumed = distributed_balanced_kmeans(pts, 4, 2, config=CFG, rng=5,
                                              resume_from=store)
        _assert_same_partition(clean, resumed)
