"""Repo-level pytest configuration: tier markers + golden regression fixtures.

Markers (registered in pyproject.toml):

- ``tier1`` — the default tier; applied automatically to every test that
  carries none of ``slow``/``process_backend``/``mpi_backend``, so
  ``pytest -m tier1`` is the fast gate.
- ``slow`` — long-running tests, excluded from the tier-1 selection.
- ``process_backend`` — tests that spawn real worker processes
  (:class:`repro.runtime.procomm.ProcessComm`); CI runs them as their own
  job via ``pytest -m process_backend``.
- ``mpi_backend`` — tests that launch ``mpiexec`` subprocesses against the
  MPI backend (:class:`repro.runtime.mpicomm.MPIComm`); they skip
  themselves when ``mpi4py``/``mpiexec`` are absent, and CI runs them as a
  dedicated job via ``pytest -m mpi_backend``.
- ``chaos`` — fault-injection tests that kill real worker processes
  mid-run (:mod:`repro.runtime.faults`); CI runs them as a dedicated job
  via ``pytest -m chaos`` under ``pytest-timeout``.
- ``service`` — partitioning-service tests that run real unix-socket
  servers, some as ``repro serve`` subprocesses (:mod:`repro.service`);
  CI runs them as a dedicated job via ``pytest -m service`` under
  ``pytest-timeout``.

Golden fixtures: tests call ``golden("name", {...})`` to compare a dict of
metrics against ``tests/golden/name.json``.  Run with ``--update-golden``
to (re)freeze the snapshots after an intentional kernel/backend change;
the diff of the JSON files then documents exactly what moved.

Spill-directory guard: an on-disk run without ``spill_dir`` spills into a
``repro-ondisk-*`` directory under the system temp directory, and nothing
removes it.  A session that leaves a new one behind fails, listing it, so a
test or bench that forgets ``spill_dir`` (or a ``tmp_path``-scoped
``tempfile.tempdir``) cannot fill the temp directory unnoticed.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "tests", "golden")
SRC_DIR = os.path.join(os.path.dirname(__file__), "src")
_SPILL_DIRS = pytest.StashKey[set]()
_LEAKED_SPILL_DIRS = pytest.StashKey[list]()


def _spill_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-ondisk-*")))


def pytest_sessionstart(session):
    session.config.stash[_SPILL_DIRS] = _spill_dirs()


def pytest_sessionfinish(session, exitstatus):
    leaked = sorted(_spill_dirs() - session.config.stash.get(_SPILL_DIRS, set()))
    session.config.stash[_LEAKED_SPILL_DIRS] = leaked
    if leaked and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    leaked = config.stash.get(_LEAKED_SPILL_DIRS, [])
    if leaked:
        terminalreporter.section("leaked spill directories", red=True)
        terminalreporter.write_line(
            f"{len(leaked)} repro-ondisk-* directories appeared under "
            f"{tempfile.gettempdir()} during this session; pass spill_dir= "
            "(or scope tempfile.tempdir to tmp_path) in the test that made them:"
        )
        for path in leaked:
            terminalreporter.write_line(f"  {path}")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden regression fixtures under tests/golden/",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        if not any(m.name in ("slow", "process_backend", "mpi_backend", "chaos", "service",
                              "chaos_service")
                   for m in item.iter_markers()):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture(scope="session")
def mpiexec_run():
    """Callable launching ``python`` under ``mpiexec``; skips without MPI.

    ``mpiexec_run(n, args)`` runs ``mpiexec -n <n> python <args...>`` with
    ``src/`` on ``PYTHONPATH`` and returns the completed process (output
    captured, never raises on non-zero exit — tests assert on returncode).
    Open MPI refuses to oversubscribe small CI runners by default, so the
    flag is added when that implementation is detected; MPICH needs none.
    """
    if shutil.which("mpiexec") is None or importlib.util.find_spec("mpi4py") is None:
        pytest.skip("mpiexec and/or mpi4py unavailable")
    probe = subprocess.run(
        ["mpiexec", "--version"], capture_output=True, text=True, check=False
    )
    oversubscribe = ["--oversubscribe"] if "open" in probe.stdout.lower() else []
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")

    def run(nranks: int, args: list[str], timeout: float = 600.0):
        cmd = ["mpiexec", *oversubscribe, "-n", str(nranks), sys.executable, *args]
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env,
            cwd=os.path.dirname(__file__), check=False,
        )

    return run


@pytest.fixture
def golden(request):
    """Compare a flat dict of metrics against a frozen JSON snapshot.

    Ints compare exactly; floats with 1e-9 relative tolerance (they are
    deterministic on one machine but may move across numpy releases, and a
    kernel change that shifts them more than that is exactly what this
    guard exists to surface).
    """
    update = request.config.getoption("--update-golden")

    def check(name: str, value: dict) -> None:
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        if update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(value, fh, indent=2, sort_keys=True)
                fh.write("\n")
            pytest.skip(f"golden fixture {name!r} updated")
        if not os.path.exists(path):
            pytest.fail(
                f"missing golden fixture {path}; run pytest --update-golden to create it"
            )
        with open(path) as fh:
            frozen = json.load(fh)
        assert sorted(value) == sorted(frozen), (
            f"golden fixture {name!r} keys changed: {sorted(value)} vs {sorted(frozen)}"
        )
        for key, want in frozen.items():
            got = value[key]
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (
                    f"{name}.{key}: got {got!r}, frozen {want!r}"
                )
            else:
                assert got == want, f"{name}.{key}: got {got!r}, frozen {want!r}"

    return check
