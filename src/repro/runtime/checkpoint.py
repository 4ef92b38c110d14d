"""Atomic superstep checkpointing for the elastic runtime.

The algorithm state of a balanced-k-means run is small and phase-aligned —
centers, influence, per-shard Hamerly bounds, assignments, block weights,
RNG state and an iteration counter — which makes exact checkpoint/resume
cheap: :class:`CheckpointStore` snapshots that state as one ``.npz`` file
per phase boundary and the resume paths
(:func:`repro.runtime.distributed_kmeans.distributed_balanced_kmeans`,
:func:`repro.core.balanced_kmeans.balanced_kmeans`,
:func:`repro.experiments.repartitioning.run`) rebuild a run that is
bit-identical to one that was never interrupted — including on a *different*
physical rank count, via :class:`~repro.runtime.comm.ShardGrid`.

Format and guarantees:

- **Atomicity** — the file is written to a temporary sibling and moved into
  place with :func:`os.replace`, so a crash mid-save leaves the previous
  checkpoint intact and never a torn file under the final name.
- **Integrity** — a SHA-256 digest over every array (name, dtype, shape,
  bytes) plus the JSON metadata is stored inside the file; a corrupt or
  truncated checkpoint fails the digest (or the zip CRC) and
  :meth:`CheckpointStore.load` falls back to the newest older valid file.
- **Identity** — metadata records a digest of the
  :class:`~repro.core.config.BalancedKMeansConfig` and of the input data, so
  resuming against a different configuration or dataset fails loudly
  (:class:`CheckpointMismatchError`) instead of silently diverging.
- **Rotation** — only the newest ``keep`` checkpoints are retained; ordinals
  keep increasing across resumed runs so rotation and "latest" stay correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConcurrencyError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "LazyCheckpointArrays",
    "data_digest",
    "load_resume",
    "rng_state",
    "restore_rng",
    "sanitize_run_id",
]

#: Bumped when the on-disk layout changes incompatibly.
CHECKPOINT_VERSION = 1

_META_KEY = "__meta__"
_DIGEST_KEY = "__digest__"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, or fails its digest."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint is valid but belongs to a different run configuration."""


class CheckpointConcurrencyError(CheckpointError):
    """Another writer saved into this store's namespace since it was opened.

    Two live stores sharing one (directory, prefix) interleave rotation and
    ordinal continuation and can clobber each other's "latest"; the fix is a
    per-run namespace (``CheckpointStore(..., run_id=...)``), not retrying.
    """


def data_digest(*arrays: np.ndarray, extra: str = "") -> str:
    """Digest of the input data a run was launched with.

    Stored in checkpoint metadata and re-validated on resume, so a
    checkpoint can never silently resume against different points/weights.
    """
    h = hashlib.sha256()
    h.update(extra.encode())
    for arr in arrays:
        a = np.ascontiguousarray(np.asarray(arr))
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rng_state(gen: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a numpy Generator's state."""
    return gen.bit_generator.state


def restore_rng(state: Mapping) -> np.random.Generator:
    """Rebuild a Generator from a :func:`rng_state` snapshot."""
    bg_cls = getattr(np.random, state["bit_generator"])
    bg = bg_cls()
    bg.state = dict(state)
    return np.random.Generator(bg)


def _payload_digest(arrays: Mapping[str, np.ndarray], meta_json: str) -> str:
    """SHA-256 over the metadata and every non-reserved array.

    Reads one array at a time, so digesting a dict of spill handles (on
    save) or an open npz (on load) keeps O(largest array) peak memory.
    """
    h = hashlib.sha256()
    h.update(meta_json.encode())
    for key in sorted(k for k in arrays if not k.startswith("__")):
        arr = np.ascontiguousarray(np.asarray(arrays[key]))
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
        del arr
    return h.hexdigest()


def sanitize_run_id(run_id: str) -> str:
    """Collapse a run id to a safe single path component (no separators)."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", str(run_id)).strip("._")
    if not cleaned:
        raise ValueError(f"run_id {run_id!r} has no usable filename characters")
    return cleaned


def _encode_str(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def _decode_str(arr: np.ndarray) -> str:
    return np.asarray(arr, dtype=np.uint8).tobytes().decode("utf-8")


class CheckpointStore:
    """Rotating directory of atomic ``.npz`` checkpoints.

    Parameters
    ----------
    directory:
        Created on first save if missing.  One store per run; sharing a
        directory between unrelated runs is detected at resume time by the
        config/data digests, not prevented.
    prefix:
        Filename prefix; files are ``{prefix}-{ordinal:06d}.npz``.
    keep:
        Newest checkpoints retained after each save (older ones unlinked).
        At least 2 is recommended so a checkpoint corrupted on disk still
        leaves a valid predecessor to fall back to.
    run_id:
        Optional per-run namespace: checkpoints land in
        ``directory/run_id/`` so many concurrent runs (e.g. service
        sessions) can share one root directory without interleaving
        rotation or ordinal continuation.  Sanitised to a safe filename.
        Concurrent writers *within* one namespace are still an error —
        :meth:`save` detects a foreign file at or past its own ordinal and
        raises :class:`CheckpointConcurrencyError` instead of clobbering.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        prefix: str = "ckpt",
        keep: int = 3,
        run_id: str | None = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.run_id = None
        if run_id is not None:
            self.run_id = sanitize_run_id(run_id)
            self.directory = self.directory / self.run_id
        self.prefix = str(prefix)
        self.keep = int(keep)
        self._pattern = re.compile(re.escape(self.prefix) + r"-(\d{6,})\.npz$")
        self._ordinal = self._next_ordinal()

    @classmethod
    def ensure(cls, value: "CheckpointStore | str | os.PathLike | None") -> "CheckpointStore | None":
        """Coerce a store argument: pass stores through, wrap paths, keep None."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    # -- enumeration ---------------------------------------------------------

    def candidates(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            m = self._pattern.match(path.name)
            if m:
                found.append((int(m.group(1)), path))
        return [path for _, path in sorted(found)]

    def latest(self) -> Path | None:
        """Newest checkpoint file (not necessarily valid), or ``None``."""
        paths = self.candidates()
        return paths[-1] if paths else None

    def _next_ordinal(self) -> int:
        paths = self.candidates()
        if not paths:
            return 0
        return int(self._pattern.match(paths[-1].name).group(1)) + 1

    def path_for(self, ordinal: int) -> Path:
        return self.directory / f"{self.prefix}-{ordinal:06d}.npz"

    # -- save ----------------------------------------------------------------

    def save(self, arrays: Mapping[str, np.ndarray], meta: Mapping, faults=None) -> Path:
        """Atomically write one checkpoint; returns its path.

        ``arrays`` maps names to ndarrays (saved verbatim); ``meta`` must be
        JSON-serialisable and is stored alongside, extended with the format
        version and this file's ordinal.  ``faults`` optionally injects
        deterministic corruption (a :class:`~repro.runtime.faults.FaultPlan`
        whose ``corrupt`` spec matches this save's ordinal), which exercises
        the fall-back-to-previous-checkpoint path in tests.
        """
        for key in arrays:
            if key.startswith("__"):
                raise ValueError(f"array name {key!r} is reserved")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_sole_writer()
        ordinal = self._ordinal
        self._ordinal += 1
        full_meta = dict(meta)
        full_meta["version"] = CHECKPOINT_VERSION
        full_meta["ordinal"] = ordinal
        meta_json = json.dumps(full_meta, sort_keys=True)
        digest = _payload_digest(arrays, meta_json)
        # values stay lazy: np.savez coerces each entry (via __array__ for
        # spill handles) one at a time while writing, and _payload_digest
        # above also materialised transiently per key — so a dict of
        # on-disk handles checkpoints with O(largest array) peak memory,
        # which is what keeps the out-of-core runner's saves O(n/p)
        payload: dict = dict(arrays)
        payload[_META_KEY] = _encode_str(meta_json)
        payload[_DIGEST_KEY] = _encode_str(digest)

        final = self.path_for(ordinal)
        tmp = final.with_name(final.name + f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **payload)
                fh.flush()
                os.fsync(fh.fileno())
            if faults is not None and faults.take_corrupt(ordinal):
                _corrupt_file(tmp)
            os.replace(tmp, final)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed save
                tmp.unlink()
        self._rotate()
        return final

    def _check_sole_writer(self) -> None:
        """Raise loudly when another store wrote into this namespace.

        Every ordinal this store will write is strictly greater than any
        ordinal that existed when it was opened, so a file on disk at or
        past ``self._ordinal`` can only come from a concurrent writer.
        """
        paths = self.candidates()
        if not paths:
            return
        newest = int(self._pattern.match(paths[-1].name).group(1))
        if newest >= self._ordinal:
            raise CheckpointConcurrencyError(
                f"concurrent checkpoint writer detected under {self.directory}: "
                f"found on-disk ordinal {newest} but this store would write "
                f"{self._ordinal}.  Two live CheckpointStores are sharing one "
                "namespace; give each run its own run_id "
                "(CheckpointStore(dir, run_id=...)) or directory."
            )

    def _rotate(self) -> None:
        paths = self.candidates()
        for path in paths[: max(0, len(paths) - self.keep)]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # -- load ----------------------------------------------------------------

    def load(self, path: str | os.PathLike | None = None) -> tuple[LazyCheckpointArrays, dict]:
        """Load ``(arrays, meta)`` from ``path`` or the newest *valid* file.

        With an explicit ``path`` a corrupt file raises
        :class:`CheckpointError`.  Without one, corrupt/unreadable files are
        skipped with a warning (newest first) — a checkpoint damaged on disk
        costs at most the work since its predecessor.  The arrays are
        verified here and read on access (:class:`LazyCheckpointArrays`), so
        read what you need before the next save into this store rotates
        the file away.
        """
        if path is not None:
            return _load_file(Path(path))
        errors: list[str] = []
        for candidate in reversed(self.candidates()):
            try:
                return _load_file(candidate)
            except CheckpointError as exc:
                warnings.warn(f"skipping corrupt checkpoint {candidate}: {exc}", stacklevel=2)
                errors.append(f"{candidate.name}: {exc}")
        detail = f" (rejected: {'; '.join(errors)})" if errors else ""
        raise CheckpointError(f"no valid checkpoint under {self.directory}{detail}")


def _corrupt_file(path: Path) -> None:
    """Deterministically flip bytes in the middle of ``path`` (fault injection)."""
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.seek(size // 2)
        chunk = fh.read(64)
        fh.seek(size // 2)
        fh.write(bytes(b ^ 0xFF for b in chunk))


class LazyCheckpointArrays(Mapping):
    """Mapping over a *verified* checkpoint's arrays, read one at a time.

    :func:`_load_file` digest-checks the file streaming (each array
    materialised transiently), then hands out this view; ``[]`` reopens the
    npz and reads just the requested entry, so a resuming out-of-core run
    never holds more than one per-shard array in memory.
    """

    def __init__(self, path: Path, names: tuple[str, ...]) -> None:
        self._path = Path(path)
        self._names = tuple(names)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._names:
            raise KeyError(key)
        with np.load(self._path, allow_pickle=False) as npz:
            return npz[key]

    def __contains__(self, key: object) -> bool:
        return key in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _load_file(path: Path) -> tuple[LazyCheckpointArrays, dict]:
    """Verify one checkpoint file with O(largest array) peak memory."""
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as npz:
            names = list(npz.files)
            if _META_KEY not in names or _DIGEST_KEY not in names:
                raise CheckpointError(f"checkpoint {path} lacks metadata/digest entries")
            meta_json = _decode_str(npz[_META_KEY])
            stored_digest = _decode_str(npz[_DIGEST_KEY])
            digest = _payload_digest(npz, meta_json)
    except CheckpointError:
        raise
    except Exception as exc:  # zip CRC errors, truncation, bad JSON bytes, ...
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc!r}") from exc
    if digest != stored_digest:
        raise CheckpointError(f"checkpoint {path} failed its integrity digest")
    try:
        meta = json.loads(meta_json)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} holds invalid metadata: {exc}") from exc
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {meta.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return LazyCheckpointArrays(path, tuple(n for n in names if not n.startswith("__"))), meta


def load_resume(source: "CheckpointStore | str | os.PathLike") -> tuple[LazyCheckpointArrays, dict]:
    """Resolve a resume source: a store or directory (newest valid) or a file."""
    if isinstance(source, CheckpointStore):
        return source.load()
    path = Path(source)
    if path.is_dir():
        return _store_for_directory(path).load()
    return _load_file(path)


def _store_for_directory(path: Path) -> CheckpointStore:
    """Build a store matching whatever prefix the directory's files carry."""
    prefixes = {m.group(1) for m in (re.match(r"(.+)-\d{6,}\.npz$", p.name) for p in path.iterdir())
                if m}
    if len(prefixes) == 1:
        return CheckpointStore(path, prefix=prefixes.pop())
    return CheckpointStore(path)


def validate_meta(
    meta: Mapping,
    *,
    kind: str,
    config_digest: str | None = None,
    input_digest: str | None = None,
    checks: Iterable[tuple[str, object]] = (),
) -> None:
    """Fail loudly when a checkpoint does not belong to the resuming run."""
    if meta.get("kind") != kind:
        raise CheckpointMismatchError(
            f"checkpoint holds a {meta.get('kind')!r} run, cannot resume a {kind!r} run"
        )
    if config_digest is not None and meta.get("config_digest") != config_digest:
        raise CheckpointMismatchError(
            "checkpoint was written under a different configuration "
            f"(checkpoint config digest {meta.get('config_digest')!r}, this run "
            f"{config_digest!r}); resume with the exact configuration of the "
            "original launch — results would otherwise silently diverge"
        )
    if input_digest is not None and meta.get("data_digest") != input_digest:
        raise CheckpointMismatchError(
            "checkpoint was written for different input data "
            f"(checkpoint data digest {meta.get('data_digest')!r}, this run "
            f"{input_digest!r}); pass the same points/weights the original run used"
        )
    for key, expected in checks:
        if meta.get(key) != expected:
            raise CheckpointMismatchError(
                f"checkpoint {key}={meta.get(key)!r} does not match this run's {key}={expected!r}"
            )
