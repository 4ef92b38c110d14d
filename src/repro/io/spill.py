"""Per-rank spill files for the out-of-core runtime.

The out-of-core k-means runner keeps every O(n) array on disk and hands
rank functions :class:`SpillHandle` descriptors instead of arrays.  A
handle is a plain picklable record (path, shape, dtype, data offset); rank
functions ``open()`` it to a :class:`numpy.memmap` of their own O(n/p)
file and mutate it in place, without ``msync``.  Spill files are one run's
scratch on one host: ``MAP_SHARED`` writes land in the page cache, which
every later map and read of the file sees, whether ranks run in the driver
process (virtual backend) or in worker processes; and nothing reads a
spill file after a crash (a resume reads the fsynced checkpoint).

Two access styles, chosen by the address-space math:

- ``open()`` — memory-map the whole file.  Used for *per-rank* files,
  whose O(n/p) mapping is what "peak RSS is O(shard)" budgets for.
- ``read_rows``/``write_rows`` — plain ``seek``-based windowed I/O.  Used
  for the few *global* O(n) result files (final assignment, remap table),
  which must never be mapped wholly: file-backed mappings count toward
  ``RLIMIT_AS``, the cap the CI memory gate enforces.

Handles support ``__array__``, so :class:`~repro.runtime.checkpoint.
CheckpointStore` can serialise a dict of handles with each array
materialised one at a time.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SpillHandle", "SpillStore"]


def _header_offset(path: str | os.PathLike) -> tuple[int, tuple, np.dtype]:
    """Byte offset of the data block in a ``.npy`` file, plus shape/dtype."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:  # pragma: no cover - numpy only emits 1.0/2.0 today
            raise ValueError(f"{path}: unsupported .npy version {version}")
        if fortran:
            raise ValueError(f"{path}: Fortran-order spill files are not supported")
        return fh.tell(), shape, dtype


@dataclass(frozen=True)
class SpillHandle:
    """Descriptor of one on-disk ``.npy`` array (picklable, O(1) state).

    ``offset`` is the byte offset of the data block after the ``.npy``
    header, recorded when the file is written or first opened, so every
    access maps or seeks straight to the data without re-parsing the header.
    """

    path: str
    shape: tuple
    dtype: str
    offset: int

    @property
    def rows(self) -> int:
        return int(self.shape[0]) if self.shape else 0

    @property
    def row_bytes(self) -> int:
        itemsize = np.dtype(self.dtype).itemsize
        inner = 1
        for extent in self.shape[1:]:
            inner *= int(extent)
        return itemsize * inner

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes if self.shape else np.dtype(self.dtype).itemsize

    def open(self, mode: str = "r") -> np.memmap:
        """Memory-map the whole file (``"r"`` or ``"r+"``)."""
        return np.memmap(self.path, dtype=self.dtype, mode=mode, offset=self.offset, shape=self.shape)

    def read(self) -> np.ndarray:
        """Materialize a private copy of the whole array."""
        return np.load(self.path)

    def __array__(self, dtype=None, copy=None):
        arr = np.load(self.path)
        return arr if dtype is None else arr.astype(dtype, copy=False)

    def read_rows(self, lo: int, hi: int) -> np.ndarray:
        """Materialize rows ``[lo, hi)`` via seek (no mapping of the file)."""
        if not 0 <= lo <= hi <= self.rows:
            raise IndexError(f"rows [{lo}, {hi}) out of [0, {self.rows})")
        with open(self.path, "rb") as fh:
            fh.seek(self.offset + lo * self.row_bytes)
            raw = fh.read((hi - lo) * self.row_bytes)
        out = np.frombuffer(raw, dtype=self.dtype).reshape((hi - lo,) + tuple(self.shape[1:]))
        return out.copy()

    def write_rows(self, lo: int, array: np.ndarray) -> None:
        """Overwrite rows starting at ``lo`` via seek (no mapping of the file)."""
        arr = np.ascontiguousarray(array, dtype=np.dtype(self.dtype))
        if arr.shape[1:] != tuple(self.shape[1:]):
            raise ValueError(f"row shape {arr.shape[1:]} != {tuple(self.shape[1:])}")
        if lo < 0 or lo + arr.shape[0] > self.rows:
            raise IndexError(f"rows [{lo}, {lo + arr.shape[0]}) out of [0, {self.rows})")
        with open(self.path, "r+b") as fh:
            fh.seek(self.offset + lo * self.row_bytes)
            fh.write(arr.tobytes())


class SpillStore:
    """A directory of named spill files.

    Plain attribute state (a path), so stores pickle into rank closures.
    The creator is responsible for :meth:`cleanup`; ranks only read/write
    through handles.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = str(directory)
        Path(self.directory).mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.npy")

    def put(self, name: str, array: np.ndarray) -> SpillHandle:
        """Write ``array`` to ``name`` (atomic rename), return its handle."""
        arr = np.ascontiguousarray(array)
        final = self.path_for(name)
        tmp = final + f".tmp-{os.getpid()}"
        with open(tmp, "wb") as fh:
            np.save(fh, arr)
            offset = fh.tell() - arr.nbytes
        os.replace(tmp, final)
        return SpillHandle(final, tuple(arr.shape), str(arr.dtype), offset)

    def create(self, name: str, shape: tuple, dtype) -> SpillHandle:
        """Preallocate a zero-filled array file (sparse where the OS allows).

        Header + ``truncate``, never ``open_memmap``: creating the O(n)
        result files must not map them — transient O(n) mappings count
        toward ``RLIMIT_AS`` and would defeat the CI memory gate.
        """
        path = self.path_for(name)
        dt = np.dtype(dtype)
        shape = tuple(int(extent) for extent in shape)
        nbytes = dt.itemsize
        for extent in shape:
            nbytes *= extent
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh,
                {"descr": np.lib.format.dtype_to_descr(dt),
                 "fortran_order": False, "shape": shape},
            )
            offset = fh.tell()
            fh.truncate(offset + nbytes)
        return SpillHandle(path, shape, str(dt), offset)

    def handle(self, name: str) -> SpillHandle:
        """Handle for an existing file (header read only)."""
        path = self.path_for(name)
        offset, shape, dtype = _header_offset(path)
        return SpillHandle(path, tuple(shape), str(dtype), offset)

    def remove(self, *handles_or_names: "SpillHandle | str") -> None:
        for item in handles_or_names:
            path = item.path if isinstance(item, SpillHandle) else self.path_for(item)
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    def cleanup(self) -> None:
        """Delete the whole spill directory."""
        shutil.rmtree(self.directory, ignore_errors=True)
