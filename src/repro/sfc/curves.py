"""Common entry point for space-filling-curve indices on float point sets."""

from __future__ import annotations

import numpy as np

from repro.sfc.hilbert import hilbert_index
from repro.sfc.morton import morton_index
from repro.util.validation import check_points

__all__ = ["normalize_to_cells", "sfc_index", "CURVE_NAMES", "DEFAULT_BITS"]

# bits*d <= 62; these defaults give ample resolution for millions of points.
DEFAULT_BITS = {2: 24, 3: 16}

_CURVES = {"hilbert": hilbert_index, "morton": morton_index}
#: Curve names :func:`sfc_index` accepts.
CURVE_NAMES = tuple(_CURVES)


def normalize_to_cells(
    points: np.ndarray,
    bits: int,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Map float points to integer grid cells in ``[0, 2**bits)`` per dim.

    Normalisation is by the point set's own bounding box, or by an explicit
    ``box = (lo, hi)`` — the distributed runtime passes the *global* box so
    every rank indexes consistently.  Degenerate dimensions map to cell 0.
    """
    pts = check_points(points)
    if box is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        lo = np.asarray(box[0], dtype=np.float64)
        hi = np.asarray(box[1], dtype=np.float64)
    extent = hi - lo
    extent = np.where(extent == 0.0, 1.0, extent)
    scale = (1 << bits) / extent
    cells = ((pts - lo) * scale).astype(np.int64)
    np.clip(cells, 0, (1 << bits) - 1, out=cells)
    return cells


def sfc_index(
    points: np.ndarray,
    curve: str = "hilbert",
    bits: int | None = None,
    box: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Space-filling-curve index for each point.

    Parameters
    ----------
    points:
        ``(n, d)`` float array, d in {2, 3}.
    curve:
        ``"hilbert"`` (default, used by Geographer) or ``"morton"``.
    bits:
        Grid resolution per dimension; defaults to :data:`DEFAULT_BITS`.
    box:
        Optional ``(lo, hi)`` normalisation box (for distributed indexing).
    """
    pts = check_points(points)
    if curve not in _CURVES:
        raise ValueError(f"unknown curve {curve!r}; choose from {sorted(_CURVES)}")
    if bits is None:
        bits = DEFAULT_BITS[pts.shape[1]]
    cells = normalize_to_cells(pts, bits, box=box)
    return _CURVES[curve](cells, bits)
