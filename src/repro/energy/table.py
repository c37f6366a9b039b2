"""Precomputed ``e_bar_b`` lookup tables — the algorithms' "Preprocessing".

Algorithms 1 and 2 both begin with:

    *Preprocessing.  Calculate the value of e_bar_b(p, b, mt, mr) for a set
    of p, b, mt, and mr.  Load the table of e_bar_b in each SU node.*

:class:`EbarTable` is that artifact: a dense grid over (p, b, mt, mr) built
once (the expensive root-finding happens here) and shared by every SU node
as an O(1) lookup.  It exposes the same ``(p, b, mt, mr) -> e_bar_b``
callable signature as the exact solver so it can be plugged directly into
:class:`repro.energy.model.EnergyModel`.

The grid is stored as one dense ``(p, b, mt, mr)`` ndarray filled by a
single :func:`repro.energy.ebar.solve_ebar_batch` call.  A process-level
memo shares the solved grid between all instances with identical
grid/``n0``/convention specs in the same process; set ``REPRO_NO_CACHE=1``
(or pass ``use_cache=False``) to solve afresh every time.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.energy.ebar import CONVENTIONS, DEFAULT_N0, solve_ebar_batch
from repro.utils.units import WattsPerHz
from repro.utils.validation import check_positive

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "EbarTable",
    "DEFAULT_P_GRID",
    "DEFAULT_B_GRID",
    "DEFAULT_M_GRID",
]

#: BER grid matching the paper's sweep "BER p_b varies from 0.1 to 0.0005".
DEFAULT_P_GRID: Tuple[float, ...] = (0.1, 0.05, 0.01, 0.005, 0.001, 0.0005)
#: Constellation sizes 1..16 bits/symbol (Section 6 sweeps).
DEFAULT_B_GRID: Tuple[int, ...] = tuple(range(1, 17))
#: Cooperative node counts 1..4 on each side (Section 6 sweeps).
DEFAULT_M_GRID: Tuple[int, ...] = (1, 2, 3, 4)

#: Grid spec key: axes, n0 (hex), convention.
_MemoKey = Tuple[object, ...]

#: Process-level memo: spec key -> solved (read-only) grid ndarray.
_GRID_MEMO: Dict[_MemoKey, np.ndarray] = {}


def _cache_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "0") not in ("", "0")


class EbarTable:
    """Dense ``e_bar_b`` table over a (p, b, mt, mr) grid.

    Grid points whose target BER exceeds the modulation's zero-energy
    ceiling ``a/2`` (where ``a`` is the Gray-QAM BER coefficient) are
    infeasible; they are stored as NaN and raise ``KeyError`` on (scalar)
    lookup.

    Parameters
    ----------
    p_values, b_values, mt_values, mr_values:
        Grid axes (deduplicated and sorted ascending).
    n0:
        Noise PSD [W/Hz] the grid is solved at.
    convention:
        ``e_bar_b`` normalization convention, forwarded to the solver
        (see :func:`repro.energy.ebar.average_ber`).
    use_cache:
        When True (default), share the solved grid through the process
        memo.
    """

    def __init__(
        self,
        p_values: Sequence[float] = DEFAULT_P_GRID,
        b_values: Sequence[int] = DEFAULT_B_GRID,
        mt_values: Sequence[int] = DEFAULT_M_GRID,
        mr_values: Sequence[int] = DEFAULT_M_GRID,
        n0: WattsPerHz = DEFAULT_N0,
        convention: str = "paper",
        use_cache: bool = True,
    ) -> None:
        if convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be one of {CONVENTIONS}, got {convention!r}"
            )
        p_values = tuple(sorted(set(float(p) for p in p_values)))
        b_values = tuple(sorted(set(int(b) for b in b_values)))
        mt_values = tuple(sorted(set(int(m) for m in mt_values)))
        mr_values = tuple(sorted(set(int(m) for m in mr_values)))
        if not (p_values and b_values and mt_values and mr_values):
            raise ValueError("all grid axes must be non-empty")
        self.n0 = check_positive(n0, "n0")
        self.convention = convention
        self.p_values = p_values
        self.b_values = b_values
        self.mt_values = mt_values
        self.mr_values = mr_values
        self._p_array = np.array(p_values)
        self._b_index = {b: j for j, b in enumerate(b_values)}
        self._mt_index = {m: j for j, m in enumerate(mt_values)}
        self._mr_index = {m: j for j, m in enumerate(mr_values)}

        if not use_cache or _cache_disabled_by_env():
            self._grid = self._build()
            return
        key = self._memo_key()
        grid = _GRID_MEMO.get(key)
        if grid is None:
            grid = _GRID_MEMO[key] = self._build()
        self._grid = grid

    # ------------------------------------------------------------------ #
    # Construction internals                                             #
    # ------------------------------------------------------------------ #

    def _build(self) -> np.ndarray:
        """Solve the whole grid with one vectorized batch call."""
        p_g, b_g, mt_g, mr_g = np.meshgrid(
            self._p_array,
            np.array(self.b_values),
            np.array(self.mt_values),
            np.array(self.mr_values),
            indexing="ij",
        )
        grid = solve_ebar_batch(
            p_g, b_g, mt_g, mr_g, n0=self.n0, convention=self.convention
        )
        grid.setflags(write=False)
        return grid

    def _memo_key(self) -> _MemoKey:
        return (
            self.p_values,
            self.b_values,
            self.mt_values,
            self.mr_values,
            self.n0.hex(),
            self.convention,
        )

    @classmethod
    def clear_memory_cache(cls) -> None:
        """Drop the process-level grid memo (test/benchmark isolation)."""
        _GRID_MEMO.clear()

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self._grid.size)

    @staticmethod
    def _grid_index(index_map: Dict[int, int], value: float, label: str) -> int:
        """Membership check against one grid axis; KeyError when off-grid."""
        if float(value) != int(value) or int(value) not in index_map:
            raise KeyError(f"{label}={value} not on the table grid")
        return index_map[int(value)]

    def _axis_index(self, b: int, mt: int, mr: int) -> Tuple[int, int, int]:
        """Map exact (b, mt, mr) to grid indices; KeyError when off-grid."""
        return (
            self._grid_index(self._b_index, b, "b"),
            self._grid_index(self._mt_index, mt, "mt"),
            self._grid_index(self._mr_index, mr, "mr"),
        )

    def _nearest_p_index(self, p: "ArrayLike") -> np.ndarray:
        """Indices of the nearest grid BER(s); ties snap to the smaller p."""
        return np.argmin(
            np.abs(self._p_array - np.asarray(p, dtype=float)[..., None]), axis=-1
        )

    def lookup(
        self, p: "ArrayLike", b: Union[int, np.ndarray], mt: int, mr: int
    ) -> Union[float, np.ndarray]:
        """Exact-grid lookup; ``p`` snaps to the nearest grid value.

        Snapping mirrors how a real node would quantize its BER target to
        the preloaded table resolution.  ``p`` and ``b`` may be arrays (they
        broadcast): the result is then an ndarray in which infeasible grid
        points appear as NaN instead of raising.  Scalar lookups keep the
        strict behaviour — ``KeyError`` for off-grid ``(b, mt, mr)`` *and*
        for infeasible (NaN) entries.
        """
        if np.ndim(p) == 0 and np.ndim(b) == 0:
            j, k, l = self._axis_index(b, mt, mr)
            i = int(self._nearest_p_index(float(p)))
            value = float(self._grid[i, j, k, l])
            if np.isnan(value):
                raise KeyError(
                    f"grid point p={self.p_values[i]}, b={b} is infeasible"
                )
            return value
        p_a, b_a = np.broadcast_arrays(np.asarray(p, float), np.asarray(b))
        k = self._grid_index(self._mt_index, mt, "mt")
        l = self._grid_index(self._mr_index, mr, "mr")
        flat_b = b_a.reshape(-1)
        rows = np.array(
            [self._grid_index(self._b_index, b_val, "b") for b_val in flat_b]
        )
        i = self._nearest_p_index(p_a).reshape(-1)
        return self._grid[i, rows, k, l].reshape(p_a.shape)

    def __call__(self, p: float, b: int, mt: int, mr: int) -> float:
        """Callable alias of :meth:`lookup` (EnergyModel provider signature)."""
        return self.lookup(p, b, mt, mr)
