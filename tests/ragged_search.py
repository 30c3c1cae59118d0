"""Closure-slot search shared by the graph, sampler and harness tests."""

import numpy as np


def _searchsorted_ragged(sorted_flat: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                         needle: np.ndarray) -> np.ndarray:
    """Binary search of needle[k] within sorted_flat[lo[k]:hi[k]], vectorized."""
    lo = lo.astype(np.int64).copy()
    hi = hi.astype(np.int64).copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        less = np.zeros(lo.shape, dtype=bool)
        less[active] = sorted_flat[mid[active]] < needle[active]
        lo = np.where(active & less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)
