"""Quality scores the benchmark reports next to its timings."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from mcmctrack.oracle import tv_distance
from mcmctrack.sampler import visit_distribution

OSPA_CUTOFF_KM = 10.0
OSPA_ORDER = 1.0


def ospa(estimates, truth, c: float = OSPA_CUTOFF_KM, p: float = OSPA_ORDER) -> float:
    """OSPA distance (Schuhmacher, Vo & Vo, IEEE TSP 2008) between two sets
    of 2-D positions: the optimal assignment of the smaller set into the
    larger, each distance cut off at ``c``, plus ``c`` for every unassigned
    point, averaged over the larger set's size."""
    x = np.asarray(estimates, dtype=float).reshape(-1, 2)
    y = np.asarray(truth, dtype=float).reshape(-1, 2)
    if len(x) > len(y):
        x, y = y, x
    m, n = len(x), len(y)
    if n == 0:
        return 0.0
    if m == 0:
        return c
    dist = np.minimum(np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2), c) ** p
    rows, cols = linear_sum_assignment(dist)
    return float(((dist[rows, cols].sum() + c ** p * (n - m)) / n) ** (1.0 / p))


def posterior_tv(samples, posterior: dict) -> float:
    """Total-variation distance between the sampler's visit distribution and
    the oracle posterior of the same parent."""
    return tv_distance(visit_distribution(samples), posterior)
