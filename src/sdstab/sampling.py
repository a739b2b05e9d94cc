"""Seeded quasi-random sampling (Halton) over boxes and balls.

All statistical verification in the toolkit draws from these sequences, so
a fixed seed makes every verification run reproducible byte-for-byte.
"""

import numpy as np
from scipy.stats import qmc


def unit_points(dim, count, seed=0):
    """`count` scrambled-Halton points in [0, 1)^dim."""
    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    return sampler.random(int(count))


def box_points(lo, hi, count, seed=0):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = unit_points(lo.size, count, seed)
    return lo + pts * (hi - lo)


def ball_points(dim, count, radius, seed=0):
    """`count` quasi-random points in the closed ball of given radius."""
    if not radius > 0:
        raise ValueError("ball radius must be positive, got %r" % (radius,))
    count = int(count)
    out = np.empty((0, dim))
    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    while len(out) < count:
        x = radius * (2.0 * sampler.random(max(count, 128)) - 1.0)
        out = np.concatenate([out, x[np.linalg.norm(x, axis=1) <= radius]])
    return out[:count]
