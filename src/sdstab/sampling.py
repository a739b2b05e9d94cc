"""Seeded quasi-random sampling (scrambled Halton) over boxes and balls.

All statistical verification in the toolkit draws from these sequences, so
a fixed seed makes every verification run reproducible byte-for-byte.
The sampler is scipy's ``scipy.stats.qmc.Halton``; ``scipy.stats`` takes
most of a cold start, so it is imported at the first draw, not with the
package (``simulate``, ``check-lie`` and ``synthesize`` with explicit points
never load it).
"""

import numpy as np


def _halton(dim, seed):
    """The scrambled Halton sampler in [0, 1)^dim for `seed`."""
    from scipy.stats import qmc

    return qmc.Halton(d=dim, scramble=True, seed=seed)


def unit_points(dim, count, seed=0):
    """`count` scrambled-Halton points in [0, 1)^dim."""
    return _halton(dim, seed).random(int(count))


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
    sampler = _halton(dim, seed)
    while len(out) < count:
        x = radius * (2.0 * sampler.random(max(count, 128)) - 1.0)
        out = np.concatenate([out, x[np.linalg.norm(x, axis=1) <= radius]])
    return out[:count]
