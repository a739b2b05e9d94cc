"""Seeded quasi-random sampling (scrambled Halton) over boxes and balls.

All statistical verification in the toolkit draws from these sequences, so
a fixed seed makes every verification run reproducible byte-for-byte.
The sampler is Owen's randomized Halton sequence (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808) in NumPy. It draws the same
points, bit for bit, as ``scipy.stats.qmc.Halton(d, scramble=True,
seed=seed)``, which the tests check; scipy's sampler is not used, so no
command loads ``scipy.stats``.
"""

import math

import numpy as np


def _primes(count):
    """The first `count` primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


class _Halton:
    """Scrambled Halton points in [0, 1)^dim; successive draws continue the sequence.

    Coordinate k is the van der Corput sequence in the k-th prime base b with
    every digit position j scrambled by its own random permutation of
    0..b-1. Point i is the sum over the digits d_j of i, least significant
    first, of ``perm_j[d_j] * r_j``, where ``r_0 = 1/b`` and ``r_j = r_{j-1}/b``,
    over the ceil(54 / log2(b)) - 1 positions a double resolves. The
    permutations, the weights and the order of the additions are scipy's, so
    the bits are too.
    """

    def __init__(self, dim, seed):
        rng = np.random.default_rng(seed)
        self._bases = _primes(dim)
        self._tables = []
        for b in self._bases:
            count = math.ceil(54 / math.log2(b)) - 1
            # one shuffle per row, in row order: the draws of rng.shuffle on each row in turn
            perms = rng.permuted(np.tile(np.arange(b), (count, 1)), axis=1)
            weights = np.empty(count)
            r = 1.0 / b
            for j in range(count):
                weights[j] = r
                r /= b
            self._tables.append(perms * weights[:, None])
        self._next = 0

    def random(self, n):
        """The next `n` points, as an (n, dim) array."""
        out = np.empty((n, len(self._bases)))
        start, self._next = self._next, self._next + n
        index = np.arange(start, self._next)
        for k, (b, table) in enumerate(zip(self._bases, self._tables)):
            v = np.zeros(n)
            q = index
            top = self._next - 1  # the largest quotient left in the draw
            for row in table:
                if top > 0:
                    q, digit = np.divmod(q, b)
                    v += row[digit]
                    top //= b
                else:  # every digit left is 0
                    v += row[0]
            out[:, k] = v
        return out


def unit_points(dim, count, seed=0):
    """`count` scrambled-Halton points in [0, 1)^dim."""
    return _Halton(dim, seed).random(int(count))


def box_points(lo, hi, count, seed=0):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    pts = unit_points(lo.size, count, seed)
    return lo + pts * (hi - lo)


def ball_points(dim, count, radius, seed=0):
    """`count` quasi-random points in the closed ball of given radius.

    Membership is decided on the points scaled by the power of two that brings
    the radius into [0.5, 1): the scaling is exact, and the norm neither
    overflows at a huge radius nor underflows at a tiny one.
    """
    if not 0 < radius < math.inf:
        raise ValueError("ball radius must be positive and finite, got %r" % (radius,))
    count = int(count)
    scaled_radius, exponent = math.frexp(radius)
    share = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) / 2.0**dim  # the ball's share of its cube
    sampler = _Halton(dim, seed)
    chunks = [np.empty((0, dim))]
    kept = 0
    while kept < count:
        # a point's bits do not depend on how the draws are chunked, so each
        # draw is sized for the points still missing, in draws of 128 to 2^16
        size = min(max(math.ceil((count - kept) / share), 128), 1 << 16)
        x = radius * (2.0 * sampler.random(size) - 1.0)
        x = x[np.linalg.norm(np.ldexp(x, -exponent), axis=1) <= scaled_radius]
        chunks.append(x)
        kept += len(x)
    return np.concatenate(chunks)[:count]
