"""Patchwork Lyapunov construction: region-local pieces glued by a max rule.

A family of disjoint open regions (each excluding the origin) carries one
continuous Lyapunov piece each. Adding a distinct positive offset to every
piece and taking, on shared boundaries, the maximum of the adjacent offset
pieces yields an upper-semicontinuous function W that is positive away from
the origin, zero at the origin, and sandwiched between two monotone
envelopes. Offsets are chosen by grid search so that adjacent piece values
stay separated on sampled boundary points; all set-level hypotheses
(disjointness, coverage, boundary distinctness, semicontinuity, stability
of the active index) are verified statistically on seeded quasi-random
samples rather than proven symbolically.
Every membership decision reads one number per region, its margin
(see Region). A batch of points, the rows of a (k, n) array, costs one
tree walk per constraint or piece; a single point is the one-row case.
Checks and dispatch read W only through its glue rule (PatchworkW.glue)
and the active-index rule over its rows (active_indices).
"""

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import OffsetSelectionError, UncoveredPointError
from .sampling import ball_points, box_points
from .sysmodel import at_origin, origin_value

logger = logging.getLogger(__name__)

BOUNDARY_TOL = 1e-7


class ClassK:
    """Named monotone comparison function, elementwise: a float or an array, as given."""

    def __init__(self, func, name):
        self._func = func
        self.name = name

    def __call__(self, s):
        out = self._func(np.asarray(s, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    @classmethod
    def linear(cls, slope):
        return cls(lambda s: slope * s, "%g*s" % slope)

    @classmethod
    def power(cls, coef, exponent):
        # float_power is the C library's pow on every element, as ** is on a float
        return cls(lambda s: coef * np.float_power(s, exponent), "%g*s^%g" % (coef, exponent))

    def __repr__(self):
        return "ClassK(%s)" % self.name


DOUBLING = ClassK.linear(2.0)


def _on_rows(field, X):
    """A scalar field at a point, or at each row of a (k, n) array in one tree walk."""
    X = np.asarray(X, dtype=float)
    values = field.eval(list(X.T))
    return values if np.shape(values) == X.shape[:-1] else np.full(X.shape[:-1], values)


def _norms(X):
    """Euclidean norm of each row, one dot product per row as np.linalg.norm takes it."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


class Region:
    """Bounded open set {x : all constraints > 0}, excluding the origin.

    Membership reads the margin, the smallest constraint value: interior
    is margin > BOUNDARY_TOL, the open set margin > 0, the closure margin >=
    -BOUNDARY_TOL, the boundary |margin| <= BOUNDARY_TOL; NaN is in none.
    Each test takes a point, or a (k, n) array and answers for every row.
    """

    def __init__(self, constraints, box):
        if not constraints:
            raise ValueError("a region needs at least one defining constraint")
        self.constraints = list(constraints)
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        if lo.shape != hi.shape or not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("bounding box must be finite")
        if not np.all(hi > lo):
            raise ValueError("bounding box must have positive extent")
        self.box = (lo, hi)
        self.dim = lo.size
        if self.interior(np.zeros(self.dim)):
            raise ValueError("regions must exclude the origin")

    @classmethod
    def from_text(cls, text, dim, box):
        from .exprs import coord_names, parse_constraints
        from .liecalc import ExprScalarField

        trees = parse_constraints(text, coord_names(dim))
        return cls([ExprScalarField(t, dim) for t in trees], box)

    def constraint_values(self, x):
        """Constraint values at a point, or the constraints × rows table of a (k, n) array."""
        return np.array([_on_rows(c, x) for c in self.constraints])

    def margin(self, x):
        """Smallest constraint value at x, or at each row (NaN when any constraint is NaN)."""
        m = np.min(self.constraint_values(x), axis=0)
        return float(m) if np.ndim(m) == 0 else m

    def interior(self, x):
        return self.margin(x) > BOUNDARY_TOL

    def in_closure(self, x):
        return self.margin(x) >= -BOUNDARY_TOL

    def interior_samples(self, count, seed=0):
        """Quasi-random interior points (strictly inside by the numeric margin)."""
        lo, hi = self.box
        out = np.empty((0, self.dim))
        for offset in range(64):
            if len(out) >= count:
                break
            block = box_points(lo, hi, 4 * count, seed=seed + offset)
            out = np.concatenate([out, block[self.interior(block)]])[:count]
        if not len(out):
            raise ValueError("could not sample any interior point of the region")
        return out


class LyapunovPiece:
    """A continuous region-local Lyapunov candidate with class-K envelopes.

    Construction validates V(0) = 0 and the envelope sandwich
    omega1(|x|) <= V(x) <= omega2(|x|) on sampled region points.
    """

    def __init__(self, V, region, omega1, omega2, samples=256, seed=0):
        self.V = V
        self.region = region
        self.omega1 = omega1
        self.omega2 = omega2
        v0 = float(origin_value(V, region.dim))
        if not at_origin(v0):
            raise ValueError("Lyapunov pieces must vanish at the origin (V(0)=%g)" % v0)
        X = region.interior_samples(samples, seed=seed)
        v, r = _on_rows(V, X), _norms(X)
        bad = np.flatnonzero(~((omega1(r) <= v + 1e-12) & (v <= omega2(r) + 1e-12)))
        if bad.size:
            k = bad[0]
            raise ValueError(
                "piece violates its envelopes at %s: %g not in [%g, %g]"
                % (np.round(X[k], 6), v[k], omega1(r[k]), omega2(r[k]))
            )


class PatchworkFamily:
    """Pieces, offsets, and the monotone envelopes a1 <= W <= a2 of the glued function."""

    def __init__(self, pieces, offsets):
        if not pieces:
            raise ValueError("a patchwork family needs at least one piece")
        if len(offsets) != len(pieces):
            raise ValueError("one offset per piece")
        offsets = [float(c) for c in offsets]
        if any(c <= 0 for c in offsets):
            raise ValueError("offsets must be positive")
        self.pieces = list(pieces)
        self.offsets = offsets
        self.a1, self.a2 = _build_envelopes(self.pieces, offsets)
        self.dim = pieces[0].region.dim

    def members(self, X):
        """The membership rule on each row of a (k, n) array.

        Returns the kinds and the regions × rows member table. A row is the
        "origin" (:func:`~sdstab.sysmodel.at_origin`); "interior" to its
        member regions, the first of which owns it; on the "boundary" of the
        regions whose closures hold it; or "uncovered" (as a NaN row is).
        Origin and uncovered rows have no member.
        """
        X = np.asarray(X, dtype=float)
        margins = np.array([p.region.margin(X) for p in self.pieces])
        inside, closure = margins > BOUNDARY_TOL, margins >= -BOUNDARY_TOL
        origin, interior = at_origin(X), inside.any(axis=0)
        kind = np.where(closure.any(axis=0), "boundary", "uncovered")
        kind = np.where(origin, "origin", np.where(interior, "interior", kind))
        return kind, np.where(interior, inside, closure) & ~origin

    def locate(self, x):
        """Classify x: ("origin" | "interior", i | "boundary", indices | "uncovered")."""
        kind, member = self.members(np.asarray(x, dtype=float)[None])
        regions = [int(i) for i in np.flatnonzero(member[:, 0])]
        return str(kind[0]), regions[0] if kind[0] == "interior" else regions or None


class PatchworkW:
    """The glued function: piece value inside a region, max rule on boundaries, 0 at 0."""

    def __init__(self, family):
        self.family = family

    def glue(self, X):
        """The glue rule on each row of a (k, n) array, one walk per piece counted on some row.

        Returns the values (0 at the origin, NaN where uncovered), the kinds
        and member table of PatchworkFamily.members, and the regions × rows
        table of the offset piece values that count: the owner's inside a
        region, every member's on a boundary, -inf elsewhere.
        """
        X = np.asarray(X, dtype=float)
        kind, member = self.family.members(X)
        counted = np.where(kind == "interior", member & (np.cumsum(member, axis=0) == 1), member)
        table = np.full(counted.shape, -np.inf)
        pieces, offsets = self.family.pieces, self.family.offsets
        for i in np.flatnonzero(counted.any(axis=1)):
            table[i, counted[i]] = _on_rows(pieces[i].V, X[counted[i]]) + offsets[i]
        top = np.max(table, axis=0)
        values = np.where(kind == "origin", 0.0, np.where(kind == "uncovered", np.nan, top))
        return values, kind, member, table

    def eval(self, x):
        """Value and active index (or index set on boundaries): glue on one row."""
        x = np.asarray(x, dtype=float)
        values, kind, member, table = self.glue(x[None])
        if kind[0] == "uncovered":
            raise UncoveredPointError("point %s lies outside every region closure" % np.round(x, 6), x)
        if kind[0] == "interior":
            return float(values[0]), int(np.argmax(member[:, 0]))
        return float(values[0]), [int(i) for i in np.flatnonzero(table[:, 0] == values[0])] or None

    def __call__(self, x):
        return self.eval(x)[0]


def active_indices(X, values, table):
    """The active piece of each row of X, read off its glue (values, table):
    the largest index whose piece value is within 10x the boundary tolerance
    of the glued value, the owner inside a region. Ties warn."""
    ties = np.abs(table - values) <= 10 * BOUNDARY_TOL
    if not ties.any(axis=0).all():
        raise ValueError("no piece value attains the glued value at %s" % X[~ties.any(axis=0)][0])
    for k in np.flatnonzero(ties.sum(axis=0) > 1):
        logger.warning(
            "piece values nearly tie at %s (indices %s): boundary distinctness is violated",
            np.round(X[k], 8),
            np.flatnonzero(ties[:, k]).tolist(),
        )
    return len(table) - 1 - np.argmax(ties[::-1], axis=0)


# -- boundary sampling ---------------------------------------------------------


@dataclass
class BoundaryPoint:
    x: np.ndarray
    i: int
    j: int
    anchor_i: np.ndarray
    anchor_j: np.ndarray


def _crossings(ri, rj, P, Q):
    """Where each segment P[k] -> Q[k] leaves ri, and whether that point is on
    ri's boundary and in rj's closure. Bisects all segments at once on ri's
    open set; the boundary belt absorbs the remaining dust."""
    lo, hi = np.zeros(len(P)), np.ones(len(P))
    for _ in range(80):
        mid = (lo + hi) / 2
        inside = ri.margin(P + mid[:, None] * (Q - P)) > 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    X = P + hi[:, None] * (Q - P)
    return X, (np.abs(ri.margin(X)) <= BOUNDARY_TOL) & rj.in_closure(X)


def sample_shared_boundaries(pieces, per_pair=64, seed=0, anchors=64):
    """Boundary points shared by pairs of regions, found by segment bisection
    from anchor k of region i to anchor 7k + 3 (cyclically) of region j."""
    interior = [p.region.interior_samples(anchors, seed=seed + 101 * idx) for idx, p in enumerate(pieces)]
    out = []
    for i, j in itertools.combinations(range(len(pieces)), 2):
        P = interior[i]
        Q = interior[j][(np.arange(len(P)) * 7 + 3) % len(interior[j])]
        X, ok = _crossings(pieces[i].region, pieces[j].region, P, Q)
        ok &= np.max(np.abs(X), axis=1) > BOUNDARY_TOL
        out += [BoundaryPoint(X[k], i, j, P[k], Q[k]) for k in np.flatnonzero(ok)[:per_pair]]
    return out


def _adjacent_values(pieces, bpoints):
    """Boundary points as rows, their pair indices I and J, and V_I, V_J there
    (one walk per piece over the rows it is adjacent at)."""
    X = np.reshape([bp.x for bp in bpoints], (-1, pieces[0].region.dim))
    I, J = np.reshape([(bp.i, bp.j) for bp in bpoints], (-1, 2)).astype(int).T  # noqa: E741
    vi, vj = np.empty(len(X)), np.empty(len(X))
    for i, p in enumerate(pieces):
        vi[I == i] = _on_rows(p.V, X[I == i])
        vj[J == i] = _on_rows(p.V, X[J == i])
    return X, I, J, vi, vj


# -- offset selection and envelopes --------------------------------------------


def _build_envelopes(pieces, offsets):
    """Monotone sandwich envelopes: piece envelopes shifted by the offset extremes.

    Every covered nonzero point lies in the closure of some region, whose
    glued value sits between its piece envelopes plus its offset; taking
    the min lower envelope plus the smallest offset (resp. max upper plus
    largest) bounds the glued function everywhere it is defined, and both
    bounds are nondecreasing because the piece envelopes are (read at s >= 0).
    """
    cmin = min(offsets)
    cmax = max(offsets)

    def lower(s):
        low = np.min([p.omega1(np.maximum(s, 0.0)) for p in pieces], axis=0)
        return np.where(s <= 0.0, 0.0, low + cmin)

    def upper(s):
        return np.max([p.omega2(np.maximum(s, 0.0)) for p in pieces], axis=0) + cmax

    return ClassK(lower, "lower-envelope"), ClassK(upper, "upper-envelope")


@dataclass
class OffsetSelection:
    offsets: list
    boundary_points: list = field(default_factory=list)
    c0: float = 0.0
    delta: float = 0.0


OFFSET_BASE_GRID = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)
OFFSET_DELTA_GRID = tuple(0.1 * k for k in range(1, 11))


def choose_offsets(pieces, boundary_samples=64, seed=0):
    """Pick offsets c_i = c0 * (1 + i * delta) separating piece values on boundaries.

    Grid-searches (c0, delta); a schedule is accepted when, on every
    sampled shared-boundary point, adjacent offset piece values differ by
    more than 10x the boundary tolerance, and the doubling comparison
    inequality a(V) + c < 2 a(V + c), with a = DOUBLING, holds at sampled
    region points. The piece values are evaluated once, for every schedule.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    bpoints = sample_shared_boundaries(pieces, per_pair=boundary_samples, seed=seed)
    X, I, J, vi, vj = _adjacent_values(pieces, bpoints)  # noqa: E741
    region_samples = [p.region.interior_samples(64, seed=seed + 17 * i) for i, p in enumerate(pieces)]
    sample_values = [_on_rows(p.V, pts) for p, pts in zip(pieces, region_samples)]
    points = np.concatenate([X, *region_samples])  # in the order the witness is searched

    witness = None
    for c0 in OFFSET_BASE_GRID:
        for delta in OFFSET_DELTA_GRID:
            offsets = [c0 * (1.0 + (i + 1) * delta) for i in range(len(pieces))]
            c = np.array(offsets)
            bad = np.concatenate(
                [np.abs((vi + c[I]) - (vj + c[J])) <= 10 * BOUNDARY_TOL]
                + [~(DOUBLING(v) + ci < 2 * DOUBLING(v + ci)) for v, ci in zip(sample_values, offsets)]
            )
            if not bad.any():
                return OffsetSelection(offsets=offsets, boundary_points=bpoints, c0=c0, delta=delta)
            witness = points[np.argmax(bad)]
    raise OffsetSelectionError(
        "no offset schedule in the search grid separates the sampled boundary values",
        point=witness,
    )


def build_family(pieces, boundary_samples=64, seed=0):
    """Convenience: choose offsets and assemble the family and glued function."""
    sel = choose_offsets(pieces, boundary_samples=boundary_samples, seed=seed)
    return PatchworkW(PatchworkFamily(pieces, sel.offsets)), sel


# -- verification ---------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    witness: np.ndarray | None = None
    detail: str = ""

    def line(self):
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if self.witness is not None:
            extra = " witness=%s" % np.round(self.witness, 6).tolist()
        if self.detail:
            extra += " (%s)" % self.detail
        return "%-24s %s  n=%d%s" % (self.name, status, self.checked, extra)


@dataclass
class PatchworkReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]


def _batch_check(name, pts, counted, failing, detail=lambda k: ""):
    """A check over the counted rows of pts; the last failing row is its witness."""
    bad = np.flatnonzero(counted & failing)
    if not bad.size:
        return CheckResult(name, True, int(np.count_nonzero(counted)))
    return CheckResult(name, False, int(np.count_nonzero(counted)), pts[bad[-1]], detail(bad[-1]))


def verify_patchwork(W, radius, samples=10_000, seed=0):
    """Statistical verification of the glued function over the ball of given radius.

    Checks: coverage and pairwise disjointness of the regions; the sandwich
    between the monotone envelopes; boundary distinctness of adjacent
    offset pieces; upper semicontinuity along sequences approaching each
    sampled boundary point from adjacent interiors; and local stability of
    the active index along the boundary. A sampled boundary point that lies
    inside some region is a disjointness failure. Failures are reported
    with witnesses, not raised; a boundary check that skipped every sampled
    boundary point says so in its detail. Every check is a mask over W.glue
    on a batch: samples, boundary points, approach points, nearby points.
    """
    family = W.family
    pieces = family.pieces
    pts = ball_points(family.dim, samples, radius, seed=seed)

    vals, kind, member, _ = W.glue(pts)
    covered = kind != "uncovered"
    nonzero = covered & (kind != "origin")
    r = _norms(pts)
    lo, hi = family.a1(r), family.a2(r)
    cover = _batch_check("coverage", pts, np.ones(len(pts), dtype=bool), ~covered)
    # a sample interior to two regions is where they overlap
    disjoint = _batch_check("disjointness", pts, covered, (kind == "interior") & (member.sum(axis=0) > 1))
    sandwich = _batch_check(
        "sandwich", pts, nonzero, ~((lo <= vals + 1e-12) & (vals <= hi + 1e-12)),
        lambda k: "W=%g not in [%g, %g]" % (vals[k], lo[k], hi[k]),
    )
    positive = _batch_check("positivity", pts, nonzero, ~(vals > 0.0))

    bpoints = sample_shared_boundaries(pieces, per_pair=64, seed=seed + 1)
    X, I, J, vi, vj = _adjacent_values(pieces, bpoints)  # noqa: E741
    vi, vj = vi + np.array(family.offsets)[I], vj + np.array(family.offsets)[J]
    distinct = _batch_check(
        "boundary-distinctness", X, np.ones(len(X), dtype=bool), np.abs(vi - vj) <= 10 * BOUNDARY_TOL,
        lambda k: "indices %d/%d values %g/%g" % (I[k], J[k], vi[k], vj[k]),
    )
    A, B = (np.reshape([getattr(bp, a) for bp in bpoints], X.shape) for a in ("anchor_i", "anchor_j"))
    wx, kx, mx, tx = W.glue(X)

    # limsup estimate: approach each boundary point from both adjacent
    # interiors, at the first distance d whose points at d and 2d are both
    # interior; linear extrapolation from d and 2d cancels the first-order
    # variation of the piece so the boundary limit itself is judged
    side = np.stack([A, B], axis=1) - X[:, None]
    gap = _norms(side.reshape(-1, family.dim)).reshape(-1, 2, 1)
    dist = np.multiply.outer(1.0 + _norms(X), (1e-6, 1e-5, 1e-4))[:, None]
    step = dist[..., None] * (side / np.where(gap > 0.0, gap, 1.0))[:, :, None]
    Y1, Y2 = X[:, None, None] + step, X[:, None, None] + 2 * step
    region = np.broadcast_to(np.stack([I, J], axis=1)[..., None], step.shape[:-1])
    near = 2 * dist < gap
    for i, p in enumerate(pieces):
        near[region == i] &= p.region.interior(Y1[region == i]) & p.region.interior(Y2[region == i])
    rows, sides = np.nonzero(near.any(axis=2))
    first = np.argmax(near, axis=2)[rows, sides]
    y1, y2 = Y1[rows, sides, first], Y2[rows, sides, first]
    w1, w2 = np.split(W.glue(np.concatenate([y1, y2]))[0], 2)
    limit = 2.0 * w1 - w2
    usc = _batch_check(
        "upper-semicontinuity", y1, np.ones(len(y1), dtype=bool), limit > wx[rows] + 10 * BOUNDARY_TOL,
        lambda k: "limit from region %d exceeds boundary value" % region[rows[k], sides[k], 0],
    )
    usc.checked = len(X)

    # stability: per boundary point, a nearby boundary point is tried scale by
    # scale until one keeps its active index and value. At each scale the
    # points still in the trial are re-bisected, pair by pair, between anchors
    # shifted transverse to the crossing segment by the scale, so the new
    # crossing moves along the boundary. A point (boundary or nearby) inside a
    # region ends its trial: there the regions overlap
    overlap, seen = np.where(kx == "interior", np.argmax(mx, axis=0), -1), X.copy()
    ix = np.full(len(X), -1)
    ix[overlap < 0] = active_indices(X[overlap < 0], wx[overlap < 0], tx[:, overlap < 0])
    shift = np.zeros_like(X)
    shift[np.arange(len(X)), np.argmin(np.abs(B - A), axis=1)] = 1.0 + _norms(X)
    tried, kept = np.zeros(len(X), dtype=bool), np.zeros(len(X), dtype=bool)
    for scale in (1e-4, 1e-5, 1e-6, 1e-7):
        live = np.flatnonzero((overlap < 0) & ~kept)
        if not live.size:
            break
        Y = np.empty((len(live), family.dim))
        for i, j in set(zip(I[live].tolist(), J[live].tolist())):
            pair = (I[live] == i) & (J[live] == j)
            P, Q = (E[live[pair]] + scale * shift[live[pair]] for E in (A, B))
            Z, ok = _crossings(pieces[i].region, pieces[j].region, P, Q)
            ok &= pieces[i].region.interior(P) & pieces[j].region.interior(Q)
            Y[pair] = np.where(ok[:, None], Z, np.nan)
        moved = _norms(Y - X[live]) > 0  # False where no crossing was found (NaN)
        live, Y = live[moved], Y[moved]
        wy, ky, my, ty = W.glue(Y)
        hit = ky == "interior"
        overlap[live[hit]], seen[live[hit]] = np.argmax(my[:, hit], axis=0), Y[hit]
        live, Y, wy, ty = live[~hit], Y[~hit], wy[~hit], ty[:, ~hit]
        iy = active_indices(Y, wy, ty)
        tried[live] = True
        kept[live] = (iy == ix[live]) & (wy == ty[ix[live], np.arange(len(live))])
    stability = _batch_check(
        "active-index-stability", X, tried & (overlap < 0), ~kept,
        lambda k: "active index flips under small boundary perturbations",
    )

    if np.any(overlap >= 0):
        k = np.flatnonzero(overlap >= 0)[-1]
        disjoint.passed, disjoint.witness = False, seen[k]
        disjoint.detail = "boundary point of regions %d/%d inside region %d" % (I[k], J[k], overlap[k])
    if not bpoints:
        distinct.detail = usc.detail = stability.detail = "no shared boundaries sampled (vacuous)"
    elif stability.checked == 0:
        # distinct and usc count every boundary point; only stability can skip them all
        stability.detail = "not exercised: all %d boundary points skipped" % len(bpoints)
    checks = [cover, disjoint, sandwich, positive, distinct, usc, stability]
    return PatchworkReport(checks=checks)
