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
(see Region).
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import OffsetSelectionError, UncoveredPointError
from .sampling import ball_points, box_points

logger = logging.getLogger(__name__)

BOUNDARY_TOL = 1e-7
ORIGIN_TOL = 1e-12


class ClassK:
    """Named monotone comparison function."""

    def __init__(self, func, name):
        self._func = func
        self.name = name

    def __call__(self, s):
        return float(self._func(float(s)))

    @classmethod
    def linear(cls, slope):
        return cls(lambda s: slope * s, "%g*s" % slope)

    @classmethod
    def power(cls, coef, exponent):
        return cls(lambda s: coef * s**exponent, "%g*s^%g" % (coef, exponent))

    def __repr__(self):
        return "ClassK(%s)" % self.name


DOUBLING = ClassK.linear(2.0)


class Region:
    """Bounded open set {x : all constraints > 0}, excluding the origin.

    Membership reads the margin, the smallest constraint value: interior
    is margin > BOUNDARY_TOL, the open set margin > 0, the closure margin >=
    -BOUNDARY_TOL, the boundary |margin| <= BOUNDARY_TOL; NaN is in none.
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
        x = np.asarray(x, dtype=float)
        return np.array([float(c(x)) for c in self.constraints])

    def margin(self, x):
        """Smallest constraint value at x (NaN when any constraint is NaN)."""
        return float(np.min(self.constraint_values(x)))

    def interior(self, x):
        return self.margin(x) > BOUNDARY_TOL

    def in_closure(self, x):
        return self.margin(x) >= -BOUNDARY_TOL

    def interior_samples(self, count, seed=0):
        """Quasi-random interior points (strictly inside by the numeric margin)."""
        out = []
        lo, hi = self.box
        offset = 0
        while len(out) < count and offset < 64:
            for x in box_points(lo, hi, 4 * count, seed=seed + offset):
                if self.interior(x):
                    out.append(x)
                    if len(out) == count:
                        break
            offset += 1
        if not out:
            raise ValueError("could not sample any interior point of the region")
        return np.array(out)


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
        v0 = float(V(np.zeros(region.dim)))
        if abs(v0) > ORIGIN_TOL:
            raise ValueError("Lyapunov pieces must vanish at the origin (V(0)=%g)" % v0)
        for x in region.interior_samples(samples, seed=seed):
            v = float(V(x))
            r = float(np.linalg.norm(x))
            if not (omega1(r) <= v + 1e-12 and v <= omega2(r) + 1e-12):
                raise ValueError(
                    "piece violates its envelopes at %s: %g not in [%g, %g]"
                    % (np.round(x, 6), v, omega1(r), omega2(r))
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

    def locate(self, x):
        """Classify x: ("origin" | "interior", i | "boundary", indices | "uncovered")."""
        x = np.asarray(x, dtype=float)
        if float(np.max(np.abs(x))) <= ORIGIN_TOL:
            return ("origin", None)
        adjacent = []
        for i, p in enumerate(self.pieces):
            m = p.region.margin(x)
            if m > BOUNDARY_TOL:
                return ("interior", i)
            if m >= -BOUNDARY_TOL:
                adjacent.append(i)
        if adjacent:
            return ("boundary", adjacent)
        return ("uncovered", None)

    def piece_value(self, i, x):
        return float(self.pieces[i].V(np.asarray(x, dtype=float))) + self.offsets[i]


class PatchworkW:
    """The glued function: piece value inside a region, max rule on boundaries, 0 at 0."""

    def __init__(self, family):
        self.family = family

    def eval(self, x):
        """Value and active index (or index set on boundaries)."""
        kind, info = self.family.locate(x)
        if kind == "origin":
            return 0.0, None
        if kind == "interior":
            return self.family.piece_value(info, x), info
        if kind == "boundary":
            vals = [(self.family.piece_value(i, x), i) for i in info]
            top = max(v for v, _ in vals)
            active = [i for v, i in vals if v == top]
            return top, active
        raise UncoveredPointError(
            "point %s lies outside every region closure" % np.round(np.asarray(x, float), 6),
            point=np.asarray(x, dtype=float),
        )

    def __call__(self, x):
        return self.eval(x)[0]


def active_index(W, x):
    """Largest index attaining the boundary maximum (ties warn and take the largest)."""
    family = W.family
    kind, info = family.locate(x)
    if kind != "boundary":
        raise ValueError("active index is defined on region boundaries, point is %s" % kind)
    vals = [(family.piece_value(i, x), i) for i in info]
    top = max(v for v, _ in vals)
    ties = [i for v, i in vals if abs(v - top) <= 10 * BOUNDARY_TOL]
    if len(ties) > 1:
        logger.warning(
            "piece values nearly tie at %s (indices %s): boundary distinctness is violated",
            np.round(np.asarray(x, float), 8),
            ties,
        )
    return max(ties)


# -- boundary sampling ---------------------------------------------------------


@dataclass
class BoundaryPoint:
    x: np.ndarray
    i: int
    j: int
    anchor_i: np.ndarray
    anchor_j: np.ndarray


def _crossing(ri, rj, p, q):
    """Where segment p -> q leaves ri, if on ri's boundary and in rj's closure, else None.

    Bisects on ri's open set; the boundary belt absorbs the remaining dust.
    """
    lo_t, hi_t = 0.0, 1.0
    for _ in range(80):
        mid = (lo_t + hi_t) / 2
        if ri.margin(p + mid * (q - p)) > 0.0:
            lo_t = mid
        else:
            hi_t = mid
    x = p + hi_t * (q - p)
    if abs(ri.margin(x)) <= BOUNDARY_TOL and rj.in_closure(x):
        return x
    return None


def sample_shared_boundaries(pieces, per_pair=64, seed=0, anchors=64):
    """Boundary points shared by pairs of regions, found by segment bisection."""
    out = []
    interior = []
    for idx, p in enumerate(pieces):
        interior.append(p.region.interior_samples(anchors, seed=seed + 101 * idx))
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            ri, rj = pieces[i].region, pieces[j].region
            found = 0
            for k in range(len(interior[i])):
                if found >= per_pair:
                    break
                p = interior[i][k % len(interior[i])]
                q = interior[j][(k * 7 + 3) % len(interior[j])]
                x = _crossing(ri, rj, p, q)
                if x is not None and float(np.max(np.abs(x))) > BOUNDARY_TOL:
                    out.append(BoundaryPoint(x=x, i=i, j=j, anchor_i=p, anchor_j=q))
                    found += 1
    return out


# -- offset selection and envelopes --------------------------------------------


def _build_envelopes(pieces, offsets):
    """Monotone sandwich envelopes: piece envelopes shifted by the offset extremes.

    Every covered nonzero point lies in the closure of some region, whose
    glued value sits between its piece envelopes plus its offset; taking
    the min lower envelope plus the smallest offset (resp. max upper plus
    largest) bounds the glued function everywhere it is defined, and both
    bounds are nondecreasing because the piece envelopes are.
    """
    cmin = min(offsets)
    cmax = max(offsets)

    def lower(s):
        if s <= 0.0:
            return 0.0
        return min(p.omega1(s) for p in pieces) + cmin

    def upper(s):
        return max(p.omega2(max(s, 0.0)) for p in pieces) + cmax

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
    region points.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    bpoints = sample_shared_boundaries(pieces, per_pair=boundary_samples, seed=seed)
    region_samples = [p.region.interior_samples(64, seed=seed + 17 * i) for i, p in enumerate(pieces)]

    witness = None
    for c0 in OFFSET_BASE_GRID:
        for delta in OFFSET_DELTA_GRID:
            offsets = [c0 * (1.0 + (i + 1) * delta) for i in range(len(pieces))]
            ok = True
            for bp in bpoints:
                vi = float(pieces[bp.i].V(bp.x)) + offsets[bp.i]
                vj = float(pieces[bp.j].V(bp.x)) + offsets[bp.j]
                if abs(vi - vj) <= 10 * BOUNDARY_TOL:
                    ok = False
                    witness = bp.x
                    break
            if ok:
                for i, pts in enumerate(region_samples):
                    for x in pts:
                        v = float(pieces[i].V(x))
                        if not DOUBLING(v) + offsets[i] < 2 * DOUBLING(v + offsets[i]):
                            ok = False
                            witness = x
                            break
                    if not ok:
                        break
            if ok:
                return OffsetSelection(offsets=offsets, boundary_points=bpoints, c0=c0, delta=delta)
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


def verify_patchwork(W, radius, samples=10_000, seed=0):
    """Statistical verification of the glued function over the ball of given radius.

    Checks: coverage and pairwise disjointness of the regions; the sandwich
    between the monotone envelopes; boundary distinctness of adjacent
    offset pieces; upper semicontinuity along sequences approaching each
    sampled boundary point from adjacent interiors; and local stability of
    the active index along the boundary. A sampled boundary point that lies
    inside some region is a disjointness failure. Failures are reported
    with witnesses, not raised; a boundary check that skipped every sampled
    boundary point says so in its detail.
    """
    family = W.family
    pieces = family.pieces
    pts = ball_points(family.dim, samples, radius, seed=seed)

    cover = CheckResult("coverage", True, 0)
    disjoint = CheckResult("disjointness", True, 0)
    sandwich = CheckResult("sandwich", True, 0)
    positive = CheckResult("positivity", True, 0)
    for x in pts:
        cover.checked += 1
        try:
            val, active = W.eval(x)
        except UncoveredPointError:
            cover.passed = False
            cover.witness = x
            continue
        disjoint.checked += 1
        # locate returns the first region x is interior to: only later ones can overlap it
        if isinstance(active, int) and any(p.region.interior(x) for p in pieces[active + 1 :]):
            disjoint.passed = False
            disjoint.witness = x
        if active is None:  # the origin
            continue
        r = float(np.linalg.norm(x))
        sandwich.checked += 1
        if not (family.a1(r) <= val + 1e-12 and val <= family.a2(r) + 1e-12):
            sandwich.passed = False
            sandwich.witness = x
            sandwich.detail = "W=%g not in [%g, %g]" % (val, family.a1(r), family.a2(r))
        positive.checked += 1
        if not val > 0.0:
            positive.passed = False
            positive.witness = x

    bpoints = sample_shared_boundaries(pieces, per_pair=64, seed=seed + 1)
    distinct = CheckResult("boundary-distinctness", True, 0)
    usc = CheckResult("upper-semicontinuity", True, 0)
    stability = CheckResult("active-index-stability", True, 0)
    if not bpoints:
        detail = "no shared boundaries sampled (vacuous)"
        distinct.detail = usc.detail = stability.detail = detail

    def overlaps(y, active, bp):
        # a boundary point inside region `active` is where two regions overlap
        if isinstance(active, int):
            disjoint.passed = False
            disjoint.witness = y
            disjoint.detail = "boundary point of regions %d/%d inside region %d" % (bp.i, bp.j, active)
        return isinstance(active, int)

    for bp in bpoints:
        x = bp.x
        vi = family.piece_value(bp.i, x)
        vj = family.piece_value(bp.j, x)
        distinct.checked += 1
        if abs(vi - vj) <= 10 * BOUNDARY_TOL:
            distinct.passed = False
            distinct.witness = x
            distinct.detail = "indices %d/%d values %g/%g" % (bp.i, bp.j, vi, vj)

        # limsup estimate: approach the boundary point from each adjacent
        # interior; linear extrapolation from distances d and 2d cancels the
        # first-order variation of the piece so the boundary limit itself is judged
        wx, active = W.eval(x)
        usc.checked += 1
        scale = 1.0 + float(np.linalg.norm(x))
        for anchor, idx in ((bp.anchor_i, bp.i), (bp.anchor_j, bp.j)):
            gap = float(np.linalg.norm(anchor - x))
            if gap == 0.0:
                continue
            direction = (anchor - x) / gap
            for dist in (1e-6 * scale, 1e-5 * scale, 1e-4 * scale):
                if 2 * dist >= gap:
                    break
                y1 = x + dist * direction
                y2 = x + 2 * dist * direction
                if not (pieces[idx].region.interior(y1) and pieces[idx].region.interior(y2)):
                    continue
                limit = 2.0 * W(y1) - W(y2)
                if limit > wx + 10 * BOUNDARY_TOL:
                    usc.passed = False
                    usc.witness = y1
                    usc.detail = "limit from region %d exceeds boundary value" % idx
                break

        if overlaps(x, active, bp):
            continue
        ix = active_index(W, x)
        verdict = None
        for scale in (1e-4, 1e-5, 1e-6, 1e-7):
            y = _nearby_boundary_point(pieces, bp, scale=scale)
            if y is None or not float(np.linalg.norm(y - x)) > 0:
                continue
            wy, active = W.eval(y)
            if overlaps(y, active, bp):
                verdict = None
                break
            iy = active_index(W, y)
            verdict = iy == ix and wy == family.piece_value(ix, y)
            if verdict:
                break
        if verdict is not None:
            stability.checked += 1
            if not verdict:
                stability.passed = False
                stability.witness = x
                stability.detail = "active index flips under small boundary perturbations"

    # distinct and usc count every boundary point; only stability can skip them all
    if bpoints and stability.checked == 0:
        stability.detail = "not exercised: all %d boundary points skipped" % len(bpoints)
    checks = [cover, disjoint, sandwich, positive, distinct, usc, stability]
    return PatchworkReport(checks=checks)


def _nearby_boundary_point(pieces, bp, scale=1e-4):
    """Re-bisect between slightly shifted anchors: a boundary point near bp.x."""
    ri, rj = pieces[bp.i].region, pieces[bp.j].region
    d = bp.anchor_j - bp.anchor_i
    shift = np.zeros_like(d)
    # shift transverse to the crossing segment so the new crossing moves along the boundary
    k = int(np.argmin(np.abs(d)))
    shift[k] = scale * (1.0 + float(np.linalg.norm(bp.x)))
    p = bp.anchor_i + shift
    q = bp.anchor_j + shift
    if not ri.interior(p) or not rj.interior(q):
        return None
    return _crossing(ri, rj, p, q)
