"""Built-in example systems used by the CLI and the acceptance suite.

Entries:

* ``scalar-unstable``   dx = x + u, as a (constant) state-linear system.
* ``statedep-2d``       dx1 = x2, dx2 = sin(x1) x1 + x2^2 x2 + u.
* ``double-integrator`` the feedback-integrator system dx = y, dy = u with
  quadratic pieces on a two-region split of the plane: the piece based on
  x alone where the drift decreases it (or the bracket condition applies),
  the augmented piece elsewhere.
* ``patchwork-halfplanes``  two half-plane regions sharing the x1 = 0
  boundary, equal quadratic pieces forced apart by distinct offsets.

Both state-linear entries pass their input matrix as a constant, so it is
never re-evaluated. Each defines its ``A`` once, by its float form
``A.entries(xs)`` (the entries at the coordinate list xs, row-major, as
Python floats), and makes the function ``A(x)`` from it with
:func:`~sdstab.sysmodel.matrix_from_entries`; their plant and
internal-model stages read the entries. ``A`` also carries a stacked form
``A.stack(X)``: the (k, n, n) stack of ``A`` at the rows of a (k, n) stack
of states, with the bits of one call per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .liecalc import ExprScalarField, ExprVectorField, check_corollary1_point, check_prop1_point
from .patchwork import ClassK, LyapunovPiece, PatchworkFamily, PatchworkW, Region, build_family
from .sysmodel import AffineSystem, StateLinearSystem, matrix_from_entries


def scalar_unstable():
    A = matrix_from_entries(lambda xs: [1.0], (1, 1))
    A.stack = lambda X: np.ones((len(X), 1, 1))
    return StateLinearSystem(A, np.array([[1.0]]), 1, 1)


def statedep_2d():
    # On Python floats: the bits of NumPy's sin and ** in less time. Where
    # floats raise (|x2| > 1.3e154 overflows, sin(inf)) NumPy gives inf or NaN,
    # quietly, kept for state_matrix to refuse.
    def entries(xs):
        x1, x2 = xs
        try:
            return [0.0, 1.0, math.sin(x1), x2 ** 2]
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                return [0.0, 1.0, float(np.sin(x1)), float(np.float64(x2) ** 2)]

    A = matrix_from_entries(entries, (2, 2))

    # The same floats for a (k, 2) stack, column by column, from NumPy's sin and
    # float_power, quiet where they give inf or NaN. np.square and an array **
    # would differ from x2 ** 2 in the last bit on some states.
    def stack(X):
        M = np.empty((len(X), 2, 2))
        M[:, 0, 0] = 0.0
        M[:, 0, 1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.sin(X[:, 0], out=M[:, 1, 0])
            np.float_power(X[:, 1], 2.0, out=M[:, 1, 1])
        return M

    A.stack = stack
    return StateLinearSystem(A, np.array([[0.0], [1.0]]), 2, 1)


@dataclass
class DoubleIntegratorExample:
    """System, pieces, and region dispatch for the feedback-integrator example."""

    system: AffineSystem
    V1: ExprScalarField          # piece on the drift-decrease region
    V2: ExprScalarField          # augmented piece elsewhere
    F: ExprVectorField           # x-dynamics as a function of (x, y)
    V_cor: ExprScalarField       # corollary-form V (x part only)
    W_cor: ExprScalarField       # corollary-form W (x, y)

    def in_first_region_closure(self, p):
        """Closure of {x1*x2 < 0, |x2| < |x1|}: where the x-based piece applies."""
        x1, x2 = float(p[0]), float(p[1])
        tol = 1e-12 * (1.0 + x1 * x1 + x2 * x2)
        return x1 * x2 <= tol and x1 * x1 - x2 * x2 >= -tol

    def classify(self, p, n_max=2):
        """Pointwise classification using the piece owning the point's region."""
        V = self.V1 if self.in_first_region_closure(p) else self.V2
        return check_prop1_point(self.system, V, p, n_max=n_max)

    def classify_integrator_form(self, p):
        region = "D1" if self.in_first_region_closure(p) else "D2"
        return check_corollary1_point(self.F, self.V_cor, self.W_cor, region, p)


def double_integrator():
    f = ExprVectorField.from_text("x2, 0", 2)
    g = ExprVectorField.from_text("0, 1", 2)
    return DoubleIntegratorExample(
        system=AffineSystem(f, g),
        V1=ExprScalarField.from_text("0.5*x1^2", 2),
        V2=ExprScalarField.from_text("0.5*x1^2 + 0.5*x2^2", 2),
        F=ExprVectorField.from_text("y", 1, with_y=True),
        V_cor=ExprScalarField.from_text("0.5*x1^2", 1),
        W_cor=ExprScalarField.from_text("0.5*y^2", 1, with_y=True),
    )


def patchwork_halfplanes(offsets=None, seed=0):
    """Two half-plane regions with equal quadratic pieces.

    With ``offsets=None`` the offsets come from the selection search;
    explicit offsets (e.g. equal ones) build the family directly, which is
    how the distinctness negative control is constructed.
    """
    dim = 2
    box = ([-4.0, -4.0], [4.0, 4.0])
    r1 = Region.from_text("x1 > 0 && x1^2 + x2^2 < 16", dim, box)
    r2 = Region.from_text("0 - x1 > 0 && x1^2 + x2^2 < 16", dim, box)
    V = ExprScalarField.from_text("x1^2 + x2^2", dim)
    w1 = ClassK.power(0.5, 2)
    w2 = ClassK.power(2.0, 2)
    pieces = [LyapunovPiece(V, r1, w1, w2), LyapunovPiece(V, r2, w1, w2)]
    if offsets is None:
        return build_family(pieces, seed=seed)
    return PatchworkW(PatchworkFamily(pieces, list(offsets))), None


SYSTEM_BUILDERS = {
    "scalar-unstable": scalar_unstable,
    "statedep-2d": statedep_2d,
}

AFFINE_BUILDERS = {
    "double-integrator": double_integrator,
}

PATCHWORK_BUILDERS = {
    "patchwork-halfplanes": patchwork_halfplanes,
}
