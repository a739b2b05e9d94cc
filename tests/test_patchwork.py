"""Patchwork construction, offset selection, glued evaluation, verification."""

import hashlib
import logging

import numpy as np
import pytest

from sdstab import patchwork, registry
from sdstab.errors import UncoveredPointError
from sdstab.liecalc import ExprScalarField
from sdstab.patchwork import (
    BOUNDARY_TOL,
    ClassK,
    LyapunovPiece,
    PatchworkFamily,
    PatchworkW,
    Region,
    active_indices,
    build_family,
    choose_offsets,
    sample_shared_boundaries,
    verify_patchwork,
)
from sdstab.sysmodel import ORIGIN_TOL

BOX = ([-4.0, -4.0], [4.0, 4.0])
W1 = ClassK.power(0.5, 2)
W2 = ClassK.power(2.0, 2)


def two_region_pieces(text1, text2):
    V = ExprScalarField.from_text("x1^2 + x2^2", 2)
    return [LyapunovPiece(V, Region.from_text(t, 2, BOX), W1, W2) for t in (text1, text2)]


def offset_value(family, i, x):
    """Piece i's value at x plus its offset: the oracle for a glued value."""
    return float(family.pieces[i].V(np.asarray(x, dtype=float))) + family.offsets[i]


def halfplane_pieces():
    return two_region_pieces("x1 > 0 && x1^2 + x2^2 < 16", "0 - x1 > 0 && x1^2 + x2^2 < 16")


def gap_pieces():
    """Half-planes pulled apart: the strip |x1| <= 0.1 is uncovered."""
    return two_region_pieces("x1 - 0.1 > 0 && x1^2 + x2^2 < 16", "0 - x1 - 0.1 > 0 && x1^2 + x2^2 < 16")


def overlap_pieces():
    """Half-planes pushed together: the strip |x1| < 0.5 of the ring lies in both."""
    ring = " && x1^2 + x2^2 > 0.01 && x1^2 + x2^2 < 16"
    return two_region_pieces("x1 + 0.5 > 0" + ring, "0.5 - x1 > 0" + ring)


def three_region_pieces():
    """The right half-plane and the two left quadrants, one quadratic piece each."""
    ring = " && x1^2 + x2^2 < 16"
    texts = ["x1 > 0" + ring, "0 - x1 > 0 && x2 > 0" + ring, "0 - x1 > 0 && 0 - x2 > 0" + ring]
    Vs = ["x1^2 + x2^2", "2*x1^2 + x2^2", "x1^2 + 2*x2^2"]
    return [
        LyapunovPiece(ExprScalarField.from_text(v, 2), Region.from_text(t, 2, BOX), W1, W2)
        for v, t in zip(Vs, texts)
    ]


class MinGlue(PatchworkW):
    """Glues boundaries by the minimum of the member pieces: not upper semicontinuous."""

    def glue(self, X):
        values, kind, member, table = super().glue(X)
        bottom = np.min(np.where(member, table, np.inf), axis=0)
        return np.where(kind == "boundary", bottom, values), kind, member, table


class FlipGlue(PatchworkW):
    """Counts one piece on each boundary row, alternating with floor(1e6*x2) % 2,
    so the active index flips between nearby boundary points."""

    def glue(self, X):
        values, kind, member, table = super().glue(X)
        pick = (np.floor(1e6 * np.asarray(X, dtype=float)[:, 1]) % 2).astype(int)
        boundary = kind == "boundary"
        table = np.where(boundary & (np.arange(len(table))[:, None] != pick), -np.inf, table)
        return np.where(boundary, np.max(table, axis=0), values), kind, member, table


class TestRegion:
    def test_origin_excluded(self):
        with pytest.raises(ValueError):
            Region.from_text("x1^2 + x2^2 < 4", 2, BOX)

    def test_membership_layers(self):
        r = Region.from_text("x1 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        assert r.interior([1.0, 0.0])
        assert not r.interior([0.0, 1.0])
        assert r.in_closure([0.0, 1.0])
        assert abs(r.margin([0.0, 1.0])) <= BOUNDARY_TOL
        assert not r.in_closure([-1.0, 0.0])

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Region.from_text("x1 > 0", 2, ([0.0, 0.0], [0.0, 1.0]))

    def test_interior_sampling(self):
        r = Region.from_text("x1 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        pts = r.interior_samples(50, seed=1)
        assert len(pts) == 50
        assert all(r.interior(p) for p in pts)


class TestLyapunovPiece:
    def test_nonvanishing_candidate_rejected(self):
        r = Region.from_text("x1 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        V = ExprScalarField.from_text("x1^2 + 1", 2)
        with pytest.raises(ValueError):
            LyapunovPiece(V, r, W1, W2)

    def test_envelope_violation_rejected(self):
        r = Region.from_text("x1 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        V = ExprScalarField.from_text("x1", 2)  # sign-indefinite, below the lower envelope
        with pytest.raises(ValueError):
            LyapunovPiece(V, r, W1, W2)


class TestChooseOffsets:
    def test_equal_pieces_separated(self):
        sel = choose_offsets(halfplane_pieces(), boundary_samples=32)
        assert len(set(sel.offsets)) == 2
        assert all(c > 0 for c in sel.offsets)

    def test_single_region_unconstrained(self):
        r = Region.from_text("x1^2 + x2^2 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        V = ExprScalarField.from_text("x1^2 + x2^2", 2)
        sel = choose_offsets([LyapunovPiece(V, r, W1, W2)])
        assert len(sel.offsets) == 1
        assert sel.boundary_points == []

    def test_collision_forces_delta_shift(self):
        # shared boundary on the circle |x|^2 = 1e-4, where the piece-value
        # gap (2|x|^2 + c1) - (|x|^2 + c2) = |x|^2 - c0*delta vanishes exactly
        # for the first schedule (c0=1e-3, delta=0.1): the search must shift delta
        disc = Region.from_text(
            "x1^2 + x2^2 > 0 && x1^2 + x2^2 < 0.0001", 2, ([-0.011, -0.011], [0.011, 0.011])
        )
        ring = Region.from_text(
            "x1^2 + x2^2 > 0.0001 && x1^2 + x2^2 < 0.0004", 2, ([-0.021, -0.021], [0.021, 0.021])
        )
        V2x = ExprScalarField.from_text("2*x1^2 + 2*x2^2", 2)
        V1x = ExprScalarField.from_text("x1^2 + x2^2", 2)
        lo = ClassK.power(0.5, 2)
        hi = ClassK.power(4.0, 2)
        pieces = [LyapunovPiece(V2x, disc, lo, hi), LyapunovPiece(V1x, ring, lo, hi)]
        sel = choose_offsets(pieces, boundary_samples=16)
        assert not (sel.c0 == pytest.approx(1e-3) and sel.delta == pytest.approx(0.1))
        assert sel.boundary_points
        for bp in sel.boundary_points:
            vi = pieces[0].V(bp.x) + sel.offsets[0]
            vj = pieces[1].V(bp.x) + sel.offsets[1]
            assert abs(vi - vj) > 10 * BOUNDARY_TOL


class TestGluedEvaluation:
    def setup_method(self):
        self.W = PatchworkW(PatchworkFamily(halfplane_pieces(), [0.1, 0.2]))

    def test_interior_rule(self):
        val, active = self.W.eval(np.array([1.0, 0.0]))
        assert val == pytest.approx(1.1)
        assert active == 0

    def test_boundary_max_rule(self):
        val, active = self.W.eval(np.array([0.0, 1.0]))
        assert val == pytest.approx(1.2)
        assert active == [1]

    def test_origin_rule(self):
        assert self.W.eval(np.zeros(2)) == (0.0, None)

    def test_uncovered_raises(self):
        with pytest.raises(UncoveredPointError):
            self.W.eval(np.array([5.0, 0.0]))

    def test_boundary_points_keep_their_bits(self):
        # coordinates recorded from the one-point-at-a-time bisection
        bps = sample_shared_boundaries(halfplane_pieces(), per_pair=64, seed=1)
        text = "\n".join(repr(bp.x.tolist()) for bp in bps)
        assert len(bps) == 64
        assert bps[0].x.tolist() == [0.0, -1.4854600600447865]
        assert bps[-1].x.tolist() == [0.0, 1.3655699245122128]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1ea397d917f2430ef10bbdbdac1d8ee0012dbbf4472d36388a517bb98385979a"
        )

    def test_boundary_matches_bruteforce_oracle_exactly(self):
        pieces = self.W.family.pieces
        bps = sample_shared_boundaries(pieces, per_pair=50, seed=4)
        assert bps
        for bp in bps:
            val, _ = self.W.eval(bp.x)
            oracle = max(
                offset_value(self.W.family, i, bp.x) for i, p in enumerate(pieces) if p.region.in_closure(bp.x)
            )
            assert val == oracle

    def test_interior_equals_piece_exactly(self):
        x = np.array([0.37, -1.2])
        val, active = self.W.eval(x)
        assert val == offset_value(self.W.family, 0, x)

    def test_interior_glue_walks_only_the_owner_piece(self):
        class Unread:
            def eval(self, coords):
                raise AssertionError("glue walked a piece that counts on no row")

        x = np.array([0.37, -1.2])
        want = offset_value(self.W.family, 0, x)
        self.W.family.pieces[1].V = Unread()
        values, kind, _, table = self.W.glue(x[None])
        assert kind.tolist() == ["interior"]
        assert values[0] == table[0, 0] == want
        assert table[1, 0] == -np.inf


def glued_active(W, x):
    """The kind of x and its active piece, read off one glue row."""
    X = np.asarray(x, dtype=float)[None]
    values, kind, _, table = W.glue(X)
    return str(kind[0]), int(active_indices(X, values, table)[0])


class TestActiveIndex:
    def test_larger_offset_wins(self):
        pieces = halfplane_pieces()
        Wa = PatchworkW(PatchworkFamily(pieces, [0.1, 0.2]))
        Wb = PatchworkW(PatchworkFamily(pieces, [0.2, 0.1]))
        x = np.array([0.0, 1.0])
        assert glued_active(Wa, x) == ("boundary", 1)
        assert glued_active(Wb, x) == ("boundary", 0)

    def test_interior_point_gives_its_owner(self):
        # inside a region the active piece is the owner, the only piece that counts there
        W = PatchworkW(PatchworkFamily(halfplane_pieces(), [0.2, 0.1]))
        assert glued_active(W, np.array([-1.0, 0.0])) == ("interior", 1)
        assert glued_active(W, np.array([1.0, 0.0])) == ("interior", 0)

    def test_tie_warns_and_takes_largest(self, caplog):
        W = PatchworkW(PatchworkFamily(halfplane_pieces(), [0.1, 0.1]))
        with caplog.at_level(logging.WARNING, logger="sdstab.patchwork"):
            assert glued_active(W, np.array([0.0, 1.0])) == ("boundary", 1)
        assert any("distinctness" in rec.message for rec in caplog.records)

    def test_invariant_under_common_offset_shift(self):
        pieces = halfplane_pieces()
        Wa = PatchworkW(PatchworkFamily(pieces, [0.1, 0.2]))
        Wb = PatchworkW(PatchworkFamily(pieces, [0.6, 0.7]))
        for bp in sample_shared_boundaries(pieces, per_pair=20, seed=9):
            assert glued_active(Wa, bp.x) == glued_active(Wb, bp.x)


class TestVerification:
    def test_good_family_passes(self):
        W, sel = build_family(halfplane_pieces())
        report = verify_patchwork(W, 2.0, samples=4000, seed=3)
        assert report.passed, "\n".join(report.lines())

    def test_equal_offsets_fail_distinctness(self):
        W = PatchworkW(PatchworkFamily(halfplane_pieces(), [0.1, 0.1]))
        report = verify_patchwork(W, 2.0, samples=1000, seed=3)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"boundary-distinctness"}
        witness = next(c.witness for c in report.checks if c.name == "boundary-distinctness")
        assert witness is not None
        assert abs(witness[0]) <= 1e-6  # collision sits on the shared boundary x1 = 0

    def test_min_rule_violates_semicontinuity(self):
        W, _ = build_family(halfplane_pieces())

        report = verify_patchwork(MinGlue(W.family), 2.0, samples=500, seed=3)
        assert not report.passed
        assert any(c.name == "upper-semicontinuity" and not c.passed for c in report.checks)

    def test_overlapping_regions_fail_disjointness_with_witness(self):
        W, _ = build_family(overlap_pieces())
        report = verify_patchwork(W, 2.0, samples=2000, seed=0)
        check = next(c for c in report.checks if c.name == "disjointness")
        assert not check.passed
        assert any(p.region.interior(check.witness) for p in W.family.pieces)
        assert abs(check.witness[0]) <= 0.5 + 1e-6

    def test_skipped_boundary_check_says_not_exercised(self):
        # every sampled boundary point of the overlap family lies inside a region
        W, _ = build_family(overlap_pieces())
        lines = verify_patchwork(W, 2.0, samples=2000, seed=0).lines()
        assert lines[4:] == [
            "boundary-distinctness    pass  n=47",
            "upper-semicontinuity     pass  n=47",
            "active-index-stability   pass  n=0 (not exercised: all 47 boundary points skipped)",
        ]

    def test_single_region_vacuous_boundaries(self):
        r = Region.from_text("x1^2 + x2^2 > 0 && x1^2 + x2^2 < 16", 2, BOX)
        V = ExprScalarField.from_text("x1^2 + x2^2", 2)
        W, _ = build_family([LyapunovPiece(V, r, W1, W2)])
        report = verify_patchwork(W, 2.0, samples=1000, seed=5)
        assert report.passed
        boundary_checks = [c for c in report.checks if c.name == "boundary-distinctness"]
        assert boundary_checks[0].checked == 0

    def test_envelopes_monotone_and_ordered(self):
        W, _ = build_family(halfplane_pieces())
        grid = np.linspace(0.0, 2.0, 1000)
        vals1 = np.array([W.family.a1(s) for s in grid])
        vals2 = np.array([W.family.a2(s) for s in grid])
        assert np.all(np.diff(vals1) >= 0)
        assert np.all(np.diff(vals2) >= 0)
        assert np.all(vals1 <= vals2)
        # on the whole grid at once, every element keeps the bits of its scalar call
        assert np.array_equal(W.family.a1(grid), vals1)
        assert np.array_equal(W.family.a2(grid), vals2)


class TestFamilyValidation:
    def test_offset_count_mismatch(self):
        with pytest.raises(ValueError):
            PatchworkFamily(halfplane_pieces(), [0.1])

    def test_offsets_positive(self):
        with pytest.raises(ValueError):
            PatchworkFamily(halfplane_pieces(), [0.1, -0.2])

    def test_positive_value_away_from_origin(self):
        W, _ = build_family(halfplane_pieces())
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5, 2)
            if np.linalg.norm(x) < 1e-9:
                continue
            assert W(x) > 0.0
        assert W(np.zeros(2)) == 0.0


class TestPinnedBehaviour:
    """Report lines and locate results recorded before membership was rebuilt on the margin."""

    def test_registry_family_lines(self):
        W, _ = registry.patchwork_halfplanes(seed=0)
        assert verify_patchwork(W, 2.0, samples=2000, seed=0).lines() == [
            "coverage                 pass  n=2000",
            "disjointness             pass  n=2000",
            "sandwich                 pass  n=2000",
            "positivity               pass  n=2000",
            "boundary-distinctness    pass  n=64",
            "upper-semicontinuity     pass  n=64",
            "active-index-stability   pass  n=64",
        ]

    def test_equal_offsets_lines(self):
        W, _ = registry.patchwork_halfplanes(offsets=[0.1, 0.1])
        assert verify_patchwork(W, 2.0, samples=2000, seed=0).lines() == [
            "coverage                 pass  n=2000",
            "disjointness             pass  n=2000",
            "sandwich                 pass  n=2000",
            "positivity               pass  n=2000",
            "boundary-distinctness    FAIL  n=64 witness=[0.0, 1.36557] (indices 0/1 values 1.96478/1.96478)",
            "upper-semicontinuity     pass  n=64",
            "active-index-stability   pass  n=64",
        ]

    def test_gap_family_lines(self):
        W, _ = build_family(gap_pieces())
        vacuous = " (no shared boundaries sampled (vacuous))"
        assert verify_patchwork(W, 2.0, samples=2000, seed=0).lines() == [
            "coverage                 FAIL  n=2000 witness=[-0.016599, 0.16231]",
            "disjointness             pass  n=1872",
            "sandwich                 pass  n=1872",
            "positivity               pass  n=1872",
            "boundary-distinctness    pass  n=0" + vacuous,
            "upper-semicontinuity     pass  n=0" + vacuous,
            "active-index-stability   pass  n=0" + vacuous,
        ]

    @pytest.mark.parametrize("make_pieces", [halfplane_pieces, gap_pieces, overlap_pieces])
    def test_locate_matches_constraint_oracle(self, make_pieces):
        family = PatchworkFamily(make_pieces(), [0.1, 0.2])

        def oracle(x):
            if np.max(np.abs(x)) <= ORIGIN_TOL:
                return ("origin", None)
            vals = [p.region.constraint_values(x) for p in family.pieces]
            inside = [i for i, v in enumerate(vals) if np.all(v > BOUNDARY_TOL)]
            if inside:
                return ("interior", inside[0])
            closure = [i for i, v in enumerate(vals) if np.all(v >= -BOUNDARY_TOL)]
            if closure:
                return ("boundary", closure)
            return ("uncovered", None)

        rng = np.random.default_rng(11)
        pts = list(rng.uniform(-4.5, 4.5, (400, 2)))
        pts += [np.array([0.0, t]) for t in rng.uniform(-4.5, 4.5, 100)]
        pts += [np.zeros(2), np.array([np.nan, 1.0]), np.array([0.1, 1.0]), np.array([-0.5, 1.0])]
        for x in pts:
            assert family.locate(x) == oracle(x), x

        # the batch forms answer every row with the bits of the per-point calls
        X = np.array(pts)
        table = np.array([p.region.margin(X) for p in family.pieces])
        per_point = np.array([[p.region.margin(x) for x in pts] for p in family.pieces])
        assert np.array_equal(table, per_point, equal_nan=True)
        W = PatchworkW(family)

        def w_or_nan(x):
            try:
                return W(x)
            except UncoveredPointError:
                return np.nan

        assert np.array_equal(W.glue(X)[0], [w_or_nan(x) for x in pts], equal_nan=True)


def passing_lines(samples, boundary):
    return [
        "coverage                 pass  n=%d" % samples,
        "disjointness             pass  n=%d" % samples,
        "sandwich                 pass  n=%d" % samples,
        "positivity               pass  n=%d" % samples,
        "boundary-distinctness    pass  n=%d" % boundary,
        "upper-semicontinuity     pass  n=%d" % boundary,
        "active-index-stability   pass  n=%d" % boundary,
    ]


def min_glue_report():
    W, _ = build_family(halfplane_pieces())
    return verify_patchwork(MinGlue(W.family), 2.0, samples=500, seed=3)


def flip_glue_report():
    W, _ = build_family(halfplane_pieces())
    return verify_patchwork(FlipGlue(W.family), 2.0, samples=500, seed=3)


def overlap_report():
    W, _ = build_family(overlap_pieces())
    return verify_patchwork(W, 2.0, samples=2000, seed=0)


def three_region_report():
    W, _ = build_family(three_region_pieces())
    return verify_patchwork(W, 2.0, samples=4000, seed=2)


# report lines recorded while the boundary checks still evaluated W point by point
PINNED_REPORTS = {
    min_glue_report: passing_lines(500, 64)[:5] + [
        "upper-semicontinuity     FAIL  n=64 witness=[-4e-06, 3.256088] (limit from region 1 exceeds boundary value)",
        "active-index-stability   pass  n=64",
    ],
    flip_glue_report: passing_lines(500, 64)[:5] + [
        "upper-semicontinuity     FAIL  n=64 witness=[-2e-06, -1.320843] (limit from region 1 exceeds boundary value)",
        "active-index-stability   FAIL  n=64 witness=[-0.0, 0.061333] "
        "(active index flips under small boundary perturbations)",
    ],
    overlap_report: [
        "coverage                 FAIL  n=2000 witness=[0.077151, -0.051682]",
        "disjointness             FAIL  n=1997 witness=[-0.5, 2.123869] (boundary point of regions 0/1 inside region 1)",
        "sandwich                 pass  n=1997",
        "positivity               pass  n=1997",
        "boundary-distinctness    pass  n=47",
        "upper-semicontinuity     pass  n=47",
        "active-index-stability   pass  n=0 (not exercised: all 47 boundary points skipped)",
    ],
    three_region_report: passing_lines(4000, 160),
}


class TestPinnedBoundaryChecks:
    """Every check reads the glue rule alone, and the lines keep their recorded text."""

    @pytest.mark.parametrize("report", PINNED_REPORTS, ids=lambda f: f.__name__)
    def test_pinned_lines(self, report):
        assert report().lines() == PINNED_REPORTS[report]

    def test_witnesses_keep_their_bits(self):
        assert min_glue_report().checks[5].witness.tolist() == [-4.248052574105825e-06, 3.2560875631007127]
        flip = flip_glue_report().checks
        assert flip[5].witness.tolist() == [-2.059428351290334e-06, -1.3208427706999333]
        assert flip[6].witness.tolist() == [-4.440892098500626e-16, 0.061332922487340236]
        assert overlap_report().checks[1].witness.tolist() == [-0.5, 2.1238685917832147]

    @pytest.mark.parametrize("seed", range(6))
    def test_registry_family_seeds(self, seed):
        W, _ = registry.patchwork_halfplanes(seed=seed)
        assert verify_patchwork(W, 2.0, samples=10_000, seed=seed).lines() == passing_lines(10_000, 64)

    def test_registry_family_radius_3(self):
        W, _ = registry.patchwork_halfplanes(seed=0)
        assert verify_patchwork(W, 3.0, samples=10_000, seed=0).lines() == passing_lines(10_000, 64)

    def test_stability_bisects_only_the_points_still_in_the_trial(self, monkeypatch):
        # every boundary point of the registry family keeps its active index at
        # the first scale: the boundary sampling and that scale bisect, no other
        W, _ = registry.patchwork_halfplanes(seed=0)
        rows, crossings = [], patchwork._crossings

        def counting(ri, rj, P, Q):
            rows.append(len(P))
            return crossings(ri, rj, P, Q)

        monkeypatch.setattr(patchwork, "_crossings", counting)
        assert verify_patchwork(W, 2.0, samples=500, seed=0).lines() == passing_lines(500, 64)
        assert rows == [64, 64]

    def test_equal_offsets_warn_at_the_recorded_points(self, caplog):
        W, _ = registry.patchwork_halfplanes(offsets=[0.1, 0.1])
        with caplog.at_level(logging.WARNING, logger="sdstab.patchwork"):
            verify_patchwork(W, 2.0, samples=2000, seed=0)
        messages = sorted({rec.getMessage() for rec in caplog.records})
        assert len(messages) == 128
        assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == (
            "b2806940d57e0a69e350d505ea270e145290957301184cec009120059eeb715a"
        )

    def test_per_point_api_is_not_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_patchwork read the per-point API")

        monkeypatch.setattr(PatchworkW, "eval", refuse)
        monkeypatch.setattr(PatchworkFamily, "locate", refuse)
        for report, lines in PINNED_REPORTS.items():
            assert report().lines() == lines
