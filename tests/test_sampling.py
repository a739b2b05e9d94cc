"""Seeded quasi-random sampling."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdstab.sampling import _Halton, ball_points, box_points, unit_points

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_ball_points_rejects_a_non_positive_or_infinite_radius(radius):
    # with a negative or NaN radius the rejection loop never collects a point,
    # and an infinite one gives infinite or NaN points
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        ball_points(2, 10, radius)


@pytest.mark.parametrize("radius", [1e155, 1e200, 1e-300])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_ball_points_at_a_huge_or_tiny_radius_are_the_unit_ball_scaled(dim, radius):
    # |x|^2 overflows from a radius of about 1.3e154 and underflows near 1e-154:
    # the membership test must see neither, nor keep a point outside the ball
    pts = ball_points(dim, 2000, radius, seed=1)
    unit = ball_points(dim, 2000, 1.0, seed=1)
    np.testing.assert_allclose(pts / radius, unit, rtol=1e-14, atol=1e-14)
    assert (np.linalg.norm(pts / radius, axis=1) <= 1.0).all()


@pytest.mark.parametrize("dim", [1, 3, 6, 8])
def test_ball_points_do_not_depend_on_the_draw_sizes(dim):
    # one large draw, scaled and filtered, keeps the same rows as ball_points' sized draws
    count, radius = 500, 1.5
    x = radius * (2.0 * unit_points(dim, 100 * count, seed=2) - 1.0)
    want = x[np.linalg.norm(x, axis=1) <= radius][:count]
    assert want.shape == (count, dim)
    assert ball_points(dim, count, radius, seed=2).tobytes() == want.tobytes()


# SHA-256 of the C-order float64 bytes of each draw. Every statistical check
# and every ball-sampled synthesis reads these sequences, so a change of
# sampler, scrambling or seeding moves a digest.
PINNED_SHA256 = {
    "unit": "9bb66474b171f90670bc000230897cc3dc555a5ed8f6961ca9c1577b234b7960",
    "box": "1a4a79a99b38cc18173ceef988ee02f604bb600d00f21ec632f38afc646a8cc4",
    "ball": "74a5c6c309088c00ca661b8d2f12689b5927939a10a5f7d250c21c741a4ed1ae",
}


@pytest.mark.parametrize(
    "name, draw",
    [
        ("unit", lambda: unit_points(3, 100, seed=5)),
        ("box", lambda: box_points([-4, -4], [4, 4], 512, seed=3)),
        ("ball", lambda: ball_points(2, 1000, 2.0, seed=0)),
    ],
)
def test_halton_points_are_pinned(name, draw):
    pts = np.ascontiguousarray(draw(), dtype=np.float64)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == PINNED_SHA256[name]


# Successive draws from one sampler, n = 0 included: the index of the next
# point carries over from one draw to the next.
ORACLE_DRAWS = (1, 7, 128, 10000, 333, 0, 50000)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_halton_matches_scipy_bit_for_bit(dim):
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in range(6):
        # seed=, not rng=: scipy draws other points for rng=seed
        try:
            oracle = qmc.Halton(d=dim, scramble=True, seed=seed)
        except TypeError:
            pytest.skip("this scipy no longer takes Halton(seed=), the keyword the pins were drawn with")
        sampler = _Halton(dim, seed)
        for n in ORACLE_DRAWS:
            want = oracle.random(n)
            got = sampler.random(n)
            assert got.shape == want.shape == (n, dim)
            assert got.tobytes() == want.tobytes(), (dim, seed, n)


COLD_START_CONFIGS = {
    "simulate": """
[experiment]
kind = simulate
[system]
registry = statedep-2d
[controller]
type = frozen-gain
[partition]
h = 0.05
[run]
x0 = 2, -1
horizon = 0.2
final_norm = 10
""",
    "check-lie": """
[experiment]
kind = check-lie
[system]
registry = double-integrator
[grid]
extent = 2
points = 5
""",
    "synthesize": """
[experiment]
kind = synthesize
[system]
registry = statedep-2d
[synthesize]
points = 0,0 ; 1,-1
""",
    "check-patchwork": """
[experiment]
kind = check-patchwork
[patchwork]
registry = patchwork-halfplanes
samples = 200
radius = 2
""",
}

# Runs each command in turn and records, after each, its exit code and
# whether scipy.stats has been imported so far.
COLD_START_SCRIPT = """
import json, sys
import sdstab, sdstab.cli
seen = [("import", 0, "scipy.stats" in sys.modules)]
for command, cfg, out in json.loads(sys.argv[1]):
    code = sdstab.cli.main([command, "--config", cfg, "--out", out, "--quiet"])
    seen.append((command, code, "scipy.stats" in sys.modules))
print(json.dumps(seen))
"""


def test_no_command_loads_scipy_stats(tmp_path):
    runs = []
    for command, text in COLD_START_CONFIGS.items():
        cfg = tmp_path / (command + ".ini")
        cfg.write_text(text)
        runs.append((command, str(cfg), str(tmp_path / command)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [
        ["import", 0, False],
        ["simulate", 0, False],
        ["check-lie", 0, False],
        ["synthesize", 0, False],
        ["check-patchwork", 0, False],  # its Halton draws need no scipy.stats
    ]
