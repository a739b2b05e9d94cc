"""CLI commands: exit codes, report lines, CSV formats, determinism."""

import hashlib
import re
from pathlib import Path

from sdstab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def write(path, text):
    path.write_text(text)
    return str(path)


SIM_SCALAR = """
[experiment]
kind = simulate
seed = 0
[system]
registry = scalar-unstable
[controller]
type = frozen-gain
[partition]
h = 0.1
count = 51
[run]
x0 = 1
horizon = 5
final_norm = 0.001
"""


def test_simulate_scalar_passes(tmp_path, capsys):
    cfg = write(tmp_path / "sim.ini", SIM_SCALAR)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT pass" in out
    header = (tmp_path / "out" / "traj_0.csv").read_text().splitlines()[0]
    assert header == "t,x1,u1,V"
    cert_header = (tmp_path / "out" / "cert_0.csv").read_text().splitlines()[0]
    assert cert_header == "k,T_k,V_start,V_end,L_k,Vmax,bound_ok,C_k"


def test_simulate_determinism(tmp_path):
    cfg = write(tmp_path / "sim.ini", SIM_SCALAR)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    for name in ("traj_0.csv", "cert_0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


SIM_STATEDEP = """
[experiment]
kind = simulate
seed = 0
[system]
registry = statedep-2d
[controller]
type = frozen-gain
[partition]
h = 0.05
count = 201
[run]
x0 = 2, -1
horizon = 1
final_norm = 10
certificate = per-sample-quadratic
"""

# SHA-256 of the CSV text SIM_STATEDEP writes. Any change to the arithmetic
# that reaches the CSVs (synthesis, model run, playback, plant run) changes
# them; re-record them only with a change that says why its output moves.
SIM_STATEDEP_SHA256 = {
    "traj_0.csv": "10d16d8b1912d7077e79732e0d471e1a263f06fb137e2088b1fb3859bf502834",
    "cert_0.csv": "48527426dff9b61570fa9e1863f35227374da43a047ca284ba51d78565373758",
}


def test_simulate_statedep_csvs_byte_identical_to_recorded(tmp_path):
    cfg = write(tmp_path / "sd.ini", SIM_STATEDEP)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() for name in SIM_STATEDEP_SHA256
    }
    assert digests == SIM_STATEDEP_SHA256


def test_readme_ini_examples_run(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for i, text in enumerate(blocks):
        cfg = write(tmp_path / ("readme_%d.ini" % i), text)
        command = re.search(r"^kind\s*=\s*(\S+)", text, re.M).group(1)
        code = main([command, "--config", cfg, "--out", str(tmp_path / ("out_%d" % i)), "--quiet"])
        assert code == 0, "README ini block %d (%s) exited %d" % (i, command, code)


def test_simulate_zero_controller_fails_certificate(tmp_path, capsys):
    cfg = write(
        tmp_path / "z.ini",
        """
[experiment]
kind = simulate
[system]
registry = double-integrator
[controller]
type = zero
[partition]
h = 0.1
count = 11
[run]
x0 = 1, 0.5
horizon = 1
certificate = expression
V = x1^2 + x2^2
""",
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "RESULT fail" in capsys.readouterr().out


def test_simulate_multiple_initial_states(tmp_path):
    cfg = write(
        tmp_path / "m.ini",
        SIM_SCALAR.replace("x0 = 1", "x0 = 1 ; -0.5"),
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert (tmp_path / "o" / "traj_1.csv").exists()


def test_synthesize_reports_closed_form_gains(tmp_path, capsys):
    cfg = write(
        tmp_path / "s.ini",
        """
[experiment]
kind = synthesize
[system]
registry = statedep-2d
[synthesize]
points = 0,0
""",
    )
    code = main(["synthesize", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "-1.0, -1.732051" in out  # frozen pair at the origin is the double integrator
    assert "uniform-bounds:" in out


def test_synthesize_scalar_unstable_gain(tmp_path, capsys):
    cfg = write(
        tmp_path / "s.ini",
        """
[experiment]
kind = synthesize
[system]
registry = scalar-unstable
[synthesize]
points = 0
""",
    )
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "-2.414214" in capsys.readouterr().out


def test_synthesize_unstabilizable_inline(tmp_path, capsys):
    cfg = write(
        tmp_path / "bad.ini",
        """
[experiment]
kind = synthesize
[system]
type = state-linear
dim = 1
A = 1
B = 0
[synthesize]
points = 0
""",
    )
    code = main(["synthesize", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT STABILIZABLE" in out


def test_check_lie_registry_grid(tmp_path, capsys):
    cfg = write(
        tmp_path / "lie.ini",
        """
[experiment]
kind = check-lie
[system]
registry = double-integrator
[grid]
extent = 2
points = 9
""",
    )
    code = main(["check-lie", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT pass 80 0" in out


def test_check_lie_rejects_sign_indefinite_candidate(tmp_path, capsys):
    cfg = write(
        tmp_path / "lie.ini",
        """
[experiment]
kind = check-lie
[system]
type = affine
dim = 2
f = x2, 0
g = 0, 1
[lie]
V = x1
[grid]
extent = 1
points = 5
""",
    )
    code = main(["check-lie", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_check_patchwork_passes(tmp_path, capsys):
    cfg = write(
        tmp_path / "pw.ini",
        """
[experiment]
kind = check-patchwork
[patchwork]
registry = patchwork-halfplanes
samples = 2000
radius = 2
""",
    )
    code = main(["check-patchwork", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT pass 7 0" in out


def test_check_patchwork_forced_equal_offsets_fails(tmp_path, capsys):
    cfg = write(
        tmp_path / "pw.ini",
        """
[experiment]
kind = check-patchwork
[patchwork]
registry = patchwork-halfplanes
samples = 500
radius = 2
offsets = 0.1, 0.1
""",
    )
    code = main(["check-patchwork", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "boundary-distinctness" in out and "witness" in out


def test_patchwork_simulate_emits_w_column(tmp_path):
    cfg = write(
        tmp_path / "spw.ini",
        """
[experiment]
kind = simulate
[system]
registry = statedep-2d
[controller]
type = patchwork
[patchwork]
registry = patchwork-halfplanes
[partition]
h = 0.05
count = 21
[run]
x0 = 1, -0.5
horizon = 1
final_norm = 1
""",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    header = (tmp_path / "o" / "traj_0.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,V,W"


class TestConfigErrors:
    def test_missing_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.ini"]) == 2

    def test_wrong_kind(self, tmp_path, capsys):
        cfg = write(tmp_path / "k.ini", "[experiment]\nkind = synthesize\n")
        assert main(["simulate", "--config", cfg]) == 2

    def test_bad_expression(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "e.ini",
            """
[experiment]
kind = synthesize
[system]
type = state-linear
dim = 1
A = tanh(x1)
B = 1
[synthesize]
points = 0
""",
        )
        assert main(["synthesize", "--config", cfg]) == 2

    def test_unknown_registry(self, tmp_path):
        cfg = write(
            tmp_path / "u.ini",
            "[experiment]\nkind = synthesize\n[system]\nregistry = nope\n",
        )
        assert main(["synthesize", "--config", cfg]) == 2

    def test_bad_partition(self, tmp_path):
        cfg = write(
            tmp_path / "p.ini",
            """
[experiment]
kind = simulate
[system]
registry = scalar-unstable
[partition]
h = -0.1
[run]
x0 = 1
horizon = 1
""",
        )
        assert main(["simulate", "--config", cfg]) == 2


def test_seed_override_changes_nothing_for_fixed_run(tmp_path):
    # the scalar simulate run draws no samples, so any seed gives identical bytes
    cfg = write(tmp_path / "sim.ini", SIM_SCALAR)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "7", "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "99", "--quiet"]) == 0
    assert (tmp_path / "s1" / "traj_0.csv").read_bytes() == (tmp_path / "s2" / "traj_0.csv").read_bytes()
