"""CLI commands: exit codes, report lines, CSV formats, determinism."""

import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdstab import registry
from sdstab.cli import Config, _build_system, main
from sdstab.exprs import coord_names, parse_scalar
from sdstab.sysmodel import StateLinearSystem

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


# ``[partition] count`` is no longer read; these pinned configs still set
# it, so they also show that such a config runs as it did.
SIM_PIN = """
[experiment]
kind = simulate
seed = 0
[system]
{system}
[controller]
type = {controller}
{extra}
[partition]
h = {h}
count = {count}
[run]
x0 = {x0}
horizon = 1
final_norm = 10
certificate = {certificate}
"""

# SHA-256 of the CSVs of short runs that SIM_STATEDEP does not cover: the
# hold variant, the patchwork dispatch, the zero controller on a constant
# state-linear system and on an inline affine one, and the frozen gain with
# a B that depends on the state. (exit code, traj, cert)
SIM_PINS = {
    "frozen-gain-zoh": (
        dict(system="registry = statedep-2d", controller="frozen-gain-zoh", extra="",
             h=0.05, count=201, x0="2, -1", certificate="per-sample-quadratic"),
        0,
        "f1785d9f5c234e67b8c1669ad3e682c2a74300654e3a449d6004437e0be67c32",
        "34d582efde31a8b065504d2993dd0c5bc81561bae143fc6f79a583da4088cd26",
    ),
    "patchwork": (
        dict(system="registry = statedep-2d", controller="patchwork",
             extra="[patchwork]\nregistry = patchwork-halfplanes",
             h=0.05, count=21, x0="1, -0.5", certificate="per-sample-quadratic"),
        0,
        "df5aad15b919b774481c5d2e4c7ef2205223325709dbf96053a00eb8ade1b772",
        "c7af86b7c3749af19ba4f9fd40346ec59e7533961548b04b79abfc27ddc23508",
    ),
    "zero-scalar": (
        dict(system="registry = scalar-unstable", controller="zero", extra="",
             h=0.1, count=11, x0="1", certificate="per-sample-quadratic"),
        1,
        "e2a99d210343d4dc64c67fb74850474c6ae324903069f43a52e6670e740624cc",
        "eca7fdba3aa80d439f59055b3aee11df5f6bf06724a73823247edce51057773f",
    ),
    "zero-affine": (
        dict(system="type = affine\ndim = 2\nf = x2, -x1 - x2 + x1^3\ng = 0, 1", controller="zero",
             extra="", h=0.1, count=11, x0="0.5, -0.25", certificate="expression\nV = x1^2 + x2^2"),
        0,
        "d607f7778bec2c5706c9ea51a2022ea8c8cf6efce21ea46b5ec90c3c53d928b8",
        "0040d60db3b773941618e9aadb5ec876432cbf7e586e35892ae8d3a14b217bdd",
    ),
    # B names a coordinate, so the plant and the internal model read B(x) at every stage
    "frozen-gain-callable-B": (
        dict(system="dim = 2\nA = 0, 1; sin(x1), x2^2\nB = 0; 1 + 0.1*x1^2", controller="frozen-gain", extra="",
             h=0.05, count=21, x0="1, -0.5", certificate="per-sample-quadratic"),
        0,
        "7c5403349860b393d69487e417963fbfe9a7a1c5fbc6a4a84c17afafae6aea5a",
        "6204c2433d04e1aa19905ecbdb4709b19ab5cc0361aab85e902c716206587137",
    ),
}


@pytest.mark.parametrize("name", sorted(SIM_PINS))
def test_simulate_csvs_byte_identical_to_recorded(tmp_path, name):
    fields, code, traj_sha, cert_sha = SIM_PINS[name]
    cfg = write(tmp_path / "pin.ini", SIM_PIN.format(**fields))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == code
    digests = [hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest() for f in ("traj_0.csv", "cert_0.csv")]
    assert digests == [traj_sha, cert_sha]


def test_inline_system_kind_and_certificate_come_from_their_keys(tmp_path):
    # f makes the system affine and [run] V is the certificate, with no key restating either
    fields, code, traj_sha, cert_sha = SIM_PINS["zero-affine"]
    text = SIM_PIN.format(**fields).replace("type = affine\n", "").replace("certificate = expression\n", "")
    assert "affine" not in text and "certificate" not in text
    cfg = write(tmp_path / "pin.ini", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == code
    digests = [hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest() for f in ("traj_0.csv", "cert_0.csv")]
    assert digests == [traj_sha, cert_sha]


def test_bare_run_V_is_the_certificate(tmp_path, capsys):
    # a V that is negative away from the origin fails every interval it certifies
    text = SIM_STATEDEP.replace("certificate = per-sample-quadratic", "V = 0 - x1^2 - x2^2")
    cfg = write(tmp_path / "v.ini", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().out.endswith("RESULT fail 21 20\n")


def test_simulate_horizon_below_the_partition_gap_runs_one_interval(tmp_path, capsys):
    # horizons at or below the 1e-12 prefix gap keep time 0: one interval, not none
    text = SIM_STATEDEP.replace("horizon = 1", "horizon = 1e-13").replace("final_norm = 10", "final_norm = 0.01")
    cfg = write(tmp_path / "tiny.ini", text)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert "certificate pass: 1 intervals" in out
    assert "RESULT fail 2 1" in out  # the final norm stays above the threshold
    assert code == 1


def test_readme_ini_examples_run(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for i, text in enumerate(blocks):
        cfg = write(tmp_path / ("readme_%d.ini" % i), text)
        command = re.search(r"^kind\s*=\s*(\S+)", text, re.M).group(1)
        code = main([command, "--config", cfg, "--out", str(tmp_path / ("out_%d" % i)), "--quiet"])
        assert code == 0, "README ini block %d (%s) exited %d" % (i, command, code)


def readme_ini(kind):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    return next(b for b in blocks if re.search(r"^kind\s*=\s*%s\s*$" % kind, b, re.M))


# `sdstab synthesize` stdout on the README inline config, recorded while the
# inline B was still evaluated as a function of the state at every point
README_SYNTHESIZE_STDOUT = (
    "point=[0.0, 0.0]  gain=[[-1.0, -1.732051]]  decay=0.5  abscissa=-0.8660254037844392"
    "  eigP=[0.3489251433156973, 1.6718007988479924]\n"
    "point=[1.0, -1.0]  gain=[[-2.148404, -3.509344]]  decay=0.4999999999999999"
    "  abscissa=-0.7376912986612445  eigP=[0.2288106449579443, 1.5425859618759823]\n"
    "uniform-bounds: 0.2288106449579443 <= P <= 1.6718007988479924 over 2 points\n"
    "RESULT pass 2 0\n"
)


def outcome(evaluate):
    """The bits of a float result, or the overflow it raised (exp past the float range)."""
    try:
        return float.hex(float(evaluate()))
    except OverflowError as exc:
        return repr(exc)


class TestInlineStateLinear:
    def build(self, tmp_path, text):
        return _build_system(Config.load(write(tmp_path / "s.ini", text)))

    def test_readme_inline_B_is_constant(self, tmp_path):
        sys_obj = self.build(tmp_path, readme_ini("synthesize"))
        assert isinstance(sys_obj, StateLinearSystem)
        assert sys_obj.constant_B
        assert np.array_equal(sys_obj.B, [[0.0], [1.0]])
        assert callable(sys_obj.A)

    def test_readme_inline_synthesize_stdout_unchanged(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.ini", readme_ini("synthesize"))
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == README_SYNTHESIZE_STDOUT

    def test_constant_subtree_division_by_zero_is_a_config_error(self, tmp_path, capsys):
        # the constant subtree 0*(1/0) of a coordinate entry is evaluated when
        # the config is read: one error naming the entry, and no warning
        text = readme_ini("synthesize").replace("sin(x1), x2^2", "sin(x1) + 0*(1/0), x2^2")
        cfg = write(tmp_path / "z.ini", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: cannot evaluate matrix entry (sin(x1) + (0.0 * (1.0 / 0.0))): "
            "divide by zero encountered in scalar divide\n"
        )

    def test_folded_constant_subtree_keeps_the_bits(self, tmp_path):
        entry = "sin(x1)*(1/3) - x2*exp(1/7)"
        sys_obj = self.build(tmp_path, readme_ini("synthesize").replace("sin(x1), x2^2", entry + ", x2^2"))
        unfolded = parse_scalar(entry, coord_names(2))
        for x in np.random.default_rng(8).uniform(-2.0, 2.0, (100, 2)):
            got = sys_obj.state_matrix(x)[1, 0]
            assert float.hex(float(got)) == float.hex(float(unfolded.eval(list(x))))

    def test_affine_constant_subtree_is_a_config_error(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "f.ini",
            "[experiment]\nkind = check-lie\n[system]\ntype = affine\ndim = 2\n"
            "f = x2, x1*(0/0)\ng = 0, 1\n[lie]\nV = 0.5*x1^2 + 0.5*x2^2\n",
        )
        assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "cannot evaluate [system] f component (x1 * (0.0 / 0.0))" in capsys.readouterr().err

    def test_state_dependent_B_stays_a_function(self, tmp_path):
        text = readme_ini("synthesize").replace("B = 0; 1", "B = 0; 1 + x1^2")
        sys_obj = self.build(tmp_path, text)
        assert not sys_obj.constant_B
        assert np.array_equal(sys_obj.matrices_at([2.0, 0.0])[1], [[0.0], [5.0]])

    def test_pow_in_A_is_one_entry_with_the_bits_of_the_power(self, tmp_path):
        # a row is read as f and g are, so the comma inside pow(x1, 2) does not split the entry
        text = readme_ini("synthesize")
        power = self.build(tmp_path, text.replace("sin(x1), x2^2", "pow(x1, 2), x2^2"))
        caret = self.build(tmp_path, text.replace("sin(x1), x2^2", "x1^2, x2^2"))
        for x in np.random.default_rng(3).uniform(-2.0, 2.0, (100, 2)):
            assert power.state_matrix(x).tobytes() == caret.state_matrix(x).tobytes()

    def test_two_input_B_gives_the_input_count(self, tmp_path, capsys):
        text = readme_ini("synthesize").replace("B = 0; 1", "B = 1, 0; 0, 1")
        sys_obj = self.build(tmp_path, text)
        assert sys_obj.dim_input == 2
        assert sys_obj.constant_B
        assert np.array_equal(sys_obj.B, np.eye(2))
        cfg = write(tmp_path / "b.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("RESULT pass 2 0\n")

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("B = 0; 1", "B = 1, 0; 1", "[system] B"),
            ("B = 0; 1", "B = 1; 0, 1", "[system] B"),
            ("B = 0; 1", "B = 0; 1; 2", "[system] B"),
            ("A = 0, 1; sin(x1), x2^2", "A = 0, 1; sin(x1)", "[system] A"),
            ("A = 0, 1; sin(x1), x2^2", "A = 0; 1", "[system] A"),
        ],
    )
    def test_matrix_of_the_wrong_shape_names_its_key(self, tmp_path, capsys, old, new, key):
        text = readme_ini("synthesize").replace(old, new)
        assert new in text
        cfg = write(tmp_path / "r.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: %s needs 2 rows of " % key)

    def test_negative_literal_B_is_constant(self, tmp_path, capsys, monkeypatch):
        text = readme_ini("synthesize").replace("B = 0; 1", "B = 0; -1")
        sys_obj = self.build(tmp_path, text)
        assert sys_obj.constant_B
        assert np.array_equal(sys_obj.B, [[0.0], [-1.0]])
        # the same system with B as a function of the state reports the same bits
        A = sys_obj.A
        monkeypatch.setitem(
            registry.SYSTEM_BUILDERS,
            "negative-b",
            lambda: StateLinearSystem(A, lambda x: np.array([[0.0], [-1.0]]), 2, 1),
        )
        as_function = "[experiment]\nkind = synthesize\n[system]\nregistry = negative-b\n"
        as_function += "[synthesize]\npoints = 0,0 ; 1,-1\n"
        outs = []
        for name, cfg_text in (("constant", text), ("function", as_function)):
            cfg = write(tmp_path / (name + ".ini"), cfg_text)
            assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("point=") == 2

    @pytest.mark.parametrize(
        "old, new", [("B = 0; 1", "B = 0; 1/0"), ("A = 0, 1;", "A = 0, 2^-1/0;")]
    )
    def test_constant_division_by_zero_is_a_config_error(self, tmp_path, capsys, old, new):
        text = readme_ini("synthesize").replace(old, new)
        assert new in text
        cfg = write(tmp_path / "z.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "cannot evaluate matrix entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, entry",
        [
            pytest.param(command, entry, id=command + suffix)
            for entry, suffix in (("1/x1", ""), ("x1^-1", "-pow"))
            for command in ("synthesize", "simulate")
        ],
    )
    def test_nonfinite_A_at_origin_is_a_config_error(self, tmp_path, capsys, command, entry):
        cfg = write(
            tmp_path / "a.ini",
            """
[experiment]
kind = %s
[system]
type = state-linear
dim = 2
A = 0, 1; %s, 0
B = 0; 1
[synthesize]
points = 1, -1
[partition]
h = 0.1
[run]
x0 = 1, -1
horizon = 0.2
"""
            % (command, entry),
        )
        # the infinite entry is the error; NumPy's divide-by-zero warning is not printed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "finite at the origin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ["sin(x1)*0.3 + x2^2", "exp(x1) - cos(x2)", "x1/(1+x2^2)", "x1^3 - 2*x1*x2 + 1/3"]
    )
    def test_inline_entries_on_floats_keep_the_bits(self, tmp_path, entry):
        # the entries are evaluated on x.tolist(): the bits of NumPy scalars, without their warnings
        sys_obj = self.build(tmp_path, readme_ini("synthesize").replace("sin(x1), x2^2", entry + ", x2^2"))
        tree = parse_scalar(entry, coord_names(2))
        rng = np.random.default_rng(15)
        states = rng.normal(size=(2000, 2)) * np.exp(rng.uniform(-8.0, 5.0, (2000, 1)))
        # x1^3 and x1*x2 overflow at 1e200, exp at 1e3: NumPy scalars would warn there
        for x in list(states) + [np.array([1e200, -1e200]), np.array([1e3, 1.0]), np.array([-0.0, 5e-324])]:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = outcome(lambda: sys_obj.A(x)[1, 0])
            with np.errstate(all="ignore"):
                want = outcome(lambda: tree.eval(list(x)))  # on NumPy scalars
            assert got == want, (entry, x.tolist())

    @pytest.mark.parametrize(
        "entry, quiet",
        [("sin(x1)", False), ("exp(x1) - cos(x2) + 1/3", False), ("x1/(1+x2^2)", True), ("x1*(1 + x2^2)^-1", True)],
    )
    def test_only_a_dividing_matrix_enters_errstate(self, tmp_path, monkeypatch, entry, quiet):
        # only a division can meet NumPy's zero-divisor fallback, the one float path that warns;
        # the constant 1/3 is folded before any state is seen
        sys_obj = self.build(tmp_path, readme_ini("synthesize").replace("sin(x1), x2^2", entry + ", x2^2"))
        entered, errstate = [], np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        for xs in ([0.5, -1.0], [2.0, 0.0], [-0.0, 3.0]):
            sys_obj.A.entries(xs)
        monkeypatch.undo()
        assert entered == ([dict(divide="ignore", invalid="ignore")] * 3 if quiet else [])

    def test_constant_A_stays_a_function(self, tmp_path):
        text = readme_ini("synthesize").replace("sin(x1), x2^2", "0, 0")
        sys_obj = self.build(tmp_path, text)
        assert callable(sys_obj.A)
        assert np.array_equal(sys_obj.matrices_at([2.0, 0.0])[0], [[0.0, 1.0], [0.0, 0.0]])


def test_controller_error_keeps_partial_trajectory(tmp_path, capsys, monkeypatch):
    # B vanishes near the origin: synthesis fails at the first sample with |x| < 0.5
    def weak_input():
        return StateLinearSystem(
            lambda x: np.array([[1.0]]), lambda x: np.array([[1.0 if abs(x[0]) >= 0.5 else 0.0]]), 1, 1
        )

    monkeypatch.setitem(registry.SYSTEM_BUILDERS, "weak-input", weak_input)
    cfg = write(tmp_path / "w.ini", SIM_SCALAR.replace("scalar-unstable", "weak-input"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    out = capsys.readouterr().out
    assert code == 1
    assert "run 0: controller error: synthesis failed at sample [0.49986" in out
    assert "wrote 5 completed interval(s)" in out
    assert out.splitlines()[-1] == "RESULT fail 1 1"
    lines = (tmp_path / "o" / "traj_0.csv").read_text().splitlines()
    assert lines[0] == "t,x1,u1,V"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(rows) == 501  # five intervals of 100 steps, junctions not repeated
    assert rows[0, :2].tolist() == [0.0, 1.0]
    assert rows[-1, 0] == 0.5 and rows[-1, 1] < 0.5  # the sample that failed
    assert np.all(rows[:-1:100, 1] >= 0.5)  # the samples that were planned
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert not (tmp_path / "o" / "cert_0.csv").exists()


def test_controller_error_at_first_sample_writes_no_trajectory(tmp_path, capsys, monkeypatch):
    def weak_input():
        return StateLinearSystem(
            lambda x: np.array([[1.0]]), lambda x: np.array([[1.0 if abs(x[0]) >= 0.5 else 0.0]]), 1, 1
        )

    monkeypatch.setitem(registry.SYSTEM_BUILDERS, "weak-input", weak_input)
    cfg = write(
        tmp_path / "w.ini", SIM_SCALAR.replace("scalar-unstable", "weak-input").replace("x0 = 1", "x0 = 0.2")
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    out = capsys.readouterr().out
    assert code == 1
    assert "run 0: controller error: synthesis failed at sample [0.2]" in out
    assert "wrote" not in out
    assert out.splitlines()[-1] == "RESULT fail 1 1"
    assert not (tmp_path / "o" / "traj_0.csv").exists()
    assert not (tmp_path / "o" / "cert_0.csv").exists()


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


def test_simulate_escape_counts_once_without_warnings(tmp_path, capsys):
    # A(x) x overflows on the first step: the escape fails the final-norm
    # check, and the run reports it with no NumPy warning
    cfg = write(
        tmp_path / "e.ini",
        """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 1e300, 1e300; 0, -1
B = 0; 1
[controller]
type = zero
[partition]
h = 0.05
count = 21
[run]
x0 = 1e10, 1
horizon = 0.5
""",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "trajectory escaped at t=0.001" in out
    assert out.splitlines()[-1] == "RESULT fail 2 2"
    assert "RuntimeWarning" not in err


def test_simulate_escaped_interval_never_certifies(tmp_path, capsys):
    # x2 escapes at t = 0.277 while V, which barely weighs it, falls and
    # keeps its growth bound: the interval fails on the escape alone
    cfg = write(
        tmp_path / "e.ini",
        """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = -1, 0; 0, 50
B = 0; 1
[controller]
type = zero
[partition]
h = 0.5
[run]
x0 = 1, 1
horizon = 1
certificate = expression
V = x1^2 + 1e-30*x2^2
""",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "    interval 0: trajectory escaped at t=0.277\n" in out
    assert out.splitlines()[-1] == "RESULT fail 2 2"
    row = (tmp_path / "cert_0.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) > 0 and row[6] == "1"  # L_k and bound_ok as recorded


SIM_NAN_V = """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 0, 0; -1, 0
B = 0; 1
[controller]
type = zero
[partition]
h = {h}
[integrator]
step = 0.25
[run]
x0 = 1, 1
horizon = {h}
final_norm = 10
certificate = expression
V = x2^2 + 0/x2
"""


@pytest.mark.parametrize(
    "h, row, reasons",
    [
        ("1.5", "0,0.0,1.0,0.25,0.75,nan,0,1.0", "V is NaN at grid point 4"),
        ("1.0", "0,0.0,1.0,nan,nan,nan,0,1.0", "V is NaN at grid point 4; no strict decrease (margin nan)"),
    ],
    ids=["interior", "end"],
)
def test_simulate_nan_value_of_V_fails(tmp_path, capsys, h, row, reasons):
    # x2 = 1 - t, so 0/x2 makes V NaN at t = 1, grid point 4 of step 0.25; the
    # interior NaN falls between two finite values and max() alone would skip it
    cfg = write(tmp_path / "n.ini", SIM_NAN_V.format(h=h))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 0/0 on a NumPy scalar
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "    interval 0: %s\n" % reasons in out
    assert out.splitlines()[-1] == "RESULT fail 2 1"
    assert (tmp_path / "traj_0.csv").read_text().splitlines()[5].endswith(",nan")
    assert (tmp_path / "cert_0.csv").read_text().splitlines()[1] == row


SIM_INF_V = """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 0, 1; 0, 0
B = 0; 1
[controller]
type = zero
[partition]
h = 0.5
[run]
x0 = 0, 1
horizon = 0.5
final_norm = 10
certificate = expression
V = x2^2 + 1/x1^2
"""


@pytest.mark.parametrize(
    "text, reasons",
    [
        (SIM_INF_V, "V is inf at the sample"),
        (SIM_NAN_V.format(h="1.5"), "V is NaN at grid point 4"),
    ],
    ids=["inf-at-the-sample", "nan-inside"],
)
def test_simulate_non_finite_V_reports_only_its_failure(tmp_path, capsys, text, reasons):
    # 1/x1^2 is inf at x0 = (0, 1): its cap and margin are inf, which bound nothing.
    # A division by zero in V is reported by the failure line, not by a NumPy warning
    cfg = write(tmp_path / "v.ini", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("    ")] == ["    interval 0: %s" % reasons]
    assert out.splitlines()[-1] == "RESULT fail 2 1"


def test_simulate_infinite_margin_is_no_uniform_margin(tmp_path, capsys):
    # the inf-V interval's margin is inf, which bounds nothing: the summary reads nan
    cfg = write(tmp_path / "v.ini", SIM_INF_V)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "certificate FAIL: 1 intervals, uniform margin nan, 1 failure(s)" in capsys.readouterr().out
    assert (tmp_path / "cert_0.csv").read_text().splitlines()[1].split(",")[4] == "inf"


@pytest.mark.parametrize("controller", ["zero", "frozen-gain"])
def test_simulate_non_finite_A_at_run_time_is_a_numerical_failure(tmp_path, capsys, controller):
    # x1^300 overflows at x1 = 20, a finite state; at the origin A is finite, so the config is valid
    text = SIM_INF_V.replace("A = 0, 1; 0, 0", "A = 0, 1; x1^300, 0").replace("zero", controller)
    text = text.replace("x0 = 0, 1", "x0 = 20, 0").replace("horizon = 0.5", "horizon = 1")
    cfg = write(tmp_path / "a.ini", text.split("certificate")[0])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: system matrices must be finite at finite states: "
        "the state matrix A(x) is not finite at x = [20.0, 0.0]\n"
    )


SIM_DIV = """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 0, 1; %s, 0
B = 0; 1
[controller]
type = zero
[partition]
h = 0.05
[run]
x0 = 20, 0
horizon = 0.5
"""


@pytest.mark.parametrize(
    "entry, code, err",
    [
        ("1/(x1 - 20)", 3, "numerical failure: system matrices must be finite at finite states: "
         "the state matrix A(x) is not finite at x = [20.0, 0.0]\n"),
        ("1/x1", 2, "configuration error: system matrices must be finite at the origin\n"),
    ],
    ids=["at-x0", "at-the-origin"],
)
def test_division_by_zero_in_a_matrix_entry_prints_no_warning(tmp_path, capsys, entry, code, err):
    # the infinite entry is reported as a non-finite matrix; NumPy's warning would only repeat it
    cfg = write(tmp_path / "d.ini", SIM_DIV % entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == err


def test_sin_of_an_infinite_coordinate_is_a_numerical_failure(tmp_path, capsys):
    # x1 overflows to inf within the run; sin(inf) is NaN, a non-finite state matrix, not a
    # configuration error, and no RuntimeWarning repeats it
    text = SIM_DIV.replace("A = 0, 1; %s, 0", "A = 0, 1e300; sin(x1), 0").replace("x0 = 20, 0", "x0 = 1, 1e10")
    cfg = write(tmp_path / "s.ini", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: system matrices must be finite at finite states: ")
    assert "the state matrix A(x) is not finite at x = [inf, " in err and err.count("\n") == 1



@pytest.mark.parametrize("key", ["points = 0, 0 ; 0, 1e200", "radius = 1e200"], ids=["point", "ball-radius"])
def test_statedep_2d_at_a_huge_state_is_a_numerical_failure_without_warnings(tmp_path, capsys, key):
    # x2^2 overflows at x2 = 1e200: float ** raises, and NumPy's fallback must not warn;
    # a ball of radius 1e200 is sampled in full and reaches such states too
    cfg = write(tmp_path / "h.ini", "[experiment]\nkind = synthesize\n[system]\nregistry = statedep-2d\n"
                "[synthesize]\n%s\n" % key)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "state matrix A(x)" in err
    assert "RuntimeWarning" not in err

SIM_NEAR_ORIGIN = """
[experiment]
kind = simulate
[system]
registry = statedep-2d
[controller]
type = %s
[patchwork]
registry = patchwork-halfplanes
[partition]
h = 0.05
[run]
x0 = 1e-13, 1e-13
horizon = 0.2
final_norm = 10
"""


@pytest.mark.parametrize("controller", ["patchwork", "frozen-gain"])
def test_simulate_next_to_the_origin_passes_under_every_controller(tmp_path, capsys, controller):
    # every |x_i| <= 1e-12 is the origin: the zero signal, and each interval's decrease is waived
    cfg = write(tmp_path / "o.ini", SIM_NEAR_ORIGIN % controller)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT pass 5 0"


def test_simulate_escape_ends_an_unreachable_horizon(tmp_path, capsys):
    # the escape near t = 14 ends the run; no instant up to 1e9 is made
    cfg = write(tmp_path / "u.ini", SIM_SCALAR.replace("frozen-gain", "zero").replace("horizon = 5", "horizon = 1e9"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT fail 140 140"


def test_simulate_internal_model_escape_names_the_stiffness(tmp_path, capsys):
    # B is 1e9 times the size of A: h * max|eig(A + BF)| = 1e6 at the default step
    cfg = write(
        tmp_path / "s.ini",
        """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 0, 1; 1 + 0.1*sin(x1), 0
B = 0; 1e9
[controller]
type = frozen-gain
[partition]
h = 0.1
[run]
x0 = 1, 0
horizon = 1
""",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "internal model escaped at t=0.001" in out
    assert "step*max|eig(A+BF)| = 1e+06" in out
    assert out.splitlines()[-1] == "RESULT fail 1 1"


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


def test_check_lie_grid_centre_is_the_origin(tmp_path, capsys):
    # np.linspace(-1, 1, 99) puts its centre entry at -1.1e-16, not at 0
    cfg = write(
        tmp_path / "lie.ini",
        """
[experiment]
kind = check-lie
[system]
registry = double-integrator
[grid]
extent = 1
points = 99
""",
    )
    code = main(["check-lie", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert "RESULT pass 9800 0" in capsys.readouterr().out
    assert code == 0


INLINE_LIE_FAIL = """
[experiment]
kind = check-lie
[system]
dim = 2
f = x1, x2
g = 1, -1
[lie]
V = 0.5*x1^2 + 0.5*x2^2
[grid]
points = 5
"""


@pytest.mark.parametrize("quiet", [[], ["--quiet"]])
def test_check_lie_inline_fail_lines_give_witnesses_and_detail(tmp_path, capsys, quiet):
    cfg = write(tmp_path / "lie.ini", INLINE_LIE_FAIL)
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)] + quiet) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if "pointwise=FAIL" in line]
    assert fails == [
        "p=(%s)  pointwise=FAIL  {'gV': 0.0, 'fV': %s, 'f^1V': %s}  no clause verified" % (p, v, v)
        for p, v in (("-2.0, -2.0", 8.0), ("-1.0, -1.0", 2.0), ("1.0, 1.0", 2.0), ("2.0, 2.0", 8.0))
    ]
    # a line that is not FAIL keeps its bytes
    assert ("p=(1.0, 0.0)  pointwise=gV-nonzero" in lines) == (not quiet)
    assert len(lines) == (5 if quiet else 25) and lines[-1] == "RESULT fail 24 4"


def test_check_lie_registry_fail_line_ends_with_the_failing_detail(tmp_path, capsys, monkeypatch):
    # every point in the second region: on the x1-axis dW/dy vanishes, and only that report fails;
    # its line gives that report's witnesses after the pointwise ones
    monkeypatch.setattr(registry.DoubleIntegratorExample, "in_first_region_closure", lambda self, p: False)
    cfg = write(
        tmp_path / "lie.ini",
        "[experiment]\nkind = check-lie\n[system]\nregistry = double-integrator\n[grid]\npoints = 5\n",
    )
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "RESULT fail 24 4"
    assert lines[2] == (
        "p=(1.0, 0.0)  pointwise=odd-bracket-nonzero  integrator=FAIL  "
        "{'gV': 0.0, 'fV': 0.0, 'f^1V': 0.0, 'f^2V': 0.0, '[f,g]V': -1.0}  {'dW/dy': 0.0}  dW/dy vanishes"
    )
    assert all(line.endswith("  {'dW/dy': 0.0}  dW/dy vanishes") for line in lines[:-1])
    # a line that is not FAIL keeps its bytes
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "p=(1.0, 1.0)  pointwise=gV-nonzero  integrator=dWdy-nonzero  {'gV': 1.0}" in lines
    assert len(lines) == 25 and sum("integrator=FAIL" in line for line in lines) == 4


@pytest.mark.parametrize("extent, points", [("0", "5"), ("2", "1")])
def test_check_lie_rejects_a_grid_without_points(tmp_path, capsys, extent, points):
    cfg = write(
        tmp_path / "lie.ini",
        "[experiment]\nkind = check-lie\n[system]\nregistry = double-integrator\n"
        "[grid]\nextent = %s\npoints = %s\n" % (extent, points),
    )
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nothing to check" in capsys.readouterr().err


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


def test_check_lie_rejects_a_non_planar_system(tmp_path, capsys):
    cfg = write(
        tmp_path / "lie.ini",
        """
[experiment]
kind = check-lie
[system]
type = affine
dim = 3
f = x2, x3, 0
g = 0, 0, 1
[lie]
V = x1^2 + x2^2 + x3^2
""",
    )
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "grid is planar" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("simulate", SIM_SCALAR.replace("h = 0.1", "h = inf"), "[partition] h"),
            ("simulate", SIM_SCALAR.replace("h = 0.1", "h = nan"), "[partition] h"),
            ("simulate", SIM_SCALAR.replace("horizon = 5", "horizon = inf"), "[run] horizon"),
            ("simulate", SIM_SCALAR + "[integrator]\nstep = nan\n", "[integrator] step"),
            ("simulate", SIM_SCALAR + "[integrator]\nstep = inf\n", "[integrator] step"),
            ("simulate", SIM_SCALAR.replace("final_norm = 0.001", "final_norm = nan"), "[run] final_norm"),
            ("simulate", SIM_SCALAR.replace("final_norm = 0.001", "final_norm = inf"), "[run] final_norm"),
            ("synthesize", None, "[synthesize] radius"),
            ("check-patchwork", "[experiment]\nkind = check-patchwork\n[patchwork]\n"
             "registry = patchwork-halfplanes\nradius = inf\n", "[patchwork] radius"),
        ],
        ids=["h-inf", "h-nan", "horizon-inf", "step-nan", "step-inf", "final-norm-nan", "final-norm-inf",
             "synthesize-radius-inf", "patchwork-radius-inf"],
    )
    def test_non_finite_positive_key(self, tmp_path, capsys, command, text, key):
        if text is None:
            text = readme_ini("synthesize").replace("points = 0,0 ; 1,-1", "radius = inf")
        assert "= inf" in text or "= nan" in text
        cfg = write(tmp_path / "f.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "%s must be positive and finite" % key in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "command, text, key",
        [("simulate", SIM_SCALAR.replace("final_norm = 0.001", "final_norm = %s" % v), "[run] final_norm")
         for v in ("-1", "0")]
        + [("check-lie", "[experiment]\nkind = check-lie\n[system]\nregistry = double-integrator\n"
            "[grid]\npoints = %s\n" % v, "[grid] points") for v in ("-3", "0")],
        ids=["final-norm-negative", "final-norm-zero", "grid-points-negative", "grid-points-zero"],
    )
    def test_non_positive_key(self, tmp_path, capsys, command, text, key):
        cfg = write(tmp_path / "f.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "%s must be positive and finite" % key in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "text, message",
        [(SIM_SCALAR.replace("final_norm = 0.001", "final_norm = small"), "[run] final_norm must be a number"),
         (SIM_SCALAR.replace("[run]", "[integrator]\nstep = \n[run]"), "[integrator] step must be a number"),
         (SIM_SCALAR.replace("registry = scalar-unstable", "type = state-linear\ndim = 1.5"),
          "[system] dim must be an integer")],
        ids=["final-norm", "step-empty", "dim"],
    )
    def test_unreadable_number_names_the_key(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path / "f.ini", text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_blowup_past_overflow_range(self, tmp_path):
        cfg = write(tmp_path / "b.ini", SIM_SCALAR + "[integrator]\nblowup = 1e300\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1"])
    def test_blowup_that_is_not_a_threshold(self, tmp_path, capsys, value):
        cfg = write(tmp_path / "b.ini", SIM_SCALAR + "[integrator]\nblowup = %s\n" % value)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "[integrator] blowup: blow-up threshold must exceed 1" in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_grid_extent(self, tmp_path, capsys, value):
        cfg = write(
            tmp_path / "lie.ini",
            "[experiment]\nkind = check-lie\n[system]\nregistry = double-integrator\n"
            "[grid]\nextent = %s\n" % value,
        )
        assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "[grid] extent must be finite" in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("key", ["radius", "samples"])
    def test_non_positive_patchwork_sampling(self, tmp_path, capsys, key, value):
        cfg = write(
            tmp_path / "pw.ini",
            "[experiment]\nkind = check-patchwork\n[patchwork]\n"
            "registry = patchwork-halfplanes\n%s = %s\n" % (key, value),
        )
        assert main(["check-patchwork", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[patchwork] %s must be positive" % key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_synthesis_radius(self, tmp_path, capsys, value):
        text = readme_ini("synthesize").replace("points = 0,0 ; 1,-1", "radius = %s" % value)
        assert "radius = %s " % value in text
        cfg = write(tmp_path / "s.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[synthesize] radius must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_synthesis_samples(self, tmp_path, capsys, value):
        text = readme_ini("synthesize").replace("points = 0,0 ; 1,-1", "samples = %s" % value)
        assert "samples = %s " % value in text
        cfg = write(tmp_path / "s.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "[synthesize] samples must be positive" in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "command, old, new",
        [("simulate", "x0 = 1\n", "x0 = ;\n"), ("synthesize", "points = 0,0 ; 1,-1", "points = ;")],
        ids=["simulate", "synthesize"],
    )
    def test_config_that_checks_nothing(self, tmp_path, capsys, command, old, new):
        text = (SIM_SCALAR if command == "simulate" else readme_ini(command)).replace(old, new)
        assert new in text
        cfg = write(tmp_path / "n.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "%s: the config leaves nothing to check" % command in captured.err
        assert "RESULT" not in captured.out

    def test_non_finite_literal(self, tmp_path, capsys):
        text = readme_ini("synthesize").replace("sin(x1), x2^2", "sin(x1), 1e999*x2")
        assert "1e999" in text
        cfg = write(tmp_path / "s.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "number out of range" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "extra, has",
        [("f = x2, 0\ng = 0, 1\n", "both"), (None, "neither")],
    )
    def test_inline_system_needs_one_of_A_and_f(self, tmp_path, capsys, extra, has):
        text = readme_ini("synthesize")
        if extra is None:
            text = re.sub(r"^[AB] = .*\n", "", text, flags=re.M)
            assert "A =" not in text
        else:
            text = text.replace("[synthesize]", extra + "[synthesize]")
        cfg = write(tmp_path / "k.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.endswith("it has %s\n" % has)
        assert "[system] A" in err and "[system] f" in err

    @pytest.mark.parametrize(
        "system, err",
        [
            ("", "[system] needs a registry name, or one of [system] A (state-linear, with B)"),
            ("dim = two\nA = 0\nB = 1\n", "[system] dim must be an integer, got 'two'"),
        ],
        ids=["empty", "bad-dim"],
    )
    def test_system_without_a_kind_says_so_before_dim(self, tmp_path, capsys, system, err):
        text = "[experiment]\nkind = synthesize\n[system]\n%s[synthesize]\npoints = 0\n" % system
        cfg = write(tmp_path / "k.ini", text)
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: " + err)

    @pytest.mark.parametrize(
        "old, new, key, position",
        [("sin(x1), x2^2", "sin(x1, x2^2", "A", 12), ("B = 0; 1", "B = 0; (1", "B", 5)],
    )
    def test_matrix_syntax_error_gives_its_position_in_the_value(self, tmp_path, capsys, old, new, key, position):
        # positions count from the start of the key's value, not of the row
        cfg = write(tmp_path / "e.ini", readme_ini("synthesize").replace(old, new))
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [system] %s: " % key)
        assert err.endswith("(at position %d)\n" % position)

    PATCHWORK_CHECK = "[experiment]\nkind = check-patchwork\n[patchwork]\nregistry = patchwork-halfplanes\n"

    @pytest.mark.parametrize(
        "command, value, key",
        [
            ("simulate", "x0 = 1, 2, 3", "[run] x0"),
            ("simulate", "x0 = inf, 0", "[run] x0"),
            ("simulate", "x0 = 1, x", "[run] x0"),
            ("synthesize", "points = 1", "[synthesize] points"),
            ("synthesize", "points = 0, 0; 1, nan", "[synthesize] points"),
            ("check-patchwork", "offsets = 1; 2", "[patchwork] offsets"),
        ],
    )
    def test_vector_that_does_not_fit_names_its_key(self, tmp_path, capsys, command, value, key):
        # every vector is read by one reader, against the system's dimension, all entries finite
        text = {
            "simulate": SIM_PLAYBACK_BOUND,
            "synthesize": readme_ini("synthesize").replace("points = 0,0 ; 1,-1", value),
            "check-patchwork": self.PATCHWORK_CHECK + value + "\n",
        }[command]
        if command == "simulate":
            text = text.replace("x0 = 2, -1 ; 0, 3", value)
        assert value in text
        cfg = write(tmp_path / "v.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: %s " % key)
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "offsets, reason", [("1", "one offset per piece"), ("1, 0", "offsets must be positive")]
    )
    def test_offsets_the_family_refuses_name_their_key(self, tmp_path, capsys, offsets, reason):
        cfg = write(tmp_path / "o.ini", self.PATCHWORK_CHECK + "offsets = %s\n" % offsets)
        assert main(["check-patchwork", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "configuration error: [patchwork] offsets: %s\n" % reason

    @pytest.mark.parametrize(
        "command, old, new, key",
        [
            ("synthesize", "sin(x1), x2^2", "sin(x1, x2^2", "[system] A"),
            ("synthesize", "B = 0; 1", "B = 0; (1", "[system] B"),
            ("check-lie", "f = x2, 0", "f = x2, (x1", "[system] f"),
            ("check-lie", "V = 0.5*x1^2", "V = 0.5*x1^", "[lie] V"),
            ("simulate", "V = x1^2 + x2^2", "V = x1^2 +", "[run] V"),
        ],
    )
    def test_expression_syntax_error_names_its_key(self, tmp_path, capsys, command, old, new, key):
        text = {
            "synthesize": readme_ini("synthesize"),
            "check-lie": CHECK_LIE_INLINE,
            "simulate": SIM_PIN.format(**SIM_PINS["zero-affine"][0]),
        }[command].replace(old, new)
        assert new in text
        cfg = write(tmp_path / "e.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: %s: " % key)
        assert err.endswith(")\n") and "(at position " in err


CHECK_LIE_INLINE = """
[experiment]
kind = check-lie
[system]
type = affine
dim = 2
f = x2, 0
g = 0, 1
[lie]
V = 0.5*x1^2 + 0.5*x2^2
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_lie_drift_that_is_nan_at_the_origin_is_a_config_error(tmp_path, capsys):
    # 0/0 at the origin makes the drift NaN there: not an equilibrium, and no warning says so twice
    cfg = write(tmp_path / "n.ini", CHECK_LIE_INLINE.replace("f = x2, 0", "f = x2 + 0/(x1^2 + x2^2), 0"))
    assert main(["check-lie", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: drift(0) must vanish\n"
    assert "RESULT" not in captured.out


# one RK4 step per sampling interval: from (0, 3) the playback between the
# model's two grid states leaves the bound its plan declared
SIM_PLAYBACK_BOUND = """
[experiment]
kind = simulate
[system]
registry = statedep-2d
[integrator]
step = 0.5
[partition]
h = 0.5
[run]
x0 = 2, -1 ; 0, 3
horizon = 5
final_norm = 10
"""


def test_playback_over_its_bound_fails_that_run_alone(tmp_path, capsys):
    cfg = write(tmp_path / "b.ini", SIM_PLAYBACK_BOUND)
    out_dir = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[-1] == "RESULT fail 12 1"  # run 0: 10 intervals and its final norm; run 1: one failure
    assert lines[0] == (
        "run 1: controller error: playback planned at sample [0. 3.]: "
        "signal exceeds its declared bound: 1.92481e+07 > 284686"
    )
    assert captured.err == ""
    assert sorted(p.name for p in out_dir.iterdir()) == ["cert_0.csv", "traj_0.csv"]


# The held input, where the sampling step decides the verdict: from (0, 3) the
# step h = 0.1 certifies every interval, and h = 0.2 lets the first one escape
SIM_HELD = """
[experiment]
kind = simulate
seed = 0
[system]
registry = statedep-2d
[controller]
type = frozen-gain-zoh
[partition]
h = %s
[run]
x0 = 0, 3
horizon = 10
"""


@pytest.mark.parametrize(
    "h, code, failure, result",
    [
        ("0.1", 0, None, "RESULT pass 101 0"),
        ("0.2", 1, "    interval 0: growth bound exceeded (257.088 > 0.981981); trajectory escaped at t=0.15",
         "RESULT fail 2 2"),
    ],
)
def test_held_input_verdict_follows_the_sampling_step(tmp_path, capsys, h, code, failure, result):
    cfg = write(tmp_path / "held.ini", SIM_HELD % h)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[-1] == result
    assert [line for line in lines if line.startswith("    interval")] == ([failure] if failure else [])
    assert captured.err == ""


def test_run_line_prints_x0_as_run(tmp_path, capsys):
    # a sample within 1e-12 of the origin is printed as given, not rounded to 0
    cfg = write(tmp_path / "o.ini", SIM_NEAR_ORIGIN % "patchwork")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("run 0: x0=[1e-13, 1e-13] final|x|=")


class TestNumericalFailures:
    def test_overflow_in_a_state_matrix(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "o.ini",
            """
[experiment]
kind = simulate
[system]
type = state-linear
dim = 2
A = 0, 1; exp(1000*x1), 0
B = 0; 1
[partition]
h = 0.1
[run]
x0 = 1, 0
horizon = 1
""",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure: math range error" in capsys.readouterr().err

    def test_overflow_in_a_lie_check(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "o.ini",
            """
[experiment]
kind = check-lie
[system]
type = affine
dim = 2
f = x2, exp(1000*x1) - 1
g = 0, 1
[lie]
V = x1^2 + x2^2
[grid]
extent = 1
points = 3
""",
        )
        assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure: math range error" in capsys.readouterr().err

    LIE_GRID_V = """
[experiment]
kind = check-lie
[system]
type = affine
dim = 2
f = x2, -x1
g = 0, 1
[lie]
V = %s
[grid]
extent = 2
points = 5
"""

    def test_overflow_in_the_grid_positivity_pass(self, tmp_path, capsys):
        # the whole grid is one array evaluation: its overflow raises, not warns
        cfg = write(tmp_path / "o.ini", self.LIE_GRID_V % "exp(1000*(x1^2 + x2^2)) - 1")
        assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: overflow encountered in exp" in err
        assert "RuntimeWarning" not in err

    def test_nan_in_the_grid_positivity_pass_is_not_positive(self, tmp_path, capsys):
        # 0/0 on the grid line x1 = 2: an invalid value, not an overflow
        cfg = write(tmp_path / "n.ini", self.LIE_GRID_V % "x1^2 + x2^2 + (x1 - 2)/(x1 - 2) - 1")
        assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "V is not positive away from the origin" in capsys.readouterr().err

    def test_nan_at_the_origin_does_not_vanish(self, tmp_path, capsys):
        # 0/0 at the origin is NaN, which no tolerance comparison lets through
        cfg = write(tmp_path / "n.ini", self.LIE_GRID_V % "x1^2 + x2^2 + (x1 - x1)/(x1 - x1)")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "V must vanish at the origin" in err
        assert "RuntimeWarning" not in err

    def test_division_by_zero_at_the_origin_does_not_vanish(self, tmp_path, capsys):
        # 1/0 at the origin is inf: refused as the drift and a patchwork piece's V are
        cfg = write(tmp_path / "d.ini", self.LIE_GRID_V % "x1^2 + x2^2 + 1/(x1 + x2)")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check-lie", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "configuration error: V must vanish at the origin" in capsys.readouterr().err

    def test_division_by_zero_on_the_grid_fails_those_points(self, tmp_path, capsys):
        # x1/(x2 - 1) divides by zero on the grid row x2 = 1: IEEE inf/NaN there,
        # so those points fail their check (exit 1), not the run (exit 3)
        cfg = write(
            tmp_path / "d.ini",
            """
[experiment]
kind = check-lie
[system]
type = affine
dim = 2
f = x2, x1/(x2 - 1)
g = 0, x2 - 1
[lie]
V = 0.5*x1^2 + 0.5*x2^2
""",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["check-lie", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "RESULT fail 1680 41" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, text, argv, key",
    [
        ("synthesize", "[experiment]\nkind = synthesize\nseed = -1\n[system]\nregistry = statedep-2d\n", [],
         "[experiment] seed"),
        ("check-patchwork",
         "[experiment]\nkind = check-patchwork\nseed = -1\n[patchwork]\nregistry = patchwork-halfplanes\n", [],
         "[experiment] seed"),
        ("simulate", SIM_SCALAR, ["--seed", "-2"], "--seed"),
    ],
    ids=["synthesize", "check-patchwork", "option"],
)
def test_negative_seed_names_its_key(tmp_path, capsys, command, text, argv, key):
    # NumPy's default_rng refuses it too, with a message that names no key
    cfg = write(tmp_path / "seed.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    value = argv[-1] if argv else "-1"
    assert captured.err == "configuration error: %s must be a non-negative integer, got %s\n" % (key, value)
    assert "RESULT" not in captured.out


@pytest.mark.parametrize(
    "system, x0, dim",
    [("registry = scalar-unstable", "1", 1), ("dim = 3\nA = 0, 1, 0; 0, 0, 1; -1, -1, -1\nB = 0; 0; 1", "1, 1, 1", 3)],
    ids=["1-state", "3-state"],
)
def test_patchwork_family_of_another_dimension_is_refused(tmp_path, capsys, system, x0, dim):
    # the planar family would index past a 1-state plant, and read only (x1, x2) of a 3-state one
    text = SIM_PIN.format(system=system, controller="patchwork", extra="[patchwork]\nregistry = patchwork-halfplanes",
                          h=0.05, count=4, x0=x0, certificate="per-sample-quadratic")
    cfg = write(tmp_path / "pw.ini", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: [patchwork] registry 'patchwork-halfplanes' is a family on R^2; "
                            "the plant has dim %d\n" % dim)
    assert "RESULT" not in captured.out and not (tmp_path / "o" / "traj_0.csv").exists()


def test_seed_override_changes_nothing_for_fixed_run(tmp_path):
    # the scalar simulate run draws no samples, so any seed gives identical bytes
    cfg = write(tmp_path / "sim.ini", SIM_SCALAR)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "7", "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "99", "--quiet"]) == 0
    assert (tmp_path / "s1" / "traj_0.csv").read_bytes() == (tmp_path / "s2" / "traj_0.csv").read_bytes()
