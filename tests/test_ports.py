"""The in-package bisection, peak finder and spectrum against scipy.

`linear._bisect` and `sim._find_peaks` stand in for `scipy.optimize.bisect`
and `scipy.signal.find_peaks`, and `verify.discrete_spectrum` takes numpy
eigenvalues of one 2x2 block per eigenvalue of the discrete Laplacian in
place of `scipy.linalg.eig(A, B)` of the assembled pencil, so that
importing the package loads no scipy module.  A PDE run loads scipy's
compiled LAPACK module from its file (`sim._lapack`), and no other scipy
module: the same routines, and so the same bits, as `scipy.linalg.lapack`.
The scipy functions stay the independent oracle here:
the ports must give the same floats and the same indices, bit for bit,
and the spectrum the same eigenvalues to 1e-10 relative.  `cli._grid`
stands in for `numpy.linspace` the same way, bit for bit.

The same fresh-interpreter probe pins the start-up contract: the package
resolves its names lazily, and the CLI imports each layer (and numpy)
only in the commands that use it; the closed-form layers import no
numpy at all.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import bisect
from scipy.signal import find_peaks, peak_prominences

import musselbed
from musselbed import cli, sim
from musselbed import (Grid, ModelParams, delta0, hopf_points_in_r, rho0,
                       turing_curve)
from musselbed import linear
from musselbed.linear import _bisect
from musselbed.sim import _find_peaks
from musselbed.verify import _raw_kinetics_jacobian, discrete_spectrum


def _assert_same_peaks(x, prominence: float) -> None:
    want = find_peaks(x, prominence=prominence)[0]
    got = _find_peaks(np.asarray(x, dtype=float), prominence)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _signals(kind: str, count: int = 300):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(count):
        n = int(rng.integers(0, 80))
        if kind == "random":
            yield rng.normal(size=n)
        elif kind == "rounded":
            yield np.round(rng.normal(size=n), 1)
        elif kind == "three-valued":
            yield rng.integers(0, 3, size=n).astype(float)
        elif kind == "walk":
            yield np.cumsum(rng.normal(size=n))
        elif kind == "nan":
            x = rng.integers(0, 4, size=n).astype(float)
            x[rng.random(n) < 0.15] = np.nan
            yield x


@pytest.mark.parametrize("kind", ["random", "rounded", "three-valued",
                                  "walk", "nan"])
@pytest.mark.parametrize("prominence", [0.0, 0.3, 1.0, 2.5])
def test_find_peaks_matches_scipy_on_seeded_signals(kind, prominence):
    for x in _signals(kind):
        _assert_same_peaks(x, prominence)


@pytest.mark.parametrize("x", [
    [2.0, 2.0, 1.0, 3.0, 0.0],          # plateau at the left end
    [0.0, 3.0, 1.0, 2.0, 2.0],          # plateau at the right end
    [1.0, 1.0, 1.0, 1.0],               # one plateau, end to end
    [0.0, 2.0, 2.0, 0.0],               # even-width top: left of centre
    [0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 0.0],
    [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0],  # a shoulder, then the top
    [5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 5.0],  # equal peaks between higher ends
])
@pytest.mark.parametrize("prominence", [0.0, 1.0, 2.0, 4.0])
def test_find_peaks_matches_scipy_on_plateaus(x, prominence):
    _assert_same_peaks(x, prominence)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_find_peaks_matches_scipy_on_short_signals(n):
    for x in (np.zeros(n), np.arange(n, dtype=float),
              np.array([0.0, 1.0, 0.0][:n]), np.array([1.0, 0.0, 1.0][:n])):
        _assert_same_peaks(x, 0.0)


def test_find_peaks_threshold_equal_to_a_prominence_keeps_the_peak():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=40)
        for prom in peak_prominences(x, find_peaks(x)[0])[0]:
            _assert_same_peaks(x, prom)
            _assert_same_peaks(x, np.nextafter(prom, np.inf))


def test_find_peaks_matches_scipy_on_an_orbit_signal():
    t = np.linspace(0.0, 400.0, 4001)
    rng = np.random.default_rng(3)
    x = 0.2 + 0.05 * np.sin(2.0 * np.pi * t / 25.07) * np.exp(-t / 900.0)
    for noisy in (x, x + 1e-4 * rng.normal(size=t.size)):
        for prominence in (1e-6, 0.02 * float(np.ptp(noisy))):
            _assert_same_peaks(noisy, prominence)


def _trace_gap(alpha: float, gamma: float):
    def f(r: float) -> float:
        p = ModelParams(r=r, alpha=alpha, gamma=gamma)
        return delta0(p) ** 2 - rho0(p)
    return f


def test_bisect_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        c, k = rng.normal(), rng.uniform(0.5, 3.0)
        a, b = c - rng.uniform(0.0, 2.0), c + rng.uniform(1e-9, 2.0)

        def f(x, c=c, k=k):
            return float(np.tanh(k * (x - c)) + 1e-3 * (x - c) ** 3)
        assert _bisect(f, a, b, xtol=1e-12) == bisect(f, a, b, xtol=1e-12)
        assert _bisect(f, b, a, xtol=1e-12) == bisect(f, b, a, xtol=1e-12)
    # values whose products underflow to zero or overflow
    for scale in (1e-200, -1e-200, 1e200):
        for c in (0.3, 0.7):
            def g(x, c=c, scale=scale):
                return scale * (x - c)
            assert _bisect(g, 0.0, 1.0, xtol=1e-12) \
                == bisect(g, 0.0, 1.0, xtol=1e-12)
    # the Hopf-window bracket of the README's sweep point
    f = _trace_gap(0.45, 8.0)
    grid = np.linspace(1.0 + 1e-9, 1.0 / 0.45 - 1e-9, 201)
    values = [f(r) for r in grid]
    brackets = [(grid[i], grid[i + 1]) for i in range(200)
                if values[i] * values[i + 1] < 0.0]
    assert brackets
    for a, b in brackets:
        assert _bisect(f, a, b, xtol=1e-12) == bisect(f, a, b, xtol=1e-12)


def test_bisect_returns_an_endpoint_root_and_rejects_bad_brackets():
    assert _bisect(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert _bisect(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0
    for scale in (1.0, 1e-200, -1e-200):
        def same_sign(x, scale=scale):
            return scale * (x * x + 1.0)
        with pytest.raises(ValueError):
            bisect(same_sign, -1.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            _bisect(same_sign, -1.0, 1.0, xtol=1e-12)


def test_bisect_raises_on_nan_like_scipy():
    def f(x):
        return x if x < 0.5 else float("nan")
    with pytest.raises(ValueError):
        bisect(f, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _bisect(f, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _bisect(lambda x: float("nan"), -1.0, 2.0, xtol=1e-12)


def test_bisect_raises_when_it_runs_out_of_halvings_like_scipy():
    # 2e300 down to 4*eps*1e-300 takes some 2,040 halvings.
    def f(x):
        return x - 1e-300
    cap = linear._BISECT_MAXITER
    with pytest.raises(RuntimeError):
        bisect(f, -1e300, 1e300, xtol=5e-324, maxiter=cap)
    with pytest.raises(RuntimeError):
        _bisect(f, -1e300, 1e300, xtol=5e-324)


def test_bisect_narrows_the_widest_finite_bracket_like_scipy():
    # Any finite bracket reaches the scans' 1e-12 within the cap, and a
    # tolerance of 4*eps*1e-300 from a bracket 2 wide does too.
    cap = linear._BISECT_MAXITER
    for f, a, b, xtol in ((lambda x: x - 1.0, 0.0, 1.7e308, 1e-12),
                          (lambda x: 1.0 - x, 1.7e308, 0.0, 1e-12),
                          (lambda x: x - 1e-300, -1.0, 1.0, 5e-324)):
        assert _bisect(f, a, b, xtol=xtol) \
            == bisect(f, a, b, xtol=xtol, maxiter=cap)


def _scipy_bisect(f, a, b, xtol):
    return bisect(f, a, b, xtol=xtol)


def test_scans_give_the_same_roots_with_scipy_bisect(monkeypatch):
    hopf = hopf_points_in_r(0.45, 8.0)
    curve = turing_curve((0.1, 0.6), 0.01, resolution=3)
    assert len(hopf) == 2 and curve
    monkeypatch.setattr(linear, "_bisect", _scipy_bisect)
    assert hopf_points_in_r(0.45, 8.0) == hopf
    assert turing_curve((0.1, 0.6), 0.01, resolution=3) == curve


def _pencil(p: ModelParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """A and B of A v = lambda B v, as the scipy route assembled them."""
    m_eq, _, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    j_aa = -(p.alpha + m_eq)
    nx = grid.points
    lap = (np.diag(np.full(nx - 1, 1.0), -1) + np.diag(np.full(nx, -2.0))
           + np.diag(np.full(nx - 1, 1.0), 1))
    lap[0, 1] = lap[-1, -2] = 2.0
    lap /= grid.h * grid.h
    eye = np.eye(nx)
    a_mat = np.block([[p.d * lap + j_mm * eye, j_ma * eye],
                      [j_am * eye, lap + j_aa * eye]])
    b_mat = np.diag(np.concatenate([np.ones(nx), np.full(nx, p.gamma)]))
    return a_mat, b_mat


@pytest.mark.parametrize("n_grid", [16, 100, 200])
@pytest.mark.parametrize("p", [
    ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0),
    ModelParams(r=1.1917, alpha=0.6045, gamma=2.2312, d=1.9486, l=1.9488),
    # Every 2x2 block has two real eigenvalues.
    ModelParams(r=1.2, alpha=0.5, gamma=0.2, d=2.0, l=1.5),
], ids=["readme", "crowded", "real"])
def test_discrete_spectrum_matches_scipy_generalized_eig(p, n_grid):
    grid = Grid(n_grid, p.l)
    want = scipy.linalg.eig(*_pencil(p, grid), right=False)
    got = np.array(discrete_spectrum(p, grid, 2 * grid.points))
    assert got.shape == want.shape
    # Each side's nearest neighbour on the other, so no root is lost.
    gap = np.abs(got[:, None] - want[None, :])
    assert (gap.min(axis=1) <= 1e-10 * np.abs(got)).all()
    assert (gap.min(axis=0) <= 1e-10 * np.abs(want)).all()
    assert (np.diff(got.real) <= 0).all()
    # A tie in real part (a conjugate pair) lists the upper root first.
    ties = np.diff(got.real) == 0
    assert (np.diff(got.imag)[ties] < 0).all()
    assert got.imag.any() == (p.r != 1.2)


def _modules_after(code: str, prefix: str) -> list[str]:
    """The modules named prefix or prefix.* that a fresh interpreter holds
    after running code."""
    src = str(Path(musselbed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return [m for m in json.loads(done.stdout.splitlines()[-1])
            if m == prefix or m.startswith(prefix + ".")]


def test_package_import_loads_no_heavy_scipy_subpackage():
    loaded = _modules_after("import musselbed, musselbed.cli", "scipy")
    assert not loaded, f"import musselbed loaded {loaded}"


def _cli_calls(runs: list[list[str]], out: Path) -> str:
    """Code that runs each argv through the CLI at the README point."""
    code = "from musselbed.cli import main"
    for k, argv in enumerate(runs):
        argv = [*argv, "--r", "2", "--alpha", "0.1", "--gamma", "0.5",
                "--out", str(out / str(k))]
        code += f"\nassert main({argv!r}) == 0"
    return code


def test_analysis_and_ode_commands_load_no_scipy(tmp_path):
    # Only the PDE diffusion solve needs scipy's LAPACK.
    runs = [["tau-star"],
            ["sweep", "--r-steps", "3", "--t-end", "50", "--dt", "0.05"],
            ["verify", "--draws", "2", "--spectrum-n", "100"]]
    loaded = _modules_after(_cli_calls(runs, tmp_path), "scipy")
    assert not loaded, f"the commands loaded {loaded}"
    assert all(os.listdir(tmp_path / str(k)) for k in range(len(runs)))


def test_pde_simulate_loads_only_scipys_compiled_lapack(tmp_path):
    runs = [["simulate", "--tau", "3.6", "--t-end", "5", "--dt", "0.05",
             "--grid-n", "16"]]
    loaded = _modules_after(_cli_calls(runs, tmp_path), "scipy")
    assert loaded == ["scipy.linalg._flapack"]
    assert os.listdir(tmp_path / "0")


# One PDE run, as code for a fresh interpreter and for this one.
_PDE_RUN = """
from musselbed import Grid, ModelParams, cli, simulate_pde
p = ModelParams(r=2.0, alpha=0.1, gamma=0.5, tau=3.6)
traj = simulate_pde(p, cli._history_factory(p, 0.1, 2), Grid(32, p.l),
                    t_end=10.0, dt=0.05)
fields = traj.fields_m.tobytes() + traj.fields_a.tobytes()
"""


def test_lapack_loaded_from_its_file_gives_the_bits_of_scipy_linalg(
        tmp_path):
    path = tmp_path / "fields.bin"
    code = _PDE_RUN + f"open({str(path)!r}, 'wb').write(fields)"
    assert _modules_after(code, "scipy") == ["scipy.linalg._flapack"]
    here: dict = {}
    exec(_PDE_RUN, here)   # this process has imported scipy.linalg
    assert path.read_bytes() == here["fields"]


def test_lapack_is_the_module_of_scipy_linalg_in_either_load_order():
    code = ("from musselbed import sim\n"
            "flapack = sim._lapack()\n"
            "import scipy.linalg.lapack as lapack\n"
            "assert lapack.dgttrf is flapack.dgttrf\n"
            "assert lapack.dgttrs is flapack.dgttrs\n")
    assert "scipy.linalg" in _modules_after(code, "scipy")
    assert sim._lapack().dgttrf is scipy.linalg.lapack.dgttrf
    assert sim._lapack().dgttrs is scipy.linalg.lapack.dgttrs


@pytest.mark.parametrize("code", [
    "import musselbed, musselbed.cli",
    "from musselbed.cli import main\ntry:\n    main(['--help'])\n"
    "except SystemExit as exc:\n    assert exc.code == 0",
], ids=["import", "help"])
def test_package_import_and_help_load_only_the_cli_and_model(code):
    assert not _modules_after(code, "numpy")
    assert set(_modules_after(code, "musselbed")) == {
        "musselbed", "musselbed.cli", "musselbed.exceptions",
        "musselbed.model"}


def test_closed_form_commands_load_no_numpy(tmp_path):
    runs = [["classify"], ["tau-star"],
            ["turing-curve", "--resolution", "2"], ["normal-form"],
            ["hopf-curve", "--samples", "5"]]
    loaded = _modules_after(_cli_calls(runs, tmp_path), "numpy")
    assert not loaded, f"the commands loaded {loaded}"
    assert all(os.listdir(tmp_path / str(k)) for k in range(len(runs)))


def test_every_export_resolves_to_its_home_module():
    names = [n for n in musselbed.__all__ if n != "__version__"]
    assert len(names) == len(set(names)) == 54
    for name in names:
        home = f"musselbed.{musselbed._HOME[name]}"
        assert getattr(musselbed, name).__module__ == home, name
        assert name in dir(musselbed)
    for module in ("checks", "cli", "delay", "sim", "verify"):
        assert getattr(musselbed, module).__name__ == f"musselbed.{module}"
    star: dict = {}
    exec("from musselbed import *", star)
    assert set(musselbed.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        musselbed.no_such_name
    assert not hasattr(musselbed, "numpy")


def _imports(path: Path) -> set[str]:
    """Every name a source file imports anywhere, as an absolute dotted
    path (a relative import resolved against musselbed)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["musselbed" if node.level else "",
                                          node.module]))
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


def _package_imports(path: Path) -> set[str]:
    """The musselbed modules a source file imports, by short name,
    whether relative or absolute."""
    return {name.split(".")[1] for name in _imports(path)
            if name.startswith("musselbed.")}


@pytest.mark.parametrize("module", ["model", "linear", "delay",
                                    "normal_form"])
def test_closed_form_layers_import_no_numpy(module):
    path = Path(musselbed.__file__).parent / f"{module}.py"
    assert not {name for name in _imports(path)
                if name.split(".")[0] == "numpy"}


def test_cli_grid_is_numpy_linspace_bit_for_bit():
    # The hopf-curve window, a decreasing range, a step that underflows
    # to zero, then random ranges and counts.
    rng = np.random.default_rng(22)
    cases = [(lo, hi, n) for lo, hi in [(1.0 + 1e-9, 1.0 / 0.1 - 1e-9),
                                        (1.8, 1.05), (0.0, 5e-323)]
             for n in (1, 2, 3, 400)]
    cases += [(*rng.normal(scale=10.0 ** rng.integers(-3, 4), size=2),
               int(rng.integers(1, 60))) for _ in range(2000)]
    for lo, hi, n in cases:
        lo, hi = float(lo), float(hi)
        got = np.array(cli._grid(lo, hi, n, "n"))
        assert got.tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)


def test_only_checks_imports_an_oracle_together_with_its_target():
    src = Path(musselbed.__file__).parent
    assert _package_imports(src / "verify.py") <= {"exceptions", "model",
                                                    "sim"}
    assert "verify" not in _package_imports(src / "cli.py")
    importers = {path.stem for path in src.glob("*.py")
                 if "verify" in _package_imports(path)}
    assert importers == {"checks"}


def test_only_the_validated_inputs_are_dataclasses():
    # A dataclass generates and execs its methods on every import; the
    # result records are NamedTuples.  ModelParams and Grid validate on
    # construction, and their fields are read on the hot paths.
    decorated = set()
    for path in Path(musselbed.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = (target.attr if isinstance(target, ast.Attribute)
                            else getattr(target, "id", None))
                    if name == "dataclass":
                        decorated.add(f"{path.stem}.{node.name}")
    assert decorated == {"model.ModelParams", "sim.Grid"}
