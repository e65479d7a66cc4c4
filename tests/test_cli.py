"""JSON configuration, field expressions, and the command-line driver."""

import dataclasses
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from importlib import resources
from xml.etree import ElementTree

import numpy as np
import pytest

import carleman_lab
from carleman_lab import cli, config, energy, observe, poincare, setups
from carleman_lab.carleman import make_test_suite
from carleman_lab.cli import (
    RunContext,
    cmd_verify_energy,
    cmd_verify_poincare,
    cmd_verify_snapshot,
    main,
    run,
)
from carleman_lab.config import (
    ConfigError,
    evaluate_field,
    load_config,
)
from carleman_lab.grid import Grid
from carleman_lab.setups import default_setup
from carleman_lab.svg import PlotError, line_plot


ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


# -- configuration ---------------------------------------------------------


def test_default_config_values():
    cfg = load_config(None)
    assert cfg.dimension == 1
    assert cfg.n == 32
    assert cfg.t0 == 0.5
    assert cfg.t_end == 2.0
    assert cfg.steps == 128
    assert cfg.lambdas == (1.0, 2.0)
    assert cfg.s_values == (1.0, 2.0, 4.0, 8.0)
    assert cfg.m_weight == 1.1
    assert cfg.x0 == (-0.1,)
    assert cfg.sigma == 0.0
    assert cfg.seed == 42


def test_library_defaults_mirror_the_packaged_config():
    # a keyword default that repeats a default.json value must not drift
    # from it: the tests that call these functions bare rely on both
    cfg = load_config(None)

    def defaults(fn):
        return {name: p.default
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    assert defaults(setups.default_setup) == {
        "dimension": cfg.dimension, "n": cfg.n, "t0": cfg.t0,
        "t_end": cfg.t_end, "steps": cfg.steps}
    assert defaults(setups.inversion_setup) == {
        "dimension": cfg.dimension, "n": cfg.n}
    assert defaults(make_test_suite)["seed"] == cfg.seed


def test_config_file_is_laid_over_the_packaged_defaults(tmp_path,
                                                        monkeypatch):
    packaged = json.loads(resources.files("carleman_lab").joinpath(
        "default.json").read_text())
    swapped = tmp_path / "default.json"
    swapped.write_text(json.dumps(dict(packaged, n=16)))
    # load_config reads the packaged file through config.DEFAULT_JSON
    monkeypatch.setattr(config, "DEFAULT_JSON", swapped, raising=False)
    cfg = load_config(write_config(tmp_path, steps=64))
    assert (cfg.n, cfg.steps) == (16, 64)
    assert load_config(None).n == 16


def test_empty_config_file_loads_the_defaults(tmp_path):
    empty, packaged = load_config(write_config(tmp_path)), load_config(None)
    for f in dataclasses.fields(packaged):
        if f.name != "base_dir":
            assert getattr(empty, f.name) == getattr(packaged, f.name), f.name


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="stepz"):
        load_config(write_config(tmp_path, stepz=12))


@pytest.mark.parametrize("overrides,needle", [
    ({"dimension": 3}, "dimension"),
    ({"steps": "many"}, "integer"),
    ({"sigma": -0.1}, "sigma"),
    ({"x0": [-0.1, -0.1]}, "x0"),
    ({"s": []}, "s_values"),
    ({"m_weight": 1.0}, "m_weight"),
    ({"seed": 1.5}, "seed"),
    ({"gamma": {"kind": "cube"}}, "cube"),
    ({"gamma": {"kind": "sin"}}, "sin"),
    ({"dimension": True}, "dimension"),
    ({"dimension": 1.0}, "dimension"),
    ({"steps": True}, "steps"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "non-negative"),
] + [
    # json reads NaN and +-Infinity as floats
    (overrides, f"{needle} must be a finite number")
    for v in (math.nan, math.inf, -math.inf)
    for overrides, needle in (
        ({"sigma": v}, "sigma"),
        ({"lambda": [1.0, v]}, "lambda"),
        ({"gamma": {"kind": "const", "value": v}}, "gamma.value"),
        ({"gamma": {"kind": "polynomial", "child": {"kind": "x"},
                    "coeffs": [0.0, v]}}, "gamma.coeffs"),
    )
] + [({"sigma": 10**400}, "sigma must be a finite number"),
       ({"gamma": {"kind": ["x"]}}, "unknown expression kind")])
def test_config_rejects_bad_values(tmp_path, overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write_config(tmp_path, **overrides))


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))


def test_default_gamma_expression_is_the_quartic_bump():
    cfg = load_config(None)
    setup = default_setup()
    x = setup.grid.coords[:, 0]
    vals = evaluate_field(cfg.gamma, setup.grid)
    np.testing.assert_allclose(vals, 0.05 * x**2 * (1.0 - x) ** 2,
                               atol=1e-15)


def test_expression_composition():
    setup = default_setup()
    x = setup.grid.coords[:, 0]
    spec = {"kind": "sum", "children": [
        {"kind": "const", "value": 1.0},
        {"kind": "sin", "child": {"kind": "product", "children": [
            {"kind": "const", "value": math.pi},
            {"kind": "x"},
        ]}},
    ]}
    np.testing.assert_allclose(evaluate_field(spec, setup.grid),
                               1.0 + np.sin(math.pi * x), rtol=1e-15)


def test_expression_y_needs_two_dimensions():
    setup = default_setup()
    with pytest.raises(ConfigError, match="1D"):
        evaluate_field({"kind": "y"}, setup.grid)


_X = {"kind": "x"}
# a well-formed node of each kind and its values at nodes (x, y)
_WELL_FORMED = {
    "const": ({"kind": "const", "value": 0.5}, lambda x, y: 0.5 + 0.0 * x),
    "x": (_X, lambda x, y: x),
    "y": ({"kind": "y"}, lambda x, y: y),
    "sin": ({"kind": "sin", "child": _X}, lambda x, y: np.sin(x)),
    "polynomial": ({"kind": "polynomial", "child": _X,
                    "coeffs": [1.0, 2.0, 3.0]},
                   lambda x, y: 1.0 + 2.0 * x + 3.0 * x**2),
    "sum": ({"kind": "sum", "children": [_X, {"kind": "const", "value": 1.0}]},
            lambda x, y: x + 1.0),
    "product": ({"kind": "product", "children": [_X, _X]},
                lambda x, y: x * x),
}


@pytest.mark.parametrize("kind", sorted(config._NODE_KEYS))
def test_expression_walker_covers_every_kind(tmp_path, kind):
    assert set(_WELL_FORMED) == set(config._NODE_KEYS)
    node, want = _WELL_FORMED[kind]
    plane = {"dimension": 2, "x0": [-0.1, -0.1]} if kind == "y" else {}
    cfg = load_config(write_config(tmp_path, gamma=node, **plane))
    assert cfg.gamma == node
    if kind == "y":
        with pytest.raises(ConfigError, match="gamma: 'y' used in a 1D"):
            load_config(write_config(tmp_path, gamma=node))
    for dimension in (1, 2):
        grid = Grid(dimension, 8,
                    ["right"] if dimension == 1 else ["north", "east"])
        if kind == "y" and dimension == 1:
            with pytest.raises(ConfigError, match="1D"):
                evaluate_field(cfg.gamma, grid)
            continue
        x = grid.coords[:, 0]
        y = grid.coords[:, -1]
        np.testing.assert_allclose(evaluate_field(cfg.gamma, grid),
                                   want(x, y), rtol=1e-15, atol=1e-15)
    # one key missing, or one key extra, names the kind
    broken = [dict(node, extra=1.0)] + [
        {k: v for k, v in node.items() if k != key}
        for key in config._NODE_KEYS[kind]]
    for bad in broken:
        with pytest.raises(ConfigError, match=f"node {kind!r} takes keys"):
            load_config(write_config(tmp_path, gamma=bad, **plane))


def test_field_from_csv_roundtrip(tmp_path):
    setup = default_setup()
    values = 1.0 + 0.1 * np.sin(setup.grid.coords[:, 0])
    path = tmp_path / "field.csv"
    lines = ["node,value"] + [f"{i},{v:.17g}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    out = evaluate_field({"csv": "field.csv"}, setup.grid,
                         base_dir=str(tmp_path))
    np.testing.assert_allclose(out, values, rtol=1e-15)

    path.write_text("\n".join(lines[:-1]) + "\n")   # one node missing
    with pytest.raises(ConfigError, match="covers"):
        evaluate_field({"csv": "field.csv"}, setup.grid,
                       base_dir=str(tmp_path))


@pytest.mark.parametrize("row,message", [("-1,7", "names no grid node"),
                                         ("5,7", "names no grid node"),
                                         ("0,7", "repeats node 0")])
def test_field_from_csv_rejects_bad_node_indices(tmp_path, row, message):
    # numpy would read -1 as the last node, and a repeated node would
    # overwrite the earlier row
    grid = Grid(1, 4, ["right"])
    lines = ["node,value"] + [f"{i},1" for i in range(grid.n_nodes)] + [row]
    (tmp_path / "field.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"{re.escape(repr(row))}.*{message}"):
        evaluate_field({"csv": "field.csv"}, grid, base_dir=str(tmp_path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_field_from_csv_rejects_non_finite_values(tmp_path, value):
    # a nan row would otherwise read as a missing node, and an infinite
    # one would pass the reader and fail a later check
    grid = Grid(1, 4, ["right"])
    row = f"2,{value}"
    lines = ["node,value"] + [row if i == 2 else f"{i},1"
                              for i in range(grid.n_nodes)]
    (tmp_path / "field.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"{re.escape(repr(row))}.*non-finite"):
        evaluate_field({"csv": "field.csv"}, grid, base_dir=str(tmp_path))


# -- command runs ----------------------------------------------------------


def test_forward_command(tmp_path):
    assert run("forward", out=str(tmp_path)) == 0
    field_lines = (tmp_path / "field.csv").read_text().splitlines()
    assert field_lines[0] == "t_index,node,value"
    assert len(field_lines) == 1 + 129 * 33
    obs_lines = (tmp_path / "observations.csv").read_text().splitlines()
    assert obs_lines[0] == "kind,index1,index2,value"


def test_verify_carleman_row_count(tmp_path):
    assert run("verify-carleman", out=str(tmp_path)) == 0
    lines = (tmp_path / "carleman_sweep.csv").read_text().splitlines()
    assert lines[0] == "test_id,s,lambda,term_name,value"
    terms = {ln.split(",")[3] for ln in lines[1:]}
    # 20 tests x 4 s values x 2 lambdas, one row per named term
    assert len(lines) == 1 + 20 * 4 * 2 * len(terms)
    summary = (tmp_path / "carleman_summary.csv").read_text().splitlines()
    assert summary[0] == "s,lambda,max_ratio"
    assert len(summary) == 1 + 4 * 2
    ratios = [float(ln.split(",")[2]) for ln in summary[1:]]
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)


def test_verify_energy_curve(tmp_path):
    assert run("verify-energy", out=str(tmp_path)) == 0
    lines = (tmp_path / "energy_curve.csv").read_text().splitlines()
    assert lines[0] == "t,E"
    assert len(lines) == 1 + 95        # interior window rows at dt=1/64
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert min(values) >= 0.0


def test_verify_snapshot_single_row(tmp_path):
    assert run("verify-snapshot", out=str(tmp_path)) == 0
    lines = (tmp_path / "snapshot.csv").read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert header[0] == "name"
    assert "ratio" in header


def test_twin_pipelines_share_one_twin_solve(tmp_path, monkeypatch):
    # twin_solve solves its pair as one stack: each conductivity counts
    calls = []
    original = setups.solve_heat

    def recording(problem, *args, **kwargs):
        calls.extend(np.atleast_2d(problem.c))
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(setups, "solve_heat", recording)
    ctx = RunContext(load_config(None), str(tmp_path), False)
    for cmd in (cmd_verify_poincare, cmd_verify_snapshot, cmd_verify_energy):
        cmd(ctx)
    assert len(calls) == 2       # the perturbed and the base problem


CFG2D = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                     "cfg2d.json")


@pytest.mark.parametrize("config_path", [None, CFG2D], ids=["1d", "cfg2d"])
def test_energy_stage_forms_each_ingredient_once(tmp_path, monkeypatch,
                                                 config_path):
    # one energy curve, one Gamma0 norm of y's traces, one coefficient
    # mass (two spacetime norms) and one flatness check of gamma serve
    # the curve checks and both bound reports; every module's binding of
    # each function is counted, as the tracer counts them
    counted = (energy.energy, observe.gamma0_traces,
               observe.weighted_boundary_norm,
               observe.weighted_norm_spacetime, poincare.check_flat_boundary)
    calls = dict.fromkeys((fn.__name__ for fn in counted), 0)

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("carleman_lab."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in counted):
                    monkeypatch.setattr(module, attr, counting(value))
    ctx = RunContext(load_config(config_path), str(tmp_path), False)
    cmd_verify_energy(ctx)
    assert calls == {"energy": 1, "gamma0_traces": 1,
                     "weighted_boundary_norm": 1,
                     "weighted_norm_spacetime": 2, "check_flat_boundary": 1}


def test_run_context_builds_each_weight_set_once(tmp_path, monkeypatch):
    built = []
    original = cli.build_weights

    def recording(*args, **kwargs):
        built.append((kwargs["lam"], kwargs["s"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_weights", recording)
    ctx = RunContext(load_config(None), str(tmp_path), False)
    assert ctx.weights_ref() is ctx.weights_ref()
    assert ctx.weights(1, 1) is ctx.weights_ref()
    assert ctx.weights_energy() is ctx.weights_energy()
    assert ctx.weights_energy() is not ctx.weights_ref()
    assert built == [(1.0, 1.0), (1.0, 4.0)]


def test_sweep_stability_with_plot(tmp_path):
    assert run("sweep-stability", plot=True, out=str(tmp_path)) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "member,eps,lhs,rhs_weighted,rhs_plain,ratio"
    assert len(lines) == 1 + 12
    svg = (tmp_path / "sweep.svg").read_text()
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == 12
    assert "xmlns" in svg and "href" not in svg


def test_reconstruct_command(tmp_path, capsys):
    assert run("reconstruct", out=str(tmp_path)) == 0
    lines = (tmp_path / "recon_log.csv").read_text().splitlines()
    assert lines[0] == "iter,J,grad_norm,h1_error"
    final_err = float(lines[-1].rsplit(",", 1)[1])
    assert final_err <= 0.05


def test_all_emits_six_report_files(tmp_path, capsys):
    assert run("all", out=str(tmp_path)) == 0
    # no weighted LHS of the default config underflows to 0
    assert "underflowed" not in capsys.readouterr().err
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "carleman_summary.csv",
        "carleman_sweep.csv",
        "energy_curve.csv",
        "poincare.csv",
        "recon_log.csv",
        "sweep.csv",
    ]


def test_all_with_plot_writes_one_svg_per_plotting_stage(tmp_path):
    assert run("all", plot=True, out=str(tmp_path)) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    svgs = {"carleman_sweep.svg": len(load_config(None).lambdas),
            "energy_curve.svg": 1, "sweep.svg": 1, "recon_log.svg": 1}
    assert names == sorted(list(svgs) + [
        "carleman_summary.csv", "carleman_sweep.csv", "energy_curve.csv",
        "poincare.csv", "recon_log.csv", "sweep.csv"])
    for name, series in svgs.items():
        root = ElementTree.parse(tmp_path / name).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) \
            == series


def test_all_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("all", out=str(a)) == 0
    assert run("all", out=str(b)) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_seed_reaches_only_the_carleman_reports(tmp_path):
    # the config's seed draws the Carleman test suite; at sigma = 0 no
    # other stage draws anything, so its four files do not move
    a, b = tmp_path / "7", tmp_path / "42"
    for out in (a, b):
        out.mkdir()
        cfg = write_config(out, seed=int(out.name))
        assert run("all", config_path=cfg, out=str(out / "out")) == 0
    names = sorted(p.name for p in (a / "out").iterdir())
    differ = [name for name in names if (a / "out" / name).read_bytes()
              != (b / "out" / name).read_bytes()]
    assert len(names) == 6
    assert differ == ["carleman_summary.csv", "carleman_sweep.csv"]


# -- exit codes ------------------------------------------------------------


def test_odd_steps_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, steps=129)
    assert run("forward", config_path=cfg, out=str(tmp_path)) == 2
    assert "even" in capsys.readouterr().err


def test_odd_window_names_the_window(tmp_path, capsys):
    # 4 steps on (0, 2) put t0 = 0.5 at node 1, leaving the window 3
    cfg = write_config(tmp_path, steps=4)
    assert run("forward", config_path=cfg, out=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "window (0.5, 2.0) has 3 steps" in err


@pytest.mark.parametrize("command", ["verify-carleman", "reconstruct"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, seed=-1, sigma=1e-3)
    assert run(command, config_path=cfg, out=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, stepz=12)
    assert run("forward", config_path=cfg, out=str(tmp_path)) == 2
    assert "stepz" in capsys.readouterr().err


def test_non_finite_number_is_a_config_error(tmp_path, capsys):
    # NaN would otherwise run a noiseless reconstruction and exit 0
    cfg = write_config(tmp_path, sigma=math.nan)
    assert run("reconstruct", config_path=cfg, out=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sigma" in err


@pytest.mark.parametrize("key", ["background", "gamma"])
def test_y_node_in_1d_is_a_config_error_naming_the_key(tmp_path, capsys, key):
    node = {"kind": "sum", "children": [
        {"kind": "const", "value": 1.0},
        {"kind": "product", "children": [{"kind": "const", "value": 0.1},
                                         {"kind": "y"}]}]}
    cfg = write_config(tmp_path, **{key: node})
    assert run("forward", config_path=cfg, out=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: 'y' used in a 1D")


def test_output_path_collision_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("not a directory")
    assert run("forward", out=str(target)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("overrides,needle", [
    ({"lambda": [0.5]}, "lam >= 1"),
    ({"s": [0.5, 1]}, "s >= 1"),
    ({"x0": [0.5]}, "inside the closed domain"),
])
def test_weight_parameter_is_a_config_error(tmp_path, capsys, overrides,
                                            needle):
    # the weight set is built mid-pipeline, and its parameter checks are
    # still configuration errors
    cfg = write_config(tmp_path, **overrides)
    assert run("verify-carleman", config_path=cfg, out=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and needle in err


def test_boundary_supported_gamma_is_a_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, gamma={"kind": "const", "value": 0.5})
    assert run("verify-poincare", config_path=cfg, out=str(tmp_path)) == 3
    assert "boundary" in capsys.readouterr().err


def test_underflowing_weight_is_named_and_no_traceback(tmp_path):
    # bench/cfg2d.json at lambda = 2: the weight underflows wherever a
    # stability member is nonzero, so every member's weighted LHS is 0.
    # The slope fit the sweep once ran took log(0) there, a traceback
    # (exit 1) under -W error.  In all's Carleman stage every test reads
    # 0 on both sides in each of the four cells, which write ratio 0
    cfg = json.loads((ROOT / "bench" / "cfg2d.json").read_text())
    cfg["lambda"] = [2.0]
    path = write_config(tmp_path, **cfg)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ("sweep-stability", "all"):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "carleman_lab", command,
             "--config", path, "--out", str(tmp_path / command)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / command / "sweep.csv").is_file()
        assert ("sweep-stability: weighted LHS is 0 against a positive "
                "right side at lam=2, s=1: the weight "
                "e^{-2s(eta - eta_ref)} underflowed") in done.stderr
    vanished = [line for line in done.stderr.splitlines()
                if line.startswith("verify-carleman: both weighted sides")]
    assert vanished == [
        f"verify-carleman: both weighted sides are 0 at lam=2, s={s}: the "
        "weight e^{-2s(eta - eta_ref)} underflowed on both sides"
        for s in (1, 2, 4, 8)]
    summary = (tmp_path / "all" / "carleman_summary.csv").read_text()
    assert [row.split(",")[-1] for row in summary.split()[1:]] == ["0"] * 4


def test_main_rejects_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_main_runs_forward(tmp_path):
    assert main(["forward", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "field.csv").exists()


# -- svg -------------------------------------------------------------------


def test_line_plot_rejects_empty_and_nonpositive_log(tmp_path):
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "p.svg"), [])
    with pytest.raises(PlotError):
        line_plot(str(tmp_path / "p.svg"), [("a", [1.0, 2.0], [0.0, -1.0])],
                  logy=True)


def test_line_plot_writes_one_polyline_per_series(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(str(path), [("a", [1, 2, 3], [1.0, 2.0, 4.0]),
                          ("b", [1, 2, 3], [2.0, 1.0, 0.5])],
              logy=True)
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("</svg>") == 1


START_UP_AND_PIPELINES = """
import sys
from carleman_lab import cli
ctx = cli.RunContext(cli.load_config(None), sys.argv[1], False)
after_start_up = set(sys.modules)
for fn in (cli.cmd_verify_carleman, cli.cmd_verify_poincare,
           cli.cmd_verify_energy, cli.cmd_sweep_stability,
           cli.cmd_reconstruct):
    fn(ctx)
print(sorted(set(sys.modules) - after_start_up))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_pipelines_import_neither_scipy_linalg_nor_sparse(tmp_path):
    """A fresh interpreter, as one CLI run: scipy's LAPACK and CSR
    routines are loaded without importing scipy.linalg, scipy.sparse or
    scipy itself, and the pipelines of `all` import nothing that
    start-up did not, so start-up time holds every import."""
    src = os.path.dirname(os.path.dirname(carleman_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", START_UP_AND_PIPELINES, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True).stdout
    new_modules, scipy_modules = out.splitlines()[-2:]
    assert new_modules == "[]"
    assert scipy_modules == "[]"
