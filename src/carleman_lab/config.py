"""Strict JSON experiment configuration.

Every physical default lives in the packaged default.json; a user file
overrides keys and anything unrecognized is an error, so typos cannot
silently fall back to defaults.  Nodal fields are given either as a
small expression tree or as a per-node CSV.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .grid import Grid


class ConfigError(ValueError):
    """Configuration that fails to parse or validate."""


_TOP_KEYS = {
    "dimension", "n", "t0", "t_end", "steps", "lambda", "s", "m_weight",
    "x0", "background", "gamma", "sigma", "seed", "out_dir",
}

# expression node kind -> required keys besides "kind"
_NODE_KEYS = {
    "const": {"value"},
    "x": set(),
    "y": set(),
    "sin": {"child"},
    "polynomial": {"child", "coeffs"},
    "sum": {"children"},
    "product": {"children"},
}


@dataclass
class ExperimentConfig:
    """Validated run parameters; defaults mirror default.json."""

    dimension: int = 1
    n: int = 32
    t0: float = 0.5
    t_end: float = 2.0
    steps: int = 128
    lambdas: tuple = (1.0, 2.0)
    s_values: tuple = (1.0, 2.0, 4.0, 8.0)
    m_weight: float = 1.1
    x0: tuple = (-0.1,)
    background: object = field(
        default_factory=lambda: {"kind": "const", "value": 1.0})
    gamma: object = field(default_factory=lambda: {
        "kind": "polynomial", "child": {"kind": "x"},
        "coeffs": [0.0, 0.0, 0.05, -0.1, 0.05]})
    sigma: float = 0.0
    seed: int = 42
    out_dir: str = "reports"
    base_dir: str = "."   # directory CSV field paths resolve against

    def validate(self) -> "ExperimentConfig":
        if not (_is_int(self.dimension) and self.dimension in (1, 2)):
            raise ConfigError(
                f"dimension must be 1 or 2, got {self.dimension!r}")
        if not (_is_int(self.n) and self.n >= 4):
            raise ConfigError(f"n must be an integer >= 4, got {self.n!r}")
        if not _is_int(self.steps):
            raise ConfigError(f"steps must be an integer, got {self.steps!r}")
        for name in ("lambdas", "s_values"):
            vals = getattr(self, name)
            if not vals or any(v <= 0.0 for v in vals):
                raise ConfigError(f"{name} must be nonempty and positive")
        if self.m_weight <= 1.0:
            raise ConfigError("m_weight must exceed 1")
        if len(self.x0) != self.dimension:
            raise ConfigError(
                f"x0 has {len(self.x0)} components for dimension "
                f"{self.dimension}")
        if self.sigma < 0.0:
            raise ConfigError("sigma must be nonnegative")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        return self


def _is_int(raw) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(raw, int) and not isinstance(raw, bool)


def _number(raw, key) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    return float(raw)


def _number_list(raw, key) -> tuple:
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list of numbers")
    return tuple(_number(v, key) for v in raw)


def load_config(path=None) -> ExperimentConfig:
    """Parse and validate; path=None loads the packaged default.json."""
    if path is None:
        text = resources.files("carleman_lab").joinpath(
            "default.json").read_text()
        base_dir = "."
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        base_dir = os.path.dirname(os.path.abspath(path))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    cfg = ExperimentConfig(base_dir=base_dir)
    if "dimension" in raw:
        cfg.dimension = raw["dimension"]
    if "n" in raw:
        cfg.n = raw["n"]
    if "steps" in raw:
        cfg.steps = raw["steps"]
    if "t0" in raw:
        cfg.t0 = _number(raw["t0"], "t0")
    if "t_end" in raw:
        cfg.t_end = _number(raw["t_end"], "t_end")
    if "lambda" in raw:
        cfg.lambdas = _number_list(raw["lambda"], "lambda")
    if "s" in raw:
        cfg.s_values = _number_list(raw["s"], "s")
    if "m_weight" in raw:
        cfg.m_weight = _number(raw["m_weight"], "m_weight")
    if "x0" in raw:
        cfg.x0 = _number_list(raw["x0"], "x0")
    if "sigma" in raw:
        cfg.sigma = _number(raw["sigma"], "sigma")
    if "seed" in raw:
        cfg.seed = raw["seed"]
    if "out_dir" in raw:
        if not isinstance(raw["out_dir"], str):
            raise ConfigError("out_dir must be a string")
        cfg.out_dir = raw["out_dir"]
    for key in ("background", "gamma"):
        if key in raw:
            _check_field_spec(raw[key], key)
            setattr(cfg, key, raw[key])
    return cfg.validate()


def _check_field_spec(spec, key):
    """Structural validation only; evaluation re-checks against the grid."""
    if isinstance(spec, dict) and set(spec) == {"csv"}:
        if not isinstance(spec["csv"], str):
            raise ConfigError(f"{key}: csv must be a path string")
        return
    _check_expression(spec, key)


def _check_expression(node, key):
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{key}: expression node must be an object "
                          f"with a 'kind'")
    kind = node["kind"]
    if kind not in _NODE_KEYS:
        raise ConfigError(f"{key}: unknown expression kind {kind!r}")
    extra = set(node) - {"kind"} - _NODE_KEYS[kind]
    missing = _NODE_KEYS[kind] - set(node)
    if extra or missing:
        raise ConfigError(f"{key}: node {kind!r} takes keys "
                          f"{sorted(_NODE_KEYS[kind])}, got "
                          f"{sorted(set(node) - {'kind'})}")
    if kind == "const":
        _number(node["value"], f"{key}.value")
    elif kind == "sin":
        _check_expression(node["child"], key)
    elif kind == "polynomial":
        _check_expression(node["child"], key)
        coeffs = node["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{key}: coeffs must be a nonempty list")
        for cval in coeffs:
            _number(cval, f"{key}.coeffs")
    elif kind in ("sum", "product"):
        children = node["children"]
        if not isinstance(children, list) or not children:
            raise ConfigError(f"{key}: children must be a nonempty list")
        for child in children:
            _check_expression(child, key)


def evaluate_field(spec, grid: Grid, base_dir: str = ".") -> np.ndarray:
    """Nodal values of an expression tree or a node,value CSV."""
    if isinstance(spec, dict) and set(spec) == {"csv"}:
        return _field_from_csv(os.path.join(base_dir, spec["csv"]), grid)
    return _eval_expression(spec, grid)


def _eval_expression(node, grid: Grid) -> np.ndarray:
    kind = node["kind"]
    if kind == "const":
        return np.full(grid.n_nodes, float(node["value"]))
    if kind == "x":
        return grid.coords[:, 0].copy()
    if kind == "y":
        if grid.dimension < 2:
            raise ConfigError("'y' used in a 1D configuration")
        return grid.coords[:, 1].copy()
    if kind == "sin":
        return np.sin(_eval_expression(node["child"], grid))
    if kind == "polynomial":
        t = _eval_expression(node["child"], grid)
        out = np.zeros(grid.n_nodes)
        for c in reversed(node["coeffs"]):
            out = out * t + float(c)
        return out
    if kind == "sum":
        out = np.zeros(grid.n_nodes)
        for child in node["children"]:
            out = out + _eval_expression(child, grid)
        return out
    if kind == "product":
        out = np.ones(grid.n_nodes)
        for child in node["children"]:
            out = out * _eval_expression(child, grid)
        return out
    raise ConfigError(f"unknown expression kind {kind!r}")


def _field_from_csv(path, grid: Grid) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read field CSV: {exc}") from exc
    if not lines or lines[0] != "node,value":
        raise ConfigError(f"{path}: expected header 'node,value'")
    out = np.full(grid.n_nodes, np.nan)
    for ln in lines[1:]:
        try:
            node_s, val_s = ln.split(",")
            out[int(node_s)] = float(val_s)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: bad row {ln!r}") from exc
    if np.any(np.isnan(out)):
        raise ConfigError(f"{path}: covers {int(np.sum(~np.isnan(out)))} of "
                          f"{grid.n_nodes} nodes")
    return out
