"""Strict JSON experiment configuration.

Every default and every key lives in the packaged default.json; a user
file is laid over it, and a key default.json lacks is an error, so typos
cannot silently fall back to defaults.  Every number must be finite.
Nodal fields are given either as a small expression tree, checked and
evaluated by one walker, or as a per-node CSV.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .grid import Grid


class ConfigError(ValueError):
    """Configuration that fails to parse or validate."""


DEFAULT_JSON = resources.files("carleman_lab") / "default.json"

# the default.json keys whose field has another name
_FIELD_NAMES = {"lambda": "lambdas", "s": "s_values"}

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
    """Validated run parameters, one field per default.json key."""

    dimension: int
    n: int
    t0: float
    t_end: float
    steps: int
    lambdas: tuple
    s_values: tuple
    m_weight: float
    x0: tuple
    background: object
    gamma: object
    sigma: float
    seed: int
    out_dir: str
    base_dir: str   # directory CSV field paths resolve against

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
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        return self


def _is_int(raw) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(raw, int) and not isinstance(raw, bool)


def _number(raw, key) -> float:
    # "not <=" rejects the NaN and +-Infinity json reads, and huge ints
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or not abs(raw) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return float(raw)


def _number_list(raw, key) -> tuple:
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list of numbers")
    return tuple(_number(v, key) for v in raw)


def _read_json(text) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse and validate path laid over the packaged default.json;
    path None loads default.json alone."""
    raw = _read_json(DEFAULT_JSON.read_text())
    base_dir = "."
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        base_dir = os.path.dirname(os.path.abspath(path))
        user = _read_json(text)
        unknown = set(user) - set(raw)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update(user)
    # parsers by field annotation; validate() checks ints and strings
    parse = {"float": _number, "tuple": _number_list}
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for key, val in raw.items():
        name = _FIELD_NAMES.get(key, key)
        values[name] = parse.get(types[name], lambda v, k: v)(val, key)
    cfg = ExperimentConfig(base_dir=base_dir, **values).validate()
    # the field specs last: a 'y' node needs the validated dimension
    for key in ("background", "gamma"):
        spec = getattr(cfg, key)
        if isinstance(spec, dict) and set(spec) == {"csv"}:
            if not isinstance(spec["csv"], str):
                raise ConfigError(f"{key}: csv must be a path string")
        else:
            _expression(spec, key, cfg.dimension, None)
    return cfg


def evaluate_field(spec, grid: Grid, base_dir: str = ".") -> np.ndarray:
    """Nodal values of an expression tree or a node,value CSV."""
    if isinstance(spec, dict) and set(spec) == {"csv"}:
        return _field_from_csv(os.path.join(base_dir, spec["csv"]), grid)
    return _expression(spec, "field", grid.dimension, grid)


def _expression(node, key, dimension, grid):
    """Check an expression tree against _NODE_KEYS and the dimension;
    given a grid (not None), also return its values at the nodes."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{key}: expression node must be an object "
                          f"with a 'kind'")
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in _NODE_KEYS:
        raise ConfigError(f"{key}: unknown expression kind {kind!r}")
    if set(node) - {"kind"} != _NODE_KEYS[kind]:
        raise ConfigError(f"{key}: node {kind!r} takes keys "
                          f"{sorted(_NODE_KEYS[kind])}, got "
                          f"{sorted(set(node) - {'kind'})}")
    children = [node["child"]] if "child" in node else node.get("children")
    if kind in ("sum", "product") and (not isinstance(children, list)
                                       or not children):
        raise ConfigError(f"{key}: children must be a nonempty list")
    values = [_expression(child, key, dimension, grid)
              for child in children or ()]
    if kind == "const":
        value = _number(node["value"], f"{key}.value")
    if kind == "polynomial":
        coeffs = node["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{key}: coeffs must be a nonempty list")
        coeffs = [_number(c, f"{key}.coeffs") for c in coeffs]
    if kind == "y" and dimension < 2:
        raise ConfigError(f"{key}: 'y' used in a 1D configuration")
    if grid is None:
        return None
    if kind == "const":
        return np.full(grid.n_nodes, value)
    if kind in ("x", "y"):
        return grid.coords[:, "xy".index(kind)].copy()
    if kind == "sin":
        return np.sin(values[0])
    if kind == "polynomial":
        out = np.zeros(grid.n_nodes)
        for c in reversed(coeffs):
            out = out * values[0] + c
        return out
    if kind == "sum":
        return sum(values, np.zeros(grid.n_nodes))
    return math.prod(values, start=np.ones(grid.n_nodes))


def _field_from_csv(path, grid: Grid) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read field CSV: {exc}") from exc
    if not lines or lines[0] != "node,value":
        raise ConfigError(f"{path}: expected header 'node,value'")
    out = np.full(grid.n_nodes, np.nan)
    seen = set()
    for ln in lines[1:]:
        try:
            node_s, val_s = ln.split(",")
            node, value = int(node_s), float(val_s)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad row {ln!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{path}: row {ln!r} has a non-finite value")
        if not 0 <= node < grid.n_nodes:
            raise ConfigError(f"{path}: row {ln!r} names no grid node")
        if node in seen:
            raise ConfigError(f"{path}: row {ln!r} repeats node {node}")
        seen.add(node)
        out[node] = value
    if np.any(np.isnan(out)):
        raise ConfigError(f"{path}: covers {int(np.sum(~np.isnan(out)))} of "
                          f"{grid.n_nodes} nodes")
    return out
