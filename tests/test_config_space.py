"""Every command but all on a fixed sample of configs (ROADMAP item 19).

Each config is drawn from its own seed in SEEDS, over the ranges of
_config.  Every command runs in process with RuntimeWarning raised as an
error.  It must exit 0, 2 or 3; a failure must say which kind it is on
its last stderr line; and a run that exits 0 writes no ratio of exactly
0 unless stderr names that ratio's (lambda, s).

reconstruct runs with a budget of RECON_ITERS iterations instead of 200,
which would take two thirds of the sample's time: of a config it reads
only the dimension, n, background, gamma, sigma and seed, and it writes
no ratio.
"""

import csv
import functools
import json
import re
import warnings

import numpy as np
import pytest

from carleman_lab import cli, stability
from carleman_lab.report import fmt

# fixed before any outcome was seen; a failure is mended, never reseeded
SEEDS = range(20)

COMMANDS = [name for name in cli._DISPATCH if name != "all"]

RECON_ITERS = 20

# the "(lam, s)" of a stderr line that names a weighted estimate's cell
_CELL = re.compile(r" at (lam=[^,:]+, s=[^,:]+):")


def _config(seed: int) -> dict:
    """One config over item 19's ranges.  2D n stops at 12 to keep the
    sample's reconstructions within the Tier-1 budget.  A quarter of the
    gammas are x(1 - x) bumps, which are not flat at the boundary."""
    rng = np.random.default_rng(seed)
    dimension = int(rng.integers(1, 3))
    amp = float(rng.uniform(0.01, 0.3))
    if rng.random() < 0.75:
        coeffs = [0.0, 0.0, amp, -2.0 * amp, amp]
    else:
        coeffs = [0.0, amp, -amp]
    gamma = {"kind": "polynomial", "child": {"kind": "x"}, "coeffs": coeffs}
    if dimension == 2:
        gamma = {"kind": "product", "children": [gamma, {
            "kind": "polynomial", "child": {"kind": "y"},
            "coeffs": [0.0, 0.0, 16.0, -32.0, 16.0]}]}
    return {
        "dimension": dimension,
        "n": int(rng.integers(8, 34 if dimension == 1 else 13)),
        "steps": int(rng.choice([16, 32, 48, 64, 96, 128])),
        "t_end": float(rng.choice([1.0, 1.5, 2.0, 3.0])),
        "t0": float(rng.choice([0.25, 0.5, 0.75, 1.0])),
        "lambda": sorted(rng.choice([1.0, 1.5, 2.0, 3.0],
                                    size=rng.integers(1, 3),
                                    replace=False).tolist()),
        "s": sorted(rng.choice([1.0, 2.0, 4.0, 8.0, 16.0],
                               size=rng.integers(1, 4),
                               replace=False).tolist()),
        "m_weight": float(rng.choice([1.05, 1.1, 2.0])),
        "x0": rng.uniform(-0.5, -0.01, size=dimension).tolist(),
        "background": {"kind": "const",
                       "value": float(rng.uniform(0.5, 3.0))},
        "gamma": gamma,
        "sigma": float(rng.choice([0.0, 1e-3])),
        "seed": int(rng.integers(0, 100)),
    }


def _zero_ratios(path, ref) -> list:
    """(row, "lam=.., s=..") of every ratio of exactly 0 in a written CSV;
    a row without lambda and s columns was made at ref."""
    found = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            term = row.get("term_name", row.get("term"))
            value = (row["value"] if term == "ratio"
                     else row.get("ratio", row.get("max_ratio")))
            if value is not None and float(value) == 0.0:
                lam = row.get("lambda", row.get("lam"))
                cell = ref if lam is None else f"lam={lam}, s={row['s']}"
                found.append((row, cell))
    return found


def _named_cells(err: str) -> set:
    """Every "lam=.., s=.." that a stderr line names, whole: s=1 is not
    named by a line about s=16."""
    return {cell for line in err.splitlines() for cell in _CELL.findall(line)}


def test_named_cells_match_whole_cells(capsys):
    cli._report_underflow("verify-carleman", [(2.0, 16.0, 0.0, 0.0),
                                              (2.0, 1.0, 0.5, 1.0),
                                              (1.5, 4.0, 0.0, 2.0)])
    err = capsys.readouterr().err
    assert "lam=2, s=1" in err
    assert _named_cells(err) == {"lam=2, s=16", "lam=1.5, s=4"}


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_config_exits_cleanly(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "InverseConfig", functools.partial(
        stability.InverseConfig, max_iters=RECON_ITERS))
    config = _config(seed)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    ref = f"lam={fmt(config['lambda'][0])}, s={fmt(config['s'][0])}"
    for command in COMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.run(command, config_path=str(path), plot=False,
                           out=str(tmp_path / command))
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
        if code != cli.EXIT_OK:
            last = err.strip().splitlines()[-1]
            assert last.startswith(("config error:", "numerical failure:")), (
                command, err)
            continue
        named = _named_cells(err)
        for line in out.splitlines():
            written = line.removeprefix("wrote ")
            if written.endswith(".csv"):
                for row, cell in _zero_ratios(written, ref):
                    assert cell in named, (command, written, row, err)
