"""Two-sided estimate reports shared by all verifier modules."""

from __future__ import annotations

import math
from dataclasses import dataclass


def fmt(v: float) -> str:
    """Fixed 17-significant-digit formatting for deterministic CSVs."""
    return f"{float(v):.17g}"


@dataclass
class EstimateReport:
    """Named nonnegative terms of both sides of one inequality.

    ratio is 0 when both totals vanish, inf when only the right side
    does; weighted terms are on the normalized e^{-2s(eta-eta_ref)}
    scale recorded in params.
    """

    name: str
    lhs_terms: dict
    rhs_terms: dict
    params: dict

    @classmethod
    def for_weights(cls, name, lhs_terms, rhs_terms, ws, **params):
        """The validated report of one estimate on the weight set ws:
        params records ws's (s, lam, n, eta_ref), then the given ones."""
        return cls(name, lhs_terms, rhs_terms,
                   {"s": ws.s, "lam": ws.lam, "n": ws.grid.n,
                    "eta_ref": ws.eta_ref, **params}).validate()

    @property
    def lhs_total(self) -> float:
        return float(sum(self.lhs_terms.values()))

    @property
    def rhs_total(self) -> float:
        return float(sum(self.rhs_terms.values()))

    @property
    def ratio(self) -> float:
        lhs, rhs = self.lhs_total, self.rhs_total
        if rhs > 0.0:
            return lhs / rhs
        return 0.0 if lhs == 0.0 else math.inf

    def validate(self):
        for label, terms in (("lhs", self.lhs_terms), ("rhs", self.rhs_terms)):
            for key, val in terms.items():
                if not math.isfinite(val):
                    raise ValueError(f"{self.name}: non-finite {label} term {key}")
                if val < 0.0:
                    raise ValueError(
                        f"{self.name}: negative {label} term {key} = {val}"
                    )
        return self

    def rows(self):
        """(term_name, value) pairs in a fixed order, totals and ratio last."""
        out = [(f"lhs_{k}", v) for k, v in self.lhs_terms.items()]
        out += [(f"rhs_{k}", v) for k, v in self.rhs_terms.items()]
        out += [
            ("lhs_total", self.lhs_total),
            ("rhs_total", self.rhs_total),
            ("ratio", self.ratio),
        ]
        return out


def write_csv(path, header, rows):
    """The one CSV writer: a header line, then one line per row.  Text
    and integer cells are written as they are, every other cell through
    fmt."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (str, int)) else fmt(v)
                              for v in row) + "\n")


def report_to_csv(report: EstimateReport, path):
    """Single-row CSV: parameters first, then every named term."""
    keys = list(report.params)
    rows = report.rows()
    header = ["name"] + keys + [name for name, _ in rows]
    values = [report.name] + [report.params[k] for k in keys]
    write_csv(path, header, [values + [v for _, v in rows]])


def carleman_sweep_to_csv(records, path):
    """Long format, one row per (test, s, lambda, term)."""
    write_csv(path, ["test_id", "s", "lambda", "term_name", "value"],
              ((test_id, s, lam, term, value)
               for test_id, s, lam, rep in records
               for term, value in rep.rows()))


def carleman_summary_to_csv(summary, path):
    """summary maps (s, lambda) to the max ratio over the test suite."""
    write_csv(path, ["s", "lambda", "max_ratio"],
              ((s, lam, worst) for (s, lam), worst in summary.items()))


def stability_to_csv(report, path):
    """The weighted and the plain side of a stability.StabilityReport,
    one row per (side, term)."""
    write_csv(path, ["side", "term_name", "value"],
              ((side.name, term, value)
               for side in (report.weighted, report.plain)
               for term, value in side.rows()))
