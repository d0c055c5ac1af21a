"""Weighted empirical data measures and their recoverable statistics.

A reconstruction target is an un-normalised empirical measure: unit weights
on the true training points. The attacker's object is the same structure
with free weights and pseudo-points. Both reduce, for the bundled models,
to a small set of sufficient statistics (total mass, weighted Gram matrix,
weighted cross-moments) which is what the convergence traces track.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Integral
from typing import ClassVar

import numpy as np

from .checks import integer

# Guards division in relative errors; targets in practice are O(1)-O(1e4)
# so this only activates on exact-zero targets.
EPS_DEN = 1e-12


@dataclass(frozen=True)
class Layout:
    """Coordinate schema of a data point.

    ``x_idx`` are the covariate coordinates, ``y_idx`` the response (absent
    for pure-location models). ``frozen_idx`` marks coordinates the attack
    never optimises: intercepts, which every point holds at ``frozen_value``.
    """

    p: int
    x_idx: tuple[int, ...]
    y_idx: int | None = None
    frozen_idx: tuple[int, ...] = ()
    names: tuple[str, ...] | None = None
    frozen_value: ClassVar[float] = 1.0

    def __post_init__(self):
        integer("p", self.p, 1)
        if self.y_idx is not None:
            integer("y_idx", self.y_idx, 0)
        for name, entry, kind in (("x_idx", Integral, "integers"),
                                  ("frozen_idx", Integral, "integers"),
                                  ("names", str, "strings")):
            value = getattr(self, name)
            if value is None and name == "names":
                continue
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, entry) and not isinstance(v, bool) for v in value):
                raise ValueError(f"{name} must be a list of {kind}, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        covered = set(self.x_idx) | ({self.y_idx} if self.y_idx is not None else set())
        if covered != set(range(self.p)):
            raise ValueError(f"x_idx/y_idx must cover exactly 0..{self.p - 1}")
        if self.y_idx is not None and self.y_idx in self.x_idx:
            raise ValueError("y_idx cannot also appear in x_idx")
        if not set(self.frozen_idx) <= set(self.x_idx):
            raise ValueError("frozen coordinates must be part of the x-part")
        if self.names is not None and len(self.names) != self.p:
            raise ValueError("names must have length p")

    @property
    def px(self) -> int:
        return len(self.x_idx)

    @property
    def free_idx(self) -> tuple[int, ...]:
        frozen = set(self.frozen_idx)
        return tuple(i for i in range(self.p) if i not in frozen)

    @property
    def p_free(self) -> int:
        return len(self.free_idx)

    def coord_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"c{i}" for i in range(self.p))


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """Sum of weighted Dirac masses: weights paired with pseudo-data points."""

    weights: np.ndarray  # (M,)
    points: np.ndarray   # (M, p)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def replace(self, weights=None, points=None) -> "WeightedEmpiricalMeasure":
        return WeightedEmpiricalMeasure(
            self.weights if weights is None else weights,
            self.points if points is None else points,
        )


def build_measure(points, weights=None) -> WeightedEmpiricalMeasure:
    """Materialise a weighted empirical measure.

    Omitted weights default to all-ones, so ``build_measure(X)`` is the
    unit-weight measure of a training set.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("measure needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    if weights is None:
        w = np.ones(pts.shape[0])
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if len(w) != pts.shape[0]:
            raise ValueError(
                f"got {len(w)} weights for {pts.shape[0]} points"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
    return WeightedEmpiricalMeasure(w, pts)


@dataclass(frozen=True)
class ReconStats:
    """The statistics of a weighted measure that the bundled models expose.

    ``weighted_gram`` is over the x-part only; ``weighted_xy`` and
    ``weighted_yy`` are absent for layouts without a y coordinate.
    """

    layout: Layout
    total_mass: float
    weighted_sum: np.ndarray          # (p,)  sum_m w_m z_m over all coords
    weighted_gram: np.ndarray         # (px, px)
    weighted_xy: np.ndarray | None    # (px,)
    weighted_yy: float | None

    def moments(self) -> dict[str, float]:
        """Normalised weighted mean and variance per free coordinate, x-part
        first; the second moments are the Gram diagonal and ``weighted_yy``."""
        lay = self.layout
        names = lay.coord_names()
        den = self.total_mass if abs(self.total_mass) > EPS_DEN else EPS_DEN
        second = [(i, self.weighted_gram[k, k]) for k, i in enumerate(lay.x_idx)
                  if i not in lay.frozen_idx]
        if lay.y_idx is not None:
            second.append((lay.y_idx, self.weighted_yy))
        out: dict[str, float] = {}
        for i, sq in second:
            mean = self.weighted_sum[i] / den
            out[f"mean_{names[i]}"] = mean
            out[f"var_{names[i]}"] = sq / den - mean**2
        return out

    def columns(self) -> list[tuple[str, float]]:
        """One ``trace.csv`` row's named statistics: total mass, the moments,
        the Gram upper triangle, then ``xy_i`` and ``yy`` if there is a y."""
        px = self.layout.px
        cols = [("total_mass", self.total_mass), *self.moments().items()]
        cols += [(f"gram_{i}_{j}", self.weighted_gram[i, j])
                 for i in range(px) for j in range(i, px)]
        if self.layout.y_idx is not None:
            cols += [(f"xy_{i}", v) for i, v in enumerate(self.weighted_xy)]
            cols.append(("yy", self.weighted_yy))
        return cols


def recon_statistics(measure: WeightedEmpiricalMeasure, layout: Layout) -> ReconStats:
    """Extract total mass, weighted Gram and cross-moments of a measure."""
    if measure.dim != layout.p:
        raise ValueError(
            f"layout expects dimension {layout.p}, points have {measure.dim}"
        )
    w = measure.weights
    pts = measure.points
    x = pts[:, list(layout.x_idx)]
    total_mass = float(np.sum(w))
    weighted_sum = pts.T @ w
    gram = (x * w[:, None]).T @ x
    if layout.y_idx is not None:
        u = pts[:, layout.y_idx]
        xy = x.T @ (w * u)
        yy = float(np.sum(w * u**2))
    else:
        xy = None
        yy = None
    return ReconStats(layout, total_mass, weighted_sum, gram, xy, yy)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), EPS_DEN)


def stat_errors(target: ReconStats, recon: ReconStats) -> dict[str, float]:
    """Per-statistic relative errors |a-b| / max(|a|, eps).

    Includes the normalised mean/variance comparisons derived from the raw
    statistics (the quantities the convergence plots track).
    """
    if target.layout != recon.layout:
        raise ValueError("statistics computed under different layouts")
    errs: dict[str, float] = {"total_mass": _rel(target.total_mass, recon.total_mass)}
    for name in ("weighted_sum", "weighted_gram", "weighted_xy"):
        a, b = getattr(target, name), getattr(recon, name)
        if a is not None:
            errs[name] = max(map(_rel, a.ravel().tolist(), b.ravel().tolist()))
    if target.weighted_yy is not None:
        errs["weighted_yy"] = _rel(target.weighted_yy, recon.weighted_yy)
    tm = target.moments()
    rm = recon.moments()
    for key in tm:
        errs[key] = _rel(tm[key], rm[key])
    return errs


# --- CSV I/O ---------------------------------------------------------------

def load_dataset(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Load a dataset CSV (header row naming coordinates, one point per row)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} columns, expected {len(header)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: row {lineno} contains a non-numeric value") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {lineno} contains a non-finite value")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows), tuple(header)


def write_rows(path, header, rows) -> None:
    """Write a header row, then rows of numbers at 17 significant digits, so
    float64 values read back bitwise. Every CSV the package writes goes
    through here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def save_measure(path, measure: WeightedEmpiricalMeasure, layout: Layout) -> None:
    """Measure CSV: weight column followed by the point coordinates."""
    write_rows(path, ("weight",) + layout.coord_names(),
               np.column_stack([measure.weights, measure.points]))


def load_measure(path) -> WeightedEmpiricalMeasure:
    data, header = load_dataset(path)
    if header[0] != "weight":
        raise ValueError(f"{path}: first column must be 'weight'")
    return build_measure(data[:, 1:], data[:, 0])
