"""Workload generator: each workload's data CSV and JSON config from a seed.

The program under test receives only the two files written here. The
reference quantities the output checks need (least-squares fit, exact
posterior, released parameters) are computed here with plain numpy, apart
from the program.

Run on its own to write one workload's inputs:

    python3 perfbench/workloads.py --workload linreg_fd --seed 3 --out /tmp/w
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("kidscore_sfd", "linreg_fd", "logistic_nonbayes")

# Attack iterations per `datarecon attack` process, sized so that a process
# takes a few seconds and several fit into one measured window.
KIDSCORE_ITERS = 40
LINREG_ITERS = 60
LOGISTIC_ITERS = 4000

LOGISTIC_RIDGE = 0.5
LOGISTIC_THETA = np.array([1.0, -2.0, 0.5])


@dataclass
class Workload:
    name: str
    seed: int
    config: dict
    points: np.ndarray               # the dataset the program reads
    names: tuple[str, ...]
    ref: dict = field(default_factory=dict)

    @property
    def iters(self) -> int:
        return self.config["attack"]["iters"]

    @property
    def bayesian(self) -> bool:
        return self.config["attack"]["objective"] in ("fd", "sfd")

    def write(self, workdir: Path) -> Path:
        """Write data.csv and config.json into ``workdir``; return the config path."""
        workdir.mkdir(parents=True, exist_ok=True)
        with open(workdir / "data.csv", "w") as fh:
            fh.write(",".join(self.names) + "\n")
            for row in self.points:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        path = workdir / "config.json"
        path.write_text(json.dumps(self.config, indent=2) + "\n")
        return path


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def kidscore_sfd(seed: int) -> Workload:
    """The criterion-6 configuration: kid-score regression on N=100 points,
    RWM with T=1000 (40k proposals), sliced objective at M=50, L=10."""
    rng = _rng(seed, "kidscore_sfd")
    N = 100
    raw = rng.normal(100.0, 15.0, size=N)
    mother = (raw - 70.0) / 15.0
    child = 0.3 + 0.6 * mother + 0.8 * rng.standard_normal(N)
    X = np.column_stack([np.ones(N), mother, child])
    config = {
        "model": {"name": "kidscore", "prior_scale": 2.5},
        "data": {"path": "data.csv"},
        "sampler": {"kind": "rwm", "T": 1000, "thinning": 30, "seed": seed,
                    "init": [0.0, 0.0, 1.0], "step_scale": 0.1},
        "attack": {"objective": "sfd", "M": 50, "iters": KIDSCORE_ITERS,
                   "lr_w": 1e-3, "lr_z": 1e-3, "L": 10, "seed": seed,
                   "trace_every": 10, "trace_target": True},
        "output": {"dir": "out"},
    }
    beta_ols = np.linalg.lstsq(X[:, :2], X[:, 2], rcond=None)[0]
    return Workload("kidscore_sfd", seed, config, X, ("intercept", "r", "u"),
                    {"beta_ols": beta_ols, "prior_scale": 2.5})


def poly_features(s: np.ndarray, degree: int = 3) -> np.ndarray:
    return np.stack([s**r for r in range(degree + 1)], axis=-1)


def linreg_fd(seed: int) -> Workload:
    """Bayesian cubic regression on N=2000 points, RWM with T=1000 (20k
    proposals) and the trace-form objective at M=50."""
    rng = _rng(seed, "linreg_fd")
    N = 2000
    s = rng.uniform(-1.5, 1.5, size=N)
    y = 0.5 - s + 0.3 * s**2 + 0.2 * s**3 + rng.standard_normal(N)
    config = {
        "model": {"name": "bayes_linreg", "degree": 3},
        "data": {"path": "data.csv"},
        "sampler": {"kind": "rwm", "T": 1000, "seed": seed,
                    "init": [0.0, 0.0, 0.0, 0.0], "step_scale": 0.02},
        "attack": {"objective": "fd", "M": 50, "iters": LINREG_ITERS,
                   "lr_w": 1e-3, "lr_z": 1e-3, "seed": seed,
                   "trace_every": 10, "trace_target": True},
        "output": {"dir": "out"},
    }
    psi = poly_features(s)
    precision = np.eye(4) + psi.T @ psi
    cov = np.linalg.inv(precision)
    mean = np.linalg.solve(precision, psi.T @ y)
    return Workload("linreg_fd", seed, config, np.column_stack([s, y]), ("s", "y"),
                    {"post_mean": mean, "post_cov": cov})


def sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def logistic_grad_sum(theta, x, y, w, ridge):
    """2 * ridge * theta + sum_m w_m grad_theta log(1 + exp(-y_m <theta, x_m>))."""
    s = sigmoid(-y * (x @ theta))
    return 2.0 * ridge * theta - x.T @ (w * y * s)


def fit_logistic(x, y, ridge, tol=1e-10, max_steps=50) -> np.ndarray:
    """Newton solve of the ridge-logistic training problem."""
    theta = np.zeros(x.shape[1])
    ones = np.ones(len(y))
    for _ in range(max_steps):
        g = logistic_grad_sum(theta, x, y, ones, ridge)
        if np.linalg.norm(g) <= tol:
            return theta
        s = sigmoid(-y * (x @ theta))
        hess = (x * (s * (1.0 - s))[:, None]).T @ x + 2.0 * ridge * np.eye(x.shape[1])
        theta = theta - np.linalg.solve(hess, g)
    raise RuntimeError(f"Newton solve did not reach gradient norm {tol}")


def logistic_nonbayes(seed: int) -> Workload:
    """Ridge-logistic trained model (N=500, d=3) with its released parameters
    fitted here; the non-Bayesian objective at M=100, checkpoints every 10."""
    rng = _rng(seed, "logistic_nonbayes")
    N, d = 500, 3
    x = rng.standard_normal((N, d))
    y = np.where(rng.random(N) < sigmoid(x @ LOGISTIC_THETA), 1.0, -1.0)
    theta_star = fit_logistic(x, y, LOGISTIC_RIDGE)
    config = {
        "model": {"name": "logistic", "dim": d, "ridge": LOGISTIC_RIDGE},
        "data": {"path": "data.csv"},
        "attack": {"objective": "nonbayes", "M": 100, "iters": LOGISTIC_ITERS,
                   "lr_w": 1e-3, "lr_z": 1e-3, "seed": seed, "trace_every": 10,
                   "theta_star": [float(v) for v in theta_star],
                   "trace_target": True},
        "output": {"dir": "out"},
    }
    return Workload("logistic_nonbayes", seed, config, np.column_stack([x, y]),
                    ("x0", "x1", "x2", "y"),
                    {"theta_star": theta_star, "ridge": LOGISTIC_RIDGE})


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"kidscore_sfd": kidscore_sfd, "linreg_fd": linreg_fd,
            "logistic_nonbayes": logistic_nonbayes}[name](seed)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    print(generate(args.workload, args.seed).write(args.out))
