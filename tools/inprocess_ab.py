"""Time the attack loop of the working tree against a git revision, in one process.

    python3 tools/inprocess_ab.py [--against REF] [--workload kidscore_sfd] [--runs 30]

REF (default HEAD) is exported with ``git archive``. Both trees' ``datarecon``
packages are imported into this process under different names, so the two
sides share one interpreter, one numpy and one machine state. Each side reads
the workload's config from ``perfbench/workloads.py`` at seed 21, samples its
posterior draws once, then the two sides take turns, the side that goes first
alternating from run to run. One run of a side times

- ``run_attack`` on the workload's config (iterations per second);
- ``draw_slices`` at the run's (T, L, d), per call (sfd workloads);
- the model's features and their Jacobian at the attack's initial measure,
  per call (fd and sfd workloads): ``phi_and_jac`` where the tree has it,
  else ``phi`` and ``phi_jac``.

It prints, per figure, each side's median and quartiles over the runs and
how many paired runs the working tree won. BLAS runs on one thread.

Each side is set up through ``datarecon.cli``'s config helpers as the
``attack`` command uses them (``load_config``, ``build_model``,
``_get_draws(cfg, model)``, ``_load_data(cfg, model)``), so REF must have
those with these signatures: commit f973e6a and later do.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from same_outputs import export  # noqa: E402

import workloads  # noqa: E402  (same_outputs put perfbench/ on the path)

SEED = 21
SLICE_CALLS = 200
FEATURE_CALLS = 500


def load_package(alias: str, src: Path):
    """The ``datarecon`` package under ``src``, imported as ``alias``."""
    pkg = src / "datarecon"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's package, set up on one workload: model, draws and config."""

    def __init__(self, alias: str, src: Path, wl, workdir: Path):
        load_package(alias, src)
        self.cli = importlib.import_module(f"{alias}.cli")
        self.attack = importlib.import_module(f"{alias}.attack")
        cfg = self.cli.load_config(wl.write(workdir))
        cfg["data"]["path"] = str(workdir / cfg["data"]["path"])
        self.model = self.cli.build_model(cfg["model"])
        settings = dict(cfg["attack"])
        theta_star = settings.pop("theta_star", None)
        settings.pop("trace_target", None)
        self.config = self.attack.AttackConfig(**settings)
        self.draws = self.target = None
        if wl.bayesian:
            self.draws, self.target = self.cli._get_draws(cfg, self.model)
        else:
            self.target = self.cli._load_data(cfg, self.model)
        self.theta_star = theta_star
        self.points = self.attack.initialize_pseudo(
            self.model, self.config, draws=self.draws, theta_star=theta_star).points

    def iters_per_s(self) -> float:
        t0 = time.perf_counter()
        self.attack.run_attack(self.model, self.config, draws=self.draws,
                               theta_star=self.theta_star, target_points=self.target)
        return self.config.iters / (time.perf_counter() - t0)

    def draw_slices_us(self) -> float:
        rng = np.random.default_rng(self.config.seed)
        args = (self.draws.T, self.config.L, self.model.param_dim)
        t0 = time.perf_counter()
        for _ in range(SLICE_CALLS):
            self.attack.draw_slices(rng, *args)
        return (time.perf_counter() - t0) / SLICE_CALLS * 1e6

    def features_us(self) -> float:
        model, points = self.model, self.points
        both = getattr(model, "phi_and_jac", None)
        call = ((lambda: both(points, True)) if both is not None
                else (lambda: (model.phi(points), model.phi_jac(points))))
        t0 = time.perf_counter()
        for _ in range(FEATURE_CALLS):
            call()
        return (time.perf_counter() - t0) / FEATURE_CALLS * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", default="HEAD", help="git revision to compare with")
    ap.add_argument("--workload", default="kidscore_sfd", choices=workloads.WORKLOADS)
    ap.add_argument("--runs", type=int, default=30, help="runs per side")
    args = ap.parse_args()
    wl = workloads.generate(args.workload, SEED)
    figures = [("run_attack iter/s", "iters_per_s", True)]
    if wl.bayesian:
        figures.append(("features us/call", "features_us", False))
    if wl.config["attack"]["objective"] == "sfd":
        figures.append(("draw_slices us/call", "draw_slices_us", False))

    with tempfile.TemporaryDirectory(prefix="inprocess_ab_") as tmp:
        ref_tree = Path(tmp) / "ref"
        export(args.against, ref_tree)
        sides = {"ref": Side("datarecon_ref", ref_tree / "src", wl, Path(tmp) / "ref_run"),
                 "work": Side("datarecon_work", ROOT / "src", wl, Path(tmp) / "work_run")}
        found = {name: {side: [] for side in sides} for _, name, _ in figures}
        for run in range(args.runs):
            order = ("ref", "work") if run % 2 == 0 else ("work", "ref")
            for side in order:
                for _, name, _ in figures:
                    found[name][side].append(getattr(sides[side], name)())

    print(f"{args.workload} seed {SEED}, {args.runs} runs per side, "
          f"{sides['work'].config.iters} iterations per run, against {args.against}")
    for label, name, higher in figures:
        ref, work = (np.array(found[name][side]) for side in ("ref", "work"))
        won = int(np.sum(work > ref if higher else work < ref))
        for side, values in (("ref", ref), ("work", work)):
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            print(f"  {label:22s} {side:4s} median {med:10.1f}  quartiles {q1:10.1f} {q3:10.1f}")
        print(f"  {label:22s} work/ref median {np.median(work) / np.median(ref):.3f}, "
              f"work better in {won}/{args.runs} paired runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
