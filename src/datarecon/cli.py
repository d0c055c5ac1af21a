"""Command-line front end.

Subcommands: ``sample`` (generate posterior draws), ``attack`` (run a
reconstruction and emit trace/measure/summary files), ``verify`` (hermetic
identity suite), ``report`` (relative errors between a measure file and a
dataset file). Run configs are single JSON documents; unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from .attack import AttackConfig, AttackDiverged, check_model_fits, run_attack
from .divergence import PosteriorDraws
from .measures import (
    Layout,
    build_measure,
    load_dataset,
    load_measure,
    recon_statistics,
    save_measure,
    stat_errors,
)
from .models import (
    BayesLinReg,
    GaussianMeanLocation,
    KidScoreModel,
    LogisticLoss,
    LossModel,
    SquaredErrorLoss,
)
from .samplers import SamplerConfig, exact_gaussian_mean_draws, load_draws, rwm_draws, save_draws
from .verification import run_all


# name -> (constructor, the keys it takes); the constructor owns their defaults and checks
MODELS = {
    "gaussian_mean": (GaussianMeanLocation, {"dim"}),
    "bayes_linreg": (BayesLinReg.from_keys, {"x_dim", "degree"}),
    "kidscore": (KidScoreModel, {"prior_scale"}),
    "squared_error": (SquaredErrorLoss.from_keys, {"x_dim", "degree", "ridge"}),
    "logistic": (LogisticLoss, {"dim", "ridge"}),
}


# the sampler and attack keys are their owner's fields and the command line's own
_SECTION_KEYS = {
    "": {"model", "data", "sampler", "attack", "output"},
    "model": {"name"}.union(*(keys for _, keys in MODELS.values())),
    "data": {"path"},
    "sampler": {f.name for f in fields(SamplerConfig)} | {"kind", "path"},
    "attack": {f.name for f in fields(AttackConfig)} | {"theta_star", "trace_target"},
    "output": {"dir"},
}


def _check_keys(section: str, cfg: dict) -> None:
    unknown = set(cfg) - _SECTION_KEYS[section]
    if unknown:
        where = section or "top level"
        raise ValueError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _owned(section: str, owner, settings: dict):
    """``owner(**settings)``: its signature names the keys it takes and needs, and
    it checks each value; its ValueError, which names the key, gains the section."""
    try:
        inspect.signature(owner).bind(**settings)
    except TypeError as exc:
        raise ValueError(f"{section}: {exc}") from None
    try:
        return owner(**settings)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from None


def _vector(section: str, cfg: dict, key: str, length: int) -> tuple[float, ...]:
    value = cfg[key]
    if (not isinstance(value, list) or len(value) != length
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and np.isfinite(v) for v in value)):
        raise ValueError(f"{section}.{key} must be a list of {length} finite numbers, "
                         f"got {value!r}")
    return tuple(float(v) for v in value)


def _path(section: str, cfg: dict, key: str, default=None) -> Path:
    value = cfg.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{section}.{key} must be a path string, got {value!r}")
    return Path(value)


def _out_dir(cfg: dict) -> Path:
    """``output.dir``, checked before any work is done: the nearest part of
    it that exists must be a directory."""
    out = _path("output", cfg.get("output", {}), "dir", ".")
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ValueError(f"output.dir {out} cannot be made: {existing} is not a directory")
    return out


def _finite_or_null(value):
    """``value`` with each non-finite number in it, which JSON cannot hold, as None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return None if value is None or not np.isfinite(value) else value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    _check_keys("", cfg)
    for section in cfg:
        if not isinstance(cfg[section], dict):
            raise ValueError(f"section '{section}' must be an object")
        _check_keys(section, cfg[section])
    return cfg


def build_model(cfg: dict):
    name = cfg.get("name")
    if not isinstance(name, str) or name not in MODELS:
        raise ValueError("model.name is required" if name is None
                         else f"unknown model name: {name!r}")
    owner, keys = MODELS[name]
    foreign = sorted(set(cfg) - keys - {"name"})
    if foreign:
        raise ValueError(f"model {name!r} takes no {', '.join('model.' + k for k in foreign)}"
                         f" (its keys: {sorted(keys)})")
    return _owned("model", owner, {k: v for k, v in cfg.items() if k != "name"})


def _load_data(cfg: dict, model) -> np.ndarray:
    if "data" not in cfg or "path" not in cfg["data"]:
        raise ValueError("data.path is required for this command")
    path = _path("data", cfg["data"], "path")
    if not path.exists():
        raise ValueError(f"data.path not found: {path}")
    points, header = load_dataset(path)
    if points.shape[1] != model.layout.p:
        raise ValueError(f"data.path {path} has {points.shape[1]} columns, "
                         f"model expects {model.layout.p}")
    value = model.layout.frozen_value
    for idx in model.layout.frozen_idx:
        if np.any(points[:, idx] != value):
            raise ValueError(f"data column {header[idx]!r} must be {value:g} in every row: "
                             f"the model holds that coordinate fixed")
    return points


def _get_draws(cfg: dict, model) -> tuple[PosteriorDraws, np.ndarray | None]:
    """The posterior draws, and the data points if the sampler read them."""
    sampler = cfg.get("sampler")
    if sampler is None:
        raise ValueError("sampler section is required")
    kind = sampler.get("kind")
    if kind not in ("file", "exact", "rwm"):
        raise ValueError(f"unknown sampler.kind: {kind!r}")
    settings = {k: v for k, v in sampler.items() if k not in ("kind", "path")}
    if isinstance(model, LossModel):
        raise ValueError(f"model.name {cfg['model']['name']!r} is a loss model: "
                         f"it has no posterior to sample")
    if settings.get("init") is not None:
        settings["init"] = _vector("sampler", sampler, "init", model.param_dim)
        if not model.in_domain(np.array([settings["init"]])).all():
            raise ValueError(f"sampler.init {list(settings['init'])} lies outside the "
                             f"model domain")
    config = _owned("sampler", SamplerConfig, settings)
    if kind == "file":
        path = _path("sampler", sampler, "path")
        if not path.exists():
            raise ValueError(f"sampler.path not found: {path}")
        draws = load_draws(path)
        if draws.dim != model.param_dim:
            raise ValueError(f"sampler.path {path} has {draws.dim} columns, "
                             f"model expects {model.param_dim}")
        try:
            model.check_draws(draws.draws)
        except ValueError as exc:
            raise ValueError(f"sampler.path {path}: {exc}") from None
        return draws, None
    if kind == "exact" and not isinstance(model, GaussianMeanLocation):
        raise ValueError("sampler.kind 'exact' is only available for gaussian_mean")
    if kind == "rwm" and config.init is None:
        raise ValueError("sampler.init is required for sampler.kind 'rwm'")
    X = _load_data(cfg, model)
    if kind == "exact":
        return exact_gaussian_mean_draws(X, config.T, config.seed), X
    try:
        return rwm_draws(model, X, config), X
    except ValueError as exc:
        raise ValueError(f"sampler.{exc}") from None


class _Main(click.Group):
    """Every command reports a bad input, an unreadable file or a size too
    large to allocate as one ``error:`` line and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Training-data reconstruction toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def sample(config_path):
    """Generate posterior draws and write them to a CSV file."""
    cfg = load_config(config_path)
    model = build_model(cfg.get("model", {}))
    out = _out_dir(cfg)
    draws, _ = _get_draws(cfg, model)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "draws.csv"
    save_draws(path, draws)
    msg = f"wrote {draws.T} draws to {path}"
    if draws.acceptance_rate is not None:
        msg += f" (acceptance rate {draws.acceptance_rate:.3f})"
    click.echo(msg)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def attack(config_path):
    """Run a reconstruction attack; emit trace CSV, measure CSV and a JSON
    summary."""
    cfg = load_config(config_path)
    model = build_model(cfg.get("model", {}))
    settings = dict(cfg.get("attack", {}))
    theta_star = settings.pop("theta_star", None)
    trace_target = settings.pop("trace_target", False)
    if not isinstance(trace_target, bool):
        raise ValueError(f"attack.trace_target must be true or false, got {trace_target!r}")
    acfg = _owned("attack", AttackConfig, settings)
    out = _out_dir(cfg)
    try:
        check_model_fits(acfg.objective, model)
    except ValueError as exc:
        raise ValueError(f"attack.{exc}") from None
    if theta_star is not None:
        theta_star = _vector("attack", cfg["attack"], "theta_star", model.param_dim)

    wall = {"sample": None}
    draws = data = None
    if acfg.objective in ("fd", "sfd"):
        t0 = time.perf_counter()
        draws, data = _get_draws(cfg, model)
        wall["sample"] = time.perf_counter() - t0
    elif theta_star is None:
        raise ValueError("attack.theta_star is required for the nonbayes objective")

    target_points = None
    if trace_target:
        target_points = _load_data(cfg, model) if data is None else data

    # run_attack stops at the first non-finite objective, which is reported
    # as one error line after the work done so far is written; numpy's
    # overflow warnings on the way, or in the statistics of the measure it
    # diverged on, would only repeat it
    with np.errstate(all="ignore"):
        t0 = time.perf_counter()
        diverged = None
        try:
            trace, measure = run_attack(model, acfg, draws=draws,
                                        theta_star=theta_star,
                                        target_points=target_points)
        except AttackDiverged as exc:
            diverged, trace, measure = exc, exc.trace, exc.measure
        wall["attack"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        out.mkdir(parents=True, exist_ok=True)
        trace.write_csv(out / "trace.csv")
        save_measure(out / "measure.csv", measure, model.layout)
        stats = recon_statistics(measure, model.layout)
        final = {"total_mass": stats.total_mass, "moments": stats.moments}
        wall["write"] = time.perf_counter() - t0
    if diverged is None:
        status = {"status": "ok"}
        objective, errors = trace.checkpoints[-1].objective, trace.checkpoints[-1].errors
    else:
        status = {"status": "diverged", "diverged_at": diverged.iteration}
        objective = errors = None
    summary = {
        **status,
        "config": cfg,
        "attack": trace.header,
        "draws": None if draws is None else {
            "source": draws.source, "T": draws.T, "acceptance_rate": draws.acceptance_rate},
        "final": _finite_or_null({"objective": objective, **final, "errors": errors}),
        "wall_s": wall,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if diverged is not None:
        click.echo(f"error: {diverged}", err=True)
        sys.exit(3)
    click.echo(f"wrote trace.csv, measure.csv, summary.json to {out}")


@main.command()
@click.option("--filter", "name_filter", default=None,
              help="Run only checks whose name contains this substring.")
def verify(name_filter):
    """Run the hermetic identity and audit suite; exit 1 on any failure."""
    results = run_all(name_filter)
    if not results:
        click.echo(f"no checks match filter {name_filter!r}", err=True)
        sys.exit(2)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        click.echo(f"{status}  {res.name}: {res.detail}")
        failed = failed or not res.passed
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--layout", "layout_path", required=True, type=click.Path())
def report(measure_path, data_path, layout_path):
    """Relative errors between a measure file and a dataset file."""
    with open(layout_path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"layout in {layout_path} must be a JSON object")
    layout = _owned("layout", Layout, raw)
    points, _ = load_dataset(data_path)
    measure = load_measure(measure_path)
    target = recon_statistics(build_measure(points), layout)
    recon = recon_statistics(measure, layout)
    click.echo(json.dumps(stat_errors(target, recon), indent=2))


if __name__ == "__main__":
    main()
