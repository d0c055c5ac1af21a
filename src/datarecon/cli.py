"""Command-line front end.

Subcommands: ``sample`` (generate posterior draws), ``attack`` (run a
reconstruction and emit trace/measure/summary files), ``verify`` (hermetic
identity suite), ``report`` (relative errors between a measure file and a
dataset file). Run configs are single JSON documents; unknown keys are
rejected so typos fail loudly. The environment variable ``RECON_SEED``
overrides all config seeds.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .attack import AttackConfig, run_attack
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


class ConfigError(Exception):
    pass


_SECTION_KEYS = {
    "": {"model", "data", "sampler", "attack", "output"},
    "model": {"name", "dim", "x_dim", "degree", "prior_scale", "ridge"},
    "data": {"path"},
    "sampler": {"kind", "path", "T", "burn_in", "thinning", "step_scale", "seed", "init"},
    "attack": {"objective", "M", "iters", "lr_w", "lr_z", "L", "seed",
               "trace_every", "theta_star", "trace_target"},
    "output": {"dir"},
}


def _check_keys(section: str, cfg: dict) -> None:
    unknown = set(cfg) - _SECTION_KEYS[section]
    if unknown:
        where = section or "top level"
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _int(section: str, cfg: dict, key: str, default, minimum: int) -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}, got {value}")
    return value


def _number(section: str, cfg: dict, key: str, default, positive=True) -> float:
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value) or value < 0 or (positive and value == 0)):
        kind = "positive" if positive else "non-negative"
        raise ConfigError(f"{section}.{key} must be a finite {kind} number, got {value!r}")
    return float(value)


def _vector(section: str, cfg: dict, key: str, length: int) -> tuple[float, ...]:
    value = cfg[key]
    if (not isinstance(value, list) or len(value) != length
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and np.isfinite(v) for v in value)):
        raise ConfigError(f"{section}.{key} must be a list of {length} finite numbers, "
                          f"got {value!r}")
    return tuple(float(v) for v in value)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check_keys("", cfg)
    for section in cfg:
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"section '{section}' must be an object")
        _check_keys(section, cfg[section])
    seed_override = os.environ.get("RECON_SEED")
    if seed_override is not None:
        try:
            seed = int(seed_override)
        except ValueError:
            raise ConfigError("RECON_SEED must be an integer") from None
        for section in ("sampler", "attack"):
            if section in cfg:
                cfg[section]["seed"] = seed
    return cfg


def build_model(cfg: dict):
    if "name" not in cfg:
        raise ConfigError("model.name is required")
    name = cfg["name"]
    if name == "gaussian_mean":
        return GaussianMeanLocation(_int("model", cfg, "dim", 1, 1))
    if name == "bayes_linreg":
        if "degree" in cfg:
            return BayesLinReg.polynomial(_int("model", cfg, "degree", 1, 1))
        return BayesLinReg.identity_with_intercept(_int("model", cfg, "x_dim", 1, 1))
    if name == "kidscore":
        return KidScoreModel(_number("model", cfg, "prior_scale", 2.5))
    if name == "squared_error":
        ridge = _number("model", cfg, "ridge", 0.0, positive=False)
        if "degree" in cfg:
            return SquaredErrorLoss.polynomial(_int("model", cfg, "degree", 1, 1), ridge)
        return SquaredErrorLoss.identity_with_intercept(
            _int("model", cfg, "x_dim", 1, 1), ridge)
    if name == "logistic":
        return LogisticLoss(_int("model", cfg, "dim", 1, 1),
                            _number("model", cfg, "ridge", 0.0, positive=False))
    raise ConfigError(f"unknown model name: {name!r}")


def _load_data(cfg: dict, model) -> np.ndarray:
    if "data" not in cfg or "path" not in cfg["data"]:
        raise ConfigError("data.path is required for this command")
    path = cfg["data"]["path"]
    if not Path(path).exists():
        raise ConfigError(f"data file not found: {path}")
    points, _ = load_dataset(path)
    if points.shape[1] != model.layout.p:
        raise ConfigError(
            f"data has {points.shape[1]} coordinates, model expects {model.layout.p}")
    return points


def _get_draws(cfg: dict, model) -> PosteriorDraws:
    sampler = cfg.get("sampler")
    if sampler is None:
        raise ConfigError("sampler section is required")
    kind = sampler.get("kind")
    if kind == "file":
        path = sampler.get("path")
        if path is None or not Path(path).exists():
            raise ConfigError(f"sampler.path missing or not found: {path}")
        draws = load_draws(path)
        if draws.dim != model.param_dim:
            raise ConfigError(
                f"draws have {draws.dim} columns, model expects {model.param_dim}")
        return draws
    X = _load_data(cfg, model)
    T = _int("sampler", sampler, "T", 1000, 1)
    seed = _int("sampler", sampler, "seed", 0, 0)
    if kind == "exact":
        if not isinstance(model, GaussianMeanLocation):
            raise ConfigError("exact sampling is only available for gaussian_mean")
        return exact_gaussian_mean_draws(X, T, seed)
    if kind == "rwm":
        if sampler.get("init") is None:
            raise ConfigError("sampler.init is required for rwm")
        burn_in = sampler.get("burn_in")
        sc = SamplerConfig(
            T=T,
            burn_in=None if burn_in is None else _int("sampler", sampler, "burn_in", 0, 0),
            thinning=_int("sampler", sampler, "thinning", 10, 0),
            step_scale=_number("sampler", sampler, "step_scale", 0.1),
            seed=seed,
            init=_vector("sampler", sampler, "init", model.param_dim),
        )
        return rwm_draws(model, X, sc)
    raise ConfigError(f"unknown sampler.kind: {kind!r}")


def _outdir(cfg: dict) -> Path:
    out = Path(cfg.get("output", {}).get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
def main():
    """Training-data reconstruction toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def sample(config_path):
    """Generate posterior draws and write them to a CSV file."""
    try:
        cfg = load_config(config_path)
        model = build_model(cfg.get("model", {}))
        draws = _get_draws(cfg, model)
        out = _outdir(cfg)
        path = out / "draws.csv"
        save_draws(path, draws)
        msg = f"wrote {draws.T} draws to {path}"
        if draws.acceptance_rate is not None:
            msg += f" (acceptance rate {draws.acceptance_rate:.3f})"
        click.echo(msg)
    except (ConfigError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def attack(config_path):
    """Run a reconstruction attack; emit trace CSV, measure CSV and a JSON
    summary."""
    try:
        cfg = load_config(config_path)
        model = build_model(cfg.get("model", {}))
        acfg_raw = dict(cfg.get("attack", {}))
        missing = [k for k in ("objective", "M", "iters") if k not in acfg_raw]
        if missing:
            raise ConfigError(f"attack section is missing {missing}")
        theta_star = acfg_raw.pop("theta_star", None)
        trace_target = acfg_raw.pop("trace_target", False)
        acfg = AttackConfig(**acfg_raw)
        if isinstance(model, LossModel) != (acfg.objective == "nonbayes"):
            kind = "loss" if isinstance(model, LossModel) else "likelihood"
            raise ConfigError(f"objective {acfg.objective!r} does not apply to the "
                              f"{kind} model {cfg['model']['name']!r}")

        draws = None
        if acfg.objective in ("fd", "sfd"):
            draws = _get_draws(cfg, model)
        elif theta_star is None:
            raise ConfigError("attack.theta_star is required for the nonbayes objective")
        else:
            theta_star = _vector("attack", cfg["attack"], "theta_star", model.param_dim)

        target_points = None
        if trace_target:
            target_points = _load_data(cfg, model)

        trace, measure = run_attack(model, acfg, draws=draws,
                                    theta_star=theta_star,
                                    target_points=target_points)
        out = _outdir(cfg)
        trace.write_csv(out / "trace.csv")
        save_measure(out / "measure.csv", measure, model.layout)
        stats = recon_statistics(measure, model.layout)
        summary = {
            "config": cfg,
            "attack": trace.header,
            "final": {
                "objective": trace.checkpoints[-1].objective,
                "total_mass": stats.total_mass,
                "moments": stats.moments(),
                "errors": trace.checkpoints[-1].errors,
            },
        }
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        click.echo(f"wrote trace.csv, measure.csv, summary.json to {out}")
    except (ConfigError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


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
    try:
        with open(layout_path) as fh:
            raw = json.load(fh)
        allowed = {"p", "x_idx", "y_idx", "frozen_idx", "frozen_values", "names"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown layout key(s): {sorted(unknown)}")
        layout = Layout(
            p=int(raw["p"]),
            x_idx=tuple(raw["x_idx"]),
            y_idx=raw.get("y_idx"),
            frozen_idx=tuple(raw.get("frozen_idx", ())),
            frozen_values=tuple(raw.get("frozen_values", ())),
            names=tuple(raw["names"]) if "names" in raw else None,
        )
        points, _ = load_dataset(data_path)
        measure = load_measure(measure_path)
        target = recon_statistics(build_measure(points), layout)
        recon = recon_statistics(measure, layout)
        errs = stat_errors(target, recon)
        click.echo(json.dumps(errs, indent=2))
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
