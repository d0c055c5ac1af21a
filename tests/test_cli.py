import json

import numpy as np
import pytest
from click.testing import CliRunner

from datarecon.cli import main
from datarecon.measures import Layout, build_measure, save_dataset, save_measure
from datarecon.samplers import load_draws


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _gaussian_dataset(tmp_path, seed=0, n=6, d=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) + 0.5
    data_path = tmp_path / "data.csv"
    save_dataset(data_path, X, tuple(f"c{i}" for i in range(d)))
    return X, str(data_path)


class TestSampleCommand:
    def test_exact_sampler_writes_draws(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path)
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "gaussian_mean", "dim": 2},
            "data": {"path": data_path},
            "sampler": {"kind": "exact", "T": 30, "seed": 1},
            "output": {"dir": str(tmp_path / "out")},
        })
        result = runner.invoke(main, ["sample", "--config", cfg])
        assert result.exit_code == 0, result.output
        draws = load_draws(tmp_path / "out" / "draws.csv")
        assert draws.T == 30 and draws.dim == 2

    def test_rwm_reports_acceptance_rate(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=2, d=1)
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "gaussian_mean", "dim": 1},
            "data": {"path": data_path},
            "sampler": {"kind": "rwm", "T": 20, "burn_in": 20, "seed": 3,
                        "init": [0.0], "step_scale": 0.5},
            "output": {"dir": str(tmp_path / "out")},
        })
        result = runner.invoke(main, ["sample", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert "acceptance rate" in result.output

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "gaussian_mean", "dimension": 2},
        })
        result = runner.invoke(main, ["sample", "--config", cfg])
        assert result.exit_code == 2
        assert "dimension" in result.output

    def test_missing_config_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_unknown_model_exits_2(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path)
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "mystery"},
            "data": {"path": data_path},
            "sampler": {"kind": "exact", "T": 5},
        })
        result = runner.invoke(main, ["sample", "--config", cfg])
        assert result.exit_code == 2
        assert "mystery" in result.output


class TestAttackCommand:
    def _attack_cfg(self, tmp_path, data_path, seed=4):
        return {
            "model": {"name": "gaussian_mean", "dim": 2},
            "data": {"path": data_path},
            "sampler": {"kind": "exact", "T": 40, "seed": 5},
            "attack": {"objective": "sfd", "M": 3, "iters": 30, "L": 4,
                       "seed": seed, "trace_every": 10, "trace_target": True},
            "output": {"dir": str(tmp_path / "out")},
        }

    def test_emits_three_artifacts(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=6)
        cfg = _write_config(tmp_path / "cfg.json", self._attack_cfg(tmp_path, data_path))
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "measure.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["attack"]["objective"] == "sfd"
        assert summary["attack"]["adam_beta1"] == 0.9
        assert "objective" in summary["final"]
        assert "total_mass" in summary["final"]
        assert "total_mass" in summary["final"]["errors"]

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=7)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        texts = []
        for run in range(2):
            cfg_dict["output"] = {"dir": str(tmp_path / f"out{run}")}
            cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
            result = runner.invoke(main, ["attack", "--config", cfg])
            assert result.exit_code == 0, result.output
            texts.append((
                (tmp_path / f"out{run}" / "trace.csv").read_bytes(),
                (tmp_path / f"out{run}" / "measure.csv").read_bytes(),
            ))
        assert texts[0] == texts[1]

    def test_recon_seed_env_overrides(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=8)
        cfg_dict = self._attack_cfg(tmp_path, data_path, seed=4)
        outputs = {}
        for label, env in (("base", {}), ("override", {"RECON_SEED": "99"})):
            cfg_dict["output"] = {"dir": str(tmp_path / label)}
            cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
            result = runner.invoke(main, ["attack", "--config", cfg], env=env)
            assert result.exit_code == 0, result.output
            summary = json.loads((tmp_path / label / "summary.json").read_text())
            outputs[label] = summary
        assert outputs["base"]["attack"]["seed"] == 4
        assert outputs["override"]["attack"]["seed"] == 99

    def test_nonbayes_requires_theta_star(self, runner, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "squared_error", "x_dim": 1, "ridge": 0.1},
            "attack": {"objective": "nonbayes", "M": 2, "iters": 5},
            "output": {"dir": str(tmp_path / "out")},
        })
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 2
        assert "theta_star" in result.output

    def test_nonbayes_runs_without_sampler(self, runner, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "squared_error", "x_dim": 1, "ridge": 0.1},
            "attack": {"objective": "nonbayes", "M": 2, "iters": 20,
                       "theta_star": [0.3, -0.2], "seed": 9},
            "output": {"dir": str(tmp_path / "out")},
        })
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "measure.csv").exists()


class TestVerifyCommand:
    def test_filtered_check_passes(self, runner):
        result = runner.invoke(main, ["verify", "--filter", "fd_mmd"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_no_match_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--filter", "zzz_no_such"])
        assert result.exit_code == 2


class TestReportCommand:
    def test_matching_measure_reports_zero_errors(self, runner, tmp_path):
        X, data_path = _gaussian_dataset(tmp_path, seed=10, d=2)
        layout = Layout(p=2, x_idx=(0, 1))
        measure_path = tmp_path / "measure.csv"
        save_measure(measure_path, build_measure(X), layout)
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({"p": 2, "x_idx": [0, 1]}))
        result = runner.invoke(main, [
            "report", "--measure", str(measure_path),
            "--data", data_path, "--layout", str(layout_path)])
        assert result.exit_code == 0, result.output
        errs = json.loads(result.output)
        assert all(v == 0.0 for v in errs.values())

    def test_mass_error_reported(self, runner, tmp_path):
        X, data_path = _gaussian_dataset(tmp_path, seed=11, d=1, n=4)
        layout = Layout(p=1, x_idx=(0,))
        measure_path = tmp_path / "measure.csv"
        save_measure(measure_path, build_measure(X, 2.0 * np.ones(4)), layout)
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({"p": 1, "x_idx": [0]}))
        result = runner.invoke(main, [
            "report", "--measure", str(measure_path),
            "--data", data_path, "--layout", str(layout_path)])
        errs = json.loads(result.output)
        assert errs["total_mass"] == pytest.approx(1.0)

    def test_bad_layout_key_exits_2(self, runner, tmp_path):
        X, data_path = _gaussian_dataset(tmp_path, seed=12, d=1)
        measure_path = tmp_path / "measure.csv"
        save_measure(measure_path, build_measure(X), Layout(p=1, x_idx=(0,)))
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({"p": 1, "x_idx": [0], "oops": 1}))
        result = runner.invoke(main, [
            "report", "--measure", str(measure_path),
            "--data", data_path, "--layout", str(layout_path)])
        assert result.exit_code == 2


def _bayes_cfg(tmp_path, data_path):
    return {
        "model": {"name": "gaussian_mean", "dim": 2},
        "data": {"path": data_path},
        "sampler": {"kind": "rwm", "T": 10, "burn_in": 10, "seed": 1, "init": [0.0, 0.0]},
        "attack": {"objective": "sfd", "M": 3, "iters": 5, "L": 2, "seed": 2},
        "output": {"dir": str(tmp_path / "out")},
    }


def _nonbayes_cfg(tmp_path, data_path):
    return {
        "model": {"name": "logistic", "dim": 1, "ridge": 0.1},
        "data": {"path": data_path},
        "sampler": {"kind": "rwm", "T": 10, "burn_in": 10, "seed": 1, "init": [0.0]},
        "attack": {"objective": "nonbayes", "M": 3, "iters": 5, "seed": 2,
                   "theta_star": [0.5]},
        "output": {"dir": str(tmp_path / "out")},
    }


# (case id, base config, section, key, bad value)
BAD_ATTACK_INPUTS = [
    ("M_string", _bayes_cfg, "attack", "M", "5"),
    ("M_float", _bayes_cfg, "attack", "M", 2.5),
    ("iters_bool", _nonbayes_cfg, "attack", "iters", True),
    ("L_float", _bayes_cfg, "attack", "L", 2.0),
    ("trace_every_string", _nonbayes_cfg, "attack", "trace_every", "10"),
    ("seed_bool", _bayes_cfg, "attack", "seed", False),
    ("sampler_T_string", _bayes_cfg, "sampler", "T", "10"),
    ("sampler_burn_in_float", _bayes_cfg, "sampler", "burn_in", 2.5),
    ("model_dim_string", _bayes_cfg, "model", "dim", "2"),
    ("lr_w_nan", _nonbayes_cfg, "attack", "lr_w", float("nan")),
    ("lr_z_infinite", _bayes_cfg, "attack", "lr_z", float("inf")),
    ("lr_w_negative", _bayes_cfg, "attack", "lr_w", -1e-3),
    ("step_scale_nan", _bayes_cfg, "sampler", "step_scale", float("nan")),
    ("loss_model_with_fd", _nonbayes_cfg, "attack", "objective", "fd"),
    ("loss_model_with_sfd", _nonbayes_cfg, "model", "name", "squared_error"),
    ("likelihood_model_with_nonbayes", _bayes_cfg, "attack", "objective", "nonbayes"),
    ("theta_star_too_short", _nonbayes_cfg, "attack", "theta_star", []),
    ("theta_star_too_long", _nonbayes_cfg, "attack", "theta_star", [0.5, 1.0]),
    ("theta_star_not_numbers", _nonbayes_cfg, "attack", "theta_star", ["a"]),
    ("sampler_init_wrong_length", _bayes_cfg, "sampler", "init", [0.0]),
]


class TestAttackConfigErrors:
    @pytest.mark.parametrize("case,base,section,key,value", BAD_ATTACK_INPUTS,
                             ids=[c[0] for c in BAD_ATTACK_INPUTS])
    def test_bad_input_is_one_line_error_with_exit_2(self, runner, tmp_path, case, base,
                                                     section, key, value):
        _, data_path = _gaussian_dataset(tmp_path, seed=13)
        cfg_dict = base(tmp_path, data_path)
        cfg_dict[section][key] = value
        if case == "loss_model_with_sfd":
            cfg_dict["attack"]["objective"] = "sfd"
        if case == "likelihood_model_with_nonbayes":
            cfg_dict["attack"]["theta_star"] = [0.0, 0.0]
        cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out" / "trace.csv").exists()
