import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datarecon import cli
from datarecon.cli import _SECTION_KEYS, main
from datarecon.measures import (
    Layout,
    build_measure,
    load_dataset,
    load_measure,
    save_measure,
    write_rows,
)
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
    write_rows(data_path, tuple(f"c{i}" for i in range(d)), X)
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

    def test_slice_count_beyond_memory_runs(self, runner, tmp_path):
        # the slice draw takes the same variates whatever L is, so L = 10**9
        # (a (T, L, d) array of 596 GiB) runs like L = 4
        _, data_path = _gaussian_dataset(tmp_path, seed=6)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        cfg_dict["attack"]["L"] = 10**9
        result = runner.invoke(main, ["attack", "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["attack"]["L"] == 10**9

    def test_slice_count_near_float_max_runs(self, runner, tmp_path):
        # an integer L just inside float range is divided out of the pair
        # sums before they meet the Hessian table, so nothing overflows
        _, data_path = _gaussian_dataset(tmp_path, seed=6)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        cfg_dict["attack"]["L"] = 10**308
        result = runner.invoke(main, ["attack", "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 0, result.output

    def test_summary_reports_status_draws_and_wall_times(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=10, d=1)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        cfg_dict["model"]["dim"] = 1
        cfg_dict["sampler"] = {"kind": "rwm", "T": 20, "burn_in": 20, "seed": 3,
                               "init": [0.0], "step_scale": 0.5}
        cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["draws"]["source"] == "rwm"
        assert summary["draws"]["T"] == 20
        assert 0.0 < summary["draws"]["acceptance_rate"] < 1.0
        assert set(summary["wall_s"]) == {"sample", "attack", "write"}
        assert all(v >= 0.0 for v in summary["wall_s"].values())

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

    def test_diverged_attack_exits_3(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=6)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        cfg_dict["attack"].update(lr_w=1e200, lr_z=1e200)
        cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "non-finite" in lines[0]
        # the work done before the divergence is written out
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "diverged"
        assert summary["diverged_at"] >= 1
        assert f"iteration {summary['diverged_at']}" in lines[0]
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) >= 2 and rows[1].startswith("0,")
        measure = load_measure(out / "measure.csv")
        assert measure.points.shape == (3, 2)
        assert np.isfinite(measure.weights).all() and np.isfinite(measure.points).all()
        assert summary["final"]["total_mass"] == pytest.approx(measure.weights.sum())

    def test_divergence_at_the_last_step_exits_3(self, runner, tmp_path):
        # one Adam step of 1e200 makes the final objective non-finite; it is
        # checked like every other and reported without numpy warnings
        _, data_path = _gaussian_dataset(tmp_path, seed=6)
        cfg_dict = self._attack_cfg(tmp_path, data_path)
        cfg_dict["sampler"]["T"] = 50
        cfg_dict["attack"] = {"objective": "sfd", "M": 3, "iters": 1, "L": 2, "seed": 4,
                              "lr_w": 1e200, "lr_z": 1e200}
        cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 3, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert lines == ["error: objective became non-finite at iteration 1"]
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "diverged" and summary["diverged_at"] == 1
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")
        measure = load_measure(out / "measure.csv")
        assert np.all(measure.weights == 1.0)
        initial = np.random.default_rng([4, 0]).standard_normal((3, 2))
        np.testing.assert_array_equal(measure.points, initial)

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
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["draws"] is None and summary["wall_s"]["sample"] is None

    def test_logistic_nonbayes_attack(self, runner, tmp_path):
        # the one tier-1 attack on a logistic loss; its initial labels come
        # from LossModel.predict_mean
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 2))
        y = np.where(x @ [1.0, -1.0] + 0.5 * rng.standard_normal(30) > 0, 1.0, -1.0)
        write_rows(tmp_path / "data.csv", ("x0", "x1", "y"), np.column_stack([x, y]))
        cfg_dict = {
            "model": {"name": "logistic", "dim": 2, "ridge": 0.5},
            "data": {"path": str(tmp_path / "data.csv")},
            "attack": {"objective": "nonbayes", "M": 10, "iters": 300, "lr_w": 1e-2,
                       "lr_z": 1e-2, "seed": 3, "trace_every": 50,
                       "theta_star": [0.6, -0.6], "trace_target": True},
        }
        outputs = []
        for run in range(2):
            cfg_dict["output"] = {"dir": str(tmp_path / f"out{run}")}
            cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
            result = runner.invoke(main, ["attack", "--config", cfg])
            assert result.exit_code == 0, result.output
            outputs.append(tuple((tmp_path / f"out{run}" / name).read_bytes()
                                 for name in ("trace.csv", "measure.csv")))
        assert outputs[0] == outputs[1]
        header, *rows = outputs[0][0].decode().splitlines()
        cols = header.split(",")
        assert {"xy_0", "xy_1", "yy", "err_weighted_xy", "err_weighted_yy"} <= set(cols)
        objective = [float(row.split(",")[cols.index("objective")]) for row in rows]
        assert len(objective) == 7 and objective[-1] < objective[0]


class TestVerifyCommand:
    def test_filtered_check_passes(self, runner):
        result = runner.invoke(main, ["verify", "--filter", "fd_mmd"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_full_suite_lists_9_passing_checks(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 9 and all(line.startswith("PASS  ") for line in lines)
        assert any("sfd_slice_table_matches_per_draw" in line for line in lines)
        assert any("sfd_equals_fd_at_axis_slices" in line for line in lines)
        for name in ("sfd_matches_fd_ibp:", "ibp_constant_consistency:"):
            assert any(name in line and "paired se" in line for line in lines), name

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
        for layout in ({"p": 1, "x_idx": [0], "oops": 1}, {"p": 1, "x_idx": 0},
                       {"p": 2.7, "x_idx": [0, 1]}, {"x_idx": [0]}, [1],
                       {"p": 1, "x_idx": [0], "frozen_idx": [0], "frozen_values": [1.0]}):
            layout_path.write_text(json.dumps(layout))
            result = runner.invoke(main, [
                "report", "--measure", str(measure_path),
                "--data", data_path, "--layout", str(layout_path)])
            assert result.exit_code == 2, (layout, result.output)
            assert "Traceback" not in result.output
            lines = result.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


def _with_blank_line(text):
    lines = text.splitlines()
    return "\n".join(lines[:2] + [""] + lines[2:]) + "\n"


# (case, layout edit, data CSV edit, measure CSV edit, expected error text);
# no error text: the edited inputs report exactly what the unedited ones do
BAD_REPORT_INPUTS = [
    ("y_idx_in_x_idx", {"y_idx": 1}, None, None, "y_idx cannot also appear in x_idx"),
    ("names_wrong_length", {"names": ["a"]}, None, None, "names must have length p"),
    ("measure_first_column_not_weight", {}, None, lambda t: t.replace("weight", "mass", 1),
     "first column must be 'weight'"),
    ("data_header_without_rows", {}, lambda t: t.splitlines()[0] + "\n", None, "no data rows"),
    ("data_blank_line_between_rows", {}, _with_blank_line, None, None),
]


class TestReportInputErrors:
    @pytest.mark.parametrize("case,layout,edit_data,edit_measure,message", BAD_REPORT_INPUTS,
                             ids=[c[0] for c in BAD_REPORT_INPUTS])
    def test_bad_input_is_one_line_error_with_exit_2(self, runner, tmp_path, case, layout,
                                                     edit_data, edit_measure, message):
        X, data_path = _gaussian_dataset(tmp_path, seed=13, n=4)
        measure_path = tmp_path / "measure.csv"
        save_measure(measure_path, build_measure(X[:3], np.full(3, 1.5)), Layout(p=2, x_idx=(0, 1)))
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({"p": 2, "x_idx": [0, 1]}))
        args = ["report", "--measure", str(measure_path), "--data", data_path,
                "--layout", str(layout_path)]
        clean = runner.invoke(main, args)
        assert clean.exit_code == 0, clean.output

        layout_path.write_text(json.dumps({"p": 2, "x_idx": [0, 1], **layout}))
        for path, edit in ((Path(data_path), edit_data), (measure_path, edit_measure)):
            if edit is not None:
                path.write_text(edit(path.read_text()))
        result = runner.invoke(main, args)
        if message is None:
            assert result.exit_code == 0, result.output
            assert result.output == clean.output
            return
        assert result.exit_code == 2, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


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


def _file_draws_cfg(tmp_path, data_path):
    cfg = _bayes_cfg(tmp_path, data_path)
    cfg["sampler"] = {"kind": "file", "path": str(tmp_path / "draws.csv")}
    return cfg


def _with(cfg, section, settings):
    """A base config: ``cfg`` with one section replaced."""
    def base(tmp_path, data_path):
        return {**cfg(tmp_path, data_path), section: dict(settings)}
    return base


_MISSING = object()

# (case id, base config, section, key, bad value); key None replaces the whole
# section (or, with _MISSING, removes it) and section None the whole config
BAD_ATTACK_INPUTS = [
    ("top_level_null", _bayes_cfg, None, None, None),
    ("top_level_list", _bayes_cfg, None, None, []),
    ("top_level_number", _bayes_cfg, None, None, 5),
    ("data_path_number", _bayes_cfg, "data", "path", 5),
    ("sampler_path_number", _file_draws_cfg, "sampler", "path", 5),
    ("output_dir_number", _bayes_cfg, "output", "dir", 5),
    ("trace_target_string", _bayes_cfg, "attack", "trace_target", "no"),
    ("lr_w_beyond_float_range", _nonbayes_cfg, "attack", "lr_w", 2**1024),
    ("step_scale_beyond_float_range", _bayes_cfg, "sampler", "step_scale", 10**400),
    ("M_string", _bayes_cfg, "attack", "M", "5"),
    ("M_float", _bayes_cfg, "attack", "M", 2.5),
    ("iters_bool", _nonbayes_cfg, "attack", "iters", True),
    ("L_float", _bayes_cfg, "attack", "L", 2.0),
    ("L_beyond_float_range", _bayes_cfg, "attack", "L", 10**400),
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
    ("loss_model_with_sfd", _with(_nonbayes_cfg, "model", {"name": "squared_error"}),
     "attack", "objective", "sfd"),
    ("likelihood_model_with_nonbayes", _bayes_cfg, "attack", "objective", "nonbayes"),
    ("theta_star_too_short", _nonbayes_cfg, "attack", "theta_star", []),
    ("theta_star_too_long", _nonbayes_cfg, "attack", "theta_star", [0.5, 1.0]),
    ("theta_star_not_numbers", _nonbayes_cfg, "attack", "theta_star", ["a"]),
    ("sampler_init_wrong_length", _bayes_cfg, "sampler", "init", [0.0]),
    ("kidscore_with_dim", _with(_bayes_cfg, "model", {"name": "kidscore"}), "model", "dim", 7),
    ("gaussian_mean_with_ridge", _bayes_cfg, "model", "ridge", 3),
    ("bayes_linreg_x_dim_and_degree",
     _with(_bayes_cfg, "model", {"name": "bayes_linreg", "degree": 3}), "model", "x_dim", 1),
    ("exact_step_scale_negative", _with(_bayes_cfg, "sampler", {"kind": "exact", "T": 10}),
     "sampler", "step_scale", -1),
    ("file_sampler_T_negative", _file_draws_cfg, "sampler", "T", -5),
    # the dataset has 2 columns, kidscore expects 3: the init is checked first
    ("sampler_init_outside_domain", _with(_bayes_cfg, "model", {"name": "kidscore"}),
     "sampler", "init", [0.0, 0.0, -1.0]),
    # inside the domain, but sigma = 1e-300 overflows the log likelihood
    ("sampler_init_zero_posterior", lambda tmp_path, _: _kidscore_cfg(tmp_path),
     "sampler", "init", [0.0, 0.0, 1e-300]),
    # a Bayesian attack starts its regression responses from theta_star if given
    ("bayes_theta_star_too_short", lambda tmp_path, _: _kidscore_cfg(tmp_path),
     "attack", "theta_star", [1.0, 2.0]),
    ("bayes_theta_star_not_a_list", lambda tmp_path, _: _kidscore_cfg(tmp_path),
     "attack", "theta_star", "abc"),
    ("sampler_section_missing", _bayes_cfg, "sampler", None, _MISSING),
    ("sampler_kind_unknown", _bayes_cfg, "sampler", "kind", "gibbs"),
    ("exact_on_kidscore", _with(_with(_bayes_cfg, "model", {"name": "kidscore"}),
                                "sampler", {"kind": "rwm", "T": 10}),
     "sampler", "kind", "exact"),
    ("rwm_without_init", _with(_bayes_cfg, "sampler", {"kind": "exact", "T": 10}),
     "sampler", "kind", "rwm"),
    ("data_path_missing", _bayes_cfg, "data", None, {}),
    ("data_file_missing", _bayes_cfg, "data", "path", "no_such_data.csv"),
    ("draws_file_missing", _file_draws_cfg, "sampler", "path", "no_such_draws.csv"),
]


class TestAttackConfigErrors:
    @pytest.mark.parametrize("case,base,section,key,value", BAD_ATTACK_INPUTS,
                             ids=[c[0] for c in BAD_ATTACK_INPUTS])
    def test_bad_input_is_one_line_error_with_exit_2(self, runner, tmp_path, case, base,
                                                     section, key, value):
        _, data_path = _gaussian_dataset(tmp_path, seed=13)
        cfg_dict = base(tmp_path, data_path)
        if section is None:
            cfg_dict = value
        elif key is None and value is _MISSING:
            del cfg_dict[section]
        elif key is None:
            cfg_dict[section] = value
        else:
            cfg_dict[section][key] = value
        cfg = _write_config(tmp_path / "cfg.json", cfg_dict)
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if section is not None:
            assert (section if key is None else f"{section}.{key}") in lines[0]
        assert not (tmp_path / "out" / "trace.csv").exists()


def _kidscore_cfg(tmp_path, intercept=1.0):
    rng = np.random.default_rng(15)
    r = rng.standard_normal(12)
    X = np.column_stack([np.full(12, intercept), r, 0.5 * r + rng.standard_normal(12)])
    write_rows(tmp_path / "data.csv", ("intercept", "r", "u"), X)
    return {
        "model": {"name": "kidscore"},
        "data": {"path": str(tmp_path / "data.csv")},
        "sampler": {"kind": "rwm", "T": 10, "burn_in": 10, "seed": 1, "init": [0.0, 0.0, 1.0]},
        "attack": {"objective": "fd", "M": 3, "iters": 5, "seed": 2, "trace_target": True},
        "output": {"dir": str(tmp_path / "out")},
    }


class TestUnsatisfiableRequests:
    @pytest.mark.parametrize("command", ["sample", "attack"])
    @pytest.mark.parametrize("kind", ["exact", "rwm"])
    def test_size_beyond_address_space_is_one_line_error(self, runner, tmp_path, command,
                                                         kind):
        # 10**15 draws of 2 floats exceed any address space, so the allocation
        # fails at once and nothing is run
        _, data_path = _gaussian_dataset(tmp_path, seed=13)
        cfg_dict = _bayes_cfg(tmp_path, data_path)
        cfg_dict["sampler"]["kind"] = kind
        cfg_dict["sampler"]["T"] = 10**15
        result = runner.invoke(main, [command, "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory")
        assert not (tmp_path / "out").exists()

    def test_sampling_a_loss_model_is_one_line_error(self, runner, tmp_path):
        _, data_path = _gaussian_dataset(tmp_path, seed=13, d=2)
        cfg_dict = _nonbayes_cfg(tmp_path, data_path)
        result = runner.invoke(main, ["sample", "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and "loss model" in lines[0]


class TestAttackDataHandling:
    @pytest.mark.parametrize("command", ["sample", "attack"])
    @pytest.mark.parametrize("sampler", [{"kind": "exact", "T": 10, "seed": 1},
                                         {"kind": "rwm", "T": 10, "burn_in": 10, "seed": 1,
                                          "init": [0.0, 0.0]}], ids=["exact", "rwm"])
    def test_non_finite_data_cell_exits_2_naming_row(self, runner, tmp_path, command,
                                                      sampler):
        (tmp_path / "data.csv").write_text("c0,c1\n0.5,1.0\n0.25,nan\n1.0,2.0\n")
        cfg_dict = _with(_bayes_cfg, "sampler", sampler)(tmp_path, str(tmp_path / "data.csv"))
        result = runner.invoke(main, [command, "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "row 3" in lines[0] and "non-finite" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_config_not_json_is_one_line_error(self, runner, tmp_path):
        (tmp_path / "cfg.json").write_text('{"model": ')
        result = runner.invoke(main, ["attack", "--config", str(tmp_path / "cfg.json")])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config is not valid JSON")

    @pytest.mark.parametrize("key", ["data.path", "sampler.path"])
    def test_wrong_column_count_is_one_line_error(self, runner, tmp_path, key):
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c\n0.5,1.0,2.0\n")
        _, data_path = _gaussian_dataset(tmp_path, seed=13)
        if key == "data.path":
            cfg_dict = _with(_bayes_cfg, "sampler", {"kind": "exact", "T": 10})(tmp_path,
                                                                                str(wide))
        else:
            cfg_dict = _file_draws_cfg(tmp_path, data_path)
            cfg_dict["sampler"]["path"] = str(wide)
        result = runner.invoke(main, ["attack", "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert lines == [f"error: {key} {wide} has 3 columns, model expects 2"]
        assert not (tmp_path / "out").exists()

    def test_file_sampler_attacks_like_the_sampler_that_wrote_it(self, runner, tmp_path):
        cfg_dict = _kidscore_cfg(tmp_path)
        cfg_dict["sampler"]["T"] = 20
        cfg_dict["attack"].update(objective="sfd", L=2)
        cfg_dict["output"] = {"dir": str(tmp_path / "rwm")}
        cfg = _write_config(tmp_path / "rwm.json", cfg_dict)
        for command in ("sample", "attack"):
            result = runner.invoke(main, [command, "--config", cfg])
            assert result.exit_code == 0, result.output
        cfg_dict["sampler"] = {"kind": "file", "path": str(tmp_path / "rwm" / "draws.csv")}
        cfg_dict["output"] = {"dir": str(tmp_path / "file")}
        result = runner.invoke(main, ["attack", "--config",
                                      _write_config(tmp_path / "file.json", cfg_dict)])
        assert result.exit_code == 0, result.output
        for name in ("trace.csv", "measure.csv"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "rwm" / name).read_bytes())
        summary = json.loads((tmp_path / "file" / "summary.json").read_text())
        assert summary["draws"]["source"] == "file" and summary["draws"]["T"] == 20

    def test_bayes_linreg_degree_from_config(self, runner, tmp_path):
        rng = np.random.default_rng(16)
        s = rng.standard_normal(15)
        y = 1.0 + s - 0.5 * s**2 + 0.3 * rng.standard_normal(15)
        write_rows(tmp_path / "data.csv", ("s", "y"), np.column_stack([s, y]))
        cfg = _write_config(tmp_path / "cfg.json", {
            "model": {"name": "bayes_linreg", "degree": 2},
            "data": {"path": str(tmp_path / "data.csv")},
            "sampler": {"kind": "rwm", "T": 20, "burn_in": 20, "seed": 1,
                        "init": [0.0, 0.0, 0.0]},
            "attack": {"objective": "fd", "M": 3, "iters": 5, "seed": 2,
                       "trace_target": True},
            "output": {"dir": str(tmp_path / "out")},
        })
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 0, result.output
        # polynomial features: points (s, y) rather than (1, x, y)
        assert load_measure(tmp_path / "out" / "measure.csv").points.shape == (3, 2)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["draws"]["T"] == 20
        assert summary["final"]["errors"] is not None

    def test_frozen_column_must_match_layout(self, runner, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", _kidscore_cfg(tmp_path, intercept=2.0))
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 2, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'intercept'" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_negative_attack_seed_rejected_before_sampling(self, runner, tmp_path,
                                                           monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran before the attack seed was checked")

        monkeypatch.setattr(cli, "rwm_draws", no_sampling)
        cfg_dict = _kidscore_cfg(tmp_path)
        cfg_dict["attack"]["seed"] = -1
        result = runner.invoke(main, ["attack", "--config",
                                      _write_config(tmp_path / "cfg.json", cfg_dict)])
        assert result.exit_code == 2, (result.output, result.exception)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "seed" in lines[0]

    def test_data_file_read_once(self, runner, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_dataset(path)

        monkeypatch.setattr(cli, "load_dataset", counting)
        cfg = _write_config(tmp_path / "cfg.json", _kidscore_cfg(tmp_path))
        result = runner.invoke(main, ["attack", "--config", cfg])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["final"]["errors"] is not None


# Drawn JSON values. Integers stay small so that a drawn size (M, iters, T,
# L, ...) keeps each run to milliseconds; the range checks on sizes are the
# cases above. Strings have no path separators or dots, so a drawn output
# directory stays inside the run's own directory.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
                 | st.text(alphabet="abcdefrsxyz_01", max_size=6)
                 | st.sampled_from(["fd", "sfd", "nonbayes", "exact", "rwm", "file",
                                    "gaussian_mean", "bayes_linreg", "kidscore",
                                    "squared_error", "logistic"]))
# objects are keyed mostly by config key names, so that a drawn section
# passes the unknown-key check and reaches the checks behind it
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(sorted(set().union(*_SECTION_KEYS.values()))) | st.text(max_size=2),
        inner, max_size=4),
    max_leaves=6)
_SECTIONS = sorted(k for k in _SECTION_KEYS if k)
# (section, key, value): key None replaces the whole section, section None
# the whole config
_EDITS = st.one_of(
    st.sampled_from(_SECTIONS).flatmap(lambda section: st.tuples(
        st.just(section), st.sampled_from(sorted(_SECTION_KEYS[section])),
        _JSON_SCALARS | _JSON)),
    st.tuples(st.sampled_from([None, *_SECTIONS]), st.none(), _JSON),
)


class TestAttackConfigFuzz:
    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(_EDITS, min_size=1, max_size=3))
    def test_drawn_configs_never_raise(self, runner, tmp_path, edits):
        cfg = {
            "model": {"name": "gaussian_mean", "dim": 2},
            "data": {"path": "data.csv"},
            "sampler": {"kind": "exact", "T": 10, "seed": 1},
            "attack": {"objective": "sfd", "M": 2, "iters": 3, "L": 2, "seed": 2,
                       "trace_every": 1, "trace_target": True, "theta_star": [0.5]},
            "output": {"dir": "out"},
        }
        for section, key, value in edits:
            if section is None:
                cfg = value
            elif isinstance(cfg, dict):
                if key is not None:
                    old = cfg.get(section)
                    value = {**old, key: value} if isinstance(old, dict) else {key: value}
                cfg[section] = value
        with runner.isolated_filesystem(temp_dir=tmp_path):
            _gaussian_dataset(Path("."), seed=14)
            _write_config("cfg.json", cfg)
            result = runner.invoke(main, ["attack", "--config", "cfg.json"])
        assert result.exit_code in (0, 2, 3), (cfg, result.output, result.exception)
        assert "Traceback" not in result.output
