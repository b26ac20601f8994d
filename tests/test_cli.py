"""CLI harness: config schema, artifact plumbing, the verify report, bench, plots."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from particlevi import checks as ck
from particlevi import cli
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.rng import RngStream


def write_config(path, body: str):
    path.write_text(body)
    return str(path)


LGSSM_INI = """
[model]
kind = lgssm
dx = 2
dy = 2
alpha = 0.42
c_mode = sparse
t = 4

[objective]
kind = vsmc
n = 3

[train]
schedule = 5@0.05

[run]
seed = 3
"""


@pytest.fixture
def lgssm_cfg(tmp_path):
    return cli.load_config(write_config(tmp_path / "lg.ini", LGSSM_INI))


class TestConfig:
    def test_fields_resolved(self, lgssm_cfg):
        cfg = lgssm_cfg
        assert cfg.model_kind == "lgssm" and cfg.t == 4 and cfg.seed == 3
        assert cfg.model == {"dx": 2, "dy": 2, "alpha": 0.42, "c_mode": "sparse"}
        assert cfg.objective_kind == "vsmc" and cfg.n == 3
        assert cfg.schedule == ((0.05, 5),)

    def test_schedule_suffixes(self):
        assert cli.parse_schedule("10K@0.01, 2M@0.001") == ((0.01, 10_000), (0.001, 2_000_000))
        assert cli.parse_schedule("0@0.0") == ((0.0, 0),)
        with pytest.raises(ValueError, match="ITERS@LR"):
            cli.parse_schedule("10")

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(cli.CliError, match="unknown section"):
            cli.load_config(write_config(tmp_path / "c.ini", LGSSM_INI + "\n[extra]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        bad = LGSSM_INI.replace("seed = 3", "seed = 3\nsede = 4")
        with pytest.raises(cli.CliError, match="unknown key 'sede'"):
            cli.load_config(write_config(tmp_path / "c.ini", bad))

    def test_missing_model_key_rejected(self, tmp_path):
        bad = LGSSM_INI.replace("alpha = 0.42\n", "")
        with pytest.raises(cli.CliError, match="alpha"):
            cli.load_config(write_config(tmp_path / "c.ini", bad))

    def test_mismatched_model_key_rejected(self, tmp_path):
        bad = LGSSM_INI.replace("alpha = 0.42", "alpha = 0.42\nb_mode = diagonal")
        with pytest.raises(cli.CliError, match="does not apply"):
            cli.load_config(write_config(tmp_path / "c.ini", bad))

    def test_fix_beta_is_lgssm_only(self, tmp_path):
        body = """
[model]
kind = sv
dim = 2
b_mode = diagonal
t = 4

[objective]
kind = vsmc
n = 2
fix_beta = true
"""
        with pytest.raises(cli.CliError, match="fix_beta"):
            cli.load_config(write_config(tmp_path / "c.ini", body))

    def test_bad_objective_rejected(self, tmp_path):
        with pytest.raises(cli.CliError, match="objective.kind"):
            cli.load_config(write_config(tmp_path / "c.ini", LGSSM_INI.replace("kind = vsmc", "kind = elbo")))
        with pytest.raises(cli.CliError, match="objective.n"):
            cli.load_config(write_config(tmp_path / "c.ini", LGSSM_INI.replace("n = 3", "n = 0")))

    def test_hashes_split_data_and_experiment_identity(self, tmp_path, lgssm_cfg):
        other = cli.load_config(
            write_config(tmp_path / "c2.ini", LGSSM_INI.replace("schedule = 5@0.05", "schedule = 9@0.01")))
        assert other.data_hash == lgssm_cfg.data_hash
        assert other.exp_hash != lgssm_cfg.exp_hash
        reseeded = cli.load_config(write_config(tmp_path / "c3.ini", LGSSM_INI), seed_override=9)
        assert reseeded.seed == 9
        assert reseeded.data_hash != lgssm_cfg.data_hash
        assert reseeded.exp_hash != lgssm_cfg.exp_hash

    def test_hash_is_stable(self, tmp_path, lgssm_cfg):
        again = cli.load_config(write_config(tmp_path / "same.ini", LGSSM_INI))
        assert again.exp_hash == lgssm_cfg.exp_hash
        assert len(lgssm_cfg.exp_hash) == 12

    @pytest.mark.parametrize("line,match", [
        ("clip = 0", "train.clip must be > 0"),
        ("clip = -1", "train.clip must be > 0"),
        ("clip = nan", "train.clip must be > 0"),
        ("probe_every = -1", "train.probe_every must be >= 0"),
        ("probe_samples = 1", "train.probe_samples must be >= 2"),
        ("schedule = 5@nan", "a finite LR >= 0"),
        ("schedule = 5@inf", "a finite LR >= 0"),
    ])
    def test_bad_train_settings_rejected(self, tmp_path, line, match):
        # a schedule line takes the place of the good one
        body = LGSSM_INI.replace("schedule = 5@0.05", line if line.startswith("schedule") else f"schedule = 5@0.05\n{line}")
        with pytest.raises(cli.CliError, match=match):
            cli.load_config(write_config(tmp_path / "bad.ini", body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.CliError, match="not found"):
            cli.load_config(tmp_path / "nope.ini")


class TestGenerate:
    def test_writes_data_and_metadata(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        csv_path = cli.cmd_generate(lgssm_cfg, out)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "y0,y1"
        assert len(rows) == 5  # header + t rows
        meta = json.loads((out / f"data_{lgssm_cfg.data_hash}.json").read_text())
        model = cli.build_model(lgssm_cfg)
        assert meta["arrays"]["c"] == model.c.tolist()
        ys = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        assert meta["kalman_loglik"] == mo.kalman_loglik(model, ys)

    def test_idempotent_per_seed(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        first = cli.cmd_generate(lgssm_cfg, out).read_bytes()
        meta_first = (out / f"data_{lgssm_cfg.data_hash}.json").read_bytes()
        assert cli.cmd_generate(lgssm_cfg, out).read_bytes() == first
        assert (out / f"data_{lgssm_cfg.data_hash}.json").read_bytes() == meta_first

    def test_roundtrip_matches_generate(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        ds = cli.load_dataset(lgssm_cfg, out)
        direct = mo.generate(cli.build_model(lgssm_cfg), lgssm_cfg.t, RngStream(3).split(cli._DATA_STREAM))
        np.testing.assert_array_equal(ds.ys, direct.ys)

    @pytest.mark.parametrize("cut", ["truncated", "narrowed", "ragged"])
    def test_load_refuses_a_table_the_config_does_not_describe(self, tmp_path, lgssm_cfg, capsys, cut):
        """t = 4 and dy = 2: three rows, one column, or one short row end in exit 2, never in a run."""
        out = tmp_path / "runs"
        csv_path = cli.cmd_generate(lgssm_cfg, out)
        lines = csv_path.read_text().splitlines()
        if cut == "truncated":
            lines = lines[:4]
        elif cut == "narrowed":
            lines = [line.split(",")[0] for line in lines]
        else:
            lines[2] = lines[2].split(",")[0]
        csv_path.write_text("\n".join(lines) + "\n")
        match = {"truncated": r"shape \(3, 2\); the config needs \(4, 2\)",
                 "narrowed": r"shape \(4, 1\); the config needs \(4, 2\)",
                 "ragged": "not a numeric table"}[cut]
        with pytest.raises(cli.CliError, match=match) as exc:
            cli.load_dataset(lgssm_cfg, out)
        assert str(csv_path) in str(exc.value)
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        assert cli.main(["evaluate", "--config", cfg_path, "--out", str(out), "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(csv_path) in err, err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_load_refuses_a_non_finite_cell(self, tmp_path, lgssm_cfg, capsys, cell):
        """A NaN or infinite observation ends train and evaluate in exit 2, naming the file, row and column."""
        out = tmp_path / "runs"
        csv_path = cli.cmd_generate(lgssm_cfg, out)
        lines = csv_path.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + "," + cell
        csv_path.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        for command in (["train"], ["evaluate", "--samples", "4"]):
            assert cli.main([command[0], "--config", cfg_path, "--out", str(out), *command[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"{csv_path} must be finite; row 2, column 1" in err, err


class TestTrainCmd:
    def test_requires_dataset(self, tmp_path, lgssm_cfg):
        with pytest.raises(cli.CliError, match="generate"):
            cli.cmd_train(lgssm_cfg, tmp_path / "empty")

    def test_writes_params_and_record(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        trained, code = cli.cmd_train(lgssm_cfg, out)
        assert code == 0
        with np.load(out / f"params_{lgssm_cfg.exp_hash}.npz") as fh:
            assert sorted(fh.files) == ["phi.beta", "phi.log_sigma", "phi.mu"]
        lines = (out / f"train_{lgssm_cfg.exp_hash}.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,objective,grad_norm,grad_var,wall_ms"
        assert len(lines) == 6

    def test_zero_iterations_emits_initial_params(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path / "c.ini", LGSSM_INI.replace("5@0.05", "0@0.05")))
        out = tmp_path / "runs"
        cli.cmd_generate(cfg, out)
        _, code = cli.cmd_train(cfg, out)
        assert code == 0
        lines = (out / f"train_{cfg.exp_hash}.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        with np.load(out / f"params_{cfg.exp_hash}.npz") as fh:
            init = mo.proposal_init(cli.build_model(cfg), cfg.t)
            for key, arr in init.items():
                np.testing.assert_array_equal(fh[f"phi.{key}"], arr)

    def test_deterministic_artifacts(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        cli.cmd_train(lgssm_cfg, out)
        params_path = out / f"params_{lgssm_cfg.exp_hash}.npz"
        with np.load(params_path) as fh:
            first = {k: fh[k].copy() for k in fh.files}
        cols_first = cli._read_csv_columns(out / f"train_{lgssm_cfg.exp_hash}.csv")
        cli.cmd_train(lgssm_cfg, out)
        with np.load(params_path) as fh:
            for k in fh.files:
                np.testing.assert_array_equal(fh[k], first[k])
        cols = cli._read_csv_columns(out / f"train_{lgssm_cfg.exp_hash}.csv")
        for name in ("iter", "objective", "grad_norm", "grad_var"):
            assert cols[name] == cols_first[name]  # wall_ms may differ

    def test_fix_beta_pins_beta(self, tmp_path):
        body = LGSSM_INI.replace("n = 3", "n = 3\nfix_beta = true")
        cfg = cli.load_config(write_config(tmp_path / "c.ini", body))
        out = tmp_path / "runs"
        cli.cmd_generate(cfg, out)
        cli.cmd_train(cfg, out)
        with np.load(out / f"params_{cfg.exp_hash}.npz") as fh:
            np.testing.assert_array_equal(fh["phi.beta"], np.ones((4, 2)))
            assert not np.array_equal(fh["phi.mu"], np.zeros((4, 2)))

    def test_warm_start_loads_params(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        cli.cmd_train(lgssm_cfg, out)
        donor = out / f"params_{lgssm_cfg.exp_hash}.npz"
        cfg_ug = cli.load_config(write_config(
            tmp_path / "ug.ini",
            LGSSM_INI.replace("kind = vsmc", "kind = vmpf-ug").replace("5@0.05", "0@0.05")))
        cli.cmd_train(cfg_ug, out, warm_start=donor)
        with np.load(out / f"params_{cfg_ug.exp_hash}.npz") as got, np.load(donor) as want:
            for k in want.files:
                np.testing.assert_array_equal(got[k], want[k])


class TestEvaluateCmd:
    def test_appends_rows_with_provenance(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        cli.cmd_train(lgssm_cfg, out)
        assert cli.cmd_evaluate(lgssm_cfg, out, n_samples=50) == 0
        assert cli.cmd_evaluate(lgssm_cfg, out, n_samples=50) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == cli._RESULTS_HEADER
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == lgssm_cfg.exp_hash
        assert cells[1] == "vsmc" and cells[2] == "3"
        model = cli.build_model(lgssm_cfg)
        ds = cli.load_dataset(lgssm_cfg, out)
        assert float(cells[5]) == mo.kalman_loglik(model, ds.ys)
        # deterministic given the seed: both rows agree on bound and SE
        assert lines[2].split(",")[3] == cells[3]

    def test_bound_matches_library_call(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        cli.cmd_train(lgssm_cfg, out)
        cli.cmd_evaluate(lgssm_cfg, out, n_samples=40)
        row = (out / "results.csv").read_text().strip().splitlines()[1].split(",")
        obj = ob.apply_params(
            cli.build_objective(lgssm_cfg, cli.build_model(lgssm_cfg)),
            cli._load_packed(out / f"params_{lgssm_cfg.exp_hash}.npz"))
        mean, se = ob.bound_estimate(obj, cli.load_dataset(lgssm_cfg, out), 40,
                                     RngStream(3).split(cli._EVAL_STREAM))
        assert float(row[3]) == mean and float(row[4]) == se

    def test_sv_has_no_kalman_column(self, tmp_path):
        body = """
[model]
kind = sv
dim = 2
b_mode = diagonal
t = 3

[objective]
kind = iwvi
n = 2

[train]
schedule = 0@0.0

[run]
seed = 1
"""
        cfg = cli.load_config(write_config(tmp_path / "sv.ini", body))
        out = tmp_path / "runs"
        cli.cmd_generate(cfg, out)
        cli.cmd_train(cfg, out)
        assert cli.cmd_evaluate(cfg, out, n_samples=20) == 0
        row = (out / "results.csv").read_text().strip().splitlines()[1]
        assert row.split(",")[5] == ""

    def test_missing_params_file(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        with pytest.raises(cli.CliError, match="params"):
            cli.cmd_evaluate(lgssm_cfg, out)


class TestVerifyCmd:
    def test_gradients_csv_cells_are_numbers(self, tmp_path):
        assert cli.cmd_verify("gradients", tmp_path) == 0
        lines = (tmp_path / "verify_gradients.csv").read_text().strip().splitlines()[1:]
        assert lines
        for line in lines:
            measured, limit = line.split(",")[2:4]
            float(measured), float(limit)

    def test_failing_rows_fail_the_run(self, tmp_path, capsys, monkeypatch):
        """A row over its "<=" limit and one under its ">=" limit each print FAIL, land in the CSV and exit 1."""
        rows = [ck.Check("low", 1.0, 2.0), ck.Check("over", 3.0, 2.0), ck.Check("under", 1.0, 2.0, ">=")]
        monkeypatch.setattr(ck, "SUITES", {"fake": lambda: rows})
        assert cli.main(["verify", "fake", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS fake/low measured=1.000e+00 limit=2.000e+00",
            "FAIL fake/over measured=3.000e+00 limit=2.000e+00",
            "FAIL fake/under measured=1.000e+00 limit=2.000e+00",
            "FAIL: 2 failing check(s)",
        ]
        assert (tmp_path / "verify_fake.csv").read_text().splitlines() == [
            "suite,check,measured,limit,status",
            "fake,low,1.0,2.0,PASS",
            "fake,over,3.0,2.0,FAIL",
            "fake,under,1.0,2.0,FAIL",
        ]

    def test_unknown_suite(self):
        with pytest.raises(cli.CliError, match="unknown suite"):
            cli.cmd_verify("nope")

    def test_verify_all_prints_the_pinned_report(self, capsys):
        """Every check's name, measured value and limit, byte for byte.

        tests/verify_all.txt holds the output of ``particlevi verify all``;
        a change that moves a measured value must say why and rewrite it.
        """
        assert cli.main(["verify", "all"]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "verify_all.txt").read_text()


class TestBenchCmd:
    def test_fit_recovers_planted_coefficients(self):
        ns = np.asarray([8, 16, 32, 64, 128], dtype=np.float64)
        ms = 2e-5 * ns**2 + 1e-3 * ns + 0.3
        quad, lin, const = cli._fit_quadratic(ns, ms)
        assert quad == pytest.approx(2e-5, rel=1e-9)
        assert lin == pytest.approx(1e-3, rel=1e-9)
        assert const == pytest.approx(0.3, rel=1e-9)

    def test_bench_writes_tables(self, tmp_path):
        report = cli.cmd_bench("lgssm", [4, 8, 16], reps=2, t_max=3, out=tmp_path)
        assert set(report["fits"]) == {"smc", "mpf"}
        lines = (tmp_path / "bench_lgssm.csv").read_text().strip().splitlines()
        assert lines[0] == "model,n,smc_ms,mpf_ms"
        assert len(lines) == 4
        fit_lines = (tmp_path / "bench_fit_lgssm.csv").read_text().strip().splitlines()
        assert fit_lines[0] == "model,algo,quadratic,linear,constant,crossover_n"
        assert len(fit_lines) == 3

    def test_unknown_model(self):
        with pytest.raises(cli.CliError, match="bench model"):
            cli.cmd_bench("hmm", [2], 1, 2)


class TestPlotCmd:
    def make_train_csv(self, tmp_path, lgssm_cfg):
        out = tmp_path / "runs"
        cli.cmd_generate(lgssm_cfg, out)
        cli.cmd_train(lgssm_cfg, out)
        return out / f"train_{lgssm_cfg.exp_hash}.csv"

    def test_training_curve(self, tmp_path, lgssm_cfg):
        table = self.make_train_csv(tmp_path, lgssm_cfg)
        assert cli.cmd_plot("training", table, tmp_path, reference=-15.4) == 0
        svg = (tmp_path / f"plot_training_{table.stem}.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "stroke-dasharray" in svg  # curve + reference line

    def test_variance_plot_skips_unprobed_rows(self, tmp_path):
        table = tmp_path / "probe.csv"
        table.write_text("iter,objective,grad_norm,grad_var,wall_ms\n"
                         "0,-5.0,1.0,0.5,1.0\n1,-4.9,1.0,nan,1.0\n2,-4.8,1.0,0.25,1.0\n")
        assert cli.cmd_plot("variance", table, tmp_path) == 0
        svg = (tmp_path / "plot_variance_probe.svg").read_text()
        assert svg.count("polyline") == 1

    def test_sweep_groups_by_objective(self, tmp_path):
        table = tmp_path / "results.csv"
        table.write_text(cli._RESULTS_HEADER + "\n"
                         "aaa,iwvi,2,-10.5,0.1,-10.0,1.0,0\n"
                         "aaa,iwvi,4,-10.3,0.1,-10.0,1.0,0\n"
                         "bbb,vsmc,2,-10.6,0.1,-10.0,1.0,0\n")
        assert cli.cmd_plot("sweep", table, tmp_path) == 0
        svg = (tmp_path / "plot_sweep_results.svg").read_text()
        assert svg.count("polyline") == 2
        assert "kalman" in svg

    def test_empty_table_draws_empty_axes(self, tmp_path):
        table = tmp_path / "results.csv"
        table.write_text(cli._RESULTS_HEADER + "\n")
        assert cli.cmd_plot("sweep", table, tmp_path) == 0
        assert "no data" in (tmp_path / "plot_sweep_results.svg").read_text()

    def test_ragged_csv_rejected(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("a,b\n1,2\n3\n")
        with pytest.raises(cli.CliError, match="expected 2 cells"):
            cli.cmd_plot("training", table, tmp_path)

    def test_unknown_kind(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("iter,objective,grad_norm,grad_var,wall_ms\n")
        with pytest.raises(cli.CliError, match="plot kind"):
            cli.cmd_plot("scatter", table, tmp_path)


class TestMain:
    def test_pipeline_exit_codes(self, tmp_path):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
        assert cli.main(["evaluate", "--config", cfg_path, "--out", out, "--samples", "20"]) == 0
        assert (tmp_path / "runs" / "results.csv").exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        assert cli.main(["generate", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "error:" in capsys.readouterr().err
        body = LGSSM_INI.replace("schedule = 5@0.05", "schedule = 5@0.05\nclip = -1")
        cfg_path = write_config(tmp_path / "bad.ini", body)
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "train.clip must be > 0" in capsys.readouterr().err
        # models that cannot be built from their settings
        for model, match in (
            ("kind = lgssm\ndx = 0\ndy = 2\nalpha = 0.42\nc_mode = sparse", "dimensions must be >= 1"),
            ("kind = lgssm\ndx = 2\ndy = 3\nalpha = 0.42\nc_mode = sparse", "sparse C needs dy <= dx"),
            ("kind = lgssm\ndx = 2\ndy = 2\nalpha = 0.42\nc_mode = banded", "unknown C mode"),
            ("kind = dmm\ndx = 2\ndy = 3\ndh = 0", "dimensions must be >= 1"),
            ("kind = sv\ndim = 0\nb_mode = diagonal", "dimensions must be >= 1"),
            ("kind = sv\ndim = 2\nb_mode = full", "unknown B mode"),
        ):
            cfg_path = write_config(tmp_path / "model.ini", f"[model]\n{model}\nt = 4\n[objective]\nkind = vsmc\nn = 3\n")
            assert cli.main(["generate", "--config", cfg_path, "--out", str(tmp_path / "data")]) == 2, model
            err = capsys.readouterr().err
            assert err.startswith("error:") and match in err, err
        assert not (tmp_path / "data").exists()

    def test_integer_argument_errors_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        for argv, flag in (
            (["evaluate", "--config", cfg_path, "--out", str(tmp_path), "--samples", "1"], "--samples"),
            (["bench", "--model", "lgssm", "--reps", "0"], "--reps"),
            (["bench", "--model", "lgssm", "--t", "0"], "--t"),
        ):
            assert cli.main(argv) == 2, flag
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag in err

    def test_evaluate_has_no_workers_flag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--config", cfg_path, "--out", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_plot_input_errors_exit_2(self, tmp_path, capsys):
        table = tmp_path / "ab.csv"
        table.write_text("a,b\n1,2\n")
        text_cell = tmp_path / "text.csv"
        text_cell.write_text("iter,objective\n0,x\n")
        for argv, match in (
            (["plot", "training", "--table", str(tmp_path / "nope.csv")], "table not found"),
            (["plot", "training", "--table", str(table)], "['iter', 'objective']"),
            (["plot", "sweep", "--table", str(table)], "['objective', 'n', 'bound', 'kalman']"),
            (["plot", "training", "--table", str(text_cell)], "could not convert string to float: 'x'"),
        ):
            assert cli.main(argv + ["--out", str(tmp_path)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and match in err, err

    @staticmethod
    def too_wide_params(tmp_path, cfg_path):
        """A params file whose proposal std is exp(400): no weight survives t=1."""
        cfg = cli.load_config(cfg_path)
        packed = ob.pack_params(cli.build_objective(cfg, cli.build_model(cfg)))
        packed["phi.log_sigma"] = np.full_like(packed["phi.log_sigma"], 400.0)
        path = tmp_path / "wide.npz"
        np.savez(path, **packed)
        return str(path)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_degenerate_evaluate_exits_1_naming_step_and_sample(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        params = self.too_wide_params(tmp_path, cfg_path)
        assert cli.main(["evaluate", "--config", cfg_path, "--out", out, "--params", params]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: particle degeneracy at t=1 in sample 0"), err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_degenerate_train_exits_1_naming_step_and_iteration(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        params = self.too_wide_params(tmp_path, cfg_path)
        assert cli.main(["train", "--config", cfg_path, "--out", out, "--warm-start", params]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: particle degeneracy at t=1 in iteration 0"), err
        # with no iteration to run, the closing 64-sample bound is the first to degenerate
        zero = write_config(tmp_path / "zero.ini", LGSSM_INI.replace("5@0.05", "0@0.05"))
        assert cli.main(["train", "--config", zero, "--out", out, "--warm-start", params]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: particle degeneracy at t=1 in sample 0"), err

    @staticmethod
    def bad_params_files(tmp_path) -> dict:
        """name -> (params file, text its error names); the config's params are phi.mu/beta/log_sigma (4, 2)."""
        files = {}
        for name, arrays in (("typo", {"phi.mu_typo": np.zeros((4, 2))}),
                             ("shape", {"phi.mu": np.zeros((4, 3))})):
            np.savez(tmp_path / f"{name}.npz", **arrays)
        files["typo"] = (tmp_path / "typo.npz", "unknown key 'phi.mu_typo'")
        files["shape"] = (tmp_path / "shape.npz", "key 'phi.mu' has shape (4, 3), this objective needs (4, 2)")
        (tmp_path / "text.npz").write_text("not an archive\n")
        files["text"] = (tmp_path / "text.npz", "is not an .npz of arrays")
        np.save(tmp_path / "single.npy", np.zeros((4, 2)))
        files["single"] = (tmp_path / "single.npy", "is not an .npz of arrays")
        return files

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_bad_params_files_exit_2_naming_the_key(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        flag = "--params" if command == "evaluate" else "--warm-start"
        for name, (path, match) in self.bad_params_files(tmp_path).items():
            assert cli.main([command, "--config", cfg_path, "--out", out, flag, str(path)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: params file") and match in err, (name, err)
        assert not (tmp_path / "runs" / "results.csv").exists()
        assert not list((tmp_path / "runs").glob("params_*.npz"))

    def test_evaluate_needs_every_param_and_a_warm_start_does_not(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out]) == 0
        partial = tmp_path / "partial.npz"
        np.savez(partial, **{"phi.mu": np.full((4, 2), 0.1)})
        assert cli.main(["evaluate", "--config", cfg_path, "--out", out, "--params", str(partial)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params file") and "missing key 'phi.beta'" in err, err
        assert cli.main(["train", "--config", cfg_path, "--out", out, "--warm-start", str(partial)]) == 0

    def test_python_dash_m_runs_the_cli(self):
        """A checkout without an install runs the CLI as `python -m particlevi`."""
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "particlevi", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: particlevi")
        bad = subprocess.run([sys.executable, "-m", "particlevi", "verify", "nope"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert bad.returncode == 2 and bad.stderr.startswith("error: unknown suite")

    def test_train_before_generate_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        assert cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "fresh")]) == 2

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path / "lg.ini", LGSSM_INI)
        out = str(tmp_path / "runs")
        assert cli.main(["generate", "--config", cfg_path, "--out", out, "--seed", "11"]) == 0
        cfg = cli.load_config(cfg_path, seed_override=11)
        assert (tmp_path / "runs" / f"data_{cfg.data_hash}.csv").exists()
