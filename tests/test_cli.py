"""End-to-end checks of the command-line front end via cli.main."""

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from sarlab import cli
from sarlab import morris_lecar as ml
from sarlab.embedding import EmbeddingConfig, build_embedding
from sarlab.lure import save_system
from sarlab.sde import SdePath

from conftest import make_scalar, parent_layout_doc


@pytest.fixture(scope="module")
def scalar_files(tmp_path_factory):
    """Stable (a=0.1) and unstable-without-noise system files."""
    root = tmp_path_factory.mktemp("systems")
    good = root / "good.json"
    save_system(make_scalar(a=0.1, sigma=0.7), good)
    bad = root / "bad.json"
    save_system(make_scalar(a=0.1, sigma=0.3), bad)
    return good, bad


# -- parse_range --------------------------------------------------------------

def test_parse_range_inclusive_endpoints():
    got = cli.parse_range("0.2:1.0:0.2", "sigma")
    np.testing.assert_allclose(got, [0.2, 0.4, 0.6, 0.8, 1.0])


def test_parse_range_single_point():
    np.testing.assert_allclose(cli.parse_range("0.85:0.85:0.1", "s"), [0.85])


@pytest.mark.parametrize("text", ["abc", "1:2", "0:1:0", "1:0:0.1", "::"])
def test_parse_range_rejects_bad_grids(text):
    with pytest.raises(cli.CliError):
        cli.parse_range(text, "sigma")


def test_odd_window_validation():
    assert cli._odd_window(101) == 101
    for bad in (100, 0, -3):
        with pytest.raises(cli.CliError):
            cli._odd_window(bad)


# -- certify ------------------------------------------------------------------

def test_certify_exit_codes_track_feasibility(scalar_files, tmp_path, capsys):
    good, bad = scalar_files
    assert cli.main(["certify", str(good), "--out", str(tmp_path / "a")]) == 0
    assert "feasible" in capsys.readouterr().out
    assert cli.main(["certify", str(bad), "--out", str(tmp_path / "b")]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_certify_sigma_override_flips_verdict(scalar_files, tmp_path):
    good, _ = scalar_files
    rc = cli.main(["certify", str(good), "--sigma", "0.3",
                   "--out", str(tmp_path)])
    assert rc == 1
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["sigma"] == pytest.approx(0.3)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["stages"]) == ["certify_s", "write_s"]
    assert all(seconds >= 0.0 for seconds in manifest["stages"].values())
    assert manifest["wall_time_s"] >= sum(manifest["stages"].values())


def test_certify_rejects_range_sigma(scalar_files, tmp_path):
    good, _ = scalar_files
    assert cli.main(["certify", str(good), "--sigma", "0.1:1:0.1",
                     "--out", str(tmp_path)]) == 2


def test_certify_rejects_system_outside_the_hypotheses(tmp_path, capsys):
    # negative sector and slope bounds: the search alone would report "feasible"
    path = tmp_path / "negative.json"
    save_system(make_scalar(a=0.1, sigma=0.7, s=-1.0, delta=-1.0), path)
    rc = cli.main(["certify", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_sector_slope" in err and "bad_deriv_bound" in err
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("text, message", [("{not json", "malformed JSON in"),
                                           ("[1, 2]", "expected a JSON object")])
@pytest.mark.parametrize("command", ["simulate", "certify", "sweep"])
def test_a_file_that_is_no_json_object_is_a_usage_error(command, text, message, tmp_path,
                                                        capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {"simulate": ["simulate", "--config", str(path)],
            "certify": ["certify", str(path)],
            "sweep": ["sweep", str(path), "--sigma", "0.5:0.5:0.1"]}[command]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_missing_system_file(tmp_path):
    assert cli.main(["certify", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_certify_validates_the_overridden_sigma(scalar_files, tmp_path, capsys, sigma):
    good, _ = scalar_files
    assert cli.main(["certify", str(good), "--sigma", sigma, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_rejects_non_finite_system_data(tmp_path, capsys):
    path = tmp_path / "nan.json"
    save_system(make_scalar(a=float("nan"), sigma=0.7), path)
    assert cli.main(["certify", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "non_finite" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------------

def test_sweep_reports_boundary_and_writes_artifacts(scalar_files, tmp_path, capsys):
    good, _ = scalar_files
    rc = cli.main(["sweep", str(good), "--sigma", "0.1:0.8:0.1",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    # 2a = 0.2: the closed-form boundary sits between 0.4 and 0.5 on this grid
    assert "first feasible sigma: 0.5" in out
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    flags = [int(r["feasible"]) for r in rows]
    assert flags == sorted(flags)  # infeasible block then feasible block
    assert (tmp_path / "sweep.plt").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert set(manifest["outputs"]) >= {"sweep.csv", "sweep.plt"}
    assert list(manifest["stages"]) == ["sweep_s", "write_s"]
    assert all(seconds >= 0.0 for seconds in manifest["stages"].values())
    assert manifest["wall_time_s"] >= sum(manifest["stages"].values())


def test_sweep_requires_sigma_grid(scalar_files, tmp_path):
    good, _ = scalar_files
    assert cli.main(["sweep", str(good), "--out", str(tmp_path)]) == 2


GRID_ERRORS = {
    "--sigma": [("1:0:0.1", "empty range '1:0:0.1'"),
                ("0:1", "want a:b:step, got '0:1'"),
                ("0:x:0.1", "non-numeric bound in '0:x:0.1'"),
                ("0:1:0", "step must be > 0 in '0:1:0'"),
                ("-0.5:0.5:0.5", "noise levels must be >= 0, got '-0.5:0.5:0.5'")],
    "--nu-grid": [("0.9:0.1:0.1", "empty range '0.9:0.1:0.1'"),
                  ("::", "non-numeric bound in '::'"),
                  ("0.1:0.9:-0.1", "step must be > 0 in '0.1:0.9:-0.1'")],
}
GRID_FLAGS = [(["sweep", "x.json"], "--sigma"),
              (["sweep", "x.json", "--sigma", "0.5:0.5:0.1"], "--nu-grid"),
              (["certify", "x.json"], "--nu-grid"),
              (["reproduce", "fig5"], "--sigma")]


@pytest.mark.parametrize("argv, flag, text, message", [
    pytest.param(argv, flag, text, message, id=f"{argv[0]} {flag}={text}")
    for argv, flag in GRID_FLAGS for text, message in GRID_ERRORS[flag]])
def test_a_bad_grid_names_its_flag_once(argv, flag, text, message, tmp_path, capsys):
    assert cli.main([*argv, f"{flag}={text}", "--out", str(tmp_path)]) == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.endswith(f"error: argument {flag}: {message}")
    assert error.count(flag) == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_empty_and_negative_grids(scalar_files, tmp_path):
    good, _ = scalar_files
    assert cli.main(["sweep", str(good), "--sigma", "1:0:0.1",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["sweep", str(good), "--sigma", "-0.5:0.5:0.5",
                     "--out", str(tmp_path)]) == 2


def test_reproduce_fig5_rejects_a_negative_grid_before_training(monkeypatch, tmp_path):
    def no_training(p, cfg):
        raise AssertionError("trained before rejecting --sigma")

    monkeypatch.setattr(cli, "build_embedding", no_training)
    assert cli.main(["reproduce", "fig5", "--sigma=-0.5:0.5:0.5", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "fig5").exists()


# -- simulate -----------------------------------------------------------------

def test_simulate_noisy_ml_adds_filtered_columns(tmp_path):
    cfg = {"model": "ml", "i_app": 40.0, "sigma": 0.85, "t_end": 2.0,
           "dt": 1e-3, "record_stride": 4, "filter_window": 11}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "traj.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "V", "N", "V_filt", "N_filt"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == {"simulation": 3}
    assert manifest["calibrated"]["i_app"] == pytest.approx(40.0)
    assert manifest["config"]["seed"] == 3
    assert manifest["wall_time_s"] >= 0.0


@pytest.mark.parametrize("model", ["ml", "lure"])
def test_simulate_manifest_records_stage_timings(model, scalar_files, tmp_path):
    cfg = ({"model": "ml", "i_app": 40.0, "t_end": 1.0, "dt": 1e-3} if model == "ml" else
           {"model": "lure", "system": str(scalar_files[0]), "x0": [1.0], "t_end": 1.0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert set(stages) == {"calibrate_s", "simulate_s", "write_s"}
    assert all(seconds >= 0.0 for seconds in stages.values())


def test_simulate_manifest_config_replays_the_run(tmp_path):
    # the flags override the config file; the manifest records what ran
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "ml", "i_app": 40.0, "sigma": 0.85, "t_end": 1.0,
                                    "dt": 1e-3, "filter_window": 101}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--noise-mode", "current",
                     "--filter-window", "5", "--out", str(tmp_path / "flags")]) == 0
    config = json.loads((tmp_path / "flags" / "manifest.json").read_text())["config"]
    assert (config["noise_mode"], config["filter_window"]) == ("current", 5)
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "replay")]) == 0
    assert ((tmp_path / "replay" / "traj.csv").read_bytes()
            == (tmp_path / "flags" / "traj.csv").read_bytes())


def test_simulate_divergence_names_the_path(tmp_path, capsys):
    # this path goes non-finite after t = 37.65 (the sampled times step by 0.05)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "ml", "i_app": 40.0, "sigma": 40.0,
                                    "t_end": 50.0, "filter_window": 1}))
    with pytest.warns(RuntimeWarning, match="recovery"):
        rc = cli.main(["simulate", "--config", str(cfg_path), "--seed", "3",
                       "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("path 0 (sigma=40) diverged: the state went non-finite after "
                   "t=37.65, its last finite sample; the written trajectory ends there\n")
    rows = (tmp_path / "traj.csv").read_text().strip().splitlines()
    assert float(rows[-1].split(",")[0]) == 37.65


def test_simulate_noiseless_ml_has_no_filtered_columns(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": "ml", "i_app": 40.0, "t_end": 1.0, "dt": 1e-3}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "traj.csv") as fh:
        assert next(csv.reader(fh)) == ["t", "V", "N"]


def test_simulate_lure_model_runs_from_system_file(scalar_files, tmp_path):
    good, _ = scalar_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": "lure", "system": str(good), "x0": [1.0],
         "t_end": 1.0, "dt": 1e-3}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "traj.csv") as fh:
        assert next(csv.reader(fh)) == ["t", "x1"]


def test_simulate_bad_model_and_missing_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "pendulum"}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 2
    cfg_path.write_text(json.dumps({"model": "lure", "t_end": 1.0}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2


def test_simulate_bad_noise_mode_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": "ml", "i_app": 40.0, "sigma": 0.5, "noise_mode": "both",
         "t_end": 1.0}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2


def test_simulate_lure_validates_the_config_sigma(scalar_files, tmp_path, capsys):
    good, _ = scalar_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"model": "lure", "system": str(good), "sigma": -1.0, "t_end": 1.0, "dt": 1e-3}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "sigma_negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "approximate"])
def test_params_block_that_is_not_an_object_is_a_usage_error(command, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"params": [1, 2], "i_app": 40.0, "t_end": 1.0}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "error: params must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "approximate"])
def test_params_block_with_a_key_it_does_not_read_is_a_usage_error(command, tmp_path, capsys):
    # "g_l" is the attribute's name; the block takes the conventional "gL"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"params": {"g_l": 3.0}, "i_app": 40.0, "t_end": 1.0}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: bad params block: unknown parameter keys ['g_l']" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "approximate"])
@pytest.mark.parametrize("i_app, message", [
    ("calibrated", "i_app must be a number or 'calibrate', got 'calibrated'"),
    ([40.0], "bad i_app: [40.0]")])
def test_i_app_that_is_neither_a_number_nor_calibrate_is_a_usage_error(command, i_app, message,
                                                                      tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"i_app": i_app, "t_end": 1.0}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, field", [
    ("simulate", "t_end"), ("simulate", "dt"), ("simulate", "record_stride"),
    ("simulate", "sigma"), ("simulate", "seed"),
    ("approximate", "width"), ("approximate", "epochs"), ("approximate", "n_samples"),
    ("approximate", "kappa"), ("approximate", "offset_tol"), ("approximate", "seed")])
@pytest.mark.parametrize("value", [[1], {"v": 1}, "10", True])
def test_non_numeric_config_field_is_a_usage_error(command, field, value, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"i_app": 40.0, "t_end": 1.0, field: value}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"error: {field} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("command, field", [("simulate", "record_stride"),
                                            ("simulate", "filter_window"),
                                            ("approximate", "width"),
                                            ("approximate", "epochs")])
def test_fractional_count_in_config_is_a_usage_error(command, field, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"i_app": 40.0, "t_end": 1.0, "sigma": 0.5, field: 2.5}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"error: {field} must be an integer" in capsys.readouterr().err


# -- approximate --------------------------------------------------------------

@pytest.mark.parametrize("key", ["batch_size", "lr", "lr_decay"])
def test_approximate_rejects_minibatch_options(key, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"i_app": 40.0, key: 0.5}))
    assert cli.main(["approximate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "full-batch" in err


def test_approximate_defaults_are_the_embedding_config(monkeypatch, tmp_path):
    seen = []

    def stop(p, cfg):
        seen.append(cfg)
        raise cli.CliError("stop before training")

    monkeypatch.setattr(cli, "build_embedding", stop)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"i_app": 40.0}))
    assert cli.main(["approximate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert seen == [EmbeddingConfig(seed=0, i_app=40.0)]

@pytest.mark.parametrize("box", [[[-80, 0]], 5, [["low", "N"], ["high", "N"]]])
def test_approximate_malformed_box_is_a_usage_error(box, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"box": box, "i_app": 40.0}))
    assert cli.main(["approximate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "error: box must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["approximate", "--config", "cfg.json"], ["reproduce", "fig5"]])
def test_diverged_training_exits_four(argv, embedding_report, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "build_embedding",
                        lambda p, cfg: replace(embedding_report, diverged=True))
    monkeypatch.setattr(cli, "_calibrated_iapp", lambda p: 40.0)
    (tmp_path / "cfg.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", "out"]) == 4
    assert "training diverged (non-finite loss); no embedding written" in capsys.readouterr().err
    written = [f.name for f in (tmp_path / "out").rglob("*") if f.is_file()]
    assert written == []


def test_approximate_width_one_gives_three_state_embedding(tmp_path):
    cfg = {"width": 1, "epochs": 60, "n_samples": 1500, "i_app": 40.0, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["approximate", "--config", str(cfg_path),
                   "--out", str(tmp_path)])
    assert rc == 0
    residuals = json.loads((tmp_path / "residuals.json").read_text())
    # lifted state is the stacked hidden layers: 3 nets x 1 unit
    assert residuals["state_dim"] == 3
    assert residuals["units"] == 3
    assert len(residuals["channel_rms_pct_of_range"]) == 3
    emb = json.loads((tmp_path / "embedding.json").read_text())
    assert emb["n_phys"] == 2
    for name in cli.CHANNEL_NAMES:
        assert (tmp_path / f"net_{name}.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "embedding.json" in manifest["outputs"]
    assert manifest["calibrated"] == {"i_app": 40.0, "v2": 18.0}
    assert list(manifest["stages"]) == ["calibrate_s", "fit_s", "write_s"]
    assert all(seconds >= 0.0 for seconds in manifest["stages"].values())
    assert manifest["wall_time_s"] >= sum(manifest["stages"].values())


def test_approximate_writes_per_epoch_loss_curves(tmp_path):
    cfg = {"width": 2, "epochs": 7, "n_samples": 500, "i_app": 40.0, "seed": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["approximate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "loss.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "leak", "calcium", "potassium"]
    assert [r[0] for r in rows[1:]] == [str(e) for e in range(1, 8)]
    report = build_embedding(ml.MorrisLecarParams(),
                             EmbeddingConfig(hidden=2, epochs=7, n_samples=500,
                                             i_app=40.0, seed=2))
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float)[:, 1:],
                                  report.loss_histories.T)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "loss.csv" in manifest["outputs"]


def test_certify_consumes_embedding_file(tmp_path):
    # a tiny width-1 embedding: embed gives it an orthogonal C, so certify
    # takes it without any exemption from the hypothesis C^T C = I
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"width": 1, "epochs": 40, "n_samples": 800, "i_app": 40.0}))
    assert cli.main(["approximate", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
    rc = cli.main(["certify", str(tmp_path / "embedding.json"),
                   "--sigma", "0.85", "--out", str(tmp_path / "cert")])
    assert rc in (0, 1)
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    assert cert["feasible"] == (rc == 0)


# -- reproduce ----------------------------------------------------------------

def test_reproduce_unknown_figure(tmp_path):
    assert cli.main(["reproduce", "fig9", "--out", str(tmp_path)]) == 2


@pytest.fixture
def fresh_calibration_cache():
    cli._calibrated_iapp.cache_clear()
    yield
    cli._calibrated_iapp.cache_clear()


def test_reproduce_calibrates_once_per_process(monkeypatch, tmp_path, fresh_calibration_cache):
    calls = []

    def counted_calibrate(p, *args, **kwargs):
        calls.append(p)
        return 40.0

    def flat_path(p, x0, cfg, sigma=0.0, noise_mode="state", path_index=0):
        return SdePath(times=np.zeros(1), states=np.zeros((1, 2)), seed=cfg.seed, sigma=sigma)

    monkeypatch.setattr(ml, "calibrate_iapp", counted_calibrate)
    monkeypatch.setattr(ml, "simulate_ml", flat_path)
    for k in range(3):
        assert cli.main(["reproduce", "fig3", "--out", str(tmp_path / str(k))]) == 0
        manifest = json.loads((tmp_path / str(k) / "fig3" / "manifest.json").read_text())
        assert manifest["calibrated"]["i_app"] == 40.0
    assert len(calls) == 1
    # other parameters are another calibration
    cli._resolve_iapp(ml.MorrisLecarParams(g_ca=4.4), "calibrate")
    assert len(calls) == 2


def _stub_simulation(monkeypatch, diverging_sigma=None):
    """Calibration returns 40; simulate_ml returns three samples, cut after
    t = 0.05 on the path whose sigma is diverging_sigma."""
    def stub_path(p, x0, cfg, sigma=0.0, noise_mode="state", path_index=0):
        rows = 2 if sigma == diverging_sigma else 3
        return SdePath(times=np.arange(rows) * 0.05, states=np.zeros((rows, 2)),
                       seed=cfg.seed, sigma=sigma, path_index=path_index,
                       diverged=sigma == diverging_sigma)

    monkeypatch.setattr(ml, "calibrate_iapp", lambda p, *args, **kwargs: 40.0)
    monkeypatch.setattr(ml, "simulate_ml", stub_path)


# fig4 filters its noisy path; fig3 takes no window
FIG_WINDOW = {"fig3": [], "fig4": ["--filter-window", "1"]}


@pytest.mark.parametrize("figure, sigma", [("fig3", 0.0), ("fig4", 0.0), ("fig4", 0.85)])
def test_reproduce_divergence_names_the_path(figure, sigma, monkeypatch, tmp_path, capsys,
                                             fresh_calibration_cache):
    _stub_simulation(monkeypatch, diverging_sigma=sigma)
    assert cli.main(["reproduce", figure, "--out", str(tmp_path),
                     *FIG_WINDOW[figure]]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"path 0 (sigma={sigma:g}) diverged: the state went non-finite "
                   "after t=0.05, its last finite sample; the written trajectory ends there"]


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_reproduce_manifest_records_stage_timings(figure, monkeypatch, tmp_path, capsys,
                                                  fresh_calibration_cache):
    _stub_simulation(monkeypatch)
    assert cli.main(["reproduce", figure, "--out", str(tmp_path),
                     *FIG_WINDOW[figure]]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / figure / "manifest.json").read_text())
    assert list(manifest["stages"]) == ["calibrate_s", "simulate_s", "write_s"]
    assert all(seconds >= 0.0 for seconds in manifest["stages"].values())
    assert manifest["wall_time_s"] >= sum(manifest["stages"].values())


@pytest.mark.parametrize("config, reproduced", [
    ({"sigma": 0.0, "seed": 0}, ["fig3/traj.csv", "fig4/traj_sigma0.csv"]),
    ({"sigma": 0.85, "noise_mode": "state", "seed": 11, "filter_window": 101},
     ["fig4/traj_sigma085.csv"]),
])
def test_reproduce_trajectories_are_simulate_runs(config, reproduced, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "ml", **config}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == 0
    expected = (tmp_path / "sim" / "traj.csv").read_bytes()
    for name in reproduced:
        assert cli.main(["reproduce", name.split("/")[0], "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / name).read_bytes() == expected, name


def test_reproduce_fig5_artifacts_are_the_commands_artifacts(embedding_report, monkeypatch,
                                                              tmp_path, capsys):
    monkeypatch.setattr(cli, "build_embedding", lambda p, cfg: embedding_report)
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text("{}")
    assert cli.main(["approximate", "--config", str(cfg_path), "--seed", "7",
                     "--out", str(tmp_path / "fit")]) == 0
    embedding = str(tmp_path / "fit" / "embedding.json")
    assert cli.main(["sweep", embedding, "--sigma", "0.2:2:0.2",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert cli.main(["certify", embedding, "--sigma", "0.85",
                     "--out", str(tmp_path / "cert")]) in (0, 1)
    commands = capsys.readouterr().out
    assert cli.main(["reproduce", "fig5", "--out", str(tmp_path / "rep")]) == 0
    assert capsys.readouterr().out == commands
    rep = tmp_path / "rep" / "fig5"
    manifest = json.loads((rep / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"calibrate_s", "fit_s", "write_s", "sweep_s", "certify_s"}
    assert sorted(manifest["outputs"]) == sorted(
        f.name for f in rep.iterdir() if f.name != "manifest.json")
    for name in manifest["outputs"]:
        command = next(d for d in ("fit", "sweep", "cert") if (tmp_path / d / name).is_file())
        assert (rep / name).read_bytes() == (tmp_path / command / name).read_bytes(), name


def test_certify_rejects_an_unlifted_embedding_file(embedding_report, tmp_path, capsys):
    # an embedding file written before embed lifted its output basis: C = [D 0]
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(parent_layout_doc(embedding_report.embedding)))
    rc = cli.main(["certify", str(path), "--sigma", "0.85", "--out", str(tmp_path / "cert")])
    assert rc == 2
    assert f"bad system file {path}: 'lift'" in capsys.readouterr().err
    assert not (tmp_path / "cert" / "certificate.json").exists()


def test_usage_errors_return_two():
    assert cli.main([]) == 2
    assert cli.main(["certify"]) == 2
    assert cli.main(["reproduce"]) == 2
    assert cli.main(["reproduce", "fig9"]) == 2
    assert cli.main(["sweep", "x.json"]) == 2
    assert cli.main(["--version"]) == 0


def test_parser_holds_the_defaults():
    parse = cli.build_parser().parse_args
    assert [parse(["reproduce", fig]).seed for fig in ("fig3", "fig4", "fig5")] == [0, 11, 7]
    assert parse(["reproduce", "fig4"]).filter_window == 101
    fig5 = parse(["reproduce", "fig5"])
    assert fig5.jobs == 1
    assert fig5.sigma.tobytes() == np.arange(0.2, 2.0001, 0.2).tobytes()
    assert parse(["sweep", "s.json", "--sigma", "0.5:0.5:0.1"]).nu_grid is None
    assert parse(["certify", "s.json"]).nu_grid is None


def test_the_benchmark_sweep_argv_runs(scalar_files, tmp_path):
    # the argv perfbench's neuron_pipeline passes to cli.main
    good, _ = scalar_files
    assert cli.main(["sweep", str(good), "--sigma", "0.85:0.85:0.1", "--nu-grid", "0.45:0.5:0.05",
                     "--jobs", "2", "--seed", "1341", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["sigma"]), r["feasible"]) for r in rows] == [(0.85, "1")]
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["nu_grid"] == [0.45, 0.5]


@pytest.mark.parametrize("argv", [["sweep", "x.json", "--sigma", "0.2:0.6:0.2", "--jobs", "0"],
                                  ["sweep", "x.json", "--sigma", "0.2:0.6:0.2", "--jobs", "-3"],
                                  ["reproduce", "fig5", "--jobs", "0"]])
def test_jobs_below_one_is_a_usage_error(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert f"argument --jobs: want an integer >= 1, got '{argv[-1]}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["certify", "system.json", "--seed", "1"],
    ["certify", "system.json", "--jobs", "2"],
    ["simulate", "--config", "cfg.json", "--jobs", "2"],
    ["approximate", "--config", "cfg.json", "--jobs", "2"],
])
def test_flags_that_did_nothing_are_gone(argv, capsys):
    assert cli.main(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("figure, flags, unread, takes", [
    ("fig3", ["--filter-window", "4", "--sigma", "nonsense", "--jobs", "9"],
     "--filter-window, --sigma, --jobs", "--seed, --out"),
    ("fig4", ["--sigma", "0.5:0.5:0.1"], "--sigma", "--seed, --out, --filter-window"),
    ("fig4", ["--jobs", "1"], "--jobs", "--seed, --out, --filter-window"),
    ("fig5", ["--filter-window", "101"], "--filter-window", "--seed, --out, --sigma, --jobs"),
])
def test_reproduce_rejects_flags_its_figure_does_not_read(figure, flags, unread, takes,
                                                          tmp_path, capsys):
    assert cli.main(["reproduce", figure, "--out", str(tmp_path), *flags]) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / figure).exists()
    # the figure's --help lists the flags it takes, and no flag it does not read
    assert cli.main(["reproduce", figure, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert sorted(re.findall(r"\[(--[\w-]+)", usage)) == sorted(takes.split(", "))
    assert not any(flag in usage for flag in unread.split(", "))
