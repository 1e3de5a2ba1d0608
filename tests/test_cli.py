"""Command line driver: artifacts, exit codes, determinism."""
import csv
import json
from pathlib import Path

import pytest

from kppwaves import cli
from kppwaves.cli import main
from kppwaves.io import fmt

BASE_CFG = {
    "model": {"m": 2, "p": 2, "q": 1},
    "speeds": [-3, -1, 1],
    "pde": {"n_cells": 600, "T": 0.5, "snapshot_times": [0.25, 0.5]},
    "sweep": {"c_min": -3.0, "c_max": -0.5, "step": 0.25},
}


def write_cfg(path: Path, **overrides) -> Path:
    cfg = {**BASE_CFG, **overrides}
    p = path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One fully populated output directory shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = write_cfg(root, output_dir=str(out))
    for cmd in ("analyze", "shoot", "pde", "sweep"):
        assert main([cmd, "--config", str(cfg)]) == 0
    return root, out


# --- analyze ---------------------------------------------------------------------

def test_analyze_report(workspace):
    _, out = workspace
    rep = json.loads((out / "report.json").read_text())
    assert rep["regime"] == "CaseI"
    assert rep["critical_speed"] == pytest.approx(2.0)
    assert rep["canonical"] == {"m": 2.0, "p": 2.0, "q": 1.0}
    by_c = {row["c"]: row for row in rep["speeds"]}
    assert by_c[-1.0]["mirrored_to"] == 1.0
    assert by_c[-1.0]["predicted_class"] == "Oscillatory"
    fps = {fp["name"]: fp for fp in by_c[-1.0]["fixed_points"]}
    assert fps["P2"]["kind"] == "StableFocus"
    assert by_c[1.0]["predicted_class"] == "None"


def test_analyze_reports_case_ii(tmp_path):
    cfg = write_cfg(tmp_path, model={"m": 1, "p": 2, "q": 1},
                    output_dir=str(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["regime"] == "CaseII"


def test_analyze_handles_general_model(tmp_path):
    cfg = write_cfg(tmp_path,
                    model={"kappa": 4, "alpha": 1, "beta": 1, "m": 1, "p": 2, "q": 1},
                    output_dir=str(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["scaling"]["a"] == pytest.approx(2.0)


# --- shoot ------------------------------------------------------------------------

def test_shoot_classification_and_artifacts(workspace):
    _, out = workspace
    rows = json.loads((out / "classification.json").read_text())
    by_c = {row["c"]: row for row in rows}
    assert by_c[-3.0]["observed_class"] == "Monotone"
    assert by_c[-1.0]["observed_class"] == "Oscillatory"
    assert by_c[-1.0]["n_oscillations"] >= 3
    assert by_c[1.0]["observed_class"] == "None"
    assert by_c[1.0].get("profile_file") is None
    for c in (-3.0, -1.0):
        assert (out / by_c[c]["profile_file"]).exists()
        assert (out / by_c[c]["trajectory_file"]).exists()
    assert not (out / "profile_c1.csv").exists()


def test_shoot_profile_csv_round_trips(workspace):
    _, out = workspace
    with (out / "profile_c-3.csv").open() as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        rows = list(rdr)
    assert header == ["xi", "f"]
    f = [float(r[1]) for r in rows]
    assert max(f) <= 1.0 + 1e-9 and min(f) >= 0.0


def test_shoot_with_no_speeds_is_a_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, speeds=[], output_dir=str(tmp_path / "out"))
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert "no speeds" in capsys.readouterr().err.lower()


def test_shoot_refuses_non_finite_profile(tmp_path):
    # c = -0.05 c* for this model: the reconstruction overflows (see
    # test_non_finite_profile_is_inconclusive)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, model={"m": 0.72, "p": 3.741, "q": 1.286},
                    speeds=[-0.156684396159924], output_dir=str(out))
    assert main(["shoot", "--config", str(cfg)]) == 3
    rows = json.loads((out / "classification.json").read_text())
    assert rows[0]["error_kind"] == "InconclusiveError"
    assert "profile_file" not in rows[0]
    assert not list(out.glob("profile_c*.csv"))


def test_speeds_sharing_a_file_label_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-1.0, -1.0000001], output_dir=str(out))
    assert main(["shoot", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "speeds[1]" in err and "'-1'" in err
    assert not out.exists()


def test_shoot_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_cfg(tmp_path, output_dir=str(out1))
    assert main(["shoot", "--config", str(cfg1)]) == 0
    assert main(["shoot", "--config", str(cfg1), "--out", str(out2)]) == 0
    for name in ("classification.json", "profile_c-1.csv", "trajectory_c-3.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- pde ---------------------------------------------------------------------------

def test_pde_summary(workspace):
    _, out = workspace
    rows = json.loads((out / "pde_summary.json").read_text())
    by_c = {row["c"]: row for row in rows}
    assert by_c[-3.0]["measured_speed"] == pytest.approx(-3.0, rel=0.02)
    assert by_c[-3.0]["max_error"] < 0.02
    assert by_c[-1.0]["measured_speed"] == pytest.approx(-1.0, rel=0.02)
    assert by_c[1.0]["skipped"]          # no wave there, nothing to advect
    assert (out / "front_c-3.csv").exists()
    for t in ("0.25", "0.5"):
        assert (out / f"snapshot_c-3_t{t}.csv").exists()
    for c in (-3.0, -1.0):
        row = by_c[c]
        # the track holds the initial record plus one per step
        with open(out / row["front_file"]) as fh:
            assert row["steps"] == len(list(csv.reader(fh))) - 2
        assert 0.0 < row["dt_min"] <= row["dt_max"]
        assert -1e-12 <= row["min_before_clamp"] <= 1.0


def test_pde_csv_text_matches_fmt(tmp_path, monkeypatch):
    # a record without a front is written "nan", and every field is the
    # text io.fmt gives for its value
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out),
                    pde={"n_cells": 200, "T": 0.1, "snapshot_times": [0.1]})
    assert main(["shoot", "--config", str(cfg)]) == 0
    real, calls = cli.pde.front_position, []

    def front_lost_once(x, u, level):
        calls.append(level)
        return None if len(calls) == 3 else real(x, u, level)

    monkeypatch.setattr(cli.pde, "front_position", front_lost_once)
    assert main(["pde", "--config", str(cfg)]) == 0
    for name in ("front_c-3.csv", "snapshot_c-3_t0.1.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(v == fmt(float(v)) for row in rows for v in row)
    with open(out / "front_c-3.csv") as fh:
        assert list(csv.reader(fh))[3][1] == "nan"


def test_pde_without_profiles_fails_loudly(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out))
    assert main(["pde", "--config", str(cfg)]) == 3
    rows = json.loads((out / "pde_summary.json").read_text())
    assert rows[0]["error_kind"] == "MissingArtifactError"
    assert "profile_c-3.csv" in rows[0]["error"]


def test_pde_zero_horizon(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out),
                    pde={"n_cells": 400, "T": 0.0})
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert main(["pde", "--config", str(cfg)]) == 0
    rows = json.loads((out / "pde_summary.json").read_text())
    assert rows[0]["max_error"] == 0.0
    assert rows[0]["measured_speed"] is None
    assert rows[0]["steps"] == 0
    assert rows[0]["dt_min"] is rows[0]["dt_max"] is rows[0]["min_before_clamp"] is None


# --- sweep --------------------------------------------------------------------------

def test_sweep_table(workspace):
    _, out = workspace
    with (out / "sweep.csv").open() as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        rows = list(rdr)
    assert header == ["c", "predicted_class", "observed_class", "X0",
                      "n_oscillations", "agreement_flag"]
    cs = [float(r[0]) for r in rows]
    assert cs == sorted(cs)
    assert cs[0] == -3.0 and cs[-1] == -0.5
    by_c = {float(r[0]): r for r in rows}
    assert by_c[-2.0][5] == "low_confidence"
    assert by_c[-1.0][1:3] == ["Oscillatory", "Oscillatory"]
    assert by_c[-2.5][5] == "agree"
    # oscillatory rows carry the measured first overshoot
    assert float(by_c[-1.0][3]) > 1.0


def test_sweep_json_format(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, output_dir=str(out))
    assert main(["sweep", "--config", str(cfg), "--format", "json"]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert not (out / "sweep.csv").exists()
    assert {row["c"] for row in rows} >= {-3.0, -2.0, -0.5}


def test_sweep_jobs_do_not_change_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, output_dir=str(out1))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_jobs_are_capped(tmp_path, monkeypatch):
    # a recorder stands in for the pool, so no worker process starts
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, output_dir=str(out1))
    assert main(["sweep", "--config", str(cfg)]) == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "10000"]) == 0
    assert seen == [4]
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_explicit_speeds_all_positive(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[0.5, 1.0], output_dir=str(out))
    cfg_data = json.loads(cfg.read_text())
    del cfg_data["sweep"]
    cfg.write_text(json.dumps(cfg_data))
    assert main(["sweep", "--config", str(cfg)]) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(r[2] == "None" and r[5] == "agree" for r in rows)


# --- config handling -----------------------------------------------------------------

def test_effective_config_reproduces_results(workspace):
    root, out = workspace
    rep1 = (out / "report.json").read_bytes()
    out2 = root / "out2"
    assert main(["analyze", "--config", str(out / "effective_config.json"),
                 "--out", str(out2)]) == 0
    assert (out2 / "report.json").read_bytes() == rep1


def test_unsupported_model_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, model={"m": 1, "p": 1, "q": 2},
                    output_dir=str(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "p > q" in capsys.readouterr().err


def test_bad_cfl_is_a_config_error(tmp_path):
    cfg = write_cfg(tmp_path, pde={"n_cells": 100, "T": 1.0, "cfl": 0.95},
                    output_dir=str(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), typo_field=1)
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_jobs_value(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["sweep", "--config", str(cfg), "--jobs", "0"]) == 2


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("KPPWAVES_LOG", "DEBUG")
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg)]) == 0


def test_parse_config_guards():
    import kppwaves as kw
    with pytest.raises(kw.ConfigError):
        kw.parse_config({**BASE_CFG, "sweep": {"c_min": -1e6, "c_max": 0.0, "step": 1e-3}})
    with pytest.raises(kw.ConfigError):
        kw.parse_config({**BASE_CFG, "ode_tolerances": [0.0, 1e-8]})
    with pytest.raises(kw.ConfigError):
        kw.parse_config({**BASE_CFG, "seed_eps": 0.5})
    with pytest.raises(kw.ConfigError):
        kw.parse_config({**BASE_CFG, "speeds": [float("inf")]})


def test_config_round_trips_through_dict():
    import kppwaves as kw
    from kppwaves.config import config_to_dict
    cfg = kw.parse_config(BASE_CFG)
    assert kw.parse_config(config_to_dict(cfg)) == cfg
