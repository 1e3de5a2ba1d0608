"""Command line driver: artifacts, exit codes, determinism."""
import copy
import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kppwaves import (CanonicalModel, EventKind, InconclusiveError, InvalidParameterError,
                      SpeedClass, classify_connection, cli, connect)
from kppwaves.cli import main
from kppwaves.io import (CSV_CHUNK_ROWS, FLOAT_FORMAT, read_profile_csv, write_float_csv,
                         write_profile_csv)

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_shoot_rows_carry_shot_diagnostics(workspace):
    _, out = workspace
    by_c = {row["c"]: row for row in json.loads((out / "classification.json").read_text())}
    for c, evidence in ((-3.0, "range"), (-1.0, "extrema")):
        row = by_c[c]
        assert row["evidence"] == evidence
        assert all(type(row[k]) is int and row[k] > 0 for k in ("solver_steps", "nfev"))
        assert row["nfev"] >= row["solver_steps"] >= len(row["events"])
        assert type(row["njev"]) is int and row["njev"] >= 0
        counts = row["event_counts"]
        assert set(counts) == {kind.value for kind in EventKind}
        assert all(type(n) is int for n in counts.values())
        assert sum(counts.values()) == len(row["events"])
        assert counts["XAxisCross"] >= row["n_oscillations"] - row["tail_extrema"]
        for kind in EventKind:
            assert counts[kind.value] == sum(ev["kind"] == kind.value for ev in row["events"])
    assert by_c[1.0]["evidence"] == "sign"
    assert (by_c[1.0]["solver_steps"], by_c[1.0]["nfev"], by_c[1.0]["njev"]) == (0, 0, 0)
    assert set(by_c[1.0]["event_counts"].values()) == {0}


def test_shoot_csv_text_matches_fmt(workspace):
    _, out = workspace
    for name in ("trajectory_c-1.csv", "profile_c-1.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(v == FLOAT_FORMAT % float(v) for row in rows for v in row)


def test_profile_csv_text_matches_fmt(tmp_path):
    xi = [0.1, 1.0 / 3.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 2.0]
    f = [5e-324, 1.0, 0.0, 0.5, float("nan"), -0.0, 123456789.125, float("inf")]
    want = ("xi,f\n0.1,4.94065645841e-324\n0.333333333333,1\n-0,0\nnan,0.5\n"
            "inf,nan\n-inf,-0\n1e-300,123456789.125\n2,inf\n")
    assert want == "xi,f\n" + "".join(f"{FLOAT_FORMAT % a},{FLOAT_FORMAT % b}\n"
                                      for a, b in zip(xi, f))
    for args in ((xi, f), (np.array(xi), np.array(f))):
        write_profile_csv(tmp_path / "p.csv", *args)
        assert (tmp_path / "p.csv").read_text() == want


def test_float_csv_matches_csv_writer(tmp_path):
    # the all-float tables skip csv.writer; their bytes must stay its bytes
    third = 1.0 / 3.0
    cols = ([0.1 + 0.2, -0.0, float("nan"), third, 1e-300, float("-inf")],
            [2.0 / 3.0, 0.0, -0.0, 123456789.12345678, float("nan"), 5e-324],
            [-1.7976931348623157e308, 0.30000000000000004, third * 3.0, -0.0, 7.0, 1e22])
    # values that repr writes in 17 digits are rounded to 12
    assert any(len(repr(v).lstrip("-").replace(".", "")) >= 17 for v in cols[0] + cols[1])
    assert FLOAT_FORMAT % cols[1][3] == "123456789.123"
    for header, data in ((["a", "b", "c"], cols), (["xi", "f"], cols[:2]),
                         (["t", "x_front"], ([], []))):
        want_path = tmp_path / "want.csv"
        with open(want_path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in zip(*data):
                w.writerow([FLOAT_FORMAT % v for v in row])
        write_float_csv(tmp_path / "got.csv", header, data)
        assert (tmp_path / "got.csv").read_bytes() == want_path.read_bytes()
    for args in (cols[:2], [np.array(c) for c in cols[:2]]):
        write_profile_csv(tmp_path / "p.csv", *args)
        with open(tmp_path / "p.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["xi", "f"]] + [
                [FLOAT_FORMAT % a, FLOAT_FORMAT % b] for a, b in zip(*cols[:2])]


# NaN, the infinities, signed zeros, subnormals, the points where repr
# switches between positional and exponent form and those where %.12g does
_CSV_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.225073858507201e-308, 2.2250738585072014e-308, 1e-5, 1e-4,
               9.999999999999999e-05, 1e16, 9999999999999998.0, 1e17, 0.1, 1.0 / 3.0,
               1e12, 999999999999.4, 999999999999.5, 1.7976931348623157e308]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
       extra=st.lists(st.floats(), max_size=8))
@example(k=3, n=CSV_CHUNK_ROWS, seed=1, extra=[]).via("one whole chunk")
@example(k=2, n=2 * CSV_CHUNK_ROWS + 1, seed=2, extra=[]).via("a one-row last chunk")
def test_float_csv_is_csv_writer_on_any_floats(tmp_path_factory, k, n, seed, extra):
    # each value is a random bit pattern, a float of random magnitude or one
    # of the special values; columns come as arrays or as lists
    rng = np.random.default_rng(seed)
    pool = np.array(_CSV_FLOATS + extra)
    pick = rng.integers(0, 3, (k, n))
    bits = rng.integers(0, 2 ** 64, (k, n), dtype=np.uint64).view(float)
    scaled = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-20, 20, (k, n))
    data = np.where(pick == 0, bits,
                    np.where(pick == 1, scaled, pool[rng.integers(0, len(pool), (k, n))]))
    header = ["a", "b", "c"][:k]
    cols = list(data) if seed % 2 else [c.tolist() for c in data]
    want = tmp_path_factory.mktemp("csv") / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in data.T.tolist():
            w.writerow([FLOAT_FORMAT % v for v in row])
    write_float_csv(want.with_name("got.csv"), header, cols)
    assert want.with_name("got.csv").read_bytes() == want.read_bytes()


def test_float_csv_refuses_mismatched_columns(tmp_path):
    # a missing column is not padded, and unequal columns do not truncate
    # the file they would have replaced
    path = tmp_path / "t.csv"
    with pytest.raises(InvalidParameterError, match="3 columns"):
        write_float_csv(path, ["a", "b", "c"], ([1.0, 2.0], [3.0, 4.0]))
    assert not path.exists()
    write_float_csv(path, ["a", "b"], ([1.0], [2.0]))
    before = path.read_bytes()
    for cols in (([1.0, 2.0], [3.0]), ([1.0], [2.0], [3.0]), ([[1.0]], [[2.0]])):
        with pytest.raises(InvalidParameterError):
            write_float_csv(path, ["a", "b"], cols)
        assert path.read_bytes() == before


def _cli_shot(cm, c):
    """The shot cmd_shoot makes at speed c, under the default ODE tolerances."""
    return classify_connection(cm, c, eps=1e-6, rtol=1e-10, atol=1e-10, profile_of=cm)


def test_shoot_files_hold_the_shot_to_the_format_bound(workspace):
    # a profile read back from its file is the one in memory to half a unit
    # in FLOAT_FORMAT's last digit, plus the read's rounding to a double;
    # rounding merges no two samples of xi or tau
    _, out = workspace
    digits = int(FLOAT_FORMAT.strip("%.g"))
    half_unit = 0.5 * 10.0 ** (1 - digits)
    assert half_unit == 5e-12
    cm = CanonicalModel(m=2, p=2, q=1)
    rows = json.loads((out / "classification.json").read_text())
    shot = [row for row in rows if row.get("profile_file")]
    assert [row["c"] for row in shot] == [-3.0, -1.0]
    for row in shot:
        traj = _cli_shot(cm, row["c"]).trajectory
        prof = connect.reconstruct_profile(traj)
        xi, f = read_profile_csv(out / row["profile_file"])
        for got, want in ((xi, prof.xi), (f, prof.f)):
            assert got.shape == want.shape
            bound = half_unit * np.abs(want) + np.spacing(np.abs(want)) / 2
            assert np.all(np.abs(got - want) <= bound)
        tau = np.loadtxt(out / row["trajectory_file"], delimiter=",", skiprows=1, usecols=0)
        assert len(tau) == len(traj.tau)
        assert np.all(np.diff(xi) > 0.0) and np.all(np.diff(tau) > 0.0)


def test_shoot_profile_csv_round_trips(workspace):
    _, out = workspace
    with (out / "profile_c-3.csv").open() as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        rows = list(rdr)
    assert header == ["xi", "f"]
    f = [float(r[1]) for r in rows]
    assert max(f) <= 1.0 + 1e-9 and min(f) >= 0.0


def test_shoot_with_no_speeds_is_a_warning(tmp_path):
    # a process of its own, so the log handler main installs writes to the
    # stderr captured here: the warning must reach it exactly once
    cfg = write_cfg(tmp_path, speeds=[], output_dir=str(tmp_path / "out"))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "kppwaves.cli", "shoot", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr.lower().count("no speeds configured") == 1, proc.stderr


def test_shoot_refuses_non_finite_profile(tmp_path):
    # c = -0.05 c* for this model: the reconstruction overflows (see
    # test_non_finite_profile_is_inconclusive)
    out = tmp_path / "out"
    model, c = {"m": 0.72, "p": 3.741, "q": 1.286}, -0.156684396159924
    cfg = write_cfg(tmp_path, model=model, speeds=[c], output_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["shoot", "--config", str(cfg)]) == 3
    rows = json.loads((out / "classification.json").read_text())
    assert rows[0]["error_kind"] == "InconclusiveError"
    # the row keeps its class, the one the shot without xi gives
    observed = classify_connection(CanonicalModel(**model), c).observed
    assert rows[0]["observed_class"] == observed.value
    assert "profile_file" not in rows[0]
    assert not list(out.glob("profile_c*.csv"))


def test_speeds_sharing_a_file_label_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-1.0, -1.0000001], output_dir=str(out))
    assert main(["shoot", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "speeds[1]" in err and "'-1'" in err
    assert not out.exists()


def test_snapshot_times_sharing_a_file_label_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out),
                    pde={"n_cells": 200, "T": 1.0, "snapshot_times": [0.5, 0.50000001]})
    assert main(["pde", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "pde.snapshot_times[1]" in err and "'0.5'" in err
    assert not out.exists()


def test_trajectory_file_puts_tau_zero_at_p2(workspace):
    # the shot runs from tau = 0 at its P0 seed; its files present the same
    # samples and events shifted by the end time T, so tau = 0 at P2
    _, out = workspace
    by_c = {row["c"]: row for row in json.loads((out / "classification.json").read_text())}
    cm = CanonicalModel(m=2, p=2, q=1)
    for c in (-3.0, -1.0):
        traj = _cli_shot(cm, c).trajectory
        T = float(traj.tau[-1])
        with open(out / by_c[c]["trajectory_file"]) as fh:
            tau = np.array([float(r[0]) for r in list(csv.reader(fh))[1:]])
        assert tau[-1] == 0.0 and tau[0] == float(FLOAT_FORMAT % -T) < 0.0
        assert tau.tolist() == [float(FLOAT_FORMAT % v) for v in traj.tau - T]
        assert [ev["tau"] for ev in by_c[c]["events"]] == [ev.tau - T for ev in traj.events]


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
        assert isinstance(row["limiter_clips"], int) and row["limiter_clips"] >= 0
        # m = 2: the extrapolated diffusivity changes the matrix every step
        assert row["factorizations"] == row["steps"]


def test_pde_summary_counts_limiter_clips_deterministically(tmp_path):
    # the sub-linear sink of (1,1,0.5) meets the compactly supported tail;
    # a second pde run over the same profile writes the same summary
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, model={"m": 1, "p": 1, "q": 0.5}, speeds=[-3],
                    output_dir=str(out), pde={"n_cells": 400, "T": 0.5})
    assert main(["shoot", "--config", str(cfg)]) == 0
    summaries = []
    for _ in range(2):
        assert main(["pde", "--config", str(cfg)]) == 0
        summaries.append((out / "pde_summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    [row] = json.loads(summaries[0])
    assert row["limiter_clips"] > 0
    # the sink empties tail nodes faster than SBDF2 can follow them
    # positively, so the positivity rule switches some of them to BE
    assert row["positivity_fallbacks"] > 0
    # a step with a switched row factors its mixed-lead matrix afresh
    assert 1 <= row["factorizations"] <= row["steps"]


def test_pde_summary_has_no_positivity_fallbacks_for_a_linear_sink(tmp_path):
    # (1,2,1): the linear sink -u cannot drain a node within a step (dt < 1),
    # and no node of this smooth front loses 3/4 of its value in one step, so
    # every SBDF2 right-hand side stays non-negative and no BE one is clamped
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, model={"m": 1, "p": 2, "q": 1}, speeds=[-3],
                    output_dir=str(out), pde={"n_cells": 400, "T": 0.5})
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert main(["pde", "--config", str(cfg)]) == 0
    [row] = json.loads((out / "pde_summary.json").read_text())
    assert row["steps"] > 10
    assert row["positivity_fallbacks"] == row["limiter_clips"] == 0
    # m = 1 with no switched row: the full step factors once per lead (1 at
    # the start, 3/2 after it) and the last step, landing on T, once more
    assert 2 <= row["factorizations"] <= 3


def test_pde_csv_text_matches_fmt(tmp_path, monkeypatch):
    # a record without a front is written "nan", and every field is the
    # text io.FLOAT_FORMAT gives for its value
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out),
                    pde={"n_cells": 200, "T": 0.1, "snapshot_times": [0.1]})
    assert main(["shoot", "--config", str(cfg)]) == 0
    real, calls = cli.pde.front_position, []

    def front_lost_once(x, u, level, *work):
        calls.append(level)
        return None if len(calls) == 3 else real(x, u, level, *work)

    monkeypatch.setattr(cli.pde, "front_position", front_lost_once)
    assert main(["pde", "--config", str(cfg)]) == 0
    for name in ("front_c-3.csv", "snapshot_c-3_t0.1.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(v == FLOAT_FORMAT % float(v) for row in rows for v in row)
    with open(out / "front_c-3.csv") as fh:
        assert list(csv.reader(fh))[3][1] == "nan"


def test_pde_without_profiles_fails_loudly(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out))
    assert main(["pde", "--config", str(cfg)]) == 3
    rows = json.loads((out / "pde_summary.json").read_text())
    assert rows[0]["error_kind"] == "MissingArtifactError"
    assert "profile_c-3.csv" in rows[0]["error"]


def test_pde_needs_no_classification_file(tmp_path):
    # whether a speed carries a wave is the sign of c: the pde stage reads
    # the profiles alone, and writes the same summary without the shoot
    # stage's classification.json
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3, 1], output_dir=str(out),
                    pde={"n_cells": 200, "T": 0.1})
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert main(["pde", "--config", str(cfg)]) == 0
    with_file = (out / "pde_summary.json").read_bytes()
    (out / "classification.json").unlink()
    assert main(["pde", "--config", str(cfg)]) == 0
    assert (out / "pde_summary.json").read_bytes() == with_file


def test_pde_skips_waveless_speeds_without_a_shoot_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[0, 1], output_dir=str(out))
    assert main(["pde", "--config", str(cfg)]) == 0
    rows = json.loads((out / "pde_summary.json").read_text())
    assert [r["c"] for r in rows] == [0.0, 1.0]
    assert all(r["skipped"] == "no wave at this speed; nothing to advect" for r in rows)


def test_pde_domain_too_small_suggests_one(tmp_path):
    # at c = -3 over T = 1 the front would end near x = -3, within the ten
    # guard cells (0.26) of x_min = -3.2; the row names a domain padded by
    # the motion and by half the span on either side
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out),
                    pde={"n_cells": 200, "T": 1.0, "x_min": -3.2, "x_max": 2.0})
    assert main(["shoot", "--config", str(cfg)]) == 0
    assert main(["pde", "--config", str(cfg)]) == 3
    rows = json.loads((out / "pde_summary.json").read_text())
    assert rows[0]["error_kind"] == "DomainTooSmallError"
    assert rows[0]["suggested_domain"] == pytest.approx([-8.8, 4.6], abs=1e-12)


@pytest.mark.parametrize("text, reason", [
    ("xi,f\n", "0 profile rows"),
    ("xi,f\n-1.0,1.0\n0.0,abc\n1.0,0.0\n", "malformed profile row"),
    ("xi,f\n-1.0,1.0\n0.0,inf\n1.0,0.0\n", "non-finite"),
    ("xi,f\n-1.0,1.0\n1.0,0.0\n0.0,0.5\n", "not strictly increasing"),
], ids=["header-only", "non-numeric", "non-finite", "unsorted-xi"])
def test_pde_refuses_a_bad_profile_file(tmp_path, text, reason):
    out = tmp_path / "out"
    out.mkdir()
    (out / "profile_c-3.csv").write_text(text)
    cfg = write_cfg(tmp_path, speeds=[-3], output_dir=str(out))
    assert main(["pde", "--config", str(cfg)]) == 3
    rows = json.loads((out / "pde_summary.json").read_text())
    assert rows[0]["error_kind"] == "MissingArtifactError"
    assert "profile_c-3.csv" in rows[0]["error"] and reason in rows[0]["error"]


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
    assert (rows[0]["dt_min"] is rows[0]["dt_max"] is rows[0]["min_before_clamp"]
            is rows[0]["limiter_clips"] is rows[0]["positivity_fallbacks"]
            is rows[0]["factorizations"] is None)


def test_general_model_gives_the_bytes_of_its_canonical_form(tmp_path):
    # the CLI hands the shot and the PDE the canonical model, so a general
    # model and its (m, p, q) write the same shoot and pde artifacts
    general = {"kappa": 2.0, "alpha": 1.5, "beta": 0.5, "m": 3.0, "p": 2.5, "q": 1.0}
    outs = []
    for name, model in (("general", general), ("canonical", {"m": 3.0, "p": 2.5, "q": 1.0})):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, model=model, speeds=[-3.5, -1.2], output_dir=str(out),
                        pde={"n_cells": 300, "T": 0.5, "snapshot_times": [0.25, 0.5]})
        assert main(["shoot", "--config", str(cfg)]) == 0
        assert main(["pde", "--config", str(cfg)]) == 0
        outs.append(out)
    patterns = ("profile_c*.csv", "front_c*.csv", "snapshot_c*.csv",
                "classification.json", "pde_summary.json")
    names = sorted(p.name for pat in patterns for p in outs[0].glob(pat))
    assert len(names) == 10   # 2 profiles, 2 fronts, 4 snapshots, 2 summaries
    assert names == sorted(p.name for pat in patterns for p in outs[1].glob(pat))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


def test_one_parser_serves_every_run_of_a_process(tmp_path):
    # main builds its parser once; a run's options do not carry into the
    # next: --format json, then the default csv, then --out's default
    parser = cli._build_parser()
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, output_dir=str(out))
    assert main(["sweep", "--config", str(cfg), "--format", "json",
                 "--out", str(tmp_path / "j")]) == 0
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "j" / "sweep.json").exists() and not (tmp_path / "j" / "sweep.csv").exists()
    assert (out / "sweep.csv").exists() and not (out / "sweep.json").exists()
    assert cli._build_parser() is parser


def test_format_is_a_sweep_option_only(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    for cmd in ("analyze", "shoot", "pde"):
        with pytest.raises(SystemExit) as ei:
            main([cmd, "--config", str(cfg), "--format", "json"])
        assert ei.value.code == 2
    assert not (tmp_path / "out").exists()


def test_sweep_json_rows_carry_shot_diagnostics(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, output_dir=str(out), sweep=None, speeds=[-2.5, -1.95, -1.0])
    assert main(["sweep", "--config", str(cfg), "--format", "json"]) == 0
    by_c = {row["c"]: row for row in json.loads((out / "sweep.json").read_text())}
    # the near-threshold row's first overshoot, 1 + 3.7e-8, is within the
    # grazing guard, so it reports zero oscillations on "focus" evidence, as
    # a shot to radius 1e-8 does
    assert (by_c[-1.95]["n_oscillations"], by_c[-1.95]["evidence"]) == (0, "focus")
    assert by_c[-1.0]["evidence"] == "extrema" and by_c[-2.5]["evidence"] == "range"
    # P2's local flow adds the crossings inside the arrival ball
    assert by_c[-1.0]["tail_extrema"] > 0
    assert by_c[-1.95]["tail_extrema"] == by_c[-2.5]["tail_extrema"] == 0
    for row in by_c.values():
        assert row["nfev"] >= row["solver_steps"] > 0 and row["njev"] >= 0


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


def test_sweep_error_row(tmp_path, monkeypatch, caplog):
    # one speed fails: its row keeps the speed, names the error, and is
    # logged like a shoot or pde error row; the other rows are classified
    classify = connect.classify_connection

    def fail_at_minus_one(cm, c, **kw):
        if c == -1.0:
            raise InconclusiveError("no classifiable pattern")
        return classify(cm, c, **kw)

    monkeypatch.setattr(connect, "classify_connection", fail_at_minus_one)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, output_dir=str(out))
    for fmt_kind in ("csv", "json"):
        with caplog.at_level(logging.ERROR, logger="kppwaves.cli"):
            assert main(["sweep", "--config", str(cfg), "--jobs", "1",
                         "--format", fmt_kind]) == 3
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert ["-1.0", "", "Error", "", "", "error"] in rows and len(rows) == 11
    by_c = {row["c"]: row for row in json.loads((out / "sweep.json").read_text())}
    assert by_c[-1.0] == {"c": -1.0, "error": "no classifiable pattern",
                          "error_kind": "InconclusiveError"}
    assert by_c[-1.25]["observed_class"] == "Oscillatory"
    assert [r.getMessage() for r in caplog.records] == [
        "speed -1 failed: no classifiable pattern"] * 2


def test_readme_sweep_rows_are_current(tmp_path):
    # README's example config, run through sweep, writes every row README shows
    text = README.read_text()
    config = re.search(r"Example config:\n\n```json\n(.*?)```", text, re.S).group(1)
    shown = re.search(r"`sweep` writes `sweep\.csv`.*?```\n(.*?)\n *```", text, re.S).group(1)
    shown = [line.strip() for line in shown.splitlines()]
    cfg = tmp_path / "waves.json"
    cfg.write_text(config)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(shown) == 4 and [line for line in shown if line not in written] == []


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


def test_sweep_without_speeds_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, speeds=[], output_dir=str(tmp_path / "out"))
    cfg_data = json.loads(cfg.read_text())
    del cfg_data["sweep"]
    cfg.write_text(json.dumps(cfg_data))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "no speeds to sweep" in capsys.readouterr().err


def _bracket_rows(mono, osc):
    return ([{"c": c, "observed_class": SpeedClass.MONOTONE.value} for c in mono]
            + [{"c": c, "observed_class": SpeedClass.OSCILLATORY.value} for c in osc])


@pytest.mark.parametrize("mono, osc", [([-3.0, -2.5, -1.0], [-0.5]),    # monotone too late
                                       ([-3.5], [-3.0, -1.0])])         # oscillatory too soon
def test_sweep_refuses_a_transition_away_from_minus_c_star(mono, osc):
    # c* = 2 for (2, 2, 1): a boundary that misses -2 by more than one 0.5
    # grid step is refused, and one that brackets it within the step passes
    cm = CanonicalModel(2, 2, 1)
    with pytest.raises(InconclusiveError, match=r"does not bracket -c\* = -2\.0"):
        cli._check_transition_bracket(_bracket_rows(mono, osc), cm, 0.5)
    cli._check_transition_bracket(_bracket_rows([-3.0, -2.5], [-2.0, -1.0]), cm, 0.5)


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


@pytest.mark.parametrize("given, missing", [("x_min", "x_max"), ("x_max", "x_min")])
def test_half_set_pde_domain_is_a_config_error(given, missing):
    # one end of the domain alone would be dropped and the domain sized from
    # the profile instead
    import kppwaves as kw
    with pytest.raises(kw.ConfigError, match=rf"pde\.{missing}"):
        kw.parse_config({**BASE_CFG, "pde": {**BASE_CFG["pde"], given: 0.0}})


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), typo_field=1)
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_directory_is_a_config_error(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path)]) == 2
    assert f"config file {tmp_path}: cannot be read" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"model": {"m": 2, "p": 2, "q": 1}, "output_dir": "\xe9"}'.encode("latin-1"))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert f"config file {cfg}: cannot be read" in capsys.readouterr().err


def test_json_booleans_are_no_numbers(tmp_path, capsys):
    # JSON true and false where a number belongs are refused by field name,
    # not read as 1.0 and 0.0
    for key, value, message in [
            ("ode_tolerances", [True, 1e-10], "ode_tolerances[0]: expected a number"),
            ("speeds", [True], "speeds[0]: expected a number"),
            ("sweep", {"c_min": -3.0, "c_max": False, "step": 0.25},
             "sweep.c_max: expected a number"),
            ("model", {"m": True, "p": 2, "q": 1}, "m must be a number")]:
        cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), **{key: value})
        assert main(["analyze", "--config", str(cfg)]) == 2, key
        assert message in capsys.readouterr().err, key


def test_strings_are_no_numbers(tmp_path, capsys):
    # a number written as a JSON string is refused, not read through float()
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                    model={"m": "2", "p": 2, "q": 1}, speeds=["-1.5", " 3 "],
                    ode_tolerances=["1e-10", 1e-10])
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "error: m must be a number, got '2'" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), speeds=["-1.5"])
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "error: speeds[0]: expected a number, got '-1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("digits, message", [
    (400, "speeds[0]: must be finite"),
    (5000, "cannot be read"),   # past the digits Python converts at all
], ids=["400-digits", "5000-digits"])
def test_huge_json_integers_are_config_errors(tmp_path, capsys, digits, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CFG, "output_dir": str(tmp_path / "out")})
                   .replace('"speeds": [-3', '"speeds": [' + "9" * digits))
    assert main(["analyze", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_model_must_be_an_object(tmp_path, capsys):
    # a model written as a JSON string holding JSON was parsed before
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                    model=json.dumps(BASE_CFG["model"]))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "error: model: expected an object" in capsys.readouterr().err


# every leaf of a valid config, and values that JSON can hold but none of
# those leaves takes
FULL_CFG = {**BASE_CFG, "ode_tolerances": [1e-10, 1e-9], "output_dir": "out",
            "pde": {"x_min": -40.0, "x_max": 40.0, "n_cells": 600, "cfl": 0.5, "T": 0.5,
                    "snapshot_times": [0.25, 0.5]}}


def config_leaves(node, path=()):
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from config_leaves(value, path + (key,))


def field_in_message(path) -> str:
    """How a refusal names the field at ``path``: the model's checks name
    the bare parameter, the config's its dotted and indexed path."""
    if path[0] == "model":
        return f"{path[1]} must be"
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:] + ":"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(list(config_leaves(FULL_CFG))),
       st.sampled_from(["2", True, False, None, [1.0], {"x": 1.0}, 10 ** 400]))
def test_a_wrong_json_value_is_refused_by_its_field(path, value):
    assume(not (path == ("output_dir",) and isinstance(value, str)))
    import kppwaves as kw
    cfg = copy.deepcopy(FULL_CFG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(kw.KppWavesError) as err:
        kw.parse_config(cfg)
    assert field_in_message(path) in str(err.value)


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
        kw.parse_config({**BASE_CFG, "speeds": [float("inf")]})


def test_config_and_shoot_share_the_seed_offset_rules(tmp_path):
    # one offset and one bound, both shoot's: the config sets no offset, the
    # shoot command's profile shots start at DEFAULT_EPS, and shoot takes
    # 1e-2 and refuses the next float above it
    import kppwaves as kw
    cm = CanonicalModel(m=2, p=2, q=1)
    cfg = write_cfg(tmp_path, speeds=[-1], output_dir=str(tmp_path / "out"))
    assert main(["shoot", "--config", str(cfg)]) == 0
    [row] = json.loads((tmp_path / "out" / "classification.json").read_text())
    shot = classify_connection(cm, -1.0, profile_of=cm, eps=connect.DEFAULT_EPS)
    assert (row["solver_steps"], row["nfev"]) == (shot.solver_steps, shot.nfev)
    sys_ = kw.build_system(cm, 1.0)
    assert kw.shoot(sys_, 1e-2).arrived == "P2"
    over = math.nextafter(1e-2, 1.0)
    with pytest.raises(kw.InvalidParameterError, match=r"\(0, 0\.01\]"):
        kw.shoot(sys_, over)


def test_seed_eps_is_no_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output_dir=str(tmp_path / "out"), seed_eps=1e-6)
    assert main(["shoot", "--config", str(cfg)]) == 2
    assert "error: seed_eps: unknown key" in capsys.readouterr().err


def test_sweep_grid_guard_counts_the_grid_it_guards():
    # c_min -100000 to 0 in steps of 1 is 100,001 speeds
    import kppwaves as kw
    with pytest.raises(kw.ConfigError, match="exceed 100000 points"):
        kw.parse_config({**BASE_CFG, "sweep": {"c_min": -100000, "c_max": 0, "step": 1}})
    cfg = kw.parse_config({**BASE_CFG, "sweep": {"c_min": -99999, "c_max": 0, "step": 1}})
    assert cfg.sweep.n_points == 100000


def test_config_round_trips_through_dict():
    import kppwaves as kw
    from kppwaves.config import config_to_dict
    cfg = kw.parse_config(BASE_CFG)
    assert kw.parse_config(config_to_dict(cfg)) == cfg
