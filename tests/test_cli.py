import contextlib
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucwaves import (
    GAMMA_MAX,
    Branch,
    a_tilde,
    kinetic_u_minus,
    kinetics,
    locus_point,
    pde,
    phaseplane,
    psys_locus,
    psys_threshold,
    psystem,
    riemann,
)
from ucwaves.cli import (
    _NOT_ECHOED,
    MODES,
    PRESETS,
    _cell,
    _csv,
    _json,
    _parse_sweep,
    _records,
    build_parser,
    main,
)
from ucwaves.errors import DomainError

GAMMA6 = repr(1 / math.sqrt(6))


def run_cli(args):
    return main(args)


def test_kinetics_sweep_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["kinetics", "--gamma", "0.40824829", "--sweep-a", "0.5:0.66:0.01"]
    assert run_cli(args + ["--output", str(out1)]) == 0
    assert run_cli(args + ["--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[:3] == ["a", "branch", "u_minus"]
    # parameters echoed in the output header
    assert any(ln.startswith("# gamma") for ln in lines)
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 2 * 17  # both branches, a in 0.5..0.66 step 0.01


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_kinetics_branch_writes_the_rows_of_its_branch(branch, tmp_path):
    def data_rows(name, *flags):
        out = tmp_path / name
        assert run_cli(["kinetics", "--gamma", "0.3", "--points", "9", *flags,
                        "--output", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0].split(",")[1] == "branch"
        return lines[1:]

    rows = data_rows("one.csv", "--branch", branch)
    assert len(rows) == 9
    assert {ln.split(",")[1] for ln in rows} == {branch}
    assert rows == [ln for ln in data_rows("both.csv")
                    if ln.split(",")[1] == branch]


def test_kinetics_no_locus_error_exit(capsys):
    rc = run_cli(["kinetics", "--gamma", "0.7"])
    assert rc == 2
    err = capsys.readouterr().err
    record = json.loads(err)
    assert record["error"] == "NoLocusError"
    assert "sqrt(3/8)" in record["message"] or "0.61" in record["message"]


def test_kinetics_inverse_query(tmp_path):
    out = tmp_path / "inv.json"
    rc = run_cli(["kinetics", "--gamma", GAMMA6, "--u-plus", "-0.8",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["u_minus"] == pytest.approx(0.5287607, abs=1e-6)


def test_kinetics_candidates_query(tmp_path):
    out = tmp_path / "cand.json"
    assert run_cli(["kinetics", "--gamma", GAMMA6, "--u-minus", "0.55",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["candidates"]) == 2


def test_kinetics_candidates_at_tiny_gamma(tmp_path):
    out = tmp_path / "cand.json"
    assert run_cli(["kinetics", "--gamma", "1e-17", "--u-minus", "0.5",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(c["u_plus"] == pytest.approx(-0.5, rel=1e-15)
               for c in payload["candidates"])


@pytest.mark.parametrize("flags,config", [
    (["--u-plus=-0.9", "--u-minus", "0.5"], {}),
    (["--sweep-a", "0.5:0.6:0.01"], {"u_plus": -0.9}),
    (["--preset", "fig2"], {"u_minus": 0.5}),
])
def test_kinetics_modes_exclude_each_other(flags, config, tmp_path, capsys):
    argv = ["kinetics", "--gamma", "0.3", *flags]
    if config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    named = [m for m in ("--u-plus", "--u-minus", "--sweep-a", "--preset fig2")
             if m in record["message"].split("; got ")[1]]
    assert len(named) == 2


def _data_rows(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")][1:]


def test_fig2_rows_are_the_kinetics_sweep_of_each_gamma(tmp_path):
    fig2 = tmp_path / "fig2.csv"
    assert run_cli(["kinetics", "--preset", "fig2", "--output", str(fig2)]) == 0
    rows = _data_rows(fig2)
    for n in range(1, 11):
        gamma = n / 10.0 * GAMMA_MAX
        out = tmp_path / f"g{n}.csv"
        assert run_cli(["kinetics", f"--gamma={gamma!r}",
                        "--output", str(out)]) == 0
        # the gamma column
        assert [r for r in rows if float(r.split(",")[6]) == gamma] \
            == _data_rows(out), gamma
    # a_tilde(sqrt(3/8)) rounds to the float after 1/2: two ratios a branch
    assert len(rows) == 9 * 2 * 101 + 2 * 2


def _echo(text):
    """The echoed parameters of a CLI artifact, {name: text}."""
    return dict(ln[2:].split(" = ", 1) for ln in text.splitlines()
                if ln.startswith("# "))


def test_kinetics_sweep_csv_is_the_csv_of_its_points(tmp_path):
    # rows joined from the columns equal _records over locus_sweep's points;
    # the sweep starts 1e-13 below 1/2 (clipped to it) and runs past a_tilde
    out = tmp_path / "sweep.csv"
    sweep = "0.4999999999999:0.99:0.0173"
    assert run_cli(["kinetics", "--gamma", "0.3", f"--sweep-a={sweep}",
                    "--branch", "minus", "--output", str(out)]) == 0
    text = out.read_text()
    points = [p for p in kinetics.locus_sweep(0.3, _parse_sweep(sweep))
              if p.branch is Branch.MINUS]
    assert {p.endpoint for p in points} == {"a_half", None, "a_tilde"}
    assert text == _records(_echo(text), kinetics.KineticPoint, points)


def test_fig2_cells_are_the_text_of_their_locus_points(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run_cli(["kinetics", "--preset", "fig2", "--output", str(out)]) == 0
    text = out.read_text()
    points = []
    for gamma in PRESETS["kinetics"]["fig2"]["gamma"]:
        at = kinetics.a_tilde(gamma)
        grid = sorted({min(a, at) for a in np.linspace(0.5, at, 101).tolist()})
        points += [locus_point(a, gamma, branch) for branch in Branch
                   for a in grid]
    assert text == _records(_echo(text), kinetics.KineticPoint, points)


def test_gamma_flag_wins_over_fig2(tmp_path):
    fig2, one = tmp_path / "fig2.csv", tmp_path / "one.csv"
    assert run_cli(["kinetics", "--preset", "fig2", "--gamma", "0.3",
                    "--output", str(fig2)]) == 0
    assert run_cli(["kinetics", "--gamma", "0.3", "--output", str(one)]) == 0
    assert "# gamma = 0.3" in fig2.read_text().splitlines()
    assert _data_rows(fig2) == _data_rows(one)


def test_riemann_json(tmp_path):
    out = tmp_path / "sol.json"
    rc = run_cli(["riemann", "--uL", "0.4", "--uR", "-0.8",
                  "--gamma", GAMMA6, "--verify", "--evaluate-at", "0.45",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["pattern"] == "SΣ"
    assert payload["states"][1] == pytest.approx(0.5288, abs=1e-4)
    assert payload["evaluate"]["u"] == pytest.approx(0.5288, abs=1e-4)
    assert all(c["passed"] is True for c in payload["admissibility"])


@pytest.mark.parametrize("offset", [5e-12, -5e-11])
def test_riemann_sigma_data_within_eq_tol(offset, tmp_path):
    u_l = kinetic_u_minus(-0.7, float(GAMMA6)) + offset
    out = tmp_path / "sol.json"
    rc = run_cli(["riemann", "--gamma", GAMMA6, f"--uL={u_l!r}", "--uR=-0.7",
                  "--verify", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["pattern"] == "Σ"
    assert [c["passed"] for c in payload["admissibility"]] == [True]


@pytest.mark.parametrize("grid", ["bogus", "-1:1:x,-1:1:3"])
def test_riemann_bad_classify_grid(grid, capsys):
    assert run_cli(["riemann", "--gamma", "0.4", f"--classify-grid={grid}"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    assert repr(grid) in record["message"]


STIFF_CELL = ["riemann", "--uL", "0", "--uR", "0.9999999999999998",
              "--gamma", "0.4", "--verify"]


def test_riemann_verify_stiff_lax_cell(tmp_path):
    # a fig3 grid cell: the Lax shock has s = 4.4e-16, so T = 1.9e7
    out = tmp_path / "cell.json"
    assert run_cli(STIFF_CELL + ["--output", str(out)]) == 0
    checks = json.loads(out.read_text())["admissibility"]
    assert [c["passed"] for c in checks] == [True]


def test_shot_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phaseplane, "MAX_NFEV", 50)
    out = tmp_path / "cell.json"
    assert run_cli(STIFF_CELL + ["--output", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ShootingBudgetError"


def test_riemann_classify_grid(tmp_path):
    out = tmp_path / "map.csv"
    rc = run_cli(["riemann", "--gamma", GAMMA6,
                  "--classify-grid=-1:1:5,-1:1:5", "--output", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "u_left,u_right,pattern"
    assert len(rows) == 1 + 25


def test_riemann_map_csv_is_the_csv_of_its_columns(tmp_path):
    # an uneven grid whose u_R axis ends at -0.0: the rows the handler joins
    # are the rows _csv writes from the three columns of the cells
    out = tmp_path / "map.csv"
    assert run_cli(["riemann", "--gamma", GAMMA6, "--classify-grid=-1.2:1.2:7,-1:-0:5",
                    "--output", str(out)]) == 0
    text = out.read_text()
    u_l, u_r = np.linspace(-1.2, 1.2, 7), np.linspace(-1.0, -0.0, 5)
    assert math.copysign(1.0, u_r[-1]) == -1.0
    pat = riemann.classify_plane(float(GAMMA6), u_l, u_r)
    assert text == _csv(_echo(text), {"u_left": np.repeat(u_l, 5),
                                 "u_right": np.tile(u_r, 7),
                                 "pattern": pat.ravel().tolist()})
    assert "\n-1.2,-0,R\n" in text


def test_psystem_kinetic_query_of_a_huge_u_minus(tmp_path):
    out = tmp_path / "pk.json"
    assert run_cli(["psystem", "--A", "4", "--u-minus", "1e30",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert -1e30 <= payload["u_plus"] <= -0.5e30


def test_phase_trajectory_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    rc = run_cli(["phase", "--gamma", GAMMA6, "--u-minus", "0.32851421960867366",
                  "--u-plus", "-0.5475236993477894", "--format", "csv",
                  "--output", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "xi,u,v"
    assert len(rows) > 20


def test_phase_json_verdict(tmp_path):
    out = tmp_path / "phase.json"
    rc = run_cli(["phase", "--gamma", GAMMA6, "--u-minus", "0.32851421960867366",
                  "--u-plus", "-0.5475236993477894", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "connects"
    assert payload["terminal_distance"] < 1e-6
    assert payload["parabola_residual"] < 1e-5
    assert len(payload["equilibria"]) == 3


def test_phase_lax_check(tmp_path):
    out = tmp_path / "lax.json"
    rc = run_cli(["phase", "--gamma", GAMMA6, "--u-minus", "0.1",
                  "--u-plus", "0.3", "--lax-check", "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["verdict"] == "connects"


def test_phase_lax_check_refuses_a_shot_too_stiff_for_bdf(tmp_path, capsys):
    # T = gamma/sqrt(s): T times the shot's slow time is 3.7e29 at s = 1e-29,
    # below phaseplane.MAX_STIFF_RATIO, and 3.7e300 at s = 1e-300.  At
    # s = 1e-308 that product overflows, and at the subnormal 5e-324 T^2
    # does too: both are refused without a warning.
    lax = ["phase", "--gamma", "0.4", "--u-minus", "0", "--u-plus", "1",
           "--lax-check"]
    out = tmp_path / "lax.json"
    assert run_cli(lax + ["--s", "1e-29", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "connects"
    out.unlink()
    # at gamma = 1e300, s = 1e-300 T overflows to inf and the product is NaN
    # (the shot used to exit 0 with "diverges" and a NaN terminal_distance)
    for argv in [*(lax + ["--s", s] for s in ("1e-300", "1e-308", "5e-324")),
                 lax[:1] + ["--gamma", "1e300", "--s", "1e-300"] + lax[3:]]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # stderr holds the record only
            assert run_cli(argv + ["--output", str(out)]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DegenerateSpeedError"


def test_phase_options_from_config(tmp_path, capsys):
    cfg = tmp_path / "phase.json"
    cfg.write_text(json.dumps({"gamma": float(GAMMA6),
                               "u_minus": 0.32851421960867366,
                               "u_plus": -0.5475236993477894}))
    out = tmp_path / "phase.json.out"
    assert run_cli(["phase", "--config", str(cfg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "connects"
    cfg.write_text(json.dumps({"gamma": float(GAMMA6), "u_minus": 0.3285}))
    assert run_cli(["phase", "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    assert "--u-plus" in record["message"]
    assert "--gamma" not in record["message"]


def test_psystem_point_and_shoot(tmp_path):
    out = tmp_path / "p.json"
    rc = run_cli(["psystem", "--A", "4", "--b", "-0.6", "--shoot",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["u_minus"] == pytest.approx(0.302701, abs=1e-5)
    assert payload["k"] == pytest.approx(0.6882472, abs=1e-6)
    assert payload["shoot"]["verdict"] == "connects"
    # realized orientation: the orbit leaves u_plus
    assert payload["shoot"]["orbit_start_u"] == pytest.approx(-0.18162, abs=1e-4)


def test_psystem_kinetic_query(tmp_path):
    out = tmp_path / "pk.json"
    assert run_cli(["psystem", "--A", "4", "--u-minus", "0.302702",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["threshold"] == psys_threshold(4.0)
    assert payload["u_plus"] == pytest.approx(-0.181621, abs=1e-5)
    b = payload["u_plus"] / payload["u_minus"]
    assert psys_locus(b, 4.0).u_minus == pytest.approx(0.302702, rel=1e-14)


def test_psystem_sweep(tmp_path):
    out = tmp_path / "ps.csv"
    rc = run_cli(["psystem", "--A", "4", "--sweep-b=-0.75:-0.5:0.05",
                  "--output", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0].split(",")[0] == "b"
    assert len(rows) == 1 + 6


def test_psystem_sweep_honours_v_minus(tmp_path):
    out = tmp_path / "ps.csv"
    assert run_cli(["psystem", "--A", "4", "--sweep-b=-0.75:-0.5:0.05",
                    "--v-minus", "1.0", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# v_minus = 1.0" in lines
    header, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert len(rows) == 6
    for row in rows:
        p = dict(zip(header, map(float, row)))
        assert p["v_minus"] == 1.0
        assert p["v_plus"] == pytest.approx(
            p["v_minus"] - p["s"] * (p["u_plus"] - p["u_minus"]), abs=1e-15)


def test_simulate_small_run(tmp_path):
    out = tmp_path / "sim.json"
    prof = tmp_path / "profile.csv"
    rc = run_cli(["simulate", "--uL", "0.4", "--uR", "-0.8",
                  "--beta", "0.1", "--mu", "0.06",
                  "--x-min", "-10", "--x-max", "10", "--nx", "201",
                  "--dt", "0.02", "--t-end", "1.0",
                  "--output", str(out), "--profile-output", str(prof)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["t_final"] == pytest.approx(1.0, abs=1e-12)
    assert len(payload["plateaus"]) >= 2
    rows = [ln for ln in prof.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "x,u"
    assert len(rows) == 1 + 201


def test_simulate_snapshot_profiles(tmp_path):
    prefix = str(tmp_path / "snap_")
    rc = run_cli(["simulate", "--uL", "0.4", "--uR=-0.8",
                  "--beta", "0.1", "--mu", "0.06",
                  "--x-min=-10", "--x-max", "10", "--nx", "101",
                  "--dt", "0.02", "--t-end", "0.4", "--snapshot-every", "0.2",
                  "--snapshot-profiles", prefix,
                  "--output", str(tmp_path / "s.json")])
    assert rc == 0
    files = sorted(tmp_path.glob("snap_t*.csv"))
    assert len(files) == 3  # t = 0, 0.2, 0.4
    rows = [ln for ln in files[0].read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0] == "x,u"
    assert len(rows) == 1 + 101


def test_simulate_traveling_wave_seed(tmp_path):
    out = tmp_path / "tw.json"
    rc = run_cli(["simulate", "--initial", "tw", "--tw-a", "0.6",
                  "--tw-branch", "minus", "--beta", "0.1", "--mu", "0.06",
                  "--x-min=-8", "--x-max", "8", "--nx", "401",
                  "--dt", "0.01", "--t-end", "0.5", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    vals = [p["value"] for p in payload["plateaus"]]
    assert any(abs(v - 0.3285) < 0.002 for v in vals)
    assert any(abs(v + 0.5475) < 0.002 for v in vals)


def test_simulate_front_speeds(tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli(["simulate", "--uL", "0.4", "--uR=-0.8", "--beta", "0.1",
                    "--mu", "0.06", "--x-min=-10", "--x-max", "20",
                    "--nx", "301", "--t-end", "6", "--snapshot-every", "1",
                    "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    (front,), (fit,) = payload["fronts"], payload["front_speeds"]
    # one front, not yet split into the Lax (0.349) and Sigma (0.503) shocks
    assert 0.349 < fit["speed"] < 0.504
    assert fit["intercept"] + fit["speed"] * payload["t_final"] \
        == pytest.approx(front["position"], abs=0.05)


SIM = ["--beta", "0.1", "--mu", "0.06", "--x-min=-8", "--x-max", "8",
       "--nx", "101", "--t-end", "0.1"]


@pytest.mark.parametrize("argv,missing", [
    (["kinetics"], "--gamma"),
    (["kinetics", "--sweep-a", "0.5:0.6:0.01"], "--gamma"),
    (["riemann", "--uL", "0.4", "--uR=-0.8"], "--gamma"),
    (["riemann", "--gamma", "0.4"], "--uL, --uR"),
    (["riemann", "--gamma", "0.4", "--uL", "0.4", "--verify"], "--uR"),
    (["psystem", "--b=-0.6"], "--A"),
    (["psystem", "--A", "4"], "--b"),
    (["psystem", "--A", "4", "--shoot"], "--b"),
    (["phase", "--gamma", "0.4"], "--u-minus, --u-plus"),
    (["simulate", "--uR=-0.8", *SIM], "--uL"),
    (["simulate", "--initial", "tw", *SIM], "--tw-a"),
    (["simulate", "--tw-a", "0.6", *SIM], "--initial"),
])
def test_missing_options_exit_2(argv, missing, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "UCWavesError", "message":
                      f"{argv[0]} missing required options: {missing}"}


@pytest.mark.parametrize("flags,message", [
    (["--uL", "0.4", "--uR=-0.8", "--mu=-0.06"],
     "--steepness required when mu < 0"),
    (["--initial", "tw", "--tw-a", "0.6", "--mu=-0.06"],
     "traveling-wave seed requires mu > 0"),
])
def test_simulate_needs_mu_positive_for_its_gamma(flags, message, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert run_cli(["simulate", *SIM, *flags, "--output", str(out)]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {"error": "UCWavesError",
                                                   "message": message}
    # an explicit steepness gives the tanh step its width, on the periodic
    # grid that mu < 0 needs
    if "--uL" in flags:
        assert run_cli(["simulate", *SIM, *flags, "--steepness", "1", "--bc",
                        "periodic", "--output", str(out)]) == 0


@pytest.mark.parametrize("beta,mu", [("1e308", "0.25"), ("1e300", "1e-300")])
def test_simulate_names_beta_and_mu_when_the_default_steepness_overflows(
        beta, mu, tmp_path, capsys):
    # the record named only steepness=inf, which the user never gave
    out = tmp_path / "out"
    assert run_cli(["simulate", "--uL", "0.4", "--uR=-0.8", "--beta", beta,
                    "--mu", mu, "--x-min=-10", "--x-max", "10", "--nx", "11",
                    "--t-end", "0.1", "--output", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "DomainError"
    assert f"beta={float(beta)!r}" in record["message"]
    assert f"mu={float(mu)!r}" in record["message"]
    assert "steepness" not in record["message"]


@pytest.mark.parametrize("argv,named", [
    (["psystem", "--A", "4", "--sweep-b=-0.75:-0.7:0.025", "--b=-0.6",
      "--shoot"], "--sweep-b -0.75:-0.7:0.025 with --b -0.6, --shoot"),
    (["psystem", "--A", "4", "--u-minus", "0.5", "--b=-0.6", "--shoot"],
     "--u-minus 0.5 with --b -0.6, --shoot"),
    (["psystem", "--preset", "fig5", "--shoot"],
     "--preset fig5, --sweep-b -0.75:-0.5:0.0025 with --shoot"),
    (["riemann", "--gamma", "0.4", "--classify-grid=-1:1:2,-1:1:2",
      "--uL", "0.4", "--uR=-0.8", "--verify"],
     "--classify-grid -1:1:2,-1:1:2 with --uL 0.4, --uR -0.8, --verify"),
    (["riemann", "--preset", "fig3", "--evaluate-at", "0.1"],
     "--preset fig3, --classify-grid -1.2:1.2:97,-1.2:1.2:97 with "
     "--evaluate-at 0.1"),
    (["riemann", "--gamma", "0.4", "--classify-grid=-1:1:2,-1:1:2", "--uL", "0"],
     "--classify-grid -1:1:2,-1:1:2 with --uL 0.0"),  # 0.0 == False is set
    (["kinetics", "--gamma", "0.3", "--sweep-a", "0.5:0.6:0.05", "--points", "7"],
     "--sweep-a 0.5:0.6:0.05 with --points 7"),
    (["psystem", "--A", "4", "--u-minus", "0.5", "--v-minus", "3"],
     "--v-minus 3.0 with --u-minus 0.5"),
    (["simulate", "--initial", "tw", "--tw-a", "0.6", "--uL", "5",
      "--steepness", "9", *SIM],
     "--initial tw, --tw-a 0.6 with --uL 5.0, --steepness 9.0"),
    (["kinetics", "--preset", "fig1", "--u-plus=-0.9"],
     "--u-plus -0.9 with --preset fig1, --points 201"),
    (["kinetics", "--gamma", "0.3", "--u-plus=-0.5", "--branch", "plus"],
     "--u-plus -0.5 with --branch plus"),
])
def test_options_the_mode_ignores_exit_2(argv, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "UCWavesError", "message":
                      f"{argv[0]} takes the options of one mode; got {named}"}


@pytest.mark.parametrize("command", sorted(MODES))
def test_modes_name_every_option_of_their_command(command):
    # an option added to a subcommand must be given a mode
    options = set(vars(build_parser().parse_args([command]))) - _NOT_ECHOED
    assert {k for mode in MODES[command] for k in " ".join(mode).split()} \
        == options


@pytest.mark.parametrize("argv,message", [
    (["riemann", "--config", "{tmp}/none.cfg"], "cannot read config"),
    (["riemann", "--config", "{tmp}"], "cannot read config"),
    (["riemann", "--config", "{tmp}/latin1.cfg"], "cannot read config"),
    (["kinetics", "--gamma", "0.3", "--output", "{tmp}/none/out.csv"],
     "cannot write"),
])
def test_unreadable_paths_exit_2(argv, message, tmp_path, capsys):
    (tmp_path / "latin1.cfg").write_bytes(b"gamma = 0.4\n# caf\xe9\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(argv) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    assert record["message"].startswith(f"{message} {argv[-1]!r}: ")


@pytest.mark.parametrize("bad", ["--output", "--profile-output",
                                 "--snapshot-profiles"])
def test_simulate_checks_its_output_paths_before_the_run(bad, tmp_path, capsys,
                                                         monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(pde, "simulate", never)
    paths = {"--output": tmp_path / "s.json", "--profile-output":
             tmp_path / "prof.csv", "--snapshot-profiles": tmp_path / "snap_"}
    paths[bad] = tmp_path / "none" / paths[bad].name
    argv = ["simulate", "--uL", "0.4", "--uR=-0.8", *SIM, "--snapshot-every",
            "0.05", *(a for flag, path in paths.items() for a in (flag, str(path)))]
    assert run_cli(argv) == 2
    assert list(tmp_path.iterdir()) == []
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    assert record["message"].startswith(f"cannot write {str(paths[bad])!r}: ")


PHASE = ["--gamma", "0.40824829", "--u-minus", "0.3285142", "--u-plus=-0.5475237"]

#: (argv without its output, the output flag, the module and name of the
#: function that does the work)
_WORK = {
    "kinetics-o": (["kinetics", "--preset", "fig2"], "-o",
                   kinetics, "_sweep"),
    "riemann-o": (["riemann", "--preset", "fig3"], "-o",
                  riemann, "classify_plane"),
    "psystem-o": (["psystem", "--preset", "fig5"], "-o",
                  psystem, "psys_locus"),
    "phase-o": (["phase", *PHASE], "-o", phaseplane, "shoot_unstable"),
    "simulate--output": (["simulate", "--uL", "0.4", "--uR=-0.8", *SIM],
                         "--output", pde, "simulate"),
    "simulate--profile-output": (
        ["simulate", "--uL", "0.4", "--uR=-0.8", *SIM, "-o", "{tmp}/s.json"],
        "--profile-output", pde, "simulate"),
}


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("run", sorted(_WORK))
def test_output_paths_are_checked_before_the_work(run, where, tmp_path, capsys,
                                                  monkeypatch):
    argv, flag, module, work = _WORK[run]

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(module, work, never)
    d = tmp_path / "d"
    if where == "directory":
        d.mkdir()
        bad = d
    else:
        bad = d / "out"
    argv = [a.format(tmp=tmp_path) for a in argv] + [flag, str(bad)]
    assert run_cli(argv) == 2
    assert list(tmp_path.glob("**/*")) == ([d] if d.exists() else [])
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UCWavesError"
    assert record["message"].startswith(f"cannot write {str(bad)!r}: ")
    if where == "directory":
        assert record["message"].endswith(": Is a directory")


def test_simulate_snapshot_prefix_may_name_a_directory(tmp_path):
    assert run_cli(["simulate", "--uL", "0.4", "--uR=-0.8", *SIM,
                    "--snapshot-every", "0.05", "--snapshot-profiles",
                    os.path.join(str(tmp_path), ""), "-o",
                    str(tmp_path / "s.json")]) == 0
    # one default step covers --t-end 0.1
    assert sorted(p.name for p in tmp_path.glob("t*.csv")) == ["t0.1.csv", "t0.csv"]


def test_snapshot_step_below_the_run_step_requests_every_step(tmp_path):
    h = 4.0 / 20  # --dt 0.2 divides --t-end 4
    payloads = []
    for every in ("1e-300", repr(h / 2), repr(h)):
        out = tmp_path / f"{every}.json"
        assert run_cli(["simulate", "--uL", "0.4", "--uR=-0.8", "--beta", "0.1",
                        "--mu", "0.06", "--x-min=-20", "--x-max", "20",
                        "--nx", "101", "--dt", "0.2", "--t-end", "4",
                        "--snapshot-every", every, "--speed-fit", "exp",
                        "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["params"].pop("snapshot_every") == every
        payloads.append(json.dumps(payload, sort_keys=True))
    assert len(json.loads(payloads[0])["front_speeds"]) == 1
    assert payloads[0] == payloads[1] == payloads[2]


def test_simulate_missing_options(capsys):
    rc = run_cli(["simulate", "--uL", "0.4", "--uR", "-0.8"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert "beta" in record["message"] and "nx" in record["message"]


def test_simulate_blow_up_exits_2(tmp_path, capsys):
    out = tmp_path / "sim.json"
    rc = run_cli(["simulate", "--preset", "fig4", "--nx", "1801", "--dt", "2",
                  "--output", str(out)])
    assert rc == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SimulationDivergedError"
    assert "not finite" in record["message"]


HUGE_MU = ["--uL", "0.4", "--uR=-0.8", "--beta", "0.1", "--x-min=-30",
           "--x-max", "60", "--nx", "1801", "--t-end", "1"]


@pytest.mark.parametrize("mu,bc", [("1e12", "dirichlet_farfield"),
                                   ("1e200", "dirichlet_farfield"),
                                   ("1e12", "neumann"), ("1e13", "neumann")])
def test_simulate_with_a_huge_positive_mu_runs(mu, bc, tmp_path):
    # at mu/dx**2 = 4e14 the Dirichlet end rows' pivot 1 fell below 1e-14 of
    # the row sum, and the run was refused as a mu < 0 pole
    out, prof = tmp_path / "sim.json", tmp_path / "profile.csv"
    assert run_cli(["simulate", *HUGE_MU, "--mu", mu, "--bc", bc,
                    "--output", str(out), "--profile-output", str(prof)]) == 0
    assert json.loads(out.read_text())["t_final"] == 1.0
    rows = [ln for ln in prof.read_text().splitlines() if not ln.startswith("#")]
    u = np.array([float(row.split(",")[1]) for row in rows[1:]])
    # steepness beta/sqrt(mu) makes the initial profile all but flat at -0.2
    assert u.size == 1801 and np.abs(u + 0.2).max() < 1e-3


def test_simulate_refuses_a_neumann_operator_that_rounds_to_singular(tmp_path, capsys):
    # mu/dx**2 = 4e202: 1 + 2r and 0.5 + r round to 2r and r, so the stored
    # I - mu*D2 is mu*D2, which maps constants to 0
    out = tmp_path / "sim.json"
    assert run_cli(["simulate", *HUGE_MU, "--mu", "1e200", "--bc", "neumann",
                    "--output", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DomainError"
    assert "rounds to a singular matrix" in record["message"]
    assert "mu < 0" not in record["message"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bc=st.sampled_from(["dirichlet_farfield", "neumann"]),
       mu=st.floats(max_value=-5e-324, allow_infinity=False),
       x_min=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), nx=st.integers(3, 2000))
# the HUGE_MU grid, where mu/dx**2 = -4e14 once ran on a Dirichlet grid
@example(bc="dirichlet_farfield", mu=-1e12, x_min=-30.0, width=90.0, nx=1801)
@example(bc="neumann", mu=-1e12, x_min=-30.0, width=90.0, nx=1801)
# the smallest magnitude, the usual mu = 0.06 with its sign flipped, and -1e300
@example(bc="dirichlet_farfield", mu=-5e-324, x_min=-10.0, width=20.0, nx=401)
@example(bc="neumann", mu=-0.06, x_min=-10.0, width=20.0, nx=401)
@example(bc="dirichlet_farfield", mu=-1e300, x_min=0.0, width=1e-3, nx=1000)
@example(bc="neumann", mu=-1e300, x_min=0.0, width=1e-3, nx=1000)
# dx = 1: a singular operator (1 + 2 mu = 0), and pivots 1 + 2 mu of 0.75e-14
# and 1.25e-14, either side of the pivot test the LU solve once had
@example(bc="dirichlet_farfield", mu=-0.5, x_min=0.0, width=2.0, nx=3)
@example(bc="neumann", mu=-0.5, x_min=0.0, width=2.0, nx=3)
@example(bc="dirichlet_farfield", mu=(0.75e-14 - 1.0) / 2.0, x_min=0.0, width=2.0, nx=3)
@example(bc="dirichlet_farfield", mu=(1.25e-14 - 1.0) / 2.0, x_min=0.0, width=2.0, nx=3)
def test_a_negative_mu_is_refused_on_a_bounded_grid(bc, mu, x_min, width, nx):
    # the refusal comes from SimConfig, before a default step or a factoring
    message = f"invalid SimConfig: mu={mu!r} on a {bc} grid (mu < 0 needs bc=periodic)"
    x_max = x_min + width
    with pytest.raises(DomainError) as err:
        pde.SimConfig(beta=0.1, mu=mu, x_min=x_min, x_max=x_max, nx=nx, t_end=1.0,
                      bc=pde.BoundaryCondition(bc),
                      initial=pde.SmoothedRiemann(0.4, -0.8, 1.0))
    assert str(err.value) == message

    def never(*args):
        raise AssertionError("a default step or a factoring ran")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "default_dt", never)
        mp.setattr(pde, "dpttrf", never)
        out = os.path.join(tmp, "sim.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli(["simulate", "--uL", "0.4", "--uR=-0.8", "--beta", "0.1",
                          f"--mu={mu!r}", f"--x-min={x_min!r}", f"--x-max={x_max!r}",
                          f"--nx={nx}", "--t-end", "1", "--steepness", "1", "--bc", bc,
                          "--output", out])
        assert rc == 2 and os.listdir(tmp) == []
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "nan"], ["simulate", "--t-end", "inf"],
    ["simulate", "--beta", "nan"],
    ["riemann", "--gamma", "nan", "--uL", "0.4", "--uR=-0.8"],
    ["riemann", "--gamma", GAMMA6, "--uL", "nan", "--uR=-0.8"],
    ["riemann", "--gamma", "0", "--classify-grid=-1:1:3,-1:1:3"],
    ["simulate", "--uL", "nan"], ["simulate", "--steepness", "inf"],
    ["simulate", "--mu", "nan"],
    ["phase", "--gamma", "nan", "--u-minus", "0.5", "--u-plus=-0.8"],
    ["phase", "--gamma", "0.4", "--s", "nan", "--u-minus", "0.5", "--u-plus=-0.8"],
    ["psystem", "--A", "nan", "--b=-0.7", "--shoot"],
    ["psystem", "--A", "nan", "--u-minus", "1"],
    ["kinetics", "--gamma", "0.4", "--points", "0"],
    ["kinetics", "--gamma", "0.4", "--points=-5"],
    ["kinetics", "--preset", "fig2", "--points=-5"],
    ["riemann", "--gamma", "0.4", "--classify-grid=-1:1:0,-1:1:3"],
    ["riemann", "--gamma", "0.4", "--uL", "0.1", "--uR", "0.2",
     "--evaluate-at", "nan"],
    ["riemann", "--gamma", "0.4", "--uL", "0.1", "--uR", "0.2",
     "--evaluate-at", "inf"],
    ["kinetics", "--gamma", "0.4", "--sweep-a", "0.5:0.9:nan"],
    ["kinetics", "--gamma", "0.4", "--sweep-a", "0.5:inf:0.1"],
    ["kinetics", "--gamma", "0.4", "--sweep-a=0.5:0.9:1e-300"],
    ["psystem", "--A", "4", "--sweep-b=-0.75:-0.5:1e-300"],
    ["kinetics", "--gamma", "0.3", "--u-minus", "inf"],
    ["kinetics", "--gamma", "0.3", "--u-minus", "nan"],
    ["kinetics", "--gamma", "0.3", "--u-plus", "nan"],
    ["simulate", "--snapshot-every", "nan"], ["simulate", "--snapshot-every", "inf"],
    ["simulate", "--snapshot-every", "0"], ["simulate", "--snapshot-every=-1"],
    # finite but huge: a cube overflows (an OverflowError or -Infinity before)
    ["riemann", "--gamma", "0.4", "--uL", "1e200", "--uR", "0"],
    ["riemann", "--gamma", "0.4", "--uL", "1.2544988637366674e154",
     "--uR=-1e-105"],
    ["phase", "--gamma", "0.4", "--u-minus", "1e200", "--u-plus", "0"],
    ["psystem", "--A", "1e-300", "--b=-0.6"],
    ["simulate", "--uL", "1e200", "--uR", "0"],
    ["psystem", "--A", "4", "--u-minus", "1e300"],
    # u_+ is not an equilibrium at this speed
    ["phase", "--gamma", "0.40824829", "--u-minus", "0.3285142",
     "--u-plus=-0.5475237", "--s", "0.78"],
    # more points than a sweep may hold, refused before any is made
    ["kinetics", "--gamma", "0.4", "--points", "1000001"],
    ["riemann", "--gamma", "0.4", "--classify-grid=-1:1:2000,-1:1:2000"],
    # mu < 0 makes I - mu*D2 singular on this grid; mu < 0 is refused on any
    # bounded grid
    *(["simulate", "--mu=-0.5", "--x-min", "0", "--x-max", "2", "--nx", "3",
       "--steepness", "1", "--dt", "0.05", "--bc", bc]
      for bc in ("dirichlet_farfield", "neumann")),
    # tiny states: u_-^2 underflows to 0 (a ZeroDivisionError before); the
    # shot's ends lie within its seed offset (scipy's ValueError before)
    ["psystem", "--A", "1e200", "--b=-0.57735"],
    ["psystem", "--A", "1e100", "--b=-0.57735", "--shoot"],
    # more steps than a run may plan: round(inf) raised OverflowError, and
    # the other two never ended (--uL 1e100 has a default dt of 1.6e-201)
    ["simulate", "--dt", "5e-324"], ["simulate", "--dt", "1e-300"],
    ["simulate", "--uL", "1e100"],
    # a Lax shock of span 1e-9, below twice its shot's seed offset (the
    # shot launched past the node and reported "connects" before)
    ["riemann", "--gamma", "0.4", "--uL", "0.3", "--uR", "0.300000001",
     "--verify"],
    # far more grid points than a run may have (numpy's MemoryError before)
    ["simulate", "--nx", "1000000000000"],
    # 4*mu/dx**2 overflows: a RuntimeWarning and exit 0 (periodic), or NaN
    # factors and SimulationDivergedError (Dirichlet) before
    *(["simulate", "--mu", "1e300", "--x-min", "0", "--x-max", "1e-3", "--nx",
       "1000", "--bc", bc] for bc in ("periodic", "dirichlet_farfield", "neumann")),
    # 1 - mu*L_1 = 0: the pole lands exactly on grid mode 1
    ["simulate", "--bc", "periodic", "--mu=-1.23370055013617", "--x-min", "0",
     "--x-max", "6.283185307179586", "--nx", "4", "--dt", "0.01", "--steepness", "1"],
])
def test_non_finite_or_bad_input_exits_2(argv, tmp_path, capsys):
    sim = ["--uL", "0.4", "--uR=-0.8", "--beta", "0.1", "--mu", "0.06",
           "--x-min=-10", "--x-max", "10", "--nx", "101", "--t-end", "0.4"]
    out = tmp_path / "out"
    extra = sim if argv[0] == "simulate" else []
    assert run_cli(argv[:1] + extra + argv[1:] + ["--output", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DomainError"


class _LongRun(Exception):
    """A drawn run that plans more steps than the property spends."""


#: magnitudes of the simulate property's draws, beside a float in [0.1, 10]
_EXTREMES = (0.0, 5e-324, 1e-300, 1e-8, 1e3, 1e100, 1e200, 1e308, math.inf, math.nan)


def _signed():
    magnitude = st.one_of(st.sampled_from(_EXTREMES), st.floats(0.1, 10.0))
    return st.builds(operator.mul, st.sampled_from([1.0, -1.0]), magnitude)


def _finite_numbers(text):
    """Whether every number of a JSON text is finite."""
    def refuse(token):
        raise ValueError(token)
    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x_min=_signed(), x_max=_signed(), mu=_signed(), beta=_signed(),
       nx=st.integers(3, 41), t_end=st.floats(0.0, 0.5),
       bc=st.sampled_from([b.value for b in pde.BoundaryCondition]),
       steepness=st.sampled_from([None, 1.0]))
# dx**2 overflows (a warning from default_dt, then a run as if beta and mu
# were 0); the width of the x range overflows (linspace's warnings); a
# Dirichlet grid at mu < 0 (once a run whose end rows' pivot 1 was taken for
# a pole, now refused)
@example(x_min=-1e200, x_max=1e200, mu=0.06, beta=0.1, nx=5, t_end=1.0,
         bc="dirichlet_farfield", steepness=None)
@example(x_min=-1e308, x_max=1e308, mu=0.06, beta=0.1, nx=5, t_end=1.0,
         bc="dirichlet_farfield", steepness=None)
@example(x_min=-30.0, x_max=60.0, mu=-1e12, beta=0.1, nx=1801, t_end=1.0,
         bc="dirichlet_farfield", steepness=1.0)
# the default steepness beta/sqrt(mu) overflows; the default dt underflows to
# 0 (t_end/dt warned); 4/dx**2 overflows in the periodic symbol
@example(x_min=-10.0, x_max=10.0, mu=0.25, beta=1e308, nx=3, t_end=0.0,
         bc="dirichlet_farfield", steepness=None)
@example(x_min=-10.0, x_max=10.0, mu=5e-324, beta=1e308, nx=3, t_end=0.0,
         bc="neumann", steepness=1.0)
@example(x_min=0.0, x_max=1e-160, mu=5e-324, beta=1.0, nx=3, t_end=0.0,
         bc="periodic", steepness=1.0)
# periodic, mu < 0: beta*|L_k| overflows, so the default step is 0; a grid
# mode lies 2.4e-14 from the pole, so the step is 2e-14 (at the CFL step the
# run went ahead, to |u| ~ 1e263)
@example(x_min=-10.0, x_max=10.0, mu=-0.06, beta=1e308, nx=41, t_end=0.5,
         bc="periodic", steepness=1.0)
@example(x_min=0.0, x_max=3.0, mu=-0.33333333333334136, beta=0.1, nx=3,
         t_end=1e-6, bc="periodic", steepness=1.0)
def test_simulate_runs_with_finite_output_or_exits_2(x_min, x_max, mu, beta, nx,
                                                    t_end, bc, steepness):
    # exit 0 with every number finite, or exit 2 with one JSON record and no
    # file; never a warning or another exception
    argv = ["simulate", "--uL", "0.4", "--uR=-0.8", f"--beta={beta!r}",
            f"--mu={mu!r}", f"--x-min={x_min!r}", f"--x-max={x_max!r}",
            f"--nx={nx}", f"--t-end={t_end!r}", "--bc", bc]
    if steepness is not None:
        argv.append(f"--steepness={steepness!r}")
    time_step = pde._time_step

    def short(cfg):
        nsteps, h = time_step(cfg)
        if nsteps > 2000:
            raise _LongRun
        return nsteps, h

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(pde, "_time_step", short)
        out, prof = os.path.join(tmp, "sim.json"), os.path.join(tmp, "profile.csv")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = run_cli(argv + ["--output", out, "--profile-output", prof])
        except _LongRun:
            assume(False)
        if rc == 0:
            with open(out) as fh:
                assert _finite_numbers(fh.read())
            with open(prof) as fh:
                rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
            assert len(rows) == nx + 1
            assert np.isfinite([[float(c) for c in row.split(",")]
                                for row in rows[1:]]).all()
        else:
            assert rc == 2 and os.listdir(tmp) == []
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "message" in json.loads(lines[0])


def _finite_csv(text):
    """Whether every cell of a CSV text past its echo and header is a
    finite number."""
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    return bool(rows) and np.isfinite([[float(c) for c in row.split(",")]
                                       for row in rows]).all()


def _assert_finite_output_or_exit_2(argv, fmt="json"):
    """The run exits 0 with every number of its artifact finite, or exits 2
    with one JSON error record and no file; never a warning or another
    exception."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = os.path.join(tmp, "out." + fmt)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run_cli(argv + ["--output", out])
        if rc == 0:
            with open(out) as fh:
                text = fh.read()
            assert _finite_numbers(text) if fmt == "json" else _finite_csv(text)
        else:
            assert rc == 2 and os.listdir(tmp) == []
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "message" in json.loads(lines[0])


@st.composite
def _phase_pairs(draw):
    """(gamma, u_minus, u_plus, s) of a saddle-saddle phase run, s None for
    the RH speed: a scalar locus point, u_+ perturbed or not, or signed
    extremes."""
    if draw(st.booleans()):
        gamma = draw(st.floats(0.05, 0.6))
        p = locus_point(0.5 + draw(st.floats(0.0, 1.0)) * (a_tilde(gamma) - 0.5),
                        gamma, draw(st.sampled_from(Branch)))
        fac = draw(st.sampled_from([1.0, 1.05, 0.95, 1.001, 1.0 + 1e-9]))
        return gamma, p.u_minus, p.u_plus * fac, None
    return (draw(_signed()), draw(_signed()), draw(_signed()),
            draw(st.one_of(st.none(), _signed())))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=_phase_pairs(), fmt=st.sampled_from(["json", "csv"]))
# P(u_+) overflows, and so does the bound it was held to: the pair was taken
# for equilibria and the march warned on its infinite field
@example(pair=(0.0, 0.0, 6.4709363046683224e+16, 2.7781035853581304e+299),
         fmt="json")
# the saddle-node end a = 1/2 at gamma = 1e300: the stable eigenvalue of u_+
# is -1e-300, its graph rounds to v = 0 at the launch, and the march divided
# by it (ZeroDivisionError)
@example(pair=(1e300, 0.5127296671069506, -1.0254593342139011, None), fmt="csv")
# the same at gamma = 1e-300 and 1e-290: the unstable graph launches at
# v = -1e-308, a subnormal, or -1e-298, and the field's error norm
# overflowed in the stepper (a warning)
@example(pair=(1e-300, 0.5127296671069506, -1.0254593342139011, None),
         fmt="json")
@example(pair=(1e-290, 0.5127296671069506, -1.0254593342139011, None),
         fmt="json")
# a tiny pair there: rows of the unstable graph are subnormal, so 1/v
# overflowed in xi (a warning, and an infinite xi in the orbit)
@example(pair=(1e-300, 9.427252327594122e-09, -1.885450465519767e-08, None),
         fmt="csv")
# T = gamma/sqrt(s) is infinite: the launch scale overflowed (a warning, and
# solve_ivp's ValueError on a non-finite start)
@example(pair=(1e300, 0.5773502691896257, -1.1547005383792515, 5e-324),
         fmt="json")
def test_phase_runs_with_finite_output_or_exits_2(pair, fmt):
    gamma, u_minus, u_plus, s = pair
    argv = ["phase", f"--gamma={gamma!r}", f"--u-minus={u_minus!r}",
            f"--u-plus={u_plus!r}", "--format", fmt]
    if s is not None:
        argv.append(f"--s={s!r}")
    _assert_finite_output_or_exit_2(argv, fmt)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(A=st.one_of(st.floats(0.1, 10.0), _signed()),
       b=st.one_of(st.floats(-1.0, -0.5), _signed()),
       v_minus=st.one_of(st.just(0.0), _signed()))
def test_psystem_shoot_runs_with_finite_output_or_exits_2(A, b, v_minus):
    _assert_finite_output_or_exit_2(["psystem", f"--A={A!r}", f"--b={b!r}",
                                     f"--v-minus={v_minus!r}", "--shoot"])


def test_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.40824829, "uL": 0.4, "uR": -0.8}))
    out = tmp_path / "out.json"
    rc = run_cli(["riemann", "--config", str(cfg), "--uL", "0.1",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["u_left"] == 0.1   # flag overrides config
    assert payload["u_right"] == -0.8  # from config


def test_config_flat_key_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.40824829\nuL = 0.4\nuR = -0.8\n# comment\n"
                   "verify = true\n")
    out = tmp_path / "out.json"
    assert run_cli(["riemann", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pattern"] == "SΣ"
    assert payload["params"]["verify"] == "True"
    assert all(c["passed"] is True for c in payload["admissibility"])


def test_config_file_and_flags_write_the_same_bytes(tmp_path):
    flags = ["--uL", "0.4", "--uR=-0.8", "--beta", "0.1", "--mu", "0.06",
             "--x-min=-10", "--x-max", "10", "--nx", "101", "--dt", "0.02",
             "--t-end", "0.2", "--bc", "neumann"]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("uL = 0.4\nuR = -0.8\nbeta = 0.1\nmu = 0.06\nx_min = -10\n"
                   "x_max = 10\nnx = 101\ndt = 0.02\nt_end = 0.2\nbc = neumann\n")
    a, b = tmp_path / "flags.json", tmp_path / "config.json"
    assert run_cli(["simulate", *flags, "--output", str(a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["params"]["x_max"] == "10.0"


def test_config_unknown_keys_rejected(tmp_path, capsys):
    riemann = {"gamma": 0.4, "uL": 0.1, "uR": 0.2}
    simulate = {"uL": 0.4, "uR": -0.8, "beta": 0.1, "mu": 0.06, "x_min": -10,
                "x_max": 10, "nx": 101, "dt": 0.02, "t_end": 0.2}
    cfg = tmp_path / "bad.json"
    for entries, needle in [({**riemann, "bogus_key": 1}, "bogus_key"),
                            ({**riemann, "fn": 1}, "keys: fn"),
                            ({**riemann, "command": "kinetics"}, "keys: command")]:
        cfg.write_text(json.dumps(entries))
        assert run_cli(["riemann", "--config", str(cfg)]) == 2, entries
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UCWavesError"
        assert needle in record["message"], entries
    # A bad config value fails in argparse, as its flag would.
    cfg.write_text(json.dumps({**simulate, "bc": "bogus"}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "'bogus'" in capsys.readouterr().err


def test_preset_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = run_cli(["kinetics", "--preset", "fig1", "--points", "11",
                  "--output", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 22


def test_preset_yields_to_flags_and_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 5\n")
    out = tmp_path / "fig1.csv"
    assert run_cli(["kinetics", "--preset", "fig1", "--gamma", "0.3",
                    "--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# gamma = 0.3" in lines and "# points = 5" in lines
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 10
    assert all(float(row[6]) == 0.3 for row in rows)  # the gamma column


@pytest.mark.parametrize("command", sorted(PRESETS))
def test_presets_fill_only_options_without_default(command):
    # a preset fills options left None, so it must name no option that has
    # a built-in default
    defaults = vars(build_parser().parse_args([command]))
    for options in PRESETS[command].values():
        assert all(defaults[key] is None for key in options)


def test_preset_fig5(tmp_path):
    out = tmp_path / "fig5.csv"
    rc = run_cli(["psystem", "--preset", "fig5", "--sweep-b=-0.75:-0.5:0.025",
                  "--output", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 11


#: sha256 of the fig1, fig2, fig3 and fig5 artifacts, as ``sha256sum`` writes
#: them; README ("Command line", after the preset commands) says how to
#: re-baseline.  fig4 (tanh, exp, FFT and LAPACK in the PDE run) is not
#: pinned.
PRESET_DIGESTS = Path(__file__).with_name("preset_digests.sha256")


def test_presets_keep_their_committed_digests(tmp_path):
    pinned = dict(line.split()[::-1] for line in
                  PRESET_DIGESTS.read_text().splitlines())
    assert sorted(pinned) == ["fig1.csv", "fig2.csv", "fig3.csv", "fig5.csv"]
    got = {}
    for name in pinned:
        preset = name.removesuffix(".csv")
        command = next(c for c, presets in PRESETS.items() if preset in presets)
        out = tmp_path / name
        assert run_cli([command, "--preset", preset, "-o", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == pinned


def _scipy_loaded_by(runs, tmp_path):
    """The scipy modules a fresh interpreter holds after importing the
    package and its CLI and running ``main`` on each argv of ``runs``."""
    script = ("import json, sys\n"
              "import ucwaves, ucwaves.cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert ucwaves.cli.main(argv) == 0, argv\n"
              "print(json.dumps([m for m in sys.modules\n"
              "                  if m.partition('.')[0] == 'scipy']))\n")
    src = str(Path(kinetics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_closed_forms_and_periodic_runs_load_no_scipy(tmp_path):
    # the kinetic root-finds too: riemann, kinetics --u-plus/--u-minus and
    # psystem --u-minus run kinetics.brentq, which imports no scipy
    runs = [["kinetics", "--preset", "fig1", "-o", "fig1.csv"],
            ["kinetics", "--preset", "fig2", "-o", "fig2.csv"],
            ["psystem", "--preset", "fig5", "-o", "fig5.csv"],
            ["psystem", "--A", "4", "--b=-0.6", "-o", "psys.json"],
            ["simulate", "--uL", "0.4", "--uR=-0.8", "--beta", "0.1",
             "--mu", "0.06", "--x-min=-8", "--x-max", "8", "--nx", "64",
             "--t-end", "0.1", "--bc", "periodic", "-o", "periodic.json"],
            ["riemann", "--gamma", "0.4", "--uL", "0.4", "--uR=-0.8"],
            ["riemann", "--preset", "fig3", "-o", "fig3.csv"],
            ["kinetics", "--gamma", "0.3", "--u-plus=-0.5"],
            ["kinetics", "--gamma", "0.3", "--u-minus", "0.5"],
            ["psystem", "--A", "4", "--u-minus", "0.5"]]
    assert _scipy_loaded_by(runs, tmp_path) == set()


def test_no_source_file_names_scipy_optimize():
    package = Path(kinetics.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "scipy.optimize" in path.read_text()] == []


def test_dirichlet_run_loads_scipy_linalg_alone(tmp_path):
    loaded = _scipy_loaded_by([["simulate", "--uL", "0.4", "--uR=-0.8", *SIM,
                                "-o", "dirichlet.json"]], tmp_path)
    assert "scipy.linalg" in loaded
    assert not {"scipy.optimize", "scipy.integrate"} & loaded


def test_write_csv_text_format():
    assert _csv({"b": "2", "a": "'x'"}, {
        "float": [0.1, -0.0], "f64": [np.float64(1 / 3), np.float64(2.5)],
        "enum": [Branch.PLUS, Branch.MINUS], "none": [None, None],
        "str": ["SΣ", "-1"]}) == (
        "# a = 'x'\n# b = 2\n"
        "float,f64,enum,none,str\n"
        "0.10000000000000001,0.33333333333333331,plus,,SΣ\n"
        "-0,2.5,minus,,-1\n")
    assert _csv({}, {"x": [], "u": np.empty(0)}) == "x,u\n"
    with pytest.raises(ValueError):
        _csv({}, {"x": [1.0, 2.0], "u": [1.0]})


def test_cell_of_a_float64_is_the_cell_of_its_float():
    for x in (0.1, -0.0, 1.0 / 3.0, 2.5, 1e-300, -7e22, math.inf):
        assert _cell(np.float64(x)) == _cell(x)


def test_write_json_text_format():
    assert _json({"a": "'x'"}, {"b": np.bool_(True), "i": np.int64(-3),
                                "f": np.float64(0.1), "t": (1, 2.5)}) == (
        '{\n  "b": true,\n  "f": 0.1,\n  "i": -3,\n'
        '  "params": {\n    "a": "\'x\'"\n  },\n'
        '  "t": [\n    1,\n    2.5\n  ]\n}\n')


def test_an_overwrite_has_the_bytes_of_a_fresh_write(tmp_path, monkeypatch):
    # the fig3 map is longer than one cell: an overwrite must cut its tail
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.json"
    cell = ["riemann", "--gamma", "0.4", "--uL", "0.4", "--uR=-0.8"]
    assert run_cli(["riemann", "--preset", "fig3", "-o", str(out)]) == 0
    inode = out.stat().st_ino
    calls, real_open = [], os.open

    def recording_open(path, flags, *args):
        calls.append((path, flags))
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", recording_open)
    assert run_cli(cell + ["-o", str(out)]) == 0
    assert run_cli(cell + ["-o", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode
    # written in place: a file truncated to zero is flushed on close by ext4
    assert [p for p, _ in calls] == [str(out), str(fresh)]
    assert not any(flags & os.O_TRUNC for _, flags in calls)


def test_an_overwrite_keeps_links_and_mode(tmp_path):
    # as open(path, "w") does, and an unlink-then-create would not
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("x" * 100_000)
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli(["kinetics", "--preset", "fig1", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.stat().st_mode & 0o777 == 0o640
    assert run_cli(["kinetics", "--preset", "fig1", "-o",
                    str(tmp_path / "fresh.csv")]) == 0
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_output_to_a_device(capsys):
    assert run_cli(["riemann", "--preset", "fig3", "-o", os.devnull]) == 0
    assert run_cli(["riemann", "--preset", "fig3", "-o", "/dev/full"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "UCWavesError"
    assert record["message"].startswith("cannot write '/dev/full': ")


def test_a_failed_overwrite_leaves_an_empty_file(tmp_path):
    # a file-size limit of 4096 bytes (on the child alone) fails the write
    # of fig3 part way: no head of the map in front of the old bytes
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 100_000)
    script = ("import resource, signal, sys\n"
              "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
              "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
              "import ucwaves.cli\n"
              "sys.exit(ucwaves.cli.main(sys.argv[1:]))\n")
    src = str(Path(kinetics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, "riemann", "--preset",
                           "fig3", "-o", str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert json.loads(line)["error"] == "UCWavesError"
    assert out.read_bytes() == b""
