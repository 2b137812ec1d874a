import json
import math
import warnings

import pytest

from ucwaves import kinetic_u_minus, phaseplane
from ucwaves.cli import PRESETS, build_parser, main

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
    for s in ("1e-300", "1e-308", "5e-324"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # stderr holds the record only
            assert run_cli(lax + ["--s", s, "--output", str(out)]) == 2
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
