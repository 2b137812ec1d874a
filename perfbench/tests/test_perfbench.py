"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The binding-site coverage check fails when a refactor moves or renames a
traced function, instead of letting its layer silently report zero calls.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1

#: span -> workloads on which it must be reached (calls > 0)
REACHED = {
    "pde.simulate": ("pde_riemann", "pde_periodic"),
    "pde.step": ("pde_riemann", "pde_periodic"),
    "pde.flux": ("pde_riemann", "pde_periodic"),
    "pde.solve_banded": ("pde_riemann",),
    "pde.detect_fronts": ("pde_riemann",),
    "pde.fit_front_speeds": ("pde_riemann",),
    "kinetics.kinetic_u_minus": ("riemann_map",),
    "kinetics.u_plus_bounds": ("riemann_map",),
    "kinetics.brentq": ("riemann_map", "locus_shoot"),
    "kinetics.kinetic_u_plus_candidates": ("locus_shoot",),
    "kinetics.locus_point": ("locus_shoot",),
    "riemann.solve": ("riemann_map",),
    "riemann.classify_plane": ("riemann_map",),
    "riemann.verify_solution": ("riemann_map",),
    "phaseplane.shoot_unstable": ("locus_shoot",),
    "phaseplane.shoot_saddle_connection": ("locus_shoot",),
    "phaseplane.solve_ivp": ("locus_shoot",),
    "psystem.psys_locus": ("locus_shoot",),
    "psystem.psys_shoot": ("locus_shoot",),
    "psystem.brentq": ("locus_shoot",),
    "cli.main": ("riemann_map", "locus_shoot"),
}

#: layers a workload bypasses (its "no change" prediction)
BYPASSED = {
    "pde_riemann": ("riemann.classify_plane", "psystem.psys_shoot"),
    "pde_periodic": ("pde.solve_banded", "riemann.classify_plane",
                     "psystem.psys_shoot"),
    "riemann_map": ("pde.simulate", "pde.step", "psystem.psys_shoot"),
    "locus_shoot": ("pde.simulate", "riemann.classify_plane"),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload: {workload: per-span stats}."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(SEED, str(tmp_path_factory.mktemp(name)))
        tracer = Tracer()
        tracer.install()
        try:
            wl.run_pass()
        finally:
            tracer.uninstall()
        out[name] = tracer.per_run()[0]
    return out


def test_reached_table_lists_every_span():
    assert set(REACHED) == set(SPAN_NAMES)


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_span_reached(traced, span):
    for workload in REACHED[span]:
        assert traced[workload][span]["calls"] > 0, (span, workload)


def test_bypassed_layers_not_called(traced):
    for workload, spans in BYPASSED.items():
        for span in spans:
            assert traced[workload][span]["calls"] == 0, (span, workload)


def test_uninstall_restores_bindings():
    tracer = Tracer()
    before = [dict(vars(m)) for m in tracer.modules]
    tracer.install()
    assert any(vars(m) != b for m, b in zip(tracer.modules, before))
    tracer.uninstall()
    for m, b in zip(tracer.modules, before):
        assert all(vars(m)[k] is v for k, v in b.items())


def test_wrappers_are_transparent(tmp_path):
    wl = WORKLOADS["pde_riemann"](SEED, str(tmp_path))
    last = len(wl.cases) - 1
    plain = wl.run_case(last)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_case(last)
    finally:
        tracer.uninstall()
    assert plain[0].tobytes() == traced[0].tobytes()
    assert plain[1:] == traced[1:]


def test_same_seed_same_artifacts(tmp_path):
    a = WORKLOADS["locus_shoot"](SEED, str(tmp_path / "a"))
    b = WORKLOADS["locus_shoot"](SEED, str(tmp_path / "b"))
    c = WORKLOADS["locus_shoot"](SEED + 1, str(tmp_path / "c"))
    assert a.run_pass()["digest"] == b.run_pass()["digest"]
    assert a.scalar == b.scalar and a.scalar != c.scalar


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def _run_bench(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "locus_shoot",
           "--seed", str(SEED), "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_result_line():
    proc = _run_bench(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
