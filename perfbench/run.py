"""Benchmark of the ucwaves pipeline: four seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pde_riemann --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 8

A run builds its inputs from ``--seed``, runs one checked warm-up pass of
the workload, then repeats the same pass for ``--seconds`` seconds and
reports medians.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
span tracing (untraced and traced passes alternate, so the tracing overhead
is measured in the same process).  ``--all`` runs every workload in both
modes and prints one table.  Results, the environment record and the spans
go to ``.perfbench_out/`` in the repository root.

The orchestrating process imports no numpy: it times the set-up of several
fresh worker processes (interpreter start, imports, input generation) and
starts the measuring worker, which imports ucwaves from ``src/``.  The
worker times a reference kernel between items every REFERENCE_EVERY_S; the
end-to-end times are scaled by the host speed it gives (see ``reference.py``).
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("pde_riemann", "pde_periodic", "riemann_map", "locus_shoot")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7  # fresh processes timed for setup_s
PROBE_REFERENCE_RUNS = 2  # reference kernel runs in each probe, after set-up
MIN_PASSES = 3  # timed passes per kind, whatever --seconds says
DEADLINE_S = 170.0  # the whole run, children included
REFERENCE_EVERY_S = 0.5  # the reference kernel runs between items this often

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    from tracing import SPAN_NAMES
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [("kinetics.brentq.fevals", "count", "lower"),
            ("psystem.brentq.fevals", "count", "lower"),
            ("phaseplane.solve_ivp.nfev", "count", "lower"),
            ("pde.point_updates_per_s", "1/s", "higher"),
            ("psystem.shots_per_connection", "ratio", "lower"),
            ("cli.bytes_written", "bytes", "lower"),
            ("riemann.verify_rejected", "count", "lower"),
            ("oracle_err", "ratio", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------
# worker side (imports numpy and ucwaves)


def _load_workload(name, seed):
    """Import ucwaves from this checkout and build the seeded workload."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ucwaves
    if not os.path.abspath(ucwaves.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ucwaves imported from {ucwaves.__file__}, not {SRC}")
    from workloads import WORKLOADS
    out_dir = os.path.join(OUT, name)
    return WORKLOADS[name](seed, out_dir), out_dir


def _environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS}}


def _worker(args):
    wl, out_dir = _load_workload(args.workload, args.seed)
    ready = time.monotonic()
    t0 = time.perf_counter()
    first = wl.run_pass()
    warmup_s = time.perf_counter() - t0
    checks = wl.check(first)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    from reference import kernel_s
    plain, traced, mismatched = [], [], 0  # per pass: the time of each item
    reference = []  # kernel times, sampled between items
    last = [-math.inf]  # when the kernel last ran

    def sample_reference():
        if time.perf_counter() - last[0] >= REFERENCE_EVERY_S:
            reference.append(kernel_s())
            last[0] = time.perf_counter()

    start = time.perf_counter()
    k = 0
    while True:
        use_trace = tracer is not None and k % 2 == 1
        times = []
        if use_trace:
            tracer.run_id = k
            tracer.install()
        try:
            res = wl.run_pass(times, sample_reference)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(times)
        mismatched += res["digest"] != first["digest"]
        k += 1
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        # stop at the pass boundary nearest to --seconds
        if enough and time.perf_counter() - start + 0.5 * sum(times) >= args.seconds:
            break

    from workloads import Check
    checks.append(Check(f"{k} repeated passes byte-identical to the first",
                        mismatched == 0))
    ratios = [(c.ratio, c.name) for c in checks if c.ratio is not None]
    worst = max(ratios) if ratios else (0.0, "none")
    report = {
        "ready": ready, "env": _environment(), "warmup_s": warmup_s,
        "passes": plain, "traced_passes": traced, "reference_s": reference,
        "speed": NOMINAL_S / statistics.median(reference),
        "wall_s": body_time(plain), "traced_wall_s": body_time(traced) if traced else None,
        "checks": [[c.name, c.passed, c.ratio] for c in checks],
        "oracle_err": worst[0], "oracle_worst": worst[1],
        "bytes_written": first["bytes_written"],
        "observed": wl.observed, "notes": wl.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        runs = tracer.per_run()
        report["layers"] = _layer_metrics(runs, report)
        report["per_call"] = _per_call(runs)
        tracer.save(os.path.join(out_dir, "spans.npz"))
    print(json.dumps(report))


def body_time(passes):
    """Time of the timed body: the sum over items of each item's median
    time across passes, so a slow spell during one item of one pass does not
    move the result."""
    return sum(statistics.median(t) for t in zip(*passes))


def _layer_metrics(runs, report):
    """Every per-layer metric as [value, unit]; span values are medians over
    the traced passes."""
    def med(key):
        return statistics.median(key(r) for r in runs.values())

    out = {"cli.bytes_written": report["bytes_written"],
           "riemann.verify_rejected": report["observed"].get("riemann.verify_rejected", 0),
           "oracle_err": report["oracle_err"],
           "trace.wall_s": report["traced_wall_s"],
           "trace.overhead_s": report["traced_wall_s"] - report["wall_s"]}
    for name, _, _ in per_layer_metrics():
        span, _, field = name.rpartition(".")
        if name in out:
            continue
        if field in ("calls", "self_s"):
            out[name] = med(lambda r: r[span][field])
        elif field in ("fevals", "nfev"):
            out[name] = med(lambda r: r[span]["value"])
        else:
            out[name] = med(lambda r: r[name])
    return {name: [out[name], unit] for name, unit, _ in per_layer_metrics()}


def _per_call(runs):
    """Per-call and per-grid-point times for comparison with hand timings;
    per-call times include a span's children."""
    def med(key):
        return statistics.median(key(r) for r in runs.values())

    out = {}
    for span in ("pde.step", "pde.flux", "pde.solve_banded", "riemann.classify_plane",
                 "kinetics.kinetic_u_minus", "kinetics.kinetic_u_plus_candidates",
                 "phaseplane.shoot_unstable", "psystem.psys_shoot"):
        if med(lambda r: r[span]["calls"]):
            out[f"{span}.per_call_s"] = med(
                lambda r: r[span]["total_s"] / r[span]["calls"])
    updates = med(lambda r: r["pde.point_updates_per_s"] * r["pde.simulate"]["total_s"])
    if updates:
        out["pde.step.per_point_update_s"] = med(lambda r: r["pde.step"]["total_s"]) / updates
        for span in ("pde.flux", "pde.solve_banded"):
            out[f"{span}.self_per_point_update_s"] = med(
                lambda r: r[span]["self_s"]) / updates
    return out


def _probe(args):
    _load_workload(args.workload, args.seed)
    ready = time.monotonic()
    from reference import kernel_s
    print(json.dumps({"ready": ready, "reference_s": [
        kernel_s() for _ in range(PROBE_REFERENCE_RUNS)]}))


# ---------------------------------------------------------------------------
# orchestrator side (standard library only)


def _spawn(role, args, deadline):
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    return report, report["ready"] - t0


def _run_one(args):
    deadline = time.monotonic() + DEADLINE_S
    setups, probe_reference = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, setup = _spawn("probe", args, deadline)
            setups.append(setup)
            probe_reference += probe["reference_s"]
    report, _ = _spawn("worker", args, deadline)

    checks = report["checks"]
    failed = [c for c in checks if not c[1]]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        # times in reference seconds, each scaled by the host speed measured
        # in the same processes (see reference.py)
        setup_speed = NOMINAL_S / statistics.median(probe_reference)
        values = {"wall_s": report["wall_s"] * report["speed"],
                  "setup_s": statistics.median(setups) * setup_speed,
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed), "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setups_s": setups, "probe_reference_s": probe_reference,
              **report, "result": result}
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# env {json.dumps(report['env'])}")
    print(f"# {args.workload} seed={args.seed}: warm-up {report['warmup_s']:.3f} s, "
          f"{len(report['passes'])} untraced and {len(report['traced_passes'])} "
          f"traced passes")
    if not args.trace:
        print(f"# host speed {report['speed']:.4f} in the worker, "
              f"{setup_speed:.4f} in the probes (reference kernel {NOMINAL_S} s "
              f"nominal); seconds as measured: wall {report['wall_s']:.4f}, "
              f"setup {statistics.median(setups):.4f}")
    print(f"# fail_frac {len(failed)}/{len(checks)} = {len(failed) / len(checks):g}; "
          f"oracle_err {report['oracle_err']:.4g} ({report['oracle_worst']})")
    for name, _, ratio in failed:
        print(f"# FAILED {name}" + ("" if ratio is None else f" (ratio {ratio:.4g})"))
    for note in report["notes"]:
        print(f"# note: {note}")
    for name, value in report["observed"].items():
        print(f"# {name} {value}")
    for name, value in report.get("per_call", {}).items():
        print(f"# {name} {value:.4g}")
    print(json.dumps(result))
    return 0


def _run_all(args):
    """Every workload in both modes, printed as one table."""
    rows = {}
    units = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=DEADLINE_S + 10.0)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.setdefault("fail_frac", {})[name] = (
                f"{res['failed']}/{res['attempted']}")
            units["fail_frac"] = "failed/attempted"
            for metric, v in res["metrics"].items():
                rows.setdefault(metric, {})[name] = f"{v['value']:.6g}"
                units[metric] = v["unit"]
    width = max(len(m) for m in rows) + 2
    print("\n" + "metric".ljust(width) + "unit".ljust(18)
          + "".join(n.rjust(15) for n in WORKLOAD_NAMES))
    for metric, vals in rows.items():
        print(metric.ljust(width) + units[metric].ljust(18)
              + "".join(vals.get(n, "-").rjust(15) for n in WORKLOAD_NAMES))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with and without tracing")
    ap.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ucwaves", "__init__.py")):
        sys.stderr.write(f"no ucwaves sources under {SRC}\n")
        return 2
    if args.all:
        return _run_all(args)
    if args.workload is None:
        ap.error("--workload is required (or --all)")
    if args.role == "probe":
        return _probe(args)
    if args.role == "worker":
        return _worker(args)
    try:
        return _run_one(args)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run exceeded its deadline\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
