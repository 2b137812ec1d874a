"""Command-line interface: reproducible runs with CSV/JSON artifacts.

Subcommands mirror the library modules: kinetics, phase, riemann, simulate,
psystem.  Every run echoes its fully resolved parameters into the output
header; identical configurations produce byte-identical files.  Options may
come from a config file (JSON object or flat ``key = value`` lines) with
command-line flags taking precedence.
"""

import argparse
import json
import sys

import numpy as np

from . import kinetics, pde, phaseplane, psystem, riemann
from .errors import UCWavesError
from .kinetics import Branch
from .model import rh_speed

FLOAT_FMT = ".17g"


def _fmt(x):
    return format(float(x), FLOAT_FMT)


def _json_ready(obj):
    """Round floats through their shortest lossless representation."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _write_json(path, payload):
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
    _write_text(path, text)


def _write_csv(path, params, header, rows):
    lines = [f"# {k} = {params[k]}" for k in sorted(params)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _params_dict(args, keys):
    out = {}
    for k in keys:
        v = getattr(args, k)
        if v is None:
            continue
        if isinstance(v, (float, np.floating)):
            v = float(v)
        elif isinstance(v, np.integer):
            v = int(v)
        out[k] = repr(v)
    return out


def _parse_sweep(arg):
    """start:stop:step (inclusive of both ends up to rounding)."""
    try:
        start, stop, step_ = (float(tok) for tok in arg.split(":"))
    except ValueError:
        raise UCWavesError(f"bad sweep {arg!r}; expected start:stop:step")
    if step_ <= 0 or stop < start:
        raise UCWavesError(f"bad sweep {arg!r}; need step > 0 and stop >= start")
    n = int(np.floor((stop - start) / step_ + 1e-9)) + 1
    return start + step_ * np.arange(n)


def _parse_grid(arg):
    """min:max:n for one axis of the classification grid."""
    lo, hi, n = arg.split(":")
    return np.linspace(float(lo), float(hi), int(n))


# ---------------------------------------------------------------------------
# subcommand implementations

_KPOINT_HEADER = ["a", "branch", "u_minus", "u_zero", "u_plus", "s", "gamma",
                  "endpoint"]


def _kpoint_row(p):
    return [p.a, p.branch.value, p.u_minus, p.u_zero, p.u_plus, p.s, p.gamma,
            p.endpoint or ""]


def _cmd_kinetics(args):
    if args.preset == "fig1":
        args.gamma = 1.0 / np.sqrt(6.0)
        args.points = args.points or 201
    params = _params_dict(args, ["gamma", "sweep_a", "points", "branch",
                                 "u_plus", "u_minus", "preset"])
    if args.preset == "fig2":
        rows = []
        for n in range(1, 11):
            g = n / 10.0 * kinetics.GAMMA_MAX
            for p in kinetics.locus_sweep(g, args.points or 101):
                rows.append(_kpoint_row(p))
        _write_csv(args.output, params, _KPOINT_HEADER, rows)
        return 0
    if args.gamma is None:
        raise UCWavesError("kinetics requires --gamma (or --preset fig2)")
    g = args.gamma
    if args.u_plus is not None:
        um = kinetics.kinetic_u_minus(args.u_plus, g)
        _write_json(args.output, {
            "params": params,
            "u_plus": args.u_plus, "gamma": g, "u_minus": um,
            "s": rh_speed(um, args.u_plus),
        })
        return 0
    if args.u_minus is not None:
        cands = kinetics.kinetic_u_plus_candidates(args.u_minus, g)
        _write_json(args.output, {
            "params": params,
            "u_minus": args.u_minus, "gamma": g,
            "candidates": [
                {"u_plus": p.u_plus, "a": p.a, "branch": p.branch.value,
                 "s": p.s} for p in cands
            ],
        })
        return 0
    at = kinetics.a_tilde(g)  # raises NoLocusError for gamma >= sqrt(3/8)
    if args.sweep_a:
        a_values = np.minimum(_parse_sweep(args.sweep_a), at)
    else:
        a_values = np.linspace(0.5, at, args.points or 101)
    branches = {"plus": [Branch.PLUS], "minus": [Branch.MINUS],
                "both": [Branch.PLUS, Branch.MINUS]}[args.branch]
    rows = []
    for br in branches:
        for a in sorted(set(float(a) for a in a_values)):
            rows.append(_kpoint_row(kinetics.locus_point(a, g, br)))
    _write_csv(args.output, params, _KPOINT_HEADER, rows)
    return 0


def _cmd_phase(args):
    params = _params_dict(args, ["gamma", "u_minus", "u_plus", "s", "lax_check"])
    s = args.s if args.s is not None else rh_speed(args.u_minus, args.u_plus)
    prob = phaseplane.TWProblem(args.gamma, s, args.u_minus)
    if args.lax_check:
        res = phaseplane.shoot_unstable(prob, args.u_plus, args.u_minus,
                                        backward=True)
    else:
        res = phaseplane.shoot_unstable(prob, args.u_minus, args.u_plus)
    if args.format == "csv":
        rows = [(xi, u, v) for xi, u, v in res.trajectory]
        _write_csv(args.output, params, ["xi", "u", "v"], rows)
    else:
        lam = {u: [complex(z) for z in phaseplane.eigenvalues(u, prob)]
               for u in prob.equilibria}
        _write_json(args.output, {
            "params": params,
            "equilibria": list(prob.equilibria),
            "eigenvalues": {
                _fmt(u): [{"re": z.real, "im": z.imag} for z in v]
                for u, v in lam.items()
            },
            "verdict": res.verdict.value,
            "terminal_distance": res.terminal_distance,
            "parabola_residual": phaseplane.parabola_residual(
                res, args.u_minus, args.u_plus),
        })
    return 0


def _cmd_riemann(args):
    if args.preset == "fig3":
        args.gamma = 1.0 / np.sqrt(6.0)
        args.classify_grid = args.classify_grid or "-1.2:1.2:97,-1.2:1.2:97"
    params = _params_dict(args, ["gamma", "uL", "uR", "classify_grid",
                                 "evaluate_at", "verify", "preset"])
    if args.gamma is None:
        raise UCWavesError("riemann requires --gamma (or --preset fig3)")
    if args.classify_grid:
        axis_l, axis_r = args.classify_grid.split(",")
        ul_vals, ur_vals = _parse_grid(axis_l), _parse_grid(axis_r)
        pat = riemann.classify_plane(args.gamma, ul_vals, ur_vals)
        rows = [(ul, ur, pat[i, j])
                for i, ul in enumerate(ul_vals) for j, ur in enumerate(ur_vals)]
        _write_csv(args.output, params, ["u_left", "u_right", "pattern"], rows)
        return 0
    if args.uL is None or args.uR is None:
        raise UCWavesError("riemann requires --uL and --uR (or --classify-grid)")
    sol = riemann.solve(args.uL, args.uR, args.gamma)
    payload = {"params": params, **riemann.solution_to_dict(sol)}
    if args.evaluate_at is not None:
        payload["evaluate"] = {"r": args.evaluate_at,
                               "u": riemann.evaluate(sol, args.evaluate_at)}
    if args.verify:
        payload["admissibility"] = [
            {"wave": c.index, "kind": c.kind.value, "passed": bool(c.passed),
             "detail": c.detail}
            for c in riemann.verify_solution(sol)
        ]
    _write_json(args.output, payload)
    return 0


def _build_sim_config(args):
    beta, mu = args.beta, args.mu
    gamma = beta / np.sqrt(mu) if mu > 0 else None
    if args.initial == "smoothed":
        steep = args.steepness if args.steepness is not None else gamma
        if steep is None:
            raise UCWavesError("--steepness required when mu < 0")
        init = pde.SmoothedRiemann(args.uL, args.uR, steep)
    elif args.initial == "tw":
        if gamma is None:
            raise UCWavesError("traveling-wave seed requires mu > 0")
        point = kinetics.locus_point(args.tw_a, gamma, Branch(args.tw_branch))
        init = pde.TravelingWaveSeed(point)
    else:
        raise UCWavesError(f"unknown initial {args.initial!r}")
    return pde.SimConfig(
        beta=beta, mu=mu, x_min=args.x_min, x_max=args.x_max, nx=args.nx,
        dt=args.dt, t_end=args.t_end, bc=pde.BoundaryCondition(args.bc),
        initial=init,
    )


def _cmd_simulate(args):
    if args.preset == "fig4":
        defaults = dict(uL=0.4, uR=-0.8, beta=0.1, mu=0.06, x_min=-30.0,
                        x_max=60.0, nx=4001, t_end=50.0, dt=0.01,
                        snapshot_every=2.0, speed_fit="exp")
        for k, v in defaults.items():
            if getattr(args, k) is None:
                setattr(args, k, v)
    required = ["beta", "mu", "x_min", "x_max", "nx", "t_end"]
    missing = [k for k in required if getattr(args, k) is None]
    if args.initial == "smoothed" and (args.uL is None or args.uR is None):
        missing += [k for k in ("uL", "uR") if getattr(args, k) is None]
    if missing:
        raise UCWavesError("simulate missing required options: "
                           + ", ".join("--" + k.replace("_", "-") for k in missing))
    params = _params_dict(args, ["uL", "uR", "beta", "mu", "x_min", "x_max",
                                 "nx", "dt", "t_end", "bc", "initial",
                                 "steepness", "tw_a", "tw_branch",
                                 "snapshot_every", "speed_fit",
                                 "snapshot_profiles", "preset"])
    cfg = _build_sim_config(args)
    snap_times = ()
    if args.snapshot_every:
        snap_times = np.arange(0.0, cfg.t_end + 1e-12, args.snapshot_every)
    result = pde.simulate(cfg, snapshot_times=snap_times)
    x, _ = pde.x_grid(cfg)
    if args.profile_output:
        rows = list(zip(x, result.final.u))
        _write_csv(args.profile_output, params, ["x", "u"], rows)
    if args.snapshot_profiles:
        for st in result.snapshots:
            path = f"{args.snapshot_profiles}t{format(st.t, '.6g')}.csv"
            _write_csv(path, {**params, "t": format(st.t, ".17g")},
                       ["x", "u"], list(zip(x, st.u)))
    report = pde.detect_fronts(result.final, plateau_tol=args.plateau_tol)
    payload = {
        "params": params,
        "t_final": result.final.t,
        "plateaus": [{"value": p.value, "x_left": p.x_left, "x_right": p.x_right}
                     for p in report.plateaus],
        "fronts": [{"position": f.position, "left_value": f.left_value,
                    "right_value": f.right_value} for f in report.fronts],
    }
    trailing = tuple(s for s in result.snapshots if s.t >= 0.5 * cfg.t_end)
    if len(trailing) > 2:
        fits = pde.fit_front_speeds(
            cfg, pde.SimResult(result.final, trailing),
            plateau_tol=args.plateau_tol,
            transient=args.speed_fit or "linear")
        payload["front_speeds"] = [
            {"speed": f.speed, "intercept": f.intercept} for f in fits
        ]
    _write_json(args.output, payload)
    return 0


def _cmd_psystem(args):
    if args.preset == "fig5":
        args.A = args.A if args.A is not None else 4.0
        args.sweep_b = args.sweep_b or "-0.75:-0.5:0.0025"
    params = _params_dict(args, ["A", "b", "sweep_b", "u_minus", "shoot",
                                 "preset"])
    if args.A is None:
        raise UCWavesError("psystem requires --A (or --preset fig5)")
    header = ["b", "A", "u_minus", "u_plus", "u_zero", "s", "k", "v_minus",
              "v_plus"]

    def row(p):
        return [p.b, p.A, p.u_minus, p.u_plus, p.u_zero, p.s, p.k,
                p.v_minus, p.v_plus]

    if args.sweep_b:
        b_values = np.minimum(_parse_sweep(args.sweep_b), -0.5)
        rows = [row(psystem.psys_locus(float(b), args.A))
                for b in sorted(set(float(b) for b in b_values))]
        _write_csv(args.output, params, header, rows)
        return 0
    if args.u_minus is not None:
        up = psystem.psys_kinetic_u_plus(args.u_minus, args.A)
        _write_json(args.output, {
            "params": params, "A": args.A, "u_minus": args.u_minus,
            "u_plus": up, "threshold": psystem.psys_threshold(args.A),
        })
        return 0
    if args.b is None:
        raise UCWavesError("psystem requires --b, --sweep-b or --u-minus")
    p = psystem.psys_locus(args.b, args.A, v_minus=args.v_minus)
    payload = {"params": params,
               **{k: getattr(p, k) for k in ("b", "A", "u_minus", "u_plus",
                                             "u_zero", "s", "k", "v_minus",
                                             "v_plus")}}
    if args.shoot:
        res = psystem.psys_shoot(p)
        payload["shoot"] = {
            "verdict": res.verdict.value,
            "terminal_distance": res.terminal_distance,
            "parabola_residual": psystem.psys_parabola_residual(res, p),
            "orbit_start_u": float(res.trajectory[0, 1]),
        }
    _write_json(args.output, payload)
    return 0


# ---------------------------------------------------------------------------
# parser / config plumbing


def _add_common(sp):
    sp.add_argument("--output", "-o", default=None,
                    help="output file (default: stdout)")
    sp.add_argument("--config", default=None,
                    help="JSON or key=value config file; flags override it")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ucwaves",
        description="Undercompressive shocks of the cubic conservation law "
                    "with BBM-type dispersion: kinetic locus, phase-plane "
                    "shooting, nonclassical Riemann solver, PDE simulation, "
                    "and the p-system analogue.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kinetics", help="undercompressive locus computations")
    _add_common(k)
    k.add_argument("--gamma", type=float)
    k.add_argument("--sweep-a", dest="sweep_a",
                   help="a-sweep start:stop:step (clipped to a_tilde)")
    k.add_argument("--points", type=int, help="points per branch (default 101)")
    k.add_argument("--branch", choices=["plus", "minus", "both"], default="both")
    k.add_argument("--u-plus", dest="u_plus", type=float,
                   help="invert the kinetic map: find u_minus for this u_plus")
    k.add_argument("--u-minus", dest="u_minus", type=float,
                   help="list all u_plus candidates for this u_minus")
    k.add_argument("--preset", choices=["fig1", "fig2"])
    k.set_defaults(fn=_cmd_kinetics)

    p = sub.add_parser("phase", help="traveling-wave phase-plane shooting")
    _add_common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--u-minus", dest="u_minus", type=float, required=True)
    p.add_argument("--u-plus", dest="u_plus", type=float, required=True)
    p.add_argument("--s", type=float,
                   help="wave speed (default: Rankine-Hugoniot speed)")
    p.add_argument("--lax-check", dest="lax_check", action="store_true",
                   help="verify a Lax profile (backward shoot) instead of a "
                        "saddle-saddle connection")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv exports the orbit trajectory (xi,u,v)")
    p.set_defaults(fn=_cmd_phase)

    r = sub.add_parser("riemann", help="nonclassical Riemann solver")
    _add_common(r)
    r.add_argument("--gamma", type=float)
    r.add_argument("--uL", type=float)
    r.add_argument("--uR", type=float)
    r.add_argument("--evaluate-at", dest="evaluate_at", type=float,
                   help="also evaluate the solution at r = x/t")
    r.add_argument("--verify", action="store_true",
                   help="re-check admissibility of every wave")
    r.add_argument("--classify-grid", dest="classify_grid",
                   help="pattern map over uLmin:uLmax:n,uRmin:uRmax:n")
    r.add_argument("--preset", choices=["fig3"])
    r.set_defaults(fn=_cmd_riemann)

    s = sub.add_parser("simulate", help="finite-difference PDE simulation")
    _add_common(s)
    s.add_argument("--uL", type=float)
    s.add_argument("--uR", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--mu", type=float)
    s.add_argument("--x-min", dest="x_min", type=float)
    s.add_argument("--x-max", dest="x_max", type=float)
    s.add_argument("--nx", type=int)
    s.add_argument("--dt", type=float)
    s.add_argument("--t-end", dest="t_end", type=float)
    s.add_argument("--bc", choices=[b.value for b in pde.BoundaryCondition],
                   default=pde.BoundaryCondition.DIRICHLET_FARFIELD.value)
    s.add_argument("--initial", choices=["smoothed", "tw"], default="smoothed")
    s.add_argument("--steepness", type=float,
                   help="tanh steepness (default: gamma)")
    s.add_argument("--tw-a", dest="tw_a", type=float,
                   help="locus parameter a for --initial tw")
    s.add_argument("--tw-branch", dest="tw_branch",
                   choices=["plus", "minus"], default="minus")
    s.add_argument("--snapshot-every", dest="snapshot_every", type=float,
                   help="record snapshots every this many time units")
    s.add_argument("--speed-fit", dest="speed_fit",
                   choices=["linear", "exp"], default=None,
                   help="front-speed fit over the trailing half of the "
                        "snapshots (default linear); exp absorbs a decaying "
                        "transient")
    s.add_argument("--plateau-tol", dest="plateau_tol", type=float,
                   default=0.01)
    s.add_argument("--profile-output", dest="profile_output",
                   help="also write the final (x, u) profile as CSV here")
    s.add_argument("--snapshot-profiles", dest="snapshot_profiles",
                   help="write every snapshot as CSV to PREFIXt<time>.csv")
    s.add_argument("--preset", choices=["fig4"])
    s.set_defaults(fn=_cmd_simulate)

    q = sub.add_parser("psystem", help="p-system traveling waves")
    _add_common(q)
    q.add_argument("--A", type=float)
    q.add_argument("--b", type=float)
    q.add_argument("--v-minus", dest="v_minus", type=float, default=0.0)
    q.add_argument("--sweep-b", dest="sweep_b",
                   help="b-sweep start:stop:step (clipped to -1/2)")
    q.add_argument("--u-minus", dest="u_minus", type=float,
                   help="kinetic map: the unique u_plus for this u_minus")
    q.add_argument("--shoot", action="store_true")
    q.add_argument("--preset", choices=["fig5"])
    q.set_defaults(fn=_cmd_psystem)

    return ap


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise UCWavesError(f"config {path!r} must hold an object")
        return data
    except json.JSONDecodeError:
        pass
    data = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UCWavesError(f"bad config line {line!r} in {path!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        try:
            data[key] = json.loads(val)
        except json.JSONDecodeError:
            data[key] = val
    return data


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            config = _load_config(args.config)
            known = set(vars(args))
            unknown = [k for k in config if k not in known]
            if unknown:
                raise UCWavesError(
                    "unknown config keys: " + ", ".join(sorted(unknown)))
            sub = build_parser()
            for action in sub._subparsers._group_actions:
                if args.command in action.choices:
                    action.choices[args.command].set_defaults(**config)
            args = sub.parse_args(argv)
        return args.fn(args)
    except UCWavesError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
