"""Command-line interface: reproducible runs with CSV/JSON artifacts.

Subcommands mirror the library modules: kinetics, phase, riemann, simulate,
psystem.  Every run echoes its fully resolved parameters into the output
header; identical configurations produce byte-identical files.

``main`` resolves every option in one place, with one precedence: flag >
config file > preset > built-in default.  A config file (a JSON object or
flat ``key = value`` lines, keyed by the option names with underscores,
e.g. ``x_min``) is read as ``--key=value`` flags placed before the command
line, so argparse checks its types and choices and the command-line flags
win.  ``--preset`` then fills, from ``PRESETS``, every option still unset.
The echo holds every option that has a value except the output-routing
names in ``_NOT_ECHOED``.
"""

import argparse
import dataclasses
import functools
import json
import math
import operator
import sys
from enum import Enum

import numpy as np

from . import kinetics, pde, phaseplane, psystem, riemann
from .errors import DomainError, UCWavesError, _check_finite
from .kinetics import Branch
from .model import rh_speed

FLOAT_FMT = ".17g"

_GAMMA6 = 1.0 / math.sqrt(6.0)

#: the most points a --sweep-a or --sweep-b range may hold
_MAX_SWEEP = 10**6

#: The reference figures' options, {command: {preset: {option: value}}}.  A
#: preset fills only options whose value is still None after flags and config
#: file.  fig2 loops over ten gammas in ``_cmd_kinetics`` and fills nothing.
PRESETS = {
    "kinetics": {"fig1": {"gamma": _GAMMA6, "points": 201}, "fig2": {}},
    "riemann": {"fig3": {"gamma": _GAMMA6,
                         "classify_grid": "-1.2:1.2:97,-1.2:1.2:97"}},
    "simulate": {"fig4": {"uL": 0.4, "uR": -0.8, "beta": 0.1, "mu": 0.06,
                          "x_min": -30.0, "x_max": 60.0, "nx": 4001,
                          "t_end": 50.0, "dt": 0.01, "snapshot_every": 2.0,
                          "speed_fit": "exp"}},
    "psystem": {"fig5": {"A": 4.0, "sweep_b": "-0.75:-0.5:0.0025"}},
}

#: What the echo leaves out: the subcommand and its handler, and the options
#: that route input and output without changing a result (so the same run
#: written elsewhere, or configured from a file, has the same bytes).
_NOT_ECHOED = frozenset({"command", "fn", "output", "config", "format",
                         "profile_output", "snapshot_profiles"})


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


def _cell(v):
    """One CSV cell: text as is, an Enum as its value, None as empty."""
    if isinstance(v, str):
        return v
    if isinstance(v, Enum):
        return _cell(v.value)
    return "" if v is None else _fmt(v)


def _write_csv(path, params, header, rows):
    lines = [f"# {k} = {params[k]}" for k in sorted(params)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_records(path, params, cls, records):
    """CSV with one column per field of the dataclass ``cls``."""
    names = [f.name for f in dataclasses.fields(cls)]
    _write_csv(path, params, names, map(operator.attrgetter(*names), records))


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_sweep(arg):
    """start:stop:step (inclusive of both ends up to rounding)."""
    try:
        start, stop, step_ = (float(tok) for tok in arg.split(":"))
    except ValueError:
        raise UCWavesError(f"bad sweep {arg!r}; expected start:stop:step")
    _check_finite(f"sweep {arg!r}", start=start, stop=stop, step=step_)
    if step_ <= 0 or stop < start:
        raise UCWavesError(f"bad sweep {arg!r}; need step > 0 and stop >= start")
    steps = (stop - start) / step_  # inf when stop - start overflows
    if not steps < _MAX_SWEEP:
        raise DomainError(f"bad sweep {arg!r}; more than {_MAX_SWEEP} points")
    return start + step_ * np.arange(int(np.floor(steps + 1e-9)) + 1)


def _count(name, n):
    """A number of points, which must be at least 1."""
    if n < 1:
        raise DomainError(f"{name}={n!r} (must be >= 1)")
    return n


def _parse_grid(arg):
    """uLmin:uLmax:n,uRmin:uRmax:n, the two axes of the classification grid."""
    try:
        (l0, l1, nl), (r0, r1, nr) = (axis.split(":") for axis in arg.split(","))
        return (np.linspace(float(l0), float(l1), _count("grid n", int(nl))),
                np.linspace(float(r0), float(r1), _count("grid n", int(nr))))
    except ValueError:
        raise UCWavesError(
            f"bad grid {arg!r}; expected uLmin:uLmax:n,uRmin:uRmax:n")


# ---------------------------------------------------------------------------
# subcommand implementations: each receives the resolved args and their echo


def _cmd_kinetics(args, params):
    modes = [flag for flag, given in (("--u-plus", args.u_plus is not None),
                                      ("--u-minus", args.u_minus is not None),
                                      ("--sweep-a", args.sweep_a is not None),
                                      ("--preset fig2", args.preset == "fig2"))
             if given]
    if len(modes) > 1:
        raise UCWavesError("kinetics takes one of --u-plus, --u-minus, "
                           "--sweep-a, --preset fig2; got " + ", ".join(modes))
    n_points = _count("points", 101 if args.points is None else args.points)
    if args.preset == "fig2":
        points = [p for n in range(1, 11)
                  for p in kinetics.locus_sweep(n / 10.0 * kinetics.GAMMA_MAX,
                                                n_points)]
        _write_records(args.output, params, kinetics.KineticPoint, points)
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
        a_values = np.linspace(0.5, at, n_points)
    branches = {"plus": [Branch.PLUS], "minus": [Branch.MINUS],
                "both": [Branch.PLUS, Branch.MINUS]}[args.branch]
    points = [kinetics.locus_point(a, g, br) for br in branches
              for a in sorted(set(float(a) for a in a_values))]
    _write_records(args.output, params, kinetics.KineticPoint, points)
    return 0


def _require(args, names):
    """Raise UCWavesError naming every option in ``names`` still unset."""
    missing = [k for k in names if getattr(args, k) is None]
    if missing:
        raise UCWavesError(f"{args.command} missing required options: "
                           + ", ".join("--" + k.replace("_", "-") for k in missing))


def _cmd_phase(args, params):
    _require(args, ["gamma", "u_minus", "u_plus"])
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


def _cmd_riemann(args, params):
    if args.gamma is None:
        raise UCWavesError("riemann requires --gamma (or --preset fig3)")
    if args.classify_grid:
        ul_vals, ur_vals = _parse_grid(args.classify_grid)
        pat = riemann.classify_plane(args.gamma, ul_vals, ur_vals)
        # each axis value is formatted once, not once per cell
        uls, urs = map(_fmt, ul_vals), list(map(_fmt, ur_vals))
        rows = [(ul, ur, pat[i, j])
                for i, ul in enumerate(uls) for j, ur in enumerate(urs)]
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
    _check_finite("simulate options", mu=mu)
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


def _cmd_simulate(args, params):
    _require(args, ["beta", "mu", "x_min", "x_max", "nx", "t_end"]
             + (["uL", "uR"] if args.initial == "smoothed" else []))
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


def _cmd_psystem(args, params):
    if args.A is None:
        raise UCWavesError("psystem requires --A (or --preset fig5)")
    if args.sweep_b:
        b_values = np.minimum(_parse_sweep(args.sweep_b), -0.5)
        points = [psystem.psys_locus(b, args.A, v_minus=args.v_minus)
                  for b in sorted(set(float(b) for b in b_values))]
        _write_records(args.output, params, psystem.PSystemLocusPoint, points)
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
    payload = {"params": params, **dataclasses.asdict(p)}
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


def _add_subcommand(sub, name, fn, help):
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--output", "-o", help="output file (default: stdout)")
    sp.add_argument("--config",
                    help="JSON or key=value config file; flags override it")
    if name in PRESETS:
        sp.add_argument("--preset", choices=list(PRESETS[name]),
                        help="reference-figure options; fills unset options")
    sp.set_defaults(fn=fn)
    return sp


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ucwaves",
        description="Undercompressive shocks of the cubic conservation law "
                    "with BBM-type dispersion: kinetic locus, phase-plane "
                    "shooting, nonclassical Riemann solver, PDE simulation, "
                    "and the p-system analogue.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = _add_subcommand(sub, "kinetics", _cmd_kinetics,
                        "undercompressive locus computations")
    k.add_argument("--gamma", type=float)
    k.add_argument("--sweep-a", help="a-sweep start:stop:step (clipped to a_tilde)")
    k.add_argument("--points", type=int, help="points per branch (default 101)")
    k.add_argument("--branch", choices=["plus", "minus", "both"], default="both")
    k.add_argument("--u-plus", type=float,
                   help="invert the kinetic map: find u_minus for this u_plus")
    k.add_argument("--u-minus", type=float,
                   help="list all u_plus candidates for this u_minus")

    p = _add_subcommand(sub, "phase", _cmd_phase,
                        "traveling-wave phase-plane shooting")
    p.add_argument("--gamma", type=float, help="required (flag or config file)")
    p.add_argument("--u-minus", type=float, help="required (flag or config file)")
    p.add_argument("--u-plus", type=float, help="required (flag or config file)")
    p.add_argument("--s", type=float,
                   help="wave speed (default: Rankine-Hugoniot speed)")
    p.add_argument("--lax-check", action="store_true",
                   help="verify a Lax profile (backward shoot) instead of a "
                        "saddle-saddle connection")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv exports the orbit trajectory (xi,u,v)")

    r = _add_subcommand(sub, "riemann", _cmd_riemann, "nonclassical Riemann solver")
    r.add_argument("--gamma", type=float)
    r.add_argument("--uL", type=float)
    r.add_argument("--uR", type=float)
    r.add_argument("--evaluate-at", type=float,
                   help="also evaluate the solution at r = x/t")
    r.add_argument("--verify", action="store_true",
                   help="re-check admissibility of every wave")
    r.add_argument("--classify-grid",
                   help="pattern map over uLmin:uLmax:n,uRmin:uRmax:n")

    s = _add_subcommand(sub, "simulate", _cmd_simulate,
                        "finite-difference PDE simulation")
    s.add_argument("--uL", type=float)
    s.add_argument("--uR", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--mu", type=float)
    s.add_argument("--x-min", type=float)
    s.add_argument("--x-max", type=float)
    s.add_argument("--nx", type=int)
    s.add_argument("--dt", type=float)
    s.add_argument("--t-end", type=float)
    s.add_argument("--bc", choices=[b.value for b in pde.BoundaryCondition],
                   default=pde.BoundaryCondition.DIRICHLET_FARFIELD.value)
    s.add_argument("--initial", choices=["smoothed", "tw"], default="smoothed")
    s.add_argument("--steepness", type=float,
                   help="tanh steepness (default: gamma)")
    s.add_argument("--tw-a", type=float,
                   help="locus parameter a for --initial tw")
    s.add_argument("--tw-branch", choices=["plus", "minus"], default="minus")
    s.add_argument("--snapshot-every", type=float,
                   help="record snapshots every this many time units")
    s.add_argument("--speed-fit", choices=["linear", "exp"],
                   help="front-speed fit over the trailing half of the "
                        "snapshots (default linear); exp absorbs a decaying "
                        "transient")
    s.add_argument("--plateau-tol", type=float, default=0.01)
    s.add_argument("--profile-output",
                   help="also write the final (x, u) profile as CSV here")
    s.add_argument("--snapshot-profiles",
                   help="write every snapshot as CSV to PREFIXt<time>.csv")

    q = _add_subcommand(sub, "psystem", _cmd_psystem, "p-system traveling waves")
    q.add_argument("--A", type=float)
    q.add_argument("--b", type=float)
    q.add_argument("--v-minus", type=float, default=0.0)
    q.add_argument("--sweep-b", help="b-sweep start:stop:step (clipped to -1/2)")
    q.add_argument("--u-minus", type=float,
                   help="kinetic map: the unique u_plus for this u_minus")
    q.add_argument("--shoot", action="store_true")

    return ap


@functools.cache
def _parser():
    """The parser of ``main``, built once per process: parsing leaves it as is."""
    return build_parser()


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


def _config_flags(args):
    """The entries of ``args.config`` as flags of ``args.command``.

    ``args`` is the parse of the command line alone, so its attributes are
    the subcommand's options.  A switch (``store_true``) takes true or false.
    """
    config = _load_config(args.config)
    options = set(vars(args)) - {"command", "fn", "config"}
    unknown = sorted(set(config) - options)
    if unknown:
        raise UCWavesError("unknown config keys: " + ", ".join(unknown))
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if value not in (True, False):
                raise UCWavesError(f"config key {key!r} takes true or false")
            flags += [flag] if value else []
        elif value is not None:
            flags.append(f"{flag}={value}")
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            args = ap.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        preset = PRESETS.get(args.command, {}).get(vars(args).get("preset"), {})
        for key, value in preset.items():
            if getattr(args, key) is None:
                setattr(args, key, value)
        params = {k: repr(v) for k, v in vars(args).items()
                  if v is not None and k not in _NOT_ECHOED}
        return args.fn(args, params)
    except UCWavesError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
