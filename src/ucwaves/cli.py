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
``main`` checks the options against the command's ``MODES`` and every
output path the command takes, and only then runs its handler.  A handler
only computes: it returns the text of its ``-o`` artifact, JSON or CSV, and
``main`` writes it.  The echo holds every option that has a value except
the output-routing names in ``_NOT_ECHOED``.  The two large CSVs, the
``kinetics`` sweeps and the ``riemann`` pattern map, join their rows from
the columns of one array pass and format each shared value once; every
cell has the text ``_cell`` gives it.
"""

import argparse
import dataclasses
import functools
import json
import math
import operator
import os
import stat
import sys
from enum import Enum

import numpy as np

from . import kinetics, pde, phaseplane, psystem, riemann
from .errors import DomainError, UCWavesError, _check_finite
from .kinetics import Branch
from .model import rh_speed

FLOAT_FMT = ".17g"

_GAMMA6 = 1.0 / math.sqrt(6.0)

#: the most points a --sweep-a or --sweep-b range, a --points branch or a
#: --classify-grid may hold
_MAX_SWEEP = 10**6

#: The reference figures' options, {command: {preset: {option: value}}}.  A
#: preset fills only options whose value is still None after flags and config
#: file.  fig2's gamma holds ten gammas; the locus sweep runs at each.
PRESETS = {
    "kinetics": {"fig1": {"gamma": _GAMMA6, "points": 201},
                 "fig2": {"gamma": tuple(n / 10.0 * kinetics.GAMMA_MAX
                                         for n in range(1, 11))}},
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

#: Each command's modes, in order: (the options a mode needs, the ones it may
#: also read).  An option is set when neither None nor its built-in default.
#: Of the modes that read every set option, the first with all it needs runs;
#: if none has them all, the last names the missing ones.  The options of
#: ``_NOT_ECHOED`` belong to no mode.
MODES = {
    "kinetics": [("gamma u_plus", ""), ("gamma u_minus", ""),
                 ("gamma sweep_a", "branch"),
                 ("gamma", "preset points branch")],
    "phase": [("gamma u_minus u_plus", "s lax_check")],
    "riemann": [("gamma classify_grid", "preset"),
                ("gamma uL uR", "evaluate_at verify")],
    "simulate": [("initial tw_a beta mu x_min x_max nx t_end",
                  "tw_branch dt bc snapshot_every speed_fit"),
                 ("uL uR beta mu x_min x_max nx t_end",
                  "preset steepness dt bc snapshot_every speed_fit")],
    "psystem": [("A sweep_b", "preset v_minus"), ("A u_minus", ""),
                ("A b", "v_minus shoot")],
}


def _fmt(x):
    return format(float(x), FLOAT_FMT)


def _json(params, payload):
    """``payload`` after the echo ``params``, as sorted, indented JSON; json
    writes floats (np.float64 too) as their shortest repr, and other numpy
    scalars go through ``.item()``."""
    return json.dumps({"params": params, **payload}, indent=2, sort_keys=True,
                      ensure_ascii=False,
                      default=operator.methodcaller("item")) + "\n"


def _cell(v):
    """One CSV cell: text as is, an Enum as its value, None as empty."""
    if isinstance(v, str):
        return v
    if isinstance(v, float):  # np.float64 too; the common cell, tested first
        return _fmt(v)
    if isinstance(v, Enum):
        return _cell(v.value)
    return "" if v is None else _fmt(v)


def _csv(params, columns):
    """CSV of ``columns``, {header: cells} of one length, every cell
    through ``_cell``, after the echo ``params``."""
    return _csv_rows(params, columns, map(",".join, zip(
        *(map(_cell, c) for c in columns.values()), strict=True)))


def _csv_rows(params, header, rows):
    """CSV of the echo ``params``, the ``header`` names and ``rows``, each
    a line of cells already joined."""
    lines = [f"# {k} = {params[k]}" for k in sorted(params)]
    lines.append(",".join(header))
    lines += rows
    return "\n".join(lines) + "\n"


def _records(params, cls, records):
    """CSV with one column per field of the dataclass ``cls``."""
    return _csv(params, {f.name: [getattr(r, f.name) for r in records]
                         for f in dataclasses.fields(cls)})


def _write_text(path, text):
    """Write ``text`` to stdout (None or "-") or over the file ``path``.

    A regular file is overwritten in place and then cut to the new length,
    never truncated to zero first: ext4 (``auto_da_alloc``) flushes a file
    truncated to zero when it is closed, several times the cost of the write.
    The file keeps its inode, mode, links and symlink target, as with
    ``open(path, "w")``; a device or FIFO (``/dev/null``) is only written.
    A write that fails leaves a regular file empty, so no new head sits in
    front of an old tail, and raises UCWavesError."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                # closefd=False: on an error the wrapper is closed, and its
                # unwritten buffer dropped, before the file is cut to zero
                with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                    fh.write(text)
            except OSError:
                if regular:
                    os.ftruncate(fd, 0)
                raise
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)
    except OSError as exc:
        raise UCWavesError(f"cannot write {path!r}: {exc.strerror}") from None


def _check_output(path, prefix=False):
    """Raise UCWavesError unless ``path`` lies in a writable directory and is
    not itself a directory, which only a file-name ``prefix`` may name
    (``out/``); stdout (None or "-") always passes."""
    if path in (None, "-"):
        return
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise UCWavesError(f"cannot write {path!r}: {folder!r} is not a "
                           "writable directory")
    if not prefix and os.path.isdir(path):
        raise UCWavesError(f"cannot write {path!r}: Is a directory")


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
    """A number of points, which must be at least 1 and at most _MAX_SWEEP."""
    if not 1 <= n <= _MAX_SWEEP:
        raise DomainError(f"{name}={n!r} (must be >= 1 and <= {_MAX_SWEEP})")
    return n


def _parse_grid(arg):
    """uLmin:uLmax:n,uRmin:uRmax:n, the two axes of the classification grid,
    of at most _MAX_SWEEP cells."""
    try:
        (l0, l1, nl), (r0, r1, nr) = (axis.split(":") for axis in arg.split(","))
        l0, l1, nl, r0, r1, nr = (float(l0), float(l1), int(nl),
                                  float(r0), float(r1), int(nr))
    except ValueError:
        raise UCWavesError(
            f"bad grid {arg!r}; expected uLmin:uLmax:n,uRmin:uRmax:n")
    _count("grid cells", _count("grid n", nl) * _count("grid n", nr))
    return np.linspace(l0, l1, nl), np.linspace(r0, r1, nr)


# ---------------------------------------------------------------------------
# subcommand implementations: each receives the resolved args and their echo,
# and returns the text of its -o artifact


def _cmd_kinetics(args, params):
    if args.u_plus is not None:
        um = kinetics.kinetic_u_minus(args.u_plus, args.gamma)
        return _json(params, {"u_plus": args.u_plus, "gamma": args.gamma,
                              "u_minus": um, "s": rh_speed(um, args.u_plus)})
    if args.u_minus is not None:
        cands = kinetics.kinetic_u_plus_candidates(args.u_minus, args.gamma)
        return _json(params, {
            "u_minus": args.u_minus, "gamma": args.gamma, "candidates": [
                {"u_plus": p.u_plus, "a": p.a, "branch": p.branch.value,
                 "s": p.s} for p in cands]})
    n_points = _count("points", 101 if args.points is None else args.points)
    rows = []
    for g in args.gamma if isinstance(args.gamma, tuple) else [args.gamma]:
        a_values = (_parse_sweep(args.sweep_a) if args.sweep_a is not None
                    else np.linspace(0.5, kinetics.a_tilde(g), n_points))
        rows += _locus_rows(g, a_values, args.branch)
    return _csv_rows(params, [f.name for f in dataclasses.fields(
        kinetics.KineticPoint)], rows)


def _locus_rows(gamma, a_values, branch):
    """The CSV rows of ``locus_sweep(gamma, a_values)`` on ``branch`` (or
    "both"), from its columns: the text of each ratio and of its gamma and
    endpoint is made once for both branches."""
    a, ends, columns = kinetics._sweep(gamma, a_values)
    heads = [f"{x:{FLOAT_FMT}}," for x in a]
    tails = [f",{gamma:{FLOAT_FMT}},{end or ''}" for end in ends]
    return [f"{head}{name},{um:{FLOAT_FMT}},{u0:{FLOAT_FMT}},"
            f"{up:{FLOAT_FMT}},{s:{FLOAT_FMT}}{tail}"
            for name, cols in zip((b.value for b in Branch), columns)
            if branch in ("both", name)
            for head, um, u0, up, s, tail in zip(heads, *cols, tails)]


def _cmd_phase(args, params):
    s = args.s if args.s is not None else rh_speed(args.u_minus, args.u_plus)
    prob = phaseplane.TWProblem(args.gamma, s, args.u_minus)
    ends = ((args.u_plus, args.u_minus) if args.lax_check
            else (args.u_minus, args.u_plus))
    res = phaseplane.shoot_unstable(prob, *ends, backward=args.lax_check)
    if args.format == "csv":
        return _csv(params, dict(zip(["xi", "u", "v"], res.trajectory.T)))
    return _json(params, {
        "equilibria": list(prob.equilibria),
        "eigenvalues": {_fmt(u): [{"re": z.real, "im": z.imag} for z in
                                  map(complex, phaseplane.eigenvalues(u, prob))]
                        for u in prob.equilibria},
        "verdict": res.verdict.value,
        "terminal_distance": res.terminal_distance,
        "parabola_residual": phaseplane.parabola_residual(
            res, args.u_minus, args.u_plus),
    })


def _cmd_riemann(args, params):
    if args.classify_grid is not None:
        ul_vals, ur_vals = _parse_grid(args.classify_grid)
        pat = riemann.classify_plane(args.gamma, ul_vals, ur_vals)
        # each axis value is formatted once, not once per cell
        urs = [f",{ur}," for ur in map(_fmt, ur_vals)]
        return _csv_rows(params, ("u_left", "u_right", "pattern"), [
            ul + ur + p for ul, row in zip(map(_fmt, ul_vals), pat.tolist())
            for ur, p in zip(urs, row)])
    sol = riemann.solve(args.uL, args.uR, args.gamma)
    payload = riemann.solution_to_dict(sol)
    if args.evaluate_at is not None:
        payload["evaluate"] = {"r": args.evaluate_at,
                               "u": riemann.evaluate(sol, args.evaluate_at)}
    if args.verify:
        payload["admissibility"] = [
            {"wave": c.index, "kind": c.kind.value, "passed": bool(c.passed),
             "detail": c.detail} for c in riemann.verify_solution(sol)]
    return _json(params, payload)


def _cmd_simulate(args, params):
    _check_finite("simulate options", beta=args.beta, mu=args.mu,
                  snapshot_every=args.snapshot_every)
    if args.snapshot_every is not None and args.snapshot_every <= 0.0:
        raise DomainError("invalid simulate options: snapshot_every="
                          f"{args.snapshot_every!r} (must be positive)")
    gamma = args.beta / math.sqrt(args.mu) if args.mu > 0 else None
    if gamma in (math.inf, -math.inf) and (args.initial == "tw"
                                          or args.steepness is None):
        raise DomainError("invalid simulate options: gamma = beta/sqrt(mu) overflows "
                          f"at beta={args.beta!r}, mu={args.mu!r}")
    if args.initial == "smoothed":
        steep = args.steepness if args.steepness is not None else gamma
        if steep is None:
            raise UCWavesError("--steepness required when mu < 0")
        init = pde.SmoothedRiemann(args.uL, args.uR, steep)
    else:  # "tw"; argparse's choices also check a config file's value
        if gamma is None:
            raise UCWavesError("traveling-wave seed requires mu > 0")
        point = kinetics.locus_point(args.tw_a, gamma, Branch(args.tw_branch))
        init = pde.TravelingWaveSeed(point)
    cfg = pde.SimConfig(
        beta=args.beta, mu=args.mu, x_min=args.x_min, x_max=args.x_max,
        nx=args.nx, dt=args.dt, t_end=args.t_end,
        bc=pde.BoundaryCondition(args.bc), initial=init)
    snap_times = ()
    if args.snapshot_every:
        # a step below the run's own requests every step all the same
        _, h = pde._time_step(cfg)
        snap_times = np.arange(0.0, cfg.t_end + 0.5 * h,
                               max(args.snapshot_every, h))
    result = pde.simulate(cfg, snapshot_times=snap_times)
    x, _ = pde.x_grid(cfg)
    if args.profile_output:
        _write_text(args.profile_output, _csv(params, {"x": x, "u": result.final.u}))
    if args.snapshot_profiles:
        for st in result.snapshots:
            path = f"{args.snapshot_profiles}t{format(st.t, '.6g')}.csv"
            _write_text(path, _csv({**params, "t": format(st.t, ".17g")},
                                   {"x": x, "u": st.u}))
    report = pde.detect_fronts(result.final)
    payload = {"t_final": result.final.t,
               "plateaus": list(map(dataclasses.asdict, report.plateaus)),
               "fronts": list(map(dataclasses.asdict, report.fronts))}
    trailing = tuple(s for s in result.snapshots if s.t >= 0.5 * cfg.t_end)
    if len(trailing) > 2:
        fits = pde.fit_front_speeds(cfg, pde.SimResult(result.final, trailing),
                                    transient=args.speed_fit or "linear")
        payload["front_speeds"] = [{"speed": f.speed, "intercept": f.intercept}
                                   for f in fits]
    return _json(params, payload)


def _cmd_psystem(args, params):
    if args.sweep_b is not None:
        b_values = np.minimum(_parse_sweep(args.sweep_b), -0.5)
        points = [psystem.psys_locus(b, args.A, v_minus=args.v_minus)
                  for b in sorted(set(float(b) for b in b_values))]
        return _records(params, psystem.PSystemLocusPoint, points)
    if args.u_minus is not None:
        up = psystem.psys_kinetic_u_plus(args.u_minus, args.A)
        return _json(params, {"A": args.A, "u_minus": args.u_minus, "u_plus": up,
                              "threshold": psystem.psys_threshold(args.A)})
    p = psystem.psys_locus(args.b, args.A, v_minus=args.v_minus)
    payload = dataclasses.asdict(p)
    if args.shoot:
        res = psystem.psys_shoot(p)
        payload["shoot"] = {
            "verdict": res.verdict.value, "terminal_distance": res.terminal_distance,
            "parabola_residual": psystem.psys_parabola_residual(res, p),
            "orbit_start_u": float(res.trajectory[0, 1])}
    return _json(params, payload)


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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # an OSError has strerror
        raise UCWavesError(f"cannot read config {path!r}: "
                           f"{getattr(exc, 'strerror', exc)}") from None
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
        flag = _flag(key)
        if isinstance(getattr(args, key), bool):
            if value not in (True, False):
                raise UCWavesError(f"config key {key!r} takes true or false")
            flags += [flag] if value else []
        elif value is not None:
            flags.append(f"{flag}={value}")
    return flags


@functools.cache
def _defaults(command):
    """The built-in value of every option of ``command``, parsed once."""
    return vars(_parser().parse_args([command]))


def _check_mode(args):
    """Raise UCWavesError unless a mode of ``MODES[args.command]`` reads every
    option set in ``args`` and has every option it needs (see ``MODES``)."""
    defaults = _defaults(args.command)
    given = {k: v for k, v in vars(args).items()
             if v is not None and v != defaults[k] and k not in _NOT_ECHOED}
    modes = [(needs.split(), (needs + " " + reads).split())
             for needs, reads in MODES[args.command]]
    missing = [[k for k in needs if k not in given]
               for needs, reads in modes if given.keys() <= set(reads)]
    if [] in missing:
        return
    if missing:
        raise UCWavesError(f"{args.command} missing required options: "
                           + ", ".join(map(_flag, missing[-1])))
    # name each set option that not every mode reads under the first that does
    named = set.intersection(*(set(reads) for _, reads in modes))
    groups = []
    for _, reads in modes:
        groups.append(", ".join(_flag(k, v) for k, v in given.items()
                                if k in reads and k not in named))
        named.update(reads)
    raise UCWavesError(f"{args.command} takes the options of one mode; "
                       "got " + " with ".join(filter(None, groups)))


def _flag(name, value=True):
    """``--name``, then ``value`` unless it is True (a switch)."""
    return "--" + name.replace("_", "-") + ("" if value is True else f" {value}")


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
        _check_mode(args)
        for key in ("output", "profile_output", "snapshot_profiles"):
            _check_output(vars(args).get(key), prefix=key == "snapshot_profiles")
        params = {k: repr(v) for k, v in vars(args).items()
                  if v is not None and k not in _NOT_ECHOED}
        _write_text(args.output, args.fn(args, params))
        return 0
    except UCWavesError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
