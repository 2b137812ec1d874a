"""The four benchmark workloads: seeded inputs, timed body, oracle checks.

Each workload is a closed loop: one caller issues its items back to back.
``Workload(seed, out_dir)`` generates the inputs (set-up); ``items`` are the
timed body, the calls a user makes to get a validated result, and
``check(result)`` holds the oracle checks a user would not run.  A pass runs
every item once and returns a digest of everything it produced, so repeated
passes with the same seed can be compared byte for byte.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

import ucwaves as uw
from ucwaves import cli
from ucwaves.errors import UCWavesError
from ucwaves.kinetics import GAMMA_MAX, Branch
from ucwaves.phaseplane import Verdict
from ucwaves.riemann import EQ_TOL, WaveKind

GAMMA6 = 1.0 / math.sqrt(6.0)


@dataclass
class Check:
    """One oracle check.  ``ratio`` is error / tolerance (at most 1 on a
    pass) for numeric checks and None for yes/no checks."""

    name: str
    passed: bool
    ratio: float | None = None


def _ratio_check(name, err, tol):
    ratio = err / tol
    return Check(name, bool(ratio <= 1.0), float(ratio))


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _run_cli(argv, path):
    """Run one CLI command writing to ``path``; return (exit code, bytes)."""
    rc = cli.main(argv + ["-o", path])
    with open(path, "rb") as fh:
        return rc, fh.read()


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class Workload:
    """Shared state of a workload.  ``check`` may record counts in
    ``observed`` and messages in ``notes`` about outputs that are reported
    but are not oracle checks."""

    def __init__(self, out_dir):
        self.dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.items = []  # zero-argument callables, run in order
        self.observed = {}
        self.notes = []

    def run_pass(self, times=None, between=None):
        """Run every item once; append each item's time to ``times``.
        ``between`` is called before each item, outside its timing."""
        outs = []
        for item in self.items:
            if between is not None:
                between()
            t0 = time.perf_counter()
            outs.append(item())
            if times is not None:
                times.append(time.perf_counter() - t0)
        return self.collect(outs)

    def collect(self, outs):
        """Result of a pass: "digest", "bytes_written" and what check needs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pde_riemann


#: (pattern, u_L, u_R, t_end, speed-fit model); the seed moves both states by
#: up to PDE_JITTER, which keeps every case inside its pattern region.
PDE_CASES = (
    ("SΣ", 0.40, -0.80, 50.0, "exp"),
    ("RΣ", 0.60, -0.80, 30.0, "linear"),
    ("S", 0.10, 0.30, 30.0, "linear"),
    ("R", 0.60, 0.35, 20.0, "linear"),
)
PDE_JITTER = 0.02
PDE_BETA, PDE_MU = 0.1, 0.06  # gamma = 1/sqrt(6)
PDE_DX = 0.05
PDE_MARGIN = 10.0


class PdeRiemann(Workload):
    """Seeded Riemann data through ``simulate`` at the default dt, then
    ``detect_fronts`` and ``fit_front_speeds``; oracle ``riemann.solve``."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        self.cases = []
        for pattern, ul0, ur0, t_end, fit in PDE_CASES:
            ul = ul0 + rng.uniform(-PDE_JITTER, PDE_JITTER)
            ur = ur0 + rng.uniform(-PDE_JITTER, PDE_JITTER)
            sol = uw.solve(ul, ur, GAMMA6)
            if sol.pattern != pattern:
                raise RuntimeError(f"generated {sol.pattern!r}, wanted {pattern!r}")
            speeds = [s for w in sol.waves for s in w.speed_range]
            x_min = min(0.0, min(speeds) * t_end) - PDE_MARGIN
            x_max = max(0.0, max(speeds) * t_end) + PDE_MARGIN
            cfg = uw.SimConfig(
                beta=PDE_BETA, mu=PDE_MU, x_min=x_min, x_max=x_max,
                nx=int(round((x_max - x_min) / PDE_DX)) + 1, t_end=t_end,
                initial=uw.SmoothedRiemann(ul, ur, GAMMA6))
            snaps = np.arange(0.5 * t_end, t_end + 1e-9, max(1.0, t_end / 25.0))
            self.cases.append((sol, cfg, snaps, fit))
        self.items = [partial(self.run_case, k) for k in range(len(self.cases))]

    def run_case(self, k):
        _, cfg, snaps, fit = self.cases[k]
        res = uw.simulate(cfg, snapshot_times=snaps)
        plateaus = [p.value for p in uw.detect_fronts(res.final).plateaus]
        speeds = [f.speed for f in uw.fit_front_speeds(cfg, res, transient=fit)]
        return res.final.u, plateaus, speeds

    def collect(self, out):
        digest = _digest(p for u, pl, sp in out for p in (u.tobytes(), pl, sp))
        return {"digest": digest, "bytes_written": 0,
                "cases": [(pl, sp) for _, pl, sp in out]}

    def check(self, result):
        checks = []
        for (sol, _, _, _), (plateaus, speeds) in zip(self.cases, result["cases"]):
            tag = f"{sol.pattern}({sol.u_left:.4f},{sol.u_right:.4f})"
            for state in sol.states:
                err = min((abs(d - state) for d in plateaus), default=math.inf)
                checks.append(_ratio_check(f"{tag} plateau {state:.4f}", err,
                                           0.01 * abs(state)))
            for w in sol.waves:
                if w.kind is WaveKind.RAREFACTION:
                    continue
                s = w.speed_range[0]
                err = min((abs(d - s) for d in speeds), default=math.inf)
                checks.append(_ratio_check(f"{tag} speed {s:.4f}", err,
                                           0.02 * abs(s)))
        return checks


# ---------------------------------------------------------------------------
# pde_periodic


PERIODIC_NX = 512
PERIODIC_EPS = 1e-6
PERIODIC_DECAYING = 4  # cases with mu > 0; one more case has mu < 0


class PdePeriodic(Workload):
    """Linear modes on a periodic grid; oracle ``model.dispersion_lambda``."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(PERIODIC_DECAYING):
            modes = tuple(sorted(int(k) for k in
                                 rng.choice(np.arange(1, 6), 3, replace=False)))
            specs.append((rng.uniform(0.3, 0.7), rng.uniform(0.5, 1.5), modes, 1.0))
        # mu < 0: the pole 1/sqrt(-mu) sits between modes 1 and 2, so mode 1
        # decays and mode 2 grows; this keeps the dx-based dt in use
        pole = rng.uniform(1.4, 1.6)
        specs.append((rng.uniform(0.2, 0.4), -1.0 / pole**2, (1, 2), 2.0))
        self.cases = []
        for beta, mu, modes, t_end in specs:
            cfg = uw.SimConfig(
                beta=beta, mu=mu, x_min=0.0, x_max=2.0 * np.pi, nx=PERIODIC_NX,
                t_end=t_end, bc=uw.BoundaryCondition.PERIODIC,
                initial=uw.CustomProfile(_sine_sum(modes)))
            a0 = np.abs(np.fft.rfft(uw.initial_profile(cfg).u))
            self.cases.append((cfg, modes, a0))
            self.items.append(partial(_mode_rates, cfg, modes, a0))

    def collect(self, out):
        return {"digest": _digest(p for pair in out for p in pair),
                "bytes_written": 0, "rates": [rates for _, rates in out]}

    def check(self, result):
        checks = []
        for (cfg, modes, _), rates in zip(self.cases, result["rates"]):
            for k, rate in zip(modes, rates):
                lam = uw.dispersion_lambda(0.0, cfg.beta, cfg.mu, float(k)).real
                checks.append(_ratio_check(
                    f"beta={cfg.beta:.3f} mu={cfg.mu:.3f} mode {k} rate",
                    abs(rate - lam), 0.05 * abs(lam)))
        return checks


def _mode_rates(cfg, modes, a0):
    res = uw.simulate(cfg)
    a1 = np.abs(np.fft.rfft(res.final.u))
    return res.final.u.tobytes(), [math.log(a1[k] / a0[k]) / cfg.t_end for k in modes]


def _sine_sum(modes):
    def profile(x):
        return sum(PERIODIC_EPS * np.sin(k * x) for k in modes)
    return profile


# ---------------------------------------------------------------------------
# riemann_map


MAP_AXIS = (-1.2, 1.2, 97)
#: gamma / sqrt(3/8) of the maps: three with a kinetic locus (the third is
#: fig3's 1/sqrt(6)) and one above the threshold, where only classical
#: patterns occur; the seed moves each by up to MAP_JITTER.
MAP_GAMMA_FRACTIONS = (0.30, 0.55, 2.0 / 3.0, 1.10)
MAP_JITTER = 0.02
#: cells per gamma sent through --verify, drawn uniformly from the grid but
#: stratified by whether their verification shoots a Lax profile (40-300 ms,
#: against ~3 ms for any other cell), so that the pass cost does not depend
#: on the seed.  Such cells are 22 % of the 97^2 grid at every gamma below
#: sqrt(3/8) and 20 % above it, hence 4 of 18; ``check`` counts the share on
#: every map it solves and reports it.
MAP_VERIFY_SHOOTING = 4
MAP_VERIFY_OTHER = 14
MAP_BALANCE_M = 4.0  # exceeds every wave speed on the grid
MAP_BALANCE_TOL = 1e-9
KINETIC_RESIDUAL_TOL = 1e-8


class RiemannMap(Workload):
    """Pattern maps through ``ucwaves riemann --classify-grid`` and a seeded
    sample of cells through ``ucwaves riemann --verify``."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        self.axis = np.linspace(*MAP_AXIS)
        grid = "{0}:{1}:{2},{0}:{1}:{2}".format(*MAP_AXIS)
        self.observed["riemann.verify_rejected"] = 0
        self.observed["riemann_map.shooting_share"] = []
        self.gammas = [GAMMA_MAX * (f + rng.uniform(-MAP_JITTER, MAP_JITTER))
                       for f in MAP_GAMMA_FRACTIONS]
        self.jobs = []  # (argv, path, "map" or "cell", gamma)
        for n, g in enumerate(self.gammas):
            self.jobs.append((["riemann", f"--gamma={g!r}", f"--classify-grid={grid}"],
                              os.path.join(self.dir, f"map{n}.csv"), "map", g))
            for c, (ul, ur) in enumerate(self._sample_cells(rng, g)):
                self.jobs.append((["riemann", f"--gamma={g!r}", f"--uL={ul!r}",
                                   f"--uR={ur!r}", "--verify"],
                                  os.path.join(self.dir, f"cell{n}_{c}.json"),
                                  "cell", g))
        self.items = [partial(_run_cli, argv, path) for argv, path, *_ in self.jobs]

    def _sample_cells(self, rng, gamma):
        """Uniformly drawn grid cells, MAP_VERIFY_SHOOTING of them whose
        verification shoots a profile and MAP_VERIFY_OTHER that do not."""
        want = {True: MAP_VERIFY_SHOOTING, False: MAP_VERIFY_OTHER}
        cells = []
        while any(want.values()):
            ul, ur = (float(self.axis[k]) for k in rng.integers(0, MAP_AXIS[2], 2))
            sol = uw.solve(ul, ur, gamma)
            shoots = any(_profile_shot(w) for w in sol.waves)
            if want[shoots]:
                want[shoots] -= 1
                cells.append((ul, ur))
        return cells

    def collect(self, out):
        codes = [rc for rc, _ in out]
        blobs = [blob for _, blob in out]
        return {"digest": _digest(codes + blobs),
                "bytes_written": sum(len(b) for b in blobs),
                "codes": codes, "blobs": blobs}

    def check(self, result):
        checks = []
        labels = {}
        for (argv, path, kind, g), rc, blob in zip(
                self.jobs, result["codes"], result["blobs"]):
            name = os.path.basename(path)
            checks.append(Check(f"{name} exit code", rc == 0))
            if rc != 0:
                continue
            if kind == "map":
                rows = _csv_rows(blob.decode())
                sols = [uw.solve(float(ul), float(ur), g) for ul, ur, _ in rows]
                bad = sum(sol.pattern != pat for sol, (_, _, pat) in zip(sols, rows))
                checks.append(Check(f"{name} labels == per-cell solve",
                                    bad == 0 and len(rows) == MAP_AXIS[2] ** 2))
                shooting = sum(any(_profile_shot(w) for w in sol.waves) for sol in sols)
                self.observed["riemann_map.shooting_share"].append(
                    round(shooting / max(len(rows), 1), 4))
                labels[g] = {(float(ul), float(ur)): pat for ul, ur, pat in rows}
                continue
            sol = json.loads(blob)
            ul, ur = sol["u_left"], sol["u_right"]
            checks.append(Check(f"{name} pattern == map label",
                                labels[g].get((ul, ur)) == sol["pattern"]))
            rejected = [c["detail"] for c in sol["admissibility"] if not c["passed"]]
            if rejected:
                self.observed["riemann.verify_rejected"] += len(rejected)
                self.notes.append(f"--verify rejected a wave of {argv[1:4]}: {rejected}")
            lhs = _similarity_integral(sol, MAP_BALANCE_M)
            rhs = (MAP_BALANCE_M * (ul + ur)
                   - (float(uw.flux(ur)) - float(uw.flux(ul))))
            checks.append(_ratio_check(f"{name} integral balance",
                                       abs(lhs - rhs), MAP_BALANCE_TOL))
            for w in sol["waves"]:
                if w["kind"] == "undercompressive_shock":
                    checks.append(_ratio_check(
                        f"{name} kinetic residual",
                        _kinetic_residual(w["left_state"], w["right_state"], g),
                        KINETIC_RESIDUAL_TOL))
        return checks


def _profile_shot(wave):
    """Whether ``verify_solution`` shoots a profile for this wave: a Lax
    shock of positive speed that is not sonic."""
    s = wave.speed_range[0]
    return (wave.kind is WaveKind.LAX_SHOCK and s > 0.0
            and min(abs(s - uw.char_speed(wave.left_state)),
                    abs(s - uw.char_speed(wave.right_state))) > EQ_TOL)


def _similarity_integral(sol, m):
    """Exact integral of the self-similar solution over -m <= x/t <= m, from
    the wave list alone: constant states between waves, u = +-sqrt((1-r)/3)
    inside a fan."""
    def fan_antiderivative(r):
        return -(2.0 / 3.0) * (1.0 - r) ** 1.5 / math.sqrt(3.0)

    total, r, state = 0.0, -m, sol["u_left"]
    for w in sol["waves"]:
        lo, hi = w["speed_left"], w["speed_right"]
        total += state * (lo - r)
        if w["kind"] == "rarefaction":
            sign = 1.0 if w["left_state"] + w["right_state"] > 0 else -1.0
            total += sign * (fan_antiderivative(hi) - fan_antiderivative(lo))
        r, state = hi, w["right_state"]
    return total + state * (m - r)


def _kinetic_residual(u_minus, u_plus, gamma):
    """Closed-form pairing residual of an undercompressive shock, stated for
    u_- > 0 (mirrored waves are flipped first)."""
    if u_minus < 0:
        u_minus, u_plus = -u_minus, -u_plus
    q = u_plus**2 + u_minus * u_plus + u_minus**2
    return abs((u_minus + u_plus) * math.sqrt(max(1.0 - q, 0.0))
               + math.sqrt(2.0) / 3.0 * gamma)


# ---------------------------------------------------------------------------
# locus_shoot


LOCUS_GAMMA_JITTER = 0.03  # relative, around 1/sqrt(6)
LOCUS_STRATA = 4  # a-strata per branch on [0.52, a_tilde - 1e-3]
#: (b-stratum, A) of the p-system points; the seed moves A by up to 5%.
PSYS_A = (0.5, 1.0, 2.0, 4.0, 1.0, 2.0)
PSYS_B_RANGE = (-0.95, -0.55)
SHOOT_TOL = 1e-6
PARABOLA_TOL = 1e-5
ROUND_TRIP_TOL = 1e-9
IDENTITY_TOL = 1e-10


class LocusShoot(Workload):
    """Seeded locus points verified by phase-plane shooting (scalar and
    p-system), plus the fig2 and fig5 CLI presets."""

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        self.gamma = GAMMA6 * (1.0 + rng.uniform(-LOCUS_GAMMA_JITTER,
                                                  LOCUS_GAMMA_JITTER))
        lo, hi = 0.52, uw.a_tilde(self.gamma) - 1e-3
        width = (hi - lo) / LOCUS_STRATA
        self.scalar = [(lo + (k + rng.uniform()) * width, br)
                       for br in (Branch.PLUS, Branch.MINUS)
                       for k in range(LOCUS_STRATA)]
        b_lo, b_hi = PSYS_B_RANGE
        b_width = (b_hi - b_lo) / len(PSYS_A)
        self.psys = [(b_lo + (k + rng.uniform()) * b_width,
                      a * (1.0 + rng.uniform(-0.05, 0.05)))
                     for k, a in enumerate(PSYS_A)]
        self.cli_jobs = [(["kinetics", "--preset", "fig2"],
                          os.path.join(self.dir, "fig2.csv")),
                         (["psystem", "--preset", "fig5"],
                          os.path.join(self.dir, "fig5.csv"))]
        self.items = ([partial(self._scalar_point, a, br) for a, br in self.scalar]
                      + [partial(_psys_point, b, A) for b, A in self.psys]
                      + [partial(_run_cli, argv, path) for argv, path in self.cli_jobs])

    def _scalar_point(self, a, branch):
        p = uw.locus_point(a, self.gamma, branch)
        cands = [c.u_plus for c in uw.kinetic_u_plus_candidates(p.u_minus, self.gamma)]
        orbit = uw.shoot_unstable(uw.TWProblem.from_kinetic_point(p),
                                  p.u_minus, p.u_plus)
        return (p, cands, orbit.verdict, orbit.terminal_distance,
                uw.parabola_residual(orbit, p.u_minus, p.u_plus))

    def collect(self, out):
        n, m = len(self.scalar), len(self.psys)
        scalar, psys, runs = out[:n], out[n:n + m], out[n + m:]
        digest = _digest([r[1:] for r in scalar] + [r[1:] for r in psys]
                         + [b for r in runs for b in r])
        return {"digest": digest, "bytes_written": sum(len(b) for _, b in runs),
                "scalar": scalar, "psys": psys, "cli": runs}

    def check(self, result):
        checks = []
        g = self.gamma
        for p, cands, verdict, dist, resid in result["scalar"]:
            tag = f"locus a={p.a:.4f} {p.branch.value}"
            checks.append(Check(f"{tag} connects", verdict is Verdict.CONNECTS))
            checks.append(_ratio_check(f"{tag} matching defect", dist, SHOOT_TOL))
            checks.append(_ratio_check(f"{tag} parabola residual", resid, PARABOLA_TOL))
            checks.append(_ratio_check(
                f"{tag} candidates round trip",
                min((abs(c - p.u_plus) for c in cands), default=math.inf),
                ROUND_TRIP_TOL))
            for fac in (1.05, 0.95):
                up = p.u_plus * fac
                checks.append(Check(f"{tag} x{fac} rejected", _rejected(
                    lambda: uw.shoot_unstable(
                        uw.TWProblem(g, uw.rh_speed(p.u_minus, up), p.u_minus),
                        p.u_minus, up))))
        for p, up, verdict, dist, resid in result["psys"]:
            tag = f"psystem b={p.b:.4f} A={p.A:.3f}"
            span = abs(p.u_minus - p.u_plus)
            height = abs(1.5 * (p.u_minus + p.u_plus) / p.s) * span**2 / 4.0
            checks.append(Check(f"{tag} connects", verdict is Verdict.CONNECTS))
            checks.append(_ratio_check(f"{tag} matching defect", dist, SHOOT_TOL))
            checks.append(_ratio_check(f"{tag} parabola residual", resid,
                                       PARABOLA_TOL * max(1.0, height)))
            checks.append(_ratio_check(f"{tag} kinetic round trip",
                                       abs(up - p.u_plus), ROUND_TRIP_TOL))
            for fac in (1.05, 0.95):
                checks.append(Check(f"{tag} x{fac} rejected", _rejected(
                    lambda: uw.psys_shoot(_perturbed_psys(p, fac)))))
        (rc2, fig2), (rc5, fig5) = result["cli"]
        checks.append(Check("fig2 exit code", rc2 == 0))
        checks.append(Check("fig5 exit code", rc5 == 0))
        checks.append(_ratio_check("fig2 locus identities",
                                   _fig2_error(fig2), IDENTITY_TOL))
        checks.append(_ratio_check("fig5 locus identities",
                                   _fig5_error(fig5), IDENTITY_TOL))
        return checks


def _psys_point(b, A):
    p = uw.psys_locus(b, A)
    up = uw.psys_kinetic_u_plus(p.u_minus, A)
    orbit = uw.psys_shoot(p)
    return (p, up, orbit.verdict, orbit.terminal_distance,
            uw.psys_parabola_residual(orbit, p))


def _rejected(shoot):
    try:
        return shoot().verdict is not Verdict.CONNECTS
    except UCWavesError:
        return True  # the perturbed equilibrium stopped being a saddle


def _perturbed_psys(p, fac):
    up = p.u_plus * fac
    s = -math.sqrt(up**2 + up * p.u_minus + p.u_minus**2)
    return uw.PSystemLocusPoint(p.b, p.A, p.u_minus, up, -(p.u_minus + up), s,
                                1.0 / math.sqrt(-2.0 * p.A * s), p.v_minus,
                                p.v_minus - s * (up - p.u_minus))


def _fig2_error(blob):
    """Worst violation of u_- + u_0 + u_+ = 0 and of the pairing equation
    over the fig2 rows (both branches, 101 points each, on 10 gammas)."""
    rows = _csv_rows(blob.decode())
    if not rows:
        return math.inf
    worst = 0.0
    for row in rows:
        um, u0, up, gamma = (float(row[k]) for k in (2, 3, 4, 6))
        worst = max(worst, abs(um + u0 + up), _kinetic_residual(um, up, gamma))
    return worst


def _fig5_error(blob):
    """Worst violation of the p-system chord speed s^2 = u_+^2 + u_+u_- +
    u_-^2 and of |s| k = (3/2)(u_- + u_+) over the fig5 rows."""
    rows = _csv_rows(blob.decode())
    if not rows:
        return math.inf
    worst = 0.0
    for row in rows:
        _, _, um, up, _, s, k = (float(v) for v in row[:7])
        worst = max(worst, abs(s * s - (up * up + up * um + um * um)),
                    abs(abs(s) * k - 1.5 * (um + up)))
    return worst


WORKLOADS = {
    "pde_riemann": PdeRiemann,
    "pde_periodic": PdePeriodic,
    "riemann_map": RiemannMap,
    "locus_shoot": LocusShoot,
}
