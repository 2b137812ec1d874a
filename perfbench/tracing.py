"""Span tracing of calls into the ucwaves modules, installed from outside.

Every traced function is wrapped at each module attribute that binds it,
because the modules import by name: patching only the defining module would
miss calls such as ``riemann.solve -> kinetic_u_minus``.  Nothing inside the
package changes; ``Tracer.uninstall`` puts the original objects back.

Spans are kept in memory as flat integer records
``(name id, start ns, end ns, parent index, run id, value)`` and aggregated
after the run; ``value`` carries an optional per-call count (root-finder
function evaluations, ODE right-hand-side evaluations, grid size).
"""

import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("model", "kinetics", "phaseplane", "riemann", "pde", "psystem",
           "cli")

#: Package functions, named by their defining module.  Each is wrapped at
#: every ``ucwaves`` module attribute that binds it, re-exports included.
PACKAGE_FUNCTIONS = (
    "pde.simulate", "pde.step", "pde.detect_fronts", "pde.fit_front_speeds",
    "kinetics.kinetic_u_minus", "kinetics.kinetic_u_plus_candidates",
    "kinetics.locus_point", "kinetics.u_plus_bounds",
    "riemann.solve", "riemann.classify_plane", "riemann.verify_solution",
    "phaseplane.shoot_unstable", "phaseplane.shoot_saddle_connection",
    "psystem.psys_locus", "psystem.psys_shoot",
    "cli.main",
)

#: Functions from other modules (or numpy/scipy) traced only at the one
#: binding named here: ``model.flux`` is measured where it runs hot.
BINDINGS = (
    "pde.flux", "pde.solve_banded",
    "kinetics.brentq", "psystem.brentq",
    "phaseplane.solve_ivp",
)

SPAN_NAMES = PACKAGE_FUNCTIONS + BINDINGS

_FIELDS = 6  # name, start, end, parent, run, value


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        import ucwaves
        self.root = ucwaves
        self.modules = [ucwaves] + [
            importlib.import_module(f"ucwaves.{m}") for m in MODULES]
        self.buf = array("q")
        self.stack = [-1]
        self.run_id = 0
        self.names = list(SPAN_NAMES)
        self._patched = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, value_of=None):
        buf, stack, tracer = self.buf, self.stack, self
        nid = self.names.index(name)
        counts_fevals = name.endswith(".brentq")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(buf) // _FIELDS
            buf.extend((nid, 0, 0, stack[-1], tracer.run_id, 0))
            stack.append(i)
            if counts_fevals:  # count evaluations of the root-finder's f
                n, f = [0], args[0]

                def counted(*x):
                    n[0] += 1
                    return f(*x)
                args = (counted,) + args[1:]
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                buf[i * _FIELDS + 1] = t0
                buf[i * _FIELDS + 2] = t1
                if counts_fevals:
                    buf[i * _FIELDS + 5] = n[0]
            if value_of is not None:
                buf[i * _FIELDS + 5] = value_of(args, kwargs, out)
            return out
        return wrapper

    def install(self):
        """Wrap every traced binding; a binding that no longer exists is
        skipped, so its span simply reports zero calls."""
        if self._patched:
            return
        by_id = {}
        for qual in PACKAGE_FUNCTIONS:
            mod, attr = qual.split(".")
            fn = getattr(self.root, mod).__dict__.get(attr)
            if fn is not None:
                by_id[id(fn)] = (fn, self._wrap(qual, fn, _VALUE_OF.get(qual)))
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for qual in BINDINGS:
            mod, attr = qual.split(".")
            module = getattr(self.root, mod)
            obj = module.__dict__.get(attr)
            if obj is not None:
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(qual, obj, _VALUE_OF.get(qual)))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def spans(self):
        """Recorded spans as a dict of numpy columns."""
        rec = np.frombuffer(self.buf, dtype=np.int64).copy().reshape(-1, _FIELDS)
        return {"name": rec[:, 0], "start": rec[:, 1], "end": rec[:, 2],
                "parent": rec[:, 3], "run": rec[:, 4], "value": rec[:, 5]}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())

    def per_run(self):
        """{run id: {span name: {"calls", "self_s", "total_s", "value"}}}
        plus the derived per-layer ratios, for every traced run."""
        sp = self.spans()
        name, parent, run, value = sp["name"], sp["parent"], sp["run"], sp["value"]
        dur = (sp["end"] - sp["start"]).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        out = {}
        for r in np.unique(run):
            in_run = run == r
            stats = {}
            for nid, qual in enumerate(self.names):
                m = in_run & (name == nid)
                stats[qual] = {"calls": int(m.sum()),
                               "self_s": float(self_ns[m].sum()) * 1e-9,
                               "total_s": float(dur[m].sum()) * 1e-9,
                               "value": int(value[m].sum())}
            step_id = self.names.index("pde.step")
            sim = in_run & (name == self.names.index("pde.simulate"))
            steps = np.bincount(parent[in_run & (name == step_id)],
                                minlength=len(name))
            sim_idx = np.nonzero(sim)[0]
            updates = float((value[sim_idx] * steps[sim_idx]).sum())
            sim_s = float(dur[sim_idx].sum()) * 1e-9
            stats["pde.point_updates_per_s"] = updates / sim_s if sim_s else 0.0
            shots = in_run & (name == self.names.index(
                "phaseplane.shoot_saddle_connection")) & (
                parent_name == self.names.index("psystem.psys_shoot"))
            n_psys = stats["psystem.psys_shoot"]["calls"]
            stats["psystem.shots_per_connection"] = (
                float(shots.sum()) / n_psys if n_psys else 0.0)
            out[int(r)] = stats
        return out


def _nx_of(args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.nx


def _nfev_of(args, kwargs, out):
    return int(out.nfev)


_VALUE_OF = {"pde.simulate": _nx_of, "phaseplane.solve_ivp": _nfev_of}
