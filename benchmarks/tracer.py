"""Traced `verify`: wraps each layer's public functions and runs the CLI.

Usage:  python3 benchmarks/tracer.py TRACE_OUT -- <verify arguments>

Run with the repository's ``src`` directory on PYTHONPATH.  It times the
import of ``inflap.cli``, replaces the functions and methods listed in
``install`` by wrappers that count calls and record inclusive and self
time, runs ``inflap.cli.main`` with the given arguments and writes the
counters as JSON to TRACE_OUT.  The wrappers return results unchanged, so
the traced report must pass the same reference gate as an untraced one.

A name bound with ``from .x import y`` is replaced in every ``inflap``
module that holds it, so callers see the wrapper wherever they look the
name up.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    """Per-key call counts, inclusive time and self time.

    Inclusive time is added only when the outermost call of a key returns,
    so a key nested in itself is not counted twice.  Self time is a span's
    duration minus the time covered by the wrapped calls made inside it.
    """

    def __init__(self):
        self.stats = {}  # key -> [calls, inclusive_s, self_s, active depth]
        self.extra = Counter()
        self.distinct = defaultdict(set)
        self._children = []

    def _stats(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def wrap(self, fn, key, within=None, on_return=None):
        """Wrapper around fn recording under key.  ``within`` names another
        key: calls made while it is active are also counted under
        ``<key>@<within>``."""
        st = self._stats(key)
        outer = None if within is None else self._stats(within)
        nested = None if within is None else self._stats(f"{key}@{within}")
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            if outer is not None and outer[3]:
                nested[0] += 1
            st[3] += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                st[2] += dt - children.pop()
                if not st[3]:
                    st[1] += dt
                if children:
                    children[-1] += dt
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "calls": {k: v[0] for k, v in self.stats.items()},
            "inclusive_s": {k: v[1] for k, v in self.stats.items()},
            "self_s": {k: v[2] for k, v in self.stats.items()},
            "extra": dict(self.extra),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return dict(ba.arguments)


def install(tracer: Tracer) -> None:
    import inflap
    from inflap import (checkers, cli, hull, jets, maps, operators, profiles,
                        quadrature, reports, scenarios)

    modules = (inflap, jets, quadrature, profiles, maps, operators, hull,
               checkers, scenarios, reports, cli)

    def replace(old, new):
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is old:
                    setattr(mod, name, new)

    def patch_function(fn, key, **kw):
        replace(fn, tracer.wrap(fn, key, **kw))

    def patch_methods(classes, names, key, **kw):
        for cls in classes:
            for name in names:
                if name in vars(cls):
                    setattr(cls, name, tracer.wrap(vars(cls)[name], key, **kw))

    def all_subclasses(cls):
        out = [cls]
        for sub in cls.__subclasses__():
            out.extend(all_subclasses(sub))
        return out

    # jets, as called from profiles and maps
    for fn in (jets.jet_exp, jets.jet_sqrt, jets.jet_sin, jets.jet_cos):
        patch_function(fn, "jets")

    # quadrature: one Kronrod-15 panel per call
    patch_function(quadrature.gauss_kronrod_15, "quadrature.panel")

    # profiles
    profile_classes = all_subclasses(profiles.Profile)
    patch_methods(profile_classes, ("value", "d1"), "profiles.eval")
    patch_methods(profile_classes, ("jet", "d1_jet"), "profiles.jet")

    def record_choose_m(tr, args, kwargs, result):
        a = _bound(choose_m, args, kwargs)
        tr.distinct["profiles.choose_M"].add(
            (a["profile"].kind, a["safety"], a["interval"], a["samples"]))

    choose_m = profiles.choose_M
    patch_function(choose_m, "profiles.choose_M", on_return=record_choose_m)

    def table_recorder(init):
        def record(tr, args, kwargs, result):
            a = _bound(init, args, kwargs)
            self = a.pop("self")
            a.pop("rho", None)
            a.pop("base", None)
            tr.distinct["profiles.table_build"].add(
                (type(self).__name__, self.kind, tuple(sorted(a.items()))))
        return record

    for cls in (profiles.ArcComplement, profiles.PolarPhase):
        init = vars(cls)["__init__"]
        cls.__init__ = tracer.wrap(init, "profiles.table_build", on_return=table_recorder(init))

    # maps
    map_classes = all_subclasses(maps.VectorMap)
    patch_methods(map_classes, ("map_jet",), "maps.map_jet")
    patch_methods(map_classes, ("value",), "maps.value", within="maps.fd_jet")
    patch_function(maps.finite_difference_map_jet, "maps.fd_jet")

    # operators
    for fn in (operators.grad_norm_sq, operators.tangential, operators.orthogonal_projection,
               operators.normal, operators.infinity_laplacian, operators.perturbed_scalar):
        patch_function(fn, "operators")

    # hull
    def record_hull(tr, args, kwargs, result):
        a = _bound(max_outside, args, kwargs)
        tr.extra["hull.points"] += len(a["interior_points"]) + len(a["boundary_points"])

    max_outside = hull.max_outside_distance
    patch_function(max_outside, "hull", on_return=record_hull)

    # checkers; the residual span is named after its jet source
    def record_points(tr, args, kwargs, result):
        tr.extra["checkers.points"] += result.n_points

    residual = checkers.residual_certify
    by_source = {src: tracer.wrap(residual, f"checkers.residual_{src}", on_return=record_points)
                 for src in ("analytic", "fd")}

    @functools.wraps(residual)
    def residual_dispatch(*args, **kwargs):
        return by_source[_bound(residual, args, kwargs)["jet_source"]](*args, **kwargs)

    replace(residual, residual_dispatch)
    patch_function(checkers.conservation_check, "checkers.conservation")
    patch_function(checkers.max_principle_check, "checkers.principle")
    patch_function(checkers.directional_check, "checkers.principle")
    patch_function(checkers.hull_check, "checkers.hull")
    patch_function(checkers.slab_domain, "checkers.domain")
    patch_function(checkers.annulus_domain, "checkers.domain")

    # scenarios: an evaluation error aborts its scenario, so count it here
    run_scenario = scenarios.run_scenario

    def counted_run(cfg):
        try:
            return run_scenario(cfg)
        except checkers.CheckEvaluationError:
            tracer.extra["checkers.eval_errors"] += 1
            raise

    cli.run_scenario = tracer.wrap(counted_run, "scenarios.run")

    # reports
    def record_bytes(tr, args, kwargs, result):
        tr.extra["reports.bytes"] += len(result)

    patch_function(reports.emit_report, "reports.emit", on_return=record_bytes)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_OUT -- <verify arguments>", file=sys.stderr)
        return 2
    trace_out, verify_args = argv[0], argv[2:]
    t0 = clock()
    import inflap.cli
    import_s = clock() - t0
    tracer = Tracer()
    install(tracer)
    rc = inflap.cli.main(verify_args)
    doc = tracer.to_dict()
    doc["import_s"] = import_s
    doc["exit_code"] = rc
    with open(trace_out, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
