"""Set-up time of a workload, measured in a fresh interpreter.

Usage:  python3 benchmarks/setup_probe.py SCENARIO... [--n N] [--N N] [--grid G]

Run with the repository's ``src`` directory on PYTHONPATH.  Times the
import of ``inflap.cli`` plus the construction calls each scenario makes
before it samples anything: ``choose_M`` for its profile, and the
``ArcComplement`` or ``PolarPhase`` table it builds.  The configuration of
each scenario comes from ``config_from_mapping`` with the same overrides
the workload passes to ``verify``.  Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


def main(argv: list[str]) -> int:
    t0 = clock()
    import inflap.cli  # noqa: F401
    from inflap.profiles import (ArcComplement, BumpW1, BumpZ1, GaussianRho,
                                 PolarPhase, choose_M)
    from inflap.scenarios import SCENARIO_NAMES, config_from_mapping
    import_s = clock() - t0

    names, overrides = [], {}
    flags = {"--n": "n", "--N": "N", "--grid": "grid_points"}
    it = iter(argv)
    for arg in it:
        if arg in flags:
            overrides[flags[arg]] = next(it)
        elif arg == "all":
            names.extend(SCENARIO_NAMES)
        else:
            names.append(arg)

    def arc(profile, cfg):
        ArcComplement(profile, choose_M(profile, cfg.safety).M, cells=cfg.cache_cells)

    def phase(profile, cfg):
        M = choose_M(profile, cfg.safety).M
        PolarPhase(M, t_max=cfg.t_max, cells=cfg.cache_cells, rho=profile)

    def speed_only(profile, cfg):
        choose_M(profile, cfg.safety)

    constructions = {
        "ex1a": (BumpW1, arc),
        "ex1b": (BumpZ1, arc),
        "ex2": (GaussianRho, phase),
        "ex3": (BumpW1, speed_only),
        "properties": (GaussianRho, phase),
    }
    for name in names:
        cfg = config_from_mapping({"scenario": name, **overrides})
        profile_cls, build = constructions[name]
        build(profile_cls(), cfg)
    print(json.dumps({"setup_s": clock() - t0, "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
