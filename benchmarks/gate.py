"""Reference-report gate.

A benchmark run counts only if its report certifies exactly what the
committed reference report certified: the same configuration, the same
sample counts and tolerances, both the analytic and the finite-difference
residual sections, the same pass flags, principle margins within 1e-9 and
the hull escape distance within 1e-6.  Residual values themselves may move
by ulps and are not compared, so speed cannot come from fewer sample
points, looser tolerances, a skipped FD oracle or dropped cross-sections.
"""

from __future__ import annotations

import copy

#: leaves compared for exact equality wherever they occur
_EXACT_KEYS = {
    "schema_version", "scenario", "domain", "jet_source",
    "points", "samples", "maps", "points_per_map",
}
#: leaves compared to an absolute tolerance
_ABS_TOL = {"margin": 1e-9, "min_margin": 1e-9, "max_outside_distance": 1e-6}
#: tolerances derive from M, which may move by ulps; x10 is far outside this
_TOL_REL = 1e-12
#: config keys that differ between runs by design
_RUN_CONFIG_KEYS = ("seed", "out_path")


def _is_tol_key(key: str) -> bool:
    return key == "tol" or key.endswith("_tol")


def _compare(ref, got, path: str, errors: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object")
            return
        if set(ref) != set(got):
            missing = sorted(set(ref) - set(got))
            extra = sorted(set(got) - set(ref))
            errors.append(f"{path}: keys differ (missing {missing}, extra {extra})")
        for key in sorted(set(ref) & set(got)):
            _compare_leaf(key, ref[key], got[key], f"{path}.{key}", errors)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: list length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{path}[{i}]", errors)


def _compare_leaf(key: str, ref, got, path: str, errors: list[str]) -> None:
    if isinstance(ref, (dict, list)):
        if key not in ("worst_point", "witness_sup", "witness_inf",
                       "witness_point", "witness_image"):
            _compare(ref, got, path, errors)
        return
    if isinstance(ref, bool) or key in _EXACT_KEYS:
        if got != ref:
            errors.append(f"{path}: {got!r} != reference {ref!r}")
    elif key in _ABS_TOL:
        if not abs(got - ref) <= _ABS_TOL[key]:
            errors.append(f"{path}: {got!r} differs from reference {ref!r} by more than {_ABS_TOL[key]}")
    elif _is_tol_key(key) and isinstance(ref, (int, float)):
        if not abs(got - ref) <= _TOL_REL * abs(ref):
            errors.append(f"{path}: tolerance {got!r} != reference {ref!r}")


def check_report(reference: dict, report: dict, seed: int) -> list[str]:
    """Differences between a run's report and the reference; empty = pass."""
    errors: list[str] = []
    if report.get("schema_version") != reference.get("schema_version"):
        errors.append("schema_version differs")
    refs = reference.get("reports", [])
    gots = report.get("reports", [])
    if [r.get("scenario") for r in gots] != [r.get("scenario") for r in refs]:
        return errors + ["scenario list differs from the reference"]
    for ref, got in zip(refs, gots):
        name = ref["scenario"]
        ref_cfg = {k: v for k, v in ref["config"].items() if k not in _RUN_CONFIG_KEYS}
        got_cfg = {k: v for k, v in got.get("config", {}).items() if k not in _RUN_CONFIG_KEYS}
        if got_cfg != ref_cfg:
            errors.append(f"{name}.config differs from the reference")
        if got.get("config", {}).get("seed") != seed:
            errors.append(f"{name}.config.seed is not the requested seed {seed}")
        if "residual" in ref:
            for src in ("analytic", "fd"):
                if src not in got.get("residual", {}):
                    errors.append(f"{name}.residual.{src} section is missing")
        ref_body = {k: v for k, v in ref.items() if k not in ("config", "timings")}
        got_body = {k: v for k, v in got.items() if k not in ("config", "timings")}
        _compare(ref_body, got_body, name, errors)
    return errors


def _walk(doc, fn) -> None:
    if isinstance(doc, dict):
        for key in list(doc):
            fn(doc, key)
            if key in doc:
                _walk(doc[key], fn)
    elif isinstance(doc, list):
        for item in doc:
            _walk(item, fn)


def _halve_points(doc, key):
    if key == "points":
        doc[key] //= 2


def _drop_fd(doc, key):
    if key == "residual":
        doc[key].pop("fd", None)


def _loosen_tol(doc, key):
    if key == "tol":
        doc[key] *= 10.0


def tampered_reports(reference: dict, seed: int, n1_reports: dict) -> dict[str, dict]:
    """Copies of the reference that the gate must reject, by name.

    n1_reports maps scenario names to n=1 reports; a scenario run at n>1
    gets its report replaced by the n=1 one relabelled with the original
    config, which is what dropping the cross-section copies would emit.
    """
    base = copy.deepcopy(reference)
    for r in base["reports"]:
        r["config"]["seed"] = seed
    variants = {}
    for name, fn in (("halved_points", _halve_points), ("removed_fd", _drop_fd),
                     ("tol_x10", _loosen_tol)):
        doc = copy.deepcopy(base)
        _walk(doc, fn)
        variants[name] = doc
    if any(r["config"]["n"] > 1 and r["scenario"] in n1_reports for r in base["reports"]):
        doc = copy.deepcopy(base)
        for i, r in enumerate(doc["reports"]):
            if r["config"]["n"] > 1 and r["scenario"] in n1_reports:
                swapped = copy.deepcopy(n1_reports[r["scenario"]])
                swapped["config"] = r["config"]
                doc["reports"][i] = swapped
        variants["n1_cross_sections"] = doc
    return variants


def self_test(reference: dict, seed: int, n1_reports: dict) -> list[str]:
    """Problems with the gate itself: the reference must pass and every
    tampered copy must fail."""
    problems = []
    untampered = copy.deepcopy(reference)
    for r in untampered["reports"]:
        r["config"]["seed"] = seed
    if check_report(reference, untampered, seed):
        problems.append("the untampered reference fails the gate")
    for name, doc in tampered_reports(reference, seed, n1_reports).items():
        if not check_report(reference, doc, seed):
            problems.append(f"tampered report {name!r} passes the gate")
    return problems
