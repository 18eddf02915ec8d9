"""Deterministic report emission: canonical JSON, CSV rows, profile tables.

JSON is written by a small canonical serializer (sorted keys, fixed
separators, floats at 17 significant digits) so that two runs with the same
configuration produce byte-identical output; 17 significant digits make
every float round-trip bit-exactly through parse.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .jets import sorted_distinct
from .scenarios import CheckReport, construction

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "dumps_canonical",
    "emit_report",
    "report_dict",
    "report_rows",
    "CSV_HEADER",
    "emit_profile_tables",
]

REPORT_SCHEMA_VERSION = 1

CSV_HEADER = ("scenario", "check", "domain", "metric", "value", "threshold", "status")

#: plot range of every emitted profile table; wide enough to show the supports
_TABLE_RANGE = (-4.0, 4.0)


def _format_float(x: float) -> str:
    # Non-finite values (empty sample sets yield -inf extrema) have no JSON
    # number form; emit them as strings so the output stays parseable.
    if not math.isfinite(x):
        return json.dumps(repr(x))
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace, 17-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(json.dumps(key) + ":" + dumps_canonical(obj[key]))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


#: record fields whose report key differs from the field name
_REPORT_KEYS = {
    "passed": "pass",
    "n_points": "points",
    "max_violation_margin": "margin",
    "min_violation_margin": "min_margin",
}


def _section(record, *omit: str) -> dict:
    """A record's fields under their report keys, without those in omit."""
    return {_REPORT_KEYS.get(k, k): v for k, v in vars(record).items() if k not in omit}


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


def _format_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g") if math.isfinite(v) else repr(v)
    return str(v)


def _render(report: CheckReport) -> tuple[dict, list[tuple]]:
    """JSON sections and CSV rows of one report: each section lists its
    check record's fields, and each check's row reads its value, threshold
    ("tol") and status ("pass" unless given) from that section."""
    name = report.config.scenario
    sections = {"speed_bound": _section(report.speed_bound)}
    rows = []

    def row(check, domain, section, metric, status=None):
        rows.append((name, check, domain, metric, _format_cell(section[metric]),
                     _format_cell(section.get("tol", "")), status or _status(section["pass"])))

    if report.residual:
        domain = report.residual[0].domain
        residual = sections["residual"] = {"domain": domain}
        for r in report.residual:
            s = residual[r.jet_source] = _section(r, "domain")
            row(f"residual_{r.jet_source}", domain, s, "sup_residual")
    if report.conservation is not None:
        s = sections["conservation"] = _section(report.conservation)
        row("conservation", s["domain"], s, "max_dev")
    if report.principle:
        principle = sections["principle"] = {}
        for key in sorted(report.principle):
            s = principle[key] = _section(report.principle[key])
            row(f"principle_{key}", s["domain"], s, "margin", "info")
    if report.hull is not None:
        s = sections["hull"] = _section(report.hull)
        row("hull", s["domain"], s, "max_outside_distance",
            "contained" if s["contained"] else "outside")
    if report.properties:
        properties = sections["properties"] = {}
        for key in sorted(report.properties):
            p = report.properties[key]
            s = properties[key] = p.stats
            row(f"property_{key}", "", s, p.metric)
    if report.assessment is not None:
        sections["assessment"] = report.assessment
    row("overall", "", {"overall_pass": report.overall_pass}, "overall_pass",
        _status(report.overall_pass))
    return sections, rows


def report_dict(report: CheckReport, with_timings: bool = True) -> dict:
    """One report as its JSON object; timings only when asked for."""
    doc = {"scenario": report.config.scenario, "config": asdict(report.config)}
    doc.update(_render(report)[0])
    doc["overall_pass"] = report.overall_pass
    if with_timings:
        doc["timings"] = report.timings
    return doc


def report_rows(report: CheckReport) -> list[tuple]:
    """One CSV row per executed check of the report."""
    return _render(report)[1]


def emit_report(reports, fmt: str = "json", with_timings: bool = True) -> bytes:
    """Serialize a list of reports to JSON or CSV bytes."""
    if fmt == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "reports": [report_dict(r, with_timings) for r in reports],
        }
        return (dumps_canonical(doc) + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerows(report_rows(r))
        return out.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


def emit_profile_tables(dir_path: str, scenarios, grid_points: int) -> list[str]:
    """Write a (t, value) CSV table, named by its kind, of each profile the
    scenarios' constructions use; an unknown scenario raises KeyError.

    The witness abscissas are merged into the grid so the tabulated extrema
    hit the analytic ones (±1/e for the bumps, 1 for the Gaussian peak).
    """
    classes = dict.fromkeys(construction(sc).profile for sc in scenarios)
    ts = sorted_distinct(np.concatenate([np.linspace(*_TABLE_RANGE, grid_points),
                                         [-2.0, -1.0, 0.0, 1.0, 2.0]]))
    os.makedirs(dir_path, exist_ok=True)
    written = []
    for cls in classes:
        profile = cls()
        path = os.path.join(dir_path, f"{profile.kind}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("t", "value"))
            for t, v in zip(ts.tolist(), profile.value(ts).tolist()):
                writer.writerow((_format_cell(t), _format_cell(v)))
        written.append(path)
    return written
