"""Benchmark of the `verify` command-line tool.

Usage:
  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmarks/run.py --workload all          # every workload in turn
  python3 benchmarks/run.py --write-reference       # regenerate reference/

Run from anywhere inside a checkout of the repository; the program is the
checkout's own ``src/inflap``, run as ``python3 -m inflap.cli`` in a fresh
process with one thread.  The seed is passed to ``verify --seed`` (only the
randomized ``properties`` scenario uses it).

With ``--trace 0`` the benchmark times ``verify`` processes back to back
for ``--seconds`` seconds and reports the end-to-end metrics as medians
over them.  Before that it measures set-up time (import plus the
construction calls of the workload's scenarios) in several fresh
interpreters.  With ``--trace 1`` it runs ``verify`` once untraced and at
least twice under ``tracer.py`` (with seeds N and N+1), checks that every
call count repeats exactly, and reports the per-layer metrics.

Every report is checked against ``reference/<workload>.json`` by
``gate.py``; the gate's own self-test runs first.  A process fails if it
exits non-zero, prints a traceback or fails the gate.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record with the raw
samples and an environment stamp goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"
clock = time.perf_counter

#: verify arguments of each workload, before --seed and --out
WORKLOADS = {
    "all_default": ["all"],
    "vector_n3": ["ex1a", "ex1b", "--n", "3"],
    "scalar_fine": ["ex3", "--grid", "50001"],
}
SETUP_REPEATS = 5
MIN_TRACED_RUNS = 2
#: a workload's child processes are killed once it has run this long
HARD_LIMIT_S = 170.0
#: trace entries that must repeat exactly across runs and seeds
_SEED_DEPENDENT_EXTRA = ("reports.bytes",)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], stderr_path: Path, timeout: float = HARD_LIMIT_S) -> dict:
    """Run cmd to completion; wall time from spawn to exit, peak RSS."""
    with open(stderr_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "stderr": stderr_path.read_text(errors="replace"),
    }


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def residual_summary(doc: dict) -> dict:
    points = 0
    rel = {"analytic": 0.0, "fd": 0.0}
    for r in doc["reports"]:
        for src in rel:
            sec = r.get("residual", {}).get(src)
            if sec is not None:
                points += sec["points"]
                rel[src] = max(rel[src], sec["sup_residual"] / sec["tol"])
    return {"points": points, "analytic_residual_rel": rel["analytic"],
            "fd_residual_rel": rel["fd"]}


def judge(sample: dict, report_path: Path, reference: dict, seed: int) -> list[str]:
    """Reasons this process failed; empty when it passed."""
    problems = []
    if sample["exit_code"] != 0:
        problems.append(f"exit code {sample['exit_code']}")
    if "Traceback" in sample["stderr"]:
        problems.append("traceback on stderr")
    try:
        doc = load_json(report_path)
    except (OSError, ValueError) as exc:
        return problems + [f"no readable report: {exc}"]
    problems += gate.check_report(reference, doc, seed)
    if not problems:
        sample.update(residual_summary(doc))
    return problems


class WorkloadRun:
    """The processes of one workload run, all killed at one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = load_json(REFERENCE_DIR / f"{workload}.json")
        self.kill_at = clock() + HARD_LIMIT_S

    def _timeout(self) -> float:
        return max(1.0, self.kill_at - clock())

    def verify(self, tag: str, seed: int | None = None, traced: bool = False) -> dict:
        """One verify process, judged against the reference."""
        seed = self.seed if seed is None else seed
        report = OUT_DIR / f"{self.workload}-{tag}.json"
        trace = OUT_DIR / f"{self.workload}-{tag}.trace.json"
        for path in (report, trace):
            path.unlink(missing_ok=True)
        args = [*WORKLOADS[self.workload], "--seed", str(seed), "--out", str(report)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace), "--", *args]
        else:
            cmd = [sys.executable, "-m", "inflap.cli", *args]
        sample = spawn(cmd, OUT_DIR / f"{self.workload}-{tag}.stderr", self._timeout())
        sample["problems"] = judge(sample, report, self.reference, seed)
        if traced and not sample["problems"]:
            sample["trace"] = load_json(trace)
        return sample

    def setup_s(self) -> float:
        """Set-up time measured by one fresh setup_probe.py interpreter."""
        out = OUT_DIR / f"{self.workload}-setup.stdout"
        with open(out, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), *WORKLOADS[self.workload]],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=fh,
                stderr=subprocess.DEVNULL, timeout=self._timeout(),
            )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {self.workload} exited with {proc.returncode}")
        return json.loads(out.read_text())["setup_s"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(run: WorkloadRun, seconds: float) -> tuple[dict, list]:
    setups = [run.setup_s() for _ in range(SETUP_REPEATS)]
    samples = []
    deadline = clock() + seconds
    while not samples or clock() < deadline:
        samples.append(run.verify(f"run{len(samples)}"))
    good = [s for s in samples if not s["problems"]]
    values = {"setup_s": setups}
    if good:
        values["wall_s"] = [s["wall_s"] for s in good]
        values["points_per_s"] = [s["points"] / s["wall_s"] for s in good]
        values["peak_rss_mb"] = [s["peak_rss_mb"] for s in good]
        values["analytic_residual_rel"] = [max(s["analytic_residual_rel"] for s in good)]
        values["fd_residual_rel"] = [max(s["fd_residual_rel"] for s in good)]
    metrics = {k: statistics.median(v) for k, v in values.items()}
    fail_rate = (len(samples) - len(good)) / len(samples)
    print(f"{run.workload}: {len(samples)} verify processes, {len(samples) - len(good)} failed, "
          f"{SETUP_REPEATS} set-up probes")
    for name, unit in load_units("end_to_end").items():
        if name in values:
            q1, q3 = quartiles(values[name])
            print(f"  {name:<24} {metrics[name]:>14.6g} {unit:<6} "
                  f"median of {len(values[name])}, quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  {'fail_rate':<24} {fail_rate:>14.6g} ratio  {len(samples)} attempted")
    return metrics, samples


def _median_trace(traces: list[dict], section: str) -> dict:
    keys = set().union(*(t[section] for t in traces))
    return {k: statistics.median(t[section].get(k, 0.0) for t in traces) for k in keys}


def _exact_counts(trace: dict) -> dict:
    extra = {k: v for k, v in trace["extra"].items() if k not in _SEED_DEPENDENT_EXTRA}
    return {"calls": trace["calls"], "extra": extra, "distinct": trace["distinct"]}


def layer_metrics(traces: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from traced runs whose counts agree.

    A ``_s`` metric is the inclusive time of a layer's outermost calls (so
    ``profiles.eval_s`` contains the Kronrod panels that ``ArcComplement``
    runs); ``scenarios.self_s`` is self time.  Times are medians over runs.
    """
    calls = traces[0]["calls"]
    extra = traces[0]["extra"]
    distinct = traces[0]["distinct"]
    inc = _median_trace(traces, "inclusive_s")
    own = _median_trace(traces, "self_s")

    def n(key):
        return calls.get(key, 0)

    def ratio(num, den, empty):
        return num / den if den else empty

    points = extra.get("checkers.points", 0)
    return {
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
        "reports.emit_s": inc.get("reports.emit", 0.0),
        "reports.bytes": statistics.median(t["extra"].get("reports.bytes", 0) for t in traces),
        "scenarios.self_s": own.get("scenarios.run", 0.0),
        "profiles.choose_M_s": inc.get("profiles.choose_M", 0.0),
        "profiles.choose_M_calls": n("profiles.choose_M"),
        "profiles.choose_M_distinct_ratio": ratio(
            distinct.get("profiles.choose_M", 0), n("profiles.choose_M"), 1.0),
        "profiles.table_build_s": inc.get("profiles.table_build", 0.0),
        "profiles.table_builds": n("profiles.table_build"),
        "profiles.table_distinct_ratio": ratio(
            distinct.get("profiles.table_build", 0), n("profiles.table_build"), 1.0),
        "profiles.eval_calls": n("profiles.eval"),
        "profiles.eval_s": inc.get("profiles.eval", 0.0),
        "profiles.jet_calls": n("profiles.jet"),
        "profiles.jet_s": inc.get("profiles.jet", 0.0),
        "quadrature.panels": n("quadrature.panel"),
        "quadrature.panel_s": inc.get("quadrature.panel", 0.0),
        "quadrature.panels_per_point": ratio(n("quadrature.panel"), points, 0.0),
        "jets.calls": n("jets"),
        "jets.s": inc.get("jets", 0.0),
        "maps.map_jet_calls": n("maps.map_jet"),
        "maps.map_jet_s": inc.get("maps.map_jet", 0.0),
        "maps.value_calls": n("maps.value"),
        "maps.value_s": inc.get("maps.value", 0.0),
        "maps.fd_jet_calls": n("maps.fd_jet"),
        "maps.fd_jet_s": inc.get("maps.fd_jet", 0.0),
        "maps.values_per_fd_jet": ratio(n("maps.value@maps.fd_jet"), n("maps.fd_jet"), 0.0),
        "operators.calls": n("operators"),
        "operators.s": inc.get("operators", 0.0),
        "hull.s": inc.get("hull", 0.0),
        "hull.points": extra.get("hull.points", 0),
        "checkers.residual_analytic_s": inc.get("checkers.residual_analytic", 0.0),
        "checkers.residual_fd_s": inc.get("checkers.residual_fd", 0.0),
        "checkers.conservation_s": inc.get("checkers.conservation", 0.0),
        "checkers.principle_s": inc.get("checkers.principle", 0.0),
        "checkers.hull_s": inc.get("checkers.hull", 0.0),
        "checkers.domain_s": inc.get("checkers.domain", 0.0),
        "checkers.points": points,
        "checkers.eval_errors": extra.get("checkers.eval_errors", 0),
        "trace.overhead_s": overhead_s,
    }


def per_layer(run: WorkloadRun, seconds: float) -> tuple[dict, list]:
    plain, traced = [], []
    deadline = clock() + seconds
    while not plain or len(traced) < MIN_TRACED_RUNS or clock() < deadline:
        if not plain or (len(traced) >= MIN_TRACED_RUNS and len(plain) <= len(traced)):
            plain.append(run.verify(f"plain{len(plain)}"))
        else:
            seed = run.seed + len(traced) % 2
            traced.append(run.verify(f"traced{len(traced)}", seed=seed, traced=True))
    samples = plain + traced
    good_plain = [s for s in plain if not s["problems"]]
    good_traced = [s for s in traced if not s["problems"]]
    if not good_plain or not good_traced:
        return {}, samples
    counts = [_exact_counts(s["trace"]) for s in good_traced]
    if any(c != counts[0] for c in counts[1:]):
        for s in good_traced:
            s["problems"].append("trace counts differ between traced runs")
        return {}, samples
    overhead = (statistics.median(s["wall_s"] for s in good_traced)
                - statistics.median(s["wall_s"] for s in good_plain))
    metrics = layer_metrics([s["trace"] for s in good_traced], overhead)
    print(f"{run.workload}: {len(plain)} untraced and {len(traced)} traced verify processes "
          f"(seeds {run.seed} and {run.seed + 1}); call counts repeat exactly")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g}")
    return metrics, samples


def env_stamp(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "inflap").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = WorkloadRun(workload, seed)
    n1 = {r["scenario"]: r for r in load_json(REFERENCE_DIR / "all_default.json")["reports"]}
    self_test = gate.self_test(run.reference, seed, n1)
    for problem in self_test:
        print(f"{workload}: gate self-test: {problem}")
    measure = per_layer if trace else end_to_end
    metrics, samples = measure(run, seconds)
    failed = sum(1 for s in samples if s["problems"])
    for i, s in enumerate(samples):
        for problem in s["problems"][:5]:
            print(f"{workload}: process {i} failed: {problem}")
    expected = load_units("per_layer" if trace else "end_to_end")
    correct = not self_test and failed == 0 and set(expected) <= set(metrics)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(seed), "correct": correct, "attempted": len(samples),
        "failed": failed, "metrics": metrics,
        "processes": [{k: v for k, v in s.items() if k not in ("stderr", "trace")}
                      for s in samples],
    }
    tag = "trace" if trace else "e2e"
    with open(OUT_DIR / f"result-{workload}-seed{seed}-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def write_references() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, args in WORKLOADS.items():
        out = REFERENCE_DIR / f"{workload}.json"
        sample = spawn([sys.executable, "-m", "inflap.cli", *args, "--seed", "0",
                        "--no-timings", "--out", str(out)], OUT_DIR / f"{workload}-ref.stderr")
        if sample["exit_code"] != 0:
            raise SystemExit(f"reference run of {workload} exited with {sample['exit_code']}")
        doc = load_json(out)
        for r in doc["reports"]:
            r["config"]["out_path"] = None
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "inflap" / "cli.py").is_file():
        print(f"error: {SRC / 'inflap'} not found; run the benchmark inside a checkout "
              "of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # compile the package once so no timed process pays for bytecode
    warm = spawn([sys.executable, "-c", "import inflap.cli"], OUT_DIR / "warmup.stderr")
    if warm["exit_code"] != 0:
        print(f"error: cannot import inflap.cli:\n{warm['stderr']}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_references()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    print("env " + json.dumps(records[0]["env"], sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    units = load_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if len(records) > 1 else k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
