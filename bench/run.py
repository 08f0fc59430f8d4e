"""Benchmark entry point for the compound-barriers CLI.

    python3 bench/run.py --workload chain-scan --seed 1 --seconds 25 --trace 0

Run from the repository root.  Generates the workload's scenario files from
the seed, measures set-up in fresh interpreters, runs the workload's CLI
calls in a worker process for ``--seconds``, checks every table it wrote
(bench/check.py) and prints a report.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``attempted``/``failed`` count the output rows of one pass (every pass is
checked against the first and must be identical).  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
PROBE = ("import time, sys\n"
         "t0 = time.perf_counter()\n"
         "import compound_barriers\n"
         "t1 = time.perf_counter()\n"
         "for f in sys.argv[1:]: compound_barriers.load_scenario(f)\n"
         "print(t1 - t0, time.perf_counter() - t1)\n")

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "rows_per_ref": "1/ref",
                    "peak_rss_mb": "MB"}
# Reported by name and unit but not gated: wall-clock pass_s and rows_per_s
# follow a shared host's speed, which can move by more than their bound
# between runs (pass_ref and rows_per_ref are the same times in reference
# units, see worker.RefClock);
# samples_per_s exists only on the verify workloads and error_rate is 0 on
# the clean ones (failed/attempted carry it in the result line).
REPORTED_UNITS = {"pass_s": "s", "rows_per_s": "1/s", "ref_s": "s",
                  "samples_per_s": "1/s", "error_rate": "ratio"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CB_SEED", None)
    env.pop("CB_SAMPLES", None)
    return env


def _run(args: list[str], timeout: float) -> str:
    proc = subprocess.run(args, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_probes(files: list[Path], count: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters timing ``import compound_barriers`` plus loading the
    workload's files; one unmeasured probe first fills the bytecode cache."""
    imports, loads = [], []
    for i in range(count + 1):
        out = _run([sys.executable, "-c", PROBE, *map(str, files)], 60).split()
        if i:
            imports.append(float(out[0]))
            loads.append(float(out[1]))
    return imports, loads


def worker(name: str, seed: int, workdir: Path, seconds: float, sizes: dict,
           trace: bool) -> dict:
    args = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
            "--workdir", str(workdir), "--seconds", repr(seconds), "--sizes", json.dumps(sizes)]
    out = _run(args + (["--trace"] if trace else []), WORKER_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(), "seed": seed}


def check_outputs(wl: workloads.Workload, workdir: Path, res: dict) -> tuple[list, bool, list[str]]:
    """Check pass 0's tables; returns per-call results, harness verdict, notes."""
    import check

    codes = res["exit_codes"]
    ok, notes, tables = True, [], []
    if any(rcs != codes[0] for rcs in codes):
        ok = False
        notes.append(f"exit codes differ between passes: {codes}")
    for i, call in enumerate(wl.calls):
        r = check.check_table(workdir / call.scenario, call.analysis, workdir / "p0" / f"{i}.csv",
                              codes[0][i], set(res["unstable_rows"][str(i)]))
        tables.append(r)
        notes += r.reasons
        if not r.status_ok:
            ok = False
            notes.append(f"{call.scenario} {call.analysis}: exit status {codes[0][i]} "
                         "contradicts the table's verdicts")
    return tables, ok, notes


def end_to_end(wl: workloads.Workload, res: dict, setup: list[float], tables: list) -> dict:
    rows = sum(t.attempted for t in tables)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ref": statistics.median(res["pass_ref"]),
        "rows_per_ref": statistics.median(rows / p for p in res["pass_ref"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_s": statistics.median(res["pass_s"]),
        "rows_per_s": statistics.median(rows / p for p in res["pass_s"]),
        "ref_s": statistics.median(p / r for p, r in zip(res["pass_s"], res["pass_ref"])),
    }
    verify = [i for i, c in enumerate(wl.calls) if c.analysis == "verify"]
    if verify:
        # one sweep of ``samples`` phase assignments per output row
        samples = sum(wl.calls[i].samples * tables[i].attempted for i in verify)
        metrics["samples_per_s"] = statistics.median(
            samples / sum(times[i] for i in verify) for times in res["call_s"])
    metrics["error_rate"] = sum(t.failed for t in tables) / rows
    return metrics


def per_layer(res_plain: dict, res_traced: dict, imports: list[float]) -> tuple[dict, bool]:
    snaps = res_traced["trace"]
    counts_repeat = True
    metrics: dict[str, float] = {"setup.import_s": statistics.median(imports)}
    for key in snaps[0]:
        values = [s[key] for s in snaps]
        if isinstance(values[0], int):
            counts_repeat &= all(v == values[0] for v in values)
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    plain = statistics.median(res_plain["pass_s"])
    metrics["trace.pass_s"] = plain
    metrics["trace.overhead_s"] = statistics.median(res_traced["pass_s"]) - plain
    return metrics, counts_repeat


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    if not (ROOT / "src" / "compound_barriers" / "__init__.py").is_file():
        raise BenchError(f"no compound_barriers package under {ROOT / 'src'}")
    sizes = sizes or {}
    wl = workloads.build(name, seed, sizes)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        workloads.write(wl, workdir)
        imports, loads = setup_probes([workdir / f for f in wl.files], probes)
        setup = [a + b for a, b in zip(imports, loads)]
        budget = seconds / 2 if trace else seconds
        plain = worker(name, seed, workdir, budget, sizes, trace=False)
        tables, ok, notes = check_outputs(wl, workdir, plain)
        attempted = sum(t.attempted for t in tables)
        failed = sum(t.failed for t in tables)
        e2e = end_to_end(wl, plain, setup, tables)
        lines = [f"# context: {json.dumps(context(seed))}",
                 f"# workload: {name} sizes={json.dumps(wl.sizes)} calls="
                 + ", ".join(f"{c.scenario}:{c.analysis}" for c in wl.calls),
                 f"# samples: {len(setup)} set-up probes, {len(plain['pass_s'])} untraced passes"]
        units = {**END_TO_END_UNITS, **REPORTED_UNITS}
        lines += [f"{name} {key} = {value!r} {units[key]}" for key, value in e2e.items()]
        if trace:
            traced = worker(name, seed, workdir, seconds / 2, sizes, trace=True)
            layers, counts_repeat = per_layer(plain, traced, imports)
            if not counts_repeat:
                ok = False
                notes.append("traced counts differ between passes")
            lines.append(f"# samples: {len(traced['pass_s'])} traced passes")
            lines += [f"{name} {key} = {value!r} {layer_unit(key)}" for key, value in layers.items()]
            metrics = {key: {"value": value, "unit": layer_unit(key)}
                       for key, value in layers.items()}
        else:
            metrics = {key: {"value": e2e[key], "unit": unit}
                       for key, unit in END_TO_END_UNITS.items()}
        lines += [f"# check: {note}" for note in notes[:10]]
        result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run uses it


def layer_unit(key: str) -> str:
    if key.endswith("ns_per_sample_barrier"):
        return "ns"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("useful_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="compound-barriers benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
