"""One measured process: runs a workload's CLI calls in-process, pass after
pass, as a closed loop (one caller, one call at a time, no threads).

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --seconds S [--trace]

The scenario files must already be in DIR.  A pass is every call of the
workload once; it is timed from the first ``cli.main`` call to the return
of the last (the table is written before ``main`` returns).  Passes run
until the next one would overrun ``--seconds``; at least one always runs.
Pass 0 keeps its tables in DIR/p0 for the checker; every later pass is
compared with it row by row.  Untraced passes also run a ``RefClock`` and
report each pass in reference units.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

REF_INTERVAL_S = 0.2
_REF_M = np.array([[1.0, 0.5j], [-0.5j, 1.0]])


def reference() -> None:
    """Fixed ~2.5 ms of the package's typical work: a Python loop of 2x2
    complex matrix products.  It uses nothing of the package, so no change
    to the program moves it.  Of the references tried (this loop, pure
    Python, vector arithmetic over large arrays, and their sums) this one
    tracked the host's speed best on all three workloads."""
    m = np.eye(2, dtype=complex)
    for _ in range(400):
        m = _REF_M @ m
        m /= abs(m[0, 0])


class RefClock:
    """Host-speed probe for one process.  While armed, a SIGALRM handler
    times one ``reference()`` every REF_INTERVAL_S of wall time.  A pass's
    time in reference units is its wall time minus the handler's time,
    divided by the mean reference time measured during it.  A shared
    host's speed can move by up to 2x for seconds to minutes at a time;
    that moves the pass and the reference alike."""

    def __init__(self, armed: bool):
        self.armed = armed
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def mean_since(self, n0: int) -> float:
        """Mean reference time of the samples from index ``n0`` on; takes
        one sample now if none fell in that span (very short passes)."""
        if len(self.samples) == n0:
            self.sample()
        return statistics.fmean(self.samples[n0:])

    def __enter__(self) -> RefClock:
        self.sample()  # warm-up, discarded
        self.samples.clear()
        if self.armed:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)


def _split(path: Path) -> tuple[list[str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    head = [line for line in lines if line.startswith("#")]
    return head, [line for line in lines if not line.startswith("#")]


def unstable_rows(first: Path, later: Path) -> set[int]:
    """Data rows (0-based, header excluded) that differ between two tables."""
    head_a, body_a = _split(first)
    head_b, body_b = _split(later)
    if head_a != head_b or body_a[:1] != body_b[:1]:
        return set(range(max(len(body_a), len(body_b)) - 1))
    n = max(len(body_a), len(body_b))
    return {i - 1 for i in range(1, n)
            if i >= len(body_a) or i >= len(body_b) or body_a[i] != body_b[i]}


def run_passes(wl: workloads.Workload, seed: int, workdir: Path, seconds: float,
               tracer=None) -> dict:
    from compound_barriers import cli

    pass_s, pass_ref, call_s, codes, snapshots = [], [], [], [], []
    unstable: dict[int, set[int]] = {i: set() for i in range(len(wl.calls))}
    with RefClock(armed=tracer is None) as clock:
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start + pass_s[-1] <= seconds:
            out = workdir / ("p0" if not pass_s else "pn")
            out.mkdir(exist_ok=True)
            if tracer is not None:
                tracer.reset()
            times, rcs = [], []
            n0 = len(clock.samples)
            for i, call in enumerate(wl.calls):
                c0, h0 = time.perf_counter(), clock.spent
                rcs.append(cli.main(call.argv(workdir, seed, out / f"{i}.csv")))
                times.append(time.perf_counter() - c0 - (clock.spent - h0))
            pass_s.append(sum(times))
            pass_ref.append(pass_s[-1] / clock.mean_since(n0))
            call_s.append(times)
            codes.append(rcs)
            if tracer is not None:
                snapshots.append(tracer.snapshot())
            if len(pass_s) > 1:
                for i in range(len(wl.calls)):
                    unstable[i] |= unstable_rows(workdir / "p0" / f"{i}.csv", out / f"{i}.csv")
    return {
        "pass_s": pass_s,
        "pass_ref": pass_ref,
        "call_s": call_s,
        "exit_codes": codes,
        "unstable_rows": {i: sorted(rows) for i, rows in unstable.items()},
        "trace": snapshots,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--sizes", default="{}", help="JSON size overrides")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import compound_barriers.cli  # noqa: F401  (loads every traced module)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, json.loads(args.sizes))
    result = run_passes(wl, args.seed, Path(args.workdir), args.seconds, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
