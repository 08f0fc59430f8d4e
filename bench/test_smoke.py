"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py

Kept out of the package's tests/ so the package's test run never times it.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {"chain_k": 6, "opaque_k": 4, "phase_k": 2, "phase_samples": 500,
        "verify_k": 3, "verify_samples": 200}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_generator_is_seed_deterministic():
    for name in workloads.WHY:
        a = workloads.build(name, 3, TINY).files
        assert a == workloads.build(name, 3, TINY).files
        assert a != workloads.build(name, 4, TINY).files


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)


@pytest.mark.parametrize("name", list(workloads.WHY))
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric(name, trace):
    result, lines = run.run(name, 5, 0.01, trace, TINY, probes=1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    expected_rows = {"chain-scan": 3 * TINY["chain_k"] + TINY["opaque_k"],
                     "phase-sweep": TINY["phase_k"] + 1,
                     "chain-verify": TINY["verify_k"]}[name]
    assert result["attempted"] == expected_rows
    if name == "chain-scan":
        # only the opaque rect's rows can fail (false containment violations)
        assert result["failed"] <= TINY["opaque_k"]
    else:
        assert result["failed"] == 0
    assert json.dumps(result)  # the result line is plain JSON
    assert any(line.startswith("# context:") for line in lines)


def test_ref_clock_samples_while_armed_and_counts_its_own_time():
    with worker.RefClock(armed=True) as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    assert len(clock.samples) >= 2
    assert sum(clock.samples) <= clock.spent < 0.5
    with worker.RefClock(armed=False) as idle:
        assert idle.mean_since(0) > 0 and len(idle.samples) == 1


def _sweep_table(tmp_path: Path) -> tuple[Path, Path]:
    from compound_barriers import cli

    wl = workloads.build("chain-scan", 7, TINY)
    workloads.write(wl, tmp_path)
    out = tmp_path / "sweep.csv"
    assert cli.main(["--scenario", str(tmp_path / "chain.scn"), "--analysis", "sweep",
                     "--out", str(out)]) == 0
    return tmp_path / "chain.scn", out


def test_checker_passes_a_clean_table(tmp_path):
    scn, out = _sweep_table(tmp_path)
    res = check.check_table(scn, "sweep", out, 0)
    assert (res.attempted, res.failed, res.status_ok) == (TINY["chain_k"], 0, True)


def test_checker_fails_a_corrupted_row_and_a_missing_row(tmp_path):
    scn, out = _sweep_table(tmp_path)
    lines = out.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())
    cells = lines[first].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))  # T_exact
    lines[first] = ",".join(cells)
    out.write_text("\n".join(lines[:-1]) + "\n")
    res = check.check_table(scn, "sweep", out, 0)
    assert res.failed == 2


def test_checker_fails_rows_that_differ_between_passes(tmp_path):
    scn, out = _sweep_table(tmp_path)
    assert check.check_table(scn, "sweep", out, 0, {1}).failed == 1
