"""Rewrite the golden tables: each shipped scenario under every analysis its
mode runs, at --seed 7 --samples 2000, one CSV file per table.

    PYTHONPATH=src python tests/golden/regen.py

A change that moves CLI output reruns this and explains the diff of
tests/golden/ in CHANGES.md; tests/test_golden.py compares fresh runs with
these files.
"""

import contextlib
import io
import sys
from pathlib import Path

from compound_barriers.cli import main
from compound_barriers.scenario import ANALYSES, load_scenario

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parents[1] / "scenarios"
FLAGS = ("--seed", "7", "--samples", "2000")


def cases() -> list[tuple[str, str]]:
    """(scenario file name, analysis) of every golden table; production mode
    has no spatial model, so no sweep."""
    return [(path.name, analysis)
            for path in sorted(SCENARIOS.glob("*.scn"))
            for analysis in ANALYSES
            if analysis != "sweep" or load_scenario(path).mode == "scattering"]


def golden_path(name: str, analysis: str) -> Path:
    return GOLDEN / f"{Path(name).stem}.{analysis}.csv"


def run_table(name: str, analysis: str) -> tuple[int, str]:
    """The exit code and the stdout of one CLI call, its '# scenario:' line
    naming the file relative to the repository root."""
    path = SCENARIOS / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--scenario", str(path), "--analysis", analysis, *FLAGS])
    text = stdout.getvalue().replace(f"# scenario: {path}\n", f"# scenario: scenarios/{name}\n", 1)
    return code, text


if __name__ == "__main__":
    for name, analysis in cases():
        code, text = run_table(name, analysis)
        if code != 0:
            sys.exit(f"{name} {analysis}: exit code {code}")
        golden_path(name, analysis).write_text(text, encoding="utf-8", newline="")
