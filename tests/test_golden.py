"""Every shipped scenario's table at --seed 7 --samples 2000 against the
committed one in tests/golden/ (rewritten by tests/golden/regen.py).

The '#' lines other than the scenario path, the header, k, the verdict and
'-' cells must be the same bytes.  Other float cells may differ in their last
bits between numpy's CPU dispatches, so each is held within a budget of ulps
of its golden: 32 for most, the measured cross-dispatch maximum (21) rounded
up to a power of 2.  Three columns are the small difference of larger terms,
so a last-bit change in the terms moves them by more ulps of their own:
R_exact and N_exact near a transmission resonance (|beta|^2 ~ 1e-3 moved by
177 ulps on double_rect's sweep), and the smallest sampled rapidity (152 ulps
on mixed_chain's verify, from rotors built by another tan loop); these get
256.  The resonance margin and the audit's worst margins are left out: they
cancel to about 0 exactly where a verdict turns, so their digits, even their
signs, follow the dispatch; their '#' line is compared with its numbers
masked.
"""
import math
import re

import numpy as np
import pytest

from golden.regen import cases, golden_path, run_table

ULPS = 32
WIDER_ULPS = {"R_exact": 256, "N_exact": 256, "theta_min_observed": 256}
EXACT_CELLS = {"true", "false", "-"}
SKIPPED = {"margin", "worst_margins"}
NUMBER = re.compile(r"-?(?:nan|inf|\d[\d.]*(?:e[-+]?\d+)?)")


def masked(line: str) -> str:
    """A '#' line as compared: the scenario path dropped, the numbers of a
    skipped quantity masked."""
    key, _, value = line.partition(":")
    if key == "# scenario":
        return key
    return f"{key}:{NUMBER.sub('#', value)}" if key[2:] in SKIPPED else line


def ordered(x: float) -> int:
    """x's place among the doubles: consecutive doubles differ by 1, and
    -0.0 and 0.0 share a place."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def cell_differences(golden: str, fresh: str) -> list[str]:
    """The cells and lines of fresh that stray from golden, named."""
    g_lines, f_lines = golden.splitlines(), fresh.splitlines()
    if len(g_lines) != len(f_lines):
        return [f"{len(f_lines)} lines, golden has {len(g_lines)}"]
    strays = []
    header = None
    for number, (g, f) in enumerate(zip(g_lines, f_lines), start=1):
        if g.startswith("#") or header is None:
            if masked(g) != masked(f):
                strays.append(f"line {number}: {f!r}, golden {g!r}")
            if not g.startswith("#"):
                header = g.split(",")
            continue
        g_cells, f_cells = g.split(","), f.split(",")
        if len(g_cells) != len(f_cells):
            strays.append(f"line {number}: {len(f_cells)} cells, golden {len(g_cells)}")
            continue
        for column, gc, fc in zip(header, g_cells, f_cells):
            if column in SKIPPED or gc == fc:
                continue
            if column == "k" or gc in EXACT_CELLS or fc in EXACT_CELLS:
                strays.append(f"line {number} {column}: {fc}, golden {gc}")
                continue
            gv, fv = float(gc), float(fc)
            if not (math.isfinite(gv) and math.isfinite(fv)
                    and abs(ordered(gv) - ordered(fv)) <= WIDER_ULPS.get(column, ULPS)):
                strays.append(f"line {number} {column}: {fc}, golden {gc}")
    return strays


@pytest.mark.dispatch
@pytest.mark.parametrize("name, analysis", cases())
def test_table_matches_its_golden(name, analysis):
    code, fresh = run_table(name, analysis)
    assert code == 0
    golden = golden_path(name, analysis).read_text(encoding="utf-8")
    assert cell_differences(golden, fresh) == []


def test_every_golden_is_a_case():
    # a golden left behind by a renamed scenario or analysis is not compared
    expected = {golden_path(name, analysis) for name, analysis in cases()}
    assert len(expected) == 19
    assert set(golden_path("x", "y").parent.glob("*.csv")) == expected


def test_a_stray_cell_is_named():
    golden = ("# scenario: a\n# seed: 7\n# worst_margins: T:[-1e-26,0.5]\n"
              "k,B_n,ok,margin\n0.5,1.0,true,0.0\n")
    near = 1.0 + ULPS * 2.0 ** -52
    assert cell_differences(golden, golden.replace("# scenario: a", "# scenario: b")) == []
    assert cell_differences(golden, golden.replace("1.0,true", f"{near!r},true")) == []
    assert cell_differences(golden, golden.replace("0.0\n", "-0.5\n")) == []
    assert cell_differences(golden, golden.replace("-1e-26,0.5", "3.5e-27,-0.25")) == []
    assert cell_differences(golden, golden.replace("T:", "R:")) == [
        "line 3: '# worst_margins: R:[-1e-26,0.5]', golden '# worst_margins: T:[-1e-26,0.5]'"]
    far = 1.0 + (ULPS + 1) * 2.0 ** -52
    assert cell_differences(golden, golden.replace("1.0,true", f"{far!r},true")) == [
        f"line 5 B_n: {far!r}, golden 1.0"]
    assert cell_differences(golden, golden.replace("true", "false")) == [
        "line 5 ok: false, golden true"]
    assert cell_differences(golden, golden.replace("0.5,", "0.5000000000000001,")) == [
        "line 5 k: 0.5000000000000001, golden 0.5"]
    assert cell_differences(golden, golden.replace("seed: 7", "seed: 8")) == [
        "line 2: '# seed: 8', golden '# seed: 7'"]
    assert cell_differences(golden, golden.replace("1.0,true", "nan,true")) == [
        "line 5 B_n: nan, golden 1.0"]
