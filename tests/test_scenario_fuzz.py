"""Whole scenarios against an 80-digit reference built from the scenario text.

A derandomized hypothesis strategy writes scenario text: 1-8 barriers of
every kind, strengths and heights log-uniform over 1e-10 to 1e4 of both
signs (a rect at the height E = V0 of one of the wavenumbers now and then),
widths from 1e-4 to 10, gaps from 1e-6 to 1e3, wavenumbers within 0.03-50,
or production episodes with N from 0 to 1e100.  cli.main runs bounds, sweep
and resonance on it.  Every printed edge and envelope cell must lie within
1e-12 relative of the reference (tests/oracles.py, mp_rapidity: each
barrier solved from the wave equation in mpmath), and every verdict must
agree with it, unless the reference margin of the verdict is itself within
1e-12 of S_n: a double cannot decide that.  A run exits 0, or 3 with the
refused quantity named: a rapidity beyond RAPIDITY_LIMIT, or a failed pair
check of a fold (ROADMAP B3, a known loss of precision, not of this test).
Every scenario that failed is kept under tests/corpus/ and replayed exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compound_barriers import RAPIDITY_LIMIT, PiecewiseConstant, Rectangular, parse_scenario
from compound_barriers.cli import main
from oracles import (mp_at_origin, mp_fold, mp_rapidity, mp_rect, mp_translate, ode_transmission,
                     pieces_for)

CORPUS = Path(__file__).resolve().parent / "corpus"
TOLERANCE = 1e-12
# what a refusal of a scenario out of the trusted range names
OUT_OF_RANGE = ("exceeds trusted range", "exceeds cosh(")
# a fold's failed pair check, ROADMAP B3
LOST_PRECISION = "off 1 by"
SCATTERING_CELLS = {
    "bounds": ("T_min", "T_upper", "R_low", "R_high", "N_low", "N_high", "T_classical"),
    "sweep": ("T_min", "T_upper", "R_low", "R_high", "N_low", "N_high"),
    "resonance": ("T_peak", "T_min", "threshold"),
}
PRODUCTION_CELLS = {
    "bounds": ("N_low", "N_high", "threshold"),
    "resonance": ("N_max", "threshold", "N_min_guaranteed"),
}


def run(text: str, analysis: str) -> tuple[int, list[dict[str, str]], str]:
    """cli.main on the scenario text: exit code, rows as dicts, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.scn"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--scenario", str(path), "--analysis", analysis])
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    header = lines[0].split(",") if lines else []
    return code, [dict(zip(header, line.split(","))) for line in lines[1:]], err.getvalue()


def edges(thetas):
    """[B_n, S_n] and theta_peak of mpf rapidities."""
    s, peak = mpmath.fsum(thetas), max(thetas)
    return max(2 * peak - s, mpmath.mpf(0)), s, peak


def envelopes(b, s):
    """T_min, T_upper, R_low, R_high, N_low, N_high of the edges."""
    return {"T_min": mpmath.sech(s) ** 2, "T_upper": mpmath.sech(b) ** 2,
            "R_low": mpmath.tanh(b) ** 2, "R_high": mpmath.tanh(s) ** 2,
            "N_low": mpmath.sinh(b) ** 2, "N_high": mpmath.sinh(s) ** 2}


def scattering_reference(specs, k):
    """The reference cells and verdicts of one wavenumber, and whether the
    scenario leaves the trusted range there."""
    with mpmath.workdps(80):
        thetas = [mp_rapidity(spec, k) for spec in specs]
        b, s, peak = edges(thetas)
        cells = envelopes(b, s)
        cells.update((f"T_{i + 1}", mpmath.sech(t) ** 2) for i, t in enumerate(thetas))
        cells["T_classical"] = mpmath.fprod(cells[f"T_{i + 1}"] for i in range(len(thetas)))
        root = mpmath.sqrt(cells["T_min"])
        cells["T_peak"], cells["threshold"] = mpmath.sech(peak) ** 2, 2 * root / (1 + root)
        cells["margin"] = cells["T_peak"] - cells["threshold"]
        # the exact compound lies in [B_n, S_n]: the theorem is the reference
        verdicts = {"resonance_possible": (2 * peak <= s, abs(2 * peak - s) / s if s else 1),
                    "contained": (True, 1)}
        opacity = max((math.sqrt(spec.height - k * k) * spec.width
                       for spec in pieces(specs) if spec.height > k * k), default=0.0)
        refused = max(s, opacity) > RAPIDITY_LIMIT
    return cells, verdicts, refused


def pieces(specs):
    """Every rect a scenario folds, a slab's segments included."""
    for spec in specs:
        if isinstance(spec, Rectangular):
            yield spec
        for height, width in getattr(spec, "segments", ()):
            yield Rectangular(height, width)


def production_reference(episodes):
    with mpmath.workdps(80):
        b, s, _ = edges([mpmath.asinh(mpmath.sqrt(mpmath.mpf(n))) for n in episodes])
        cells = envelopes(b, s)
        n_max = cells["N_high"]
        cells.update(N_max=n_max, N_min_guaranteed=cells["N_low"],
                     threshold=(mpmath.sqrt(n_max + 1) - 1) / 2)
        verdicts = {"production_guaranteed": (b > 0, b / s if s else 1)}
        return cells, verdicts, s > RAPIDITY_LIMIT


def mismatches(text: str) -> list[str]:
    """What the CLI prints wrong on the scenario, against the reference."""
    scenario = parse_scenario(text)
    problems = []
    if scenario.mode == "production":
        references = [production_reference(scenario.episodes)]
        analyses = PRODUCTION_CELLS
        code, _, err = run(text, "sweep")
        if code != 3 or "spatial model" not in err:
            problems.append(f"production sweep: exit {code}, {err!r}")
    else:
        references = [scattering_reference(scenario.barriers, k) for k in scenario.k_values]
        analyses = SCATTERING_CELLS
    refused = any(reference[2] for reference in references)
    for analysis, names in analyses.items():
        code, rows, err = run(text, analysis)
        if code == 3 and (LOST_PRECISION in err
                          or refused and any(refusal in err for refusal in OUT_OF_RANGE)):
            continue
        if code != 0 or refused:
            problems.append(f"{analysis}: exit {code}, out of range: {refused}, {err!r}")
            continue
        for row, (cells, verdicts, _) in zip(rows, references, strict=True):
            for name in (*names, *(f"T_{i + 1}" for i in range(len(scenario.barriers))
                                  if analysis == "bounds")):
                if abs(mpmath.mpf(row[name]) - cells[name]) > TOLERANCE * abs(cells[name]):
                    problems.append(f"{analysis} {name} at {row.get('k')}: {row[name]} "
                                    f"against {mpmath.nstr(cells[name], 20)}")
            if "margin" in row and scenario.mode == "scattering":
                scale = max(cells["T_peak"], cells["threshold"])
                if abs(mpmath.mpf(row["margin"]) - cells["margin"]) > TOLERANCE * scale:
                    problems.append(f"{analysis} margin at {row['k']}: {row['margin']}")
            for name, (verdict, margin) in verdicts.items():
                if name in row and margin > TOLERANCE and (row[name] == "true") != verdict:
                    problems.append(f"{analysis} {name} at {row.get('k')}: {row[name]}")
    return problems


def signed(magnitude: float, negative: bool) -> float:
    return -10.0 ** magnitude if negative else 10.0 ** magnitude


@st.composite
def scenario_texts(draw) -> str:
    """Scenario text with every number written as repr writes it (17 digits)."""
    if draw(st.integers(0, 5)) == 0:
        n = st.one_of(st.just(0.0), st.floats(-10.0, 100.0).map(lambda e: 10.0 ** e))
        ns = draw(st.lists(n, min_size=1, max_size=8))
        return "mode = production\n" + "".join(f"episode n={n!r}\n" for n in ns)
    ks = draw(st.lists(st.floats(math.log10(0.03), math.log10(50.0)).map(lambda e: 10.0 ** e),
                       min_size=1, max_size=3))
    # a wavenumber m/16 squares exactly, so a rect of that height has E = V0
    level = draw(st.one_of(st.none(), st.integers(1, 800).map(lambda m: m / 16.0)))
    if level is not None:
        ks.append(level)
    magnitude = st.tuples(st.floats(-10.0, 4.0), st.booleans()).map(lambda p: signed(*p))
    width = st.floats(-4.0, 1.0).map(lambda e: 10.0 ** e)
    lines, left = [], draw(st.floats(-100.0, 100.0))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["delta", "rect", "slab"]))
        if kind == "delta":
            lines.append(f"barrier delta position={left!r} strength={draw(magnitude)!r}")
            right = left
        else:
            segments = [(draw(magnitude), draw(width)) for _ in range(
                1 if kind == "rect" else draw(st.integers(1, 3)))]
            if level is not None and draw(st.booleans()):
                segments[0] = (level * level, segments[0][1])
            total = math.fsum(w for _, w in segments)
            position = left + 0.5 * total
            if kind == "rect":
                (height, w), = segments
                lines.append(f"barrier rect position={position!r} height={height!r} width={w!r}")
            else:
                body = ",".join(f"{h!r}x{w!r}" for h, w in segments)
                lines.append(f"barrier slab position={position!r} segments={body}")
            right = position + 0.5 * total
        left = right + 10.0 ** draw(st.floats(-6.0, 3.0))
    return ("mode = scattering\nk = " + " ".join(repr(k) for k in ks) + "\n"
            + "".join(line + "\n" for line in lines))


@settings(max_examples=60)
@given(text=scenario_texts())
def test_printed_cells_match_the_reference(text):
    assert mismatches(text) == [], text


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.scn")), ids=lambda path: path.name)
def test_corpus_cells_match_the_reference(path):
    assert mismatches(path.read_text()) == [], path.name


class TestReference:
    """The reference itself: the wave equation in mpmath, checked against
    the same physics by other routes."""

    def test_two_halves_of_a_rect_fold_to_the_rect(self):
        # translation and folding: a slab of two equal-height halves is the rect
        with mpmath.workdps(40):
            for height, k in ((2.0, 0.8), (2.0, 1.9), (-0.7, 0.3), (1.44, 1.2)):
                whole = mp_rect(height, 1.0, k)
                halves = mp_at_origin(PiecewiseConstant(((height, 0.5), (height, 0.5))), k)
                assert mpmath.norm(mpmath.matrix(halves) - mpmath.matrix(whole)) < 1e-35

    def test_the_chain_agrees_with_the_wave_equation(self):
        # T = 1/|alpha|^2 of the placed and folded chain against direct integration
        scenario = parse_scenario("k = 0.9\nbarrier rect position=0.0 height=2.0 width=1.0\n"
                                  "barrier slab position=2.5 segments=1.5x0.4,-0.8x0.6\n"
                                  "barrier rect position=4.5 height=0.5 width=0.7\n")
        with mpmath.workdps(40):
            chain = mp_fold(mp_translate(mp_at_origin(spec, 0.9), 0.9, spec.position)
                            for spec in scenario.barriers)
            exact = float(1 / abs(chain[0][0]) ** 2)
        assert exact == pytest.approx(ode_transmission(pieces_for(scenario.barriers), 0.9),
                                      rel=1e-8)
