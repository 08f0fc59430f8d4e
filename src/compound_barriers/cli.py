"""Command-line harness: scenario in, CSV table out.

    compound-barriers --scenario two_rect.scn --analysis sweep --out table.csv

Output is RFC-4180-style CSV preceded by '#'-prefixed metadata lines
(units convention, seed, generator, tool version), so a table is fully
reproducible from the file alone.  Exit codes: 0 all checks pass, 2 a
containment/equivalence check failed, 3 bad input.

``--seed`` and ``--samples`` fall back to the CB_SEED / CB_SAMPLES
environment variables, then to the scenario file, then to defaults; a seed
below 0 or fewer than 1 sample is bad input.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import __version__
from .barriers import scenario_arrays
from .bounds import (
    BoundsReport,
    RapiditySequence,
    T_from_theta,
    bounds_report,
    classical_transmission,
    production_guaranteed,
    resonance_assessment,
)
from .errors import BoundViolationError, CompoundBarrierError
from .scenario import Scenario, load_scenario
from .transfer import rapidity
from .verify import (
    GENERATOR_NAME,
    equivalence_audit,
    random_phase_sweep,
    random_phase_sweeps,
    scenario_containment_audit,
)

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10_000
_EQUIVALENCE_N_MAX = 8
_EQUIVALENCE_TRIALS = 200


@dataclass
class Table:
    columns: list[str]
    rows: list[list[object]]
    meta: dict[str, object]
    failures: list[str]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _envelopes(report: BoundsReport) -> list[float]:
    """The six envelope columns T_min, T_upper, R_low, R_high, N_low, N_high."""
    return [*report.t_interval, *report.r_interval, *report.n_interval]


def _rapidities(scenario: Scenario) -> Iterator[RapiditySequence]:
    """Per-barrier rapidities at every k, from one scenario build."""
    alpha, _ = scenario_arrays(scenario.barriers, scenario.k_values)
    return (RapiditySequence(tuple(row.tolist())) for row in rapidity(alpha))


def run_bounds(scenario: Scenario, seed: int, samples: int) -> Table:
    """Envelope table: per-barrier data and the six bounds at each k."""
    if scenario.mode == "production":
        n = len(scenario.episodes)
        check = production_guaranteed(scenario.episodes)
        columns = [f"N_{i + 1}" for i in range(n)] + [
            "N_low", "N_high", "threshold", "production_guaranteed"]
        row = [*scenario.episodes, check.n_min, check.n_max, check.threshold,
               check.guaranteed]
        return Table(columns, [row], {}, [])

    n = len(scenario.barriers)
    columns = (["k"] + [f"T_{i + 1}" for i in range(n)]
               + ["T_min", "T_upper", "R_low", "R_high", "N_low", "N_high",
                  "T_classical", "resonance_possible"])
    rows = []
    for k, seq in zip(scenario.k_values, _rapidities(scenario)):
        # per-barrier T_i through the same rapidities as the envelopes, so a
        # one-barrier table degenerates to exact equality of all three columns
        ts = [T_from_theta(t) for t in seq.thetas]
        report = bounds_report(seq)
        res = resonance_assessment(seq)
        rows.append([k, *ts, *_envelopes(report), classical_transmission(ts),
                     res.possible])
    return Table(columns, rows, {}, [])


def run_sweep(scenario: Scenario, seed: int, samples: int) -> Table:
    """Exact compound T/R/N next to the envelopes, with a containment verdict."""
    audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
    columns = ["k", "T_exact", "R_exact", "N_exact",
               "T_min", "T_upper", "R_low", "R_high", "N_low", "N_high",
               "contained"]
    rows = []
    for row in audit.rows:
        rows.append([row.k, row.t_exact, row.r_exact, row.n_exact,
                     *_envelopes(row.report), row.contained])
    meta = {
        "k_at_max_T": audit.k_at_max_t,
        "k_at_min_T": audit.k_at_min_t,
        "worst_margins": (f"T:[{audit.t_low_margin!r},{audit.t_high_margin!r}] "
                          f"R:[{audit.r_low_margin!r},{audit.r_high_margin!r}] "
                          f"N:[{audit.n_low_margin!r},{audit.n_high_margin!r}]"),
    }
    failures = [] if audit.all_contained else ["containment violation in sweep"]
    return Table(columns, rows, meta, failures)


def run_verify(scenario: Scenario, seed: int, samples: int) -> Table:
    """Random-phase sweeps plus the iterative/closed-form audit.

    For scattering scenarios the exact compound values are audited too.
    Any violation is reported and drives a nonzero exit status.
    """
    failures: list[str] = []
    eq = equivalence_audit(_EQUIVALENCE_N_MAX, _EQUIVALENCE_TRIALS, seed)
    meta: dict[str, object] = {
        "equivalence_audit": (f"{'pass' if eq.all_pass else 'FAIL'} "
                              f"(n=2..{_EQUIVALENCE_N_MAX}, trials={eq.trials_per_n}, "
                              f"max_discrepancy={eq.max_discrepancy!r})"),
    }
    if not eq.all_pass:
        failures.append("iterative/closed-form equivalence audit failed")

    columns = ["k", "B_n", "S_n", "theta_min_observed", "theta_max_observed",
               "sweep_ok", "exact_contained"]
    rows: list[list[object]] = []

    if scenario.mode == "production":
        seq = RapiditySequence.from_particle_numbers(scenario.episodes)
        report = bounds_report(seq)
        sweep_ok, verdict = _sweep_row(seq, samples, seed, failures)
        rows.append(["-", report.b_n, report.s_n, *verdict, sweep_ok, "-"])
        return Table(columns, rows, meta, failures)

    audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
    if not audit.all_contained:
        failures.append("exact compound values escaped the envelopes")
    sweeps = random_phase_sweeps([row.thetas for row in audit.rows], samples, seed)
    for row, sweep in zip(audit.rows, sweeps):
        if sweep.violation is not None:
            failures.append(str(sweep.violation))
        rows.append([row.k, row.report.b_n, row.report.s_n, sweep.theta_min_observed,
                     sweep.theta_max_observed, sweep.violation is None, row.contained])
    return Table(columns, rows, meta, failures)


def _sweep_row(seq: RapiditySequence, samples: int, seed: int,
               failures: list[str]) -> tuple[bool, list[float]]:
    try:
        res = random_phase_sweep(seq, samples, seed)
    except BoundViolationError as exc:
        failures.append(str(exc))
        return False, [math.nan, math.nan]
    return True, [res.theta_min_observed, res.theta_max_observed]


def run_resonance(scenario: Scenario, seed: int, samples: int) -> Table:
    """Necessary condition for T = 1 (scattering) or the sufficient
    condition for nonzero production (production mode)."""
    if scenario.mode == "production":
        check = production_guaranteed(scenario.episodes)
        columns = ["N_peak", "N_max", "threshold", "margin",
                   "production_guaranteed", "N_min_guaranteed"]
        row = [check.n_peak, check.n_max, check.threshold,
               check.n_peak - check.threshold, check.guaranteed, check.n_min]
        return Table(columns, [row], {}, [])

    columns = ["k", "T_peak", "T_min", "threshold", "margin", "resonance_possible"]
    rows = []
    for k, seq in zip(scenario.k_values, _rapidities(scenario)):
        res = resonance_assessment(seq)
        rows.append([k, res.t_peak, res.t_min, res.threshold, res.margin,
                     res.possible])
    return Table(columns, rows, {}, [])


_RUNNERS = {
    "bounds": run_bounds,
    "sweep": run_sweep,
    "verify": run_verify,
    "resonance": run_resonance,
}


def _resolve(flag: int | None, env_name: str, file_value: int | None,
             fallback: int) -> int:
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if env is not None:
        try:
            return int(env, 10)
        except ValueError:
            raise CompoundBarrierError(f"{env_name} must be an integer, got {env!r}") from None
    if file_value is not None:
        return file_value
    return fallback


def _write_table(stream, table: Table, scenario: Scenario, analysis: str,
                 seed: int, samples: int) -> None:
    meta = {
        "tool": f"compound-barriers {__version__}",
        "units": "hbar = 2m = 1, energy E = k^2",
        "scenario": scenario.source,
        "mode": scenario.mode,
        "analysis": analysis,
        "seed": seed,
        "samples": samples,
        "rng": f"numpy {GENERATOR_NAME}, block-seeded SeedSequence(seed, spawn_key=(block,))",
        **table.meta,
    }
    for key, value in meta.items():
        stream.write(f"# {key}: {value}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt(v) for v in row])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compound-barriers",
        description="Phase-free scattering/production bounds for compound 1D "
                    "barriers, verified against exact transfer-matrix composition.",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--analysis", choices=sorted(_RUNNERS),
                        help="analysis to run (default: the scenario's single "
                             "listed analysis)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (also CB_SEED)")
    parser.add_argument("--samples", type=int, default=None,
                        help="random-sweep sample count (also CB_SAMPLES)")
    parser.add_argument("--out", default="-",
                        help="output path, '-' or 'stdout' for standard output")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        analysis = args.analysis
        if analysis is None:
            if len(scenario.analyses) == 1:
                analysis = scenario.analyses[0]
            else:
                raise CompoundBarrierError(
                    f"scenario lists analyses {scenario.analyses}; pick one with --analysis"
                )
        seed = _resolve(args.seed, "CB_SEED", scenario.seed, DEFAULT_SEED)
        samples = _resolve(args.samples, "CB_SAMPLES", scenario.samples, DEFAULT_SAMPLES)
        if seed < 0:
            raise CompoundBarrierError(f"seed must be >= 0, got {seed}")
        if samples < 1:
            raise CompoundBarrierError(f"samples must be >= 1, got {samples}")
        table = _RUNNERS[analysis](scenario, seed, samples)
    except BoundViolationError as exc:
        print(f"compound-barriers: containment violation: {exc}", file=sys.stderr)
        return 2
    except (CompoundBarrierError, ValueError, OSError) as exc:
        print(f"compound-barriers: error: {exc}", file=sys.stderr)
        return 3

    if args.out in ("-", "stdout"):
        _write_table(sys.stdout, table, scenario, analysis, seed, samples)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, table, scenario, analysis, seed, samples)

    if table.failures:
        for failure in table.failures:
            print(f"compound-barriers: check failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
