"""Command-line harness: scenario in, CSV table out.

    compound-barriers --scenario two_rect.scn --analysis sweep --out table.csv

Output is RFC-4180-style CSV preceded by '#'-prefixed metadata lines
(units convention, seed, generator, tool version), so a table is fully
reproducible from the file alone.  Exit codes: 0 all checks pass, 2 a
containment/equivalence check failed, 3 bad input (an unreadable or
invalid scenario, an analysis its mode cannot run, an --out that cannot be
opened).

``--seed`` and ``--samples`` fall back to the CB_SEED / CB_SAMPLES
environment variables, then to the scenario file, then to defaults; a seed
below 0 or fewer than 1 sample is bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import __version__
from .barriers import scenario_arrays
from .bounds import BoundsColumns, RapiditySequence, production_guaranteed
from .errors import BoundViolationError, CompoundBarrierError, DomainError
from .scenario import Scenario, load_scenario
from .transfer import rapidity
from .verify import (
    GENERATOR_NAME,
    random_phase_sweeps,
    recursion_audit,
    scenario_containment_audit,
)

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10_000
_ENVELOPES = ("T_min", "T_upper", "R_low", "R_high", "N_low", "N_high")


@dataclass
class Table:
    """CSV columns by name, each an iterable of fields read once, as the
    table is written."""

    columns: dict[str, Iterable[str]]
    meta: dict[str, object]
    failures: list[str]


def _floats(values: Iterable[float]) -> Iterator[str]:
    """repr: the shortest string that reads back as the same float."""
    return map(repr, values)


def _flags(values: Iterable[bool]) -> Iterator[str]:
    return ("true" if value else "false" for value in values)


def _bounds(scenario: Scenario) -> BoundsColumns:
    """The bounds at every k, from one scenario build."""
    alpha, _ = scenario_arrays(scenario.barriers, scenario.k_values)
    return BoundsColumns(rapidity(alpha))


def run_bounds(scenario: Scenario, seed: int, samples: int) -> Table:
    """Envelope table: per-barrier data and the six bounds at each k."""
    if scenario.mode == "production":
        check = production_guaranteed(scenario.episodes)
        names = [f"N_{i + 1}" for i in range(len(scenario.episodes))]
        values = [*scenario.episodes, check.n_min, check.n_max, check.threshold]
        columns = {name: _floats([value]) for name, value
                   in zip(names + ["N_low", "N_high", "threshold"], values)}
        columns["production_guaranteed"] = _flags([check.guaranteed])
        return Table(columns, {}, [])

    bounds = _bounds(scenario)
    # per-barrier T_i through the same rapidities as the envelopes, so a
    # one-barrier table degenerates to exact equality of all three columns
    columns = {"k": _floats(scenario.k_values)}
    columns.update((f"T_{i + 1}", _floats(ts)) for i, ts in enumerate(bounds.transmissions))
    columns.update(zip(_ENVELOPES, map(_floats, bounds.envelopes)))
    columns["T_classical"] = _floats(bounds.t_classical)
    columns["resonance_possible"] = _flags(bounds.possible)
    return Table(columns, {}, [])


def run_sweep(scenario: Scenario, seed: int, samples: int) -> Table:
    """Exact compound T/R/N next to the envelopes, with a containment verdict."""
    if scenario.mode == "production":
        raise DomainError("sweep analysis needs a spatial model (scattering mode)")
    audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
    columns = {"k": _floats(scenario.k_values),
               "T_exact": _floats(row.t_exact for row in audit.rows),
               "R_exact": _floats(row.r_exact for row in audit.rows),
               "N_exact": _floats(row.n_exact for row in audit.rows)}
    columns.update(zip(_ENVELOPES, map(_floats, audit.bounds.envelopes)))
    columns["contained"] = _flags(row.contained for row in audit.rows)
    meta = {
        "k_at_max_T": audit.k_at_max_t,
        "k_at_min_T": audit.k_at_min_t,
        "worst_margins": (f"T:[{audit.t_low_margin!r},{audit.t_high_margin!r}] "
                          f"R:[{audit.r_low_margin!r},{audit.r_high_margin!r}] "
                          f"N:[{audit.n_low_margin!r},{audit.n_high_margin!r}]"),
    }
    failures = [] if audit.all_contained else ["containment violation in sweep"]
    return Table(columns, meta, failures)


def run_verify(scenario: Scenario, seed: int, samples: int) -> Table:
    """Random-phase sweeps and the B_n recursion audit of every printed row.

    For scattering scenarios the exact compound values are audited too.
    Any violation is reported and drives a nonzero exit status.
    """
    if scenario.mode == "production":
        bounds = BoundsColumns([RapiditySequence.from_particle_numbers(scenario.episodes).thetas])
        k = contained = ["-"]
        failures = []
    else:
        audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
        bounds = audit.bounds
        k, contained = _floats(scenario.k_values), _flags(row.contained for row in audit.rows)
        failures = [] if audit.all_contained else ["exact compound values escaped the envelopes"]

    worst, failing = recursion_audit(bounds)
    meta = {
        "equivalence_audit": (f"{'FAIL' if failing else 'pass'} (B_n vs b_n_iterative on each "
                              f"row and its reverse, rows={len(bounds.b_n)}, "
                              f"max_discrepancy={worst!r})"),
    }
    if failing:
        failures.append(f"iterative/closed-form equivalence audit failed in rows {failing}")
    sweeps = random_phase_sweeps(bounds, samples, seed)
    failures += [str(sweep.violation) for sweep in sweeps if sweep.violation is not None]
    columns = {"k": k, "B_n": _floats(bounds.b_n), "S_n": _floats(bounds.s_n),
               "theta_min_observed": _floats(sweep.theta_min_observed for sweep in sweeps),
               "theta_max_observed": _floats(sweep.theta_max_observed for sweep in sweeps),
               "sweep_ok": _flags(sweep.violation is None for sweep in sweeps),
               "exact_contained": contained}
    return Table(columns, meta, failures)


def run_resonance(scenario: Scenario, seed: int, samples: int) -> Table:
    """Necessary condition for T = 1 (scattering) or the sufficient
    condition for nonzero production (production mode)."""
    if scenario.mode == "production":
        check = production_guaranteed(scenario.episodes)
        columns = {"N_peak": _floats([check.n_peak]), "N_max": _floats([check.n_max]),
                   "threshold": _floats([check.threshold]),
                   "margin": _floats([check.n_peak - check.threshold]),
                   "production_guaranteed": _flags([check.guaranteed]),
                   "N_min_guaranteed": _floats([check.n_min])}
        return Table(columns, {}, [])

    bounds = _bounds(scenario)
    columns = {"k": _floats(scenario.k_values)}
    columns.update(zip(("T_peak", "T_min", "threshold", "margin"), map(_floats, bounds.resonance)))
    columns["resonance_possible"] = _flags(bounds.possible)
    return Table(columns, {}, [])


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
    """The '#' metadata, then the header and one joined line per row, streamed.

    No header or field needs CSV quoting: headers are plain identifiers and
    every field is a float repr, true/false or '-', none holding a comma, a
    quote or a line break.  So joining with commas writes exactly what
    csv.writer with a newline line terminator would.  A column shorter than
    the others raises ValueError instead of dropping rows.
    """
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
    stream.write(",".join(table.columns) + "\n")
    rows = zip(*table.columns.values(), strict=True)
    stream.writelines(",".join(fields) + "\n" for fields in rows)


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
        out = (contextlib.nullcontext(sys.stdout) if args.out in ("-", "stdout")
               else open(args.out, "w", encoding="utf-8", newline=""))
    except BoundViolationError as exc:
        print(f"compound-barriers: containment violation: {exc}", file=sys.stderr)
        return 2
    except (CompoundBarrierError, ValueError, OSError) as exc:
        print(f"compound-barriers: error: {exc}", file=sys.stderr)
        return 3

    with out as stream:
        _write_table(stream, table, scenario, analysis, seed, samples)

    if table.failures:
        for failure in table.failures:
            print(f"compound-barriers: check failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
