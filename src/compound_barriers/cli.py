"""Command-line harness: scenario in, CSV table out.

    compound-barriers --scenario two_rect.scn --analysis sweep --out table.csv

Output is RFC-4180-style CSV preceded by '#'-prefixed metadata lines
(units convention, seed, generator, tool version), so a table is fully
reproducible from the file alone.  Exit codes: 0 all checks pass, 2 a
containment/equivalence check failed, 3 bad input (an unreadable or
invalid scenario, an analysis its mode cannot run, an --out that cannot be
opened or written; a partial table in a file the call created is removed),
141 (128 + SIGPIPE, as a shell reports a pipeline writer its reader
closed) the reader of the table closed it early, as `| head` does: writing
stops with no message.

``--seed`` and ``--samples`` fall back to the scenario file, then to
defaults; a seed below 0 or fewer than 1 sample is bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .barriers import origin_arrays
from .bounds import BoundsColumns, RapiditySequence, production_guaranteed
from .errors import BoundViolationError, CompoundBarrierError, DomainError
from .scenario import Scenario, load_scenario
from .transfer import rapidity
from .verify import (
    GENERATOR_NAME,
    SAMPLING_CONTRACT,
    random_phase_sweeps,
    recursion_audit,
    scenario_containment_audit,
)

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10_000
EXIT_BROKEN_PIPE = 141
_ENVELOPES = ("T_min", "T_upper", "R_low", "R_high", "N_low", "N_high")


@dataclass
class Table:
    """CSV columns by name, each an iterable of fields read once, as the
    table is written."""

    columns: dict[str, Iterable[str]]
    meta: dict[str, object]
    failures: list[str]


def _floats(values: Sequence[float] | np.ndarray) -> Iterator[str]:
    """The one step from float to text: each value as a Python float, whose
    repr is the shortest string that reads back as the same float, so no
    numpy scalar's repr reaches a table."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _flags(values: Iterable[bool]) -> Iterator[str]:
    return ("true" if value else "false" for value in values)


def _bounds(scenario: Scenario) -> BoundsColumns:
    """The bounds at every k, from one checked build at the origin: the
    rapidities do not depend on where the barriers sit, so nothing is
    translated."""
    alpha, _ = origin_arrays(scenario.barriers, scenario.k_values)
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
    columns = {"k": _floats(scenario.k_values), "T_exact": _floats(audit.t_exact),
               "R_exact": _floats(audit.r_exact), "N_exact": _floats(audit.n_exact)}
    columns.update(zip(_ENVELOPES, map(_floats, audit.bounds.envelopes)))
    columns["contained"] = _flags(audit.contained)
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
        k, contained = _floats(scenario.k_values), _flags(audit.contained)
        failures = [] if audit.all_contained else ["exact compound values escaped the envelopes"]

    worst, failing = recursion_audit(bounds)
    meta = {
        "recursion_audit": (f"{'FAIL' if failing else 'pass'} (B_n vs b_n_iterative on each "
                            f"row and its reverse, rows={len(bounds.b_n)}, "
                            f"max_discrepancy={worst!r})"),
    }
    if failing:
        failures.append(f"iterative/closed-form equivalence audit failed in rows {failing}")
    sweeps = random_phase_sweeps(bounds, samples, seed)
    failures += [str(sweep.violation) for sweep in sweeps if sweep.violation is not None]
    columns = {"k": k, "B_n": _floats(bounds.b_n), "S_n": _floats(bounds.s_n),
               "theta_min_observed": _floats([sweep.theta_min_observed for sweep in sweeps]),
               "theta_max_observed": _floats([sweep.theta_max_observed for sweep in sweeps]),
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


def _resolve(flag: int | None, file_value: int | None, fallback: int) -> int:
    """The flag, else the scenario file's value, else the default."""
    return flag if flag is not None else file_value if file_value is not None else fallback


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
        "rng": (f"numpy {GENERATOR_NAME}, block-seeded SeedSequence(seed, spawn_key=(block,)), "
                f"sampling contract {SAMPLING_CONTRACT}"),
        **table.meta,
    }
    for key, value in meta.items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(table.columns) + "\n")
    rows = zip(*table.columns.values(), strict=True)
    stream.writelines(",".join(fields) + "\n" for fields in rows)


def _open_out(path: str):
    """The --out file for writing, and whether this call created it (a new
    regular file) rather than opened what was there (a file, /dev/full, ...)."""
    try:
        return open(path, "x", encoding="utf-8", newline=""), True
    except FileExistsError:
        return open(path, "w", encoding="utf-8", newline=""), False


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
                        help=f"RNG seed (default: the scenario's, else {DEFAULT_SEED})")
    parser.add_argument("--samples", type=int, default=None,
                        help=f"random-sweep sample count (default: the scenario's, "
                             f"else {DEFAULT_SAMPLES})")
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
        seed = _resolve(args.seed, scenario.seed, DEFAULT_SEED)
        samples = _resolve(args.samples, scenario.samples, DEFAULT_SAMPLES)
        if seed < 0:
            raise CompoundBarrierError(f"seed must be >= 0, got {seed}")
        if samples < 1:
            raise CompoundBarrierError(f"samples must be >= 1, got {samples}")
        table = _RUNNERS[analysis](scenario, seed, samples)
        out_is_stdout = args.out in ("-", "stdout")
        out, created = ((contextlib.nullcontext(sys.stdout), False) if out_is_stdout
                        else _open_out(args.out))
    except BoundViolationError as exc:
        print(f"compound-barriers: containment violation: {exc}", file=sys.stderr)
        return 2
    except (CompoundBarrierError, ValueError, OSError) as exc:
        print(f"compound-barriers: error: {exc}", file=sys.stderr)
        return 3

    try:
        with out as stream:
            _write_table(stream, table, scenario, analysis, seed, samples)
            stream.flush()  # stdout too, so that a closed reader shows here
    except BrokenPipeError:
        # not bad input: stop quietly, and point stdout at the null device so
        # the interpreter's last flush of what is buffered does not raise again
        if out_is_stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        if created:  # a partial table this call started; nothing else is removed
            with contextlib.suppress(OSError):
                os.unlink(args.out)
        print(f"compound-barriers: error: {exc}", file=sys.stderr)
        return 3

    if table.failures:
        for failure in table.failures:
            print(f"compound-barriers: check failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
