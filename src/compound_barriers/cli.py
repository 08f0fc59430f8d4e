"""Command-line harness: scenario in, CSV table out.

    compound-barriers --scenario two_rect.scn --analysis sweep --out table.csv

Output is RFC-4180-style CSV preceded by '#'-prefixed metadata lines
(units convention, seed, generator, tool version), so a table is fully
reproducible from the file alone.  Every float field is the text repr
writes for it, the shortest that reads back as the same double.  The table
is written 256 rows at a time: orjson's Ryu formatter writes each run of
float columns in one call, commas included, and the true/false and '-'
cells are spliced in row by row, not through orjson's null.  The finite
cells whose layout differs (from 1e-9 to below 1e-4, from 1e16) are re-laid
from orjson's own digits; repr itself writes only nan and +-inf.  The CLI
alone imports orjson, so `import compound_barriers` does not load it.

Exit codes: 0 all checks pass, 2 a containment/equivalence check failed, 3
bad input (a flag argparse cannot read, an unreadable or invalid scenario,
an analysis its mode cannot run, a seed below 0 or fewer than 1 sample, an
--out that cannot be opened or written; a partial table in a file the call
created is removed), 141 (128 + SIGPIPE, as a shell reports a pipeline
writer its reader closed) the reader of the table closed it early, as
`| head` does: writing stops with no message.

A run is one Scenario record: the file's, with the analysis picked and
``--seed`` and ``--samples`` put in where given by dataclasses.replace.  The
record holds the defaults and the minima, so it refuses a bad flag as it
refuses a bad file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import orjson

from . import __version__
from .barriers import origin_arrays
from .bounds import BoundsColumns, RapiditySequence, production_guaranteed
from .errors import CompoundBarrierError
from .scenario import Scenario, load_scenario
from .verify import (
    GENERATOR_NAME,
    SAMPLING_CONTRACT,
    random_phase_sweeps,
    recursion_audit,
    scenario_containment_audit,
)

EXIT_BROKEN_PIPE = 141
_ENVELOPES = ("T_min", "T_upper", "R_low", "R_high", "N_low", "N_high")
# rows written at once: a block is one float matrix, one orjson dump and one
# write, made and dropped before the next, so a table of any length holds
# one block's matrix and text (on the 2000-row, 29-column bounds table of a
# 20-barrier chain, ~60 KB and ~130 KB, where the whole text is ~1 MB)
_ROW_BLOCK = 256
_FLAG_TEXT = np.array(["false", "true"], dtype=object)


@dataclass
class Table:
    """CSV columns by name, each one-dimensional and all of one length: floats
    (written as repr writes each value as a Python float), bools (true or
    false) or str (written as they are, the '-' of production verify)."""

    columns: dict[str, Sequence | np.ndarray]
    meta: dict[str, object]
    failures: list[str]


def _bounds(scenario: Scenario) -> tuple[np.ndarray, BoundsColumns]:
    """The wavenumbers as one float array, the build's and the k column's,
    and the bounds at every k, from one checked build at the origin: the
    rapidities theta_i = asinh|beta_i| do not depend on where the barriers
    sit, so nothing is translated."""
    k = np.asarray(scenario.k_values, dtype=float)
    _, beta = origin_arrays(scenario.barriers, k)
    return k, BoundsColumns(np.arcsinh(np.abs(beta)))


def run_bounds(scenario: Scenario) -> Table:
    """Envelope table: per-barrier data and the six bounds at each k."""
    if scenario.mode == "production":
        check = production_guaranteed(scenario.episodes)
        names = [f"N_{i + 1}" for i in range(len(scenario.episodes))]
        values = [*scenario.episodes, check.n_min, check.n_max, check.threshold]
        columns = {name: [value] for name, value
                   in zip(names + ["N_low", "N_high", "threshold"], values)}
        columns["production_guaranteed"] = [check.guaranteed]
        return Table(columns, {}, [])

    k, bounds = _bounds(scenario)
    # per-barrier T_i through the same rapidities as the envelopes, so a
    # one-barrier table degenerates to exact equality of all three columns
    columns = {"k": k}
    columns.update((f"T_{i + 1}", ts) for i, ts in enumerate(bounds.transmissions.T))
    columns.update(zip(_ENVELOPES, bounds.envelopes))
    columns["T_classical"] = bounds.t_classical
    columns["resonance_possible"] = bounds.possible
    return Table(columns, {}, [])


def run_sweep(scenario: Scenario) -> Table:
    """Exact compound T/R/N next to the envelopes, with a containment verdict
    (scattering only: the record refuses a production sweep)."""
    audit = scenario_containment_audit(scenario.barriers, scenario.k_values)
    columns = {"k": audit.k, "T_exact": audit.t_exact,
               "R_exact": audit.r_exact, "N_exact": audit.n_exact}
    columns.update(zip(_ENVELOPES, audit.bounds.envelopes))
    columns["contained"] = audit.contained
    meta = {
        "k_at_max_T": audit.k_at_max_t,
        "k_at_min_T": audit.k_at_min_t,
        "worst_margins": (f"T:[{audit.t_low_margin!r},{audit.t_high_margin!r}] "
                          f"R:[{audit.r_low_margin!r},{audit.r_high_margin!r}] "
                          f"N:[{audit.n_low_margin!r},{audit.n_high_margin!r}]"),
    }
    failures = [] if audit.all_contained else ["containment violation in sweep"]
    return Table(columns, meta, failures)


def run_verify(scenario: Scenario) -> Table:
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
        k, contained = audit.k, audit.contained
        failures = [] if audit.all_contained else ["exact compound values escaped the envelopes"]

    worst, failing = recursion_audit(bounds)
    meta = {
        "recursion_audit": (f"{'FAIL' if failing else 'pass'} (B_n vs b_n_iterative on each "
                            f"row and its reverse, rows={len(bounds.b_n)}, "
                            f"max_discrepancy={worst!r})"),
    }
    if failing:
        failures.append(f"iterative/closed-form equivalence audit failed in rows {failing}")
    sweep = random_phase_sweeps(bounds, scenario.samples, scenario.seed)
    failures += map(str, sweep.violations)
    columns = {"k": k, "B_n": bounds.b_n, "S_n": bounds.s_n,
               "theta_min_observed": sweep.theta_min_observed,
               "theta_max_observed": sweep.theta_max_observed,
               "sweep_ok": sweep.sweep_ok, "exact_contained": contained}
    return Table(columns, meta, failures)


def run_resonance(scenario: Scenario) -> Table:
    """Necessary condition for T = 1 (scattering) or the sufficient
    condition for nonzero production (production mode)."""
    if scenario.mode == "production":
        check = production_guaranteed(scenario.episodes)
        columns = {"N_peak": [check.n_peak], "N_max": [check.n_max],
                   "threshold": [check.threshold],
                   "margin": [check.n_peak - check.threshold],
                   "production_guaranteed": [check.guaranteed],
                   "N_min_guaranteed": [check.n_min]}
        return Table(columns, {}, [])

    k, bounds = _bounds(scenario)
    columns = {"k": k}
    columns.update(zip(("T_peak", "T_min", "threshold", "margin"), bounds.resonance))
    columns["resonance_possible"] = bounds.possible
    return Table(columns, {}, [])


_RUNNERS = {
    "bounds": run_bounds,
    "sweep": run_sweep,
    "verify": run_verify,
    "resonance": run_resonance,
}


def _apart_texts(values: np.ndarray) -> list[str]:
    """The text repr writes for each value of a cell it lays out apart from
    orjson: nan and +-inf by repr, the finite ones re-laid from orjson's
    digits, as both write the shortest digits that read back as the double.
    Of |value|, orjson writes 0.0000123 from 1e-5 to below 1e-4 (repr:
    1.23e-05), 9.755796312221822e-8 from 1e-9 to below 1e-5 (e-08: one
    exponent digit) and 3.1e18 from 1e16 (e+18: two or three digits): one
    dump of the magnitudes, the signs put back in front."""
    texts = orjson.dumps(np.abs(values), option=orjson.OPT_SERIALIZE_NUMPY).decode()
    signs = np.where(values < 0.0, "-", "").tolist()
    return [repr(value) if t == "null"
            else sign + (t[6] + "." + t[7:] if t[7:] else t[6]) + "e-05" if t[0] == "0"
            else sign + t[:-1] + "0" + t[-1] if t[-2] == "-"
            else sign + t[:-2] + "+" + t[-2:] if t[-3] == "e"
            else sign + t[:-3] + "+" + t[-3:]
            for value, sign, t in zip(values.tolist(), signs, texts[1:-1].split(","))]


def _block_text(parts: list[np.ndarray]) -> str:
    """The lines of a block of rows, one part of each column: floats as the
    text repr writes, bools as true/false and str cells as they are.

    The columns fall into runs of float columns and single other columns.  A
    float run is one matrix, one orjson dump (commas included) and one split
    at the row breaks; any other column is one text per row, taken by index
    from true/false or the cells as they are.  A line is its runs' texts in
    column order, joined by commas.  orjson writes the shortest digits that
    read back as the double, as repr does, but not repr's layout from 1e-9
    to below 1e-4 or from 1e16, and it writes nan and +-inf as null.  Below
    1e-9 the exponent has two or three digits, and both write it alike
    (1e-10).  The test on the double is exact: one below 1e-4 cannot print
    as 0.0001, one below 1e16 cannot print as 1e+16.  In a run that holds
    such cells they are set to nan, so that its dump holds null there and
    nowhere else, and their texts (_apart_texts) are spliced back in
    row-major order from one split at null.  All of it is dropped on return.
    """
    runs = []
    for is_float, group in itertools.groupby(parts, key=lambda part: part.dtype.kind == "f"):
        if not is_float:
            runs += [_FLAG_TEXT.take(part).tolist() if part.dtype == bool else part.tolist()
                     for part in group]
            continue
        block = np.array(list(group)).T.copy()  # C order, as orjson takes it
        magnitude = np.abs(block)
        apart = ~((magnitude < 1e-9) | (magnitude >= 1e-4) & (magnitude < 1e16))
        texts = _apart_texts(block[apart]) if apart.any() else None
        block[apart] = np.nan
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2]
        if texts:
            text = "".join(itertools.chain.from_iterable(
                zip(text.split("null"), [*texts, ""], strict=True)))
        runs.append(text.split("],["))
    line = [*itertools.chain.from_iterable((run, itertools.repeat(",")) for run in runs)]
    line[-1] = itertools.repeat("\n")
    return "".join(itertools.chain.from_iterable(zip(*line)))


def _table_columns(table: Table) -> list[np.ndarray]:
    """The table's columns as arrays; ValueError naming every length if they
    differ (a fault of the runner that made the table, not of the input)."""
    columns = [np.asarray(column) for column in table.columns.values()]
    lengths = {name: len(column) for name, column in zip(table.columns, columns)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"a table column is shorter than the others: {lengths}")
    return columns


def _write_table(stream, table: Table, scenario: Scenario) -> None:
    """The '#' metadata of the run's record, then the header and the rows, a
    block of rows at a time.

    No header or field needs CSV quoting: headers are plain identifiers and
    every field is the text repr writes for a float, true/false or '-', none
    holding a comma, a quote or a line break.  So the lines are exactly what
    csv.writer with a newline line terminator would write.  Columns of
    unequal length raise ValueError before anything is written.
    """
    columns = _table_columns(table)
    meta = {
        "tool": f"compound-barriers {__version__}",
        "units": "hbar = 2m = 1, energy E = k^2",
        "scenario": scenario.source,
        "mode": scenario.mode,
        "analysis": scenario.analyses[0],
        "seed": scenario.seed,
        "samples": scenario.samples,
        "rng": (f"numpy {GENERATOR_NAME}, block-seeded SeedSequence(seed, spawn_key=(block,)), "
                f"sampling contract {SAMPLING_CONTRACT}"),
        **table.meta,
    }
    for key, value in meta.items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(table.columns) + "\n")
    stream.writelines(_block_text([column[start:start + _ROW_BLOCK] for column in columns])
                      for start in range(0, len(columns[0]), _ROW_BLOCK))


def _open_out(path: str):
    """The --out file for writing, and whether this call created it (a new
    regular file) rather than opened what was there (a file, /dev/full, ...)."""
    try:
        return open(path, "x", encoding="utf-8", newline=""), True
    except FileExistsError:
        return open(path, "w", encoding="utf-8", newline=""), False


# built once, at import: parse_args reads it and changes nothing in it
_PARSER = argparse.ArgumentParser(
    prog="compound-barriers",
    description="Phase-free scattering/production bounds for compound 1D "
                "barriers, verified against exact transfer-matrix composition.",
)
_PARSER.add_argument("--scenario", required=True, help="scenario file path")
_PARSER.add_argument("--analysis", choices=sorted(_RUNNERS),
                     help="analysis to run (default: the scenario's single listed analysis)")
_PARSER.add_argument("--seed", type=int,
                     help=f"RNG seed (default: the scenario's, else {Scenario.seed})")
_PARSER.add_argument("--samples", type=int,
                     help=f"random-sweep sample count (default: the scenario's, "
                          f"else {Scenario.samples})")
_PARSER.add_argument("--out", default="-",
                     help="output path, '-' or 'stdout' for standard output")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed --help (0) or its usage error (2)
        return 3 if exc.code else 0

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
        flags = {name: value for name in ("seed", "samples")
                 if (value := getattr(args, name)) is not None}
        scenario = replace(scenario, analyses=(analysis,), **flags)
        table = _RUNNERS[analysis](scenario)
    except (CompoundBarrierError, ValueError, OSError) as exc:
        print(f"compound-barriers: error: {exc}", file=sys.stderr)
        return 3

    _table_columns(table)  # a ragged table raises here, before --out is opened
    out_is_stdout, created = args.out in ("-", "stdout"), False
    try:
        if out_is_stdout:
            out = contextlib.nullcontext(sys.stdout)
        else:
            out, created = _open_out(args.out)
        with out as stream:
            _write_table(stream, table, scenario)
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
