"""Scenario parsing and the CLI harness (CSV output, exit codes, seeds)."""

import csv
import dataclasses
import errno
import functools
import io
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import orjson
import pytest

import compound_barriers.barriers
import compound_barriers.cli
import compound_barriers.verify
from compound_barriers import (
    BoundsColumns,
    Delta,
    DomainError,
    OverlapError,
    ParseError,
    PiecewiseConstant,
    RapiditySequence,
    Rectangular,
    Scenario,
    WaveContext,
    amplitudes,
    bounds_report,
    compose,
    parse_scenario,
    scenario_transfer,
    transfer_of,
)
from compound_barriers.barriers import origin_arrays
from compound_barriers.cli import EXIT_BROKEN_PIPE, main
from compound_barriers.errors import BoundViolationError
from compound_barriers.scenario import _parse_sweep, load_scenario
from compound_barriers.verify import RowSweep
from oracles import floats_repr, rows_repr

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
mode = scattering
k = 1.0
barrier delta position=0.0 strength=2.0
"""

DOUBLE_RECT = """
analyses = sweep
k = 0.4:2.2:400
barrier rect position=0.0 height=2.0 width=1.0
barrier rect position=2.2 height=2.0 width=1.0
"""

RECT_DELTA_RECT = """
k = 0.5:1.5:{}
barrier rect position=0.0 height=2.0 width=1.0
barrier delta position=2.0 strength=1.5
barrier rect position=3.5 height=1.0 width=0.7
"""

PRODUCTION = """
mode = production
analyses = bounds
episode n=1.0
episode n=1.0
"""


def source_env() -> dict:
    """The environment of a child interpreter that imports this package from
    the tree under test."""
    src = str(Path(compound_barriers.cli.__file__).resolve().parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}


def written_rows(columns: dict) -> list[str]:
    """The row lines _write_table writes for these columns, header and
    metadata left out."""
    stream = io.StringIO()
    table = compound_barriers.cli.Table(columns, {}, [])
    compound_barriers.cli._write_table(stream, table, parse_scenario(MINIMAL), "bounds", 0, 1)
    lines = stream.getvalue().split("\n")
    assert lines[-1] == ""
    return lines[lines.index(",".join(columns)) + 1:-1]


def reference_rows(columns: dict) -> list[str]:
    """The same rows, one comma join of repr fields per row."""
    return [line[:-1] for line in rows_repr(list(columns.values()))]


def read_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line.strip():
            data_lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    header, body = rows[0], rows[1:]
    return meta, header, body


class TestParsing:
    def test_minimal_delta_scenario(self):
        s = parse_scenario(MINIMAL)
        assert s.mode == "scattering"
        assert s.analyses == ("bounds",)
        assert s.k_values == (1.0,)
        assert s.barriers == (Delta(strength=2.0, position=0.0),)

    def test_kinds_and_sweeps(self):
        s = parse_scenario("""
            k = 0.5:1.0:3
            barrier slab position=2.0 segments=2.0x0.5,-1.0x0.25
            barrier rect position=-2.0 height=-1.5 width=0.8
        """)
        assert s.k_values == (0.5, 0.75, 1.0)
        # barriers come back position-sorted
        assert isinstance(s.barriers[0], Rectangular)
        assert isinstance(s.barriers[1], PiecewiseConstant)
        assert s.barriers[1].segments == ((2.0, 0.5), (-1.0, 0.25))

    def test_explicit_k_list_and_comments(self):
        s = parse_scenario("""
            k = 0.5, 1.0 1.5   # trailing comment
            barrier delta position=0.0 strength=1.0
        """)
        assert s.k_values == (0.5, 1.0, 1.5)

    def test_overlapping_barriers_rejected(self):
        with pytest.raises(OverlapError):
            parse_scenario("""
                k = 1.0
                barrier rect position=0.0 height=1.0 width=2.0
                barrier rect position=1.0 height=1.0 width=2.0
            """)

    def test_nonpositive_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            parse_scenario("""
                k = -1.0
                barrier delta position=0.0 strength=1.0
            """)

    @pytest.mark.parametrize("steps", [1, 2, 3, 2000])
    def test_sweep_grid_is_the_python_loop_bit_for_bit(self, steps):
        # start + i * h for each i, as a Python loop of floats writes it;
        # ascending and descending ranges of random ends and spans
        rng = np.random.default_rng(steps)
        ends = [(0.5, 2.0), (3.0, 0.3), (1e-3, 1e3)]
        ends += [tuple((rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-4.0, 4.0, 2)).tolist())
                 for _ in range(40)]
        assert any(start > stop for start, stop in ends[3:])
        for start, stop in ends:
            got = _parse_sweep(f"{start!r}:{stop!r}:{steps}", 1)
            if steps == 1:
                want = (start,)
            else:
                h = (stop - start) / (steps - 1)
                want = tuple(start + i * h for i in range(steps))
            assert [type(k) for k in got] == [float] * steps
            assert [k.hex() for k in got] == [k.hex() for k in want]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5])
    def test_bad_wavenumber_is_named(self, bad):
        # one array test for the whole sweep, and the first bad k in the message
        barriers = (Delta(strength=1.0, position=0.0),)
        with pytest.raises(DomainError) as err:
            Scenario(barriers=barriers, k_values=(0.5, 1.0, bad, -3.0, math.nan))
        assert str(err.value) == f"wavenumbers must be finite and > 0, got {bad!r}"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("k = 1.0\nbarrier rect position=0.0 height=1.0\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_scenario("k = 1.0\nnot a statement\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_scenario("wavenumber = 1.0\nbarrier delta position=0 strength=1\n")
        assert err.value.line == 1

    def test_empty_analyses_list_is_a_parse_error(self):
        # a list of separators only named no analysis and parsed as ()
        with pytest.raises(ParseError) as err:
            parse_scenario("k = 1.0\nanalyses = ,\nbarrier delta position=0 strength=1\n")
        assert (err.value.line, err.value.field) == (2, "analyses")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("k = 1.0\nk = 2.0\nbarrier delta position=0 strength=1\n")

    def test_unknown_barrier_kind(self):
        with pytest.raises(ParseError):
            parse_scenario("k = 1.0\nbarrier gaussian position=0 sigma=1\n")

    def test_production_scenarios(self):
        s = parse_scenario(PRODUCTION)
        assert s.mode == "production"
        assert s.episodes == (1.0, 1.0)
        assert s.k_values == ()

    def test_production_rejects_sweep_analysis(self):
        with pytest.raises(DomainError):
            parse_scenario("mode = production\nanalyses = sweep\nepisode n=1.0\n")

    def test_production_rejects_barriers(self):
        with pytest.raises(DomainError):
            parse_scenario("mode = production\nepisode n=1.0\n"
                           "barrier delta position=0 strength=1\n")

    def test_scattering_requires_k(self):
        with pytest.raises(DomainError):
            parse_scenario("barrier delta position=0 strength=1\n")

    def test_negative_seed_rejected_with_line_number(self, tmp_path, capsys):
        with pytest.raises(ParseError) as err:
            parse_scenario("k = 1.0\nseed = -1\nbarrier delta position=0 strength=1\n")
        assert err.value.line == 2 and err.value.field == "seed"
        path = tmp_path / "case.scn"
        path.write_text(MINIMAL + "seed = -1\n")
        for analysis in ("bounds", "sweep", "verify", "resonance"):
            assert main(["--scenario", str(path), "--analysis", analysis]) == 3
            assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_committed_examples_parse(self):
        for name in ("double_rect.scn", "mixed_chain.scn", "production_pair.scn",
                     "opaque_rect.scn", "thin_chain.scn"):
            text = (SCENARIO_DIR / name).read_text()
            s = parse_scenario(text, source=name)
            assert s.analyses


class TestCli:
    def run(self, tmp_path, scenario_text, *args, expect=0, capsys=None):
        path = tmp_path / "case.scn"
        path.write_text(scenario_text)
        code = main(["--scenario", str(path), *args])
        assert code == expect
        out = capsys.readouterr().out if capsys is not None else None
        return out

    def test_bounds_table_minimal(self, tmp_path, capsys):
        out = self.run(tmp_path, MINIMAL, "--analysis", "bounds", capsys=capsys)
        meta, header, body = read_csv(out)
        assert meta["units"] == "hbar = 2m = 1, energy E = k^2"
        assert header[:2] == ["k", "T_1"]
        assert len(body) == 1
        row = dict(zip(header, body[0]))
        assert float(row["T_1"]) == pytest.approx(0.5, rel=1e-12)
        # single barrier: degenerate envelope equals the exact value
        assert row["T_min"] == row["T_upper"] == row["T_1"]
        # and no phases exist to exploit, so T = 1 is out of reach
        assert row["resonance_possible"] == "false"

    def test_sweep_table_is_machine_checkable(self, tmp_path, capsys):
        out = self.run(tmp_path, DOUBLE_RECT, capsys=capsys)
        meta, header, body = read_csv(out)
        assert meta["analysis"] == "sweep"
        best = None
        for raw in body:
            row = dict(zip(header, raw))
            t_exact = float(row["T_exact"])
            assert float(row["T_min"]) - 1e-9 <= t_exact <= float(row["T_upper"]) + 1e-9
            assert float(row["N_low"]) - 1e-9 <= float(row["N_exact"])
            assert row["contained"] == "true"
            if best is None or t_exact > best[0]:
                best = (t_exact, row)
        # equal barriers: some wavenumber comes within 1e-3 of a perfect
        # resonance, and the envelope's upper edge there is exactly 1
        assert best[0] > 1.0 - 1e-3
        assert float(best[1]["T_upper"]) == 1.0

    def test_resonance_table(self, tmp_path, capsys):
        out = self.run(tmp_path, DOUBLE_RECT.replace("sweep", "resonance"),
                       capsys=capsys)
        _, header, body = read_csv(out)
        row = dict(zip(header, body[0]))
        # identical barriers: resonance is always admissible
        assert row["resonance_possible"] == "true"
        assert abs(float(row["margin"])) < 1e-9

    def test_verify_analysis_passes(self, tmp_path, capsys):
        out = self.run(tmp_path, MINIMAL, "--analysis", "verify",
                       "--samples", "500", "--seed", "3", capsys=capsys)
        meta, header, body = read_csv(out)
        assert meta["recursion_audit"].startswith("pass")
        row = dict(zip(header, body[0]))
        assert row["sweep_ok"] == "true"
        assert row["exact_contained"] == "true"

    @pytest.mark.parametrize("ks", [2, 3])
    def test_one_sample_verify_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch,
                                                                   capsys, ks):
        # one sample per row: two threads fold these rows in slices of one row
        # (a (1, 1) tile), one thread in a single (ks, 1) tile
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(compound_barriers.verify, "_worker_count", lambda: workers)
            tables.append(self.run(tmp_path, RECT_DELTA_RECT.format(ks), "--analysis", "verify",
                                   "--samples", "1", "--seed", "0", capsys=capsys))
        assert tables[0] == tables[1]

    def test_production_bounds(self, tmp_path, capsys):
        out = self.run(tmp_path, PRODUCTION, capsys=capsys)
        _, header, body = read_csv(out)
        row = dict(zip(header, body[0]))
        assert float(row["N_low"]) == 0.0
        assert float(row["N_high"]) == pytest.approx(8.0, rel=1e-12)
        assert row["production_guaranteed"] == "false"

    def test_production_resonance(self, tmp_path, capsys):
        out = self.run(tmp_path, PRODUCTION, "--analysis", "resonance",
                       capsys=capsys)
        _, header, body = read_csv(out)
        row = dict(zip(header, body[0]))
        assert float(row["N_peak"]) == 1.0
        assert row["production_guaranteed"] == "false"

    def test_output_file_and_determinism(self, tmp_path):
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--scenario", str(path), "--out", str(out1)]) == 0
        assert main(["--scenario", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_is_input_error(self, capsys):
        assert main(["--scenario", "/nonexistent.scn"]) == 3

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "case.scn"
        path.write_text(MINIMAL)
        out = tmp_path / "missing" / "x.csv"
        assert main(["--scenario", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("compound-barriers: error:")
        assert str(out) in captured.err
        assert captured.out == ""

    def test_failed_write_is_input_error(self, tmp_path, monkeypatch, capsys):
        # the disk fills after the header: exit 3 with the error, and the
        # partial table goes only if this call created the file
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT)
        real_open = open

        class Filling:
            def __init__(self, *args, **kwargs):
                self.file = real_open(*args, **kwargs)

            def write(self, text):
                return self.file.write(text)

            def writelines(self, lines):
                self.file.write(next(iter(lines)))
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

        monkeypatch.setattr(compound_barriers.cli, "open", Filling, raising=False)
        created, kept = tmp_path / "new.csv", tmp_path / "old.csv"
        kept.write_text("an earlier table\n")
        for out in (created, kept):
            assert main(["--scenario", str(path), "--out", str(out)]) == 3
            captured = capsys.readouterr()
            assert captured.err == "compound-barriers: error: [Errno 28] No space left on device\n"
            assert captured.out == ""
        assert not created.exists()
        assert kept.is_file()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_full_device_is_input_error_and_stays(self, tmp_path, capsys):
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT)
        assert main(["--scenario", str(path), "--out", "/dev/full"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("compound-barriers: error:")
        assert "No space left on device" in captured.err
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.parametrize("read_first_line", [True, False])
    def test_closed_reader_is_not_bad_input(self, tmp_path, read_first_line):
        # `compound-barriers ... | head -1`: the reader closes after one line of
        # a table larger than a pipe holds, or is gone before anything is
        # written (the table then sits in stdout's buffer until the flush).
        # Either way writing stops quietly with 141, not the bad-input 3
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT.replace(":400", ":20000") if read_first_line else MINIMAL)
        read, write = os.pipe()
        if not read_first_line:
            os.close(read)
        proc = subprocess.Popen([sys.executable, "-m", "compound_barriers.cli", "--scenario",
                                 str(path), "--analysis", "bounds"],
                                stdout=write, stderr=subprocess.PIPE, env=source_env())
        os.close(write)
        if read_first_line:
            with os.fdopen(read, "rb") as reader:
                assert reader.readline().startswith(b"# tool: compound-barriers")
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_sweep_of_a_production_scenario_names_the_rule(self, capsys):
        path = SCENARIO_DIR / "production_pair.scn"
        assert main(["--scenario", str(path), "--analysis", "sweep"]) == 3
        assert capsys.readouterr().err == ("compound-barriers: error: sweep analysis needs a "
                                           "spatial model (scattering mode)\n")

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_wavenumber_beyond_the_slab_formula_is_named(self, analysis, tmp_path, capsys):
        # k^2 overflows double precision: one line naming k, no numpy warning
        text = "k = 1e300\nbarrier rect position=0.0 height=2.0 width=1.0\n"
        self.run(tmp_path, text, "--analysis", analysis, expect=3)
        err = capsys.readouterr().err
        assert err.startswith("compound-barriers: error: wavenumber k = 1e+300 is too large")
        assert err.count("\n") == 1
        # delta barriers at that k still run
        text = "k = 1e300\nbarrier delta position=0.0 strength=1.5\n"
        self.run(tmp_path, text, "--analysis", analysis, "--samples", "50")

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    @pytest.mark.parametrize("barrier, named", [
        ("delta position=0 strength=1", "delta barrier of strength 1.0"),
        ("rect position=0 height=1 width=1", "slab of height 1.0 and width 1.0"),
    ])
    def test_wavenumber_whose_coupling_overflows_is_named(self, analysis, barrier, named,
                                                          tmp_path, capsys):
        # the coupling grows as 1/k: one line naming k and the barrier, where
        # numpy warned and the error named NaN coefficients
        self.run(tmp_path, f"k = 1e-310\nbarrier {barrier}\n", "--analysis", analysis, expect=3)
        err = capsys.readouterr().err
        assert err.startswith("compound-barriers: error: wavenumber k = 1e-310 is too small "
                              f"for a {named}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_position_whose_phase_overflows_is_named(self, analysis, tmp_path, capsys):
        # 2 k a overflows double precision: one line naming k and the
        # position, where NaN coefficients named neither
        text = ("k = 1e300 1e308\nbarrier delta position=0.0 strength=1.5\n"
                "barrier delta position=2.0 strength=1.5\n")
        self.run(tmp_path, text, "--analysis", analysis, expect=3)
        err = capsys.readouterr().err
        assert err.startswith("compound-barriers: error: wavenumber k = 1e+308 at position 0.0 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_rapidity_past_the_trusted_range_is_named(self, analysis, tmp_path, capsys):
        # the whole build is checked at once: still refused, naming |alpha|
        text = "k = 1.0\nbarrier delta position=0.0 strength=1e160\n"
        self.run(tmp_path, text, "--analysis", analysis, expect=3)
        assert capsys.readouterr().err == ("compound-barriers: error: |alpha| = 5e+159 exceeds "
                                           "cosh(350.0), the trusted range\n")

    @pytest.mark.parametrize("text, analysis, named", [
        # ROADMAP B3's resonant pair: the fold cancels from ~e^{S_n} to ~1
        ("k = 1.0\nbarrier delta position=0.0 strength=2000000.0\n"
         "barrier delta position=3.1415916535897934 strength=2000000.0\n",
         "sweep", "|alpha|^2 - |beta|^2 off 1 by "),
        ("k = 0.5:1.0:5\nbarrier rect position=0.0 height=1000.0 width=12.0\n",
         "bounds", "slab opacity kappa*L = "),
    ], ids=["normalization", "slab-opacity"])
    def test_error_numbers_are_plain_floats(self, text, analysis, named, tmp_path, capsys):
        # numpy 2 scalars repr as np.float64(...); the message prints the float
        self.run(tmp_path, text, "--analysis", analysis, expect=3)
        err = capsys.readouterr().err
        assert "np.float64(" not in err
        prefix = f"compound-barriers: error: {named}"
        assert err.startswith(prefix)
        assert math.isfinite(float(err[len(prefix):].split()[0]))

    def test_floats_are_written_as_python_floats(self):
        # numpy 2 scalars repr as np.float64(...): the cells are Python floats
        columns = {"a": np.array([0.1, 1e300]), "b": [np.float64(0.5), 0.25],
                   "c": [np.float64(1e-5), np.float64(np.nan)]}
        assert written_rows(columns) == ["0.1,0.5,1e-05", "1e+300,0.25,nan"]

    def test_bad_scenario_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("k = -1.0\nbarrier delta position=0 strength=1\n")
        assert main(["--scenario", str(path)]) == 3

    def test_ambiguous_analyses_need_a_flag(self, tmp_path, capsys):
        path = tmp_path / "multi.scn"
        path.write_text("analyses = bounds, sweep\n" + DOUBLE_RECT.split("\n", 2)[2])
        assert main(["--scenario", str(path)]) == 3
        assert main(["--scenario", str(path), "--analysis", "bounds"]) == 0

    def test_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        # a containment violation cannot be produced by correct code, so
        # the exit-code contract is pinned by injecting one
        def explode(*args, **kwargs):
            raise BoundViolationError("injected violation")

        monkeypatch.setattr(compound_barriers.cli, "random_phase_sweeps", explode)
        path = tmp_path / "case.scn"
        path.write_text(MINIMAL)
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 2

    def test_violation_exit_code_in_production_mode(self, tmp_path, monkeypatch, capsys):
        def violated(bounds, samples, seed):
            return RowSweep(np.array([math.nan]), np.array([math.nan]), np.array([False]),
                            (BoundViolationError("injected violation"),))

        monkeypatch.setattr(compound_barriers.cli, "random_phase_sweeps", violated)
        path = tmp_path / "case.scn"
        path.write_text(PRODUCTION)
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "compound-barriers: check failed: injected violation\n"
        _, header, body = read_csv(captured.out)
        row = dict(zip(header, body[0]))
        assert row["sweep_ok"] == "false"
        assert row["theta_min_observed"] == row["theta_max_observed"] == "nan"

    def test_violating_row_stays_in_its_own_row(self, tmp_path, monkeypatch, capsys):
        # shrink S_n of the middle wavenumber only: that row, and no other,
        # is reported as a failed sweep with NaN extremes
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT.replace("0.4:2.2:400", "0.4:2.2:5"))
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 0
        _, header, clean = read_csv(capsys.readouterr().out)

        class Shrunk(compound_barriers.verify.BoundsColumns):
            def __init__(self, thetas):
                super().__init__(thetas)
                self.s_n[2] -= 1.0

        monkeypatch.setattr(compound_barriers.verify, "BoundsColumns", Shrunk)
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 2
        captured = capsys.readouterr()
        _, _, body = read_csv(captured.out)
        assert "escaped" in captured.err and "in block 0" in captured.err
        for j, (before, after) in enumerate(zip(clean, body)):
            row = dict(zip(header, after))
            if j == 2:
                assert row["sweep_ok"] == "false"
                assert row["theta_min_observed"] == row["theta_max_observed"] == "nan"
            else:
                assert after == before

    def test_one_copy_of_each_edge(self, monkeypatch, capsys):
        # the sweep and the containment audit read the same S_n: collapsing
        # it onto B_n fails every row in both columns
        class Collapsed(compound_barriers.verify.BoundsColumns):
            def __init__(self, thetas):
                super().__init__(thetas)
                self.s_n = self.b_n

        monkeypatch.setattr(compound_barriers.verify, "BoundsColumns", Collapsed)
        assert main(["--scenario", str(SCENARIO_DIR / "double_rect.scn"),
                     "--analysis", "verify", "--samples", "200"]) == 2
        _, header, body = read_csv(capsys.readouterr().out)
        rows = [dict(zip(header, fields)) for fields in body]
        assert len(rows) == 200
        assert all(row["sweep_ok"] == row["exact_contained"] == "false" for row in rows)

    def test_equivalence_failure_on_one_row_exits_2(self, tmp_path, monkeypatch, capsys):
        # the audit compares each printed B_n with the recursion; a
        # disagreement injected on one row fails the run and names the row
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT.replace("0.4:2.2:400", "0.4:2.2:5"))
        recursion = compound_barriers.verify.b_n_iterative_rows

        def off(thetas):
            return recursion(thetas) + 1e-6 * (np.arange(len(thetas)) == 2)

        monkeypatch.setattr(compound_barriers.verify, "b_n_iterative_rows", off)
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 2
        captured = capsys.readouterr()
        meta, _, body = read_csv(captured.out)
        assert meta["recursion_audit"].startswith("FAIL")
        assert "rows [2]" in captured.err
        assert len(body) == 5

    def test_env_overrides_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        # --seed beats the scenario's seed =, and no environment variable
        # overrides either
        path = tmp_path / "case.scn"
        path.write_text(MINIMAL + "seed = 7\n")
        assert main(["--scenario", str(path), "--analysis", "verify", "--samples", "50",
                     "--seed", "123"]) == 0
        meta, _, _ = read_csv(capsys.readouterr().out)
        assert meta["seed"] == "123"
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("CB_SEED", "99")
        monkeypatch.setenv("CB_SAMPLES", "5")
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 0
        assert capsys.readouterr().out == unset
        assert read_csv(unset)[0]["seed"] == "7"

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_negative_seed_flag_is_input_error(self, analysis, tmp_path, capsys):
        # unchecked, numpy's SeedSequence would refuse it without naming the
        # seed, and analyses that draw nothing would print it as the run's seed
        self.run(tmp_path, MINIMAL, "--analysis", analysis, "--seed", "-1", expect=3)
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.dispatch
    def test_committed_scenarios_run(self, capsys):
        # every committed scenario under every analysis: a production
        # scenario has no spatial model to sweep, which is bad input
        for path in sorted(SCENARIO_DIR.glob("*.scn")):
            production = load_scenario(path).mode == "production"
            for analysis in ("bounds", "sweep", "verify", "resonance"):
                code = main(["--scenario", str(path), "--analysis", analysis])
                captured = capsys.readouterr()
                if production and analysis == "sweep":
                    assert code == 3, path.name
                    assert not captured.out
                else:
                    assert code == 0, (path.name, analysis, captured.err)
                    assert captured.out and not captured.err

    @pytest.mark.parametrize("text", [
        "k = 1.0\nbarrier delta position=0.0 strength=0\nbarrier delta position=1.0 strength=0\n",
        "mode = production\nepisode n=0\nepisode n=0\n",
    ], ids=["zero-strength-pair", "zero-episode-pair"])
    def test_transparent_pair_sweeps_to_exactly_zero(self, text, tmp_path, capsys):
        # theta_i = 0, so every composed rapidity is 0; acosh|alpha_total|
        # would read a product of rotors one ulp above 1 as 2e-8, outside
        # [0, 0] by more than the band
        out = self.run(tmp_path, text, "--analysis", "verify", capsys=capsys)
        _, header, body = read_csv(out)
        row = dict(zip(header, body[0]))
        assert row["sweep_ok"] == "true"
        assert float(row["theta_min_observed"]) == float(row["theta_max_observed"]) == 0.0

    def test_opaque_barrier_sits_inside_its_own_envelope(self, capsys):
        # theta ~ 13-17, N up to ~1e14: an absolute tolerance on N flagged
        # most rows as violations; the rapidity-space band must not
        code = main(["--scenario", str(SCENARIO_DIR / "opaque_rect.scn"),
                     "--analysis", "sweep"])
        assert code == 0
        _, header, body = read_csv(capsys.readouterr().out)
        assert len(body) == 40
        assert all(dict(zip(header, raw))["contained"] == "true" for raw in body)


SCATTERING_SCENARIOS = [path for path in sorted(SCENARIO_DIR.glob("*.scn"))
                        if load_scenario(path).mode == "scattering"]


def at_origin(barriers, ctx):
    """Each barrier's matrix built at the origin, where the CLI reads its
    rapidity."""
    return [transfer_of(dataclasses.replace(b, position=0.0), ctx) for b in barriers]


@pytest.mark.dispatch
@pytest.mark.parametrize("path", SCATTERING_SCENARIOS, ids=lambda path: path.name)
class TestScalarAgreement:
    """The scalar API is the one-element call of the array algebra the CLI
    runs, so at every k of every shipped scattering scenario its values
    equal the CLI's bit for bit (Python's own complex arithmetic, abs and
    asinh differ from numpy's loops in the last bits).  The CLI reads each
    theta_i = asinh|beta_i| at the origin, so the library gets its row from
    the matrices built there."""

    def test_from_matrices_equals_the_rapidity_rows(self, path):
        # placed matrices stay within 2 ulps: translation turns beta by a
        # rounded unit factor
        scenario = load_scenario(path)
        _, bounds = compound_barriers.cli._bounds(scenario)
        for k, row in zip(scenario.k_values, bounds.thetas):
            ctx = WaveContext(k=k)
            seq = RapiditySequence.from_matrices(at_origin(scenario.barriers, ctx))
            assert list(seq.thetas) == row.tolist(), k
            placed = RapiditySequence.from_matrices(transfer_of(b, ctx) for b in scenario.barriers)
            assert (np.abs(np.array(placed.thetas) - row) <= 2 * np.spacing(row)).all(), k

    def test_composed_scalars_equal_scenario_transfer(self, path):
        scenario = load_scenario(path)
        for k in scenario.k_values:
            ctx = WaveContext(k=k)
            m = functools.reduce(compose, [transfer_of(b, ctx) for b in scenario.barriers])
            total = scenario_transfer(scenario.barriers, ctx)
            assert (m.alpha, m.beta) == (total.alpha, total.beta), k

    def test_cli_cells_equal_the_library_values(self, path, capsys):
        tables = {}
        for analysis in ("bounds", "sweep"):
            assert main(["--scenario", str(path), "--analysis", analysis]) == 0
            _, header, body = read_csv(capsys.readouterr().out)
            tables[analysis] = [dict(zip(header, raw)) for raw in body]
        scenario = load_scenario(path)
        assert len(tables["bounds"]) == len(tables["sweep"]) == len(scenario.k_values)
        for k, bounds_row, sweep_row in zip(scenario.k_values, tables["bounds"], tables["sweep"]):
            ctx = WaveContext(k=k)
            seq = RapiditySequence.from_matrices(at_origin(scenario.barriers, ctx))
            report = bounds_report(seq)
            amps = amplitudes(scenario_transfer(scenario.barriers, ctx))
            # repr round-trips, so the floats read back are the CLI's values
            cli = [float(bounds_row[name]) for name in ("T_min", "T_upper", "R_high", "N_high")]
            cli += [float(sweep_row["T_exact"]), float(sweep_row["R_exact"])]
            library = [*report.t_interval, report.r_interval[1], report.n_interval[1],
                       amps.T, amps.R]
            assert cli == library, k


def cli_rows(name, analysis, capsys, *flags):
    """The rows of ``analysis`` on the shipped scenario ``name``, as dicts of
    the printed cells."""
    assert main(["--scenario", str(SCENARIO_DIR / name), "--analysis", analysis, *flags]) == 0
    _, header, body = read_csv(capsys.readouterr().out)
    return [dict(zip(header, raw)) for raw in body]


@pytest.mark.dispatch
class TestSmallRapidities:
    """Each theta_i is read as asinh|beta_i| at the origin, exact near 0.  An
    acosh|alpha| read printed S_n = N_high = 0 on every row of
    thin_chain.scn, next to N_exact = 4.3e-18, and still said contained."""

    def test_thin_chain_s_n_is_three_deltas(self, capsys):
        # S_n = 3 asinh(1e-9 / (2k)) within an ulp of its 50-digit value
        rows = cli_rows("thin_chain.scn", "verify", capsys, "--samples", "10")
        assert len(rows) == 50
        with mpmath.workdps(50):
            for row in rows:
                exact = 3 * mpmath.asinh(mpmath.mpf(1e-9) / (2 * mpmath.mpf(float(row["k"]))))
                assert abs(float(row["S_n"]) - exact) <= math.ulp(float(exact)), row["k"]

    @pytest.mark.parametrize("name", ["double_rect.scn", "mixed_chain.scn", "thin_chain.scn"])
    def test_exact_values_lie_under_the_upper_envelopes(self, name, capsys):
        for row in cli_rows(name, "sweep", capsys):
            assert float(row["N_exact"]) <= float(row["N_high"]), row["k"]
            assert float(row["R_exact"]) <= float(row["R_high"]), row["k"]

    def test_a_single_opaque_barrier_exceeds_its_edges_by_rounding_only(self, capsys):
        # one barrier sits on both edges, so half of its exact values fall an
        # ulp or a few outside the printed edge they equal (ROADMAP item 17)
        for row in cli_rows("opaque_rect.scn", "sweep", capsys):
            for exact, high in (("N_exact", "N_high"), ("R_exact", "R_high")):
                assert float(row[exact]) <= float(row[high]) * (1.0 + 4e-15), row["k"]


# the doubles either side of where orjson's layout leaves repr's (9.999999999999999e-10 /
# 1e-09, 0.0001 / 9.999999999999999e-05 and 9999999999999998.0 / 1e+16) and of 1e-10,
# those orjson writes as null, and the extremes
FLOAT_EDGES = [0.0, math.nan, math.inf, 5e-324, sys.float_info.max, 1.0, 1e15,
               123456789012345.6]
for edge in (1e-10, 1e-9, 1e-4, 1e16):
    FLOAT_EDGES += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
FLOAT_EDGES += [-x for x in FLOAT_EDGES]
# rows where a block of _ROW_BLOCK = 256 rows starts or ends
BLOCK_EDGES = [0, 255, 256, 511]


def float_table(rows: int, seed: int) -> dict:
    """A table of rows rows: floats of every size, dense log-uniform values
    around 1e-9, the edge values, nan and +-inf where blocks meet and in the
    last row, an all-nan column and a flag column."""
    rng = np.random.default_rng(seed)
    scattered = rng.standard_normal(rows) * 10.0 ** rng.integers(-12, 20, rows)
    scattered[::7] = np.resize(FLOAT_EDGES, scattered[::7].size)
    dense = 10.0 ** rng.uniform(-11, -8, rows) * rng.choice([-1.0, 1.0], rows)
    spread = rng.uniform(0.5, 2.0, rows)
    at_edges = [row for row in [*BLOCK_EDGES, rows - 1] if 0 <= row < rows]
    spread[at_edges] = np.resize([math.nan, math.inf, -math.inf], len(at_edges))
    return {"scattered": scattered, "dense": dense, "spread": spread,
            "flag": rng.random(rows) < 0.5, "nan": np.full(rows, math.nan)}


class TestFloats:
    """The writer writes each float cell as repr writes the value, byte for
    byte, a block of rows at a time."""

    def test_random_bit_patterns_read_as_repr(self):
        # every binade of both signs, subnormals, nan payloads and +-inf
        values = np.frombuffer(np.random.default_rng(25).bytes(8 * 200_000), dtype=float)
        columns = {f"x{j}": column for j, column in enumerate(values.reshape(8, -1))}
        assert written_rows(columns) == reference_rows(columns)

    def test_dense_small_values_read_as_repr(self):
        # below 1e-9 orjson's text is repr's; from 1e-9 on it is not
        rng = np.random.default_rng(29)
        values = 10.0 ** rng.uniform(-11, -8, 200_000)
        columns = {"x": values, "y": -values[::-1]}
        assert written_rows(columns) == reference_rows(columns)

    def test_edge_values_read_as_repr(self):
        columns = {"x": FLOAT_EDGES, "flag": [True] * len(FLOAT_EDGES)}
        assert written_rows(columns) == reference_rows(columns)
        row = {f"x{j}": [value] for j, value in enumerate(FLOAT_EDGES)}
        assert written_rows(row) == reference_rows(row)
        for value in FLOAT_EDGES:
            assert written_rows({"x": [value]}) == reference_rows({"x": [value]})

    @pytest.mark.parametrize("length", [0, 1, 255, 256, 257, 2000])
    def test_lengths_around_a_chunk(self, length):
        columns = float_table(length, length)
        rows = written_rows(columns)
        assert len(rows) == length
        assert rows == reference_rows(columns)

    def test_repr_cells_at_chunk_edges(self):
        # cells repr lays out apart at both ends of the first two blocks and
        # in the last row, in every column
        values = np.linspace(0.5, 2.0, 700)
        specials = [1e-5, math.nan, math.inf, -1e17, -math.inf, 5e-324]
        values[[0, 255, 256, 511, 512, 699]] = specials
        columns = {"a": values, "flag": values > 1.0, "b": values[::-1], "c": values}
        assert written_rows(columns) == reference_rows(columns)
        assert written_rows({"a": values[255:257]}) == ["nan", "inf"]

    def test_all_repr_column(self):
        values = np.resize([1e-5, -1e20, math.nan, math.inf, -math.inf, 1e-9, -5e-324], 1000)
        columns = {"a": values, "b": values[::-1], "flag": np.arange(1000) % 3 == 0,
                   "text": ["-"] * 1000}
        rows = written_rows(columns)
        assert rows == reference_rows(columns)
        assert rows[:3] == ["1e-05,1e-09,true,-", "-1e+20,-inf,false,-", "nan,inf,false,-"]
        production = {"k": ["-"], "B_n": [0.0], "ok": [True], "exact_contained": ["-"]}
        assert written_rows(production) == ["-,0.0,true,-"]

    def test_small_values_of_both_layouts_read_as_repr(self):
        # from 1e-9 to below 1e-4 orjson writes 0.0000123 (from 1e-5) or
        # 9.755796312221822e-8 (below), and the writer re-lays both
        rng = np.random.default_rng(31)
        values = 10.0 ** rng.uniform(-9, -4, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        dumped = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
        assert b"-0.0000" in dumped and b",0.0000" in dumped
        assert b"e-9" in dumped and b"e-6" in dumped
        columns = {"x": values, "flag": values > 0, "y": values[::-1]}
        assert written_rows(columns) == reference_rows(columns)
        assert written_rows({"x": values}) == list(floats_repr(values))

    def test_large_values_read_as_repr(self):
        # from 1e16 orjson writes 3.1e18 and 1.7976931348623157e308, repr
        # 3.1e+18 and 1.7976931348623157e+308
        rng = np.random.default_rng(32)
        values = 10.0 ** rng.uniform(16, 308.25, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        values[:2] = 1e16, sys.float_info.max
        columns = {"x": values, "y": values[::-1]}
        assert written_rows(columns) == reference_rows(columns)
        assert written_rows({"x": values}) == list(floats_repr(values))

    def test_layout_edges_read_as_repr(self):
        edges = [1e-9, 9.999999999999999e-05, 1e16, 1e100]
        texts = ["1e-09", "9.999999999999999e-05", "1e+16", "1e+100"]
        values = [*edges, *(-x for x in edges)]
        assert written_rows({"x": values}) == [*texts, *("-" + text for text in texts)]
        assert written_rows({"x": values}) == list(floats_repr(values))
        row = {f"x{j}": [value] for j, value in enumerate(values)}
        assert written_rows(row) == [",".join(floats_repr(values))]

    @pytest.mark.parametrize("order", [
        ["flag", "a", "b"], ["a", "flag", "b"], ["a", "b", "flag"], ["text", "flag", "a", "b"],
        ["a", "flag", "text", "b"], ["a", "b", "flag", "text"], ["text", "a", "flag", "b", "text"],
    ], ids="-".join)
    def test_other_columns_anywhere(self, order):
        # bool and str columns leading, between float runs, trailing and two
        # abreast, over several blocks, with cells repr lays out apart
        table = float_table(600, 33)
        table["a"], table["b"], table["text"] = table["scattered"], table["spread"], ["-"] * 600
        columns = {f"{name}{j}": table[name] for j, name in enumerate(order)}
        assert written_rows(columns) == reference_rows(columns)

    @pytest.mark.parametrize("analysis, kinds", [("verify", "UffffbU"), ("resonance", "ffffbf")])
    def test_production_tables(self, analysis, kinds):
        # verify leads with a '-' and ends with a flag and a '-'; resonance
        # has a flag between floats
        scenario = load_scenario(SCENARIO_DIR / "production_pair.scn")
        table = compound_barriers.cli._RUNNERS[analysis](scenario, 1, 50)
        assert "".join(np.asarray(column).dtype.kind
                       for column in table.columns.values()) == kinds
        assert written_rows(table.columns) == reference_rows(table.columns)

    def test_repr_writes_only_nan_and_inf(self, monkeypatch):
        seen = []
        monkeypatch.setattr(compound_barriers.cli, "repr",
                            lambda value: seen.append(value) or repr(value), raising=False)
        columns = float_table(2000, 34)
        assert written_rows(columns) == reference_rows(columns)
        floats = np.concatenate([column for column in columns.values() if column.dtype.kind == "f"])
        assert len(seen) == np.count_nonzero(~np.isfinite(floats)) > 2000
        assert not any(map(math.isfinite, seen))

    def test_formats_one_chunk_at_a_time(self, monkeypatch):
        # a block's text is made and written before the next block's matrix
        # is dumped, so the writer holds one block of text, not the table's:
        # one dump per float run, after one of the block's cells repr lays
        # out apart if it holds any (here the 9 of the first block from 1e-5
        # to below 1e-4)
        events = []
        dumps = orjson.dumps

        def counted(block, *args, **kwargs):
            events.append(("dump", block.shape))
            return dumps(block, *args, **kwargs)

        class Stream:
            def write(self, text):
                if not text.startswith("#"):
                    events.append(("write", text.count("\n")))

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        monkeypatch.setattr(orjson, "dumps", counted)
        rows = 100_000
        x = np.linspace(0.0, 1.0, rows)
        columns = {"x": x, "flag": np.ones(rows, dtype=bool)}
        compound_barriers.cli._write_table(Stream(), compound_barriers.cli.Table(columns, {}, []),
                                           parse_scenario(MINIMAL), "bounds", 0, 1)
        expected = [("write", 1)]
        for start in range(0, rows, 256):
            part = x[start:start + 256]
            apart = np.count_nonzero((part >= 1e-9) & (part < 1e-4))
            expected += [("dump", (apart,))] * bool(apart)
            expected += [("dump", (part.size, 1)), ("write", part.size)]
        assert events == expected
        assert expected[1:4] == [("dump", (9,)), ("dump", (256, 1)), ("write", 256)]

    def test_package_import_leaves_the_cli_out(self):
        # the set-up bench/run.py times, an import and a scenario load, pays
        # for neither the CLI nor its float formatter, nor a thread pool
        probe = ("import sys, compound_barriers\n"
                 "compound_barriers.load_scenario(sys.argv[1])\n"
                 "print(sorted({'orjson', 'compound_barriers.cli', 'concurrent.futures'}\n"
                 "             & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(SCENARIO_DIR / "mixed_chain.scn")],
                              env=source_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout == "[]\n"


# every table the committed scenarios print (a production scenario has no sweep)
WRITTEN_TABLES = [(path.name, analysis) for path in sorted(SCENARIO_DIR.glob("*.scn"))
                  for analysis in ("bounds", "sweep", "verify", "resonance")
                  if not (analysis == "sweep" and load_scenario(path).mode == "production")]


class TestWriter:
    @pytest.mark.parametrize("name, analysis", WRITTEN_TABLES)
    def test_body_is_what_csv_writer_writes(self, name, analysis):
        scenario = load_scenario(SCENARIO_DIR / name)
        table = compound_barriers.cli._RUNNERS[analysis](scenario, 1, 500)
        fields = [line[:-1].split(",") for line in rows_repr(list(table.columns.values()))]
        for text in (*table.columns, *(field for row in fields for field in row)):
            assert text and not set(text) & set(',"\r\n'), text  # nothing csv.writer quotes
        written = io.StringIO()
        compound_barriers.cli._write_table(written, table, scenario, analysis, 1, 500)
        oracle = io.StringIO()
        writer = csv.writer(oracle, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(fields)
        body = [line for line in written.getvalue().split("\n") if not line.startswith("# ")]
        assert body == oracle.getvalue().split("\n")
        assert len(body) > 2  # header, at least one row, the empty rest after the last "\n"

    # the cells' last bits differ under numpy's other CPU dispatch
    @pytest.mark.dispatch
    @pytest.mark.parametrize("name, analysis", WRITTEN_TABLES)
    def test_bytes_equal_the_repr_reference(self, name, analysis, monkeypatch, capsys):
        argv = ["--scenario", str(SCENARIO_DIR / name), "--analysis", analysis,
                "--seed", "1", "--samples", "500"]
        code = main(argv)
        written = capsys.readouterr()
        monkeypatch.setattr(compound_barriers.cli, "_block_text",
                            lambda parts: "".join(rows_repr(parts)))
        assert main(argv) == code
        assert capsys.readouterr() == written

    def test_ragged_table_fails_loudly(self):
        scenario = parse_scenario(MINIMAL)
        table = compound_barriers.cli.Table({"k": ["1.0", "2.0"], "T_min": ["0.5"],
                                             "contained": ["true", "true"]}, {}, [])
        with pytest.raises(ValueError, match="shorter"):
            compound_barriers.cli._write_table(io.StringIO(), table, scenario, "bounds", 0, 1)

    @pytest.mark.parametrize("short", [0, 255, 256, 299])
    def test_ragged_table_writes_nothing(self, short):
        # the lengths are compared before the first byte, however far into
        # the table the short column would end
        table = compound_barriers.cli.Table({"k": np.ones(300), "T_min": np.ones(short),
                                             "contained": np.ones(300, dtype=bool)}, {}, [])
        stream = io.StringIO()
        with pytest.raises(ValueError, match="shorter"):
            compound_barriers.cli._write_table(stream, table, parse_scenario(MINIMAL),
                                               "bounds", 0, 1)
        assert stream.getvalue() == ""

    def test_ragged_table_leaves_no_out_file(self, tmp_path, monkeypatch, capsys):
        # a ragged table is the runner's fault, not bad input: it raises
        # before --out is opened, so no file of this call stays behind
        ragged = compound_barriers.cli.Table({"k": np.ones(3), "T_min": np.ones(2)}, {}, [])
        monkeypatch.setitem(compound_barriers.cli._RUNNERS, "bounds", lambda *args: ragged)
        out = tmp_path / "ragged_out.csv"
        argv = ["--scenario", str(SCENARIO_DIR / "double_rect.scn"), "--analysis", "bounds"]
        for target in (["--out", str(out)], []):
            with pytest.raises(ValueError, match="shorter"):
                main(argv + target)
        assert not out.exists()
        assert capsys.readouterr() == ("", "")


def chain_scenario_text(steps):
    """A 20-barrier chain (7 rects, 3 rect wells, 4 deltas, 2 delta wells,
    4 two-segment slabs, drawn in the chain-scan benchmark's ranges) swept
    over steps k from 0.3 to 3.0."""
    rng = np.random.default_rng(2000)
    kinds = ["rect"] * 7 + ["well"] * 3 + ["delta"] * 4 + ["dwell"] * 2 + ["slab"] * 4
    lines, left = [f"k = 0.3:3.0:{steps}"], 0.0
    for kind in rng.permutation(kinds):
        left += rng.uniform(0.3, 1.5)
        if kind in ("rect", "well"):
            height = rng.uniform(0.5, 2.5) if kind == "rect" else -rng.uniform(0.3, 1.5)
            width = rng.uniform(0.2, 0.8)
            lines.append(f"barrier rect position={left + width / 2:.6f} "
                         f"height={height:.6f} width={width:.6f}")
            left += width
        elif kind in ("delta", "dwell"):
            strength = rng.uniform(0.3, 2.0) * (1.0 if kind == "delta" else -1.0)
            lines.append(f"barrier delta position={left:.6f} strength={strength:.6f}")
        else:
            segments = rng.uniform([0.5, 0.2], [2.0, 0.5], (2, 2))
            width = segments[:, 1].sum()
            body = ",".join(f"{h:.6f}x{w:.6f}" for h, w in segments)
            lines.append(f"barrier slab position={left + width / 2:.6f} segments={body}")
            left += width
    return "\n".join(lines) + "\n"


class TestArrayPasses:
    """The chain-scan path runs its rows in array passes, not one Python
    call per row or per k.  Counts, not timings."""

    def test_chain_scan_bounds_take_fsum_on_few_rows(self, monkeypatch):
        # S_n comes from the TwoSum cascade; fsum takes only the rows it
        # cannot decide
        scenario = parse_scenario(chain_scenario_text(2000))
        _, beta = origin_arrays(scenario.barriers, scenario.k_values)
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
        bounds = BoundsColumns(np.arcsinh(np.abs(beta)))
        assert bounds.thetas.shape == (2000, 20)
        assert len(calls) <= 0.02 * 2000

    def test_sweep_scenario_makes_no_python_call_per_k(self):
        # the profiler sees every Python frame and every builtin called from
        # one; a 2000-step sweep sees exactly as many as a 20-step one
        def events(steps):
            text, seen = chain_scenario_text(steps), []
            sys.setprofile(lambda frame, event, arg: seen.append(event))
            try:
                parse_scenario(text)
            finally:
                sys.setprofile(None)
            return len(seen)

        few = events(20)
        assert events(2000) == few

    def test_chain_scan_table_is_written_a_block_at_a_time(self, monkeypatch):
        # one orjson dump per block of 256 rows and one more for the cells
        # repr lays out apart in the blocks that hold any; a profiler event
        # count that grows with those two counts, not with the rows or the
        # cells; and the flag column never dumped as null
        def bounds_table(steps):
            scenario = parse_scenario(chain_scenario_text(steps))
            return scenario, compound_barriers.cli.run_bounds(scenario, 0, 1)

        def apart_blocks(table):
            floats = np.stack([column for column in table.columns.values()
                               if column.dtype.kind == "f"], axis=1)
            magnitude = np.abs(floats)
            apart = ~((magnitude < 1e-9) | (magnitude >= 1e-4) & (magnitude < 1e16))
            return [np.count_nonzero(apart[start:start + 256])
                    for start in range(0, len(apart), 256)]

        def events(steps):
            scenario, table = bounds_table(steps)
            seen = []
            sys.setprofile(lambda frame, event, arg: seen.append(event))
            try:
                compound_barriers.cli._write_table(io.StringIO(), table, scenario, "bounds", 0, 1)
            finally:
                sys.setprofile(None)
            counts = apart_blocks(table)
            return [1, len(counts), np.count_nonzero(counts)], len(seen)

        sizes = [events(steps) for steps in (744, 1000, 1793, 2000, 1500)]
        # 744, 1000 and 1793 steps: 3, 4 and 8 blocks, 2, 2 and 3 of them
        # with such cells; the fit from them predicts 2000 and 1500 steps
        counts, seen = map(np.array, zip(*sizes))
        assert np.linalg.matrix_rank(counts[:3]) == 3
        per = np.linalg.solve(counts[:3], seen[:3])
        assert (counts[3:] @ per).round(6).tolist() == seen[3:].tolist()
        assert 0 < per[1] < 256 and 0 < per[2] < 256  # fewer events than rows in a block
        dumps, calls = orjson.dumps, []
        monkeypatch.setattr(orjson, "dumps", lambda block, *args, **kwargs: calls.append(
            (block.shape, dumps(block, *args, **kwargs).count(b"null")))
                            or dumps(block, *args, **kwargs))
        scenario, table = bounds_table(2000)
        compound_barriers.cli._write_table(io.StringIO(), table, scenario, "bounds", 0, 1)
        expected = []
        for start, apart in zip(range(0, 2000, 256), apart_blocks(table)):
            rows = min(256, 2000 - start)
            expected += [((apart,), 0)] * bool(apart) + [((rows, 28), apart)]
        assert calls == expected
        assert len(calls) == 8 + 4


def refuse_scalar_path(monkeypatch):
    """Make the per-k scalar builders raise if any CLI analysis calls them."""
    def scalar_path(*args, **kwargs):
        raise AssertionError("the CLI must build through origin_arrays")

    for module in (compound_barriers.barriers, compound_barriers.cli, compound_barriers.verify):
        for name in ("transfer_of", "scenario_transfer"):
            monkeypatch.setattr(module, name, scalar_path, raising=False)


@pytest.mark.dispatch
class TestArrayBuild:
    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_one_scenario_build_per_call(self, analysis, monkeypatch, capsys):
        # one build at the origin, whether or not the analysis then places it
        refuse_scalar_path(monkeypatch)
        builds = []
        build = compound_barriers.barriers.origin_arrays

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        # counted where a module imports origin_arrays by name (cli does) and in
        # barriers, where scenario_arrays looks it up
        for module in (compound_barriers.barriers, compound_barriers.cli, compound_barriers.verify):
            monkeypatch.setattr(module, "origin_arrays", counted, raising=False)
        code = main(["--scenario", str(SCENARIO_DIR / "mixed_chain.scn"),
                     "--analysis", analysis])
        assert code == 0
        assert len(builds) == 1
        assert len(builds[0][1]) == 60  # every k of the scenario in the one build

    @pytest.mark.parametrize("build", ["origin_arrays", "scenario_arrays"])
    def test_one_pair_check_per_build(self, build, monkeypatch):
        # translating leaves alpha and |beta| as they were: the pairs a build
        # returns are checked once, at the origin
        checked = []
        check = compound_barriers.barriers.check_pairs

        def counted(alpha, beta):
            checked.append(alpha)
            check(alpha, beta)

        monkeypatch.setattr(compound_barriers.barriers, "check_pairs", counted)
        scenario = load_scenario(SCENARIO_DIR / "mixed_chain.scn")
        alpha, _ = getattr(compound_barriers.barriers, build)(scenario.barriers,
                                                              scenario.k_values)
        assert sum(a is alpha for a in checked) == 1

    @pytest.mark.parametrize("analysis", ["bounds", "resonance"])
    @pytest.mark.parametrize("path", SCATTERING_SCENARIOS, ids=lambda path: path.name)
    def test_bounds_never_translate(self, path, analysis, monkeypatch, capsys):
        # the rapidities do not depend on position: the same table with the
        # translated build refused
        assert main(["--scenario", str(path), "--analysis", analysis]) == 0
        unpatched = capsys.readouterr().out

        def translated(*args, **kwargs):
            raise AssertionError("bounds and resonance must not translate")

        # place is the one translation of a build; scenario_arrays calls it too
        for module in (compound_barriers.barriers, compound_barriers.verify):
            monkeypatch.setattr(module, "place", translated)
        assert main(["--scenario", str(path), "--analysis", analysis]) == 0
        assert capsys.readouterr().out == unpatched

    @pytest.mark.parametrize("analysis", ["sweep", "verify"])
    @pytest.mark.parametrize("path", SCATTERING_SCENARIOS, ids=lambda path: path.name)
    def test_audit_tables_are_written_from_columns(self, path, analysis, monkeypatch, capsys):
        assert main(["--scenario", str(path), "--analysis", analysis, "--samples", "200"]) == 0
        unpatched = capsys.readouterr().out

        def row(*args, **kwargs):
            raise AssertionError("the CLI must write the audit's columns")

        monkeypatch.setattr(compound_barriers.verify, "ContainmentRow", row)
        assert main(["--scenario", str(path), "--analysis", analysis, "--samples", "200"]) == 0
        assert capsys.readouterr().out == unpatched

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_over_opaque_barrier_is_refused(self, analysis, tmp_path, monkeypatch, capsys):
        # kappa L ~ 379 > RAPIDITY_LIMIT at every k: refused, not degraded
        refuse_scalar_path(monkeypatch)
        path = tmp_path / "wall.scn"
        path.write_text("k = 0.5:1.0:5\nbarrier rect position=0.0 height=1000.0 width=12.0\n")
        assert main(["--scenario", str(path), "--analysis", analysis]) == 3
        assert "slab opacity" in capsys.readouterr().err
