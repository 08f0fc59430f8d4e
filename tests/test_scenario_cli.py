"""Scenario parsing and the CLI harness (CSV output, exit codes, seeds)."""

import csv
import errno
import functools
import io
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compound_barriers.barriers
import compound_barriers.cli
import compound_barriers.verify
from compound_barriers import (
    Delta,
    DomainError,
    OverlapError,
    ParseError,
    PiecewiseConstant,
    RapiditySequence,
    Rectangular,
    WaveContext,
    amplitudes,
    bounds_report,
    compose,
    parse_scenario,
    scenario_transfer,
    transfer_of,
)
from compound_barriers.barriers import scenario_arrays
from compound_barriers.cli import EXIT_BROKEN_PIPE, main
from compound_barriers.errors import BoundViolationError
from compound_barriers.scenario import load_scenario
from compound_barriers.transfer import rapidity
from compound_barriers.verify import RowSweep

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

PRODUCTION = """
mode = production
analyses = bounds
episode n=1.0
episode n=1.0
"""


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
        src = str(Path(compound_barriers.cli.__file__).resolve().parents[1])
        path_list = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
        read, write = os.pipe()
        if not read_first_line:
            os.close(read)
        proc = subprocess.Popen([sys.executable, "-m", "compound_barriers.cli", "--scenario",
                                 str(path), "--analysis", "bounds"],
                                stdout=write, stderr=subprocess.PIPE, env=env)
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
        assert list(compound_barriers.cli._floats(np.array([0.1, 1e300]))) == ["0.1", "1e+300"]
        assert list(compound_barriers.cli._floats([np.float64(0.5), 0.25])) == ["0.5", "0.25"]

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
            return [RowSweep(math.nan, math.nan, None, None,
                             BoundViolationError("injected violation"))]

        monkeypatch.setattr(compound_barriers.cli, "random_phase_sweeps", violated)
        path = tmp_path / "case.scn"
        path.write_text(PRODUCTION)
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 2
        _, header, body = read_csv(capsys.readouterr().out)
        assert dict(zip(header, body[0]))["sweep_ok"] == "false"

    def test_violating_row_stays_in_its_own_row(self, tmp_path, monkeypatch, capsys):
        # shrink S_n of the middle wavenumber only: that row, and no other,
        # is reported as a failed sweep with NaN extremes
        path = tmp_path / "case.scn"
        path.write_text(DOUBLE_RECT.replace("0.4:2.2:400", "0.4:2.2:5"))
        assert main(["--scenario", str(path), "--analysis", "verify"]) == 0
        _, header, clean = read_csv(capsys.readouterr().out)
        scenario = parse_scenario(path.read_text())
        alpha, _ = scenario_arrays(scenario.barriers, scenario.k_values)
        middle = rapidity(alpha)[2].tolist()

        class Shrunk(compound_barriers.verify.BoundsColumns):
            def __init__(self, thetas):
                super().__init__(thetas)
                self.s_n[(self.thetas == middle).all(axis=1)] -= 1.0

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
        scenario = parse_scenario(path.read_text())
        alpha, _ = scenario_arrays(scenario.barriers, scenario.k_values)
        middle = rapidity(alpha)[2]
        recursion = compound_barriers.verify.b_n_iterative_rows

        def off(thetas):
            return recursion(thetas) + 1e-6 * (thetas == middle).all(axis=1)

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


@pytest.mark.parametrize("path", SCATTERING_SCENARIOS, ids=lambda path: path.name)
class TestScalarAgreement:
    """The scalar API is the one-element call of the array algebra the CLI
    runs, so at every k of every shipped scattering scenario its values
    equal the CLI's bit for bit (Python's own complex arithmetic, abs and
    acosh differ from numpy's loops in the last bits)."""

    def test_from_matrices_equals_the_rapidity_rows(self, path):
        scenario = load_scenario(path)
        alpha, _ = scenario_arrays(scenario.barriers, scenario.k_values)
        for k, row in zip(scenario.k_values, rapidity(alpha).tolist()):
            ctx = WaveContext(k=k)
            seq = RapiditySequence.from_matrices(transfer_of(b, ctx) for b in scenario.barriers)
            assert list(seq.thetas) == row, k

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
            report = bounds_report(
                RapiditySequence.from_matrices(transfer_of(b, ctx) for b in scenario.barriers))
            amps = amplitudes(scenario_transfer(scenario.barriers, ctx))
            # repr round-trips, so the floats read back are the CLI's values
            cli = [float(bounds_row[name]) for name in ("T_min", "T_upper", "R_high", "N_high")]
            cli += [float(sweep_row["T_exact"]), float(sweep_row["R_exact"])]
            library = [*report.t_interval, report.r_interval[1], report.n_interval[1],
                       amps.T, amps.R]
            assert cli == library, k


# every table the committed scenarios print (a production scenario has no sweep)
WRITTEN_TABLES = [(path.name, analysis) for path in sorted(SCENARIO_DIR.glob("*.scn"))
                  for analysis in ("bounds", "sweep", "verify", "resonance")
                  if not (analysis == "sweep" and load_scenario(path).mode == "production")]


class TestWriter:
    @pytest.mark.parametrize("name, analysis", WRITTEN_TABLES)
    def test_body_is_what_csv_writer_writes(self, name, analysis):
        scenario = load_scenario(SCENARIO_DIR / name)
        table = compound_barriers.cli._RUNNERS[analysis](scenario, 1, 500)
        table.columns = {key: list(fields) for key, fields in table.columns.items()}
        for header, fields in table.columns.items():
            for text in (header, *fields):  # nothing csv.writer would quote
                assert text and not set(text) & set(',"\r\n'), text
        written = io.StringIO()
        compound_barriers.cli._write_table(written, table, scenario, analysis, 1, 500)
        oracle = io.StringIO()
        writer = csv.writer(oracle, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(zip(*table.columns.values()))
        body = [line for line in written.getvalue().split("\n") if not line.startswith("# ")]
        assert body == oracle.getvalue().split("\n")
        assert len(body) > 2  # header, at least one row, the empty rest after the last "\n"

    def test_ragged_table_fails_loudly(self):
        scenario = parse_scenario(MINIMAL)
        table = compound_barriers.cli.Table({"k": ["1.0", "2.0"], "T_min": ["0.5"],
                                             "contained": ["true", "true"]}, {}, [])
        with pytest.raises(ValueError, match="shorter"):
            compound_barriers.cli._write_table(io.StringIO(), table, scenario, "bounds", 0, 1)


def refuse_scalar_path(monkeypatch):
    """Make the per-k scalar builders raise if any CLI analysis calls them."""
    def scalar_path(*args, **kwargs):
        raise AssertionError("the CLI must build through scenario_arrays")

    for module in (compound_barriers.barriers, compound_barriers.cli, compound_barriers.verify):
        for name in ("transfer_of", "scenario_transfer"):
            monkeypatch.setattr(module, name, scalar_path, raising=False)


class TestArrayBuild:
    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_one_scenario_build_per_call(self, analysis, monkeypatch, capsys):
        # one build at the origin, whether or not the analysis then places it
        refuse_scalar_path(monkeypatch)
        builds = []
        build = compound_barriers.barriers._origin_build

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(compound_barriers.barriers, "_origin_build", counted)
        code = main(["--scenario", str(SCENARIO_DIR / "mixed_chain.scn"),
                     "--analysis", analysis])
        assert code == 0
        assert len(builds) == 1
        assert len(builds[0][1]) == 60  # every k of the scenario in the one build

    @pytest.mark.parametrize("build", ["origin_arrays", "scenario_arrays"])
    def test_one_pair_check_per_build(self, build, monkeypatch):
        # translating leaves alpha and |beta| as they were: the pairs a build
        # returns are checked once, after translating where it translates
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

        for module in (compound_barriers.barriers, compound_barriers.verify):
            monkeypatch.setattr(module, "scenario_arrays", translated)
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
