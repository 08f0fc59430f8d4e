"""Scenario parsing and the CLI harness (CSV output, exit codes, env vars)."""

import csv
import io
import math
from pathlib import Path

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
    Rectangular,
    parse_scenario,
)
from compound_barriers.barriers import scenario_arrays
from compound_barriers.cli import main
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
                     "opaque_rect.scn"):
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
        assert meta["equivalence_audit"].startswith("pass")
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

    def test_sweep_of_a_production_scenario_names_the_rule(self, capsys):
        path = SCENARIO_DIR / "production_pair.scn"
        assert main(["--scenario", str(path), "--analysis", "sweep"]) == 3
        assert capsys.readouterr().err == ("compound-barriers: error: sweep analysis needs a "
                                           "spatial model (scattering mode)\n")

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
                self.s_n = [s - (1.0 if row == middle else 0.0)
                            for s, row in zip(self.s_n, self.thetas.tolist())]

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
        assert meta["equivalence_audit"].startswith("FAIL")
        assert "rows [2]" in captured.err
        assert len(body) == 5

    def test_env_overrides_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "case.scn"
        path.write_text(MINIMAL)
        monkeypatch.setenv("CB_SEED", "99")
        assert main(["--scenario", str(path), "--analysis", "bounds"]) == 0
        meta, _, _ = read_csv(capsys.readouterr().out)
        assert meta["seed"] == "99"
        assert main(["--scenario", str(path), "--analysis", "bounds",
                     "--seed", "123"]) == 0
        meta, _, _ = read_csv(capsys.readouterr().out)
        assert meta["seed"] == "123"

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_negative_seed_flag_is_input_error(self, analysis, tmp_path, capsys):
        # unchecked, numpy's SeedSequence would refuse it without naming the
        # seed, and analyses that draw nothing would print it as the run's seed
        self.run(tmp_path, MINIMAL, "--analysis", analysis, "--seed", "-1", expect=3)
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_negative_seed_env_is_input_error(self, analysis, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CB_SEED", "-3")
        self.run(tmp_path, MINIMAL, "--analysis", analysis, expect=3)
        assert "seed must be >= 0, got -3" in capsys.readouterr().err

    def test_committed_scenarios_run(self, capsys):
        for name, analysis in (("double_rect.scn", "bounds"),
                               ("mixed_chain.scn", "resonance"),
                               ("mixed_chain.scn", "verify"),
                               ("production_pair.scn", "bounds")):
            code = main(["--scenario", str(SCENARIO_DIR / name),
                         "--analysis", analysis])
            assert code == 0
            assert capsys.readouterr().out

    def test_opaque_barrier_sits_inside_its_own_envelope(self, capsys):
        # theta ~ 13-17, N up to ~1e14: an absolute tolerance on N flagged
        # most rows as violations; the rapidity-space band must not
        code = main(["--scenario", str(SCENARIO_DIR / "opaque_rect.scn"),
                     "--analysis", "sweep"])
        assert code == 0
        _, header, body = read_csv(capsys.readouterr().out)
        assert len(body) == 40
        assert all(dict(zip(header, raw))["contained"] == "true" for raw in body)


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
        refuse_scalar_path(monkeypatch)
        builds = []
        build = compound_barriers.barriers.scenario_arrays

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        for module in (compound_barriers.cli, compound_barriers.verify):
            monkeypatch.setattr(module, "scenario_arrays", counted)
        code = main(["--scenario", str(SCENARIO_DIR / "mixed_chain.scn"),
                     "--analysis", analysis])
        assert code == 0
        assert len(builds) == 1
        assert len(builds[0][1]) == 60  # every k of the scenario in the one build

    @pytest.mark.parametrize("analysis", ["bounds", "sweep", "verify", "resonance"])
    def test_over_opaque_barrier_is_refused(self, analysis, tmp_path, monkeypatch, capsys):
        # kappa L ~ 379 > RAPIDITY_LIMIT at every k: refused, not degraded
        refuse_scalar_path(monkeypatch)
        path = tmp_path / "wall.scn"
        path.write_text("k = 0.5:1.0:5\nbarrier rect position=0.0 height=1000.0 width=12.0\n")
        assert main(["--scenario", str(path), "--analysis", analysis]) == 3
        assert "slab opacity" in capsys.readouterr().err
