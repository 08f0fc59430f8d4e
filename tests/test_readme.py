"""The README's library quick start runs as written, and the package exports
exactly the names pinned here."""

import inspect
import re
from pathlib import Path

import compound_barriers

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


# every addition to or removal from the public API shows in this list's diff
PUBLIC_NAMES = [
    "BarrierSpec", "BoundViolationError", "BoundsColumns", "BoundsReport", "CONTAINMENT_BAND",
    "CompoundBarrierError", "ContainmentReport", "ContainmentRow", "Delta", "DimensionError",
    "DomainError", "EmptySequenceError", "EquivalenceReport", "GENERATOR_NAME",
    "HyperbolicParams", "NORM_TOL", "N_from_theta", "NormalizationError", "OverlapError",
    "ParseError", "PhaseAssignment", "PiecewiseConstant", "ProductionAssessment",
    "RAPIDITY_LIMIT", "R_from_theta", "RapidityOverflowError", "RapiditySequence",
    "Rectangular", "ResonanceAssessment", "RowSweep", "ScatteringAmplitudes", "Scenario",
    "SweepResult", "T_from_theta", "TargetOutOfRangeError", "TransferMatrix", "WaveContext",
    "amplitudes", "attain", "b_n_closed", "bounds_report", "compose", "equivalence_audit",
    "load_scenario", "parse_scenario", "production_guaranteed",
    "random_phase_sweep", "random_phase_sweeps", "recursion_audit", "resonance_assessment",
    "resonance_possible", "s_n", "scenario_arrays", "scenario_containment_audit",
    "scenario_transfer", "support", "theta_from_N", "theta_from_R", "theta_from_T",
    "to_polar", "transfer_of",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(compound_barriers).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert len(PUBLIC_NAMES) == 61
    assert names == PUBLIC_NAMES
