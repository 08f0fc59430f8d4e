"""Rigorous bounds for compound 1D barriers and parametric excitation.

Compose exact 2x2 transfer matrices, derive phase-free envelopes on
transmission, reflection and particle production from per-barrier data
alone, and verify sharpness against physical barrier models and random
phase sweeps.  Units throughout: hbar = 2m = 1, energy E = k^2.
"""

from .barriers import (
    BarrierSpec,
    Delta,
    PiecewiseConstant,
    Rectangular,
    WaveContext,
    scenario_arrays,
    scenario_transfer,
    support,
    transfer_of,
)
from .bounds import (
    BoundsColumns,
    BoundsReport,
    N_from_theta,
    ProductionAssessment,
    R_from_theta,
    RapiditySequence,
    ResonanceAssessment,
    T_from_theta,
    b_n_closed,
    bounds_report,
    production_guaranteed,
    resonance_assessment,
    resonance_possible,
    s_n,
    theta_from_N,
    theta_from_R,
    theta_from_T,
)
from .errors import (
    BoundViolationError,
    CompoundBarrierError,
    DimensionError,
    DomainError,
    EmptySequenceError,
    NormalizationError,
    OverlapError,
    ParseError,
    RapidityOverflowError,
    TargetOutOfRangeError,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .transfer import (
    NORM_TOL,
    RAPIDITY_LIMIT,
    HyperbolicParams,
    ScatteringAmplitudes,
    TransferMatrix,
    amplitudes,
    compose,
    to_polar,
)
from .verify import (
    CONTAINMENT_BAND,
    ContainmentReport,
    ContainmentRow,
    EquivalenceReport,
    GENERATOR_NAME,
    PhaseAssignment,
    RowSweep,
    SweepResult,
    attain,
    equivalence_audit,
    random_phase_sweep,
    random_phase_sweeps,
    recursion_audit,
    scenario_containment_audit,
)

__version__ = "0.1.0"
