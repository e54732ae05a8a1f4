"""qkdmc: explicit-state DTMC workbench for BB84 eavesdropping analysis.

The pipeline is parse -> validate -> build -> prob_until, where
prob_until solves exactly in one SCC-ordered pass; bb84.generate produces
the model sources, oracle holds the analytic ground truth, and sweep/cli
drive parameter studies over the photon count.
"""

from qkdmc.bb84 import Bb84Params, Passthrough, detected_event_definition, generate
from qkdmc.errors import (
    AcceptanceViolation,
    BuildError,
    ParseError,
    PropertyError,
    QkdmcError,
    ValidationError,
)
from qkdmc.explorer import Dtmc, build
from qkdmc.lang import parse, print_expr, print_model, validate
from qkdmc.oracle import detect_prob, per_photon_detect_prob, photon_outcomes
from qkdmc.properties import PropertyQuery, parse_property
from qkdmc.solver import SolveReport, prob0_states, prob1_states, prob_until
from qkdmc.sweep import SweepSpec, analyze, run_figure, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AcceptanceViolation",
    "Bb84Params",
    "BuildError",
    "Dtmc",
    "ParseError",
    "Passthrough",
    "PropertyError",
    "PropertyQuery",
    "QkdmcError",
    "SolveReport",
    "SweepSpec",
    "ValidationError",
    "__version__",
    "analyze",
    "build",
    "detect_prob",
    "detected_event_definition",
    "generate",
    "parse",
    "parse_property",
    "per_photon_detect_prob",
    "photon_outcomes",
    "print_expr",
    "print_model",
    "prob0_states",
    "prob1_states",
    "prob_until",
    "run_figure",
    "run_sweep",
    "validate",
]
