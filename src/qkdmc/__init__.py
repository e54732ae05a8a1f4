"""qkdmc: explicit-state DTMC workbench for BB84 eavesdropping analysis.

The pipeline is parse -> validate -> build -> prob_until, where
prob_until solves exactly in one SCC-ordered pass; bb84.generate produces
the model sources, oracle holds the analytic ground truth, and sweep/cli
drive parameter studies over the photon count.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bb84": "Bb84Params Passthrough generate",
    "errors": "AcceptanceViolation BuildError ParseError PropertyError QkdmcError ValidationError",
    "explorer": "Dtmc build",
    "lang": "parse print_expr print_model validate",
    "oracle": "detect_prob per_photon_detect_prob photon_outcomes",
    "properties": "PropertyQuery parse_property",
    "solver": "SolveReport prob_until",
    "sweep": "SweepSpec analyze run_figure run_sweep",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module 'qkdmc' has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f"qkdmc.{_HOME[name]}"), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
