"""Discrete one-way LOCC tests for maximally entangled states.

Constructs the SIC, MUB, and Clifford-orbit measurement schemes, certifies
the operator identities and optimality bounds they satisfy, and simulates the
two-party protocol by sampling its outcome and accept counts.

The names in __all__ are imported from their modules on first use (PEP 562),
so `import entverify`, and each CLI command, loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "clifford": ("clifford_cardinality", "clifford_generators", "clifford_povm",
                 "verify_clifford_identity", "weyl"),
    "linalg": ("FiducialSearchConfig", "FiducialSearchError", "numerical_rank"),
    "mub": ("MubFamily", "mub_check", "mub_povm", "mub_prime", "pvm_count_bound",
            "verify_mub_identity"),
    "protocol": ("BellDiagonalState", "ProtocolTranscript", "double_isotropic_state",
                 "isotropic_state", "run_protocol"),
    "report": ("Check", "VerificationReport"),
    "sic": ("Fiducial", "get_fiducial", "known_fiducial", "search_fiducial", "sic_check",
            "verify_sic_identity", "weyl_orbit"),
    "testops": ("CompletenessError", "RankOnePovm"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
