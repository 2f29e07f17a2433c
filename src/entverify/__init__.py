"""Discrete one-way LOCC tests for maximally entangled states.

Constructs the SIC, MUB, and Clifford-orbit measurement schemes, certifies
the operator identities and optimality bounds they satisfy, and simulates the
two-party protocol by sampling its outcome and accept counts.
"""

__version__ = "0.1.0"

from .clifford import (CliffordGroup, character_moments, clifford_cardinality,
                       clifford_generators, clifford_povm, enumerate_clifford,
                       verify_clifford_group, verify_clifford_identity, weyl)
from .linalg import frobenius_distance, numerical_rank
from .mub import (MubFamily, mub_check, mub_povm, mub_prime, pvm_count_bound,
                  verify_mub_identity)
from .protocol import (BellDiagonalState, ProtocolTranscript,
                       double_isotropic_state, isotropic_state, run_protocol)
from .report import Check, VerificationReport
from .sic import (Fiducial, FiducialSearchConfig, FiducialSearchError,
                  get_fiducial, known_fiducial, search_fiducial, sic_check,
                  verify_sic_identity, weyl_orbit)
from .testops import (CompletenessError, RankOnePovm, TestOperator,
                      acceptance_probability, invariant_test_double,
                      invariant_test_single, max_entangled,
                      permute_subsystems, realized_test)

__all__ = [
    "BellDiagonalState", "Check", "CliffordGroup", "CompletenessError",
    "Fiducial", "FiducialSearchConfig", "FiducialSearchError",
    "MubFamily", "ProtocolTranscript", "RankOnePovm", "TestOperator",
    "VerificationReport", "acceptance_probability",
    "character_moments", "clifford_cardinality", "clifford_generators",
    "clifford_povm", "double_isotropic_state",
    "enumerate_clifford", "frobenius_distance", "get_fiducial",
    "invariant_test_double", "invariant_test_single", "isotropic_state",
    "known_fiducial", "max_entangled", "mub_check", "mub_povm", "mub_prime",
    "numerical_rank", "permute_subsystems",
    "pvm_count_bound", "realized_test", "run_protocol", "search_fiducial",
    "sic_check", "verify_clifford_group",
    "verify_clifford_identity", "verify_mub_identity", "verify_sic_identity",
    "weyl", "weyl_orbit",
]
