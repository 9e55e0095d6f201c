"""Normality testing and structure classification for Toeplitz matrices.

A Toeplitz matrix is determined by its diagonal values a_k, k = -N..N.
This package decides whether such a matrix is normal (commutes with its
conjugate transpose) and, when it is, names the structure responsible:
a unit-modulus conjugate-symmetry witness (type I), a unit-modulus
reversal witness (type II), or the four real specializations symmetric,
skew-symmetric, circulant and skew-circulant.  The spec's entries decide
the domain: exact rationals are compared literally, floats under an
explicit tolerance policy.
"""

from .classify import (
    ClassificationResult,
    ProofTrace,
    RealClassificationResult,
    RealLabel,
    TheoremViolation,
    Verdict,
    classify_complex,
    classify_real,
    classify_via_proof,
)
from .genlab import (
    EnumReport,
    EnumRequest,
    GenRequest,
    Kind,
    enumerate_and_verify,
    generate,
    perturb,
)
from .normality import NormalityReport, check, fast_max_residual
from .scalar import (
    GaussianRational,
    ScalarPolicy,
    SpecFormatError,
    rational_unit_circle,
)
from .toeplitz import (
    ToeplitzSpec,
    commutator_norm,
    from_diagonals,
    spec_from_json,
    spec_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "EnumReport",
    "EnumRequest",
    "GaussianRational",
    "GenRequest",
    "Kind",
    "NormalityReport",
    "ProofTrace",
    "RealClassificationResult",
    "RealLabel",
    "ScalarPolicy",
    "SpecFormatError",
    "TheoremViolation",
    "ToeplitzSpec",
    "Verdict",
    "check",
    "classify_complex",
    "classify_real",
    "classify_via_proof",
    "commutator_norm",
    "enumerate_and_verify",
    "fast_max_residual",
    "from_diagonals",
    "generate",
    "perturb",
    "rational_unit_circle",
    "spec_from_json",
    "spec_to_json",
]
