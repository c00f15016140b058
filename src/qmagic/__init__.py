"""Quantum magic squares: membership checks, dilations, and exact certificates.

The package decides where an n x n grid of PSD blocks with identity row and
column sums lives relative to the semiclassical set (convex combinations of
quantum permutation matrices with operator weights), constructs commuting
dilations for members, and produces exact rational certificates of
non-membership from the matrix convex hull obstruction.
"""

from .birkhoff import (
    NotDoublyStochastic,
    birkhoff_decompose,
    is_extreme_point,
    magic_space_dimension,
    validate_doubly_stochastic,
)
from .exact import ExactMatrix, GaussianRational, psd_check_exact, rationalize
from .extremality import (
    DilationTriple,
    ExtensionStep,
    SplitResult,
    arveson_split_check,
    extend_dilation_step,
    make_projector_dilation,
    member_witness_from_dilation,
    split_decompose,
    validate_triple,
)
from .obstruction import (
    STRONG,
    WEAK,
    CertificationFailed,
    ObstructionCertificate,
    blend_dual,
    build_obstruction,
    certify_with_ladder,
    check_mconv_obstruction,
    counterexample_m2_3,
    exact_certify,
    find_dual_certificate,
    phi_matrix,
    psi_matrix,
    verify_certificate,
)
from .semiclassical import (
    CheckResult,
    CommutingDilation,
    SemiclassicalDecomposition,
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
    verify_positive_unital_map,
)
from .serialize import (
    FormatError,
    certificate_from_json,
    certificate_to_json,
    load_square,
    dump_square,
    square_from_json,
    square_to_json,
)
from .structures import (
    InvalidMagicSquare,
    MagicSquare,
    ValidationReport,
    compress,
    constant_square,
    direct_sum,
    embed_pad,
    validate_magic,
    validate_quantum_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "GaussianRational",
    "psd_check_exact",
    "rationalize",
    "MagicSquare",
    "ValidationReport",
    "InvalidMagicSquare",
    "validate_magic",
    "validate_quantum_permutation",
    "constant_square",
    "compress",
    "direct_sum",
    "embed_pad",
    "NotDoublyStochastic",
    "validate_doubly_stochastic",
    "birkhoff_decompose",
    "magic_space_dimension",
    "is_extreme_point",
    "SemiclassicalDecomposition",
    "CommutingDilation",
    "CheckResult",
    "check_semiclassical",
    "interior_map_decomposition",
    "synthesize_commuting_dilation",
    "verify_positive_unital_map",
    "WEAK",
    "STRONG",
    "phi_matrix",
    "psi_matrix",
    "build_obstruction",
    "check_mconv_obstruction",
    "counterexample_m2_3",
    "blend_dual",
    "find_dual_certificate",
    "exact_certify",
    "certify_with_ladder",
    "verify_certificate",
    "member_witness_from_dilation",
    "ObstructionCertificate",
    "CertificationFailed",
    "DilationTriple",
    "SplitResult",
    "ExtensionStep",
    "validate_triple",
    "split_decompose",
    "arveson_split_check",
    "extend_dilation_step",
    "make_projector_dilation",
    "FormatError",
    "square_to_json",
    "square_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "load_square",
    "dump_square",
]
