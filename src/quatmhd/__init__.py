"""Quaternionic integral-operator calculus for stationary incompressible
viscous magnetohydrodynamics on voxelized domains."""

from .quaternion import Quaternion, qmul, conj, sc, vec, product_split
from .grid import (VoxelDomain, QField, BoundaryData, build_domain,
                   l2_inner, sc_inner, l2_norm, h1_norm, lq_norm,
                   trace_boundary, zero_boundary)
from .operators import (dirac_fwd, dirac_bwd, dirac_central, laplacian,
                        OperatorSet)

__all__ = [
    "Quaternion", "qmul", "conj", "sc", "vec", "product_split",
    "VoxelDomain", "QField", "BoundaryData", "build_domain", "l2_inner",
    "sc_inner", "l2_norm", "h1_norm", "lq_norm", "trace_boundary",
    "zero_boundary", "dirac_fwd", "dirac_bwd", "dirac_central", "laplacian",
    "OperatorSet",
]

__version__ = "0.1.0"
