"""Quaternionic integral-operator calculus for stationary incompressible
viscous magnetohydrodynamics on voxelized domains."""

import os

# Before anything imports NumPy: its bundled OpenBLAS starts a worker
# thread per further core when it loads, and each worker busy-waits 2^28
# cycles for work before it sleeps, while the interpreter is still
# importing. 2^20 cycles gives that time back and keeps the thread count,
# so large GEMMs still use every core. On 2 cores `import numpy` took a
# median 260 ms by default and 185 ms with this setting, and an n = 16
# `quatmhd solve` spent 50-65 ms less before the solve. A value already in
# the environment wins; once NumPy is loaded the setting does nothing.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

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
