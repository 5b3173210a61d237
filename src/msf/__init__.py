"""Numerics for a charged quantum particle in the magnetic-solenoid field.

The package covers the stationary states and coherent states of the
combined uniform-field + flux-line configuration, the weight functions
and moment problem behind their resolutions of unity, propagator
kernels with their delta-function limits, the planar Dirac sector with
both natural self-adjoint extensions, relativistic coherent states, the
four-component embedding with longitudinal momentum, and a verification
command-line tool (``msf``).
"""

from .specfun import (
    DomainError,
    IrregularOriginError,
    TruncationError,
    bessel_i,
    erf,
    laguerre_fn,
    ln_gamma,
    ln_marcum_p,
    q_sum,
)
from .landau import (
    FieldConfig,
    QuantumNumbers,
    Quadrature,
    energy_nonrel,
    make_quadrature,
    resolve_qnums,
    stationary_state,
)
from .cs import (
    CSLabel,
    cs_branch,
    cs_normalization,
    cs_overlap,
    cs_state,
    mm_weight_sum,
)
from .completeness import (
    KernelParams,
    g_matrix,
    moment_check,
    propagator_closed,
    propagator_series,
    unity_reconstruction,
    weight_fn,
    weight_half_closed,
)
from .dirac import (
    DiracConfig,
    RelQuantumNumbers,
    Spinor2,
    apply_sigma_p,
    dirac_spinor,
    embed_3p1,
    green_kernel_rel,
    rel_basis_fn,
    rel_cs,
    resolve_rel_qnums,
)

__version__ = "0.1.0"
