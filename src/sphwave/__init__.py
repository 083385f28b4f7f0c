"""Directional derivative-of-Poisson-kernel wavelets on n-dimensional spheres.

Modules
-------
special        Gegenbauer polynomials, normalization constants, dimensions.
harmonics      The Gauss-Jacobi rule of the zonal weight.
rotderiv       The rotational derivative ladder, sector harmonics, synthesis.
wavelets       Poisson/heat kernels, directional wavelets, closed forms.
admissibility  Gamma mixing coefficients and the admissible-pair conditions.
transform      Sphere/SO(3) quadrature, wavelet transform and inversion.
euclid         Flat-space limit profiles and their convergence probe.
cli            Command-line front end (evaluation, verification, reports).
"""

from .special import (
    LambdaParam,
    surface_measure,
    gegenbauer_batch,
    norm_const_a,
    dim_harmonic,
    reproducing_kernel,
)
from .harmonics import gauss_jacobi_rule
from .rotderiv import (
    CoefficientField,
    beta,
    derivative_step,
    derivative_order,
    synthesize,
    structure_polynomial_check,
)
from .wavelets import (
    WaveletSpec,
    TruncationError,
    KIND_POISSON,
    KIND_HEAT,
    kernel_zonal_coeffs,
    directional_wavelet_field,
    modified_wavelet_field,
    poisson_wavelet_closed,
    g1_closed,
    g2_closed,
    truncation_degree,
)
from .admissibility import (
    GammaVector,
    GammaSolveError,
    q_polynomial,
    solve_gamma,
    admissibility_constant,
    verify_pair_condition1,
    zonal_product_series,
    tail_integral,
    tail_l1_sweep,
    tail_l1_plateau,
)
from .transform import (
    SphereGrid,
    RotationGrid,
    build_sphere_grid,
    build_rotation_grid,
    wavelet_transform,
    inverse_transform,
    round_trip,
    per_degree_reconstruction_check,
)
from .euclid import (
    EuclideanPoint,
    euclidean_limit_eval,
    limit_convergence_probe,
)

__version__ = "0.1.0"
