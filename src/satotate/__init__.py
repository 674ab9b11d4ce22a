"""satotate: empirical Sato-Tate angle statistics for non-CM newforms.

Library layout:

- ``primes``      segmented sieve, prime streams, exact pi(x)
- ``curves``      Weierstrass models, a_p by enumeration / Legendre sums / BSGS,
                  and the lockstep numpy BSGS engine ``ec_ap_array``
- ``angles``      angle series construction, coefficient files, binary caches
- ``measure``     Sato-Tate measure, Chebyshev-U evaluation, CDF/quantile
- ``discrepancy`` interval counts, exact and bounded discrepancies, least primes
- ``prime_sums``  weighted Chebyshev prime sums and the smoothing weight
- ``cli``         command-line front end
"""

from satotate.angles import (
    AngleSeries,
    FormMeta,
    angle_from_ap,
    build_angle_series,
    load_cache,
    save_cache,
)
from satotate.curves import (
    CurveSpec,
    ec_ap,
    ec_ap_array,
    ec_ap_bsgs,
    ec_count_points_enum,
    ec_count_points_naive,
)
from satotate.discrepancy import (
    DiscrepancyReport,
    JointReport,
    LeastPrimeResult,
    cheb_sum_bound,
    cheb_sum_bound_2d,
    count_in_interval,
    discrepancy_report,
    erdos_turan_bound,
    exact_discrepancy_1d,
    fit_decay_exponent,
    joint_box_discrepancy,
    joint_count,
    joint_report,
    least_prime_in_interval,
    theoretical_bound_curve,
)
from satotate.measure import (
    Interval,
    cheb_inner_product,
    cheb_u,
    mu_st,
    st_cdf,
    st_quantile,
)
from satotate.prime_sums import (
    SmoothingWeight,
    partial_summation_residual,
    partial_summation_residual_joint,
    smoothed_psi,
    theta_fm,
    theta_joint,
    weight_laplace,
    weight_phi,
    weight_selfcheck,
)
from satotate.primes import PrimeRange, prime_count, primes_array, primes_in

__all__ = [
    "AngleSeries",
    "CurveSpec",
    "DiscrepancyReport",
    "FormMeta",
    "Interval",
    "JointReport",
    "LeastPrimeResult",
    "PrimeRange",
    "SmoothingWeight",
    "angle_from_ap",
    "build_angle_series",
    "cheb_inner_product",
    "cheb_sum_bound",
    "cheb_sum_bound_2d",
    "cheb_u",
    "count_in_interval",
    "discrepancy_report",
    "ec_ap",
    "ec_ap_array",
    "ec_ap_bsgs",
    "ec_count_points_enum",
    "ec_count_points_naive",
    "erdos_turan_bound",
    "exact_discrepancy_1d",
    "fit_decay_exponent",
    "joint_box_discrepancy",
    "joint_count",
    "joint_report",
    "least_prime_in_interval",
    "load_cache",
    "mu_st",
    "partial_summation_residual",
    "partial_summation_residual_joint",
    "prime_count",
    "primes_array",
    "primes_in",
    "save_cache",
    "smoothed_psi",
    "st_cdf",
    "st_quantile",
    "theoretical_bound_curve",
    "theta_fm",
    "theta_joint",
    "weight_laplace",
    "weight_phi",
    "weight_selfcheck",
]

__version__ = "0.1.0"
