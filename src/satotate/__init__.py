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

Import each name from its module; the package itself exports only
``__version__``.
"""

__version__ = "0.1.0"
