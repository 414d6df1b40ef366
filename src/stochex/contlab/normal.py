"""Univariate and bivariate standard normal cdfs.

phi2 is a scalar Gauss-Legendre reduction of the single-integral form of the
bivariate normal cdf (Drezner-Wesolowsky style, with the near-singular
expansion for |rho| >= 0.925); absolute error is well below 1e-12 across the
whole parameter range.
"""

from __future__ import annotations

import math

from ..errors import RhoOutOfRange

_SQRT2 = math.sqrt(2.0)
_TWOPI = 2.0 * math.pi

# Gauss-Legendre nodes/weights on [-1, 1], half rules of sizes 6, 12, 20.
_GL_X = (
    (-0.9324695142031522, -0.6612093864662647, -0.2386191860831970),
    (
        -0.9815606342467191, -0.9041172563704750, -0.7699026741943050,
        -0.5873179542866171, -0.3678314989981802, -0.1252334085114692,
    ),
    (
        -0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
        -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
        -0.5108670019508271, -0.3737060887154196, -0.2277858511416451,
        -0.07652652113349733,
    ),
)
_GL_W = (
    (0.1713244923791705, 0.3607615730481384, 0.4679139345726904),
    (
        0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
        0.2031674267230659, 0.2334925365383547, 0.2491470458134029,
    ),
    (
        0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
        0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
        0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
        0.1527533871307259,
    ),
)


def phi(x: float) -> float:
    """Standard normal cdf via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def phi2(x: float, y: float, rho: float) -> float:
    """Standard bivariate normal cdf P[X <= x, Y <= y] with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise RhoOutOfRange(f"need |rho| < 1, got {rho}")
    # Past |t| = 40 the normal tail is below the smallest double, so t acts as
    # +-inf (and the squares below stay finite).
    if x < -40.0 or y < -40.0:
        return 0.0
    if x > 40.0:
        return phi(y)
    if y > 40.0:
        return phi(x)

    if abs(rho) < 0.3:
        rule = 0
    elif abs(rho) < 0.75:
        rule = 1
    else:
        rule = 2
    xs, ws = _GL_X[rule], _GL_W[rule]

    h = -x
    k = -y
    hk = h * k
    bvn = 0.0

    if abs(rho) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(rho)
        for xi, wi in zip(xs, ws):
            for sgn in (1.0, -1.0):
                sn = math.sin(asr * (sgn * xi + 1.0) / 2.0)
                bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWOPI) + phi(-h) * phi(-k)
        return min(1.0, max(0.0, bvn))

    # |rho| >= 0.925: expansion around the singular boundary.
    if rho < 0.0:
        k = -k
        hk = -hk
    a2 = (1.0 - rho) * (1.0 + rho)
    a = math.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * math.exp(-(bs / a2 + hk) / 2.0) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
    )
    if hk > -160.0:
        b = math.sqrt(bs)
        bvn -= (
            math.exp(-hk / 2.0)
            * math.sqrt(_TWOPI)
            * phi(-b / a)
            * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
    ah = a / 2.0
    for xi, wi in zip(xs, ws):
        for sgn in (1.0, -1.0):
            x2 = (ah * (sgn * xi + 1.0)) ** 2
            rs = math.sqrt(1.0 - x2)
            bvn += (
                ah
                * wi
                * (
                    math.exp(-bs / (2.0 * x2) - hk / (1.0 + rs)) / rs
                    - math.exp(-(bs / x2 + hk) / 2.0)
                    * (1.0 + c * x2 * (1.0 + d * x2))
                )
            )
    bvn = -bvn / _TWOPI
    if rho > 0.0:
        bvn += phi(-max(h, k))
    else:
        bvn = -bvn + max(0.0, phi(-h) - phi(-k))
    return min(1.0, max(0.0, bvn))


def verify_identity_11(x_grid, rho_grid) -> dict:
    """Max grid deviation of phi2(x,x;rho) - phi2(-x,-x;rho) - (phi(x) - phi(-x))."""
    x_grid = list(x_grid)
    rho_grid = list(rho_grid)
    worst = 0.0
    worst_at = None
    for x in x_grid:
        if x < 0:
            raise ValueError(f"grid thresholds must be >= 0, got {x}")
        for rho in rho_grid:
            lhs = phi2(x, x, rho) - phi2(-x, -x, rho)
            rhs = phi(x) - phi(-x)
            dev = abs(lhs - rhs)
            if dev > worst:
                worst, worst_at = dev, (x, rho)
    tolerance = 1e-10
    return {
        "check": "absmax-identity",
        "max_deviation": worst,
        "worst_at": worst_at,
        "tolerance": tolerance,
        "pass": worst <= tolerance,
        "points": len(x_grid) * len(rho_grid),
    }
