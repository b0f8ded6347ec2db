"""Pinned reference values for the regression table and digit checks.

Every number here is recomputed independently at runtime (closed forms,
saddle-point root finding, exact coefficient ratios); these copies exist
so the CLI and the acceptance suite can diff fresh computations against a
fixed reference.  Digit strings are compared at +-1 unit in their last
place.

The growth-table strings are truncated, not rounded: an mpmath oracle
puts every one of the 15 between 0.05 and 0.97 units in the last place
below the true constant, never above.  A truncated string can sit almost
a full unit from the value it stands for, which is why the tolerance is
1 ulp and not 0.5.
"""
from __future__ import annotations

# Largest root of CHAR_QUADRATIC, i.e. (5589 + 891*sqrt(33))/512, and its
# cube root, the base-3 growth constant.
CHARACTERISTIC_ROOT_DIGITS = "20.912901011846452219"
ALPHA_DIGITS = "2.7551046130236330002"

# x^2 coefficient, x coefficient, constant term of the characteristic
# quadratic of the constant-coefficient limit recurrence
#   19683*d0(n) - 22356*d0(n+1) + 1024*d0(n+2) = 0.
CHAR_QUADRATIC = (1024, -22356, 19683)

# Coefficient polynomials of the order-2 recurrence annihilating
# d(n) = [x^(2n)] (1+x+x^2)^(3n); verified exactly term by term.
RECURRENCE_COEFFS = (
    lambda n: 243 * (3 * n + 5) * (3 * n + 2) * (11 * n + 20)
    * (3 * n + 4) * (3 * n + 1) * (n + 1),
    lambda n: -18 * (3 * n + 5) * (2 * n + 1) * (3 * n + 4)
    * (759 * n**3 + 2898 * n**2 + 3505 * n + 1350),
    lambda n: 16 * (4 * n + 5) * (2 * n + 3) * (2 * n + 1)
    * (11 * n + 9) * (4 * n + 7) * (n + 2),
)

# Leading constant and first 1/n correction of
#   sharp_bound(n) ~ C * alpha^n / sqrt(n) * (1 + c1/n + ...).
# The pinned C is trustworthy to ~10 significant digits; the closed form
# (3/(1-x0) - 1)/sqrt(2*pi*x0*mu'(x0)) continues ...46465544856... after
# the shared prefix 3.326762746.
LEADING_CONSTANT_DIGITS = "3.3267627467425979588"
FIRST_CORRECTION = -5.1543714155636062458

# Growth constants f(x0)*x0^(-(q-1)/3) for prime powers 4 <= q <= 31,
# as many digits as pinned.  tests/test_asymptotics.py checks every entry
# against an mpmath oracle that shares no code with capbound.
GROWTH_TABLE = {
    4: "3.610718613276039349",
    5: "4.461577765702577811",
    7: "6.156204863216738416",
    8: "7.0015547549940074581",
    9: "7.846120582585805712",
    11: "9.533685392075550992",
    13: "11.21990798911487743",
    16: "13.74776213458745700",
    17: "14.590117162",
    19: "16.274551068400264",
    23: "19.6426364587288",
    25: "21.3264083101",
    27: "23.010051182485787",
    29: "24.69359086763659",
    31: "26.3770467097314914",
}
