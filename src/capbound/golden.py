"""Pinned values and the rules that compare fresh results with them.

Independent references come first, each recomputed at runtime by
another route (closed forms, saddle-point root finding, exact ratios,
search), so the CLI and the acceptance suite can diff fresh results
against them.  Digit strings are compared at +-1 unit in their last
place, the leading constant at 10 significant digits.

The growth-table strings are truncated, not rounded: an mpmath oracle
puts every one of the 15 between 0.05 and 0.97 units in the last place
below the true constant, never above.  A truncated string can sit almost
a full unit from the value it stands for, which is why the tolerance is
1 ulp and not 0.5.

Regression pins come last: the program's own output, fixed when each
comment says, which nothing outside capbound confirms; they show that a
change moved it.  `verify-all --level full` holds them.  One is an input
of criterion 7, the n = 5 cap; a tier-1 test holds its provenance.
"""
from __future__ import annotations

from .fixedpoint import BigFixed
from .stages import Check

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

# Lexicographically least maximum cap sets of F_3^n, as encoded points
# (capsearch.encode_point): the first maximum set the search's canonical
# walk meets.  Criterion 6 checks the search against them.
LEX_LEAST_WITNESSES = {
    1: (0, 1),
    2: (0, 1, 3, 4),
    3: (0, 1, 3, 4, 9, 10, 14, 17, 23),
    4: (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 32, 35, 38, 47, 59, 65, 66, 67,
        71, 77),
}

# Leading constant and first 1/n correction of
#   sharp_bound(n) ~ C * alpha^n / sqrt(n) * (1 + c1/n + ...).
# The pinned C is trustworthy to its first SHARED_DIGITS significant
# digits; the closed form (3/(1-x0) - 1)/sqrt(2*pi*x0*mu'(x0)) continues
# ...46465544856... after the shared prefix 3.326762746.
LEADING_CONSTANT_DIGITS = "3.3267627467425979588"
SHARED_DIGITS = 10
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


# The fewest decimal places at which the CLI checks computed digits: all
# of ALPHA_DIGITS's, and SHARED_DIGITS for the leading constant (about
# 3.3), which rounding to them moves by a relative 10^-SHARED_DIGITS / 6.
ALPHA_CHECK_PLACES = len(ALPHA_DIGITS.partition(".")[2])
LEADING_CONSTANT_CHECK_PLACES = SHARED_DIGITS


def pinned_gap(value: BigFixed, pinned: str) -> tuple[int, int, int]:
    """|value - pinned|, one unit in pinned's last place and |pinned|, as
    integers on the finer of the two scales.  A check against a pinned
    decimal is decided on these (within one ulp when gap <= unit), and
    gap / unit, a correctly rounded int division, is its distance in
    ulps: no Fraction, so no gcd of 30,000-digit integers."""
    ref = BigFixed.from_decimal(pinned)
    scale = max(value.scale, ref.scale)
    unit = 10**(scale - ref.scale)
    ref_mantissa = ref.mantissa * unit
    gap = abs(value.mantissa * 10**(scale - value.scale) - ref_mantissa)
    return gap, unit, abs(ref_mantissa)


def digit_check(name: str, value: BigFixed, pinned: str
                ) -> tuple[Check, float]:
    """The check that value lies within one ulp of a pinned decimal, and
    the distance in ulps.  The report holds the computed value, so the
    detail names only the pinned one."""
    gap, unit, _ = pinned_gap(value, pinned)
    ulps = gap / unit
    return Check(name, gap <= unit, f"pinned {pinned} ({ulps:.3g} ulp)"), ulps


def alpha_checks(value: BigFixed, root: BigFixed
                 ) -> tuple[tuple[Check, float], tuple[Check, float]]:
    """The checks `alpha` reports, each with its distance in ulps: alpha,
    then the characteristic root, within one ulp of its pinned digits."""
    return (digit_check("alpha_matches_reference", value, ALPHA_DIGITS),
            digit_check("characteristic_root_matches_reference", root,
                        CHARACTERISTIC_ROOT_DIGITS))


def growth_table_check(q: int, constant: BigFixed) -> tuple[Check, float]:
    """The check `table` reports on a pinned q's row: its constant within
    one ulp of GROWTH_TABLE[q]; and the distance in ulps."""
    return digit_check(f"q={q}_matches_reference", constant, GROWTH_TABLE[q])


def leading_constant_digit_check(value: BigFixed
                                 ) -> tuple[Check, float, int]:
    """Significant-digit agreement with the pinned leading constant: the
    check, which requires the SHARED_DIGITS and spells the divergence after
    them out, the relative difference and how many significant digits agree
    (relative difference below 10^-digits; exact agreement counts all)."""
    pinned = LEADING_CONSTANT_DIGITS
    gap, _, size = pinned_gap(value, pinned)
    available = len(pinned.replace(".", "").lstrip("0"))
    digits = 0
    while digits < available and gap * 10**(digits + 1) < size:
        digits += 1
    rel = gap / size
    detail = (f"pinned {pinned}: {digits} "
              f"significant digits agree (relative difference {rel:.2e}); "
              f"the closed form and the pinned value share only the first "
              f"{SHARED_DIGITS} by construction of the pinned value")
    return Check(f"matches_reference_to_{SHARED_DIGITS}_significant_digits",
                 digits >= SHARED_DIGITS, detail), rel, digits


# Regression pins, each held by the verify-all criterion named beside it.
# Criterion 2: SHA-256 of the alpha and characteristic-root decimals at
# 30,000 digits, pinned before both moved from decimal to binary mantissas.
ALPHA_SHA256 = {
    "alpha":
        "cbba4bb42f9871452e963287598365bbd9ecf27dc79f622cb2ef7dd48b7475a9",
    "characteristic_root":
        "93c1956a70a0408565e73a1dffdce9c4a9bf4e2188e295a15289635801e5c20d",
}
# Criterion 3: SHA-256 of the x0 and constant decimals at q = 64 and 30,000
# digits, pinned when Newton moved from Horner chains of g to the closed
# form h.
SADDLE_64_SHA256 = {
    "x0": "7720d964e8407cbbb61d85e996e513432ee409d6f7a941d66b8b10ca0893a806",
    "constant":
        "4c7c33dcf3fa351c63a509d2d1263e2c63a264f9c3a77128b341a2b6b3699563",
}
# Criterion 5: SHA-256 of every bound entry (d, value and identity
# verdicts) of `bound --n 2400 --optimize-d --theorem --sharp`, dumped
# with sorted keys, pinned before optimal_bound scanned odd d only and
# q = 3 rows came from the two-term recurrence.
BOUNDS_2400_SHA256 = {
    "bounds":
        "b04d0081ef84a3696051f5934440748ea0130a2795b604474d86954d5d427d42",
}
# Criterion 6, the n = 4 search: one class, its 144 automorphisms the
# order of the 9-cap's affine stabilizer, which the brute-force AGL(3, 3)
# test confirms; the refutation prunes by the representative's
# symmetries and by the cap on its two open slices (it took 6,233 nodes
# with neither); the find walk starts one point below the proven bound
# (it took 2,254 nodes when it climbed from one point).
SEARCH_4_COUNTERS = {"full_cap_classes": 1, "class_automorphisms": 144}
SEARCH_4_ABOVE = {"orbit": 0, "slice": 0}
SEARCH_4_BELOW = {"refute_nodes": 6233, "nodes_explored": 2254}
# Criterion 7: the 42-point cap of F_3^5 that max_capset(5,
# node_budget=CLP_CAP_5_BUDGET) returns, pinned when the criterion stopped
# running that search (a tier-1 test holds the search to it), and the
# (dim V, max support, max rank) at each d = 0..2n on the n = 4 witness
# and that cap, pinned before the basis was evaluated by the bitsliced
# transform.
CLP_CAP_5_BUDGET = 200_000
CLP_CAP_5 = (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40, 81, 82,
             84, 85, 90, 91, 93, 94, 116, 125, 128, 131, 132, 133, 143, 152,
             155, 158, 159, 160, 197, 206, 209, 212, 213, 214)
CLP_TRIPLES = {4: ((0, 0, 0),) * 5 + ((6, 14, 14), (15, 14, 14), (19, 18, 18),
                                     (20, 18, 18)),
               5: ((0, 0, 0),) * 6 + ((2, 16, 16), (22, 20, 20), (36, 25, 25),
                                     (41, 27, 27), (42, 27, 27))}
# Criterion 8: SHA-256 of the leading-constant decimal at 30,000 digits,
# pinned when pi moved from the arctangent series to Chudnovsky's.
LEADING_CONSTANT_SHA256 = {
    "leading_constant":
        "fb48dee698546752f21bd0ffa429324ae10fc747e4d9f1dea381b67b5d244c40",
}


def pin_failures(found: dict, equal: dict, above: dict | None = None,
                 below: dict | None = None) -> list[str]:
    """Each pin that found breaks, spelled out: found[key] must equal
    equal[key] and lie strictly above above[key] and below below[key].
    Pure, so a test can hold found values to altered pins."""
    return ([f"{k} {found[k]!r} is not the pinned {v!r}"
             for k, v in equal.items() if found[k] != v]
            + [f"{k} {found[k]!r} is not above {v!r}"
               for k, v in (above or {}).items() if not found[k] > v]
            + [f"{k} {found[k]!r} is not below {v!r}"
               for k, v in (below or {}).items() if not found[k] < v])
