"""Independent checks of every benchmark job's output.

Nothing here imports capbound.  Coefficients come from inclusion-exclusion
with math.comb, whole rows from Kronecker substitution (one big-integer
power, read off in fixed-width bit fields), real constants from mpmath,
and cap-set witnesses are checked pair by pair.  `check_job` returns a list
of problems; an empty list means the job passed.
"""
from __future__ import annotations

import json
from functools import lru_cache
from math import comb

import mpmath

# Maximum progression-free subsets of F_3^n (Pellegrino 1970 for n = 4).
CAP_SIZES = {1: 2, 2: 4, 3: 9, 4: 20}
FIRST_CORRECTION = -5.1543714155636062458


# -- exact rows ---------------------------------------------------------------

def coeff(n: int, k: int, q: int = 3) -> int:
    """[x^k] (1 + x + ... + x^(q-1))^n by inclusion-exclusion."""
    if k < 0 or k > (q - 1) * n:
        return 0
    if n == 0:
        return 1
    return sum((-1) ** j * comb(n, j) * comb(k - q * j + n - 1, n - 1)
               for j in range(k // q + 1))


def prefix(n: int, top: int, q: int = 3) -> int:
    """Sum of [x^k] (1 + x + ... + x^(q-1))^n over 0 <= k <= top."""
    if top < 0:
        return 0
    top = min(top, (q - 1) * n)
    return sum((-1) ** j * comb(n, j) * comb(top - q * j + n, n)
               for j in range(top // q + 1))


@lru_cache(maxsize=512)
def row(n: int, q: int = 3) -> tuple[int, ...]:
    """The whole row by Kronecker substitution x = 2^width."""
    width = (q**n).bit_length() + 1
    mask = (1 << width) - 1
    value = sum(1 << (width * i) for i in range(q)) ** n
    return tuple((value >> (width * k)) & mask for k in range((q - 1) * n + 1))


@lru_cache(maxsize=None)
def theorem_value(n: int) -> int:
    return 3 * prefix(n, 2 * n // 3)


def sharp_value(n: int) -> int:
    return theorem_value(n) - coeff(n, 2 * n // 3)


def bound_for_d_value(n: int, d: int) -> int:
    return 2 * prefix(n, d // 2) + 3**n - prefix(n, d)


@lru_cache(maxsize=None)
def optimal_value(n: int) -> tuple[int, int]:
    """(d, value) minimizing bound_for_d over d in [0, 2n], smallest d on ties."""
    sums, total = [], 0
    for c in row(n):
        total += c
        sums.append(total)
    values = [2 * sums[d // 2] + 3**n - sums[d] for d in range(2 * n + 1)]
    best = min(values)
    return values.index(best), best


# -- constants ----------------------------------------------------------------

def _digits_dps(digits: int) -> int:
    return max(digits, 30) + 20


@lru_cache(maxsize=None)
def saddle_constant(q: int, digits: int):
    """min over (0,1) of f(x) x^(-(q-1)/3), f = 1 + ... + x^(q-1), by Newton
    on sum_j (3j - (q-1)) x^j from a float bisection start."""
    g = [3 * j - (q - 1) for j in range(q)]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if sum(c * mid**j for j, c in enumerate(g)) < 0:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(_digits_dps(digits)):
        x0 = mpmath.findroot(lambda x: mpmath.polyval(g[::-1], x),
                             mpmath.mpf(lo))
        f = mpmath.polyval([1] * q, x0)
        return +(f / mpmath.cbrt(x0 ** (q - 1)))


@lru_cache(maxsize=None)
def characteristic_root(digits: int):
    with mpmath.workdps(_digits_dps(digits)):
        return +((5589 + 891 * mpmath.sqrt(33)) / 512)


@lru_cache(maxsize=None)
def alpha(digits: int):
    with mpmath.workdps(_digits_dps(digits)):
        return +mpmath.cbrt(characteristic_root(digits))


@lru_cache(maxsize=None)
def leading_constant(digits: int):
    """(3/(1-x0) - 1) / sqrt(2 pi v), x0 = (sqrt(33) - 1)/8 the q=3 saddle
    point and v = x0 (1 + 4 x0 + x0^2) / (1 + x0 + x0^2)^2."""
    with mpmath.workdps(_digits_dps(digits)):
        x0 = (mpmath.sqrt(33) - 1) / 8
        f = 1 + x0 + x0**2
        v = x0 * (1 + 4 * x0 + x0**2) / f**2
        return +((3 / (1 - x0) - 1) / mpmath.sqrt(2 * mpmath.pi * v))


def _close(got, ref, digits: int, label: str) -> list[str]:
    """got (an mpmath-readable number) against an mpmath reference, to
    digits - 5 decimal places."""
    with mpmath.workdps(_digits_dps(digits)):
        diff = abs(mpmath.mpf(got) - ref)
        if diff > mpmath.mpf(10) ** (5 - digits):
            return [f"{label}: off by {mpmath.nstr(diff, 5)}"]
    return []


# -- cap sets -----------------------------------------------------------------

def cap_problems(points: list[tuple[int, ...]], n: int) -> list[str]:
    """Every pair of distinct points completes to a third point outside."""
    if any(len(p) != n or any(c not in (0, 1, 2) for c in p) for p in points):
        return ["witness has a point outside F_3^n"]
    members = set(points)
    if len(members) != len(points):
        return ["witness repeats a point"]
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if tuple((-x - y) % 3 for x, y in zip(a, b)) in members:
                return [f"witness has a line through {a} and {b}"]
    return []


# -- per-job checks -----------------------------------------------------------

def _flag(argv: list[str], name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _check_cli(job: dict, out: dict) -> list[str]:
    argv = job["argv"]
    if out.get("exit") != 0:
        return [f"exit code {out.get('exit')}: {out.get('stderr', '')[-200:]}"]
    try:
        report = json.loads(out["stdout"])
    except (KeyError, ValueError):
        return ["stdout is not one JSON report"]
    problems = [f"check {c.get('name')} failed"
                for c in report.get("checks", []) if not c.get("pass")]
    result = report.get("result", {})
    command = argv[0]
    n = int(_flag(argv, "--n")) if "--n" in argv else None
    if command == "search":
        if result.get("max_size") != CAP_SIZES[n]:
            problems.append(f"max_size {result.get('max_size')} != "
                            f"{CAP_SIZES[n]}")
        if result.get("proven_optimal") is not True:
            problems.append("not proven optimal")
        witness = [tuple(int(t) for t in line.split())
                   for line in result.get("witness", [])]
        if len(witness) != CAP_SIZES[n]:
            problems.append(f"witness has {len(witness)} points")
        problems += cap_problems(witness, n)
    elif command == "bound":
        expected = {"theorem": lambda: theorem_value(n),
                    "sharp": lambda: sharp_value(n)}
        methods = [b.get("method") for b in result.get("bounds", [])]
        wanted = [m for flag, m in (("--optimize-d", "optimal"),
                                    ("--theorem", "theorem"),
                                    ("--sharp", "sharp")) if flag in argv]
        if methods != wanted:
            problems.append(f"bound methods {methods} != {wanted}")
        for b in result.get("bounds", []):
            value = int(b["value"])
            if b["method"] == "optimal":
                d, best = optimal_value(n)
                if (b.get("d"), value) != (d, best):
                    problems.append(f"optimal bound (d={b.get('d')}, {value}) "
                                    f"!= (d={d}, {best})")
            elif value != expected[b["method"]]():
                problems.append(f"{b['method']} bound {value} is wrong")
            if not all(i.get("pass") for i in b.get("identities", [])):
                problems.append(f"{b['method']} identity fails")
            if n in CAP_SIZES and value < CAP_SIZES[n]:
                problems.append(f"{b['method']} bound {value} below the "
                                f"cap size {CAP_SIZES[n]}")
        if "--sharp" in argv and len(
                next((b.get("identities", []) for b in result.get("bounds", [])
                      if b.get("method") == "sharp"), [])) != 2:
            problems.append("sharp bound lacks its two identities")
    elif command == "qnomial":
        k, q = int(_flag(argv, "--k")), int(_flag(argv, "--q"))
        if int(result.get("value", "-1")) != coeff(n, k, q):
            problems.append(f"qnomial({n}, {k}, {q}) is wrong")
        if prefix(n, (q - 1) * n, q) != q**n:
            problems.append(f"oracle row sum for ({n}, {q}) is not q^n")
    elif command == "growth":
        q = int(_flag(argv, "--q"))
        digits = int(_flag(argv, "--digits") or 40)
        ref = saddle_constant(q, digits)
        saddle = result.get("saddle", {}).get("constant")
        if saddle is None:
            problems.append("no saddle constant")
        else:
            problems += _close(saddle["decimal"], ref, digits, f"growth q={q}")
        ratio = result.get("ratio_estimate")
        if ratio is None or abs(ratio - float(ref)) / float(ref) >= 1e-4:
            problems.append(f"ratio estimate {ratio} for q={q} is off")
    elif command == "verify-clp":
        d, points = int(_flag(argv, "--d")), job["points"]
        size = len(points)
        lower = prefix(n, d) - (3**n - size)
        for flag in ("diagonal_ok", "rank_ok", "support_ok", "bound_ok"):
            if result.get(flag) is not True:
                problems.append(f"{flag} is not true")
        if result.get("set_size") != size:
            problems.append(f"set size {result.get('set_size')} != {size}")
        if result.get("dim_lower_bound") != lower:
            problems.append(f"dim lower bound {result.get('dim_lower_bound')} "
                            f"!= {lower}")
        if not isinstance(result.get("dim_v"), int) or result["dim_v"] < lower:
            problems.append(f"dim V {result.get('dim_v')} < {lower}")
        if result.get("support_cap") != 2 * prefix(n, d // 2):
            problems.append("support cap is wrong")
    else:
        problems.append(f"no oracle for command {command}")
    return problems


def _int(value) -> int:
    return int(value, 16)


def _check_lib(job: dict, out: dict) -> list[str]:
    fn, args = job["fn"], job["args"]
    if "value" not in out:
        return ["no value returned"]
    value = out["value"]
    if fn in ("sharp_bound", "theorem_bound", "bound_for_d", "optimal_bound"):
        n = args[0]
        got = _int(value["value"])
        if fn == "sharp_bound":
            idents = value.get("identities", [])
            if len(idents) != 2 or not all(ok for _, ok in idents):
                return ["sharp bound identities fail"]
            return [] if got == sharp_value(n) else [f"sharp_bound({n}) wrong"]
        if fn == "theorem_bound":
            return [] if got == theorem_value(n) else [f"theorem({n}) wrong"]
        if fn == "bound_for_d":
            ok = got == bound_for_d_value(n, args[1])
            return [] if ok else [f"bound_for_d{tuple(args)} wrong"]
        d = value.get("d")
        if (d and _int(d), got) != optimal_value(n):
            return [f"optimal_bound({n}) wrong"]
        return []
    if fn == "series_coeff_bound":
        n = args[0]
        t = 2 * n // 3
        ok = _int(value) == 2 * coeff(n, t) + 3 * prefix(n, t - 1)
        return [] if ok else [f"series_coeff_bound({n}) wrong"]
    if fn == "verify_recurrence":
        ok = (value.get("all_zero") is True
              and value.get("first_failure") is None
              and _int(value.get("n_max", "0x0")) == args[0])
        return [] if ok else ["recurrence check does not vanish"]
    if fn in ("growth_constant", "alpha", "characteristic_root",
              "leading_constant"):
        digits = args[-1]
        ref = {"growth_constant": lambda: saddle_constant(args[0], digits),
               "alpha": lambda: alpha(digits),
               "characteristic_root": lambda: characteristic_root(digits),
               "leading_constant": lambda: leading_constant(digits)}[fn]()
        with mpmath.workdps(_digits_dps(digits)):
            got = mpmath.mpf(_int(value["mantissa"])) / mpmath.mpf(10) ** _int(
                value["scale"])
        return _close(got, ref, digits, f"{fn}{tuple(args)}")
    if fn == "leading_constant_empirical":
        c = float(leading_constant(30))
        ok = isinstance(value, float) and abs(value - c) / c < 1e-3
        return [] if ok else [f"empirical leading constant {value} is off"]
    if fn == "first_correction_estimate":
        ok = (isinstance(value, float) and value < 0
              and abs(value - FIRST_CORRECTION) / -FIRST_CORRECTION <= 0.05)
        return [] if ok else [f"first correction {value} is off"]
    return [f"no oracle for {fn}"]


def check_job(job: dict, out: dict) -> list[str]:
    if out.get("error"):
        return [out["error"]]
    try:
        if job["kind"] == "lib":
            return _check_lib(job, out)
        return _check_cli(job, out)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_round(jobs: list[dict], outputs: list[dict]) -> list[list[str]]:
    """Problems per job; a qnomial job also fails if its mirror coefficient
    (k -> (q-1)n - k, same row) differs."""
    problems = [check_job(job, out) for job, out in zip(jobs, outputs)]
    for i, job in enumerate(jobs):
        if "pair" in job and not problems[i]:
            mine = json.loads(outputs[i]["stdout"])["result"]["value"]
            other = outputs[job["pair"]].get("stdout") or "{}"
            theirs = json.loads(other).get("result", {}).get("value")
            if mine != theirs:
                problems[i].append("row is not symmetric")
    return problems
