"""Exact coefficient rows of (1 + x + ... + x^(q-1))^n and derived counts.

Everything here is arbitrary-precision integer arithmetic; no floating
point, no modular shortcuts.  Rows are cached per (n, q) within a process,
and a per-q "ladder" keeps the highest row computed so far, so walking n
upward (the common access pattern) costs one sliding-window update per
step instead of a recomputation from scratch.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class QNomialRow:
    """One exact coefficient row: coeffs[k] = [x^k] (1 + x + ... + x^(q-1))^n."""

    n: int
    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        assert len(self.coeffs) == (self.q - 1) * self.n + 1


# Cache of finished rows plus, per q, the top of the ladder we have climbed
# so far.  Guarded by a lock so concurrent callers share work safely;
# rows handed out are immutable tuples.
_lock = threading.Lock()
_rows: dict[tuple[int, int], tuple[int, ...]] = {}
_ladder: dict[int, tuple[int, list[int]]] = {}


def _check_nq(n: int, q: int) -> None:
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _advance(row: list[int], m: int, q: int) -> list[int]:
    """One multiplication by (1 + x + ... + x^(q-1)): row for m-1 -> row for m.

    Uses the sliding window sum new[k] = sum_{j=k-q+1..k} old[j], maintained
    incrementally, so each entry costs O(1) big-integer additions.
    """
    old_len = len(row)
    new = [0] * ((q - 1) * m + 1)
    window = 0
    for k in range(len(new)):
        if k < old_len:
            window += row[k]
        if 0 <= k - q < old_len:
            window -= row[k - q]
        new[k] = window
    return new


def qnomial_row(n: int, q: int = 3) -> QNomialRow:
    """Exact row of coefficients of (1 + x + ... + x^(q-1))^n."""
    _check_nq(n, q)
    with _lock:
        cached = _rows.get((n, q))
        if cached is not None:
            return QNomialRow(n, q, cached)
        top_n, top_row = _ladder.get(q, (0, [1]))
        if top_n > n:
            # Ladder is above the request; rebuild from the ground.  Cheap
            # relative to the work that raised the ladder in the first place.
            top_n, top_row = 0, [1]
        row = top_row
        for m in range(top_n + 1, n + 1):
            row = _advance(row, m, q)
        _ladder[q] = (n, row)
        coeffs = tuple(row)
        _rows[(n, q)] = coeffs
    return QNomialRow(n, q, coeffs)


def qnomial(n: int, k: int, q: int = 3) -> int:
    """Coefficient of x^k in (1 + x + ... + x^(q-1))^n; 0 outside [0, (q-1)n].

    Out-of-range k is deliberately not an error so that sums and the
    symmetry identity need no edge guards.
    """
    _check_nq(n, q)
    if k < 0 or k > (q - 1) * n:
        return 0
    return qnomial_row(n, q).coeffs[k]


def mspace_size(n: int, d: int, q: int = 3) -> int:
    """Number of monomials in n variables with every exponent < q and total
    degree <= d, i.e. sum_{i=0..d} of the row coefficients.

    Saturates at q^n once d reaches (q-1)n.
    """
    _check_nq(n, q)
    if d < 0:
        raise ValueError(f"degree bound d must be nonnegative, got {d}")
    top = min(d, (q - 1) * n)
    coeffs = qnomial_row(n, q).coeffs
    return sum(coeffs[: top + 1])


def series_coeff_bound(n: int, q: int) -> int:
    """Coefficient of z^t, t = (q-1)n/3, in (1+z+...+z^(q-1))^n * (2+z)/(1-z).

    Since (2+z)/(1-z) = 2 + 3z + 3z^2 + ..., the coefficient equals
    2*qnomial(n, t, q) + 3*sum_{k<t} qnomial(n, k, q), all exact.
    """
    _check_nq(n, q)
    if ((q - 1) * n) % 3 != 0:
        raise ValueError(
            f"(q-1)*n must be divisible by 3 (got n={n}, q={q}); "
            "scale n up to a multiple of 3"
        )
    t = (q - 1) * n // 3
    coeffs = qnomial_row(n, q).coeffs
    return 2 * coeffs[t] + 3 * sum(coeffs[:t])


def clear_cache() -> None:
    """Drop all cached rows (mainly for memory-sensitive callers and tests)."""
    with _lock:
        _rows.clear()
        _ladder.clear()
