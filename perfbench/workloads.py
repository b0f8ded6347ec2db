"""Job lists of the four benchmark workloads.

A job is a plain dict that the worker runs and the oracles check:

  {"kind": "cli",  "argv": [...]}        capbound.cli.main(argv) in the worker
  {"kind": "proc", "argv": [...]}        a fresh `python -m capbound.cli` child
  {"kind": "lib",  "fn": name, "args": [...]}   a library call in the worker

Jobs use only the CLI and the public library functions; nothing here
depends on caches, thread pools or private helpers of the program.  The
seed draws the `rows-cold` job list and the `proof-core` point sets; job
counts and set sizes are fixed so that work per seed stays nearly
constant.  `oracle` and `sweep` do not depend on the seed.
"""
from __future__ import annotations

import itertools
import math
import os
import random

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)
TABLE_Q = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)

# Ladder cost of one cold row grows like (q-1) * log2(q) * n^3; rows-cold
# picks n per q so that every qnomial job costs about the same.
ROW_COST = 4.0e9

# The two mirror pairs of a rows-cold round draw q from these groups.  The
# cost model above leaves q in [4, 13] near 0.3 s a cold row and q in
# [16, 25] near 0.5 s, so one q from each keeps a round's work nearly the
# same for every seed.
ROW_Q_GROUPS = ((4, 5, 7, 8, 9, 11, 13), (16, 17, 19, 23, 25))

NAMES = ("oracle", "rows-cold", "sweep", "proof-core")


def _cli(argv, **extra):
    return {"kind": "cli", "argv": [str(a) for a in argv], **extra}


def _proc(argv, **extra):
    return {"kind": "proc", "argv": [str(a) for a in argv], **extra}


def _lib(fn, *args):
    return {"kind": "lib", "fn": fn, "args": list(args)}


def oracle_jobs(smoke: bool) -> list[dict]:
    top = 3 if smoke else 4
    jobs = [_cli(["search", "--n", n]) for n in range(1, top + 1)]
    jobs += [_cli(["bound", "--n", n, "--optimize-d", "--theorem"])
             for n in range(1, top + 1)]
    return jobs


def _row_n(q: int) -> int:
    return round((ROW_COST / ((q - 1) * math.log2(q))) ** (1 / 3))


def rows_cold_jobs(seed: int, smoke: bool) -> list[dict]:
    rng = random.Random(f"rows-cold:{seed}")
    if smoke:
        jobs = [_proc(["bound", "--n", 3 * rng.randint(5, 10),
                       "--theorem", "--sharp"])]
    else:
        jobs = [_proc(["bound", "--n", 3 * rng.randint(797, 800),
                       "--theorem", "--sharp"])]
    for group in ROW_Q_GROUPS:
        q = rng.choice(group)
        n = rng.randint(8, 12) if smoke else _row_n(q) + rng.randint(-3, 3)
        k = rng.randint(0, (q - 1) * n)
        first = len(jobs)
        jobs.append(_proc(["qnomial", "--n", n, "--k", k, "--q", q],
                          pair=first + 1))
        jobs.append(_proc(["qnomial", "--n", n, "--k", (q - 1) * n - k,
                           "--q", q], pair=first))
    for _ in range(2):
        q = rng.choice(PRIME_POWERS)
        jobs.append(_proc(["growth", "--q", q, "--method", "both"]))
    return jobs


def sweep_jobs(smoke: bool) -> list[dict]:
    """Library calls in ascending n, in one long-lived process."""
    dense, chain, nmax, digits = (30, 30, 30, 60) if smoke else (200, 300,
                                                                   300, 600)
    jobs = [_lib("optimal_bound", n) for n in range(1, dense + 1)]
    for n in range(0, chain + 1, 3):
        jobs += [_lib("sharp_bound", n), _lib("bound_for_d", n, 4 * n // 3),
                 _lib("series_coeff_bound", n, 3), _lib("theorem_bound", n)]
    jobs.append(_lib("verify_recurrence", nmax))
    jobs += [_lib("growth_constant", q, digits) for q in TABLE_Q]
    jobs += [_lib("alpha", 3 * digits), _lib("characteristic_root", 3 * digits),
             _lib("leading_constant", digits)]
    ladder = [75, 150, 300, 600] if smoke else [300, 600, 1200, 2400]
    jobs.append(_lib("leading_constant_empirical", ladder))
    jobs.append(_lib("first_correction_estimate", 600 if smoke else 2400))
    return jobs


def _third(a, b):
    return tuple((-x - y) % 3 for x, y in zip(a, b))


def progression_free_set(n: int, size: int, rng: random.Random) -> list:
    """A random progression-free subset of F_3^n with exactly `size` points.

    Random greedy: shuffle the space and keep each point not yet excluded.
    Every subset of a progression-free set is progression-free, so the
    first `size` kept points are taken; a run that keeps fewer is retried.
    """
    while True:
        pts = list(itertools.product(range(3), repeat=n))
        rng.shuffle(pts)
        chosen, excluded = [], set()
        for p in pts:
            if p in excluded:
                continue
            excluded.update(_third(s, p) for s in chosen)
            chosen.append(p)
            if len(chosen) == size:
                return sorted(chosen)


# (n, set size) of the proof-core point sets.  Random greedy reaches these
# sizes within a few tries (its maximal sets have 16-18 points at n=4 and
# 33-38 at n=5).
PROOF_SETS = ((4, 18), (5, 18))
PROOF_SETS_SMOKE = ((3, 6), (4, 9))


def proof_core_set(n: int, size: int, seed: int) -> list:
    """A seeded image of one fixed random progression-free set.

    The seed draws a sign per coordinate (x -> x or -x).  Such a map sends
    each monomial to plus or minus itself, so every seed gets the same
    dim V, the same matrix sizes and the same number of terms in the null
    space basis.  Fresh greedy sets per seed, and coordinate permutations,
    change the elimination order and with it the density of the basis, so
    the verifier's work varied by about 15% between seeds.
    """
    base = progression_free_set(n, size, random.Random(f"proof-core:{n}"))
    rng = random.Random(f"proof-core:{seed}:{n}")
    sign = [rng.choice((1, 2)) for _ in range(n)]
    return sorted(tuple(p[i] * sign[i] % 3 for i in range(n)) for p in base)


def proof_core_jobs(seed: int, smoke: bool, work_dir: str) -> list[dict]:
    jobs = []
    for n, size in PROOF_SETS_SMOKE if smoke else PROOF_SETS:
        points = proof_core_set(n, size, seed)
        path = os.path.join(work_dir, f"proof-core_n{n}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(" ".join(map(str, p)) + "\n" for p in points))
        for d in range(0, 2 * n + 1):
            jobs.append(_cli(["verify-clp", "--n", n, "--d", d, "--set", path],
                             points=[list(p) for p in points]))
    return jobs


def make_jobs(name: str, seed: int, smoke: bool, work_dir: str) -> list[dict]:
    if name == "oracle":
        return oracle_jobs(smoke)
    if name == "rows-cold":
        return rows_cold_jobs(seed, smoke)
    if name == "sweep":
        return sweep_jobs(smoke)
    if name == "proof-core":
        return proof_core_jobs(seed, smoke, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
