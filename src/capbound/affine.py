"""Affine maps of F_3^n between point sets, on base-3 point indices
(capsearch.encode_point): the certificates that one set is an affine
image of another, the stabilizer of a set, the lift of its maps to
F_3^(n+1), and the masks an extension walk prunes by (see
capsearch._Walker).  A map is a point table, the tuple
(g(0), g(1), ..., g(3^n - 1)).
"""
from __future__ import annotations

from functools import lru_cache
from math import perm


@lru_cache(maxsize=None)
def _vector_sums(n: int) -> list[list[int]]:
    """sums[x][y] is x + y in F_3^n, on base-3 indices: 3^(2n) entries.
    The sum has no carries, so the last digit of x + y is (x + y) mod 3
    and the rest is the sum of x // 3 and y // 3 in F_3^(n-1)."""
    sums = [[0]]
    for k in range(1, n + 1):
        size = 3**k
        sums = [[3 * sums[x // 3][y // 3] + (x + y) % 3 for y in range(size)]
                for x in range(size)]
    return sums


def _independent(sums: list[list[int]], vectors) -> bool:
    """True iff the vectors of F_3^n are linearly independent."""
    span = {0}
    for d in vectors:
        if d in span:
            return False
        twice = sums[d][d]
        span |= {sums[s][d] for s in span} | {sums[s][twice] for s in span}
    return True


def _compose(t: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The table of t after h."""
    return tuple(map(t.__getitem__, h))


class FramedCap:
    """A cap R that spans F_3^n, with the coordinates of its points in an
    affine frame r_0, ..., r_n drawn from R: p = r_0 + sum c_i (r_i - r_0).
    The frame is greedy in point order: r_0 is the least point and each
    r_i the least one outside the affine span of those before it.  A
    normalized cap (see capsearch._Walker) holds 0 and opens each
    coordinate with its unit vector, so its frame is 0, 3^0, ...,
    3^(n-1) and the coordinates of a point are its base-3 digits, last
    digit first.

    certificates(cap) finds every affine map g that sends R onto cap.
    Such a g sends the frame to a frame of cap, so it is enough to try
    every b_0 in cap and every ordered n-tuple b_1, ..., b_n of other
    points of cap: map each coordinate vector c of R to
    b_0 + sum c_i (b_i - b_0), stopping at the first image outside cap.
    The tuples are built one b_j at a time, in the order of
    itertools.permutations, and a point whose last nonzero coordinate is
    c_j is mapped as soon as b_j is chosen, so a prefix that sends one
    outside cap rules out all its completions at once.  A full match
    whose b_i - b_0 are linearly independent is an invertible affine map
    that sends R onto cap; its image frame (b_0, ..., b_n) is the
    certificate.  certificate(cap) is the first one, or None.
    frames_tried counts the n-tuples tried or ruled out over every call,
    stabilizer's included.
    """

    def __init__(self, points: tuple[int, ...], n: int):
        sums = self.sums = _vector_sums(n)
        self.points = points
        self.n = n
        self.frames_tried = 0
        origin = points[0]
        minus_origin = sums[origin][origin]  # -x = x + x in F_3
        frame = [origin]
        span = {0: ()}  # difference from r_0 -> its coordinates so far
        for p in points[1:]:
            d = sums[p][minus_origin]
            if len(frame) <= n and d not in span:
                frame.append(p)
                steps = (0, d, sums[d][d])
                span = {sums[s][step]: c + (j,)
                        for s, c in span.items()
                        for j, step in enumerate(steps)}
        if len(frame) <= n:
            raise ValueError(f"the set does not span F_3^{n} affinely")
        self.frame = tuple(frame)
        # every difference from r_0, that is every vector, -> its coordinates
        self.span = span
        # per point off the frame, its nonzero coordinates as (i, c_i)
        self.coords = tuple(
            tuple((i, c) for i, c in enumerate(span[sums[p][minus_origin]])
                  if c)
            for p in points if p not in frame)
        # per i < n, the coordinates of those whose last nonzero one is c_i
        self.checks = tuple([] for _ in range(n))
        for coords in self.coords:
            self.checks[coords[-1][0]].append(coords)

    def certificates(self, cap: tuple[int, ...]):
        """The image of the frame under each affine map sending R onto
        cap, in the order the frames are tried."""
        if len(cap) != len(self.points):
            return
        members = set(cap)
        for origin in cap:
            yield from self._certificates_from(origin, cap, members)

    def _certificates_from(self, origin: int, cap: tuple[int, ...],
                           members: set[int]):
        """The certificates onto cap with b_0 = origin, in order."""
        sums = self.sums
        minus_origin = sums[origin][origin]
        step = {}
        for b in cap:
            d = sums[b][minus_origin]
            step[b] = (0, d, sums[d][d])
        others = [b for b in cap if b != origin]
        return self._frames(origin, others, members, step, [], [])

    def _frames(self, origin, others, members, step, images, steps):
        """Each certificate (b_0, ..., b_n) with b_0 = origin that extends
        the images b_1, ..., b_j chosen so far, whose steps
        (0, b - b_0, 2(b - b_0)) are in steps."""
        sums = self.sums
        j = len(images)
        if j == self.n:
            self.frames_tried += 1
            if _independent(sums, [d for _, d, _ in steps]):
                yield (origin, *images)
            return
        ruled_out = perm(len(others) - j - 1, self.n - j - 1)
        for b in others:
            if b in images:
                continue
            images.append(b)
            steps.append(step[b])
            for coords in self.checks[j]:
                image = origin
                for i, c in coords:
                    image = sums[image][steps[i][c]]
                if image not in members:
                    self.frames_tried += ruled_out
                    break
            else:
                yield from self._frames(origin, others, members, step,
                                        images, steps)
            images.pop()
            steps.pop()

    def certificate(self, cap: tuple[int, ...]) -> tuple[int, ...] | None:
        """The image of the frame under an affine map sending R onto cap,
        or None if no affine map does."""
        return next(self.certificates(cap), None)

    def affine_map(self, image: tuple[int, ...]) -> tuple[int, ...]:
        """The affine map g sending r_i to image[i] for every i, as the
        table of g(0), g(1), ..., g(3^n - 1): g(x) = g(0) + sum_j x_j u_j,
        with u_j = g(e_j) - g(0) for the unit vector e_j = 3^j."""
        sums = self.sums
        origin = image[0]
        minus_origin = sums[origin][origin]
        steps = []
        for b in image[1:]:
            d = sums[b][minus_origin]
            steps.append((0, d, sums[d][d]))
        minus_r0 = sums[self.frame[0]][self.frame[0]]

        def g(x: int) -> int:
            y = origin
            for step, c in zip(steps, self.span[sums[x][minus_r0]]):
                y = sums[y][step[c]]
            return y

        table = [g(0)]
        minus_t = sums[table[0]][table[0]]
        for j in range(self.n):
            u = sums[g(3**j)][minus_t]
            table = [sums[y][w] for w in (0, u, sums[u][u]) for y in table]
        return tuple(table)

    def _checked(self, g: tuple[int, ...], members: set[int],
                 image: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """g, once it is a bijection that sends R onto R and, if image is
        given, the frame to image; otherwise ArithmeticError."""
        if (len(set(g)) != len(g)
                or (image is not None
                    and tuple(g[r] for r in self.frame) != image)
                or set(map(g.__getitem__, self.points)) != members):
            raise ArithmeticError(f"a map built for {self.points} onto "
                                  f"itself is no affine automorphism")
        return g

    def stabilizer(self) -> tuple[tuple[int, ...], ...]:
        """Every affine map of F_3^n sending R onto itself, as point
        tables: first the group H of those that fix r_0, in certificate
        order, then for each other point o of R in turn, those that send
        r_0 to o.

        Only H takes a full frame search, the one with b_0 = r_0.  For
        o != r_0 the search stops at the first certificate with b_0 = o;
        if there is none, no map sends r_0 to o.  If t is that
        certificate's map, the maps g with g(r_0) = o are exactly t h
        for h in H, since t^(-1) g fixes r_0.  Each table is affine by
        construction and is checked before it is returned: it is a
        bijection and sends R onto R, and one built from a certificate
        also sends the frame to that certificate.
        """
        points = self.points
        members = set(points)
        origin = self.frame[0]
        fixing = tuple(
            self._checked(self.affine_map(image), members, image)
            for image in self._certificates_from(origin, points, members))
        maps = list(fixing)
        for o in points:
            if o == origin:
                continue
            image = next(self._certificates_from(o, points, members), None)
            if image is not None:
                t = self._checked(self.affine_map(image), members, image)
                maps += (self._checked(_compose(t, h), members)
                         for h in fixing)
        return tuple(maps)


def _slice_shift(h: tuple[int, ...], c: int,
                 sums: list[list[int]]) -> list[int]:
    """The row of sums that adds -c h(0): the lift of h (see lift) sends
    (c, y) to (c, row[h(y)])."""
    t = h[0]
    return sums[(0, sums[t][t], t)[c]]


def lift(h: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The map (x_1, y) -> (x_1, h(y) - x_1 h(0)) of F_3^n, for an affine
    map h of F_3^(n-1) given as a point table.  It is affine, acts as h
    on the slice x_1 = 0, keeps each slice x_1 = c in place and fixes
    e_1 = (1, 0, ..., 0)."""
    w = 3**(n - 1)
    sums = _vector_sums(n - 1)
    table = []
    for c in range(3):
        row = _slice_shift(h, c, sums)
        table += (c * w + row[y] for y in h)
    return tuple(table)


def orbit_group(maps, n: int) -> tuple[tuple[int, int], ...]:
    """The group of an extension walk of F_3^n (see capsearch._Walker)
    from the affine maps of F_3^(n-1) onto its representative: per map
    but the identity, the point masks (fixed, lower) of its lift (see
    lift), on the slices x_1 = 1 and 2 only.  Every candidate of the
    walk lies there, and the lift is the identity there only for the
    identity map, since slice 1 holds its linear part and slice 2 then
    its translation."""
    w = 3**(n - 1)
    sums = _vector_sums(n - 1)
    bits = [1 << y for y in range(w)]
    group = []
    for h in maps:
        fixed = lower = 0
        for c in (1, 2):
            row = _slice_shift(h, c, sums)
            fixed_c = lower_c = 0
            for y, bit in enumerate(bits):
                z = row[h[y]]
                if z == y:
                    fixed_c |= bit
                elif z < y:
                    lower_c |= bit
            fixed |= fixed_c << c * w
            lower |= lower_c << c * w
        if lower:
            group.append((fixed, lower))
    return tuple(group)
