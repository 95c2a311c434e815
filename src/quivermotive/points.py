"""The stable-locus count of the zero fiber.

count_stable_fiber counts the theta-stable points of the zero fiber, the
count acceptance criterion 2 compares with class times group order.  No
command runs it, so it lives apart from fflab and the verify and selftest
commands do not compile it.  It runs on fflab's moment forms, orbits and
eliminations; its span closures (_close_span) work on plain lists of field
elements.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .fflab import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    _arrow_orbits,
    _digits_of,
    _echelon_mod,
    _fiber_count,
    _matrices,
    _phi_shapes,
    _psi_shapes,
    _require_prime,
)
from .quiver import Quiver, check_dim_vector, dim_rep_space


def _close_span(basis, vectors, ops, q: int, n: int):
    """Extend basis by vectors and by the images under ops of each row it gains, up to n rows.

    basis holds (pivot, row) pairs, each row 0 at the pivots before it and 1
    at its own, and its rows' images are not taken; ops are n x n matrices.
    """
    basis, stack = list(basis), list(vectors)
    while stack and len(basis) < n:
        vec = stack.pop()
        for p, row in basis:
            c = vec[p]
            if c:
                vec = [(x - c * y) % q for x, y in zip(vec, row)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is not None:
            unit = pow(vec[pivot], -1, q)
            vec = [x * unit % q for x in vec]
            basis.append((pivot, vec))
            if len(basis) < n:
                stack += [[sum(map(mul, row, vec)) % q for row in M] for M in ops]
    return basis


def _line_points(q: int, m: int):
    """(index, weight) for 0, weight 1, and for each line through 0 of F_q^m, weight q - 1.

    A line's index is the base-q digits (_digits_of) of its point with top nonzero digit 1.
    """
    yield 0, 1
    for k in range(m):
        for index in range(q**k, 2 * q**k):
            yield index, q - 1


def count_stable_fiber(
    quiver: Quiver, v: Sequence[int], w: Sequence[int], q: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Theta-stable points of the zero fiber of the moment map.

    A point (phi, psi) of the fiber over 0 is stable when the images of the
    framing maps W_i -> V_i generate V under the phi arrows and their psi
    duals.  The group acts freely on this locus with the quiver variety as
    quotient, so the count is the group order times the variety's point
    count over every field, small characteristic included.

    The budget bounds the phi points, then the zero-fiber points (counted
    as count_moment_fiber counts them), both refused before any stability
    test.  The moment forms and the arrow orbits are built once, for the
    zero-fiber count and the stability pass.  Stability and the moment map
    are G_v-invariant and g maps the psi solutions of phi onto those of
    g phi, so one arrow part per G_v-orbit (_arrow_orbits) is taken,
    weighted by the orbit size.  Scalars in G_v scale the framing,
    psi solutions scale, and neither changes the span stability closes, so
    both run over one point per line (_line_points).  Each phi's system in
    psi, a row per moment form, is eliminated (_echelon_mod) psi framing
    first: the rows that pivot later cut out the solutions' projection onto
    the psi arrows, which stability alone reads, each projected point
    standing for q^(nullity - projected rank) solutions.  The framing
    images close under the phi arrows to U0 (_close_span).  If U0 is V
    every solution is stable; else the closure runs once per projected
    point, one per line through 0.
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    _require_prime(q)
    d = dim_rep_space(quiver, v, w)
    if q**d > budget:
        raise EnumerationBudgetError(q**d, budget, "stable-fiber phi enumeration")
    orbits = _arrow_orbits(quiver, v, q)
    zero_fiber, forms = _fiber_count(quiver, v, w, 0, q, budget, "auto", orbits)
    if zero_fiber > budget:
        raise EnumerationBudgetError(zero_fiber, budget, "zero-fiber enumeration")
    na, n, n_frame = len(quiver.arrows), sum(v), sum(map(mul, v, w))
    n_arrow = d - n_frame
    start = [sum(v[:i]) for i in range(quiver.vertex_count)]
    phi_shapes, psi_shapes = _phi_shapes(quiver, v, w), _psi_shapes(quiver, v, w)

    def operators(vec, dual):  # the arrows in vec as n x n matrices, psi's mapping V_t to V_s
        ops, shapes = [], psi_shapes if dual else phi_shapes
        for E, (s, t) in zip(_matrices(vec, shapes[:na]), quiver.arrows):
            src, dst = (start[t], start[s]) if dual else (start[s], start[t])
            ops.append([[0] * n for _ in range(n)])
            for r, row in enumerate(E):
                ops[-1][dst + r][src : src + len(row)] = row
        return ops

    total = 0
    for rep, size in zip(*orbits):
        arrows = _digits_of(rep, q, n_arrow)
        phi_ops = operators(arrows, False)
        for f, f_weight in _line_points(q, n_frame):
            phi = arrows + _digits_of(f, q, n_frame)
            images = [
                [0] * start[i] + list(column) + [0] * (n - start[i] - v[i])
                for i, F in enumerate(_matrices(phi, phi_shapes)[na:])
                for column in zip(*F)
            ]
            closed = _close_span([], images, phi_ops, q, n)
            if n and not closed:
                continue  # no framing image, so nothing is stable
            rows = []
            for terms in forms:  # psi's columns rotated, its framing first
                row = [0] * d
                for a, b, m in terms:
                    row[(b - n_arrow) % d] += phi[a] * m
                rows.append([x % q for x in row])
            echelon, pivots = _echelon_mod(rows, q, d)
            if len(closed) == n:
                total += size * f_weight * q ** (d - len(pivots))
                continue
            cut = {p - n_frame: row[n_frame:] for p, row in zip(pivots, echelon) if p >= n_frame}
            free = [c for c in range(n_arrow) if c not in cut]
            # each psi arrow coordinate in terms of the free ones
            solve = [[-cut[k][c] % q if k in cut else int(k == c) for c in free] for k in range(n_arrow)]
            lift = size * f_weight * q ** (n_frame - len(pivots) + len(cut))
            for x, x_weight in _line_points(q, len(free)):
                values = _digits_of(x, q, len(free))
                ops = operators([sum(map(mul, row, values)) % q for row in solve], True)
                images = [[sum(map(mul, row, u)) % q for row in M] for _, u in closed for M in ops]
                if len(_close_span(closed, images, phi_ops + ops, q, n)) == n:
                    total += lift * x_weight
    return total
