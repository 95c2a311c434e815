"""The stable locus of the zero fiber, counted by brute force on numpy.

count_stable_fiber is the one oracle that needs numpy, and no command runs
it; it lives apart from fflab so that the verify commands neither load nor
compile it, and it imports numpy only when it is called.  It shares the
moment forms (_moment_system) and the budget rules with fflab.
"""

from __future__ import annotations

from typing import Sequence

from .fflab import DEFAULT_BUDGET, EnumerationBudgetError, _moment_system, _require_prime
from .quiver import Quiver, check_dim_vector, dim_rep_space

# Phi points per batched elimination, and points per vectorized stability
# test.
STABLE_BATCH = 1 << 16


def _batch_echelon(mat: np.ndarray, q: int, ncols: int):
    """Reduced row-echelon form of a batch of matrices over the q-element field.

    mat has shape (N, m, cols); pivots are taken in the first ncols columns
    only, so trailing columns ride along as right-hand sides.  Returns
    (echelon, rank, pivots) where pivots[n, r] is the pivot column of row r
    of system n, or -1 at and beyond its rank.
    """
    import numpy as np
    aug = (mat % q).astype(np.int32)
    n_sys, m, _ = aug.shape
    row = np.zeros(n_sys, dtype=np.int64)
    pivots = np.full((n_sys, m), -1, dtype=np.int64)
    if m == 0:
        return aug, row, pivots
    inv_table = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int32)
    rows_idx = np.arange(m)
    sys_idx = np.arange(n_sys)
    for col in range(ncols):
        eligible = (aug[:, :, col] != 0) & (rows_idx[None, :] >= row[:, None])
        has = eligible.any(axis=1)
        if not has.any():
            continue
        piv = np.argmax(eligible, axis=1)
        r0 = np.minimum(row, m - 1)  # clamp for systems whose rows are all used up
        row_a = aug[sys_idx, r0, :].copy()
        row_b = aug[sys_idx, piv, :].copy()
        aug[sys_idx[has], r0[has], :] = row_b[has]
        aug[sys_idx[has], piv[has], :] = row_a[has]
        pivot_vals = aug[sys_idx, r0, col]
        normalized = (aug[sys_idx, r0, :] * inv_table[pivot_vals][:, None]) % q
        aug[sys_idx[has], r0[has], :] = normalized[has]
        pivot_rows = aug[sys_idx, r0, :]
        targets = (rows_idx[None, :] != r0[:, None]) & has[:, None]
        factors = aug[:, :, col] * targets
        aug = (aug - factors[:, :, None] * pivot_rows[:, None, :]) % q
        pivots[sys_idx[has], r0[has]] = col
        row += has
    return aug, row, pivots


def _stability_layout(quiver: Quiver, v, w):
    """Where the doubled-quiver operators and framing images sit in a point.

    A point is the phi vector followed by the psi vector.  Returns index
    arrays (op, pos, row, col) placing entry pos as entry (row, col) of
    operator op on the total space V = sum of the V_i, for the phi arrows
    V_s -> V_t and then their psi duals V_t -> V_s; and (gen, pos, row)
    placing entry pos as coordinate row of framing image gen; then the
    operator count, dim V and the image count.  The psi framing maps
    V_i -> W_i play no part in stability.
    """
    import numpy as np
    voff = [sum(v[:i]) for i in range(quiver.vertex_count)]
    woff = [sum(w[:i]) for i in range(quiver.vertex_count)]
    ops: list[tuple[int, int, int, int]] = []
    gens: list[tuple[int, int, int]] = []
    pos = 0
    for e, (s, t) in enumerate(quiver.arrows):
        for a in range(v[t]):
            for b in range(v[s]):
                ops.append((e, pos, voff[t] + a, voff[s] + b))
                pos += 1
    for i in range(quiver.vertex_count):
        for a in range(v[i]):
            for b in range(w[i]):
                gens.append((woff[i] + b, pos, voff[i] + a))
                pos += 1
    na = len(quiver.arrows)
    for e, (s, t) in enumerate(quiver.arrows):
        for a in range(v[s]):
            for b in range(v[t]):
                ops.append((na + e, pos, voff[s] + a, voff[t] + b))
                pos += 1
    return (
        np.array(ops, dtype=np.int64).reshape(-1, 4).T,
        np.array(gens, dtype=np.int64).reshape(-1, 3).T,
        (2 * na, sum(v), sum(w)),
    )


def _generates(points: np.ndarray, layout, q: int) -> np.ndarray:
    """Per point, whether the framing images generate V under the operators.

    Grows the span of the framing images by the operators' images; a point
    drops out once its span stops growing or reaches dimension n, and is
    stable when its span has dimension n.
    """
    import numpy as np
    (op, opos, orow, ocol), (gen, gpos, grow), (n_ops, n, n_gens) = layout
    n_pts = points.shape[0]
    mats = np.zeros((n_pts, n_ops, n, n), dtype=np.int64)
    mats[:, op, orow, ocol] = points[:, opos]
    span = np.zeros((n_pts, n_gens, n), dtype=np.int64)
    span[:, gen, grow] = points[:, gpos]
    span, rank, _ = _batch_echelon(span, q, n)
    live = np.flatnonzero(rank < n)
    span = span[live, :n]
    while live.size:
        images = np.einsum("pkij,prj->pkri", mats[live], span)
        images = images.reshape(live.size, n_ops * span.shape[1], n)
        span, grown, _ = _batch_echelon(np.concatenate((span, images), axis=1), q, n)
        growing = (grown > rank[live]) & (grown < n)
        rank[live] = grown
        live, span = live[growing], span[growing, :n]
    return rank == n


def _echelon_psi_systems(mats, q: int, d: int):
    """The homogeneous moment systems in psi, eliminated STABLE_BATCH phi at a time.

    Yields (phi, echelon, rank, pivots) per chunk, as _batch_echelon gives
    them for the systems psi -> (phi M psi for each basis matrix M); phi
    holds the base-q digits of the chunk's indices, one point per row.
    """
    import numpy as np
    mats = [np.array(M, dtype=np.int32).reshape(d, d) for M in mats]
    n_phi = q**d
    for start in range(0, n_phi, STABLE_BATCH):
        idx = np.arange(start, min(start + STABLE_BATCH, n_phi), dtype=np.int64)
        phi = np.empty((idx.size, d), dtype=np.int32)
        for col in range(d):
            idx, phi[:, col] = np.divmod(idx, q)
        systems = np.empty((phi.shape[0], len(mats), d), dtype=np.int32)
        for k, M in enumerate(mats):
            systems[:, k, :] = (phi @ M) % q
        yield (phi, *_batch_echelon(systems, q, d))


def _null_basis(echelon: np.ndarray, pivots: np.ndarray, q: int) -> np.ndarray:
    """Null-space bases of a batch of systems in reduced echelon form.

    Returns shape (N, d, d): the first d - rank rows of entry n span the
    solutions of system n, one row per free column.
    """
    import numpy as np
    n_sys, _, d = echelon.shape
    lifted = np.zeros((n_sys, d, d), dtype=np.int32)
    is_pivot = np.zeros((n_sys, d), dtype=bool)
    sys_i, row_i = np.nonzero(pivots >= 0)
    cols = pivots[sys_i, row_i]
    lifted[sys_i, cols] = echelon[sys_i, row_i]
    is_pivot[sys_i, cols] = True
    # the solution with a 1 at free column f has -R[r, f] at each pivot column p_r
    basis = (np.eye(d, dtype=np.int32)[None] - lifted.transpose(0, 2, 1)) % q
    order = np.argsort(is_pivot, axis=1, kind="stable")
    return np.take_along_axis(basis, order[:, :, None], axis=1)


def count_stable_fiber(
    quiver: Quiver,
    v: Sequence[int],
    w: Sequence[int],
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Theta-stable points of the zero fiber of the moment map.

    A point (phi, psi) of the fiber over 0 is stable when the images of the
    framing maps W_i -> V_i generate V under every arrow of the doubled
    quiver, the phi arrow matrices and their psi duals.  The group acts
    freely on this locus and the quotient is the quiver variety, so the
    count is the group order times the variety's point count over every
    field, small characteristic included.

    Enumerates phi in chunks and eliminates each phi's homogeneous moment
    system in psi.  A first pass sums q^nullity over phi, the zero-fiber
    size, and raises EnumerationBudgetError when it or the phi count exceeds
    the budget; the second pass walks each chunk's psi null spaces as one
    index range and tests stability in vectorized batches.  Memory stays
    within one chunk, at the cost of eliminating every phi twice.
    """
    import numpy as np
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    _require_prime(q)
    d = dim_rep_space(quiver, v, w)
    n_phi = q**d
    if n_phi > budget:
        raise EnumerationBudgetError(n_phi, budget, "stable-fiber phi enumeration")
    mats, _ = _moment_system(quiver, v, w, q)
    zero_fiber = sum(
        int(np.power(q, d - rank, dtype=np.int64).sum())
        for _, _, rank, _ in _echelon_psi_systems(mats, q, d)
    )
    if zero_fiber > budget:
        raise EnumerationBudgetError(zero_fiber, budget, "zero-fiber enumeration")
    layout = _stability_layout(quiver, v, w)
    total = 0
    for phi, echelon, rank, pivots in _echelon_psi_systems(mats, q, d):
        basis = _null_basis(echelon, pivots, q)
        run = np.power(q, d - rank, dtype=np.int64)
        run_end = np.cumsum(run)
        n_pts = int(run_end[-1])
        for start in range(0, n_pts, STABLE_BATCH):
            idx = np.arange(start, min(start + STABLE_BATCH, n_pts), dtype=np.int64)
            owner = np.searchsorted(run_end, idx, side="right")
            # the base-q digits of the offset within the owner's run are the
            # coefficients of psi in the owner's null-space basis
            digits = idx - (run_end[owner] - run[owner])
            psi = np.zeros((idx.size, d), dtype=np.int64)
            for row in range(d):
                psi += (digits % q)[:, None] * basis[owner, row]
                digits //= q
            points = np.concatenate((phi[owner], psi % q), axis=1)
            total += int(_generates(points, layout, q).sum())
    return total
