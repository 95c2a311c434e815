"""Brute-force oracles over prime fields.

Everything here is deliberately independent of the L-polynomial engine:
moment-map fiber counts come from explicit enumeration of matrix tuples
(the phi half taken one symmetry orbit at a time, the orbits themselves
found and measured by enumeration), centralizer orders from scanning every
matrix of the commutant, kernel dimensions from exact rank over the
rationals (taken once per distinct arrow and framing block), and character
sums are tracked as integer count vectors over powers of a fixed p-th root
of unity.  Comparisons with the engine are therefore exact, with no
floating point anywhere.

The matrix of the derived action rho'(X) is built in one place, as integer
rows per arrow and framing block (_arrow_rows, _framing_rows), for the
kernel ranks, the commutant of a Jordan nilpotent and the moment forms;
apply_rho_derivative computes the same action by explicit matrix products.

The moment-map condition is evaluated against the elementary-matrix basis of
the symmetry Lie algebra through its defining pairing, never through an
explicit coordinate formula, which keeps sign conventions out of the code.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .partitions import Partition
from .quiver import InputError, Quiver, _Record, check_dim_vector, dim_group, dim_rep_space

DEFAULT_BUDGET = 1 << 26
# Above this many points the automatic strategy stops enumerating full
# (phi, psi) pairs and enumerates phi only, counting psi solutions exactly.
FULL_ENUMERATION_CAP = 1 << 20
CENTRALIZER_BUDGET = 1 << 20
# phi vectors per batched elimination of their psi systems.
PHI_CHUNK = 1 << 15
# Points per vectorized stability test in count_stable_fiber.
STABLE_BATCH = 1 << 16


class EnumerationBudgetError(RuntimeError):
    """An oracle would need more enumerated points than the budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} needs {needed} points, budget is {budget}")


def _require_prime(q: int) -> int:
    if q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise InputError(f"field size must be prime, got {q}")
    return q


def group_order(v: Sequence[int], q: int) -> int:
    """Order of the product of general linear groups over the q-element field."""
    _require_prime(q)
    total = 1
    for n in v:
        n = int(n)
        for j in range(n):
            total *= q**n - q**j
    return total


# ---------------------------------------------------------------------------
# Representation points and the derived action

def _phi_shapes(quiver: Quiver, v, w) -> list[tuple[int, int]]:
    shapes = [(v[t], v[s]) for s, t in quiver.arrows]
    shapes.extend((v[i], w[i]) for i in range(quiver.vertex_count))
    return shapes


def _psi_shapes(quiver: Quiver, v, w) -> list[tuple[int, int]]:
    shapes = [(v[s], v[t]) for s, t in quiver.arrows]
    shapes.extend((w[i], v[i]) for i in range(quiver.vertex_count))
    return shapes


def _as_matrix(m, rows: int, cols: int, what: str) -> tuple[tuple[int, ...], ...]:
    m = tuple(tuple(int(x) for x in row) for row in m)
    if len(m) != rows or any(len(row) != cols for row in m):
        raise ValueError(f"{what} must be {rows}x{cols}")
    return m


def _zero_matrix(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * cols for _ in range(rows))


def _mat_mul(a, b, rows: int, inner: int, cols: int):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_mod(a, p: int):
    return tuple(tuple(x % p for x in row) for row in a)


def _trace_of_product(b, a) -> int:
    # tr(b . a) without forming the product; works for empty shapes.
    return sum(b[i][j] * a[j][i] for i in range(len(b)) for j in range(len(b[i]) if b else 0))


class FpPoint(_Record):
    """A point of the doubled representation space: matrices and their duals.

    Arrow entries are target x source; dual entries have transposed shapes.
    """

    __slots__ = ("phi_arrows", "phi_framing", "psi_arrows", "psi_framing")

    def __init__(
        self, phi_arrows: tuple, phi_framing: tuple, psi_arrows: tuple, psi_framing: tuple
    ):
        self._init(phi_arrows, phi_framing, psi_arrows, psi_framing)

    @classmethod
    def build(cls, quiver: Quiver, v, w, phi_arrows, phi_framing, psi_arrows, psi_framing):
        v = check_dim_vector(quiver, v, "v")
        w = check_dim_vector(quiver, w, "w")
        pshapes = _phi_shapes(quiver, v, w)
        dshapes = _psi_shapes(quiver, v, w)
        na = len(quiver.arrows)
        pa = tuple(
            _as_matrix(m, *pshapes[i], what=f"phi for arrow {i}") for i, m in enumerate(phi_arrows)
        )
        pf = tuple(
            _as_matrix(m, *pshapes[na + i], what=f"phi framing at vertex {i}")
            for i, m in enumerate(phi_framing)
        )
        da = tuple(
            _as_matrix(m, *dshapes[i], what=f"psi for arrow {i}") for i, m in enumerate(psi_arrows)
        )
        df = tuple(
            _as_matrix(m, *dshapes[na + i], what=f"psi framing at vertex {i}")
            for i, m in enumerate(psi_framing)
        )
        if len(pa) != na or len(da) != na or len(pf) != quiver.vertex_count or len(df) != quiver.vertex_count:
            raise ValueError("wrong number of matrix components")
        return cls(pa, pf, da, df)


def apply_rho_derivative(quiver: Quiver, v, w, X, phi, modulus: int | None = None):
    """Derived action of a Lie-algebra element on a representation point.

    X is one square matrix per vertex; phi is a pair (arrow matrices,
    framing matrices).  Returns the image in the same shape: for an arrow
    s -> t the component is X_t . phi_e - phi_e . X_s, for a framing it is
    X_i . phi_i.
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    X = tuple(_as_matrix(m, v[i], v[i], what=f"X at vertex {i}") for i, m in enumerate(X))
    if len(X) != quiver.vertex_count:
        raise ValueError("X needs one matrix per vertex")
    arrows_in, framing_in = phi
    shapes = _phi_shapes(quiver, v, w)
    na = len(quiver.arrows)
    arrows_in = tuple(
        _as_matrix(m, *shapes[i], what=f"phi for arrow {i}") for i, m in enumerate(arrows_in)
    )
    framing_in = tuple(
        _as_matrix(m, *shapes[na + i], what=f"phi framing at vertex {i}")
        for i, m in enumerate(framing_in)
    )
    image = _rho_products(quiver, v, w, X, arrows_in, framing_in)
    if modulus is not None:
        image = tuple(tuple(_mat_mod(m, modulus) for m in part) for part in image)
    return image


def _rho_products(quiver: Quiver, v, w, X, arrows_in, framing_in):
    """apply_rho_derivative's matrix products, without its checks or modulus."""
    out_arrows = []
    for e, (s, t) in enumerate(quiver.arrows):
        left = _mat_mul(X[t], arrows_in[e], v[t], v[t], v[s])
        right = _mat_mul(arrows_in[e], X[s], v[t], v[s], v[s])
        out_arrows.append(_mat_sub(left, right))
    out_framing = [
        _mat_mul(X[i], framing_in[i], v[i], v[i], w[i]) for i in range(quiver.vertex_count)
    ]
    return tuple(out_arrows), tuple(out_framing)


def moment_pairing(quiver: Quiver, v, w, point: FpPoint, X, modulus: int | None = None) -> int:
    """Trace pairing of the derived action on the phi half against the psi half."""
    arrows, framing = apply_rho_derivative(
        quiver, v, w, X, (point.phi_arrows, point.phi_framing)
    )
    total = sum(_trace_of_product(point.psi_arrows[e], arrows[e]) for e in range(len(arrows)))
    total += sum(
        _trace_of_product(point.psi_framing[i], framing[i]) for i in range(len(framing))
    )
    return total % modulus if modulus is not None else total


# ---------------------------------------------------------------------------
# Moment-map fiber counting

def _lie_basis(quiver: Quiver, v) -> list[tuple[tuple, bool]]:
    """Elementary-matrix basis of the symmetry Lie algebra.

    Yields (X, on_diagonal) where on_diagonal marks unit trace against the
    identity-trace functional.
    """
    basis = []
    for i, n in enumerate(v):
        for a, b in product(range(n), repeat=2):
            X = [_zero_matrix(m, m) for m in v]
            X[i] = tuple(tuple(int((r, c) == (a, b)) for c in range(n)) for r in range(n))
            basis.append((tuple(X), a == b))
    return basis


def _matrices(vec, shapes) -> list[tuple[tuple[int, ...], ...]]:
    """Cut a flat vector into consecutive row-major matrices of the given (rows, cols)."""
    mats = []
    pos = 0
    for rows, cols in shapes:
        mats.append(tuple(tuple(vec[pos + r * cols : pos + (r + 1) * cols]) for r in range(rows)))
        pos += rows * cols
    return mats


def _unflatten_phi(quiver: Quiver, v, w, vec):
    mats = _matrices(vec, _phi_shapes(quiver, v, w))
    na = len(quiver.arrows)
    return tuple(mats[:na]), tuple(mats[na:])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-d arrays: vec(A E B^T) = kron(A, B) vec(E), row-major."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _block_diagonal(blocks) -> np.ndarray:
    d = sum(len(b) for b in blocks)
    out = np.zeros((d, d), dtype=np.int64)
    pos = 0
    for b in blocks:
        out[pos : pos + len(b), pos : pos + len(b)] = b
        pos += len(b)
    return out


def _framing_rows(X_i, w_i: int) -> list[list[int]]:
    """Rows of the block of rho'(X) on a framing: E -> X_i . E for row-major E with w_i columns.

    The row of entry (a, b) holds X_i[a] at the columns of the entries (c, b).
    """
    rows = [[0] * (len(X_i) * w_i) for _ in range(len(X_i) * w_i)]
    for k, row in enumerate(rows):
        row[k % w_i :: w_i] = X_i[k // w_i]
    return rows


def _arrow_rows(X_t, X_s) -> list[list[int]]:
    """Rows of the block of rho'(X) on an arrow s -> t: E -> X_t . E - E . X_s, E row-major.

    The rows of E -> X_t . E, less column b of X_s at the entries (a, d) in
    the row of entry (a, b); Python ints, as the exact ranks need.
    """
    n_s = len(X_s)
    rows = _framing_rows(X_t, n_s)
    for k, row in enumerate(rows):
        a, b = divmod(k, n_s)
        for d in range(n_s):
            row[a * n_s + d] -= X_s[d][b]
    return rows


def _rho_matrix(quiver: Quiver, v, w, X) -> np.ndarray:
    """Integer matrix of phi -> rho'(X) phi in flattened phi coordinates.

    Column a is the image of the a-th unit phi vector, flattened like phi:
    components in arrow-then-framing order, each row-major.  The matrix is
    block diagonal with one block per phi component: _arrow_rows for each
    arrow, then _framing_rows for each vertex.
    """
    blocks = [_arrow_rows(X[t], X[s]) for s, t in quiver.arrows]
    blocks += [_framing_rows(X[i], w[i]) for i in range(quiver.vertex_count)]
    return _block_diagonal(blocks)


def _group_matrix(quiver: Quiver, v, w, g, g_inv) -> np.ndarray:
    """Integer matrix of phi -> g . phi in flattened phi coordinates.

    g is one invertible matrix per vertex and g_inv their inverses; laid out
    like _rho_matrix, the block of an arrow s -> t sends E to g_t . E . g_s^-1
    and the block of a framing sends E to g_i . E.
    """
    blocks = [_kron(g[t], g_inv[s].T) for s, t in quiver.arrows]
    blocks += [_kron(g[i], np.eye(w[i], dtype=np.int64)) for i in range(quiver.vertex_count)]
    return _block_diagonal(blocks)


def _psi_order(quiver: Quiver, v, w) -> np.ndarray:
    """The phi coordinate that each psi coordinate pairs with.

    A psi component has the transposed shape of its phi component, so psi
    entry (c, r) pairs with phi entry (r, c) under the trace pairing.
    """
    order = []
    pos = 0
    for rows, cols in _phi_shapes(quiver, v, w):
        order.extend(pos + r * cols + c for c in range(cols) for r in range(rows))
        pos += rows * cols
    return np.array(order, dtype=np.int64)


def _moment_system(quiver: Quiver, v, w, q: int):
    """Bilinear forms of the moment condition over the q-element field.

    Returns (mats, traces): for each Lie-algebra basis element a d x d
    integer matrix M with pairing value phi^T M psi, and the 0/1 trace of
    the basis element.
    """
    order = _psi_order(quiver, v, w)
    mats = []
    traces = []
    for X, diag in _lie_basis(quiver, v):
        # M[a, b] pairs the image of phi unit a with psi unit b
        mats.append((_rho_matrix(quiver, v, w, X)[order].T % q).astype(np.int32, order="C"))
        traces.append(1 if diag else 0)
    return mats, traces


def _digit_rows(q: int, d: int, start: int, stop: int) -> np.ndarray:
    """Base-q digit expansion of the index range, one point per row.

    The result is the transpose of a C-ordered (d, N) array, so each digit
    column is contiguous.
    """
    return _digits(np.arange(start, stop, dtype=np.int64), q, d)


def _digits(idx: np.ndarray, q: int, d: int) -> np.ndarray:
    """Base-q digit expansion of the given point indices, laid out as _digit_rows."""
    out = np.empty((d, idx.size), dtype=np.int32)
    for col in range(d):
        idx, out[col] = np.divmod(idx, q)
    return out.T


def _count_fiber_full(mats, targets, q: int, d: int) -> int:
    n_side = q**d
    psi = _digit_rows(q, d, 0, n_side)
    chunk = max(1, (1 << 22) // max(1, n_side))
    total = 0
    for start in range(0, n_side, chunk):
        phi = _digit_rows(q, d, start, min(start + chunk, n_side))
        acc = np.ones((phi.shape[0], n_side), dtype=bool)
        for M, t in zip(mats, targets):
            rows = (phi @ M) % q
            acc &= ((rows @ psi.T) % q) == t
        total += int(acc.sum())
    return total


def _echelon_mod(rows: list[list[int]], q: int, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of one system over the q-element field, in lists.

    The one-system counterpart of _batch_echelon, with the same row swaps
    and so the same rows, pivots taken in the first ncols columns only.
    Returns (rows, pivots) with pivots[r] the pivot column of row r.
    """
    rows = [[x % q for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        top = rows[rank] = [(x * inv) % q for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [(x - f * y) % q for x, y in zip(row, top)]
        pivots.append(col)
    return rows, pivots


def _solution_count_mod(rows: list[list[int]], targets: list[int], q: int, d: int) -> int:
    """Number of solutions of an affine system over the q-element field."""
    aug, pivots = _echelon_mod([row + [t] for row, t in zip(rows, targets)], q, d)
    if any(row[d] for row in aug[len(pivots) :]):
        return 0
    return q ** (d - len(pivots))


def _batch_echelon(mat: np.ndarray, q: int, ncols: int):
    """Reduced row-echelon form of a batch of matrices over the q-element field.

    mat has shape (N, m, cols); pivots are taken in the first ncols columns
    only, so trailing columns ride along as right-hand sides.  Returns
    (echelon, rank, pivots) where pivots[n, r] is the pivot column of row r
    of system n, or -1 at and beyond its rank.
    """
    aug = (mat % q).astype(np.int32)
    n_sys, m, _ = aug.shape
    row = np.zeros(n_sys, dtype=np.int64)
    pivots = np.full((n_sys, m), -1, dtype=np.int64)
    if m == 0:
        return aug, row, pivots
    inv_table = np.zeros(q, dtype=np.int32)
    for x in range(1, q):
        inv_table[x] = pow(x, -1, q)
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


def _batch_affine_counts(aug: np.ndarray, q: int) -> np.ndarray:
    """Solution counts for a batch of augmented systems over the q-element field.

    aug has shape (N, m, d+1) with targets in the last column; returns the
    per-system count q^(d - rank), or 0 where inconsistent.  Same answer as
    _solution_count_mod row by row, just eliminated in lockstep.
    """
    d = aug.shape[2] - 1
    aug, row, _ = _batch_echelon(aug, q, d)
    rows_idx = np.arange(aug.shape[1])
    tail_bad = ((rows_idx[None, :] >= row[:, None]) & (aug[:, :, d] != 0)).any(axis=1)
    counts = np.power(q, d - row, dtype=np.int64)
    counts[tail_bad] = 0
    return counts


def _gl_generators(n: int, q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generators of GL_n over the q-element field, each with its inverse.

    The permutation matrices of the transposition (1 2) and of the n-cycle
    give every permutation.  Conjugating the transvection I + E_12 by them
    and by diag(r, 1, ..., 1), for a primitive root r, gives every
    elementary transvection I + c E_ij, and these generate SL_n; the
    diagonal then reaches every determinant.  Generators equal to the
    identity or to one already listed are left out.
    """
    eye = np.eye(n, dtype=np.int64)
    root = next(r for r in range(1, q) if len({pow(r, k, q) for k in range(q - 1)}) == q - 1)
    gens = []
    if n and root != 1:
        g, g_inv = eye.copy(), eye.copy()
        g[0, 0], g_inv[0, 0] = root, pow(root, -1, q)
        gens.append((g, g_inv))
    if n >= 2:
        g, g_inv = eye.copy(), eye.copy()
        g[0, 1], g_inv[0, 1] = 1, q - 1
        swap = eye[[1, 0, *range(2, n)]]
        gens += [(g, g_inv), (swap, swap)]
    if n >= 3:
        cycle = eye[np.roll(np.arange(n), 1)]
        gens.append((cycle, cycle.T))
    return gens


def _phi_orbits(quiver: Quiver, v, w, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of G_v = prod GL(v_i) on the q^d phi points, by brute force.

    Returns (representatives, sizes): the smallest phi index of each orbit,
    ascending, and the number of phi indices in the orbit, counted.  The
    orbits are the connected components of the graph that joins each phi to
    its images under generators of every GL(v_i) (_gl_generators), each
    acting on flattened phi through its linear map (_group_matrix), which is
    checked to be invertible mod q and so to permute the phi indices.  The
    components come from min-label propagation over chunks of PHI_CHUNK phi.
    A pass takes each chunk's digits and generator images once, then relaxes
    the chunk's edges until nothing changes: each round lowers the labels of
    a phi and of each of its images to the smaller of the two, then moves
    every label of the chunk to the label it points at.  Another pass starts
    only if the space has more than one chunk and a label moved, since a
    relaxed chunk's labels can still fall through another chunk's edges; a
    space of one chunk is done after one pass.

    A generating set that is too small only splits orbits into finer
    pieces, on which a G_v-invariant quantity is still constant, so a count
    weighted by these sizes stays correct and only gets slower.  Memory: one
    int32 label per phi (int64 from 2^31 points on), besides arrays of one
    chunk: its digits and its images, generator steps x PHI_CHUNK int64
    (1 MiB for four steps).
    """
    d = dim_rep_space(quiver, v, w)
    n_phi = q**d
    place = q ** np.arange(d, dtype=np.int64)
    steps = []
    for i, n in enumerate(v):
        for g, g_inv in _gl_generators(n, q):
            elem = [np.eye(m, dtype=np.int64) for m in v]
            elem_inv = list(elem)
            elem[i], elem_inv[i] = g, g_inv
            forward = _group_matrix(quiver, v, w, elem, elem_inv)
            back = _group_matrix(quiver, v, w, elem_inv, elem)
            if not ((forward @ back) % q == np.eye(d, dtype=np.int64)).all():
                raise AssertionError(f"generator {g.tolist()} does not permute the phi points")
            # image digit c is row c of the map applied to the phi digits,
            # mod q; rows that copy one digit need no reduction and enter the
            # index through one weight vector, the few others one at a time
            forward %= q
            copies = (forward.sum(axis=1) == 1) & ((forward == 1).sum(axis=1) == 1)
            mixed = [
                (place[c], np.flatnonzero(forward[c]), forward[c][forward[c] != 0])
                for c in np.flatnonzero(~copies)
            ]
            steps.append((place[copies] @ forward[copies], mixed))
    label = np.arange(n_phi, dtype=np.int32 if n_phi < 1 << 31 else np.int64)
    chunks = range(0, n_phi, PHI_CHUNK)
    moved = True
    while moved:
        moved = False
        for start in chunks:
            digits = _digit_rows(q, d, start, min(start + PHI_CHUNK, n_phi)).T.astype(np.int64)
            images = []
            for copy_weights, mixed in steps:
                image = copy_weights @ digits
                for weight, cols, coeffs in mixed:
                    image += weight * ((coeffs @ digits[cols]) % q)
                images.append(image)
            own = label[start : start + PHI_CHUNK]  # a view: writes land in label
            changed = True
            while changed:
                changed = False
                for image in images:
                    theirs = label[image]
                    low = np.minimum(own, theirs)
                    changed |= bool((low < theirs).any() or (low < own).any())
                    label[image] = low  # a permutation's images are distinct
                    np.minimum(own, low, out=own)
                jumped = label[own]
                changed |= bool((jumped < own).any())
                own[...] = jumped
                moved |= changed
        # with one chunk its fixed point is the whole space's
        moved &= len(chunks) > 1
    reps = []
    for start in chunks:
        own = label[start : start + PHI_CHUNK]
        reps.append(start + np.flatnonzero(own == np.arange(start, start + own.size)))
    reps = np.concatenate(reps)
    sizes = np.zeros(reps.size, dtype=np.int64)
    for start in chunks:
        owner = np.searchsorted(reps, label[start : start + PHI_CHUNK])
        sizes += np.bincount(owner, minlength=reps.size)
    return reps, sizes


def _count_fiber_linear(quiver: Quiver, v, w, mats, targets, q: int, d: int, alpha: int) -> int:
    """Fiber count by eliminating the psi system of one phi per G_v-orbit.

    The moment map is G_v-equivariant and alpha times the identity is
    central, so g sends the psi solutions of phi onto those of g . phi:
    their number is constant on orbits and is weighted by the orbit size.
    """
    reps, sizes = _phi_orbits(quiver, v, w, q)
    goals = np.array([(alpha * t) % q for t in targets], dtype=np.int32)
    total = 0
    for start in range(0, reps.size, PHI_CHUNK):
        phi = _digits(reps[start : start + PHI_CHUNK], q, d)
        systems = np.empty((phi.shape[0], len(mats), d + 1), dtype=np.int32)
        for k, M in enumerate(mats):
            systems[:, k, :d] = (phi @ M) % q
            systems[:, k, d] = goals[k]
        counts = _batch_affine_counts(systems, q).tolist()
        total += sum(c * n for c, n in zip(counts, sizes[start : start + PHI_CHUNK].tolist()))
    return total


def count_moment_fiber(
    quiver: Quiver,
    v: Sequence[int],
    w: Sequence[int],
    alpha: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "auto",
) -> int:
    """Points of the moment-map fiber over alpha times the trace functional.

    A point is a (phi, psi) pair; it lies in the fiber when the moment
    pairing against every elementary basis element equals alpha times the
    basis element's trace.  Strategies:

    - "full": enumerate all q^(2 dim) pairs and test every condition;
    - "linear": split the q^dim phi half into G_v-orbits by brute force
      (_phi_orbits), count the psi solutions of one phi per orbit exactly
      from its affine-linear system, and weight each by the orbit size;
    - "auto": full while the pair count stays within both the budget and an
      internal cap, linear beyond that.

    Both strategies count the same set; the overlap is cross-checked in the
    test suite.  The budget bounds q^(2 dim) for "full" and q^dim, the phi
    points labelled by the orbit pass, for "linear".
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    _require_prime(q)
    d = dim_rep_space(quiver, v, w)
    pairs = q ** (2 * d)
    singles = q**d
    if strategy == "auto":
        strategy = "full" if pairs <= min(budget, FULL_ENUMERATION_CAP) else "linear"
    if strategy == "full":
        if pairs > budget:
            raise EnumerationBudgetError(pairs, budget, "full fiber enumeration")
    elif strategy == "linear":
        if singles > budget:
            raise EnumerationBudgetError(singles, budget, "fiber enumeration")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    mats, traces = _moment_system(quiver, v, w, q)
    if strategy == "full":
        goals = [(alpha * t) % q for t in traces]
        return _count_fiber_full(mats, goals, q, d)
    return _count_fiber_linear(quiver, v, w, mats, traces, q, d, alpha)


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
    """The homogeneous moment systems in psi, eliminated a chunk of phi at a time.

    Yields (phi, echelon, rank, pivots) per chunk, as _batch_echelon gives
    them for the systems psi -> (phi M psi for each basis matrix M).
    """
    n_phi = q**d
    for start in range(0, n_phi, PHI_CHUNK):
        phi = _digit_rows(q, d, start, min(start + PHI_CHUNK, n_phi))
        systems = np.empty((phi.shape[0], len(mats), d), dtype=np.int32)
        for k, M in enumerate(mats):
            systems[:, k, :] = (phi @ M) % q
        yield (phi, *_batch_echelon(systems, q, d))


def _null_basis(echelon: np.ndarray, pivots: np.ndarray, q: int) -> np.ndarray:
    """Null-space bases of a batch of systems in reduced echelon form.

    Returns shape (N, d, d): the first d - rank rows of entry n span the
    solutions of system n, one row per free column.
    """
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


# ---------------------------------------------------------------------------
# Centralizer orders and kernel dimensions

@lru_cache(maxsize=None)
def jordan_nilpotent(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """The nilpotent matrix in Jordan form with block sizes given by lam, cached on lam."""
    n = lam.size
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for part in lam.parts:
        for r in range(part - 1):
            rows[offset + r][offset + r + 1] = 1
        offset += part
    return tuple(tuple(r) for r in rows)


def _det_width(n: int, q: int):
    """The narrowest of int16, int32 and int64 holding _det_mod's minors for (n, q)."""
    return next((t for t in (np.int16, np.int32) if n * (q - 1) ** 2 <= np.iinfo(t).max), np.int64)


def _det_mod(entries: np.ndarray, n: int, q: int) -> np.ndarray:
    """Determinants mod q of a batch of small n x n matrices, by expansion.

    The batch is entry-major: entries[i * n + j] holds entry (i, j) of
    every matrix, one matrix per column, so each row is a contiguous
    vector.  The entries must lie in [0, q).  Laplace expansion along the
    rows with shared minors: after row r the determinant of rows 0..r on
    every set of r + 1 columns is known, and the next row extends each set
    by one column, which costs n 2^(n-1) products per matrix where the
    permutation sum costs n * n!.  The minors of row r are below
    bound = (r+1)! (q-1)^(r+1) in absolute value; held in the narrowest type
    that n (q-1)^2 fits (_det_width), they are reduced mod q only where the
    next row could leave it, so the result is exact whenever n (q-1)^2 < 2^63.
    """
    width = _det_width(n, q)
    limit = np.iinfo(width).max
    entries = entries.astype(width, copy=False)
    n_mat = entries.shape[1]
    minors = {(): np.ones(n_mat, dtype=width)}
    bound = 1
    for row in range(n):
        extended = {}
        for cols in combinations(range(n), row + 1):
            acc = np.zeros(n_mat, dtype=width)
            for pos, col in enumerate(cols):
                term = entries[row * n + col] * minors[cols[:pos] + cols[pos + 1 :]]
                if (row + pos) % 2:
                    acc -= term
                else:
                    acc += term
            extended[cols] = acc
        minors = extended
        bound *= (row + 1) * (q - 1)
        if (row + 2) * (q - 1) * bound > limit:
            minors = {cols: m % q for cols, m in minors.items()}
            bound = q - 1
    return minors[tuple(range(n))] % q


def centralizer_order(lam: Partition, q: int, budget: int = CENTRALIZER_BUDGET) -> int:
    """Invertible matrices commuting with the Jordan nilpotent J of type lam.

    The commuting matrices are the kernel of the commutator map
    vec(M) -> vec(J M - M J), the loop block of rho'(J) (_arrow_rows), one
    system eliminated in lists (_echelon_mod).
    Each of the q^k kernel elements is enumerated and counted when its
    determinant is nonzero, so the scan is still brute force over the
    commutant; the budget bounds q^k, the number of matrices scanned, and
    larger scans raise.  A kernel element's entries at the free columns of
    the elimination are its coefficients, so only the pivot entries are
    computed, each from the few coefficients its reduced row touches.
    """
    _require_prime(q)
    n = lam.size
    if n == 0:
        return 1
    J = jordan_nilpotent(lam)
    rows, pivot_cols = _echelon_mod(_arrow_rows(J, J), q, n * n)
    k = n * n - len(pivot_cols)
    need = q**k
    if need > budget:
        raise EnumerationBudgetError(need, budget, f"centralizer scan for {lam!r} at q={q}")
    free_cols = [c for c in range(n * n) if c not in pivot_cols]
    # row r says M[p_r] = sum of -R[r, f] M[f] over the free f it touches
    pivot_terms = []
    for p, row in zip(pivot_cols, rows):
        sources = [f for f in free_cols if row[f]]
        pivot_terms.append((p, sources, np.array([-row[f] % q for f in sources], dtype=np.int64)))
    # entries[c] holds entry c of the row-major vec(M), one matrix per
    # column, a block of at most 2^14 matrices at a time.  The free entries
    # are the coefficients: the first `low` run through all their values
    # within a block and are written once, the others are fixed per block,
    # so no index is split into digits
    low = 1
    while low < k and q ** (low + 1) <= 1 << 14:
        low += 1
    width = _det_width(n, q)
    entries = np.empty((n * n, q**low), dtype=width)
    entries[free_cols[:low]] = np.indices((q,) * low, dtype=width).reshape(low, -1)
    total = 0
    for high in product(range(q), repeat=k - low):
        entries[free_cols[low:]] = np.array(high, dtype=width).reshape(-1, 1)
        for p, sources, weights in pivot_terms:
            entries[p] = (weights @ entries[sources]) % q
        total += int(np.count_nonzero(_det_mod(entries, n, q)))
    return total


def _rank_rational(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    After k pivots every entry below the pivot rows is a (k+1)-minor of the
    input, so the division by the previous pivot is exact and everything
    stays in Python ints; the rows must hold Python ints and are left as
    they are.  A negative pivot's row is negated, as if its input row were:
    same rank, exact minors, and a pivot of -1 rescales no untouched row.
    """
    mat = list(rows)  # rows are replaced, never written in place
    if not mat:
        return 0
    rank, prev = 0, 1
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot_row = mat[rank]
        p = pivot_row[col]
        if p < 0:
            pivot_row, p = [-x for x in pivot_row], -p
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                mat[r] = [(p * x - f * y) // prev for x, y in zip(mat[r], pivot_row)]
            elif p != prev:
                mat[r] = [p * x // prev for x in mat[r]]
        prev = p
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _arrow_nullity(lam_t: Partition, lam_s: Partition) -> int:
    """Nullity of _arrow_rows for the Jordan matrices of two partitions, cached on them."""
    rows = _arrow_rows(jordan_nilpotent(lam_t), jordan_nilpotent(lam_s))
    return len(rows) - _rank_rational(rows)


@lru_cache(maxsize=None)
def _framing_nullity(lam_i: Partition, w_i: int) -> int:
    """Nullity of _framing_rows for a partition's Jordan matrix, cached on it and the width."""
    rows = _framing_rows(jordan_nilpotent(lam_i), w_i)
    return len(rows) - _rank_rational(rows)


def kappa_oracle(
    quiver: Quiver,
    v: Sequence[int],
    w: Sequence[int],
    lam_tuple: Sequence[Partition],
    max_total: int = 8,
) -> int:
    """Kernel dimension of the derived action of a Jordan-type nilpotent.

    Checks v, w and the partition sizes, refuses |v| above max_total, and
    returns _kappa_nullity(quiver, w, lam_tuple).
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    if len(lam_tuple) != quiver.vertex_count:
        raise ValueError("partition tuple length must match the vertex count")
    sizes = tuple(lam.size for lam in lam_tuple)
    if sizes != v:
        raise ValueError(f"partition sizes {sizes} do not match v = {v}")
    if sum(sizes) > max_total:
        raise EnumerationBudgetError(sum(sizes), max_total, "kernel-dimension oracle")
    return _kappa_nullity(quiver, w, lam_tuple)


def _kappa_nullity(quiver: Quiver, w: Sequence[int], lam_tuple: Sequence[Partition]) -> int:
    """kappa_oracle without its checks: w must fit the quiver, lam_tuple one partition per vertex.

    The matrix of phi -> rho'(X) phi, for X the blockwise Jordan
    representative of the partition tuple, is block diagonal (_rho_matrix),
    so its nullity is the sum of the block nullities, each an exact rational
    rank of the block's rows taken once per distinct block: they are cached
    on the partitions and the framing width.
    """
    return sum(_arrow_nullity(lam_tuple[t], lam_tuple[s]) for s, t in quiver.arrows) + sum(
        _framing_nullity(lam_tuple[i], w[i]) for i in range(quiver.vertex_count)
    )


# ---------------------------------------------------------------------------
# Exact character sums

def _same_values(a, b, q: int) -> bool:
    """Whether two count lists hold the same cyclotomic integers, block by block.

    A count list of length k q stacks k values, one block of q counts each:
    the block (c_0, ..., c_{q-1}) is the sum of c_t zeta^t for a primitive
    q-th root of unity zeta.  The one relation among the powers of zeta is
    that they sum to zero, so two blocks hold the same value exactly when
    their difference is constant on the block.
    """
    diff = [x - y for x, y in zip(a, b)]
    return len(a) == len(b) and all(diff[t::q] == diff[q - 1 :: q] for t in range(q - 1))


def charsum_linear_lemma(n: int, family: Iterable[tuple[Sequence[int], int]], q: int) -> bool:
    """Orthogonality over an affine-linear family.

    For each (g1, g2) in the family, summing the character of <g1, x> + g2
    over the n-dimensional coordinate space must give q^n times the
    character of g2 when g1 vanishes and zero otherwise.  Checked exactly.
    """
    _require_prime(q)
    vectors = list(product(range(q), repeat=n))
    for g1, g2 in family:
        g1 = tuple(int(x) for x in g1)
        if len(g1) != n:
            raise ValueError(f"linear form has {len(g1)} entries, expected {n}")
        g2 = int(g2)
        counts = [0] * q
        for vec in vectors:
            counts[(sum(a * b for a, b in zip(g1, vec)) + g2) % q] += 1
        expected = [0] * q
        if all(x % q == 0 for x in g1):
            expected[g2 % q] = q**n
        if not _same_values(counts, expected, q):
            return False
    return True


def _phase_table(q: int, n: int) -> list[list[int]]:
    """phases[i][j] = <points[i], points[j]> mod q over the n-dimensional space.

    The points are in the order product(range(q), repeat=n) gives them; the
    table is built one coordinate at a time from the multiplication table.
    """
    times = [[(a * b) % q for b in range(q)] for a in range(q)]
    phases = [[0]]
    for _ in range(n):
        phases = [[(t + m) % q for t in row for m in mult] for row in phases for mult in times]
    return phases


def _transform_counts(f: list, q: int, phases: list[list[int]]) -> list[list[int]]:
    """Unnormalized discrete transform of a cyclotomic-valued function, on count lists.

    f[i] is the count list of the value at point i, or None where there is
    none; the result holds one count list per point.  A count list may stack
    k values, one block of q counts each (see _same_values), transformed
    block by block.  The term of point i at point j is f[i] times
    zeta^phases[i][j], which rotates each block by that phase, and each
    output sums plain count lists, exactly.
    """
    width = next((len(counts) for counts in f if counts is not None), q)
    terms = []
    for phase_row, counts in zip(phases, f):
        if counts is not None:
            # shifts[t] is counts times zeta^t: count s of each block moves to s + t
            shifts = [list(counts) for _ in range(q)]
            for t, s in product(range(1, q), range(q)):
                shifts[t][(s + t) % q :: q] = counts[s::q]
            terms.append((phase_row, shifts))
    return [
        list(map(sum, zip((0,) * width, *(shifts[phase_row[j]] for phase_row, shifts in terms))))
        for j in range(len(phases))
    ]


def fourier_inversion_check(n: int, q: int, trials: int = 100, seed: int = 7) -> bool:
    """Transforming twice must scale by q^n and flip the argument's sign.

    Checked exactly for `trials` pseudo-random cyclotomic-valued functions,
    held as count lists stacked one block per trial, so _transform_counts
    runs twice in all; every trial's value at every point is compared by
    _same_values.  The complex-conjugate transform passes that test too, so
    first the transform of the delta function at every point u must be
    zeta^<u, w>, with the phase summed here rather than read from the table
    (at q = 2 the two transforms coincide).
    """
    _require_prime(q)
    rng = random.Random(seed)
    points = list(product(range(q), repeat=n))
    index = {vv: i for i, vv in enumerate(points)}
    negated = [index[tuple((-x) % q for x in vv)] for vv in points]
    phases = _phase_table(q, n)
    one = [1] + [0] * (q - 1)
    for i, u in enumerate(points):
        delta = [one if j == i else None for j in range(len(points))]
        for wv, counts in zip(points, _transform_counts(delta, q, phases)):
            phase = sum(a * b for a, b in zip(u, wv)) % q
            if not _same_values(counts, [int(t == phase) for t in range(q)], q):
                return False
    draws = [[[rng.randint(-3, 3) for _ in range(q)] for _ in points] for _ in range(trials)]
    f = [[c for draw in draws for c in draw[i]] for i in range(len(points))]
    ff = _transform_counts(_transform_counts(f, q, phases), q, phases)
    scale = q**n
    return all(
        _same_values(ff[i], [scale * y for y in f[neg]], q) for i, neg in enumerate(negated)
    )


def charsum_fiber_identity(
    quiver: Quiver,
    v: Sequence[int],
    w: Sequence[int],
    alpha: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Fiber count against the character sum over the commuting variety.

    Both sides are computed by independent exhaustive enumeration and
    compared as exact cyclotomic integers, after clearing denominators:
    fiber count times q^(group dim) must equal q^(rep dim) times the sum of
    the character of -alpha tr X over pairs (phi, X) with rho'(X) phi = 0.
    The pairs are tested with explicit matrix products (_rho_products), so
    the fiber count's matrix rows are checked against them.
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    _require_prime(q)
    d = dim_rep_space(quiver, v, w)
    g = dim_group(v)
    need = q ** (d + g)
    if need > budget:
        raise EnumerationBudgetError(need, budget, "commuting-variety enumeration")
    fiber = count_moment_fiber(quiver, v, w, alpha, q, budget=budget)
    counts = [0] * q
    phi_vectors = [
        _unflatten_phi(quiver, v, w, vec) for vec in product(range(q), repeat=d)
    ]
    x_shapes = [(n, n) for n in v]
    for xvec in product(range(q), repeat=g):
        X = _matrices(xvec, x_shapes)
        slot = (-alpha * sum(m[r][r] for m in X for r in range(len(m)))) % q
        for phi in phi_vectors:
            arrows, framing = _rho_products(quiver, v, w, X, *phi)
            if not any(x % q for m in arrows + framing for row in m for x in row):
                counts[slot] += 1
    lhs = [fiber * q**g] + [0] * (q - 1)
    return _same_values(lhs, [c * q**d for c in counts], q)
