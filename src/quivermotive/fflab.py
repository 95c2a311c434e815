"""Brute-force oracles over prime fields.

Everything here is deliberately independent of the L-polynomial engine:
moment-map fiber counts come from explicit enumeration of matrix tuples
(the phi half taken one symmetry orbit of its arrow part at a time, the
orbits themselves found and measured by enumeration), centralizer orders
from scanning every matrix of the commutant, kernel dimensions from exact
rank over the rationals (taken once per distinct arrow and framing block),
and character sums are tracked as integer count vectors over powers of a
fixed p-th root of unity.  Comparisons with the engine are therefore exact,
with no floating point anywhere.

Field arithmetic goes through one layer (_Field, built once per field by
_field): elements are small ints under % and pow, and batches of points are
bit-sliced into Python ints, one bit per point and one int per binary digit
of an element.  The oracles here run on Python ints alone; the stable-locus
count, which needs numpy, lives in the stable module.

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
from array import array
from functools import lru_cache
from itertools import chain, combinations, product
from operator import mul
from typing import Iterable, Sequence

from .partitions import Partition
from .quiver import InputError, Quiver, _Record, check_dim_vector, dim_group, dim_rep_space

DEFAULT_BUDGET = 1 << 26
# Above this many points the automatic strategy stops enumerating full
# (phi, psi) pairs and enumerates phi only, counting psi solutions exactly.
FULL_ENUMERATION_CAP = 1 << 20
CENTRALIZER_BUDGET = 1 << 20
# Points per bit-sliced block: each plane of a lane value is at most this many bits.
LANE_BLOCK = 1 << 20


class EnumerationBudgetError(RuntimeError):
    """An oracle would need more enumerated points than the budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} needs {needed} points, budget is {budget}")


def __getattr__(name: str):
    # the stable-locus count lives in its own module, loaded on first access
    if name == "count_stable_fiber":
        from .stable import count_stable_fiber

        return count_stable_fiber
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
# The field, and bit-sliced lanes

def _union(planes) -> int:
    """The OR of a lane value's planes: the lanes that hold a nonzero element."""
    out = 0
    for plane in planes:
        out |= plane
    return out


class _Field:
    """The q-element field, with bit-sliced arithmetic on lanes.

    Elements are the ints 0..q-1, reduced with % and inverted with pow.  A
    lane value holds one element per lane of a block, in binary, as
    b = (q - 1).bit_length() Python ints: bit L of plane i is bit i of lane
    L's element (bit-slicing as in Boothby and Bradshaw, arXiv:0901.1413).
    A sum is a ripple-carry addition followed by one conditional subtraction
    of q, a product doubles and adds over the planes of one factor, so they
    take O(b) and O(b^2) operations on ints of one bit per lane.  Sums and
    constants take the block's mask, one bit per lane.
    """

    def __init__(self, q: int):
        self.q = q
        self.bits = (q - 1).bit_length()
        self.zero = (0,) * self.bits
        # v < 2q is at least q exactly when v + 2^(b+1) - q carries out of
        # bit b; the low b bits of that offset, as 2^b < offset < 2^(b+1)
        offset = (2 << self.bits) - q
        self._offset = [offset >> i & 1 for i in range(self.bits)]

    def constant(self, c: int, mask: int):
        """The lane value holding the element c on every lane of mask."""
        return tuple(mask if c >> i & 1 else 0 for i in range(self.bits))

    def _reduce(self, low, top: int, mask: int):
        """Values below 2q, as b low planes and the plane of bit b, reduced mod q."""
        diff, carry = [], 0
        for plane, bit in zip(low, self._offset):
            if bit:
                diff.append(mask ^ plane ^ carry)
                carry |= plane
            elif carry:
                diff.append(plane ^ carry)
                carry &= plane
            else:
                diff.append(plane)
        carry |= top  # the lanes holding q or more
        if not carry:
            return tuple(low)
        return tuple(s if s is d else s ^ (carry & (s ^ d)) for s, d in zip(low, diff))

    def plus(self, x, y, mask: int):
        """The lane-wise sum of two lane values on the lanes of mask."""
        if not any(x):
            return y
        if not any(y):
            return x
        low, carry = [], 0
        for a, b in zip(x, y):
            half = a ^ b
            if carry:
                low.append(half ^ carry)
                carry = (a & b) | (half & carry)
            else:
                low.append(half)
                carry = a & b
        return self._reduce(low, carry, mask)

    def times(self, x, y, mask: int):
        """The lane-wise product of two lane values, doubling and adding over y's planes."""
        out = self.zero
        for plane in reversed(y):
            if any(out):
                out = self._reduce((0, *out[:-1]), out[-1], mask)
            if plane:
                out = self.plus(out, tuple(a & plane for a in x), mask)
        return out

    def scale(self, x, k: int, mask: int):
        """The lane value k x, for an integer k."""
        k %= self.q
        return x if k == 1 else self.times(x, self.constant(k, mask), mask)

    def lane_blocks(self, k: int):
        """Lane values of k coordinates over all q^k points, one block of lanes at a time.

        Yields (coords, mask) per block.  Within a block of q^m <= LANE_BLOCK
        lanes, lane L holds the base-q digits of L in its first m coordinates
        and constants in the others.  Digit i holds c on runs of q^i lanes
        every q^(i+1) lanes, and bit t of c is set on runs of 2^t values
        every 2^(t+1), so plane t of digit i is a run of 2^t q^i lanes
        repeated every 2^(t+1) q^i lanes, cut to one period of q^(i+1) lanes
        and repeated every period; each repetition shifts and doubles.
        """
        q, m = self.q, 0
        while m < k and q ** (m + 1) <= LANE_BLOCK:
            m += 1
        lanes = q**m
        mask = (1 << lanes) - 1
        low = []
        for i in range(m):
            planes = []
            for t in range(self.bits):
                width = q**i << t
                period = _repeat(((1 << width) - 1) << width, 2 * width, q ** (i + 1))
                planes.append(_repeat(period, q ** (i + 1), lanes))
            low.append(tuple(planes))
        for high in product(range(q), repeat=k - m):
            yield low + [self.constant(c, mask) for c in high], mask


def _repeat(pattern: int, span: int, length: int) -> int:
    """A pattern of span bits repeated to fill length bits, by shifting and doubling."""
    while span < length:
        pattern |= pattern << span
        span <<= 1
    return pattern & ((1 << length) - 1)


# the q-element field, built once per prime q
_field = lru_cache(maxsize=None)(_Field)


def _digits_of(index: int, q: int, n: int) -> list[int]:
    """The n base-q digits of index, the least significant first: the point's coordinates."""
    out = []
    for _ in range(n):
        index, digit = divmod(index, q)
        out.append(digit)
    return out


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


def _rho_matrix(quiver: Quiver, v, w, X) -> list[list[int]]:
    """Integer matrix of phi -> rho'(X) phi in flattened phi coordinates, as rows.

    Column a is the image of the a-th unit phi vector, flattened like phi:
    components in arrow-then-framing order, each row-major.  The matrix is
    block diagonal with one block per phi component: _arrow_rows for each
    arrow, then _framing_rows for each vertex.
    """
    blocks = [_arrow_rows(X[t], X[s]) for s, t in quiver.arrows]
    blocks += [_framing_rows(X[i], w[i]) for i in range(quiver.vertex_count)]
    d = sum(len(block) for block in blocks)
    rows: list[list[int]] = []
    for block in blocks:
        pos = len(rows)
        rows += [[0] * pos + row + [0] * (d - pos - len(row)) for row in block]
    return rows


def _psi_order(quiver: Quiver, v, w) -> list[int]:
    """The phi coordinate that each psi coordinate pairs with.

    A psi component has the transposed shape of its phi component, so psi
    entry (c, r) pairs with phi entry (r, c) under the trace pairing.
    """
    order = []
    pos = 0
    for rows, cols in _phi_shapes(quiver, v, w):
        order.extend(pos + r * cols + c for c in range(cols) for r in range(rows))
        pos += rows * cols
    return order


def _moment_system(quiver: Quiver, v, w, q: int):
    """Bilinear forms of the moment condition over the q-element field.

    Returns (mats, traces): for each Lie-algebra basis element a d x d
    matrix M of field elements, as row lists, with pairing value
    phi^T M psi, and the 0/1 trace of the basis element.
    """
    order = _psi_order(quiver, v, w)
    mats = []
    traces = []
    for X, diag in _lie_basis(quiver, v):
        rho = _rho_matrix(quiver, v, w, X)
        # M[a][b] pairs the image of phi unit a with psi unit b
        mats.append([[rho[r][a] % q for r in order] for a in range(len(order))])
        traces.append(1 if diag else 0)
    return mats, traces


def _count_fiber_full(mats, targets, q: int, d: int) -> int:
    """The (phi, psi) pairs on which every form phi^T M psi takes its target, on bit-sliced lanes.

    One lane per pair: coordinate b < d is psi_b and coordinate d + a is
    phi_a (field.lane_blocks).  A form is the sum of its nonzero entries
    times the lane products phi_a psi_b, each product formed once for all
    the forms; the lanes where every form meets its target are counted.
    """
    field = _field(q)
    forms = [[(a, b, m) for a, row in enumerate(M) for b, m in enumerate(row) if m] for M in mats]
    total = 0
    for coords, mask in field.lane_blocks(2 * d):
        psi, phi = coords[:d], coords[d:]
        products = {}
        hits = mask
        for terms, target in zip(forms, targets):
            value = field.zero
            for a, b, m in terms:
                if (a, b) not in products:
                    products[a, b] = field.times(phi[a], psi[b], mask)
                value = field.plus(value, field.scale(products[a, b], m, mask), mask)
            hits &= ~_union(x ^ t for x, t in zip(value, field.constant(target, mask)))
        total += hits.bit_count()
    return total


def _echelon_mod(rows: list[list[int]], q: int, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of one system over the q-element field, in lists.

    The rows hold field elements and are left as they are.  Pivots are
    taken in the first ncols columns only, so trailing columns ride along,
    with the same row swaps as stable._batch_echelon and so the same rows.
    Returns (rows, pivots) with pivots[r] the pivot column of row r.
    """
    rows = list(rows)  # rows are replaced, never written in place
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        unit = pow(rows[rank][col], -1, q)
        top = rows[rank] = [x * unit % q for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [(x - f * y) % q for x, y in zip(row, top)]
        pivots.append(col)
    return rows, pivots


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _gl_generators(n: int, q: int) -> list[tuple[tuple, tuple]]:
    """Generators of GL_n over the q-element field, each with its inverse, as tuple matrices.

    The permutation matrices of the transposition (1 2) and of the n-cycle
    give every permutation.  Conjugating the transvection I + E_12 by them
    and by diag(r, 1, ..., 1), for a primitive root r, gives every
    elementary transvection I + c E_ij, and these generate SL_n; the
    diagonal then reaches every determinant.  Generators equal to the
    identity or to one already listed are left out.
    """
    eye = _identity(n)

    def first_row(*head):  # the identity with its first row starting with head
        return ((*head, *eye[0][len(head) :]), *eye[1:])

    root = next(r for r in range(1, q) if len({pow(r, k, q) for k in range(q - 1)}) == q - 1)
    gens = []
    if n and root != 1:
        gens.append((first_row(root), first_row(pow(root, -1, q))))
    if n >= 2:
        swap = (eye[1], eye[0], *eye[2:])
        gens += [(first_row(1, 1), first_row(1, q - 1)), (swap, swap)]
    if n >= 3:
        cycle = eye[-1:] + eye[:-1]
        gens.append((cycle, tuple(zip(*cycle))))
    return gens


def _separable(parts) -> array:
    """The table x -> sum of parts[k][digit block k of x], the lowest block first.

    Block k takes len(parts[k]) values, and each part holds its values
    already multiplied by their places.  The parts are arrays, and one part
    is its own table.
    """
    table = parts[0] if parts else array("q", [0])
    for part in parts[1:]:
        table = array("q", chain.from_iterable(map(b.__add__, table) for b in part))
    return table


def _row_parts(q: int, h, n_rows: int, place) -> list[array]:
    """The parts of E -> the matrix whose row r is u . h, u row r of E, for n_rows rows.

    Each row of E moves on its own, so the map is separable over the rows:
    one part per row, indexed by the row's base-q digits, holding the
    image's digit j at place(r, j).  The row images are built a coordinate
    at a time: u + c e_i goes to u . h + c h_i.
    """
    images = [(0,) * len(h)]
    for h_i in h:
        images = [tuple((x + c * y) % q for x, y in zip(u, h_i)) for c in range(q) for u in images]
    places = [[q ** place(r, j) for j in range(len(h))] for r in range(n_rows)]
    return [array("q", [sum(map(mul, u, row)) for u in images]) for row in places]


def _halves(parts) -> tuple[int, array, array]:
    """(Q, high, low) with x -> high[x // Q] + low[x % Q] the separable map of parts.

    The low blocks are the first ones whose sizes multiply to Q, just past
    the square root of the whole, so each table holds about that many
    entries.
    """
    total = 1
    for part in parts:
        total *= len(part)
    k, low = 0, 1
    while low * low < total:
        low *= len(parts[k])
        k += 1
    return low, _separable(parts[k:]), _separable(parts[:k])


def _arrow_orbits(quiver: Quiver, v, q: int) -> tuple[list[int], list[int]]:
    """Orbits of G_v = prod GL(v_i) on the arrow part of phi, by brute force.

    The arrow part has q^D points, D the number of arrow coordinates, indexed
    like phi's first D digits.  Returns (representatives, sizes): the
    smallest index of each orbit, ascending, and the orbit's size, counted.
    The orbits are the connected components of the graph joining each point
    to its images under generators of every GL(v_i) (_gl_generators, each
    checked to be invertible), walked depth first.  A generator g sends the
    matrix E of an arrow s -> t to g_t E g_s^-1 in two steps, each separable
    over rows (_row_parts): E -> (E g_s^-1)^T, then F -> (F g_t^T)^T.  Each
    step is held as two tables of about q^(D/2) entries (_halves), so memory
    is one byte per point for the walk.  A generating set that is too small
    only splits orbits, on which a G_v-invariant count is still constant,
    so a count weighted by these sizes stays correct.
    """
    shapes = [(v[t], v[s]) for s, t in quiver.arrows]
    offsets = [0]
    for rows, cols in shapes:
        offsets.append(offsets[-1] + rows * cols)
    size = q ** offsets[-1]
    steps = []
    for i, n in enumerate(v):
        if not any(i in arrow for arrow in quiver.arrows):
            continue  # GL(v_i) fixes every arrow point
        for g, g_inv in _gl_generators(n, q):
            # u . g . g_inv = u for every row vector u
            forward, back = (_row_parts(q, h, 1, lambda r, j: j)[0] for h in (g, g_inv))
            if [back[y] for y in forward] != list(range(q**n)):
                raise AssertionError(f"generator {g} does not permute the arrow points")
            first, second = [], []
            for (s, t), (rows, cols), off in zip(quiver.arrows, shapes, offsets):
                right = g_inv if s == i else _identity(cols)
                left = g if t == i else _identity(rows)
                first += _row_parts(q, right, rows, lambda r, j: off + j * rows + r)
                second += _row_parts(q, tuple(zip(*left)), cols, lambda r, j: off + j * cols + r)
            steps.append((*_halves(first), *_halves(second)))
    seen = bytearray(size)
    reps, sizes = [], []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        stack, count = [start], 0
        while stack:
            x = stack.pop()
            count += 1
            for q1, high1, low1, q2, high2, low2 in steps:
                a, b = divmod(x, q1)
                a, b = divmod(high1[a] + low1[b], q2)
                y = high2[a] + low2[b]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        reps.append(start)
        sizes.append(count)
        start = seen.find(0, start + 1)
    return reps, sizes


def _framing_counts(field: _Field, systems, targets, n: int) -> int:
    """Pairs (f, psi) of n coordinates each that solve one affine system per f, bit-sliced over f.

    Row r of f's system has the target targets[r] and, in column b, the sum
    of m f_j over the entries (j, b): m of systems[r].  One lane per f
    (field.lane_blocks); the lanes' systems are eliminated in lockstep, each
    lane taking its pivot in a column from its first row nonzero there and
    not yet a pivot, and every other such row r becoming
    p row_r - row_r[col] row_p, p the pivot, which keeps the solutions and
    needs no inverse.  A lane of rank k has q^(n - k) solutions, or none
    when a row that never became a pivot has a nonzero target.
    """
    q, total = field.q, 0
    for coords, mask in field.lane_blocks(n):
        rows = []
        for terms, target in zip(systems, targets):
            row = [field.zero] * n + [field.constant(target, mask)]
            for (j, b), m in terms.items():
                row[b] = field.plus(row[b], field.scale(coords[j], m, mask), mask)
            rows.append(row)
        free = [mask] * len(rows)  # the lanes where each row is not yet a pivot
        ranks = [mask]  # ranks[k]: the lanes whose rank so far is k
        for col in range(n):
            found, pivot = 0, [field.zero] * (n + 1 - col)
            for r, row in enumerate(rows):
                here = free[r] & _union(row[col]) & ~found
                if here:
                    found |= here
                    free[r] ^= here
                    pivot = [
                        tuple(a | (b & here) for a, b in zip(old, entry))
                        for old, entry in zip(pivot, row[col:])
                    ]
            if not found:
                continue
            # the pivot, and 1 on the lanes without one, scales the rows
            unit = (pivot[0][0] | (mask & ~found), *pivot[0][1:])
            minus = [field.scale(p, -1, mask) for p in pivot[1:]]
            for r, row in enumerate(rows):
                factor = tuple(x & free[r] & found for x in row[col])
                if any(factor):
                    row[col + 1 :] = [
                        field.plus(field.times(unit, entry, mask), field.times(factor, p, mask), mask)
                        for entry, p in zip(row[col + 1 :], minus)
                    ]
            ranks = [
                (now & ~found) | (below & found) for now, below in zip(ranks + [0], [0] + ranks)
            ]
        bad = 0
        for lanes, row in zip(free, rows):
            bad |= lanes & _union(row[n])
        total += sum(q ** (n - k) * (lanes & ~bad).bit_count() for k, lanes in enumerate(ranks))
    return total


def _count_fiber_linear(quiver: Quiver, v, w, mats, traces, q: int, d: int, alpha: int) -> int:
    """Fiber count from the psi systems of one arrow part per G_v-orbit, over every framing.

    The psi system of phi = (arrow part a, framing part f) has the rows A(a)
    on the psi arrow coordinates and F(f) on the psi framing ones.
    Eliminating [A(a) | I] over A's columns gives the rank r of A(a) and the
    rows K with K A(a) = 0: the system has q^(D - r) times as many solutions
    as K F(f) psi_f = K (alpha tr), D the number of arrow coordinates, and
    that one is linear in f, so all framings are eliminated at once,
    bit-sliced (_framing_counts).  The moment map is G_v-equivariant, alpha
    times the identity is central, and g acts on the framings bijectively,
    so the sum over f is constant on the orbits of arrow parts
    (_arrow_orbits) and is weighted by the orbit size.
    """
    n_arrow = d - sum(a * b for a, b in zip(v, w))
    goals = [(alpha * t) % q for t in traces]
    arrow_terms = [
        [(a, b, m) for a in range(n_arrow) for b, m in enumerate(M[a][:n_arrow]) if m] for M in mats
    ]
    framing_terms = [
        [(j, b, m) for j in range(d - n_arrow) for b, m in enumerate(M[n_arrow + j][n_arrow:]) if m]
        for M in mats
    ]
    identity = [[int(r == k) for k in range(len(mats))] for r in range(len(mats))]
    reps, sizes = _arrow_orbits(quiver, v, q)
    total = 0
    for rep, size in zip(reps, sizes):
        arrows = _digits_of(rep, q, n_arrow)
        rows = []
        for terms, unit in zip(arrow_terms, identity):
            row = [0] * n_arrow
            for a, b, m in terms:
                row[b] += arrows[a] * m
            rows.append([x % q for x in row] + unit)
        echelon, pivots = _echelon_mod(rows, q, n_arrow)
        systems, targets = [], []
        for row in echelon[len(pivots) :]:  # the rows K, with K A(a) = 0
            terms, target = {}, 0
            for k, c in enumerate(row[n_arrow:]):
                if c:
                    target += c * goals[k]
                    for j, b, m in framing_terms[k]:
                        terms[j, b] = terms.get((j, b), 0) + c * m
            systems.append(terms)
            targets.append(target % q)
        count = _framing_counts(_field(q), systems, targets, d - n_arrow)
        total += size * q ** (n_arrow - len(pivots)) * count
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

    - "full": enumerate all q^(2 dim) pairs, bit-sliced, and test every
      condition;
    - "linear": split the arrow part of phi into G_v-orbits by brute force
      (_arrow_orbits), and for one arrow part per orbit and every framing
      part count the psi solutions exactly from the affine-linear system,
      weighted by the orbit size;
    - "auto": full while the pair count stays within both the budget and an
      internal cap, linear beyond that.

    Both strategies count the same set; the overlap is cross-checked in the
    test suite.  The budget bounds q^(2 dim) for "full" and q^dim, the phi
    points, for "linear".
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


def _det_lanes(field: _Field, entries, n: int, mask: int):
    """Determinants of the n x n matrices on a block of lanes, as one lane value.

    entries[i * n + j] is the lane value of entry (i, j).  Laplace
    expansion along the rows with shared minors: after row r the
    determinant of rows 0..r on every set of r + 1 columns is known, and the
    next row extends each set by one column, which costs n 2^(n-1) lane
    products where the permutation sum costs n * n!.  A term whose entry or
    minor is zero on every lane is left out; the terms of each sign are
    summed apart, and one negation per minor takes their difference.
    """
    minors = {(): field.constant(1, mask)}
    for row in range(n):
        extended = {}
        for cols in combinations(range(n), row + 1):
            signed = [field.zero, field.zero]
            for pos, col in enumerate(cols):
                entry, minor = entries[row * n + col], minors[cols[:pos] + cols[pos + 1 :]]
                if any(entry) and any(minor):
                    sign = (row + pos) % 2
                    signed[sign] = field.plus(signed[sign], field.times(entry, minor, mask), mask)
            extended[cols] = field.plus(signed[0], field.scale(signed[1], -1, mask), mask)
        minors = extended
    return minors[tuple(range(n))]


def centralizer_order(lam: Partition, q: int, budget: int = CENTRALIZER_BUDGET) -> int:
    """Invertible matrices commuting with the Jordan nilpotent J of type lam.

    The commuting matrices are the kernel of the commutator map
    vec(M) -> vec(J M - M J), the loop block of rho'(J) (_arrow_rows), one
    system eliminated in lists (_echelon_mod).
    Each of the q^k kernel elements is enumerated and counted when its
    determinant is nonzero, so the scan is still brute force over the
    commutant; the budget bounds q^k, the number of matrices scanned, and
    larger scans raise.  A kernel element's entries at the free columns of
    the elimination are its coefficients, one bit-sliced lane per element
    (field.lane_blocks), so only the pivot entries are computed, each from
    the few coefficients its reduced row touches, and the determinants of a
    whole block of lanes come out of one expansion (_det_lanes).
    """
    _require_prime(q)
    n = lam.size
    if n == 0:
        return 1
    J = jordan_nilpotent(lam)
    commutator = [[x % q for x in row] for row in _arrow_rows(J, J)]
    rows, pivot_cols = _echelon_mod(commutator, q, n * n)
    k = n * n - len(pivot_cols)
    need = q**k
    if need > budget:
        raise EnumerationBudgetError(need, budget, f"centralizer scan for {lam!r} at q={q}")
    free_cols = [c for c in range(n * n) if c not in pivot_cols]
    # row r says M[p_r] = sum of -R[r, f] M[f] over the free f it touches
    pivot_terms = [(p, [(f, -row[f]) for f in free_cols if row[f]]) for p, row in zip(pivot_cols, rows)]
    field, total = _field(q), 0
    for coords, mask in field.lane_blocks(k):
        entries = [field.zero] * (n * n)
        for f, lanes in zip(free_cols, coords):
            entries[f] = lanes
        for p, terms in pivot_terms:
            for f, c in terms:
                entries[p] = field.plus(entries[p], field.scale(entries[f], c, mask), mask)
        total += _union(_det_lanes(field, entries, n, mask)).bit_count()
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


def charsum_linear_lemma(
    n: int, family: Iterable[tuple[Sequence[int], int]], q: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Orthogonality over an affine-linear family.

    For each (g1, g2) in the family, summing the character of <g1, x> + g2
    over the n-dimensional coordinate space must give q^n times the
    character of g2 when g1 vanishes and zero otherwise.  Checked exactly;
    budget bounds the q^n points summed over.
    """
    _require_prime(q)
    if q**n > budget:
        raise EnumerationBudgetError(q**n, budget, "linear-lemma enumeration")
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


def fourier_inversion_check(
    n: int, q: int, trials: int = 100, seed: int = 7, budget: int = DEFAULT_BUDGET
) -> bool:
    """Transforming twice must scale by q^n and flip the argument's sign.

    Checked exactly for `trials` pseudo-random cyclotomic-valued functions,
    held as count lists stacked one block per trial, so _transform_counts
    runs twice in all; every trial's value at every point is compared by
    _same_values.  The complex-conjugate transform passes that test too, so
    first the transform of the delta function at every point u must be
    zeta^<u, w>, with the phase summed here rather than read from the table
    (at q = 2 the two transforms coincide).  budget bounds the larger of
    the q^n x q^n phase table and the q^(n+1) * trials random counts.
    """
    _require_prime(q)
    need = max(q ** (2 * n), q ** (n + 1) * trials)
    if need > budget:
        raise EnumerationBudgetError(need, budget, "Fourier inversion")
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
    # one draw for every count: point i holds trials * q of them, one block per trial
    width = trials * q
    draws = rng.choices(range(-3, 4), k=len(points) * width)
    f = [draws[i * width : (i + 1) * width] for i in range(len(points))]
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
