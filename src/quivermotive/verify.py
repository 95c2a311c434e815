"""Verification suites behind the command-line verify and selftest commands.

Each suite returns a list of case results, every one from the runner
_case: a check that holds is PASS, one that fails is FAIL, and an oracle
over its enumeration budget is SKIP.  Only the ffcount suite reports a
mismatch as FLAG, and only at q <= |v|: the level-1 deformed fiber counts
the variety only where its level is generic (p divides no positive root
beta <= v, as at q > |v|), and at q in {2, 3} some dimension vectors have
such a root and their fibers really deviate (see README).  The variety's
own count, taken on the stable zero fiber, holds over every field.

The selftest is no separate battery: run_selftest runs the same four
suites at small bounds, at a generic level, so a correct engine gives only
PASS.  The module invariants themselves are checked by the pytest suite.
"""

from __future__ import annotations

import random
from functools import partial

from . import engine, fflab, partitions, quiver
from .poly import _peval
from .quiver import A2, JORDAN, SINGLE_VERTEX, InputError, Quiver, _Record, exponents_upto


class CaseResult(_Record):
    """One verify case: its suite, its name, PASS / FAIL / FLAG / SKIP, and a detail."""

    __slots__ = ("suite", "name", "status", "detail")

    def __init__(self, suite: str, name: str, status: str, detail: str = ""):
        self._init(suite, name, status, detail)


def _case(suite: str, name: str, check, miss: str = "FAIL") -> CaseResult:
    """Run one check, which returns (ok, detail): PASS if ok, else miss.

    An oracle over its enumeration budget makes the case a SKIP.
    """
    try:
        ok, detail = check()
    except fflab.EnumerationBudgetError as exc:
        return CaseResult(suite, name, "SKIP", str(exc))
    return CaseResult(suite, name, "PASS" if ok else miss, detail)


def centralizer_suite(
    qs=(2, 3), max_size: int = 4, budget: int = fflab.CENTRALIZER_BUDGET
) -> list[CaseResult]:
    """Centralizer orders by commutant scan against the engine's centralizer class.

    fflab.centralizer_order enumerates the q^k matrices of the commutant of
    the Jordan nilpotent, k = sum of lam'_i^2, and budget bounds q^k.  The
    class is L^a * P_|lam| / c(lam), built from the cofactor (a, c) the
    series numerators divide by, so a wrong cofactor FAILs here.
    """

    def check(lam, q):
        order = fflab.centralizer_order(lam, q, budget=budget)
        expected = _peval(engine._centralizer_poly((lam,)), q)
        ok = expected == order
        return ok, f"order={order}" if ok else f"scan={order} class={expected}"

    return [
        _case("centralizer", f"lam={lam.parts} q={q}", lambda: check(lam, q))
        for q in qs
        for n in range(max_size + 1)
        for lam in partitions.partitions_of(n)
    ]


_KAPPA_GRID = (
    ("jordan", JORDAN, ((0,), (1,), (2,))),
    ("a2", A2, ((0, 0), (1, 0), (1, 1))),
)


def kappa_suite(max_total: int = 5) -> list[CaseResult]:
    """Combinatorial kernel ranks against exact rational-rank computation.

    The grid is checked once: each w against its quiver, while v and the
    partition tuples are built from the quiver's own vertices.  Each case
    then calls fflab._kappa_nullity, kappa_oracle without its per-call
    checks, so no |v| budget applies beyond max_total itself.
    """

    def check(q, w, tup):
        formula = engine.kappa(q, w, tup)
        kernel = fflab._kappa_nullity(q, w, tup)
        ok = formula == kernel
        return ok, f"kappa={kernel}" if ok else f"formula={formula} kernel={kernel}"

    grid = [
        (label, q, quiver.check_dim_vector(q, w, "w"))
        for label, q, w_list in _KAPPA_GRID
        for w in w_list
    ]
    return [
        _case(
            "kappa",
            f"{label} w={w} lam={tuple(l.parts for l in tup)}",
            lambda: check(q, w, tup),
        )
        for label, q, w in grid
        for exp in exponents_upto(q.vertex_count, max_total)
        for tup in partitions.tuples_with_sizes(exp)
    ]


_FIBER_IDENTITY_CASES = (
    ("jordan v=(1) w=(0)", JORDAN, (1,), (0,), 1),
    ("jordan v=(1) w=(1)", JORDAN, (1,), (1,), 1),
    ("vertex v=(1) w=(1)", SINGLE_VERTEX, (1,), (1,), 1),
    ("a2 v=(1,1) w=(1,0)", A2, (1, 1), (1, 0), 1),
    ("jordan v=(1) w=(0) alpha=0", JORDAN, (1,), (0,), 0),
)


def harmonic_suite(
    qs=(2, 3, 5), trials: int = 100, seed: int = 7, budget: int = fflab.DEFAULT_BUDGET
) -> list[CaseResult]:
    """Character-sum identities: orthogonality, inversion, fiber identity.

    budget bounds the points each check enumerates or tabulates.
    """
    rng = random.Random(seed)
    checks = {}  # case name -> check returning a bool
    for q in qs:
        for n in (1, 2, 3):
            family = [((0,) * n, 0), ((0,) * n, 1)]
            family += [
                (tuple(rng.randrange(q) for _ in range(n)), rng.randrange(q))
                for _ in range(12)
            ]
            checks[f"linear-orthogonality n={n} q={q}"] = partial(
                fflab.charsum_linear_lemma, n, family, q, budget=budget
            )
        for n in (1, 2):
            checks[f"fourier-inversion n={n} q={q} trials={trials}"] = partial(
                fflab.fourier_inversion_check, n, q, trials=trials, seed=seed, budget=budget
            )
        for name, qv, v, w, alpha in _FIBER_IDENTITY_CASES:
            checks[f"fiber-identity {name} q={q}"] = partial(
                fflab.charsum_fiber_identity, qv, v, w, alpha, q, budget=budget
            )
    return [_case("harmonic", name, lambda: (holds(), "")) for name, holds in checks.items()]


def check_level(alpha: int, qs) -> None:
    """Refuse a moment-map level that is zero in one of the fields.

    The group acts freely only on fibers over a nonzero level, so at
    alpha = 0 mod q the fiber count is not class times group order.
    """
    for q in qs:
        if alpha % q == 0:
            raise InputError(
                f"alpha={alpha} is zero in the field of size {q}; "
                "the group acts freely only on a fiber over a nonzero level"
            )


def ffcount_suite(
    qv: Quiver = JORDAN,
    label: str = "jordan",
    w=(1,),
    qs=(2, 3),
    max_total: int = 3,
    alpha: int = 1,
    budget: int = fflab.DEFAULT_BUDGET,
    threads: int = 1,
) -> list[CaseResult]:
    """Engine polynomial against the brute-force quotient count.

    The count is taken on the level-alpha deformed fiber, which counts the
    variety where the level is generic: p divides alpha |beta| for no
    positive root beta <= v (Crawley-Boevey, Compositio 2001).  A level
    zero in a field raises InputError up front (check_level), so q > |v|,
    above every such |beta|, is generic and a mismatch there is a FAIL.
    At q <= |v| some dimension vectors genuinely deviate, so a mismatch is
    a FLAG; the variety's own count, on the stable zero fiber, holds over
    every field.
    """
    check_level(alpha, qs)
    w = quiver.check_dim_vector(qv, w, "w")

    def check(cls, exp, q):
        fiber = fflab.count_moment_fiber(qv, exp, w, alpha, q, budget=budget)
        expected = _peval(cls, q) * fflab.group_order(exp, q)
        detail = f"fiber={fiber}"
        if expected != fiber:
            detail += f" polynomial predicts {expected}"
            if q <= sum(exp):
                detail += " (small-characteristic exception)"
        return expected == fiber, detail

    out = []
    # every v off one table: its rows equal the motive_class calls by
    # truncation independence, and come in the same graded order
    for row in engine.motive_table(qv, w, max_total, threads=threads)[1:]:  # v = 0 comes first
        exp, cls = row.v, row.class_polynomial
        for q in qs:
            miss = "FAIL" if q > sum(exp) else "FLAG"  # q > |v| makes the level generic
            out.append(_case("ffcount", f"{label} v={exp} w={w} q={q}", lambda: check(cls, exp, q), miss))
    return out


def run_selftest(fast: bool = False) -> list[CaseResult]:
    """The four oracle suites at small bounds, over fields where they all PASS.

    The ffcount cases run over F_3 up to v = (2,), where the level 1 is
    generic (3 divides no root beta <= v), so a correct engine gives no FLAG.
    """
    qs = (2,) if fast else (2, 3)
    return (
        centralizer_suite(qs, max_size=3)
        + kappa_suite()
        + harmonic_suite(qs)
        + ffcount_suite(JORDAN, "jordan", (1,), qs=(3,), max_total=2)
    )
