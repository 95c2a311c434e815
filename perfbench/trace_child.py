"""Traced run of one benchmark workload: per-layer times and counts.

Usage: python3 trace_child.py METRICS_FILE WORKLOAD_JSON

WORKLOAD_JSON is {"kind": "series", "quiver": ..., "w": [...],
"max_degree": N, "threads": T} or {"kind": "verify", "quiver": ..., "w":
[...], "qs": [...]}.  The run composes, from public functions, the pipeline
that `quivermotive series` or `quivermotive verify all` runs, prints the same
canonical records to stdout, and writes the layer metrics as JSON to
METRICS_FILE.  Spans come from wrappers installed here, in this process
only: on the LRat and MSeries operators, on the engine functions the
pipeline reaches (`nilpotent_series`, `motive_class`, and the engine's
`tuples_with_sizes`), and on the fflab oracles that the verify suites call
through their module.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Per-name inclusive time, self time (minus nested spans) and call counts.

    Each thread keeps its own span stack, so spans opened in engine worker
    threads have no parent; their times add up across threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += spent
            with self._lock:
                self.total[name] += spent
                self.own[name] += spent - nested
                self.calls[name] += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.peaks[name]:
                self.peaks[name] = value


def install(tracer: Tracer) -> None:
    """Put the tracing wrappers on the layer boundaries."""
    from quivermotive import engine, fflab, lrat, quiver, series

    LRat, MSeries = lrat.LRat, series.MSeries

    def lrat_op(name, fn):
        def traced(a, b):
            out = tracer.timed(name, fn, a, b)
            if isinstance(out, LRat):
                tracer.peak("lrat.max_den_degree", len(out.den) - 1)
                tracer.peak("lrat.max_coeff_bits", max(abs(c).bit_length() for c in out.num + out.den))
            return out

        return traced

    add, mul = LRat.__add__, LRat.__mul__
    LRat.__add__ = LRat.__radd__ = lrat_op("lrat.add", add)
    LRat.__mul__ = LRat.__rmul__ = lrat_op("lrat.mul", mul)

    def series_op(name, fn):
        def traced(*args):
            out = tracer.timed(name, fn, *args)
            tracer.count("series.nonzero_coeffs", len(out.coeffs))
            return out

        return traced

    MSeries.invert = series_op("series.invert", MSeries.invert)
    MSeries.__mul__ = series_op("series.mul", MSeries.__mul__)

    tuples_with_sizes = engine.tuples_with_sizes

    def enumerate_tuples(sizes):
        tuples = tracer.timed("partitions.enumerate", lambda: list(tuples_with_sizes(sizes)))
        tracer.count("partitions.tuples", len(tuples))
        return tuples

    engine.tuples_with_sizes = enumerate_tuples

    nilpotent_series = engine.nilpotent_series

    def traced_nilpotent(qv, w, bound, threads=1):
        name = "engine.framed" if any(w) else "engine.unframed"
        return tracer.timed(name, nilpotent_series, qv, w, bound, threads)

    engine.nilpotent_series = traced_nilpotent
    engine.motive_class = tracer.wrap("engine.motive_class", engine.motive_class)

    count_moment_fiber = fflab.count_moment_fiber

    def traced_fiber(qv, v, w, alpha, q, budget=fflab.DEFAULT_BUDGET, strategy="auto"):
        out = tracer.timed("fflab.fiber", count_moment_fiber, qv, v, w, alpha, q, budget, strategy)
        # Points as the oracle counts them against its budget: (phi, psi)
        # pairs for the full strategy, phi alone for the linear one.
        d = quiver.dim_rep_space(qv, v, w)
        full = strategy == "full" or (
            strategy == "auto" and q ** (2 * d) <= min(budget, fflab.FULL_ENUMERATION_CAP)
        )
        points = q ** (2 * d) if full else q**d
        tracer.count("fflab.fiber_points", points)
        tracer.peak("fflab.budget_use", points / budget)
        return out

    fflab.count_moment_fiber = traced_fiber

    centralizer_order = fflab.centralizer_order

    def traced_centralizer(lam, q, budget=fflab.CENTRALIZER_BUDGET):
        out = tracer.timed("fflab.centralizer", centralizer_order, lam, q, budget)
        tracer.count("fflab.centralizer_points", q ** (lam.size**2) if lam.size else 0)
        return out

    fflab.centralizer_order = traced_centralizer
    fflab.kappa_oracle = tracer.wrap("fflab.kappa_oracle", fflab.kappa_oracle)
    for name in ("charsum_linear_lemma", "fourier_inversion_check", "charsum_fiber_identity"):
        setattr(fflab, name, tracer.wrap("fflab.harmonic", getattr(fflab, name)))


def _load_quiver(spec: str):
    from quivermotive.quiver import BUILTIN_QUIVERS, parse_quiver

    if spec in BUILTIN_QUIVERS:
        return BUILTIN_QUIVERS[spec]
    return parse_quiver(Path(spec).read_text(encoding="utf-8"))[0]


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def run_series(tracer: Tracer, spec: dict) -> int:
    """motive_table followed by the CLI's records output, step by step."""
    from quivermotive import engine
    from quivermotive.lrat import LRat, format_poly
    from quivermotive.quiver import d_shift
    from quivermotive.series import exponents_upto

    qv = _load_quiver(spec["quiver"])
    w, bound, threads = tuple(spec["w"]), spec["max_degree"], spec["threads"]
    framed = engine.nilpotent_series(qv, w, bound, threads)
    unframed = engine.nilpotent_series(qv, (0,) * qv.vertex_count, bound, threads)
    quotient = framed * unframed.invert()

    def extract():
        rows = []
        for v in exponents_upto(qv.vertex_count, bound):
            d = d_shift(qv, v, w)
            shifted = quotient.coefficient(v) * LRat.l_power(-d)
            poly = shifted.as_polynomial()
            if poly is None:
                raise engine.PolynomialityError(f"polynomiality violated for v={v}, w={w}")
            rows.append((v, d, poly))
        return rows

    rows = tracer.timed("engine.extract", extract)
    for v, d, poly in rows:
        _emit(
            {
                "command": "series",
                "v": list(v),
                "w": list(w),
                "d": d,
                "coefficients": list(poly),
                "class": format_poly(poly),
            }
        )
    return len(rows)


def run_verify(tracer: Tracer, spec: dict) -> int:
    """The suites of `verify all` in the CLI's order and argument form."""
    from quivermotive import fflab, verify
    from quivermotive.quiver import BUILTIN_QUIVERS

    qs = tuple(spec["qs"])
    qv = _load_quiver(spec["quiver"])
    cases = tracer.timed(
        "verify.centralizer", verify.centralizer_suite, qs=tuple(q for q in qs if q in (2, 3)) or (2, 3)
    )
    cases += tracer.timed("verify.kappa", verify.kappa_suite)
    cases += tracer.timed("verify.harmonic", verify.harmonic_suite, qs=qs)
    cases += tracer.timed(
        "verify.ffcount",
        verify.ffcount_suite,
        qv,
        label=spec["quiver"] if spec["quiver"] in BUILTIN_QUIVERS else "quiver",
        w=tuple(spec["w"]),
        qs=qs,
        alpha=1,
        budget=fflab.DEFAULT_BUDGET,
        threads=1,
    )
    for case in cases:
        tracer.count(f"verify.cases_{case.status.lower()}")
        _emit(
            {
                "command": "verify",
                "suite": case.suite,
                "case": case.name,
                "status": case.status,
                "detail": case.detail,
            }
        )
    return len(cases)


def layer_metrics(tracer: Tracer, records: int, traced_s: float) -> dict[str, float]:
    """The per-layer metrics, named as in BENCHMARK.json, before trace.overhead_s."""
    t, c, p = tracer.total, tracer.counts, tracer.peaks
    points = c["fflab.fiber_points"]
    return {
        "partitions.tuples": c["partitions.tuples"],
        "partitions.enumerate_s": t["partitions.enumerate"],
        "engine.framed_s": t["engine.framed"],
        "engine.unframed_s": t["engine.unframed"],
        "engine.extract_s": t["engine.extract"],
        "engine.motive_class_s": t["engine.motive_class"],
        "engine.motive_class_calls": tracer.calls["engine.motive_class"],
        "series.invert_s": t["series.invert"],
        "series.mul_s": t["series.mul"],
        "series.nonzero_coeffs": c["series.nonzero_coeffs"],
        "lrat.add_calls": tracer.calls["lrat.add"],
        "lrat.mul_calls": tracer.calls["lrat.mul"],
        "lrat.self_s": tracer.own["lrat.add"] + tracer.own["lrat.mul"],
        "lrat.max_den_degree": p["lrat.max_den_degree"],
        "lrat.max_coeff_bits": p["lrat.max_coeff_bits"],
        "fflab.fiber_s": t["fflab.fiber"],
        "fflab.fiber_points": points,
        "fflab.us_per_point": t["fflab.fiber"] / points * 1e6 if points else 0.0,
        "fflab.budget_use": p["fflab.budget_use"],
        "fflab.centralizer_s": t["fflab.centralizer"],
        "fflab.centralizer_points": c["fflab.centralizer_points"],
        "fflab.kappa_oracle_s": t["fflab.kappa_oracle"],
        "fflab.kappa_oracle_calls": tracer.calls["fflab.kappa_oracle"],
        "fflab.harmonic_s": tracer.own["fflab.harmonic"],
        "verify.centralizer_s": t["verify.centralizer"],
        "verify.kappa_s": t["verify.kappa"],
        "verify.harmonic_s": t["verify.harmonic"],
        "verify.ffcount_s": t["verify.ffcount"],
        "verify.cases_pass": c["verify.cases_pass"],
        "verify.cases_flag": c["verify.cases_flag"],
        "verify.cases_skip": c["verify.cases_skip"],
        "verify.cases_fail": c["verify.cases_fail"],
        "cli.records": records,
        "traced_s": traced_s,
    }


def main(argv: list[str]) -> int:
    metrics_path, spec = argv[0], json.loads(argv[1])
    tracer = Tracer()
    install(tracer)
    run = run_series if spec["kind"] == "series" else run_verify
    start = time.perf_counter()
    records = run(tracer, spec)
    sys.stdout.flush()
    traced_s = time.perf_counter() - start
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(layer_metrics(tracer, records, traced_s), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
