"""Output checks for the benchmark workloads.

The references here never go through the code being timed: the Jordan
classes come from Goettsche's product formula, evaluated with plain integer
lists; the star3 checks recompute the dimension shift from the quiver and
test structural properties of every class; the verify checks compare against
brute-force fiber counts and a closed centralizer-order formula.

Every checker returns a Verdict: how many records the command should print,
how many of them fail, and why.  A wrong exit code, a missing or extra
record, or a failed whole-output check fails every expected record.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field

SERIES_KEYS = {"class", "coefficients", "command", "d", "v", "w"}
VERIFY_KEYS = {"case", "command", "detail", "status", "suite"}

# sha256 of the star3 w=(1,1,1) degree-8 records, in builtin vertex labels,
# as printed by the CLI at the commit that introduced this benchmark.
STAR3_DIGESTS = {8: "d6b51431e101ddeb121d9f063406cf4bb772c950bd2c73b905ee182962ac3cab"}

# Level-1 moment-map fiber counts for Jordan w=(1), by (v, q), from the
# brute-force enumeration in the verify ffcount suite.
JORDAN_FIBERS = {
    (1, 2): 4,
    (2, 2): 240,
    (3, 2): 29568,
    (1, 3): 18,
    (2, 3): 5184,
    (3, 3): 13191984,
}

KAPPA_CASES = 279
# The default centralizer-scan budget: larger scans are reported as SKIP.
CENTRALIZER_SCAN_POINTS = 1 << 20


@dataclass
class Verdict:
    expected: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed = min(self.expected, self.failed + 1)
        self.problems.append(why)

    def fail_all(self, why: str) -> "Verdict":
        self.failed = self.expected
        self.problems.append(why)
        return self


def canonical(record: dict) -> str:
    """A record as the CLI prints it: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def poly_text(coeffs) -> str:
    """Ascending coefficients as text with explicit L^k tokens, e.g. '1 + 2*L^1'."""
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            mag = abs(c)
            body = str(mag) if k == 0 else (f"L^{k}" if mag == 1 else f"{mag}*L^{k}")
            terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def series_record(v, w, d: int, coeffs) -> dict:
    return {
        "class": poly_text(coeffs),
        "coefficients": list(coeffs),
        "command": "series",
        "d": d,
        "v": list(v),
        "w": list(w),
    }


def gottsche_classes(n_max: int) -> list[list[int]]:
    """[Hilb^n(A^2)] for n <= n_max as ascending coefficient lists in L.

    Expands prod_{k>=1} 1 / (1 - L^(k+1) t^k) (Goettsche, Math. Ann. 286,
    1990): dividing by (1 - x t^k) is the in-place recurrence
    s[n] += x * s[n-k] with n ascending.
    """
    series = [[1]] + [[] for _ in range(n_max)]
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):
            src = series[n - k]
            dst = series[n]
            need = len(src) + k + 1
            if len(dst) < need:
                dst.extend([0] * (need - len(dst)))
            for i, c in enumerate(src):
                dst[i + k + 1] += c
    return series


def _eval(coeffs, x: int) -> int:
    return sum(c * x**i for i, c in enumerate(coeffs))


def _gl_order(n: int, q: int) -> int:
    out = 1
    for j in range(n):
        out *= q**n - q**j
    return out


def centralizer_order(parts: tuple[int, ...], q: int) -> int:
    """|Aut| of the nilpotent of Jordan type parts over the q-element field.

    q^(sum of squared conjugate parts - sum of squared multiplicities) times
    the product of |GL_m(q)| over the multiplicities m.
    """
    conj = [sum(1 for p in parts if p >= i) for i in range(1, (max(parts) if parts else 0) + 1)]
    mults = [parts.count(p) for p in sorted(set(parts))]
    out = q ** (sum(c * c for c in conj) - sum(m * m for m in mults))
    for m in mults:
        out *= _gl_order(m, q)
    return out


def graded_vectors(nvars: int, bound: int) -> list[tuple[int, ...]]:
    """Exponent vectors with total <= bound: by total, then lexicographic."""

    def with_sum(k: int, total: int):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in with_sum(k - 1, total - first):
                yield (first,) + rest

    return [v for total in range(bound + 1) for v in with_sum(nvars, total)]


def _parse(stdout: str) -> list[dict] | None:
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return None
    return records if all(isinstance(r, dict) for r in records) else None


def _whole_output_ok(records: list[dict], verdict: Verdict, returncode: int) -> bool:
    """Whole-output checks shared by every workload; False means all failed."""
    if returncode != 0:
        verdict.fail_all(f"exit code {returncode}")
        return False
    if records is None:
        verdict.fail_all("stdout is not one JSON object per line")
        return False
    if len(records) != verdict.expected:
        verdict.fail_all(f"{len(records)} records, expected {verdict.expected}")
        return False
    return True


def check_jordan(stdout: str, returncode: int, max_degree: int) -> Verdict:
    """Jordan w=(1): record n is [Hilb^n(A^2)] with d = -n."""
    verdict = Verdict(max_degree + 1)
    records = _parse(stdout)
    if not _whole_output_ok(records, verdict, returncode):
        return verdict
    for n, (rec, coeffs) in enumerate(zip(records, gottsche_classes(max_degree))):
        want = series_record((n,), (1,), -n, coeffs)
        if rec != want:
            verdict.fail(f"record {n}: {canonical(rec)} != {canonical(want)}")
    return verdict


@dataclass(frozen=True)
class Layout:
    """A relabelled, reoriented copy of the star3 quiver (an A3 graph).

    Old vertex i is new vertex perm[i]; edges are in the new labels.
    """

    perm: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def original_v(self, v) -> list[int]:
        return [v[self.perm[i]] for i in range(len(self.perm))]


STAR3_LAYOUT = Layout((0, 1, 2), ((0, 1), (0, 2)))


def d_shift(edges, v, w) -> int:
    return sum(x * x for x in v) - sum(v[s] * v[t] for s, t in edges) - sum(a * b for a, b in zip(v, w))


def _star3_record_problem(rec: dict, edges) -> str | None:
    if set(rec) != SERIES_KEYS or rec["command"] != "series" or rec["w"] != [1, 1, 1]:
        return "wrong keys, command or w"
    v, d, coeffs = rec["v"], rec["d"], rec["coefficients"]
    if d != d_shift(edges, v, (1, 1, 1)):
        return f"d={d} does not match the quiver dimensions"
    if not all(isinstance(c, int) for c in coeffs) or rec["class"] != poly_text(coeffs):
        return "class text does not match the coefficients"
    if not coeffs:
        return None
    if len(coeffs) - 1 != -2 * d:
        return f"degree {len(coeffs) - 1} != -2d = {-2 * d}"
    if coeffs[-1] != 1 or min(coeffs) < 0:
        return "leading coefficient not 1 or a negative coefficient"
    # A quiver variety retracts onto a half-dimensional core, so its class
    # has no term below L^(dim/2) = L^(-d).
    if any(coeffs[: max(0, -d)]):
        return f"term below L^{-d}"
    return None


def check_star3(stdout: str, returncode: int, layout: Layout, max_degree: int) -> Verdict:
    """star3 w=(1,1,1) under a relabelling: structure of every class, then the digest."""
    vectors = graded_vectors(3, max_degree)
    verdict = Verdict(len(vectors))
    records = _parse(stdout)
    if not _whole_output_ok(records, verdict, returncode):
        return verdict
    if [rec.get("v") for rec in records] != [list(v) for v in vectors]:
        return verdict.fail_all("records are not the graded-lexicographic list of v")
    for rec in records:
        problem = _star3_record_problem(rec, layout.edges)
        if problem:
            verdict.fail(f"v={rec['v']}: {problem}")
    digest = STAR3_DIGESTS.get(max_degree)
    if digest is not None and star3_digest(records, layout) != digest:
        verdict.fail_all("digest of the records in builtin labels differs from the recorded one")
    return verdict


def star3_digest(records: list[dict], layout: Layout) -> str:
    """sha256 of the records mapped back to builtin labels, in graded order."""
    restored = [dict(rec, v=layout.original_v(rec["v"])) for rec in records]
    restored.sort(key=lambda rec: (sum(rec["v"]), rec["v"]))
    text = "".join(canonical(rec) + "\n" for rec in restored)
    return hashlib.sha256(text.encode()).hexdigest()


_CENTRALIZER_NAME = re.compile(r"lam=(\(.*\)) q=(\d+)")
_FFCOUNT_NAME = re.compile(r"jordan v=\((\d+),\) w=\(1,\) q=(\d+)")
_FIBER = re.compile(r"fiber=(\d+)\b")


def _verify_record_problem(rec: dict, classes) -> str | None:
    if set(rec) != VERIFY_KEYS or rec["command"] != "verify":
        return "wrong keys or command"
    suite, status = rec["suite"], rec["status"]
    if suite == "centralizer":
        m = _CENTRALIZER_NAME.fullmatch(rec["case"])
        if not m:
            return "unparsed case name"
        parts, q = ast.literal_eval(m.group(1)), int(m.group(2))
        if q ** (sum(parts) ** 2) > CENTRALIZER_SCAN_POINTS:
            if status != "SKIP":
                return "expected SKIP: scan over budget"
            return None
        want = centralizer_order(parts, q)
        if status != "PASS" or rec["detail"] != f"order={want}":
            return f"expected PASS with order={want}"
    elif suite in ("kappa", "harmonic"):
        if status != "PASS":
            return "expected PASS"
    elif suite == "ffcount":
        m = _FFCOUNT_NAME.fullmatch(rec["case"])
        fiber = _FIBER.match(rec["detail"])
        if not m or not fiber:
            return "unparsed case name or detail"
        n, q = int(m.group(1)), int(m.group(2))
        if int(fiber.group(1)) != JORDAN_FIBERS.get((n, q)):
            return f"fiber count {fiber.group(1)}, brute force gives {JORDAN_FIBERS.get((n, q))}"
        predicted = _eval(classes[n], q) * _gl_order(n, q)
        want = "PASS" if predicted == JORDAN_FIBERS[(n, q)] else "FLAG"
        if status != want:
            return f"status {status}, class x |G| = {predicted} calls for {want}"
    else:
        return f"unknown suite {suite}"
    return None


def check_verify(stdout: str, returncode: int, qs: tuple[int, ...]) -> Verdict:
    """verify all for Jordan w=(1) at the given field sizes (a subset of 2, 3)."""
    counts = {
        "centralizer": 12 * len(qs),
        "kappa": KAPPA_CASES,
        "harmonic": 10 * len(qs),
        "ffcount": 3 * len(qs),
    }
    verdict = Verdict(sum(counts.values()))
    records = _parse(stdout)
    if not _whole_output_ok(records, verdict, returncode):
        return verdict
    got = {suite: sum(1 for r in records if r.get("suite") == suite) for suite in counts}
    if got != counts:
        return verdict.fail_all(f"cases per suite {got}, expected {counts}")
    ff_cases = {r.get("case") for r in records if r.get("suite") == "ffcount"}
    if ff_cases != {f"jordan v=({n},) w=(1,) q={q}" for n in (1, 2, 3) for q in qs}:
        return verdict.fail_all(f"ffcount cases {sorted(ff_cases)}")
    classes = gottsche_classes(3)
    for rec in records:
        problem = _verify_record_problem(rec, classes)
        if problem:
            verdict.fail(f"{rec.get('suite')} {rec.get('case')}: {problem}")
    return verdict
