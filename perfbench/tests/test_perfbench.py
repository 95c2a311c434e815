"""Self-tests of the benchmark: its checkers, its references and its traced run.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

REPO = BENCH.parent
GOLDEN = REPO / "tests" / "golden" / "jordan_w1_degree4.jsonl"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

JORDAN = replace(run.WORKLOADS["jordan-deep"], max_degree=8)
STAR3 = run.WORKLOADS["star3-wide"]
VERIFY = run.WORKLOADS["verify-all"]
RELABEL_SEED = 1


@pytest.fixture(scope="module")
def deadline():
    run.WORK.mkdir(parents=True, exist_ok=True)
    return time.monotonic() + 150


@pytest.fixture(scope="module")
def outputs(deadline):
    """Untraced CLI stdout per instance; star3 at full size so the digest applies."""
    instances = {
        "jordan": run.instantiate(JORDAN, 0),
        "star3": run.instantiate(STAR3, 0),
        "star3-relabelled": run.instantiate(STAR3, RELABEL_SEED),
        "verify": run.instantiate(VERIFY, 0),
    }
    out = {}
    for name, inst in instances.items():
        rep = run.cli_spawn(inst, deadline)
        assert rep.returncode == 0
        out[name] = (inst, rep.stdout)
    return out


def test_gottsche_reproduces_golden_records():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    ours = [
        checks.canonical(checks.series_record((n,), (1,), -n, c))
        for n, c in enumerate(checks.gottsche_classes(4))
    ]
    assert ours == lines


def test_centralizer_formula_small_cases():
    assert [checks.centralizer_order(p, q) for p, q in (((1,), 2), ((2,), 2), ((1, 1), 2), ((2,), 3))] == [
        1,
        2,
        6,
        6,
    ]


@pytest.mark.parametrize("name", ["jordan", "star3", "star3-relabelled", "verify"])
def test_checkers_accept_the_program_output(outputs, name):
    inst, stdout = outputs[name]
    verdict = inst.check(stdout, 0)
    assert verdict.failed == 0, verdict.problems
    assert verdict.expected == len(stdout.splitlines())


def test_relabelled_instance_differs_from_builtin(outputs):
    inst, stdout = outputs["star3-relabelled"]
    assert inst.layout not in (None, checks.STAR3_LAYOUT)
    assert stdout != outputs["star3"][1]


def _raise_constant_term(record: dict, keep_text: bool) -> dict:
    coeffs = list(record["coefficients"]) or [0]
    coeffs[0] += 1
    out = dict(record, coefficients=coeffs)
    if not keep_text:
        out["class"] = checks.poly_text(coeffs)
    return out


def _corrupt(stdout: str, index: int, change) -> str:
    lines = stdout.splitlines()
    lines[index] = checks.canonical(change(json.loads(lines[index])))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("keep_text", [False, True])
@pytest.mark.parametrize("name, index", [("jordan", 0), ("jordan", 5), ("star3", 0), ("star3", 57), ("star3-relabelled", 150)])
def test_series_checkers_reject_raised_constant_term(outputs, name, index, keep_text):
    inst, stdout = outputs[name]
    bad = _corrupt(stdout, index, lambda rec: _raise_constant_term(rec, keep_text))
    verdict = inst.check(bad, 0)
    assert verdict.failed > 0
    assert 1 - verdict.failed / verdict.expected < 1


@pytest.mark.parametrize("suite, old, new", [("ffcount", "fiber=4", "fiber=5"), ("centralizer", "order=6", "order=7")])
def test_verify_checker_rejects_a_count_raised_by_one(outputs, suite, old, new):
    inst, stdout = outputs["verify"]
    index = next(
        i
        for i, line in enumerate(stdout.splitlines())
        if json.loads(line)["suite"] == suite and json.loads(line)["detail"].startswith(old)
    )
    bad = _corrupt(stdout, index, lambda rec: dict(rec, detail=rec["detail"].replace(old, new, 1)))
    assert inst.check(bad, 0).failed > 0


def test_verify_checker_rejects_a_changed_verdict(outputs):
    inst, stdout = outputs["verify"]
    index = next(i for i, line in enumerate(stdout.splitlines()) if '"FLAG"' in line)
    bad = _corrupt(stdout, index, lambda rec: dict(rec, status="PASS"))
    assert inst.check(bad, 0).failed > 0


@pytest.mark.parametrize("name", ["jordan", "star3", "verify"])
def test_exit_code_or_missing_record_fails_every_record(outputs, name):
    inst, stdout = outputs[name]
    assert inst.check(stdout, 1).failed == inst.check(stdout, 1).expected
    short = "".join(line + "\n" for line in stdout.splitlines()[:-1])
    verdict = inst.check(short, 0)
    assert verdict.failed == verdict.expected


@pytest.mark.parametrize(
    "workload, seed",
    [(JORDAN, 0), (replace(STAR3, max_degree=4), RELABEL_SEED), (VERIFY, 0)],
)
def test_traced_records_equal_untraced_records(deadline, workload, seed):
    inst = run.instantiate(workload, seed)
    plain = run.cli_spawn(inst, deadline)
    traced = run.trace_spawn(inst, deadline)
    assert plain.returncode == 0 and traced.returncode == 0
    assert traced.stdout == plain.stdout
    assert inst.check(traced.stdout, 0).failed == 0
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(traced.side) == names - {"trace.overhead_s"} | {"traced_s"}


def test_benchmark_json_matches_the_harness(deadline):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    tally = run.Tally()
    metrics, _ = run.measure(run.instantiate(JORDAN, 0), 1, deadline, tally)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert metrics["pass_rate"][0] == 1.0 and tally.failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: run.layer_unit(name) for name in (m["name"] for m in SPEC["per_layer"])
    }
