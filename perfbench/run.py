"""Benchmark of the quivermotive command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload jordan-deep --seed 0 --seconds 40 --trace 0

Workloads (why each was chosen is in perfbench/README.md):

    jordan-deep  series --quiver jordan --w 1 --max-degree 16 --format records
    star3-wide   series --quiver star3 --w 1,1,1 --max-degree 8 --format records --threads 2
    verify-all   verify all --quiver jordan --w 1 --q 2 --format records

Closed loop: one command at a time, each repetition in a fresh interpreter
running the checkout's own `src/`, so every repetition starts with empty
caches as a CLI user's does.  Repetitions continue while the next one still
fits in --seconds; every output is checked against references that do not
go through the code being timed (perfbench/checks.py).

--trace 0 reports the end-to-end metrics: medians over the repetitions of
wall_s (spawn to exit), setup_s (spawn to argv parsed, also sampled by
parse-only spawns), compute_s (first layer call to last record flushed) and
peak_rss_mb, plus pass_rate, the share of expected records that pass.  The
times are scaled to a reference host speed by a calibration load
(perfbench/calibration_child.py) run around every spawn; the run record
keeps the raw samples and the calibration times.
--trace 1 alternates an untraced repetition with a traced process
(perfbench/trace_child.py) and reports the per-layer metrics, with
trace.overhead_s = traced time - compute_s; the traced records must equal
the untraced stdout byte for byte.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the machine, versions and per-repetition samples.
Without the package sources next to this directory the run exits with 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
# Every run ends, result printed, well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
SETUP_SPAWNS = 8
# Other tenants of the host slow this machine by up to 90 % for minutes at a
# time, the program and any other code alike.  A fixed calibration load
# (calibration_child.py), run before and after every spawn, measures the
# slowdown of the moment for interpreter start-up with the numpy import and
# for interpreted compute.  Each phase of a spawn is scaled by the reference
# time of the same phase of the calibration over the mean of its two
# measured times.  The reference times are about those of a quiet host of
# the machine that perfbench/README.md describes.
CALIBRATION_REF_SETUP_S = 0.12
CALIBRATION_REF_COMPUTE_S = 0.06


@dataclass(frozen=True)
class Workload:
    kind: str  # "series" or "verify"
    quiver: str
    w: tuple[int, ...]
    max_degree: int = 0
    threads: int = 1
    qs: tuple[int, ...] = ()
    relabel: bool = False  # the seed picks a relabelled, reoriented quiver


WORKLOADS = {
    "jordan-deep": Workload("series", "jordan", (1,), max_degree=16),
    "star3-wide": Workload("series", "star3", (1, 1, 1), max_degree=8, threads=2, relabel=True),
    "verify-all": Workload("verify", "jordan", (1,), qs=(2,)),
}


@dataclass(frozen=True)
class Instance:
    """A workload with its seed applied: the quiver argument and, for a
    relabelled quiver, its layout."""

    workload: Workload
    quiver: str
    layout: checks.Layout | None = None

    def cli_args(self) -> list[str]:
        wl = self.workload
        w = ",".join(map(str, wl.w))
        if wl.kind == "verify":
            qs = ",".join(map(str, wl.qs))
            return ["verify", "all", "--quiver", self.quiver, "--w", w, "--q", qs, "--format", "records"]
        args = ["series", "--quiver", self.quiver, "--w", w, "--max-degree", str(wl.max_degree)]
        args += ["--format", "records"]
        return args + (["--threads", str(wl.threads)] if wl.threads > 1 else [])

    def trace_spec(self) -> dict:
        wl = self.workload
        spec = {"kind": wl.kind, "quiver": self.quiver, "w": list(wl.w)}
        if wl.kind == "verify":
            return dict(spec, qs=list(wl.qs))
        return dict(spec, max_degree=wl.max_degree, threads=wl.threads)

    def check(self, stdout: str, returncode: int) -> checks.Verdict:
        wl = self.workload
        if wl.kind == "verify":
            return checks.check_verify(stdout, returncode, wl.qs)
        if wl.quiver == "jordan":
            return checks.check_jordan(stdout, returncode, wl.max_degree)
        return checks.check_star3(stdout, returncode, self.layout or checks.STAR3_LAYOUT, wl.max_degree)


def instantiate(workload: Workload, seed: int, work: Path = WORK) -> Instance:
    """Seed 0 is the builtin quiver; other seeds relabel the vertices and
    reorient the arrows of the same graph, written as a spec file."""
    if not workload.relabel or seed == 0:
        return Instance(workload, workload.quiver)
    rng = random.Random(seed)
    perm = [0, 1, 2]
    rng.shuffle(perm)
    edges = []
    for s, t in checks.STAR3_LAYOUT.edges:
        if rng.random() < 0.5:
            s, t = t, s
        edges.append((perm[s], perm[t]))
    layout = checks.Layout(tuple(perm), tuple(edges))
    path = work / f"star3_seed{seed}.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [list(e) for e in edges]}), encoding="utf-8")
    return Instance(workload, str(path), layout)


@dataclass
class Spawn:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    side: dict  # what the child wrote to its side file: stamps or layer metrics
    setup_s: float | None = None
    compute_s: float | None = None
    # To the reference speed: reference time / calibration time, per phase.
    setup_scale: float = 1.0
    compute_scale: float = 1.0


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(script: str, args: list[str], deadline: float, tag: str) -> Spawn:
    """Run one child interpreter to completion; kill it at the deadline."""
    side = WORK / f"{tag}.json"
    side.unlink(missing_ok=True)
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), str(side)] + args,
            stdout=out,
            stderr=err,
            cwd=ROOT,
            env=_child_env(),
        )
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"{script} {' '.join(args)} exited {proc.returncode}\n")
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    written = json.loads(side.read_text(encoding="utf-8")) if side.exists() else {}
    result = Spawn(
        proc.returncode,
        end - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        written,
    )
    if "setup_end" in written:
        result.setup_s = written["setup_end"] - start
        if "compute_end" in written:
            result.compute_s = written["compute_end"] - written["setup_end"]
    return result


def cli_spawn(inst: Instance, deadline: float, setup_only: bool = False) -> Spawn:
    flag = ["--setup-only"] if setup_only else []
    return spawn("cli_child.py", flag + inst.cli_args(), deadline, "setup" if setup_only else "cli")


def trace_spawn(inst: Instance, deadline: float) -> Spawn:
    return spawn("trace_child.py", [json.dumps(inst.trace_spec())], deadline, "trace")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def calibration(deadline: float) -> Spawn:
    """One run of the fixed calibration load: the host's speed of the moment."""
    spawned = spawn("calibration_child.py", [], deadline, "calibration")
    if spawned.returncode != 0 or spawned.compute_s is None:
        raise RuntimeError(f"calibration_child.py exited {spawned.returncode}")
    return spawned


def _at_reference(spawned: Spawn, field: str) -> float | None:
    """A spawn's setup_s, compute_s or wall_s, each phase at the reference speed."""
    setup = spawned.setup_s * spawned.setup_scale if spawned.setup_s is not None else None
    if field == "setup_s":
        return setup
    if setup is None or spawned.compute_s is None:
        return None
    if field == "compute_s":
        return spawned.compute_s * spawned.compute_scale
    return setup + (spawned.wall_s - spawned.setup_s) * spawned.compute_scale


class Tally:
    """Checked records across a run: attempted, failed, and the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, verdict: checks.Verdict) -> None:
        self.attempted += verdict.expected
        self.failed += verdict.failed
        self.problems.extend(verdict.problems[: max(0, 20 - len(self.problems))])


def measure(inst: Instance, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced repetitions: end-to-end metrics and the per-repetition samples."""
    start = time.monotonic()
    calibrations = [calibration(deadline)]

    def calibrated(spawned: Spawn) -> Spawn:
        calibrations.append(calibration(deadline))
        around = calibrations[-2:]
        spawned.setup_scale = CALIBRATION_REF_SETUP_S / statistics.fmean(c.setup_s for c in around)
        spawned.compute_scale = CALIBRATION_REF_COMPUTE_S / statistics.fmean(c.compute_s for c in around)
        return spawned

    setups = [calibrated(cli_spawn(inst, deadline, setup_only=True)) for _ in range(SETUP_SPAWNS)]
    reps: list[Spawn] = []
    while True:
        rep = calibrated(cli_spawn(inst, deadline))
        tally.add(inst.check(rep.stdout, rep.returncode))
        reps.append(rep)
        next_s = _median([r.wall_s for r in reps])
        now = time.monotonic()
        if now - start + next_s > seconds or now + next_s > deadline:
            break
    samples = {
        "calibration_setup_s": [c.setup_s for c in calibrations],
        "calibration_compute_s": [c.compute_s for c in calibrations],
        "setup_only_s": [s.setup_s for s in setups],
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "compute_s": [r.compute_s for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    metrics = {
        "wall_s": (_median([_at_reference(r, "wall_s") for r in reps]), "s"),
        "setup_s": (_median([_at_reference(s, "setup_s") for s in setups + reps]), "s"),
        "compute_s": (_median([_at_reference(r, "compute_s") for r in reps]), "s"),
        "peak_rss_mb": (_median(samples["peak_rss_mb"]), "MB"),
        "pass_rate": (1 - tally.failed / tally.attempted, "ratio"),
    }
    return metrics, samples


LAYER_UNITS = {
    "_s": "s",
    "us_per_point": "us",
    "budget_use": "ratio",
    "max_den_degree": "degree",
    "max_coeff_bits": "bits",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure_traced(inst: Instance, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict]:
    """Pairs of an untraced repetition and a traced process."""
    start = time.monotonic()
    computes, traced = [], []
    pair_s: list[float] = []
    while True:
        began = time.monotonic()
        rep = cli_spawn(inst, deadline)
        tally.add(inst.check(rep.stdout, rep.returncode))
        computes.append(rep.compute_s)
        traced_rep = trace_spawn(inst, deadline)
        verdict = inst.check(traced_rep.stdout, traced_rep.returncode)
        if traced_rep.stdout != rep.stdout:
            verdict.fail_all("traced records differ from the untraced stdout")
        elif not traced_rep.side:
            verdict.fail_all("traced run wrote no metrics")
        tally.add(verdict)
        if traced_rep.side:
            traced.append(traced_rep.side)
        now = time.monotonic()
        pair_s.append(now - began)
        if now - start + _median(pair_s) > seconds or now + _median(pair_s) > deadline:
            break
    metrics = {}
    for name in traced[0] if traced else ():
        if name != "traced_s":
            metrics[name] = (_median([t[name] for t in traced]), layer_unit(name))
    traced_s, compute_s = _median([t.get("traced_s") for t in traced]), _median(computes)
    if traced_s is not None and compute_s is not None:
        metrics["trace.overhead_s"] = (traced_s - compute_s, "s")
    return metrics, {"compute_s": computes, "traced_s": [t["traced_s"] for t in traced]}


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quivermotive" / "cli.py").is_file():
        print(f"error: no quivermotive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    inst = instantiate(WORKLOADS[args.workload], args.seed)
    load_before = os.getloadavg()
    # Untimed: the first import after a checkout compiles bytecode.
    cli_spawn(inst, deadline, setup_only=True)
    tally = Tally()
    run = measure_traced if args.trace else measure
    metrics, samples = run(inst, args.seconds, deadline, tally)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["quivermotive"] + inst.cli_args(),
        "layout": dataclasses.asdict(inst.layout) if inst.layout else None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_sha": git_sha(),
        "samples": samples,
        "problems": tally.problems,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r:>24} {unit}", file=sys.stderr)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and all(value is not None for value, _ in metrics.values())
    print(json.dumps({"run": record}))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
