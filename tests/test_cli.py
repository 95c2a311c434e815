import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivermotive
from quivermotive import cli
from quivermotive.engine import PolynomialityError
from quivermotive.quiver import JORDAN

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestMotiveCommand:
    def test_jordan_human(self, capsys):
        rc, out, _ = run_cli(capsys, "motive", "--quiver", "jordan", "--v", "1", "--w", "1")
        assert rc == 0
        assert "class = L^2" in out
        assert "d = -1" in out

    def test_vertex_records(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "motive", "--quiver", "vertex", "--v", "1", "--w", "2", "--format", "records",
        )
        assert rc == 0
        record = json.loads(out.strip())
        assert record["command"] == "motive"
        assert record["coefficients"] == [0, 1, 1]
        assert record["d"] == -1
        assert record["class"] == "L^1 + L^2"
        assert record["betti"] == [[1, 1], [2, 1]]

    def test_missing_w_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "motive", "--quiver", "jordan", "--v", "1")
        assert rc == 2
        assert "framing vector" in err

    def test_missing_v_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "motive", "--quiver", "jordan", "--w", "1")
        assert rc == 2
        assert "dimension vector" in err

    def test_quiver_file(self, capsys, tmp_path):
        spec = tmp_path / "quiver.json"
        spec.write_text('{"vertices": 1, "edges": [[0, 0]], "w": [1], "v": [2]}')
        rc, out, _ = run_cli(capsys, "motive", "--quiver", str(spec))
        assert rc == 0
        assert "class = L^3 + L^4" in out

    def test_flag_overrides_file_vector(self, capsys, tmp_path):
        spec = tmp_path / "quiver.json"
        spec.write_text('{"vertices": 1, "edges": [[0, 0]], "w": [1], "v": [2]}')
        rc, out, _ = run_cli(capsys, "motive", "--quiver", str(spec), "--v", "1")
        assert rc == 0
        assert "class = L^2" in out

    def test_bad_file_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text('{"vertices": 2, "edges": [[0, 5]]}')
        rc, _, err = run_cli(capsys, "motive", "--quiver", str(spec), "--v", "1,1", "--w", "1,1")
        assert rc == 2
        assert "edges[0]" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "motive", "--quiver", str(tmp_path / "nope.json"), "--v", "1", "--w", "1"
        )
        assert rc == 2
        assert "not found" in err

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_spec_exits_2(self, capsys, tmp_path, kind):
        # a spec path that exists but cannot be read as UTF-8 text is
        # refused input, not a crash
        spec = tmp_path / "spec"
        if kind == "directory":
            spec.mkdir()
        else:
            spec.write_bytes(b"\xff\xfe")
        for command, *args in (("motive", "--v", "1", "--w", "1"), ("series", "--w", "1", "--max-degree", "2")):
            rc, out, err = run_cli(capsys, command, "--quiver", str(spec), *args)
            assert rc == 2 and out == ""
            assert err.startswith(f"error: cannot read quiver spec {spec}: "), err

    def test_bad_list_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "motive", "--quiver", "jordan", "--v", "one", "--w", "1")
        assert rc == 2
        assert "--v" in err

    def test_polynomiality_violation_exits_3(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise PolynomialityError("polynomiality violated for a test double")

        monkeypatch.setattr(cli, "motive_class", explode)
        rc, _, err = run_cli(capsys, "motive", "--quiver", "jordan", "--v", "1", "--w", "1")
        assert rc == 3
        assert "polynomiality" in err


class TestSeriesCommand:
    def test_row_count(self, capsys):
        rc, out, _ = run_cli(
            capsys, "series", "--quiver", "jordan", "--w", "1", "--max-degree", "2"
        )
        assert rc == 0
        rows = out.strip().splitlines()
        assert len(rows) == 3
        assert rows[0].endswith("class = 1")

    def test_degree_zero_single_row(self, capsys):
        rc, out, _ = run_cli(
            capsys, "series", "--quiver", "jordan", "--w", "1", "--max-degree", "0"
        )
        assert rc == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1
        assert "class = 1" in rows[0]

    def test_second_point_class_pinned(self, capsys):
        # the length-two row, pinned against the fields where the point
        # count dictionary holds (q = 3, 5) and the dimension bound 4
        rc, out, _ = run_cli(
            capsys,
            "series", "--quiver", "jordan", "--w", "1", "--max-degree", "2",
            "--format", "records",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        row = next(r for r in records if r["v"] == [2])
        assert row["coefficients"] == [0, 0, 0, 1, 1]
        from quivermotive.fflab import count_moment_fiber, group_order

        poly = row["coefficients"]
        for q in (3, 5):
            value = sum(c * q**k for k, c in enumerate(poly))
            assert value * group_order((2,), q) == count_moment_fiber(JORDAN, (2,), (1,), 1, q)
        assert len(poly) - 1 == 4

    def test_records_round_trip(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "series", "--quiver", "a2", "--w", "1,1", "--max-degree", "2",
            "--format", "records",
        )
        assert rc == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line
            assert set(record) == {"command", "v", "w", "d", "coefficients", "class"}

    def test_missing_degree_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "series", "--quiver", "jordan", "--w", "1")
        assert rc == 2
        assert "degree" in err

    @pytest.mark.parametrize(
        "golden_name,args",
        [
            (
                "jordan_w1_degree4.jsonl",
                ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "4"],
            ),
            (
                "a2_w11_degree3.jsonl",
                ["series", "--quiver", "a2", "--w", "1,1", "--max-degree", "3"],
            ),
        ],
    )
    def test_golden_records(self, capsys, golden_name, args):
        # byte-exact: the record layout and the polynomial token convention
        # are frozen interfaces
        rc, out, _ = run_cli(capsys, *args, "--format", "records")
        assert rc == 0
        assert out == (GOLDEN / golden_name).read_text()

    def test_thread_count_does_not_change_output(self, capsys):
        args = ["series", "--quiver", "star3", "--w", "1,0,2", "--max-degree", "3",
                "--format", "records"]
        rc1, out1, _ = run_cli(capsys, *args, "--threads", "1")
        rc2, out2, _ = run_cli(capsys, *args, "--threads", "4")
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "2",
                      "--threads", threads])
        assert exc.value.code == 2
        assert f"must be at least 1, got {int(threads)}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_centralizer_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "centralizer")
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 23

    def test_centralizer_runs_the_requested_field(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "centralizer", "--q", "5", "--format", "records")
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["case"].endswith(" q=5") for r in records)
        statuses = [r["status"] for r in records]
        # a commutant of dimension k holds 5^k matrices: k <= 8 fits the
        # budget, k = 9, 10, 16 for (1,1,1), (2,1,1), (1,1,1,1) do not
        assert statuses.count("PASS") == 9
        assert statuses.count("SKIP") == 3
        by_case = {r["case"]: r for r in records}
        assert by_case["lam=(1, 1) q=5"]["detail"] == "order=480"

    def test_centralizer_at_a_large_prime(self, capsys):
        # the scan's lane arithmetic grows with the bit length of q, not with
        # q: over F_65521 only lam=(1) fits the budget, its 65521 matrices
        # scanned in one block, and every other commutant is a SKIP
        start = time.perf_counter()
        rc, out, _ = run_cli(capsys, "verify", "centralizer", "--q", "65521", "--format", "records")
        elapsed = time.perf_counter() - start
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["status"] for r in records[:2]] == ["PASS", "PASS"]
        assert records[1]["detail"] == "order=65520"
        assert [r["status"] for r in records[2:]] == ["SKIP"] * 10
        assert elapsed < 1.0

    def test_centralizer_non_prime_field_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "centralizer", "--q", "4")
        assert rc == 2
        assert out == ""
        assert "prime" in err

    def test_budget_bounds_the_centralizer_scan(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "centralizer", "--q", "2", "--budget", "10", "--format", "records"
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        statuses = [r["status"] for r in records]
        # 2^k <= 10 for the commutants of (), (1), (2) and (3), k = 0, 1, 2, 3
        assert statuses.count("PASS") == 4
        assert statuses.count("SKIP") == 8
        assert all("budget is 10" in r["detail"] for r in records if r["status"] == "SKIP")

    def test_corrupted_cofactor_fails(self, capsys, monkeypatch, fresh_engine_caches):
        # the column step from 2 to 0 times (L^2 - 1) makes the centralizer
        # class of (1, 1) L(L - 1): the suite folds the column steps the
        # series multiply, so the class of jordan v=(2) w=(1), L^3 + L^4,
        # changes or stops being a polynomial
        from quivermotive import engine

        original = engine._column_step

        def wrong_step(high, low, bits):
            offset, value = original(high, low, bits)
            if (high, low) == (2, 0):
                value *= (1 << 2 * bits) - 1
            return offset, value

        monkeypatch.setattr(engine, "_column_step", wrong_step)
        rc, out, _ = run_cli(capsys, "verify", "centralizer", "--q", "2")
        assert rc == 1
        assert "FAIL centralizer: lam=(1, 1) q=2" in out
        rc, out, _ = run_cli(capsys, "motive", "--quiver", "jordan", "--v", "2", "--w", "1")
        assert rc == 3 or (rc == 0 and "class = L^3 + L^4\n" not in out)

    def test_raised_constant_term_fails_ffcount(self, capsys, monkeypatch):
        # every class one too large at L^0: the level is generic at q > |v|,
        # so a mismatch there FAILs, and only q <= |v| may FLAG
        from quivermotive import engine

        original = engine.motive_table

        def raised_row(result):
            head, *tail = result.class_polynomial
            return engine.MotiveResult(result.quiver, result.v, result.w, result.d_shift, (head + 1, *tail))

        def raised(quiver, w, bound, threads=1):
            # the suite reads every class off one table
            return [raised_row(result) for result in original(quiver, w, bound, threads)]

        monkeypatch.setattr(engine, "motive_table", raised)
        rc, out, _ = run_cli(
            capsys, "verify", "ffcount", "--quiver", "jordan", "--q", "2,3", "--format", "records"
        )
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        status = {r["case"]: r["status"] for r in records}
        assert status == {
            "jordan v=(1,) w=(1,) q=2": "FAIL",
            "jordan v=(1,) w=(1,) q=3": "FAIL",
            "jordan v=(2,) w=(1,) q=2": "FLAG",
            "jordan v=(2,) w=(1,) q=3": "FAIL",
            "jordan v=(3,) w=(1,) q=2": "FLAG",
            "jordan v=(3,) w=(1,) q=3": "FLAG",
        }
        for r in records:
            exception = r["detail"].endswith(" (small-characteristic exception)")
            assert exception == (r["status"] == "FLAG"), r

    @pytest.mark.parametrize(
        "suite,fields", [("all", "2,0"), ("harmonic", "0"), ("kappa", "0"), ("ffcount", "1")]
    )
    def test_non_prime_field_exits_2_before_any_suite(self, capsys, suite, fields):
        rc, out, err = run_cli(capsys, "verify", suite, "--q", fields)
        assert rc == 2
        assert out == ""
        bad = fields.split(",")[-1]
        assert err == f"error: field size must be prime, got {bad}\n"

    def test_large_prime_field_is_checked_at_once(self, capsys):
        # a dozen modular powers, not trial division up to the square root
        start = time.perf_counter()
        rc, out, _ = run_cli(capsys, "verify", "centralizer", "--q", "10000000000000061")
        assert time.perf_counter() - start < 5
        assert (rc, out.splitlines()[-1]) == (0, "summary: 1 passed, 0 failed, 0 flagged, 11 skipped")
        bound = 318665857834031151167461  # the least strong pseudoprime to the bases 2 to 37
        for bad in ("0", "1", "4", "6", "3215031751", str(bound)):
            rc, out, err = run_cli(capsys, "verify", "centralizer", "--q", bad)
            assert (rc, out) == (2, ""), bad
        assert err == f"error: field size must be below {bound}, got {bound}\n"

    def test_empty_field_list_exits_2(self, capsys):
        # an empty --q is refused, never replaced by the default fields
        rc, out, err = run_cli(capsys, "verify", "centralizer", "--q", "")
        assert rc == 2
        assert out == ""
        assert "--q" in err

    @pytest.mark.parametrize("suite,fields", [("all", "2,2"), ("centralizer", "3,2,3")])
    def test_repeated_field_exits_2_before_any_suite(self, capsys, monkeypatch, suite, fields):
        from quivermotive import fflab

        def no_scan(*args, **kwargs):
            raise AssertionError("enumerated before refusing the fields")

        monkeypatch.setattr(fflab, "centralizer_order", no_scan)
        monkeypatch.setattr(fflab, "count_moment_fiber", no_scan)
        rc, out, err = run_cli(capsys, "verify", suite, "--q", fields)
        assert rc == 2
        assert out == ""
        assert err == f"error: --q repeats a field size: {fields}\n"

    @pytest.mark.parametrize("suite,budget", [("ffcount", "-1"), ("centralizer", "0")])
    def test_budget_below_one_exits_2(self, capsys, suite, budget):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--q", "2", "--budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at least 1, got {budget}" in captured.err

    def test_budget_help_states_the_fflab_defaults(self, capsys):
        from quivermotive import fflab

        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert (
            f"(default 2^{fflab.CENTRALIZER_BUDGET.bit_length() - 1} for centralizer scans, "
            f"2^{fflab.DEFAULT_BUDGET.bit_length() - 1} for fiber counts and fiber identities)"
        ) in text

    def test_ffcount_zero_level_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "ffcount", "--q", "2", "--alpha", "0")
        assert rc == 2
        assert out == ""
        assert "alpha=0" in err

    def test_all_level_zero_in_one_field_exits_2(self, capsys, monkeypatch):
        from quivermotive import fflab

        def no_scan(*args, **kwargs):
            raise AssertionError("enumerated before refusing the level")

        monkeypatch.setattr(fflab, "centralizer_order", no_scan)
        monkeypatch.setattr(fflab, "count_moment_fiber", no_scan)
        rc, out, err = run_cli(capsys, "verify", "all", "--q", "2,3", "--alpha", "3")
        assert rc == 2
        assert out == ""
        assert "field of size 3" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["all", "--quiver", "/nonexistent.json"], "quiver spec not found"),
            (["all", "--w", "1,1"], "w has 2 entries"),
            (["ffcount", "--w", "-1"], "nonnegative"),
        ],
    )
    def test_bad_quiver_or_w_exits_2_before_any_suite(self, capsys, monkeypatch, args, message):
        from quivermotive import verify

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the input was checked")

        for suite in ("centralizer_suite", "kappa_suite", "harmonic_suite", "ffcount_suite"):
            monkeypatch.setattr(verify, suite, no_suite)
        rc, out, err = run_cli(capsys, "verify", *args, "--q", "2,3")
        assert rc == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "suite,option,value",
        [("kappa", option, value) for option, value in (
            ("--quiver", "nope.json"), ("--w", "1"), ("--alpha", "2"), ("--q", "2"),
            ("--budget", "1"),
        )]
        + [(suite, option, value) for suite in ("centralizer", "harmonic") for option, value in (
            ("--quiver", "jordan"), ("--w", "7,7,7"), ("--alpha", "0"),
        )],
    )
    def test_unread_option_exits_2_before_any_suite(self, capsys, monkeypatch, suite, option, value):
        # a suite with a fixed grid refuses an option it would not read
        # instead of running its grid without it
        from quivermotive import verify

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran with an option it does not read")

        for name in ("centralizer_suite", "kappa_suite", "harmonic_suite", "ffcount_suite"):
            monkeypatch.setattr(verify, name, no_suite)
        rc, out, err = run_cli(capsys, "verify", suite, option, value)
        assert (rc, out) == (2, "")
        assert err == f"error: the {suite} suite does not read {option}\n"

    def test_unread_options_are_named_together(self, capsys):
        rc, out, err = run_cli(
            capsys, "verify", "kappa", "--alpha", "1", "--quiver", "jordan", "--budget", "9"
        )
        assert (rc, out) == (2, "")
        assert err == "error: the kappa suite does not read --quiver, --alpha, --budget\n"

    def test_harmonic_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "harmonic", "--q", "2,3")
        assert rc == 0
        assert "FAIL" not in out

    def test_budget_bounds_the_harmonic_fiber_identities(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "harmonic", "--q", "2", "--budget", "10", "--format", "records"
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        # the Fourier checks count the larger of their q^n x q^n phase table
        # and their q^(n+1) * 100 random counts against the budget too
        skipped = [r for r in records if r["status"] != "PASS"]
        assert [(r["status"], r["case"], r["detail"]) for r in skipped] == [
            ("SKIP", "fourier-inversion n=1 q=2 trials=100",
             "Fourier inversion needs 400 points, budget is 10"),
            ("SKIP", "fourier-inversion n=2 q=2 trials=100",
             "Fourier inversion needs 800 points, budget is 10"),
            ("SKIP", "fiber-identity a2 v=(1,1) w=(1,0) q=2",
             "commuting-variety enumeration needs 16 points, budget is 10"),
        ]
        assert len(records) == 10

    def test_budget_bounds_the_harmonic_checks_at_a_large_prime(self):
        # each check over budget refuses before it allocates (the Fourier
        # check at n = 1 would build a 1009^2 phase table and 10^8 random
        # counts); a fresh interpreter, so the peak memory is the command's
        code = (
            "import resource, sys\n"
            "from quivermotive import cli\n"
            "rc = cli.main(['verify', 'harmonic', '--q', '1009', '--budget', '100000',"
            " '--format', 'records'])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(rc)\n"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=60
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr.split()[-1]) < 200 * 1024  # KiB
        records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
        status = {r["case"]: r["status"] for r in records}
        assert status.pop("linear-orthogonality n=1 q=1009") == "PASS"
        assert len(status) == 9 and set(status.values()) == {"SKIP"}

    def test_harmonic_fiber_identity_can_fail(self, capsys, monkeypatch):
        from quivermotive import fflab

        monkeypatch.setattr(fflab, "charsum_fiber_identity", lambda *args, **kwargs: False)
        rc, out, _ = run_cli(capsys, "verify", "harmonic", "--q", "2", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        failed = [r["case"] for r in records if r["status"] == "FAIL"]
        assert len(failed) == 5
        assert all(case.startswith("fiber-identity ") for case in failed)

    def test_budget_bounds_the_ffcount_fibers(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "ffcount", "--q", "2", "--budget", "10", "--format", "records"
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        statuses = [r["status"] for r in records]
        assert statuses == ["PASS", "SKIP", "SKIP"]
        assert all("budget is 10" in r["detail"] for r in records[1:])

    def test_corrupted_rank_fails_kappa(self, capsys, monkeypatch, fresh_fflab_caches):
        # one rank short on every nonzero block raises the oracle's nullity
        from quivermotive import fflab

        rank = fflab._rank_rational
        monkeypatch.setattr(fflab, "_rank_rational", lambda rows: max(rank(rows) - 1, 0))
        rc, out, _ = run_cli(capsys, "verify", "kappa", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert sum(r["status"] == "FAIL" for r in records) > len(records) // 2

    def test_rows_without_the_source_term_fail(self, capsys, monkeypatch, fresh_fflab_caches):
        # arrow rows of E -> X_t E, the -E X_s term dropped: the kappa ranks
        # and, through the moment forms, the fiber identities go wrong, while
        # the identity's own explicit products stay right
        from quivermotive import fflab

        monkeypatch.setattr(
            fflab, "_arrow_rows", lambda X_t, X_s: fflab._framing_rows(X_t, len(X_s))
        )
        rc, out, _ = run_cli(capsys, "verify", "kappa", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert sum(r["status"] == "FAIL" for r in records) == 63
        rc, out, _ = run_cli(capsys, "verify", "harmonic", "--q", "2", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        failed = [r["case"] for r in records if r["status"] == "FAIL"]
        assert len(failed) == 4
        assert all(case.startswith("fiber-identity ") for case in failed)

    def test_corrupted_transform_fails_fourier_inversion(self, capsys, monkeypatch):
        # a transform that drops the term of the origin; a flipped phase sign
        # would not do, since the conjugate transform applied twice also
        # scales by q^n and negates the argument
        from quivermotive import fflab

        transform = fflab._transform_counts
        monkeypatch.setattr(
            fflab, "_transform_counts", lambda f, q, phases: transform([None, *f[1:]], q, phases)
        )
        rc, out, _ = run_cli(capsys, "verify", "harmonic", "--q", "2", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        failed = [r["case"] for r in records if r["status"] == "FAIL"]
        assert failed == [r["case"] for r in records if r["case"].startswith("fourier-inversion ")]
        assert len(failed) == 2

    def test_negated_phases_fail_fourier_inversion(self, capsys, monkeypatch):
        # the conjugate transform: applied twice it still scales by q^n and
        # negates the argument, so only the delta-function check catches it;
        # q = 3, since at q = 2 every phase is its own negative
        from quivermotive import fflab

        phase_table = fflab._phase_table
        monkeypatch.setattr(
            fflab,
            "_phase_table",
            lambda q, n: [[(-t) % q for t in row] for row in phase_table(q, n)],
        )
        rc, out, _ = run_cli(capsys, "verify", "harmonic", "--q", "3", "--format", "records")
        assert rc == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        failed = [r["case"] for r in records if r["status"] == "FAIL"]
        assert failed == [r["case"] for r in records if r["case"].startswith("fourier-inversion ")]
        assert len(failed) == 2

    def test_kappa_oracle_over_budget_skips(self, capsys, monkeypatch):
        # the suite checks its grid once and calls the unchecked kernel
        from quivermotive import fflab

        def over_budget(quiver, w, lam_tuple):
            size = sum(lam.size for lam in lam_tuple)
            raise fflab.EnumerationBudgetError(size, 0, "kernel-dimension oracle")

        monkeypatch.setattr(fflab, "_kappa_nullity", over_budget)
        rc, out, _ = run_cli(capsys, "verify", "kappa", "--format", "records")
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["status"] for r in records} == {"SKIP"}
        assert records[-1]["detail"] == "kernel-dimension oracle needs 5 points, budget is 0"

    @pytest.mark.parametrize(
        "golden_name,args",
        [
            ("verify_all_q2.jsonl", ["verify", "all", "--q", "2"]),
            (
                "star3_ffcount_q23.jsonl",
                ["verify", "ffcount", "--quiver", "star3", "--w", "1,1,1", "--q", "2,3"],
            ),
            ("centralizer_q23.jsonl", ["verify", "centralizer", "--q", "2,3"]),
            ("harmonic_q3.jsonl", ["verify", "harmonic", "--q", "3"]),
        ],
    )
    def test_golden_records(self, capsys, golden_name, args):
        # byte-exact: verdicts and detail strings of every case
        rc, out, _ = run_cli(capsys, *args, "--format", "records")
        assert rc == 0
        assert out == (GOLDEN / golden_name).read_text()

    def test_ffcount_records_flag_small_characteristic(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "verify", "ffcount", "--quiver", "jordan", "--q", "2", "--format", "records",
        )
        assert rc == 0  # FLAG is reported but not fatal
        records = [json.loads(line) for line in out.strip().splitlines()]
        by_case = {r["case"]: r for r in records}
        assert by_case["jordan v=(1,) w=(1,) q=2"]["status"] == "PASS"
        flagged = by_case["jordan v=(2,) w=(1,) q=2"]
        assert flagged["status"] == "FLAG"
        assert "240" in flagged["detail"]

    def test_all_suites_smoke(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "all", "--q", "2")
        assert rc == 0
        assert "FAIL" not in out
        for suite in ("centralizer", "kappa", "harmonic", "ffcount"):
            assert f"{suite}:" in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "all", "--q", "2", "--format", "records"],
        ["verify", "kappa"],
        ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "4", "--format", "records"],
        ["series", "--quiver", "a2", "--w", "1,1", "--max-degree", "2"],
    ],
)
def test_records_go_out_in_one_write(capsys, monkeypatch, args):
    # every print is a write(2) of its own when stdout is unbuffered
    rc, expected, _ = run_cli(capsys, *args)
    writes = []
    monkeypatch.setattr(sys.stdout, "write", writes.append)
    assert cli.main(args) == rc
    assert writes == [expected]


def _fresh_env():
    src = str(Path(quivermotive.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_fresh_interpreter(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "summary: " in proc.stdout


def test_engine_commands_import_no_numpy():
    # in a fresh interpreter: motive and series, whatever --threads says,
    # load neither the oracles and numpy nor the modules that only
    # other code runs (the fraction type and the partitions among them, and
    # argparse with its gettext and locale), so the package loads exactly the
    # modules they run; the series type and verify load on demand.  Modules
    # the bare interpreter already holds (host site hooks vary) are exempt.
    code = """
import sys
bare = set(sys.modules)
from quivermotive import cli
args = ["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "4", "--threads", "2"]
assert cli.main(args) == 0
assert cli.main(["motive", "--quiver", "jordan", "--v", "3", "--w", "1"]) == 0
unused = ("numpy", "quivermotive.fflab", "quivermotive.verify", "quivermotive.series",
          "quivermotive.lrat", "quivermotive.partitions",
          "dataclasses", "fractions", "decimal", "concurrent.futures", "logging",
          "argparse", "gettext", "locale")
loaded = [m for m in unused if m in sys.modules and m not in bare]
assert not loaded, loaded
package = sorted(m for m in sys.modules if m.startswith("quivermotive"))
assert package == ["quivermotive", "quivermotive.cli", "quivermotive.engine",
                   "quivermotive.poly", "quivermotive.quiver"], package
from quivermotive import JORDAN, MSeries, motive_series
assert isinstance(motive_series(JORDAN, (1,), 2), MSeries)
assert cli.main(["verify", "kappa"]) == 0
assert "numpy" not in sys.modules
"""
    _run_fresh_interpreter(code)


@pytest.mark.parametrize(
    "args",
    [["selftest", "--fast"], ["verify", "all"], ["verify", "centralizer", "--q", "2,3,5"]],
)
def test_oracle_commands_import_no_numpy(args):
    # in a fresh interpreter: the oracles run on Python ints and lists, so
    # neither the selftest nor the verify suites load numpy or the array
    # extension, at any field size, nor the library-only points module
    # (explicit points and the stable count), nor argparse with its gettext
    # and locale.  Modules the bare interpreter already holds (host site
    # hooks vary) are exempt.
    code = f"""
import sys
bare = set(sys.modules)
from quivermotive import cli
assert cli.main({args!r}) == 0
unused = ("numpy", "array", "quivermotive.points", "argparse", "gettext", "locale")
loaded = [m for m in unused if m in sys.modules and m not in bare]
assert not loaded, loaded
"""
    _run_fresh_interpreter(code)


def test_package_runs_without_numpy():
    # in a fresh interpreter where numpy cannot be imported: the stable
    # count, the verify suites and the selftest all run on Python ints
    code = """
import sys
sys.modules["numpy"] = None
from quivermotive import JORDAN, cli, count_stable_fiber
assert count_stable_fiber(JORDAN, (2,), (1,), 2) == 144
assert cli.main(["verify", "all", "--q", "2"]) == 0
assert cli.main(["selftest", "--fast"]) == 0
"""
    _run_fresh_interpreter(code)


def test_main_freezes_the_start_up_heap():
    # in a fresh interpreter: the library leaves the collector alone; each
    # cli.main call freezes what is alive before its command runs (more once
    # the oracles have loaded), and garbage made afterwards is still collected
    code = """
import gc, sys, weakref
from quivermotive import JORDAN, motive_table
motive_table(JORDAN, (1,), 4)
assert gc.get_freeze_count() == 0
from quivermotive import cli
assert cli.main(["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "4"]) == 0
after_series = gc.get_freeze_count()
assert after_series > 0 and "numpy" not in sys.modules
assert cli.main(["verify", "all", "--q", "2"]) == 0
assert gc.get_freeze_count() > after_series and "numpy" not in sys.modules
class Node:
    pass
node = Node()
node.self = node
ref = weakref.ref(node)
del node
gc.collect()
assert ref() is None
"""
    _run_fresh_interpreter(code)


@pytest.mark.parametrize(
    "args,rc",
    [
        (["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "4", "--format", "records"], 0),
        (["verify", "kappa", "--format", "records"], 0),
        (["motive", "--quiver", "jordan", "--v", "-1", "--w", "1"], 2),
    ],
)
def test_cli_process_matches_main(capsys, args, rc):
    # the command as a real process, through interpreter exit, prints the
    # same bytes and exits with the same code as cli.main in this process
    proc = subprocess.run(
        [sys.executable, "-m", "quivermotive.cli", *args],
        env=_fresh_env(),
        capture_output=True,
        timeout=300,
    )
    assert cli.main(args) == proc.returncode == rc
    captured = capsys.readouterr()
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_verify_imports_no_fractions():
    # in a fresh interpreter: the verify suites evaluate every class as an
    # integer polynomial and compare character sums as count lists, so
    # neither fractions, decimal nor the fraction type loads; their records
    # are plain slot classes, so dataclasses does not load either.  Modules the
    # bare interpreter already holds (host site hooks vary) are exempt.
    code = """
import sys
bare = set(sys.modules)
from quivermotive import cli
assert cli.main(["verify", "all", "--q", "2"]) == 0
unused = ("fractions", "decimal", "quivermotive.lrat", "dataclasses")
loaded = [m for m in unused if m in sys.modules and m not in bare]
assert not loaded, loaded
"""
    _run_fresh_interpreter(code)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _argparse_reference():
    # the argparse parser the command line used to have, kept as the
    # reference for its grammar: the same commands, options, kinds, defaults
    # and required arguments, without the help texts
    parser = argparse.ArgumentParser(prog="quivermotive")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, quiver_required):
        p.add_argument("--quiver", required=quiver_required, default=None)
        p.add_argument("--format", choices=("human", "records"), default="human")
        p.add_argument("--threads", type=_positive_int, default=1)

    p_motive = sub.add_parser("motive")
    add_common(p_motive, quiver_required=True)
    p_motive.add_argument("--v")
    p_motive.add_argument("--w")
    p_motive.set_defaults(func=cli.cmd_motive)

    p_series = sub.add_parser("series")
    add_common(p_series, quiver_required=True)
    p_series.add_argument("--w")
    p_series.add_argument("--max-degree", type=int)
    p_series.set_defaults(func=cli.cmd_series)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("suite", choices=("ffcount", "centralizer", "kappa", "harmonic", "all"))
    add_common(p_verify, quiver_required=False)
    p_verify.add_argument("--w")
    p_verify.add_argument("--q")
    p_verify.add_argument("--alpha", type=int, default=None)
    p_verify.add_argument("--budget", type=_positive_int, default=None)
    p_verify.set_defaults(func=cli.cmd_verify)

    p_selftest = sub.add_parser("selftest")
    p_selftest.add_argument("--fast", action="store_true")
    p_selftest.add_argument("--format", choices=("human", "records"), default="human")
    p_selftest.set_defaults(func=cli.cmd_selftest)
    return parser


def _parse_outcome(parser, argv):
    """("ok", namespace with func by name) or ("exit", code), and the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            return ("exit", exc.code), out.getvalue(), err.getvalue()
    return ("ok", {**args, "func": args["func"].__name__}), out.getvalue(), err.getvalue()


# every option of every command, with a value the reference accepts
_OPTION_VALUES = {
    "motive": [("--quiver", "a2"), ("--format", "records"), ("--threads", "3"),
               ("--v", "1,2"), ("--w", "0,1")],
    "series": [("--quiver", "star3"), ("--format", "records"), ("--threads", "2"),
               ("--w", "1,1,1"), ("--max-degree", "8")],
    "verify": [("--quiver", "a2"), ("--format", "records"), ("--threads", "2"), ("--w", "1,1"),
               ("--q", "2,3"), ("--alpha", "-1"), ("--budget", "7")],
    "selftest": [("--format", "records")],
}
_BASE = {"motive": ["motive", "--quiver", "jordan"], "series": ["series", "--quiver", "jordan"],
         "verify": ["verify", "kappa"], "selftest": ["selftest"]}
_VALID_ARGV = (
    [[*_BASE[name], option, value] for name, pairs in _OPTION_VALUES.items()
     for option, value in pairs]
    + [[*_BASE[name], f"{option}={value}"] for name, pairs in _OPTION_VALUES.items()
       for option, value in pairs]
    + [
        ["selftest", "--fast"],
        ["selftest", "--format", "records", "--fast"],
        ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "16", "--format", "records"],
        ["series", "--quiver", "jordan", "--w", "1", "--max", "3"],
        ["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "8", "--thr", "2"],
        ["series", "--quiver=jordan", "--max=2", "--thr=4"],
        ["verify", "all", "--q", "2"],
        ["verify", "all", "--quiver", "jordan", "--w", "1", "--q", "2", "--format", "records"],
        ["motive", "--quiver", "jordan", "--v", "-1", "--w", "1"],
        ["motive", "--quiver", "jordan", "--v=-1", "--w", "-2"],
        ["series", "--quiver", "a2", "--quiver", "jordan", "--max-degree", "1", "--max-degree", "4"],
        ["selftest", "--fast", "--fast", "--format", "human", "--format", "records"],
        ["verify", "--q", "2", "all", "--format", "records"],
        ["verify", "--quiver", "jordan", "ffcount", "--w", "1", "--alpha", "2"],
        ["verify", "--", "all"],
        ["verify", "all", "--"],
        ["verify", "--q", "2", "--", "harmonic"],
    ]
)
_REFUSED_ARGV = [
    [],
    ["bogus"],
    ["--quiver", "jordan", "series"],
    ["verify", "bogus"],
    ["verify"],
    ["verify", "all", "kappa"],
    ["series", "--quiver", "jordan", "--bogus"],
    ["series", "--quiver", "jordan", "--bogus", "1"],
    ["selftest", "--f"],
    ["selftest", "--fast=1"],
    ["series", "--quiver"],
    ["motive", "--quiver", "jordan", "--v"],
    ["series", "--quiver", "jordan", "--w", "--max-degree", "2"],
    ["series", "--quiver", "jordan", "--max-degree", "x"],
    ["series", "--quiver", "jordan", "--max-degree", "2.5"],
    ["series", "--quiver", "jordan", "--format", "xml"],
    ["series", "--quiver", "jordan", "--threads", "0"],
    ["series", "--quiver", "jordan", "--threads", "x"],
    ["verify", "all", "--budget", "0"],
    ["series", "--quiver", "jordan", "extra"],
    ["series", "--w", "1", "--max-degree", "2"],
    ["motive", "--quiver", "jordan", "--v", "-1,2"],
    ["series", "--quiver", "jordan", "--", "--w", "1"],
    ["series", "-hx"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_reads_argv_as_argparse_did(argv):
    reference, _, _ = _parse_outcome(_argparse_reference(), argv)
    got, out, err = _parse_outcome(cli.build_parser(), argv)
    assert reference[0] == "ok", reference
    assert got == reference
    assert out == err == ""


@pytest.mark.parametrize("argv", _REFUSED_ARGV, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_refuses_argv_as_argparse_did(argv):
    reference, _, _ = _parse_outcome(_argparse_reference(), argv)
    got, out, err = _parse_outcome(cli.build_parser(), argv)
    assert reference == got == ("exit", 2)
    assert out == ""
    assert err.startswith("usage: quivermotive")
    assert err.splitlines()[-1].startswith("quivermotive")


def test_parser_matches_argparse_on_random_argv():
    # seeded random argv over tokens that hit every rule of the grammar:
    # abbreviations, '=' values, negative numbers, '--', -h run-ons, unknown
    # and ambiguous options; the outcome (namespace, or exit code, with
    # help on stdout or a usage line on stderr) must match the reference
    tokens = [
        "motive", "series", "verify", "selftest", "all", "kappa", "bogus", "jordan", "1,1",
        "0", "2", "x", "xml", "records", "", "-", "--", "-1", "-2.5", "-1,2", "-x", "--x",
        "---x", "a b", "-a b", "--quiver", "--qu", "--q", "--v", "--w", "--max-degree", "--max",
        "--m", "--threads", "--thr", "--t", "--format", "--f", "--fo", "--fast", "--fa",
        "--alpha", "--a", "--budget", "--b", "-h", "--help", "--he", "-hh", "-hx", "-h=",
        "-h=h", "--help=1", "--q=2", "--thr=2", "--threads=0", "--fast=1", "--=", "--f=x",
        "--format=records", "--max=3", "--max-degree=x", "--v=-1", "--w=", "--budget=-1",
    ]
    rng = random.Random(25)
    reference, new = _argparse_reference(), cli.build_parser()
    outcomes = set()
    for _ in range(3000):
        argv = [rng.choice(tokens) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.75:
            argv.insert(0, rng.choice(["motive", "series", "verify", "selftest"]))
        if argv[:1] == ["verify"] and rng.random() < 0.6:
            argv.insert(rng.randint(1, len(argv)), rng.choice(["all", "kappa"]))
        want, want_out, want_err = _parse_outcome(reference, argv)
        got, out, err = _parse_outcome(new, argv)
        assert got == want, argv
        assert (bool(out), err.startswith("usage:")) == (bool(want_out), want_err.startswith("usage:")), argv
        outcomes.add(want[0] if want[0] == "ok" else want[1])
    assert outcomes == {"ok", 0, 2}


@pytest.mark.parametrize("command", [None, "motive", "series", "verify", "selftest"])
def test_help_lists_every_option_with_its_help(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    text = " ".join(captured.out.split())
    for name in [command] if command else _OPTION_VALUES:
        for option, _ in _OPTION_VALUES[name] + [("--fast", None)] * (name == "selftest"):
            assert option in text, (name, option)
        for arg in cli._COMMANDS[name][1]:
            assert " ".join(arg[3].split()) in text, (name, arg[0])


@pytest.mark.parametrize(
    "args",
    [
        ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "16", "--format", "records"],
        ["verify", "all", "--quiver", "jordan", "--w", "1", "--q", "2", "--format", "records"],
    ],
)
def test_benchmark_child_runs_the_command(capsys, tmp_path, args):
    # perfbench/cli_child.py as the benchmark spawns it: a parse-only run and
    # a full run each exit 0 and write their stamps, and the full run prints
    # the bytes cli.main prints
    child = Path(__file__).resolve().parents[1] / "perfbench" / "cli_child.py"
    assert cli.main(args) == 0
    expected = capsys.readouterr().out.encode()
    for flag, stamps in ([["--setup-only"], {"setup_end"}], [[], {"setup_end", "compute_end"}]):
        stamp = tmp_path / "stamps.json"
        stamp.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(child), str(stamp), *flag, *args],
            env=_fresh_env(),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        written = json.loads(stamp.read_text())
        assert set(written) == stamps
        assert proc.stdout == (expected if "compute_end" in stamps else b"")
        if "compute_end" in stamps:
            assert written["setup_end"] <= written["compute_end"]


class TestSelftestCommand:
    def test_fast_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest", "--fast")
        assert rc == 0
        assert "0 failed" in out

    @pytest.mark.parametrize("flags", [[], ["--fast", "--format", "records"]])
    def test_only_pass_records(self, capsys, flags):
        rc, out, _ = run_cli(capsys, "selftest", *flags)
        assert rc == 0
        lines = out.strip().splitlines()
        if "--format" in flags:
            records = [json.loads(line) for line in lines]
            assert {r["status"] for r in records} == {"PASS"}
            assert {r["suite"] for r in records} == {"centralizer", "kappa", "harmonic", "ffcount"}
        else:
            assert all(line.startswith("PASS ") for line in lines[:-1])
            assert lines[-1].endswith(" passed, 0 failed, 0 flagged, 0 skipped")

    def test_corrupted_pairing_is_caught(self, capsys, monkeypatch, fresh_engine_caches):
        from quivermotive import engine

        # kappa sums the pairings over the arrows column by column; one wrong
        # column term, at the first column (1, 2) of ((2,), (1, 1)) on a2
        original = engine._arrow_column

        def wrong_column(quiver, column):
            return original(quiver, column) + (1 if tuple(column) == (1, 2) else 0)

        monkeypatch.setattr(engine, "_arrow_column", wrong_column)
        rc, out, _ = run_cli(capsys, "selftest", "--fast")
        assert rc == 1
        assert "FAIL kappa: a2 w=(0, 0) lam=((2,), (1, 1))" in out
