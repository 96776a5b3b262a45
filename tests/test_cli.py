import fractions
import json
import math
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import generator_omega
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicperiods import (
    MR_BOUND,
    BudgetExceeded,
    validate_conductor,
)
from cubicperiods import cubicpoly, eisenstein, periods, quadform
from cubicperiods import cli
from cubicperiods.arith import KINDS, is_probable_prime
from cubicperiods.cli import main, verify_report
from cubicperiods import report as report_mod


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_819_markdown(capsys):
    code, out, _ = run(capsys, ["enumerate", "--conductor", "819", "--format", "md"])
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("| ") and "---" not in line]
    assert len(rows) == 5  # header + four fields
    assert "-57" in out and "1729" in out


def test_enumerate_invalid_conductor(capsys):
    code, out, err = run(capsys, ["enumerate", "--conductor", "99"])
    assert code == 2
    assert out == ""
    assert "99" in err


def test_enumerate_nine(capsys):
    code, out, _ = run(capsys, ["enumerate", "--conductor", "9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "wild"
    assert len(doc["fields"]) == 1
    assert doc["fields"][0]["n1"] == -3
    assert any("nu = 0" in note for note in doc["notes"])


def test_verify_819(capsys):
    code, out, _ = run(capsys, ["verify", "--conductor", "819"])
    assert code == 0
    doc = json.loads(out)
    assert doc["conductor"] == 819 and doc["kind"] == "wild"
    assert len(doc["fields"]) == 4
    for entry in doc["fields"]:
        assert all(entry["verdicts"].values())
        assert entry["residual"] < 1e-6
        assert set(entry["verdicts"]) == {
            "oracle_equivalence",
            "main_identity",
            "period_relation",
            "sign_congruences",
            "generators",
            "kernel_character",
        }
    assert any("gauss sum mod 9" in note for note in doc["notes"])


def test_verify_tame(capsys):
    code, out, _ = run(capsys, ["verify", "--conductor", "7"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["fields"][0]["verdicts"]) == {
        "oracle_equivalence",
        "main_identity",
        "period_relation",
    }


def test_verify_has_no_tolerance_flag(capsys):
    # the float checks derive their bound from their inputs
    code, out, err = run(capsys, ["verify", "--conductor", "819", "--tolerance", "1e-6"])
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


def test_scan_reports_its_first_failing_conductor(capsys, monkeypatch):
    # 61 is the first conductor in [50, 100]; with every largest period
    # moved by 1e-9 its period relation, the first float check, fails
    original = periods.gaussian_periods

    def planted(f, kernel, cubes):
        pt = original(f, kernel, cubes)
        return pt._replace(eta0=pt.eta0 + 1e-9)

    monkeypatch.setattr(periods, "gaussian_periods", planted)
    code, out, err = run(capsys, ["scan", "--min", "50", "--max", "100"])
    assert code == 1
    assert out == ""
    assert "conductor 61:" in err
    assert "RelationFailure" in err


def test_scan_wild(capsys):
    code, out, _ = run(capsys, ["scan", "--min", "1", "--max", "1000", "--kind", "wild"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["conductors"] == 15
    assert doc["worst_residual"] < 1e-6


def test_scan_single(capsys):
    code, out, _ = run(capsys, ["scan", "--min", "7", "--max", "7"])
    assert code == 0
    assert json.loads(out)["conductors"] == 1


@pytest.mark.parametrize(
    "conductor", [60433, 73237, 482391, 2304757, 20742813, 85276009, 767484081, 7000021]
)
def test_verify_large_conductor_exits_0(capsys, conductor):
    # Each of these failed with RoundingFailure while the periods were
    # plain float sums: 60433 = 223 * 271 missed an integer coefficient by
    # 1.1e-6, the prime 73237 was the smallest failing verify-band
    # conductor, and 482391 = 9 * 7 * 13 * 19 * 31 missed by 1.2e-5.
    # 2304757 = 7 * 13 * 19 * 31 * 43 still missed by 1.8e-6 with correctly
    # rounded sums over the units mod f.  20742813 = 9 * 7 * 13 * 19 * 31 * 43,
    # 85276009 = 7 * 13 * 19 * 31 * 37 * 43 and 767484081 = 9 * 85276009
    # still failed with the periods from float component Gaussian sums,
    # whose coefficients near 10^9 or more cannot be rounded to 1e-6; the
    # exact cubes match them by integer equality.  7000021 = 7 * 1000003
    # has a prime component near 10^6.
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", "--conductor", str(conductor)])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(out)
    assert all(entry["residual"] < 1e-6 for entry in doc["fields"])
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "conductor", [999990700022949986149, 8999916300206549875341]
)
def test_verify_huge_conductor_passes_at_float_precision(conductor):
    # 9999943 * 9999973 * 9999991 (tame) and 9 times it (wild): the exact
    # matching and main identity pass, and periods near 10^10 miss the
    # mapped Shanks roots by 3.8e-6 and 2.3e-5, which failed against an
    # absolute tolerance of 1e-6.  The rounding bound scales with max|eta|.
    verify_report(validate_conductor(conductor))


def fraction_calls(argv) -> tuple[int, Counter]:
    """Exit code of main(argv) and the calls it made into fractions.py, by name."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(None)
    return code, calls


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--conductor", "15561"],
        ["scan", "--min", "1", "--max", "2000"],
        ["enumerate", "--conductor", "819"],
        ["table"],
    ],
)
def test_no_fraction_is_built_on_the_hot_path(capsys, argv):
    # the exact identities and the Shanks cubics run in integers: no
    # Fraction arithmetic at all
    code, calls = fraction_calls(argv)
    capsys.readouterr()
    assert code == 0
    assert calls == Counter()


def test_enumerate_huge_conductor_is_fast(capsys):
    # 100000039900000351 = 100000039 * 1000000009: the O(sqrt f) search for
    # the pairs took 31 s on a 2-core machine; the prime elements take ms
    start = time.perf_counter()
    code, out, _ = run(capsys, ["enumerate", "--conductor", "100000039900000351"])
    elapsed = time.perf_counter() - start
    assert code == 0
    pairs = [(entry["M"], entry["N"]) for entry in json.loads(out)["fields"]]
    assert pairs == [(206171411, 115067373), (-207546052, 114975810)]
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_conductor_beyond_proven_primality_exits_2(capsys, command):
    code, out, err = run(capsys, [command, "--conductor", str(MR_BOUND + 2)])
    assert code == 2
    assert out == ""
    assert str(MR_BOUND) in err


def test_scan_beyond_proven_primality_exits_2(capsys):
    # no f in the range can be validated, so the range is refused, for the
    # reason verify gives, rather than scanned as holding no conductor
    code, out, err = run(capsys, ["scan", "--min", str(MR_BOUND), "--max", str(MR_BOUND + 50)])
    assert code == 2
    assert out == ""
    assert f"{MR_BOUND + 50} is not below {MR_BOUND}" in err


# Each conductor with its number of fields.  70000987 = 7 * 10000141 was
# refused while every Jacobi sum was counted in O(p), up to 10^7;
# 69999999999999559 = 7 * 9999999999999937 has the largest prime = 1 mod 3
# below 10^16, and 70000000000000483 = 7 * 10000000000000069 the smallest
# above, where the Jacobi sum was refused for its size.  The three primes
# just below MR_BOUND have a group order at or above it, a probable prime
# that factorize refuses to call prime, so their certificates take the
# points of the other curve.  The rest failed ToleranceExceeded while the
# trigonometric form gave all three roots of f_n, which loses the digits
# of the two near -1 and 0 once |n| passes about 5*10^5: Shanks'
# conductors n^2 + 3n + 9 at n = 496714 (3643 * 67726129), 10^6 + 1 (a
# prime) and 3000003 (9 * 7 * 43 * 3322269103), and 10^24 + 27, whose nine
# primes are all below 2*10^5.
VERIFIED_FIELDS = {
    70000987: 2,
    69999999999999559: 2,
    70000000000000483: 2,
    3317044064679887385942649: 1,
    3317044064679887385939553: 1,
    3317044064679887385922003: 1,
    246726287947: 2,
    1000005000013: 1,
    9000027000027: 8,
    10**24 + 27: 256,
}


@pytest.mark.parametrize("conductor", list(VERIFIED_FIELDS))
def test_prime_component_beyond_the_count_is_verified(capsys, conductor):
    code, out, _ = run(capsys, ["verify", "--conductor", str(conductor)])
    assert code == 0
    assert len(json.loads(out)["fields"]) == VERIFIED_FIELDS[conductor]


def test_scan_past_10_to_the_24_passes(capsys):
    # 10^24 + 27 is the one conductor of the window
    argv = ["scan", "--min", str(10**24 + 20), "--max", str(10**24 + 40), "--format", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines()[1].split(",")[3:5] == ["1", "256"]
    assert out.splitlines()[1].endswith(",True")


def test_scan_past_10_to_the_16_passes(capsys):
    argv = ["scan", "--min", "70000000000000483", "--max", "70000000000000483"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    summary = json.loads(out)
    assert (summary["conductors"], summary["total_fields"], summary["all_pass"]) == (1, 2, True)


def seeded_large_conductors() -> list[int]:
    """Eight conductors c*p, c = 9, 63, 91, 9, 7, 1, 9, 7 (wild and tame),
    with p a prime = 1 mod 3 whose log is uniform in the k-th of eight equal
    slices of (log 10^16, log MR_BOUND/7) for the k-th; each c*p is below
    MR_BOUND."""
    rng = random.Random(16)
    low, high = 16, math.log10(MR_BOUND // 7)
    conductors = []
    for k, c in enumerate((9, 63, 91, 9, 7, 1, 9, 7)):
        n = int(10 ** rng.uniform(low + (high - low) * k / 8, low + (high - low) * (k + 1) / 8))
        n -= (n - 1) % 6
        while not is_probable_prime(n):
            n -= 6
        conductors.append(c * n)
    return conductors


@pytest.mark.parametrize("conductor", seeded_large_conductors())
def test_prime_component_beyond_10_to_the_16_is_verified(capsys, conductor):
    code, out, _ = run(capsys, ["verify", "--conductor", str(conductor)])
    assert code == 0
    assert len(json.loads(out)["fields"]) == validate_conductor(conductor).field_count


def test_scan_among_the_large_conductors_passes(capsys):
    # a window of 61 around the last of them, 7 times a prime near 2*10^23;
    # it holds two more conductors, 487 * 3041001901589615088901 and
    # 9 * 164551991786015838699421, each with 2 fields
    f = seeded_large_conductors()[-1]
    assert f == 1480967926074142548294763
    code, out, _ = run(capsys, ["scan", "--min", str(f - 30), "--max", str(f + 30)])
    assert code == 0
    summary = json.loads(out)
    assert (summary["conductors"], summary["total_fields"], summary["all_pass"]) == (3, 6, True)


def test_verify_computes_each_gauss_sum_once_per_conductor(capsys, monkeypatch):
    # 15561 = 9 * 7 * 13 * 19 has 8 fields.  The periods take one trace per
    # prime component, and the character check of every field reads the
    # cubes of the periods instead of building its own.  Nothing keeps the
    # cubes of a conductor, so a second run in one process traces again
    calls = []
    certified_trace = periods.certified_trace
    monkeypatch.setattr(
        periods, "certified_trace", lambda p, t: calls.append(p) or certified_trace(p, t)
    )
    for _ in range(2):
        calls.clear()
        code, _, _ = run(capsys, ["verify", "--conductor", "15561"])
        assert code == 0
        assert calls == [7, 13, 19]


def test_verify_takes_every_prime_by_points(capsys, monkeypatch):
    # 826371 = 9 * 7 * 13 * 1009 has 8 fields.  Small and large primes alike
    # take the points of E and its twist, each prime once
    traced = []
    certified_trace = periods.certified_trace
    monkeypatch.setattr(
        periods, "certified_trace", lambda p, t: traced.append(p) or certified_trace(p, t)
    )
    code, _, _ = run(capsys, ["verify", "--conductor", "826371"])
    assert code == 0
    assert traced == [7, 13, 1009]


def count_calls(monkeypatch, module, name) -> list:
    """The arguments of every call of module.name from here on.  Every
    module attribute of the package that holds the function is rebound, so
    names bound by `from .module import name` count too."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, m in list(sys.modules.items()):
        if module_name == "cubicperiods" or module_name.startswith("cubicperiods."):
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)
    return calls


@pytest.mark.parametrize(
    "argv,fields",
    [(["verify", "--conductor", "15561", "--format", "json"], 8), (["table"], 4)],
)
def test_each_field_derives_its_relation_once(capsys, monkeypatch, argv, fields):
    calls = count_calls(monkeypatch, quadform, "shanks_params")
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == fields


@pytest.mark.parametrize(
    "argv,fields",
    [(["verify", "--conductor", "15561", "--format", "json"], 8), (["table"], 4)],
)
def test_each_field_builds_the_periods_of_its_own_kernel(capsys, monkeypatch, argv, fields):
    # each pair's character names its kernel, whose periods are built for
    # that pair alone: no list of every kernel is made
    triples = count_calls(monkeypatch, periods, "gaussian_periods")
    kernel_lists = count_calls(monkeypatch, periods, "primitive_cubic_kernels")
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert (len(triples), len(kernel_lists)) == (fields, 0)


@pytest.mark.parametrize(
    "argv,gauss_sums,closed_forms",
    [(["verify", "--conductor", "15561", "--format", "json"], 1, 8), (["table"], 1, 4)],
)
def test_cubes_once_per_conductor_and_closed_form_once_per_field(
    capsys, monkeypatch, argv, gauss_sums, closed_forms
):
    # match_fields passes the cubes to the periods and to every character
    # check, and the closed form it builds is the one that the main
    # identity checks and the report prints
    cubes = count_calls(monkeypatch, periods, "component_gauss_sums")
    polys = count_calls(monkeypatch, cubicpoly, "period_poly_formula")
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert (len(cubes), len(polys)) == (gauss_sums, closed_forms)


@pytest.mark.parametrize(
    "argv,primes",
    [
        (["verify", "--conductor", "15561", "--format", "json"], [7, 13, 19]),
        (["enumerate", "--conductor", "14165638864191"], [1059571, 1485469]),
    ],
)
def test_each_prime_derives_its_omega_and_its_element_once(capsys, monkeypatch, argv, primes):
    # one Cornacchia step per prime of the conductor gives both pi_p, which
    # builds the pairs, and omega_p, which match_fields hands to the
    # character check and to the Jacobi sums; enumerate reads only pi_p.
    # periods is a lazy module: loaded first, its import cannot bind the
    # counting wrapper, which would count each call twice
    assert periods.match_fields
    records = count_calls(monkeypatch, eisenstein, "_prime_element")
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert [p for p, in records] == primes


def test_open_trace_beyond_the_count_exits_2(capsys, monkeypatch):
    # 10000141, the first prime = 1 mod 3 above 10^7, has t = 4258 and
    # 10004400 = 2^4 * 3^2 * 5^2 * 7 * 397 points on E.  3150 times the
    # first point of E is killed by p + 1 + t at t = -2888 too, so its order
    # divides 2 * 397 and cannot tell the two apart in Hasse's interval: with
    # that point alone the trace is not proven, and J is not taken
    p = 10_000_141
    first = next(P for P, sign in periods._points(p) if sign == 1)
    point = periods._mul(3150, first, p)
    killed = [t for t in (4258, -2888) if periods._mul(p + 1 + t, point, p) is None]
    assert killed == [4258, -2888]
    points = periods._points
    monkeypatch.setattr(
        periods,
        "_points",
        lambda q: iter([(point, 1)] * periods._POINT_TRIES) if q == p else points(q),
    )
    with pytest.raises(BudgetExceeded, match="open"):
        periods.jacobi_sum(p, generator_omega(p))
    code, out, err = run(capsys, ["verify", "--conductor", str(7 * p)])
    assert code == 2
    assert out == ""
    assert "open" in err


def test_open_trace_at_a_small_prime_exits_2(capsys, monkeypatch, e_alone):
    # 7819 = 7 * 1117: with the points of E alone the trace mod 1117 stays
    # open, and verify refuses rather than count J
    points = periods._points
    monkeypatch.setattr(periods, "_points", lambda q: e_alone(q) if q == 1117 else points(q))
    code, out, err = run(capsys, ["verify", "--conductor", "7819"])
    assert code == 2
    assert out == ""
    assert "mod 1117" in err and "open" in err


def test_scan_empty_range(capsys):
    code, _, err = run(capsys, ["scan", "--min", "10", "--max", "5"])
    assert code == 2


def test_table_matches_golden(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    doc = json.loads(out)
    assert [row["pair"] for row in doc["rows"]] == [
        "(-30, 1)",
        "(18, 5)",
        "(-3, 10)",
        "(-18, 11)",
    ]
    assert doc["rows"][1]["shanks"] == "X^3 - 18/5*X^2 - 33/5*X - 1"
    assert [row["period_poly"] for row in doc["rows"]] == [
        "X^3 - 273*X + 1729",
        "X^3 - 273*X - 1547",
        "X^3 - 273*X - 728",
        "X^3 - 273*X + 91",
    ]


def test_table_detects_corrupted_fixture(capsys, monkeypatch):
    corrupted = tuple(
        {**row, "period_poly": "X^3"} for row in report_mod.GOLDEN_TABLE_ROWS
    )
    monkeypatch.setattr("cubicperiods.cli.GOLDEN_TABLE_ROWS", corrupted)
    code, _, err = run(capsys, ["table"])
    assert code == 1
    assert "mismatch" in err


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", "--conductor", "63"])
    _, second, _ = run(capsys, ["verify", "--conductor", "63"])
    assert first == second
    _, t1, _ = run(capsys, ["table", "--format", "csv"])
    _, t2, _ = run(capsys, ["table", "--format", "csv"])
    assert t1 == t2


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, ["verify", "--conductor", "63"])
    doc = json.loads(out)
    assert doc == verify_report(validate_conductor(63))
    assert json.loads(json.dumps(doc)) == doc


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["enumerate", "--conductor", "7", "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["conductor"] == 7


def test_out_dash_writes_to_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = run(capsys, ["verify", "--conductor", "7"])
    assert expected[0] == 0
    assert run(capsys, ["verify", "--conductor", "7", "--out", "-"]) == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, command, target):
    # every check runs and passes; then the report cannot be written, which
    # is bad input, not a failed verification
    out = tmp_path / "missing" / "r.json" if target == "missing-directory" else tmp_path
    reason = "No such file or directory" if target == "missing-directory" else "Is a directory"
    code, stdout, err = run(capsys, [command, "--conductor", "7", "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err == f"error: cannot write report to {out}: {reason}\n"


def test_cold_enumerate_allocates_under_a_megabyte(tmp_path):
    # the first command of a fresh interpreter builds no table beyond what
    # its input needs
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        f"""
        import sys, tracemalloc
        sys.path.insert(0, {str(src)!r})
        from cubicperiods.cli import main
        tracemalloc.start()
        code = main(["enumerate", "--conductor", "7", "--out", {str(tmp_path / "7.json")!r}])
        print(code, tracemalloc.get_traced_memory()[1])
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, peak = map(int, proc.stdout.split())
    assert exit_code == 0
    assert peak < 1_000_000, f"traced peak {peak} bytes"


# modules a cold enumerate, verify or table leaves unloaded: the value
# types are NamedTuples, not frozen dataclasses (which import inspect);
# report.render_json writes JSON without the json package; no command
# imports fractions (which imports decimal), as every cubic holds ints;
# csv, cmath and heapq (which only scan's conductors_up_to merges with)
# are imported only where used; --out is written with
# open(), not pathlib; a well-formed argv is parsed without argparse,
# which imports gettext (and so locale) for its messages and shutil for
# the terminal width, and which only -h and other argvs load
UNUSED_ON_THE_COLD_PATH = (
    "argparse", "cmath", "csv", "dataclasses", "decimal",
    "fractions", "gettext", "heapq", "inspect", "json", "locale", "pathlib", "shutil",
)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--conductor", "7", "--format", "md"],
        ["verify", "--conductor", "819", "--format", "json"],
        ["table", "--format", "md"],
    ],
    ids=lambda argv: argv[0],
)
def test_cold_command_leaves_unused_modules_unloaded(tmp_path, argv):
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        from cubicperiods.cli import main
        code = main({argv!r} + ["--out", {str(tmp_path / "r.out")!r}])
        print(code, *sorted(set({UNUSED_ON_THE_COLD_PATH!r}) & set(sys.modules)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize(
    "argv,compiled",
    [
        (["enumerate", "--conductor", "7", "--format", "md"], "False"),
        (["verify", "--conductor", "9"], "True"),
    ],
    ids=["enumerate", "verify"],
)
def test_only_verify_scan_and_table_compile_periods(tmp_path, argv, compiled):
    # periods, which holds the Gaussian sums, imports groupring at its top,
    # so groupring is loaded exactly when periods has run: a cold enumerate,
    # the benchmark's set-up op, runs neither, and a cold verify runs both
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        from cubicperiods.cli import main
        code = main({argv!r} + ["--out", {str(tmp_path / "r.out")!r}])
        print(code, "cubicperiods.groupring" in sys.modules)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", compiled]


def test_cold_scan_parses_without_argparse(tmp_path):
    # scan, in the shape of the benchmark's scan ops, takes the strict
    # parser too
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["scan", "--min", "1", "--max", "30", "--kind", "wild", "--format", "csv"]
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        from cubicperiods.cli import main
        code = main({argv!r} + ["--out", {str(tmp_path / "r.csv")!r}])
        print(code, *sorted({{"argparse", "gettext", "locale", "shutil"}} & set(sys.modules)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_only_a_json_report_loads_the_json_encoder(tmp_path):
    # render_json imports _json where it first runs: a markdown enumerate
    # leaves it unloaded, and a JSON verify of 9 loads it (that periods, with
    # the Gaussian sums, loads only when a field is matched is checked by
    # test_only_verify_scan_and_table_compile_periods)
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        from cubicperiods.cli import main
        for argv in (["enumerate", "7", "--format", "md"], ["verify", "9"]):
            main([argv[0], "--conductor", *argv[1:], "--out", {str(tmp_path / "r.out")!r}])
            print("_json" in sys.modules)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True"]


def test_csv_format(capsys):
    code, out, _ = run(capsys, ["verify", "--conductor", "9", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("conductor,kind,M,N,n1,n2")
    assert len(lines) == 2
    assert lines[1].startswith("9,wild,-3,1,-3,1")


def test_markdown_alias(capsys):
    code, out, _ = run(capsys, ["enumerate", "--conductor", "819", "--format", "markdown"])
    assert code == 0
    _, out_md, _ = run(capsys, ["enumerate", "--conductor", "819", "--format", "md"])
    assert out == out_md


# Layouts that no golden file pins: an enumerate CSV leaves the three
# columns of a verified field empty, a verify report of 9 has two notes,
# and a markdown scan summary is a list.
LAYOUTS = {
    "enumerate-819.csv": (
        ["enumerate", "--conductor", "819", "--format", "csv"],
        "conductor,kind,M,N,n1,n2,shanks,period_poly,periods,verdicts,residual\n"
        "819,wild,51,5,18,5,1 -18/5 -33/5 -1,1 0 -273 -1547,,,\n"
        "819,wild,24,10,-3,10,1 3/10 -27/10 -1,1 0 -273 -728,,,\n"
        "819,wild,-3,11,-18,11,1 18/11 -15/11 -1,1 0 -273 91,,,\n"
        "819,wild,-57,1,-30,1,1 30 27 -1,1 0 -273 1729,,,\n",
        "",
    ),
    "verify-9.md": (
        ["verify", "--conductor", "9", "--format", "md"],
        "# conductor 9 (wild)\n"
        "\n"
        "note: nu = 0: the conductor is 9 itself, with no odd prime factors\n"
        "note: gauss sum mod 9 vs 27*zeta3^(+-1): tau matches = False, tau^3 matches = True\n"
        "\n"
        "| M | N | n1 | n2 | shanks | period_poly | periods | verdicts | residual |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| -3 | 1 | -3 | 1 | 1 3 0 -1 | 1 0 -3 1 "
        "| 1.532088886237956 0.34729635533386083 -1.879385241571817 "
        "| oracle_equivalence=pass;main_identity=pass;period_relation=pass;"
        "sign_congruences=pass;generators=pass;kernel_character=pass "
        "| 2.220446049250313e-16 |\n",
        "conductor 9: all checks passed\n",
    ),
    "scan-1-300.md": (
        ["scan", "--min", "1", "--max", "300", "--format", "md"],
        "# scan summary\n"
        "\n"
        "- min: 1\n"
        "- max: 300\n"
        "- kind: all\n"
        "- conductors: 38\n"
        "- total_fields: 47\n"
        "- worst_residual: 3.552713678800501e-15\n"
        "- all_pass: True\n",
        "scan [1, 300]: 38 conductors, 47 fields, worst residual 3.553e-15\n",
    ),
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_report_layout_keeps_its_bytes(capsys, name):
    argv, out, err = LAYOUTS[name]
    assert run(capsys, argv) == (0, out, err)


@pytest.mark.parametrize(
    "argv,usage",
    [
        (
            ["scan", "--kind", "odd", "--min", "1", "--max", "30"],
            "usage: cubicperiods scan [-h] --min MIN --max MAX [--kind {tame,wild}]\n"
            "                         [--format {json,csv,md,markdown}] [--out PATH]\n"
            "cubicperiods scan: error: argument --kind: invalid choice: 'odd' "
            "(choose from 'tame', 'wild')\n",
        ),
        (
            ["verify", "--conductor", "7", "--format", "xml"],
            "usage: cubicperiods verify [-h] --conductor CONDUCTOR\n"
            "                           [--format {json,csv,md,markdown}] [--out PATH]\n"
            "cubicperiods verify: error: argument --format: invalid choice: 'xml' "
            "(choose from 'json', 'csv', 'md', 'markdown')\n",
        ),
    ],
    ids=["kind", "format"],
)
def test_invalid_choice_exits_2_with_usage(capsys, argv, usage):
    assert run(capsys, argv) == (2, "", usage)


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--conductor=819", "--format", "csv"],
        ["verify", "--cond", "819", "--format", "csv"],
        ["verify", "--conductor", "7", "--conductor", "819", "--format", "csv"],
    ],
    ids=["equals", "prefix", "last-wins"],
)
def test_flag_forms_parse_alike(capsys, argv):
    expected = run(capsys, ["verify", "--conductor", "819", "--format", "csv"])
    assert expected[0] == 0
    assert run(capsys, argv) == expected


def test_negative_value_reaches_the_range_check(capsys):
    code, out, err = run(capsys, ["scan", "--min", "-5", "--max", "3"])
    assert (code, out) == (2, "")
    assert "error: empty or invalid range [-5, 3]" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frob"],
        ["verify"],
        ["verify", "--conductor", "x"],
        ["table", "--out"],
        ["verify", "--conductor", "7", "extra"],
    ],
    ids=["empty", "unknown-command", "missing-flag", "bad-int", "missing-value", "extra"],
)
def test_bad_input_exits_2_with_usage(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: cubicperiods")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["enumerate", "-h"], ["verify", "-h"], ["scan", "-h"], ["table", "-h"]],
    ids=lambda argv: argv[0],
)
def test_help_exits_0_on_stdout(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: cubicperiods")


HELP_TEXTS = {
    "top": (
        ["--help"],
        "usage: cubicperiods [-h] {enumerate,verify,scan,table} ...\n"
        "\n"
        "Enumerate and verify Gaussian periods and Shanks cubics for cyclic cubic\n"
        "conductors.\n"
        "\n"
        "positional arguments:\n"
        "  {enumerate,verify,scan,table}\n"
        "    enumerate           list pairs and polynomials\n"
        "    verify              run all checks for one conductor\n"
        "    scan                verify every conductor in a range\n"
        "    table               reproduce the conductor-819 table\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
    ),
    "scan": (
        ["scan", "-h"],
        "usage: cubicperiods scan [-h] --min MIN --max MAX [--kind {tame,wild}]\n"
        "                         [--format {json,csv,md,markdown}] [--out PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --min MIN             the least conductor (inclusive)\n"
        "  --max MAX             the greatest conductor (inclusive)\n"
        "  --kind {tame,wild}    only tame or only wild conductors (default both kinds)\n"
        "  --format {json,csv,md,markdown}\n"
        "                        report format (default json; markdown is an alias for\n"
        "                        md)\n"
        "  --out PATH            write the report to a file (- for stdout)\n",
    ),
    "verify": (
        ["verify", "-h"],
        "usage: cubicperiods verify [-h] --conductor CONDUCTOR\n"
        "                           [--format {json,csv,md,markdown}] [--out PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --conductor CONDUCTOR\n"
        "                        a conductor f: distinct primes = 1 mod 3, times 1 or 9\n"
        "  --format {json,csv,md,markdown}\n"
        "                        report format (default json; markdown is an alias for\n"
        "                        md)\n"
        "  --out PATH            write the report to a file (- for stdout)\n",
    ),
    "enumerate": (
        ["enumerate", "-h"],
        "usage: cubicperiods enumerate [-h] --conductor CONDUCTOR\n"
        "                              [--format {json,csv,md,markdown}] [--out PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --conductor CONDUCTOR\n"
        "                        a conductor f: distinct primes = 1 mod 3, times 1 or 9\n"
        "  --format {json,csv,md,markdown}\n"
        "                        report format (default json; markdown is an alias for\n"
        "                        md)\n"
        "  --out PATH            write the report to a file (- for stdout)\n",
    ),
    "table": (
        ["table", "-h"],
        "usage: cubicperiods table [-h] [--format {json,csv,md,markdown}] [--out PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,csv,md,markdown}\n"
        "                        report format (default json; markdown is an alias for\n"
        "                        md)\n"
        "  --out PATH            write the report to a file (- for stdout)\n",
    ),
}


@pytest.mark.parametrize("name", HELP_TEXTS)
def test_help_text_keeps_its_layout(capsys, monkeypatch, name):
    # the layout argparse wrote when stdout is not a terminal: usage wrapped
    # at 78 columns, help text from column 24, whatever COLUMNS says
    monkeypatch.setenv("COLUMNS", "40")
    argv, text = HELP_TEXTS[name]
    assert run(capsys, argv) == (0, text, "")


TOP_USAGE = "usage: cubicperiods [-h] {enumerate,verify,scan,table} ...\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["--"], "cubicperiods: error: the following arguments are required: command\n"),
        (
            ["verify", "--conductor", "7", "9", "--", "--max"],
            "cubicperiods: error: unrecognized arguments: 9 -- --max\n",
        ),
    ],
    ids=["alone", "after-a-command"],
)
def test_double_dash_errors_as_argparse_does(capsys, argv, err):
    assert run(capsys, argv) == (2, "", TOP_USAGE + err)


_FLAG_NAMES = sorted({f"--{flag.name}" for _, _, flags in cli.COMMANDS.values() for flag in flags})
_WORDS = st.one_of(
    st.sampled_from(
        [*cli.COMMANDS, "-", "--", "-h", "--help", "", "x", "a=b", "r.out",
         *report_mod.FORMATS, "markdown", "xml", *KINDS, "odd"]
    ),
    st.integers(-10**6, 10**6).map(str),
)


def _value(flag):
    if flag.value is int:
        return st.integers(-10**6, 10**6).map(str)
    if isinstance(flag.value, tuple):
        return st.sampled_from(flag.value)
    return st.sampled_from(["r.out", "-", "", "a=b"])


@st.composite
def _argvs(draw):
    """A command and its flags, as --flag VALUE or --flag=VALUE, most
    of them whole, with valid values and every required flag, but now and
    then a prefix, a value that is any word, a required flag left out or
    a word put in anywhere: a prefix of a flag, -h, "--" or any other."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[command][2]
    required = [flag for flag in flags if flag.required and draw(st.integers(0, 9))]
    argv = [command]
    more = draw(st.lists(st.sampled_from(flags), max_size=4))
    for flag in draw(st.permutations(required + more)):
        whole = f"--{flag.name}"
        name = draw(st.sampled_from([whole] * 4 + [whole[:3], whole[:4]]))
        value = draw(st.one_of(*[_value(flag)] * 4, _WORDS))
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    words = st.one_of(_WORDS, st.sampled_from(_FLAG_NAMES).map(lambda name: name[:4]))
    for word, at in draw(st.lists(st.tuples(words, st.floats(0, 1)), max_size=2)):
        argv.insert(round(at * len(argv)), word)
    return argv


_PARSER = cli._argparser()


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_argvs())
def test_strict_parser_agrees_with_argparse(argv):
    strict = cli._parse(argv)
    if strict is not None:
        assert vars(strict) == vars(_PARSER.parse_args(argv))
