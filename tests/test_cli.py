import dataclasses
import hashlib
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from dehncover import cli
from dehncover.cli import main
from dehncover.hyperbolic import enumerate_short_slopes, normalize_cusp, normalized_cutoff


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# --- classify


def test_classify_sfs(capsys):
    code, out, _ = run(capsys, "classify", 2, 3, 45, 7)
    assert code == 0
    assert out == "SFS S2(2,3,3) {1;(2,1),(3,1),(3,2)}\n"


def test_classify_reducible(capsys):
    code, out, _ = run(capsys, "classify", 2, 3, 6, 1)
    assert code == 0
    assert out == "L(2,3) # L(3,2)\n"


def test_classify_lens(capsys):
    code, out, _ = run(capsys, "classify", 2, 3, 5, 1)
    assert code == 0
    assert out == "L(5,1)\n"


def test_classify_infinity_slope_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", 2, 3, 1, 0)
    assert code == 1
    assert "error" in err


def test_classify_negative_p(capsys):
    code, out, _ = run(capsys, "classify", 2, 5, -2, 3)
    assert code == 0
    assert out.startswith("SFS S2(2,5,32)")


# --- cover


def test_cover_example_47(capsys):
    code, out, _ = run(capsys, "cover", 4, 7, 105, 4, 21, 1)
    assert code == 0
    assert out.splitlines()[0] == "COVERS degree 5 (fiberwise 5 × orbifold 1)"


def test_cover_example_composite(capsys):
    code, out, _ = run(capsys, "cover", 2, 3, 5, 1, 45, 7)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("COVERS degree 72")
    assert any("intermediate: {9;(3,1),(3,2)}" in line for line in lines)


def test_cover_over_a_chi_zero_base(capsys):
    # 48/7 covers 12/1 on T(2,3) through a degree-4 self-cover of S^2(2,3,6)
    code, out, _ = run(capsys, "cover", 2, 3, 48, 7, 12, 1)
    assert code == 0
    assert out.splitlines()[0] == "COVERS degree 4 (fiberwise 1 × orbifold 4)"
    assert "partitions: base S2(2,3,6) degree 4: [2×2 | 3+1 | 3+1]" in out


def test_cover_at_an_orbifold_degree_past_five_million(capsys):
    # the partition system prints its unbranched parts as v×count, so the
    # certificate stays short however large the orbifold degree is
    code, out, _ = run(capsys, "cover", 2, 3, 99996, 16667, 12, 1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "COVERS degree 3423871373 (fiberwise 641 × orbifold 5341453)"
    (partitions,) = [line for line in lines if line.startswith("  partitions: ")]
    assert len(partitions) < 100, partitions[:200]
    # the whole certificate, pinned: the trial-division limit does not reach it
    assert out == ("COVERS degree 3423871373 (fiberwise 641 × orbifold 5341453)\n"
                   "  cover: 99996/16667\n"
                   "  base: 12/1\n"
                   "  intermediate: {1780483;(2,1),(3,2),(6,1)}\n"
                   "  partitions: base S2(2,3,6) degree 5341453: [2×2670726+1 | 3×1780484+1 | 6×890242+1]\n")


def test_cover_over_a_chi_zero_base_refuses_an_unfactored_cofactor():
    # |H_1| = 6000000000000001284 = 2 * 2 * 3 * 500000000000000107, and the
    # cofactor has no prime factor up to 10^6: unbounded trial division ran
    # past `timeout 15`; a run past 5 s fails here with TimeoutExpired
    proc = _run_cli("cover", "2", "3", "6000000000000001284", "1000000000000000213", "12", "1", timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: over S^2(2,3,6) the degree needs |H_1| quotient 500000000000000107 "
                           "factored, and its cofactor 500000000000000107 has no prime factor up to "
                           "the trial-division limit of 1,000,000\n")


def test_cover_found_on_the_reverse_leg(capsys):
    # 1/1 does not cover 3/1 on T(2,3), 3/1 covers 1/1; either order prints
    # the same certificate
    code, out, _ = run(capsys, "cover", 2, 3, 1, 1, 3, 1)
    assert code == 0
    assert out.splitlines()[:3] == [
        "COVERS degree 5 (fiberwise 1 × orbifold 5)", "  cover: 3/1", "  base: 1/1",
    ]
    assert run(capsys, "cover", 2, 3, 3, 1, 1, 1)[1] == out


def test_cover_no_mismatch(capsys):
    # |rsq - p| differs in both pairs; the reasons printed are the
    # obstructions the procedure computed, one per direction
    code, out, _ = run(capsys, "cover", 5, 7, 36, 1, 37, 1)
    assert code == 0
    assert out == "NO (36/1 → 37/1: no orbifold cover; 37/1 → 36/1: no orbifold cover)\n"
    code, out, _ = run(capsys, "cover", 2, 3, 7, 1, 2, 1)
    assert code == 0
    assert out == "NO (7/1 → 2/1: H1 divisibility; 2/1 → 7/1: no orbifold cover)\n"


def test_cover_reducible_reason(capsys):
    code, out, _ = run(capsys, "cover", 2, 3, 7, 2, 6, 1)
    assert code == 0
    assert out == "NO (7/2 → 6/1: reducibility; 6/1 → 7/2: reducibility)\n"


# --- orb-covers / verify-tables


def test_orb_covers_rows(capsys):
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,3", "--max-degree", 4)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert ["(3,3)", "4", "both"] in rows
    assert ["(2,2,2)", "3", "both"] in rows
    # the source column merges the oracle's covers with the table's; both
    # list only covers with at most three cone points
    code, out, _ = run(capsys, "orb-covers", "--base", "2,4,5", "--max-degree", 6)
    assert code == 0
    assert out == "(2,4,5)\t1\tboth\n(2,5,5)\t2\tboth\n(4,4,5)\t6\tboth\n"


def test_orb_covers_budget_exceeded(capsys):
    # under --oracle and under the default source, --both, alike
    for source in (["--oracle"], []):
        code, out, err = run(capsys, "--budget", 5, "orb-covers", "--base", "2,3,7", "--max-degree", 8, *source)
        assert code == 3, source
        assert out == ""
        assert err == "error: enumeration budget exceeded (degree bound 5)\n"


def test_orb_covers_table_walks_only_the_degrees_with_rows(capsys):
    # chi fixes each cover's degree, so 10^9 reads three degrees, not every
    # degree up to it (some 40 minutes at about 2.4 us each)
    start = time.perf_counter()
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,7", "--max-degree", 10**9, "--table")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == "(2,3,7)\t1\ttable\n(3,3,7)\t8\ttable\n(2,7,7)\t9\ttable\n"


def test_orb_covers_table_refuses_a_long_chi_zero_family(capsys):
    # S^2(2,3,6) has covers at every Loeschian degree
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,6", "--max-degree", 12, "--table")
    assert code == 0
    assert [line.split("\t")[1] for line in out.splitlines() if line.startswith("(2,3,6)")] == [
        "1", "3", "4", "7", "9", "12"]
    code, out, err = run(capsys, "orb-covers", "--base", "2,3,6", "--max-degree", cli.MAX_FAMILY_DEGREE + 1,
                         "--table")
    assert code == 1 and out == ""
    assert err == ("error: --max-degree 100,001 over S2(2,3,6) (chi = 0) would list its covers "
                   "degree by degree; the limit is 100,000\n")


def test_orb_covers_refuses_a_huge_cone_order(capsys):
    # listing the divisors of 10^20 - 1 by trial division ran past `timeout 15`
    start = time.perf_counter()
    code, out, err = run(capsys, "orb-covers", "--base", "2,99999999999999999999", "--max-degree", 2, "--table")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("error: bad --base '2,99999999999999999999': cone order "
                   "99,999,999,999,999,999,999 is past the limit of 1,000,000,000,000\n")
    # the largest prime within the limit is listed at once
    assert cli.MAX_CONE_ORDER == 10**12
    start = time.perf_counter()
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,999999999989", "--max-degree", 2, "--table")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "(2,3,999999999989)\t1\ttable\n")


def test_orb_covers_refuses_a_base_with_too_many_divisors(capsys):
    # 963761198400 has 6,720 divisors, about 5 * 10^10 multisets for the
    # table walk, which ran past `timeout 10`
    assert cli.MAX_BASE_DIVISORS == 200
    proc = _run_cli("orb-covers", "--base", "963761198400", "--max-degree", "2", "--table", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: bad --base '963761198400': the cone orders have 6,719 divisors > 1, "
                           "past the limit of 200\n")
    # the 168 divisors > 1 of 10^12 (2 among them) and 3 make 169, within the limit
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,1000000000000", "--max-degree", 2, "--table")
    assert (code, out) == (0, "(2,3,1000000000000)\t1\ttable\n(3,3,500000000000)\t2\ttable\n")


@pytest.mark.parametrize("source", ["--oracle", "--table", "--both"])
def test_orb_covers_refuses_four_cone_points_before_any_work_per_order(capsys, source):
    # 60 orders near 10^12: listing their divisors took 3.4 s before the
    # refusal; orders 1 are dropped before counting, as Orbifold2 drops them
    orders = [10**12 - i for i in range(60)]
    start = time.perf_counter()
    code, out, err = run(capsys, "orb-covers", "--base", ",".join(map(str, orders)), "--max-degree", 3, source)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: orbifold S2(%s) has more than 3 cone points\n" % ",".join(map(str, sorted(orders)))
    code, out, err = run(capsys, "orb-covers", "--base", "7,1,5,3,1,2", "--max-degree", 3, source)
    assert (code, out, err) == (1, "", "error: orbifold S2(2,3,5,7) has more than 3 cone points\n")
    code, out, _ = run(capsys, "orb-covers", "--base", "1,5,1,3,2,1", "--max-degree", 1, source)
    assert (code, out.split("\t")[0]) == (0, "(2,3,5)")


def test_verify_tables_usage_error(capsys):
    code, _, err = run(capsys, "verify-tables", 0)
    assert code == 1
    assert "error" in err


def test_verify_tables_targeted(capsys):
    # the scan to degree 12 checks every sporadic row at its own degree
    code, out, _ = run(capsys, "verify-tables", 12)
    assert code == 0
    lines = out.splitlines()
    targeted = [l for l in lines if l.startswith("TARGETED")]
    assert len(targeted) == 6
    assert all(l.endswith("OK") for l in targeted)
    assert "(3,8,8) -> (2,3,8) @ 10" in out
    assert "(9,9,9) -> (2,3,9) @ 12" in out
    assert lines[-1].startswith("PASS")


def test_verify_tables_budget_exceeded(capsys):
    # refused before the scan prints a row, as orb-covers is
    code, out, err = run(capsys, "verify-tables", 13)
    assert code == 3
    assert out == ""
    assert err == "error: enumeration budget exceeded (degree bound 12)\n"


# --- realize


def test_realize_sfs(capsys):
    code, out, _ = run(capsys, "realize", 2, 5, "{-22;(2,11),(5,33),(32,319)}")
    assert code == 0
    assert out == "-22/1\n"


def test_realize_lens(capsys):
    code, out, _ = run(capsys, "realize", 2, 3, "L(5,1)")
    assert code == 0
    assert out == "5/1\n"


def test_realize_lens_with_large_q(capsys):
    # q = 33 is pinned by |p| = 197 and |6q - p| = 1, with no q bound to scan
    code, out, _ = run(capsys, "realize", 2, 3, "L(197,100)")
    assert code == 0
    assert out == "197/33\n"


def test_realize_bad_target(capsys):
    for target, message in [
        ("garbage", "target must be Seifert invariants {b;(a,b),...} or L(p,q), got 'garbage'"),
        ("L(1,2,3)", "cannot parse lens space: 'L(1,2,3)'"),
        ("L(a,b)", "cannot parse lens space: 'L(a,b)'"),
    ]:
        code, out, err = run(capsys, "realize", 2, 3, target)
        assert code == 1, target
        assert out == ""
        assert err == f"error: {message}\n"


# --- short-slopes / audit


def test_short_slopes_counts(capsys, census_file):
    code, out, _ = run(capsys, "--format", "tsv", "short-slopes", census_file, "--k", "10.328942")
    assert code == 0
    for line in out.splitlines():
        name, count = line.split("\t")
        assert int(count) <= 32


@pytest.mark.parametrize("budget", [3, 200])
@pytest.mark.parametrize("slopes, first", [
    ((5, 1, 45, 7), "COVERS degree 72 (fiberwise 18 × orbifold 4)"),
    # orbifold degree 103: a witness search at that degree does not end
    ((1236, 205, 12, 1), "COVERS degree 103 (fiberwise 1 × orbifold 103)"),
], ids=["orbifold-4", "orbifold-103"])
def test_cover_output_does_not_read_the_budget(capsys, budget, slopes, first):
    code, want, _ = run(capsys, "cover", 2, 3, *slopes)
    assert code == 0 and want.splitlines()[0] == first
    start = time.perf_counter()
    code, out, _ = run(capsys, "--budget", budget, "cover", 2, 3, *slopes)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, want)


def test_short_slopes_text_mode(capsys, census_file):
    code, out, _ = run(capsys, "short-slopes", census_file)
    assert code == 0
    assert "slopes of normalized length" in out
    assert any(line.startswith("  ") for line in out.splitlines())


def test_audit_verified_lines(capsys, census_file):
    code, out, _ = run(capsys, "audit", census_file)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("4_1\tverified") for line in lines)
    assert any(line.startswith("6_1\tverified") for line in lines)
    assert any(line.startswith("synthetic\tverified") for line in lines)


def test_audit_tsv_columns(capsys, census_file):
    code, out, _ = run(capsys, "--format", "tsv", "audit", census_file)
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header == ["knot", "cover_slope", "base_slope", "candidate_degrees", "status", "reason"]


def test_audit_malformed_line_warns(capsys, tmp_path, census_records):
    from conftest import census_text

    path = tmp_path / "census.txt"
    path.write_text(census_text(census_records) + "this is not a record\n")
    code, out, err = run(capsys, "audit", str(path))
    assert code == 0
    assert "warning" in err


def test_audit_all_records_fail(capsys, tmp_path):
    # audit and short-slopes load a census through one step
    path = tmp_path / "census.txt"
    path.write_text("broken 1 2\nworse\n")
    for command in ("audit", "short-slopes"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == ["warning", "warning"]
        assert lines[-1] == "error: no valid records"


def test_audit_non_finite_numbers_warn(capsys, tmp_path, census_records):
    from conftest import census_text

    good = census_text(census_records[:1]).splitlines()[1]
    path = tmp_path / "census.txt"
    path.write_text("inf_shape 0.0 inf 2.0 5 1 0.9\n"
                    "nan_volume 0.0 2.0 nan 5 1 0.9\n"
                    f"{good}\n")
    code, out, err = run(capsys, "audit", str(path))
    assert code == 0
    assert [line.split(":")[0] for line in err.splitlines()] == ["warning", "warning"]
    assert "inf_shape" in err and "nan_volume" in err
    assert out.startswith("4_1\tverified")


def test_audit_skips_a_line_that_is_not_utf8(capsys, tmp_path):
    # the undecodable second line sank the whole file with exit 1
    path = tmp_path / "census.txt"
    path.write_bytes(b"a 0.0 3.46 2.03 5 1 0.98\n\xff\xfe bad\n")
    code, out, err = run(capsys, "--format", "tsv", "audit", str(path))
    assert code == 0
    assert err == ("warning: line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")
    assert out.splitlines()[1].startswith("a\t*\t")


def _cli_env():
    """The environment for running the CLI in a subprocess from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_LAZY_IMPORT_PROBE = """
import sys
import dehncover, dehncover.cli
loaded = [m for m in ("dehncover.hyperbolic", "fractions", "decimal") if m in sys.modules]
assert loaded == [], loaded
dehncover.cli.main(["cover", "2", "3", "5", "1", "1", "1"])
assert "dehncover.hyperbolic" not in sys.modules
names = ("CuspRecord", "Filling", "NormalizedCusp", "audit_knot", "degree2_h1_obstruction",
         "enumerate_short_slopes", "normalize_cusp", "normalized_cutoff", "read_census",
         "short_slope_box", "vcsc_length_bound")
from dehncover import read_census
import dehncover.hyperbolic as hyperbolic
assert dehncover.hyperbolic is hyperbolic and read_census is hyperbolic.read_census
assert all(getattr(dehncover, name) is vars(hyperbolic)[name] for name in names)
try:
    dehncover.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'dehncover' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
print("ok")
"""


def test_import_and_cover_load_neither_the_audit_nor_fractions():
    # a fresh interpreter: this one has imported the audit already
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_PROBE],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["COVERS degree 24 (fiberwise 2 × orbifold 12)", "  cover: 5/1",
                                        "  base: 1/1", "  intermediate: {0;(5,1),(5,1)}",
                                        "  partitions: base S2(2,3,5) degree 12: [2×6 | 3×4 | 5×2+1+1]",
                                        "ok"]



def test_every_annotation_of_the_six_modules_resolves():
    # an annotation naming what a module imports only inside a function
    # (fractions in core) raises NameError under get_type_hints
    import importlib
    import typing

    checked = 0
    for name in ("core", "surgery", "orbcover", "sfscover", "hyperbolic", "cli"):
        module = importlib.import_module(f"dehncover.{name}")
        for obj in vars(module).values():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                typing.get_type_hints(obj)
                checked += 1
    assert checked > 100

def test_closed_pipe_ends_quietly(tmp_path, census_records):
    from conftest import census_text

    # about 150 kB of report, more than the pipe and stdout buffers hold, so
    # the writes after the reader has gone must fail
    records = [dataclasses.replace(rec, name=f"{rec.name}_{i}")
               for i in range(20) for rec in census_records]
    path = tmp_path / "census.txt"
    path.write_text(census_text(records))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dehncover.cli", "--format", "tsv", "audit", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.readline().startswith(b"knot\tcover_slope")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "error:" not in err and "Exception" not in err, err


def _run_cli(*argv, timeout):
    return subprocess.run([sys.executable, "-m", "dehncover.cli", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=timeout)


def test_degenerate_cusps_end_in_a_result_or_a_warning(tmp_path):
    # thin (x, y, z, w), skewed (y, z, w, v) and huge (w, v, u) shapes: each
    # record is audited or warned about, with no hang and no traceback; only
    # w, whose normalized translation overflows a float, is warned about
    names = {"x": "0.0 1e-300", "y": "0.3 1e-300", "z": "0.3 1e-12",
             "w": "1e300 1e-300", "v": "1e300 1.0", "u": "1e-300 1e300"}
    path = tmp_path / "census.txt"
    path.write_text("".join(f"{name} {shape} 2.0 5 1 0.9\n" for name, shape in names.items()))
    for command in ("audit", "short-slopes"):
        proc = _run_cli(command, str(path), timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        # "warning: line N: NAME: ..."
        warned = {line.split(": ")[2] for line in proc.stderr.splitlines()}
        assert all(line.startswith("warning: ") for line in proc.stderr.splitlines())
        reported = {line.split("\t")[0] for line in proc.stdout.splitlines()
                    if not line.startswith(" ")}
        assert warned == {"w"}, proc.stderr
        assert reported == {"x", "y", "z", "v", "u"}, proc.stdout


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_short_slopes_k_must_be_finite(capsys, census_file, value):
    code, out, err = run(capsys, "short-slopes", census_file, "--k", value)
    assert code == 1
    assert out == ""
    assert err == f"error: length bound must be finite and positive, got {value}\n"


def test_short_slopes_refuses_a_bound_past_the_slope_limit(census_file):
    # about 28 million slopes per record: the listing ran past `timeout 10`
    proc = _run_cli("--format", "tsv", "short-slopes", census_file, "--k", "1e4", timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: --k 10000 would list about 27,566,445 slopes per record, "
                           "more than the limit of 1,000,000\n")


def test_cover_lens_against_a_huge_hyperbolic_base_ends_fast():
    # 5/1 on T(2,3) is a lens space and -999999994/1 fibers over
    # S^2(2,3,10^9): the lens candidates walked every divisor of 10^9
    proc = _run_cli("cover", "2", "3", "5", "1", "-999999994", "1", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("NO (5/1 → -999999994/1: no orbifold cover; "
                           "-999999994/1 → 5/1: no orbifold cover)\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_must_be_finite(tmp_path, value):
    # nan turned the survivor row "* -> 1/1 degrees [3,4]" into an elimination,
    # and inf made the audit loop forever.  The CLI takes the library's rule,
    # so 0 is accepted and asks for exact volume matches: 4 * 1.0 is not
    # below the complement volume 4.0, so degree 4 drops out.
    path = tmp_path / "census.txt"
    path.write_text("a 0.1 1.2 4.0 0 1 0.5 1 1 1.0 3 1 1.5\n")
    proc = _run_cli("--tolerance", value, "audit", str(path), timeout=30)
    if value == "0":
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "* -> 1/1\tdegrees [3]\tsurvivor" in proc.stdout
    else:
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: tolerance must be finite and >= 0, got {float(value)}\n"
    proc = _run_cli("audit", str(path), timeout=30)
    assert "* -> 1/1\tdegrees [3,4]\tsurvivor" in proc.stdout


def test_audit_warns_about_a_record_past_the_degree_limit(tmp_path, census_records):
    from conftest import census_text

    # 5/1 has volume 1e-9, so about 2e9 degrees fit under the complement
    # volume: the degree loop ran past `timeout 20`
    path = tmp_path / "census.txt"
    path.write_text("m004 0.0 3.4641016151377544 2.0298832128193 5 1 1e-9 -5 1 0.9813688288922 1 0 EXC\n"
                    + census_text(census_records[:1]).splitlines()[1] + "\n")
    proc = _run_cli("audit", str(path), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: m004: base slope 5/1: filling volume 1e-09 admits about 2.03e+09 "
                           "covering degrees below the complement volume 2.02988 (tolerance 0.0001), "
                           "more than the limit of 1,000\n")
    assert proc.stdout.startswith("4_1\tverified")
    path.write_text("m004 0.0 3.4641016151377544 2.0298832128193 5 1 1e-9 -5 1 0.9813688288922 1 0 EXC\n")
    proc = _run_cli("audit", str(path), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: no record could be audited\n")


def test_audit_with_a_huge_tolerance_ends(census_file):
    # every degree below (complement volume + 1e7) / volume was walked
    proc = _run_cli("--tolerance", "1e7", "audit", census_file, timeout=10)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert [line.split(":")[:2] for line in lines[:-1]] == [
        ["warning", " 4_1"], ["warning", " 6_1"], ["warning", " synthetic"]]
    assert lines[-1] == "error: no record could be audited"
    assert proc.stdout == ""


# The tsv audit of the census test_audit_tsv_golden writes, taken before the
# audit moved to integer slope pairs; it must not change byte for byte.  It
# was taken again when the short slopes became exact: the synthetic (-1 + 3i)
# and skewed (1000 + 0.05i) records have integer real parts, so mirror slopes
# such as 8/1 and -6/1, or -2999/3 and -3001/3, have exactly equal lengths and
# their rows now come in (p, q) order, where the float walk's rounding had
# decided.  Rows moved within five such tie groups; no row changed.  Taken
# again when slopes were sorted by their exact integer keys: 9/2, exactly as
# long as -5/2, 1/3 and 5/3, had a float one ulp below the last two and now
# follows them, so the synthetic rows 9/2, 1/3, 5/3 read 1/3, 5/3, 9/2.
GOLDEN_AUDIT_SHA256 = "1d2060a88dcc23cdc4836e38d042e33c06e795486adce8083dd7bfd83bd425f3"
GOLDEN_STATUS = {
    ("4_1", "exceptional"): 9, ("4_1", "eliminated"): 18,
    ("6_1", "exceptional"): 5, ("6_1", "eliminated"): 22,
    ("planted", "eliminated"): 24, ("planted", "exceptional"): 2,
    ("planted", "survivor"): 4, ("planted", "unmeasured"): 1,
    ("skewed", "survivor"): 2, ("skewed", "eliminated"): 28,
    ("synthetic", "eliminated"): 31,
    ("thin", "exceptional"): 1, ("thin", "survivor"): 1, ("thin", "eliminated"): 28,
}
GOLDEN_SURVIVORS = [
    ["planted", "*", "-2/1", "2"],
    ["planted", "13/1", "2/1", "2"],
    ["planted", "17/1", "2/1", "3"],
    ["planted", "*", "2/1", "2,3"],
    ["skewed", "-999/1", "-1000/1", "2"],
    ["skewed", "*", "-1000/1", "2,3"],
    ["thin", "*", "-1/3", "3"],
]


def _census_line(name, shape, vol_complement, exceptional=(), special=None, filler=2.0,
                 drop=(), extra=None):
    """A census line over the short slopes of shape: the slopes in exceptional
    are EXC, those in special (and the longer slopes in extra) carry the given
    volumes, those in drop are left out, and the rest get filler plus a
    slope-dependent wiggle under 0.1."""
    special = special or {}
    toks = [name, repr(shape.real), repr(shape.imag), repr(vol_complement)]
    for slope, _ in enumerate_short_slopes(normalize_cusp(shape), normalized_cutoff()):
        key = (slope.p, slope.q)
        if slope.is_infinity or key in drop:
            continue
        if key in exceptional:
            vol = "EXC"
        else:
            vol = repr(special.get(key, filler + 0.001 * ((7 * slope.p + 3 * slope.q) % 97)))
        toks += [str(slope.p), str(slope.q), vol]
    for (p, q), vol in (extra or {}).items():
        toks += [str(p), str(q), vol if isinstance(vol, str) else repr(vol)]
    return " ".join(toks)


def test_audit_tsv_golden(capsys, tmp_path, census_records):
    from conftest import census_text

    # the conftest records, a thin and a skewed cusp, and a record with
    # planted volume matches: 2/1 (0.9) is covered at degree 2 by 13/1 (1.8)
    # and at degree 3 by 17/1 (2.7); 3/1 (1.2) loses its only degree 2 to
    # parity although 19/1 (2.4) matches it; 0/1 falls to rank; -6/1 is
    # unmeasured
    lines = census_text(census_records).splitlines()
    lines.append(_census_line(
        "planted", complex(0.2, 1.5), 3.0, exceptional={(1, 1), (-1, 1)},
        special={(0, 1): 0.7, (2, 1): 0.9, (3, 1): 1.2, (-2, 1): 1.45}, filler=1.6,
        drop={(-6, 1)}, extra={(1, 0): "EXC", (13, 1): 1.8, (17, 1): 2.7, (19, 1): 2.4}))
    lines.append(_census_line("thin", complex(0.3, 1e-3), 8.0, exceptional={(-3, 10)},
                              special={(-1, 3): 2.5}, filler=4.1))
    lines.append(_census_line("skewed", complex(1e3, 0.05), 4.0,
                              special={(-1000, 1): 1.3, (-999, 1): 2.6}, filler=2.1))
    path = tmp_path / "census.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "--format", "tsv", "audit", str(path))
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert Counter((row[0], row[4]) for row in rows) == GOLDEN_STATUS
    assert [row[:4] for row in rows if row[4] == "survivor"] == GOLDEN_SURVIVORS
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_AUDIT_SHA256


def test_output_deterministic(capsys, census_file):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "audit", census_file)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# --- global flags


@pytest.mark.parametrize("flag, first, second, field", [
    ("--budget", "5", "7", "oracle_degree_budget"),
    ("--format", "tsv", "text", "output_format"),
    ("--tolerance", "0.5", "0.25", "volume_tolerance"),
])
@pytest.mark.parametrize("position", ["before", "after", "both"])
def test_global_flag_reaches_config(monkeypatch, flag, first, second, field, position):
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args.cfg) or 0)
    subcommand = ["classify", "2", "3", "5", "1"]
    argv = {
        "before": [flag, first, *subcommand],
        "after": [*subcommand, flag, first],
        "both": [flag, second, *subcommand, flag, first],
    }[position]
    assert main(argv) == 0
    [cfg] = seen
    # the value after the subcommand wins when both are given
    assert str(getattr(cfg, field)) == first
    # the flags not given keep the Config defaults
    for other in cli.GLOBAL_FLAGS.values():
        if other != field:
            assert getattr(cfg, other) == getattr(cli.Config, other)


# --- the README's CLI block


def test_readme_cli_lines_run(capsys):
    # every `dehncover ...` line of the README CLI block that needs no census
    # file exits 0, and the output it shows in `#` lines underneath is printed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("dehncover "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("#") and examples:
            examples[-1][1].append(line.lstrip("#").strip().removeprefix("... "))
    ran = 0
    for argv, shown in examples:
        if "census.txt" in argv:
            continue
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        for text in shown:
            assert text in out, (argv, text)
        ran += 1
    assert ran >= 9
