import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dehncover import cli
from dehncover.cli import main


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


def test_cover_no_mismatch(capsys):
    code, out, _ = run(capsys, "cover", 5, 7, 36, 1, 37, 1)
    assert code == 0
    assert out == "NO (|rsq−p| mismatch)\n"


def test_cover_reducible_reason(capsys):
    code, out, _ = run(capsys, "cover", 2, 3, 7, 2, 6, 1)
    assert code == 0
    assert out == "NO (reducibility)\n"


# --- orb-covers / verify-tables


def test_orb_covers_rows(capsys):
    code, out, _ = run(capsys, "orb-covers", "--base", "2,3,3", "--max-degree", 4)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert ["(3,3)", "4", "both"] in rows
    assert ["(2,2,2)", "3", "both"] in rows


def test_orb_covers_budget_exceeded(capsys):
    code, _, err = run(capsys, "--budget", 5, "orb-covers", "--base", "2,3,7", "--max-degree", 8, "--oracle")
    assert code == 3
    assert "budget" in err


def test_verify_tables_usage_error(capsys):
    code, _, err = run(capsys, "verify-tables", 0)
    assert code == 1
    assert "error" in err


def test_verify_tables_targeted(capsys):
    code, out, _ = run(capsys, "verify-tables", 12, "--targeted")
    assert code == 0
    lines = out.splitlines()
    targeted = [l for l in lines if l.startswith("TARGETED")]
    assert len(targeted) == 6
    assert all(l.endswith("OK") for l in targeted)
    assert "(3,8,8) -> (2,3,8) @ 10" in out
    assert "(9,9,9) -> (2,3,9) @ 12" in out
    assert lines[-1].startswith("PASS")


# --- realize


def test_realize_sfs(capsys):
    code, out, _ = run(capsys, "realize", 2, 5, "{-22;(2,11),(5,33),(32,319)}")
    assert code == 0
    assert out == "-22/1\n"


def test_realize_lens(capsys):
    code, out, _ = run(capsys, "realize", 2, 3, "L(5,1)")
    assert code == 0
    assert out == "5/1\n"


def test_realize_bad_target(capsys):
    code, _, err = run(capsys, "realize", 2, 3, "garbage")
    assert code == 1


# --- short-slopes / audit


def test_short_slopes_counts(capsys, census_file):
    code, out, _ = run(capsys, "--format", "tsv", "short-slopes", census_file, "--k", "10.328942")
    assert code == 0
    for line in out.splitlines():
        name, count = line.split("\t")
        assert int(count) <= 32


def test_cover_low_budget_skips_witness_but_decides(capsys):
    code, out, _ = run(capsys, "--budget", 3, "cover", 2, 3, 5, 1, 45, 7)
    assert code == 0
    assert out.splitlines()[0].startswith("COVERS degree 72")


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
    path = tmp_path / "census.txt"
    path.write_text("broken 1 2\nworse\n")
    code, _, err = run(capsys, "audit", str(path))
    assert code == 2


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


def test_closed_pipe_ends_quietly(tmp_path, census_records):
    from conftest import census_text

    # about 150 kB of report, more than the pipe and stdout buffers hold, so
    # the writes after the reader has gone must fail
    records = [dataclasses.replace(rec, name=f"{rec.name}_{i}")
               for i in range(20) for rec in census_records]
    path = tmp_path / "census.txt"
    path.write_text(census_text(records))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dehncover.cli", "--format", "tsv", "audit", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"knot\tcover_slope")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "error:" not in err and "Exception" not in err, err


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
