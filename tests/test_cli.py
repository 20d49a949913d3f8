"""Command-line surface: flags, formats, and exit codes."""

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fareybratteli
from fareybratteli import cli, core, dimension_group, path_algebra
from fareybratteli.cli import build_parser, main
from goldens import DIAGRAM, GOLDENS, STATS_FLOORS_4_TO_6, TESTS, TRACE_SPECS

DEMOS = TESTS.parent / "demos"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_row_denominators(capsys):
    code, out, _ = run(capsys, "row", "--floor", "2", "--denominators")
    assert code == 0
    assert out.strip() == "1 3 2 3 1"


def test_row_labels_and_numerators(capsys):
    code, out, _ = run(capsys, "row", "--floor", "1")
    assert (code, out.strip()) == (0, "0 1/2 1")
    code, out, _ = run(capsys, "row", "--floor", "2", "--numerators")
    assert out.strip() == "0 1 1 2 1"


# floors 12-14 and 17 have more than 2**12 labels, so their lines cross chunk boundaries
@pytest.mark.parametrize("n", [*range(15), 17])
def test_row_matches_core_in_every_mode(capsys, n):
    assert cli._ROW_CHUNK <= 2**12
    nums, dens = core.row_ints(n)
    assert run(capsys, "row", "--floor", str(n)) == (0, " ".join(map(str, core.row(n))) + "\n", "")
    assert run(capsys, "row", "--floor", str(n), "--numerators") == (0, " ".join(map(str, nums)) + "\n", "")
    assert run(capsys, "row", "--floor", str(n), "--denominators") == (0, " ".join(map(str, dens)) + "\n", "")


def test_qmark_both_directions(capsys):
    code, out, _ = run(capsys, "qmark", "eval", "2/5")
    assert (code, out.strip()) == (0, "3/8")
    code, out, _ = run(capsys, "qmark", "inv", "3/8")
    assert (code, out.strip()) == (0, "2/5")
    code, _, err = run(capsys, "qmark", "inv", "2/5")
    assert code == 2 and "dyadic" in err


def test_ideal_json(capsys):
    code, out, _ = run(capsys, "ideal", "--theta", "1/3", "--depth", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["retained"] == [[0, 1], [0, 1], [1], [2], [4]]
    assert payload["labels"][2] == ["1/3"]


def test_ideal_dot(capsys):
    code, out, _ = run(capsys, "ideal", "--theta", "2/5", "--variant", "minus", "--depth", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "fillcolor=lightgrey" in out


def test_ideal_cf_prefix(capsys):
    code, out, _ = run(capsys, "ideal", "--theta", "cf:1,2,2,1,1,2", "--depth", "8")
    assert code == 0
    assert json.loads(out)["retained"][6] == [50, 51]


def test_ideal_cf_prefix_too_short_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ideal", "--theta", "cf:1,2", "--depth", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "theta, message",
    [("cf:", "bad continued-fraction prefix 'cf:'"), ("cf:0", "continued-fraction terms must be positive")],
)
def test_ideal_cf_prefix_that_is_empty_or_not_positive_is_usage_error(capsys, theta, message):
    with pytest.raises(SystemExit) as exc:
        main(["ideal", "--theta", theta, "--depth", "3"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err == f"farey-bratteli: error: {message}\n"


def test_ideal_invalid_variant_combination(capsys):
    code, _, err = run(capsys, "ideal", "--theta", "0", "--variant", "minus", "--depth", "3")
    assert code == 2 and "minus" in err


def test_k0_commands(capsys):
    code, out, _ = run(capsys, "k0", "add", "1:0,1", "2:0,0,0,1")
    assert (code, out.strip()) == (0, "2:0,1,1,2")
    code, out, _ = run(capsys, "k0", "lift", "0:1", "--to", "2")
    assert (code, out.strip()) == (0, "2:1,2,1,1")
    code, out, _ = run(capsys, "k0", "pos", "1:1,-1")
    assert (code, out.strip()) == (0, "not-positive")
    code, out, _ = run(capsys, "k0", "identity", "--max-level", "5")
    assert code == 0
    assert out.count("pass") == 6


@pytest.mark.parametrize("level", ["30", "-1", str(dimension_group.MAX_UNIT_LEVEL + 1)])
def test_k0_identity_rejects_levels_outside_the_guard_before_any_work(capsys, monkeypatch, level):
    monkeypatch.setattr(dimension_group, "verify_unit_decomposition", _never_called)
    code, out, err = run(capsys, "k0", "identity", "--max-level", level)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"0..{dimension_group.MAX_UNIT_LEVEL}" in err


def test_gen(capsys):
    code, out, _ = run(capsys, "gen", "--terms", "8")
    assert (code, out.strip()) == (0, "1 1 2 1 3 2 3 1")


def test_trace_check_valid(tmp_path, capsys):
    spec = tmp_path / "geom.json"
    spec.write_text('{"kind": "geometric", "ratio": "1/4"}')
    code, out, _ = run(capsys, "trace", "check", "--spec", str(spec), "--depth", "8")
    assert code == 0
    assert out.startswith("valid (exact")


def test_trace_check_invalid(tmp_path, capsys):
    spec = tmp_path / "half.json"
    spec.write_text('{"kind": "geometric", "ratio": "1/2"}')
    code, out, _ = run(capsys, "trace", "check", "--spec", str(spec), "--depth", "8")
    assert code == 1
    assert "INVALID" in out and "(1, 1)" in out


def test_paths(capsys):
    code, out, _ = run(capsys, "paths", "--floor", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "total 28"
    assert lines[1] == "endpoint 0: 1 paths (block size 1)"


def test_relations_text_and_json(capsys):
    code, out, _ = run(capsys, "relations", "--floor", "4", "--lambda", "1", "--suite", "yb")
    assert code == 0
    assert out.strip().startswith("6.4:")
    code, out, _ = run(capsys, "relations", "--floor", "4", "--lambda", "1/4", "--suite", "braiding", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["status"] == "pass" for item in payload)


def test_relations_full_suite_exit_code(capsys):
    code, out, _ = run(capsys, "relations", "--floor", "5", "--lambda", "1", "--suite", "all")
    assert code == 0
    assert "R1:" in out and "6.9:" in out and "FAIL" not in out


def test_relations_stats_go_to_stderr_only(capsys):
    argv = ("relations", "--floor", "5", "--lambda", "2/3")
    plain = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--stats")
    assert (code, out, plain[2]) == (plain[0], plain[1], "")
    assert err.count("\n") == 1
    stats = json.loads(err)
    assert list(stats) == ["base", "yb", "braiding"]
    total = 0
    for section in stats.values():
        assert set(section) == {"checks", "failures", "seconds", "decided_at_floor", "products", "largest_product"}
        assert section["products"] > 0 and 0 < section["largest_product"] <= 244  # paths at floor 5
        assert section["failures"] == 0 and section["seconds"] >= 0
        assert sum(section["decided_at_floor"].values()) == section["checks"]
        assert {int(f) for f in section["decided_at_floor"]} <= set(range(6))
        total += section["checks"]
    assert total == sum(int(line.split()[1].split("/")[1]) for line in out.splitlines())
    # one section, with the JSON report on stdout
    code, out, err = run(capsys, "relations", "--floor", "4", "--suite", "yb", "--json", "--stats")
    stats = json.loads(err)
    assert code == 0 and list(stats) == ["yb"] and stats["yb"]["checks"] == len(json.loads(out)) == 27
    assert stats["yb"]["decided_at_floor"] == {"2": 9, "3": 9, "4": 9}


def test_relations_stats_count_the_products_of_the_words(capsys):
    # 6.4 multiplies out ab, (ab)a and b(ab) once per n (a = v_n, b = v_n+1)
    # and each v_n^2 once, however many grid points and indices share them
    code, _, err = run(capsys, "relations", "--floor", "4", "--lambda", "2", "--suite", "yb", "--stats")
    stats = json.loads(err)["yb"]
    rep = path_algebra.Representation(4, Fraction(2))
    products = [rep._home("v", n) * rep._home("v", n) for n in range(4)]
    for n in range(3):
        a, b = rep._home("v", n), rep._home("v", n + 1)
        products += [a * b, a * b * a, b * (a * b)]
    assert code == 0 and stats["products"] == len(products) == 13
    assert stats["largest_product"] == max(len(p.support()) for p in products) > 0


def test_zeta(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "4", "--qmax", "1")
    assert (code, out.strip()) == (0, "1.0")
    code, _, err = run(capsys, "zeta", "--s", "2", "--qmax", "10")
    assert code == 2 and "diverges" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["row"])  # missing --floor
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relations", "--floor", "4", "--lambda", "1e100000"], "farey-bratteli relations: error: argument --lambda: "),
        (["ideal", "--theta", "1e-10000000", "--depth", "3"], "farey-bratteli: error: the decimal exponent"),
        (["qmark", "eval", "abc"], "farey-bratteli qmark eval: error: argument value: not a fraction"),
        (["relations", "--lambda", "2"], "farey-bratteli relations: error: the following arguments are required: --floor"),
    ],
)
def test_argument_refusals_write_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)
    # help still prints the usage block, to stdout
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: farey-bratteli {argv[0]} ")


def test_out_of_range_arguments_are_usage_errors(capsys):
    code, _, err = run(capsys, "relations", "--floor", "3", "--lambda", "1")
    assert code == 2 and "floor" in err
    code, _, err = run(capsys, "row", "--floor", "30")
    assert code == 2 and "too large" in err
    code, _, err = run(capsys, "trace", "check", "--spec", "/nonexistent.json", "--depth", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qmark", "eval", "-1/2"], "value -1/2 outside [0, 1]\n"),
        (["qmark", "eval", "-0.5"], "value -1/2 outside [0, 1]\n"),
        (["qmark", "inv", "-1/2"], "not a dyadic in [0, 1]: -1/2\n"),
        (["relations", "--floor", "4", "--lambda", "-1/2"], "lam must be a positive rational\n"),
        (["relations", "--floor", "4", "--lambda=-1/2"], "lam must be a positive rational\n"),
    ],
)
def test_a_negative_fraction_is_a_value_that_reaches_its_check(capsys, argv, message):
    # -1/2 is read as -0.5 and --lambda=-1/2 are, not taken for an option
    assert run(capsys, *argv) == (2, "", message)


def test_yang_baxter_below_floor_2_is_usage_error(capsys):
    for floor in ("0", "1"):
        code, out, err = run(capsys, "relations", "--floor", floor, "--suite", "yb")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "floor >= 2" in err
    code, out, _ = run(capsys, "relations", "--floor", "2", "--suite", "yb")
    assert (code, out.strip()) == (0, "6.4: 9/9 pass")


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"kind": "geometric"}', "needs the key 'ratio'"),
        ('{"kind": "geometric", "ratio": [1, 4]}', "malformed geometric"),
        ('{"kind": "table", "entries": [[0, 1]]}', "malformed table"),
        ('{"kind": "table", "entries": 5}', "malformed table"),
        ('{"kind": "table", "default": "1/0"}', "malformed table"),
        ('{"kind": "table", "entries": [[100000000, 1, "1/2"]]}', "deeper than floor 40"),
        ('{"kind": "table", "entries": [[41, 1, "1/2"]]}', "deeper than floor 40"),
        # read strictly: a second weight for one vertex, and a misspelled key
        ('{"kind": "table", "entries": [[0, 1, "1/4"], [0, 1, "1/2"]]}', "a second entry for (0, 1)"),
        ('{"kind": "table", "entries": [], "defualt": "1/2"}', "unknown key 'defualt'"),
        ('{"kind": "geometric", "ratio": "1/4", "entries": []}', "unknown key 'entries'"),
        ('["geometric"]', "JSON object"),
        ("{", "Expecting"),
        ("{", "a trace candidate is not JSON: Expecting property name"),
        # an explicit root weight is read, and refused unless it is 1
        ('{"kind": "table", "entries": [[-1, 0, "1/2"]], "default": "0"}', "weight exactly 1 at the root"),
        pytest.param("[" * 100000, "nests too deeply", id="nested-100000"),
    ],
)
def test_trace_check_malformed_spec_is_usage_error(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run(capsys, "trace", "check", "--spec", str(path), "--depth", "5")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "spec, message",
    [
        # 0.1 would be read as 3602879701896397/36028797018963968
        ('{"kind": "geometric", "ratio": 0.1}', "ratio must be exact"),
        ('{"kind": "table", "entries": [[0, 1, 0.1]]}', "a table value must be exact"),
        ('{"kind": "table", "entries": [[0, 1, "1/2"]], "default": 0.1}', "default must be exact"),
        # int() would truncate these to the index 0
        ('{"kind": "table", "entries": [[0.0, 1, "1/2"]]}', "table indices must be ints, not 0.0"),
        ('{"kind": "table", "entries": [[0, true, "1/2"]]}', "table indices must be ints, not true"),
        ('{"kind": "table", "entries": [[0.5, 1, "1/2"]]}', "table indices must be ints, not 0.5"),
    ],
)
def test_trace_check_refuses_float_weights_and_non_int_indices(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = run(capsys, "trace", "check", "--spec", str(path), "--depth", "5")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and message in err


def test_trace_check_refuses_a_negative_weight_on_the_floor_its_masses_read(tmp_path, capsys):
    # floor 2 carries no row at depth 2, but the masses of floor 1 read it
    path = tmp_path / "spec.json"
    path.write_text('{"kind":"table","entries":[[0,1,"1/2"],[1,1,"1/8"],[2,1,"1/4"],[2,3,"-1/2"]],"default":"0"}')
    for depth in ("2", "3"):
        assert run(capsys, "trace", "check", "--spec", str(path), "--depth", depth) == (2, "", "negative weight at (2, 3)\n")


def test_trace_check_takes_int_and_text_weights(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "table", "entries": [[0, 1, 1], [1, 1, "0"]], "default": 0}')
    code, out, _ = run(capsys, "trace", "check", "--spec", str(path), "--depth", "5")
    assert (code, out) == (0, "valid (exact, depth 5, 17 vertices)\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "three"])
def test_zeta_rejects_non_finite_s(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--s", value, "--qmax", "10"])
    assert exc.value.code == 2
    assert "--s" in capsys.readouterr().err


def _never_called(*args):
    raise AssertionError("allocation reached past the size guard")


def test_size_guards_reject_before_allocating(capsys, monkeypatch):
    monkeypatch.setattr(dimension_group, "beta_step", _never_called)
    monkeypatch.setattr(core, "_totient_blocks", _never_called)  # what partition_function sieves with
    monkeypatch.setattr(core, "_refine", _never_called)
    monkeypatch.setattr(path_algebra, "path_context", _never_called)  # what enumerates paths
    for argv, message in [
        (["relations", "--floor", str(path_algebra.MAX_PATH_FLOOR + 1), "--lambda", "1"], "floor must lie in 0..9"),
        (["k0", "lift", "0:1", "--to", str(dimension_group.MAX_LIFT_LEVEL + 1)], "guarded at level"),
        (["k0", "lift", "0:1", "--to", "1000000"], "guarded at level"),
        (["zeta", "--s", "3", "--qmax", str(core.MAX_ZETA_QMAX + 1)], "qmax must lie in"),
        (["row", "--floor", str(core.MAX_ROW_FLOOR + 1)], "too large"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err


def timed_run(capsys, *argv):
    """(exit code, seconds, stdout, stderr) of one in-process run."""
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, seconds, captured.out, captured.err


BIG = 2**256  # 257 bits, one more than MAX_LAMBDA_BITS and MAX_WEIGHT_BITS


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qmark", "eval", "1e-30"], "has height 999999999999999999999999999999, above MAX_QMARK_HEIGHT = 14000"),
        (["qmark", "eval", "1/1000000"], "has height 999999, above MAX_QMARK_HEIGHT"),
        (["qmark", "eval", "1/14002"], "has height 14001, above MAX_QMARK_HEIGHT"),
        (["relations", "--floor", "4", "--lambda", "1e10000000"], "decimal exponent of '1e10000000' lies above 4300"),
        (["relations", "--floor", "4", "--lambda", "1e100000"], "decimal exponent of '1e100000' lies above 4300"),
        (["relations", "--floor", "4", "--lambda", str(BIG)], "lam has more than 256 bits"),
        (["relations", "--floor", "4", "--lambda", f"3/{BIG}"], "lam has more than 256 bits"),
        (["relations", "--floor", "4", "--lambda", "1e4300"], "lam has more than 256 bits"),
        (["ideal", "--theta", "1e-10000000", "--depth", "3"], "decimal exponent of '1e-10000000' lies above 4300"),
        (["ideal", "--theta", "1E+1_0000", "--depth", "3"], "lies above 4300"),
    ],
)
def test_oversized_numbers_are_refused_within_a_second(capsys, argv, message):
    code, seconds, out, err = timed_run(capsys, *argv)
    assert (code, out) == (2, "") and seconds < 1
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"kind": "geometric", "ratio": "1e-100000"}', "decimal exponent of '1e-100000' lies above 4300"),
        (f'{{"kind": "geometric", "ratio": "1/{BIG + 1}"}}', "ratio has more than 256 bits"),
        (f'{{"kind": "table", "entries": [[0, 1, "{BIG}/{BIG + 1}"]]}}', "a table value has more than 256 bits"),
        (f'{{"kind": "table", "entries": [], "default": "1/{BIG}"}}', "default has more than 256 bits"),
    ],
)
def test_oversized_trace_weights_are_refused_within_a_second(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, seconds, out, err = timed_run(capsys, "trace", "check", "--spec", str(path), "--depth", "16")
    assert (code, out) == (2, "") and seconds < 1
    assert err.count("\n") == 1 and message in err


def test_numbers_just_inside_the_bounds_answer(tmp_path, capsys):
    # the most height, bits and exponent each bound lets through
    code, _, out, _ = timed_run(capsys, "qmark", "eval", "1/14001")
    assert (code, out) == (0, f"1/{2**14000}\n")
    for lam in (str(BIG - 1), f"{BIG - 1}/{BIG - 2}"):
        code, _, out, _ = timed_run(capsys, "relations", "--floor", "4", "--lambda", lam)
        assert code == 0 and out.startswith("6.1: 64/64 pass")
    code, _, out, _ = timed_run(capsys, "ideal", "--theta", "1e-4300", "--depth", "3")
    assert code == 0 and json.loads(out)["retained"] == [[0, 1]] * 4
    path = tmp_path / "spec.json"
    path.write_text(f'{{"kind": "geometric", "ratio": "1/{BIG // 2 + 1}"}}')
    code, _, out, _ = timed_run(capsys, "trace", "check", "--spec", str(path), "--depth", "4")
    assert (code, out) == (0, "valid (exact, depth 4, 9 vertices)\n")


# Runs the command given after the fd number in a new process and writes the
# command's peak RSS (KiB on Linux) and its CPU seconds (user plus system) to
# that fd.  The ru_maxrss a child is reaped with also counts the peak of the
# process it was spawned from, whose memory it shares until its exec: spawned
# from the test process, every command would read at least the test
# process's peak.  So the command is spawned from this small interpreter,
# which peaks below any command.
_REAPER = (
    "import os, sys; fd = int(sys.argv[1]); "
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_CLOSE, fd)]); "
    "_, status, usage = os.wait4(pid, 0); "
    "os.write(fd, f'{usage.ru_maxrss} {usage.ru_utime + usage.ru_stime}'.encode()); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


def fresh_python(*args):
    """Run a new interpreter on the package: (exit code, stdout, stderr,
    peak RSS in MB, CPU seconds).  Its output goes to temporary files, so no
    pipe has to be drained while it runs."""
    env = {**os.environ, "PYTHONPATH": str(Path(fareybratteli.__file__).resolve().parents[1])}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, tempfile.TemporaryFile() as peak:
        fd = peak.fileno()
        reaper = [sys.executable, "-I", "-S", "-c", _REAPER, str(fd), *args]  # no site: a faster start
        code = subprocess.run(reaper, stdout=out, stderr=err, env=env, pass_fds=(fd,)).returncode
        for handle in (out, err, peak):
            handle.seek(0)
        kib, cpu_s = peak.read().split()
        return code, out.read().decode("utf-8"), err.read().decode("utf-8"), int(kib) / 1024, float(cpu_s)


@pytest.mark.parametrize("golden", GOLDENS, ids=[golden.id for golden in GOLDENS])
def test_command_matches_its_golden(tmp_path, golden):
    for name, spec in TRACE_SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in TRACE_SPECS else arg for arg in golden.argv]
    code, out, err, peak_mb, cpu_s = fresh_python("-m", "fareybratteli.cli", *argv)
    assert code == golden.code, f"farey-bratteli {golden.id} exited {code}, not {golden.code}: {err}"
    assert golden.compared(out, err) == golden.expected(), f"farey-bratteli {golden.id} differs from {golden.source}"
    assert golden.stats or err == "", f"farey-bratteli {golden.id} wrote to stderr: {err}"
    if golden.peak_mb is not None:
        assert peak_mb <= golden.peak_mb, f"farey-bratteli {golden.id}: peak RSS {peak_mb:.1f} MB above {golden.peak_mb} MB"
    if golden.cpu_s is not None:
        assert cpu_s <= golden.cpu_s, f"farey-bratteli {golden.id}: {cpu_s:.2f} CPU seconds above {golden.cpu_s} s"


def test_every_golden_file_is_read_and_every_entry_names_one():
    named = {golden.path for golden in GOLDENS}
    committed = {path for path in [*TESTS.glob("golden_*"), *DIAGRAM.iterdir()] if path.is_file() and path.suffix != ".py"}
    # the mutant and floor-5 suite goldens are read by their own tests in test_path_algebra.py
    assert committed - named == {TESTS / "golden_mutants.json", TESTS / "golden_suites_floor5.json"}
    assert all(path.is_file() for path in named)
    lines = sorted(golden.part for golden in GOLDENS if golden.path == STATS_FLOORS_4_TO_6)
    assert lines == list(range(len(STATS_FLOORS_4_TO_6.read_text(encoding="utf-8").splitlines())))
    ids = [golden.id for golden in GOLDENS]
    assert len(set(ids)) == len(ids)


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    sequence = [
        ["ideal", "--theta", "2/5", "--depth", "3", "--format", "dot", "--variant", "plus"],
        ["ideal", "--theta", "1/3", "--depth", "4"],
        ["relations", "--floor", "4", "--lambda", "2", "--suite", "yb", "--json"],
        ["row"],
        ["row", "--floor", "3", "--numerators"],
        ["row", "--floor", "3"],
    ]
    try:
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == fresh_python("-m", "fareybratteli.cli", *argv)[:3], argv
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# Loads the benchmark's span tracer (bench/tracing.py) by its path, checks
# that every traced name resolves on the package, installs the tracer and
# runs one relations command in the same process; prints what it saw.
_TRACED_RELATIONS = """
import contextlib, importlib.util, io, json, sys
import fareybratteli, fareybratteli.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = []
for module, attr, _ in tracing.ENTRY_POINTS:
    owner = getattr(fareybratteli, module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        missing.append(f"{module}.{attr}")
if missing:
    print(json.dumps({"missing": missing}))
    sys.exit()
tracer = tracing.Tracer()
tracing.install(tracer, fareybratteli)
with contextlib.redirect_stdout(io.StringIO()):
    code = fareybratteli.cli.main(["relations", "--floor", "4", "--lambda", "2"])
print(json.dumps({"missing": missing, "code": code, "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_the_benchmark_tracer_finds_every_entry_point_and_spans_the_suites_of_a_cli_run():
    code, out, err, *_ = fresh_python("-c", _TRACED_RELATIONS, str(TESTS.parent / "bench" / "tracing.py"))
    assert code == 0, err
    seen = json.loads(out)
    assert seen["missing"] == [] and seen["code"] == 0
    assert {"cli.main", "path_algebra.base", "path_algebra.yb", "path_algebra.braiding"} <= set(seen["spans"])


def test_every_subcommand_has_one_command_function():
    (commands,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)


def test_importing_the_cli_builds_no_parser():
    code, out, *_ = fresh_python("-c", "import fareybratteli.cli as c; print(c._parser.cache_info().currsize)")
    assert (code, out.strip()) == (0, "0")


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_to_the_end(demo):
    code, _, err, *_ = fresh_python(str(demo))
    assert code == 0, f"{demo.name} exited {code}: {err}"


def test_the_package_holds_no_assert_statement():
    # invariants are raised exceptions: an assert vanishes under python -O
    package = Path(fareybratteli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# fuzzing: every argv gets an answer, a usage error or a failed check


# out of range or malformed for most flags; every in-range size in the pools
# below stays small (floors <= 4, depths <= 8, qmax <= 10**4)
BAD = ["-1", "0", "x", "nan", "1/0", str(10**9), "", "cf:"]
SPECS = {
    "geometric.json": '{"kind": "geometric", "ratio": "1/4"}',
    "half.json": '{"kind": "geometric", "ratio": "1/2"}',
    "table.json": '{"kind": "table", "entries": [[0, 1, "1/3"], [1, 1, "1/9"]], "default": "0"}',
    "untailed.json": '{"kind": "table", "entries": [], "default": "1/5"}',
    "broken.json": '{"kind": "geometric", "ratio": "1/0"',
    "deep.json": '{"kind": "table", "entries": [[1000000000, 1, "1/2"]], "default": "0"}',
    "tiny.json": '{"kind": "geometric", "ratio": "1e-100000"}',
    "nested.json": "[" * 100000,
    "negative.json": '{"kind": "table", "entries": [[0, 1, "1/2"], [1, 1, "1/8"], [2, 1, "-1/4"]], "default": "0"}',
    "twice.json": '{"kind": "table", "entries": [[0, 1, "1/4"], [0, 1, "1/2"]], "default": "0"}',
    "misspelled.json": '{"kind": "table", "entries": [[0, 1, "1/2"]], "defualt": "1/2"}',
}


def _pool(*good):
    return [str(value) for value in good]


POLYS = _pool("0:1", "1:0,1", "2:0,0,0,1", "1:1,-1", "2:1,2", "1000000000:1", "1:")
# (subcommand words, positional pools, {flag: pool, or None for a switch})
COMMANDS = [
    (["row"], [], {"--floor": _pool(0, 1, 2, 4), "--numerators": None, "--denominators": None}),
    (["qmark", "eval"], [_pool("2/5", "1/3", "1", "3/2", "-1/2", "1e-30", "1/1000000")], {}),
    (["qmark", "inv"], [_pool("3/8", "1/2", "1/3", "1", "1/1024")], {}),
    (
        ["ideal"],
        [],
        {
            "--theta": _pool("1/3", "2/5", "1", "3/2", "cf:1,2,2,1,1,2", "cf:2,2,2,2,2", "cf:1,-2"),
            "--variant": _pool("plain", "plus", "minus"),
            "--depth": _pool(1, 4, 8),
            "--format": _pool("json", "dot"),
        },
    ),
    (["k0", "add"], [POLYS, POLYS], {}),
    (["k0", "pos"], [POLYS], {}),
    (["k0", "lift"], [POLYS], {"--to": _pool(1, 2, 4)}),
    (["k0", "identity"], [], {"--max-level": _pool(1, 4)}),
    (["gen"], [], {"--terms": _pool(1, 8, 64)}),
    (["trace", "check"], [], {"--spec": _pool(*SPECS, "missing.json"), "--depth": _pool(1, 4, 8)}),
    (["paths"], [], {"--floor": _pool(1, 3, 4)}),
    (
        ["relations"],
        [],
        {
            "--floor": _pool(2, 4),
            "--lambda": _pool("1", "1/4", "2", "-2", "1e100000", "1e10000000"),
            "--suite": _pool("base", "yb", "braiding", "all"),
            "--json": None,
            "--stats": None,
        },
    ),
    (["zeta"], [], {"--s": _pool("3", "2.5", "2", "inf"), "--qmax": _pool(1, 97, 10**4)}),
]


@st.composite
def argvs(draw):
    """An argv of one subcommand.  Half of them are clean: every positional
    and flag given, each with a value from its own pool, which is mostly
    valid; the rest drop flags or values and mix in the bad ones."""
    words, positionals, flags = draw(st.sampled_from(COMMANDS))
    clean = draw(st.booleans())

    def value(pool):
        return draw(st.sampled_from(pool if clean else pool + BAD))

    argv = list(words)
    for pool in positionals:
        if clean or draw(st.integers(0, 3)):
            argv.append(value(pool))
    for flag, pool in flags.items():
        if pool is None:
            if draw(st.booleans()):
                argv.append(flag)
        elif clean or draw(st.integers(0, 7)):
            argv.append(flag)
            if clean or draw(st.integers(0, 7)):
                argv.append(value(pool))
    if not clean and not draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-h"])))
    return argv


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs")
    for name, text in SPECS.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@settings(max_examples=250, deadline=None)
@given(argv=argvs())
def test_cli_fuzz_exits_cleanly(spec_dir, argv):
    argv = [str(spec_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue(), argv
