import argparse
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from varchenko import cli, geometry, matrix
from varchenko.cli import COMMANDS, build_parser, main
from varchenko.closedform import formula_A, formula_D, zagier
from varchenko.exactalg import (DEFAULT_PRIME, PrimeField, factored_eval,
                                factored_specialize_all)
from varchenko.harness import SOURCES, parse_arrangement_file

BRAID3 = """\
dim 3
hyperplane 1 -1 0 0 q_{1,2}
hyperplane 1 0 -1 0 q_{1,3}
hyperplane 0 1 -1 0 q_{2,3}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_text_round_trips(capsys):
    code, out, _ = run(capsys, "family", "--kind", "A:3")
    assert code == 0
    A = parse_arrangement_file(out)
    assert A.weight_names() == ("q_{1,2}", "q_{1,3}", "q_{2,3}")


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--kind", "B:2", "--emit", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["dimension"] == 2
    assert [h["weight"] for h in obj["hyperplanes"]] == [
        "q_{1,2}", "q_{-1,2}", "q_{1}", "q_{2}"]


def test_chambers_kind(capsys):
    code, out, _ = run(capsys, "chambers", "--kind", "B:3", "--emit", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 48
    assert len({c["signs"] for c in obj["chambers"]}) == 48


def test_chambers_file(capsys, tmp_path):
    path = tmp_path / "arr.txt"
    path.write_text(BRAID3)
    code, out, _ = run(capsys, "chambers", "--file", str(path), "--emit", "json")
    assert code == 0
    assert json.loads(out)["count"] == 6


AFFINE_PARALLEL = """\
dim 2
hyperplane 1 0 0 a
hyperplane 1 0 1 b
hyperplane 1 1 1 c
hyperplane 0 1 -1 d
"""


@pytest.mark.parametrize("source", ["B:3", "file"])
def test_chambers_json_witnesses_are_strict(capsys, tmp_path, source):
    # a witness is some interior point of its chamber, not a canonical one:
    # check only that it lies strictly on the printed side of every hyperplane
    if source == "file":
        path = tmp_path / "arr.txt"
        path.write_text(AFFINE_PARALLEL)
        A = parse_arrangement_file(AFFINE_PARALLEL)
        argv = ("--file", str(path))
    else:
        argv = ("--kind", source)
        A = parse_arrangement_file(run(capsys, "family", *argv)[1])
    code, out, _ = run(capsys, "chambers", *argv, "--emit", "json")
    assert code == 0
    chambers = json.loads(out)["chambers"]
    assert len(chambers) == (48 if source == "B:3" else 10)
    for c in chambers:
        point = [Fraction(x) for x in c["witness"]]
        for sign, hp in zip(c["signs"], A.hyperplanes, strict=True):
            v = hp.value_at(point)
            assert v > 0 if sign == "+" else v < 0


def test_edges_geometric(capsys):
    code, out, _ = run(capsys, "edges", "--kind", "D:3", "--emit", "json")
    assert code == 0
    rows = json.loads(out)["edges"]
    assert len(rows) == 11
    origin = next(r for r in rows if r["dim"] == 0)
    assert origin["multiplicity"] == 2


def test_edges_combinatorial(capsys):
    code, out, _ = run(capsys, "edges", "--kind", "D:3", "--combinatorial",
                       "--emit", "json")
    assert code == 0
    rows = json.loads(out)["edges"]
    assert len(rows) == 14  # 10 signed subsets of size >= 2 plus 4 zero sets
    triple = next(r for r in rows if r["variant"] == "signed_equal"
                  and r["entries"] == [1, 2, 3])
    assert triple["multiplicity"] == 1  # printed value


def test_det_factored_matches_formula(capsys):
    code, out, _ = run(capsys, "det", "--kind", "A:4", "--mode", "factored")
    assert code == 0
    assert json.loads(out) == formula_A(4).to_json_obj()


def test_det_bruteforce_with_assignment_file(capsys, tmp_path):
    arr = tmp_path / "arr.txt"
    arr.write_text(BRAID3)
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"q_{1,2}": 0, "q_{1,3}": 0, "q_{2,3}": 0}))
    code, out, _ = run(capsys, "det", "--file", str(arr), "--mode", "bruteforce",
                       "--assign", str(assign))
    assert code == 0
    assert json.loads(out)["value"] == "1"  # identity matrix at zero weights


def test_det_bruteforce_with_a_zero_weight(capsys, tmp_path, monkeypatch):
    # a weight 0 has no inverse mod p, so the walk of the congruent rows
    # (forced here on a small matrix) must not cross its hyperplane
    arr = tmp_path / "arr.txt"
    arr.write_text(BRAID3)
    weights = {"q_{1,2}": 0, "q_{1,3}": 5, "q_{2,3}": 7}
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(weights))
    expect = factored_eval(formula_A(3), weights, PrimeField(DEFAULT_PRIME))
    for n0 in (matrix._CONGRUENCE_MIN, 1):
        monkeypatch.setattr(matrix, "_CONGRUENCE_MIN", n0)
        code, out, _ = run(capsys, "det", "--file", str(arr), "--mode", "bruteforce",
                           "--assign", str(assign))
        assert code == 0
        assert json.loads(out)["value"] == str(expect)


def test_det_bruteforce_seeded_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "det", "--kind", "A:3", "--mode", "bruteforce",
                         "--seed", "5")
    code2, out2, _ = run(capsys, "det", "--kind", "A:3", "--mode", "bruteforce",
                         "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2


def test_det_bruteforce_is_trial_zero_of_verify(capsys):
    for seed in ("0", "5"):
        code, out, _ = run(capsys, "det", "--kind", "B:3", "--mode", "bruteforce",
                           "--seed", seed)
        assert code == 0
        det = json.loads(out)
        code, out, _ = run(capsys, "verify", "--kind", "B:3", "--lhs", "formula",
                           "--rhs", "bruteforce", "--seed", seed)
        assert code == 0
        first = json.loads(out)["trials"][0]
        assert (det["assignment"], det["value"]) == (first["assignment"],
                                                     first["rhs_value"])


def test_det_bruteforce_rejects_boolean_weights(capsys, tmp_path):
    # bool is a subclass of int; true must not pass as the weight 1
    arr = tmp_path / "arr.txt"
    arr.write_text("dim 1\nhyperplane 1 0 a\nhyperplane 1 1 b\n")
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"a": True, "b": 3}))
    code, out, err = run(capsys, "det", "--file", str(arr), "--mode", "bruteforce",
                         "--assign", str(assign))
    assert code == 2
    assert out == ""
    assert "'a'" in err


def test_det_bruteforce_rejects_names_that_are_not_weights(capsys, tmp_path):
    # a misspelt weight must not pass unnoticed beside the real one
    arr = tmp_path / "arr.txt"
    arr.write_text("dim 1\nhyperplane 1 0 a\nhyperplane 1 1 b\n")
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"a": 2, "b": 3, "typo": 5}))
    code, out, err = run(capsys, "det", "--file", str(arr), "--mode", "bruteforce",
                         "--assign", str(assign))
    assert code == 2
    assert out == ""
    assert "'typo'" in err


def test_det_bruteforce_missing_assignment_variable(capsys, tmp_path):
    arr = tmp_path / "arr.txt"
    arr.write_text(BRAID3)
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"q_{1,2}": 3}))
    code, _, err = run(capsys, "det", "--file", str(arr), "--mode", "bruteforce",
                       "--assign", str(assign))
    assert code == 2
    assert "q_{1,3}" in err


def test_formula_with_specialize(capsys):
    code, out, _ = run(capsys, "formula", "--kind", "D:3", "--specialize", "q")
    assert code == 0
    assert json.loads(out) == factored_specialize_all(formula_D(3), "q").to_json_obj()


def test_zagier_command(capsys):
    code, out, _ = run(capsys, "zagier", "--n", "6")
    assert code == 0
    assert json.loads(out) == zagier(6).to_json_obj()


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "B:2", "--lhs", "formula",
                       "--rhs", "bruteforce", "--trials", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "D:2", "--lhs", "formula",
                       "--rhs", "bruteforce", "--trials", "3")
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


def test_verify_byte_identical_reports(capsys):
    args = ("verify", "--kind", "I2:5", "--lhs", "geometric",
            "--rhs", "bruteforce", "--trials", "4", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_source_choices_are_the_harness_sources():
    verify = next(a for a in build_parser()._actions
                  if isinstance(a.choices, dict)).choices["verify"]
    choices = {a.dest: a.choices for a in verify._actions if a.dest in ("lhs", "rhs")}
    assert choices == {"lhs": SOURCES, "rhs": SOURCES}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a.choices, dict)).choices


def _arguments(parser):
    return [(a.option_strings, a.dest) for a in parser._actions]


def test_parser_builds_the_named_command_alone():
    subparsers = _subparsers(build_parser())
    assert list(subparsers) == [
        "family", "chambers", "edges", "det", "formula", "zagier", "verify"]
    alone = build_parser("verify")
    assert alone.prog == "varchenko verify"
    assert _arguments(alone) == _arguments(subparsers["verify"])


SUBJECT = ("--kind", "A:3")
VERIFY = ("verify", *SUBJECT, "--lhs", "formula", "--rhs", "bruteforce")


@pytest.mark.parametrize("argv", [
    [], ["-h"], *([name, "-h"] for name in COMMANDS), ["nosuch"],
    ["det", *SUBJECT, "--mode", "factored", "extra"],
    ["verify", *SUBJECT, "--lhs", "nosuch", "--rhs", "bruteforce"],
    ["verify", *SUBJECT, "--lhs", "formula", "--rhs", "bruteforce", "--trials", "x"],
    ["det", *SUBJECT],
    # arguments the command's parser leaves over, an abbreviated option and
    # its error, which names the option in full
    [*VERIFY, "--bogus"], [*VERIFY, "--", "x"], [*VERIFY, "--tri", "2"],
    [*VERIFY, "--tri", "x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # main builds only the invoked command's parser; the arguments handed
    # to the command, exits, help and errors must be those of the parser
    # with every command
    parsed = []
    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: parsed.append(args) or 0)

    def outcome(parse):
        try:
            result = vars(parse())
            result.pop("command", None)  # the full parser's subparsers dest
        except SystemExit as exc:
            result = exc.code
        out = capsys.readouterr()
        return result, out.out, out.err

    expected = outcome(lambda: build_parser().parse_args(argv))
    assert outcome(lambda: main(argv) or parsed.pop()) == expected


@pytest.mark.parametrize("columns", ["50", "200"])
@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_has_argparse_default_width(capsys, monkeypatch, name, columns):
    # both sides of the parity test share cli's formatter; this one compares
    # with argparse's default, which reads the terminal width itself
    monkeypatch.setenv("COLUMNS", columns)
    reference = argparse.ArgumentParser(prog=f"varchenko {name}")
    COMMANDS[name][1](reference)
    with pytest.raises(SystemExit):
        main([name, "-h"])
    assert capsys.readouterr().out == reference.format_help()


@pytest.mark.parametrize("flag,value", [("--max-chambers", "-1"),
                                        ("--max-hyperplanes", "0")])
def test_guard_flags_reject_values_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["chambers", *SUBJECT, flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be at least 1, got {value}\n")


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(capsys, "family", "--kind", "E:8")[0] == 2
    assert run(capsys, "family")[0] == 2  # neither kind nor file
    arr = tmp_path / "arr.txt"
    arr.write_text(BRAID3)
    assert run(capsys, "family", "--kind", "A:3", "--file", str(arr))[0] == 2
    assert run(capsys, "chambers", "--file", str(tmp_path / "missing.txt"))[0] == 2
    assert run(capsys, "edges", "--combinatorial", "--kind", "I2:5")[0] == 2
    assert run(capsys, "verify", "--kind", "A:3", "--lhs", "formula",
               "--rhs", "bruteforce", "--prime", "10")[0] == 2
    assert run(capsys, "verify", "--file", str(arr), "--lhs", "formula",
               "--rhs", "bruteforce")[0] == 2


@pytest.mark.parametrize("text,message", [
    ("dim 2\nhyperplane 1 0 0 a\nhyperplane 0 0 1 b\n",
     "line 3: hyperplane 'b' has zero normal"),
    ("dim 2\nhyperplane 1 0 0 a\nhyperplane 0 1 0 q_{2,1}\n",
     "line 3: 'q_{2,1}': pair indices must satisfy 1 <= i < j"),
    ("dim 2\ndim 2\nhyperplane 1 0 0 a\n", "line 2: duplicate dim directive"),
])
def test_file_errors_exit_two_with_their_line(capsys, tmp_path, text, message):
    arr = tmp_path / "arr.txt"
    arr.write_text(text)
    for argv in (("chambers",), ("verify", "--lhs", "geometric", "--rhs", "bruteforce")):
        code, out, err = run(capsys, *argv, "--file", str(arr))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_chamber_guard_flag(capsys, tmp_path):
    # file input parses a fresh arrangement, so the guard trips while the
    # chambers are being enumerated
    arr = tmp_path / "arr.txt"
    arr.write_text(BRAID3)
    code, _, err = run(capsys, "chambers", "--file", str(arr),
                       "--max-chambers", "4")
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("sel,limit,count", [("A:5", 100, 120), ("B:4", 200, 240)])
def test_chamber_guard_reports_the_full_count(capsys, tmp_path, sel, limit, count):
    # a central arrangement enumerates half its regions and mirrors them; the
    # guard still counts both halves, at the insertion step where it trips
    arr = tmp_path / "arr.txt"
    arr.write_text(run(capsys, "family", "--kind", sel)[1])
    for argv in (("chambers",), ("det", "--mode", "bruteforce")):
        code, _, err = run(capsys, *argv, "--file", str(arr), "--max-chambers", str(limit))
        assert code == 2
        assert err == f"error: chamber guard exceeded: reached {count}, limit {limit}\n"


def test_chamber_guard_applies_to_cached_chambers(capsys):
    # build_family shares one Arrangement per kind, so the second call finds
    # the chambers cached by the first and must still honor its guard
    assert run(capsys, "chambers", "--kind", "A:4")[0] == 0
    code, _, err = run(capsys, "chambers", "--kind", "A:4", "--max-chambers", "4")
    assert code == 2
    assert "guard" in err


def test_hyperplane_guard_flag_raises_the_default(capsys, tmp_path):
    # 33 points on a line exceed the default guard of 32 hyperplanes
    arr = tmp_path / "points.txt"
    arr.write_text("dim 1\n" + "".join(f"hyperplane 1 {i} p{i}\n" for i in range(33)))
    assert run(capsys, "chambers", "--file", str(arr))[0] == 2
    code, out, _ = run(capsys, "chambers", "--file", str(arr),
                       "--max-hyperplanes", "40", "--emit", "json")
    assert code == 0
    assert json.loads(out)["count"] == 34


def test_chamber_guard_flag_raises_the_default(capsys, monkeypatch):
    # a default of 4 chambers stands in for a family too large to enumerate
    # in a test; the explicit flag must lift it for the whole command
    monkeypatch.setattr(geometry, "DEFAULT_MAX_CHAMBERS", 4)
    for argv in (("chambers",), ("det", "--mode", "bruteforce")):
        code, _, err = run(capsys, *argv, "--kind", "A:3", "--max-chambers", "100")
        assert code == 0, err


def test_module_entry_point(module_env):
    proc = subprocess.run(
        [sys.executable, "-m", "varchenko", "zagier", "--n", "3"],
        capture_output=True, text=True, env=module_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == zagier(3).to_json_obj()


_IMPORT_PROBE = """\
import io, sys
watched = {"dataclasses", "inspect", "hashlib", "_hashlib"}
before = set(sys.modules)
from varchenko.cli import main
print(sorted(watched & (set(sys.modules) - before)))
for argv in (["det", "--kind", "A:3", "--mode", "factored"],
             ["verify", "--kind", "A:3", "--lhs", "formula", "--rhs", "bruteforce"]):
    sys.stdout = io.StringIO()
    code = main(argv)
    sys.stdout = sys.__stdout__
    print(code, sorted(watched & (set(sys.modules) - before)))
"""


def test_cli_import_leaves_out_dataclasses_and_hashlib(module_env):
    # a subprocess, since pytest itself has loaded these modules; hashlib
    # waits for the first trial digest, which a factored det never makes
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=module_env)
    assert proc.returncode == 0, proc.stderr
    imported, det, verify = proc.stdout.splitlines()
    assert imported == "[]"
    assert det == "0 []"
    assert verify.startswith("0 [") and "'hashlib'" in verify
    assert "dataclasses" not in verify and "inspect" not in verify


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # every `varchenko ...` line of README's "Command line" section exits 0;
    # arr.txt is README's own arrangement-file example
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = section.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"(?:^    .*\n)+", section, flags=re.M)
    commands = [shlex.split(line.split("#", 1)[0])[1:] for line in blocks[0].splitlines()
                if line.strip().startswith("varchenko ")]
    example = "".join(line[4:] + "\n" for line in blocks[1].splitlines())
    (tmp_path / "arr.txt").write_text(example)
    names = parse_arrangement_file(example).weight_names()
    (tmp_path / "assign.json").write_text(json.dumps({w: i + 2 for i, w in enumerate(names)}))
    monkeypatch.chdir(tmp_path)
    assert len(commands) >= 9
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (shlex.join(argv), err)
