"""CLI: subcommand behavior, exit codes, deterministic output."""

import json
import re
from pathlib import Path

import pytest

import xctangle
from xctangle.cli import main

IDENTITY = "strands: 1\ntop: 1\nchords:\nstrand 1:\n"
TREFOIL_CODE = "strands: 1\nstrand 1: O1+ U2+ O3+ U1+ O2+ U3+\n"


@pytest.fixture
def files(tmp_path):
    idf = tmp_path / "id.txt"
    idf.write_text(IDENTITY)
    tre = tmp_path / "tre.txt"
    tre.write_text(TREFOIL_CODE)
    return tmp_path, idf, tre


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_matches_pyproject():
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert xctangle.__version__ == version


def test_validate_identity(files, capsys):
    _, idf, _ = files
    code, out, _ = run(capsys, "validate", str(idf))
    assert code == 0 and out == "valid\n"


def test_parse_error_exit_2(files, capsys):
    tmp, _, _ = files
    bad = tmp / "bad.txt"
    bad.write_text("strands: x\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize("extra", ["strand 0:", "strand 2: O2+ U2+"])
def test_code_strand_out_of_range_exit_2(files, capsys, extra):
    tmp, _, _ = files
    bad = tmp / "bad.txt"
    bad.write_text(TREFOIL_CODE + extra + "\n")
    for argv in (("validate", "--type", "code", str(bad)), ("lift", str(bad))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "out of range" in err


@pytest.mark.parametrize("kind, text", [
    ("diagram", "strands: ²\n"),
    ("code", "strands: 1\nstrand 1: O¹+ U¹+\n"),
    ("tangle", "vertex ²: out\n"),
    ("algebra", "dim: ²\n"),
    ("formula", "term 1\nstrands: 1\nchords: ²:?\nstrand 1:\n"),
])
def test_superscript_digit_exit_2(tmp_path, capsys, kind, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "validate", "--type", kind, str(bad))
    assert code == 2 and "parse error: line" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "canon", "/nonexistent/x.txt")
    assert code == 2 and "cannot read" in err


def test_lift_framing_pipeline(files, capsys, tmp_path):
    _, _, tre = files
    code, out, _ = run(capsys, "lift", str(tre))
    assert code == 0
    lifted = tmp_path / "lifted.txt"
    lifted.write_text(out)
    code, out, _ = run(capsys, "framing", str(lifted))
    assert code == 0 and out == "3\n"
    code, out, _ = run(capsys, "forget", str(lifted))
    assert code == 0 and out == TREFOIL_CODE.replace(
        "strands: 1\n", "strands: 1\ntop: 1\n")


def test_bracket_golden(files, capsys):
    _, _, tre = files
    code, out, _ = run(capsys, "bracket", str(tre))
    assert code == 0 and out.strip() == "-q^8 + q^6 + q^2"


def test_bracket_guardrail_exit_1(tmp_path, capsys):
    big = tmp_path / "kinks.txt"
    big.write_text("strands: 1\nstrand 1: "
                   + " ".join(f"O{c}+ U{c}+" for c in range(1, 27)) + "\n")
    code, out, err = run(capsys, "bracket", str(big))
    assert code == 1 and out == ""
    assert err == ("error: bracket state sum over 26 chords has "
                   "2^26 = 67108864 states, more than 2^25\n")


def test_axioms_ok(capsys):
    code, out, _ = run(capsys, "axioms")
    assert code == 0 and "all: ok" in out


# Two seeded non-XC rational algebras on which every axiom fails, and the
# full `xct axioms` reports (text and json-lines) for them and the builtin.
ALGEBRA_D2 = """\
dim: 2
ring: rational
R:
0, -3/2, 1/2, 0
1, -3/2, 2, -3/2
0, -3/2, 0, 2
0, 1/2, 0, 0
Rinv:
2, 1/2, 1/2, 2
-1, 0, 0, 0
1/2, -1, 0, 0
0, -3/2, 0, 0
kappa:
0, 0
2, -3/2
kappainv:
-1, -1
-1, -3/2
"""

ALGEBRA_D3 = """\
dim: 3
ring: rational
R:
0, 0, 0, -1, 2, 0, 0, 0, 0
-1, 1/2, 0, 0, 0, 1/2, 1/2, 1, 0
0, 0, 0, 0, 0, 0, 0, 0, 0
0, 0, 1, 0, -3/2, 1, -1, 1/2, 0
0, 0, 2, 0, 0, 1/2, 0, 0, 0
-3/2, 0, 1/2, 0, -1, -1, -3/2, 0, -1
2, 0, 0, 0, 0, 0, 0, 0, 2
0, 1/2, 1/2, 2, 1, 0, 0, 0, -1
0, 2, 0, 0, 1, -1, -3/2, 1, 1/2
Rinv:
0, 1, 0, 0, 0, 0, -3/2, -3/2, 0
0, 1, 0, 0, 2, 0, 0, 1, 0
0, 1, 0, 1, 0, 1, 0, -1, -3/2
0, 0, -3/2, 0, 2, 0, 0, 0, -1
-3/2, 0, 1, -3/2, 0, 1, 0, 2, 0
1, 1, 0, -3/2, 0, 2, 0, -1, 0
0, 0, 0, 0, 0, -3/2, 0, -3/2, 0
1/2, 2, -3/2, 0, 1, 0, 0, 1/2, 0
-1, 0, 2, 0, 0, 2, -1, 2, 0
kappa:
0, -1, 2
0, -1, 0
2, 0, 0
kappainv:
0, 0, 0
0, 1/2, 0
0, -1, 0
"""

AXIOMS_BUILTIN_TEXT = """\
invertibility-R: ok
invertibility-R': ok
invertibility-kappa: ok
XC0: ok
XC0': ok
XC1f: ok
XC2c: ok
XC2d: ok
XC3: ok
all: ok
"""

AXIOMS_BUILTIN_JSON = (
    '{"XC0": {"ok": true}, '
    '"XC0\'": {"ok": true}, '
    '"XC1f": {"ok": true}, '
    '"XC2c": {"ok": true}, '
    '"XC2d": {"ok": true}, '
    '"XC3": {"ok": true}, '
    '"invertibility-R": {"ok": true}, '
    '"invertibility-R\'": {"ok": true}, '
    '"invertibility-kappa": {"ok": true}, '
    '"ok": true}\n'
)

AXIOMS_D2_TEXT = """\
invertibility-R: FAIL at (0, 0)
invertibility-R': FAIL at (0, 0)
invertibility-kappa: FAIL at (0, 0)
XC0: FAIL at (0, 1)
XC0': FAIL at (0, 0)
XC1f: FAIL at (0, 0)
XC2c: FAIL at (0, 0)
XC2d: FAIL at (0, 2)
XC3: FAIL at (0, 0)
all: FAIL
"""

AXIOMS_D2_JSON = (
    '{"XC0": {"entry": [0, 1], "lhs": "-3/2", "ok": false, "rhs": "0"}, '
    '"XC0\'": {"entry": [0, 0], "lhs": "2", "ok": false, "rhs": "0"}, '
    '"XC1f": {"entry": [0, 0], "lhs": "-3/4", "ok": false, "rhs": "-9/2"}, '
    '"XC2c": {"entry": [0, 0], "lhs": "-1", "ok": false, "rhs": "-1/2"}, '
    '"XC2d": {"entry": [0, 2], "lhs": "0", "ok": false, "rhs": "1/2"}, '
    '"XC3": {"entry": [0, 0], "lhs": "-3/4", "ok": false, "rhs": "0"}, '
    '"invertibility-R": {"entry": [0, 0], "lhs": "7/4", "ok": false, "rhs": "1"}, '
    '"invertibility-R\'": {"entry": [0, 0], "lhs": "1/2", "ok": false, "rhs": "1"}, '
    '"invertibility-kappa": {"entry": [0, 0], "lhs": "0", "ok": false, "rhs": "1"}, '
    '"ok": false}\n'
)

AXIOMS_D3_TEXT = """\
invertibility-R: FAIL at (0, 0)
invertibility-R': FAIL at (0, 0)
invertibility-kappa: FAIL at (0, 0)
XC0: FAIL at (0, 3)
XC0': FAIL at (0, 1)
XC1f: FAIL at (0, 0)
XC2c: FAIL at (0, 0)
XC2d: FAIL at (0, 0)
XC3: FAIL at (0, 0)
all: FAIL
"""

AXIOMS_D3_JSON = (
    '{"XC0": {"entry": [0, 3], "lhs": "-1", "ok": false, "rhs": "0"}, '
    '"XC0\'": {"entry": [0, 1], "lhs": "1", "ok": false, "rhs": "0"}, '
    '"XC1f": {"entry": [0, 0], "lhs": "4", "ok": false, "rhs": "-1/2"}, '
    '"XC2c": {"entry": [0, 0], "lhs": "0", "ok": false, "rhs": "-1/2"}, '
    '"XC2d": {"entry": [0, 0], "lhs": "0", "ok": false, "rhs": "-1"}, '
    '"XC3": {"entry": [0, 0], "lhs": "-3", "ok": false, "rhs": "2"}, '
    '"invertibility-R": {"entry": [0, 0], "lhs": "-3", "ok": false, "rhs": "1"}, '
    '"invertibility-R\'": {"entry": [0, 0], "lhs": "-4", "ok": false, "rhs": "1"}, '
    '"invertibility-kappa": {"entry": [0, 0], "lhs": "0", "ok": false, "rhs": "1"}, '
    '"ok": false}\n'
)


@pytest.mark.parametrize("algebra, fmt, expected", [
    (None, "text", AXIOMS_BUILTIN_TEXT),
    (None, "json-lines", AXIOMS_BUILTIN_JSON),
    (ALGEBRA_D2, "text", AXIOMS_D2_TEXT),
    (ALGEBRA_D2, "json-lines", AXIOMS_D2_JSON),
    (ALGEBRA_D3, "text", AXIOMS_D3_TEXT),
    (ALGEBRA_D3, "json-lines", AXIOMS_D3_JSON),
])
def test_axioms_report_golden(tmp_path, capsys, algebra, fmt, expected):
    argv = ["axioms", "--format", fmt]
    if algebra is not None:
        path = tmp_path / "algebra.txt"
        path.write_text(algebra)
        argv += ["--algebra", str(path)]
    code, out, _ = run(capsys, *argv)
    assert out == expected
    assert code == (0 if algebra is None else 1)


def test_ring_line_after_a_block_exit_2(files, capsys):
    tmp, idf, _ = files
    late = tmp / "late.txt"
    late.write_text("dim: 1\nR:\n1\nRinv:\n1\nring: rational\n"
                    "kappa:\n1\nkappainv:\n1\n")
    for argv in (("axioms", "--algebra", str(late)),
                 ("zeval", str(idf), "--algebra", str(late))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == ("parse error: line 6, column 1: "
                       "'ring:' must come before the matrix blocks\n")


def test_zeval_identity(files, capsys):
    _, idf, _ = files
    code, out, _ = run(capsys, "zeval", str(idf))
    assert code == 0 and out.splitlines()[0] == "sigma: 1"


def test_compose_tensor(files, capsys):
    _, idf, _ = files
    code, out, _ = run(capsys, "tensor", str(idf), str(idf))
    assert code == 0 and out.startswith("strands: 2")
    code, out, _ = run(capsys, "compose", str(idf), str(idf))
    assert code == 0 and out.startswith("strands: 1")


def test_tangle_round_trip(files, capsys, tmp_path):
    _, idf, _ = files
    code, out, _ = run(capsys, "to-tangle", str(idf))
    assert code == 0
    tf = tmp_path / "t.txt"
    tf.write_text(out)
    code, out2, _ = run(capsys, "to-gauss", str(tf))
    assert code == 0 and out2 == IDENTITY


def test_moves_list_apply_and_bad_index(files, capsys):
    _, idf, _ = files
    code, out, _ = run(capsys, "moves", "list", str(idf), "--kind", "G2")
    assert code == 0 and out.strip().endswith("total: 2")
    code, out, _ = run(capsys, "moves", "apply", str(idf),
                       "--kind", "G2", "--index", "0")
    assert code == 0 and "chords: 1:+ 2:-" in out
    code, _, err = run(capsys, "moves", "apply", str(idf),
                       "--kind", "G2", "--index", "99")
    assert code == 1 and "out of range" in err


def test_moves_orbit_json(files, capsys):
    _, idf, _ = files
    code, out, _ = run(capsys, "moves", "orbit", str(idf),
                       "--max-depth", "1", "--max-size", "2",
                       "--format", "json-lines")
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["truncated"] is True and last["size"] >= 1


KINK = "strands: 1\nchords: 1:+\nstrand 1: O1 D- U1\n"


@pytest.mark.parametrize("fmt, golden", [
    ("text", "moves_orbit_kink.txt"),
    ("json-lines", "moves_orbit_kink.jsonl"),
])
def test_moves_orbit_golden(tmp_path, capsys, fmt, golden):
    path = tmp_path / "kink.txt"
    path.write_text(KINK)
    code, out, _ = run(capsys, "moves", "orbit", str(path), "--max-depth", "2",
                       "--max-size", "5", "--format", fmt)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


TWO_STRANDS = ("strands: 2\ntop: 2 1\nchords: 1:+ 2:+ 3:+ 4:+\n"
               "strand 1: O2 O1 U3 U2 O4 D- U4\nstrand 2: O3 U1 D+ D-\n")
# site indices applied per kind: first, last and a few between
APPLY_AT = {"G0r": (0, 13, 26), "G0": (0, 1, 2, 3), "G1f": (0,),
            "G2": (0, 100, 200, 337), "G2p": (0, 40, 77), "G3": (0,)}


@pytest.mark.parametrize("fmt, golden", [
    ("text", "moves_two_strands.txt"),
    ("json-lines", "moves_two_strands.jsonl"),
])
def test_moves_list_and_apply_golden(tmp_path, capsys, fmt, golden):
    path = tmp_path / "two.txt"
    path.write_text(TWO_STRANDS)
    parts = []
    for kind, indices in APPLY_AT.items():
        code, out, _ = run(capsys, "moves", "list", str(path), "--kind", kind,
                           "--format", fmt)
        assert code == 0
        parts.append(f"$ moves list --kind {kind}\n{out}")
        for i in indices:
            code, out, _ = run(capsys, "moves", "apply", str(path), "--kind",
                               kind, "--index", str(i), "--format", fmt)
            assert code == 0
            parts.append(f"$ moves apply --kind {kind} --index {i}\n{out}")
    want = (Path(__file__).parent / "golden" / golden).read_text()
    assert "".join(parts) == want


def test_pair_formula(files, capsys, tmp_path):
    _, _, tre = files
    code, out, _ = run(capsys, "lift", str(tre))
    lifted = tmp_path / "lifted.txt"
    lifted.write_text(out)
    formula = tmp_path / "f.txt"
    formula.write_text(
        "term 2\nstrands: 1\nchords: 1:?\nstrand 1: U1 O1\n\n"
        "term -1\nstrands: 1\nchords:\nstrand 1: D?\n")
    code, out, _ = run(capsys, "pair", "--formula", str(formula),
                       "--diagram", str(lifted))
    assert code == 0 and out == "3\n"


def test_pair_rejects_invalid_template(files, capsys, tmp_path):
    _, idf, _ = files
    formula = tmp_path / "f.txt"
    formula.write_text("term 1\nstrands: 1\nchords:\nstrand 1: O1 U1\n")
    code, out, err = run(capsys, "pair", "--formula", str(formula),
                         "--diagram", str(idf))
    assert (code, out) == (1, "")
    assert err == "error: dangling chord end: unknown chord 1\n"


def test_deterministic_output(files, capsys):
    _, _, tre = files
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "lift", str(tre))
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_selftest_single_json(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "1",
                       "--format", "json-lines")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["criterion"] == 1 and rec["passed"] is True
    assert list(rec) == sorted(rec)
    # both are rounded to 0.1 s from the same unrounded seconds
    assert rec["budget_s"] == 5
    assert abs(rec["headroom_s"] - (5 - rec["seconds"])) < 0.11
    code, out, _ = run(capsys, "selftest", "--only", "5",
                       "--format", "json-lines")
    rec = json.loads(out.splitlines()[0])
    assert code == 0 and rec["budget_s"] is None and rec["headroom_s"] is None
