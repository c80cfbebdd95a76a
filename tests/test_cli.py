import argparse
import json
import os
import random
import shlex
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import toric_apolarity
from toric_apolarity import DegreeBox, build_fan, cli, load_fan
from toric_apolarity.abelian import DegreeClass
from toric_apolarity.apolarity import HilbertGrid
from toric_apolarity.cli import COMMANDS, main

from conftest import (FIXTURES, parse_outcome, spanning_rays,
                      sympy_tangent_det)

GOLDEN = Path(__file__).resolve().parent / "golden"

F1 = str(FIXTURES / "f1.fan")
P114 = str(FIXTURES / "p114.fan")
FAKE = str(FIXTURES / "fake_plane.fan")
Z2Z4 = str(FIXTURES / "z2z4.fan")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classgroup_fake_plane(capsys):
    code, out, _ = run(capsys, "classgroup", FAKE)
    assert code == 0
    assert out.splitlines()[0] == "Cl = Z x Z/3; deg a0=(1,0) a1=(1,1) a2=(1,2)"


CUBE_FAN = {"rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1]],
            "max_cones": [[i, j, k] for i in (0, 1) for j in (2, 3)
                          for k in (4, 5)]}


@pytest.mark.parametrize("drop,verdict", [(0, "Complete"),
                                          (1, "NotComplete")])
def test_classgroup_completeness_in_dimension_three(capsys, tmp_path, drop,
                                                    verdict):
    # P1^3, and P1^3 with one maximal cone removed
    fan_file = tmp_path / "cube.fan"
    fan_file.write_text(json.dumps(
        {**CUBE_FAN, "max_cones": CUBE_FAN["max_cones"][drop:]}))
    code, out, _ = run(capsys, "classgroup", str(fan_file))
    assert code == 0
    assert out.splitlines()[1] == f"completeness: {verdict} [exact]"
    code, out, _ = run(capsys, "--format", "records", "classgroup",
                       str(fan_file))
    assert code == 0
    record = json.loads(out)
    assert record["completeness"] == verdict
    assert record["class_group"] == {"free_rank": 3, "torsion_orders": []}


def test_classgroup_f1(capsys):
    code, out, _ = run(capsys, "classgroup", F1)
    assert code == 0
    assert out.splitlines()[0] \
        == "Cl = Z x Z; deg a0=(1,0) a1=(1,0) b0=(1,1) b1=(0,1)"


def test_basis_dual_names(capsys):
    code, out, _ = run(capsys, "basis", P114, "--degree", "4", "--dual")
    assert code == 0
    assert "x^4 x^3*y x^2*y^2 x*y^3 y^4 z" in out


def test_hilbert_grid_output(capsys):
    code, out, _ = run(capsys, "hilbert", F1, "--form", "x0*x1*y0*y1",
                       "--box", "0..3,0..2")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:4]]
    assert rows == [["0", "1", "2", "1"], ["1", "3", "3", "1"],
                    ["1", "2", "1", "0"]]
    assert "symmetry: PASS" in out


def quadratic_grid_lines(fan, grid, box):
    """Oracle: the grid lines as listed by walking the whole box once per
    torsion class."""
    lines = []
    group = fan.class_group
    for tors in product(*[range(d) for d in group.torsion_orders]):
        if group.torsion_orders:
            lines.append(f"torsion class {tors}:")
        if group.free_rank == 2:
            (alo, ahi), (blo, bhi) = box.free_ranges
            for b in range(bhi, blo - 1, -1):
                row = [grid.values[DegreeClass(group, (a, b), tors)]
                       for a in range(alo, ahi + 1)]
                lines.append("  " + " ".join(f"{v:3d}" for v in row))
        else:
            for degree in box:
                if degree.torsion == tors:
                    lines.append(f"  h{degree} = {grid.values[degree]}")
    return lines


def grid_cases():
    """(fan, box) pairs: the Z/3 and Z/2 x Z/4 fixtures, f1, and a seeded
    complete plane fan with rays (a, 1), (a - n, 1), (n - 2a, -2) summing
    to 0, whose class group is Z x Z/n for n odd in the thousands."""
    rng = random.Random(25)
    n = rng.randrange(1001, 2000, 2)
    a = n // 2 + rng.randint(1, 30)
    plane = build_fan([[a, 1], [a - n, 1], [n - 2 * a, -2]],
                      [[0, 1], [1, 2], [2, 0]])
    assert plane.class_group.torsion_orders == (n,)
    return [(load_fan(FAKE), ((-1, 6),)), (load_fan(Z2Z4), ((-2, 5),)),
            (load_fan(F1), ((0, 3), (0, 2))), (plane, ((0, 1),))]


def test_grid_lines_match_the_per_class_walk(monkeypatch):
    walked = []
    monkeypatch.setattr(DegreeBox, "__iter__", lambda self: walked.extend(
        self.degrees) or iter(self.degrees))
    rng = random.Random(26)
    for fan, ranges in grid_cases():
        box = DegreeBox(fan.class_group, ranges)
        reads = []

        class Values(dict):
            def __getitem__(self, degree):
                reads.append(degree)
                return dict.__getitem__(self, degree)

        grid = HilbertGrid(box.degrees[0], box, Values(
            (degree, rng.randint(0, 99)) for degree in box))
        walked.clear()
        want = quadratic_grid_lines(fan, grid, box)
        walked.clear()
        reads.clear()
        assert cli._grid_lines(fan, grid, box) == want
        # each box degree is read once: one walk, or none for a plane grid
        assert sorted(reads, key=str) == sorted(box.degrees, key=str)
        assert walked == ([] if fan.class_group.free_rank == 2
                          else list(box.degrees))


def test_cat_suppresses_cactus_for_non_cartier(capsys):
    code, out, _ = run(capsys, "cat", P114, "--form", "x^2*y^2", "--beta", "2")
    assert code == 0
    assert "rank 3 [exact]" in out
    assert "cactus bound suppressed" in out


def test_cat_reports_cactus_when_cartier(capsys):
    code, out, _ = run(capsys, "cat", F1, "--form", "x0*x1*y0*y1",
                       "--beta", "2,1")
    assert code == 0
    assert "cactus rank >= 3" in out


def test_bounds_sweep(capsys):
    code, out, _ = run(capsys, "bounds", F1, "--form", "x0^2*x1^2*y0*y1",
                       "--box", "0..5,0..2")
    assert code == 0
    assert "border rank >= 5 at (2,1)" in out


def test_contains_true_and_false(capsys):
    code, out, _ = run(capsys, "contains", F1, "--form", "x0*x1*y0*y1",
                       "--ideal", "a0^2-a1^2, b0^2-a1^2*b1^2")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "contains", F1, "--form", "x0*x1*y0*y1",
                       "--ideal", "a0")
    assert code == 0 and "False" in out


def test_length_command(capsys):
    code, out, _ = run(capsys, "length", FAKE, "--ideal", "a1^2, a2^2",
                       "--ample", "3;0")
    assert code == 0
    assert "length estimate = 2 [heuristic-stabilized]" in out
    assert "stabilized: True" in out


def test_cactus_cert_command(capsys):
    code, out, _ = run(capsys, "cactus-cert", P114, "--form", "x^2*y^2",
                       "--ideal", "a^3, b^3", "--ample", "4")
    assert code == 0
    assert "cactus rank <= 2" in out

    code, _, err = run(capsys, "cactus-cert", F1, "--form", "x0*x1*y0*y1",
                       "--ideal", "a0", "--ample", "1,1")
    assert code == 1
    assert "ContainmentFailed" in err


def test_decompose_check_fixture(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose-check", F1, "--form", "x0*x1*y0*y1",
                       "--terms", str(FIXTURES / "f1_four_points.terms"))
    assert code == 0 and "exact: True" in out

    perturbed = tmp_path / "bad.terms"
    perturbed.write_text("1/2 | 1, 1, 1, 1\n-1/4 | 1, 1, 1, -1\n"
                         "-1/4 | 1, -1, 1, 1\n1/4 | 1, -1, 1, -1\n")
    code, out, _ = run(capsys, "decompose-check", F1, "--form", "x0*x1*y0*y1",
                       "--terms", str(perturbed))
    assert code == 0 and "exact: False" in out and "residual:" in out


def test_limit_cert_fixture(capsys):
    code, out, _ = run(capsys, "limit-cert", F1, "--form", "x0*x1*y0*y1",
                       "--family", str(FIXTURES / "f1_three_point_family.family"))
    assert code == 0
    assert "certificate: VALID" in out
    assert "border rank <= 3" in out
    assert "m*x0*x1^2*y1^2 + l*x0^2*y0*y1 + l*m*x0^2*x1*y1^2 " \
           "+ l^2*m*x0^3*y1^2" in out


def test_limit_cert_divergent_family(capsys, tmp_path):
    family = tmp_path / "diverge.family"
    family.write_text("params: l, m\n"
                      "l^-1*m^-1 | l, 1, 1, m\n"
                      "-1*l^-1*m^-1 | 0, 1, 1, m\n"
                      "m^-1 | 1, 0, 1, 0\n")
    code, _, err = run(capsys, "limit-cert", F1, "--form", "x0*x1*y0*y1",
                       "--family", str(family))
    assert code == 1 and "NegativeExponentResidue" in err


def test_terracini_command(capsys):
    code, out, _ = run(capsys, "terracini", F1, "--degree", "3,2", "-r", "3",
                       "--seed", "7")
    assert code == 0
    assert "rank = 9 over Z/101" in out
    assert "seed 7" in out
    assert "fills P^8: True" in out


def test_det_check_golden(capsys):
    code, out, _ = run(capsys, "det-check", F1, "--degree", "5,2", "-r", "5",
                       "--at", "1,2,3,4,5,6,7,9,0,2", "--prime", "101")
    assert code == 0
    assert "determinant over Z/101 = 34" in out


RATIONAL_AT = "1/2,-2/3,3/7,-4/10,5/2,6/7,-7/3,9/10,1/7,2"


def test_det_check_rational_assignment(capsys, f1):
    want = sympy_tangent_det(f1, f1.degree((5, 2)), 5,
                             [Fraction(x) for x in RATIONAL_AT.split(",")])
    assert want != 0 and want.denominator != 1
    argv = ("det-check", F1, "--degree", "5,2", "-r", "5", "--at", RATIONAL_AT)
    code, out, err = run(capsys, *argv)
    assert code == 0 and f"determinant over Q = {want} " in out
    for p in (11, 101, 32003):
        reduced = want.numerator * pow(want.denominator, -1, p) % p
        code, out, err = run(capsys, *argv, "--prime", str(p))
        assert code == 0 and f"determinant over Z/{p} = {reduced} " in out
    for p in (2, 3, 5, 7):  # each divides a denominator of the assignment
        code, out, err = run(capsys, *argv, "--prime", str(p))
        assert code == 1 and "[BadPrime]" in err
        assert out == "" and "Traceback" not in err


def test_non_simplicial_fan_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text(json.dumps({
        "rays": [[1, 0], [-1, 0], [0, 1]],
        "max_cones": [[0, 1], [1, 2]],
    }))
    code, _, err = run(capsys, "classgroup", str(bad))
    assert code == 2 and "NonSimplicialCone" in err


def test_unknown_variable_rejected(capsys):
    code, _, err = run(capsys, "contains", F1, "--form", "x0*x1*y0*y1",
                       "--ideal", "q0")
    assert code == 2 and "ParseError" in err


def test_bad_degree_rejected(capsys):
    code, _, err = run(capsys, "basis", F1, "--degree", "1")
    assert code == 2 and "ParseError" in err


def test_no_certificate_refusal(capsys, tmp_path):
    # one variable has degree zero, so graded pieces need not be finite
    fan_file = tmp_path / "open.fan"
    fan_file.write_text(json.dumps({
        "rays": [[1, 0], [0, 1], [-1, 0]],
        "max_cones": [[0, 1], [1, 2]],
    }))
    code, _, err = run(capsys, "basis", str(fan_file), "--degree", "1")
    assert code == 1 and "NoCertificate" in err


@pytest.mark.parametrize("argv", [
    ("decompose-check", F1, "--form", "x0*x1*y0*y1", "--terms"),
    ("limit-cert", F1, "--form", "x0*x1*y0*y1", "--family"),
])
def test_missing_input_file_is_an_input_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "missing"))
    assert code == 2 and "ParseError" in err
    assert out == "" and "Traceback" not in err


# malformed point files: each is an input error, never a traceback
POINT_FILES = [
    ("--terms", "1 1, 1, 1, 1\n"),              # no '|'
    ("--terms", "1 | 1, 1, 1\n"),               # wrong coordinate count
    ("--terms", "1 | 1, x, 1, 1\n"),            # non-rational entry
    ("--terms", "1 | 1/0, 1, 1, 1\n"),
    ("--terms", "1/0 | 1, 1, 1, 1\n"),
    ("--terms", ""),                              # empty file
    ("--terms", "# only a comment\n"),
    ("--family", "params: l\n1 l, 1, 1, 1\n"),
    ("--family", "params: l\n1 | l, 1, 1\n"),
    ("--family", "params: l\n1 | q, 1, 1, 1\n"),
    ("--family", "params: l\n1 | 1/0, 1, 1, 1\n"),
    ("--family", ""),
    ("--family", "params: l, m\n"),              # header only
    ("--family", "1 | 1, 1, 1, 1\n"),            # no 'params:' header
    ("--family", "params: l, m, l\n1 | l, 1, 1, m\n"),  # repeated parameter
    ("--family", "params: l, 2m\n1 | l, 1, 1, 1\n"),    # not a name
]


@pytest.mark.parametrize("flag, text", POINT_FILES)
def test_malformed_point_file_is_a_parse_error(capsys, tmp_path, flag, text):
    command = "decompose-check" if flag == "--terms" else "limit-cert"
    path = tmp_path / "points"
    path.write_text(text)
    code, out, err = run(capsys, command, F1, "--form", "x0*x1*y0*y1", flag,
                         str(path))
    assert code == 2 and "[ParseError]" in err
    assert out == "" and "Traceback" not in err


DET_CHECK = ("det-check", F1, "--degree", "5,2", "-r", "5",
             "--at", "1,2,3,4,5,6,7,9,0,2")


@pytest.mark.parametrize("at", ["1,2,3,4,5,6,7,9,0,x", "1/0,2,3,4,5,6,7,9,0,2",
                                "1,,3,4,5,6,7,9,0,2", "", "1,2,3",
                                "1/2/3,2,3,4,5,6,7,9,0,2", "0x1,2,3,4,5,6,7,9,0,2"])
def test_bad_assignment_is_a_parse_error(capsys, at):
    code, out, err = run(capsys, *DET_CHECK[:-1], at)
    assert code == 2 and "[ParseError]" in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "1", "4", "3825123056546413051"])
@pytest.mark.parametrize("argv", [
    ("terracini", F1, "--degree", "3,2", "-r", "3"), DET_CHECK])
def test_non_prime_is_an_input_error(capsys, argv, value):
    # 3825123056546413051 passes Miller-Rabin for every prime base up to 23
    code, out, err = run(capsys, *argv, "--prime", value)
    assert code == 2 and "InputError" in err and "not a prime" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("hilbert", F1, "--form", "x0*x1*y0*y1", "--box", "3..0,0..2"),
    ("bounds", F1, "--form", "x0*x1*y0*y1", "--box", "0..3,2..0"),
    ("length", FAKE, "--ideal", "a1^2, a2^2", "--ample", "3;0",
     "--window", "0"),
    ("length", FAKE, "--ideal", "a1^2, a2^2", "--ample", "3;0",
     "--max-k", "0"),
    ("cactus-cert", P114, "--form", "x^2*y^2", "--ideal", "a^3, b^3",
     "--ample", "4", "--window", "0"),
    ("cactus-cert", P114, "--form", "x^2*y^2", "--ideal", "a^3, b^3",
     "--ample", "4", "--max-k", "0"),
    ("terracini", F1, "--degree", "3,2", "-r", "0"),
    DET_CHECK[:4] + ("-r", "0") + DET_CHECK[6:],
    ("terracini", F1, "--degree", "3,2", "-r", "3", "--trials", "0"),
    ("terracini", F1, "--degree", "3,2", "-r", "3", "--trials", "-1"),
])
def test_degenerate_range_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "input error" in err and out == ""


@pytest.mark.parametrize("pins, error", [
    ("a", "ParseError"), ("0,x", "ParseError"), ("99", "InputError"),
    ("-1", "InputError"), ("0,0", "InputError")])
@pytest.mark.parametrize("argv", [
    ("terracini", F1, "--degree", "3,2", "-r", "3"), DET_CHECK])
def test_bad_pins_are_an_input_error(capsys, argv, pins, error):
    code, out, err = run(capsys, *argv, "--pins", pins)
    assert code == 2 and f"[{error}]" in err and out == ""


PLANE = {"rays": [[1, 0], [0, 1], [-1, -1]],
         "max_cones": [[0, 1], [0, 2], [1, 2]]}


@pytest.mark.parametrize("fields", [
    {"rays": [[1.5, 0], [0, 1], [-1, -1]]},
    {"rays": [[True, 0], [0, 1], [-1, -1]]},
    {"rays": [["1", 0], [0, 1], [-1, -1]]},
    {"rays": "xx"},
    {"max_cones": [[0, "x"], [0, 2], [1, 2]]},
    {"max_cones": [[0, 1.0], [0, 2], [1, 2]]},
    {"max_cones": "01"},
    {"var_names": 5},
    {"var_names": "abc"},
    {"var_names": ["a", "a", "b"]},
    {"dual_var_names": ["x", "y", "x"]},
    {"ambient_rank": "xx"},
    {"var_names": ["a b", "1", "c^2"]},
    {"dual_var_names": ["y0", "y1", "y-2"]},
])
def test_malformed_fan_file_is_a_parse_error(capsys, tmp_path, fields):
    fan_file = tmp_path / "bad.fan"
    fan_file.write_text(json.dumps({**PLANE, **fields}))
    code, out, err = run(capsys, "classgroup", str(fan_file))
    assert code == 2 and "ParseError" in err and out == ""


RECORD_COMMANDS = {
    "classgroup_fake.jsonl": ("--format", "records", "classgroup", FAKE),
    "classgroup_z2z4.jsonl": ("--format", "records", "classgroup", Z2Z4),
    "hilbert_f1.jsonl": ("--format", "records", "hilbert", F1,
                         "--form", "x0*x1*y0*y1", "--box", "0..3,0..2"),
    "cat_p114.jsonl": ("--format", "records", "cat", P114,
                       "--form", "x^2*y^2", "--beta", "2"),
    "limit_cert_f1.jsonl": ("--format", "records", "limit-cert", F1,
                            "--form", "x0*x1*y0*y1", "--family",
                            str(FIXTURES / "f1_three_point_family.family")),
    "terracini_f1.jsonl": ("--format", "records", "terracini", F1,
                           "--degree", "3,2", "-r", "3", "--seed", "1"),
    "length_fake.jsonl": ("--format", "records", "length", FAKE,
                          "--ideal", "a1^2, a2^2", "--ample", "3;0"),
    "decompose_check_f1.jsonl": ("--format", "records", "decompose-check", F1,
                                 "--form", "x0*x1*y0*y1", "--terms",
                                 str(FIXTURES / "f1_four_points.terms")),
    "decompose_check_f1_perturbed.jsonl": (
        "--format", "records", "decompose-check", F1, "--form", "x0*x1*y0*y1",
        "--terms", str(FIXTURES / "f1_perturbed_points.terms")),
}


@pytest.mark.parametrize("name", sorted(RECORD_COMMANDS))
def test_records_match_golden_suite(capsys, name):
    argv = RECORD_COMMANDS[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(RECORD_COMMANDS))
def test_records_are_byte_identical_across_runs(capsys, name):
    argv = RECORD_COMMANDS[name]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    json.loads(first)  # each record is one well-formed JSON document


OPTIMIZED_RECORDS = """
import sys
from toric_apolarity.cli import main
if not sys.flags.optimize:
    sys.exit("asserts are live")
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("name", ["hilbert_f1.jsonl", "cat_p114.jsonl",
                                  "classgroup_fake.jsonl",
                                  "classgroup_z2z4.jsonl",
                                  "length_fake.jsonl", "terracini_f1.jsonl",
                                  "decompose_check_f1.jsonl",
                                  "limit_cert_f1.jsonl"])
def test_records_match_golden_under_optimize(name):
    # catalecticants gathered through the fan's tables, ranked by the
    # prescreen and Bareiss, the completeness test, the ideal pieces'
    # integer echelon and the tangent rows of points give the same records
    # with asserts stripped
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RECORDS,
         *RECORD_COMMANDS[name]], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


def test_cat_builds_its_catalecticant_once(capsys, monkeypatch):
    from toric_apolarity import apolarity, bounds
    builds = []
    build = apolarity.catalecticant_entries

    def counted(form, degree):
        builds.append(degree)
        return build(form, degree)

    monkeypatch.setattr(apolarity, "catalecticant_entries", counted)
    monkeypatch.setattr(bounds, "catalecticant_entries", counted)
    code, out, _ = run(capsys, "cat", P114, "--form", "x^2*y^2", "--beta", "2")
    assert code == 0 and "rank 3 [exact]" in out
    assert len(builds) == 1


def test_cat_records_match_the_catalecticant(capsys):
    # cat ranks through bound_report and reads its shape off the two
    # bases; the library's CatMatrix, on its own form, must agree
    from toric_apolarity import (MultiPoly, Side, basis, catalecticant,
                                 format_poly, load_fan)
    from toric_apolarity.cli import parse_degree, parse_form

    rng = random.Random(71)
    checked = deficient = 0
    for path, alpha, betas in [
            (F1, "3,2", [f"{a},{b}" for a in range(-1, 5)
                         for b in range(-1, 4)]),
            (P114, "6", [str(k) for k in range(-1, 8)]),
            (FAKE, "6;1", [f"{k};{t}" for k in range(-1, 8)
                           for t in range(3)])]:
        fan = load_fan(path)
        mons = basis(fan, parse_degree(alpha, fan.class_group))
        coeffs = [1, -3, 202, Fraction(5, 101), Fraction(-7, 2)]
        for size in (1, 3, len(mons)):
            terms = {m: rng.choice(coeffs)
                     for m in rng.sample(list(mons), size)}
            text = format_poly(MultiPoly(Side.DUAL, terms),
                               fan.dual_var_names)
            form = parse_form(text, fan)
            for beta in betas:
                code, out, err = run(capsys, "--format", "records", "cat",
                                     path, f"--form={text}",
                                     f"--beta={beta}")
                assert code == 0, err
                degree = parse_degree(beta, fan.class_group)
                cat = catalecticant(form, degree)
                cactus = cat.rank if fan.is_cartier(degree) else None
                record = json.loads(out)
                assert (record["shape"], record["rank"], record["bounds"]) \
                    == (list(cat.shape), cat.rank,
                        {"border": cat.rank, "rank": cat.rank,
                         "cactus": cactus})
                checked += 1
                deficient += 0 < cat.rank < min(cat.shape)
    assert checked == 3 * (30 + 9 + 27) and deficient >= 10


OPEN_FAN = {"rays": [[1, 0], [3, 1], [2, 1], [1, 1], [1, 2], [1, 3], [0, 1],
                     [-1, 3], [-1, 2], [-1, 1], [-1, 0]],
            "max_cones": [[i, i + 1] for i in range(10)]}


@pytest.mark.parametrize("argv", [
    ("basis", "--degree", ",".join(["1"] + ["0"] * 8)),
    ("bounds", "--form", "y0", "--box", ",".join(["0..1"] + ["0..0"] * 8)),
])
def test_fan_without_certificate_is_refused_at_once(tmp_path, argv):
    # a non-complete fan of free rank 9: a weight search alone would try
    # up to 33^9 vectors before giving up
    fan_file = tmp_path / "open.fan"
    fan_file.write_text(json.dumps(OPEN_FAN))
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", argv[0], str(fan_file),
         *argv[1:]], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and "[NoCertificate]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_complete_fan_lists_a_basis_without_a_weight(tmp_path):
    # OPEN_FAN closed up: complete, of free rank 12, with no weight within
    # radius 1; a basis needs none, so the command returns at once
    fan_file = tmp_path / "complete.fan"
    rays = OPEN_FAN["rays"] + [[-1, -1], [0, -1], [1, -1]]
    fan_file.write_text(json.dumps({
        "rays": rays, "max_cones": [[i, (i + 1) % 14] for i in range(14)]}))
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", str(fan_file),
         "--degree", ",".join(["1"] + ["0"] * 11)], capture_output=True,
        text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "dim = 1 [exact]\nx0\n"


def test_spanning_5d_fan_lists_its_constant_at_once(tmp_path):
    # 11 one-ray cones whose rays positively span R^5: without Chernikov's
    # rule the walk systems fill 2 GB before the constant is listed
    fan_file = tmp_path / "spanning5.fan"
    fan_file.write_text(json.dumps({"rays": spanning_rays(5, 11, 5),
                                    "max_cones": [[i] for i in range(11)]}))
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", str(fan_file),
         "--degree", ",".join(["0"] * 6)], capture_output=True, text=True,
        timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("dim = 1 [exact]\n")


def test_spanning_8d_fan_is_refused_for_its_walk_systems(tmp_path):
    # 17 one-ray cones whose rays positively span R^8: the walk systems'
    # eliminations combine 2.9 million row pairs in about 17 s, so the fan
    # is refused once they pass the cap
    fan_file = tmp_path / "spanning8.fan"
    fan_file.write_text(json.dumps({"rays": spanning_rays(8, 17, 8),
                                    "max_cones": [[i] for i in range(17)]}))
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", str(fan_file),
         "--degree", ",".join(["0"] * 9)], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 6
    assert proc.returncode == 1 and "[BasisTooLarge]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_complete_fan_bounds_without_a_weight(tmp_path):
    # the same complete fan: bounds orders its ties by total free degree,
    # so it no longer searches for a weight, the nearest of which lies
    # past radius 1
    fan_file = tmp_path / "complete.fan"
    rays = OPEN_FAN["rays"] + [[-1, -1], [0, -1], [1, -1]]
    fan_file.write_text(json.dumps({
        "rays": rays, "max_cones": [[i, (i + 1) % 14] for i in range(14)]}))
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "bounds", str(fan_file),
         "--form", "y0*y1", "--box", ",".join(["0..1"] + ["0..0"] * 11)],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("border rank >= 1 at ")


def test_bounds_on_a_fan_whose_weights_lie_past_the_search(capsys, tmp_path):
    # complete, free rank 3, degrees (8,-3,-12) and (-5,2,7) among them:
    # every weight has a coordinate beyond 16, where the search gave up
    fan_file = tmp_path / "far.fan"
    fan_file.write_text(json.dumps({
        "rays": [[-2, -1], [1, 0], [2, 3], [-1, 2], [-2, 3]],
        "max_cones": [[i, (i + 1) % 5] for i in range(5)]}))
    code, out, err = run(capsys, "bounds", str(fan_file), "--form", "y0*y1*y2",
                         "--box", "0..1,0..1,0..1")
    assert code == 0, err
    assert out.startswith("border rank >= 1 at (0,0,0) [exact]\n")


def test_oversized_basis_is_refused_while_walked():
    # about 1.5 million monomials: the walk stops at the cap, before the
    # piece fills memory
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", F1,
         "--degree", "2000,1000"], capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and "[BasisTooLarge]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def limit_memory():
    """Cap the child's address space at 2 GiB, so a refusal that comes too
    late fails the test instead of filling the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, refusal", [
    # |basis(3k;0)| grows as k^2: the samples up to k = 100000 would hang
    (("length", FAKE, "--ideal", "a1^2, a2^2", "--ample", "3;0",
      "--max-k", "100000"), "BasisTooLarge"),
    (("length", F1, "--ideal", "a0^2, b0^2", "--ample", "1,1",
      "--max-k", "99999999999999999999"), "BasisTooLarge"),
    (("cactus-cert", P114, "--form", "x^2*y^2", "--ideal", "a^3, b^3",
      "--ample", "4", "--max-k", "100"), "BasisTooLarge"),
    # 4 x 10^8 degree classes, each built before the first is ranked
    (("hilbert", F1, "--form", "x0*x1^2*y0*y1", "--box", "0..3,0..99999999"),
     "BoxTooLarge"),
    (("bounds", F1, "--form", "x0*x1^2*y0*y1", "--box", "0..3,0..99999999"),
     "BoxTooLarge"),
    # 1.35 * 10^10 and 8.1 * 10^6 tangent-stack cells, sampled and ranked
    # one trial at a time
    (("terracini", F1, "--degree", "3,2", "-r", "100000000"), "StackTooLarge"),
    (("terracini", F1, "--degree", "3,2", "-r", "3", "--trials", "100000"),
     "StackTooLarge"),
])
def test_oversized_request_is_refused_up_front(argv, refusal):
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", *argv],
        capture_output=True, text=True, timeout=20, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and f"[{refusal}]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_sectionless_length_over_the_budget_is_refused_unwalked():
    # every sample counts at least one monomial, so a max_k past the
    # budget is refused before the first empty piece is walked
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "length", P114,
         "--ideal", "a^3, b^3", "--ample", "-1",
         "--max-k", "99999999999999999999"], capture_output=True, text=True,
        timeout=20, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 0.5
    assert proc.returncode == 1 and "[BasisTooLarge]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_basis_far_along_the_long_axis_is_refused_at_the_first_run():
    # p114 at 10^6 has about 1.25 * 10^11 monomials; the first run along
    # its long axis alone is over the cap, so nothing is listed
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", P114,
         "--degree", "1000000"], capture_output=True, text=True, timeout=20,
        preexec_fn=limit_memory, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and "[BasisTooLarge]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


FAMILY = (FIXTURES / "f1_three_point_family.family").read_text()


@pytest.mark.parametrize("argv, family", [
    (("contains", F1, "--form", "x0*x1*y0*y1", "--ideal", "a0^2,,b0^2"), None),
    (("contains", F1, "--form", "x0*x1*y0*y1", "--ideal", "a0^2, b0^2,"),
     None),
    (("contains", F1, "--form", "x0*x1*y0*y1", "--ideal", ", a0^2"), None),
    (("terracini", F1, "--degree", "3,2", "-r", "3", "--pins", "0,,3"), None),
    (("terracini", F1, "--degree", "3,2", "-r", "3", "--pins", "0,3,"), None),
    (("limit-cert", F1, "--form", "x0*x1*y0*y1", "--family"),
     FAMILY.replace("params: l, m", "params: l,, m")),
    (("limit-cert", F1, "--form", "x0*x1*y0*y1", "--family"),
     FAMILY.replace("params: l, m", "params: l, m,")),
], ids=["ideal-inner", "ideal-trailing", "ideal-leading", "pins-inner",
        "pins-trailing", "params-inner", "params-trailing"])
def test_comma_lists_refuse_an_empty_piece(tmp_path, argv, family):
    # each list was read before without its empty piece: the ideal
    # (a0^2, b0^2), the pins [0, 3] and the parameters l, m
    if family is not None:
        path = tmp_path / "empty_piece.family"
        path.write_text(family)
        argv += (str(path),)
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and "[ParseError]" in proc.stderr
    assert "empty piece" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("fan, degree, code", [
    (FAKE, "3;", 2), (F1, "1,1;", 2), (FAKE, "3; ", 2),
    (FAKE, "3;0", 0), (FAKE, "3", 0), (F1, "1,1", 0),
], ids=["torsion", "free-only", "blank", "residue", "no-residue", "free"])
def test_degree_refuses_a_semicolon_without_residues(fan, degree, code):
    # the first three were read before as if the ';' were absent
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", fan,
         "--degree", degree], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert "[ParseError]" in proc.stderr and proc.stdout == ""
        assert "no torsion residues after ';'" in proc.stderr
    else:
        assert proc.stdout and proc.stderr == ""


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes the pipe before the child writes its 13.9 KB: the
    # work is done, so the exit code is 0 and stderr stays clean
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "toric_apolarity.cli", "basis", F1,
         "--degree", "40,20"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=30) == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Argument lists of the ``toric-apolarity`` examples in the README."""
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("toric-apolarity ")]


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_readme_examples_run(capsys, monkeypatch, fmt):
    monkeypatch.chdir(README.parent)
    examples = readme_examples()
    assert len(examples) >= 12
    for argv in examples:
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == 0 and out, (argv, err)
        if fmt == "records":
            record, = out.splitlines()
            assert json.loads(record)["command"] == argv[0]


LENGTH = ["length", FAKE, "--ideal", "a1^2, a2^2", "--ample", "3;0"]


@pytest.mark.parametrize("argv", [
    ["-h"], ["-h", "length"], [], ["bogus", FAKE], ["fan.fan", *LENGTH],
    ["--format", "records", "fan.fan", *LENGTH],
    ["--format", "bogus", *LENGTH], ["--format=records", *LENGTH],
    ["--format", "table", *LENGTH], ["--fo", "records", *LENGTH],
    ["--", *LENGTH], [*LENGTH, "--extra"],
    ["--format", "records", "cactus-cert", P114, "--form", "x^2*y^2",
     "--ideal", "a^3, b^3", "--ample", "4", "--extra"],
    LENGTH[:4], ["length", "--format", "records", FAKE],
    ["--format", "records", "--format", "table", *LENGTH],
] + [[name, "--help"] for name in COMMANDS])
def test_narrowed_parser_matches_the_full_one_on_edge_cases(monkeypatch, argv):
    # exit code, both streams and the Namespace: narrowing must not show
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(argv, True) == parse_outcome(argv, False)


def test_main_builds_only_the_invoked_subparser(capsys, monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, out, _ = run(capsys, "--format", "records", *LENGTH)
    assert code == 0 and out == (GOLDEN / "length_fake.jsonl").read_text()
    assert names == ["length"]
    for argv in (["-h"], ["bogus", FAKE]):
        names.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(names) == 12


def test_cat_never_builds_the_fraction_entries(capsys, monkeypatch):
    from toric_apolarity import bounds

    def unread(matrix):
        raise AssertionError("cat read CatMatrix.entries")

    monkeypatch.setattr(bounds.CatMatrix, "entries", property(unread))
    code, out, _ = run(capsys, *RECORD_COMMANDS["cat_p114.jsonl"])
    assert code == 0 and out == (GOLDEN / "cat_p114.jsonl").read_text()


def test_oversized_catalecticant_is_refused_before_it_is_built():
    # a monomial of degree (200,100) on f1 at beta (100,50): 3,876 x 3,876
    # cells, about 15 million
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity.cli", "cat", F1, "--form",
         "x0^100*y0^100", "--beta", "100,50"], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and "[CatalecticantTooLarge]" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_package_runs_as_a_module():
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    runs = [subprocess.run(
        [sys.executable, "-m", module, "classgroup", P114],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
        for module in ("toric_apolarity", "toric_apolarity.cli")]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout != ""


TERRACINI_TAIL = ("secant dimension estimate = 6; fills P^6: True\n"
                  "rank over Z/p lower-bounds rank over Q; assumes the class "
                  "is basepoint-free (user-asserted)\n")
WIDE_PRIME_RUNS = [
    (("terracini", F1, "--degree", "3,1", "-r", "3", "--prime",
      "2305843009213693951"),
     "tangent-stack rank = 7 over Z/2305843009213693951 [mod-p lower bound]"
     " (trials 5, seed 0, pins [0, 3])\n" + TERRACINI_TAIL),
    (("terracini", F1, "--degree", "3,1", "-r", "3", "--prime",
      "1000000000000000000000007"),
     "tangent-stack rank = 7 over Z/1000000000000000000000007 [mod-p lower "
     "bound] (trials 5, seed 0, pins [0, 3])\n" + TERRACINI_TAIL),
    ((*DET_CHECK, "--prime", "2305843009213693951"),
     "determinant over Z/2305843009213693951 = 12688860119040 [exact]\n"),
    ((*DET_CHECK, "--prime", "1000000000000000000000007"),
     "determinant over Z/1000000000000000000000007 = 12688860119040 [exact]\n"),
    (("det-check", F1, "--degree", "5,2", "-r", "5", "--at", RATIONAL_AT,
      "--prime", "2305843009213693951"),
     "determinant over Z/2305843009213693951 = 953638168082040146 [exact]\n"),
    (("det-check", F1, "--degree", "5,2", "-r", "5", "--at", RATIONAL_AT,
      "--prime", "1000000000000000000000007"),
     "determinant over Z/1000000000000000000000007 = "
     "958447294617196547089981 [exact]\n"),
]


@pytest.mark.parametrize("argv, stdout", WIDE_PRIME_RUNS)
def test_prime_field_commands_at_wide_primes(argv, stdout):
    # slots past 8 bytes: 2^61 - 1 needs them from the second row on,
    # 10^24 + 7 from the first
    src = str(Path(toric_apolarity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "toric_apolarity", *argv], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
