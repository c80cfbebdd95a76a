"""The exit-code contract on hostile fans: non-complete fans, complete
plane fans of large free rank, dense cones, positively spanning ray sets
in high dimension and torsion orders in the thousands, and on hostile
number literals in every slot that reads one.  Each command runs as a
subprocess under a time limit, and exits 0, 1 or 2 without a traceback:
an input that would blow up is refused, not left to hang."""

import json
import os
import random
import subprocess
import sys
from math import atan2, gcd
from pathlib import Path

import pytest

from conftest import spanning_rays

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SRC = str(Path(__file__).resolve().parent.parent / "src")
# seconds one command may take, five at once on two cores: alone, the
# slowest take about 3 s (an 8-D fan of 17 rays refused for its walk
# systems) and 7.5 s (a Hilbert function over 9,973 torsion classes)
LIMIT = 30
EXAMPLES = 3  # per kind; every example runs all five commands


def primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g else None


def cycle_cones(rays):
    """The rays sorted by angle, and the cones of consecutive pairs: a
    complete plane fan when no gap reaches a half turn."""
    rays = sorted(rays, key=lambda r: atan2(r[1], r[0]))
    return rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))]


@st.composite
def non_complete(draw):
    dim = draw(st.integers(2, 4))
    rays = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim,
                                  max_size=dim).map(primitive)
                         .filter(bool), min_size=dim, max_size=dim + 3,
                         unique=True))
    cones = draw(st.lists(st.sets(st.integers(0, len(rays) - 1), min_size=1,
                                  max_size=dim).map(sorted),
                          min_size=1, max_size=3))
    return rays, cones


@st.composite
def plane_of_large_rank(draw):
    rank = draw(st.integers(10, 14))
    rays = draw(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7))
                         .map(primitive).filter(bool), min_size=rank + 2,
                         max_size=rank + 2, unique=True))
    return cycle_cones(rays)


@st.composite
def dense_cone(draw):
    dim = draw(st.integers(8, 12))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=dim,
                                  max_size=dim).map(primitive).filter(bool),
                         min_size=dim, max_size=dim))
    return rows, [list(range(dim))]


@st.composite
def spanning(draw):
    dim = draw(st.integers(4, 8))
    count = draw(st.integers(dim + 1, 2 * dim + 1))
    rays = spanning_rays(dim, count, draw(st.integers(0, 10 ** 6)))
    return rays, [[i] for i in range(count)]


@st.composite
def large_torsion(draw):
    # rays in the lattice {(x, y) : x = k*y mod n} generate a sublattice
    # of index a multiple of n, the torsion order of the class group
    n = draw(st.integers(1000, 9999))
    k = draw(st.integers(1, n - 1))
    rays = {primitive((k * y + n * t, y)) for y in range(-3, 4)
            for t in (-1, 0, 1)}
    rays = sorted(r for r in rays if r)
    picks = draw(st.sets(st.sampled_from(rays), min_size=3, max_size=5))
    return cycle_cones(picks)


def dense_rows(dim, seed):
    rng = random.Random(seed)
    return [primitive([rng.randint(-9, 9) for _ in range(dim)])
            for _ in range(dim)]


# per kind: its strategy, and an example at the far end of its range,
# always run
KINDS = {
    "non_complete": (non_complete(),
                     ([[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]])),
    "plane_of_large_rank": (plane_of_large_rank(), cycle_cones(
        [(1, k) for k in range(-7, 8)] + [(-1, 0)])),
    "dense_cone": (dense_cone(), (dense_rows(12, 12), [list(range(12))])),
    "spanning": (spanning(), (spanning_rays(8, 17, 8),
                              [[i] for i in range(17)])),
    "large_torsion": (large_torsion(), cycle_cones(
        [(5000, 1), (-4973, 1), (-27, -2)])),  # Cl = Z x Z/9973
}


def exits(fan_file, degree, box, form):
    """Each command's argv, stderr and exit code, the five run at once."""
    fan = str(fan_file)
    lines = [["classgroup", fan], ["basis", fan, f"--degree={degree}"],
             ["hilbert", fan, f"--form={form}", f"--box={box}"],
             ["cat", fan, f"--form={form}", f"--beta={degree}"],
             ["bounds", fan, f"--form={form}", f"--box={box}"]]
    procs = [subprocess.Popen([sys.executable, "-m", "toric_apolarity", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC))
             for argv in lines]
    try:
        return [(argv, proc.communicate(timeout=LIMIT)[1], proc.returncode)
                for argv, proc in zip(lines, procs)]
    finally:
        for proc in procs:
            proc.kill()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_hostile_fans_keep_the_exit_code_contract(kind, tmp_path):
    fan_file = tmp_path / "hostile.fan"
    strategy, far = KINDS[kind]

    @hypothesis.settings(max_examples=EXAMPLES, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(strategy,
                      st.lists(st.integers(-1, 2), min_size=14, max_size=14),
                      st.lists(st.integers(0, 2), min_size=3, max_size=3))
    @hypothesis.example(far, [2] * 14, [2] * 3)
    def check(fan, shift, exponents):
        rays, cones = fan
        fan_file.write_text(json.dumps({"rays": rays, "max_cones": cones}))
        rank = max(len(rays) - len(rays[0]), 0)
        degree = ",".join(map(str, shift[:rank]))
        box = ",".join(f"0..{min(x, 1)}" if x > 0 else "0"
                       for x in shift[:rank])
        form = "*".join(f"y{i}^{e + 1}" for i, e in enumerate(exponents)
                        if i < len(rays))
        for argv, err, code in exits(fan_file, degree, box, form):
            assert code in (0, 1, 2), (argv, rays, err)
            assert "Traceback" not in err, (argv, rays)

    check()


# --- one number syntax: hostile literals in every numeric slot ------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
F1 = str(FIXTURES / "f1.fan")
B = "1" + "0" * 4999  # a 5,000-digit literal, past int()'s default limit
# 3,001-digit literals: each is readable, but not their product, nor the
# denominator of their sum
B3, B3_PLUS_1 = "1" + "0" * 3000, "1" + "0" * 2999 + "1"
AT = ",2,3,4,5,6,7,9,0,2"  # the last nine --at values after the first
DET = ["det-check", F1, "--degree", "5,2", "-r", "5"]
CHECK = ["decompose-check", F1, "--form", "x0*x1*y0*y1"]
FAMILY = ["limit-cert", F1, "--form", "x0*x1*y0*y1"]
HILBERT = ["hilbert", F1, "--form", "x0*x1*y0*y1"]
TERRACINI = ["terracini", F1, "--degree", "3,2", "-r", "3"]
LENGTH = ["length", F1, "--ideal", "a0^2, b0^2", "--ample", "2,1"]
# f1's fan with its ambient rank, first ray entry and first cone index
F1_FAN = ('{"ambient_rank": %s, "rays": [[%s, 0], [-1, -1], [0, 1], [0, -1]], '
          '"max_cones": [[%s, 2], [1, 2], [1, 3], [0, 3]]}')
DEEP = "[" * 100_000 + "]" * 100_000

# name -> (argv, the text of the file the last argument names, or None);
# each of these is a ParseError
REFUSED = {
    "form_coefficient": (["hilbert", F1, "--box", "0..1,0..1", "--form",
                          f"{B}*x0*x1*y0*y1"], None),
    "form_exponent": (["hilbert", F1, "--box", "0..1,0..1", "--form",
                       f"x0^{B}*y0"], None),
    "form_denominator": (["hilbert", F1, "--box", "0..1,0..1", "--form",
                          f"1/{B}*x0*x1*y0*y1"], None),
    "form_coefficient_product": (["hilbert", F1, "--box", "0..1,0..1",
                                  "--form", f"{B3}*{B3}*x0*x1*y0*y1"], None),
    "form_combined_coefficient": (["hilbert", F1, "--box", "0..1,0..1",
                                   "--form", f"1/{B3}*x0*x1*y0*y1 + "
                                   f"1/{B3_PLUS_1}*x0*x1*y0*y1"], None),
    "family_coefficient_product": (FAMILY + ["--family"],
                                   f"params: l\n{B3}*{B3} | l, 1, 1, 1\n"),
    "cactus_cert_coefficient": (["cactus-cert", F1, "--ideal", "a0^2, b0^2",
                                 "--ample", "1,1", "--form",
                                 f"{B}*x0*x1*y0*y1"], None),
    "family_coefficient": (FAMILY + ["--family"],
                           f"params: l\n{B} | l, 1, 1, 1\n"),
    "family_exponent": (FAMILY + ["--family"],
                        f"params: l\nl^-{B} | l, 1, 1, 1\n"),
    "fan_ray_entry": (["classgroup"], F1_FAN % (2, B, 0)),
    "fan_cone_index": (["classgroup"], F1_FAN % (2, 1, B)),
    "fan_ambient_rank": (["classgroup"], F1_FAN % (B, 1, 0)),
    "fan_nested_rays": (["classgroup"],
                        '{"rays": %s, "max_cones": [[0]]}' % DEEP),
    "at_huge_exponent": (DET + ["--at", "1e100000000" + AT], None),
    "terms_huge_exponent": (CHECK + ["--terms"], "1 | 1, 1, 1, 1e100000000\n"),
    "at_decimal": (DET + ["--at", "0.5" + AT], None),
    "terms_exponent": (CHECK + ["--terms"], "1e1 | 1, 1, 1, 1\n"),
    "terms_underscore": (CHECK + ["--terms"], "1 | 1_0, 1, 1, 1\n"),
    # integers are a sign and ASCII digits: int() would read each of these
    "box_underscore": (HILBERT + ["--box", "1_0,0..2"], None),
    "box_arabic_indic": (HILBERT + ["--box", "\u0663,0..2"], None),
    "degree_devanagari": (["basis", F1, "--degree", "\u0967,1"], None),
    "pins_arabic_indic": (TERRACINI + ["--pins", "\u0660"], None),
    "form_arabic_indic": (["hilbert", F1, "--box", "0..2,0..2", "--form",
                           "\u0662*x0*x1*y0*y1"], None),
    "family_exponent_arabic_indic": (FAMILY + ["--family"],
                                     "params: l\nl^-\u0662 | l, 1, 1, 1\n"),
    "terms_arabic_indic": (CHECK + ["--terms"], "\u0662 | 1, 1, 1, 1\n"),
    "r_underscore": (["terracini", F1, "--degree", "3,2", "-r", "1_0"], None),
    "r_arabic_indic": (["terracini", F1, "--degree", "3,2", "-r", "\u0663"],
                       None),
    "prime_underscore": (TERRACINI + ["--prime", "1_01"], None),
    "trials_underscore": (TERRACINI + ["--trials", "1_0"], None),
    "seed_arabic_indic": (TERRACINI + ["--seed", "\u0661"], None),
    "window_underscore": (LENGTH + ["--window", "1_0"], None),
    "max_k_arabic_indic": (LENGTH + ["--max-k", "\u0663"], None),
    "degree_huge": (["basis", F1, "--degree", f"{B},1"], None),
    "r_huge": (["terracini", F1, "--degree", "3,2", "-r", B], None),
}


def run_cli(argv, text, tmp_path):
    """argv's exit code, stdout and stderr, the last argument replaced by
    a file of ``text`` unless that is None; a fan argument comes last."""
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = argv + [str(path)]
    proc = subprocess.run([sys.executable, "-m", "toric_apolarity", *argv],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_hostile_literals_are_parse_errors(case, tmp_path):
    code, out, err = run_cli(*REFUSED[case], tmp_path)
    assert (code, out) == (2, ""), err
    assert "[ParseError]" in err and "Traceback" not in err


# name -> (argv, the whole stderr): a refused factor names its one fault
FAULTS = {
    "degree_too_many_digits": (
        ["basis", F1, "--degree", f"1,{B}"],
        f"the factor {B[:20]!r}... has more than "
        f"{sys.get_int_max_str_digits()} digits"),
    "form_zero_denominator": (
        ["hilbert", F1, "--box", "0..1,0..1", "--form", "1/0*x0*x1*y0*y1"],
        "denominator 0 in the factor '1/0'"),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_refused_factors_name_their_fault(case, tmp_path):
    argv, message = FAULTS[case]
    code, out, err = run_cli(argv, None, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"input error [ParseError]: {message}\n"


def test_terms_are_read_like_coefficients(tmp_path):
    """Blanks may separate the symbols of an --at value, as in a form's
    coefficient, and a terms file's entries read exactly."""
    code, out, err = run_cli(DET + ["--at", "2 / 3" + AT], None, tmp_path)
    assert code == 0, err
    assert out == run_cli(DET + ["--at", "2/3" + AT], None, tmp_path)[1]
    code, out, err = run_cli(
        CHECK + ["--terms"], (FIXTURES / "f1_four_points.terms").read_text(),
        tmp_path)
    assert (code, out) == (0, "decomposition exact: True [exact]\n"), err
