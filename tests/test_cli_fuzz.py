"""The exit-code contract on generated command lines: every subcommand,
fed a mix of valid and corrupted tokens, returns 0, 1 or 2 or leaves
through argparse's usage error, and never raises anything else."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from toric_apolarity.cli import main

from conftest import FIXTURES, parse_outcome

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JUNK = ["", " ", "a", "-", ",", "1,,2", "1.5", "3..1", ";", "1;", "0;9", "..",
        "1/0", "é", "0x1", "1e3"]
# per fixture: free rank, torsion orders, forms and ideals valid on it
FANS = {
    "f1.fan": (2, (), ["x0*x1*y0*y1", "x0^2*x1^2*y0*y1", "x0*y0^2",
                       "x0*x1*y0*y1 - 2*x0^2*y0*y1"],
               ["a0^2, b0^2", "a0^2 - a1^2, b0^2 - a1^2*b1^2", "a0"]),
    "p114.fan": (1, (), ["x^2*y^2", "x^2*y^2 + z", "z^2", "x^7"],
                 ["a^3, b^3", "a^3 - b^3, c", "c"]),
    "fake_plane.fan": (1, (3,), ["x0^2*x1^2*x2^2", "x0^4*x1*x2", "x1^3"],
                       ["a1^2, a2^2", "a0*a1, a2", "a0^3"]),
}
BAD_FORMS = ["0", "x0*", "y0^-1", "zz", "1/0*x0", "x0**2", "x0 +", "(x0)",
             "a0*x0", "x0*x1*y0*y1 + x0", "x0^2^3", "2/3/4*x0", "+-x0"]
BAD_IDEALS = ["a0 + b0", "q0", "a0^", ",", "a0,,b0", "x0", "a0^-1", "a0^2^3",
              "2/3/4*a0", "+-a0"]


def mixed(good, bad):
    """Draws from ``good`` three times in four, else from ``bad``."""
    return st.tuples(st.sampled_from([False] * 3 + [True]), good, bad).map(
        lambda t: t[2] if t[0] else t[1])


def tokens(good, bad):
    return mixed(st.sampled_from(good), st.sampled_from(bad + JUNK))


def coords(size):
    """``size`` comma-separated integers, each at most 6 in absolute value."""
    return st.lists(st.integers(-6, 6), min_size=size,
                    max_size=size).map(lambda xs: ",".join(map(str, xs)))


def degrees(rank, torsion):
    right = coords(rank)
    if torsion:
        right = st.tuples(right, st.integers(-1, torsion[0])).map(
            lambda ct: f"{ct[0]};{ct[1]}")
    return mixed(right, st.one_of(coords(rank + 1), st.sampled_from(JUNK)))


def boxes(rank):
    ranges = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
                      .map(lambda lh: f"{min(lh)}..{max(lh)}"),
                      min_size=rank, max_size=rank).map(",".join)
    reversed_range = st.just(",".join(["3..1"] * rank))
    return mixed(ranges, st.one_of(reversed_range, coords(rank),
                                   st.sampled_from(JUNK)))


# valid values first: hypothesis shrinks toward the first entries
SMALL = st.sampled_from(["2", "3", "1", "4", "0", "-1"])
PRIME = st.sampled_from(["101", "32003", "2", "3", "0", "1", "4", "-7"])
PINS = st.sampled_from(["0", "0,2", "1,3", "2", "99", "-1", "0,0", "a", ""])
AT = mixed(st.one_of(coords(10), coords(4)), st.sampled_from(JUNK))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Valid fixture fans by name, and paths that are not a usable fan."""
    tmp = tmp_path_factory.mktemp("fuzz")
    open_fan = tmp / "open.fan"  # no positivity certificate: a refusal
    open_fan.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 0]],
                                    "max_cones": [[0, 1], [1, 2]]}))
    cut = tmp / "cut.fan"
    cut.write_text("{\"rays\": [[1, 0]")
    data = [str(FIXTURES / "f1_four_points.terms"),
            str(FIXTURES / "f1_three_point_family.family")]
    bad = [str(open_fan), str(cut), str(tmp / "missing"), str(tmp)] + data
    return {name: str(FIXTURES / name) for name in FANS}, bad, data


def pair(flag, value):
    # ``--flag=value`` lets a value start with a minus sign
    return [f"{flag}={value}"] if flag.startswith("--") else [flag, value]


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: pair(flag, v)))


def switch(flag):
    return st.sampled_from([[], [flag]])


def command_lines(paths):
    fans, bad_paths, data_paths = paths

    def for_fan(name):
        rank, torsion, forms, ideals = FANS[name]
        other_forms = [f for n in FANS for f in FANS[n][2] if n != name]
        form = tokens(forms, other_forms + BAD_FORMS)
        ideal = tokens(ideals, BAD_IDEALS)
        degree = degrees(rank, torsion)
        data = st.sampled_from(data_paths + bad_paths)
        grammar = {
            "classgroup": ([], []),
            "basis": ([("--degree", degree)], [switch("--dual")]),
            "hilbert": ([("--form", form), ("--box", boxes(rank))], []),
            "cat": ([("--form", form), ("--beta", degree)], []),
            "bounds": ([("--form", form), ("--box", boxes(rank))], []),
            "contains": ([("--form", form), ("--ideal", ideal)], []),
            "length": ([("--ideal", ideal), ("--ample", degree)],
                       [option("--window", SMALL), option("--max-k", SMALL)]),
            "cactus-cert": ([("--form", form), ("--ideal", ideal),
                             ("--ample", degree)],
                            [option("--window", SMALL),
                             option("--max-k", SMALL),
                             switch("--assert-reduced")]),
            "decompose-check": ([("--form", form), ("--terms", data)], []),
            "limit-cert": ([("--form", form), ("--family", data)], []),
            "terracini": ([("--degree", degree), ("-r", SMALL)],
                          [option("--prime", PRIME),
                           option("--trials", SMALL),
                           option("--seed", SMALL), option("--pins", PINS)]),
            "det-check": ([("--degree", degree), ("-r", SMALL),
                           ("--at", AT)],
                          [option("--prime", PRIME), option("--pins", PINS)]),
        }
        fan = mixed(st.just(fans[name]), st.sampled_from(bad_paths))

        def build(cmd):
            required, extras = grammar[cmd]
            parts = [values.map(lambda v, flag=flag: pair(flag, v))
                     for flag, values in required]
            # ``drop`` is -1 (keep every option) or one option to delete
            drop = st.sampled_from([-1] * 3 + list(range(len(required))))
            return st.tuples(st.sampled_from([[], ["--format", "records"]]),
                             fan, st.tuples(*parts), st.tuples(*extras),
                             drop).map(lambda t: assemble(cmd, *t))

        return st.one_of([build(cmd) for cmd in sorted(grammar)])

    return st.one_of([for_fan(name) for name in sorted(FANS)])


def assemble(cmd, fmt, fan, required, extras, drop):
    options = [x for i, opt in enumerate(required) if i != drop for x in opt]
    return fmt + [cmd, fan] + options + [x for extra in extras for x in extra]


def test_cli_never_raises(paths):
    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(command_lines(paths))
    def check(argv):
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2), argv

    check()


def test_narrowed_parser_parses_as_the_full_one(paths, monkeypatch):
    # the help layout follows the terminal width
    monkeypatch.setenv("COLUMNS", "80")

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(command_lines(paths))
    def check(argv):
        assert parse_outcome(argv, True) == parse_outcome(argv, False), argv

    check()
