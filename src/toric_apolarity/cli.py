"""Batch command-line front end: it parses and prints.

One job per invocation; human-readable tables by default, one
self-contained JSON record per result with ``--format records``.  Every
numeric claim carries its provenance: exact, mod-p lower bound, or
heuristic-stabilized.  Exit codes: 0 success, 1 mathematical refusal,
2 input error.  The parser is built once per process, with every
command, and reused by each call of ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import product
from pathlib import Path

from .abelian import DegreeClass
from .apolarity import (ApolarForm, DegreeBox, apolar_contains, check_symmetry,
                        hilbert_grid)
from .bounds import best_bounds, bound_report
from .errors import InputError, ParseError, Refusal
from .fan import _require_names, load_fan
from .ideals import (DEFAULT_MAX_K, DEFAULT_WINDOW, IdealGens,
                     cactus_certificate, length_estimate)
from .ring import (Side, _format_monomial, basis as graded_basis, format_poly,
                   parse_integer, parse_poly)
from .secant import (DEFAULT_PRIME, DEFAULT_TRIALS, LaurentFamily,
                     limit_certificate, parse_laurent, terracini_determinant_check,
                     terracini_probe, verify_decomposition)

EXACT = "exact"
MODP = "mod-p lower bound"
HEURISTIC = "heuristic-stabilized"


# --- shared argument parsing ---------------------------------------------

def _pieces(text: str, what: str, read=str):
    """The stripped pieces of a comma list, each read by ``read``.  Blank
    text has none; an empty piece (between commas or at either end) is a
    ParseError."""
    pieces = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in pieces:
        raise ParseError(f"empty piece in {what} {text!r}")
    return [read(p) for p in pieces]


def parse_degree(text: str, group) -> DegreeClass:
    """Degree syntax: free coordinates comma-separated, torsion residues
    after a semicolon, e.g. ``5,2`` or ``6;0``; a semicolon needs them."""
    text = text.strip()
    free_part, semicolon, tors_part = text.partition(";")
    free = _pieces(free_part, "degree", parse_integer)
    tors = _pieces(tors_part, "degree", parse_integer)
    if semicolon and not tors:
        raise ParseError(f"degree {text!r}: no torsion residues after ';'")
    if len(free) != group.free_rank:
        raise ParseError(f"degree {text!r}: expected {group.free_rank} "
                         f"free coordinates")
    if tors and len(tors) != len(group.torsion_orders):
        raise ParseError(f"degree {text!r}: expected "
                         f"{len(group.torsion_orders)} torsion residues")
    return group.degree(free, tors)


def parse_box(text: str, group) -> DegreeBox:
    """Box syntax: one inclusive ``lo..hi`` range per free coordinate,
    comma-separated; torsion residues are enumerated in full."""
    def span(piece):
        lo, sep, hi = piece.partition("..")
        return parse_integer(lo), parse_integer(hi if sep else lo)

    ranges = _pieces(text, "box", span)
    if len(ranges) != group.free_rank:
        raise ParseError(f"box {text!r}: expected {group.free_rank} ranges")
    return DegreeBox(group, tuple(ranges))


def parse_ideal(text: str, fan) -> IdealGens:
    gens = _pieces(text, "ideal", lambda piece: parse_poly(
        piece, fan.var_names, Side.PRIMAL))
    if not gens:
        raise ParseError("empty ideal generator list")
    return IdealGens(fan, gens)


def parse_form(text: str, fan) -> ApolarForm:
    return ApolarForm(fan, parse_poly(text, fan.dual_var_names, Side.DUAL))


def _read_lines(path):
    """Stripped lines of a text file, without blanks and ``#`` comments."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _rational(text: str):
    """One rational entry such as ``-3/4``: a term without names."""
    return parse_laurent(text, ()).coeff


def _read_points(path, lines, entry):
    """(coefficient, coordinates) pairs from ``coefficient | c1, c2, ...``
    lines, each entry read by ``entry``; refuses a file without any."""
    terms = []
    for line in lines:
        coeff_text, sep, coord_text = line.partition("|")
        if not sep:
            raise ParseError(f"point line lacks '|': {line!r}")
        coeff = entry(coeff_text)
        coords = tuple(_pieces(coord_text, "point", entry))
        terms.append((coeff, coords))
    if not terms:
        raise ParseError(f"no point terms in {path}")
    return terms


def read_terms_file(path):
    """Lines of ``coefficient | c1, c2, ...`` with rational entries."""
    return _read_points(path, _read_lines(path), _rational)


def read_family_file(path) -> LaurentFamily:
    """Like a terms file, after a ``params: l, m`` header; entries are
    Laurent monomials in the parameters (``l^-1*m^-1`` style)."""
    lines = _read_lines(path)
    head, sep, rest = (lines[0] if lines else "").partition(":")
    if head.strip() != "params" or not sep:
        raise ParseError("family file must start with 'params: ...'")
    params = tuple(_pieces(rest, "params"))
    _require_names(params, "family parameters")
    terms = _read_points(path, lines[1:],
                         lambda text: parse_laurent(text, params))
    return LaurentFamily(params, tuple(terms))


# --- output ----------------------------------------------------------------

def degree_json(degree: DegreeClass):
    return {"free": list(degree.free), "torsion": list(degree.torsion)}


def bound_json(value, at):
    return {"value": value, "at": degree_json(at) if at else None}


def residue_string(coeff, expo, mono, params, names) -> str:
    pieces = []
    if coeff != 1:
        pieces.append(str(coeff))
    for text in (_format_monomial(expo, params), _format_monomial(mono, names)):
        if text:
            pieces.append(text)
    return "*".join(pieces) if pieces else "1"


# --- subcommands ------------------------------------------------------------
# Each takes (args, fan) and returns (JSON record, table lines); ``main``
# loads the fan, names the command in the record and prints one of the two.

def cmd_classgroup(args, fan):
    table = " ".join(f"{n}={d}" for n, d in zip(fan.var_names, fan.var_degrees))
    completeness = fan.check_complete().value
    record = {
        "class_group": {"free_rank": fan.class_group.free_rank,
                        "torsion_orders": list(fan.class_group.torsion_orders)},
        "degrees": {n: degree_json(d)
                    for n, d in zip(fan.var_names, fan.var_degrees)},
        "completeness": completeness,
        "provenance": EXACT,
    }
    return record, [f"Cl = {fan.class_group}; deg {table}",
                    f"completeness: {completeness} [{EXACT}]"]


def cmd_basis(args, fan):
    degree = parse_degree(args.degree, fan.class_group)
    mons = graded_basis(fan, degree)
    names = fan.dual_var_names if args.dual else fan.var_names
    strings = [_format_monomial(m, names) or "1" for m in mons]
    record = {"degree": degree_json(degree),
              "side": "dual" if args.dual else "primal",
              "dimension": len(mons), "monomials": strings, "provenance": EXACT}
    return record, [f"dim = {len(mons)} [{EXACT}]", " ".join(strings)]


def _grid_lines(fan, grid, box):
    lines = []
    group = fan.class_group
    by_torsion = {}  # box degrees per torsion class, in box order
    if group.free_rank != 2:
        for degree in box:
            by_torsion.setdefault(degree.torsion, []).append(degree)
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
            lines += [f"  h{degree} = {grid.values[degree]}"
                      for degree in by_torsion.get(tors, ())]
    return lines


def cmd_hilbert(args, fan):
    form = parse_form(args.form, fan)
    box = parse_box(args.box, fan.class_group)
    grid = hilbert_grid(form, box)
    verdict = check_symmetry(form, box)
    symmetry = "PASS" if verdict.ok else f"FAIL at {verdict.witness}"
    record = {
        "form": format_poly(form.poly, fan.dual_var_names),
        "form_degree": degree_json(form.degree),
        "values": [{"degree": degree_json(d), "value": v}
                   for d, v in grid.values.items()],
        "symmetry": symmetry,
        "provenance": EXACT,
    }
    lines = [f"Hilbert function of the apolar algebra [{EXACT}]"]
    lines += _grid_lines(fan, grid, box)
    lines.append(f"symmetry: {symmetry}")
    return record, lines


def _bound_lines(report):
    lines = [f"border rank >= {report.border} [{EXACT}]",
             f"rank >= {report.rank} [{EXACT}]"]
    if report.cactus is not None:
        lines.append(f"cactus rank >= {report.cactus} [{EXACT}]")
    else:
        lines.append("cactus bound suppressed (class is not Cartier)")
    return lines


def cmd_cat(args, fan):
    form = parse_form(args.form, fan)
    degree = parse_degree(args.beta, fan.class_group)
    report = bound_report(form, degree)
    shape = [len(graded_basis(fan, degree)),
             len(graded_basis(fan, form.degree - degree))]
    record = {
        "degree": degree_json(degree),
        "shape": shape,
        "rank": report.rank,
        "cartier": report.cartier,
        "bounds": {"border": report.border, "rank": report.rank,
                   "cactus": report.cactus},
        "provenance": EXACT,
    }
    lines = [f"catalecticant is {shape[0]} x {shape[1]}, "
             f"rank {report.rank} [{EXACT}]"]
    lines += _bound_lines(report)
    return record, lines


def cmd_bounds(args, fan):
    form = parse_form(args.form, fan)
    box = parse_box(args.box, fan.class_group)
    sweep = best_bounds(form, box)
    record = {"border": bound_json(sweep.border, sweep.border_at),
              "rank": bound_json(sweep.rank, sweep.rank_at),
              "cactus": bound_json(sweep.cactus, sweep.cactus_at),
              "provenance": EXACT}
    lines = [f"border rank >= {sweep.border} at {sweep.border_at} [{EXACT}]",
             f"rank >= {sweep.rank} at {sweep.rank_at} [{EXACT}]",
             f"cactus rank >= {sweep.cactus} at {sweep.cactus_at} "
             f"(Cartier classes only) [{EXACT}]"]
    return record, lines


def cmd_contains(args, fan):
    form = parse_form(args.form, fan)
    ideal = parse_ideal(args.ideal, fan)
    ok = apolar_contains(ideal, form)
    record = {"contained": ok, "provenance": EXACT}
    return record, [f"ideal contained in the annihilator: {ok} [{EXACT}]"]


LENGTH_CAVEAT = ("valid if the scheme is zero-dimensional and the ideal is "
                 "saturated in high degrees")


def cmd_length(args, fan):
    ideal = parse_ideal(args.ideal, fan)
    ample = parse_degree(args.ample, fan.class_group)
    est = length_estimate(ideal, ample, window=args.window, max_k=args.max_k)
    record = {
        "value": est.value,
        "stabilized": est.stabilized,
        "samples": [list(s) for s in est.samples],
        "window": args.window,
        "provenance": HEURISTIC,
    }
    lines = [f"length estimate = {est.value} [{HEURISTIC}] "
             f"(stabilized: {est.stabilized}, window {args.window})",
             "samples: " + " ".join(f"k={k}:{d}" for k, d in est.samples),
             LENGTH_CAVEAT]
    return record, lines


def cmd_cactus_cert(args, fan):
    form = parse_form(args.form, fan)
    ideal = parse_ideal(args.ideal, fan)
    ample = parse_degree(args.ample, fan.class_group)
    cert = cactus_certificate(form, ideal, ample, window=args.window,
                              max_k=args.max_k,
                              reduced_asserted=args.assert_reduced)
    record = {
        "contained": True,
        "cactus_bound": cert.cactus_bound,
        "rank_bound": cert.rank_bound,
        "stabilized": cert.length.stabilized,
        "samples": [list(s) for s in cert.length.samples],
        "provenance": HEURISTIC,
    }
    lines = [f"containment: OK [{EXACT}]",
             f"length = {cert.length.value} [{HEURISTIC}] "
             f"(stabilized: {cert.length.stabilized})",
             f"cactus rank <= {cert.cactus_bound}"]
    if cert.rank_bound is not None:
        lines.append(f"rank <= {cert.rank_bound} (scheme asserted reduced)")
    lines.append(LENGTH_CAVEAT)
    return record, lines


def cmd_decompose_check(args, fan):
    form = parse_form(args.form, fan)
    terms = read_terms_file(args.terms)
    chk = verify_decomposition(form, terms)
    residual = format_poly(chk.residual, fan.dual_var_names)
    record = {"exact": chk.ok, "residual": residual, "provenance": EXACT}
    lines = [f"decomposition exact: {chk.ok} [{EXACT}]"]
    if not chk.ok:
        lines.append(f"residual: {residual}")
    return record, lines


def cmd_limit_cert(args, fan):
    form = parse_form(args.form, fan)
    family = read_family_file(args.family)
    cert = limit_certificate(form, family)
    residue = [residue_string(c, expo, mono, family.params, fan.dual_var_names)
               for expo, mono, c in cert.residue]
    defect = [residue_string(c, (), m, (), fan.dual_var_names)
              for m, c in cert.constant_defect]
    record = {
        "status": cert.status,
        "terms": cert.term_count,
        "residue": residue,
        "defect": defect,
        "provenance": EXACT,
    }
    lines = [f"certificate: {cert.status} [{EXACT}]"]
    if cert.valid:
        lines.append(f"border rank <= {cert.term_count}")
        lines.append("residue: " + (" + ".join(residue) or "0"))
    else:
        lines.append("parameter-free defect: " + " + ".join(defect))
    return record, lines


def _parse_pins(text):
    """Comma-separated variable indices; None when ``--pins`` is absent."""
    return None if text is None else tuple(_pieces(text, "--pins", parse_integer))


def cmd_terracini(args, fan):
    degree = parse_degree(args.degree, fan.class_group)
    probe = terracini_probe(fan, degree, args.r, prime=args.prime,
                            trials=args.trials, seed=args.seed,
                            pins=_parse_pins(args.pins))
    record = {
        "degree": degree_json(degree),
        "points": probe.points,
        "prime": probe.prime,
        "seed": probe.seed,
        "trials": probe.trials,
        "pins": list(probe.pins),
        "ranks": list(probe.ranks),
        "rank": probe.rank,
        "dim_estimate": probe.dim_estimate,
        "fills_space": probe.fills_space,
        "degenerate": probe.degenerate,
        "assumes": "class is basepoint-free (user-asserted)",
        "provenance": MODP,
    }
    lines = [f"tangent-stack rank = {probe.rank} over Z/{probe.prime} "
             f"[{MODP}] (trials {probe.trials}, seed {probe.seed}, "
             f"pins {list(probe.pins)})",
             f"secant dimension estimate = {probe.dim_estimate}; "
             f"fills P^{probe.ambient_dim - 1}: {probe.fills_space}",
             "rank over Z/p lower-bounds rank over Q; "
             "assumes the class is basepoint-free (user-asserted)"]
    if probe.degenerate:
        lines.append("warning: all trials stayed below the expected cap "
                     "(degenerate samples)")
    return record, lines


def cmd_det_check(args, fan):
    degree = parse_degree(args.degree, fan.class_group)
    assignment = _pieces(args.at, "--at", _rational)
    value = terracini_determinant_check(fan, degree, args.r, assignment,
                                        prime=args.prime,
                                        pins=_parse_pins(args.pins))
    field = f"Z/{args.prime}" if args.prime else "Q"
    record = {"degree": degree_json(degree), "points": args.r, "field": field,
              "determinant": str(value), "provenance": EXACT}
    return record, [f"determinant over {field} = {value} [{EXACT}]"]


# --- driver -----------------------------------------------------------------

# name -> (help, required string options, other options' add_argument keywords)
COUNTS = {"--window": {"type": parse_integer, "default": DEFAULT_WINDOW},
          "--max-k": {"type": parse_integer, "default": DEFAULT_MAX_K}}
INT_R = {"-r": {"type": parse_integer, "required": True}}
COMMANDS = {
    "classgroup": ("class group and variable degree table", "", {}),
    "basis": ("monomial basis of a graded piece", "--degree", {
        "--dual": {"action": "store_true", "help": "print dual-side variable names"}}),
    "hilbert": ("Hilbert grid of an apolar algebra with symmetry check",
                "--form --box", {}),
    "cat": ("catalecticant matrix rank and bounds", "--form --beta", {}),
    "bounds": ("best bounds over a degree box", "--form --box", {}),
    "contains": ("apolarity containment verdict", "--form", {
        "--ideal": {"required": True, "help": "comma-separated generators"}}),
    "length": ("length estimate of a subscheme", "--ideal --ample", COUNTS),
    "cactus-cert": ("containment plus length: cactus-rank upper bound",
                    "--form --ideal --ample",
                    {**COUNTS, "--assert-reduced": {"action": "store_true"}}),
    "decompose-check": ("verify an exact point decomposition", "--form", {
        "--terms": {"required": True, "help": "terms file"}}),
    "limit-cert": ("symbolic limit certificate for a border-rank bound", "--form", {
        "--family": {"required": True, "help": "family file"}}),
    "terracini": ("randomized secant-dimension probe", "--degree", {
        **INT_R, "--prime": {"type": parse_integer, "default": DEFAULT_PRIME},
        "--trials": {"type": parse_integer, "default": DEFAULT_TRIALS},
        "--seed": {"type": parse_integer, "default": 0},
        "--pins": {"help": "comma-separated pinned variable indices"}}),
    "det-check": ("tangent-stack determinant at an explicit assignment", "--degree", {
        **INT_R, "--at": {"required": True, "help": "comma-separated values "
                                                   "for the free chart parameters"},
        "--prime": {"type": parse_integer}, "--pins": {}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand; it reads only ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="toric-apolarity",
        description="Exact apolarity, catalecticant bounds, and secant "
                    "probes on simplicial toric varieties.")
    parser.add_argument("--format", choices=("table", "records"), default="table")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, required, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("fan", help="fan file (JSON)")
        for flag in required.split():
            p.add_argument(flag, required=True)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:  # an integer option parse_integer refuses is a ParseError
        args = build_parser().parse_args(argv)
        # looked up per call, so a handler rebound after the build runs
        handler = globals()["cmd_" + args.cmd.replace("-", "_")]
        record, lines = handler(args, load_fan(args.fan))
    except Refusal as exc:
        print(f"refused [{exc.name}]: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error [{exc.name}]: {exc}", file=sys.stderr)
        return 2
    record["command"] = args.cmd
    text = (json.dumps(record, sort_keys=True, separators=(",", ":"))
            if args.format == "records" else "\n".join(lines))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped after the work was done: devnull takes the
        # rest, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
