"""The contraction action of the coordinate ring on its dual module,
annihilator pieces, Hilbert functions of apolar algebras, and the
ideal-containment test behind every upper-bound certificate."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from operator import add

from .abelian import DegreeClass
from .errors import (BoxTooLarge, CatalecticantTooLarge, GroupMismatch,
                     NonHomogeneousGenerator, SideMismatch)
from .linalg import nullspace, rank_bareiss, rank_mod
from .ring import MultiPoly, Side, basis, homogeneous_degree

PRESCREEN_PRIME = 101
MAX_CATALECTICANT_CELLS = 4_000_000  # built and ranked at up to 24 bytes each
MAX_BOX_DEGREES = 10_000  # a box's degrees are built at once, each ranked


def contract(g: MultiPoly, form: MultiPoly) -> MultiPoly:
    """Exponent-dropping action: x^a acting on y^b gives y^(b-a) when
    b >= a componentwise, else 0.  No multiplicity constants."""
    if g.side is not Side.PRIMAL:
        raise SideMismatch("left factor of the action must be primal")
    if form.side is not Side.DUAL:
        raise SideMismatch("right factor of the action must be dual")
    terms = {}
    for a, ca in g.terms.items():
        for b, cb in form.terms.items():
            if all(bi >= ai for ai, bi in zip(a, b)):
                m = tuple(bi - ai for ai, bi in zip(a, b))
                terms[m] = terms.get(m, Fraction(0)) + ca * cb
    degree = None
    if g.degree is not None and form.degree is not None:
        degree = form.degree - g.degree
    return MultiPoly(Side.DUAL, terms, degree)


class ApolarForm:
    """A nonzero homogeneous dual element together with its fan, and the
    catalecticant ranks computed for it so far (``hilbert_value``).

    ``scale`` is the lcm D of the coefficient denominators and
    ``scaled_terms`` holds the integer coefficients of D times the form;
    ``basis_values`` lists them in basis(alpha) order, zeros included."""

    def __init__(self, fan, poly: MultiPoly):
        if poly.side is not Side.DUAL:
            raise SideMismatch("an apolar form lives on the dual side")
        if poly.is_zero():
            raise NonHomogeneousGenerator("the zero form has no apolar theory")
        degree = homogeneous_degree(fan, poly)
        if degree is None:
            raise NonHomogeneousGenerator("form is not homogeneous")
        self.fan = fan
        self.poly = MultiPoly(Side.DUAL, poly.terms, degree)
        self.degree = degree
        self.scale, self.scaled_terms = self.poly.integer_terms()
        self._ranks = {}  # degree -> rank of the catalecticant at it
        self._prescreens = {}  # (short side, residue bytes) -> rank mod p

    @cached_property
    def basis_values(self):
        """Listed on the first catalecticant, so forms that are never
        ranked never enumerate basis(alpha)."""
        get = self.scaled_terms.get
        return [get(m, 0) for m in basis(self.fan, self.degree)]


def _sum_index_table(fan, degree: DegreeClass, form_degree: DegreeClass):
    """basis(beta), basis(alpha - beta), and per row an ``array("I")`` of
    the positions of row + col in basis(alpha); kept on the fan, since no
    form enters them (4 bytes per cell)."""
    key = (degree, form_degree)
    found = fan._sum_index_cache.get(key)
    if found is None:
        rows = basis(fan, degree)
        cols = basis(fan, form_degree - degree)
        if len(rows) * len(cols) > MAX_CATALECTICANT_CELLS:
            raise CatalecticantTooLarge(f"{len(rows)} x {len(cols)} cells, over the cap")
        position = {m: i for i, m in enumerate(basis(fan, form_degree))}
        found = fan._sum_index_cache[key] = (rows, cols, [
            array("I", [position[tuple(map(add, row, col))] for col in cols])
            for row in rows])
    return found


def catalecticant_entries(form: ApolarForm, degree: DegreeClass):
    """Rows (domain basis), columns (target basis), and the integer matrix
    of the contraction map from the graded piece at ``degree``, taken on
    ``form.scale`` times the form.  It has the same rank and kernel as the
    form's own matrix, which is this one divided by ``form.scale``.  Each
    cell is one index into ``form.basis_values``, read off the fan's table."""
    rows, cols, table = _sum_index_table(form.fan, degree, form.degree)
    values = form.basis_values
    return rows, cols, [list(map(values.__getitem__, t)) for t in table]


def exact_rank(form: ApolarForm, degree: DegreeClass, gathered=None) -> int:
    """Exact rank of the catalecticant at ``degree``, from the one integer
    matrix ``catalecticant_entries`` gathers, or from ``gathered``, its
    result, when the caller holds it.  A full rank mod p certifies it (a
    modular rank can only drop); only otherwise does Bareiss rank the
    same rows.  The form keeps each rank mod p, keyed by the short side's
    residues, for the transpose to read; it never keeps a Bareiss rank."""
    rows, cols, matrix = gathered or catalecticant_entries(form, degree)
    cap = min(len(rows), len(cols))
    if not cap:
        return 0
    short = matrix if len(rows) == cap else zip(*matrix)
    key = (cap, bytes(v % PRESCREEN_PRIME for row in short for v in row))
    residue_rank = form._prescreens.get(key)
    if residue_rank is None:
        residue_rank = form._prescreens[key] = rank_mod(matrix, PRESCREEN_PRIME)
    return cap if residue_rank == cap else rank_bareiss(matrix)


def annihilator_in_degree(form: ApolarForm, degree: DegreeClass):
    """Basis of the annihilator's graded piece, as coefficient vectors over
    the monomial basis at ``degree`` (canonical echelon kernel)."""
    rows, _, matrix = catalecticant_entries(form, degree)
    return [tuple(v) for v in nullspace(zip(*matrix), len(rows))]


def hilbert_value(form: ApolarForm, degree: DegreeClass,
                  gathered=None) -> int:
    """Dimension of the apolar algebra's graded piece: the rank of the
    contraction matrix at ``degree``, computed once per form and degree
    (by ``exact_rank``, which ranks ``gathered`` when it is given).

    The memo is keyed by the degree alone, not by the pair {beta,
    alpha - beta}: each degree gathers its own matrix.  The partner of a
    ranked degree reuses only its prescreen, after a byte-for-byte match
    of the residues, and a prescreen below the cap sends each of the two
    gathers to Bareiss, so ``check_symmetry`` compares two gathers."""
    rank = form._ranks.get(degree)
    if rank is None:
        rank = form._ranks[degree] = exact_rank(form, degree, gathered)
    return rank


@dataclass(frozen=True)
class DegreeBox:
    """Product of inclusive free-coordinate ranges; torsion residues are
    enumerated in full."""

    group: object
    free_ranges: tuple  # tuple of (lo, hi) pairs

    def __post_init__(self):
        if len(self.free_ranges) != self.group.free_rank:
            raise GroupMismatch(f"box has {len(self.free_ranges)} ranges, "
                                f"the group has free rank "
                                f"{self.group.free_rank}")
        count = prod(hi - lo + 1 for lo, hi in self.free_ranges)
        count *= prod(self.group.torsion_orders)
        if count > MAX_BOX_DEGREES:
            raise BoxTooLarge(f"the box has {count} degrees, more than "
                              f"{MAX_BOX_DEGREES}")

    @cached_property
    def degrees(self):  # built once, in iteration order
        axes = [range(lo, hi + 1) for lo, hi in self.free_ranges]
        axes += [range(d) for d in self.group.torsion_orders]
        rank = self.group.free_rank
        return tuple(DegreeClass(self.group, coords[:rank], coords[rank:])
                     for coords in product(*axes))

    def __iter__(self):
        return iter(self.degrees)


@dataclass(frozen=True)
class HilbertGrid:
    """Hilbert function values of an apolar algebra over a degree box."""

    form_degree: DegreeClass
    box: DegreeBox
    values: dict


def hilbert_grid(form: ApolarForm, box: DegreeBox) -> HilbertGrid:
    values = {degree: hilbert_value(form, degree) for degree in box}
    return HilbertGrid(form.degree, box, values)


@dataclass(frozen=True)
class SymmetryVerdict:
    ok: bool
    witness: DegreeClass | None = None


def check_symmetry(form: ApolarForm, box: DegreeBox) -> SymmetryVerdict:
    """Verify hilbert(beta) == hilbert(alpha - beta) over the box."""
    for degree in box:
        if hilbert_value(form, degree) != hilbert_value(form,
                                                        form.degree - degree):
            return SymmetryVerdict(False, degree)
    return SymmetryVerdict(True)


def apolar_contains(generators, form: ApolarForm) -> bool:
    """True iff every generator annihilates the form.

    Sufficient for ideal containment in the annihilator: the annihilator is
    an ideal and (h*g) acting on F equals h acting on (g acting on F).
    """
    gens = getattr(generators, "generators", generators)
    for g in gens:
        if homogeneous_degree(form.fan, g) is None:
            raise NonHomogeneousGenerator("ideal generators must be homogeneous")
        if not contract(g, form.poly).is_zero():
            return False
    return True
