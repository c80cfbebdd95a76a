"""Fan input model for simplicial toric varieties: class group and variable
degrees from the ray matrix, irrelevant ideal, completeness verdicts, and
the per-cone integral test for Cartier classes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import gcd
from pathlib import Path

from .abelian import DegreeClass, _solve_smith, cokernel, smith_normal_form
from .errors import (NonPrimitiveRay, NonSimplicialCone,
                     NotFullRank, ParseError, TorusFactor)
from .linalg import det_bareiss, rank_bareiss
from .ring import _NAME


def _require_names(names, what: str):
    """Refuse with ParseError declared names that repeat or that the term
    syntax cannot read."""
    if len(set(names)) != len(names) or not all(map(_NAME.fullmatch, names)):
        raise ParseError(f"{what} {list(names)} are not distinct names "
                         f"matching {_NAME.pattern}")


class Completeness(Enum):
    COMPLETE = "Complete"
    NOT_COMPLETE = "NotComplete"


@dataclass(frozen=True)
class IrrelevantIdeal:
    """One square-free monomial generator per maximal cone: exponent 1 on
    exactly the rays outside the cone."""

    generators: tuple  # tuple of exponent tuples, one per maximal cone

    def nonvanishing_at(self, coords) -> bool:
        """True unless every generator vanishes at the coordinates."""
        if 0 not in coords:  # then no generator vanishes there
            return bool(self.generators)
        return any(all(coords[i] != 0 for i, e in enumerate(expo) if e)
                   for expo in self.generators)


class FanModel:
    """Immutable fan data with the derived grading.

    Attributes: ambient_rank, rays, max_cones, class_group, projection,
    var_degrees, irrelevant, var_names, dual_var_names.  The fan also owns
    the caches derived from it: Cartier verdicts and cone Smith forms
    here, graded bases filled in by ``ring``, and the sum-index tables of
    catalecticants filled in by ``apolarity``.
    """

    def __init__(self, rays, max_cones, var_names=None, dual_var_names=None):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not rays:
            raise TorusFactor("a fan needs at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise ParseError("rays have inconsistent lengths")
        for r in rays:
            if gcd(*r) != 1:
                raise NonPrimitiveRay(f"ray {list(r)} is not primitive")
        cones = []
        for cone in max_cones:
            idx = tuple(sorted(set(int(i) for i in cone)))
            if len(idx) != len(tuple(cone)) or not idx or idx[0] < 0 or idx[-1] >= len(rays):
                raise ParseError(f"bad cone index set {list(cone)}")
            if rank_bareiss([rays[i] for i in idx]) != len(idx):
                raise NonSimplicialCone(
                    f"cone {list(idx)} has linearly dependent rays")
            cones.append(idx)

        self.ambient_rank = n
        self.rays = rays
        self.max_cones = tuple(dict.fromkeys(cones))  # a repeat counts once
        try:
            self.class_group, self.projection = cokernel([list(r) for r in rays])
        except NotFullRank as exc:
            raise TorusFactor("rays do not span the ambient space") from exc
        self.var_degrees = tuple(
            self.projection([int(i == k) for i in range(len(rays))])
            for k in range(len(rays)))
        self.irrelevant = IrrelevantIdeal(tuple(
            tuple(int(i not in cone) for i in range(len(rays)))
            for cone in self.max_cones))
        self.var_names = tuple(var_names) if var_names else tuple(
            f"x{i}" for i in range(len(rays)))
        self.dual_var_names = tuple(dual_var_names) if dual_var_names else tuple(
            f"y{i}" for i in range(len(rays)))
        if len(self.var_names) != len(rays) or len(self.dual_var_names) != len(rays):
            raise ParseError("need one variable name per ray")
        for names in (self.var_names, self.dual_var_names):
            _require_names(names, "variable names")
        self._cartier_cache = {}
        self._cone_smith = None  # Smith form of each maximal cone's rays
        self._basis_cache = {}  # degree -> monomial tuple
        self._walk_cache = []  # per outermost coordinate: columns, systems
        self._sum_index_cache = {}  # (beta, alpha) -> rows, cols, indices

    # -- degrees ---------------------------------------------------------

    def degree(self, free, torsion=()) -> DegreeClass:
        return self.class_group.degree(free, torsion)

    def zero_degree(self) -> DegreeClass:
        return self.class_group.zero()

    def monomial_degree(self, exponents) -> DegreeClass:
        return self.projection(list(exponents))

    # -- completeness ------------------------------------------------------

    def check_complete(self) -> Completeness:
        """Wall-crossing test on the distinct maximal cones (Cox, Little,
        Schenck, Toric Varieties, 3.4): every cone has n rays, every ray is
        used, each facet lies in exactly two cones, on opposite sides, and
        v = (1, t, ..., t^(n-1)) off every facet hyperplane lies in exactly
        one cone.  Each hyperplane meets that curve at most n - 1 times,
        so the search for t finishes."""
        n = self.ambient_rank
        cones = set(self.max_cones)
        if (any(len(c) != n for c in cones)
                or set().union(*cones) != set(range(len(self.rays)))):
            return Completeness.NOT_COMPLETE

        def side(facet, v):  # sign of v against the hyperplane of facet
            d = det_bareiss([self.rays[i] for i in facet] + [v])
            return (d > 0) - (d < 0)

        walls = {}  # facet -> (cone, side of the ray opposite it) pairs
        for cone in cones:
            for i in cone:
                facet = tuple(j for j in cone if j != i)
                walls.setdefault(facet, []).append(
                    (cone, side(facet, self.rays[i])))
        if any(sorted(s for _, s in w) != [-1, 1] for w in walls.values()):
            return Completeness.NOT_COMPLETE
        t = 1
        while not all(side(f, [t ** k for k in range(n)]) for f in walls):
            t += 1
        v = [t ** k for k in range(n)]
        outside = {cone for f, w in walls.items() for cone, s in w
                   if side(f, v) != s}
        return (Completeness.COMPLETE if len(cones - outside) == 1
                else Completeness.NOT_COMPLETE)

    # -- divisors ----------------------------------------------------------

    def weil_representative(self, degree: DegreeClass):
        """Integer coefficients a with sum(a_i * deg x_i) == degree; a
        degree of another group is refused with GroupMismatch."""
        return self.projection.section(degree)

    def is_cartier(self, degree: DegreeClass) -> bool:
        """True iff every maximal cone admits an integral trivializing
        character: <m, u_rho> = -a_rho for all rays of the cone.  The
        Smith form of each cone's ray system is computed on first use and
        kept, so each later degree is one Smith solve per cone."""
        if degree in self._cartier_cache:
            return self._cartier_cache[degree]
        if self._cone_smith is None:
            self._cone_smith = tuple(
                smith_normal_form([self.rays[i] for i in cone])
                for cone in self.max_cones)
        coeffs = self.weil_representative(degree)
        result = all(_solve_smith(dec, [-coeffs[i] for i in cone]) is not None
                     for cone, dec in zip(self.max_cones, self._cone_smith))
        self._cartier_cache[degree] = result
        return result


def build_fan(rays, max_cones, var_names=None, dual_var_names=None) -> FanModel:
    return FanModel(rays, max_cones, var_names, dual_var_names)


def _int_table(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row)
        for row in value)


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# field -> (required, type check, what the field must be); JSON null counts
# as absent.  ``type(x) is int`` refuses booleans, floats and strings.
_FAN_FIELDS = {
    "rays": (True, _int_table, "a list of lists of integers"),
    "max_cones": (True, _int_table, "a list of lists of integers"),
    "var_names": (False, _str_list, "a list of strings"),
    "dual_var_names": (False, _str_list, "a list of strings"),
    "ambient_rank": (False, lambda v: type(v) is int, "an integer"),
}


def load_fan(path) -> FanModel:
    """Read a fan file: JSON with fields ambient_rank, rays, max_cones,
    optional var_names, dual_var_names.  Text that json cannot read (bad
    UTF-8 or syntax, an integer past int()'s digit limit, arrays nested
    too deep) is a ParseError."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read fan file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"fan file {path} is not a JSON object")
    for field, (required, valid, kind) in _FAN_FIELDS.items():
        value = data.get(field)
        if value is None:
            if required:
                raise ParseError(
                    f"fan file {path} lacks required field '{field}'")
        elif not valid(value):
            raise ParseError(f"fan file {path}: '{field}' must be {kind}")
    fan = build_fan(data["rays"], data["max_cones"],
                    var_names=data.get("var_names"),
                    dual_var_names=data.get("dual_var_names"))
    declared = data.get("ambient_rank")
    if declared is not None and declared != fan.ambient_rank:
        raise ParseError(
            f"fan file declares ambient_rank {declared}, rays have {fan.ambient_rank}")
    return fan
