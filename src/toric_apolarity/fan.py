"""Fan input model for simplicial toric varieties: class group and variable
degrees from the ray matrix, irrelevant ideal, and each maximal cone's
Smith form, which decides completeness and which classes are Cartier."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from math import gcd
from pathlib import Path

from .abelian import DegreeClass, _solve_smith, cokernel, smith_normal_form
from .errors import (NonPrimitiveRay, NonSimplicialCone,
                     NotFullRank, ParseError, TorusFactor)
from .linalg import rank_bareiss
from .ring import _NAME


def _sequence(value, valid) -> bool:
    """True if ``value`` is a sequence other than a string and ``valid``
    holds for each of its items."""
    return (isinstance(value, Sequence) and not isinstance(value, str)
            and all(map(valid, value)))


def _int_row(value) -> bool:  # ``type(x) is int`` refuses bools, floats, strs
    return _sequence(value, lambda x: type(x) is int)


def _require_names(names, what: str):
    """Refuse with ParseError declared names that are not a sequence of
    distinct names the term syntax can read."""
    if not (_sequence(names, lambda n: isinstance(n, str) and _NAME.fullmatch(n))
            and len(set(names)) == len(names)):
        raise ParseError(f"{what} {names!r} are not distinct names "
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
    the caches derived from it: each maximal cone's Smith form, built on
    first use and read by both ``check_complete`` and ``is_cartier``, and
    Cartier verdicts here, graded bases filled in by ``ring``, and the
    sum-index tables of catalecticants filled in by ``apolarity``.
    """

    def __init__(self, rays, max_cones, var_names=None, dual_var_names=None):
        for table, field in ((rays, "rays"), (max_cones, "max_cones")):
            if not _sequence(table, _int_row):
                raise ParseError(f"'{field}' must be a list of lists of integers")
        rays = tuple(map(tuple, rays))
        names = [[f"{c}{i}" for i in range(len(rays))] if given is None else given
                 for given, c in ((var_names, "x"), (dual_var_names, "y"))]
        for given in names:
            _require_names(given, "variable names")
            if len(given) != len(rays):
                raise ParseError("need one variable name per ray")
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
            idx = tuple(sorted(set(cone)))
            if len(idx) != len(cone) or not idx or idx[0] < 0 or idx[-1] >= len(rays):
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
        self.var_names, self.dual_var_names = map(tuple, names)
        self._cartier_cache = {}
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

    @cached_property
    def _cone_smith(self):
        """Smith form of each maximal cone's matrix, its rays as rows."""
        return tuple(smith_normal_form([self.rays[i] for i in cone])
                     for cone in self.max_cones)

    def check_complete(self) -> Completeness:
        """Wall-crossing test on the distinct maximal cones (Cox, Little,
        Schenck, Toric Varieties, 3.4): every cone has n rays, every ray is
        used, each facet lies in exactly two cones, on opposite sides, and
        v = (1, t, ..., t^(n-1)) off every facet hyperplane lies in exactly
        one cone.  Sides are signs of coordinates in a cone's rays, times its
        last invariant factor d, so integral.  Each hyperplane meets that
        curve at most n - 1 times, so the search for t finishes."""
        n, cones = self.ambient_rank, self.max_cones
        if (any(len(c) != n for c in cones)
                or set().union(*cones) != set(range(len(self.rays)))):
            return Completeness.NOT_COMPLETE
        # rays are A's rows: solve A^T x = d * v by A's Smith form transposed
        frames = [replace(s, left=tuple(zip(*s.right)),
                          right=tuple(zip(*s.left))) for s in self._cone_smith]

        def coordinates(k, v):
            return _solve_smith(frames[k], [frames[k].diag[-1] * x for x in v])

        walls = {}  # facet -> (cone, position of the ray opposite it) pairs
        for k, cone in enumerate(cones):
            for p in range(n):
                walls.setdefault(cone[:p] + cone[p + 1:], []).append((k, p))
        if any(len(w) != 2 for w in walls.values()) or any(
                coordinates(k, self.rays[cones[f][q]])[p] >= 0  # same side
                for (k, p), (f, q) in walls.values()):
            return Completeness.NOT_COMPLETE
        t, lam = 0, [[0]]
        while not all(map(all, lam)):  # v lies on a facet hyperplane
            t += 1
            lam = [coordinates(k, [t ** i for i in range(n)])
                   for k in range(len(cones))]
        return (Completeness.COMPLETE if sum(min(x) > 0 for x in lam) == 1
                else Completeness.NOT_COMPLETE)

    # -- divisors ----------------------------------------------------------

    def weil_representative(self, degree: DegreeClass):
        """Integer coefficients a with sum(a_i * deg x_i) == degree; a
        degree of another group is refused with GroupMismatch."""
        return self.projection.section(degree)

    def is_cartier(self, degree: DegreeClass) -> bool:
        """True iff every maximal cone admits an integral trivializing
        character: <m, u_rho> = -a_rho for all rays of the cone: one
        solve per cone in its kept Smith form."""
        if degree in self._cartier_cache:
            return self._cartier_cache[degree]
        coeffs = self.weil_representative(degree)
        result = all(_solve_smith(dec, [-coeffs[i] for i in cone]) is not None
                     for cone, dec in zip(self.max_cones, self._cone_smith))
        self._cartier_cache[degree] = result
        return result


def build_fan(rays, max_cones, var_names=None, dual_var_names=None) -> FanModel:
    return FanModel(rays, max_cones, var_names, dual_var_names)


def load_fan(path) -> FanModel:
    """Read a fan file: JSON with fields ambient_rank, rays, max_cones,
    optional var_names, dual_var_names; ``FanModel`` checks the fields
    the fan is built from, and JSON null counts as absent.  Text that
    json cannot read (bad UTF-8 or syntax, an integer past int()'s digit
    limit, arrays nested too deep) is a ParseError."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read fan file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"fan file {path} is not a JSON object")
    for field in ("rays", "max_cones"):
        if data.get(field) is None:
            raise ParseError(f"fan file {path} lacks required field '{field}'")
    fan = build_fan(data["rays"], data["max_cones"],
                    var_names=data.get("var_names"),
                    dual_var_names=data.get("dual_var_names"))
    declared = data.get("ambient_rank")
    if declared is not None and (type(declared) is not int
                                 or declared != fan.ambient_rank):
        raise ParseError(f"fan file declares ambient_rank {declared!r}, "
                         f"its rays the integer {fan.ambient_rank}")
    return fan
