"""Catalecticant matrices and the three lower bounds they induce.

Border-rank and rank bounds hold for every class; the cactus bound is
gated hard on the class being Cartier, because a non-Cartier class can
overshoot the true cactus rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .abelian import DegreeClass
from .apolarity import (ApolarForm, DegreeBox, catalecticant_entries,
                        hilbert_value)


@dataclass(frozen=True)
class CatMatrix:
    """Contraction matrix of a form at a fixed domain degree, with its exact rank.
    Row i, column j holds the coefficient of the j-th target monomial in (i-th
    domain monomial acting on the form): times ``scale`` in ``matrix``, and in
    ``entries`` as a Fraction, made when first read."""

    degree: DegreeClass
    rows: tuple
    cols: tuple
    matrix: tuple
    scale: int
    rank: int

    @cached_property
    def entries(self):
        return tuple(tuple(Fraction(x, self.scale) for x in r) for r in self.matrix)

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))


def catalecticant(form: ApolarForm, degree: DegreeClass) -> CatMatrix:
    """The row view of ``catalecticant_entries``, with the rank
    ``hilbert_value`` reads on the table's short-side lines."""
    rows, cols, matrix = catalecticant_entries(form, degree)
    return CatMatrix(degree, rows, cols, tuple(map(tuple, matrix)), form.scale,
                     hilbert_value(form, degree))


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds certified by one catalecticant rank: the rank bound is
    the border bound, and ``cactus`` is None exactly when the domain
    degree is not Cartier."""

    degree: DegreeClass
    border: int
    cactus: int | None

    @property
    def rank(self) -> int:
        return self.border

    @property
    def cartier(self) -> bool:
        return self.cactus is not None


def bound_report(form: ApolarForm, degree: DegreeClass) -> BoundReport:
    value = hilbert_value(form, degree)
    cactus = value if form.fan.is_cartier(degree) else None
    return BoundReport(degree=degree, border=value, cactus=cactus)


@dataclass(frozen=True)
class BestBounds:
    border: int
    border_at: DegreeClass | None
    rank: int
    rank_at: DegreeClass | None
    cactus: int
    cactus_at: DegreeClass | None


def best_bounds(form: ApolarForm, box: DegreeBox) -> BestBounds:
    """Per-kind maxima over a degree box; ties go to the first degree in
    the graded-lex order (total free degree, then coordinates), which
    needs no weight because the box is finite.  The rank bound is the
    border bound, as in every ``BoundReport``."""
    ordered = sorted(box, key=lambda d: (sum(d.free), d.free, d.torsion))
    border, border_at, cactus, cactus_at = 0, None, 0, None
    for degree in ordered:
        report = bound_report(form, degree)
        if report.border > border:
            border, border_at = report.border, degree
        if report.cactus is not None and report.cactus > cactus:
            cactus, cactus_at = report.cactus, degree
    return BestBounds(border=border, border_at=border_at,
                      rank=border, rank_at=border_at,
                      cactus=cactus, cactus_at=cactus_at)
