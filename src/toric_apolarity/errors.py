"""Exception hierarchy shared by all modules.

Every error exposes ``name`` (the class name) so the CLI can report which
refusal occurred.  ``InputError`` subclasses signal malformed or invalid
input (CLI exit code 2); ``Refusal`` subclasses signal a mathematically
meaningful refusal to certify something (CLI exit code 1).
"""


class ToricApolarityError(Exception):
    @property
    def name(self) -> str:
        return type(self).__name__


class InputError(ToricApolarityError):
    """Invalid or malformed input."""


class Refusal(ToricApolarityError):
    """A computation refused on mathematical grounds."""


# --- input-side errors -------------------------------------------------

class NotFullRank(InputError):
    """Integer matrix does not have full column rank."""


class GroupMismatch(InputError):
    """Degree classes from different graded groups were combined."""


class NonPrimitiveRay(InputError):
    """A ray generator is not a primitive integer vector."""


class NonSimplicialCone(InputError):
    """A maximal cone's ray generators are linearly dependent."""


class TorusFactor(InputError):
    """The rays do not span the ambient space."""


class SideMismatch(InputError):
    """Primal/dual polynomial sides were mixed illegally."""


class NonHomogeneousGenerator(InputError):
    """An ideal generator is not homogeneous."""


class NonSquare(InputError):
    """A determinant was requested for a non-square matrix."""


class ParseError(InputError):
    """Malformed polynomial, degree, or file syntax."""


# --- mathematical refusals ---------------------------------------------

class NoCertificate(Refusal):
    """The rays do not positively span N_R, as the elimination decides."""


class BasisTooLarge(Refusal):
    """A graded piece, or a length estimate's samples, pass a monomial cap."""


class BoxTooLarge(Refusal):
    """A degree box has more degrees than the box cap."""


class CatalecticantTooLarge(Refusal):
    """A catalecticant has more cells than the matrix cap."""


class StackTooLarge(Refusal):
    """A Terracini probe's tangent stacks have more cells than the matrix cap."""


class ContainmentFailed(Refusal):
    """The candidate ideal is not contained in the apolar ideal."""


class PointInIrrelevantLocus(Refusal):
    """A point's coordinates lie in the vanishing set of the irrelevant ideal."""


class NegativeExponentResidue(Refusal):
    """A limit family does not converge as its parameters tend to zero."""


class BadPrime(Refusal):
    """The chosen prime divides a denominator needed by the computation."""
