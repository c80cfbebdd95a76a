"""Exact multigraded apolarity on simplicial toric varieties.

Library surface: fans and class groups, graded polynomial arithmetic in
the coordinate ring and its dual, the contraction action with its
annihilators and Hilbert functions, catalecticant rank bounds, degreewise
ideal linear algebra with length estimation, and secant-dimension probes.
"""

from .abelian import (DegreeClass, GradedGroup, SmithDecomposition, cokernel,
                      smith_normal_form, solve_integer)
from .apolarity import (ApolarForm, DegreeBox, HilbertGrid, SymmetryVerdict,
                        annihilator_in_degree, apolar_contains, check_symmetry,
                        contract, hilbert_grid, hilbert_value)
from .bounds import (BestBounds, BoundReport, CatMatrix, best_bounds,
                     bound_report, catalecticant)
from .errors import *  # noqa: F401,F403 - exception names are the public API
from .fan import Completeness, FanModel, IrrelevantIdeal, build_fan, load_fan
from .ideals import (CactusCertificate, IdealGens, LengthEstimate,
                     cactus_certificate, colon_piece, ideal_piece,
                     ideal_piece_dimension, length_estimate, saturation_gap)
from .ring import (MultiPoly, Side, basis, format_poly, homogeneous_degree,
                   parse_poly)
from .secant import (DecompositionCheck, LaurentFamily, LaurentScalar,
                     LimitCertificate, TerraciniProbe, default_pins,
                     limit_certificate, parametrize, parse_laurent,
                     terracini_determinant_check, terracini_probe,
                     verify_decomposition)

__version__ = "0.1.0"
