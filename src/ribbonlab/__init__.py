"""Exact windowed models of ribbons over curves and their Schur pairs.

The package realizes, at finite truncation windows and in exact arithmetic,
the correspondence between filtered section data on formal thickenings of a
curve and pairs of subspaces of the iterated Laurent field k((u))((t)),
together with the cohomological and Picard-group computations that live on
the same models.
"""

from .cohomology import (LevelStack, PicardReport, RibbonCohomologyReport,
                         cech_line_bundle, picard_dimension, ribbon_cohomology)
from .errors import (ConfigError, DegreeBoundError, FieldMismatchError,
                     NotCocompactError, RangeViolationError, RibbonlabError,
                     SupportViolationError, TruncationBoundError,
                     UnsupportedDatumError, WindowMismatchError,
                     WindowTooSmallError, ZeroOrderError)
from .fredholm import (Verdict, WindowedSubspace, echelonize, fredholm_index,
                       membership)
from .geometry import (EVEN_VARIANT, KINDS, NILPOTENT, NODAL_CUBIC, P2_LINE,
                       GeometricDatum, LevelIndexTable, NodalCubicRing,
                       OrderGroupReport, RibbonAxiomReport, forward_krichever,
                       level_index_table, make_datum, noncoherent_chain,
                       order_group, validate_ribbon_axioms)
from .local2d import Local2DElement, Window2D, ord_t_vector
from .schur import (LayeredSubspace, PointIdealReport, SchurPair, SchurReport,
                    check_schur_pair, hilbert_function, layered_membership,
                    point_ideal_check)
from .series import QQ, Field, LaurentPoly, Scalar

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
