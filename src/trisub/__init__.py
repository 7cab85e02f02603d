"""Iterated medial subdivision of triangle shapes.

Four maps cut a hyperbolic triangle along its midlines and pick one of
the four cells; iterating them flattens any start shape toward a
nondegenerate Euclidean limit.  The package provides the maps on the
shape space, an independent hyperboloid-model oracle, exact symbolic
addressing of infinite letter sequences, verification suites for the
quantitative decay bounds, and a CLI.
"""

from .hyptrig import (DomainError, InconsistentInputError, MedialData,
                      angles_from_edges, area_from_edges, cagnoli_area,
                      defect_area, edges_from_angles, keogh_area,
                      law_of_sines_ratio, medial_data, trace_parent_area)
from .shape import (AngleShape, EdgeLengths, ShapeRecord, metric_distance,
                    project_euclidean, shape_from_angles, shape_from_edges)
from .subdivision import (LETTERS, ConvergenceError, OrbitTrace, apply,
                          apply_oracle, child_edges, limit_shape,
                          limit_shape_info, orbit)
from .symbolic import (Bary, SymbolSequence, address_approx, address_exact,
                       classify, equivalent, letter_map, match_prop31)

__version__ = "0.1.0"

# verify's suites in the order that verify --suite all runs them; defined
# here so that the CLI lists them without loading verify
SUITE_NAMES = ("lemma21", "area", "ratiolimit", "cauchy", "angleratio",
               "noncontraction", "eq1probe", "continuity", "surjectivity")

__all__ = [
    "DomainError", "InconsistentInputError", "MedialData",
    "angles_from_edges", "area_from_edges", "cagnoli_area", "defect_area",
    "edges_from_angles", "keogh_area", "law_of_sines_ratio", "medial_data",
    "trace_parent_area",
    "AngleShape", "EdgeLengths", "ShapeRecord", "metric_distance",
    "project_euclidean", "shape_from_angles", "shape_from_edges",
    "LETTERS", "ConvergenceError", "OrbitTrace", "apply", "apply_oracle",
    "child_edges", "limit_shape", "limit_shape_info", "orbit",
    "Bary", "SymbolSequence", "address_approx", "address_exact", "classify",
    "equivalent", "letter_map", "match_prop31",
    "SUITE_NAMES", "__version__",
]
